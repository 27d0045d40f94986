//! The benchmark's inputs: the generated chain, the seeded request
//! sequences, and the ground truth every verified answer is checked
//! against.
//!
//! The chain is generated from [`CHAIN_SEED`] and kept as a chain file in
//! the work directory; chain generation is the benchmark's input, not
//! something it measures. The file's name carries a fingerprint of the
//! sources that generate and commit the chain ([`CHAIN_SOURCES`]), so
//! code that changes the ledger or its commitments never reads a file
//! an older build wrote. The `--seed` argument only chooses the request
//! sequences, so every run serves the same ledger and the Table III
//! response sizes can be pinned.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lvq_bench::{build_workload, Scale, WorkloadSpec};
use lvq_chain::{Address, Chain};
use lvq_core::Scheme;
use lvq_crypto::Hash256;

/// Seed of the generated ledger (the reproduction's default
/// experiment seed, the one `repro fig12` and `repro fig16` use).
pub const CHAIN_SEED: u64 = 0x1_5EED;

/// Sources, relative to the repository root, that decide the generated
/// chain's blocks and commitments and the chain file's format.
pub const CHAIN_SOURCES: [&str; 9] = [
    "crates/bench",
    "crates/bloom",
    "crates/chain",
    "crates/codec",
    "crates/core/src/scheme.rs",
    "crates/crypto",
    "crates/merkle",
    "crates/workload",
    "perfbench/src/input.rs",
];

/// The repository root this benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// SHA-256 over the relative paths and contents of the `.rs` and
/// `.toml` files under `paths` (directories or files, relative to
/// `root`), so builds from different sources are told apart even
/// outside a git checkout.
pub fn source_fingerprint(root: &Path, paths: &[&str]) -> String {
    fn collect(path: &Path, out: &mut Vec<PathBuf>) {
        if path.is_dir() {
            for entry in std::fs::read_dir(path).into_iter().flatten().flatten() {
                collect(&entry.path(), out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for p in paths {
        collect(&root.join(p), &mut files);
    }
    files.sort();
    let mut data = Vec::new();
    for f in &files {
        let relative = f.strip_prefix(root).unwrap_or(f);
        data.extend_from_slice(relative.to_string_lossy().as_bytes());
        data.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    Hash256::hash(&data).to_string()
}

/// One verified transaction: block height and txid.
pub type Entry = (u64, Hash256);

/// The generated chain plus the Table III probe addresses.
pub struct Input {
    /// The ledger, fully committed, held in memory.
    pub chain: Chain,
    /// `("Addr1", address) .. ("Addr6", address)`.
    pub probes: Vec<(String, Address)>,
}

impl Input {
    /// Loads the chain for `scale` from the work directory, generating
    /// and saving it first if no build from the same [`CHAIN_SOURCES`]
    /// has done so yet. Chain files of other sources are removed.
    pub fn load(scale: Scale, work: &Path) -> Result<Input, String> {
        let spec = WorkloadSpec {
            seed: CHAIN_SEED,
            ..WorkloadSpec::paper_default(Scheme::Lvq, scale)
        };
        let prefix = format!("chain-{}-{:x}-", scale_name(scale), CHAIN_SEED);
        let fingerprint = source_fingerprint(&repo_root(), &CHAIN_SOURCES);
        let path = work.join(format!("{prefix}{}.lvq", &fingerprint[..16]));
        let chain = if path.exists() {
            // Written by a build of the same sources, so its commitments
            // are the ones this build computes.
            lvq_chain::file::load_from_path_trusted(&path)
                .map_err(|e| format!("load {}: {e}", path.display()))?
        } else {
            for entry in std::fs::read_dir(work).into_iter().flatten().flatten() {
                if entry.file_name().to_string_lossy().starts_with(&prefix) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
            let chain = build_workload(spec).chain;
            let tmp = path.with_extension("tmp");
            lvq_chain::file::save_to_path(&chain, &tmp)
                .map_err(|e| format!("save {}: {e}", tmp.display()))?;
            std::fs::rename(&tmp, &path).map_err(|e| format!("rename: {e}"))?;
            chain
        };
        if chain.tip_height() != scale.blocks() || chain.params() != spec.config().chain_params() {
            return Err(format!(
                "{} does not hold the benchmark chain",
                path.display()
            ));
        }
        let probes = scale
            .probes()
            .into_iter()
            .enumerate()
            .map(|(i, p)| (format!("Addr{}", i + 1), p.address))
            .collect();
        Ok(Input { chain, probes })
    }

    /// The probe labelled `label` (`"Addr4"`, ...).
    fn probe(&self, label: &str) -> &Address {
        &self
            .probes
            .iter()
            .find(|(l, _)| l == label)
            .expect("known probe")
            .1
    }
}

/// `"paper"` or `"small"`.
pub fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Small => "small",
    }
}

/// A small deterministic generator (SplitMix64); the request sequences
/// depend on nothing but the seed.
struct Rng(u64);

impl Rng {
    /// Seeds the generator.
    fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// One request of a sequence: a label for reporting plus the address.
#[derive(Debug, Clone)]
pub struct Request {
    /// `"seen"`, `"unseen"`, or a probe label such as `"Addr6"`.
    pub label: String,
    /// The queried address.
    pub address: Address,
}

/// Most blocks a wallet address appears in. Addresses seen in more
/// blocks are exchange- or service-like; their histories (tens of MB
/// and up) are the heavy workload's business.
pub const WALLET_MAX_BLOCKS: u64 = 8;

/// One window of wallet requests: 4 never-seen addresses (the paper's
/// Addr1 case, 20%), then addresses seen in 1, 2, 3-4 and 5-8 blocks in
/// the shares those classes hold among the chain's (block, address)
/// appearances (9%, 27%, 29% and 35% of the eligible ones). Every window
/// of every seed has this mix, so seeds differ in which addresses they
/// ask for but not in how heavy the requests are.
const WINDOW: [(Class, usize); 5] = [
    (Class::Unseen, 4),
    (Class::Blocks(1, 1), 1),
    (Class::Blocks(2, 2), 4),
    (Class::Blocks(3, 4), 5),
    (Class::Blocks(5, 8), 6),
];

/// Requests in one [`WINDOW`].
pub const WINDOW_LEN: usize = 20;

/// A wallet request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    /// An address the chain never saw.
    Unseen,
    /// An address seen in between `.0` and `.1` blocks.
    Blocks(u64, u64),
}

/// The population wallet requests are drawn from: every (block,
/// address) appearance of an address seen in at most
/// [`WALLET_MAX_BLOCKS`] blocks, Table III probes excluded.
pub struct WalletPool {
    tables: Vec<Arc<Vec<(Address, u64)>>>,
    /// Cumulative appearance counts, for drawing an appearance by index.
    ends: Vec<u64>,
    /// Blocks each eligible address appears in.
    blocks_of: HashMap<Address, u64>,
}

impl WalletPool {
    /// Indexes the chain's per-block address tables.
    pub fn new(input: &Input) -> WalletPool {
        let chain = &input.chain;
        let tables: Vec<_> = (1..=chain.tip_height())
            .map(|h| chain.addr_counts(h).expect("in-range table"))
            .collect();
        let mut blocks_of: HashMap<&Address, u64> = HashMap::new();
        for table in &tables {
            for (address, _) in table.iter() {
                *blocks_of.entry(address).or_default() += 1;
            }
        }
        let probes: HashSet<&Address> = input.probes.iter().map(|(_, a)| a).collect();
        let blocks_of = blocks_of
            .into_iter()
            .filter(|(a, n)| *n <= WALLET_MAX_BLOCKS && !probes.contains(a))
            .map(|(a, n)| (a.clone(), n))
            .collect();
        let ends = tables
            .iter()
            .scan(0u64, |acc, t| {
                *acc += t.len() as u64;
                Some(*acc)
            })
            .collect();
        WalletPool {
            tables,
            ends,
            blocks_of,
        }
    }

    /// An address seen in `lo..=hi` blocks, drawn uniformly over the
    /// appearances of such addresses.
    fn draw(&self, rng: &mut Rng, lo: u64, hi: u64) -> Address {
        let total = *self.ends.last().expect("non-empty chain");
        loop {
            let pick = rng.below(total);
            let block = self.ends.partition_point(|&end| end <= pick);
            let start = if block == 0 { 0 } else { self.ends[block - 1] };
            let address = &self.tables[block][(pick - start) as usize].0;
            if self
                .blocks_of
                .get(address)
                .is_some_and(|n| (lo..=hi).contains(n))
            {
                return address.clone();
            }
        }
    }

    /// `len` wallet requests for `client`, window by window in
    /// [`WINDOW`]'s mix, each window in a seeded order.
    pub fn sequence(&self, seed: u64, client: usize, len: usize) -> Vec<Request> {
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(client as u64));
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let mut window: Vec<Class> = WINDOW
                .iter()
                .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
                .collect();
            shuffle(&mut window, &mut rng);
            for class in window.into_iter().take(len - out.len()) {
                let (label, address) = match class {
                    Class::Unseen => (
                        "unseen",
                        Address::new(format!("1PerfbenchUnseen{seed:x}c{client}n{}", out.len())),
                    ),
                    Class::Blocks(lo, hi) => ("seen", self.draw(&mut rng, lo, hi)),
                };
                out.push(Request {
                    label: label.into(),
                    address,
                });
            }
        }
        out
    }
}

/// Fisher-Yates shuffle driven by `rng`.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `cycles` rounds over Addr4, Addr5 and Addr6, each round in a seeded
/// order, so every client's sequence holds the three probes equally
/// often.
pub fn heavy_sequence(input: &Input, seed: u64, client: usize, cycles: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed.wrapping_mul(37).wrapping_add(client as u64 + 1000));
    let mut out = Vec::with_capacity(cycles * 3);
    for _ in 0..cycles {
        let mut round = ["Addr4", "Addr5", "Addr6"];
        shuffle(&mut round, &mut rng);
        out.extend(round.iter().map(|label| Request {
            label: label.to_string(),
            address: input.probe(label).clone(),
        }));
    }
    out
}

/// Full-chain histories (height, txid) of every address in `requests`,
/// gathered in one pass over the chain. Equivalent to calling
/// [`Chain::history_of`] per address (the self-test checks this), at
/// the cost of one scan instead of one per address.
pub fn ground_truth<'a>(
    chain: &Chain,
    requests: impl IntoIterator<Item = &'a Request>,
) -> HashMap<Address, Vec<Entry>> {
    let mut truth: HashMap<Address, Vec<Entry>> = requests
        .into_iter()
        .map(|r| (r.address.clone(), Vec::new()))
        .collect();
    for height in 1..=chain.tip_height() {
        let block = chain.block(height).expect("in-range block");
        for tx in &block.transactions {
            let mut txid = None;
            for address in tx.addresses() {
                if let Some(history) = truth.get_mut(address) {
                    let id = *txid.get_or_insert_with(|| tx.txid());
                    history.push((height, id));
                }
            }
        }
    }
    truth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_mix_fills_the_window() {
        assert_eq!(WINDOW.iter().map(|(_, n)| n).sum::<usize>(), WINDOW_LEN);
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            let x = a.below(10);
            assert_eq!(x, b.below(10));
            assert!(x < 10);
        }
    }
}
