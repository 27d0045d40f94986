//! Per-layer measurements made outside the serving path: substrate
//! rates, and replays of served work through each crate's public
//! functions.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_chain::{Block, Chain};
use lvq_crypto::sha256;
use lvq_merkle::bmt::{self, BmtSource};
use lvq_merkle::Bmt;
use lvq_node::{FullNode, IngestConfig, IngestStats, LiveNode, MemoryFeed, TipIngester};
use lvq_store::{BlockStore, StoreConfig};

use crate::stats::median;

/// How long each substrate rate is measured.
const SUBSTRATE_TIME: Duration = Duration::from_millis(250);

/// Calls `f` in batches of `batch` until [`SUBSTRATE_TIME`] has passed
/// and returns the mean time of one call in seconds.
fn time_per_call(batch: u32, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < SUBSTRATE_TIME {
        for _ in 0..batch {
            f();
        }
        calls += u64::from(batch);
    }
    start.elapsed().as_secs_f64() / calls as f64
}

/// SHA-256 throughput in MB/s over `len`-byte buffers.
pub fn sha256_mb_s(len: usize) -> f64 {
    let data = vec![0xABu8; len];
    let per_call = time_per_call(64, || {
        black_box(sha256(black_box(&data)));
    });
    len as f64 / per_call / 1e6
}

/// Microseconds to union two 30 KB Bloom filters.
pub fn bloom_union_us() -> f64 {
    let params = BloomParams::new(30_000, 2).expect("valid params");
    let mut acc = BloomFilter::new(params);
    let mut other = BloomFilter::new(params);
    for i in 0..500u64 {
        other.insert(&i.to_le_bytes());
    }
    time_per_call(256, || {
        acc.union_with(black_box(&other)).expect("same params");
        black_box(&acc);
    }) * 1e6
}

/// Microseconds to verify a BMT absence proof over 64 leaves of 30 KB
/// filters holding 500 addresses each.
pub fn bmt_verify_absent_us() -> f64 {
    let params = BloomParams::new(30_000, 2).expect("valid params");
    let leaves: Vec<BloomFilter> = (0..64u64)
        .map(|i| {
            let mut f = BloomFilter::new(params);
            for j in 0..500u64 {
                f.insert(format!("1A{i}x{j}").as_bytes());
            }
            f
        })
        .collect();
    let tree = Bmt::build(1, leaves).expect("power-of-two leaves");
    let positions = BloomFilter::bit_positions(params, b"1PerfbenchAbsent");
    let proof = bmt::prove(&tree, &positions).expect("provable");
    let root = tree.root_hash();
    time_per_call(16, || {
        black_box(
            proof
                .verify(1, 64, black_box(&root), params, &positions)
                .expect("honest proof"),
        );
    }) * 1e6
}

/// Write-path costs, replayed on the benchmark's own store.
#[derive(Debug, Clone, Copy)]
pub struct WritePath {
    /// Median milliseconds of one `BlockStore::append` (with its fsync).
    pub append_ms: f64,
    /// Median milliseconds of one `LiveNode::extend_batch` of one block.
    pub extend_ms: f64,
    /// Blocks per second a `TipIngester` catches up from a feed that
    /// publishes them all at once.
    pub ingest_blocks_per_s: f64,
    /// The ingester's counters.
    pub ingest: IngestStats,
}

/// How long the ingest replay may take before it counts as stuck.
const CATCH_UP_LIMIT: Duration = Duration::from_secs(60);

/// Replays the write path on a store holding the first quarter of
/// `chain`: `blocks` blocks appended and absorbed one by one, then
/// `blocks` more caught up by a `TipIngester`.
pub fn write_path(chain: &Chain, dir: &Path, blocks: u64) -> Result<WritePath, String> {
    let fail = |e: &dyn std::fmt::Display| format!("write-path replay: {e}");
    let _ = std::fs::remove_dir_all(dir);
    let prefix = chain.tip_height() / 4;
    let blocks = blocks.min((chain.tip_height() - prefix) / 2);
    let target = prefix + 2 * blocks;
    let input: Vec<Block> = (1..=target)
        .map(|h| chain.block(h).map(|b| (*b).clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| fail(&e))?;
    {
        let store = BlockStore::create(dir, chain.params(), StoreConfig::default())
            .map_err(|e| fail(&e))?;
        for block in &input[..prefix as usize] {
            store.append(block).map_err(|e| fail(&e))?;
        }
        store.sync().map_err(|e| fail(&e))?;
    }
    let (served, _) = lvq_store::open_chain(dir, StoreConfig::default()).map_err(|e| fail(&e))?;
    let store = Arc::clone(served.source().store());
    let live = Arc::new(LiveNode::new(FullNode::new(served).map_err(|e| fail(&e))?));
    let (mut append, mut extend) = (Vec::new(), Vec::new());
    for block in &input[prefix as usize..(prefix + blocks) as usize] {
        let t0 = Instant::now();
        store.append(block).map_err(|e| fail(&e))?;
        let t1 = Instant::now();
        let absorbed = live.extend_batch(1).map_err(|e| fail(&e))?;
        append.push((t1 - t0).as_secs_f64() * 1e3);
        extend.push(t1.elapsed().as_secs_f64() * 1e3);
        if absorbed != 1 {
            return Err(fail(&format!("extend_batch absorbed {absorbed} blocks")));
        }
    }
    let tip_hash = input[target as usize - 1].header.block_hash();
    let feed = MemoryFeed::new(input);
    feed.publisher().publish_all();
    let start = Instant::now();
    let ingester = TipIngester::spawn(
        Arc::clone(&live),
        Arc::clone(&store),
        feed,
        IngestConfig::new(),
    );
    while live.tip_height() < target && start.elapsed() < CATCH_UP_LIMIT {
        std::thread::sleep(Duration::from_millis(1));
    }
    let took = start.elapsed().as_secs_f64();
    let ingest = ingester.stop().map_err(|e| fail(&e))?;
    if live.tip_height() != target || live.tip_hash() != tip_hash {
        return Err(fail(&"the replayed chain diverged from the generated one"));
    }
    drop(live);
    drop(store);
    let _ = std::fs::remove_dir_all(dir);
    Ok(WritePath {
        append_ms: median(&append),
        extend_ms: median(&extend),
        ingest_blocks_per_s: blocks as f64 / took,
        ingest,
    })
}
