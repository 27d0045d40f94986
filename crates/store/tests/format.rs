//! The on-disk format, pinned.
//!
//! Two guards over every file a store writes:
//!
//! * **Golden digests.** A fixed-seed store — block segments and node
//!   segments both rotated, the address index anchored, a fork journal
//!   written, truncated around, and compacted — must produce files
//!   whose SHA-256 digests equal the constants below. A deliberate
//!   format change updates the constants; anything else that moves a
//!   byte fails here.
//! * **Malformed-file outcomes.** Every header and checksum failure of
//!   every file maps to one pinned outcome: a loud [`StoreError`] for
//!   `store.meta` and the block segments, a rebuilt cache for
//!   `index.idx`, and a rebuilt address index (with its reason) for
//!   `root.idx` and the node segments.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use lvq_bloom::BloomParams;
use lvq_chain::{Address, Chain, ChainBuilder, ChainParams, CommitmentPolicy, Transaction};
use lvq_store::{
    crc32, ingest_chain, open_chain_indexed, AddrIndexRecovery, BlockStore, RecoveryReport,
    StoreConfig, StoreError,
};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("lvq-format-test-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const BLOCKS: u64 = 9;
const SEED: u64 = 3;

fn params() -> ChainParams {
    ChainParams::new(BloomParams::new(64, 2).unwrap(), 4, CommitmentPolicy::lvq()).unwrap()
}

/// A segment target small enough that both the block segments and the
/// node segments rotate on a [`BLOCKS`]-block chain.
fn config() -> StoreConfig {
    StoreConfig {
        segment_target_bytes: 2048,
        ..StoreConfig::default()
    }
}

fn build_chain() -> Chain {
    let mut builder = ChainBuilder::new(params()).unwrap();
    for h in 1..=BLOCKS {
        let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h as u32)];
        for t in 0..(SEED + h) % 4 {
            txs.push(Transaction::coinbase(
                Address::new(format!("1Addr{SEED}x{h}x{t}").as_str()),
                1,
                (h * 100 + t) as u32,
            ));
        }
        builder.push_block(txs).unwrap();
    }
    builder.finish()
}

/// Ingests the fixed chain and anchors its address index.
fn indexed_store(dir: &Path, chain: &Chain) {
    drop(ingest_chain(chain, dir, config()).unwrap());
    let (served, report) = open_chain_indexed(dir, config()).unwrap();
    assert_eq!(
        report.addr_index,
        AddrIndexRecovery::Rebuilt {
            reason: "no index present"
        }
    );
    drop(served);
}

/// `relative path → sha256 hex` for every file under `dir`.
fn digests(dir: &Path) -> BTreeMap<String, String> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, String>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let name = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .replace('\\', "/");
                let bytes = fs::read(&path).unwrap();
                out.insert(name, lvq_crypto::hex::encode(&lvq_crypto::sha256(&bytes)));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

fn expect(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(name, digest)| (name.to_string(), digest.to_string()))
        .collect()
}

#[test]
fn every_file_is_byte_identical_to_the_pinned_format() {
    let scratch = ScratchDir::new("golden");
    let dir = scratch.path();
    let chain = build_chain();
    indexed_store(dir, &chain);

    let files = digests(dir);
    assert!(files.contains_key("segment-0001.blk"), "block log rotates");
    assert!(
        files.contains_key("addr-index/nodes-0001.seg"),
        "node log rotates"
    );
    assert_eq!(
        files,
        expect(&[
            (
                "addr-index/nodes-0000.seg",
                "3d32d8f51d01c8cd22d46be548a74af7cf01809154184f115ddea61db782c668"
            ),
            (
                "addr-index/nodes-0001.seg",
                "cf87973394e4bf7a29ec30090776904723f95218dc214c767a2e6dcd09481c07"
            ),
            (
                "addr-index/nodes-0002.seg",
                "153fe11cad998efdedfa8b0f2e00161b031fcf78e0149867206961774ecacdf1"
            ),
            (
                "addr-index/nodes-0003.seg",
                "11c7158b3d5983c7cf8f9971f3fd79a19a0fdfebf50f2dfb853262c8cedb4fba"
            ),
            (
                "addr-index/root.idx",
                "5a21d0897f5fdb8850e6931b4ee76872e3ccc9a88d99367e66c0c33d2481bf89"
            ),
            (
                "index.idx",
                "2e61c7ac88183356a167c104225ae8257d1b9065ddbc4542439a1df72c820f13"
            ),
            (
                "segment-0000.blk",
                "c5c9d749e3ac7d25de006652b522afde20c34045103db23ab265c457ed469baf"
            ),
            (
                "segment-0001.blk",
                "23557285b670921e0aee7ad5d323197ea270ee5832065f2b2113618171f6e308"
            ),
            (
                "store.meta",
                "819d9ab11d55759fc5fab59c60fe19640a7e839371349c001c8e4696d5c2291c"
            ),
        ]),
        "indexed store"
    );

    // The reorg path: journal two blocks, rewind the store below them,
    // then compact the journal (dropping the entry that fell out of the
    // reorg window, which rewrites the log through a temp file).
    let (store, report) = BlockStore::open(dir, config()).unwrap();
    assert!(report.is_clean());
    store.log_fork_block(2, &chain.block(2).unwrap()).unwrap();
    store.log_fork_block(8, &chain.block(8).unwrap()).unwrap();
    assert_eq!(store.truncate(5).unwrap(), 4);
    let after_truncate = digests(dir);
    assert_eq!(store.compact_fork_log(3).unwrap(), 1);
    let after_compact = digests(dir);
    drop(store);

    // The reorg path belongs to the block store; compare its own files.
    let store_files = |files: &BTreeMap<String, String>| -> BTreeMap<String, String> {
        files
            .iter()
            .filter(|(name, _)| !name.starts_with("addr-index/"))
            .map(|(name, digest)| (name.clone(), digest.clone()))
            .collect()
    };
    assert_eq!(
        store_files(&after_truncate),
        expect(&[
            (
                "forks.log",
                "2060ea1a9a4231e0019ed40334e5dd8346703d1c4b7f2c27d03851f98b9834b4"
            ),
            (
                "index.idx",
                "9616a6df4ee7d6ce1dbb2e75599b9486b8b524c08184cad6a9e6254505a1498d"
            ),
            (
                "segment-0000.blk",
                "cfac604830da9f0ee19ac86489b8155dd5df7cbfa3aa5708639728de855813f5"
            ),
            (
                "store.meta",
                "819d9ab11d55759fc5fab59c60fe19640a7e839371349c001c8e4696d5c2291c"
            ),
        ]),
        "after log_fork_block and truncate"
    );
    let mut compacted = store_files(&after_compact);
    assert_eq!(
        compacted.remove("forks.log").unwrap(),
        "43ebc449a169036202bdc1b2305935527cffd7a7f84226731111d0f375560a28",
        "forks.log after compact_fork_log"
    );
    let mut truncated = store_files(&after_truncate);
    truncated.remove("forks.log");
    assert_eq!(compacted, truncated, "compaction touches only forks.log");
}

// ---------------------------------------------------------------------
// Malformed files.
// ---------------------------------------------------------------------

/// A mutation of one store file, named for the failure it plants.
type Damage = fn(&Path);

fn patch(path: &Path, offset: usize, bytes: &[u8]) {
    let mut data = fs::read(path).unwrap();
    data[offset..offset + bytes.len()].copy_from_slice(bytes);
    fs::write(path, data).unwrap();
}

fn truncate_to(path: &Path, len: usize) {
    let data = fs::read(path).unwrap();
    fs::write(path, &data[..len]).unwrap();
}

/// Flips one bit of the trailing CRC.
fn flip_crc(path: &Path) {
    let mut data = fs::read(path).unwrap();
    let last = data.len() - 1;
    data[last] ^= 0x01;
    fs::write(path, data).unwrap();
}

/// Replaces everything after the 8-byte `magic | version` prefix with
/// `body` and reseals the CRC, so only the body's meaning is wrong.
fn reseal_body(path: &Path, body: &[u8]) {
    let data = fs::read(path).unwrap();
    let mut out = data[..8].to_vec();
    out.extend_from_slice(body);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    fs::write(path, out).unwrap();
}

fn meta(dir: &Path) -> PathBuf {
    dir.join("store.meta")
}

fn block_segment(dir: &Path, n: u32) -> PathBuf {
    dir.join(format!("segment-{n:04}.blk"))
}

fn index_file(dir: &Path) -> PathBuf {
    dir.join("index.idx")
}

fn root_file(dir: &Path) -> PathBuf {
    dir.join("addr-index").join("root.idx")
}

fn node_segment(dir: &Path, n: u32) -> PathBuf {
    dir.join("addr-index").join(format!("nodes-{n:04}.seg"))
}

fn outcome(result: Result<RecoveryReport, StoreError>) -> String {
    match result {
        Ok(report) => format!("{report:?}"),
        Err(e) => format!("{e:?}"),
    }
}

const REBUILT_INDEX: &str = "RecoveryReport { truncated_tail_bytes: 0, recovered_records: 9, \
     rebuilt_index: true, repaired_segment_header: false, truncated_fork_log_bytes: 0, \
     addr_index: NotOpened }";

#[test]
fn block_store_header_and_checksum_failures_are_pinned() {
    let cases: &[(&str, Damage, &str)] = &[
        (
            "store.meta: short file",
            |d| truncate_to(&meta(d), 11),
            "CorruptMeta",
        ),
        (
            "store.meta: bad magic",
            |d| patch(&meta(d), 0, b"XXXX"),
            "BadMagic { file: \"store.meta\" }",
        ),
        (
            "store.meta: version 2",
            |d| patch(&meta(d), 4, &2u32.to_le_bytes()),
            "UnsupportedVersion { file: \"store.meta\", found: 2 }",
        ),
        (
            "store.meta: crc flip",
            |d| flip_crc(&meta(d)),
            "CorruptMeta",
        ),
        (
            "store.meta: params do not decode",
            |d| reseal_body(&meta(d), &[0xFF; 3]),
            "CorruptMeta",
        ),
        (
            "segment header: bad magic",
            |d| patch(&block_segment(d, 0), 0, b"XXXX"),
            "BadMagic { file: \"segment\" }",
        ),
        (
            "segment header: version 2",
            |d| patch(&block_segment(d, 1), 4, &2u32.to_le_bytes()),
            "UnsupportedVersion { file: \"segment\", found: 2 }",
        ),
        (
            "segment header: misnumbered",
            |d| patch(&block_segment(d, 1), 8, &5u32.to_le_bytes()),
            "CorruptRecord { segment: 1, offset: 8, detail: \"segment header numbers itself \
             differently\" }",
        ),
        (
            "segment-0000.blk missing",
            |d| fs::remove_file(block_segment(d, 0)).unwrap(),
            "MissingSegment { segment: 0 }",
        ),
        (
            "index.idx: missing",
            |d| fs::remove_file(index_file(d)).unwrap(),
            REBUILT_INDEX,
        ),
        (
            "index.idx: short file",
            |d| truncate_to(&index_file(d), 19),
            REBUILT_INDEX,
        ),
        (
            "index.idx: bad magic",
            |d| patch(&index_file(d), 0, b"XXXX"),
            REBUILT_INDEX,
        ),
        (
            "index.idx: version 2",
            |d| patch(&index_file(d), 4, &2u32.to_le_bytes()),
            REBUILT_INDEX,
        ),
        (
            "index.idx: crc flip",
            |d| flip_crc(&index_file(d)),
            REBUILT_INDEX,
        ),
        (
            "index.idx: count disagrees with length",
            |d| reseal_body(&index_file(d), &1u64.to_le_bytes()),
            REBUILT_INDEX,
        ),
        (
            "index.idx: record outside the segments",
            |d| {
                let mut body = 1u64.to_le_bytes().to_vec();
                body.extend_from_slice(&7u32.to_le_bytes());
                body.extend_from_slice(&12u64.to_le_bytes());
                body.extend_from_slice(&1u32.to_le_bytes());
                reseal_body(&index_file(d), &body);
            },
            REBUILT_INDEX,
        ),
    ];

    let chain = build_chain();
    for (name, damage, expected) in cases {
        let scratch = ScratchDir::new("block-malformed");
        let dir = scratch.path();
        drop(ingest_chain(&chain, dir, config()).unwrap());
        assert!(block_segment(dir, 1).exists(), "fixture must rotate");
        damage(dir);
        let got = outcome(BlockStore::open(dir, config()).map(|(store, report)| {
            assert_eq!(store.len(), BLOCKS, "{name}: every block survives");
            report
        }));
        assert_eq!(got, *expected, "{name}");
    }
}

/// A CRC-valid `index.idx` whose count is absurd (2^60 records, far
/// more than its length holds) is a stale cache like any other: the
/// open rebuilds it rather than overflowing `count * 16` or trying to
/// allocate for it.
#[test]
fn index_count_overflow_rebuilds_the_index() {
    let scratch = ScratchDir::new("index-overflow");
    let dir = scratch.path();
    drop(ingest_chain(&build_chain(), dir, config()).unwrap());
    reseal_body(&index_file(dir), &(1u64 << 60).to_le_bytes());
    let (store, report) = BlockStore::open(dir, config()).unwrap();
    assert_eq!(format!("{report:?}"), REBUILT_INDEX);
    assert_eq!(store.len(), BLOCKS);
}

#[test]
fn address_index_header_and_checksum_failures_are_pinned() {
    const CORRUPT_ROOT: &str = "index root record corrupt";
    const FAILED: &str = "index failed verification";
    let cases: &[(&str, Damage, &str)] = &[
        (
            "root.idx: missing",
            |d| fs::remove_file(root_file(d)).unwrap(),
            "no index present",
        ),
        (
            "root.idx: short file",
            |d| truncate_to(&root_file(d), 19),
            CORRUPT_ROOT,
        ),
        (
            "root.idx: bad magic",
            |d| patch(&root_file(d), 0, b"XXXX"),
            CORRUPT_ROOT,
        ),
        (
            "root.idx: version 2",
            |d| patch(&root_file(d), 4, &2u32.to_le_bytes()),
            CORRUPT_ROOT,
        ),
        (
            "root.idx: crc flip",
            |d| flip_crc(&root_file(d)),
            CORRUPT_ROOT,
        ),
        (
            "root.idx: body does not decode",
            |d| {
                let mut body = BLOCKS.to_le_bytes().to_vec();
                body.push(0x07);
                reseal_body(&root_file(d), &body);
            },
            CORRUPT_ROOT,
        ),
        (
            "node segment header: bad magic",
            |d| patch(&node_segment(d, 0), 0, b"XXXX"),
            FAILED,
        ),
        (
            "node segment header: version 2",
            |d| patch(&node_segment(d, 1), 4, &2u32.to_le_bytes()),
            FAILED,
        ),
        (
            "node segment header: misnumbered",
            |d| patch(&node_segment(d, 1), 8, &5u32.to_le_bytes()),
            FAILED,
        ),
        (
            "nodes-0000.seg missing",
            |d| fs::remove_file(node_segment(d, 0)).unwrap(),
            FAILED,
        ),
    ];

    let chain = build_chain();
    for (name, damage, expected) in cases {
        let scratch = ScratchDir::new("index-malformed");
        let dir = scratch.path();
        indexed_store(dir, &chain);
        assert!(node_segment(dir, 1).exists(), "fixture must rotate");
        damage(dir);
        let (served, report) = open_chain_indexed(dir, config()).unwrap();
        assert_eq!(
            report.addr_index,
            AddrIndexRecovery::Rebuilt { reason: expected },
            "{name}"
        );
        assert_eq!(served.tip_height(), BLOCKS, "{name}: the rebuild serves");
        drop(served);
        let (_, report) = open_chain_indexed(dir, config()).unwrap();
        assert_eq!(
            report.addr_index,
            AddrIndexRecovery::Intact,
            "{name}: rebuild sticks"
        );
    }
}
