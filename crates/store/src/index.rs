//! The persistent authenticated address index: [`IndexedTables`].
//!
//! This is the store-side backend of [`lvq_chain::TableSource`] — the
//! chain's per-block derived state (headers, address tables, BMT span
//! hashes, per-address presence) kept in a Merk-style Merkle AVL tree
//! ([`lvq_merkle::avl`]) whose nodes live in an append-only, CRC-framed
//! node log. Reopening a store becomes a root-record read plus a few
//! point reads instead of a chain replay, and proofs are generated from
//! the handful of nodes they touch instead of a tree rebuild.
//!
//! # On-disk layout
//!
//! The index is a subdirectory (`addr-index/`) of the block store:
//!
//! ```text
//! nodes-0000.seg    magic "LVQN" | version u32 | segment u32 | records…
//! nodes-0001.seg    …
//! root.idx          magic "LVQR" | version u32 | tip u64
//!                   | Option<AvlLink> | Option<loc> | crc32
//! ```
//!
//! Node records reuse the block store's framing
//! ([`crate::frame`]): `len u32 | crc32 u32 | payload`. Each payload is
//! one [`AvlNode`] plus the log locations of its children, so a
//! descent needs no in-memory directory — resident memory is the
//! bounded node cache plus the not-yet-anchored write set, independent
//! of chain length.
//!
//! # Keyspace
//!
//! One tree holds four keyspaces, disambiguated by a first byte:
//!
//! ```text
//! 'a' ‖ varint(len) ‖ address ‖ height_be8  →  distinct-tx count
//! 'h' ‖ height_be8                          →  encoded BlockHeader
//! 's' ‖ lo_be8 ‖ hi_be8                     →  BMT span hash
//! 't' ‖ height_be8                          →  encoded address table
//! ```
//!
//! The stored table for a height is byte-identical to
//! `Block::address_counts()`, which is what pins proofs built from the
//! index to the rebuild path.
//!
//! # Durability and the root-anchoring rule
//!
//! Inserts accumulate in memory (the *dirty* set); [`TableSource::sync`]
//! writes dirty nodes to the log children-first, fsyncs the log, and
//! only then rewrites the checksummed root record (atomic
//! temp-file-and-rename). The root therefore only ever references
//! durable nodes. The record carries the anchored *tip height*: a root
//! that disagrees with the store tip is [`StoreError::StaleIndexRoot`]
//! — behind means catch up from the (CRC-verified) blocks, ahead means
//! the index references blocks the store lost and must be rebuilt.
//!
//! Every node fetched during a read is re-hashed and verified against
//! the link that committed it ([`lvq_merkle::avl::fetch`]), so a
//! corrupted node, a torn log, or a swapped record surfaces as a loud
//! error — never as a wrong answer.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use lvq_chain::{Address, BlockHeader, CacheStats, ChainError, TableSource, TableUpdate};
use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;
use lvq_merkle::avl::{AvlError, AvlLink, AvlNode, AvlNodeStore, AvlProof, AvlTree};

use crate::cache::LruCache;
use crate::crc32::crc32;
use crate::error::StoreError;
use crate::frame::{
    frame_record, read_exact_at, read_record_payload, segment_header, FrameError, RecordLoc,
    SegmentHandle, SEGMENT_HEADER_LEN,
};
use crate::fsio::{RealFs, StoreFs};

const NODE_MAGIC: [u8; 4] = *b"LVQN";
const ROOT_MAGIC: [u8; 4] = *b"LVQR";
const VERSION: u32 = 1;
const ROOT_FILE: &str = "root.idx";
const ROOT_TMP_FILE: &str = "root.idx.tmp";

const KEY_ADDR: u8 = b'a';
const KEY_HEADER: u8 = b'h';
const KEY_SPAN: u8 = b's';
const KEY_TABLE: u8 = b't';

fn height_suffixed_key(tag: u8, height: u64) -> Vec<u8> {
    let mut key = Vec::with_capacity(9);
    key.push(tag);
    key.extend_from_slice(&height.to_be_bytes());
    key
}

fn header_key(height: u64) -> Vec<u8> {
    height_suffixed_key(KEY_HEADER, height)
}

fn table_key(height: u64) -> Vec<u8> {
    height_suffixed_key(KEY_TABLE, height)
}

fn span_key(lo: u64, hi: u64) -> Vec<u8> {
    let mut key = Vec::with_capacity(17);
    key.push(KEY_SPAN);
    key.extend_from_slice(&lo.to_be_bytes());
    key.extend_from_slice(&hi.to_be_bytes());
    key
}

/// `'a' ‖ varint(len) ‖ address` — the length prefix keeps one address
/// from being a byte-prefix of another, so prefix scans cannot
/// over-match.
fn addr_prefix(address: &Address) -> Vec<u8> {
    let bytes = address.as_bytes();
    let mut key = Vec::with_capacity(2 + bytes.len() + 8);
    key.push(KEY_ADDR);
    lvq_codec::write_compact_size(&mut key, bytes.len() as u64);
    key.extend_from_slice(bytes);
    key
}

fn addr_key(address: &Address, height: u64) -> Vec<u8> {
    let mut key = addr_prefix(address);
    key.extend_from_slice(&height.to_be_bytes());
    key
}

fn avl_chain_error(e: AvlError) -> ChainError {
    ChainError::Source {
        detail: format!("address index: {e}"),
    }
}

fn avl_store_error(e: AvlError) -> StoreError {
    StoreError::Chain(avl_chain_error(e))
}

fn decode_error(detail: &'static str) -> impl FnOnce(DecodeError) -> AvlError {
    move |_| AvlError::CorruptNode { detail }
}

/// [`RecordLoc`] behind the codec traits, for node records and the
/// root record.
#[derive(Debug, Clone, Copy)]
struct LocCodec(RecordLoc);

impl Encodable for LocCodec {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.segment.encode_into(out);
        self.0.offset.encode_into(out);
        self.0.len.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        16
    }
}

impl Decodable for LocCodec {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(LocCodec(RecordLoc {
            segment: u32::decode_from(reader)?,
            offset: u64::decode_from(reader)?,
            len: u32::decode_from(reader)?,
        }))
    }
}

/// One node as it sits in the log: the tree node plus the locations of
/// its children, which is what makes descents pure point reads.
#[derive(Debug, Clone)]
struct StoredNode {
    node: Arc<AvlNode>,
    left_loc: Option<RecordLoc>,
    right_loc: Option<RecordLoc>,
}

fn encode_stored(
    node: &AvlNode,
    left_loc: Option<RecordLoc>,
    right_loc: Option<RecordLoc>,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(node.encoded_len() + 34);
    node.encode_into(&mut out);
    left_loc.map(LocCodec).encode_into(&mut out);
    right_loc.map(LocCodec).encode_into(&mut out);
    out
}

fn decode_stored(payload: &[u8]) -> Result<StoredNode, AvlError> {
    let mut reader = Reader::new(payload);
    let node =
        AvlNode::decode_from(&mut reader).map_err(decode_error("node record does not decode"))?;
    let left_loc = Option::<LocCodec>::decode_from(&mut reader)
        .map_err(decode_error("node record does not decode"))?
        .map(|l| l.0);
    let right_loc = Option::<LocCodec>::decode_from(&mut reader)
        .map_err(decode_error("node record does not decode"))?
        .map(|l| l.0);
    reader
        .finish()
        .map_err(decode_error("node record has trailing bytes"))?;
    if node.left.is_some() != left_loc.is_some() || node.right.is_some() != right_loc.is_some() {
        return Err(AvlError::CorruptNode {
            detail: "child links and child locations disagree",
        });
    }
    Ok(StoredNode {
        node: Arc::new(node),
        left_loc,
        right_loc,
    })
}

fn node_file_name(segment: u32) -> String {
    format!("nodes-{segment:04}.seg")
}

#[derive(Debug)]
struct LogWriter {
    file: File,
    segment: u32,
    offset: u64,
}

/// The append-only node log: `nodes-NNNN.seg` segments sharing the
/// block store's record framing. Records are only ever reached through
/// locations written *after* them, so the log needs no reopen scan —
/// torn tail bytes are simply unreferenced.
#[derive(Debug)]
struct NodeLog {
    dir: PathBuf,
    target_bytes: u64,
    fs: Arc<dyn StoreFs>,
    segments: RwLock<Vec<SegmentHandle>>,
    writer: Mutex<LogWriter>,
}

impl NodeLog {
    fn create(
        dir: &Path,
        target_bytes: u64,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let path = dir.join(node_file_name(0));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        fs_impl.write_all(&file, &segment_header(NODE_MAGIC, VERSION, 0))?;
        fs_impl.sync(&file)?;
        Ok(NodeLog {
            dir: dir.to_path_buf(),
            target_bytes,
            fs: fs_impl,
            segments: RwLock::new(vec![SegmentHandle {
                file: Arc::new(File::open(&path)?),
                path,
            }]),
            writer: Mutex::new(LogWriter {
                file,
                segment: 0,
                offset: SEGMENT_HEADER_LEN,
            }),
        })
    }

    fn open(dir: &Path, target_bytes: u64, fs_impl: Arc<dyn StoreFs>) -> Result<Self, StoreError> {
        let mut count = 0u32;
        while dir.join(node_file_name(count)).exists() {
            count += 1;
        }
        if count == 0 {
            return Err(StoreError::MissingSegment { segment: 0 });
        }
        let mut segments = Vec::with_capacity(count as usize);
        for seg in 0..count {
            let path = dir.join(node_file_name(seg));
            let handle = SegmentHandle {
                file: Arc::new(File::open(&path)?),
                path,
            };
            let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
            read_exact_at(&handle, &mut header, 0)?;
            if header[..4] != NODE_MAGIC {
                return Err(StoreError::BadMagic {
                    file: "node segment",
                });
            }
            let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            if version != VERSION {
                return Err(StoreError::UnsupportedVersion {
                    file: "node segment",
                    found: version,
                });
            }
            let stored_seg = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
            if stored_seg != seg {
                return Err(StoreError::CorruptRecord {
                    segment: seg,
                    offset: 8,
                    detail: "node segment header numbers itself differently",
                });
            }
            segments.push(handle);
        }
        let last = count - 1;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(dir.join(node_file_name(last)))?;
        let offset = file.seek(SeekFrom::End(0))?;
        Ok(NodeLog {
            dir: dir.to_path_buf(),
            target_bytes,
            fs: fs_impl,
            segments: RwLock::new(segments),
            writer: Mutex::new(LogWriter {
                file,
                segment: last,
                offset,
            }),
        })
    }

    fn append(&self, payload: &[u8]) -> Result<RecordLoc, StoreError> {
        let record = frame_record(payload);
        let mut writer = self.writer.lock();
        if writer.offset >= self.target_bytes && writer.offset > SEGMENT_HEADER_LEN {
            self.rotate(&mut writer)?;
        }
        self.fs.write_all(&writer.file, &record)?;
        let loc = RecordLoc {
            segment: writer.segment,
            offset: writer.offset,
            len: payload.len() as u32,
        };
        writer.offset += record.len() as u64;
        Ok(loc)
    }

    fn rotate(&self, writer: &mut LogWriter) -> Result<(), StoreError> {
        self.fs.sync(&writer.file)?;
        let next = writer.segment + 1;
        let path = self.dir.join(node_file_name(next));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)?;
        self.fs
            .write_all(&file, &segment_header(NODE_MAGIC, VERSION, next))?;
        self.segments.write().push(SegmentHandle {
            file: Arc::new(File::open(&path)?),
            path,
        });
        writer.file = file;
        writer.segment = next;
        writer.offset = SEGMENT_HEADER_LEN;
        Ok(())
    }

    fn read(&self, loc: RecordLoc) -> Result<Vec<u8>, AvlError> {
        let handle = {
            let segments = self.segments.read();
            let Some(handle) = segments.get(loc.segment as usize) else {
                return Err(AvlError::CorruptNode {
                    detail: "node location names a segment the log does not have",
                });
            };
            handle.clone()
        };
        read_record_payload(&handle, loc).map_err(|e| match e {
            FrameError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                AvlError::CorruptNode {
                    detail: "node location reaches beyond the end of the log",
                }
            }
            FrameError::Io(e) => AvlError::Backend {
                detail: e.to_string(),
            },
            FrameError::Corrupt { detail } => AvlError::CorruptNode { detail },
        })
    }

    fn sync(&self) -> Result<(), StoreError> {
        self.fs.sync(&self.writer.lock().file)?;
        Ok(())
    }

    fn data_bytes(&self) -> u64 {
        self.segments
            .read()
            .iter()
            .filter_map(|handle| fs::metadata(&handle.path).ok())
            .map(|meta| meta.len())
            .sum()
    }
}

type NodeCache = Mutex<LruCache<RecordLoc, StoredNode>>;

/// Per-operation key → log-location memo. The tree layer descends by
/// key; without a directory, each fetch would walk the anchored tree
/// from the root — O(log²n) loads per point read. The memo records the
/// location of every node (and its children) seen during one
/// operation, so consecutive parent→child fetches resolve in O(1) and
/// a point read costs O(log n) loads total. It lives only as long as
/// one reader (one `table`/`presence`/scan/`push` call under the inner
/// lock, during which the anchor cannot move), so it is bounded and
/// never stale.
type LocMemo = RefCell<HashMap<Vec<u8>, RecordLoc>>;

/// Locations the memo holds at most — roughly one root-to-leaf path
/// plus scan frontier; cleared wholesale when exceeded.
const MEMO_CAP: usize = 4096;

/// Records a loaded node's own location and its children's.
fn remember_stored(memo: &LocMemo, stored: &StoredNode, loc: RecordLoc) {
    let mut memo = memo.borrow_mut();
    if memo.len() >= MEMO_CAP {
        memo.clear();
    }
    memo.insert(stored.node.key.clone(), loc);
    if let (Some(link), Some(child)) = (&stored.node.left, stored.left_loc) {
        memo.insert(link.key.clone(), child);
    }
    if let (Some(link), Some(child)) = (&stored.node.right, stored.right_loc) {
        memo.insert(link.key.clone(), child);
    }
}

/// Reads the record at `loc` through the location-keyed node cache.
fn load_stored(log: &NodeLog, cache: &NodeCache, loc: RecordLoc) -> Result<StoredNode, AvlError> {
    if let Some(hit) = cache.lock().get(&loc) {
        return Ok(hit);
    }
    let payload = log.read(loc)?;
    let stored = decode_stored(&payload)?;
    cache.lock().put(loc, stored.clone(), payload.len() + 96);
    Ok(stored)
}

/// BST descent by key through the *anchored* (on-disk) tree, following
/// stored child locations. Returns the node and where it lives, or
/// `None` if the anchored tree has no such key. Verification against
/// committed hashes happens in the tree layer on top of this.
fn walk_anchor(
    log: &NodeLog,
    cache: &NodeCache,
    anchor: Option<RecordLoc>,
    key: &[u8],
    memo: &LocMemo,
) -> Result<Option<(StoredNode, RecordLoc)>, AvlError> {
    let memo_hit = memo.borrow().get(key).copied();
    if let Some(loc) = memo_hit {
        let stored = load_stored(log, cache, loc)?;
        remember_stored(memo, &stored, loc);
        return Ok(Some((stored, loc)));
    }
    let Some(mut loc) = anchor else {
        return Ok(None);
    };
    loop {
        let stored = load_stored(log, cache, loc)?;
        remember_stored(memo, &stored, loc);
        match key.cmp(stored.node.key.as_slice()) {
            std::cmp::Ordering::Equal => return Ok(Some((stored, loc))),
            std::cmp::Ordering::Less => match stored.left_loc {
                Some(next) => loc = next,
                None => return Ok(None),
            },
            std::cmp::Ordering::Greater => match stored.right_loc {
                Some(next) => loc = next,
                None => return Ok(None),
            },
        }
    }
}

/// Resolves the log location of the exact node version `link` commits
/// to, via the anchored tree.
fn locate_anchored(
    log: &NodeLog,
    cache: &NodeCache,
    anchor: Option<RecordLoc>,
    link: &AvlLink,
    memo: &LocMemo,
) -> Result<RecordLoc, AvlError> {
    let Some((stored, loc)) = walk_anchor(log, cache, anchor, &link.key, memo)? else {
        return Err(AvlError::CorruptNode {
            detail: "committed node missing from the anchored tree",
        });
    };
    if stored.node.node_hash() != link.hash {
        return Err(AvlError::CorruptNode {
            detail: "anchored node version disagrees with its parent link",
        });
    }
    Ok(loc)
}

fn get_node_from(
    log: &NodeLog,
    cache: &NodeCache,
    dirty: &HashMap<Vec<u8>, Arc<AvlNode>>,
    anchor: Option<RecordLoc>,
    key: &[u8],
    memo: &LocMemo,
) -> Result<Option<Arc<AvlNode>>, AvlError> {
    if let Some(node) = dirty.get(key) {
        return Ok(Some(node.clone()));
    }
    Ok(walk_anchor(log, cache, anchor, key, memo)?.map(|(stored, _)| stored.node))
}

/// Read-only [`AvlNodeStore`] over the log: dirty set first, anchored
/// tree second.
struct NodeReader<'a> {
    log: &'a NodeLog,
    cache: &'a NodeCache,
    dirty: &'a HashMap<Vec<u8>, Arc<AvlNode>>,
    anchor: Option<RecordLoc>,
    memo: LocMemo,
}

impl AvlNodeStore for NodeReader<'_> {
    fn get_node(&self, key: &[u8]) -> Result<Option<Arc<AvlNode>>, AvlError> {
        get_node_from(
            self.log,
            self.cache,
            self.dirty,
            self.anchor,
            key,
            &self.memo,
        )
    }

    fn put_node(&mut self, _node: &AvlNode) -> Result<(), AvlError> {
        Err(AvlError::Backend {
            detail: "node store is read-only outside push".to_string(),
        })
    }
}

/// Writable [`AvlNodeStore`] for [`TableSource::push`]: writes go to
/// the in-memory dirty set; the log is only appended to at sync time,
/// so one anchor writes each rewritten node once, not once per insert.
struct NodeEditor<'a> {
    log: &'a NodeLog,
    cache: &'a NodeCache,
    dirty: &'a mut HashMap<Vec<u8>, Arc<AvlNode>>,
    dirty_bytes: &'a mut u64,
    anchor: Option<RecordLoc>,
    memo: LocMemo,
}

impl AvlNodeStore for NodeEditor<'_> {
    fn get_node(&self, key: &[u8]) -> Result<Option<Arc<AvlNode>>, AvlError> {
        get_node_from(
            self.log,
            self.cache,
            self.dirty,
            self.anchor,
            key,
            &self.memo,
        )
    }

    fn put_node(&mut self, node: &AvlNode) -> Result<(), AvlError> {
        let size = node.resident_size() as u64;
        if let Some(old) = self.dirty.insert(node.key.clone(), Arc::new(node.clone())) {
            *self.dirty_bytes = self.dirty_bytes.saturating_sub(old.resident_size() as u64);
        }
        *self.dirty_bytes += size;
        Ok(())
    }
}

#[derive(Debug)]
struct IndexInner {
    tree: AvlTree,
    /// Height the in-memory tree is consistent with.
    tip: u64,
    /// Height the on-disk root record anchors.
    anchored_tip: u64,
    /// Log location of the anchored root node.
    anchor: Option<RecordLoc>,
    /// Nodes written since the last anchor, latest version per key.
    dirty: HashMap<Vec<u8>, Arc<AvlNode>>,
    dirty_bytes: u64,
}

/// A persistent, authenticated [`TableSource`]: the chain's per-block
/// derived state in a Merkle AVL tree over an append-only node log.
/// The layout and invariants are documented in the source of this
/// crate's `index` module.
#[derive(Debug)]
pub struct IndexedTables {
    dir: PathBuf,
    log: NodeLog,
    fs: Arc<dyn StoreFs>,
    inner: RwLock<IndexInner>,
    cache: NodeCache,
}

impl IndexedTables {
    /// Creates a fresh, empty index in `dir`, wiping whatever was there
    /// (the index is derived state — rebuilding it loses nothing).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn create(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
    ) -> Result<Self, StoreError> {
        Self::create_with_fs(dir, cache_bytes, segment_target_bytes, Arc::new(RealFs))
    }

    /// [`IndexedTables::create`] with an explicit [`StoreFs`] — the
    /// seam the crash-fault harness injects through.
    ///
    /// # Errors
    ///
    /// As [`IndexedTables::create`].
    pub fn create_with_fs(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        if dir.exists() {
            fs_impl.remove_dir_all(dir)?;
        }
        fs::create_dir_all(dir)?;
        let log = NodeLog::create(dir, segment_target_bytes, Arc::clone(&fs_impl))?;
        let tables = IndexedTables {
            dir: dir.to_path_buf(),
            log,
            fs: fs_impl,
            inner: RwLock::new(IndexInner {
                tree: AvlTree::new(),
                tip: 0,
                anchored_tip: 0,
                anchor: None,
                dirty: HashMap::new(),
                dirty_bytes: 0,
            }),
            cache: Mutex::new(LruCache::new(cache_bytes)),
        };
        write_root(&tables.dir, 0, None, None, &*tables.fs)?;
        Ok(tables)
    }

    /// Opens the index in `dir` from its checksummed root record and
    /// verifies the anchored root node against it (one point read).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the root file is missing,
    /// [`StoreError::CorruptIndexRoot`] if it fails validation, and any
    /// node-log error if the root node cannot be read back verified.
    pub fn open(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
    ) -> Result<Self, StoreError> {
        Self::open_with_fs(dir, cache_bytes, segment_target_bytes, Arc::new(RealFs))
    }

    /// [`IndexedTables::open`] with an explicit [`StoreFs`].
    ///
    /// # Errors
    ///
    /// As [`IndexedTables::open`].
    pub fn open_with_fs(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref();
        // Debris from a crash between the root temp write and its
        // rename; the renamed-to root is still whole.
        let stale_tmp = dir.join(ROOT_TMP_FILE);
        if stale_tmp.exists() {
            fs_impl.remove_file(&stale_tmp)?;
        }
        let (tip, link, anchor) = read_root(&dir.join(ROOT_FILE))?;
        let log = NodeLog::open(dir, segment_target_bytes, Arc::clone(&fs_impl))?;
        let tables = IndexedTables {
            dir: dir.to_path_buf(),
            log,
            fs: fs_impl,
            inner: RwLock::new(IndexInner {
                tree: AvlTree::from_root(link.clone()),
                tip,
                anchored_tip: tip,
                anchor,
                dirty: HashMap::new(),
                dirty_bytes: 0,
            }),
            cache: Mutex::new(LruCache::new(cache_bytes)),
        };
        if let (Some(link), Some(anchor)) = (link, anchor) {
            let stored =
                load_stored(&tables.log, &tables.cache, anchor).map_err(avl_store_error)?;
            if stored.node.key != link.key
                || stored.node.height() != link.height
                || stored.node.node_hash() != link.hash
            {
                return Err(avl_store_error(AvlError::CorruptNode {
                    detail: "anchored root node disagrees with the root record",
                }));
            }
        }
        Ok(tables)
    }

    /// Like [`IndexedTables::open`], but additionally requires the root
    /// to anchor exactly `expected_tip`.
    ///
    /// # Errors
    ///
    /// As [`IndexedTables::open`], plus [`StoreError::StaleIndexRoot`]
    /// when the anchored tip is not `expected_tip`.
    pub fn open_at(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
        expected_tip: u64,
    ) -> Result<Self, StoreError> {
        Self::open_at_with_fs(
            dir,
            cache_bytes,
            segment_target_bytes,
            expected_tip,
            Arc::new(RealFs),
        )
    }

    /// [`IndexedTables::open_at`] with an explicit [`StoreFs`].
    ///
    /// # Errors
    ///
    /// As [`IndexedTables::open_at`].
    pub fn open_at_with_fs(
        dir: impl AsRef<Path>,
        cache_bytes: usize,
        segment_target_bytes: u64,
        expected_tip: u64,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let tables = Self::open_with_fs(dir, cache_bytes, segment_target_bytes, fs_impl)?;
        let root_tip = tables.tip();
        if root_tip != expected_tip {
            return Err(StoreError::StaleIndexRoot {
                root_tip,
                store_tip: expected_tip,
            });
        }
        Ok(tables)
    }

    /// The tip height the index is consistent with.
    pub fn tip(&self) -> u64 {
        self.inner.read().tip
    }

    /// The authenticated root hash over the entire index
    /// ([`Hash256::ZERO`] when empty).
    pub fn root_hash(&self) -> Hash256 {
        self.inner.read().tree.root_hash()
    }

    /// Total bytes across the node-log segment files.
    pub fn data_bytes(&self) -> u64 {
        self.log.data_bytes()
    }

    /// Restores all block headers `1..=tip` by point reads.
    ///
    /// # Errors
    ///
    /// [`StoreError::Chain`] if a header is missing, fails
    /// verification, or does not decode.
    pub fn restore_headers(&self) -> Result<Vec<BlockHeader>, StoreError> {
        let inner = self.inner.read();
        let reader = self.reader(&inner);
        let mut headers = Vec::with_capacity(inner.tip as usize);
        // One in-order prefix scan: header keys sort by height, so the
        // walk yields 1..=tip directly and verifies each node once —
        // instead of `tip` separate root-to-leaf point reads.
        inner
            .tree
            .scan_prefix(&reader, &[KEY_HEADER], &mut |node| {
                if node.key.len() != 9 {
                    return Err(AvlError::CorruptNode {
                        detail: "header entry key is malformed",
                    });
                }
                let height = u64::from_be_bytes(node.key[1..9].try_into().expect("8 bytes"));
                if height != headers.len() as u64 + 1 || height > inner.tip {
                    return Err(AvlError::CorruptNode {
                        detail: "index header heights are not contiguous",
                    });
                }
                let header = lvq_codec::decode_exact::<BlockHeader>(&node.value)
                    .map_err(decode_error("stored header does not decode"))?;
                headers.push(header);
                Ok(())
            })
            .map_err(avl_store_error)?;
        if headers.len() as u64 != inner.tip {
            return Err(avl_store_error(AvlError::CorruptNode {
                detail: "index is missing a header below its anchored tip",
            }));
        }
        Ok(headers)
    }

    /// Restores the finalised BMT span hashes by one prefix scan.
    ///
    /// # Errors
    ///
    /// [`StoreError::Chain`] on verification or decode failure.
    pub fn restore_span_hashes(&self) -> Result<HashMap<(u64, u64), Hash256>, StoreError> {
        let inner = self.inner.read();
        let reader = self.reader(&inner);
        let mut spans = HashMap::new();
        inner
            .tree
            .scan_prefix(&reader, &[KEY_SPAN], &mut |node| {
                if node.key.len() != 17 {
                    return Err(AvlError::CorruptNode {
                        detail: "span entry key is malformed",
                    });
                }
                let lo = u64::from_be_bytes(node.key[1..9].try_into().expect("8 bytes"));
                let hi = u64::from_be_bytes(node.key[9..17].try_into().expect("8 bytes"));
                let hash = lvq_codec::decode_exact::<Hash256>(&node.value)
                    .map_err(decode_error("span entry value is malformed"))?;
                spans.insert((lo, hi), hash);
                Ok(())
            })
            .map_err(avl_store_error)?;
        Ok(spans)
    }

    /// Verifies the *entire* index — every node's hash, height, BST
    /// order, and AVL balance — and returns the entry count. This is
    /// the full-paranoia reopen path; normal reads already verify the
    /// nodes they touch.
    ///
    /// # Errors
    ///
    /// [`StoreError::Chain`] at the first violation.
    pub fn verify_all(&self) -> Result<u64, StoreError> {
        let inner = self.inner.read();
        let reader = self.reader(&inner);
        inner.tree.verify_walk(&reader).map_err(avl_store_error)
    }

    /// Builds an authenticated membership proof for the table entry at
    /// `height`, returning the proof and the root hash it verifies
    /// under — internal integrity evidence assembled from O(log n)
    /// point reads.
    ///
    /// # Errors
    ///
    /// [`StoreError::Chain`] if the height has no table entry or a node
    /// on the path fails verification.
    pub fn prove_table(&self, height: u64) -> Result<(AvlProof, Hash256), StoreError> {
        let inner = self.inner.read();
        let reader = self.reader(&inner);
        let proof = inner
            .tree
            .prove(&reader, &table_key(height))
            .map_err(avl_store_error)?;
        Ok((proof, inner.tree.root_hash()))
    }

    fn reader<'a>(&'a self, inner: &'a IndexInner) -> NodeReader<'a> {
        NodeReader {
            log: &self.log,
            cache: &self.cache,
            dirty: &inner.dirty,
            anchor: inner.anchor,
            memo: LocMemo::default(),
        }
    }

    /// Writes every dirty node to the log children-first, fsyncs it,
    /// and re-anchors the root record at the current tip.
    fn flush(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        if inner.dirty.is_empty() && inner.anchored_tip == inner.tip {
            return Ok(());
        }
        let inner = &mut *inner;
        let memo = LocMemo::default();
        let root_loc = match inner.tree.root() {
            None => None,
            Some(link) => Some(write_subtree(
                link,
                &inner.dirty,
                inner.anchor,
                &self.log,
                &self.cache,
                &memo,
            )?),
        };
        // Log first, root second: the renamed-in root record must only
        // ever reference nodes that are already durable.
        self.log.sync()?;
        write_root(&self.dir, inner.tip, inner.tree.root(), root_loc, &*self.fs)?;
        inner.anchor = root_loc;
        inner.anchored_tip = inner.tip;
        inner.dirty.clear();
        inner.dirty_bytes = 0;
        Ok(())
    }
}

/// Writes the dirty nodes of the subtree under `link` to the log,
/// children before parents, and returns the subtree root's location.
/// Clean subtrees are not descended into — their root's location is
/// resolved through the previously anchored tree.
fn write_subtree(
    link: &AvlLink,
    dirty: &HashMap<Vec<u8>, Arc<AvlNode>>,
    anchor: Option<RecordLoc>,
    log: &NodeLog,
    cache: &NodeCache,
    memo: &LocMemo,
) -> Result<RecordLoc, StoreError> {
    match dirty.get(&link.key) {
        Some(node) if node.node_hash() == link.hash => {
            let left_loc = node
                .left
                .as_ref()
                .map(|l| write_subtree(l, dirty, anchor, log, cache, memo))
                .transpose()?;
            let right_loc = node
                .right
                .as_ref()
                .map(|l| write_subtree(l, dirty, anchor, log, cache, memo))
                .transpose()?;
            let payload = encode_stored(node, left_loc, right_loc);
            let loc = log.append(&payload)?;
            cache.lock().put(
                loc,
                StoredNode {
                    node: node.clone(),
                    left_loc,
                    right_loc,
                },
                payload.len() + 96,
            );
            Ok(loc)
        }
        // Not dirty (or a stale dirty version, which locate_anchored
        // will refuse): the exact committed version must already be in
        // the anchored tree.
        _ => locate_anchored(log, cache, anchor, link, memo).map_err(avl_store_error),
    }
}

/// Atomically rewrites `root.idx`:
/// `magic | version | tip | root link | root loc | crc32`.
fn write_root(
    dir: &Path,
    tip: u64,
    link: Option<&AvlLink>,
    loc: Option<RecordLoc>,
    fs_impl: &dyn StoreFs,
) -> Result<(), StoreError> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&ROOT_MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&tip.to_le_bytes());
    link.cloned().encode_into(&mut bytes);
    loc.map(LocCodec).encode_into(&mut bytes);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());

    let tmp = dir.join(ROOT_TMP_FILE);
    let file = File::create(&tmp)?;
    fs_impl.write_all(&file, &bytes)?;
    fs_impl.sync(&file)?;
    fs_impl.rename(&tmp, &dir.join(ROOT_FILE))?;
    // A rename alone is not power-loss durable until the directory
    // entry itself is on disk.
    fs_impl.sync_dir(dir)?;
    Ok(())
}

/// Reads and validates `root.idx` back.
fn read_root(path: &Path) -> Result<(u64, Option<AvlLink>, Option<RecordLoc>), StoreError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 20 {
        return Err(StoreError::CorruptIndexRoot {
            detail: "truncated",
        });
    }
    if bytes[..4] != ROOT_MAGIC {
        return Err(StoreError::CorruptIndexRoot {
            detail: "bad magic",
        });
    }
    if u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) != VERSION {
        return Err(StoreError::CorruptIndexRoot {
            detail: "unsupported version",
        });
    }
    let body_len = bytes.len() - 4;
    let stored_crc = u32::from_le_bytes([
        bytes[body_len],
        bytes[body_len + 1],
        bytes[body_len + 2],
        bytes[body_len + 3],
    ]);
    if crc32(&bytes[..body_len]) != stored_crc {
        return Err(StoreError::CorruptIndexRoot {
            detail: "crc mismatch",
        });
    }
    let tip = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let mut reader = Reader::new(&bytes[16..body_len]);
    let parsed: Result<_, DecodeError> = (|| {
        let link = Option::<AvlLink>::decode_from(&mut reader)?;
        let loc = Option::<LocCodec>::decode_from(&mut reader)?.map(|l| l.0);
        reader.finish()?;
        Ok((link, loc))
    })();
    let Ok((link, loc)) = parsed else {
        return Err(StoreError::CorruptIndexRoot {
            detail: "does not decode",
        });
    };
    if link.is_some() != loc.is_some() {
        return Err(StoreError::CorruptIndexRoot {
            detail: "root link and root location disagree",
        });
    }
    if tip > 0 && link.is_none() {
        return Err(StoreError::CorruptIndexRoot {
            detail: "anchored tip without a root node",
        });
    }
    Ok((tip, link, loc))
}

fn encode_table(table: &[(Address, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    lvq_codec::write_compact_size(&mut out, table.len() as u64);
    for entry in table {
        entry.encode_into(&mut out);
    }
    out
}

impl TableSource for IndexedTables {
    fn len(&self) -> u64 {
        self.inner.read().tip
    }

    fn table(&self, height: u64) -> Result<Arc<Vec<(Address, u64)>>, ChainError> {
        let inner = self.inner.read();
        if height == 0 || height > inner.tip {
            return Err(ChainError::UnknownHeight { height });
        }
        let reader = self.reader(&inner);
        let node = inner
            .tree
            .get(&reader, &table_key(height))
            .map_err(avl_chain_error)?
            .ok_or_else(|| ChainError::Source {
                detail: format!("address index has no table for height {height}"),
            })?;
        let table = lvq_codec::decode_exact::<Vec<(Address, u64)>>(&node.value).map_err(|_| {
            ChainError::Source {
                detail: format!("address index table for height {height} does not decode"),
            }
        })?;
        Ok(Arc::new(table))
    }

    fn push(&mut self, update: TableUpdate<'_>) -> Result<(), ChainError> {
        let inner = self.inner.get_mut();
        debug_assert_eq!(update.height, inner.tip + 1);
        let IndexInner {
            tree,
            dirty,
            dirty_bytes,
            anchor,
            tip,
            ..
        } = inner;
        let mut editor = NodeEditor {
            log: &self.log,
            cache: &self.cache,
            dirty,
            dirty_bytes,
            anchor: *anchor,
            memo: LocMemo::default(),
        };
        // Canonical per-block order: header, table, spans, addresses —
        // replaying the same blocks therefore grows the identical tree,
        // which is what makes rebuild == incremental testable.
        tree.insert(
            &mut editor,
            &header_key(update.height),
            &update.header.encode(),
        )
        .map_err(avl_chain_error)?;
        tree.insert(
            &mut editor,
            &table_key(update.height),
            &encode_table(&update.table),
        )
        .map_err(avl_chain_error)?;
        for span in update.new_spans {
            tree.insert(
                &mut editor,
                &span_key(span.lo, span.hi),
                &span.hash.encode(),
            )
            .map_err(avl_chain_error)?;
        }
        for (address, count) in update.table.iter() {
            tree.insert(
                &mut editor,
                &addr_key(address, update.height),
                &count.encode(),
            )
            .map_err(avl_chain_error)?;
        }
        *tip += 1;
        Ok(())
    }

    fn truncate(&mut self, height: u64) -> Result<(), ChainError> {
        let tip = self.inner.read().tip;
        if height > tip {
            return Err(ChainError::UnknownHeight { height });
        }
        if height == tip {
            return Ok(());
        }
        // Collect every doomed key first, while the entries are still
        // readable: each rewound height's address entries (named by its
        // stored table), its table and header entries, and every span
        // reaching above the fork point. Genuine deletion — not tip
        // masking — because `restore_headers` treats any entry above
        // the anchored tip as corruption at the next reopen.
        let mut doomed: Vec<Vec<u8>> = Vec::new();
        for h in height + 1..=tip {
            let table = self.table(h)?;
            for (address, _) in table.iter() {
                doomed.push(addr_key(address, h));
            }
            doomed.push(table_key(h));
            doomed.push(header_key(h));
        }
        {
            let inner = self.inner.read();
            let reader = self.reader(&inner);
            inner
                .tree
                .scan_prefix(&reader, &[KEY_SPAN], &mut |node| {
                    if node.key.len() != 17 {
                        return Err(AvlError::CorruptNode {
                            detail: "span entry key is malformed",
                        });
                    }
                    let hi = u64::from_be_bytes(node.key[9..17].try_into().expect("8 bytes"));
                    if hi > height {
                        doomed.push(node.key.clone());
                    }
                    Ok(())
                })
                .map_err(avl_chain_error)?;
        }
        let inner = self.inner.get_mut();
        let IndexInner {
            tree,
            dirty,
            dirty_bytes,
            anchor,
            tip,
            ..
        } = inner;
        let mut editor = NodeEditor {
            log: &self.log,
            cache: &self.cache,
            dirty,
            dirty_bytes,
            anchor: *anchor,
            memo: LocMemo::default(),
        };
        for key in &doomed {
            tree.remove(&mut editor, key).map_err(avl_chain_error)?;
        }
        *tip = height;
        Ok(())
    }

    fn presence(&self, address: &Address) -> Result<Option<Vec<(u64, u64)>>, ChainError> {
        let inner = self.inner.read();
        let tip = inner.tip;
        let reader = self.reader(&inner);
        let prefix = addr_prefix(address);
        let mut out = Vec::new();
        inner
            .tree
            .scan_prefix(&reader, &prefix, &mut |node| {
                if node.key.len() != prefix.len() + 8 {
                    return Err(AvlError::CorruptNode {
                        detail: "presence entry key is malformed",
                    });
                }
                let height =
                    u64::from_be_bytes(node.key[prefix.len()..].try_into().expect("8 bytes"));
                let count = lvq_codec::decode_exact::<u64>(&node.value)
                    .map_err(decode_error("presence entry value is malformed"))?;
                // Tip-pinned: ignore entries above the served tip (a
                // failed half-applied push can leave orphans there
                // until the next successful extension overwrites them).
                if height >= 1 && height <= tip {
                    out.push((height, count));
                }
                Ok(())
            })
            .map_err(avl_chain_error)?;
        Ok(Some(out))
    }

    fn sync(&self, tip_height: u64) -> Result<(), ChainError> {
        let tip = self.inner.read().tip;
        if tip_height != tip {
            return Err(ChainError::Source {
                detail: format!("address index at height {tip} cannot anchor at {tip_height}"),
            });
        }
        self.flush().map_err(|e| ChainError::Source {
            detail: e.to_string(),
        })
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.lock().stats()
    }

    fn clear_cache(&self) {
        self.cache.lock().clear();
    }

    fn set_cache_budget(&self, budget_bytes: usize) {
        self.cache.lock().set_budget(budget_bytes);
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.read().dirty_bytes + self.cache.lock().stats().used_bytes
    }
}

impl Drop for IndexedTables {
    fn drop(&mut self) {
        // Best effort: anchor whatever was pushed so the next open
        // starts from the tip instead of catching up.
        let _ = self.flush();
    }
}
