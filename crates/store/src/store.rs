//! The append-only segmented block store.
//!
//! # On-disk layout
//!
//! A store is a directory:
//!
//! ```text
//! store.meta          checked file "LVQM": ChainParams
//! segment-0000.blk    segment log "LVQS": one encoded Block per record
//! segment-0001.blk    …
//! index.idx           checked file "LVQI": count u64
//!                     | count × (segment u32, offset u64, len u32)
//! forks.log           header-less records: height u64 | encoded Block
//! ```
//!
//! The segment-log, checked-file and record formats are described once,
//! in the source of this crate's `frame` module. Record *N* of the
//! store (0-based, across segments in order) is the block at height
//! *N + 1*.
//!
//! # Crash safety
//!
//! Appends go to the tail of the last segment; the index file is a pure
//! cache, rewritten on [`BlockStore::sync`] and rebuilt from the
//! segments whenever it is missing, stale, or fails its checksum. On
//! reopen, any unindexed tail records are re-adopted after passing their
//! CRC, and a final record that is incomplete or fails its CRC exactly
//! at end-of-file is treated as a torn write and truncated away
//! ([`RecoveryReport`]). A bad CRC anywhere *before* the tail is real
//! corruption and refuses loudly with [`StoreError::CorruptRecord`].

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::RwLock;

use lvq_chain::{Block, ChainParams};
use lvq_codec::{Decodable, Encodable, Reader};

use crate::error::StoreError;
use crate::frame::{
    checked_header, frame_record, read_checked, remove_stale_tmp, scan_records, write_atomic,
    write_checked, CheckedError, FrameError, LogFormat, RecordLoc, SegmentHandle, SegmentLog,
    RECORD_HEADER_LEN, SEGMENT_HEADER_LEN,
};
use crate::fsio::{RealFs, StoreFs};

const META_MAGIC: [u8; 4] = *b"LVQM";
const INDEX_MAGIC: [u8; 4] = *b"LVQI";

const META_FILE: &str = "store.meta";
const INDEX_FILE: &str = "index.idx";
const FORKS_FILE: &str = "forks.log";

/// The block log: `segment-NNNN.blk`.
static BLOCK_LOG: LogFormat = LogFormat {
    magic: *b"LVQS",
    stem: "segment",
    ext: "blk",
    label: "segment",
};

/// Operational knobs of a [`BlockStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Rotate to a new segment file once the current one reaches this
    /// many bytes (the last record may overshoot).
    pub segment_target_bytes: u64,
    /// Byte budget of the decoded-block LRU cache in front of the store.
    pub cache_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            segment_target_bytes: 8 * 1024 * 1024,
            cache_bytes: 16 * 1024 * 1024,
        }
    }
}

/// What opening a persistent address index found, when one was opened
/// alongside the store (see `open_chain_indexed` in this crate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AddrIndexRecovery {
    /// No address index was opened (plain `open_chain`, or bare
    /// [`BlockStore::open`]).
    #[default]
    NotOpened,
    /// The index's root record anchored exactly at the store tip and
    /// its restored state verified — reopen was point reads only.
    Intact,
    /// The root record anchored *behind* the store tip
    /// ([`StoreError::StaleIndexRoot`]); the missing blocks were
    /// re-absorbed incrementally and the index re-anchored.
    CaughtUp {
        /// Tip height the root record anchored.
        from: u64,
        /// Store tip the index was caught up to.
        to: u64,
    },
    /// The index was missing, corrupt, or anchored ahead of the store,
    /// and was rebuilt from the (CRC-verified) blocks. Loud but safe:
    /// a rebuilt index can never serve a wrong answer.
    Rebuilt {
        /// Why the index could not be adopted.
        reason: &'static str,
    },
}

/// What [`BlockStore::open`] had to repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Bytes of torn tail truncated — a partial final record, or a
    /// partial final segment *header* torn mid-rotation. Zero when the
    /// last segment ended exactly on a record boundary (a clean end),
    /// even if unindexed records had to be re-adopted.
    pub truncated_tail_bytes: u64,
    /// Records re-adopted from segment tails that the stored index did
    /// not cover (e.g. appended after the last `sync`).
    pub recovered_records: u64,
    /// The index file was missing, stale, or corrupt and was rebuilt by
    /// scanning the segments.
    pub rebuilt_index: bool,
    /// The final segment file was shorter than its 12-byte header (a
    /// crash between creating the file at rotation and writing its
    /// header) and was re-initialised in place. It cannot have held any
    /// records, so the index — which never covered the unborn segment —
    /// is not implicated.
    pub repaired_segment_header: bool,
    /// Bytes of torn tail truncated from `forks.log` — a crash
    /// mid-journal. Repaired *at open* (not lazily tolerated) because a
    /// later journal append landing after torn bytes would strand every
    /// subsequent entry behind an unreadable record.
    pub truncated_fork_log_bytes: u64,
    /// What opening the address index alongside the store found, when
    /// one was opened.
    pub addr_index: AddrIndexRecovery,
}

impl RecoveryReport {
    /// `true` if the store (and the address index, if one was opened)
    /// came back exactly as it was left.
    pub fn is_clean(&self) -> bool {
        self.truncated_tail_bytes == 0
            && self.recovered_records == 0
            && !self.rebuilt_index
            && !self.repaired_segment_header
            && self.truncated_fork_log_bytes == 0
            && matches!(
                self.addr_index,
                AddrIndexRecovery::NotOpened | AddrIndexRecovery::Intact
            )
    }
}

/// An append-only, CRC-framed, segmented store of encoded blocks.
///
/// Reads take `&self` and are safe from many threads at once
/// (positional reads on shared handles); appends serialize on an
/// internal writer lock.
#[derive(Debug)]
pub struct BlockStore {
    dir: PathBuf,
    params: ChainParams,
    config: StoreConfig,
    fs: Arc<dyn StoreFs>,
    /// Height − 1 → record location. Appends publish to it while
    /// holding the log's tail lock, so it only ever names written
    /// records, in append order.
    index: RwLock<Vec<RecordLoc>>,
    log: SegmentLog,
}

impl BlockStore {
    /// Creates a fresh store in `dir` (creating the directory if
    /// needed) for blocks of a chain configured by `params`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::AlreadyExists`] if `dir` already holds a
    /// store, or [`StoreError::Io`] on filesystem failure.
    pub fn create(
        dir: impl AsRef<Path>,
        params: ChainParams,
        config: StoreConfig,
    ) -> Result<Self, StoreError> {
        Self::create_with_fs(dir, params, config, Arc::new(RealFs))
    }

    /// [`BlockStore::create`] with an explicit [`StoreFs`] — the seam
    /// the crash-fault harness injects through.
    ///
    /// # Errors
    ///
    /// As [`BlockStore::create`].
    pub fn create_with_fs(
        dir: impl AsRef<Path>,
        params: ChainParams,
        config: StoreConfig,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let meta_path = dir.join(META_FILE);
        if meta_path.exists() {
            return Err(StoreError::AlreadyExists { path: dir });
        }

        // Segment first, meta last (atomic rename + directory fsync):
        // the meta file's existence is what marks a directory as a
        // store, so a crash anywhere inside create leaves either no
        // store at all (re-creatable) or a complete empty one — never a
        // half-created store.
        let log = SegmentLog::create(
            &dir,
            &BLOCK_LOG,
            config.segment_target_bytes,
            Arc::clone(&fs_impl),
        )?;
        let mut meta = checked_header(META_MAGIC);
        params.encode_into(&mut meta);
        write_checked(&*fs_impl, &dir, META_FILE, meta)?;

        let store = BlockStore {
            dir,
            params,
            config,
            fs: fs_impl,
            index: RwLock::new(Vec::new()),
            log,
        };
        store.save_index()?;
        Ok(store)
    }

    /// Opens an existing store, recovering from a torn tail if needed.
    ///
    /// The recovery rules are documented in the source of this crate's
    /// `store` module; the returned [`RecoveryReport`] says what, if
    /// anything, was repaired.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NotAStore`] if `dir` has no `store.meta`,
    /// [`StoreError::CorruptRecord`] for corruption anywhere except a
    /// torn tail, and [`StoreError::Io`] on filesystem failure.
    pub fn open(
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_with_fs(dir, config, Arc::new(RealFs))
    }

    /// [`BlockStore::open`] with an explicit [`StoreFs`] — recovery
    /// repairs (tail truncation, header re-initialisation, the index
    /// rewrite) go through it, so even recovery itself has enumerable
    /// crash points.
    ///
    /// # Errors
    ///
    /// As [`BlockStore::open`].
    pub fn open_with_fs(
        dir: impl AsRef<Path>,
        config: StoreConfig,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<(Self, RecoveryReport), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let meta_path = dir.join(META_FILE);
        if !meta_path.exists() {
            return Err(StoreError::NotAStore { path: dir });
        }
        let params = read_meta(&meta_path)?;
        for name in [META_FILE, INDEX_FILE, FORKS_FILE] {
            remove_stale_tmp(&*fs_impl, &dir, name)?;
        }
        let Some(last) = BLOCK_LOG.count(&dir).checked_sub(1) else {
            return Err(StoreError::MissingSegment { segment: 0 });
        };

        // A crash mid-journal leaves a torn tail on `forks.log`. It
        // must be truncated *now*, not tolerated lazily: the next
        // journal append lands at end-of-file, and entries written
        // after torn bytes would be stranded behind an unreadable
        // record forever.
        let mut report = RecoveryReport {
            truncated_fork_log_bytes: repair_fork_log(&dir, &*fs_impl)?,
            ..RecoveryReport::default()
        };

        // A crash between creating a segment file and writing its
        // 12-byte header leaves a short final segment: repair it in
        // place (it cannot have held any records).
        let last_path = BLOCK_LOG.path(&dir, last);
        let last_len = fs::metadata(&last_path)?.len();
        if last_len < SEGMENT_HEADER_LEN {
            let f = OpenOptions::new().write(true).open(&last_path)?;
            fs_impl.set_len(&f, 0)?;
            fs_impl.write_all(&f, &BLOCK_LOG.header(last))?;
            fs_impl.sync(&f)?;
            report.truncated_tail_bytes += last_len;
            report.repaired_segment_header = true;
        }

        let log = SegmentLog::open(
            &dir,
            &BLOCK_LOG,
            config.segment_target_bytes,
            Arc::clone(&fs_impl),
        )?;

        // The index is a cache: adopt it when consistent, rebuild when
        // not.
        let mut index = match load_index(&dir, &log) {
            Some(index) => index,
            None => {
                report.rebuilt_index = true;
                Vec::new()
            }
        };

        // Scan every segment's unindexed tail. Only the final segment
        // may legitimately end mid-record (a torn append); anywhere
        // else a bad record is corruption.
        for seg in 0..=last {
            let from = index
                .iter()
                .rev()
                .find(|loc| loc.segment == seg)
                .map(|loc| loc.end())
                .unwrap_or(SEGMENT_HEADER_LEN);
            let torn = log.scan(seg, from, |loc, _| {
                index.push(loc);
                report.recovered_records += 1;
                Ok(())
            })?;
            if let Some(torn) = torn {
                if seg != last {
                    return Err(StoreError::CorruptRecord {
                        segment: seg,
                        offset: torn.start,
                        detail: "torn record before the final segment",
                    });
                }
                report.truncated_tail_bytes += torn.end - torn.start;
                log.lock().truncate(seg, torn.start)?;
            }
        }

        let store = BlockStore {
            dir,
            params,
            config,
            fs: fs_impl,
            index: RwLock::new(index),
            log,
        };
        if !report.is_clean() {
            store.save_index()?;
        }
        Ok((store, report))
    }

    /// The chain parameters recorded at creation.
    pub fn params(&self) -> ChainParams {
        self.params
    }

    /// The store's configuration.
    pub fn config(&self) -> StoreConfig {
        self.config
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of blocks stored.
    pub fn len(&self) -> u64 {
        self.index.read().len() as u64
    }

    /// `true` if no blocks are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of segment files.
    pub fn segment_count(&self) -> u32 {
        self.log.segment_count()
    }

    /// Total bytes across all segment files.
    pub fn data_bytes(&self) -> u64 {
        let index = self.index.read();
        self.log.segment_count() as u64 * SEGMENT_HEADER_LEN
            + index
                .iter()
                .map(|loc| RECORD_HEADER_LEN + loc.len as u64)
                .sum::<u64>()
    }

    /// Appends a block, returning its height (1-based).
    ///
    /// The record is written with a single `write` syscall; durability
    /// is deferred to [`BlockStore::sync`] (or segment rotation).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on write failure.
    pub fn append(&self, block: &Block) -> Result<u64, StoreError> {
        let payload = block.encode();
        let mut tail = self.log.lock();
        let loc = tail.append(&payload)?;
        let mut index = self.index.write();
        index.push(loc);
        Ok(index.len() as u64)
    }

    /// Truncates the store to `new_len` blocks — the reorg rewind
    /// primitive. Returns how many blocks were dropped.
    ///
    /// Segments above the kept tail are deleted highest-first and the
    /// kept segment is `set_len` to the exact record boundary, in that
    /// order, so the operation is torn-tail-safe: a crash at any point
    /// leaves a store that reopens to a valid *prefix* of the
    /// pre-truncate chain (the segment set stays contiguously numbered
    /// and every surviving record still tiles its segment). Callers
    /// that must not lose the dropped blocks copy them to the fork
    /// sidecar log ([`BlockStore::log_fork_block`]) first.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownHeight`] if `new_len` exceeds the
    /// current length, and [`StoreError::Io`] on filesystem failure.
    pub fn truncate(&self, new_len: u64) -> Result<u64, StoreError> {
        let mut tail = self.log.lock();
        let mut index = self.index.write();
        let old_len = index.len() as u64;
        if new_len > old_len {
            return Err(StoreError::UnknownHeight { height: new_len });
        }
        if new_len == old_len {
            return Ok(0);
        }
        index.truncate(new_len as usize);
        let (keep_segment, end_offset) = index
            .last()
            .map(|loc| (loc.segment, loc.end()))
            .unwrap_or((0, SEGMENT_HEADER_LEN));
        tail.truncate(keep_segment, end_offset)?;
        drop(index);
        drop(tail);
        self.save_index()?;
        Ok(old_len - new_len)
    }

    /// Appends a displaced or competing block at `height` to the fork
    /// sidecar log (`forks.log`), fsynced before returning: a reorg
    /// copies blocks here *before* [`BlockStore::truncate`] discards
    /// them from the segments, so no observed block is ever lost. The
    /// log uses the same CRC framing as segment records.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure.
    pub fn log_fork_block(&self, height: u64, block: &Block) -> Result<(), StoreError> {
        let mut payload = Vec::with_capacity(8 + block.encoded_len());
        payload.extend_from_slice(&height.to_le_bytes());
        block.encode_into(&mut payload);
        let record = frame_record(&payload);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(FORKS_FILE))?;
        self.fs.write_all(&file, &record)?;
        self.fs.sync(&file)?;
        Ok(())
    }

    /// Compacts the fork sidecar log, dropping journaled entries whose
    /// height has fallen out of the reorg window — a branch can only
    /// still be re-adopted if it forked within `max_reorg_depth` of the
    /// current tip, so entries at height `<= tip - max_reorg_depth` are
    /// unreachable and only cost reopen scans. Entries at greater
    /// heights (and, defensively, *above* the tip) are kept verbatim in
    /// log order. The rewrite is atomic: temp file, fsync, rename,
    /// directory fsync; an empty survivor set removes the log outright.
    ///
    /// Returns how many entries were dropped.
    ///
    /// # Errors
    ///
    /// As [`BlockStore::fork_log`], plus [`StoreError::Io`] on rewrite
    /// failure.
    pub fn compact_fork_log(&self, max_reorg_depth: u64) -> Result<u64, StoreError> {
        let entries = self.fork_log()?;
        if entries.is_empty() {
            return Ok(0);
        }
        let horizon = self.len().saturating_sub(max_reorg_depth);
        let kept: Vec<&(u64, Block)> = entries.iter().filter(|(h, _)| *h > horizon).collect();
        let dropped = (entries.len() - kept.len()) as u64;
        if dropped == 0 {
            return Ok(0);
        }
        if kept.is_empty() {
            self.fs.remove_file(&self.dir.join(FORKS_FILE))?;
            self.fs.sync_dir(&self.dir)?;
            return Ok(dropped);
        }
        let mut bytes = Vec::new();
        for (height, block) in kept {
            let mut payload = Vec::with_capacity(8 + block.encoded_len());
            payload.extend_from_slice(&height.to_le_bytes());
            block.encode_into(&mut payload);
            bytes.extend_from_slice(&frame_record(&payload));
        }
        write_atomic(&*self.fs, &self.dir, FORKS_FILE, &bytes)?;
        Ok(dropped)
    }

    /// Replays the fork sidecar log: every `(height, block)` ever
    /// logged, in log order (empty if no fork block was ever seen). A
    /// torn final record — a crash mid-append — is tolerated and ends
    /// the replay; corruption before the tail refuses loudly.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptRecord`] for a bad record before
    /// the tail, [`StoreError::Decode`] for an undecodable payload, and
    /// [`StoreError::Io`] on filesystem failure.
    pub fn fork_log(&self) -> Result<Vec<(u64, Block)>, StoreError> {
        let path = self.dir.join(FORKS_FILE);
        if !path.exists() {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        // A torn tail simply ends the replay.
        scan_records(&SegmentHandle::open(path)?, 0, 0, |loc, payload| {
            if payload.len() < 8 {
                return Err(StoreError::CorruptRecord {
                    segment: 0,
                    offset: loc.offset,
                    detail: "fork record shorter than its height prefix",
                });
            }
            let height = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            out.push((height, lvq_codec::decode_exact::<Block>(&payload[8..])?));
            Ok(())
        })?;
        Ok(out)
    }

    /// Reads and decodes the block at `height` (1-based), verifying the
    /// record's CRC.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownHeight`] outside `1..=len`,
    /// [`StoreError::CorruptRecord`] if the record fails its CRC, and
    /// [`StoreError::Decode`] if the payload does not decode.
    pub fn read_block(&self, height: u64) -> Result<Block, StoreError> {
        let loc = {
            let index = self.index.read();
            if height == 0 || height > index.len() as u64 {
                return Err(StoreError::UnknownHeight { height });
            }
            index[(height - 1) as usize]
        };
        let payload = self.read_record(loc)?;
        Ok(lvq_codec::decode_exact::<Block>(&payload)?)
    }

    fn read_record(&self, loc: RecordLoc) -> Result<Vec<u8>, StoreError> {
        self.log.read(loc).map_err(|e| match e {
            FrameError::Io(e) => StoreError::Io(e),
            FrameError::Corrupt { detail } => StoreError::CorruptRecord {
                segment: loc.segment,
                offset: loc.offset,
                detail,
            },
        })
    }

    /// Visits every stored block in height order, re-verifying each
    /// record's CRC on the way.
    ///
    /// # Errors
    ///
    /// Propagates the first error from storage or from `visit`.
    pub fn scan_blocks(
        &self,
        visit: &mut dyn FnMut(u64, &Block) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let locs: Vec<RecordLoc> = self.index.read().clone();
        for (i, loc) in locs.iter().enumerate() {
            let payload = self.read_record(*loc)?;
            let block = lvq_codec::decode_exact::<Block>(&payload)?;
            visit(i as u64 + 1, &block)?;
        }
        Ok(())
    }

    /// Re-reads and CRC-checks every record, returning how many blocks
    /// passed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::CorruptRecord`] at the first bad record.
    pub fn verify_all(&self) -> Result<u64, StoreError> {
        let mut count = 0u64;
        self.scan_blocks(&mut |_, _| {
            count += 1;
            Ok(())
        })?;
        Ok(count)
    }

    /// Flushes the current segment to disk and rewrites the index file.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on failure.
    pub fn sync(&self) -> Result<(), StoreError> {
        self.log.sync()?;
        self.save_index()
    }

    /// Atomically rewrites `index.idx`.
    fn save_index(&self) -> Result<(), StoreError> {
        let mut bytes = checked_header(INDEX_MAGIC);
        {
            let index = self.index.read();
            bytes.extend_from_slice(&(index.len() as u64).to_le_bytes());
            for loc in index.iter() {
                bytes.extend_from_slice(&loc.segment.to_le_bytes());
                bytes.extend_from_slice(&loc.offset.to_le_bytes());
                bytes.extend_from_slice(&loc.len.to_le_bytes());
            }
        }
        write_checked(&*self.fs, &self.dir, INDEX_FILE, bytes)
    }
}

impl Drop for BlockStore {
    fn drop(&mut self) {
        // Best effort: leave a fresh index behind so the next open
        // needs no tail scan.
        let _ = self.sync();
    }
}

/// Scans `forks.log` for a torn final record and truncates it away,
/// returning the bytes removed (zero for a clean or absent log).
/// Corruption *before* the tail refuses loudly, like segment scans.
fn repair_fork_log(dir: &Path, fs_impl: &dyn StoreFs) -> Result<u64, StoreError> {
    let path = dir.join(FORKS_FILE);
    if !path.exists() {
        return Ok(0);
    }
    let Some(torn) = scan_records(&SegmentHandle::open(path.clone())?, 0, 0, |_, _| Ok(()))? else {
        return Ok(0);
    };
    let f = OpenOptions::new().write(true).open(&path)?;
    fs_impl.set_len(&f, torn.start)?;
    fs_impl.sync(&f)?;
    Ok(torn.end - torn.start)
}

fn read_meta(path: &Path) -> Result<ChainParams, StoreError> {
    let body = read_checked(path, META_MAGIC, 0).map_err(|e| match e {
        CheckedError::Io(e) => StoreError::Io(e),
        CheckedError::BadMagic => StoreError::BadMagic { file: META_FILE },
        CheckedError::Version(found) => StoreError::UnsupportedVersion {
            file: META_FILE,
            found,
        },
        CheckedError::Truncated | CheckedError::Crc => StoreError::CorruptMeta,
    })?;
    let mut reader = Reader::new(&body);
    let params = ChainParams::decode_from(&mut reader).map_err(|_| StoreError::CorruptMeta)?;
    reader.finish().map_err(|_| StoreError::CorruptMeta)?;
    Ok(params)
}

/// Parses `index.idx`, returning `None` (rebuild) for any
/// inconsistency: bad magic/version/CRC, a count that disagrees with
/// the file's length, out-of-range segments, or records that do not
/// tile their segment contiguously.
fn load_index(dir: &Path, log: &SegmentLog) -> Option<Vec<RecordLoc>> {
    let body = read_checked(&dir.join(INDEX_FILE), INDEX_MAGIC, 8).ok()?;
    let (count, entries) = body.split_at(8);
    // The count is compared with the entries actually present — never
    // multiplied — so no stored value can overflow or over-allocate.
    let count = u64::from_le_bytes(count.try_into().ok()?);
    if entries.len() % 16 != 0 || (entries.len() / 16) as u64 != count {
        return None;
    }

    let segment_count = log.segment_count();
    let mut index = Vec::with_capacity(entries.len() / 16);
    let mut expected: Vec<u64> = vec![SEGMENT_HEADER_LEN; segment_count as usize];
    let mut current_segment = 0u32;
    for entry in entries.chunks_exact(16) {
        let loc = RecordLoc {
            segment: u32::from_le_bytes(entry[..4].try_into().ok()?),
            offset: u64::from_le_bytes(entry[4..12].try_into().ok()?),
            len: u32::from_le_bytes(entry[12..].try_into().ok()?),
        };
        if loc.segment >= segment_count || loc.segment < current_segment {
            return None;
        }
        current_segment = loc.segment;
        // Records must tile each segment contiguously from its header.
        if loc.offset != expected[loc.segment as usize] {
            return None;
        }
        expected[loc.segment as usize] = loc.end();
        index.push(loc);
    }
    // Every indexed byte must exist on disk, and — since any honest
    // index is a prefix of the append order — every segment before the
    // last indexed one must be fully tiled.
    let max_indexed_segment = index.last().map(|loc| loc.segment).unwrap_or(0);
    for (seg, expected) in (0..segment_count).zip(expected) {
        let file_len = log.segment_len(seg).ok()?;
        if expected > file_len {
            return None;
        }
        if seg < max_indexed_segment && expected != file_len {
            return None;
        }
    }
    Some(index)
}
