//! The store's one durable-file layer.
//!
//! Every file the store writes has one of three shapes, and each shape
//! is read, written and checked here and nowhere else. The policies —
//! what a torn tail means, when to rebuild, which error a caller
//! reports — stay with the callers.
//!
//! # Segment logs
//!
//! A [`SegmentLog`] is an append-only sequence of numbered segment
//! files (`segment-NNNN.blk` for blocks, `addr-index/nodes-NNNN.seg`
//! for address-index nodes). Each segment is a 12-byte header followed
//! by CRC-framed records:
//!
//! ```text
//! header  magic | version u32 | segment u32
//! record  len u32 | crc32(payload) u32 | payload (len bytes)
//! ```
//!
//! Appends go to the last segment; once it holds at least the target
//! size, the next append first fsyncs it and starts the next segment.
//! A [`RecordLoc`] points at a record's `len` field.
//!
//! # Checked files
//!
//! A small file that is rewritten whole (`store.meta`, `index.idx`,
//! `addr-index/root.idx`) is
//!
//! ```text
//! magic | version u32 | body | crc32(magic ‖ version ‖ body) u32
//! ```
//!
//! [`write_checked`] seals it and hands it to [`write_atomic`], the one
//! route of every whole-file rewrite (the `forks.log` compaction too):
//! write `NAME.tmp`, fsync it, rename it over `NAME`, fsync the
//! directory. A crash leaves either the old file or the new one, plus
//! at most a stale `NAME.tmp` that [`remove_stale_tmp`] clears at the
//! next open. [`read_checked`] runs the length, magic, version and CRC
//! checks.
//!
//! # Record scans
//!
//! [`scan_records`] walks the records of one file from an offset to its
//! end (a segment's unindexed tail, or the header-less `forks.log`). A
//! record is *valid* when its bytes are all present and pass the CRC;
//! an incomplete record, or a CRC failure that ends exactly at
//! end-of-file, is a *torn* tail (a write that never fully reached
//! disk); a CRC failure with bytes after it is *corruption* and fails
//! the scan with [`StoreError::CorruptRecord`].
//!
//! All integers are little-endian. Every file format is version 1.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

#[cfg(not(unix))]
use std::io::Read;

use parking_lot::{Mutex, MutexGuard, RwLock};

use crate::crc32::crc32;
use crate::error::StoreError;
use crate::fsio::StoreFs;

/// The format version of every store file.
const VERSION: u32 = 1;
/// Bytes of segment header: magic, version, segment number.
pub(crate) const SEGMENT_HEADER_LEN: u64 = 12;
/// Bytes of record framing before the payload: length and CRC.
pub(crate) const RECORD_HEADER_LEN: u64 = 8;

/// Where one record lives within a segmented file set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct RecordLoc {
    pub(crate) segment: u32,
    /// Offset of the record header within the segment file.
    pub(crate) offset: u64,
    /// Payload length in bytes.
    pub(crate) len: u32,
}

impl RecordLoc {
    pub(crate) fn end(&self) -> u64 {
        self.offset + RECORD_HEADER_LEN + self.len as u64
    }
}

/// One open file: a shared read handle plus its path (the path is the
/// portable fallback when positional reads are unavailable).
#[derive(Debug, Clone)]
pub(crate) struct SegmentHandle {
    pub(crate) file: Arc<File>,
    pub(crate) path: PathBuf,
}

impl SegmentHandle {
    pub(crate) fn open(path: PathBuf) -> std::io::Result<Self> {
        Ok(SegmentHandle {
            file: Arc::new(File::open(&path)?),
            path,
        })
    }
}

/// Frames `payload` as one record: `len | crc32 | payload`.
pub(crate) fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut record = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
    record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    record.extend_from_slice(&crc32(payload).to_le_bytes());
    record.extend_from_slice(payload);
    record
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes"))
}

/// Positional read of `buf.len()` bytes at `offset`.
#[cfg(unix)]
fn read_exact_at(handle: &SegmentHandle, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    handle.file.read_exact_at(buf, offset)
}

/// Portable fallback: a fresh handle per read keeps `&self` reads
/// seek-free on the shared descriptor.
#[cfg(not(unix))]
fn read_exact_at(handle: &SegmentHandle, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    let mut file = File::open(&handle.path)?;
    file.seek(SeekFrom::Start(offset))?;
    file.read_exact(buf)
}

/// Why a framed record failed to read back.
#[derive(Debug)]
pub(crate) enum FrameError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The bytes were read but fail the framing: location, length
    /// field or CRC.
    Corrupt {
        /// What exactly failed.
        detail: &'static str,
    },
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Reads the record at `loc` back, verifying its length field and CRC
/// against what the caller's index committed to.
fn read_record_payload(handle: &SegmentHandle, loc: RecordLoc) -> Result<Vec<u8>, FrameError> {
    let mut buf = vec![0u8; (RECORD_HEADER_LEN + loc.len as u64) as usize];
    read_exact_at(handle, &mut buf, loc.offset)?;
    if le_u32(&buf) != loc.len {
        return Err(FrameError::Corrupt {
            detail: "length field disagrees with index",
        });
    }
    let stored_crc = le_u32(&buf[4..]);
    buf.drain(..RECORD_HEADER_LEN as usize);
    if crc32(&buf) != stored_crc {
        return Err(FrameError::Corrupt {
            detail: "crc mismatch",
        });
    }
    Ok(buf)
}

/// Walks the records of `handle` from `offset` to end-of-file, handing
/// each valid record's location and payload to `visit`.
///
/// Returns the torn tail's byte range (`None` when the walk ended
/// exactly at end-of-file). Corruption before the tail fails with
/// [`StoreError::CorruptRecord`] naming `segment`.
pub(crate) fn scan_records(
    handle: &SegmentHandle,
    segment: u32,
    mut offset: u64,
    mut visit: impl FnMut(RecordLoc, &[u8]) -> Result<(), StoreError>,
) -> Result<Option<Range<u64>>, StoreError> {
    let file_len = handle.file.metadata()?.len();
    while offset < file_len {
        if offset + RECORD_HEADER_LEN > file_len {
            return Ok(Some(offset..file_len));
        }
        let mut header = [0u8; RECORD_HEADER_LEN as usize];
        read_exact_at(handle, &mut header, offset)?;
        let loc = RecordLoc {
            segment,
            offset,
            len: le_u32(&header),
        };
        if loc.end() > file_len {
            return Ok(Some(offset..file_len));
        }
        let mut payload = vec![0u8; loc.len as usize];
        read_exact_at(handle, &mut payload, offset + RECORD_HEADER_LEN)?;
        if crc32(&payload) != le_u32(&header[4..]) {
            if loc.end() == file_len {
                // All bytes present but wrong checksum at the very tail:
                // a torn write whose data pages never hit disk.
                return Ok(Some(offset..file_len));
            }
            return Err(StoreError::CorruptRecord {
                segment,
                offset,
                detail: "crc mismatch",
            });
        }
        visit(loc, &payload)?;
        offset = loc.end();
    }
    Ok(None)
}

/// Why a checked file failed to read back.
#[derive(Debug)]
pub(crate) enum CheckedError {
    /// Underlying I/O failure (including a missing file).
    Io(std::io::Error),
    /// Shorter than its header, trailer and minimum body.
    Truncated,
    /// Wrong magic.
    BadMagic,
    /// A version other than [`VERSION`].
    Version(u32),
    /// The trailing CRC does not match.
    Crc,
}

impl CheckedError {
    pub(crate) fn detail(&self) -> &'static str {
        match self {
            CheckedError::Io(_) => "unreadable",
            CheckedError::Truncated => "truncated",
            CheckedError::BadMagic => "bad magic",
            CheckedError::Version(_) => "unsupported version",
            CheckedError::Crc => "crc mismatch",
        }
    }
}

impl From<std::io::Error> for CheckedError {
    fn from(e: std::io::Error) -> Self {
        CheckedError::Io(e)
    }
}

/// Starts a checked file's bytes: `magic | version`. The caller appends
/// the body and hands the bytes to [`write_checked`].
pub(crate) fn checked_header(magic: [u8; 4]) -> Vec<u8> {
    let mut bytes = magic.to_vec();
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes
}

/// Seals `bytes` (from [`checked_header`] plus a body) with their CRC
/// and atomically replaces `dir/name` with them.
pub(crate) fn write_checked(
    fs_impl: &dyn StoreFs,
    dir: &Path,
    name: &str,
    mut bytes: Vec<u8>,
) -> Result<(), StoreError> {
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    write_atomic(fs_impl, dir, name, &bytes)
}

/// Atomically replaces `dir/name` with `bytes`: temp file, write,
/// fsync, rename, directory fsync.
pub(crate) fn write_atomic(
    fs_impl: &dyn StoreFs,
    dir: &Path,
    name: &str,
    bytes: &[u8],
) -> Result<(), StoreError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let file = File::create(&tmp)?;
    fs_impl.write_all(&file, bytes)?;
    fs_impl.sync(&file)?;
    fs_impl.rename(&tmp, &dir.join(name))?;
    // A rename alone is not power-loss durable until the directory
    // entry itself is on disk.
    fs_impl.sync_dir(dir)?;
    Ok(())
}

/// Removes `dir/name.tmp`, the debris of a crash between a
/// [`write_atomic`] temp write and its rename (the renamed-to file is
/// still whole).
pub(crate) fn remove_stale_tmp(
    fs_impl: &dyn StoreFs,
    dir: &Path,
    name: &str,
) -> Result<(), StoreError> {
    let tmp = dir.join(format!("{name}.tmp"));
    if tmp.exists() {
        fs_impl.remove_file(&tmp)?;
    }
    Ok(())
}

/// Reads the checked file at `path` and returns its body, which must be
/// at least `min_body` bytes.
pub(crate) fn read_checked(
    path: &Path,
    magic: [u8; 4],
    min_body: usize,
) -> Result<Vec<u8>, CheckedError> {
    let mut bytes = std::fs::read(path)?;
    if bytes.len() < 12 + min_body {
        return Err(CheckedError::Truncated);
    }
    if bytes[..4] != magic {
        return Err(CheckedError::BadMagic);
    }
    let version = le_u32(&bytes[4..]);
    if version != VERSION {
        return Err(CheckedError::Version(version));
    }
    let body_end = bytes.len() - 4;
    if crc32(&bytes[..body_end]) != le_u32(&bytes[body_end..]) {
        return Err(CheckedError::Crc);
    }
    bytes.truncate(body_end);
    bytes.drain(..8);
    Ok(bytes)
}

/// What distinguishes one segment log from another on disk.
#[derive(Debug)]
pub(crate) struct LogFormat {
    /// Segment header magic.
    pub(crate) magic: [u8; 4],
    /// File-name stem: segment `n` is `{stem}-{n:04}.{ext}`.
    pub(crate) stem: &'static str,
    /// File-name extension.
    pub(crate) ext: &'static str,
    /// How header errors name a segment of this log.
    pub(crate) label: &'static str,
}

impl LogFormat {
    pub(crate) fn path(&self, dir: &Path, segment: u32) -> PathBuf {
        dir.join(format!("{}-{segment:04}.{}", self.stem, self.ext))
    }

    /// The 12-byte header of `segment`.
    pub(crate) fn header(&self, segment: u32) -> [u8; SEGMENT_HEADER_LEN as usize] {
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        header[..4].copy_from_slice(&self.magic);
        header[4..8].copy_from_slice(&VERSION.to_le_bytes());
        header[8..12].copy_from_slice(&segment.to_le_bytes());
        header
    }

    /// Segment files present in `dir`, counted contiguously from 0.
    pub(crate) fn count(&self, dir: &Path) -> u32 {
        let mut count = 0u32;
        while self.path(dir, count).exists() {
            count += 1;
        }
        count
    }
}

/// The segment every append goes to.
#[derive(Debug)]
struct Tail {
    file: File,
    segment: u32,
    offset: u64,
}

/// An append-only, CRC-framed, segmented record log.
///
/// Reads take `&self` and run from many threads at once (positional
/// reads on shared handles); appends and truncation serialize on the
/// tail lock ([`SegmentLog::lock`]).
#[derive(Debug)]
pub(crate) struct SegmentLog {
    dir: PathBuf,
    format: &'static LogFormat,
    target_bytes: u64,
    fs: Arc<dyn StoreFs>,
    segments: RwLock<Vec<SegmentHandle>>,
    tail: Mutex<Tail>,
}

impl SegmentLog {
    /// Starts a fresh log in `dir`: segment 0 with its header, fsynced.
    pub(crate) fn create(
        dir: &Path,
        format: &'static LogFormat,
        target_bytes: u64,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let path = format.path(dir, 0);
        let file = create_segment(&*fs_impl, &path, format.header(0))?;
        fs_impl.sync(&file)?;
        Ok(SegmentLog {
            dir: dir.to_path_buf(),
            format,
            target_bytes,
            fs: fs_impl,
            segments: RwLock::new(vec![SegmentHandle::open(path)?]),
            tail: Mutex::new(Tail {
                file,
                segment: 0,
                offset: SEGMENT_HEADER_LEN,
            }),
        })
    }

    /// Opens the log in `dir`, validating every segment header; appends
    /// continue at the end of the last segment.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSegment`] without a segment 0,
    /// [`StoreError::BadMagic`] and [`StoreError::UnsupportedVersion`]
    /// for a foreign header, and [`StoreError::CorruptRecord`] for a
    /// segment whose header carries another number.
    pub(crate) fn open(
        dir: &Path,
        format: &'static LogFormat,
        target_bytes: u64,
        fs_impl: Arc<dyn StoreFs>,
    ) -> Result<Self, StoreError> {
        let Some(last) = format.count(dir).checked_sub(1) else {
            return Err(StoreError::MissingSegment { segment: 0 });
        };
        let mut segments = Vec::with_capacity(last as usize + 1);
        for segment in 0..=last {
            let handle = SegmentHandle::open(format.path(dir, segment))?;
            let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
            read_exact_at(&handle, &mut header, 0)?;
            if header[..4] != format.magic {
                return Err(StoreError::BadMagic { file: format.label });
            }
            let version = le_u32(&header[4..]);
            if version != VERSION {
                return Err(StoreError::UnsupportedVersion {
                    file: format.label,
                    found: version,
                });
            }
            if le_u32(&header[8..]) != segment {
                return Err(StoreError::CorruptRecord {
                    segment,
                    offset: 8,
                    detail: "segment header numbers itself differently",
                });
            }
            segments.push(handle);
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(format.path(dir, last))?;
        let offset = file.seek(SeekFrom::End(0))?;
        Ok(SegmentLog {
            dir: dir.to_path_buf(),
            format,
            target_bytes,
            fs: fs_impl,
            segments: RwLock::new(segments),
            tail: Mutex::new(Tail {
                file,
                segment: last,
                offset,
            }),
        })
    }

    /// Number of segment files.
    pub(crate) fn segment_count(&self) -> u32 {
        self.segments.read().len() as u32
    }

    /// Current length of `segment`'s file.
    pub(crate) fn segment_len(&self, segment: u32) -> std::io::Result<u64> {
        let handle = self.segments.read()[segment as usize].clone();
        Ok(handle.file.metadata()?.len())
    }

    /// Total bytes across the segment files as they are on disk.
    pub(crate) fn file_bytes(&self) -> u64 {
        (0..self.segment_count())
            .filter_map(|segment| self.segment_len(segment).ok())
            .sum()
    }

    /// Reads the record at `loc` back, verifying its framing.
    pub(crate) fn read(&self, loc: RecordLoc) -> Result<Vec<u8>, FrameError> {
        let handle = self.segments.read().get(loc.segment as usize).cloned();
        let Some(handle) = handle else {
            return Err(FrameError::Corrupt {
                detail: "record location names a segment the log does not have",
            });
        };
        read_record_payload(&handle, loc)
    }

    /// [`scan_records`] over `segment` from `offset`.
    pub(crate) fn scan(
        &self,
        segment: u32,
        offset: u64,
        visit: impl FnMut(RecordLoc, &[u8]) -> Result<(), StoreError>,
    ) -> Result<Option<Range<u64>>, StoreError> {
        let handle = self.segments.read()[segment as usize].clone();
        scan_records(&handle, segment, offset, visit)
    }

    /// Locks the tail for appends or truncation. Whatever the caller
    /// does while holding the guard (such as publishing a new record's
    /// location) is ordered with the log's own writes.
    pub(crate) fn lock(&self) -> TailGuard<'_> {
        TailGuard {
            log: self,
            tail: self.tail.lock(),
        }
    }

    /// Fsyncs the tail segment.
    pub(crate) fn sync(&self) -> Result<(), StoreError> {
        self.fs.sync(&self.tail.lock().file)?;
        Ok(())
    }
}

/// Opens `path` as a fresh segment and writes its header.
fn create_segment(
    fs_impl: &dyn StoreFs,
    path: &Path,
    header: [u8; SEGMENT_HEADER_LEN as usize],
) -> Result<File, StoreError> {
    let file = OpenOptions::new()
        .create(true)
        .truncate(true)
        .read(true)
        .write(true)
        .open(path)?;
    fs_impl.write_all(&file, &header)?;
    Ok(file)
}

/// Exclusive access to a [`SegmentLog`]'s tail.
pub(crate) struct TailGuard<'a> {
    log: &'a SegmentLog,
    tail: MutexGuard<'a, Tail>,
}

impl TailGuard<'_> {
    /// Appends `payload` as one record (a single write; durability is
    /// deferred to [`SegmentLog::sync`] or the next rotation) and
    /// returns where it landed.
    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<RecordLoc, StoreError> {
        let record = frame_record(payload);
        if self.tail.offset >= self.log.target_bytes && self.tail.offset > SEGMENT_HEADER_LEN {
            self.rotate()?;
        }
        self.log.fs.write_all(&self.tail.file, &record)?;
        let loc = RecordLoc {
            segment: self.tail.segment,
            offset: self.tail.offset,
            len: payload.len() as u32,
        };
        self.tail.offset += record.len() as u64;
        Ok(loc)
    }

    /// Finishes the tail segment (fsync) and starts the next.
    fn rotate(&mut self) -> Result<(), StoreError> {
        let log = self.log;
        log.fs.sync(&self.tail.file)?;
        let next = self.tail.segment + 1;
        let path = log.format.path(&log.dir, next);
        let file = create_segment(&*log.fs, &path, log.format.header(next))?;
        log.segments.write().push(SegmentHandle::open(path)?);
        *self.tail = Tail {
            file,
            segment: next,
            offset: SEGMENT_HEADER_LEN,
        };
        Ok(())
    }

    /// Cuts the log back to end at `offset` within `segment`.
    ///
    /// Segments above `segment` are deleted highest-first, then the kept
    /// segment is cut and fsynced, so a crash at any point leaves a
    /// contiguously numbered log whose records are a prefix of the old
    /// ones.
    pub(crate) fn truncate(&mut self, segment: u32, offset: u64) -> Result<(), StoreError> {
        let log = self.log;
        for handle in log.segments.write().drain((segment as usize + 1)..).rev() {
            log.fs.remove_file(&handle.path)?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(log.format.path(&log.dir, segment))?;
        log.fs.set_len(&file, offset)?;
        log.fs.sync(&file)?;
        file.seek(SeekFrom::End(0))?;
        *self.tail = Tail {
            file,
            segment,
            offset,
        };
        Ok(())
    }
}
