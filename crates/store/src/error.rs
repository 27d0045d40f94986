//! Store error type.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

use lvq_chain::ChainError;
use lvq_codec::DecodeError;

/// Errors from creating, opening, or reading a block store.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The directory has no `store.meta` — not a block store.
    NotAStore {
        /// The directory that was probed.
        path: PathBuf,
    },
    /// `create` was pointed at a directory that already holds a store.
    AlreadyExists {
        /// The occupied directory.
        path: PathBuf,
    },
    /// A store file does not start with its expected magic.
    BadMagic {
        /// Which file (`store.meta`, `segment` or `node segment`).
        file: &'static str,
    },
    /// A store file's format version is newer than this library.
    UnsupportedVersion {
        /// Which file carried the version.
        file: &'static str,
        /// Version found.
        found: u32,
    },
    /// `store.meta` failed its checksum or did not decode.
    CorruptMeta,
    /// A record in the middle of a segment failed its CRC or framing —
    /// unlike a torn tail, this is real corruption and refuses to load.
    CorruptRecord {
        /// Segment the record lives in.
        segment: u32,
        /// Byte offset of the record header within the segment file.
        offset: u64,
        /// What exactly failed.
        detail: &'static str,
    },
    /// Segment files are not numbered contiguously from zero.
    MissingSegment {
        /// First missing segment number.
        segment: u32,
    },
    /// The address index's checksummed root record anchors a different
    /// tip height than the block store holds — the index is out of step
    /// with the chain (distinct from [`StoreError::CorruptRecord`]: the
    /// bytes are intact, the *anchoring* is wrong). A root behind the
    /// store is caught up incrementally; a root ahead of the store
    /// references blocks the store lost and forces a rebuild.
    StaleIndexRoot {
        /// Tip height the index root record anchors.
        root_tip: u64,
        /// Tip height the block store actually holds.
        store_tip: u64,
    },
    /// The address index's root record failed validation (bad CRC,
    /// truncated, or internally inconsistent). A missing root file
    /// surfaces as [`StoreError::Io`].
    CorruptIndexRoot {
        /// What exactly failed.
        detail: &'static str,
    },
    /// A height outside `1..=len` was requested.
    UnknownHeight {
        /// The requested height.
        height: u64,
    },
    /// A stored block payload does not decode.
    Decode(DecodeError),
    /// Assembling or reading the chain on top of the store failed.
    Chain(ChainError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::NotAStore { path } => {
                write!(f, "{} is not a block store (no store.meta)", path.display())
            }
            StoreError::AlreadyExists { path } => {
                write!(f, "{} already holds a block store", path.display())
            }
            StoreError::BadMagic { file } => write!(f, "{file}: bad magic"),
            StoreError::UnsupportedVersion { file, found } => {
                write!(f, "{file}: unsupported version {found}")
            }
            StoreError::CorruptMeta => f.write_str("store.meta is corrupt"),
            StoreError::CorruptRecord {
                segment,
                offset,
                detail,
            } => write!(
                f,
                "corrupt record in segment {segment} at offset {offset}: {detail}"
            ),
            StoreError::MissingSegment { segment } => {
                write!(f, "segment {segment} is missing")
            }
            StoreError::StaleIndexRoot {
                root_tip,
                store_tip,
            } => write!(
                f,
                "address-index root anchors height {root_tip} but the store tip is {store_tip}"
            ),
            StoreError::CorruptIndexRoot { detail } => {
                write!(f, "address-index root record is corrupt: {detail}")
            }
            StoreError::UnknownHeight { height } => write!(f, "no block at height {height}"),
            StoreError::Decode(e) => write!(f, "stored block does not decode: {e}"),
            StoreError::Chain(e) => write!(f, "chain error: {e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Decode(e) => Some(e),
            StoreError::Chain(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}

impl From<ChainError> for StoreError {
    fn from(e: ChainError) -> Self {
        StoreError::Chain(e)
    }
}
