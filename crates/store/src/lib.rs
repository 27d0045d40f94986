//! Crash-safe on-disk block storage for the LVQ reproduction.
//!
//! A real LVQ full node holds far more block data than RAM; this crate
//! is the storage layer that lets the reproduction serve queries
//! without deserializing the whole chain first:
//!
//! * [`BlockStore`] — an append-only, segmented store
//!   (`segment-NNNN.blk` files) with per-record CRC-32 framing, a
//!   rebuildable `(height → segment, offset, len)` index, and torn-tail
//!   recovery on reopen (a partial final record is truncated away
//!   instead of refusing to load; see [`RecoveryReport`]);
//! * [`DiskBlockSource`] — the store behind
//!   [`lvq_chain::BlockSource`], materializing blocks lazily through a
//!   bounded LRU cache so hot blocks decode once;
//! * [`open_chain`] — opens a store and assembles a serve-from-disk
//!   [`lvq_chain::Chain`] via `Chain::assemble_trusted`, skipping the
//!   full commitment replay a chain-file load performs;
//! * [`ingest_chain`] — bulk-copies an existing chain into a store
//!   (the CLI's `lvq ingest`);
//! * [`IndexedTables`] — the persistent authenticated address index
//!   (`addr-index/`): the chain's derived state in a Merkle AVL tree
//!   over an append-only node log, so a reopen is point reads instead
//!   of a replay;
//! * [`open_chain_indexed`], [`open_chain_indexed_verified`] and
//!   [`open_chain_indexed_with_fs`] — [`open_chain`] with the address
//!   index restored (caught up, or rebuilt loudly when damaged; see
//!   [`AddrIndexRecovery`]);
//! * [`StoreFs`] — the seam every durable operation (write, fsync,
//!   rename, truncate, delete) goes through: [`RealFs`] in production,
//!   [`CrashFs`] to kill the store at an exact operation in tests.
//!
//! The block segments and the node log are one segment-log type, and
//! every small metadata file is written through one atomic
//! temp-file-and-rename helper, so both substrates share one on-disk
//! format and one set of crash rules (see the source of the crate's
//! `frame` module).
//!
//! # Examples
//!
//! ```
//! use lvq_chain::{Address, BlockSource, ChainBuilder, ChainParams, Transaction};
//! use lvq_store::{ingest_chain, open_chain, StoreConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut builder = ChainBuilder::new(ChainParams::default())?;
//! for height in 1..=4u32 {
//!     builder.push_block(vec![Transaction::coinbase(Address::new("1Miner"), 50, height)])?;
//! }
//! let chain = builder.finish();
//!
//! let dir = std::env::temp_dir().join(format!("lvq-store-doc-{}", std::process::id()));
//! ingest_chain(&chain, &dir, StoreConfig::default())?;
//! let (served, report) = open_chain(&dir, StoreConfig::default())?;
//! assert!(report.is_clean());
//! assert_eq!(served.tip_height(), 4);
//! assert_eq!(served.headers(), chain.headers());
//! # std::fs::remove_dir_all(&dir)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod crc32;
mod error;
mod frame;
mod fsio;
mod index;
mod source;
mod store;

pub use crc32::crc32;
pub use error::StoreError;
pub use fsio::{
    is_simulated_crash, CrashFs, CrashMode, CrashSchedule, RealFs, SimulatedCrash, StoreFs,
};
pub use index::IndexedTables;
pub use source::{
    ingest_chain, open_chain, open_chain_indexed, open_chain_indexed_verified,
    open_chain_indexed_with_fs, DiskBlockSource, IndexedChain,
};
pub use store::{AddrIndexRecovery, BlockStore, RecoveryReport, StoreConfig};
