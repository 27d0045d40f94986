//! LVQ: lightweight verifiable queries for Bitcoin transaction history.
//!
//! This crate is the paper's contribution proper, layered on the
//! substrate crates:
//!
//! * [`Scheme`] — the four evaluated systems (paper §VII-B): the
//!   strawman baseline, LVQ without BMT, LVQ without SMT, and full LVQ;
//! * [`segment`] — the block-merging arithmetic: Algorithm 1 / Table I
//!   (how many previous blocks a block's BMT merges) and the §V-B
//!   decomposition of the chain into complete segments and dyadic
//!   sub-segments (Table II);
//! * [`Prover`] — the full node side: given an address, assemble the
//!   scheme's query response (BMT branch proofs per segment, SMT
//!   count/inexistence proofs, Merkle branches, integral blocks);
//! * [`LightClient`] — the light node side: verify a response against
//!   nothing but the stored headers, yielding the complete, correct
//!   transaction history and the paper's Eq. 1 balance;
//! * [`SizeBreakdown`] / [`ProverStats`] — the exact byte and endpoint
//!   accounting behind the paper's Figures 12–16.
//!
//! # Examples
//!
//! End-to-end query between an in-process full node and light client:
//!
//! ```
//! use lvq_chain::{Address, ChainBuilder, Transaction};
//! use lvq_core::{LightClient, Prover, Scheme, SchemeConfig};
//! use lvq_bloom::BloomParams;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SchemeConfig::new(Scheme::Lvq, BloomParams::new(256, 2)?, 8)?;
//! let mut builder = ChainBuilder::new(config.chain_params())?;
//! let alice = Address::new("1Alice");
//! for h in 1..=8u32 {
//!     let mut txs = vec![Transaction::coinbase(Address::new("1Miner"), 50, h)];
//!     if h == 3 {
//!         txs.push(Transaction::coinbase(alice.clone(), 25, 1000 + h));
//!     }
//!     builder.push_block(txs)?;
//! }
//! let chain = builder.finish();
//!
//! let prover = Prover::new(&chain, config)?;
//! let (response, _stats) = prover.respond(&alice)?;
//!
//! let client = LightClient::new(config, chain.headers());
//! let history = client.verify(&alice, &response)?;
//! assert_eq!(history.transactions.len(), 1);
//! assert_eq!(history.balance.net(), 25);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod error;
mod fragment;
mod prover;
mod result;
mod scheme;
pub mod segment;
mod shape;
mod stats;
mod verifier;

pub use batch::{
    BatchBlockEntry, BatchPerBlockResponse, BatchQueryResponse, BatchSegmentBundle,
    BatchSegmentedResponse,
};
pub use error::{ProveError, QueryError};
pub use fragment::{BlockFragment, ExistenceProof, TxWithBranch};
pub use prover::Prover;
pub use result::{
    BlockEntry, PerBlockResponse, QueryResponse, SegmentBundle, SegmentedResponse, SizeBreakdown,
};
pub use scheme::{Scheme, SchemeConfig};
pub use segment::{merge_count, segments, Segment};
pub use stats::{FragmentCounts, ProverStats};
pub use verifier::{Completeness, LightClient, VerifiedHistory};
