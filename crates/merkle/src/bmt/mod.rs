//! The Bloom-filter-integrated Merkle Tree (paper §III-B, §IV-B1).
//!
//! A BMT is a perfect binary tree whose every node carries a Bloom filter
//! and a hash:
//!
//! * leaf: `hash = H(bf)` — paper Eq. 2, `l = 0` case;
//! * internal: `bf = left.bf | right.bf` (Eq. 3) and
//!   `hash = H(left.hash || right.hash || bf)` (Eq. 2, `l > 0` case).
//!
//! Binding each node's filter into its hash is what makes a BMT branch
//! unforgeable (paper §VI): a tampered filter changes the node hash and
//! therefore the root.
//!
//! This module provides four cooperating pieces:
//!
//! * [`Bmt`] — an eagerly materialised tree, convenient when filters are
//!   small (tests, examples, small segments);
//! * [`BmtSource`] — the abstraction the prover descends over, so large
//!   trees (4,096 leaves × 500 KB filters) can compute node filters on
//!   demand instead of holding gigabytes in memory;
//! * [`BmtBuilder`] — the incremental builder a chain uses to commit each
//!   block's BMT root in O(1) amortised filter merges per block;
//! * [`BmtProof`] — the merged, pruned-subtree inexistence proof of paper
//!   Fig. 11, with exact wire encoding and endpoint statistics, and
//!   [`BmtBatchProof`], the same proof shared by several items; both are
//!   a [`BmtTreeProof`] built and checked by one engine.
//!
//! # Examples
//!
//! ```
//! use lvq_bloom::{BloomFilter, BloomParams};
//! use lvq_merkle::bmt::{self, Bmt, BmtSource};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let params = BloomParams::new(32, 2)?;
//! let leaves: Vec<BloomFilter> = (0..4u8)
//!     .map(|i| {
//!         let mut f = BloomFilter::new(params);
//!         f.insert(&[i]);
//!         f
//!     })
//!     .collect();
//! let tree = Bmt::build(1, leaves)?;
//!
//! // Prove that address `e_c` appears in none of the four sets.
//! let positions = BloomFilter::bit_positions(params, b"e_c");
//! let proof = bmt::prove(&tree, &positions)?;
//! let coverage = proof.verify(1, 4, &tree.root_hash(), params, &positions)?;
//! assert!(coverage.failed_leaves.is_empty());
//! # Ok(())
//! # }
//! ```

mod batch;
mod builder;
mod engine;
mod proof;
mod source;
mod tree;

pub use batch::{prove_multi, BmtBatchNode, BmtBatchProof};
pub use builder::{merge_count, BmtBuilder, LeafCommit, SpanHash};
pub use engine::BmtTreeProof;
pub use proof::{prove, BmtCoverage, BmtProof, BmtProofNode, BmtProofStats};
pub use source::BmtSource;
pub use tree::Bmt;

use std::error::Error;
use std::fmt;

use lvq_bloom::BloomFilter;
use lvq_crypto::Hash256;

/// Errors produced while building BMTs or verifying BMT proofs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BmtError {
    /// A tree was built with zero leaves.
    EmptyTree,
    /// A tree's leaf count was not a power of two.
    ///
    /// The paper's merging rule (Table I) only ever merges dyadic runs,
    /// so BMTs are always perfect binary trees.
    LeafCountNotPowerOfTwo {
        /// The offending leaf count.
        count: u64,
    },
    /// Filters with mismatched parameters were combined in one tree.
    ParamsMismatch,
    /// A proof's recomputed root hash differed from the committed root.
    RootMismatch,
    /// A proof node claimed to be clean but the queried bit positions are
    /// all set in its filter.
    NotClean,
    /// A proof leaf claimed its filter check failed but the queried bit
    /// positions are not all set in its filter.
    NotFailed,
    /// A proof's shape is inconsistent with the expected tree geometry.
    MalformedProof {
        /// What was wrong.
        reason: &'static str,
    },
}

impl fmt::Display for BmtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmtError::EmptyTree => f.write_str("bmt requires at least one leaf"),
            BmtError::LeafCountNotPowerOfTwo { count } => {
                write!(f, "bmt leaf count {count} is not a power of two")
            }
            BmtError::ParamsMismatch => f.write_str("bloom filter parameters differ within bmt"),
            BmtError::RootMismatch => f.write_str("bmt proof does not match committed root"),
            BmtError::NotClean => {
                f.write_str("bmt proof marks a node clean whose filter matches the query")
            }
            BmtError::NotFailed => {
                f.write_str("bmt proof marks a leaf failed whose filter is clean for the query")
            }
            BmtError::MalformedProof { reason } => write!(f, "malformed bmt proof: {reason}"),
        }
    }
}

impl Error for BmtError {}

/// Leaf hash: `H(bf)` (paper Eq. 2, `l = 0`).
pub fn leaf_hash(filter: &BloomFilter) -> Hash256 {
    Hash256::hash(filter.as_bytes())
}

/// Internal node hash: `H(left || right || bf)` (paper Eq. 2, `l > 0`).
pub fn internal_hash(left: &Hash256, right: &Hash256, filter: &BloomFilter) -> Hash256 {
    Hash256::hash_parts(&[left.as_bytes(), right.as_bytes(), filter.as_bytes()])
}

pub(crate) fn is_power_of_two(n: u64) -> bool {
    n != 0 && n & (n - 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_bloom::BloomParams;

    #[test]
    fn hash_binds_filter_contents() {
        let params = BloomParams::new(16, 2).unwrap();
        let empty = BloomFilter::new(params);
        let mut full = BloomFilter::new(params);
        full.insert(b"x");
        assert_ne!(leaf_hash(&empty), leaf_hash(&full));
        let l = Hash256::hash(b"l");
        let r = Hash256::hash(b"r");
        assert_ne!(internal_hash(&l, &r, &empty), internal_hash(&l, &r, &full));
        assert_ne!(internal_hash(&l, &r, &empty), internal_hash(&r, &l, &empty));
    }

    #[test]
    fn power_of_two_check() {
        for n in [1u64, 2, 4, 8, 4096] {
            assert!(is_power_of_two(n));
        }
        for n in [0u64, 3, 6, 12, 4095] {
            assert!(!is_power_of_two(n));
        }
    }
}
