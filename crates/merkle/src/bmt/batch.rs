//! Shared BMT proofs for multi-address batches.
//!
//! A batched query asks about several addresses at once. Instead of one
//! descent (and one pruned subtree on the wire) per address, the prover
//! performs a single descent serving *all* the addresses' bit-position
//! sets: a node is an endpoint only when it is clean for **every**
//! queried set, and is expanded as soon as **any** set matches it.
//!
//! Soundness forces that asymmetry. "Clean" means at least one checked
//! bit is unset, and the unset bit that clears the *union* of several
//! position sets may belong to a different address — so a node clean for
//! the union may still match an individual address. Expanding on any
//! match (and checking every set at every endpoint) keeps each
//! per-address verdict exactly as strong as a dedicated single-address
//! proof.
//!
//! The shared tree is smaller than the sum of the per-address trees
//! whenever the descents overlap — which they always do near the root,
//! where filters are densest.

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;

use super::engine::{decode_node, encode_node, node_len, NodeView, ProofNode, TAG_LEAF};
use super::{BmtCoverage, BmtError, BmtSource, BmtTreeProof};

const TAG_BRANCH: u8 = 2;

/// One node of a shared multi-address BMT proof.
///
/// Unlike [`super::BmtProofNode`], leaves carry no clean/failed
/// distinction: whether a leaf is clean or matched is *per address*, and
/// the verifier derives it from the (hash-bound) leaf filter for each
/// queried position set independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmtBatchNode {
    /// A leaf endpoint. Each address classifies it from the filter:
    /// clean (its positions are not all set) or matched (needs a
    /// block-level fragment for that address).
    Leaf {
        /// The leaf's filter.
        filter: BloomFilter,
    },
    /// An internal endpoint that is clean for **every** queried position
    /// set. Child hashes must be supplied, as in the single-address
    /// proof.
    CleanNode {
        /// The node's filter (OR of everything below it).
        filter: BloomFilter,
        /// Hash of the left child.
        left_hash: Hash256,
        /// Hash of the right child.
        right_hash: Hash256,
    },
    /// An expanded internal node (at least one set matched it); the
    /// verifier recomputes its filter and hash from the children.
    Branch {
        /// Left child subtree.
        left: Box<BmtBatchNode>,
        /// Right child subtree.
        right: Box<BmtBatchNode>,
    },
}

/// A shared multi-address proof over one BMT (one segment in LVQ).
pub type BmtBatchProof = BmtTreeProof<BmtBatchNode>;

impl ProofNode for BmtBatchNode {
    // Leaves are untagged: each address classifies them from the filter.
    const FAILED_LEAF_TAG: u8 = TAG_LEAF;
    const BRANCH_TAG: u8 = TAG_BRANCH;

    fn leaf(filter: BloomFilter, _failed: bool) -> Self {
        BmtBatchNode::Leaf { filter }
    }

    fn clean_node(filter: BloomFilter, left_hash: Hash256, right_hash: Hash256) -> Self {
        BmtBatchNode::CleanNode {
            filter,
            left_hash,
            right_hash,
        }
    }

    fn branch(left: Self, right: Self) -> Self {
        BmtBatchNode::Branch {
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    fn view(&self) -> NodeView<'_, Self> {
        match self {
            BmtBatchNode::Leaf { filter } => NodeView::Leaf {
                filter,
                failed: None,
            },
            BmtBatchNode::CleanNode {
                filter,
                left_hash,
                right_hash,
            } => NodeView::CleanNode {
                filter,
                left_hash,
                right_hash,
            },
            BmtBatchNode::Branch { left, right } => NodeView::Branch { left, right },
        }
    }
}

impl BmtBatchProof {
    /// Verifies the shared proof against a committed BMT for every
    /// queried position set at once.
    ///
    /// Arguments mirror [`super::BmtProof::verify`], with `position_sets`
    /// holding one bit-position set per queried address. On success,
    /// returns one [`BmtCoverage`] per set, in order — each exactly as
    /// strong as a dedicated single-address proof would have
    /// established.
    ///
    /// # Errors
    ///
    /// Returns a [`BmtError`] if the proof shape or parameters are
    /// wrong, the recomputed root differs, or a `CleanNode` is not clean
    /// for every set.
    pub fn verify(
        &self,
        first_leaf: u64,
        leaf_count: u64,
        expected_root: &Hash256,
        params: BloomParams,
        position_sets: &[Vec<u64>],
    ) -> Result<Vec<BmtCoverage>, BmtError> {
        self.verify_sets(first_leaf, leaf_count, expected_root, params, position_sets)
    }
}

/// Generates the shared multi-address proof for `position_sets` over
/// `source` in a single descent.
///
/// The descent expands a node as soon as any set matches it and stops at
/// nodes clean for every set; leaves reached by the expansion become
/// [`BmtBatchNode::Leaf`] endpoints whose per-address classification the
/// verifier re-derives.
///
/// # Errors
///
/// Returns [`BmtError::LeafCountNotPowerOfTwo`] if the source span is
/// not dyadic, and [`BmtError::EmptyTree`] if `position_sets` is empty
/// (an empty batch has no meaningful proof).
pub fn prove_multi<S: BmtSource + ?Sized>(
    source: &S,
    position_sets: &[Vec<u64>],
) -> Result<BmtBatchProof, BmtError> {
    if position_sets.is_empty() {
        return Err(BmtError::EmptyTree);
    }
    BmtBatchProof::prove(source, position_sets)
}

impl Encodable for BmtBatchNode {
    fn encode_into(&self, out: &mut Vec<u8>) {
        encode_node(self, out);
    }

    fn encoded_len(&self) -> usize {
        node_len(self)
    }
}

impl Decodable for BmtBatchNode {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        decode_node(reader, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::super::{prove, Bmt};
    use super::*;
    use lvq_codec::decode_exact;

    fn params() -> BloomParams {
        BloomParams::new(64, 2).unwrap()
    }

    /// Eight leaves, each holding one distinct item plus a shared one.
    fn tree() -> Bmt {
        let leaves = (0..8u8)
            .map(|i| {
                let mut f = BloomFilter::new(params());
                f.insert(&[b'x', i]);
                if i % 3 == 0 {
                    f.insert(b"shared");
                }
                f
            })
            .collect();
        Bmt::build(1, leaves).unwrap()
    }

    fn sets(items: &[&[u8]]) -> Vec<Vec<u64>> {
        items
            .iter()
            .map(|item| BloomFilter::bit_positions(params(), item))
            .collect()
    }

    #[test]
    fn batch_matches_individual_proofs() {
        let tree = tree();
        let probes: [&[u8]; 3] = [b"x\x00", b"shared", b"absent-item"];
        let position_sets = sets(&probes);
        let batch = prove_multi(&tree, &position_sets).unwrap();
        let coverages = batch
            .verify(1, 8, &tree.root_hash(), params(), &position_sets)
            .unwrap();
        assert_eq!(coverages.len(), 3);
        for (positions, coverage) in position_sets.iter().zip(&coverages) {
            let single = prove(&tree, positions).unwrap();
            let single_cov = single
                .verify(1, 8, &tree.root_hash(), params(), positions)
                .unwrap();
            // Identical failed-leaf sets, and both tile the span.
            assert_eq!(coverage.failed_leaves, single_cov.failed_leaves);
            assert!(coverage.covers(1, 8));
        }
    }

    #[test]
    fn batch_smaller_than_sum_of_singles() {
        let tree = tree();
        let probes: [&[u8]; 4] = [b"x\x01", b"x\x02", b"x\x05", b"none"];
        let position_sets = sets(&probes);
        let batch = prove_multi(&tree, &position_sets).unwrap();
        let singles: usize = position_sets
            .iter()
            .map(|p| prove(&tree, p).unwrap().encoded_len())
            .sum();
        assert!(
            batch.encoded_len() < singles,
            "shared descent must beat {} separate proofs ({} vs {})",
            probes.len(),
            batch.encoded_len(),
            singles
        );
    }

    #[test]
    fn empty_batch_rejected() {
        let tree = tree();
        assert_eq!(prove_multi(&tree, &[]).unwrap_err(), BmtError::EmptyTree);
    }

    #[test]
    fn union_clean_node_not_accepted_for_matching_address() {
        // Forge a proof that collapses a subtree containing an address's
        // item into a CleanNode. The filter (bound by the root hash)
        // still matches that address, so verification must fail rather
        // than silently hide the match.
        let tree = tree();
        let position_sets = sets(&[b"x\x00"]);
        fn forge(node: &BmtBatchNode, tree: &Bmt, lo: u64, hi: u64) -> BmtBatchNode {
            match node {
                BmtBatchNode::Branch { .. } if lo != hi => {
                    let mid = lo + (hi - lo) / 2;
                    BmtBatchNode::CleanNode {
                        filter: tree.filter(lo, hi),
                        left_hash: tree.node_hash(lo, mid),
                        right_hash: tree.node_hash(mid + 1, hi),
                    }
                }
                other => other.clone(),
            }
        }
        let honest = prove_multi(&tree, &position_sets).unwrap();
        let forged = BmtBatchProof::from_root(forge(honest.root(), &tree, 1, 8));
        assert_eq!(
            forged
                .verify(1, 8, &tree.root_hash(), params(), &position_sets)
                .unwrap_err(),
            BmtError::NotClean
        );
    }

    #[test]
    fn wrong_root_and_params_rejected() {
        let tree = tree();
        let position_sets = sets(&[b"probe"]);
        let proof = prove_multi(&tree, &position_sets).unwrap();
        assert_eq!(
            proof
                .verify(1, 8, &Hash256::hash(b"bogus"), params(), &position_sets)
                .unwrap_err(),
            BmtError::RootMismatch
        );
        let other = BloomParams::new(65, 2).unwrap();
        assert_eq!(
            proof
                .verify(1, 8, &tree.root_hash(), other, &position_sets)
                .unwrap_err(),
            BmtError::ParamsMismatch
        );
    }

    #[test]
    fn codec_roundtrip_and_depth_bomb() {
        let tree = tree();
        let position_sets = sets(&[b"x\x03", b"shared"]);
        let proof = prove_multi(&tree, &position_sets).unwrap();
        let bytes = proof.encode();
        assert_eq!(bytes.len(), proof.encoded_len());
        assert_eq!(decode_exact::<BmtBatchProof>(&bytes).unwrap(), proof);

        assert!(decode_exact::<BmtBatchProof>(&[9u8]).is_err());
        let bomb = vec![TAG_BRANCH; 64];
        assert!(decode_exact::<BmtBatchProof>(&bomb).is_err());
    }

    #[test]
    fn stats_account_for_encoding() {
        let tree = tree();
        let position_sets = sets(&[b"shared", b"gone"]);
        let proof = prove_multi(&tree, &position_sets).unwrap();
        let stats = proof.stats();
        assert!(stats.endpoint_count() >= 1);
        // Every byte is either a filter, a hash, or a one-byte tag.
        let tags = stats.endpoint_count() + stats.branch_nodes;
        assert_eq!(
            proof.encoded_len() as u64,
            stats.filter_bytes + stats.hash_bytes + tags
        );
    }
}
