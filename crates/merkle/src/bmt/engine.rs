//! The one BMT proof engine behind both proof formats.
//!
//! A single-address proof ([`super::BmtProof`]) and a shared batch proof
//! ([`super::BmtBatchProof`]) are the same pruned tree: they differ only
//! in whether a leaf carries a clean/failed tag. [`ProofNode`] builds and
//! views a node of either format, so the descent, the verifier, the
//! statistics and failed-leaf walkers and the codec below exist once.

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_crypto::Hash256;

use super::{
    internal_hash, is_power_of_two, leaf_hash, BmtCoverage, BmtError, BmtProofStats, BmtSource,
};

/// Maximum tree depth accepted when decoding untrusted proofs
/// (2^40 leaves is far beyond any chain length here).
const MAX_DEPTH: u32 = 40;

/// Wire tag of an untagged or clean leaf, in both formats.
pub(crate) const TAG_LEAF: u8 = 0;
/// Wire tag of a clean internal node, in both formats.
const TAG_CLEAN_NODE: u8 = 1;

/// A merged BMT proof over one tree (one segment in LVQ): a single
/// pruned copy of the tree whose frontier consists of endpoint nodes
/// (paper Fig. 11), in node format `N` ([`super::BmtProofNode`] or
/// [`super::BmtBatchNode`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmtTreeProof<N> {
    root: N,
}

impl<N: ProofNode> BmtTreeProof<N> {
    /// Wraps a hand-built proof tree (tests and adversarial simulations).
    pub fn from_root(root: N) -> Self {
        BmtTreeProof { root }
    }

    /// The proof's root node.
    pub fn root(&self) -> &N {
        &self.root
    }

    /// Computes the proof's size and shape statistics.
    pub fn stats(&self) -> BmtProofStats {
        fn walk<N: ProofNode>(node: &N, stats: &mut BmtProofStats) {
            match node.view() {
                NodeView::Leaf { filter, failed } => {
                    if failed == Some(false) {
                        stats.clean_leaves += 1;
                    } else {
                        stats.failed_leaves += 1;
                    }
                    stats.filter_bytes += filter.encoded_len() as u64;
                }
                NodeView::CleanNode { filter, .. } => {
                    stats.clean_nodes += 1;
                    stats.filter_bytes += filter.encoded_len() as u64;
                    stats.hash_bytes += 64;
                }
                NodeView::Branch { left, right } => {
                    stats.branch_nodes += 1;
                    walk(left, stats);
                    walk(right, stats);
                }
            }
        }
        let mut stats = BmtProofStats::default();
        walk(&self.root, &mut stats);
        stats
    }

    /// The leaves of a proof over `first_leaf..first_leaf + leaf_count`
    /// whose filters match `positions`, in ascending order — the blocks
    /// a prover owes that item a block-level fragment for.
    pub fn failed_leaves(&self, first_leaf: u64, leaf_count: u64, positions: &[u64]) -> Vec<u64> {
        fn walk<N: ProofNode>(node: &N, lo: u64, hi: u64, positions: &[u64], out: &mut Vec<u64>) {
            match node.view() {
                NodeView::Leaf { filter, .. } => {
                    if !filter.check_positions(positions).is_clean() {
                        out.push(lo);
                    }
                }
                NodeView::CleanNode { .. } => {}
                NodeView::Branch { left, right } => {
                    let mid = lo + (hi - lo) / 2;
                    walk(left, lo, mid, positions, out);
                    walk(right, mid + 1, hi, positions, out);
                }
            }
        }
        let mut out = Vec::new();
        let hi = first_leaf + leaf_count - 1;
        walk(&self.root, first_leaf, hi, positions, &mut out);
        out
    }

    /// The one descent behind [`super::prove`] and
    /// [`super::prove_multi`]: a node is expanded as soon as **any**
    /// position set matches it and becomes an endpoint when it is clean
    /// for **every** set; a leaf reached by the expansion is an endpoint
    /// either way.
    pub(crate) fn prove<S, P>(source: &S, position_sets: &[P]) -> Result<Self, BmtError>
    where
        S: BmtSource + ?Sized,
        P: AsRef<[u64]>,
    {
        fn descend<N: ProofNode, S: BmtSource + ?Sized, P: AsRef<[u64]>>(
            source: &S,
            lo: u64,
            hi: u64,
            position_sets: &[P],
        ) -> N {
            let filter = source.filter(lo, hi);
            let failed = position_sets
                .iter()
                .any(|positions| !filter.check_positions(positions.as_ref()).is_clean());
            if lo == hi {
                return N::leaf(filter, failed);
            }
            let mid = lo + (hi - lo) / 2;
            if failed {
                N::branch(
                    descend(source, lo, mid, position_sets),
                    descend(source, mid + 1, hi, position_sets),
                )
            } else {
                let (left_hash, right_hash) =
                    (source.node_hash(lo, mid), source.node_hash(mid + 1, hi));
                N::clean_node(filter, left_hash, right_hash)
            }
        }

        let (lo, hi) = source.span();
        let count = hi - lo + 1;
        if !is_power_of_two(count) {
            return Err(BmtError::LeafCountNotPowerOfTwo { count });
        }
        Ok(Self::from_root(descend(source, lo, hi, position_sets)))
    }

    /// Verifies the proof against the committed root of the tree over
    /// `first_leaf..first_leaf + leaf_count`, returning one
    /// [`BmtCoverage`] per position set, in order.
    ///
    /// A clean internal node must be clean for **every** set (union
    /// cleanliness is not enough: the unset bit clearing the union may
    /// belong to another set). A leaf is classified per set from its
    /// hash-bound filter; if the format tags it, the tag is a claim that
    /// must agree (`NotClean` / `NotFailed` otherwise).
    pub(crate) fn verify_sets<P: AsRef<[u64]>>(
        &self,
        first_leaf: u64,
        leaf_count: u64,
        expected_root: &Hash256,
        params: BloomParams,
        position_sets: &[P],
    ) -> Result<Vec<BmtCoverage>, BmtError> {
        if !is_power_of_two(leaf_count) {
            return Err(BmtError::LeafCountNotPowerOfTwo { count: leaf_count });
        }
        let mut coverages = vec![BmtCoverage::default(); position_sets.len()];
        let hi = first_leaf + leaf_count - 1;
        let (hash, _filter) = verify_node(
            &self.root,
            first_leaf,
            hi,
            params,
            position_sets,
            &mut coverages,
        )?;
        if hash != *expected_root {
            return Err(BmtError::RootMismatch);
        }
        Ok(coverages)
    }
}

fn verify_node<N: ProofNode, P: AsRef<[u64]>>(
    node: &N,
    lo: u64,
    hi: u64,
    params: BloomParams,
    position_sets: &[P],
    coverages: &mut [BmtCoverage],
) -> Result<(Hash256, BloomFilter), BmtError> {
    let malformed = |reason| Err(BmtError::MalformedProof { reason });
    match node.view() {
        NodeView::Leaf { filter, failed } => {
            if lo != hi {
                return malformed("leaf above leaf level");
            }
            check_params(filter, params)?;
            let mut any_failed = false;
            for (positions, coverage) in position_sets.iter().zip(coverages.iter_mut()) {
                if filter.check_positions(positions.as_ref()).is_clean() {
                    coverage.clean_ranges.push((lo, hi));
                } else {
                    any_failed = true;
                    coverage.failed_leaves.push(lo);
                }
            }
            match failed {
                Some(false) if any_failed => return Err(BmtError::NotClean),
                Some(true) if !any_failed => return Err(BmtError::NotFailed),
                _ => {}
            }
            Ok((leaf_hash(filter), filter.clone()))
        }
        NodeView::CleanNode {
            filter,
            left_hash,
            right_hash,
        } => {
            if lo == hi {
                return malformed("internal clean node at leaf level");
            }
            check_params(filter, params)?;
            for (positions, coverage) in position_sets.iter().zip(coverages.iter_mut()) {
                if !filter.check_positions(positions.as_ref()).is_clean() {
                    return Err(BmtError::NotClean);
                }
                coverage.clean_ranges.push((lo, hi));
            }
            Ok((internal_hash(left_hash, right_hash, filter), filter.clone()))
        }
        NodeView::Branch { left, right } => {
            if lo == hi {
                return malformed("branch node at leaf level");
            }
            let mid = lo + (hi - lo) / 2;
            let (lh, lf) = verify_node(left, lo, mid, params, position_sets, coverages)?;
            let (rh, rf) = verify_node(right, mid + 1, hi, params, position_sets, coverages)?;
            // Paper Eq. 3: the parent filter is the OR of its children.
            let filter = BloomFilter::union(&lf, &rf).map_err(|_| BmtError::ParamsMismatch)?;
            Ok((internal_hash(&lh, &rh, &filter), filter))
        }
    }
}

fn check_params(filter: &BloomFilter, params: BloomParams) -> Result<(), BmtError> {
    if filter.params() != params {
        return Err(BmtError::ParamsMismatch);
    }
    Ok(())
}

/// A proof node seen independently of its wire format.
pub enum NodeView<'a, N> {
    /// A leaf endpoint. `failed` is the node's own claim whether the
    /// leaf matched a queried set, or `None` when the format leaves the
    /// classification to the verifier (batch proofs).
    Leaf {
        filter: &'a BloomFilter,
        failed: Option<bool>,
    },
    /// An internal endpoint clean for every queried set.
    CleanNode {
        filter: &'a BloomFilter,
        left_hash: &'a Hash256,
        right_hash: &'a Hash256,
    },
    /// An expanded internal node.
    Branch { left: &'a N, right: &'a N },
}

/// A BMT proof node format: implemented by [`super::BmtProofNode`] and
/// [`super::BmtBatchNode`] only (the trait is not nameable outside this
/// crate).
pub trait ProofNode: Sized {
    /// The wire tag of a leaf that claims to have failed; [`TAG_LEAF`]
    /// for a format whose leaves are untagged.
    const FAILED_LEAF_TAG: u8;
    /// The wire tag of an expanded internal node.
    const BRANCH_TAG: u8;
    /// A leaf endpoint; `failed` when any queried set matched it.
    fn leaf(filter: BloomFilter, failed: bool) -> Self;
    /// An internal endpoint clean for every queried set.
    fn clean_node(filter: BloomFilter, left_hash: Hash256, right_hash: Hash256) -> Self;
    /// An expanded internal node.
    fn branch(left: Self, right: Self) -> Self;
    /// The node's shape.
    fn view(&self) -> NodeView<'_, Self>;
}

/// Encodes a proof node (either format).
pub(crate) fn encode_node<N: ProofNode>(node: &N, out: &mut Vec<u8>) {
    match node.view() {
        NodeView::Leaf { filter, failed } => {
            let failed = failed == Some(true);
            out.push(if failed { N::FAILED_LEAF_TAG } else { TAG_LEAF });
            filter.encode_into(out);
        }
        NodeView::CleanNode {
            filter,
            left_hash,
            right_hash,
        } => {
            out.push(TAG_CLEAN_NODE);
            filter.encode_into(out);
            left_hash.encode_into(out);
            right_hash.encode_into(out);
        }
        NodeView::Branch { left, right } => {
            out.push(N::BRANCH_TAG);
            encode_node(left, out);
            encode_node(right, out);
        }
    }
}

/// The encoded length of a proof node (either format).
pub(crate) fn node_len<N: ProofNode>(node: &N) -> usize {
    1 + match node.view() {
        NodeView::Leaf { filter, .. } => filter.encoded_len(),
        NodeView::CleanNode { filter, .. } => filter.encoded_len() + 64,
        NodeView::Branch { left, right } => node_len(left) + node_len(right),
    }
}

/// Decodes a proof node (either format), bounding the recursion depth
/// of untrusted input.
pub(crate) fn decode_node<N: ProofNode>(
    reader: &mut Reader<'_>,
    depth: u32,
) -> Result<N, DecodeError> {
    if depth > MAX_DEPTH {
        return Err(DecodeError::InvalidValue {
            what: "bmt proof depth",
            found: u64::from(depth),
        });
    }
    Ok(match reader.read_u8()? {
        TAG_LEAF => N::leaf(BloomFilter::decode_from(reader)?, false),
        TAG_CLEAN_NODE => N::clean_node(
            BloomFilter::decode_from(reader)?,
            Hash256::decode_from(reader)?,
            Hash256::decode_from(reader)?,
        ),
        tag if tag == N::BRANCH_TAG => N::branch(
            decode_node(reader, depth + 1)?,
            decode_node(reader, depth + 1)?,
        ),
        tag if tag == N::FAILED_LEAF_TAG => N::leaf(BloomFilter::decode_from(reader)?, true),
        other => {
            return Err(DecodeError::InvalidValue {
                what: "bmt proof node tag",
                found: u64::from(other),
            })
        }
    })
}

impl<N: ProofNode + Encodable> Encodable for BmtTreeProof<N> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.root.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.root.encoded_len()
    }
}

impl<N: ProofNode + Decodable> Decodable for BmtTreeProof<N> {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self::from_root(N::decode_from(reader)?))
    }
}
