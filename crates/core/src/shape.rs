//! The two wire shapes a query is answered in.
//!
//! A single-address query ([`QueryResponse`]) and a batched one
//! ([`BatchQueryResponse`]) carry the same proof — one BMT descent per
//! segment, or one filter per block, plus block-level fragments — in two
//! encodings. [`Shape`] is the small seam between them: the prover's and
//! verifier's loops are written once over it, and a single-address query
//! is their one-address case. The verifier borrows a single response as
//! one-address sections (`std::slice::from_ref`), so no filter or proof
//! tree is cloned.

use lvq_bloom::{BloomFilter, BloomParams};
use lvq_crypto::Hash256;
use lvq_merkle::bmt::{self, BmtSource};
use lvq_merkle::{BmtBatchProof, BmtCoverage, BmtError, BmtProof, BmtProofStats};

use crate::batch::{
    BatchBlockEntry, BatchPerBlockResponse, BatchQueryResponse, BatchSegmentBundle,
    BatchSegmentedResponse,
};
use crate::fragment::BlockFragment;
use crate::result::{
    BlockEntry, PerBlockResponse, QueryResponse, Section, SegmentBundle, SegmentedResponse,
};
use crate::segment::Segment;

/// A response's body, borrowed.
pub(crate) enum Body<'a, R: Shape> {
    /// One entry per block (strawman, LVQ without BMT).
    PerBlock(&'a [R::Entry]),
    /// One bundle per (sub-)segment (LVQ without SMT, LVQ).
    Segmented(&'a [R::Bundle]),
}

/// A query response shape. Every list argument or result holds one item
/// per queried address, in query order; a single-address shape always
/// sees exactly one.
pub(crate) trait Shape: Sized {
    /// A segment's BMT proof.
    type Proof: Send;
    /// One block of a per-block response.
    type Entry;
    /// One (sub-)segment of a segmented response.
    type Bundle: Sync;

    /// Generates a segment's proof in one descent over `position_sets`.
    fn prove<S: BmtSource + ?Sized>(
        source: &S,
        position_sets: &[Vec<u64>],
    ) -> Result<Self::Proof, BmtError>;
    /// The proof's size and shape statistics.
    fn proof_stats(proof: &Self::Proof) -> BmtProofStats;
    /// The leaves of `seg` that match `positions` under `proof`.
    fn failed_leaves(proof: &Self::Proof, seg: &Segment, positions: &[u64]) -> Vec<u64>;
    /// Builds a block entry from its filter and per-address fragments.
    fn entry(filter: BloomFilter, fragments: Vec<BlockFragment>) -> Self::Entry;
    /// Builds a segment bundle from its proof and per-address sections.
    fn bundle(proof: Self::Proof, sections: Vec<Section>) -> Self::Bundle;
    /// Wraps per-block entries.
    fn per_block(entries: Vec<Self::Entry>) -> Self;
    /// Wraps segment bundles.
    fn segmented(bundles: Vec<Self::Bundle>) -> Self;

    /// The response's body.
    fn body(&self) -> Body<'_, Self>;
    /// A block entry's filter and per-address fragments.
    fn entry_parts(entry: &Self::Entry) -> (&BloomFilter, &[BlockFragment]);
    /// A bundle's per-address sections.
    fn sections(bundle: &Self::Bundle) -> &[Section];
    /// Verifies a bundle's proof over `seg` against `root`, returning
    /// one coverage per position set.
    fn verify_proof(
        bundle: &Self::Bundle,
        seg: &Segment,
        root: &Hash256,
        params: BloomParams,
        position_sets: &[Vec<u64>],
    ) -> Result<Vec<BmtCoverage>, BmtError>;
}

impl Shape for QueryResponse {
    type Proof = BmtProof;
    type Entry = BlockEntry;
    type Bundle = SegmentBundle;

    fn prove<S: BmtSource + ?Sized>(
        source: &S,
        position_sets: &[Vec<u64>],
    ) -> Result<BmtProof, BmtError> {
        bmt::prove(source, &position_sets[0])
    }

    fn proof_stats(proof: &BmtProof) -> BmtProofStats {
        proof.stats()
    }

    fn failed_leaves(proof: &BmtProof, seg: &Segment, positions: &[u64]) -> Vec<u64> {
        proof.failed_leaves(seg.lo, seg.len(), positions)
    }

    fn entry(filter: BloomFilter, mut fragments: Vec<BlockFragment>) -> BlockEntry {
        let fragment = fragments.pop().expect("one address, one fragment");
        BlockEntry { filter, fragment }
    }

    fn bundle(proof: BmtProof, mut sections: Vec<Section>) -> SegmentBundle {
        let fragments = sections.pop().expect("one address, one section");
        SegmentBundle { proof, fragments }
    }

    fn per_block(entries: Vec<BlockEntry>) -> Self {
        QueryResponse::PerBlock(PerBlockResponse { entries })
    }

    fn segmented(segments: Vec<SegmentBundle>) -> Self {
        QueryResponse::Segmented(SegmentedResponse { segments })
    }

    fn body(&self) -> Body<'_, Self> {
        match self {
            QueryResponse::PerBlock(r) => Body::PerBlock(&r.entries),
            QueryResponse::Segmented(r) => Body::Segmented(&r.segments),
        }
    }

    fn entry_parts(entry: &BlockEntry) -> (&BloomFilter, &[BlockFragment]) {
        (&entry.filter, std::slice::from_ref(&entry.fragment))
    }

    fn sections(bundle: &SegmentBundle) -> &[Section] {
        std::slice::from_ref(&bundle.fragments)
    }

    fn verify_proof(
        bundle: &SegmentBundle,
        seg: &Segment,
        root: &Hash256,
        params: BloomParams,
        position_sets: &[Vec<u64>],
    ) -> Result<Vec<BmtCoverage>, BmtError> {
        let coverage = bundle
            .proof
            .verify(seg.lo, seg.len(), root, params, &position_sets[0])?;
        Ok(vec![coverage])
    }
}

impl Shape for BatchQueryResponse {
    type Proof = BmtBatchProof;
    type Entry = BatchBlockEntry;
    type Bundle = BatchSegmentBundle;

    fn prove<S: BmtSource + ?Sized>(
        source: &S,
        position_sets: &[Vec<u64>],
    ) -> Result<BmtBatchProof, BmtError> {
        bmt::prove_multi(source, position_sets)
    }

    fn proof_stats(proof: &BmtBatchProof) -> BmtProofStats {
        proof.stats()
    }

    fn failed_leaves(proof: &BmtBatchProof, seg: &Segment, positions: &[u64]) -> Vec<u64> {
        proof.failed_leaves(seg.lo, seg.len(), positions)
    }

    fn entry(filter: BloomFilter, fragments: Vec<BlockFragment>) -> BatchBlockEntry {
        BatchBlockEntry { filter, fragments }
    }

    fn bundle(proof: BmtBatchProof, sections: Vec<Section>) -> BatchSegmentBundle {
        BatchSegmentBundle { proof, sections }
    }

    fn per_block(entries: Vec<BatchBlockEntry>) -> Self {
        BatchQueryResponse::PerBlock(BatchPerBlockResponse { entries })
    }

    fn segmented(segments: Vec<BatchSegmentBundle>) -> Self {
        BatchQueryResponse::Segmented(BatchSegmentedResponse { segments })
    }

    fn body(&self) -> Body<'_, Self> {
        match self {
            BatchQueryResponse::PerBlock(r) => Body::PerBlock(&r.entries),
            BatchQueryResponse::Segmented(r) => Body::Segmented(&r.segments),
        }
    }

    fn entry_parts(entry: &BatchBlockEntry) -> (&BloomFilter, &[BlockFragment]) {
        (&entry.filter, &entry.fragments)
    }

    fn sections(bundle: &BatchSegmentBundle) -> &[Section] {
        &bundle.sections
    }

    fn verify_proof(
        bundle: &BatchSegmentBundle,
        seg: &Segment,
        root: &Hash256,
        params: BloomParams,
        position_sets: &[Vec<u64>],
    ) -> Result<Vec<BmtCoverage>, BmtError> {
        bundle
            .proof
            .verify(seg.lo, seg.len(), root, params, position_sets)
    }
}
