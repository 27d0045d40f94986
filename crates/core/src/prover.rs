//! The full-node side: response generation (paper §V).

use lvq_bloom::BloomFilter;
use lvq_chain::{Address, BlockSource, Chain, InMemoryBlocks, InMemoryTables, TableSource};

use crate::batch::BatchQueryResponse;
use crate::error::ProveError;
use crate::fragment::{BlockFragment, ExistenceProof, TxWithBranch};
use crate::result::QueryResponse;
use crate::scheme::{Scheme, SchemeConfig};
use crate::segment::{map_segments, segments_over};
use crate::shape::Shape;
use crate::stats::ProverStats;

/// A full node's query answering engine.
///
/// Borrowing the [`Chain`] immutably, a prover turns an address into the
/// scheme's [`QueryResponse`] together with [`ProverStats`] describing
/// what it cost (endpoint counts, FPM hits, fragment census).
///
/// The prover is generic over the chain's [`BlockSource`]: against the
/// default in-memory source block bodies are already deserialized, while
/// against a disk-backed source they are materialized lazily — only for
/// the (few) blocks whose filters actually matched.
///
/// A single-address query is the one-address case of a batched one: both
/// run the same per-block and segmented loops. With the `parallel`
/// feature, segment proofs are generated on scoped worker threads, one
/// per segment, for either kind.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Prover<'a, S: BlockSource = InMemoryBlocks, T: TableSource = InMemoryTables> {
    chain: &'a Chain<S, T>,
    config: SchemeConfig,
}

impl<S: BlockSource, T: TableSource> Clone for Prover<'_, S, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<S: BlockSource, T: TableSource> Copy for Prover<'_, S, T> {}

impl<'a, S: BlockSource, T: TableSource> Prover<'a, S, T> {
    /// Creates a prover for `chain` with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ProveError::SchemeMismatch`] if the chain was built
    /// with different parameters than `config` implies.
    pub fn new(chain: &'a Chain<S, T>, config: SchemeConfig) -> Result<Self, ProveError> {
        if chain.params() != config.chain_params() {
            return Err(ProveError::SchemeMismatch);
        }
        Ok(Prover { chain, config })
    }

    /// Creates a prover, inferring the configuration from the chain.
    ///
    /// # Errors
    ///
    /// Returns [`ProveError::SchemeMismatch`] if the chain's commitment
    /// policy matches none of the four schemes.
    pub fn from_chain(chain: &'a Chain<S, T>) -> Result<Self, ProveError> {
        let config =
            SchemeConfig::from_chain_params(chain.params()).ok_or(ProveError::SchemeMismatch)?;
        Ok(Prover { chain, config })
    }

    /// This prover's configuration.
    pub fn config(&self) -> SchemeConfig {
        self.config
    }

    /// Answers a transaction-history query for `address` over the whole
    /// chain.
    ///
    /// # Errors
    ///
    /// Returns a [`ProveError`] only on prover-side inconsistencies
    /// (wrong scheme, corrupted chain); honest configurations never
    /// fail.
    pub fn respond(&self, address: &Address) -> Result<(QueryResponse, ProverStats), ProveError> {
        self.respond_over(std::slice::from_ref(address), 1, self.chain.tip_height())
    }

    /// Answers a query restricted to blocks `lo..=hi` (paper §VII-A:
    /// "a query of larger range can be performed similarly" — and so
    /// can a smaller one).
    ///
    /// BMT roots only exist for canonical dyadic spans, so a range
    /// query reuses the canonical segments that intersect the range;
    /// at the left boundary the segment proof may cover blocks below
    /// `lo`, whose failed leaves then simply need no block-level
    /// fragment. The verifier applies the same rule
    /// ([`crate::LightClient::verify_range`]).
    ///
    /// # Errors
    ///
    /// Returns [`ProveError::InvalidRange`] unless
    /// `1 ≤ lo ≤ hi ≤ tip`.
    pub fn respond_range(
        &self,
        address: &Address,
        lo: u64,
        hi: u64,
    ) -> Result<(QueryResponse, ProverStats), ProveError> {
        self.check_range(lo, hi)?;
        self.respond_over(std::slice::from_ref(address), lo, hi)
    }

    /// Answers one batched query for several addresses over the whole
    /// chain (the multi-address counterpart of [`Prover::respond`]).
    ///
    /// Under the BMT schemes, each segment receives a single shared
    /// descent ([`lvq_merkle::bmt::prove_multi`]) serving every
    /// address's bit positions; under the per-block schemes, each
    /// block's filter is included once for all addresses.
    ///
    /// # Errors
    ///
    /// Returns [`ProveError::EmptyBatch`] for an empty address list, and
    /// otherwise fails only on prover-side inconsistencies, exactly as
    /// [`Prover::respond`].
    pub fn respond_batch(
        &self,
        addresses: &[Address],
    ) -> Result<(BatchQueryResponse, ProverStats), ProveError> {
        self.respond_over(addresses, 1, self.chain.tip_height())
    }

    /// Answers a batched query restricted to blocks `lo..=hi` — the
    /// multi-address counterpart of [`Prover::respond_range`], with the
    /// same boundary rule: a left-boundary segment's proof may cover
    /// blocks below `lo`, whose failed leaves then need no block-level
    /// fragment for any address.
    ///
    /// # Errors
    ///
    /// Returns [`ProveError::EmptyBatch`] for an empty address list and
    /// [`ProveError::InvalidRange`] unless `1 ≤ lo ≤ hi ≤ tip`.
    pub fn respond_batch_range(
        &self,
        addresses: &[Address],
        lo: u64,
        hi: u64,
    ) -> Result<(BatchQueryResponse, ProverStats), ProveError> {
        self.check_range(lo, hi)?;
        self.respond_over(addresses, lo, hi)
    }

    fn check_range(&self, lo: u64, hi: u64) -> Result<(), ProveError> {
        let tip = self.chain.tip_height();
        if lo == 0 || lo > hi || hi > tip {
            return Err(ProveError::InvalidRange { lo, hi, tip });
        }
        Ok(())
    }

    /// The one query engine behind every `respond*`: single-address
    /// queries are its one-address case. `lo = 1, hi = 0` encodes the
    /// empty chain.
    fn respond_over<R: Shape>(
        &self,
        addresses: &[Address],
        lo: u64,
        hi: u64,
    ) -> Result<(R, ProverStats), ProveError> {
        if addresses.is_empty() {
            return Err(ProveError::EmptyBatch);
        }
        let position_sets: Vec<Vec<u64>> = addresses
            .iter()
            .map(|a| BloomFilter::bit_positions(self.config.bloom(), a.as_bytes()))
            .collect();
        let mut stats = ProverStats::default();
        let response = if self.config.scheme().is_per_block() {
            self.respond_per_block(addresses, lo, hi, &position_sets, &mut stats)?
        } else {
            self.respond_segmented(addresses, lo, hi, &position_sets, &mut stats)?
        };
        Ok((response, stats))
    }

    /// Strawman / LVQ-without-BMT: one entry per block carrying its
    /// filter once and one fragment per address (paper §IV-A, Fig. 6).
    fn respond_per_block<R: Shape>(
        &self,
        addresses: &[Address],
        lo: u64,
        hi: u64,
        position_sets: &[Vec<u64>],
        stats: &mut ProverStats,
    ) -> Result<R, ProveError> {
        let mut entries = Vec::with_capacity(hi.saturating_sub(lo) as usize + 1);
        for height in lo..=hi {
            let filter = self.chain.leaf_filter(height)?;
            let mut fragments = Vec::with_capacity(addresses.len());
            for (address, positions) in addresses.iter().zip(position_sets) {
                let fragment = if filter.check_positions(positions).is_clean() {
                    BlockFragment::Empty
                } else {
                    self.resolve_block(height, address, stats)?
                };
                stats.fragments.record(&fragment);
                fragments.push(fragment);
            }
            entries.push(R::entry(filter, fragments));
        }
        Ok(R::per_block(entries))
    }

    /// LVQ / LVQ-without-SMT: one BMT descent per (sub-)segment serving
    /// every address, then per-address fragment sections for the leaves
    /// that matched it (paper §V).
    ///
    /// Only segments intersecting `lo..=hi` are included, and failed
    /// leaves below `lo` (a boundary segment's prefix) are owed no
    /// fragment. With the `parallel` feature the segment proofs are
    /// generated on scoped worker threads; the chain's span-filter cache
    /// is lock-guarded, so concurrent descents share memoised filters.
    fn respond_segmented<R: Shape>(
        &self,
        addresses: &[Address],
        lo: u64,
        hi: u64,
        position_sets: &[Vec<u64>],
        stats: &mut ProverStats,
    ) -> Result<R, ProveError> {
        let segs = segments_over(lo, hi, self.config.segment_len());
        let proofs = map_segments(segs.len(), |i| -> Result<R::Proof, ProveError> {
            let source = self.chain.segment_source(segs[i].lo, segs[i].hi)?;
            Ok(R::prove(&source, position_sets)?)
        });

        let mut bundles = Vec::with_capacity(segs.len());
        for (seg, proof) in segs.iter().zip(proofs) {
            let proof = proof?;
            stats.bmt.merge(&R::proof_stats(&proof));
            let mut sections = Vec::with_capacity(addresses.len());
            for (address, positions) in addresses.iter().zip(position_sets) {
                let mut section = Vec::new();
                for height in R::failed_leaves(&proof, seg, positions) {
                    if height < lo {
                        // Proven to match, but outside the queried
                        // range: no block-level resolution is owed.
                        continue;
                    }
                    let fragment = self.resolve_block(height, address, stats)?;
                    stats.fragments.record(&fragment);
                    section.push((height, fragment));
                }
                sections.push(section);
            }
            bundles.push(R::bundle(proof, sections));
        }
        Ok(R::segmented(bundles))
    }

    /// Consults a block body to resolve a failed filter check into the
    /// scheme's fragment (the table in [`BlockFragment`]'s docs).
    fn resolve_block(
        &self,
        height: u64,
        address: &Address,
        stats: &mut ProverStats,
    ) -> Result<BlockFragment, ProveError> {
        stats.blocks_resolved += 1;
        let block = self.chain.block(height)?;
        let indices = block.tx_indices_for(address);
        let existent = !indices.is_empty();
        if !existent {
            stats.fpm_blocks += 1;
        }

        Ok(match (self.config.scheme(), existent) {
            // Existent cases.
            (Scheme::Strawman, true) => {
                BlockFragment::MerkleBranches(self.branches_for(&block, &indices))
            }
            (Scheme::LvqWithoutBmt | Scheme::Lvq, true) => {
                let smt = self.chain.address_smt(height)?;
                BlockFragment::Existence(ExistenceProof {
                    smt: smt.prove(address.as_bytes()),
                    transactions: self.branches_for(&block, &indices),
                })
            }
            (Scheme::LvqWithoutSmt, true) => {
                BlockFragment::IntegralBlock(Box::new((*block).clone()))
            }
            // FPM cases.
            (Scheme::Strawman | Scheme::LvqWithoutSmt, false) => {
                BlockFragment::IntegralBlock(Box::new((*block).clone()))
            }
            (Scheme::LvqWithoutBmt | Scheme::Lvq, false) => {
                let smt = self.chain.address_smt(height)?;
                BlockFragment::AbsenceSmt(smt.prove(address.as_bytes()))
            }
        })
    }

    fn branches_for(&self, block: &lvq_chain::Block, indices: &[usize]) -> Vec<TxWithBranch> {
        let tree = block.tx_tree();
        indices
            .iter()
            .map(|&i| TxWithBranch {
                transaction: block.transactions[i].clone(),
                branch: tree.branch(i).expect("index from the same block"),
            })
            .collect()
    }
}
