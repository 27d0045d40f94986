//! The light-node side: response verification (paper §V, §VI).

use std::collections::BTreeSet;

use lvq_bloom::BloomFilter;
use lvq_chain::{balance_of, Address, BalanceBreakdown, BlockHeader, Transaction};

use crate::batch::BatchQueryResponse;
use crate::error::QueryError;
use crate::fragment::BlockFragment;
use crate::result::QueryResponse;
use crate::scheme::{Scheme, SchemeConfig};
use crate::segment::{map_segments, segments_over, Segment};
use crate::shape::{Body, Shape};

/// How much the verification established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completeness {
    /// Every relevant transaction is provably included and none omitted
    /// — the balance is trustworthy.
    Complete,
    /// Every returned transaction is provably on-chain, but omissions
    /// cannot be ruled out (the strawman's Challenge 3): the paper's
    /// *correctness* without *completeness*.
    CorrectnessOnly,
}

/// The outcome of a successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedHistory {
    /// Proven transactions as `(height, transaction)`, in chain order.
    pub transactions: Vec<(u64, Transaction)>,
    /// Paper Eq. 1 over the proven history.
    pub balance: BalanceBreakdown,
    /// Whether completeness was established.
    pub completeness: Completeness,
}

/// What verification has proven so far for one address.
#[derive(Debug, Clone, Default)]
struct Found {
    transactions: Vec<(u64, Transaction)>,
    correctness_only: bool,
}

impl Found {
    fn merge(&mut self, other: Found) {
        self.transactions.extend(other.transactions);
        self.correctness_only |= other.correctness_only;
    }

    fn into_history(mut self, address: &Address) -> VerifiedHistory {
        self.transactions.sort_by_key(|(h, _)| *h);
        let balance = balance_of(address, self.transactions.iter().map(|(_, t)| t));
        VerifiedHistory {
            transactions: self.transactions,
            balance,
            completeness: if self.correctness_only {
                Completeness::CorrectnessOnly
            } else {
                Completeness::Complete
            },
        }
    }
}

/// A light node's verification engine: stored headers plus the scheme
/// configuration, nothing else.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct LightClient {
    config: SchemeConfig,
    headers: Vec<BlockHeader>,
}

impl LightClient {
    /// Creates a client holding `headers` (height 1 first).
    pub fn new(config: SchemeConfig, headers: Vec<BlockHeader>) -> Self {
        LightClient { config, headers }
    }

    /// This client's configuration.
    pub fn config(&self) -> SchemeConfig {
        self.config
    }

    /// The chain tip implied by the stored headers.
    pub fn tip_height(&self) -> u64 {
        self.headers.len() as u64
    }

    /// Total bytes of stored headers — the storage cost of paper
    /// Challenge 1.
    pub fn storage_bytes(&self) -> u64 {
        self.headers.iter().map(|h| h.storage_len() as u64).sum()
    }

    /// Checks that the stored headers form a hash chain (each header's
    /// `prev_block` is the hash of its predecessor) — the SPV sanity
    /// check a light node runs after the initial header download.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::BrokenHeaderChain`] at the first break.
    pub fn validate_header_chain(&self) -> Result<(), QueryError> {
        let mut prev = lvq_crypto::Hash256::ZERO;
        for (i, header) in self.headers.iter().enumerate() {
            if header.prev_block != prev {
                return Err(QueryError::BrokenHeaderChain {
                    height: i as u64 + 1,
                });
            }
            prev = header.block_hash();
        }
        Ok(())
    }

    /// Appends newly announced headers, checking that each one chains
    /// onto the current tip — how a light node follows a growing chain.
    ///
    /// On error nothing is appended.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::BrokenHeaderChain`] at the first header
    /// that does not extend the chain.
    pub fn append_headers(
        &mut self,
        new_headers: impl IntoIterator<Item = BlockHeader>,
    ) -> Result<(), QueryError> {
        let mut prev = self
            .headers
            .last()
            .map(BlockHeader::block_hash)
            .unwrap_or(lvq_crypto::Hash256::ZERO);
        let mut accepted = Vec::new();
        for header in new_headers {
            if header.prev_block != prev {
                return Err(QueryError::BrokenHeaderChain {
                    height: self.headers.len() as u64 + accepted.len() as u64 + 1,
                });
            }
            prev = header.block_hash();
            accepted.push(header);
        }
        self.headers.extend(accepted);
        Ok(())
    }

    /// The block hash of the stored header at `height`, or
    /// [`lvq_crypto::Hash256::ZERO`] at height 0 (where every chain
    /// agrees) — what a reorg-aware client pins its incremental sync
    /// to. `None` above the stored tip.
    pub fn hash_at(&self, height: u64) -> Option<lvq_crypto::Hash256> {
        if height == 0 {
            return Some(lvq_crypto::Hash256::ZERO);
        }
        self.headers
            .get(height as usize - 1)
            .map(BlockHeader::block_hash)
    }

    /// Discards every stored header strictly above `height` — the
    /// rollback half of following a chain through a reorg. Returns how
    /// many headers were dropped (zero when already at or below
    /// `height`).
    ///
    /// Proofs verified against a discarded header were proofs against
    /// an orphaned block: the caller must drop any state derived from
    /// them and re-query once the replacement headers are appended.
    pub fn rollback_to(&mut self, height: u64) -> u64 {
        let before = self.headers.len() as u64;
        if height >= before {
            return 0;
        }
        self.headers.truncate(height as usize);
        before - height
    }

    /// Verifies a full-node response for `address`.
    ///
    /// On success the returned history is *correct* (every transaction
    /// is on-chain at the stated height) and, except for the strawman's
    /// existence fragments, *complete* (no relevant transaction in
    /// `1..=tip` was omitted).
    ///
    /// # Errors
    ///
    /// Returns a [`QueryError`] describing the first inconsistency; any
    /// error means the response must be discarded and the full node
    /// distrusted.
    pub fn verify(
        &self,
        address: &Address,
        response: &QueryResponse,
    ) -> Result<VerifiedHistory, QueryError> {
        self.verify_over(
            std::slice::from_ref(address),
            response,
            1,
            self.tip_height(),
        )
        .map(only)
    }

    /// Verifies a response restricted to blocks `lo..=hi` (the range
    /// counterpart of [`crate::Prover::respond_range`]).
    ///
    /// On success, completeness covers exactly the requested range: no
    /// transaction of `address` in blocks `lo..=hi` was omitted.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::InvalidRange`] unless `1 ≤ lo ≤ hi ≤ tip`,
    /// and any other [`QueryError`] exactly as [`LightClient::verify`]
    /// does.
    pub fn verify_range(
        &self,
        address: &Address,
        lo: u64,
        hi: u64,
        response: &QueryResponse,
    ) -> Result<VerifiedHistory, QueryError> {
        self.check_range(lo, hi)?;
        self.verify_over(std::slice::from_ref(address), response, lo, hi)
            .map(only)
    }

    /// Verifies a batched multi-address response, returning one
    /// [`VerifiedHistory`] per address in batch order.
    ///
    /// Each per-address verdict is exactly as strong as a dedicated
    /// [`LightClient::verify`]: the shared BMT proof is checked against
    /// every address's bit positions individually (a node may only be
    /// treated as clean for an address whose positions it is actually
    /// clean for), and each address's fragment section must account for
    /// exactly its matched leaves.
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::EmptyBatch`] for an empty address list,
    /// [`QueryError::SectionCountMismatch`] when the response does not
    /// carry one section per address, and any other [`QueryError`]
    /// exactly as [`LightClient::verify`] does.
    pub fn verify_batch(
        &self,
        addresses: &[Address],
        response: &BatchQueryResponse,
    ) -> Result<Vec<VerifiedHistory>, QueryError> {
        self.verify_over(addresses, response, 1, self.tip_height())
    }

    /// Verifies a batched response restricted to blocks `lo..=hi` — the
    /// batch counterpart of [`LightClient::verify_range`], applying the
    /// same boundary rule (failed leaves below `lo` are owed no
    /// fragment in any address's section).
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::InvalidRange`] unless `1 ≤ lo ≤ hi ≤ tip`,
    /// and otherwise errors exactly as [`LightClient::verify_batch`].
    pub fn verify_batch_range(
        &self,
        addresses: &[Address],
        lo: u64,
        hi: u64,
        response: &BatchQueryResponse,
    ) -> Result<Vec<VerifiedHistory>, QueryError> {
        self.check_range(lo, hi)?;
        self.verify_over(addresses, response, lo, hi)
    }

    fn check_range(&self, lo: u64, hi: u64) -> Result<(), QueryError> {
        let tip = self.tip_height();
        if lo == 0 || lo > hi || hi > tip {
            return Err(QueryError::InvalidRange { lo, hi, tip });
        }
        Ok(())
    }

    /// The one verification engine behind every `verify*`: a
    /// single-address response is its one-address case. `lo = 1, hi = 0`
    /// encodes the empty chain.
    fn verify_over<R: Shape>(
        &self,
        addresses: &[Address],
        response: &R,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<VerifiedHistory>, QueryError> {
        if addresses.is_empty() {
            return Err(QueryError::EmptyBatch);
        }
        let position_sets: Vec<Vec<u64>> = addresses
            .iter()
            .map(|a| BloomFilter::bit_positions(self.config.bloom(), a.as_bytes()))
            .collect();
        let mut found = vec![Found::default(); addresses.len()];

        match (self.config.scheme().is_per_block(), response.body()) {
            (true, Body::PerBlock(entries)) => {
                let expected = hi.saturating_sub(lo.saturating_sub(1));
                if entries.len() as u64 != expected {
                    return Err(QueryError::WrongEntryCount {
                        got: entries.len() as u64,
                        expected,
                    });
                }
                for (i, entry) in entries.iter().enumerate() {
                    let height = lo + i as u64;
                    let (filter, fragments) = R::entry_parts(entry);
                    if fragments.len() != addresses.len() {
                        return Err(QueryError::SectionCountMismatch {
                            got: fragments.len() as u64,
                            expected: addresses.len() as u64,
                        });
                    }
                    let header = &self.headers[(height - 1) as usize];
                    let committed =
                        header
                            .commitments
                            .bf_hash
                            .ok_or(QueryError::MissingCommitment {
                                height,
                                what: "bloom filter hash",
                            })?;
                    if filter.params() != self.config.bloom() {
                        return Err(QueryError::FilterParamsMismatch { height });
                    }
                    if filter.content_hash() != committed {
                        return Err(QueryError::FilterHashMismatch { height });
                    }
                    for (((address, positions), fragment), found) in addresses
                        .iter()
                        .zip(&position_sets)
                        .zip(fragments)
                        .zip(&mut found)
                    {
                        if filter.check_positions(positions).is_clean() {
                            if *fragment != BlockFragment::Empty {
                                return Err(QueryError::UnexpectedFragment { height });
                            }
                        } else {
                            self.absorb(found, height, address, fragment)?;
                        }
                    }
                }
            }
            (false, Body::Segmented(bundles)) => {
                let segs = segments_over(lo, hi, self.config.segment_len());
                if bundles.len() != segs.len() {
                    return Err(QueryError::SegmentMismatch);
                }
                let per_segment = map_segments(segs.len(), |i| {
                    self.verify_segment::<R>(addresses, &position_sets, &segs[i], &bundles[i], lo)
                });
                for result in per_segment {
                    for (found, part) in found.iter_mut().zip(result?) {
                        found.merge(part);
                    }
                }
            }
            _ => return Err(QueryError::WrongResponseKind),
        }

        Ok(found
            .into_iter()
            .zip(addresses)
            .map(|(found, address)| found.into_history(address))
            .collect())
    }

    /// Verifies one segment of a segmented response: the proof against
    /// every address's positions, then each address's fragment section
    /// against exactly its in-range failed leaves — a prover cannot
    /// silently drop a block whose filter matched. (Failed leaves below
    /// `lo` belong to a boundary segment's prefix and are outside the
    /// query.)
    fn verify_segment<R: Shape>(
        &self,
        addresses: &[Address],
        position_sets: &[Vec<u64>],
        seg: &Segment,
        bundle: &R::Bundle,
        lo: u64,
    ) -> Result<Vec<Found>, QueryError> {
        let sections = R::sections(bundle);
        if sections.len() != addresses.len() {
            return Err(QueryError::SectionCountMismatch {
                got: sections.len() as u64,
                expected: addresses.len() as u64,
            });
        }
        let header = &self.headers[(seg.hi - 1) as usize];
        let root = header
            .commitments
            .bmt_root
            .ok_or(QueryError::MissingCommitment {
                height: seg.hi,
                what: "bmt root",
            })?;
        let coverages = R::verify_proof(bundle, seg, &root, self.config.bloom(), position_sets)
            .map_err(|source| QueryError::Bmt {
                segment_hi: seg.hi,
                source,
            })?;
        let mut found = vec![Found::default(); addresses.len()];
        for (((address, coverage), section), found) in addresses
            .iter()
            .zip(&coverages)
            .zip(sections)
            .zip(&mut found)
        {
            let supplied = section.iter().map(|(h, _)| *h);
            let owed = coverage.failed_leaves.iter().copied().filter(|&h| h >= lo);
            if !supplied.eq(owed) {
                return Err(QueryError::FragmentSetMismatch);
            }
            for (height, fragment) in section {
                self.absorb(found, *height, address, fragment)?;
            }
        }
        Ok(found)
    }

    /// Verifies a fragment owed for `address` at `height` and records
    /// what it proves.
    fn absorb(
        &self,
        found: &mut Found,
        height: u64,
        address: &Address,
        fragment: &BlockFragment,
    ) -> Result<(), QueryError> {
        let txs = self.verify_fragment(height, address, fragment)?;
        found.correctness_only |= matches!(fragment, BlockFragment::MerkleBranches(_));
        found
            .transactions
            .extend(txs.into_iter().map(|t| (height, t)));
        Ok(())
    }

    /// Verifies one block-level fragment, returning the transactions it
    /// proves (empty when it proves absence).
    fn verify_fragment(
        &self,
        height: u64,
        address: &Address,
        fragment: &BlockFragment,
    ) -> Result<Vec<Transaction>, QueryError> {
        let header = &self.headers[(height - 1) as usize];
        let scheme = self.config.scheme();
        match fragment {
            BlockFragment::Empty => Err(QueryError::UnexpectedFragment { height }),

            BlockFragment::MerkleBranches(txs) => {
                // Strawman-only: correctness without a count proof.
                if scheme != Scheme::Strawman || txs.is_empty() {
                    return Err(QueryError::UnexpectedFragment { height });
                }
                self.verify_branches(height, address, header, txs)?;
                Ok(txs.iter().map(|t| t.transaction.clone()).collect())
            }

            BlockFragment::Existence(proof) => {
                if !scheme.has_smt() {
                    return Err(QueryError::UnexpectedFragment { height });
                }
                let commitment =
                    header
                        .commitments
                        .smt_commitment
                        .ok_or(QueryError::MissingCommitment {
                            height,
                            what: "smt",
                        })?;
                let count = proof
                    .smt
                    .verify(address.as_bytes(), &commitment)
                    .map_err(|source| QueryError::Smt { height, source })?
                    .ok_or(QueryError::UnexpectedFragment { height })?;
                // Challenge 3 resolved: exactly `count` distinct
                // transactions must be proven.
                if proof.transactions.len() as u64 != count {
                    return Err(QueryError::CountMismatch {
                        height,
                        committed: count,
                        proven: proof.transactions.len() as u64,
                    });
                }
                self.verify_branches(height, address, header, &proof.transactions)?;
                Ok(proof
                    .transactions
                    .iter()
                    .map(|t| t.transaction.clone())
                    .collect())
            }

            BlockFragment::AbsenceSmt(proof) => {
                if !scheme.has_smt() {
                    return Err(QueryError::UnexpectedFragment { height });
                }
                let commitment =
                    header
                        .commitments
                        .smt_commitment
                        .ok_or(QueryError::MissingCommitment {
                            height,
                            what: "smt",
                        })?;
                let value = proof
                    .verify(address.as_bytes(), &commitment)
                    .map_err(|source| QueryError::Smt { height, source })?;
                if value.is_some() {
                    // The proof itself shows the address *is* present:
                    // claiming absence with it hides transactions.
                    return Err(QueryError::UnexpectedFragment { height });
                }
                Ok(Vec::new())
            }

            BlockFragment::IntegralBlock(block) => {
                if scheme.has_smt() {
                    // LVQ schemes never fall back to integral blocks.
                    return Err(QueryError::UnexpectedFragment { height });
                }
                if block.header != *header {
                    return Err(QueryError::BlockHeaderMismatch { height });
                }
                if block.tx_tree().root() != header.merkle_root {
                    return Err(QueryError::BlockBodyMismatch { height });
                }
                Ok(block
                    .transactions
                    .iter()
                    .filter(|tx| tx.involves(address))
                    .cloned()
                    .collect())
            }
        }
    }

    fn verify_branches(
        &self,
        height: u64,
        address: &Address,
        header: &BlockHeader,
        txs: &[crate::fragment::TxWithBranch],
    ) -> Result<(), QueryError> {
        let mut seen_slots: BTreeSet<u64> = BTreeSet::new();
        for item in txs {
            if !item.transaction.involves(address) {
                return Err(QueryError::UninvolvedTransaction { height });
            }
            if !item
                .branch
                .verify(&item.transaction.txid(), &header.merkle_root)
            {
                return Err(QueryError::InvalidMerkleBranch { height });
            }
            // Distinct tree slots: the same transaction cannot be
            // counted twice to satisfy an SMT count.
            if !seen_slots.insert(item.branch.leaf_index()) {
                return Err(QueryError::DuplicateTransaction { height });
            }
        }
        Ok(())
    }
}

/// The history of a single-address verification.
fn only(mut histories: Vec<VerifiedHistory>) -> VerifiedHistory {
    histories.pop().expect("one address, one history")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::BlockFragment;
    use crate::prover::Prover;
    use crate::result::{BlockEntry, PerBlockResponse};
    use crate::scheme::Scheme;
    use lvq_bloom::{BloomFilter, BloomParams};
    use lvq_chain::{ChainBuilder, Transaction};

    fn config(scheme: Scheme) -> SchemeConfig {
        SchemeConfig::new(scheme, BloomParams::new(128, 2).unwrap(), 4).unwrap()
    }

    fn chain_for(scheme: Scheme, blocks: u64) -> lvq_chain::Chain {
        let mut builder = ChainBuilder::new(config(scheme).chain_params()).unwrap();
        for h in 1..=blocks {
            builder
                .push_block(vec![Transaction::coinbase(
                    Address::new("1Miner"),
                    50,
                    h as u32,
                )])
                .unwrap();
        }
        builder.finish()
    }

    #[test]
    fn wrong_response_kind_rejected() {
        let chain = chain_for(Scheme::Lvq, 4);
        let prover = Prover::from_chain(&chain).unwrap();
        let (response, _) = prover.respond(&Address::new("1Miner")).unwrap();
        // A segmented response fed to a per-block client (mismatched
        // configuration) is rejected before any cryptographic work.
        let per_block_client = LightClient::new(config(Scheme::Strawman), chain.headers());
        assert_eq!(
            per_block_client
                .verify(&Address::new("1Miner"), &response)
                .unwrap_err(),
            QueryError::WrongResponseKind
        );
    }

    #[test]
    fn missing_commitment_detected() {
        // Headers built WITHOUT smt commitments cannot serve an LVQ
        // client: the segmented BMT check fails on the bmt_root lookup
        // for strawman headers.
        let strawman_chain = chain_for(Scheme::Strawman, 4);
        let lvq_client = LightClient::new(config(Scheme::Lvq), strawman_chain.headers());
        let lvq_chain = chain_for(Scheme::Lvq, 4);
        let (response, _) = Prover::from_chain(&lvq_chain)
            .unwrap()
            .respond(&Address::new("1Ghost"))
            .unwrap();
        assert!(matches!(
            lvq_client
                .verify(&Address::new("1Ghost"), &response)
                .unwrap_err(),
            QueryError::MissingCommitment {
                what: "bmt root",
                ..
            }
        ));
    }

    #[test]
    fn filter_params_mismatch_detected() {
        let chain = chain_for(Scheme::Strawman, 2);
        let client = LightClient::new(config(Scheme::Strawman), chain.headers());
        // Hand-craft a response whose filters have the wrong size.
        let bogus_params = BloomParams::new(64, 2).unwrap();
        let response = QueryResponse::PerBlock(PerBlockResponse {
            entries: (0..2)
                .map(|_| BlockEntry {
                    filter: BloomFilter::new(bogus_params),
                    fragment: BlockFragment::Empty,
                })
                .collect(),
        });
        assert!(matches!(
            client
                .verify(&Address::new("1Ghost"), &response)
                .unwrap_err(),
            QueryError::FilterParamsMismatch { height: 1 }
        ));
    }

    #[test]
    fn filter_hash_mismatch_detected() {
        let chain = chain_for(Scheme::Strawman, 2);
        let client = LightClient::new(config(Scheme::Strawman), chain.headers());
        // Right parameters, wrong (empty) contents: H(BF) cannot match
        // the committed hash of the real filter.
        let response = QueryResponse::PerBlock(PerBlockResponse {
            entries: (0..2)
                .map(|_| BlockEntry {
                    filter: BloomFilter::new(config(Scheme::Strawman).bloom()),
                    fragment: BlockFragment::Empty,
                })
                .collect(),
        });
        assert!(matches!(
            client
                .verify(&Address::new("1Ghost"), &response)
                .unwrap_err(),
            QueryError::FilterHashMismatch { height: 1 }
        ));
    }

    #[test]
    fn storage_bytes_counts_headers() {
        let chain = chain_for(Scheme::Lvq, 3);
        let client = LightClient::new(config(Scheme::Lvq), chain.headers());
        assert_eq!(client.tip_height(), 3);
        // 80 base + 3 presence + bmt(32) + smt(32).
        assert_eq!(client.storage_bytes(), 3 * 147);
    }

    #[test]
    fn header_chain_validation() {
        let chain = chain_for(Scheme::Lvq, 4);
        let client = LightClient::new(config(Scheme::Lvq), chain.headers());
        client.validate_header_chain().unwrap();

        // Tamper one header: the chain breaks at the next height.
        let mut headers = chain.headers();
        headers[1].nonce ^= 1;
        let broken = LightClient::new(config(Scheme::Lvq), headers);
        assert_eq!(
            broken.validate_header_chain().unwrap_err(),
            QueryError::BrokenHeaderChain { height: 3 }
        );

        // Splice in a header from nowhere: breaks at its own height.
        let mut headers = chain.headers();
        headers[2].prev_block = lvq_crypto::Hash256::hash(b"fork");
        let forked = LightClient::new(config(Scheme::Lvq), headers);
        assert_eq!(
            forked.validate_header_chain().unwrap_err(),
            QueryError::BrokenHeaderChain { height: 3 }
        );

        // An empty header set is a valid (empty) chain.
        LightClient::new(config(Scheme::Lvq), Vec::new())
            .validate_header_chain()
            .unwrap();
    }

    #[test]
    fn append_headers_follows_growth() {
        let long = chain_for(Scheme::Lvq, 6);
        let all = long.headers();
        let mut client = LightClient::new(config(Scheme::Lvq), all[..4].to_vec());
        client.append_headers(all[4..].iter().copied()).unwrap();
        assert_eq!(client.tip_height(), 6);
        client.validate_header_chain().unwrap();

        // A header that does not extend the tip is rejected and nothing
        // is appended.
        let mut stale = LightClient::new(config(Scheme::Lvq), all[..4].to_vec());
        assert_eq!(
            stale.append_headers([all[5]]).unwrap_err(),
            QueryError::BrokenHeaderChain { height: 5 }
        );
        assert_eq!(stale.tip_height(), 4);

        // Appending onto an empty client is an initial sync.
        let mut fresh = LightClient::new(config(Scheme::Lvq), Vec::new());
        fresh.append_headers(all.iter().copied()).unwrap();
        assert_eq!(fresh.tip_height(), 6);
    }

    #[test]
    fn empty_chain_verifies_empty_response() {
        for scheme in Scheme::ALL {
            let chain = chain_for(scheme, 0);
            let prover = Prover::new(&chain, config(scheme)).unwrap();
            let (response, _) = prover.respond(&Address::new("1Anyone")).unwrap();
            let client = LightClient::new(config(scheme), Vec::new());
            let history = client.verify(&Address::new("1Anyone"), &response).unwrap();
            assert!(history.transactions.is_empty());
            assert_eq!(history.balance.net(), 0);
        }
    }
}
