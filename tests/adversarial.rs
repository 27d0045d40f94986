//! Security tests (paper §VI): every forgery a malicious full node can
//! attempt against a light client must be rejected. Each test mutates an
//! honest response in one specific way and checks the verifier's
//! verdict — including the one *documented gap*: the strawman cannot
//! detect omitted transactions (Challenge 3).

use lvq::core::{BlockFragment, ExistenceProof, QueryError, QueryResponse, SegmentedResponse};
use lvq::merkle::bmt::BmtProofNode;
use lvq::merkle::{BmtProof, SmtProofKind};
use lvq::prelude::*;

/// A workload where `Addr4`-class probes give blocks with multiple
/// matching transactions.
fn workload_for(scheme: Scheme) -> Workload {
    let config = SchemeConfig::new(scheme, BloomParams::new(640, 2).unwrap(), 16).unwrap();
    WorkloadBuilder::new(config.chain_params())
        .blocks(32)
        .traffic(TrafficModel::tiny())
        .seed(1234)
        .probe("1VictimAddress", 8, 4) // multiple txs in some blocks
        .build()
        .unwrap()
}

struct Scenario {
    workload: Workload,
    address: Address,
    response: QueryResponse,
    client: LightClient,
}

fn scenario(scheme: Scheme) -> Scenario {
    let workload = workload_for(scheme);
    let address = workload.probes[0].address.clone();
    let prover = Prover::from_chain(&workload.chain).unwrap();
    let (response, _) = prover.respond(&address).unwrap();
    let client = LightClient::new(prover.config(), workload.chain.headers());
    // Sanity: the honest response verifies.
    client.verify(&address, &response).unwrap();
    Scenario {
        workload,
        address,
        response,
        client,
    }
}

fn as_segmented(response: &mut QueryResponse) -> &mut SegmentedResponse {
    match response {
        QueryResponse::Segmented(s) => s,
        QueryResponse::PerBlock(_) => panic!("expected a segmented response"),
    }
}

/// Finds the first existence fragment in a segmented response.
fn first_existence(segmented: &mut SegmentedResponse) -> &mut ExistenceProof {
    for bundle in &mut segmented.segments {
        for (_, fragment) in &mut bundle.fragments {
            if let BlockFragment::Existence(proof) = fragment {
                return proof;
            }
        }
    }
    panic!("no existence fragment in response");
}

// --- (a) omitting a matching transaction -----------------------------

#[test]
fn lvq_rejects_omitted_transaction() {
    let mut s = scenario(Scheme::Lvq);
    let existence = first_existence(as_segmented(&mut s.response));
    existence.transactions.pop();
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(err, QueryError::CountMismatch { .. }),
        "smt count pins the transaction count: {err}"
    );
}

#[test]
fn strawman_cannot_detect_omission_but_flags_it() {
    // The documented gap (Challenge 3): the strawman accepts the
    // censored history — but the client reports CorrectnessOnly, so a
    // caller knows the balance cannot be trusted.
    let mut s = scenario(Scheme::Strawman);
    let QueryResponse::PerBlock(per_block) = &mut s.response else {
        panic!("strawman responses are per-block");
    };
    let censored = per_block
        .entries
        .iter_mut()
        .find_map(|entry| match &mut entry.fragment {
            BlockFragment::MerkleBranches(txs) if txs.len() > 1 => Some(txs),
            _ => None,
        })
        .expect("victim has a block with several transactions");
    censored.pop();

    let truth = s.workload.chain.history_of(&s.address).len();
    let history = s.client.verify(&s.address, &s.response).unwrap();
    assert_eq!(history.completeness, Completeness::CorrectnessOnly);
    assert!(history.transactions.len() < truth, "omission went through");
}

// --- (b) forging an SMT count ----------------------------------------

#[test]
fn forged_smt_count_rejected() {
    let mut s = scenario(Scheme::Lvq);
    let existence = first_existence(as_segmented(&mut s.response));
    let SmtProofKind::Present(branch) = existence.smt.kind() else {
        panic!("existence proofs carry presence branches");
    };
    let forged_branch = lvq::merkle::SmtBranch::from_parts(
        branch.index(),
        branch.key().to_vec(),
        branch.value() - 1, // claim one fewer appearance
        branch.siblings().to_vec(),
    );
    existence.smt = SmtProof::from_parts(
        existence.smt.leaf_count(),
        SmtProofKind::Present(forged_branch),
    );
    existence.transactions.pop();
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::Smt {
                source: lvq::merkle::SmtError::CommitmentMismatch,
                ..
            }
        ),
        "hash commitment pins the count: {err}"
    );
}

// --- (c) tampering a BMT node's filter --------------------------------

#[test]
fn tampered_bmt_filter_rejected() {
    let mut s = scenario(Scheme::Lvq);
    let segmented = as_segmented(&mut s.response);
    let bundle = &mut segmented.segments[0];

    fn poison(node: &BmtProofNode) -> BmtProofNode {
        match node {
            BmtProofNode::CleanLeaf { filter } => {
                let mut f = filter.clone();
                f.insert(b"poison");
                BmtProofNode::CleanLeaf { filter: f }
            }
            BmtProofNode::CleanNode {
                filter,
                left_hash,
                right_hash,
            } => {
                let mut f = filter.clone();
                f.insert(b"poison");
                BmtProofNode::CleanNode {
                    filter: f,
                    left_hash: *left_hash,
                    right_hash: *right_hash,
                }
            }
            BmtProofNode::FailedLeaf { filter } => BmtProofNode::FailedLeaf {
                filter: filter.clone(),
            },
            BmtProofNode::Branch { left, right } => BmtProofNode::Branch {
                left: Box::new(poison(left)),
                right: right.clone(),
            },
        }
    }
    bundle.proof = BmtProof::from_root(poison(bundle.proof.root()));
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(matches!(err, QueryError::Bmt { .. }), "{err}");
}

// --- (d) claiming a matching block is clean ---------------------------

#[test]
fn hiding_a_failed_leaf_as_clean_rejected() {
    let mut s = scenario(Scheme::Lvq);
    let segmented = as_segmented(&mut s.response);

    fn whitewash(node: &BmtProofNode) -> BmtProofNode {
        match node {
            BmtProofNode::FailedLeaf { filter } => BmtProofNode::CleanLeaf {
                filter: filter.clone(),
            },
            BmtProofNode::Branch { left, right } => BmtProofNode::Branch {
                left: Box::new(whitewash(left)),
                right: Box::new(whitewash(right)),
            },
            other => other.clone(),
        }
    }
    for bundle in &mut segmented.segments {
        bundle.proof = BmtProof::from_root(whitewash(bundle.proof.root()));
        bundle.fragments.clear();
    }
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::Bmt {
                source: lvq::merkle::BmtError::NotClean,
                ..
            }
        ),
        "the committed filter itself betrays the lie: {err}"
    );
}

#[test]
fn relabelling_a_clean_leaf_as_failed_rejected() {
    // The converse lie: tag a clean leaf `FailedLeaf` and attach a valid
    // SMT absence proof for it. Every fragment checks out, so only the
    // leaf tag itself (a claim the committed filter refutes) exposes
    // the malleated proof.
    let mut s = scenario(Scheme::Lvq);
    let segs = segments(s.client.tip_height(), 16);
    let segmented = as_segmented(&mut s.response);

    fn relabel(
        node: &BmtProofNode,
        lo: u64,
        hi: u64,
        relabelled: &mut Option<u64>,
    ) -> BmtProofNode {
        match node {
            BmtProofNode::CleanLeaf { filter } if relabelled.is_none() => {
                *relabelled = Some(lo);
                BmtProofNode::FailedLeaf {
                    filter: filter.clone(),
                }
            }
            BmtProofNode::Branch { left, right } => {
                let mid = lo + (hi - lo) / 2;
                BmtProofNode::Branch {
                    left: Box::new(relabel(left, lo, mid, relabelled)),
                    right: Box::new(relabel(right, mid + 1, hi, relabelled)),
                }
            }
            other => other.clone(),
        }
    }
    let mut relabelled = None;
    for (seg, bundle) in segs.iter().zip(&mut segmented.segments) {
        bundle.proof = BmtProof::from_root(relabel(
            bundle.proof.root(),
            seg.lo,
            seg.hi,
            &mut relabelled,
        ));
        if let Some(height) = relabelled {
            let smt = s.workload.chain.address_smt(height).unwrap();
            let absence = BlockFragment::AbsenceSmt(smt.prove(s.address.as_bytes()));
            bundle.fragments.push((height, absence));
            bundle.fragments.sort_by_key(|(h, _)| *h);
            break;
        }
    }
    assert!(relabelled.is_some(), "the honest proof has a clean leaf");
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::Bmt {
                source: lvq::merkle::BmtError::NotFailed,
                ..
            }
        ),
        "the committed filter refutes the failed tag: {err}"
    );
}

// --- (e) dropping a block's fragment -----------------------------------

#[test]
fn dropped_fragment_rejected() {
    let mut s = scenario(Scheme::Lvq);
    let segmented = as_segmented(&mut s.response);
    let bundle = segmented
        .segments
        .iter_mut()
        .find(|b| !b.fragments.is_empty())
        .expect("victim appears somewhere");
    bundle.fragments.remove(0);
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert_eq!(err, QueryError::FragmentSetMismatch);
}

#[test]
fn per_block_empty_for_matching_block_rejected() {
    let mut s = scenario(Scheme::LvqWithoutBmt);
    let QueryResponse::PerBlock(per_block) = &mut s.response else {
        panic!("per-block scheme");
    };
    let entry = per_block
        .entries
        .iter_mut()
        .find(|e| matches!(e.fragment, BlockFragment::Existence(_)))
        .expect("victim appears somewhere");
    entry.fragment = BlockFragment::Empty;
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(matches!(err, QueryError::UnexpectedFragment { .. }));
}

// --- (f) truncating the response ---------------------------------------

#[test]
fn truncated_segments_rejected() {
    let mut s = scenario(Scheme::Lvq);
    as_segmented(&mut s.response).segments.pop();
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert_eq!(err, QueryError::SegmentMismatch);
}

#[test]
fn truncated_per_block_entries_rejected() {
    let mut s = scenario(Scheme::Strawman);
    let QueryResponse::PerBlock(per_block) = &mut s.response else {
        panic!("per-block scheme");
    };
    per_block.entries.pop();
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(matches!(err, QueryError::WrongEntryCount { .. }));
}

// --- (g) replacing existence with absence ------------------------------

#[test]
fn absence_proof_for_present_address_rejected() {
    let mut s = scenario(Scheme::Lvq);
    // Build a *valid* presence SMT proof and mislabel it as absence: the
    // verifier must notice the proof itself shows presence.
    let heights = s.workload.probes[0].block_heights.clone();
    let block = s.workload.chain.block(heights[0]).unwrap();
    let smt = block.address_smt().unwrap();
    let presence = smt.prove(s.address.as_bytes());

    let segmented = as_segmented(&mut s.response);
    'outer: for bundle in &mut segmented.segments {
        for (height, fragment) in &mut bundle.fragments {
            if *height == heights[0] {
                *fragment = BlockFragment::AbsenceSmt(presence.clone());
                break 'outer;
            }
        }
    }
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::UnexpectedFragment { .. } | QueryError::Smt { .. }
        ),
        "{err}"
    );
}

// --- (h) substituting another block ------------------------------------

#[test]
fn integral_block_from_wrong_height_rejected() {
    let mut s = scenario(Scheme::LvqWithoutSmt);
    let segmented = as_segmented(&mut s.response);
    // Replace some integral block with the block from height 1.
    let substitute = (*s.workload.chain.block(1).unwrap()).clone();
    let mut replaced = false;
    for bundle in &mut segmented.segments {
        for (height, fragment) in &mut bundle.fragments {
            if *height != 1 && matches!(fragment, BlockFragment::IntegralBlock(_)) {
                *fragment = BlockFragment::IntegralBlock(Box::new(substitute.clone()));
                replaced = true;
            }
        }
    }
    assert!(replaced, "no-SMT responses carry integral blocks");
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(matches!(err, QueryError::BlockHeaderMismatch { .. }));
}

// --- (i) padding a count with a duplicated transaction ------------------

#[test]
fn duplicated_transaction_rejected() {
    let mut s = scenario(Scheme::Lvq);
    let existence = first_existence(as_segmented(&mut s.response));
    if existence.transactions.len() < 2 {
        // Fall back: duplicate the only transaction and bump nothing —
        // count check fires first, which is also a rejection.
        existence
            .transactions
            .push(existence.transactions[0].clone());
        let err = s.client.verify(&s.address, &s.response).unwrap_err();
        assert!(matches!(
            err,
            QueryError::CountMismatch { .. } | QueryError::DuplicateTransaction { .. }
        ));
        return;
    }
    // Replace the second transaction with a copy of the first: the
    // count matches but the Merkle slots collide.
    existence.transactions[1] = existence.transactions[0].clone();
    let err = s.client.verify(&s.address, &s.response).unwrap_err();
    assert!(
        matches!(err, QueryError::DuplicateTransaction { .. }),
        "{err}"
    );
}

// --- (j) cross-address response replay ----------------------------------

#[test]
fn response_for_another_address_rejected() {
    let s = scenario(Scheme::Lvq);
    let prover = Prover::from_chain(&s.workload.chain).unwrap();
    let (other_response, _) = prover.respond(&Address::new("1SomebodyElse")).unwrap();
    // The victim address *is* on chain; a response proving the history
    // of an absent address cannot satisfy the victim's bit positions.
    let err = s.client.verify(&s.address, &other_response).unwrap_err();
    assert!(matches!(
        err,
        QueryError::Bmt { .. } | QueryError::FragmentSetMismatch | QueryError::Smt { .. }
    ));
}

// --- (k) batch forgeries ------------------------------------------------

struct BatchScenario {
    addresses: Vec<Address>,
    response: lvq::core::BatchQueryResponse,
    client: LightClient,
}

fn batch_scenario() -> BatchScenario {
    let workload = workload_for(Scheme::Lvq);
    let addresses = vec![
        workload.probes[0].address.clone(),
        Address::new("1SecondVictim"), // absent: empty sections
    ];
    let prover = Prover::from_chain(&workload.chain).unwrap();
    let (response, _) = prover.respond_batch(&addresses).unwrap();
    let client = LightClient::new(prover.config(), workload.chain.headers());
    // Sanity: the honest batch verifies.
    client.verify_batch(&addresses, &response).unwrap();
    BatchScenario {
        addresses,
        response,
        client,
    }
}

fn as_batch_segmented(
    response: &mut lvq::core::BatchQueryResponse,
) -> &mut lvq::core::BatchSegmentedResponse {
    match response {
        lvq::core::BatchQueryResponse::Segmented(s) => s,
        lvq::core::BatchQueryResponse::PerBlock(_) => panic!("expected a segmented batch"),
    }
}

#[test]
fn batch_dropped_address_section_rejected() {
    // Serving one fewer fragment section than there are addresses must
    // fail before any per-address interpretation happens.
    let mut s = batch_scenario();
    as_batch_segmented(&mut s.response).segments[0]
        .sections
        .pop();
    let err = s
        .client
        .verify_batch(&s.addresses, &s.response)
        .unwrap_err();
    assert!(
        matches!(err, QueryError::SectionCountMismatch { .. }),
        "{err}"
    );
}

#[test]
fn batch_emptied_address_section_rejected() {
    // Keeping the section count but censoring one address's fragments:
    // the shared proof's failed leaves for that address go unanswered.
    let mut s = batch_scenario();
    let segmented = as_batch_segmented(&mut s.response);
    let section = segmented
        .segments
        .iter_mut()
        .flat_map(|b| b.sections.iter_mut())
        .find(|section| !section.is_empty())
        .expect("victim appears somewhere");
    section.clear();
    let err = s
        .client
        .verify_batch(&s.addresses, &s.response)
        .unwrap_err();
    assert_eq!(err, QueryError::FragmentSetMismatch);
}

#[test]
fn batch_cross_address_splice_rejected() {
    // Swapping two addresses' sections inside a bundle: the absent
    // address suddenly "owns" fragments while the present one has none.
    // Both sides of the swap violate the proof's per-address coverage.
    let mut s = batch_scenario();
    let segmented = as_batch_segmented(&mut s.response);
    let bundle = segmented
        .segments
        .iter_mut()
        .find(|b| b.sections.iter().any(|section| !section.is_empty()))
        .expect("victim appears somewhere");
    bundle.sections.swap(0, 1);
    let err = s
        .client
        .verify_batch(&s.addresses, &s.response)
        .unwrap_err();
    assert_eq!(err, QueryError::FragmentSetMismatch);
}

#[test]
fn batch_single_response_splice_rejected() {
    // Splicing a *single-address* proof bundle for one address into the
    // batch (replacing the shared batch proof wholesale) cannot work:
    // the batch verifier re-derives every address's coverage from the
    // batch proof itself, and a single-address descent does not carry
    // the other addresses' evidence.
    let s = batch_scenario();
    let workload = workload_for(Scheme::Lvq);
    let prover = Prover::from_chain(&workload.chain).unwrap();
    // An honest batch for [absent, victim] — i.e. the right addresses in
    // the wrong order — must not verify for [victim, absent].
    let reversed: Vec<Address> = s.addresses.iter().rev().cloned().collect();
    let (reversed_response, _) = prover.respond_batch(&reversed).unwrap();
    let err = s
        .client
        .verify_batch(&s.addresses, &reversed_response)
        .unwrap_err();
    assert!(
        matches!(
            err,
            QueryError::FragmentSetMismatch | QueryError::Bmt { .. } | QueryError::Smt { .. }
        ),
        "{err}"
    );
}
