//! Cross-crate end-to-end tests: workload generation → chain commitment
//! → prover → wire → light-client verification, across all four schemes.

use lvq::codec::{decode_exact, Encodable};
use lvq::core::QueryResponse;
use lvq::prelude::*;

fn workload_for(scheme: Scheme, bf_bytes: u32, segment_len: u64, blocks: u64) -> Workload {
    let config =
        SchemeConfig::new(scheme, BloomParams::new(bf_bytes, 2).unwrap(), segment_len).unwrap();
    WorkloadBuilder::new(config.chain_params())
        .blocks(blocks)
        .traffic(TrafficModel::tiny())
        .seed(99)
        .probes(probes::table3_scaled(blocks))
        .build()
        .unwrap()
}

#[test]
fn all_schemes_verify_all_probes() {
    for scheme in Scheme::ALL {
        let workload = workload_for(scheme, 640, 16, 48);
        let config = SchemeConfig::new(scheme, BloomParams::new(640, 2).unwrap(), 16).unwrap();
        let full = FullNode::new(workload.chain).unwrap();
        let mut peer = LocalTransport::new(&full);
        let mut light = LightNode::sync_from(&mut peer, config).unwrap();
        for probe in &workload.probes {
            let history = light
                .run(&QuerySpec::address(probe.address.clone()), &mut peer)
                .unwrap()
                .into_single();
            assert_eq!(
                history.transactions.len() as u64,
                probe.tx_count,
                "scheme {scheme}, probe {}",
                probe.address
            );
            // Heights must match the planting exactly.
            let mut heights: Vec<u64> = history.transactions.iter().map(|(h, _)| *h).collect();
            heights.dedup();
            assert_eq!(heights, probe.block_heights);
            // Balance agrees with ground truth Eq. 1.
            let truth = full.chain().history_of(&probe.address);
            let txs: Vec<Transaction> = truth.into_iter().map(|(_, t)| t).collect();
            assert_eq!(history.balance, balance_of(&probe.address, txs.iter()));
        }
    }
}

#[test]
fn responses_survive_the_wire() {
    // Encode → decode → verify must behave identically to verifying the
    // in-memory response (the node layer already does this; this pins
    // it at the QueryResponse level for every scheme).
    for scheme in Scheme::ALL {
        let workload = workload_for(scheme, 640, 8, 24);
        let address = workload.probes[3].address.clone();
        let prover = Prover::from_chain(&workload.chain).unwrap();
        let (response, _) = prover.respond(&address).unwrap();

        let bytes = response.encode();
        assert_eq!(bytes.len(), response.encoded_len(), "scheme {scheme}");
        let decoded: QueryResponse = decode_exact(&bytes).unwrap();
        assert_eq!(decoded, response);

        let client = LightClient::new(prover.config(), workload.chain.headers());
        let a = client.verify(&address, &response).unwrap();
        let b = client.verify(&address, &decoded).unwrap();
        assert_eq!(a, b);
    }
}

#[test]
fn segment_division_drives_segmented_responses() {
    // A non-power-of-two tip forces sub-segments (paper §V-B); the
    // response must have exactly one bundle per (sub-)segment.
    let workload = workload_for(Scheme::Lvq, 640, 16, 45); // 45 = 32+8+4+1 within 2 segments
    let address = workload.probes[0].address.clone();
    let prover = Prover::from_chain(&workload.chain).unwrap();
    let (response, _) = prover.respond(&address).unwrap();
    let QueryResponse::Segmented(segmented) = &response else {
        panic!("LVQ responses are segmented");
    };
    let segs = segments(45, 16);
    assert_eq!(segmented.segments.len(), segs.len());
    // 45 = 2*16 complete + 8 + 4 + 1.
    assert_eq!(segs.len(), 5);

    let client = LightClient::new(prover.config(), workload.chain.headers());
    client.verify(&address, &response).unwrap();
}

#[test]
fn per_block_schemes_transmit_one_filter_per_block() {
    let workload = workload_for(Scheme::Strawman, 640, 16, 24);
    let address = workload.probes[0].address.clone();
    let prover = Prover::from_chain(&workload.chain).unwrap();
    let (response, _) = prover.respond(&address).unwrap();
    let QueryResponse::PerBlock(per_block) = &response else {
        panic!("strawman responses are per-block");
    };
    assert_eq!(per_block.entries.len(), 24);
    // The response is dominated by the 24 transmitted filters.
    let breakdown = response.size_breakdown();
    assert!(breakdown.bloom_filters >= 24 * 640);
}

#[test]
fn size_breakdown_is_exhaustive() {
    for scheme in Scheme::ALL {
        let workload = workload_for(scheme, 640, 8, 24);
        for probe in &workload.probes {
            let prover = Prover::from_chain(&workload.chain).unwrap();
            let (response, _) = prover.respond(&probe.address).unwrap();
            let b = response.size_breakdown();
            assert_eq!(
                b.total(),
                response.total_bytes(),
                "scheme {scheme}, probe {}",
                probe.address
            );
        }
    }
}

#[test]
fn workload_ledgers_are_utxo_consistent() {
    // The synthetic ledger passes full-node economic validation: every
    // input spends a real unspent output and the monetary base equals
    // blocks × subsidy.
    let workload = workload_for(Scheme::Lvq, 640, 16, 32);
    let utxo = workload.chain.validate_utxo().unwrap();
    assert_eq!(utxo.total_value(), 32 * 25_0000_0000);
}

#[test]
fn range_queries_match_full_queries() {
    // For every scheme and a sweep of ranges, a range query must return
    // exactly the slice of the full history inside the range.
    for scheme in Scheme::ALL {
        let workload = workload_for(scheme, 640, 16, 45);
        let prover = Prover::from_chain(&workload.chain).unwrap();
        let client = LightClient::new(prover.config(), workload.chain.headers());
        for probe in &workload.probes {
            let truth = workload.chain.history_of(&probe.address);
            for (lo, hi) in [(1u64, 45u64), (1, 16), (17, 45), (5, 29), (40, 40)] {
                let (response, _) = prover.respond_range(&probe.address, lo, hi).unwrap();
                let history = client
                    .verify_range(&probe.address, lo, hi, &response)
                    .unwrap();
                let expected: Vec<u64> = truth
                    .iter()
                    .filter(|(h, _)| (lo..=hi).contains(h))
                    .map(|(h, _)| *h)
                    .collect();
                let got: Vec<u64> = history.transactions.iter().map(|(h, _)| *h).collect();
                assert_eq!(got, expected, "scheme {scheme} range {lo}..={hi}");
            }
        }
    }
}

#[test]
fn batch_range_queries_match_single_range_queries() {
    // A batched range query must agree, address by address, with the
    // dedicated single-address range query (same boundary rules, same
    // verified histories) — while sharing one BMT proof per segment.
    for scheme in Scheme::ALL {
        let workload = workload_for(scheme, 640, 16, 45);
        let prover = Prover::from_chain(&workload.chain).unwrap();
        let client = LightClient::new(prover.config(), workload.chain.headers());
        let addresses: Vec<Address> = workload.probes.iter().map(|p| p.address.clone()).collect();
        for (lo, hi) in [(1u64, 45u64), (1, 16), (17, 45), (5, 29), (40, 40)] {
            let (response, _) = prover.respond_batch_range(&addresses, lo, hi).unwrap();
            let histories = client
                .verify_batch_range(&addresses, lo, hi, &response)
                .unwrap();
            assert_eq!(histories.len(), addresses.len());
            for (probe, history) in workload.probes.iter().zip(&histories) {
                let (single, _) = prover.respond_range(&probe.address, lo, hi).unwrap();
                let expected = client
                    .verify_range(&probe.address, lo, hi, &single)
                    .unwrap();
                assert_eq!(history, &expected, "scheme {scheme} range {lo}..={hi}");
            }
        }
        // Degenerate ranges are rejected on both sides.
        assert!(prover.respond_batch_range(&addresses, 0, 10).is_err());
        assert!(prover.respond_batch_range(&addresses, 9, 5).is_err());
        assert!(prover.respond_batch_range(&addresses, 1, 99).is_err());
    }
}

#[test]
fn range_response_cannot_hide_inrange_blocks() {
    // The boundary-segment rule (failed leaves below `lo` need no
    // fragment) must not create a hole: a fragment for an in-range
    // failed leaf still cannot be dropped.
    let workload = workload_for(Scheme::Lvq, 640, 16, 45);
    let probe = &workload.probes[5]; // busiest probe
    let (lo, hi) = (5u64, 45u64);
    let prover = Prover::from_chain(&workload.chain).unwrap();
    let (response, _) = prover.respond_range(&probe.address, lo, hi).unwrap();
    let client = LightClient::new(prover.config(), workload.chain.headers());
    client
        .verify_range(&probe.address, lo, hi, &response)
        .unwrap();

    let lvq::core::QueryResponse::Segmented(mut segmented) = response else {
        panic!("LVQ is segmented");
    };
    let dropped = segmented
        .segments
        .iter_mut()
        .find_map(|bundle| {
            let keep: Vec<_> = bundle
                .fragments
                .iter()
                .filter(|(h, _)| *h >= lo)
                .cloned()
                .collect();
            if keep.is_empty() {
                None
            } else {
                bundle.fragments.retain(|(h, _)| *h != keep[0].0);
                Some(keep[0].0)
            }
        })
        .expect("busy probe has in-range fragments");
    let _ = dropped;
    let err = client
        .verify_range(
            &probe.address,
            lo,
            hi,
            &lvq::core::QueryResponse::Segmented(segmented),
        )
        .unwrap_err();
    assert_eq!(err, lvq::core::QueryError::FragmentSetMismatch);
}

#[test]
fn bandwidth_model_orders_schemes_like_sizes() {
    // Transfer-time estimates must be monotone in response size.
    let model = BandwidthModel::broadband();
    let workload_strawman = workload_for(Scheme::Strawman, 640, 16, 48);
    let workload_lvq = workload_for(Scheme::Lvq, 1_920, 64, 48);
    let absent_strawman = workload_strawman.probes[0].address.clone();
    let absent_lvq = workload_lvq.probes[0].address.clone();
    let (resp_strawman, _) = Prover::from_chain(&workload_strawman.chain)
        .unwrap()
        .respond(&absent_strawman)
        .unwrap();
    let (resp_lvq, _) = Prover::from_chain(&workload_lvq.chain)
        .unwrap()
        .respond(&absent_lvq)
        .unwrap();
    // The headline result: for an absent address LVQ is far smaller
    // than the strawman.
    assert!(resp_lvq.total_bytes() < resp_strawman.total_bytes() / 2);
    assert!(
        model.transfer_time(resp_lvq.total_bytes())
            <= model.transfer_time(resp_strawman.total_bytes())
    );
}

/// The fixed-seed chain whose response bytes `wire_bytes_are_pinned`
/// fingerprints: a non-power-of-two tip (sub-segments) and small
/// filters, so responses carry clean endpoints, existence fragments and
/// FPM resolutions alike.
fn golden_workload(scheme: Scheme) -> Workload {
    workload_for(scheme, 48, 16, 45)
}

fn sha256_hex(bytes: &[u8]) -> String {
    lvq::crypto::hex::encode(&lvq::crypto::sha256(bytes))
}

#[test]
fn wire_bytes_are_pinned() {
    // SHA-256 of the encoded `respond`, `respond_range`, `respond_batch`
    // and `respond_batch_range` responses, per scheme, in that order.
    // Sizes and coverage are pinned elsewhere; this pins the bytes, so
    // a refactor of the prover cannot change what goes on the wire.
    const GOLDEN: [(Scheme, [&str; 4]); 4] = [
        (
            Scheme::Strawman,
            [
                "2470c475f3dbae4e4228eac4a9f35200cc493eaac3254291d900e1389d3e4b18",
                "2ff8c9882870d9843dadf35c6b321100374ac56541dd7375449aa854704fb48e",
                "e86c1f1c244fe54cfdf7ffb360b00f2b540e1a470b11a378e30a89586fe5708c",
                "e6c2b9ad07dbac4cba808ca8a1989c57a7616513c38ca5e77d601abc129d7a2f",
            ],
        ),
        (
            Scheme::LvqWithoutBmt,
            [
                "1a54c76086c8bab125a8da16cfc79d526736639cfe162c2f1c4ae40073f62460",
                "afcb2028f3bf1ed28e6a6ae82971050392dee50943ac469f6ddc5976665fb95a",
                "c457caacb0e0a613fd0519fa55afc87cbf344841438a9c2be72222189b5256a9",
                "2dd614646ed4d121317c9eed9ebb9c5d42794acc59f24375615ff6675e1b5954",
            ],
        ),
        (
            Scheme::LvqWithoutSmt,
            [
                "703df6110b9ea910d7955ca54ed1acc1b58c860057fc7c46da4b1eb861d65c07",
                "fbd9bf6be0a9dfd8a8c6e9ba663c6468ab390f6f3dd490f99d9d680d34a1c17b",
                "13f493d88c5077fec29eea9881b0fee01cdc95a4b1a1f1f94c7afc12354cdee9",
                "53b0659b5b501aee05830474b826fe2b1fe21f501abbe18dd9ab4874b29724e7",
            ],
        ),
        (
            Scheme::Lvq,
            [
                "d74c4a83f6d25d0eebd2c11e9de66f4df79d577113b8bbe5278a91eb5e843843",
                "5a422c057552df7bfd0bc7c1c0c0bb4cd00c1bcf271935749061f14e7d23cb88",
                "d2307df761aeddee562559dfcce0d2a940a44d8ee00cf906774568e5586efeef",
                "414edaa1c8b887583173894c53d77d4d7be461a1d4aacc5f7b3c631ba2744c01",
            ],
        ),
    ];
    // Per-probe BMT endpoint counts of the single-address `respond`
    // (zero for the per-block schemes, which send no BMT proof).
    const ENDPOINTS: [[u64; 6]; 4] = [
        [0; 6],
        [0; 6],
        [9, 18, 26, 9, 16, 17],
        [9, 18, 26, 9, 16, 17],
    ];
    let (lo, hi) = (5u64, 29u64);
    for ((scheme, digests), endpoints) in GOLDEN.iter().zip(&ENDPOINTS) {
        let workload = golden_workload(*scheme);
        let prover = Prover::from_chain(&workload.chain).unwrap();
        let addresses: Vec<Address> = workload.probes.iter().map(|p| p.address.clone()).collect();
        let busiest = &workload.probes[5].address;
        let got = [
            sha256_hex(&prover.respond(busiest).unwrap().0.encode()),
            sha256_hex(&prover.respond_range(busiest, lo, hi).unwrap().0.encode()),
            sha256_hex(&prover.respond_batch(&addresses).unwrap().0.encode()),
            sha256_hex(
                &prover
                    .respond_batch_range(&addresses, lo, hi)
                    .unwrap()
                    .0
                    .encode(),
            ),
        ];
        assert_eq!(got, *digests, "scheme {scheme}");
        let counts: Vec<u64> = addresses
            .iter()
            .map(|a| prover.respond(a).unwrap().1.bmt.endpoint_count())
            .collect();
        assert_eq!(counts, endpoints, "scheme {scheme}");
        // The chain exercises the FPM path, not only clean and existent
        // blocks.
        assert!(prover.respond_batch(&addresses).unwrap().1.fpm_blocks > 0);
    }
}
