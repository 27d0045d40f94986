//! Batched multi-address query responses.
//!
//! A light node with several addresses of interest (its own wallet plus
//! watch-only addresses, say) can query them one message at a time — or
//! batch them. Batching pays off twice:
//!
//! * **bytes** — under the BMT schemes, one shared descent per segment
//!   ([`lvq_merkle::bmt::prove_multi`]) replaces N single-address
//!   proofs, and under the per-block schemes each block's filter is
//!   transmitted once instead of N times;
//! * **time** — the prover walks each segment (or block) once, and the
//!   chain's span-filter cache is hot for every address after the
//!   first.
//!
//! The response carries one *section* per address, in request order, so
//! the verifier produces one independent
//! [`crate::VerifiedHistory`] per address — each exactly as strong as a
//! dedicated single-address verification (see the soundness notes in
//! [`lvq_merkle::bmt::prove_multi`]'s module).

use lvq_bloom::BloomFilter;
use lvq_codec::{Decodable, DecodeError, Encodable, Reader};
use lvq_merkle::BmtBatchProof;

use crate::fragment::BlockFragment;
use crate::result::{decode_section, encode_section, section_len, Section};

/// One block's worth of a batched per-block response: the filter is
/// transmitted once, followed by one fragment per queried address in
/// batch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchBlockEntry {
    /// The block's address Bloom filter (shared by all addresses).
    pub filter: BloomFilter,
    /// One fragment per queried address, in batch order.
    pub fragments: Vec<BlockFragment>,
}

impl Encodable for BatchBlockEntry {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.filter.encode_into(out);
        self.fragments.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.filter.encoded_len() + self.fragments.encoded_len()
    }
}

impl Decodable for BatchBlockEntry {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BatchBlockEntry {
            filter: BloomFilter::decode_from(reader)?,
            fragments: Vec::<BlockFragment>::decode_from(reader)?,
        })
    }
}

/// Batched response of the per-block schemes: one entry per block,
/// heights in order, each carrying a per-address fragment list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPerBlockResponse {
    /// One entry per block, in height order.
    pub entries: Vec<BatchBlockEntry>,
}

impl Encodable for BatchPerBlockResponse {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.entries.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.entries.encoded_len()
    }
}

impl Decodable for BatchPerBlockResponse {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BatchPerBlockResponse {
            entries: Vec::<BatchBlockEntry>::decode_from(reader)?,
        })
    }
}

/// One (sub-)segment of a batched BMT-scheme response: the shared
/// multi-address proof plus one fragment *section* per address.
///
/// Section `j` holds `(height, fragment)` pairs for exactly the leaves
/// whose filters matched address `j`'s positions, in height order — the
/// per-address analogue of [`crate::SegmentBundle::fragments`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSegmentBundle {
    /// The shared multi-address BMT proof over the segment.
    pub proof: BmtBatchProof,
    /// One section per queried address, in batch order.
    pub sections: Vec<Section>,
}

impl Encodable for BatchSegmentBundle {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.proof.encode_into(out);
        lvq_codec::write_compact_size(out, self.sections.len() as u64);
        for section in &self.sections {
            encode_section(section, out);
        }
    }

    fn encoded_len(&self) -> usize {
        self.proof.encoded_len()
            + lvq_codec::compact_size_len(self.sections.len() as u64)
            + self.sections.iter().map(|s| section_len(s)).sum::<usize>()
    }
}

impl Decodable for BatchSegmentBundle {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let proof = BmtBatchProof::decode_from(reader)?;
        let section_count = reader.read_len()?;
        let mut sections = Vec::with_capacity(section_count.min(reader.remaining()));
        for _ in 0..section_count {
            sections.push(decode_section(reader)?);
        }
        Ok(BatchSegmentBundle { proof, sections })
    }
}

/// Batched response of the BMT schemes: one bundle per (sub-)segment in
/// the verifier's own division order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSegmentedResponse {
    /// One bundle per segment, in segment order.
    pub segments: Vec<BatchSegmentBundle>,
}

impl Encodable for BatchSegmentedResponse {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.segments.encode_into(out);
    }

    fn encoded_len(&self) -> usize {
        self.segments.encoded_len()
    }
}

impl Decodable for BatchSegmentedResponse {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(BatchSegmentedResponse {
            segments: Vec::<BatchSegmentBundle>::decode_from(reader)?,
        })
    }
}

/// A complete batched query response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchQueryResponse {
    /// Per-block schemes.
    PerBlock(BatchPerBlockResponse),
    /// BMT schemes.
    Segmented(BatchSegmentedResponse),
}

impl BatchQueryResponse {
    /// Total response size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.encoded_len() as u64
    }
}

impl Encodable for BatchQueryResponse {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            BatchQueryResponse::PerBlock(r) => {
                out.push(0);
                r.encode_into(out);
            }
            BatchQueryResponse::Segmented(r) => {
                out.push(1);
                r.encode_into(out);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + match self {
            BatchQueryResponse::PerBlock(r) => r.encoded_len(),
            BatchQueryResponse::Segmented(r) => r.encoded_len(),
        }
    }
}

impl Decodable for BatchQueryResponse {
    fn decode_from(reader: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match reader.read_u8()? {
            0 => BatchQueryResponse::PerBlock(BatchPerBlockResponse::decode_from(reader)?),
            1 => BatchQueryResponse::Segmented(BatchSegmentedResponse::decode_from(reader)?),
            other => {
                return Err(DecodeError::InvalidValue {
                    what: "batch query response tag",
                    found: u64::from(other),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvq_bloom::BloomParams;
    use lvq_codec::decode_exact;
    use lvq_merkle::bmt::{self, Bmt};

    fn params() -> BloomParams {
        BloomParams::new(64, 2).unwrap()
    }

    fn per_block_response() -> BatchQueryResponse {
        BatchQueryResponse::PerBlock(BatchPerBlockResponse {
            entries: vec![BatchBlockEntry {
                filter: BloomFilter::new(params()),
                fragments: vec![BlockFragment::Empty, BlockFragment::Empty],
            }],
        })
    }

    fn segmented_response() -> BatchQueryResponse {
        let leaves = vec![BloomFilter::new(params()); 4];
        let tree = Bmt::build(1, leaves).unwrap();
        let sets = vec![
            BloomFilter::bit_positions(params(), b"a"),
            BloomFilter::bit_positions(params(), b"b"),
        ];
        let proof = bmt::prove_multi(&tree, &sets).unwrap();
        BatchQueryResponse::Segmented(BatchSegmentedResponse {
            segments: vec![BatchSegmentBundle {
                proof,
                sections: vec![Vec::new(), Vec::new()],
            }],
        })
    }

    #[test]
    fn roundtrip_both_kinds() {
        for response in [per_block_response(), segmented_response()] {
            let bytes = response.encode();
            assert_eq!(bytes.len(), response.encoded_len());
            assert_eq!(
                decode_exact::<BatchQueryResponse>(&bytes).unwrap(),
                response
            );
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(decode_exact::<BatchQueryResponse>(&[9]).is_err());
    }
}
