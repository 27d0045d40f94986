//! Segment arithmetic: paper Algorithm 1, Table I, §V-B and Table II.
//!
//! A chain with segment length `M` (a power of two) is cut into
//! *complete segments* of `M` blocks; the trailing partial segment is
//! further cut into dyadic *sub-segments* following the binary expansion
//! of its length (paper Eq. 5/6, Table II). The defining invariant —
//! verified exhaustively by the tests — is that **the last block of
//! every (sub-)segment commits a BMT merging exactly that
//! (sub-)segment**, so a light node can check one BMT proof per segment
//! against a header it already stores.

pub use lvq_merkle::bmt::merge_count;

/// One (sub-)segment: an inclusive, dyadically-sized block range whose
/// last block commits the BMT over exactly this range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Segment {
    /// First block height.
    pub lo: u64,
    /// Last block height (the block whose header carries the BMT root
    /// for this segment).
    pub hi: u64,
}

impl Segment {
    /// Number of blocks in the segment.
    pub fn len(&self) -> u64 {
        self.hi - self.lo + 1
    }

    /// Segments are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if `height` lies inside the segment.
    pub fn contains(&self, height: u64) -> bool {
        self.lo <= height && height <= self.hi
    }
}

/// Splits heights `1..=tip` into complete segments and the dyadic
/// sub-segments of the trailing partial segment (paper §V-B).
///
/// # Panics
///
/// Panics if `segment_len` is not a power of two (enforced upstream by
/// [`crate::SchemeConfig`]).
///
/// # Examples
///
/// Paper Table II (`M = 256`, blocks indexed from 1):
///
/// ```
/// use lvq_core::segment::{segments, Segment};
///
/// let segs = segments(464, 256);
/// assert_eq!(
///     segs,
///     vec![
///         Segment { lo: 1, hi: 256 },
///         Segment { lo: 257, hi: 384 },
///         Segment { lo: 385, hi: 448 },
///         Segment { lo: 449, hi: 464 },
///     ],
/// );
/// ```
pub fn segments(tip: u64, segment_len: u64) -> Vec<Segment> {
    assert!(
        segment_len > 0 && segment_len & (segment_len - 1) == 0,
        "segment length must be a power of two"
    );
    let mut out = Vec::new();
    let complete = tip / segment_len;
    for i in 0..complete {
        out.push(Segment {
            lo: i * segment_len + 1,
            hi: (i + 1) * segment_len,
        });
    }
    // Paper Eq. 6: decompose the remainder from the highest power of two
    // downwards.
    let mut start = complete * segment_len + 1;
    let mut rem = tip % segment_len;
    while rem > 0 {
        let width = 1u64 << (63 - rem.leading_zeros());
        out.push(Segment {
            lo: start,
            hi: start + width - 1,
        });
        start += width;
        rem -= width;
    }
    out
}

/// The segments of a chain with tip `hi` that intersect `lo..=hi` — the
/// ones a range query's response carries, in order. A boundary segment
/// may reach below `lo`.
pub(crate) fn segments_over(lo: u64, hi: u64, segment_len: u64) -> Vec<Segment> {
    let mut segs = segments(hi, segment_len);
    segs.retain(|seg| seg.hi >= lo);
    segs
}

/// Runs `f` over `0..count` (one call per segment), preserving order.
///
/// With the `parallel` feature the calls run on scoped worker threads,
/// one per segment (segments are few and coarse-grained); the prover's
/// proofs and the verifier's checks both go through here.
#[cfg(not(feature = "parallel"))]
pub(crate) fn map_segments<T, E, F>(count: usize, f: F) -> Vec<Result<T, E>>
where
    F: Fn(usize) -> Result<T, E>,
{
    (0..count).map(f).collect()
}

/// Parallel variant: see the sequential twin above.
#[cfg(feature = "parallel")]
pub(crate) fn map_segments<T, E, F>(count: usize, f: F) -> Vec<Result<T, E>>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    if count <= 1 {
        return (0..count).map(f).collect();
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..count).map(|i| scope.spawn(move || f(i))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("segment worker panicked"))
            .collect()
    })
}

/// In-segment position (1-based) of `height`: the paper's `l`, with
/// `l = M` for the last block of a complete segment.
pub fn segment_position(height: u64, segment_len: u64) -> u64 {
    let r = height % segment_len;
    if r == 0 {
        segment_len
    } else {
        r
    }
}

/// The block range `height` merges into its BMT (paper Table I):
/// `merge_count` trailing blocks ending at `height`.
pub fn merged_range(height: u64, segment_len: u64) -> Segment {
    let count = merge_count(segment_position(height, segment_len));
    Segment {
        lo: height - count + 1,
        hi: height,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one() {
        // Paper Table I: height → blocks merged (M ≥ 8).
        let cases = [
            (1u64, vec![1u64]),
            (2, vec![1, 2]),
            (3, vec![3]),
            (4, vec![1, 2, 3, 4]),
            (5, vec![5]),
            (6, vec![5, 6]),
            (7, vec![7]),
            (8, vec![1, 2, 3, 4, 5, 6, 7, 8]),
        ];
        for (height, blocks) in cases {
            let range = merged_range(height, 8);
            let got: Vec<u64> = (range.lo..=range.hi).collect();
            assert_eq!(got, blocks, "height {height}");
        }
    }

    #[test]
    fn table_two() {
        // Paper Table II: M = 256. The table lists the trailing partial
        // segment's sub-segments; `segments` additionally returns the
        // complete segment [1,256].
        let cases: [(u64, Vec<(u64, u64)>); 3] = [
            (464, vec![(257, 384), (385, 448), (449, 464)]),
            (465, vec![(257, 384), (385, 448), (449, 464), (465, 465)]),
            (466, vec![(257, 384), (385, 448), (449, 464), (465, 466)]),
        ];
        for (tip, subs) in cases {
            let segs = segments(tip, 256);
            assert_eq!(segs[0], Segment { lo: 1, hi: 256 });
            let got: Vec<(u64, u64)> = segs[1..].iter().map(|s| (s.lo, s.hi)).collect();
            assert_eq!(got, subs, "tip {tip}");
        }
    }

    #[test]
    fn exact_multiple_has_only_complete_segments() {
        let segs = segments(512, 256);
        assert_eq!(
            segs,
            vec![Segment { lo: 1, hi: 256 }, Segment { lo: 257, hi: 512 }]
        );
    }

    #[test]
    fn zero_tip_has_no_segments() {
        assert!(segments(0, 256).is_empty());
    }

    #[test]
    fn segment_len_one_degenerates_to_blocks() {
        let segs = segments(3, 1);
        assert_eq!(segs.len(), 3);
        assert!(segs.iter().all(|s| s.len() == 1));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        segments(10, 3);
    }

    /// The §V invariant everything rests on: for every tip and every M,
    /// the segments tile `1..=tip`, each has dyadic length, and each
    /// segment's last block merges exactly the segment.
    #[test]
    fn invariant_last_block_merges_its_segment() {
        for m in [1u64, 2, 4, 8, 16, 64, 256] {
            for tip in 1..=700u64 {
                let segs = segments(tip, m);
                let mut next = 1;
                for seg in &segs {
                    assert_eq!(seg.lo, next, "tiling break at tip={tip} m={m}");
                    let len = seg.len();
                    assert!(len.is_power_of_two());
                    assert!(len <= m);
                    assert_eq!(
                        merged_range(seg.hi, m),
                        *seg,
                        "merge mismatch at tip={tip} m={m} seg={seg:?}"
                    );
                    next = seg.hi + 1;
                }
                assert_eq!(next, tip + 1, "coverage break at tip={tip} m={m}");
            }
        }
    }

    #[test]
    fn sub_segment_widths_decrease() {
        // Eq. 6 emits powers from high to low, so widths strictly
        // decrease within the partial segment.
        for tip in 1..=256u64 {
            let segs = segments(tip, 256);
            let widths: Vec<u64> = segs.iter().map(Segment::len).collect();
            for pair in widths.windows(2) {
                if pair[0] != 256 {
                    assert!(pair[0] > pair[1], "tip {tip}: {widths:?}");
                }
            }
        }
    }

    #[test]
    fn positions() {
        assert_eq!(segment_position(1, 8), 1);
        assert_eq!(segment_position(8, 8), 8);
        assert_eq!(segment_position(9, 8), 1);
        assert_eq!(segment_position(16, 8), 8);
        assert_eq!(segment_position(5, 1), 1);
    }
}
