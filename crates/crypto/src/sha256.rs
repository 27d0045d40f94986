//! SHA-256 (FIPS 180-4), implemented from the specification.

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// An incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use lvq_crypto::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"ab");
/// hasher.update(b"c");
/// assert_eq!(hasher.finalize(), lvq_crypto::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partially filled message block.
    buf: [u8; 64],
    /// Number of valid bytes in `buf` (always < 64 between calls).
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress);
    }

    /// Completes the hash, consuming the hasher.
    pub fn finalize(self) -> [u8; 32] {
        self.finish(compress)
    }

    /// [`Sha256::update`] through a chosen block kernel.
    fn absorb(&mut self, data: &[u8], kernel: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;

        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // The buffer is still partial, so `rest` was fully
                // consumed; falling through would clobber `buf_len`.
                debug_assert!(rest.is_empty());
                return;
            }
            kernel(&mut self.state, &self.buf);
            self.buf_len = 0;
        }

        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            kernel(&mut self.state, &rest[..whole]);
        }
        let tail = &rest[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`Sha256::finalize`] through a chosen block kernel.
    fn finish(mut self, kernel: impl Fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
        // Append 0x80, then zero padding, then the 64-bit big-endian bit
        // length; the length spills into a second block when fewer than
        // 9 bytes of the current one are free.
        let mut pad = [0u8; 128];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let end = if self.buf_len < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        kernel(&mut self.state, &pad[..end]);

        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Runs the SHA-256 compression function over every 64-byte block of
/// `blocks`: on the SHA-NI kernel when the CPU has it, otherwise on the
/// portable one.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::try_compress(state, blocks) {
        return;
    }
    compress_scalar(state, blocks);
}

/// The portable kernel: FIPS 180-4 §6.2.2 applied block by block.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA extensions kernel (Intel SHA-NI).
///
/// This is the crate's only unsafe code. The kernel is a
/// `#[target_feature]` function, so calling it is unsafe; the one call
/// sits behind a runtime CPU check. Inside it, the only unsafe
/// operations are unaligned 16-byte loads from 64-byte blocks.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Compresses `blocks` on the SHA-NI kernel and returns `true`, or
    /// returns `false` without touching `state` when the CPU lacks an
    /// extension the kernel needs.
    pub(super) fn try_compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        // `is_x86_feature_detected!` caches the CPUID result, so this is
        // a load and a test after the first call.
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        {
            return false;
        }
        // SAFETY: the CPU supports every feature `compress_blocks` enables,
        // as checked just above.
        unsafe { compress_blocks(state, blocks) };
        true
    }

    /// Message schedule for the next four words (FIPS 180-4 §6.2.2 step 1).
    #[inline]
    #[target_feature(enable = "sha,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Four rounds with message words `w` and round constants
    /// `K[4 * i..4 * i + 4]`.
    #[inline]
    #[target_feature(enable = "sha")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// Applies the compression function to each 64-byte block of `blocks`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // `pshufb` mask that byte-swaps each 32-bit lane: message words
        // are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // The rounds instruction wants the state as (A, B, E, F) and
        // (C, D, G, H), high lane first.
        let dcba = _mm_set_epi32(
            state[3] as i32,
            state[2] as i32,
            state[1] as i32,
            state[0] as i32,
        );
        let hgfe = _mm_set_epi32(
            state[7] as i32,
            state[6] as i32,
            state[5] as i32,
            state[4] as i32,
        );
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is exactly 64 bytes, so the four 16-byte
            // loads at offsets 0, 16, 32 and 48 stay inside it, and
            // `_mm_loadu_si128` has no alignment requirement.
            let raw = unsafe {
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            };
            let mut w0 = _mm_shuffle_epi8(raw[0], bswap);
            let mut w1 = _mm_shuffle_epi8(raw[1], bswap);
            let mut w2 = _mm_shuffle_epi8(raw[2], bswap);
            let mut w3 = _mm_shuffle_epi8(raw[3], bswap);

            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Rounds 16..64: each step derives the next four message
            // words from the previous sixteen, then runs four rounds.
            for i in (4..16).step_by(4) {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, i);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, i + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, i + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, i + 3);
            }

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        *state = [
            _mm_extract_epi32(dcba, 0) as u32,
            _mm_extract_epi32(dcba, 1) as u32,
            _mm_extract_epi32(dcba, 2) as u32,
            _mm_extract_epi32(dcba, 3) as u32,
            _mm_extract_epi32(hgfe, 0) as u32,
            _mm_extract_epi32(hgfe, 1) as u32,
            _mm_extract_epi32(hgfe, 2) as u32,
            _mm_extract_epi32(hgfe, 3) as u32,
        ];
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot SHA-256.
///
/// # Examples
///
/// ```
/// let d = lvq_crypto::sha256(b"");
/// assert_eq!(d[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Bitcoin's double SHA-256: `SHA256(SHA256(data))`.
pub fn sha256d(data: &[u8]) -> [u8; 32] {
    sha256(&sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::collection::vec;
    use proptest::prelude::*;

    type Kernel = fn(&mut [u32; 8], &[u8]);

    fn hex32(s: &str) -> [u8; 32] {
        let v = hex::decode(s).unwrap();
        let mut out = [0u8; 32];
        out.copy_from_slice(&v);
        out
    }

    /// The SHA-NI kernel, or `None` (with a note) when this CPU lacks it.
    #[cfg(target_arch = "x86_64")]
    fn shani_kernel() -> Option<Kernel> {
        if shani::try_compress(&mut [0; 8], &[]) {
            Some(|state, blocks| assert!(shani::try_compress(state, blocks)))
        } else {
            eprintln!("note: CPU lacks the SHA extensions; SHA-NI kernel tests skipped");
            None
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn shani_kernel() -> Option<Kernel> {
        eprintln!("note: not an x86-64 target; SHA-NI kernel tests skipped");
        None
    }

    /// Every kernel this CPU can run, the portable one first.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut out: Vec<(&'static str, Kernel)> = vec![("scalar", compress_scalar)];
        out.extend(shani_kernel().map(|k| ("sha-ni", k)));
        out
    }

    fn digest_with(kernel: Kernel, chunks: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::new();
        for chunk in chunks {
            h.absorb(chunk, kernel);
        }
        h.finish(kernel)
    }

    /// FIPS 180-4 / NIST CAVP vectors, on every kernel.
    #[test]
    fn nist_vectors() {
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (message, digest) in vectors {
            assert_eq!(sha256(message), hex32(digest));
            for (name, kernel) in kernels() {
                assert_eq!(digest_with(kernel, &[message]), hex32(digest), "{name}");
            }
        }
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        let expected = hex32("cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(h.finalize(), expected);
        for (name, kernel) in kernels() {
            assert_eq!(digest_with(kernel, &[&chunk[..]; 1000]), expected, "{name}");
        }
    }

    #[test]
    fn double_sha256_known_value() {
        // sha256d("hello"), a widely published example value.
        assert_eq!(
            sha256d(b"hello"),
            hex32("9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50")
        );
    }

    #[test]
    fn boundary_lengths_match_one_shot() {
        // Exercise padding across the 55/56/63/64/65-byte boundaries.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut incremental = Sha256::new();
            for b in &data {
                incremental.update(std::slice::from_ref(b));
            }
            assert_eq!(incremental.finalize(), sha256(&data), "len={len}");
        }
        // Known answers on both sides of the point (55/56 bytes mod 64)
        // where the length field spills into a second padding block.
        let known = [
            (
                55,
                "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59",
            ),
            (
                56,
                "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562",
            ),
            (
                63,
                "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488",
            ),
            (
                64,
                "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108",
            ),
            (
                119,
                "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6",
            ),
            (
                120,
                "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c",
            ),
        ];
        for (len, digest) in known {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            for (name, kernel) in kernels() {
                assert_eq!(
                    digest_with(kernel, &[&data]),
                    hex32(digest),
                    "len={len} {name}"
                );
            }
        }
    }

    proptest! {
        #[test]
        fn chunked_update_equals_one_shot(data: Vec<u8>, split in 0usize..256) {
            let split = split.min(data.len());
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), sha256(&data));
        }

        #[test]
        fn distinct_short_inputs_do_not_collide(a: Vec<u8>, b: Vec<u8>) {
            prop_assume!(a != b);
            prop_assert_ne!(sha256(&a), sha256(&b));
        }

        /// Both kernels map any state and any run of blocks to the same
        /// state, and the dispatching kernel agrees with both.
        #[test]
        fn kernels_agree_on_random_states(
            state in vec(any::<u32>(), 8),
            blocks in 0usize..5,
            seed: u8,
        ) {
            let state: [u32; 8] = state.try_into().unwrap();
            let data: Vec<u8> = (0..blocks * 64)
                .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
                .collect();
            let mut expected = state;
            compress_scalar(&mut expected, &data);
            for (name, kernel) in kernels() {
                let mut got = state;
                kernel(&mut got, &data);
                prop_assert_eq!(got, expected, "{}", name);
            }
            let mut got = state;
            compress(&mut got, &data);
            prop_assert_eq!(got, expected);
        }

        /// Updates split anywhere across several block boundaries equal
        /// one-shot hashing, on every kernel.
        #[test]
        fn chunked_multi_block_equals_one_shot(
            data in vec(any::<u8>(), 0..300),
            a in 0usize..300,
            b in 0usize..300,
        ) {
            let (a, b) = (a.min(b).min(data.len()), a.max(b).min(data.len()));
            let expected = sha256(&data);
            for (name, kernel) in kernels() {
                prop_assert_eq!(digest_with(kernel, &[&data]), expected, "{}", name);
                let chunks = [&data[..a], &data[a..b], &data[b..]];
                prop_assert_eq!(digest_with(kernel, &chunks), expected, "{}", name);
            }
        }
    }
}
