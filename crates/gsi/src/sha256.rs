//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The Grid Security Infrastructure needs a cryptographic hash for message
//! digests, HMACs and certificate fingerprints. This is a straightforward,
//! dependency-free implementation validated against the NIST test vectors.

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feed data into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Whole blocks go to the compress function straight from the
        // caller's slice, all in one call.
        let (blocks, tail) = data.split_at(data.len() & !63);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, 64-bit big-endian length.
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        let zeros_to = if self.buffer_len < 56 { 56 } else { 120 };
        let pad_len = zeros_to - self.buffer_len;
        pad[pad_len..pad_len + 8].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&pad[..pad_len + 8]);
        debug_assert_eq!(self.buffer_len, 0);
        state_bytes(&self.state)
    }
}

fn state_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Run the compression function over `blocks` (a whole number of 64-byte
/// blocks). Which implementation runs is a property of the machine, found
/// once: SHA-NI where the CPU has it, the portable rounds everywhere else.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::available() {
        // SAFETY: `shani::available()` is the run-time check
        // (`is_x86_feature_detected!`) that this CPU has every target
        // feature `shani::compress` is compiled with.
        unsafe { shani::compress(state, blocks) };
        return;
    }
    compress_portable(state, blocks);
}

/// FIPS 180-4 rounds in plain Rust: the fallback for CPUs without SHA
/// extensions and the oracle the accelerated path is tested against.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
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
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA extensions: four rounds per `sha256rnds2` pair and the
/// message schedule in `sha256msg1`/`sha256msg2`.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Whether this CPU has what [`compress`] needs (`std` detects once
    /// and caches the answer).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// # Safety
    /// The CPU must support the `sha`, `ssse3` and `sse4.1` features
    /// (see [`available`]).
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        // Big-endian message words -> little-endian lanes.
        let byte_swap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // The instructions want the state as (A,B,E,F) and (C,D,G,H).
        // SAFETY: `state` is 32 readable bytes; `loadu` needs no alignment.
        let (abcd, efgh) = unsafe {
            (
                _mm_loadu_si128(state.as_ptr().cast()),
                _mm_loadu_si128(state.as_ptr().add(4).cast()),
            )
        };
        let cdab = _mm_shuffle_epi32(abcd, 0xB1);
        let efgh = _mm_shuffle_epi32(efgh, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // w[j & 3] holds schedule words 4j..4j+4 while they are needed.
            let mut w = [_mm_setzero_si128(); 4];
            for (j, lane) in w.iter_mut().enumerate() {
                // SAFETY: `block` is 64 readable bytes and j < 4.
                let raw = unsafe { _mm_loadu_si128(block.as_ptr().add(16 * j).cast()) };
                *lane = _mm_shuffle_epi8(raw, byte_swap);
            }
            for j in 0..16 {
                // SAFETY: `K` has 64 words and j < 16.
                let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * j).cast()) };
                let wk = _mm_add_epi32(w[j & 3], k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
                if j < 12 {
                    // Words 4(j+4)..: W[t-16] + s0(W[t-15]), + W[t-7], + s1(W[t-2]).
                    let next = _mm_sha256msg1_epu32(w[j & 3], w[(j + 1) & 3]);
                    let w_t7 = _mm_alignr_epi8(w[(j + 3) & 3], w[(j + 2) & 3], 4);
                    w[j & 3] = _mm_sha256msg2_epu32(_mm_add_epi32(next, w_t7), w[(j + 3) & 3]);
                }
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        // SAFETY: `state` is 32 writable bytes; `storeu` needs no alignment.
        unsafe {
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
            _mm_storeu_si128(
                state.as_mut_ptr().add(4).cast(),
                _mm_alignr_epi8(dchg, feba, 8),
            );
        }
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Lowercase hex encoding of a digest: two table lookups per byte, high
/// nibble first.
pub fn hex(digest: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(digest.len() * 2);
    for &b in digest {
        s.push(DIGITS[usize::from(b >> 4)] as char);
        s.push(DIGITS[usize::from(b & 0xf)] as char);
    }
    s
}

/// Test oracle: the digest by way of the portable rounds only — the
/// message padded by hand and given to [`compress_portable`] directly, so
/// neither the dispatch in [`compress`] nor the buffering in
/// [`Sha256::update`] is shared with what it checks.
#[cfg(test)]
pub(crate) fn sha256_portable(data: &[u8]) -> [u8; 32] {
    let mut padded = data.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    let mut state = H0;
    compress_portable(&mut state, &padded);
    state_bytes(&state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A known digest, on both compress paths.
    fn assert_vector(message: &[u8], expected: &str) {
        assert_eq!(hex(&sha256(message)), expected, "dispatched path");
        assert_eq!(hex(&sha256_portable(message)), expected, "portable path");
    }

    // NIST / well-known vectors.
    #[test]
    fn empty_string() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        const EXPECTED: &str = "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), EXPECTED);
        assert_eq!(hex(&sha256_portable(&vec![b'a'; 1_000_000])), EXPECTED);
    }

    /// What the differential tests compare on this machine (shown with
    /// `--nocapture`).
    #[test]
    fn names_the_paths_compared() {
        #[cfg(target_arch = "x86_64")]
        let accelerated = shani::available();
        #[cfg(not(target_arch = "x86_64"))]
        let accelerated = false;
        if accelerated {
            eprintln!("sha256 differential: SHA-NI rounds against the portable rounds");
        } else {
            eprintln!("sha256 differential: no SHA-NI on this CPU, portable against portable");
        }
    }

    proptest! {
        /// Random messages fed to `update` in random pieces: the dispatched
        /// compress path (SHA-NI where present) and the portable rounds
        /// agree bit for bit.
        #[test]
        fn accelerated_and_portable_digests_agree(
            message in prop::collection::vec(any::<u8>(), 0..4097),
            cuts in prop::collection::vec(0usize..=4096, 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(message.len())).collect();
            cuts.push(message.len());
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut from = 0;
            for to in cuts {
                h.update(&message[from..to]);
                from = to;
            }
            let chunked = h.finalize();
            prop_assert_eq!(chunked, sha256_portable(&message));
            prop_assert_eq!(chunked, sha256(&message));
        }

        /// The compress functions themselves, from arbitrary chaining
        /// states (a digest only ever visits states reachable from H0).
        #[test]
        fn compress_paths_agree_from_any_state(
            words in prop::collection::vec(any::<u32>(), 8),
            blocks in prop::collection::vec(any::<u8>(), 0..257),
        ) {
            let blocks = &blocks[..blocks.len() & !63];
            let mut dispatched: [u32; 8] = words.try_into().expect("eight words");
            let mut portable = dispatched;
            compress(&mut dispatched, blocks);
            compress_portable(&mut portable, blocks);
            prop_assert_eq!(dispatched, portable);
        }
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha256(data));
    }

    #[test]
    fn boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must agree
        // with the oracle and differ from each other.
        let mut digests = Vec::new();
        for len in 54..=66 {
            let data = vec![0x5a_u8; len];
            assert_eq!(sha256(&data), sha256_portable(&data), "length {len}");
            digests.push(sha256(&data));
        }
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j]);
            }
        }
    }

    /// The formatter `hex` replaced, as its oracle.
    fn hex_by_format(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn hex_format() {
        assert_eq!(hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(hex(&[]), "");
        let every: Vec<u8> = (0..=255).collect();
        for b in &every {
            assert_eq!(hex(std::slice::from_ref(b)), hex_by_format(&[*b]));
        }
        assert_eq!(hex(&every), hex_by_format(&every));
        // Odd lengths, and a digest-sized input.
        for len in [1, 3, 31, 33, 255] {
            assert_eq!(
                hex(&every[..len]),
                hex_by_format(&every[..len]),
                "len {len}"
            );
        }
        let d = sha256(b"abc");
        assert_eq!(hex(&d), hex_by_format(&d));
    }
}
