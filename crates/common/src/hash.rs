//! A from-scratch SHA-256 implementation and the 32-byte [`Hash`] digest type.
//!
//! The paper's storage experiments (Figures 11–13) depend on *real* hashing:
//! the Merkle Patricia Trie and Merkle Bucket Tree derive node identities from
//! content hashes, the ledger chains blocks by header hash, and the cost of a
//! hash grows with the record size (Section 5.3.3). Implementing SHA-256 here
//! (FIPS 180-4) avoids pulling a cryptography dependency into the workspace
//! while keeping digests collision-resistant enough for the data-structure
//! invariants the tests assert.
//!
//! Hashing is also where the simulator spends much of its own host time
//! (bulk-loading the tries, signing every generated transaction), so the
//! compression function has two paths. On x86-64 CPUs with the SHA
//! extensions (`sha`, `ssse3` and `sse4.1`, detected at run time) it runs
//! on `sha256rnds2`/`sha256msg1`/`sha256msg2`; everywhere else it runs the
//! portable scalar code. Nothing else selects the path, and both produce the
//! same digests. The tests tie them together: the NIST vectors run through
//! the scalar function directly, and `streaming_matches_one_shot_over_chunk_boundaries`
//! compares the streaming hasher, on whichever path this CPU takes, with a
//! scalar one-shot digest for every message length from 0 to 1 100 bytes.

use std::fmt;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Hash(pub [u8; 32]);

impl Hash {
    /// The all-zero hash, used as the genesis parent and the digest of an
    /// empty authenticated structure.
    pub const ZERO: Hash = Hash([0u8; 32]);

    /// Digest of `data` using the crate's SHA-256.
    pub fn of(data: &[u8]) -> Self {
        sha256(data)
    }

    /// Digest of the concatenation of several byte slices, without an
    /// intermediate allocation of the concatenated buffer.
    pub fn of_parts(parts: &[&[u8]]) -> Self {
        let mut hasher = Hasher::new();
        for p in parts {
            hasher.update(p);
        }
        hasher.finalize()
    }

    /// Combine two child hashes into a parent hash (Merkle interior node).
    pub fn combine(left: &Hash, right: &Hash) -> Self {
        Hash::of_parts(&[&left.0, &right.0])
    }

    /// Whether this is the all-zero hash.
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; 32]
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Hex string of the full digest.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// First eight bytes interpreted as a big-endian integer; handy for
    /// pseudo-random but deterministic placement decisions (e.g. PoW-based
    /// shard assignment).
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("hash has 32 bytes"))
    }
}

/// Digests encode as their 32 raw bytes: the width is fixed, so no length
/// prefix is needed.
impl crate::codec::Encode for Hash {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl fmt::Debug for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hash({}…)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Hash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

impl Default for Hash {
    fn default() -> Self {
        Hash::ZERO
    }
}

/// SHA-256 round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
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

/// Initial hash state (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Hasher {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buffer: [u8; 64],
    buffer_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher {
    /// A fresh hasher in the initial state.
    pub fn new() -> Self {
        Hasher {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;
        // Fill a partially full buffer first.
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        // Process full blocks directly from the input.
        let mut blocks = input.chunks_exact(64);
        for block in &mut blocks {
            compress(
                &mut self.state,
                block.try_into().expect("chunk is 64 bytes"),
            );
        }
        // Stash the remainder.
        let rest = blocks.remainder();
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Finish the hash and return the digest. Consumes the hasher.
    pub fn finalize(mut self) -> Hash {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length. The
        // buffer always has room for the 0x80 byte; when the length no
        // longer fits behind it, the padding spills into a second block.
        let n = self.buffer_len;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, &self.buffer);
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &self.buffer);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Hash(out)
    }
}

/// One compression-function application over a 64-byte block, on the SHA
/// extensions when the CPU has them and in portable code otherwise.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if shani::try_compress(state, block) {
        return;
    }
    compress_scalar(state, block);
}

/// The portable compression function (FIPS 180-4 section 6.2.2). It is the
/// only path on other targets and on CPUs without the SHA extensions, and
/// the reference the tests hold the hardware path to.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
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

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The compression function on the x86-64 SHA extensions. This module holds
/// the workspace's only `unsafe` code.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    use super::K;

    /// Compress `block` into `state` with the SHA extensions and return
    /// `true`, or return `false` without touching `state` when the CPU lacks
    /// them. std caches the feature detection, so the check is a load.
    pub(super) fn try_compress(state: &mut [u32; 8], block: &[u8; 64]) -> bool {
        if !(is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        {
            return false;
        }
        // SAFETY: `compress` needs SHA, SSE2, SSSE3 and SSE4.1. SSE2 is part
        // of the x86-64 baseline and the other three were detected above.
        unsafe { compress(state, block) };
        true
    }

    /// Sixteen groups of four rounds. `sha256rnds2` keeps the working
    /// variables as two vectors, ABEF and CDGH (high lane first), and runs
    /// two rounds on the low two lanes of its message-plus-constant operand.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA, SSE2, SSSE3 and SSE4.1. Every load and
    /// store is unaligned and stays inside `state`, `block` or `K`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte shuffle that turns each little-endian lane into the
        // big-endian message word.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // Regroup the state words a..h into the ABEF and CDGH vectors.
        let dcba = _mm_loadu_si128(state.as_ptr().cast());
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
        let (abef_in, cdgh_in) = (abef, cdgh);

        // The message schedule, four words per vector. `w0` holds the words
        // of the current group of four rounds and `w1..w3` the next three;
        // group `r + 4` is derived from groups `r..r + 4`, and then the
        // window slides by one. Named vectors (no indexing) let the
        // compiler unroll the loop and keep the schedule in registers.
        let load =
            |i: usize| _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * i).cast()), bswap);
        let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));
        for r in 0..16 {
            let wk = _mm_add_epi32(w0, _mm_loadu_si128(K.as_ptr().add(4 * r).cast()));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            let next = if r < 12 {
                let sigma0 = _mm_sha256msg1_epu32(w0, w1);
                let w_minus_7 = _mm_alignr_epi8(w3, w2, 4);
                _mm_sha256msg2_epu32(_mm_add_epi32(sigma0, w_minus_7), w3)
            } else {
                w0
            };
            (w0, w1, w2, w3) = (w1, w2, w3, next);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);

        // And back into a..h order.
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Hash {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{seeded, Rng};

    /// One-shot digest through `compress_scalar` with the padding built as
    /// one buffer: the reference for the streaming `Hasher`, whichever
    /// compression path it takes on this host.
    fn scalar_digest(data: &[u8]) -> Hash {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress_scalar(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        Hash(out)
    }

    /// A FIPS 180-4 / NIST vector holds for the dispatched hasher and for
    /// the scalar compression called directly.
    fn assert_vector(data: &[u8], hex: &str) {
        assert_eq!(sha256(data).to_hex(), hex);
        assert_eq!(scalar_digest(data).to_hex(), hex);
    }

    #[test]
    fn sha256_empty_string() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn sha256_abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn sha256_two_block_message() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn sha256_one_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// Differential test of the two compression paths: every message length
    /// from 0 to 1 100 bytes (each padding case, up to 18 blocks), fed
    /// through the streaming hasher in several chunk sizes, must match the
    /// scalar reference.
    #[test]
    fn streaming_matches_one_shot_over_chunk_boundaries() {
        let mut rng = seeded(0x5A256);
        for len in 0..=1100usize {
            let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
            let expected = scalar_digest(&data);
            assert_eq!(sha256(&data), expected, "length {len}");
            for chunk in [1usize, 3, 7, 55, 56, 63, 64, 65, 127, 512] {
                let mut h = Hasher::new();
                for piece in data.chunks(chunk) {
                    h.update(piece);
                }
                assert_eq!(h.finalize(), expected, "length {len}, chunk size {chunk}");
            }
        }
    }

    #[test]
    fn of_parts_equals_concatenation() {
        let a = b"hello ".to_vec();
        let b = b"world".to_vec();
        let concat = [a.clone(), b.clone()].concat();
        assert_eq!(Hash::of_parts(&[&a, &b]), Hash::of(&concat));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let l = Hash::of(b"left");
        let r = Hash::of(b"right");
        assert_ne!(Hash::combine(&l, &r), Hash::combine(&r, &l));
    }

    #[test]
    fn zero_hash_and_prefix() {
        assert!(Hash::ZERO.is_zero());
        assert!(!Hash::of(b"x").is_zero());
        assert_eq!(Hash::ZERO.prefix_u64(), 0);
        let h = Hash::of(b"prefix");
        assert_eq!(
            h.prefix_u64(),
            u64::from_be_bytes(h.0[..8].try_into().unwrap())
        );
    }

    #[test]
    fn debug_format_is_truncated() {
        let d = format!("{:?}", Hash::of(b"abc"));
        assert!(d.starts_with("Hash(ba7816bf8f01"));
    }
}
