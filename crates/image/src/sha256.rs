//! A pure-Rust SHA-256 implementation used for content-addressed image
//! layers and manifests (OCI digests).
//!
//! The hasher is **incremental**: [`Sha256`] consumes input in arbitrary
//! chunks without buffering more than one 64-byte block, so tar serialization
//! and blob uploads hash layer bytes as they are produced instead of
//! materializing a padded copy of the whole input. [`sha256`] is the one-shot
//! convenience wrapper.
//!
//! Every full block goes through one multi-block compress entry, which runs
//! a SHA-NI kernel when the CPU reports the `sha` and `sse4.1` extensions and
//! portable rounds everywhere else. The choice is made at run time per call
//! and has no knob; both produce bit-identical digests.

/// Digest of a byte string.
///
/// `Digest` is 32 plain bytes and derives `Hash + Eq + Ord + Copy`; it is the
/// **canonical map key** for every content-addressed structure in the
/// workspace (build cache, blob stores, registries). Key maps on `Digest`
/// directly — never on the rendered `to_oci_string()` form, which costs a
/// 71-byte allocation per probe and hashes more than twice the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

/// Lookup table for lowercase hex rendering (avoids a `format!` per byte).
const HEX_CHARS: &[u8; 16] = b"0123456789abcdef";

impl Digest {
    /// Renders as `sha256:<hex>`.
    pub fn to_oci_string(&self) -> String {
        let mut buf = [0u8; 71];
        buf[..7].copy_from_slice(b"sha256:");
        for (i, b) in self.0.iter().enumerate() {
            buf[7 + i * 2] = HEX_CHARS[(b >> 4) as usize];
            buf[8 + i * 2] = HEX_CHARS[(b & 0xf) as usize];
        }
        // Safety not needed: the buffer is pure ASCII by construction.
        String::from_utf8_lossy(&buf).into_owned()
    }

    /// Short 12-character form used in transcripts. Renders the six needed
    /// bytes directly rather than materializing the full OCI string.
    pub fn short(&self) -> String {
        let mut buf = [0u8; 12];
        for (i, b) in self.0[..6].iter().enumerate() {
            buf[i * 2] = HEX_CHARS[(b >> 4) as usize];
            buf[i * 2 + 1] = HEX_CHARS[(b & 0xf) as usize];
        }
        String::from_utf8_lossy(&buf).into_owned()
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_oci_string())
    }
}

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
///
/// Feed input with [`Sha256::update`] in chunks of any size; the only state
/// kept between calls is the 32-byte chain value and at most one partial
/// 64-byte block. [`Sha256::finalize`] pads in a fixed scratch block — the
/// input is never copied or re-buffered.
///
/// ```
/// use hpcc_image::sha256::{sha256, Sha256};
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    h: [u32; 8],
    /// Partial input block awaiting 64 accumulated bytes.
    block: [u8; 64],
    block_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256::new()
    }
}

impl Sha256 {
    /// Fresh hasher state.
    pub fn new() -> Self {
        Sha256 {
            h: H0,
            block: [0u8; 64],
            block_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`. May be called any number of times; chunk boundaries do
    /// not affect the digest.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Pads (in a fixed scratch buffer) and returns the digest.
    pub fn finalize(self) -> Digest {
        self.finish(compress_blocks)
    }

    /// [`Sha256::update`] over an explicit multi-block compress function.
    #[inline(always)]
    fn absorb(&mut self, data: &[u8], compress: impl Fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        // Top up a pending partial block first.
        if self.block_len > 0 {
            let take = rest.len().min(64 - self.block_len);
            self.block[self.block_len..self.block_len + take].copy_from_slice(&rest[..take]);
            self.block_len += take;
            rest = &rest[take..];
            if self.block_len < 64 {
                return;
            }
            compress(&mut self.h, &self.block);
            self.block_len = 0;
        }
        // Every full block straight from the input in one call, no copy.
        let (full, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !full.is_empty() {
            compress(&mut self.h, full);
        }
        self.block[..tail.len()].copy_from_slice(tail);
        self.block_len = tail.len();
    }

    /// [`Sha256::finalize`] over an explicit multi-block compress function.
    #[inline(always)]
    fn finish(mut self, compress: impl Fn(&mut [u32; 8], &[u8])) -> Digest {
        // The `0x80` marker and the bit length fit after the tail in one
        // block, or spill into a second.
        let padded = if self.block_len < 56 { 64 } else { 128 };
        let mut scratch = [0u8; 128];
        scratch[..self.block_len].copy_from_slice(&self.block[..self.block_len]);
        scratch[self.block_len] = 0x80;
        scratch[padded - 8..padded].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.h, &scratch[..padded]);
        let mut out = [0u8; 32];
        for (i, v) in self.h.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&v.to_be_bytes());
        }
        Digest(out)
    }
}

/// The multi-block compress entry behind every [`Sha256::update`] and
/// [`Sha256::finalize`]: `blocks` is a whole number of 64-byte blocks.
///
/// Runs the SHA-NI kernel ([`shani`]) when CPUID reports `sha` and
/// `sse4.1`, and the portable rounds ([`compress_portable`]) everywhere
/// else. Both produce bit-identical chain values; the selection has no
/// knob. This function is the crate's one `unsafe` site (`LINTS.md`,
/// HL005).
#[allow(unsafe_code)]
fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: `shani::compress_blocks` is safe Rust whose only
        // precondition is the `sha` and `sse4.1` target features it is
        // compiled with, and `detected()` just read both from CPUID.
        unsafe { shani::compress_blocks(h, blocks) };
        return;
    }
    compress_portable(h, blocks);
}

/// The portable multi-block compress: [`compress`] over each block.
fn compress_portable(h: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.as_chunks::<64>().0 {
        compress(h, block);
    }
}

/// The SHA-256 compression function over one 64-byte block.
///
/// The message schedule lives in a **fixed 16-word rolling scratch
/// array** extended in place, instead of a fully materialized 64-entry
/// table: each round past 15 overwrites the slot it is about to consume
/// (`w[t mod 16]`), which keeps the whole schedule in registers/L1 and
/// unrolls cleanly. The round loop is unrolled 8-wide via [`round`] so
/// the state rotation compiles to plain register renaming rather than a
/// shift chain.
fn compress(h: &mut [u32; 8], chunk: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (slot, bytes) in w.iter_mut().zip(chunk.as_chunks::<4>().0) {
        *slot = u32::from_be_bytes(*bytes);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    // Eight unrolled rounds at a time; the (a..hh) rotation is expressed
    // by argument renaming, not data movement. The first 16 rounds read
    // the loaded block directly; later rounds extend the rolling window
    // in place — no branch inside the round body either way.
    let mut t = 0usize;
    while t < 16 {
        hh = round(a, b, c, &mut d, e, f, g, hh, K[t], w[t]);
        g = round(hh, a, b, &mut c, d, e, f, g, K[t + 1], w[t + 1]);
        f = round(g, hh, a, &mut b, c, d, e, f, K[t + 2], w[t + 2]);
        e = round(f, g, hh, &mut a, b, c, d, e, K[t + 3], w[t + 3]);
        d = round(e, f, g, &mut hh, a, b, c, d, K[t + 4], w[t + 4]);
        c = round(d, e, f, &mut g, hh, a, b, c, K[t + 5], w[t + 5]);
        b = round(c, d, e, &mut f, g, hh, a, b, K[t + 6], w[t + 6]);
        a = round(b, c, d, &mut e, f, g, hh, a, K[t + 7], w[t + 7]);
        t += 8;
    }
    while t < 64 {
        let w0 = extend(&mut w, t);
        hh = round(a, b, c, &mut d, e, f, g, hh, K[t], w0);
        let w1 = extend(&mut w, t + 1);
        g = round(hh, a, b, &mut c, d, e, f, g, K[t + 1], w1);
        let w2 = extend(&mut w, t + 2);
        f = round(g, hh, a, &mut b, c, d, e, f, K[t + 2], w2);
        let w3 = extend(&mut w, t + 3);
        e = round(f, g, hh, &mut a, b, c, d, e, K[t + 3], w3);
        let w4 = extend(&mut w, t + 4);
        d = round(e, f, g, &mut hh, a, b, c, d, K[t + 4], w4);
        let w5 = extend(&mut w, t + 5);
        c = round(d, e, f, &mut g, hh, a, b, c, K[t + 5], w5);
        let w6 = extend(&mut w, t + 6);
        b = round(c, d, e, &mut f, g, hh, a, b, K[t + 6], w6);
        let w7 = extend(&mut w, t + 7);
        a = round(b, c, d, &mut e, f, g, hh, a, K[t + 7], w7);
        t += 8;
    }
    h[0] = h[0].wrapping_add(a);
    h[1] = h[1].wrapping_add(b);
    h[2] = h[2].wrapping_add(c);
    h[3] = h[3].wrapping_add(d);
    h[4] = h[4].wrapping_add(e);
    h[5] = h[5].wrapping_add(f);
    h[6] = h[6].wrapping_add(g);
    h[7] = h[7].wrapping_add(hh);
}

/// Message-schedule word for round `t ≥ 16`, extending the rolling
/// 16-word window in place: slot `t mod 16` holds `w[t-16]` and is
/// overwritten with `w[t]` just before the round consumes it.
#[inline(always)]
fn extend(w: &mut [u32; 16], t: usize) -> u32 {
    let i = t & 15;
    let w15 = w[(t + 1) & 15];
    let w2 = w[(t + 14) & 15];
    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
    w[i] = w[i]
        .wrapping_add(s0)
        .wrapping_add(w[(t + 9) & 15])
        .wrapping_add(s1);
    w[i]
}

/// One SHA-256 round. `d` is updated in place; the new working variable
/// `a` is returned (callers rename the rest).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn round(
    a: u32,
    b: u32,
    c: u32,
    d: &mut u32,
    e: u32,
    f: u32,
    g: u32,
    hh: u32,
    k: u32,
    w: u32,
) -> u32 {
    let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
    let ch = (e & f) ^ ((!e) & g);
    let temp1 = hh
        .wrapping_add(s1)
        .wrapping_add(ch)
        .wrapping_add(k)
        .wrapping_add(w);
    let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
    let maj = (a & b) ^ (a & c) ^ (b & c);
    let temp2 = s0.wrapping_add(maj);
    *d = d.wrapping_add(temp1);
    temp1.wrapping_add(temp2)
}

/// The SHA-NI kernel: SHA-256 on the x86-64 SHA extensions
/// (`sha256rnds2`, `sha256msg1`, `sha256msg2`).
///
/// The chain value stays in two xmm registers (`abef`, `cdgh`) across every
/// block of one call. The module is safe Rust: intrinsics are safe calls
/// inside `#[target_feature]` functions, message words are loaded with
/// `u32::from_be_bytes` + `_mm_set_epi32` and the state is stored with
/// `_mm_extract_epi32`, so no raw pointer is ever dereferenced. Only the
/// call from [`compress_blocks`] needs `unsafe`, to vouch that the CPU has
/// the features.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// True when CPUID reports every feature [`compress_blocks`] is
    /// compiled with. `std` caches the CPUID result, so this is two loads.
    pub(super) fn detected() -> bool {
        std::arch::is_x86_feature_detected!("sha") && std::arch::is_x86_feature_detected!("sse4.1")
    }

    /// Compresses each 64-byte block of `blocks` into `h`; a trailing
    /// partial block is ignored (callers pass whole blocks).
    ///
    /// # Safety
    ///
    /// The function is safe Rust, but a caller not itself compiled with
    /// `sha` and `sse4.1` must call it in `unsafe` and only after
    /// [`detected`] returned true: on a CPU without them the instructions
    /// fault.
    #[target_feature(enable = "sha,sse4.1")]
    pub(super) fn compress_blocks(h: &mut [u32; 8], blocks: &[u8]) {
        // Repack the chain value into the lane order `sha256rnds2` works
        // on: ABEF and CDGH, A in the top lane.
        let dcba = _mm_set_epi32(h[3] as i32, h[2] as i32, h[1] as i32, h[0] as i32);
        let hgfe = _mm_set_epi32(h[7] as i32, h[6] as i32, h[5] as i32, h[4] as i32);
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.as_chunks::<64>().0 {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let [mut w0, mut w1, mut w2, mut w3] = load(block);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Rounds 16..64: each group of four schedule words comes from
            // the previous sixteen, held in the rotating w0..w3.
            for group in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, group);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, group + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, group + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        *h = [
            _mm_extract_epi32(dcba, 0) as u32,
            _mm_extract_epi32(dcba, 1) as u32,
            _mm_extract_epi32(dcba, 2) as u32,
            _mm_extract_epi32(dcba, 3) as u32,
            _mm_extract_epi32(hgef, 0) as u32,
            _mm_extract_epi32(hgef, 1) as u32,
            _mm_extract_epi32(hgef, 2) as u32,
            _mm_extract_epi32(hgef, 3) as u32,
        ];
    }

    /// A block's sixteen big-endian message words as four vectors, the
    /// lowest-numbered word of each group in lane 0.
    #[inline]
    #[target_feature(enable = "sha,sse4.1")]
    fn load(block: &[u8; 64]) -> [__m128i; 4] {
        let mut w = [0i32; 16];
        for (slot, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
            *slot = u32::from_be_bytes(*bytes) as i32;
        }
        [
            _mm_set_epi32(w[3], w[2], w[1], w[0]),
            _mm_set_epi32(w[7], w[6], w[5], w[4]),
            _mm_set_epi32(w[11], w[10], w[9], w[8]),
            _mm_set_epi32(w[15], w[14], w[13], w[12]),
        ]
    }

    /// Rounds `4 * group .. 4 * group + 4`: two `sha256rnds2` steps over
    /// the message words `w` plus their round constants.
    #[inline]
    #[target_feature(enable = "sha,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let t = 4 * group;
        let k = _mm_set_epi32(
            K[t + 3] as i32,
            K[t + 2] as i32,
            K[t + 1] as i32,
            K[t] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next four message-schedule words from the previous sixteen
    /// (`w0` oldest).
    #[inline]
    #[target_feature(enable = "sha,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let w = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(w, w3)
    }
}

/// A [`std::io::Write`] adapter that hashes everything written through it.
///
/// Serializers that produce bytes incrementally (the tar packer, blob upload
/// sessions) write into this to obtain the digest without a second pass over
/// a materialized buffer.
#[derive(Debug, Clone, Default)]
pub struct Sha256Writer {
    hasher: Sha256,
}

impl Sha256Writer {
    /// Fresh writer.
    pub fn new() -> Self {
        Sha256Writer {
            hasher: Sha256::new(),
        }
    }

    /// Consumes the writer, returning the digest of all bytes written.
    pub fn finalize(self) -> Digest {
        self.hasher.finalize()
    }
}

impl std::io::Write for Sha256Writer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.hasher.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Computes the SHA-256 digest of `data` in one shot (no padding copy; this
/// simply drives the incremental hasher).
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Convenience: digest of a string.
pub fn sha256_str(s: &str) -> Digest {
    sha256(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A multi-block compress function: [`compress_blocks`] or
    /// [`compress_portable`].
    type Compress = fn(&mut [u32; 8], &[u8]);

    /// One-shot digest of `data` through an explicit multi-block compress.
    fn one_shot(data: &[u8], compress: Compress) -> Digest {
        let mut h = Sha256::new();
        h.absorb(data, compress);
        h.finish(compress)
    }

    /// A FIPS 180-4 vector, asserted through the dispatching entry and,
    /// explicitly, the portable rounds (which hosts with SHA-NI otherwise
    /// never run).
    fn assert_vector(data: &[u8], hex: &str) {
        assert_eq!(sha256(data).to_oci_string(), hex);
        assert_eq!(one_shot(data, compress_portable).to_oci_string(), hex);
    }

    #[test]
    fn empty_string_vector() {
        assert_vector(
            b"",
            "sha256:e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_vector(
            b"abc",
            "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "sha256:248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn long_input() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "sha256:cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn accelerated_path_matches_portable_on_every_length() {
        // Seeded inputs of every length 0..=4200 cover every padding class
        // (tail < 56, tail >= 56, empty tail) many times over, each hashed
        // one-shot and under random chunk splits through both entries.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let data: Vec<u8> = (0..4200).map(|_| next() as u8).collect();
        for len in 0..=data.len() {
            let input = &data[..len];
            let portable = one_shot(input, compress_portable);
            assert_eq!(one_shot(input, compress_blocks), portable, "len={len}");
            let mut fast = Sha256::new();
            let mut slow = Sha256::new();
            let mut off = 0;
            while off < len {
                let take = (next() as usize % 200 + 1).min(len - off);
                fast.absorb(&input[off..off + take], compress_blocks);
                slow.absorb(&input[off..off + take], compress_portable);
                off += take;
            }
            assert_eq!(fast.finish(compress_blocks), portable, "len={len} split");
            assert_eq!(slow.finish(compress_portable), portable, "len={len} split");
        }
    }

    /// Same-run MB/s of the portable rounds and the dispatching entry over
    /// the input of the `sha256_throughput/one_shot_1MiB` bench. A timing
    /// probe, not a check: `cargo test --release -p hpcc-image --lib --
    /// --ignored --nocapture sha256_throughput`.
    #[test]
    #[ignore = "timing probe; run explicitly in release"]
    fn sha256_throughput_one_shot_1mib() {
        let data: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
        let paths: [(&str, Compress); 2] = [
            ("portable", compress_portable),
            ("dispatch", compress_blocks),
        ];
        for (name, compress) in paths {
            one_shot(&data, compress);
            let runs = 50;
            let start = std::time::Instant::now();
            for _ in 0..runs {
                std::hint::black_box(one_shot(std::hint::black_box(&data), compress));
            }
            let secs = start.elapsed().as_secs_f64() / runs as f64;
            println!(
                "sha256_throughput/one_shot_1MiB {name}: {:.2} ms, {:.0} MB/s",
                secs * 1e3,
                data.len() as f64 / secs / 1e6
            );
        }
    }

    #[test]
    fn short_form_and_display() {
        let d = sha256(b"abc");
        assert_eq!(d.short().len(), 12);
        assert_eq!(d.short(), d.to_oci_string()[7..19]);
        assert!(format!("{}", d).starts_with("sha256:"));
    }

    #[test]
    fn different_inputs_differ() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256_str("centos:7"), sha256_str("debian:buster"));
    }

    #[test]
    fn incremental_chunking_matches_one_shot() {
        // Chunk splits crossing every padding boundary case: empty, 1 byte,
        // 55/56/64 bytes (padding with/without a second block), exactly two
        // blocks, and a large multi-block input — split at every offset class
        // by a deterministic pseudo-random walk.
        let lengths = [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 1000, 4096];
        for &len in &lengths {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 13) as u8).collect();
            let expect = sha256(&data);
            for split in [1usize, 3, 55, 56, 64, 65] {
                let mut h = Sha256::new();
                for chunk in data.chunks(split) {
                    h.update(chunk);
                }
                assert_eq!(h.finalize(), expect, "len={} split={}", len, split);
            }
            // Pseudo-random chunk sizes.
            let mut state = 0x9e3779b97f4a7c15u64 ^ len as u64;
            let mut h = Sha256::new();
            let mut off = 0;
            while off < len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let take = (state as usize % 97 + 1).min(len - off);
                h.update(&data[off..off + take]);
                off += take;
            }
            assert_eq!(h.finalize(), expect, "len={} random splits", len);
        }
    }

    #[test]
    fn writer_adapter_hashes_stream() {
        use std::io::Write;
        let mut w = Sha256Writer::new();
        w.write_all(b"hello ").unwrap();
        w.write_all(b"world").unwrap();
        assert_eq!(w.finalize(), sha256(b"hello world"));
    }
}
