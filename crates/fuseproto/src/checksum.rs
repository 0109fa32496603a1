//! The integrity checksum closing every wire frame: [`frame_checksum`],
//! whose value is the frame's [`WIRE_TRAILER`](crate::wire::WIRE_TRAILER)
//! bytes.
//!
//! It is not cryptographic. It exists to turn in-flight corruption into a
//! typed decode error, and it runs over every frame on the served path,
//! once when the frame is sealed and once when it is checked, so its speed
//! is part of every request's. One function has two regimes by length:
//!
//! * **Short frames** (under [`STRIPED_FROM`] bytes: every lookup,
//!   getattr and open frame, and most other requests and replies) run
//!   the four-lane multiply chain ([`four_lane`]). Each lane xors in an
//!   8-byte word and multiplies by an odd constant, a bijection, so any
//!   single flipped bit changes that lane, and the merge carries the change
//!   into the result. Four lanes rather than one chain let the multiplies
//!   pipeline, but the one scalar multiplier still sets the chain's speed,
//!   which a 32 KiB read reply would pay twice.
//! * **Long frames** (read replies, write requests) accumulate 64-byte
//!   stripes in eight 64-bit lanes, after XXH3's accumulate step (Collet,
//!   xxHash, <https://github.com/Cyan4973/xxHash>): each 8-byte word `d`
//!   adds `d + lo32(d⊕k)·hi32(d⊕k)` to its lane, for that lane's key `k`.
//!   The additions are independent across lanes, so they vectorize: AVX2's
//!   `vpmuludq` forms four lanes' products at once. Lanes `j` and `j + 4`
//!   then sum into the four-lane chain's start lane `j`, and the tail (the
//!   bytes after the last whole stripe) runs through the chain and its
//!   merge as a short frame's bytes do.
//!
//! Why a long frame still catches a single flipped bit: flipping bit `b`
//! of a word moves its lane by `2^b·(±1 ± hi32(d⊕k))` for a low-half bit
//! and by `2^(b−32)·(±2^32 ± lo32(d⊕k))` for a high-half bit. Neither is
//! zero, except for a low-half bit whose key bit is set in a word whose
//! high half is `hi32(k)⊕1`: one 32-bit value per lane, as rare in random
//! data as the 1 in 2^32 that the final 64→32-bit fold leaves anyway.
//! Every step after the lanes is a bijection in the lane it takes in. A
//! truncated or padded frame changes the length every chain starts from.
//! Stripes are summed under the same keys, so two whole stripes trading
//! places go unseen, and so can two flips at the same offset of different
//! stripes in words whose high halves agree; the faults a byte stream
//! suffers in this crate's model (one flipped bit, truncation, drops,
//! duplicates; see [`crate::fault`]) do neither.
//!
//! Two kernels compute the stripes, bit for bit alike: the portable one
//! ([`accumulate_portable`]), which is the fallback and the test oracle,
//! and the AVX2 one ([`avx2`]). [`frame_checksum`] picks the AVX2 kernel
//! whenever CPUID reports `avx2` and is this crate's one `unsafe` site
//! (`LINTS.md`, HL005). PERF.md §18 has both kernels' speeds.

use crate::wire::le_array;

/// The odd multiplier of every mixing step.
const M: u64 = 0xA24B_AED4_963E_E407;

/// Frames at least this long accumulate stripes; shorter ones keep the
/// four-lane chain, whose fixed cost is lower.
const STRIPED_FROM: usize = 256;

/// Lanes of the stripe accumulator; a stripe is one 8-byte word per lane.
const LANES: usize = 8;

/// One 64-byte stripe as its eight little-endian words.
type Stripe = [[u8; 8]; LANES];

/// Each lane's key: the SHA-512 initial hash words (the first 64 bits of
/// the fractional parts of the square roots of the first eight primes).
const LANE_KEYS: [u64; LANES] = [
    0x6A09_E667_F3BC_C908,
    0xBB67_AE85_84CA_A73B,
    0x3C6E_F372_FE94_F82B,
    0xA54F_F53A_5F1D_36F1,
    0x510E_527F_ADE6_82D1,
    0x9B05_688C_2B3E_6C1F,
    0x1F83_D9AB_FB41_BD6B,
    0x5BE0_CD19_137E_2179,
];

/// The frame checksum: the four-lane chain under [`STRIPED_FROM`] bytes,
/// the eight-lane stripe accumulator from there on, folded to 32 bits.
///
/// A long frame runs on the AVX2 kernel when CPUID reports `avx2` and on
/// the portable one everywhere else. Both produce bit-identical values;
/// the selection has no knob. This function is the crate's one `unsafe`
/// site (`LINTS.md`, HL005).
#[allow(unsafe_code)]
pub(crate) fn frame_checksum(bytes: &[u8]) -> u32 {
    if bytes.len() < STRIPED_FROM {
        return four_lane(bytes);
    }
    #[cfg(target_arch = "x86_64")]
    if kernel() == Kernel::Avx2 {
        // SAFETY: `avx2::striped` is safe Rust whose only precondition is
        // the `avx2` target feature it is compiled with, and `kernel()`
        // returns `Avx2` only after CPUID reported that feature.
        return unsafe { avx2::striped(bytes) };
    }
    striped(bytes, accumulate_portable)
}

/// One mixing step: xor in a word, then multiply by the odd [`M`] (a
/// bijection of `h` for a fixed word, and of the word for a fixed `h`).
fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(M)
}

/// The four lanes every chain starts from, keyed by the frame's length.
fn start(len: usize) -> [u64; 4] {
    let seed = len as u64 ^ 0x9E37_79B9_7F4A_7C15;
    [
        seed,
        seed.rotate_left(16) ^ M,
        seed.rotate_left(32),
        seed.rotate_left(48) ^ M,
    ]
}

/// The four-lane multiply chain from `lanes` over `words` and a final
/// `partial` word (under 8 bytes): 32-byte blocks spread across the lanes,
/// the remaining words and the zero-padded partial one run through lane 0
/// (serial, but at most three words plus padding), then the lanes merge and
/// fold to 32 bits.
fn chain(mut lanes: [u64; 4], words: &[[u8; 8]], partial: &[u8]) -> u32 {
    let (blocks, tail) = words.as_chunks::<4>();
    for block in blocks {
        for (word, lane) in block.iter().zip(&mut lanes) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }
    let [mut h, l1, l2, l3] = lanes;
    for word in tail {
        h = mix(h, u64::from_le_bytes(*word));
    }
    if !partial.is_empty() {
        // `le_array` zero-fills past the tail: exactly the padded word.
        h = mix(h, u64::from_le_bytes(le_array(partial)));
    }
    // Merge: rotations keep the lanes from cancelling symmetrically, the
    // multiplies diffuse each lane across the word before the 32-bit fold.
    h = mix(h, l1.rotate_left(1));
    h = mix(h, l2.rotate_left(2));
    h = mix(h, l3.rotate_left(3));
    h ^= h >> 29;
    (h ^ (h >> 32)) as u32
}

/// The short-frame regime of [`frame_checksum`]: the four-lane chain over
/// the whole frame.
fn four_lane(bytes: &[u8]) -> u32 {
    let (words, partial) = bytes.as_chunks::<8>();
    chain(start(bytes.len()), words, partial)
}

/// The long-frame regime of [`frame_checksum`] over an explicit stripe
/// kernel: the stripes accumulate from zero, lanes `j` and `j + 4` sum
/// into the chain's start lane `j`, and the tail (under 64 bytes) runs
/// through the chain.
#[inline(always)]
fn striped(bytes: &[u8], accumulate: impl Fn(&[Stripe]) -> [u64; LANES]) -> u32 {
    let (words, partial) = bytes.as_chunks::<8>();
    let (stripes, tail) = words.as_chunks::<LANES>();
    let [a0, a1, a2, a3, a4, a5, a6, a7] = accumulate(stripes);
    let [s0, s1, s2, s3] = start(bytes.len());
    let lanes = [
        s0 ^ a0.wrapping_add(a4),
        s1 ^ a1.wrapping_add(a5),
        s2 ^ a2.wrapping_add(a6),
        s3 ^ a3.wrapping_add(a7),
    ];
    chain(lanes, tail, partial)
}

/// The stripe kernel [`frame_checksum`] runs on this CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// [`accumulate_portable`], on every CPU.
    Portable,
    /// [`avx2::striped`], where CPUID reports `avx2`.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

/// Picks the stripe kernel. `std` caches the CPUID result, so this is a
/// load and a bit test.
fn kernel() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Kernel::Avx2;
    }
    Kernel::Portable
}

/// The portable stripe kernel: each word `d` of a stripe adds
/// `d + lo32(d⊕k)·hi32(d⊕k)` to its lane, for the lane's key `k`.
fn accumulate_portable(stripes: &[Stripe]) -> [u64; LANES] {
    let mut lanes = [0u64; LANES];
    for stripe in stripes {
        for ((lane, word), key) in lanes.iter_mut().zip(stripe).zip(LANE_KEYS) {
            let d = u64::from_le_bytes(*word);
            let keyed = d ^ key;
            // A 32×32→64-bit product cannot overflow.
            let product = (keyed & 0xFFFF_FFFF) * (keyed >> 32);
            *lane = lane.wrapping_add(d).wrapping_add(product);
        }
    }
    lanes
}

/// The AVX2 stripe kernel: the eight lanes live in two ymm registers
/// across every stripe, and `vpmuludq` forms four keyed products per
/// instruction. The whole long-frame checksum is compiled with the
/// feature, so the lanes never leave registers and one `u32` crosses the
/// call.
///
/// The module is safe Rust: intrinsics are safe calls inside
/// `#[target_feature]` functions, words are loaded with
/// `u64::from_le_bytes` + `_mm256_set_epi64x` and the lanes are read back
/// with `_mm256_extract_epi64`, so no raw pointer is ever dereferenced.
/// Only the call from [`frame_checksum`] needs `unsafe`, to vouch that the
/// CPU has the feature.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_extract_epi64, _mm256_mul_epu32, _mm256_set_epi64x,
        _mm256_setzero_si256, _mm256_srli_epi64, _mm256_xor_si256,
    };

    use super::{Stripe, LANES, LANE_KEYS};

    /// [`striped`](super::striped) over the AVX2 stripe kernel: equal to
    /// it over [`accumulate_portable`](super::accumulate_portable).
    ///
    /// # Safety
    ///
    /// The function is safe Rust, but a caller not itself compiled with
    /// `avx2` must call it in `unsafe` and only after CPUID reported
    /// `avx2`: on a CPU without it the instructions fault.
    #[target_feature(enable = "avx2")]
    pub(super) fn striped(bytes: &[u8]) -> u32 {
        super::striped(bytes, |stripes| accumulate(stripes))
    }

    /// Accumulates every stripe from zero, as
    /// [`accumulate_portable`](super::accumulate_portable) does.
    #[target_feature(enable = "avx2")]
    fn accumulate(stripes: &[Stripe]) -> [u64; LANES] {
        let [k0, k1, k2, k3, k4, k5, k6, k7] = LANE_KEYS;
        let (key_lo, key_hi) = (set(k0, k1, k2, k3), set(k4, k5, k6, k7));
        let (mut lo, mut hi) = (_mm256_setzero_si256(), _mm256_setzero_si256());
        for stripe in stripes {
            let [d0, d1, d2, d3, d4, d5, d6, d7] = stripe.map(u64::from_le_bytes);
            lo = step(lo, set(d0, d1, d2, d3), key_lo);
            hi = step(hi, set(d4, d5, d6, d7), key_hi);
        }
        [
            _mm256_extract_epi64::<0>(lo) as u64,
            _mm256_extract_epi64::<1>(lo) as u64,
            _mm256_extract_epi64::<2>(lo) as u64,
            _mm256_extract_epi64::<3>(lo) as u64,
            _mm256_extract_epi64::<0>(hi) as u64,
            _mm256_extract_epi64::<1>(hi) as u64,
            _mm256_extract_epi64::<2>(hi) as u64,
            _mm256_extract_epi64::<3>(hi) as u64,
        ]
    }

    /// Four 64-bit lanes, `a` lowest.
    #[target_feature(enable = "avx2")]
    fn set(a: u64, b: u64, c: u64, d: u64) -> __m256i {
        _mm256_set_epi64x(d as i64, c as i64, b as i64, a as i64)
    }

    /// One half-stripe into four lanes: each lane adds its word and the
    /// word's keyed product.
    #[target_feature(enable = "avx2")]
    fn step(acc: __m256i, words: __m256i, key: __m256i) -> __m256i {
        let keyed = _mm256_xor_si256(words, key);
        // `vpmuludq` multiplies each lane's low 32 bits: lo32 · hi32.
        let product = _mm256_mul_epu32(keyed, _mm256_srli_epi64::<32>(keyed));
        _mm256_add_epi64(acc, _mm256_add_epi64(words, product))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded xorshift bytes.
    fn seeded(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    /// The golden inputs are prefixes of one seeded buffer as long as a
    /// 32 KiB read reply's checksummed bytes.
    fn golden_input() -> Vec<u8> {
        seeded(32_788, 0x2545_f491_4f6c_dd1d)
    }

    /// The four-lane chain's values, generated before long frames took
    /// stripes. Frames under [`STRIPED_FROM`] bytes must keep them exactly
    /// (every lookup, getattr and open frame keeps its trailer), and the
    /// chain itself keeps them at every length, so the speed probe's
    /// baseline is the chain every frame used to run.
    #[test]
    fn short_frames_keep_their_trailers() {
        const GOLDEN: [(usize, u32); 13] = [
            (0, 0x1221_d887),
            (1, 0x0e22_ca99),
            (7, 0xf24d_f38d),
            (8, 0x1528_06db),
            (31, 0x84c9_4169),
            (32, 0x0860_0eff),
            (200, 0x39a8_946b),
            (255, 0xac6e_3f36),
            (256, 0x62ad_c64a),
            (300, 0x6eba_a24d),
            (4096, 0x3f45_ab16),
            (4100, 0xcafa_a007),
            (32_788, 0x7384_1092),
        ];
        let data = golden_input();
        for (len, sum) in GOLDEN {
            let input = &data[..len];
            assert_eq!(four_lane(input), sum, "four_lane len={len}");
            if len < STRIPED_FROM {
                assert_eq!(frame_checksum(input), sum, "len={len}");
            }
        }
    }

    /// The long-frame values, so that any later change to the wire
    /// checksum is deliberate.
    #[test]
    fn long_frames_keep_their_trailers() {
        const GOLDEN: [(usize, u32); 5] = [
            (256, 0x06db_b50d),
            (300, 0x3987_5bc9),
            (4096, 0xc787_712a),
            (4100, 0x7afc_c1f9),
            (32_788, 0xc540_5412),
        ];
        let data = golden_input();
        for (len, sum) in GOLDEN {
            let input = &data[..len];
            assert_eq!(frame_checksum(input), sum, "len={len}");
            assert_eq!(
                striped(input, accumulate_portable),
                sum,
                "portable len={len}"
            );
        }
    }

    /// The dispatched kernel matches the portable one at every length from
    /// [`STRIPED_FROM`] to 4200 and just past 32 KiB, over seeded bytes,
    /// all-ones bytes (every product at its maximum, every add wrapping)
    /// and words equal to their lane keys (every product zero).
    #[test]
    fn kernels_agree_bit_for_bit() {
        const LONG: usize = 32 * 1024;
        let keys: Vec<u8> = LANE_KEYS.iter().flat_map(|k| k.to_le_bytes()).collect();
        let inputs = [
            seeded(LONG + 63, 0x9e37_79b9_7f4a_7c15),
            vec![0xFF; LONG + 63],
            keys.repeat((LONG + 63).div_ceil(keys.len())),
        ];
        for data in &inputs {
            for len in (STRIPED_FROM..=4200).chain(LONG + 1..=LONG + 63) {
                let input = &data[..len];
                let portable = striped(input, accumulate_portable);
                assert_eq!(frame_checksum(input), portable, "len={len}");
            }
        }
    }

    /// Every single-bit flip changes the trailer, on frames either side of
    /// [`STRIPED_FROM`] and on 4096 bits sampled across a 32 KiB frame, and
    /// so does dropping the last byte.
    #[test]
    fn every_single_bit_flip_changes_the_trailer() {
        let data = seeded(32 * 1024, 0xd1b5_4a32_d192_ed03);
        let flips = |frame: &mut [u8], bits: &mut dyn Iterator<Item = usize>| {
            let sum = frame_checksum(frame);
            for bit in bits {
                frame[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(frame_checksum(frame), sum, "len={} bit={bit}", frame.len());
                frame[bit / 8] ^= 1 << (bit % 8);
            }
            let short = &frame[..frame.len() - 1];
            assert_ne!(frame_checksum(short), sum, "len={} truncated", frame.len());
        };
        for len in [20, 255, 256, 300, 1000, 4200] {
            flips(&mut data[..len].to_vec(), &mut (0..len * 8));
        }
        // The stride is odd, so every 512 samples reach every bit position
        // of a 64-byte stripe once.
        flips(&mut data.clone(), &mut (0..4096).map(|i| i * 61 + 5));
    }

    /// A broken detection must not fall back to the portable kernel
    /// silently: wherever the CPU has AVX2, the dispatch picks it.
    #[test]
    fn dispatch_picks_avx2_wherever_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(kernel(), Kernel::Avx2);
            return;
        }
        assert_eq!(kernel(), Kernel::Portable);
    }

    /// Same-run B/ns of the four-lane chain (every frame's checksum before
    /// long frames took stripes), the portable stripe kernel and the
    /// dispatching [`frame_checksum`], at the frame sizes of a small read
    /// reply up to a 32 KiB one. A timing probe, not a check: `cargo test
    /// --release -p hpcc-fuseproto --lib -- --ignored --nocapture
    /// frame_checksum_throughput`.
    #[test]
    #[ignore = "timing probe; run explicitly in release"]
    fn frame_checksum_throughput() {
        let data = seeded(32 * 1024, 7);
        type Checksum = fn(&[u8]) -> u32;
        let paths: [(&str, Checksum); 3] = [
            ("four_lane", four_lane),
            ("portable", |b| striped(b, accumulate_portable)),
            ("dispatch", frame_checksum),
        ];
        for len in [256, 1024, 4096, 32 * 1024] {
            let input = &data[..len];
            for (name, checksum) in paths {
                let runs = (64 << 20) / len;
                checksum(input);
                let start = std::time::Instant::now();
                for _ in 0..runs {
                    std::hint::black_box(checksum(std::hint::black_box(input)));
                }
                let ns = start.elapsed().as_nanos() as f64 / runs as f64;
                println!(
                    "frame_checksum_throughput/{len}B {name}: {ns:.1} ns, {:.1} B/ns",
                    len as f64 / ns
                );
            }
        }
    }
}
