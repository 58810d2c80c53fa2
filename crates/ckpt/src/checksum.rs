//! CRC-32 (IEEE 802.3 polynomial, the zlib/PNG/Ethernet variant): the one
//! checksum under every framed format (`TGTS`, `TGTF`, `TGDS`, `TGDM`),
//! implemented locally so the formats need no external dependency.
//!
//! Callers see a streaming state ([`Crc32`]), the one-shot [`crc32`] and
//! [`crc32_combine`]; which body runs is decided here, per call, from the
//! host:
//!
//! * [`update_clmul`] — x86-64 with `PCLMULQDQ`: four 128-bit lanes folded
//!   64 bytes at a time by carry-less multiplication, then one lane, then a
//!   Barrett reduction to 32 bits (Gopal et al., *Fast CRC Computation for
//!   Generic Polynomials Using PCLMULQDQ Instruction*, Intel 2009);
//! * [`update_slicing16`] — everywhere else, and for inputs and tails
//!   shorter than one fold: sixteen table lookups per 16 input bytes.
//!
//! Every table and fold constant is a `const` derived from the polynomial
//! at compile time, so no call pays a set-up. Both bodies compute the same
//! function bit for bit — the unit tests and `tests/simd_parity.rs` hold
//! each against a byte-at-a-time oracle. The bodies are `pub` for that
//! harness and for `benches/data_loader.rs` only.

/// The polynomial, bit-reflected (`0x04C11DB7` reversed).
const POLY: u32 = 0xEDB8_8320;

/// Multiply a reflected residue by `x` modulo the polynomial.
const fn times_x(p: u32) -> u32 {
    (p >> 1) ^ if p & 1 != 0 { POLY } else { 0 }
}

/// `a · b mod P` on reflected residues (bit 31 is `x^0`).
const fn mul_mod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 0;
    while bit < 32 {
        if a & (0x8000_0000 >> bit) != 0 {
            product ^= b;
        }
        b = times_x(b);
        bit += 1;
    }
    product
}

/// `x^n mod P`, reflected.
const fn x_pow(n: u32) -> u32 {
    let mut p = 0x8000_0000;
    let mut i = 0;
    while i < n {
        p = times_x(p);
        i += 1;
    }
    p
}

/// `TABLES[k][b]`: the register after byte `b` and then `k` zero bytes.
/// `TABLES[0]` is the classic byte-at-a-time table.
const TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = times_x(crc);
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
};

/// `X2N[k] = x^(2^k) mod P` — the squaring ladder [`crc32_combine`] climbs.
const X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    let mut p = x_pow(1);
    let mut k = 0;
    while k < 32 {
        t[k] = p;
        p = mul_mod(p, p);
        k += 1;
    }
    t
};

/// Streaming CRC-32: feed the input in any number of pieces, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crc32 {
    /// The shift register (the published value is its complement).
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// The state before any input.
    pub const fn new() -> Self {
        Self { state: !0 }
    }

    /// Absorb `bytes`.
    pub fn update(&mut self, bytes: &[u8]) {
        self.state = update(self.state, bytes);
    }

    /// CRC-32 of everything absorbed so far.
    pub const fn finish(self) -> u32 {
        !self.state
    }
}

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// CRC-32 of `A ‖ B` from `a = crc32(A)`, `b = crc32(B)` and `B`'s length,
/// without touching a byte of either: `a` is advanced over `len_b` zero
/// bytes by one multiplication with `x^(8·len_b) mod P`.
pub fn crc32_combine(a: u32, b: u32, len_b: u64) -> u32 {
    let mut shift = 0x8000_0000; // x^0
    let mut k = 3; // bytes to bits
    let mut n = len_b;
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod(X2N[k & 31], shift);
        }
        n >>= 1;
        k += 1; // x has order 2^32 - 1, so the ladder wraps at 32
    }
    mul_mod(shift, a) ^ b
}

/// Advance the register `state` over `bytes` with the best body the host
/// has.
fn update(state: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= FOLD_BYTES && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU supports PCLMULQDQ (just detected; SSE2 is part
        // of the x86-64 baseline).
        return unsafe { update_clmul(state, bytes) };
    }
    update_slicing16(state, bytes)
}

/// The portable body: advance the register `state` (not the published,
/// complemented value) over `bytes`, sixteen bytes per step.
pub fn update_slicing16(mut state: u32, bytes: &[u8]) -> u32 {
    let word = |c: &[u8], i: usize| u32::from_le_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
    let mut blocks = bytes.chunks_exact(16);
    for c in &mut blocks {
        let words = [word(c, 0) ^ state, word(c, 4), word(c, 8), word(c, 12)];
        state = 0;
        for (w, word) in words.into_iter().enumerate() {
            for (b, byte) in word.to_le_bytes().into_iter().enumerate() {
                state ^= TABLES[15 - (4 * w + b)][byte as usize];
            }
        }
    }
    for &byte in blocks.remainder() {
        state = (state >> 8) ^ TABLES[0][((state ^ byte as u32) & 0xFF) as usize];
    }
    state
}

/// Bytes one fold-by-4 step consumes; shorter inputs take the tables.
#[cfg(target_arch = "x86_64")]
const FOLD_BYTES: usize = 64;

/// Fold constant `x^n mod P` as `PCLMULQDQ` wants it in the reflected
/// domain: the 32-bit residue one bit up in a 64-bit lane.
#[cfg(target_arch = "x86_64")]
const fn fold_k(n: u32) -> i64 {
    (x_pow(n) as i64) << 1
}

/// Multipliers that carry a 128-bit lane 512 bits up the message: its low
/// half's, its high half's.
#[cfg(target_arch = "x86_64")]
const FOLD_512: [i64; 2] = [fold_k(512 + 32), fold_k(512 - 32)];
/// The same, 128 bits up.
#[cfg(target_arch = "x86_64")]
const FOLD_128: [i64; 2] = [fold_k(128 + 32), fold_k(128 - 32)];
/// `x^64 mod P`: folds the low word of a 64-bit residue onto its high word.
#[cfg(target_arch = "x86_64")]
const FOLD_64: i64 = fold_k(64);

/// `⌊x^64 / P⌋`, the Barrett constant, reflected over its 33 bits.
#[cfg(target_arch = "x86_64")]
const BARRETT_MU: i64 = {
    let p: u128 = 0x1_04C1_1DB7;
    let mut rem: u128 = 1 << 64;
    let mut quotient: u64 = 0;
    let mut i = 64;
    while i >= 32 {
        if (rem >> i) & 1 == 1 {
            quotient |= 1 << (i - 32);
            rem ^= p << (i - 32);
        }
        i -= 1;
    }
    (quotient.reverse_bits() >> 31) as i64
};

/// The polynomial itself, reflected over its 33 bits.
#[cfg(target_arch = "x86_64")]
const BARRETT_P: i64 = ((POLY as i64) << 1) | 1;

/// The `PCLMULQDQ` body: advance the register `state` (not the published,
/// complemented value) over `bytes`. Inputs shorter than 64 bytes and the
/// sub-16-byte tail go through [`update_slicing16`].
///
/// # Safety
/// The CPU supports `PCLMULQDQ`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
pub unsafe fn update_clmul(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::*;
    if bytes.len() < FOLD_BYTES {
        return update_slicing16(state, bytes);
    }
    let (lanes, tail) = bytes.as_chunks::<16>();
    // SAFETY: a `[u8; 16]` is 16 readable bytes, and `_mm_loadu_si128` has
    // no alignment requirement.
    let load = |lane: &[u8; 16]| unsafe { _mm_loadu_si128(lane.as_ptr().cast()) };
    // `acc` moved `distance` bits up the message and added to `next`:
    // acc.lo · x^(distance+32) + acc.hi · x^(distance−32), per `k`'s halves.
    macro_rules! fold {
        ($acc:expr, $next:expr, $k:expr) => {
            _mm_xor_si128(
                _mm_xor_si128($next, _mm_clmulepi64_si128::<0x00>($acc, $k)),
                _mm_clmulepi64_si128::<0x11>($acc, $k),
            )
        };
    }
    let low32 = _mm_set_epi32(0, 0, 0, !0);

    // Four lanes, 512 bits apart; the incoming register joins the first.
    let mut blocks = lanes.chunks_exact(4);
    let first = blocks
        .next()
        .expect("at least one block: length checked above");
    let mut x = [
        load(&first[0]),
        load(&first[1]),
        load(&first[2]),
        load(&first[3]),
    ];
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    let k512 = _mm_set_epi64x(FOLD_512[1], FOLD_512[0]);
    for block in &mut blocks {
        for (x, lane) in x.iter_mut().zip(block) {
            *x = fold!(*x, load(lane), k512);
        }
    }
    // Four lanes into one, then the remaining whole lanes, 128 bits apart.
    let k128 = _mm_set_epi64x(FOLD_128[1], FOLD_128[0]);
    let mut acc = fold!(x[0], x[1], k128);
    acc = fold!(acc, x[2], k128);
    acc = fold!(acc, x[3], k128);
    for lane in blocks.remainder() {
        acc = fold!(acc, load(lane), k128);
    }
    // 128 → 64 bits (low half · x^96), 64 → 32 (low word · x^64), then
    // Barrett: R − ⌊R·μ / x^32⌋·P leaves the remainder in bits 32..64.
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(acc, k128),
        _mm_srli_si128::<8>(acc),
    );
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, FOLD_64)),
        _mm_srli_si128::<4>(acc),
    );
    let barrett = _mm_set_epi64x(BARRETT_MU, BARRETT_P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), barrett);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), barrett);
    let state = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(acc, t2))) as u32;
    update_slicing16(state, tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition every body is held against.
    fn oracle(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state ^= b as u32;
            for _ in 0..8 {
                state = times_x(state);
            }
        }
        state
    }

    fn fill(kind: usize, len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| match kind {
                0 => torchgt_compat::rng::splitmix64(&mut state) as u8,
                1 => 0x00,
                _ => 0xFF,
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(!oracle(!0, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 64];
        data[10] = 0x5A;
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(
                    crc32(&data),
                    base,
                    "flip at byte {byte} bit {bit} undetected"
                );
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn derived_constants_are_the_published_ones() {
        // Intel white paper, table for the reflected IEEE polynomial.
        #[cfg(target_arch = "x86_64")]
        {
            assert_eq!(FOLD_512, [0x1_5444_2bd4, 0x1_c6e4_1596]);
            assert_eq!(FOLD_128, [0x1_7519_97d0, 0x0_ccaa_009e]);
            assert_eq!(FOLD_64, 0x1_63cd_6124);
            assert_eq!(BARRETT_MU, 0x1_f701_1641);
            assert_eq!(BARRETT_P, 0x1_db71_0641);
        }
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    /// Lengths 0..=700 plus the block-boundary stragglers, over random,
    /// all-zero and all-ones bytes, each placed at every start offset 0..16
    /// of a buffer (so the 16-byte loads are misaligned every possible way)
    /// and entered with a fresh and with a mid-stream register.
    #[test]
    fn both_bodies_and_the_dispatcher_equal_the_oracle() {
        for len in (0..=700).chain([1023, 1024, 1025, 4095, 65_537]) {
            for kind in 0..3 {
                let content = fill(kind, len, len as u64 * 3 + kind as u64);
                let mut buf = vec![0u8; len + 16];
                for state in [!0u32, 0x1234_5678] {
                    let want = oracle(state, &content);
                    for offset in 0..16 {
                        buf[offset..offset + len].copy_from_slice(&content);
                        let bytes = &buf[offset..offset + len];
                        let at = (len, offset, kind);
                        assert_eq!(update_slicing16(state, bytes), want, "slicing16, {at:?}");
                        assert_eq!(update(state, bytes), want, "dispatch, {at:?}");
                        #[cfg(target_arch = "x86_64")]
                        if std::arch::is_x86_feature_detected!("pclmulqdq") {
                            // SAFETY: PCLMULQDQ was just detected.
                            let got = unsafe { update_clmul(state, bytes) };
                            assert_eq!(got, want, "clmul, {at:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn split_updates_equal_one_update_at_every_cut() {
        for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 127, 128, 129, 300, 700] {
            let bytes = fill(0, len, 77 + len as u64);
            let want = !oracle(!0, &bytes);
            for cut in 0..=len {
                let mut crc = Crc32::new();
                crc.update(&bytes[..cut]);
                crc.update(&bytes[cut..]);
                assert_eq!(crc.finish(), want, "len {len} cut {cut}");
            }
        }
        // Three pieces across the fold boundaries of a longer input.
        let bytes = fill(0, 4095, 5);
        let want = crc32(&bytes);
        for (a, b) in [
            (0, 0),
            (1, 64),
            (63, 64),
            (64, 128),
            (100, 4000),
            (4095, 4095),
        ] {
            let mut crc = Crc32::new();
            crc.update(&bytes[..a]);
            crc.update(&bytes[a..b]);
            crc.update(&bytes[b..]);
            assert_eq!(crc.finish(), want, "cuts {a}, {b}");
        }
    }

    #[test]
    fn combine_equals_the_crc_of_the_concatenation() {
        for (len_a, len_b) in [
            (0, 0),
            (0, 9),
            (9, 0),
            (1, 1),
            (20, 300),
            (333, 64),
            (64, 65_537),
            (4095, 1),
        ] {
            for kind in 0..3 {
                let a = fill(kind, len_a, 11);
                let b = fill(kind, len_b, 12);
                let whole = [a.as_slice(), b.as_slice()].concat();
                assert_eq!(
                    crc32_combine(crc32(&a), crc32(&b), len_b as u64),
                    crc32(&whole),
                    "{len_a} + {len_b} bytes, kind {kind}"
                );
            }
        }
        // Lengths past 2^32 bits wrap the squaring ladder; associativity
        // checks it without a 512 MiB buffer.
        let (a, b, c) = (0xDEAD_BEEF, 0x0BAD_F00D, 0x1234_5678);
        let (len_b, len_c) = ((1u64 << 33) + 5, (1u64 << 40) + 3);
        assert_eq!(
            crc32_combine(crc32_combine(a, b, len_b), c, len_c),
            crc32_combine(a, crc32_combine(b, c, len_c), len_b + len_c)
        );
    }
}
