//! The server's two CRCs, both reflected 32-bit CRCs with init and
//! final XOR `0xFFFF_FFFF`, built from one table builder:
//!
//! * [`crc32`] — IEEE 802.3 (polynomial `0xEDB88320`), the snapshot
//!   record checksum (`persist`).
//! * [`crc32c`] — Castagnoli (polynomial `0x82F63B78`), the FCF1 frame
//!   payload checksum (`frame`).
//!
//! Every CPU runs both by slicing-by-8: eight table lookups per 8-byte
//! word. x86-64 CPUs with SSE4.2 and PCLMULQDQ compute CRC-32C with the
//! `crc32` instruction instead, in three interleaved chains joined by a
//! carry-less multiply (Gopal et al., *Fast CRC Computation for iSCSI
//! Polynomial Using CRC32 Instruction*, Intel, 2011). The byte-at-a-time
//! loop over the first table is the reference the tests hold every path
//! to.

const IEEE_POLY: u32 = 0xEDB8_8320;
const CASTAGNOLI_POLY: u32 = 0x82F6_3B78;

/// Slicing-by-8 tables of the reflected CRC-32 with polynomial `poly`.
/// `t[0]` is the byte table; `t[k][b]` is the state byte `b` leaves
/// after `k` further zero bytes.
const fn tables(poly: u32) -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static IEEE: [[u32; 256]; 8] = tables(IEEE_POLY);
static CASTAGNOLI: [[u32; 256]; 8] = tables(CASTAGNOLI_POLY);

/// Feeds `data` into a running CRC state (start from `0xFFFF_FFFF`,
/// finish by inverting), one byte per lookup in the byte table: the
/// reference, and the tail of [`feed`].
fn feed_bytes(table: &[u32; 256], mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = table[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// [`feed_bytes`] by slicing-by-8: each 8-byte word is eight independent
/// lookups, one per table, XORed together.
fn feed(t: &[[u32; 256]; 8], mut state: u32, data: &[u8]) -> u32 {
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes(word[..4].try_into().expect("4 bytes")) ^ state;
        let hi = u32::from_le_bytes(word[4..].try_into().expect("4 bytes"));
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    feed_bytes(&t[0], state, words.remainder())
}

/// CRC-32 (IEEE) over the concatenation of `parts`.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for p in parts {
        state = feed(&IEEE, state, p);
    }
    !state
}

/// CRC-32C (Castagnoli) over `bytes`: in three `crc32`-instruction
/// lanes where the CPU has SSE4.2 and PCLMULQDQ, else by slicing-by-8.
/// Both give the same value.
pub(crate) fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected;
        if is_x86_feature_detected!("sse4.2") && is_x86_feature_detected!("pclmulqdq") {
            // SAFETY: `crc32c_lanes` needs SSE4.2 and PCLMULQDQ, which
            // the two `is_x86_feature_detected!` checks above just
            // confirmed.
            return unsafe { x86::crc32c_lanes(bytes) };
        }
    }
    crc32c_slice8(bytes)
}

/// CRC-32C by slicing-by-8: the portable path.
fn crc32c_slice8(bytes: &[u8]) -> u32 {
    !feed(&CASTAGNOLI, u32::MAX, bytes)
}

/// The x86-64 paths of [`crc32c`].
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::CASTAGNOLI_POLY;
    use std::arch::x86_64::{
        _mm_clmulepi64_si128, _mm_crc32_u64, _mm_crc32_u8, _mm_cvtsi128_si64, _mm_cvtsi64_si128,
        _mm_xor_si128,
    };

    /// `x^n mod P` for the Castagnoli `P`, bit-reflected like the CRC
    /// state (`0x8000_0000` is the polynomial 1).
    const fn x_pow_mod(n: usize) -> u32 {
        let mut v = 0x8000_0000u32;
        let mut i = 0;
        while i < n {
            v = if v & 1 != 0 {
                (v >> 1) ^ CASTAGNOLI_POLY
            } else {
                v >> 1
            };
            i += 1;
        }
        v
    }

    /// The multiplier that shifts a CRC state past `bytes` zero bytes
    /// in [`shift`]: `x^(8·bytes − 33) mod P`. A carry-less product of
    /// two reflected 32-bit values carries one factor `x`, and the
    /// `crc32` instruction multiplies its 64-bit operand by `x^32`:
    /// together the 33 the exponent leaves out.
    const fn shift_key(bytes: usize) -> i64 {
        x_pow_mod(8 * bytes - 33) as i64
    }

    /// The shift keys of a round of three `L`-byte lanes.
    struct Lane<const L: usize>;

    impl<const L: usize> Lane<L> {
        /// Shifts the first lane's state past the other two.
        const FAR: i64 = shift_key(2 * L);
        /// Shifts the second lane's state past the third.
        const NEAR: i64 = shift_key(L);
    }

    /// The 8-byte little-endian word at the start of `chunk`.
    #[inline(always)]
    fn word(chunk: &[u8]) -> u64 {
        u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"))
    }

    /// The carry-less product of `state` and `key`, as the `crc32`
    /// instruction's 64-bit operand.
    #[inline]
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    fn shift(state: u64, key: i64) -> std::arch::x86_64::__m128i {
        _mm_clmulepi64_si128(
            _mm_cvtsi64_si128(state as i64),
            _mm_cvtsi64_si128(key),
            0x00,
        )
    }

    /// Runs rounds of three `L`-byte lanes while `bytes` holds one, the
    /// first lane continuing `state` and the other two starting from 0,
    /// and joins each round's lanes into one state: CRC is linear, so the
    /// state after the round is the first lane's shifted past `2L`
    /// bytes, XOR the second's shifted past `L`, XOR the third's.
    #[inline]
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    fn rounds<const L: usize>(mut state: u32, mut bytes: &[u8]) -> (u32, &[u8]) {
        while bytes.len() >= 3 * L {
            let (round, rest) = bytes.split_at(3 * L);
            let (x, yz) = round.split_at(L);
            let (y, z) = yz.split_at(L);
            let (mut a, mut b, mut c) = (u64::from(state), 0u64, 0u64);
            for ((wa, wb), wc) in x
                .chunks_exact(8)
                .zip(y.chunks_exact(8))
                .zip(z.chunks_exact(8))
            {
                a = _mm_crc32_u64(a, word(wa));
                b = _mm_crc32_u64(b, word(wb));
                c = _mm_crc32_u64(c, word(wc));
            }
            let joined = _mm_xor_si128(shift(a, Lane::<L>::FAR), shift(b, Lane::<L>::NEAR));
            // The instruction leaves the 32-bit CRC zero-extended in the u64.
            state = _mm_crc32_u64(0, _mm_cvtsi128_si64(joined) as u64) as u32 ^ c as u32;
            bytes = rest;
        }
        (state, bytes)
    }

    /// One `crc32` chain: one instruction per 8-byte word, then one per
    /// tail byte.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn chain(state: u32, bytes: &[u8]) -> u32 {
        let mut words = bytes.chunks_exact(8);
        let mut state = u64::from(state);
        for w in &mut words {
            state = _mm_crc32_u64(state, word(w));
        }
        let mut state = state as u32;
        for &b in words.remainder() {
            state = _mm_crc32_u8(state, b);
        }
        state
    }

    /// CRC-32C in three lanes of 1 KiB, then of 256 and of 64 bytes,
    /// then one chain over the last < 192 bytes: below three 64-byte
    /// lanes, a join costs about what it saves.
    #[target_feature(enable = "sse4.2,pclmulqdq")]
    pub(super) fn crc32c_lanes(bytes: &[u8]) -> u32 {
        let (state, rest) = rounds::<1024>(u32::MAX, bytes);
        let (state, rest) = rounds::<256>(state, rest);
        let (state, rest) = rounds::<64>(state, rest);
        !chain(state, rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A CRC-32C path under test, by name.
    type Path = (&'static str, fn(&[u8]) -> u32);

    /// Every CRC-32C path this build has; each is called directly, so a
    /// CPU without a feature still tests the others.
    fn crc32c_paths() -> Vec<Path> {
        let mut paths: Vec<Path> = vec![
            ("byte table", |b| !feed_bytes(&CASTAGNOLI[0], u32::MAX, b)),
            ("slicing-by-8", crc32c_slice8),
            ("dispatched", crc32c),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected;
            if is_x86_feature_detected!("sse4.2") {
                // SAFETY: `chain` needs SSE4.2, checked just above.
                paths.push(("sse4.2 chain", |b| !unsafe { x86::chain(u32::MAX, b) }));
            }
            if is_x86_feature_detected!("sse4.2") && is_x86_feature_detected!("pclmulqdq") {
                // SAFETY: `crc32c_lanes` needs SSE4.2 and PCLMULQDQ,
                // checked just above.
                paths.push(("three lanes", |b| unsafe { x86::crc32c_lanes(b) }));
            }
        }
        paths
    }

    #[test]
    fn crc32c_known_answers() {
        // RFC 3720 §B.4 (iSCSI) test vectors, then the usual check value.
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        let descending: Vec<u8> = (0x00..=0x1F).rev().collect();
        for (name, path) in crc32c_paths() {
            for (input, want) in [
                (&[0x00u8; 32][..], 0x8A91_36AA),
                (&[0xFF; 32][..], 0x62A8_AB43),
                (&ascending[..], 0x46DD_794E),
                (&descending[..], 0x113F_DB5C),
                (&b"123456789"[..], 0xE306_9283),
            ] {
                assert_eq!(path(input), want, "{name}: {input:02x?}");
            }
        }
    }

    #[test]
    fn crc32_ieee_known_answer() {
        // The IEEE check value: snapshot CRCs on disk keep their values.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
        assert_eq!(!feed_bytes(&IEEE[0], u32::MAX, b"123456789"), 0xCBF4_3926);
    }

    /// A buffer of `len + 8` pseudo-random bytes.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Holds `path` to the byte-table reference over `table` on every
    /// length 0..=8192 at every word offset: past the longest
    /// three-lane round (3 KiB) twice, with every tail length. The
    /// reference state grows one byte per length.
    fn assert_equals_reference(name: &str, table: &[u32; 256], path: impl Fn(&[u8]) -> u32) {
        const MAX: usize = 8192;
        let buf = noise(MAX);
        for start in 0..8 {
            let mut reference = u32::MAX;
            for len in 0..=MAX {
                if len > 0 {
                    reference = feed_bytes(table, reference, &buf[start + len - 1..start + len]);
                }
                let got = path(&buf[start..start + len]);
                assert_eq!(got, !reference, "{name}: start {start}, len {len}");
            }
        }
    }

    #[test]
    fn every_crc32c_path_equals_the_byte_table() {
        for (name, path) in crc32c_paths() {
            println!("crc32c path: {name}");
            assert_equals_reference(name, &CASTAGNOLI[0], path);
        }
    }

    #[test]
    fn slicing_by_8_crc32_equals_the_byte_table() {
        assert_equals_reference("crc32 slicing-by-8", &IEEE[0], |b| crc32(&[b]));
    }
}
