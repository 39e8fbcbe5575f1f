//! The server's two CRCs, both reflected 32-bit CRCs with init and
//! final XOR `0xFFFF_FFFF`, built from one table builder and one feed
//! loop:
//!
//! * [`crc32`] — IEEE 802.3 (polynomial `0xEDB88320`), the snapshot
//!   record checksum (`persist`).
//! * [`crc32c`] — Castagnoli (polynomial `0x82F63B78`), the FCF1 frame
//!   payload checksum (`frame`). x86-64 CPUs with SSE4.2 compute it in
//!   hardware, eight bytes per instruction; every other CPU uses the
//!   table loop, which is also the reference the tests hold the
//!   hardware path to.

/// Lookup table of the reflected CRC-32 with polynomial `poly`.
const fn table(poly: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { poly ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const IEEE: [u32; 256] = table(0xEDB8_8320);
const CASTAGNOLI: [u32; 256] = table(0x82F6_3B78);

/// Feeds `data` into a running CRC state (start from `0xFFFF_FFFF`,
/// finish by inverting), one byte per table lookup.
fn feed(table: &[u32; 256], mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = table[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC-32 (IEEE) over the concatenation of `parts`.
pub fn crc32(parts: &[&[u8]]) -> u32 {
    let mut state = 0xFFFF_FFFFu32;
    for p in parts {
        state = feed(&IEEE, state, p);
    }
    !state
}

/// CRC-32C (Castagnoli) over `bytes`: in hardware where the CPU has
/// SSE4.2, else by the table loop. Both give the same value.
pub(crate) fn crc32c(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `crc32c_sse42` needs SSE4.2, which the
        // `is_x86_feature_detected!` check above just confirmed.
        return unsafe { crc32c_sse42(bytes) };
    }
    crc32c_table(bytes)
}

/// CRC-32C by the table loop: the portable path and the reference.
fn crc32c_table(bytes: &[u8]) -> u32 {
    !feed(&CASTAGNOLI, u32::MAX, bytes)
}

/// CRC-32C with the SSE4.2 `crc32` instruction: one per 8-byte word,
/// then one per tail byte.
///
/// # Safety
///
/// The CPU must support SSE4.2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_sse42(bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut words = bytes.chunks_exact(8);
    let mut state = u64::from(u32::MAX);
    for word in &mut words {
        state = _mm_crc32_u64(state, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
    // The instruction leaves the 32-bit CRC zero-extended in the u64.
    let mut state = state as u32;
    for &b in words.remainder() {
        state = _mm_crc32_u8(state, b);
    }
    !state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_answers() {
        // RFC 3720 §B.4 (iSCSI) test vectors, then the usual check value.
        let ascending: Vec<u8> = (0x00..=0x1F).collect();
        let descending: Vec<u8> = (0x00..=0x1F).rev().collect();
        for (input, want) in [
            (&[0x00u8; 32][..], 0x8A91_36AA),
            (&[0xFF; 32][..], 0x62A8_AB43),
            (&ascending[..], 0x46DD_794E),
            (&descending[..], 0x113F_DB5C),
            (&b"123456789"[..], 0xE306_9283),
        ] {
            assert_eq!(crc32c(input), want, "{input:02x?}");
            assert_eq!(crc32c_table(input), want, "{input:02x?}");
        }
    }

    #[test]
    fn crc32_ieee_known_answer() {
        // The IEEE check value: snapshot CRCs on disk keep their values.
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn hardware_crc32c_equals_the_table_loop() {
        // The path `crc32c` takes on this CPU against the portable
        // reference: every length 0..=1024 at every word offset.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..1024 + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=1024 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32c(bytes),
                    crc32c_table(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }
}
