//! IEEE CRC-32 (the zlib/Ethernet polynomial).
//!
//! Both binary formats in the workspace — the sensor wire codec
//! (`fadewich-runtime::wire`) and the model-artifact bundle
//! (`fadewich-core::artifact`) — guard their payloads with the same
//! checksum, so the tables live here, beneath both crates.
//!
//! [`crc32`] uses slicing-by-8: table `k` advances a byte that sits
//! `k` positions before the end of an 8-byte block, so one step folds
//! eight bytes with eight independent lookups. Table 0 is the classic
//! bytewise table, which also finishes the `< 8`-byte tail. The result
//! is the same CRC for every input; the bytewise loop survives as the
//! test oracle below.

const POLY: u32 = 0xEDB8_8320;

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 (the zlib/Ethernet polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(8);
    for b in &mut blocks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The bytewise table-driven CRC the slicing-by-8 loop replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC32_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_known_vector() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_oracle() {
        // A fresh seeded buffer for every length 0..=4096, checked at
        // every start offset 0..8, so each block/tail split and each
        // alignment is covered.
        let mut rng = Rng::seed_from_u64(0xC3C3_2020);
        for len in 0..=4096 {
            let buf: Vec<u8> = (0..len + 7).map(|_| rng.below(256) as u8).collect();
            for offset in 0..8 {
                let slice = &buf[offset..offset + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "length {len} at offset {offset}");
            }
        }
    }

    #[test]
    fn crc32_detects_any_single_bit_flip() {
        let clean = b"fadewich model bundle".to_vec();
        let reference = crc32(&clean);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut dirty = clean.clone();
                dirty[byte] ^= 1 << bit;
                assert_ne!(crc32(&dirty), reference, "flip {byte}:{bit} not caught");
            }
        }
    }
}
