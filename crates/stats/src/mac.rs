//! Keyed message authentication for the wire codec.
//!
//! Wire v4 frames carry a truncated keyed-MAC tag so the station can
//! reject injected or spoofed sensor traffic ("Rejecting the Attack"
//! hardens 802.11 management frames the same way; here the principle
//! moves to the sensor → station link). The primitive is SipHash-2-4
//! — a 128-bit-keyed pseudorandom function with a 64-bit output,
//! designed exactly for short-input authentication — implemented from
//! the reference specification so the workspace stays dependency-free.
//!
//! The hasher is *streaming* ([`SipHasher::write`] any number of
//! times, then [`SipHasher::finish`]): the frame-verify hot path hashes
//! a header slice and a payload slice without stitching them into a
//! contiguous copy first.
//!
//! Every forged frame in a flood pays for one MAC, so the hasher is
//! written for speed on short inputs and runs level with
//! `std::hash::SipHasher`. The four lanes are separate `u64` fields,
//! copied into locals for the block loop so they stay in registers
//! (an in-place `[u64; 4]` round-trips through memory each block), and
//! the partial block is one `u64` assembled by little-endian loads
//! rather than a byte buffer filled by variable-length copies.
//!
//! This is a MAC, not a hash: outputs are unpredictable only while the
//! key is secret. Key handling lives in `fadewich_core::auth`.

/// The four SipHash lanes.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

impl Lanes {
    /// One SipHash compression round.
    #[inline(always)]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    /// Absorbs one 8-byte message block (the "2" of SipHash-2-4).
    #[inline(always)]
    fn compress(&mut self, block: u64) {
        self.v3 ^= block;
        self.round();
        self.round();
        self.v0 ^= block;
    }
}

/// Little-endian load of a block shorter than 8 bytes into the low
/// bytes of a `u64` (the rest zero), through at most one `u32`, one
/// `u16` and one `u8` load.
#[inline(always)]
fn load_le_short(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() < 8);
    let mut out = 0u64;
    let mut i = 0;
    if bytes.len() >= 4 {
        out = u64::from(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]));
        i = 4;
    }
    if bytes.len() - i >= 2 {
        out |= u64::from(u16::from_le_bytes([bytes[i], bytes[i + 1]])) << (8 * i);
        i += 2;
    }
    if bytes.len() > i {
        out |= u64::from(bytes[i]) << (8 * i);
    }
    out
}

/// Streaming SipHash-2-4 over a 128-bit key.
///
/// Feed bytes with [`write`](SipHasher::write) in any chunking — the
/// digest depends only on the concatenated stream — then take the
/// 64-bit tag with [`finish`](SipHasher::finish).
#[derive(Debug, Clone)]
pub struct SipHasher {
    v: Lanes,
    /// Partial input block: the `ntail < 8` bytes awaiting completion,
    /// little-endian in the low bytes, the high bytes zero.
    tail: u64,
    ntail: usize,
    /// Total bytes written, mod 2^64 (the spec folds `len & 0xff` into
    /// the final block).
    total: u64,
}

impl SipHasher {
    /// Initializes the four lanes from a 128-bit key (two little-endian
    /// words XORed with the spec constants).
    pub fn new(key: &[u8; 16]) -> SipHasher {
        let k0 = u64::from_le_bytes(key[..8].try_into().expect("8-byte half"));
        let k1 = u64::from_le_bytes(key[8..].try_into().expect("8-byte half"));
        SipHasher {
            v: Lanes {
                v0: k0 ^ 0x736f_6d65_7073_6575,
                v1: k1 ^ 0x646f_7261_6e64_6f6d,
                v2: k0 ^ 0x6c79_6765_6e65_7261,
                v3: k1 ^ 0x7465_6462_7974_6573,
            },
            tail: 0,
            ntail: 0,
            total: 0,
        }
    }

    /// Absorbs more input. Chunk boundaries do not affect the digest.
    #[inline]
    pub fn write(&mut self, mut bytes: &[u8]) {
        self.total = self.total.wrapping_add(bytes.len() as u64);
        let mut v = self.v;
        if self.ntail > 0 {
            let need = 8 - self.ntail;
            let take = need.min(bytes.len());
            self.tail |= load_le_short(&bytes[..take]) << (8 * self.ntail);
            if take < need {
                self.ntail += take;
                return;
            }
            v.compress(self.tail);
            bytes = &bytes[take..];
        }
        let mut blocks = bytes.chunks_exact(8);
        for block in &mut blocks {
            v.compress(u64::from_le_bytes(block.try_into().expect("8-byte chunk")));
        }
        let rest = blocks.remainder();
        self.v = v;
        self.tail = load_le_short(rest);
        self.ntail = rest.len();
    }

    /// Finalizes: pads the last block with the length byte, runs the
    /// four finalization rounds, and returns the 64-bit tag.
    #[inline]
    pub fn finish(self) -> u64 {
        let mut v = self.v;
        v.compress(self.tail | (self.total << 56));
        v.v2 ^= 0xff;
        v.round();
        v.round();
        v.round();
        v.round();
        v.v0 ^ v.v1 ^ v.v2 ^ v.v3
    }
}

/// One-shot SipHash-2-4 of a contiguous message.
pub fn siphash24(key: &[u8; 16], message: &[u8]) -> u64 {
    let mut h = SipHasher::new(key);
    h.write(message);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference key 00 01 02 … 0f from the SipHash paper.
    fn reference_key() -> [u8; 16] {
        let mut k = [0u8; 16];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    #[test]
    fn matches_reference_vectors() {
        // Expected tags for messages 00 01 … (len-1) under the
        // reference key, from the SipHash reference implementation's
        // vectors_sip64 table (little-endian u64s).
        let expected: [(usize, u64); 5] = [
            (0, 0x726f_db47_dd0e_0e31),
            (1, 0x74f8_39c5_93dc_67fd),
            (2, 0x0d6c_8009_d9a9_4f5a),
            (8, 0x93f5_f579_9a93_2462),
            (15, 0xa129_ca61_49be_45e5),
        ];
        let key = reference_key();
        for (len, want) in expected {
            let msg: Vec<u8> = (0..len as u8).collect();
            assert_eq!(siphash24(&key, &msg), want, "vector mismatch at len {len}");
        }
    }

    #[test]
    fn streaming_is_chunking_invariant() {
        let key = reference_key();
        let msg: Vec<u8> = (0..253u8).map(|i| i.wrapping_mul(31).wrapping_add(7)).collect();
        let oneshot = siphash24(&key, &msg);
        // Every split point of a two-chunk feed, plus a byte-at-a-time
        // feed, must reproduce the one-shot digest.
        for split in 0..=msg.len() {
            let mut h = SipHasher::new(&key);
            h.write(&msg[..split]);
            h.write(&msg[split..]);
            assert_eq!(h.finish(), oneshot, "diverged at split {split}");
        }
        let mut h = SipHasher::new(&key);
        for b in &msg {
            h.write(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), oneshot);
    }

    /// Known-answer oracle: std's (deprecated) `SipHasher` is
    /// SipHash-2-4 too. Random keys, every length 0–64, and every
    /// two-way and three-way split of the streaming `write` must agree
    /// with it. Three parts carry a partial block across consecutive
    /// writes shorter than 8 bytes (as `AuthKey::derive`'s 19 + 1 + 2
    /// does), which a two-way split reaches only once.
    #[test]
    #[allow(deprecated)]
    fn agrees_with_std_siphasher() {
        use std::hash::Hasher;
        let mut rng = crate::rng::Rng::seed_from_u64(0x5194_2400);
        for _ in 0..200 {
            let (k0, k1) = (rng.next_u64(), rng.next_u64());
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&k0.to_le_bytes());
            key[8..].copy_from_slice(&k1.to_le_bytes());
            for len in 0..=64 {
                let msg: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let mut oracle = std::hash::SipHasher::new_with_keys(k0, k1);
                oracle.write(&msg);
                let want = oracle.finish();
                assert_eq!(siphash24(&key, &msg), want, "one-shot, len {len}");
                for split in 0..=len {
                    let mut h = SipHasher::new(&key);
                    h.write(&msg[..split]);
                    h.write(&msg[split..]);
                    assert_eq!(h.finish(), want, "len {len}, split {split}");
                }
                for i in 0..=len {
                    for j in i..=len {
                        let mut h = SipHasher::new(&key);
                        h.write(&msg[..i]);
                        h.write(&msg[i..j]);
                        h.write(&msg[j..]);
                        assert_eq!(h.finish(), want, "len {len}, splits {i}, {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn key_and_message_sensitivity() {
        let key = reference_key();
        let msg = b"fadewich frame".to_vec();
        let tag = siphash24(&key, &msg);
        // Flipping any single key bit or message bit moves the tag.
        for byte in 0..16 {
            let mut k = key;
            k[byte] ^= 1;
            assert_ne!(siphash24(&k, &msg), tag, "key byte {byte} did not matter");
        }
        for byte in 0..msg.len() {
            let mut m = msg.clone();
            m[byte] ^= 1;
            assert_ne!(siphash24(&key, &m), tag, "message byte {byte} did not matter");
        }
        // Length-extension shape: same prefix, one more byte, new tag.
        let mut longer = msg.clone();
        longer.push(0);
        assert_ne!(siphash24(&key, &longer), tag);
    }
}
