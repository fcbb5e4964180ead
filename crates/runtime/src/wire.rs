//! The sensor wire codec.
//!
//! A live deployment's receiving sensors push their per-tick
//! measurements to the central station over an unreliable transport
//! (the paper's nodes used raw 2.4 GHz packets). Each report travels as
//! one self-delimiting binary [`Frame`]. Three header versions are on
//! the wire:
//!
//! ```text
//! v1 (single-office deployments; office id is implicitly 0)
//! offset  size  field
//! 0       2     magic        0xFADE, little-endian
//! 2       2     sensor       receiving sensor id
//! 4       4     seq          per-sensor send sequence number
//! 8       8     tick         day-local tick timestamp
//! 16      2     len          number of f32 samples (≤ MAX_PAYLOAD)
//! 18      4·len payload      samples, f32 little-endian
//! …       4     crc32        IEEE CRC-32 of all preceding bytes
//!
//! v2 (fleet deployments; adds the demux key)
//! offset  size  field
//! 0       2     magic        0xFAD2, little-endian
//! 2       2     office       tenant (office) id — the fleet demux key
//! 4       2     sensor       receiving sensor id
//! 6       4     seq          per-sensor send sequence number
//! 10      8     tick         day-local tick timestamp
//! 18      2     len          number of f32 samples (≤ MAX_PAYLOAD)
//! 20      4·len payload      samples, f32 little-endian
//! …       4     crc32        IEEE CRC-32 of all preceding bytes
//!
//! v3 (heterogeneous sensors; adds the channel kind)
//! offset  size  field
//! 0       2     magic        0xFAD7, little-endian
//! 2       2     office       tenant (office) id — the fleet demux key
//! 4       1     channel      ChannelKind tag (0 = RSSI, 1 = light)
//! 5       2     sensor       receiving sensor id
//! 7       4     seq          per-sensor send sequence number
//! 11      8     tick         day-local tick timestamp
//! 19      2     len          number of f32 samples (≤ MAX_PAYLOAD)
//! 21      4·len payload      samples, f32 little-endian
//! …       4     crc32        IEEE CRC-32 of all preceding bytes
//!
//! v4 (authenticated deployments; adds a keyed-MAC tag)
//! offset  size  field
//! 0       2     magic        0xFAD9, little-endian
//! 2       2     office       tenant (office) id — the fleet demux key
//! 4       1     channel      ChannelKind tag (0 = RSSI, 1 = light)
//! 5       8     mac          SipHash-2-4 tag over every other frame
//!                            byte except the CRC (see below)
//! 13      2     sensor       receiving sensor id
//! 15      4     seq          per-sensor send sequence number
//! 19      8     tick         day-local tick timestamp
//! 27      2     len          number of f32 samples (≤ MAX_PAYLOAD)
//! 29      4·len payload      samples, f32 little-endian
//! …       4     crc32        IEEE CRC-32 of all preceding bytes
//! ```
//!
//! The versions are distinguished by their magic (the three legacy
//! magics are pairwise two bit-flips apart, and the v4 magic is at
//! least *three* flips from each of them, so no ≤2-bit corruption can
//! move a frame across the authenticated/unauthenticated boundary),
//! and a station accepts a mixed stream: v1 frames decode with
//! `office = 0` (the single-office deployments of PR 2–6 are "office
//! 0" of a fleet), v1 and v2 frames both decode with `channel = Rssi`
//! (every pre-fusion sensor was an RSSI receiver), and
//! [`Frame::encode`] always emits the **oldest version that can
//! represent the frame** — v1 for office-0 RSSI, v2 for RSSI, v3 only
//! for non-RSSI channels — so existing byte streams, checkpoint
//! delivery positions and link-corruption draws are unchanged. v4 is
//! never picked implicitly: senders opt into authentication with
//! [`Frame::encode_auth`], which needs the sensor's key. Everything is
//! little-endian. The checksum lets the station reject corrupted
//! frames instead of feeding garbage samples into MD — the reorder
//! buffer then treats the tick as missing, which downstream gap-fill
//! handles gracefully.
//!
//! The v4 MAC is SipHash-2-4 under the sensor's 128-bit key
//! (`fadewich_core::auth`), computed over the frame bytes *minus* the
//! tag field and the trailing CRC — i.e. over `bytes[0..5] ‖
//! bytes[13..total−4]`: magic, office, channel, sensor, seq, tick,
//! len, payload. The CRC is then computed over the whole frame
//! including the tag, so the integrity check still covers every byte
//! on the wire. CRC answers "was this frame damaged?"; the MAC answers
//! "did a keyed sensor send it?" — an attacker without the key can
//! fabricate a frame that passes CRC (it is not a secret), but not one
//! that verifies (see [`FrameView::verify_mac`]).
//!
//! [`Frame::decode_borrowed`] is the zero-copy variant both hot paths
//! use: it validates exactly like [`Frame::decode`] but returns a
//! [`FrameView`] whose payload is a slice into the input buffer. The
//! fleet demux routes a frame by office id without allocating, and the
//! engine copies the view's samples straight into its reorder slot;
//! [`FrameView::to_frame`] remains for callers that want an owned
//! [`Frame`]. Decoding checks framing and CRC only — MAC verification
//! is a separate, keyed step the engine performs per its auth mode.

use fadewich_core::auth::AuthKey;
use fadewich_core::stream::ChannelKind;

/// v1 frame preamble, chosen to make byte-aligned garbage unlikely to
/// parse.
pub const FRAME_MAGIC: u16 = 0xFADE;

/// v2 frame preamble (header carries an office id).
pub const FRAME_MAGIC_V2: u16 = 0xFAD2;

/// v3 frame preamble (header carries an office id and a channel kind).
pub const FRAME_MAGIC_V3: u16 = 0xFAD7;

/// v4 frame preamble (header carries a keyed-MAC tag). Chosen at
/// Hamming distance ≥ 3 from every legacy magic so no ≤2-bit flip
/// crosses the authenticated/unauthenticated boundary.
pub const FRAME_MAGIC_V4: u16 = 0xFAD9;

/// Bytes before the payload in a v1 frame.
pub const HEADER_LEN: usize = 18;

/// Bytes before the payload in a v2 frame (v1 plus the office id).
pub const HEADER_LEN_V2: usize = 20;

/// Bytes before the payload in a v3 frame (v2 plus the channel tag).
pub const HEADER_LEN_V3: usize = 21;

/// Bytes before the payload in a v4 frame (v3 plus the 8-byte MAC tag).
pub const HEADER_LEN_V4: usize = 29;

/// Byte offset of the MAC tag inside a v4 frame (after magic, office,
/// channel).
const MAC_TAG_OFFSET: usize = 5;

/// Hard cap on samples per frame (a 9-sensor office has at most 8
/// streams per receiver; the cap only bounds hostile input).
pub const MAX_PAYLOAD: usize = 4096;

/// One sensor report on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Tenant (office) id; 0 for single-office deployments and for
    /// every v1 frame.
    pub office: u16,
    /// Channel kind of the samples; [`ChannelKind::Rssi`] for every
    /// v1 and v2 frame. Sensor ids are namespaced per kind.
    pub channel: ChannelKind,
    /// Receiving sensor id.
    pub sensor: u16,
    /// Per-sensor send sequence number (monotone at the sender).
    pub seq: u32,
    /// Day-local tick the samples belong to.
    pub tick: u64,
    /// Samples in the sensor's group order (RSSI links for an RF
    /// receiver, lux readings for a light sensor).
    pub values: Vec<f32>,
}

/// A decoded frame whose payload still lives in the caller's buffer —
/// the zero-copy view [`Frame::decode_borrowed`] returns. The payload
/// slice holds the f32 sample bits, little-endian, exactly as they
/// sit on the wire; [`FrameView::value`]/[`FrameView::values`] decode
/// them lazily and [`FrameView::to_frame`] materializes an owned
/// [`Frame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameView<'a> {
    /// Tenant (office) id (0 for v1 frames).
    pub office: u16,
    /// Channel kind ([`ChannelKind::Rssi`] for v1/v2 frames).
    pub channel: ChannelKind,
    /// Receiving sensor id.
    pub sensor: u16,
    /// Per-sensor send sequence number.
    pub seq: u32,
    /// Day-local tick the samples belong to.
    pub tick: u64,
    payload: &'a [u8],
    /// The carried MAC tag for v4 frames; `None` for v1–v3.
    mac: Option<u64>,
    /// The whole encoded frame (`bytes[..total]`), kept for keyed MAC
    /// verification without re-slicing at the call site.
    raw: &'a [u8],
}

impl<'a> FrameView<'a> {
    /// Number of f32 samples in the payload.
    pub fn len(&self) -> usize {
        self.payload.len() / 4
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// The raw little-endian f32 payload bytes (the borrowed slice).
    pub fn payload_bytes(&self) -> &'a [u8] {
        self.payload
    }

    /// Decodes sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn value(&self, i: usize) -> f32 {
        let o = 4 * i;
        f32::from_le_bytes([
            self.payload[o],
            self.payload[o + 1],
            self.payload[o + 2],
            self.payload[o + 3],
        ])
    }

    /// Iterates the samples without materializing a `Vec`.
    pub fn values(&self) -> impl Iterator<Item = f32> + 'a {
        self.payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
    }

    /// Whether the frame arrived with a v4 authenticated header.
    pub fn is_authenticated(&self) -> bool {
        self.mac.is_some()
    }

    /// The carried MAC tag (v4 frames only). Carrying a tag does not
    /// mean the tag is *valid* — see [`FrameView::verify_mac`].
    pub fn mac_tag(&self) -> Option<u64> {
        self.mac
    }

    /// Verifies the v4 MAC tag under `key`: recomputes SipHash-2-4
    /// over the frame bytes minus the tag field and CRC, and compares
    /// against the carried tag. Returns `false` for v1–v3 frames
    /// (nothing to verify) and for any tag mismatch.
    pub fn verify_mac(&self, key: &AuthKey) -> bool {
        match self.mac {
            Some(carried) => {
                let computed = key.tag_parts(
                    &self.raw[..MAC_TAG_OFFSET],
                    &self.raw[MAC_TAG_OFFSET + 8..self.raw.len() - 4],
                );
                computed == carried
            }
            None => false,
        }
    }

    /// Materializes an owned [`Frame`] (allocates the payload `Vec`).
    pub fn to_frame(&self) -> Frame {
        Frame {
            office: self.office,
            channel: self.channel,
            sensor: self.sensor,
            seq: self.seq,
            tick: self.tick,
            values: self.values().collect(),
        }
    }
}

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the declared (or minimum) frame length.
    Truncated,
    /// The first two bytes are none of [`FRAME_MAGIC`],
    /// [`FRAME_MAGIC_V2`], [`FRAME_MAGIC_V3`], or [`FRAME_MAGIC_V4`].
    BadMagic,
    /// A v3 header carries an unknown [`ChannelKind`] tag.
    BadChannel(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    BadLength(usize),
    /// The trailing CRC-32 does not match the frame contents.
    BadChecksum {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried by the frame.
        carried: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadChannel(t) => write!(f, "unknown channel kind tag {t}"),
            WireError::BadLength(n) => write!(f, "declared payload of {n} samples exceeds cap"),
            WireError::BadChecksum { computed, carried } => {
                write!(f, "checksum mismatch: computed {computed:#010x}, carried {carried:#010x}")
            }
        }
    }
}

impl std::error::Error for WireError {}

pub use fadewich_stats::checksum::crc32;

impl Frame {
    /// An office-0 RSSI frame — the shape every pre-fusion sender
    /// produced. Spares single-office call sites the channel field.
    pub fn rssi(sensor: u16, seq: u32, tick: u64, values: Vec<f32>) -> Frame {
        Frame { office: 0, channel: ChannelKind::Rssi, sensor, seq, tick, values }
    }

    /// Encoded size in bytes for the version [`Frame::encode`] picks
    /// (v1 for office-0 RSSI, v2 for RSSI, v3 otherwise).
    pub fn encoded_len(&self) -> usize {
        let header = if self.channel != ChannelKind::Rssi {
            HEADER_LEN_V3
        } else if self.office == 0 {
            HEADER_LEN
        } else {
            HEADER_LEN_V2
        };
        header + 4 * self.values.len() + 4
    }

    /// Appends the encoded frame to `out`, picking the oldest header
    /// version that can represent it: v1 for office-0 RSSI (so
    /// single-office streams are unchanged from the unversioned
    /// codec), v2 for RSSI from a nonzero office, v3 whenever the
    /// channel is not RSSI.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] samples.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        if self.channel != ChannelKind::Rssi {
            self.encode_v3_into(out);
        } else if self.office == 0 {
            self.encode_v1_into(out);
        } else {
            self.encode_v2_into(out);
        }
    }

    fn encode_v1_into(&self, out: &mut Vec<u8>) {
        assert!(self.values.len() <= MAX_PAYLOAD, "payload too large");
        let start = out.len();
        out.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.sensor.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tick.to_le_bytes());
        out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Appends the v2 encoding regardless of office id (office 0 is a
    /// legal v2 frame; [`Frame::encode`] just never picks it, for
    /// byte-compatibility with v1 streams).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] samples.
    pub fn encode_v2_into(&self, out: &mut Vec<u8>) {
        assert!(self.values.len() <= MAX_PAYLOAD, "payload too large");
        let start = out.len();
        out.extend_from_slice(&FRAME_MAGIC_V2.to_le_bytes());
        out.extend_from_slice(&self.office.to_le_bytes());
        out.extend_from_slice(&self.sensor.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tick.to_le_bytes());
        out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Appends the v3 encoding regardless of office or channel (an
    /// RSSI v3 frame is legal; [`Frame::encode`] just never picks it,
    /// for byte-compatibility with v1/v2 streams).
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] samples.
    pub fn encode_v3_into(&self, out: &mut Vec<u8>) {
        assert!(self.values.len() <= MAX_PAYLOAD, "payload too large");
        let start = out.len();
        out.extend_from_slice(&FRAME_MAGIC_V3.to_le_bytes());
        out.extend_from_slice(&self.office.to_le_bytes());
        out.push(self.channel.tag());
        out.extend_from_slice(&self.sensor.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tick.to_le_bytes());
        out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Encodes the frame into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Encoded size in bytes of the authenticated (v4) representation.
    pub fn encoded_len_auth(&self) -> usize {
        HEADER_LEN_V4 + 4 * self.values.len() + 4
    }

    /// Appends the authenticated v4 encoding: the header carries a
    /// SipHash-2-4 tag under the sensor's `key` over every frame byte
    /// except the tag field itself and the trailing CRC (which is then
    /// computed over the whole frame, tag included). Never picked by
    /// [`Frame::encode`] — authentication is an explicit sender
    /// decision, not a fallback.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds [`MAX_PAYLOAD`] samples.
    pub fn encode_auth_into(&self, key: &AuthKey, out: &mut Vec<u8>) {
        assert!(self.values.len() <= MAX_PAYLOAD, "payload too large");
        let start = out.len();
        out.extend_from_slice(&FRAME_MAGIC_V4.to_le_bytes());
        out.extend_from_slice(&self.office.to_le_bytes());
        out.push(self.channel.tag());
        out.extend_from_slice(&[0u8; 8]); // MAC tag, patched below
        out.extend_from_slice(&self.sensor.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.tick.to_le_bytes());
        out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            out.extend_from_slice(&v.to_le_bytes());
        }
        let tag = {
            let frame = &out[start..];
            key.tag_parts(&frame[..MAC_TAG_OFFSET], &frame[MAC_TAG_OFFSET + 8..])
        };
        let tag_at = start + MAC_TAG_OFFSET;
        out[tag_at..tag_at + 8].copy_from_slice(&tag.to_le_bytes());
        let crc = crc32(&out[start..]);
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Encodes the authenticated v4 frame into a fresh buffer.
    pub fn encode_auth(&self, key: &AuthKey) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len_auth());
        self.encode_auth_into(key, &mut out);
        out
    }

    /// Decodes one frame (either header version) from the start of
    /// `bytes`, returning it and the number of bytes consumed (so
    /// frames can be streamed from a concatenated buffer).
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; the buffer is never consumed on error.
    pub fn decode(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
        let (view, used) = Frame::decode_borrowed(bytes)?;
        Ok((view.to_frame(), used))
    }

    /// Zero-copy decode: identical validation to [`Frame::decode`]
    /// (magic, length cap, exact framing, CRC-32), but the returned
    /// [`FrameView`] borrows its payload from `bytes` instead of
    /// copying it — the fleet demux peeks the office id and routes the
    /// frame without allocating.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; the buffer is never consumed on error.
    pub fn decode_borrowed(bytes: &[u8]) -> Result<(FrameView<'_>, usize), WireError> {
        if bytes.len() < HEADER_LEN + 4 {
            return Err(WireError::Truncated);
        }
        let magic = u16::from_le_bytes([bytes[0], bytes[1]]);
        let (office, channel, header_len) = match magic {
            FRAME_MAGIC => (0u16, ChannelKind::Rssi, HEADER_LEN),
            FRAME_MAGIC_V2 => {
                (u16::from_le_bytes([bytes[2], bytes[3]]), ChannelKind::Rssi, HEADER_LEN_V2)
            }
            FRAME_MAGIC_V3 | FRAME_MAGIC_V4 => {
                let office = u16::from_le_bytes([bytes[2], bytes[3]]);
                let channel = match ChannelKind::from_tag(bytes[4]) {
                    Some(k) => k,
                    None => return Err(WireError::BadChannel(bytes[4])),
                };
                let header_len =
                    if magic == FRAME_MAGIC_V4 { HEADER_LEN_V4 } else { HEADER_LEN_V3 };
                (office, channel, header_len)
            }
            _ => return Err(WireError::BadMagic),
        };
        if bytes.len() < header_len + 4 {
            return Err(WireError::Truncated);
        }
        // Past the version-specific prefix all three layouts agree on
        // their last 16 header bytes: sensor, seq, tick, len.
        let rest = &bytes[header_len - 16..];
        let sensor = u16::from_le_bytes([rest[0], rest[1]]);
        let seq = u32::from_le_bytes([rest[2], rest[3], rest[4], rest[5]]);
        let tick = u64::from_le_bytes([
            rest[6], rest[7], rest[8], rest[9], rest[10], rest[11], rest[12], rest[13],
        ]);
        let len = u16::from_le_bytes([rest[14], rest[15]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(WireError::BadLength(len));
        }
        let total = header_len + 4 * len + 4;
        if bytes.len() < total {
            return Err(WireError::Truncated);
        }
        let computed = crc32(&bytes[..total - 4]);
        let carried = u32::from_le_bytes([
            bytes[total - 4],
            bytes[total - 3],
            bytes[total - 2],
            bytes[total - 1],
        ]);
        if computed != carried {
            return Err(WireError::BadChecksum { computed, carried });
        }
        let payload = &bytes[header_len..total - 4];
        let mac = (magic == FRAME_MAGIC_V4).then(|| {
            u64::from_le_bytes(
                bytes[MAC_TAG_OFFSET..MAC_TAG_OFFSET + 8].try_into().expect("8-byte tag"),
            )
        });
        Ok((FrameView { office, channel, sensor, seq, tick, payload, mac, raw: &bytes[..total] }, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let f = Frame::rssi(3, 41, 123_456, vec![-50.25, -61.5, 0.0]);
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn round_trip_v2_office() {
        let f = Frame {
            office: 777,
            channel: ChannelKind::Rssi,
            sensor: 3,
            seq: 41,
            tick: 123_456,
            values: vec![-50.25, -61.5, 0.0],
        };
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        assert_eq!(bytes.len(), HEADER_LEN_V2 + 4 * 3 + 4);
        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
    }

    #[test]
    fn v1_frames_decode_as_office_zero() {
        // The exact pre-fleet byte layout must still decode, with the
        // office defaulted to 0 — old sensors keep working unchanged.
        let f = Frame::rssi(5, 9, 1234, vec![-48.0, -52.5]);
        let bytes = f.encode();
        assert_eq!(u16::from_le_bytes([bytes[0], bytes[1]]), FRAME_MAGIC);
        assert_eq!(bytes.len(), HEADER_LEN + 4 * 2 + 4);
        let (back, _) = Frame::decode(&bytes).unwrap();
        assert_eq!(back.office, 0);
        assert_eq!(back, f);
    }

    #[test]
    fn office_zero_also_round_trips_through_v2() {
        // encode() picks v1 for office 0, but an explicitly v2-encoded
        // office-0 frame is legal and decodes to the same Frame.
        let f = Frame::rssi(2, 7, 99, vec![-44.0]);
        let mut v2 = Vec::new();
        f.encode_v2_into(&mut v2);
        assert_ne!(v2, f.encode(), "v2 bytes differ from the v1 default encoding");
        let (back, used) = Frame::decode(&v2).unwrap();
        assert_eq!(back, f);
        assert_eq!(used, v2.len());
    }

    #[test]
    fn decode_borrowed_matches_owned_decode() {
        // Differential: both paths must agree field-for-field and
        // byte-for-byte on every header version, and reject errors
        // identically (same variant, same consumed-nothing contract).
        let cases = [
            (0u16, ChannelKind::Rssi),
            (1, ChannelKind::Rssi),
            (41, ChannelKind::AmbientLight),
            (u16::MAX, ChannelKind::AmbientLight),
        ];
        for (office, channel) in cases {
            let f = Frame {
                office,
                channel,
                sensor: 3,
                seq: 10 + u32::from(office),
                tick: 5_000 + u64::from(office),
                values: vec![-50.0, -61.25, 7.5, f32::MIN_POSITIVE],
            };
            let bytes = f.encode();
            let (owned, n_owned) = Frame::decode(&bytes).unwrap();
            let (view, n_view) = Frame::decode_borrowed(&bytes).unwrap();
            assert_eq!(n_owned, n_view);
            assert_eq!(view.to_frame(), owned);
            assert_eq!(view.len(), owned.values.len());
            for (i, &v) in owned.values.iter().enumerate() {
                assert_eq!(view.value(i).to_bits(), v.to_bits());
            }
            let lazy: Vec<f32> = view.values().collect();
            assert_eq!(lazy, owned.values);
            // Error parity on corrupted input.
            for byte in 0..bytes.len() {
                let mut dirty = bytes.clone();
                dirty[byte] ^= 0x10;
                assert_eq!(
                    Frame::decode(&dirty).err(),
                    Frame::decode_borrowed(&dirty).err(),
                    "error divergence at byte {byte}"
                );
            }
        }
    }

    #[test]
    fn streams_from_concatenated_buffer() {
        let a = Frame::rssi(0, 0, 0, vec![1.0]);
        let b = Frame { office: 3, ..Frame::rssi(1, 0, 0, vec![2.0, 3.0]) };
        let c = Frame {
            office: 3,
            channel: ChannelKind::AmbientLight,
            ..Frame::rssi(0, 0, 0, vec![415.0])
        };
        let mut buf = a.encode();
        b.encode_into(&mut buf);
        c.encode_into(&mut buf);
        let (fa, na) = Frame::decode(&buf).unwrap();
        let (fb, nb) = Frame::decode(&buf[na..]).unwrap();
        let (fc, nc) = Frame::decode(&buf[na + nb..]).unwrap();
        assert_eq!((fa, fb, fc), (a, b, c));
        assert_eq!(na + nb + nc, buf.len());
    }

    #[test]
    fn round_trip_v3_light_channel() {
        let f = Frame {
            office: 12,
            channel: ChannelKind::AmbientLight,
            sensor: 2,
            seq: 31,
            tick: 9_876,
            values: vec![407.0, 415.0],
        };
        let bytes = f.encode();
        assert_eq!(u16::from_le_bytes([bytes[0], bytes[1]]), FRAME_MAGIC_V3);
        assert_eq!(bytes.len(), f.encoded_len());
        assert_eq!(bytes.len(), HEADER_LEN_V3 + 4 * 2 + 4);
        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(back, f);
        assert_eq!(used, bytes.len());
        // An office-0 light frame still needs the v3 header: the
        // channel, not the office, forces the version.
        let zero = Frame { office: 0, ..f };
        let zb = zero.encode();
        assert_eq!(u16::from_le_bytes([zb[0], zb[1]]), FRAME_MAGIC_V3);
        assert_eq!(Frame::decode(&zb).unwrap().0, zero);
    }

    #[test]
    fn rssi_frames_never_pay_for_the_v3_header() {
        // encode() picks the oldest representable version, but an
        // explicitly v3-encoded RSSI frame is legal and decodes to the
        // same Frame.
        let f = Frame { office: 5, ..Frame::rssi(1, 2, 3, vec![-47.5]) };
        assert_eq!(u16::from_le_bytes([f.encode()[0], f.encode()[1]]), FRAME_MAGIC_V2);
        let mut v3 = Vec::new();
        f.encode_v3_into(&mut v3);
        assert_eq!(u16::from_le_bytes([v3[0], v3[1]]), FRAME_MAGIC_V3);
        let (back, used) = Frame::decode(&v3).unwrap();
        assert_eq!(back, f);
        assert_eq!(used, v3.len());
    }

    #[test]
    fn unknown_channel_tag_rejected() {
        let f = Frame {
            office: 1,
            channel: ChannelKind::AmbientLight,
            ..Frame::rssi(1, 2, 3, vec![400.0])
        };
        let mut bytes = f.encode();
        bytes[4] = 7; // no such ChannelKind
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadChannel(7)));
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let frames = [
            Frame::rssi(7, 9, 77, vec![-48.0, -52.5]),
            Frame { office: 6, ..Frame::rssi(7, 9, 77, vec![-48.0, -52.5]) },
            Frame {
                office: 6,
                channel: ChannelKind::AmbientLight,
                ..Frame::rssi(7, 9, 77, vec![410.0, 395.5])
            },
        ];
        for f in frames {
            let clean = f.encode();
            for byte in 0..clean.len() {
                for bit in 0..8 {
                    let mut dirty = clean.clone();
                    dirty[byte] ^= 1 << bit;
                    match Frame::decode(&dirty) {
                        Err(_) => {}
                        // A flip in the `len` field can only make the frame
                        // longer (or oversize), never decode cleanly. Any
                        // two magics differ in two bits, so no single flip
                        // can turn one version header into another, and a
                        // flipped channel tag fails the CRC.
                        Ok((g, _)) => panic!("flip {byte}:{bit} decoded as {g:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn truncation_and_magic_errors() {
        let f = Frame::rssi(1, 2, 3, vec![4.0]);
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes[..10]), Err(WireError::Truncated));
        assert_eq!(Frame::decode(&bytes[..bytes.len() - 1]), Err(WireError::Truncated));
        let mut bad = bytes.clone();
        bad[0] = 0x00;
        assert_eq!(Frame::decode(&bad), Err(WireError::BadMagic));
        // A v2 frame truncated inside its office field is Truncated,
        // not misread as v1.
        let g = Frame { office: 9, ..Frame::rssi(1, 2, 3, vec![4.0]) };
        let v2 = g.encode();
        assert_eq!(Frame::decode(&v2[..HEADER_LEN + 3]), Err(WireError::Truncated));
        // Likewise a v3 frame truncated inside its channel/sensor area.
        let h = Frame {
            channel: ChannelKind::AmbientLight,
            ..Frame::rssi(1, 2, 3, vec![4.0])
        };
        let v3 = h.encode();
        assert_eq!(Frame::decode(&v3[..HEADER_LEN + 4]), Err(WireError::Truncated));
    }

    #[test]
    fn oversize_length_rejected_before_allocation() {
        let f = Frame::rssi(1, 2, 3, vec![4.0]);
        let mut bytes = f.encode();
        let huge = (MAX_PAYLOAD as u16 + 1).to_le_bytes();
        bytes[16] = huge[0];
        bytes[17] = huge[1];
        assert_eq!(Frame::decode(&bytes), Err(WireError::BadLength(MAX_PAYLOAD + 1)));
    }

    #[test]
    fn crc32_known_vector() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    fn test_key(sensor: u16) -> AuthKey {
        AuthKey::derive(0xD3B, sensor)
    }

    #[test]
    fn authenticated_round_trip_and_verify() {
        let f = Frame {
            office: 7,
            channel: ChannelKind::Rssi,
            sensor: 3,
            seq: 41,
            tick: 123_456,
            values: vec![-50.25, -61.5, 0.0],
        };
        let key = test_key(3);
        let bytes = f.encode_auth(&key);
        assert_eq!(bytes.len(), f.encoded_len_auth());
        assert_eq!(bytes.len(), HEADER_LEN_V4 + 4 * 3 + 4);
        assert_eq!(u16::from_le_bytes([bytes[0], bytes[1]]), FRAME_MAGIC_V4);
        let (view, used) = Frame::decode_borrowed(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(view.to_frame(), f);
        assert!(view.is_authenticated());
        assert!(view.mac_tag().is_some());
        assert!(view.verify_mac(&key), "a clean frame must verify under its own key");
        assert!(!view.verify_mac(&test_key(4)), "the wrong key must not verify");
        // The owned decode path agrees.
        let (owned, n) = Frame::decode(&bytes).unwrap();
        assert_eq!((owned, n), (f, bytes.len()));
    }

    #[test]
    fn legacy_frames_never_verify() {
        let f = Frame::rssi(3, 41, 77, vec![-50.0]);
        let key = test_key(3);
        for bytes in [f.encode(), {
            let mut b = Vec::new();
            f.encode_v2_into(&mut b);
            b
        }, {
            let mut b = Vec::new();
            f.encode_v3_into(&mut b);
            b
        }] {
            let (view, _) = Frame::decode_borrowed(&bytes).unwrap();
            assert!(!view.is_authenticated());
            assert_eq!(view.mac_tag(), None);
            assert!(!view.verify_mac(&key), "v1–v3 frames carry nothing to verify");
        }
    }

    #[test]
    fn encode_never_picks_v4_implicitly() {
        // Authentication is opt-in: encode() still emits the oldest
        // legacy version, so pre-auth byte streams are untouched.
        for f in [
            Frame::rssi(1, 2, 3, vec![-47.0]),
            Frame { office: 9, ..Frame::rssi(1, 2, 3, vec![-47.0]) },
            Frame {
                office: 9,
                channel: ChannelKind::AmbientLight,
                ..Frame::rssi(1, 2, 3, vec![410.0])
            },
        ] {
            let magic = u16::from_le_bytes([f.encode()[0], f.encode()[1]]);
            assert_ne!(magic, FRAME_MAGIC_V4);
        }
    }

    #[test]
    fn tampered_authenticated_frames_fail_verification() {
        // Flip each payload/header byte, repair the CRC so framing
        // passes, and require the MAC to catch the change (the CRC is
        // not a defense — anyone can recompute it).
        let f = Frame {
            office: 2,
            channel: ChannelKind::Rssi,
            sensor: 1,
            seq: 5,
            tick: 900,
            values: vec![-42.0, -55.5],
        };
        let key = test_key(1);
        let clean = f.encode_auth(&key);
        let n = clean.len();
        for byte in 2..n - 4 {
            let mut forged = clean.clone();
            forged[byte] ^= 0x04;
            let crc = crc32(&forged[..n - 4]);
            forged[n - 4..].copy_from_slice(&crc.to_le_bytes());
            match Frame::decode_borrowed(&forged) {
                // Framing may still reject (e.g. a flip in len or the
                // channel tag); that is an acceptable rejection too.
                Err(_) => {}
                Ok((view, _)) => {
                    assert!(
                        !view.verify_mac(&key),
                        "tampered byte {byte} still verified"
                    );
                }
            }
        }
    }

    #[test]
    fn v4_magic_is_three_flips_from_every_legacy_magic() {
        for legacy in [FRAME_MAGIC, FRAME_MAGIC_V2, FRAME_MAGIC_V3] {
            let dist = (legacy ^ FRAME_MAGIC_V4).count_ones();
            assert!(dist >= 3, "magic {legacy:#06x} is only {dist} flips from v4");
        }
    }

    #[test]
    fn no_two_bit_flip_of_a_v4_frame_decodes_as_any_valid_frame() {
        // The adversarial version-negotiation property: corrupting an
        // authenticated frame by ≤2 bit flips must never yield a
        // *decodable* frame of any version. Magic distance ≥3 blocks
        // version crossings; CRC-32 (Hamming distance 4 at these
        // lengths) blocks everything else; a flip in `len` only makes
        // the frame longer or oversize under exact framing.
        let f = Frame {
            office: 3,
            channel: ChannelKind::Rssi,
            sensor: 2,
            seq: 9,
            tick: 1234,
            values: vec![-48.5, -51.0],
        };
        let clean = f.encode_auth(&test_key(2));
        let n_bits = clean.len() * 8;
        let flip = |buf: &mut [u8], bit: usize| buf[bit / 8] ^= 1 << (bit % 8);
        for a in 0..n_bits {
            // Single flips...
            let mut dirty = clean.clone();
            flip(&mut dirty, a);
            assert!(Frame::decode(&dirty).is_err(), "1-flip at bit {a} decoded");
            // ...and every pair containing `a`.
            for b in a + 1..n_bits {
                let mut dirty = clean.clone();
                flip(&mut dirty, a);
                flip(&mut dirty, b);
                assert!(
                    Frame::decode(&dirty).is_err(),
                    "2-flip at bits {a},{b} decoded"
                );
            }
        }
    }
}
