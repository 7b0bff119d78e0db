//! Compact binary serialization for [`NeighborTable`] — neighbor tables
//! for millions of points are expensive to recompute (the whole point of
//! the paper), so pipelines persist them between stages, and the serving
//! layer ships them over the wire as query responses.
//!
//! Format v2 (little-endian), generic over the element precision:
//!
//! ```text
//! magic     "GSNT"        4 bytes
//! version   u16           currently 2
//! precision u8            bytes per stored distance: 8 (f64) or 4 (f32)
//! m         u64           rows
//! k         u64           neighbors per row
//! rows      m·k × (f64|f32 dist, u32 idx)
//! ```
//!
//! Readers accept v2 only; any other version is
//! [`DecodeError::BadVersion`].
//!
//! Sentinels round-trip exactly (dist = +∞, idx = `u32::MAX`).

use crate::{Neighbor, NeighborTable};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use gsknn_scalar::GsknnScalar;

const MAGIC: &[u8; 4] = b"GSNT";
const VERSION: u16 = 2;

/// Why a buffer failed to decode.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes — not a neighbor table.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// v2 header names a precision this build cannot represent losslessly
    /// in the requested element type (e.g. reading an f32 table as
    /// `NeighborTable<f64>` is fine; the stored byte width must still be
    /// one of 4/8).
    BadPrecision(u8),
    /// Buffer ended before the declared `m × k` rows.
    Truncated,
    /// A stored distance was NaN (tables never contain NaN).
    CorruptDistance,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a neighbor table (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadPrecision(b) => write!(f, "unsupported stored precision ({b} bytes)"),
            DecodeError::Truncated => write!(f, "buffer truncated"),
            DecodeError::CorruptDistance => write!(f, "NaN distance in stored table"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Write one distance at the precision of `T` (f32 tables store 4-byte
/// distances, everything else 8).
#[inline]
fn put_dist<T: GsknnScalar, B: BufMut>(buf: &mut B, v: T) {
    if T::BYTES == 4 {
        buf.put_f32_le(v.to_f64() as f32);
    } else {
        buf.put_f64_le(v.to_f64());
    }
}

/// Read one distance stored at `stored_bytes` width into `T`.
#[inline]
fn get_dist<T: GsknnScalar>(buf: &mut &[u8], stored_bytes: u8) -> T {
    let wide = if stored_bytes == 4 {
        buf.get_f32_le() as f64
    } else {
        buf.get_f64_le()
    };
    T::from_f64(wide)
}

impl<T: GsknnScalar> NeighborTable<T> {
    /// Serialize to the binary format above (always writes v2, stamping
    /// the table's element precision in the header).
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Exact byte length [`NeighborTable::encode_into`] appends.
    pub fn encoded_len(&self) -> usize {
        4 + 2 + 1 + 16 + self.len() * self.k() * (T::BYTES + 4)
    }

    /// Append the v2 encoding to an existing buffer — byte-identical to
    /// [`NeighborTable::to_bytes`], but reusing the caller's allocation
    /// (the serving hot path encodes into a per-connection output buffer
    /// that never reallocates at steady state).
    pub fn encode_into<B: BufMut>(&self, buf: &mut B) {
        let m = self.len();
        let k = self.k();
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u8(T::BYTES as u8);
        buf.put_u64_le(m as u64);
        buf.put_u64_le(k as u64);
        for i in 0..m {
            for nb in self.row(i) {
                put_dist(buf, nb.dist);
                buf.put_u32_le(nb.idx);
            }
        }
    }

    /// [`NeighborTable::encode_into`] with every real neighbor id shifted
    /// by `idx_offset` — how a partitioned backend stamps *global*
    /// reference ids into its reply without touching the table itself
    /// (the table holds partition-local ids; the partition's row offset
    /// is applied during the wire write, so the hot path still performs
    /// no allocation). Sentinel slots (`idx == u32::MAX`) are preserved
    /// untouched, and real ids saturate rather than wrap into the
    /// sentinel range on a (nonsensical) overflowing offset.
    pub fn encode_into_with_offset<B: BufMut>(&self, buf: &mut B, idx_offset: u32) {
        let m = self.len();
        let k = self.k();
        buf.put_slice(MAGIC);
        buf.put_u16_le(VERSION);
        buf.put_u8(T::BYTES as u8);
        buf.put_u64_le(m as u64);
        buf.put_u64_le(k as u64);
        for i in 0..m {
            for nb in self.row(i) {
                put_dist(buf, nb.dist);
                let idx = if nb.idx == u32::MAX {
                    u32::MAX
                } else {
                    nb.idx.saturating_add(idx_offset).min(u32::MAX - 1)
                };
                buf.put_u32_le(idx);
            }
        }
    }

    /// Decode a buffer produced by [`NeighborTable::to_bytes`] — v2 at
    /// either stored precision (distances are converted to `T`).
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self, DecodeError> {
        if buf.remaining() < 4 + 2 {
            return Err(DecodeError::Truncated);
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        let stored_bytes = buf.get_u8();
        if stored_bytes != 4 && stored_bytes != 8 {
            return Err(DecodeError::BadPrecision(stored_bytes));
        }
        if buf.remaining() < 16 {
            return Err(DecodeError::Truncated);
        }
        let m = buf.get_u64_le() as usize;
        let k = buf.get_u64_le() as usize;
        let need = m
            .checked_mul(k)
            .and_then(|v| v.checked_mul(stored_bytes as usize + 4))
            .ok_or(DecodeError::Truncated)?;
        if buf.remaining() < need {
            return Err(DecodeError::Truncated);
        }
        let mut table = NeighborTable::new(m, k);
        let mut row = Vec::with_capacity(k);
        for i in 0..m {
            row.clear();
            let mut real = 0usize;
            for _ in 0..k {
                let dist: T = get_dist(&mut buf, stored_bytes);
                let idx = buf.get_u32_le();
                if dist.is_nan() {
                    return Err(DecodeError::CorruptDistance);
                }
                if dist.is_finite() {
                    real += 1;
                }
                row.push(Neighbor { dist, idx });
            }
            // rows are stored sorted with sentinels trailing; re-assert
            // via set_row (which sentinel-pads the tail)
            table.set_row(i, &row[..real]);
        }
        Ok(table)
    }
}

/// Byte length of the encoded table at the head of `buf` without
/// decoding it — header sniffing for protocols that append trailing
/// data after the table (e.g. the serving layer's span annex). `None`
/// if the head is not a structurally plausible v2 table (bad magic or
/// version, truncated header, overflowing `m × k`, or fewer bytes than
/// the declared rows). All arithmetic is checked; arbitrary bytes never
/// panic.
pub fn encoded_len_of(buf: &[u8]) -> Option<usize> {
    let header_len = 4 + 2 + 1 + 16;
    if buf.len() < header_len
        || &buf[..4] != MAGIC
        || u16::from_le_bytes([buf[4], buf[5]]) != VERSION
    {
        return None;
    }
    let stored_bytes = buf[6] as usize;
    if stored_bytes != 4 && stored_bytes != 8 {
        return None;
    }
    let dims = &buf[header_len - 16..header_len];
    let m = u64::from_le_bytes(dims[..8].try_into().unwrap()) as usize;
    let k = u64::from_le_bytes(dims[8..].try_into().unwrap()) as usize;
    let rows = m.checked_mul(k)?.checked_mul(stored_bytes + 4)?;
    let total = header_len.checked_add(rows)?;
    if buf.len() < total {
        return None;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NeighborTable {
        let mut t = NeighborTable::new(3, 2);
        t.set_row(0, &[Neighbor::new(0.25, 7), Neighbor::new(1.5, 3)]);
        t.set_row(1, &[Neighbor::new(0.125, 9)]); // partial row: one sentinel
        t
    }

    fn sample_f32() -> NeighborTable<f32> {
        let mut t = NeighborTable::<f32>::new(2, 3);
        t.set_row(
            0,
            &[
                Neighbor::new(0.5f32, 2),
                Neighbor::new(0.75, 11),
                Neighbor::new(2.0, 1),
            ],
        );
        t.set_row(1, &[Neighbor::new(0.0625f32, 4)]);
        t
    }

    #[test]
    fn round_trip_exact() {
        let t = sample();
        let bytes = t.to_bytes();
        let back = NeighborTable::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.k(), 2);
        for i in 0..3 {
            assert_eq!(back.row(i), t.row(i), "row {i}");
        }
    }

    #[test]
    fn f32_round_trip_exact() {
        let t = sample_f32();
        let bytes = t.to_bytes();
        // header carries the 4-byte precision tag
        assert_eq!(bytes[6], 4);
        let back = NeighborTable::<f32>::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.k(), 3);
        for i in 0..2 {
            assert_eq!(back.row(i), t.row(i), "row {i}");
        }
    }

    #[test]
    fn f32_payload_widens_into_f64_reader() {
        let bytes = sample_f32().to_bytes();
        let wide = NeighborTable::<f64>::from_bytes(&bytes).unwrap();
        assert_eq!(wide.row(0)[1].idx, 11);
        assert_eq!(wide.row(0)[1].dist, 0.75);
        assert_eq!(wide.row(1)[1], Neighbor::sentinel());
    }

    #[test]
    fn legacy_v1_payload_is_rejected_with_bad_version() {
        // a well-formed v1 table: version 1, no precision byte, f64 rows
        let mut v1 = sample().to_bytes().to_vec();
        v1[4] = 1;
        v1.remove(6);
        assert_eq!(
            NeighborTable::<f64>::from_bytes(&v1).unwrap_err(),
            DecodeError::BadVersion(1)
        );
        assert_eq!(
            NeighborTable::<f32>::from_bytes(&v1).unwrap_err(),
            DecodeError::BadVersion(1)
        );
        assert_eq!(encoded_len_of(&v1), None);
        // every prefix is a typed error as well, never a panic
        for cut in 0..v1.len() {
            assert!(NeighborTable::<f64>::from_bytes(&v1[..cut]).is_err());
            assert_eq!(encoded_len_of(&v1[..cut]), None);
        }
    }

    #[test]
    fn encode_into_matches_to_bytes() {
        let t = sample();
        let mut out = Vec::with_capacity(t.encoded_len());
        out.extend_from_slice(b"prefix"); // appends, never truncates
        t.encode_into(&mut out);
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &t.to_bytes()[..]);
        assert_eq!(out.len() - 6, t.encoded_len());

        let t32 = sample_f32();
        let mut out32 = Vec::new();
        t32.encode_into(&mut out32);
        assert_eq!(&out32[..], &t32.to_bytes()[..]);
        assert_eq!(out32.len(), t32.encoded_len());
    }

    #[test]
    fn offset_encoding_shifts_real_ids_and_preserves_sentinels() {
        let t = sample(); // row 1 has one real entry + one sentinel
        let mut out = Vec::new();
        t.encode_into_with_offset(&mut out, 1000);
        let back = NeighborTable::<f64>::from_bytes(&out).unwrap();
        assert_eq!(back.row(0)[0].idx, 1007);
        assert_eq!(back.row(0)[1].idx, 1003);
        assert_eq!(back.row(1)[0].idx, 1009);
        assert_eq!(back.row(1)[1], Neighbor::sentinel(), "sentinel untouched");
        // distances are byte-identical to the unshifted encoding
        for i in 0..t.len() {
            for (a, b) in back.row(i).iter().zip(t.row(i)) {
                assert_eq!(a.dist.to_bits(), b.dist.to_bits());
            }
        }
        // offset 0 is byte-identical to the plain encoder
        let mut zero = Vec::new();
        t.encode_into_with_offset(&mut zero, 0);
        assert_eq!(&zero[..], &t.to_bytes()[..]);
    }

    #[test]
    fn empty_table_round_trips() {
        let t = NeighborTable::<f64>::new(0, 5);
        let back = NeighborTable::<f64>::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back.len(), 0);
        assert_eq!(back.k(), 5);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes[0] = b'X';
        assert_eq!(
            NeighborTable::<f64>::from_bytes(&bytes).unwrap_err(),
            DecodeError::BadMagic
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes[4] = 9;
        assert_eq!(
            NeighborTable::<f64>::from_bytes(&bytes).unwrap_err(),
            DecodeError::BadVersion(9)
        );
    }

    #[test]
    fn wrong_precision_byte_rejected() {
        let mut bytes = sample().to_bytes().to_vec();
        bytes[6] = 2; // not 4 or 8
        assert_eq!(
            NeighborTable::<f64>::from_bytes(&bytes).unwrap_err(),
            DecodeError::BadPrecision(2)
        );
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample().to_bytes();
        for cut in [0usize, 3, 6, 10, bytes.len() - 1] {
            assert_eq!(
                NeighborTable::<f64>::from_bytes(&bytes[..cut]).unwrap_err(),
                DecodeError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn nan_distance_rejected() {
        let mut bytes = sample().to_bytes().to_vec();
        // overwrite the first row's first dist (offset 23: 4 magic +
        // 2 version + 1 precision + 16 header) with NaN
        bytes[23..31].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            NeighborTable::<f64>::from_bytes(&bytes).unwrap_err(),
            DecodeError::CorruptDistance
        );
    }

    #[test]
    fn encoded_len_of_splits_table_from_trailing_bytes() {
        let bytes = sample().to_bytes().to_vec();
        assert_eq!(encoded_len_of(&bytes), Some(bytes.len()));
        let mut with_tail = bytes.clone();
        with_tail.extend_from_slice(b"span annex trails here");
        assert_eq!(encoded_len_of(&with_tail), Some(bytes.len()));
        // f32 tables too
        let f32_bytes = sample_f32().to_bytes().to_vec();
        assert_eq!(encoded_len_of(&f32_bytes), Some(f32_bytes.len()));
        // structurally bad heads yield None, never a panic
        assert_eq!(encoded_len_of(b""), None);
        assert_eq!(encoded_len_of(b"XXXXXX"), None);
        let bytes = sample().to_bytes();
        assert_eq!(encoded_len_of(&bytes[..bytes.len() - 1]), None);
        let mut bad_prec = bytes.to_vec();
        bad_prec[6] = 2;
        assert_eq!(encoded_len_of(&bad_prec), None);
        let mut huge = Vec::new();
        huge.extend_from_slice(b"GSNT");
        huge.extend_from_slice(&2u16.to_le_bytes());
        huge.push(8);
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        huge.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(encoded_len_of(&huge), None);
    }

    #[test]
    fn oversized_header_does_not_overflow() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GSNT");
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.push(8);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // m
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // k
        assert_eq!(
            NeighborTable::<f64>::from_bytes(&buf).unwrap_err(),
            DecodeError::Truncated
        );
    }
}
