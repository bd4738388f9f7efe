//! LEB128 varints: the encoding of a trace's dynamic columns.
//!
//! A value is stored seven bits per byte, least significant group first,
//! with the high bit set on every byte but the last. Only the minimal
//! encoding of each value is accepted ([`count`]), so a decoded stream
//! re-encodes byte for byte. Signed deltas go through [`zigzag`] first,
//! which maps small magnitudes of either sign to small values.

/// Longest encoding of a `u64`: nine 7-bit groups and one last bit.
const MAX_LEN: usize = 10;

/// Appends the minimal encoding of `value` to `buf`.
pub(crate) fn put(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push(value as u8 | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Reads the varint at `*pos` and moves past it. `bytes` must be a
/// stream [`count`] accepted, and `*pos` the start of one of its varints.
#[inline]
pub(crate) fn read(bytes: &[u8], pos: &mut usize) -> u64 {
    let first = bytes[*pos];
    *pos += 1;
    if first < 0x80 {
        u64::from(first)
    } else {
        read_tail(bytes, pos, first)
    }
}

/// The rest of a varint longer than one byte, whose first byte was
/// `first`.
#[inline(never)]
fn read_tail(bytes: &[u8], pos: &mut usize, first: u8) -> u64 {
    let mut value = u64::from(first & 0x7F);
    let mut shift = 7;
    loop {
        let byte = bytes[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7F) << shift;
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

/// Why a byte stream is not a sequence of minimal varints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Defect {
    /// A varint with a redundant zero last group.
    Overlong,
    /// A varint whose value needs more than 64 bits.
    TooWide,
    /// A varint still open at the end of the stream.
    CutOff,
}

/// The number of varints in `bytes`, or the index and defect of the first
/// that is not the minimal encoding of a `u64`.
pub(crate) fn count(bytes: &[u8]) -> Result<usize, (usize, Defect)> {
    let (mut entries, mut len) = (0usize, 0usize);
    for &byte in bytes {
        len += 1;
        // The tenth byte holds bit 63 alone.
        if len == MAX_LEN && byte > 1 {
            return Err((entries, Defect::TooWide));
        }
        if byte < 0x80 {
            if byte == 0 && len > 1 {
                return Err((entries, Defect::Overlong));
            }
            entries += 1;
            len = 0;
        }
    }
    if len > 0 {
        return Err((entries, Defect::CutOff));
    }
    Ok(entries)
}

/// Maps a two's-complement delta to an unsigned value whose magnitude
/// grows with the delta's: 0, -1, 1, -2, ... become 0, 1, 2, 3, ...
#[inline]
pub(crate) fn zigzag(delta: u64) -> u64 {
    (delta << 1) ^ ((delta as i64 >> 63) as u64)
}

/// The inverse of [`zigzag`].
#[inline]
pub(crate) fn unzigzag(value: u64) -> u64 {
    (value >> 1) ^ (value & 1).wrapping_neg()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(value: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        put(&mut buf, value);
        buf
    }

    #[test]
    fn values_roundtrip_at_every_length() {
        let values =
            [0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u64::from(u32::MAX), u64::MAX >> 1, u64::MAX];
        let mut stream = Vec::new();
        for &v in &values {
            put(&mut stream, v);
        }
        assert_eq!(encoded(0x7F).len(), 1);
        assert_eq!(encoded(0x80).len(), 2);
        assert_eq!(encoded(u64::MAX), [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]);
        assert_eq!(count(&stream), Ok(values.len()));
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read(&stream, &mut pos), v);
        }
        assert_eq!(pos, stream.len());
    }

    #[test]
    fn only_minimal_complete_64_bit_encodings_count() {
        assert_eq!(count(&[]), Ok(0));
        assert_eq!(count(&[0x05, 0x85, 0x00]), Err((1, Defect::Overlong)));
        assert_eq!(count(&[0x80, 0x80, 0x00]), Err((0, Defect::Overlong)));
        assert_eq!(count(&[0x05, 0x80]), Err((1, Defect::CutOff)));
        let mut wide = vec![0xFF; 9];
        wide.push(0x02);
        assert_eq!(count(&wide), Err((0, Defect::TooWide)));
        wide[9] = 0x81;
        assert_eq!(count(&wide), Err((0, Defect::TooWide)));
        wide[9] = 0x00;
        assert_eq!(count(&wide), Err((0, Defect::Overlong)));
        wide[9] = 0x01;
        assert_eq!(count(&wide), Ok(1));
    }

    #[test]
    fn zigzag_orders_deltas_by_magnitude() {
        let pairs =
            [(0u64, 0u64), (u64::MAX, 1), (1, 2), (-2i64 as u64, 3), (i64::MIN as u64, u64::MAX)];
        for (delta, value) in pairs {
            assert_eq!(zigzag(delta), value);
            assert_eq!(unzigzag(value), delta);
        }
    }
}
