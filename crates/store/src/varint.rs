//! LEB128 variable-length integers: the scalars of a packed block
//! ([`crate::pack`]) — its minimum, exception count and exceptions — and
//! the counts and lengths of the stems block. Each value takes a byte
//! per seven bits or part, at most ten.

use crate::StoreError;

/// Append `value` as LEB128.
pub fn put_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode one LEB128 value from `buf` starting at `*pos`, advancing it.
pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(StoreError::Truncated {
            context: "varint runs past end of chunk",
        })?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(StoreError::Corrupt {
                context: "varint overflows u64",
            });
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `values` written back to back, then read back one at a time.
    fn round_trip(values: &[u64]) {
        let mut buf = Vec::new();
        for &v in values {
            put_u64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in values {
            assert_eq!(get_u64(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn extremes_round_trip() {
        round_trip(&[0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX, 0, u64::MAX]);
    }

    #[test]
    fn truncated_varint_is_error() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 60);
        buf.pop();
        let mut pos = 0;
        assert!(get_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn nine_and_ten_byte_varints_take_the_checked_path() {
        // 2^63 needs ten bytes; the tenth may carry one bit and no more.
        for value in [1 << 56, (1 << 63) - 1, 1 << 63, u64::MAX] {
            round_trip(&[5, value, 7]);
        }
        let mut overflow = vec![0xFF; 9];
        overflow.push(0x02);
        for start in [0, 1] {
            let mut buf = vec![0x01; start];
            buf.extend_from_slice(&overflow);
            let mut pos = start;
            assert!(matches!(
                get_u64(&buf, &mut pos),
                Err(StoreError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn overlong_varint_is_error() {
        // 11 continuation bytes would encode more than 64 bits.
        let buf = [0xFFu8; 11];
        let mut pos = 0;
        assert!(get_u64(&buf, &mut pos).is_err());
    }
}
