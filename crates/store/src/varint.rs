//! LEB128 variable-length integers: every integer block of format
//! versions 1 to 3, and from version 4 the scalars of a packed block
//! ([`crate::pack`]) and the stems block. Nothing writes versions 1 to 3
//! any more and their chunks are only ever decoded whole, so a column
//! is decoded one byte at a time by [`get_u64`], and there is no way to
//! step over one.
//!
//! Sorted or clustered columns (submit times, sequential job ids) encode
//! as deltas between consecutive values. Deltas are taken with
//! `wrapping_sub`, which is exact for *every* pair of `u64`s (unlike
//! zigzag-of-`i64`, which cannot represent differences beyond ±2⁶³):
//! decoding adds the delta back with `wrapping_add`. Near-sorted columns
//! produce tiny deltas and therefore one-byte varints; pathological
//! columns degrade gracefully to ≤ 10 bytes per value.

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

/// Append a whole column of raw values as varints.
#[cfg(test)]
pub(crate) fn put_column(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    for v in values {
        put_u64(out, v);
    }
}

/// Append a column as wrapping deltas from the previous value (first value
/// is a delta from zero).
#[cfg(test)]
pub(crate) fn put_delta_column(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    let mut prev = 0u64;
    for v in values {
        put_u64(out, v.wrapping_sub(prev));
        prev = v;
    }
}

/// Reject counts no buffer of this size could hold (each varint is at
/// least one byte) *before* reserving memory for them: `n` comes from
/// untrusted file metadata, and `Vec::with_capacity(huge)` aborts rather
/// than erroring.
fn check_count(buf: &[u8], pos: usize, n: usize) -> Result<(), StoreError> {
    if n > buf.len().saturating_sub(pos) {
        return Err(StoreError::Corrupt {
            context: "column count exceeds remaining chunk bytes",
        });
    }
    Ok(())
}

/// Decode `n` varints one byte at a time, passing each through `next`
/// (identity, or the running sum of a delta column).
fn get_column_with(
    buf: &[u8],
    pos: &mut usize,
    n: usize,
    mut next: impl FnMut(u64) -> u64,
) -> Result<Vec<u64>, StoreError> {
    check_count(buf, *pos, n)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(next(get_u64(buf, pos)?));
    }
    Ok(out)
}

/// Decode `n` raw varints.
pub fn get_column(buf: &[u8], pos: &mut usize, n: usize) -> Result<Vec<u64>, StoreError> {
    get_column_with(buf, pos, n, |v| v)
}

/// Decode `n` wrapping-delta varints back into absolute values.
pub fn get_delta_column(buf: &[u8], pos: &mut usize, n: usize) -> Result<Vec<u64>, StoreError> {
    let mut prev = 0u64;
    get_column_with(buf, pos, n, |delta| {
        prev = prev.wrapping_add(delta);
        prev
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[u64]) {
        let mut buf = Vec::new();
        put_column(&mut buf, values.iter().copied());
        let mut pos = 0;
        assert_eq!(get_column(&buf, &mut pos, values.len()).unwrap(), values);
        assert_eq!(pos, buf.len());

        let mut buf = Vec::new();
        put_delta_column(&mut buf, values.iter().copied());
        let mut pos = 0;
        assert_eq!(
            get_delta_column(&buf, &mut pos, values.len()).unwrap(),
            values
        );
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn extremes_round_trip() {
        round_trip(&[0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX, 0, u64::MAX]);
    }

    #[test]
    fn sorted_values_encode_small() {
        let values: Vec<u64> = (0..1000u64).map(|i| 1_000_000 + i * 3).collect();
        let mut raw = Vec::new();
        put_column(&mut raw, values.iter().copied());
        let mut delta = Vec::new();
        put_delta_column(&mut delta, values.iter().copied());
        // Deltas of 3 take one byte each (plus the initial absolute value).
        assert!(
            delta.len() < raw.len() / 2,
            "{} !< {}/2",
            delta.len(),
            raw.len()
        );
        assert!(delta.len() <= 1000 + 4);
    }

    #[test]
    fn wrapping_delta_handles_descending() {
        round_trip(&[u64::MAX, 0, 5, 2, u64::MAX - 1]);
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
    fn absurd_count_rejected_before_allocation() {
        // A crafted count far beyond the buffer must error, not reserve.
        let buf = [1u8; 8];
        let mut pos = 0;
        assert!(get_column(&buf, &mut pos, usize::MAX).is_err());
        let mut pos = 0;
        assert!(get_delta_column(&buf, &mut pos, 1 << 40).is_err());
    }

    #[test]
    fn nine_and_ten_byte_varints_take_the_checked_path() {
        // 2^63 needs ten bytes; the tenth may carry one bit and no more.
        for value in [1 << 56, (1 << 63) - 1, 1 << 63, u64::MAX] {
            let mut buf = vec![0x05];
            put_u64(&mut buf, value);
            buf.extend_from_slice(&[0x07; 9]);
            let mut pos = 0;
            let values = get_column(&buf, &mut pos, 3).unwrap();
            assert_eq!(values, [5, value, 7]);
            assert_eq!(pos, buf.len() - 8);
        }
        let mut overflow = vec![0xFF; 9];
        overflow.extend_from_slice(&[0x02; 9]);
        for start in [0, 1] {
            let mut buf = vec![0x01; start];
            buf.extend_from_slice(&overflow);
            assert!(matches!(
                get_column(&buf, &mut 0, start + 1),
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
