//! LEB128 variable-length integers: every integer block of format
//! versions 1 to 3, and the scalars of a version-4 packed block
//! ([`crate::pack`]) and its stems block.
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

/// Bit 7 of every byte of a word: set in the continuation bytes of the
/// varints it holds.
const CONTINUATION: u64 = 0x8080_8080_8080_8080;

/// The eight bytes at `p` as a little-endian word, `None` within seven
/// bytes of the end.
#[inline]
fn load_word(buf: &[u8], p: usize) -> Option<u64> {
    let bytes = buf.get(p..p.checked_add(8)?)?;
    Some(u64::from_le_bytes(<[u8; 8]>::try_from(bytes).ok()?))
}

/// Squeeze the continuation bits out of a varint of at most eight bytes
/// held in the low bytes of `v` (higher bytes zero): three shift-and-mask
/// steps pair the 7-bit groups into 14, 28 and 56 bits.
#[inline]
fn compact(v: u64) -> u64 {
    let v = v & !CONTINUATION;
    let v = (v & 0x007F_007F_007F_007F) | ((v & 0x7F00_7F00_7F00_7F00) >> 1);
    let v = (v & 0x0000_3FFF_0000_3FFF) | ((v & 0x3FFF_0000_3FFF_0000) >> 2);
    (v & 0x0000_0000_0FFF_FFFF) | ((v & 0x0FFF_FFFF_0000_0000) >> 4)
}

/// Decode `n` varints a word at a time, passing each through `next`
/// (identity, or the running sum of a delta column).
///
/// A varint that ends inside the loaded word has at most eight bytes and
/// so at most 56 payload bits: it cannot overflow and needs no check. One
/// that does not end there (nine or ten bytes — the only lengths whose
/// last byte can carry bits past the 64th) and the last seven bytes of the
/// buffer go through [`get_u64`] at the position the byte loop would be
/// at, so truncation and overflow are reported exactly as it reports them.
#[inline]
fn get_column_with(
    buf: &[u8],
    pos: &mut usize,
    n: usize,
    mut next: impl FnMut(u64) -> u64,
) -> Result<Vec<u64>, StoreError> {
    check_count(buf, *pos, n)?;
    let mut out = Vec::with_capacity(n);
    let mut p = *pos;
    while out.len() < n {
        let Some(mut word) = load_word(buf, p) else {
            break;
        };
        let mut ends = !word & CONTINUATION;
        if ends == CONTINUATION && n - out.len() >= 8 {
            // Eight one-byte varints: ids, submit deltas, task counts.
            out.extend(word.to_le_bytes().map(|b| next(u64::from(b))));
            p += 8;
            continue;
        }
        if ends == 0 {
            out.push(next(get_u64(buf, &mut p)?));
            continue;
        }
        // Every varint that ends in this word, then reload at the first
        // byte of the one that does not.
        while ends != 0 && out.len() < n {
            let bits = ends.trailing_zeros() + 1;
            out.push(next(compact(word & (u64::MAX >> (64 - bits)))));
            p += (bits / 8) as usize;
            word = word.checked_shr(bits).unwrap_or(0);
            ends = ends.checked_shr(bits).unwrap_or(0);
        }
    }
    while out.len() < n {
        out.push(next(get_u64(buf, &mut p)?));
    }
    *pos = p;
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

/// Step over `n` varints without storing them, accepting and rejecting
/// exactly what [`get_column`] does, with the same error.
///
/// Whole words are stepped by counting their terminator bytes. `run` is
/// the number of continuation bytes the varint under way already has: a
/// varint is safe unchecked up to nine bytes (63 bits), so wherever `run`
/// plus the continuation bytes leading a word could reach a tenth byte,
/// that one varint is replayed from its first byte through [`get_u64`].
/// The last seven bytes go through it too, so truncation is found where
/// the byte loop finds it.
pub fn skip_column(buf: &[u8], pos: &mut usize, n: usize) -> Result<(), StoreError> {
    check_count(buf, *pos, n)?;
    let (mut p, mut left, mut run) = (*pos, n, 0usize);
    while left > 0 {
        let Some(word) = load_word(buf, p) else {
            break;
        };
        let ends = !word & CONTINUATION;
        let leading = (ends.trailing_zeros() / 8) as usize;
        if run + leading >= 9 {
            p -= run;
            get_u64(buf, &mut p)?;
            (left, run) = (left - 1, 0);
            continue;
        }
        let count = ends.count_ones() as usize;
        if count <= left {
            left -= count;
            p += 8;
            run = if count == 0 {
                run + 8
            } else {
                (ends.leading_zeros() / 8) as usize
            };
        } else {
            // The last wanted varint ends inside this word: drop the
            // terminators before it and stop after its own.
            let mut last = ends;
            for _ in 1..left {
                last &= last - 1;
            }
            p += (last.trailing_zeros() / 8) as usize + 1;
            (left, run) = (0, 0);
        }
    }
    p -= run;
    for _ in 0..left {
        get_u64(buf, &mut p)?;
    }
    *pos = p;
    Ok(())
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
        assert!(skip_column(&buf, &mut 0, 9).is_err());
    }

    /// The byte-at-a-time column loop the word loop replaced: the
    /// reference for values, end position and error.
    fn reference(
        buf: &[u8],
        start: usize,
        n: usize,
        delta: bool,
    ) -> Result<(Vec<u64>, usize), String> {
        let mut pos = start;
        let mut run = || -> Result<Vec<u64>, StoreError> {
            check_count(buf, pos, n)?;
            let (mut out, mut prev) = (Vec::new(), 0u64);
            for _ in 0..n {
                let v = get_u64(buf, &mut pos)?;
                prev = if delta { prev.wrapping_add(v) } else { v };
                out.push(prev);
            }
            Ok(out)
        };
        let values = run().map_err(|e| format!("{e:?}"))?;
        Ok((values, pos))
    }

    /// Splitmix64: a fixed stream, so the battery is the same every run.
    fn next_random(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn word_loops_match_the_byte_loop_on_generated_bytes() {
        let mut state = 16u64;
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for case in 0..20_000u32 {
            let len = (next_random(&mut state) % 65) as usize;
            let n = (next_random(&mut state) % 25) as usize;
            let buf: Vec<u8> = (0..len)
                .map(|_| {
                    let r = next_random(&mut state);
                    let byte = (r >> 8) as u8;
                    match case % 4 {
                        0 => byte & 0x7F, // every byte ends a varint
                        1 => byte | 0x80, // none does
                        // Long runs: 9- and 10-byte varints, and overflow.
                        2 if !r.is_multiple_of(11) => byte | 0x80,
                        2 => byte & 0x01,
                        _ => byte,
                    }
                })
                .collect();
            let start = if len > 0 && case % 8 >= 4 {
                (next_random(&mut state) % len as u64) as usize
            } else {
                0
            };
            for delta in [false, true] {
                let expected = reference(&buf, start, n, delta);
                let mut pos = start;
                let got = if delta {
                    get_delta_column(&buf, &mut pos, n)
                } else {
                    get_column(&buf, &mut pos, n)
                };
                let got = got.map(|v| (v, pos)).map_err(|e| format!("{e:?}"));
                assert_eq!(got, expected, "decode of {buf:02x?} from {start}, n = {n}");
            }
            let expected = reference(&buf, start, n, false).map(|(_, end)| end);
            let mut pos = start;
            let got = skip_column(&buf, &mut pos, n)
                .map(|()| pos)
                .map_err(|e| format!("{e:?}"));
            assert_eq!(got, expected, "skip of {buf:02x?} from {start}, n = {n}");
            match expected {
                Ok(_) => accepted += 1,
                Err(_) => rejected += 1,
            }
        }
        // The battery is worth something only if it sees both outcomes.
        assert!(
            accepted > 2_000 && rejected > 2_000,
            "{accepted} / {rejected}"
        );
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
            let mut skipped = 0;
            skip_column(&buf, &mut skipped, 3).unwrap();
            assert_eq!(skipped, pos);
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
            assert!(matches!(
                skip_column(&buf, &mut 0, start + 1),
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
