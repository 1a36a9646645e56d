//! Patched frame-of-reference bit packing (PFOR: Zukowski et al., ICDE
//! 2006), the codec of every integer block.
//!
//! ```text
//! varint(min) ‖ u8 width ‖ varint(exceptions)
//!   ‖ ⌈n·width/8⌉ bytes: the low `width` bits of each v − min, packed
//!     little-endian, value 0 in the lowest bits
//!   ‖ per exception: varint(position gap) varint((v − min) >> width)
//! ```
//!
//! A block does not store its number of values `n`: the caller knows it
//! (a chunk's rows, the number of names with a suffix, the sum of a
//! chunk's path counts). An *exception* is a value whose `v − min` does
//! not fit in `width` bits: its low bits are packed like every other
//! value's and its high bits follow the packed data, after the number of
//! values between it and the previous exception (from the first value,
//! for the first exception).
//!
//! **Width.** [`encode`] picks the width whose block is the smallest
//! (the smallest such width on a tie), over every width from the
//! caller's floor to 64. A histogram of the values' bit lengths above
//! the minimum (one `leading_zeros` per value) gives each width's cost
//! with every gap counted as one byte: exact for blocks of at most 128
//! values, and beyond that a lower bound that at most `n / 128` gaps
//! (plus `n / 128²` …) can exceed, by a byte each. The cheapest bound
//! wins outright when even its upper bound beats the next; otherwise the
//! close candidates are costed exactly, one pass over the values each.
//! Width 64 has no exceptions, so a block never costs more than 8 bytes
//! a value plus its header of at most [`MAX_HEADER_LEN`] bytes.
//!
//! **Bounds.** At width ≥ 1 a block of `n` values holds at least `n`
//! bits, so its length bounds `n` before anything is reserved; a width-0
//! block is a run of one value and costs the same at any length, so it
//! may hold at most [`MAX_JOBS_PER_CHUNK`] values — a chunk's rows — and
//! [`encode`] packs a longer block at width 1 or more. The writer never
//! packs path reference kinds at width 0.

use crate::format::MAX_JOBS_PER_CHUNK;
use crate::varint;
use crate::StoreError;

/// Most bytes a block spends before its packed values: a ten-byte
/// `min`, the width, and the exception count (which is 0 at width 64).
pub const MAX_HEADER_LEN: usize = 12;

/// Number of significant bits of `v` (0 for 0).
fn bit_len(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// Bytes of `v` as a varint.
fn varint_len(v: u64) -> usize {
    bit_len(v).max(1).div_ceil(7) as usize
}

/// The low `width` bits.
fn low_mask(width: u32) -> u64 {
    u64::MAX.checked_shr(u64::BITS - width).unwrap_or(0)
}

/// Append `values` as one packed block at the cheapest width of at
/// least `min_width` (at most 64), and of at least 1 for more values
/// than a chunk has rows.
pub fn encode(out: &mut Vec<u8>, values: &[u64], min_width: u32) {
    let min = minimum(values);
    let lengths = bit_lengths(values, min);
    let longer_than_a_chunk = values.len() > MAX_JOBS_PER_CHUNK as usize;
    let min_width = min_width.max(u32::from(longer_than_a_chunk)).min(64);
    let width = choose_width(values, min, &lengths, min_width);
    encode_at(out, values, min, width, exceptions(&lengths, width));
}

/// Call `each` on every value with one of four lanes in turn, so that
/// work on neighbouring values does not wait on one lane's state.
#[inline]
fn by_lanes<L>(values: &[u64], lanes: &mut [L; 4], mut each: impl FnMut(&mut L, u64)) {
    let mut quads = values.chunks_exact(4);
    for quad in &mut quads {
        for (lane, &v) in lanes.iter_mut().zip(quad) {
            each(lane, v);
        }
    }
    for (lane, &v) in lanes.iter_mut().zip(quads.remainder()) {
        each(lane, v);
    }
}

/// The smallest of `values` (0 for none).
fn minimum(values: &[u64]) -> u64 {
    let mut lanes = [u64::MAX; 4];
    by_lanes(values, &mut lanes, |lane, v| *lane = (*lane).min(v));
    lanes
        .into_iter()
        .min()
        .filter(|_| !values.is_empty())
        .unwrap_or(0)
}

/// How many of `values` lie `b` significant bits above `min`, per `b`.
fn bit_lengths(values: &[u64], min: u64) -> [usize; 65] {
    let mut tables = [[0usize; 65]; 4];
    by_lanes(values, &mut tables, |table, v| {
        table[bit_len(v - min) as usize] += 1;
    });
    let mut lengths = [0usize; 65];
    for table in tables {
        for (sum, count) in lengths.iter_mut().zip(table) {
            *sum += count;
        }
    }
    lengths
}

/// How many values are exceptions at `width`, by their bit `lengths`.
fn exceptions(lengths: &[usize; 65], width: u32) -> usize {
    lengths.iter().skip(width as usize + 1).sum()
}

/// The width [`encode`] packs `values` at: their minimum is `min` and
/// `lengths[b]` of them lie `b` significant bits above it.
fn choose_width(values: &[u64], min: u64, lengths: &[usize; 65], min_width: u32) -> u32 {
    // Past the widest value a block only grows, so no width beyond it
    // (or beyond the floor) is a candidate.
    let top = (0..=64u32)
        .rev()
        .find(|&b| lengths[b as usize] > 0)
        .unwrap_or(0)
        .max(min_width);
    // Per candidate, from the widest down: its cost with every gap one
    // byte, the width, and its exceptions. An exception's high bits take
    // one varint byte per seven bits or part, so the high bytes at a
    // width are its exceptions plus the high bytes seven bits wider.
    let mut candidates = [(usize::MAX, 0u32, 0usize); 65];
    let mut high = [0usize; 65 + 7];
    let mut exceptions = 0;
    for width in (min_width..=top).rev() {
        let w = width as usize;
        high[w] = exceptions + high[w + 7];
        let header = varint_len(min) + 1 + varint_len(exceptions as u64);
        let packed = (values.len() * w).div_ceil(8);
        candidates[w] = (header + packed + exceptions + high[w], width, exceptions);
        exceptions += lengths[w];
    }
    // Cheapest lower bound first: once a bound cannot beat the best exact
    // cost (or tie it at a smaller width), no later one can. A candidate
    // whose upper bound beats both the best so far and the next lower
    // bound wins outright, with no pass over its gaps.
    let candidates = candidates
        .get_mut(min_width as usize..=top as usize)
        .unwrap_or_default();
    candidates.sort_unstable();
    let mut best = (usize::MAX, 0u32);
    for (i, &(bound, width, exceptions)) in candidates.iter().enumerate() {
        if (bound, width) >= best {
            break;
        }
        let upper = (bound + long_gap_slack(values.len(), exceptions), width);
        let next = candidates
            .get(i + 1)
            .map_or((usize::MAX, 0), |&(b, w, _)| (b, w));
        if upper < best && upper < next {
            return width;
        }
        best = best.min((bound + long_gap_bytes(values, min, width), width));
    }
    best.1
}

/// Most bytes `exceptions` of `n` values can spend on gaps beyond one
/// each. A gap takes one byte more for each power of 128 it reaches, and
/// an exception whose gap reaches `reach` follows `reach` values that
/// are not exceptions, so at most `n / reach` of them do.
fn long_gap_slack(n: usize, exceptions: usize) -> usize {
    std::iter::successors(Some(128usize), |reach| reach.checked_mul(128))
        .take_while(|&reach| reach <= n)
        .map(|reach| exceptions.min(n / reach))
        .sum()
}

/// Bytes the exceptions at `width` spend on gaps beyond one each.
fn long_gap_bytes(values: &[u64], min: u64, width: u32) -> usize {
    let mask = low_mask(width);
    let (mut next, mut extra) = (0usize, 0usize);
    for (at, &v) in values.iter().enumerate() {
        if v - min > mask {
            extra += varint_len((at - next) as u64) - 1;
            next = at + 1;
        }
    }
    extra
}

/// Append `values` packed at `width` over `min`, which is at most every
/// value; `exceptions` of them do not fit `width` bits.
fn encode_at(out: &mut Vec<u8>, values: &[u64], min: u64, width: u32, exceptions: usize) {
    varint::put_u64(out, min);
    out.push(width as u8);
    varint::put_u64(out, exceptions as u64);

    let start = out.len();
    out.resize(start + (values.len() * width as usize).div_ceil(8), 0);
    if width > 0 {
        pack_low(out.get_mut(start..).unwrap_or_default(), values, min, width);
    }
    if exceptions == 0 {
        return;
    }
    // Every position is written and only an exception's kept, so there
    // is no branch on values; the last write may land one past them.
    let mask = low_mask(width);
    let mut found = vec![0; exceptions + 1];
    let mut kept = 0;
    for (at, &v) in values.iter().enumerate() {
        if let Some(slot) = found.get_mut(kept) {
            *slot = at;
        }
        kept += usize::from(v - min > mask);
    }
    let mut next = 0;
    for &at in found.iter().take(kept) {
        let high = values.get(at).map_or(0, |v| v - min).checked_shr(width);
        varint::put_u64(out, (at - next) as u64);
        varint::put_u64(out, high.unwrap_or(0));
        next = at + 1;
    }
}

/// Write the low `width` bits (at least one) of each `v − min` into
/// `data`, which has exactly ⌈n·width/8⌉ bytes.
fn pack_low(data: &mut [u8], values: &[u64], min: u64, width: u32) {
    let mut words = data.chunks_exact_mut(8);
    let mask = low_mask(width);
    let (mut word, mut bits) = (0u64, 0u32);
    for &v in values {
        let low = (v - min) & mask;
        word |= low << bits;
        bits += width;
        if bits >= 64 {
            if let Some(to) = words.next() {
                to.copy_from_slice(&word.to_le_bytes());
            }
            bits -= 64;
            // The bits of `low` that did not fit start the next word.
            word = low.checked_shr(width - bits).unwrap_or(0);
        }
    }
    // The last word's bytes: eight, or what is left of the block.
    let last = match words.next() {
        Some(to) => to,
        None => words.into_remainder(),
    };
    for (to, from) in last.iter_mut().zip(word.to_le_bytes()) {
        *to = from;
    }
}

/// Decode a block of exactly `n` values, which must end at the block's
/// last byte.
pub fn decode(block: &[u8], n: usize) -> Result<Vec<u64>, StoreError> {
    let pos = &mut 0;
    let min = varint::get_u64(block, pos)?;
    let width = u32::from(*block.get(*pos).ok_or(StoreError::Truncated {
        context: "packed block ends before its width",
    })?);
    *pos += 1;
    if width > 64 {
        return Err(StoreError::Corrupt {
            context: "packed block wider than 64 bits",
        });
    }
    let exceptions = varint::get_u64(block, pos)?;
    if width == 0 && n > MAX_JOBS_PER_CHUNK as usize {
        return Err(StoreError::Corrupt {
            context: "width-0 block longer than a chunk",
        });
    }
    let data = n
        .checked_mul(width as usize)
        .map(|bits| bits.div_ceil(8))
        .and_then(|len| block.get(*pos..pos.checked_add(len)?))
        .ok_or(StoreError::Corrupt {
            context: "packed values run past the block",
        })?;
    *pos += data.len();
    let mut values = Vec::with_capacity(n);
    unpack(data, n, width, min, &mut values);

    // Each exception reads at least two bytes, so the block's length
    // bounds the loop whatever the count says.
    let mut next = 0usize;
    for _ in 0..exceptions {
        let gap = varint::get_u64(block, pos)?;
        let at = usize::try_from(gap)
            .ok()
            .and_then(|gap| next.checked_add(gap))
            .filter(|&at| at < n)
            .ok_or(StoreError::Corrupt {
                context: "exception position past the block's values",
            })?;
        let high = varint::get_u64(block, pos)?;
        if width == 64 || high.leading_zeros() < width {
            return Err(StoreError::Corrupt {
                context: "exception bits overflow u64",
            });
        }
        values[at] = values[at].wrapping_add(high << width);
        next = at + 1;
    }
    if *pos != block.len() {
        return Err(StoreError::Corrupt {
            context: "trailing bytes after a column block's values",
        });
    }
    Ok(values)
}

/// The eight bytes at `at` as a little-endian word, `None` within seven
/// bytes of the end.
#[inline]
fn word_at(data: &[u8], at: usize) -> Option<u64> {
    let bytes = data.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(<[u8; 8]>::try_from(bytes).ok()?))
}

/// Push `min` plus each of the `n` `width`-bit values packed in `data`,
/// which holds exactly ⌈n·width/8⌉ bytes.
fn unpack(data: &[u8], n: usize, width: u32, min: u64, out: &mut Vec<u64>) {
    if width == 0 {
        out.resize(n, min);
        return;
    }
    let mask = low_mask(width);
    let w = width as usize;
    // One load per value while its eight bytes lie inside `data` and a
    // value plus its offset in the first byte fit a word (width ≤ 56).
    let direct = match data.len().checked_sub(8) {
        Some(last) if width <= 56 => ((8 * last + 7) / w + 1).min(n),
        _ => 0,
    };
    out.extend((0..direct).map(|i| {
        let bit = i * w;
        let word = word_at(data, bit / 8).unwrap_or(0);
        min.wrapping_add(word >> (bit % 8) & mask)
    }));
    // The rest from a zero-padded copy of what is left from their first
    // byte: up to 71 bits, so sixteen bytes.
    out.extend((direct..n).map(|i| {
        let bit = i * w;
        let mut padded = [0u8; 16];
        let rest = data.get(bit / 8..).unwrap_or_default();
        for (to, from) in padded.iter_mut().zip(rest) {
            *to = *from;
        }
        let word = (u128::from_le_bytes(padded) >> (bit % 8)) as u64;
        min.wrapping_add(word & mask)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Splitmix64: a fixed stream, so every run tests the same values.
    fn next_random(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (*state ^ (*state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `values` packed at exactly `width`.
    fn packed_at(values: &[u64], width: u32) -> Vec<u8> {
        let min = values.iter().copied().min().unwrap_or(0);
        let exceptions = values
            .iter()
            .filter(|&&v| (v - min).checked_shr(width).is_some_and(|high| high > 0));
        let mut out = Vec::new();
        encode_at(&mut out, values, min, width, exceptions.count());
        out
    }

    /// The battery's blocks, each at lengths 0, 1 and 4,096.
    fn cases() -> Vec<(String, Vec<u64>)> {
        let mut state = 25u64;
        let mut cases = Vec::new();
        for n in [0usize, 1, 4096] {
            let random: Vec<u64> = (0..n)
                .map(|_| {
                    let r = next_random(&mut state);
                    r >> (r % 64)
                })
                .collect();
            for (name, values) in [
                ("all equal", vec![7; n]),
                ("all u64::MAX", vec![u64::MAX; n]),
                (
                    "alternating 0 / u64::MAX",
                    (0..n)
                        .map(|i| if i % 2 == 0 { 0 } else { u64::MAX })
                        .collect(),
                ),
                (
                    "one outlier",
                    (0..n as u64)
                        .map(|i| {
                            if i == 3 * n as u64 / 4 {
                                1 << 50
                            } else {
                                i % 5
                            }
                        })
                        .collect(),
                ),
                (
                    "width 64",
                    (0..n).map(|_| next_random(&mut state)).collect(),
                ),
                ("random mix", random),
            ] {
                cases.push((format!("{name}, n = {n}"), values));
            }
        }
        cases
    }

    #[test]
    fn every_case_round_trips_at_every_width() {
        for (what, values) in cases() {
            let mut block = Vec::new();
            encode(&mut block, &values, 0);
            assert_eq!(decode(&block, values.len()).unwrap(), values, "{what}");
            for width in 0..=64 {
                let block = packed_at(&values, width);
                assert_eq!(
                    decode(&block, values.len()).unwrap(),
                    values,
                    "{what} at width {width}"
                );
            }
        }
    }

    #[test]
    fn the_chosen_width_costs_no_more_than_any_other() {
        for (what, values) in cases() {
            for floor in [0, 1] {
                let mut block = Vec::new();
                encode(&mut block, &values, floor);
                let chosen =
                    u32::from(block[varint_len(values.iter().copied().min().unwrap_or(0))]);
                assert!(chosen >= floor, "{what}");
                for width in floor..=64 {
                    let other = packed_at(&values, width).len();
                    assert!(
                        block.len() < other || (block.len() == other && chosen <= width),
                        "{what}: width {chosen} costs {} bytes, width {width} {other}",
                        block.len()
                    );
                }
                // The worst case: eight bytes a value and the header.
                assert!(block.len() <= 8 * values.len() + MAX_HEADER_LEN, "{what}");
            }
        }
    }

    #[test]
    fn long_gaps_are_costed_exactly() {
        // 1,000 small values and outliers 300 apart: at the narrow width
        // each outlier's gap takes two bytes, which the one-byte bound
        // misses. The choice still costs no more than any other width.
        let values: Vec<u64> = (0..1000u64)
            .map(|i| if i % 300 == 299 { 1 << 9 } else { i % 2 })
            .collect();
        let mut block = Vec::new();
        encode(&mut block, &values, 0);
        let best = (0..=64).map(|w| packed_at(&values, w).len()).min().unwrap();
        assert_eq!(block.len(), best);
        assert_eq!(decode(&block, values.len()).unwrap(), values);
    }

    #[test]
    fn a_run_of_one_value_packs_to_its_header() {
        let mut block = Vec::new();
        encode(&mut block, &[42; 4096], 0);
        assert_eq!(block, [42, 0, 0]);
        // Unless the caller forbids width 0.
        let mut block = Vec::new();
        encode(&mut block, &[42; 4096], 1);
        assert_eq!(block.len(), 3 + 512);
        // Or the run is longer than a width-0 block may be.
        let longest = MAX_JOBS_PER_CHUNK as usize;
        for n in [longest, longest + 1] {
            let mut block = Vec::new();
            encode(&mut block, &vec![42; n], 0);
            assert_eq!(
                block.len(),
                if n == longest { 3 } else { 3 + n.div_ceil(8) }
            );
            assert_eq!(decode(&block, n).unwrap(), vec![42; n]);
        }
    }

    #[test]
    fn hostile_blocks_are_refused_before_anything_is_reserved() {
        let refused = |block: &[u8], n: usize, want: &str| match decode(block, n) {
            Err(StoreError::Corrupt { context }) => assert_eq!(context, want, "{block:02x?}"),
            other => panic!("{block:02x?}, n = {n}: {other:?}"),
        };
        // A width-0 run longer than any chunk, and values past the block.
        refused(&[0, 0, 0], 1 << 40, "width-0 block longer than a chunk");
        refused(&[0, 1, 0, 0xFF], 9, "packed values run past the block");
        refused(&[0, 64, 0], usize::MAX, "packed values run past the block");
        refused(&[0, 65, 0], 0, "packed block wider than 64 bits");
        // Exception positions past `n`, after the last, and high bits
        // that do not fit above the width.
        let past = "exception position past the block's values";
        refused(&[0, 0, 1, 3, 1], 3, past);
        refused(&[0, 0, 2, 1, 1, 1, 1], 3, past);
        let mut huge = Vec::new();
        varint::put_u64(&mut huge, u64::MAX);
        refused(&[&[0, 0, 1][..], &huge, &[1]].concat(), 3, past);
        // One value at width 60: its high bits may be four bits, not five,
        // and at width 64 there is no room for any.
        let one = |width: u8, high: u64| {
            let mut block = vec![0, width, 1];
            block.extend(vec![0; usize::from(width).div_ceil(8)]);
            block.push(0);
            varint::put_u64(&mut block, high);
            block
        };
        assert_eq!(decode(&one(60, 0xF), 1).unwrap(), [0xF << 60]);
        refused(&one(60, 0x10), 1, "exception bits overflow u64");
        refused(&one(64, 1), 1, "exception bits overflow u64");
        refused(
            &[0, 0, 0, 0],
            4,
            "trailing bytes after a column block's values",
        );
    }
}
