//! Aggregate functions and their mergeable accumulators.
//!
//! Every accumulator is exact over `u64` (counts, saturating sums,
//! extrema, collected samples), so partial states can be merged in *any*
//! order and still finalize to identical bits — the property that makes
//! serial and parallel execution byte-for-byte interchangeable.

use crate::expr::Expr;
use std::cmp::Ordering;
use std::fmt;

/// An aggregate over the rows of one group.
#[derive(Debug, Clone, PartialEq)]
pub enum Aggregate {
    /// Number of matching rows.
    Count,
    /// Saturating sum of the expression.
    Sum(Expr),
    /// Minimum of the expression.
    Min(Expr),
    /// Maximum of the expression.
    Max(Expr),
    /// Mean of the expression (exact `u64` sum, one final division).
    Avg(Expr),
    /// Nearest-rank percentile of the expression, `p` in `[0, 1]` —
    /// exactly `swim_core::stats::Ecdf::quantile`'s rank rule, so query
    /// results line up with the paper's CDF tables.
    Percentile(Expr, f64),
}

impl Aggregate {
    /// The expression this aggregate reads, if any.
    pub fn input(&self) -> Option<&Expr> {
        match self {
            Aggregate::Count => None,
            Aggregate::Sum(e)
            | Aggregate::Min(e)
            | Aggregate::Max(e)
            | Aggregate::Avg(e)
            | Aggregate::Percentile(e, _) => Some(e),
        }
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Aggregate::Count => write!(f, "count"),
            Aggregate::Sum(e) => write!(f, "sum({e})"),
            Aggregate::Min(e) => write!(f, "min({e})"),
            Aggregate::Max(e) => write!(f, "max({e})"),
            Aggregate::Avg(e) => write!(f, "avg({e})"),
            Aggregate::Percentile(e, p) => write!(f, "p{}({e})", (p * 100.0).round() as u32),
        }
    }
}

/// One finalized aggregate value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggValue {
    /// Exact integer result (count, sum, min, max, group keys).
    Int(u64),
    /// Real-valued result (avg, percentile).
    Float(f64),
    /// Aggregate of an empty group (min/max/avg/percentile of no rows).
    Null,
}

impl AggValue {
    /// Total order for `ORDER BY`: `Null` first, then numerically.
    /// Integers compare as `u64` — exact past 2^53, where a detour
    /// through `f64` would tie distinct sums — and floats by `total_cmp`.
    pub fn order_cmp(&self, other: &AggValue) -> Ordering {
        let real = |v: &AggValue| match v {
            AggValue::Int(v) => *v as f64,
            AggValue::Float(v) => *v,
            AggValue::Null => f64::NEG_INFINITY,
        };
        match (self, other) {
            (AggValue::Null, AggValue::Null) => Ordering::Equal,
            (AggValue::Null, _) => Ordering::Less,
            (_, AggValue::Null) => Ordering::Greater,
            (AggValue::Int(a), AggValue::Int(b)) => a.cmp(b),
            (a, b) => real(a).total_cmp(&real(b)),
        }
    }
}

impl fmt::Display for AggValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggValue::Int(v) => write!(f, "{v}"),
            AggValue::Float(v) => write!(f, "{v}"),
            AggValue::Null => write!(f, "-"),
        }
    }
}

/// Mergeable accumulator state for one aggregate of *every* group of a
/// worker, indexed by dense group id. A group's row count lives once in
/// the kernel (it is `Count`'s value and `Avg`'s divisor), so `Min`/`Max`
/// need no `Option`: a group exists only once a row reached it, and the
/// one group that can be empty — the global one — is `Null` by its count.
#[derive(Debug)]
pub(crate) enum AggCol {
    Count,
    Sum(Vec<u64>),
    Min(Vec<u64>),
    Max(Vec<u64>),
    Avg(Vec<u64>),
    /// Percentile `p`, over each group's samples of its input.
    Samples {
        p: f64,
        groups: Vec<pool::Buf>,
    },
    /// Percentile `p` over the samples the `Samples` column at index `of`
    /// keeps of the same input: percentiles of one input keep one copy.
    Rank {
        p: f64,
        of: usize,
    },
}

/// Which group each selected row of a chunk folds into.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Groups<'a> {
    /// The one group of a global aggregate.
    Global,
    /// One id per row, parallel to the rows.
    Rows(&'a [u32]),
    /// `(id, rows)` runs of equal ids, covering the rows in order.
    Runs(&'a [(u32, u32)]),
}

/// Fold `v[row]` into the state of each row's group. A global aggregate
/// and each run fold in a register and store once; only per-row ids pay
/// a store per row.
fn fold_into(
    state: &mut [u64],
    mut rows: impl Iterator<Item = usize>,
    groups: Groups<'_>,
    v: &[u64],
    f: impl Fn(u64, u64) -> u64,
) {
    match groups {
        Groups::Global => {
            if let Some(s) = state.first_mut() {
                *s = rows.fold(*s, |acc, i| f(acc, v[i]));
            }
        }
        Groups::Rows(ids) => {
            for (&g, i) in ids.iter().zip(rows) {
                let s = &mut state[g as usize];
                *s = f(*s, v[i]);
            }
        }
        Groups::Runs(runs) => {
            for &(g, len) in runs {
                let s = &mut state[g as usize];
                *s = rows
                    .by_ref()
                    .take(len as usize)
                    .fold(*s, |acc, i| f(acc, v[i]));
            }
        }
    }
}

impl AggCol {
    /// Empty state (no groups yet) for one aggregate; a percentile whose
    /// samples column `samples_of` names reads that one's samples.
    pub(crate) fn new(agg: &Aggregate, samples_of: Option<usize>) -> AggCol {
        match (agg, samples_of) {
            (Aggregate::Count, _) => AggCol::Count,
            (Aggregate::Sum(_), _) => AggCol::Sum(Vec::new()),
            (Aggregate::Min(_), _) => AggCol::Min(Vec::new()),
            (Aggregate::Max(_), _) => AggCol::Max(Vec::new()),
            (Aggregate::Avg(_), _) => AggCol::Avg(Vec::new()),
            (Aggregate::Percentile(_, p), Some(of)) => AggCol::Rank { p: *p, of },
            (Aggregate::Percentile(_, p), None) => AggCol::Samples {
                p: *p,
                groups: Vec::new(),
            },
        }
    }

    /// Extend to `groups` groups, new ones at the aggregate's identity.
    pub(crate) fn grow(&mut self, groups: usize) {
        match self {
            AggCol::Count | AggCol::Rank { .. } => {}
            AggCol::Sum(s) | AggCol::Avg(s) | AggCol::Max(s) => s.resize(groups, 0),
            AggCol::Min(s) => s.resize(groups, u64::MAX),
            AggCol::Samples { groups: g, .. } => g.resize_with(groups, pool::Buf::default),
        }
    }

    /// Fold one chunk in, column-at-a-time: `v[row]` for each selected
    /// row, into the group `groups` names for it. The aggregate kind is
    /// matched here, once per chunk, not per row.
    pub(crate) fn update(
        &mut self,
        mut rows: impl Iterator<Item = usize>,
        groups: Groups<'_>,
        v: &[u64],
    ) {
        match self {
            AggCol::Count | AggCol::Rank { .. } => {}
            AggCol::Sum(s) | AggCol::Avg(s) => fold_into(s, rows, groups, v, u64::saturating_add),
            AggCol::Min(s) => fold_into(s, rows, groups, v, u64::min),
            AggCol::Max(s) => fold_into(s, rows, groups, v, u64::max),
            AggCol::Samples {
                groups: samples, ..
            } => match groups {
                Groups::Global => {
                    if let Some(all) = samples.first_mut() {
                        all.extend(rows.map(|i| v[i]));
                    }
                }
                Groups::Rows(ids) => {
                    for (&g, i) in ids.iter().zip(rows) {
                        samples[g as usize].push(v[i]);
                    }
                }
                Groups::Runs(runs) => {
                    for &(g, len) in runs {
                        let run = rows.by_ref().take(len as usize);
                        samples[g as usize].extend(run.map(|i| v[i]));
                    }
                }
            },
        }
    }

    /// Merge another worker's state in (same aggregate); `remap[g]` is
    /// this side's id for the other side's group `g`. Exact and
    /// order-insensitive: a merge is an update whose values are the other
    /// side's states.
    pub(crate) fn merge(&mut self, other: AggCol, remap: &[u32]) {
        let ids = Groups::Rows(remap);
        match (self, other) {
            (AggCol::Count, AggCol::Count) | (AggCol::Rank { .. }, AggCol::Rank { .. }) => {}
            (AggCol::Sum(a), AggCol::Sum(b)) | (AggCol::Avg(a), AggCol::Avg(b)) => {
                fold_into(a, 0..b.len(), ids, &b, u64::saturating_add)
            }
            (AggCol::Min(a), AggCol::Min(b)) => fold_into(a, 0..b.len(), ids, &b, u64::min),
            (AggCol::Max(a), AggCol::Max(b)) => fold_into(a, 0..b.len(), ids, &b, u64::max),
            (AggCol::Samples { groups: a, .. }, AggCol::Samples { groups: b, .. }) => {
                for (&g, samples) in remap.iter().zip(b) {
                    a[g as usize].append(samples);
                }
            }
            // lint: allow(panic, "merge partners are built from the same aggregate list, so variants always pair up")
            _ => unreachable!("merged states always come from the same aggregate list"),
        }
    }

    /// Finalize group `g`, which `count` rows reached, of a column that
    /// reads no other column's samples.
    #[cfg(test)]
    pub(crate) fn finalize(&mut self, g: usize, count: u64) -> AggValue {
        finalize(std::slice::from_mut(self), 0, g, count)
    }
}

/// Finalize column `a` of `cols` for group `g`, which `count` rows
/// reached. A [`AggCol::Rank`] selects from its samples column's samples.
pub(crate) fn finalize(cols: &mut [AggCol], a: usize, g: usize, count: u64) -> AggValue {
    let (p, of) = match cols[a] {
        AggCol::Count => return AggValue::Int(count),
        AggCol::Sum(ref s) => return AggValue::Int(s[g]),
        _ if count == 0 => return AggValue::Null,
        AggCol::Min(ref s) | AggCol::Max(ref s) => return AggValue::Int(s[g]),
        AggCol::Avg(ref s) => return AggValue::Float(s[g] as f64 / count as f64),
        AggCol::Samples { p, .. } => (p, a),
        AggCol::Rank { p, of } => (p, of),
    };
    // Only a `Samples` column is ever named by a `Rank`.
    let AggCol::Samples { groups, .. } = &mut cols[of] else {
        return AggValue::Null;
    };
    let samples = &mut groups[g].0;
    // Rank-select instead of a full sort: it places at `idx` the element
    // a sort would, and equal elements are equal bits, so the value read
    // is the same whatever order the samples arrived or were merged in —
    // or an earlier selection of another rank left them in.
    let idx = swim_obs::nearest_rank(p, samples.len());
    let (_, nth, _) = samples.select_nth_unstable(idx);
    AggValue::Float(*nth as f64)
}

/// The bounded, process-wide free list behind every large percentile
/// sample buffer. A percentile over a million rows collects 8 MB of
/// samples. Grown by doubling in fresh pages, and handed back to the
/// kernel by the allocator when the query ends, that cost thousands of
/// minor faults per query, a few microseconds each. Here a buffer about
/// to grow past [`pool::MIN_BYTES`] is swapped for the smallest free one
/// that holds twice its samples, and goes back to the list when dropped,
/// so a warm query grows into pages an earlier one faulted in. The list
/// keeps its roomiest buffers, at most [`pool::MAX_BUFFERS`] of them and
/// [`pool::MAX_BYTES`] bytes; what it does not keep is freed.
pub(crate) mod pool {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Buffers below this size grow and go in the allocator's own heap.
    pub(crate) const MIN_BYTES: usize = 64 << 10;
    /// Most buffers kept.
    pub(crate) const MAX_BUFFERS: usize = 16;
    /// Most bytes kept, summed over the buffers' capacities.
    pub(crate) const MAX_BYTES: usize = 64 << 20;

    /// Free buffers, empty, roomiest first.
    static FREE: Mutex<Vec<Vec<u64>>> = Mutex::new(Vec::new());

    fn free() -> MutexGuard<'static, Vec<Vec<u64>>> {
        // A panic while holding the lock leaves the list valid: every
        // change to it is one `push`, `sort`, `pop` or `remove`.
        FREE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn bytes(list: &[Vec<u64>]) -> usize {
        list.iter().map(|b| b.capacity() * 8).sum()
    }

    /// One group's samples, in a buffer that goes back to the free list
    /// when dropped.
    #[derive(Debug, Default)]
    pub(crate) struct Buf(pub(crate) Vec<u64>);

    impl Buf {
        /// Room for `additional` more samples.
        fn reserve(&mut self, additional: usize) {
            let v = &mut self.0;
            if v.capacity() - v.len() >= additional {
                return;
            }
            let need = (v.len() + additional).max(2 * v.capacity());
            if need * 8 >= MIN_BYTES {
                let mut list = free();
                if let Some(i) = list.iter().rposition(|b| b.capacity() >= need) {
                    let mut room = list.remove(i);
                    drop(list);
                    room.extend_from_slice(v);
                    // The outgrown buffer goes back to the list.
                    drop(Buf(std::mem::replace(v, room)));
                    return;
                }
            }
            v.reserve(additional);
        }

        pub(crate) fn push(&mut self, value: u64) {
            if self.0.len() == self.0.capacity() {
                self.reserve(1);
            }
            self.0.push(value);
        }

        pub(crate) fn extend(&mut self, values: impl Iterator<Item = u64>) {
            self.reserve(values.size_hint().0);
            self.0.extend(values);
        }

        /// Move `other`'s samples in, keeping the roomier buffer.
        pub(crate) fn append(&mut self, mut other: Buf) {
            if other.0.capacity() > self.0.capacity() {
                std::mem::swap(self, &mut other);
            }
            self.reserve(other.0.len());
            self.0.append(&mut other.0);
        }
    }

    impl Drop for Buf {
        fn drop(&mut self) {
            let mut buf = std::mem::take(&mut self.0);
            if buf.capacity() * 8 < MIN_BYTES || buf.capacity() * 8 > MAX_BYTES {
                return;
            }
            buf.clear();
            let mut list = free();
            list.push(buf);
            list.sort_unstable_by_key(|b| std::cmp::Reverse(b.capacity()));
            while list.len() > MAX_BUFFERS || bytes(&list) > MAX_BYTES {
                list.pop();
            }
        }
    }

    /// Buffers and bytes the list holds right now.
    #[cfg(test)]
    pub(crate) fn retained() -> (usize, usize) {
        let list = free();
        (list.len(), bytes(&list))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Col;
    use crate::oracle;

    /// One group's state after `values` reached it.
    fn state(agg: &Aggregate, values: &[u64]) -> AggCol {
        let mut col = AggCol::new(agg, None);
        col.grow(1);
        col.update(0..values.len(), Groups::Global, values);
        col
    }

    fn finalize(agg: &Aggregate, values: &[u64]) -> AggValue {
        state(agg, values).finalize(0, values.len() as u64)
    }

    #[test]
    fn labels() {
        assert_eq!(Aggregate::Count.to_string(), "count");
        assert_eq!(
            Aggregate::Sum(Expr::col(Col::Input)).to_string(),
            "sum(input)"
        );
        assert_eq!(
            Aggregate::Percentile(Expr::col(Col::Duration), 0.5).to_string(),
            "p50(duration)"
        );
    }

    #[test]
    fn merge_is_order_insensitive() {
        let agg = Aggregate::Percentile(Expr::col(Col::Duration), 0.5);
        let values = [5u64, 1, 9, 3, 3, 7];
        // Split 2|4 merged forwards, and 4|2 merged backwards.
        let run = |first: &[u64], second: &[u64], swap: bool| {
            let (mut a, mut b) = (state(&agg, first), state(&agg, second));
            if swap {
                b.merge(a, &[0]);
                b.finalize(0, 6)
            } else {
                a.merge(b, &[0]);
                a.finalize(0, 6)
            }
        };
        let x = run(&values[..2], &values[2..], false);
        let y = run(&values[..2], &values[2..], true);
        assert_eq!(x, y);
        assert_eq!(x, AggValue::Float(3.0)); // rank ceil(0.5*6)=3 → sorted[2]
    }

    #[test]
    fn merge_remaps_the_other_sides_group_ids() {
        // This side knows groups [a, b]; the other met [b, c, a].
        for agg in [
            Aggregate::Sum(Expr::col(Col::Input)),
            Aggregate::Min(Expr::col(Col::Input)),
            Aggregate::Max(Expr::col(Col::Input)),
            Aggregate::Percentile(Expr::col(Col::Input), 1.0),
        ] {
            let mut ours = AggCol::new(&agg, None);
            ours.grow(2);
            ours.update(0..3, Groups::Rows(&[0, 1, 0]), &[10, 20, 30]);
            let mut theirs = AggCol::new(&agg, None);
            theirs.grow(3);
            theirs.update(0..3, Groups::Rows(&[0, 1, 2]), &[7, 8, 99]);
            ours.grow(3);
            ours.merge(theirs, &[1, 2, 0]);
            let got: Vec<AggValue> = (0..3).map(|g| ours.finalize(g, 1)).collect();
            let per_group = [&[10u64, 30, 99][..], &[20, 7], &[8]];
            let expected: Vec<AggValue> = per_group
                .iter()
                .map(|v| oracle::aggregate(&agg, v))
                .collect();
            assert_eq!(got, expected, "{agg}");
        }
    }

    #[test]
    fn percentile_matches_ecdf_rank_rule() {
        // Mirrors Ecdf::quantile: rank = ceil(p*n) clamped to [1, n].
        let finalize = |p, values: &[u64]| {
            finalize(&Aggregate::Percentile(Expr::col(Col::Duration), p), values)
        };
        assert_eq!(finalize(0.0, &[4, 2, 8]), AggValue::Float(2.0));
        assert_eq!(finalize(0.5, &[4, 2, 8]), AggValue::Float(4.0));
        assert_eq!(finalize(1.0, &[4, 2, 8]), AggValue::Float(8.0));
        assert_eq!(finalize(0.5, &[7]), AggValue::Float(7.0));
        assert_eq!(finalize(0.5, &[]), AggValue::Null);
    }

    #[test]
    fn percentile_by_rank_select_reads_what_a_sort_would() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let samples: Vec<Vec<u64>> = vec![
            vec![],
            vec![42],
            vec![3, 3, 3, 3],
            vec![9, 1, 9, 1, 9, 1, 5, 5],
            vec![u64::MAX, 0, u64::MAX, 0, 1],
            (0..1000).map(|_| next() % 17).collect(),
            (0..1001).map(|_| next()).collect(),
        ];
        for values in &samples {
            for p in [0.0, 0.5, 0.9, 1.0] {
                let agg = Aggregate::Percentile(Expr::col(Col::Duration), p);
                assert_eq!(
                    finalize(&agg, values),
                    oracle::percentile_by_sort(values, p),
                    "p{p} of {} samples",
                    values.len()
                );
            }
        }
    }

    #[test]
    fn merging_an_empty_state_is_the_identity_in_both_directions() {
        // The federation edge case: a worker with zero matching rows
        // contributes a fresh accumulator, which must not disturb a
        // populated one — whichever side of the merge it lands on.
        let aggs = [
            Aggregate::Count,
            Aggregate::Sum(Expr::col(Col::Input)),
            Aggregate::Min(Expr::col(Col::Input)),
            Aggregate::Max(Expr::col(Col::Input)),
            Aggregate::Avg(Expr::col(Col::Input)),
            Aggregate::Percentile(Expr::col(Col::Input), 0.9),
        ];
        let values = [3u64, 9, 1, 7];
        for agg in &aggs {
            let expected = finalize(agg, &values);
            assert_eq!(expected, oracle::aggregate(agg, &values), "{agg}");

            // populated ← empty
            let mut left = state(agg, &values);
            left.merge(state(agg, &[]), &[0]);
            assert_eq!(left.finalize(0, 4), expected, "{agg}: populated ← empty");

            // empty ← populated
            let mut right = state(agg, &[]);
            right.merge(state(agg, &values), &[0]);
            assert_eq!(right.finalize(0, 4), expected, "{agg}: empty ← populated");

            // empty ← empty stays empty (Null / zero).
            let mut both = state(agg, &[]);
            both.merge(state(agg, &[]), &[0]);
            assert_eq!(
                both.finalize(0, 0),
                finalize(agg, &[]),
                "{agg}: empty ← empty"
            );
        }
    }

    #[test]
    fn avg_and_percentile_of_no_samples_finalize_to_null() {
        // The all-skipped-shard edge: a query whose every shard is
        // pruned finalizes fresh states — Avg and Percentile must yield
        // Null (never divide by zero or index an empty sample vector).
        for agg in [
            Aggregate::Avg(Expr::col(Col::Duration)),
            Aggregate::Percentile(Expr::col(Col::Duration), 0.0),
            Aggregate::Percentile(Expr::col(Col::Duration), 0.5),
            Aggregate::Percentile(Expr::col(Col::Duration), 1.0),
        ] {
            assert_eq!(finalize(&agg, &[]), AggValue::Null, "{agg}");
        }
    }

    #[test]
    fn empty_group_finalizes_to_null_or_zero() {
        for (agg, expect) in [
            (Aggregate::Count, AggValue::Int(0)),
            (Aggregate::Sum(Expr::col(Col::Input)), AggValue::Int(0)),
            (Aggregate::Min(Expr::col(Col::Input)), AggValue::Null),
            (Aggregate::Max(Expr::col(Col::Input)), AggValue::Null),
            (Aggregate::Avg(Expr::col(Col::Input)), AggValue::Null),
        ] {
            assert_eq!(finalize(&agg, &[]), expect, "{agg}");
        }
    }

    #[test]
    fn sum_saturates_like_datasize() {
        let agg = Aggregate::Sum(Expr::col(Col::Input));
        assert_eq!(
            finalize(&agg, &[u64::MAX - 5, 100]),
            AggValue::Int(u64::MAX)
        );
    }

    #[test]
    fn the_sample_pool_keeps_its_roomiest_buffers_within_its_caps() {
        use pool::{Buf, MAX_BUFFERS, MAX_BYTES, MIN_BYTES};
        let within_caps = || {
            let (buffers, bytes) = pool::retained();
            assert!(buffers <= MAX_BUFFERS, "{buffers} buffers kept");
            assert!(bytes <= MAX_BYTES, "{bytes} bytes kept");
        };
        // More buffers than the list keeps, from below its floor to above
        // all it may keep; each holds one sample, so faults in one page.
        let sizes = (0..2 * MAX_BUFFERS)
            .map(|k| (MIN_BYTES / 16) << (k % 12))
            .chain([MAX_BYTES / 8 + 1]);
        for capacity in sizes {
            let mut buf = Buf(Vec::with_capacity(capacity));
            buf.0.push(7);
            drop(buf);
            within_caps();
        }
        // A buffer growing past the floor trades up through the list and
        // keeps its samples; the one it outgrew goes back.
        let mut buf = Buf::default();
        let samples = (MIN_BYTES / 8) as u64 * 3;
        buf.extend(0..samples / 2);
        for x in samples / 2..samples {
            buf.push(x);
        }
        let mut other = Buf::default();
        other.extend(samples..samples + 5);
        buf.append(other);
        assert!(buf.0.iter().copied().eq(0..samples + 5));
        drop(buf);
        within_caps();
    }

    #[test]
    fn order_by_compares_integers_exactly_past_2_pow_53() {
        use std::cmp::Ordering::*;
        let (a, b) = (AggValue::Int(1 << 60), AggValue::Int((1 << 60) + 1));
        assert_eq!((1u64 << 60) as f64, ((1u64 << 60) + 1) as f64, "tie as f64");
        assert_eq!(a.order_cmp(&b), Less);
        assert_eq!(b.order_cmp(&a), Greater);
        assert_eq!(a.order_cmp(&a), Equal);
        // Null sorts first; floats by total order.
        assert_eq!(AggValue::Null.order_cmp(&AggValue::Int(0)), Less);
        assert_eq!(AggValue::Float(-1.0).order_cmp(&AggValue::Null), Greater);
        assert_eq!(AggValue::Float(1.5).order_cmp(&AggValue::Float(2.5)), Less);
        assert_eq!(AggValue::Int(2).order_cmp(&AggValue::Float(1.5)), Greater);
    }
}
