//! The row-at-a-time reference for swim-query: expressions, predicates
//! and aggregates evaluated one row at a time, straight off the
//! definitions, sharing nothing with the chunk kernel. The crate's unit
//! tests (`src/lib.rs` includes this file under `cfg(test)`) and its
//! integration tests both compare the engine against it.

#![allow(dead_code)]

use std::collections::BTreeMap;
use swim_query::{AggValue, Aggregate, Expr, Pred, Query};
use swim_store::format::columns::ChunkColumns;

/// `expr` over row `i`: saturating arithmetic, `x / 0 = 0`.
pub fn eval_row(expr: &Expr, cols: &ChunkColumns, i: usize) -> u64 {
    let at = |e: &Expr| eval_row(e, cols, i);
    match expr {
        Expr::Col(c) => c.slice(cols.view())[i],
        Expr::Lit(v) => *v,
        Expr::Add(a, b) => at(a).saturating_add(at(b)),
        Expr::Sub(a, b) => at(a).saturating_sub(at(b)),
        Expr::Mul(a, b) => at(a).saturating_mul(at(b)),
        Expr::Div(a, b) => at(a).checked_div(at(b)).unwrap_or(0),
    }
}

/// Whether row `i` passes `pred`.
pub fn matches_row(pred: &Pred, cols: &ChunkColumns, i: usize) -> bool {
    match pred {
        Pred::True => true,
        Pred::Cmp(a, op, b) => op.eval(eval_row(a, cols, i), eval_row(b, cols, i)),
        Pred::And(a, b) => matches_row(a, cols, i) && matches_row(b, cols, i),
        Pred::Or(a, b) => matches_row(a, cols, i) || matches_row(b, cols, i),
        Pred::Not(p) => !matches_row(p, cols, i),
    }
}

/// Nearest-rank percentile by full sort (`Ecdf::quantile`'s rule).
pub fn percentile_by_sort(samples: &[u64], p: f64) -> AggValue {
    if samples.is_empty() {
        return AggValue::Null;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    AggValue::Float(sorted[rank - 1] as f64)
}

/// One aggregate over the values its expression took on a group's rows.
pub fn aggregate(agg: &Aggregate, col: &[u64]) -> AggValue {
    let sum = || col.iter().fold(0u64, |a, &v| a.saturating_add(v));
    match agg {
        Aggregate::Count => AggValue::Int(col.len() as u64),
        Aggregate::Sum(_) => AggValue::Int(sum()),
        Aggregate::Min(_) => col
            .iter()
            .min()
            .map_or(AggValue::Null, |&v| AggValue::Int(v)),
        Aggregate::Max(_) => col
            .iter()
            .max()
            .map_or(AggValue::Null, |&v| AggValue::Int(v)),
        Aggregate::Avg(_) if col.is_empty() => AggValue::Null,
        Aggregate::Avg(_) => AggValue::Float(sum() as f64 / col.len() as f64),
        Aggregate::Percentile(_, p) => percentile_by_sort(col, *p),
    }
}

/// Filter, group and aggregate `chunks` one row at a time; rows come back
/// key-sorted, as the engine's do before `order_by`/`limit`. A chunk
/// flagged `true` is taken to match entirely — the planner's `Always`
/// contract — so its rows skip the predicate.
pub fn run(query: &Query, chunks: &[(ChunkColumns, bool)]) -> Vec<(Vec<u64>, Vec<AggValue>)> {
    let mut groups: BTreeMap<Vec<u64>, Vec<Vec<u64>>> = BTreeMap::new();
    for (cols, full_match) in chunks {
        for i in 0..cols.len() {
            if !full_match && !matches_row(&query.predicate, cols, i) {
                continue;
            }
            let key = query
                .group_by
                .iter()
                .map(|e| eval_row(e, cols, i))
                .collect();
            let values = query
                .aggregates
                .iter()
                .map(|a| a.input().map_or(0, |e| eval_row(e, cols, i)))
                .collect();
            groups.entry(key).or_default().push(values);
        }
    }
    // A global aggregate over zero matching rows still yields its one
    // row — count 0, sums 0, the rest null — like SQL.
    if groups.is_empty() && query.group_by.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }
    groups
        .into_iter()
        .map(|(key, rows)| {
            let values = query
                .aggregates
                .iter()
                .enumerate()
                .map(|(i, agg)| {
                    let col: Vec<u64> = rows.iter().map(|r| r[i]).collect();
                    aggregate(agg, &col)
                })
                .collect();
            (key, values)
        })
        .collect()
}
