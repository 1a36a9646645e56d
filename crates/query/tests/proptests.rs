//! Property tests: swim-query over random traces must agree with the
//! row-at-a-time oracle (`support`), which filters, groups, and
//! aggregates the jobs directly — including the empty-result and
//! all-match predicate edges — and parallel execution must be
//! bit-identical to serial.

mod support;

use proptest::prelude::*;
use swim_query::{execute, execute_serial, AggValue, Aggregate, CmpOp, Col, Expr, Pred, Query};
use swim_store::format::columns::{ChunkColumns, ColumnSet};
use swim_store::{store_to_vec, Store, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, Job, JobBuilder, Timestamp, Trace};

fn arb_job(id: u64) -> impl Strategy<Value = Job> {
    (
        0u64..50_000,   // submit
        1u64..10_000,   // duration
        0u64..u64::MAX, // input (full range: saturation must agree too)
        0u64..1 << 40,  // output
        1u32..50,       // map tasks
        0u32..5,        // reduce tasks
    )
        .prop_map(move |(s, d, i, o, mt, rt)| {
            let mut b = JobBuilder::new(id)
                .submit(Timestamp::from_secs(s))
                .duration(Dur::from_secs(d))
                .input(DataSize::from_bytes(i))
                .output(DataSize::from_bytes(o))
                .map_task_time(Dur::from_secs(1 + d % 900))
                .tasks(mt, rt);
            if rt > 0 {
                b = b
                    .shuffle(DataSize::from_bytes(i / 3))
                    .reduce_task_time(Dur::from_secs(1 + d % 70));
            }
            b.build().expect("constructed consistently")
        })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(any::<u8>(), 0..150).prop_flat_map(|seeds| {
        let jobs: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, _)| arb_job(i as u64))
            .collect();
        jobs.prop_map(|jobs| {
            Trace::new(WorkloadKind::Custom("prop".into()), 3, jobs).expect("valid jobs")
        })
    })
}

/// A predicate family indexed by small integers, spanning every operator,
/// derived expressions, boolean combinators, and the two degenerate
/// cases (always-false, always-true).
fn pick_pred(kind: u8, threshold: u64) -> Pred {
    let ops = [
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
        CmpOp::Eq,
        CmpOp::Ne,
    ];
    match kind % 10 {
        0 => Pred::True,
        // Always-false: durations start at 1 second.
        1 => Pred::cmp(Col::Duration, CmpOp::Lt, 1),
        2 => Pred::cmp(Col::Submit, ops[threshold as usize % 6], threshold % 50_000),
        3 => Pred::cmp(Col::Input, CmpOp::Ge, threshold.rotate_left(31)),
        4 => Pred::Cmp(Expr::total_io(), CmpOp::Gt, Expr::Lit(threshold)),
        5 => Pred::cmp(Col::ReduceTasks, CmpOp::Eq, threshold % 5),
        6 => Pred::cmp(Col::Duration, CmpOp::Ge, threshold % 10_000).and(Pred::cmp(
            Col::Submit,
            CmpOp::Lt,
            threshold % 60_000,
        )),
        7 => Pred::cmp(Col::Input, CmpOp::Lt, threshold).or(Pred::cmp(
            Col::MapTasks,
            CmpOp::Gt,
            threshold % 50,
        )),
        8 => Pred::Not(Box::new(Pred::cmp(
            Col::Submit,
            CmpOp::Ge,
            threshold % 50_000,
        ))),
        _ => Pred::Cmp(
            // Derived arithmetic on both sides.
            Expr::Div(
                Box::new(Expr::col(Col::Input)),
                Box::new(Expr::Lit(1 + threshold % 1000)),
            ),
            CmpOp::Le,
            Expr::Mul(
                Box::new(Expr::col(Col::Duration)),
                Box::new(Expr::Lit(threshold % 9)),
            ),
        ),
    }
}

fn pick_group(kind: u8) -> Vec<Expr> {
    match kind % 4 {
        0 => vec![],
        1 => vec![Expr::submit_hour()],
        2 => vec![Expr::col(Col::ReduceTasks)],
        _ => vec![
            Expr::col(Col::ReduceTasks),
            Expr::Div(
                Box::new(Expr::col(Col::Submit)),
                Box::new(Expr::Lit(10_000)),
            ),
        ],
    }
}

fn aggregates() -> Vec<Aggregate> {
    vec![
        Aggregate::Count,
        Aggregate::Sum(Expr::total_io()),
        Aggregate::Min(Expr::col(Col::Duration)),
        Aggregate::Max(Expr::col(Col::Input)),
        Aggregate::Avg(Expr::col(Col::Duration)),
        Aggregate::Percentile(Expr::col(Col::Duration), 0.5),
        // Shares p50's samples of `duration`; `input`'s are its own.
        Aggregate::Percentile(Expr::col(Col::Duration), 0.9),
        Aggregate::Percentile(Expr::col(Col::Input), 0.5),
    ]
}

/// The trace's jobs as one unchunked, unfiltered column set: what the
/// oracle evaluates rows of.
fn columns_of(trace: &Trace) -> ChunkColumns {
    ChunkColumns::project(trace.jobs(), ColumnSet::ALL)
}

fn oracle(trace: &Trace, query: &Query) -> Vec<(Vec<u64>, Vec<AggValue>)> {
    support::run(query, &[(columns_of(trace), false)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn query_engine_agrees_with_in_memory_oracle(
        trace in arb_trace(),
        jobs_per_chunk in 1u32..40,
        pred_kind in any::<u8>(),
        threshold in any::<u64>(),
        group_kind in any::<u8>(),
    ) {
        let store = Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk }));
        let store = store.expect("fresh store opens");
        let mut query = Query::new().filter(pick_pred(pred_kind, threshold));
        for key in pick_group(group_kind) {
            query = query.group(key);
        }
        for agg in aggregates() {
            query = query.select(agg);
        }

        let serial = execute_serial(&store, &query).expect("serial executes");
        // Engine rows arrive key-sorted; the oracle's BTreeMap matches.
        let got: Vec<(Vec<u64>, Vec<AggValue>)> = serial
            .rows
            .iter()
            .map(|r| (r.key.clone(), r.values.clone()))
            .collect();
        let expected = oracle(&trace, &query);
        prop_assert!(
            got == expected,
            "pred_kind={} threshold={} group_kind={} pred={} stats={:?}\n got: {:?}\n expected: {:?}",
            pred_kind, threshold, group_kind, query.predicate, serial.stats, got, expected
        );

        // Parallel execution is bit-identical, stats included.
        let parallel = execute(&store, &query).expect("parallel executes");
        prop_assert_eq!(&parallel, &serial);

        // Pruning accounting always balances.
        let s = serial.stats;
        prop_assert_eq!(s.chunks_scanned + s.chunks_skipped, s.chunks_total);
        prop_assert!(s.rows_matched <= s.rows_scanned);
        // Nothing the predicate matches may live in a skipped chunk:
        // total matches equal the oracle's row count.
        let cols = columns_of(&trace);
        let oracle_rows = (0..cols.len())
            .filter(|&i| support::matches_row(&query.predicate, &cols, i))
            .count() as u64;
        prop_assert_eq!(s.rows_matched, oracle_rows);
    }

    #[test]
    fn degenerate_predicates_hit_both_edges(
        trace in arb_trace(),
        jobs_per_chunk in 1u32..40,
    ) {
        let store = Store::from_vec(store_to_vec(&trace, &StoreOptions { jobs_per_chunk }))
            .expect("fresh store opens");
        let base = || {
            let mut q = Query::new();
            for agg in aggregates() {
                q = q.select(agg);
            }
            q
        };

        // All-match: every chunk is a full zone match, no filtering.
        let all = execute_serial(&store, &base()).expect("executes");
        prop_assert_eq!(all.stats.rows_matched, trace.len() as u64);
        prop_assert_eq!(all.stats.chunks_full_match, all.stats.chunks_scanned);
        prop_assert_eq!(
            &oracle(&trace, &base()),
            &all.rows.iter().map(|r| (r.key.clone(), r.values.clone())).collect::<Vec<_>>()
        );

        // Empty-match: zone maps prove it without reading any chunk.
        let none = base().filter(Pred::cmp(Col::Duration, CmpOp::Lt, 1));
        let out = execute_serial(&store, &none).expect("executes");
        prop_assert_eq!(out.stats.chunks_scanned, 0);
        prop_assert_eq!(out.stats.rows_matched, 0);
        prop_assert_eq!(out.rows.len(), 1); // the SQL-style global zero row
        prop_assert_eq!(out.rows[0].values[0], AggValue::Int(0));
        prop_assert_eq!(&oracle(&trace, &none),
            &out.rows.iter().map(|r| (r.key.clone(), r.values.clone())).collect::<Vec<_>>());
    }
}
