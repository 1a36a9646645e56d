//! Property tests for the columnar store: bit-exact round trips against
//! arbitrary traces, cross-codec agreement with CSV and JSON-lines, and
//! chunk-skipping correctness for time-range selection.

use proptest::prelude::*;
use swim_store::{store_to_vec, Store, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{io, DataSize, Dur, Job, JobBuilder, PathId, Timestamp, Trace};

fn arb_job(id: u64) -> impl Strategy<Value = Job> {
    (
        0u64..2_000_000,                                  // submit
        1u64..100_000,                                    // duration
        0u64..u64::MAX,                                   // input (full range: codec must be exact)
        0u64..u32::MAX as u64,                            // output
        1u32..1000,                                       // map tasks
        0u32..100,                                        // reduce tasks
        prop::collection::vec(0u64..1_000_000_000, 0..5), // input paths
        "[a-z]{0,12}",                                    // name
    )
        .prop_map(move |(s, d, i, o, mt, rt, paths, name)| {
            let mut b = JobBuilder::new(id)
                .name(name)
                .submit(Timestamp::from_secs(s))
                .duration(Dur::from_secs(d))
                .input(DataSize::from_bytes(i))
                .output(DataSize::from_bytes(o))
                .map_task_time(Dur::from_secs(d.min(3600) * mt as u64 / 4 + 1))
                .tasks(mt, rt)
                .input_paths(paths.iter().copied().map(PathId).collect())
                .output_paths(paths.into_iter().rev().map(PathId).collect());
            if rt > 0 {
                b = b
                    .shuffle(DataSize::from_bytes(i / 2))
                    .reduce_task_time(Dur::from_secs(d + 1));
            }
            b.build().expect("constructed consistently")
        })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(any::<u8>(), 0..120).prop_flat_map(|seeds| {
        let jobs: Vec<_> = seeds
            .iter()
            .enumerate()
            .map(|(i, _)| arb_job(i as u64))
            .collect();
        jobs.prop_map(|jobs| {
            Trace::new(WorkloadKind::Custom("prop".into()), 7, jobs).expect("valid jobs")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Trace → store → Trace is the identity, at any chunking.
    #[test]
    fn store_round_trip_is_identity(trace in arb_trace(), jobs_per_chunk in 1u32..200) {
        let bytes = store_to_vec(&trace, &StoreOptions { jobs_per_chunk });
        let store = Store::from_vec(bytes).unwrap();
        let back = store.read_trace().unwrap();
        prop_assert_eq!(back, trace);
    }

    /// The footer summary and the `par_summary` re-scan both equal the
    /// in-memory summary.
    #[test]
    fn summaries_agree(trace in arb_trace(), jobs_per_chunk in 1u32..64) {
        let store = Store::from_vec(
            store_to_vec(&trace, &StoreOptions { jobs_per_chunk }),
        ).unwrap();
        prop_assert_eq!(store.summary(), trace.summary());
        prop_assert_eq!(store.par_summary().unwrap(), trace.summary());
    }

    /// CSV ↔ store ↔ JSON-lines: the three codecs agree on every job
    /// (modulo CSV's documented comma-to-space name rewriting, which the
    /// `[a-z]*` names here never trigger).
    #[test]
    fn cross_codec_agreement(trace in arb_trace()) {
        // store path
        let store = Store::from_vec(
            store_to_vec(&trace, &StoreOptions::default()),
        ).unwrap();
        let via_store = store.read_trace().unwrap();
        // csv path
        let csv = io::to_csv_string(&trace).unwrap();
        let via_csv = io::from_csv_string(trace.kind.clone(), trace.machines, &csv).unwrap();
        // jsonl path
        let mut jsonl = Vec::new();
        io::write_jsonl(&trace, &mut jsonl).unwrap();
        let via_jsonl = io::read_jsonl(&jsonl[..]).unwrap();

        prop_assert_eq!(&via_store, &via_jsonl);
        prop_assert_eq!(via_store.jobs(), via_csv.jobs());
        prop_assert_eq!(&via_store, &trace);
    }

    /// Chunk-skipping time-range selection equals the in-memory
    /// `select_range`, and actually skips chunks when the range is a
    /// narrow slice of a multi-chunk store.
    #[test]
    fn range_scan_equals_select_range(
        trace in arb_trace(),
        jobs_per_chunk in 1u32..40,
        a in 0u64..2_500_000,
        b in 0u64..2_500_000,
    ) {
        let (from, to) = (a.min(b), a.max(b));
        let (from, to) = (Timestamp::from_secs(from), Timestamp::from_secs(to));
        let store = Store::from_vec(
            store_to_vec(&trace, &StoreOptions { jobs_per_chunk }),
        ).unwrap();
        let got: Result<Vec<_>, _> = store.scan_range(from, to).unwrap().jobs().collect();
        let expected = trace.select_range(from, to);
        prop_assert_eq!(got.unwrap(), expected.jobs());

        let scan = store.scan_range(from, to).unwrap();
        prop_assert_eq!(
            scan.selected_chunks() + scan.skipped_chunks,
            store.chunk_count()
        );
        // Every skipped chunk is provably outside the range.
        for (i, meta) in store.chunk_meta().iter().enumerate() {
            let selected = meta.max_submit >= from && meta.min_submit < to;
            if !selected {
                prop_assert!(
                    meta.max_submit < from || meta.min_submit >= to,
                    "chunk {i} skipped but overlaps range"
                );
            }
        }
    }

    /// A narrow window over a long trace must skip most chunks.
    #[test]
    fn narrow_ranges_skip_most_chunks(n in 500usize..1500) {
        let jobs: Vec<Job> = (0..n)
            .map(|i| {
                JobBuilder::new(i as u64)
                    .submit(Timestamp::from_secs(i as u64 * 60))
                    .duration(Dur::from_secs(30))
                    .input(DataSize::from_mb(1))
                    .map_task_time(Dur::from_secs(10))
                    .tasks(1, 0)
                    .build()
                    .unwrap()
            })
            .collect();
        let trace = Trace::new(WorkloadKind::Custom("dense".into()), 3, jobs).unwrap();
        let store = Store::from_vec(
            store_to_vec(&trace, &StoreOptions { jobs_per_chunk: 32 }),
        ).unwrap();
        let scan = store
            .scan_range(Timestamp::from_secs(0), Timestamp::from_secs(30 * 60))
            .unwrap();
        prop_assert_eq!(scan.selected_chunks(), 1);
        prop_assert_eq!(scan.skipped_chunks, store.chunk_count() - 1);
        let jobs: Result<Vec<_>, _> = scan.jobs().collect();
        prop_assert_eq!(jobs.unwrap().len(), 30);
    }
}
