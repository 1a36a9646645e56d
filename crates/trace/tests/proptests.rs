//! Property tests for the trace substrate: codec round-trips, container
//! invariants, and newtype arithmetic.

use proptest::prelude::*;
use swim_trace::io;
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, Job, JobBuilder, PathId, Timestamp, Trace};

fn arb_job(id: u64) -> impl Strategy<Value = Job> {
    (
        0u64..1_000_000_000,                    // submit
        1u64..100_000,                          // duration
        0u64..u32::MAX as u64,                  // input
        0u64..u32::MAX as u64,                  // output
        1u32..1000,                             // map tasks
        0u32..100,                              // reduce tasks
        prop::collection::vec(0u64..500, 0..4), // input paths
        "[a-z]{0,12}",                          // name
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
                .input_paths(paths.into_iter().map(PathId).collect());
            if rt > 0 {
                b = b
                    .shuffle(DataSize::from_bytes(i / 2))
                    .reduce_task_time(Dur::from_secs(d + 1));
            }
            b.build().expect("constructed consistently")
        })
}

fn arb_trace() -> impl Strategy<Value = Trace> {
    prop::collection::vec(any::<u8>(), 1..30).prop_flat_map(|seeds| {
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

    #[test]
    fn jsonl_round_trip_is_identity(trace in arb_trace()) {
        let mut buf = Vec::new();
        io::write_jsonl(&trace, &mut buf).unwrap();
        let back = io::read_jsonl(&buf[..]).unwrap();
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn csv_round_trip_preserves_numeric_fields(trace in arb_trace()) {
        let mut csv = Vec::new();
        io::write_csv(&trace, &mut csv).unwrap();
        let back = io::read_csv(trace.kind.clone(), trace.machines, &csv[..]).unwrap();
        prop_assert_eq!(back.len(), trace.len());
        prop_assert_eq!(back.bytes_moved(), trace.bytes_moved());
        prop_assert_eq!(back.total_task_time(), trace.total_task_time());
        for (a, b) in back.jobs().iter().zip(trace.jobs()) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.submit, b.submit);
            prop_assert_eq!(&a.input_paths, &b.input_paths);
        }
    }

    #[test]
    fn select_range_partitions_trace(trace in arb_trace(), cut in 0u64..1_000_000_000) {
        let mid = Timestamp::from_secs(cut);
        let far = Timestamp::from_secs(u64::MAX);
        let early = trace.select_range(Timestamp::ZERO, mid);
        let late = trace.select_range(mid, far);
        prop_assert_eq!(early.len() + late.len(), trace.len());
        prop_assert_eq!(
            early.bytes_moved() + late.bytes_moved(),
            trace.bytes_moved()
        );
    }

    #[test]
    fn merge_preserves_job_count_and_bytes(a in arb_trace(), b in arb_trace()) {
        let m = a.merge(&b);
        prop_assert_eq!(m.len(), a.len() + b.len());
        prop_assert_eq!(m.bytes_moved(), a.bytes_moved() + b.bytes_moved());
        // Ids stay unique.
        let mut ids: Vec<u64> = m.jobs().iter().map(|j| j.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), m.len());
    }

    #[test]
    fn datasize_display_never_panics(bytes in any::<u64>()) {
        let _ = DataSize::from_bytes(bytes).to_string();
    }

    #[test]
    fn dur_display_never_panics(secs in any::<u64>()) {
        let _ = Dur::from_secs(secs).to_string();
    }
}
