//! Property tests for the columnar store: bit-exact round trips against
//! arbitrary traces and cross-codec agreement with CSV and JSON-lines.

use proptest::prelude::*;
use swim_store::format::columns;
use swim_store::{pack, store_to_vec, Store, StoreOptions, StoreWriter};
use swim_trace::trace::WorkloadKind;
use swim_trace::{io, DataSize, Dur, Job, JobBuilder, PathId, Timestamp, Trace};

/// The store read back as one trace, chunk by chunk through `Store::scan`.
fn scanned(store: &Store) -> Trace {
    let jobs = store.scan().unwrap().flat_map(Result::unwrap).collect();
    Trace::new_unchecked(store.kind().clone(), store.machines(), jobs)
}

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

/// Names from every corner of the split rule: stems empty, ASCII, with
/// multi-byte characters (also right before the digits), or ending in
/// zeros; tails absent, short, with leading zeros, around `u64::MAX`,
/// and longer than any `u64`. Few distinct stems, so they repeat within
/// a chunk and the per-stem deltas run in both directions.
fn arb_name() -> impl Strategy<Value = String> {
    (0u8..8, 0u8..10, any::<u64>(), 0u64..50).prop_map(|(stem, tail, wide, narrow)| {
        let stem = match stem {
            0 => "",
            1 => "insert_",
            2 => "oozie:launcher:T=",
            3 => "é",
            4 => "数据-",
            5 => "job_00",
            6 => "a1b",
            _ => "0",
        };
        let tail = match tail {
            0 => String::new(),
            1 => narrow.to_string(),
            2 => wide.to_string(),
            3 => format!("{narrow:03}"),
            4 => u64::MAX.to_string(),
            5 => "18446744073709551616".to_owned(), // u64::MAX + 1
            6 => format!("{}{wide}", u64::MAX),
            7 => format!("{wide}0000000000000000000000"),
            8 => "0".to_owned(),
            _ => (u64::MAX - narrow).to_string(),
        };
        format!("{stem}{tail}")
    })
}

/// One job per name, in order, through `StoreWriter` and back through
/// `ChunkReader::jobs`; the store's image comes back too.
fn names_round_trip(names: &[String], jobs_per_chunk: u32) -> (Vec<String>, Vec<u8>) {
    let mut image = Vec::new();
    let kind = WorkloadKind::Custom("names".into());
    let mut writer = StoreWriter::new(&mut image, kind, 1, &StoreOptions { jobs_per_chunk })
        .expect("valid options");
    let jobs: Vec<Job> = (0u64..)
        .zip(names)
        .map(|(i, name)| JobBuilder::new(i).name(name.clone()).build_unchecked())
        .collect();
    for block in jobs.chunks(7) {
        writer.push(block).expect("in order");
    }
    writer.finish().expect("writes");
    let store = Store::from_vec(image.clone()).expect("opens");
    let mut reader = store.reader().expect("reads");
    let back = (0..store.chunk_count())
        .flat_map(|chunk| reader.jobs(chunk).expect("decodes"))
        .map(|job| job.name)
        .collect();
    (back, image)
}

#[test]
fn all_distinct_digitless_names_cost_at_most_three_bytes_a_job_over_raw() {
    // The worst case of the name coding: every name its own stem, none
    // with a suffix to save on. 4,096 of them in one default chunk.
    let names: Vec<String> = (0..4096u32)
        .map(|i| {
            let letters = (0..3).map(|d| char::from(b'a' + (i >> (4 * d) & 15) as u8));
            letters.collect::<String>() + "-é"
        })
        .collect();
    assert!(names
        .iter()
        .all(|n| columns::split_name(n) == (n.as_str(), None)));
    let (back, image) = names_round_trip(&names, 4096);
    assert_eq!(back, names);

    // The chunk's table: lengths of the stems, codes and suffixes blocks.
    let store = Store::from_vec(image.clone()).unwrap();
    let table = store.chunk_meta()[0].offset as usize + swim_store::format::CHUNK_HEADER_LEN;
    let len = |block: usize| {
        let entry = table + block * 16;
        u64::from_le_bytes(image[entry..entry + 8].try_into().unwrap())
    };
    // Stored raw, each name would cost its length, one byte here, and
    // its six bytes. Coded it costs the same in the stems block, which
    // also starts with a two-byte count, plus a code: up to 8,190 (the
    // last stem id, doubled), so 13 bits each behind a three-byte header.
    // The empty suffixes block is a header alone.
    let raw = 4096 * (1 + 6);
    assert_eq!(len(10), 2 + raw);
    assert_eq!(len(11), 3 + 4096 * 13 / 8);
    assert_eq!(len(12), 3);
    assert!(len(10) + len(11) + len(12) <= raw + 3 * 4096);
}

/// Values from every corner of the packed codec: runs of one value,
/// small values with a few wide outliers, either end of the `u64` range,
/// and full-width noise.
fn arb_block() -> impl Strategy<Value = Vec<u64>> {
    let draws = prop::collection::vec((0u8..6, any::<u64>()), 0..300);
    (0u8..3, draws, any::<u64>(), any::<usize>()).prop_map(|(shape, draws, wide, at)| {
        let mut values: Vec<u64> = draws
            .into_iter()
            .map(|(kind, r)| match kind {
                0 => 0,
                1 => u64::MAX,
                2 => r % 8,
                3 => r % 100_000,
                4 => u64::MAX - r % 1000,
                _ => r,
            })
            .collect();
        match shape {
            0 => {}
            1 => values.fill(wide),
            _ => {
                values.iter_mut().for_each(|v| *v %= 16);
                if !values.is_empty() {
                    let at = at % values.len();
                    values[at] = wide;
                }
            }
        }
        values
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every block packs and unpacks to itself, never at width 0 when
    /// the caller forbids it, and never past the worst case: 8 bytes a
    /// value plus the header.
    #[test]
    fn packed_blocks_round_trip_within_the_worst_case(
        values in arb_block(),
        floor in 0u32..2,
    ) {
        let mut block = Vec::new();
        pack::encode(&mut block, &values, floor);
        prop_assert_eq!(pack::decode(&block, values.len()).unwrap(), values.clone());
        prop_assert!(block.len() <= 8 * values.len() + pack::MAX_HEADER_LEN);
        let mut pos = 0;
        swim_store::varint::get_u64(&block, &mut pos).unwrap();
        prop_assert!(u32::from(block[pos]) >= floor);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every name comes back byte for byte, whatever the chunking, and
    /// the split the encoder relies on always prints back as the name.
    #[test]
    fn names_round_trip_exactly(
        names in prop::collection::vec(arb_name(), 0..150),
        jobs_per_chunk in 1u32..80,
    ) {
        for name in &names {
            let (stem, suffix) = columns::split_name(name);
            let printed = suffix.map_or(String::new(), |s| s.to_string());
            prop_assert_eq!(&format!("{stem}{printed}"), name);
            // And it is the longest such split: the earliest start whose
            // tail parses as a `u64` and prints back as itself.
            let by_trial = (0..name.len())
                .filter(|&at| name.is_char_boundary(at))
                .find_map(|at| {
                    let value: u64 = name[at..].parse().ok()?;
                    (value.to_string() == name[at..]).then_some((&name[..at], Some(value)))
                });
            prop_assert_eq!((stem, suffix), by_trial.unwrap_or((name.as_str(), None)));
        }
        let (back, _) = names_round_trip(&names, jobs_per_chunk);
        prop_assert_eq!(back, names);
    }

    /// Trace → store → Trace is the identity, at any chunking.
    #[test]
    fn store_round_trip_is_identity(trace in arb_trace(), jobs_per_chunk in 1u32..200) {
        let bytes = store_to_vec(&trace, &StoreOptions { jobs_per_chunk });
        let store = Store::from_vec(bytes).unwrap();
        prop_assert_eq!(scanned(&store), trace);
    }

    /// The footer summary equals the in-memory summary.
    #[test]
    fn summaries_agree(trace in arb_trace(), jobs_per_chunk in 1u32..64) {
        let store = Store::from_vec(
            store_to_vec(&trace, &StoreOptions { jobs_per_chunk }),
        ).unwrap();
        prop_assert_eq!(store.summary(), trace.summary());
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
        let via_store = scanned(&store);
        // csv path
        let mut csv = Vec::new();
        io::write_csv(&trace, &mut csv).unwrap();
        let via_csv = io::read_csv(trace.kind.clone(), trace.machines, &csv[..]).unwrap();
        // jsonl path
        let mut jsonl = Vec::new();
        io::write_jsonl(&trace, &mut jsonl).unwrap();
        let via_jsonl = io::read_jsonl(&jsonl[..]).unwrap();

        prop_assert_eq!(&via_store, &via_jsonl);
        prop_assert_eq!(via_store.jobs(), via_csv.jobs());
        prop_assert_eq!(&via_store, &trace);
    }
}
