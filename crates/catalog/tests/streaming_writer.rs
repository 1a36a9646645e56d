//! The one shard write path, from outside the crate: `ingest_stream`,
//! `ingest_trace` and `write_store` over the same jobs publish the same
//! bytes whatever the block, shard and chunk sizes; a stream that fails
//! part-way leaves no temp file and no manifest change; and nothing a
//! stream writes is visible to a reader before its manifest is.

use std::path::{Path, PathBuf};
use swim_catalog::{Catalog, CatalogError, CatalogOptions, ShardEntry};
use swim_store::{store_to_vec, Store, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, Job, JobBuilder, PathId, Timestamp, Trace};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "swim-catalog-streaming-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn varied_trace(n: u64) -> Trace {
    let jobs = (0..n)
        .map(|i| {
            let mut b = JobBuilder::new(i)
                .name(format!("job_{}", i % 11))
                .submit(Timestamp::from_secs(i * 97 % 50_000))
                .duration(Dur::from_secs(1 + i % 399))
                .input(DataSize::from_bytes(
                    i.wrapping_mul(0x9E37_79B9) % (1 << 40),
                ))
                .output(DataSize::from_bytes(i * 1000))
                .map_task_time(Dur::from_secs(5 + i % 100))
                .tasks(1 + (i % 30) as u32, (i % 3) as u32)
                .input_paths(vec![PathId(i % 50); (i % 3) as usize]);
            if i % 3 > 0 {
                b = b
                    .shuffle(DataSize::from_bytes(i * 13))
                    .reduce_task_time(Dur::from_secs(2 + i % 55));
            }
            b.build().unwrap()
        })
        .collect();
    Trace::new(WorkloadKind::Custom("streamed".into()), 42, jobs).unwrap()
}

fn options(jobs_per_shard: u32, jobs_per_chunk: u32) -> CatalogOptions {
    CatalogOptions {
        jobs_per_shard,
        store: StoreOptions { jobs_per_chunk },
    }
}

fn blocks_of(jobs: &[Job], len: usize) -> Vec<Vec<Job>> {
    jobs.chunks(len).map(<[Job]>::to_vec).collect()
}

/// Files in `dir` whose name ends in `suffix`.
fn files_ending(dir: &Path, suffix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(suffix))
        .collect();
    names.sort();
    names
}

/// The manifest entries with the (per-attempt unique) file names blanked.
fn entries_modulo_names(catalog: &Catalog) -> Vec<ShardEntry> {
    catalog
        .shards()
        .iter()
        .cloned()
        .map(|mut entry| {
            entry.file.clear();
            entry
        })
        .collect()
}

fn shard_bytes(catalog: &Catalog) -> Vec<Vec<u8>> {
    catalog
        .shards()
        .iter()
        .map(|entry| std::fs::read(catalog.dir().join(&entry.file)).unwrap())
        .collect()
}

#[test]
fn every_write_path_publishes_the_same_bytes() {
    let trace = varied_trace(12_000);
    let dir = temp_dir("paths");
    for jobs_per_shard in [300u32, 4096, 10_923] {
        for jobs_per_chunk in [64u32, 4096] {
            let options = options(jobs_per_shard, jobs_per_chunk);
            // The reference: each shard's slice through `write_store`.
            let expected: Vec<Vec<u8>> = trace
                .jobs()
                .chunks(jobs_per_shard as usize)
                .map(|slice| {
                    let shard =
                        Trace::new(trace.kind.clone(), trace.machines, slice.to_vec()).unwrap();
                    store_to_vec(&shard, &options.store)
                })
                .collect();

            let mut whole = Catalog::init(dir.join("whole")).unwrap();
            whole.ingest_trace(&trace, &options).unwrap();
            assert_eq!(shard_bytes(&whole), expected);
            assert_eq!(whole.summary(), trace.summary());

            for block in [1usize, 37, 4096, 5000] {
                let what = format!("shard {jobs_per_shard}, chunk {jobs_per_chunk}, block {block}");
                let mut streamed = Catalog::init(dir.join("streamed")).unwrap();
                let stats = streamed
                    .ingest_stream(
                        trace.kind.clone(),
                        trace.machines,
                        blocks_of(trace.jobs(), block),
                        &options,
                    )
                    .unwrap();
                assert_eq!(stats.shards, expected.len(), "{what}");
                assert_eq!(shard_bytes(&streamed), expected, "{what}");
                assert_eq!(
                    entries_modulo_names(&streamed),
                    entries_modulo_names(&whole),
                    "{what}"
                );
                assert_eq!(streamed.generation(), whole.generation());
                assert!(files_ending(streamed.dir(), ".tmp").is_empty(), "{what}");
                std::fs::remove_dir_all(streamed.dir()).unwrap();
            }
            std::fs::remove_dir_all(whole.dir()).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// What every failed stream must leave behind: no temp file, the
/// manifest of before, and — once `vacuum` has taken the shards that were
/// published but never referenced — a catalog that ingests cleanly.
fn assert_untouched_then_reingest(catalog: &mut Catalog, orphans: usize, trace: &Trace) {
    let dir = catalog.dir().to_path_buf();
    assert!(files_ending(&dir, ".tmp").is_empty(), "temp litter");
    assert_eq!(catalog.generation(), 0);
    assert_eq!(catalog.shard_count(), 0);
    let reopened = Catalog::open(&dir).unwrap();
    assert_eq!(reopened.generation(), 0);
    assert_eq!(reopened.shard_count(), 0);
    assert_eq!(files_ending(&dir, ".swim").len(), orphans);
    assert_eq!(catalog.vacuum().unwrap(), orphans);
    catalog.ingest_trace(trace, &options(300, 64)).unwrap();
    assert_eq!(catalog.generation(), 1);
    assert_eq!(
        swim_catalog::read_stores(&catalog.open_shards().unwrap(), |_, e| e).unwrap(),
        *trace
    );
    assert!(files_ending(&dir, ".tmp").is_empty());
}

#[test]
fn an_err_block_mid_shard_leaves_no_trace() {
    // A `.swim` source whose tenth chunk is damaged: nine 50-job chunks
    // stream in (one 300-job shard published, 150 jobs into the next),
    // then the block iterator yields an error.
    let trace = varied_trace(700);
    let dir = temp_dir("err-block");
    std::fs::create_dir_all(&dir).unwrap();
    let source = dir.join("source.swim");
    let mut image = store_to_vec(&trace, &StoreOptions { jobs_per_chunk: 50 });
    let damaged = Store::from_vec(image.clone()).unwrap().chunk_meta()[9].offset as usize;
    image[damaged] ^= 0xFF;
    std::fs::write(&source, image).unwrap();

    let mut catalog = Catalog::init(dir.join("cat")).unwrap();
    let err = catalog
        .ingest_path(&source, 1, &options(300, 64))
        .expect_err("damaged chunk");
    assert!(matches!(err, CatalogError::Parse { .. }), "{err}");
    assert_untouched_then_reingest(&mut catalog, 1, &trace);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_out_of_order_block_is_refused_naming_the_job() {
    let trace = varied_trace(700);
    let dir = temp_dir("unsorted");
    // Swapped blocks: the second of each pair starts with a job that
    // sorts before its predecessor — inside the first shard (the store
    // writer's check) and as the first job of the second (the link the
    // catalog checks across shards).
    for (swap, orphans) in [((0, 1), 0), ((2, 3), 1)] {
        let mut blocks = blocks_of(trace.jobs(), 100);
        blocks.swap(swap.0, swap.1);
        let offender = blocks[swap.1][0].id.0;
        let mut catalog = Catalog::init(&dir).unwrap();
        let err = catalog
            .ingest_stream(
                trace.kind.clone(),
                trace.machines,
                blocks,
                &options(300, 64),
            )
            .expect_err("out of order");
        match &err {
            CatalogError::Invalid(message) => {
                assert!(message.contains(&format!("job {offender} ")), "{message}")
            }
            other => panic!("expected Invalid, got {other}"),
        }
        assert_untouched_then_reingest(&mut catalog, orphans, &trace);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_panicking_iterator_leaves_no_trace() {
    let trace = varied_trace(700);
    let dir = temp_dir("panic");
    let mut catalog = Catalog::init(&dir).unwrap();
    let blocks = blocks_of(trace.jobs(), 100)
        .into_iter()
        .enumerate()
        .map(|(i, block)| {
            assert!(i < 4, "the generator fell over");
            block
        });
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        catalog.ingest_stream(
            trace.kind.clone(),
            trace.machines,
            blocks,
            &options(300, 64),
        )
    }));
    assert!(unwound.is_err());
    // 400 jobs in: one shard published, the second unwound mid-write.
    assert_untouched_then_reingest(&mut catalog, 1, &trace);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_reader_inside_the_stream_sees_the_old_generation() {
    let dir = temp_dir("reader");
    let first = varied_trace(500);
    let mut catalog = Catalog::init(&dir).unwrap();
    catalog.ingest_trace(&first, &options(300, 64)).unwrap();
    let (old_shards, old_summary) = (catalog.shards().to_vec(), catalog.summary());

    let second = varied_trace(900);
    let reader_dir = dir.clone();
    let blocks = blocks_of(second.jobs(), 100)
        .into_iter()
        .enumerate()
        .map(|(i, block)| {
            // Shards of this stream are already linked under their final
            // names (fsynced first), yet the manifest — rewritten last —
            // still describes the dataset of before.
            assert_eq!(
                files_ending(&reader_dir, ".swim").len(),
                old_shards.len() + i / 3
            );
            let reader = Catalog::open(&reader_dir).unwrap();
            assert_eq!(reader.generation(), 1);
            assert_eq!(reader.shards(), old_shards);
            assert_eq!(reader.summary(), old_summary);
            block
        });
    catalog
        .ingest_stream(
            second.kind.clone(),
            second.machines,
            blocks,
            &options(300, 64),
        )
        .unwrap();
    let reader = Catalog::open(&dir).unwrap();
    assert_eq!(reader.generation(), 2);
    assert_eq!(reader.job_count(), 1400);
    std::fs::remove_dir_all(&dir).unwrap();
}
