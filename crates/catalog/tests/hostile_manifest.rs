//! Numbers read from `MANIFEST` are text anyone can edit: none of them
//! may size an allocation, overflow a sum, be cut to a narrower type, or
//! stand in for a shard file that says otherwise. Each case edits one
//! field of a real catalog's manifest by hand and expects a typed
//! [`CatalogError`] (or an honest saturated count) — never an abort or a
//! panic — and the untouched catalog reads back exactly as ingested.

use std::path::{Path, PathBuf};
use swim_catalog::{read_stores, Catalog, CatalogError, CatalogOptions};
use swim_store::{StoreError, StoreOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

fn trace(n: u64) -> Trace {
    let jobs = (0..n)
        .map(|i| {
            JobBuilder::new(i)
                .submit(Timestamp::from_secs(i * 60))
                .duration(Dur::from_secs(1 + i % 90))
                .input(DataSize::from_bytes(i * 1_000_003))
                .map_task_time(Dur::from_secs(5 + i % 40))
                .tasks(1 + (i % 7) as u32, 0)
                .build()
                .unwrap()
        })
        .collect();
    Trace::new(WorkloadKind::Custom("hostile".into()), 42, jobs).unwrap()
}

/// A two-shard catalog of 300 + 100 jobs; returns its directory and the
/// trace it holds.
fn two_shard_catalog(tag: &str) -> (PathBuf, Trace) {
    let dir =
        std::env::temp_dir().join(format!("swim-catalog-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let trace = trace(400);
    let options = CatalogOptions {
        jobs_per_shard: 300,
        store: StoreOptions { jobs_per_chunk: 64 },
    };
    let mut catalog = Catalog::init(&dir).unwrap();
    catalog.ingest_trace(&trace, &options).unwrap();
    assert_eq!(catalog.shard_count(), 2);
    (dir, trace)
}

/// The catalog read back as one trace: `read_stores` over its shards,
/// a read error named by the shard it came from.
fn read_back(catalog: &Catalog) -> Result<Trace, CatalogError> {
    let stores = catalog.open_shards()?;
    read_stores(&stores, |idx, source| CatalogError::Shard {
        file: catalog.shards()[idx].file.clone(),
        source,
    })
}

/// Rewrite the manifest with `from` replaced by `to` on shard line
/// `shard` (0-based; `None` = every line), and reopen.
fn reopen_edited(
    dir: &Path,
    shard: Option<usize>,
    from: &str,
    to: &str,
) -> Result<Catalog, CatalogError> {
    let path = dir.join("MANIFEST");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut seen = 0;
    let edited: Vec<String> = text
        .lines()
        .map(|line| {
            if !line.starts_with("shard\t") {
                return line.to_owned();
            }
            seen += 1;
            if shard.is_some_and(|s| s + 1 != seen) {
                return line.to_owned();
            }
            assert!(line.contains(from), "{from:?} not in {line:?}");
            line.replacen(from, to, 1)
        })
        .collect();
    std::fs::write(&path, edited.join("\n") + "\n").unwrap();
    Catalog::open(dir)
}

#[test]
fn an_untouched_catalog_reads_back_exactly() {
    let (dir, trace) = two_shard_catalog("untouched");
    let catalog = Catalog::open(&dir).unwrap();
    assert_eq!(catalog.job_count(), 400);
    assert_eq!(catalog.summary(), trace.summary());
    assert_eq!(read_back(&catalog).unwrap(), trace);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_absurd_job_count_is_a_typed_error_not_an_allocation() {
    let (dir, _) = two_shard_catalog("absurd-jobs");
    // 2^60 jobs: reserving for them would abort in the allocator.
    let catalog = reopen_edited(
        &dir,
        Some(0),
        "\tjobs=300\t",
        "\tjobs=1152921504606846976\t",
    )
    .expect("the manifest still parses: the field is a u64");
    assert_eq!(catalog.job_count(), (1 << 60) + 100);
    let err = read_back(&catalog).expect_err("shard 0 holds 300 jobs");
    assert!(
        matches!(
            err,
            CatalogError::Shard {
                source: StoreError::Corrupt { .. },
                ..
            }
        ),
        "unexpected error {err:?}"
    );
    assert!(err.to_string().contains("manifest"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn job_counts_that_overflow_their_sum_saturate() {
    let (dir, _) = two_shard_catalog("overflow");
    let big = format!("\tjobs={}\t", u64::MAX - 5);
    reopen_edited(&dir, Some(0), "\tjobs=300\t", &big).unwrap();
    let catalog = reopen_edited(&dir, Some(1), "\tjobs=100\t", &big).unwrap();
    assert_eq!(catalog.job_count(), u64::MAX);
    assert_eq!(catalog.summary().jobs as u64, u64::MAX);
    assert!(read_back(&catalog).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn version_and_machines_are_range_checked_not_truncated() {
    for (tag, from, to) in [
        // 65541 cut to 16 bits is 5, the version this build writes.
        ("version", "\tv=5\t", "\tv=65541\t"),
        // 2^32 + 42 cut to 32 bits is the real 42.
        ("machines", "\tmachines=42\t", "\tmachines=4294967338\t"),
    ] {
        let (dir, _) = two_shard_catalog(tag);
        let err = reopen_edited(&dir, None, from, to).expect_err("out of range");
        assert!(
            matches!(err, CatalogError::Manifest { .. }),
            "{tag}: unexpected error {err:?}"
        );
        assert!(err.to_string().contains("out-of-range"), "{tag}: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_swapped_shard_file_is_refused_at_open() {
    let (dir, _) = two_shard_catalog("swapped");
    let catalog = Catalog::open(&dir).unwrap();
    let files: Vec<PathBuf> = catalog.shards().iter().map(|s| dir.join(&s.file)).collect();
    // The 100-job shard's bytes under the 300-job shard's name: a valid
    // store, just not the one the manifest line describes.
    std::fs::copy(&files[1], &files[0]).unwrap();
    let err = catalog.open_shard(0).expect_err("stale shard");
    assert!(
        matches!(
            err,
            CatalogError::Shard {
                source: StoreError::Corrupt { .. },
                ..
            }
        ),
        "unexpected error {err:?}"
    );
    assert!(catalog.open_shard(1).is_ok());
    assert!(read_back(&catalog).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}
