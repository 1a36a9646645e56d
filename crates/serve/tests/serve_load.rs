//! Golden pin for the serve load-generator report: the masked render
//! must be byte-stable across runs (deterministic counters printed for
//! real, scheduling-dependent values masked). Regenerate after an
//! *intentional* format change with
//!
//! ```sh
//! SWIM_REGEN_GOLDEN=1 cargo test -p swim-serve --test serve_load
//! ```

use std::path::PathBuf;

use swim_catalog::{Catalog, CatalogOptions};
use swim_serve::load::{self, LoadConfig};
use swim_serve::{serve, ServeOptions};
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, Timestamp, Trace};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve-load.txt")
}

fn demo_trace(jobs: u64) -> Trace {
    let jobs = (0..jobs)
        .map(|i| {
            let x = i.wrapping_mul(2654435761);
            JobBuilder::new(i)
                .submit(Timestamp::from_secs(i * 60))
                .duration(Dur::from_secs(30 + x % 240))
                .input(DataSize::from_mb(1 + x % 256))
                .map_task_time(Dur::from_secs(60 + x % 90))
                .tasks(1 + (x % 8) as u32, 0)
                .build()
                .unwrap()
        })
        .collect();
    Trace::new(WorkloadKind::Custom("serve-load".into()), 50, jobs).unwrap()
}

#[test]
fn masked_load_report_matches_golden() {
    let dir = std::env::temp_dir().join(format!("swim-serve-load-{}", std::process::id()));
    let cat_dir = dir.join("cat.d");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut catalog = Catalog::init(&cat_dir).unwrap();
    catalog
        .ingest_trace(&demo_trace(400), &CatalogOptions::default())
        .unwrap();
    drop(catalog);

    let handle = serve(&cat_dir, ServeOptions::default()).unwrap();
    let config = LoadConfig::new(handle.addr(), 4, 6);
    let report = load::run_load(&config);
    handle.shutdown_join();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(report.requests, 24);
    assert_eq!(
        report.ok, 24,
        "errors={} overloaded={}",
        report.errors, report.overloaded
    );
    let rendered = load::render(&report, true);

    let path = golden_path();
    if std::env::var_os("SWIM_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    if rendered != golden {
        let diff = rendered
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(n, (a, b))| format!("line {}: got {a:?}, golden {b:?}", n + 1))
            .unwrap_or_else(|| {
                format!(
                    "lengths differ: got {} bytes, golden {}",
                    rendered.len(),
                    golden.len()
                )
            });
        panic!("serve load report drifted from its golden pin: {diff}");
    }
}
