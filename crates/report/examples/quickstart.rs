//! Quickstart: generate one workload, run the paper's full analysis
//! battery over it, and print one section per table and figure.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use swim_report::{Comparison, TraceContext};
use swim_trace::trace::WorkloadKind;
use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

fn main() {
    // A week of the FB-2009-like workload at 5 % job scale: around
    // 20 000 jobs, generated in about a second.
    let trace = WorkloadGenerator::new(
        GeneratorConfig::new(WorkloadKind::Fb2009)
            .scale(0.05)
            .days(7.0)
            .seed(7),
    )
    .generate();

    let report = Comparison::new(vec![TraceContext::from_trace("FB-2009", trace)])
        .run()
        .expect("an in-memory trace always reads");
    for section in &report.sections {
        println!("{}", section.render_text());
    }
}
