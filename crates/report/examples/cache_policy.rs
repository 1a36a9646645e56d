//! Storage-tier study (§4.2–§4.3 of the paper): measure how the candidate
//! cache policies perform on a generated access stream as cache capacity
//! varies, testing the paper's claim that a *size-threshold* admission
//! policy keeps hit rates high while detaching cache growth from data
//! growth.
//!
//! ```text
//! cargo run --release --example cache_policy
//! ```

use swim_sim::{CachePolicy, ReplayPlan, SimConfig, Simulator};
use swim_trace::trace::WorkloadKind;
use swim_trace::DataSize;
use swim_workloadgen::{GeneratorConfig, WorkloadGenerator};

fn main() {
    // CC-c has the strongest re-access behaviour (≈78 % of jobs touch
    // pre-existing data) — the most cache-friendly of the seven.
    let trace = WorkloadGenerator::new(
        GeneratorConfig::new(WorkloadKind::CcC)
            .scale(0.5)
            .days(5.0)
            .seed(13),
    )
    .generate();
    // Each replay job reads its trace job's first input path.
    let plan = ReplayPlan::from_trace(&trace);

    // Workload-specific size threshold (§4.2: "a viable cache policy is
    // to cache files whose size is less than a threshold"): the 90th
    // percentile of per-job input size, i.e. the knee where the Fig. 3
    // jobs-CDF flattens out.
    let mut sizes: Vec<u64> = trace.jobs().iter().map(|j| j.input.bytes()).collect();
    sizes.sort_unstable();
    let threshold = DataSize::from_bytes(sizes[sizes.len() * 9 / 10]);

    println!(
        "workload: {} ({} jobs, {} moved); size threshold = p90 job input = {}\n",
        trace.kind,
        trace.len(),
        trace.bytes_moved(),
        threshold
    );
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>10}",
        "policy", "cap 10GB", "cap 100GB", "cap 1TB", "cap 10TB"
    );

    let policies: [(&str, CachePolicy); 4] = [
        ("LRU", CachePolicy::Lru),
        ("LFU", CachePolicy::Lfu),
        (
            "size-threshold p90",
            CachePolicy::SizeThreshold { threshold },
        ),
        ("unlimited (bound)", CachePolicy::Unlimited),
    ];
    for (name, policy) in policies {
        print!("{name:<24}");
        for cap_gb in [10u64, 100, 1_000, 10_000] {
            let config =
                SimConfig::new(trace.machines).with_cache(policy, DataSize::from_gb(cap_gb));
            let result = Simulator::new(config).run(&plan);
            let stats = result.cache.expect("cache configured");
            print!(" {:>9.1}%", stats.hit_rate() * 100.0);
        }
        println!();
    }

    println!(
        "\nReading (paper §4.2): the threshold policy should approach the \
         unlimited bound at modest capacities because most re-accesses hit \
         small, hot files — while byte-fraction caching of the same data \
         would have to scale with total storage."
    );
}
