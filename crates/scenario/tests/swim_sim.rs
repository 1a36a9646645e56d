//! `swim-sim` end to end: a small CC-e sweep prints one row per scenario,
//! and the generator's file model reaches the cache through the replay
//! plan alone, so the unlimited cache row shows hits.

use std::process::Command;

#[test]
fn a_small_cc_e_sweep_prints_a_row_per_cache_and_the_unlimited_one_hits() {
    let output = Command::new(env!("CARGO_BIN_EXE_swim-sim"))
        .args([
            "--days",
            "0.5",
            "--scale",
            "0.1",
            "--nodes",
            "4",
            "--schedulers",
            "fifo",
            "--caches",
            "none,unlimited",
        ])
        .output()
        .expect("swim-sim runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(0), "{stderr}");

    // Rows start with the node count. The makespan cell (`t+19 hrs 56
    // min`) spans several words, so the hit rate is read from the end:
    // it is the last cell but `Events`.
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .filter(|l| l.starts_with("4 "))
        .map(|l| l.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), 2, "{stdout}");
    let hit_rate = |row: &Vec<&str>| row[row.len() - 2].to_owned();
    assert_eq!((rows[0][2], hit_rate(&rows[0]).as_str()), ("none", "-"));
    assert_eq!(rows[1][2], "unlimited");
    let unlimited = hit_rate(&rows[1]);
    let percent: f64 = unlimited
        .trim_end_matches('%')
        .parse()
        .unwrap_or_else(|_| panic!("hit rate {unlimited} in {stdout}"));
    assert!(percent > 0.0, "{stdout}");
}
