//! Pins every field of every job of two scenario streams whose file
//! populations saturate: small `PopulationBounds`, and streams long
//! enough that file slots are recycled and the access log and the
//! output list wrap. The scenario goldens stop below every cap, so this
//! is what holds the recycling paths of `FilePopulation` (and the
//! samplers that feed it) to the same bytes across a rewrite.

use swim_scenario::{presets, ScenarioStream};
use swim_trace::Job;
use swim_workloadgen::files::PopulationBounds;

const BOUNDS: PopulationBounds = PopulationBounds {
    max_files: 256,
    reserved_files: 32,
    max_outputs: 64,
    max_access_log: 64,
};

/// FNV-1a over every field of every job, in stream order, with the
/// number of jobs and the highest path id seen.
fn digest(jobs: impl Iterator<Item = Job>) -> (u64, usize, u64) {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let (mut count, mut max_path) = (0, 0);
    for job in jobs {
        count += 1;
        eat(job.id.0);
        eat(job.name.len() as u64);
        job.name.bytes().for_each(|b| eat(u64::from(b)));
        for v in [job.submit.secs(), job.duration.secs()] {
            eat(v);
        }
        for size in [job.input, job.shuffle, job.output] {
            eat(size.bytes());
        }
        eat(job.map_task_time.secs());
        eat(job.reduce_task_time.secs());
        eat(u64::from(job.map_tasks));
        eat(u64::from(job.reduce_tasks));
        for paths in [&job.input_paths, &job.output_paths] {
            eat(paths.len() as u64);
            for path in paths {
                eat(path.raw());
                max_path = max_path.max(path.raw());
            }
        }
    }
    (hash, count, max_path)
}

fn saturated(preset: &str, seed: u64, jobs: u64) -> (u64, usize, u64) {
    let scenario = presets::find(preset).expect("preset exists");
    let stream = ScenarioStream::new(&scenario, seed, jobs)
        .expect("valid scenario")
        .population_bounds(BOUNDS);
    digest(stream.flatten())
}

#[test]
fn saturated_population_streams_match_their_pinned_digests() {
    for (preset, seed, pinned, jobs) in [
        ("multitenant-saas", 1, 0x5f55_83ba_c38d_66cc, 19_449),
        ("bursty-telecom", 9, 0x7bb6_cd48_da6e_fc3e, 20_000),
    ] {
        let (hash, count, max_path) = saturated(preset, seed, 20_000);
        assert_eq!(count, jobs, "{preset}");
        // Path ids run far past the 256-slot file table, even split over
        // the tenants (whose ids interleave): slots recycle, and the
        // 64-entry access log and output list wrap many times over.
        assert!(
            max_path > 16 * BOUNDS.max_files as u64,
            "{preset}: {max_path}"
        );
        assert_eq!(hash, pinned, "{preset}: {hash:#018x}");
    }
}
