//! The served request mix: five query classes in eight fixed slots,
//! with one literal per request jittered from the seed.
//!
//! A round replays the slots in order, so every round of a run issues
//! the same classes in the same order. What differs between requests is
//! one literal: it makes every canonical query distinct (the server's
//! result cache can never answer a scan request) while moving the
//! matched rows of a class by far less than 2 %, so rounds cost the
//! same. `groupby` fills four of the eight slots and sits in the middle
//! of the cost order, so a round's p50 is always a `groupby` latency and
//! cannot flip between cost modes: on the scan workloads `range` and
//! `filter` are cheaper and `topk` and `agg` dearer; on `serve-cached`,
//! where a request costs what its result costs to render, the one-row
//! classes are cheaper and the hundred-row `topk` dearer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swim_query::cli::QueryFlags;
use swim_query::Query;
use swim_serve::protocol;

/// A query class of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Global aggregates over nearly every row.
    Agg,
    /// Group by hour of day — the diurnal profile, 24 groups whatever
    /// span the seed gives the fixture: the mix's median-cost class.
    GroupBy,
    /// A selective predicate and a count.
    Filter,
    /// Under two hours of submit time: every shard but one or two is
    /// pruned unopened, and an uncached shard the window cuts is read
    /// chunk-pruned, past the column cache, by design.
    Range,
    /// Group, order by an aggregate, keep a hundred (order-by + limit).
    TopK,
}

impl Class {
    /// Every class, in metric-name order.
    pub const ALL: [Class; 5] = [
        Class::Agg,
        Class::GroupBy,
        Class::Filter,
        Class::Range,
        Class::TopK,
    ];

    /// The class's name in metric names (`query.warm_ms.<name>`).
    pub fn name(self) -> &'static str {
        match self {
            Class::Agg => "agg",
            Class::GroupBy => "groupby",
            Class::Filter => "filter",
            Class::Range => "range",
            Class::TopK => "topk",
        }
    }
}

/// The eight slots of one pass through the mix.
pub const SLOTS: [Class; 8] = [
    Class::GroupBy,
    Class::Agg,
    Class::GroupBy,
    Class::Filter,
    Class::GroupBy,
    Class::Range,
    Class::GroupBy,
    Class::TopK,
];

/// One request of the mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Its class (slot `k % 8`).
    pub class: Class,
    /// The wire request line.
    pub line: String,
}

/// The seed-derived request sequence over one fixture.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Submit window `[from, to)` of the `range` class: 1/400 of the
    /// fixture's submit span, narrower than any shard, so the window
    /// never covers a whole shard and its reads stay chunk-pruned. It
    /// lies an eighth of the way in: on the cold fixture a full scan
    /// has evicted those shards by the time it ends, so the window's
    /// lookups miss like everything else and leave the LRU order alone.
    window: (u64, u64),
    /// Jitter of request 0; request `k` adds `k`. The jittered literal
    /// is a threshold in 1/1024ths of a byte, so over the few thousand
    /// requests of a run it stays under a handful of bytes: it tells
    /// jobs that moved data from jobs that moved none, whatever `k`.
    offset: u64,
}

impl Mix {
    /// The mix for `seed` over a fixture whose jobs were submitted in
    /// `[min_submit, max_submit]` (seconds).
    pub fn new(seed: u64, min_submit: u64, max_submit: u64) -> Mix {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6d69_785f_7365_6564);
        let span = max_submit.saturating_sub(min_submit);
        let from = min_submit + span / 8;
        Mix {
            window: (from, from + span / 400),
            offset: rng.random_range(1..512u64),
        }
    }

    /// Request `k` of the run (0-based, counted across rounds).
    pub fn request(&self, k: u64) -> Request {
        let class = SLOTS[(k % SLOTS.len() as u64) as usize];
        // Bytes; distinct for every k.
        let j = self.offset + k;
        let (from, to) = self.window;
        let line = match class {
            Class::Agg => format!(
                "query --select \"count,sum(total_io),p50(duration),p90(input)\" \
                 --where \"total_io * 1024 >= {j}\""
            ),
            Class::GroupBy => format!(
                "query --select \"count,sum(total_io),avg(duration)\" \
                 --group-by \"submit / 1h - submit / 1d * 24\" \
                 --where \"total_io * 1024 >= {j}\""
            ),
            Class::Filter => format!(
                "query --select count --where \"input > {} and duration >= 1min\"",
                1_000_000_000 + j
            ),
            Class::Range => format!(
                "query --select \"count,sum(total_io)\" \
                 --where \"submit >= {from} and submit < {to} and total_io * 1024 >= {j}\""
            ),
            Class::TopK => format!(
                "query --select \"count,sum(total_io),p50(duration)\" --group-by map_tasks \
                 --where \"total_io * 1024 >= {j}\" --order-by 2 --desc --limit 100"
            ),
        };
        Request { class, line }
    }

    /// Requests `from..from + n`.
    pub fn requests(&self, from: u64, n: u64) -> Vec<Request> {
        (from..from + n).map(|k| self.request(k)).collect()
    }
}

/// Parse a wire request line into the typed query and its flags, the
/// way the server does: `protocol::tokenize`, then the shared query
/// flag set.
pub fn parse_line(line: &str) -> Result<(Query, QueryFlags), String> {
    let tokens = protocol::tokenize(line)?;
    let Some((command, args)) = tokens.split_first() else {
        return Err("empty request".into());
    };
    if command != "query" {
        return Err(format!("not a query request: {command}"));
    }
    let mut flags = QueryFlags::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let accepted = flags.accept(arg, || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        })?;
        if !accepted {
            return Err(format!("unexpected argument {arg}"));
        }
    }
    Ok((flags.build_query()?, flags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::fixture_scenario;
    use std::collections::BTreeSet;
    use swim_catalog::{Catalog, CatalogOptions};
    use swim_query::Session;
    use swim_scenario::generate_into_catalog;

    /// More requests than any run issues against one server.
    const RUN_REQUESTS: u64 = 4096;

    #[test]
    fn same_seed_same_request_lines() {
        let a = Mix::new(7, 1_000, 260_000).requests(0, 64);
        let b = Mix::new(7, 1_000, 260_000).requests(0, 64);
        assert_eq!(a, b);
        let other = Mix::new(8, 1_000, 260_000).requests(0, 64);
        assert_ne!(a, other, "the seed moves the literals");
        // Every pass replays the slots in order.
        for (k, request) in a.iter().enumerate() {
            assert_eq!(request.class, SLOTS[k % SLOTS.len()]);
        }
        let groupby = SLOTS.iter().filter(|c| **c == Class::GroupBy).count();
        assert_eq!(groupby * 2, SLOTS.len(), "groupby fills half the slots");
    }

    #[test]
    fn every_request_parses_to_a_distinct_canonical_query() {
        let mix = Mix::new(42, 0, 259_200);
        let mut canonical = BTreeSet::new();
        for k in 0..RUN_REQUESTS {
            let request = mix.request(k);
            let (query, _) = parse_line(&request.line).expect("the mix only emits valid lines");
            // The server keys its result cache on this Debug form.
            assert!(
                canonical.insert(format!("{query:?}")),
                "request {k} repeats an earlier canonical query"
            );
        }
        assert!(parse_line("stats").is_err());
        assert!(parse_line("query --bogus").is_err());
    }

    #[test]
    fn jitter_moves_matched_rows_by_under_two_percent() {
        let dir = std::env::temp_dir().join(format!("swim-perf-mix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scenario = fixture_scenario().unwrap();
        let mut catalog = Catalog::init(&dir).unwrap();
        generate_into_catalog(
            &scenario,
            5,
            40_000,
            4096,
            &mut catalog,
            &CatalogOptions::default(),
        )
        .unwrap();
        let (from, to) = catalog
            .shards()
            .iter()
            .map(|s| s.submit_window())
            .fold((u64::MAX, 0), |(lo, hi), (a, b)| (lo.min(a), hi.max(b)));
        let session = Session::from_catalog(catalog);
        let mix = Mix::new(5, from, to);
        let mut base: Vec<Option<u64>> = vec![None; Class::ALL.len()];
        let mut worst = 0.0f64;
        // First, last and a spread of requests in between.
        for k in (0..RUN_REQUESTS).step_by(97).chain([RUN_REQUESTS - 1]) {
            let request = mix.request(k);
            let (query, _) = parse_line(&request.line).unwrap();
            let matched = session
                .execute(&query, true)
                .unwrap()
                .output
                .stats
                .rows_matched;
            let slot = Class::ALL.iter().position(|c| *c == request.class).unwrap();
            let base = *base[slot].get_or_insert(matched);
            assert!(base > 0, "{:?} matches nothing", request.class);
            let drift = (matched as f64 - base as f64).abs() / base as f64;
            worst = worst.max(drift);
            assert!(
                drift <= 0.02,
                "{:?} request {k}: {matched} rows against {base}",
                request.class
            );
        }
        println!("largest drift of matched rows: {:.3} %", worst * 100.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
