//! The `swim-top` engine: poll a `swim-serve` process over its
//! read-only `metrics` wire command, difference consecutive samples
//! with [`swim_obs::Snapshot::delta`], and render a live dashboard
//! (req/s, latency quantiles, cache hit ratio, pool occupancy) through
//! the [`swim_obs::doc`] model.
//!
//! The wire body is the fixed-order `key: value` text that
//! `swim-serve` pins byte-for-byte in its own tests, so parsing is a
//! stable contract rather than scraping: integer lines become
//! [`Snapshot`] counters (which makes rate computation a
//! [`Snapshot::delta`] over two polls), `(masked)` and `-` slots are
//! carried as absent.

use std::net::SocketAddr;

use swim_obs::doc::{Block, KeyValueBlock, Section};
use swim_obs::{markdown, Snapshot};

use crate::client;

/// How many req/s points the live sparkline keeps.
pub const HISTORY_LEN: usize = 60;

/// One `metrics` poll, parsed. Counters hold every unmasked integer
/// line keyed by its wire name (`requests`, `cache_hits`,
/// `query_p50_us`, …); masked or empty slots are simply absent.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Process-clock milliseconds when the poll completed.
    pub at_ms: u64,
    /// The integer metrics as a counter-only [`Snapshot`], so two
    /// samples can be differenced with [`Snapshot::delta`].
    pub counters: Snapshot,
    /// The server's own windowed rate, when unmasked.
    pub rate_per_sec: Option<f64>,
    /// True when the body carried `(masked)` slots (`--mask` polls).
    pub masked: bool,
}

impl Sample {
    /// Parse a `metrics` text body captured at `at_ms`.
    pub fn parse(body: &str, at_ms: u64) -> Sample {
        let mut counters = Vec::new();
        let mut rate = None;
        let mut masked = false;
        for line in body.lines() {
            let Some((key, value)) = line.split_once(':') else {
                continue;
            };
            let (key, value) = (key.trim(), value.trim());
            if value == "(masked)" {
                masked = true;
            } else if let Ok(n) = value.parse::<u64>() {
                counters.push((key.to_owned(), n));
            } else if key == "window_rate_per_sec" {
                rate = value.parse::<f64>().ok();
            }
        }
        Sample {
            at_ms,
            counters: Snapshot {
                counters,
                gauges: Vec::new(),
                spans: Vec::new(),
            },
            rate_per_sec: rate,
            masked,
        }
    }

    /// Counter value by wire key, when present and unmasked.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.counters.counter(key)
    }
}

/// The derived dashboard state for one tick.
#[derive(Debug, Clone, Default)]
pub struct Dashboard {
    /// Catalog generation the server is answering from.
    pub generation: u64,
    /// Requests per second: a [`Snapshot::delta`] over the previous
    /// poll when one exists, else the server's windowed rate.
    pub req_per_sec: Option<f64>,
    /// Query-class latency quantiles from the server's window,
    /// microseconds (absent when masked or the window is empty).
    pub p50_us: Option<u64>,
    /// 95th percentile, microseconds.
    pub p95_us: Option<u64>,
    /// 99th percentile, microseconds.
    pub p99_us: Option<u64>,
    /// Lifetime cache hits / (hits + misses); absent before any lookup.
    pub cache_hit_ratio: Option<f64>,
    /// Connections currently admitted (holding a pool permit).
    pub admitted: u64,
    /// Connections parked in the worker queue.
    pub queued: u64,
    /// Lifetime typed `overloaded` rejections.
    pub overloaded: u64,
    /// Requests inside the server's retained window.
    pub window_requests: u64,
    /// True when the sample was masked (`--mask`): latency and rate
    /// slots render as `(masked)` instead of `-`.
    pub masked: bool,
}

impl Dashboard {
    /// Derive the dashboard from the current sample, differencing
    /// against the previous one when available.
    pub fn from_samples(prev: Option<&Sample>, cur: &Sample) -> Dashboard {
        let req_per_sec = match prev {
            Some(prev) if cur.at_ms > prev.at_ms => {
                let diff = cur.counters.delta(&prev.counters);
                diff.counter("requests")
                    .map(|n| n as f64 * 1000.0 / (cur.at_ms - prev.at_ms) as f64)
            }
            _ => cur.rate_per_sec,
        };
        let hits = cur.get("cache_hits").unwrap_or(0);
        let misses = cur.get("cache_misses").unwrap_or(0);
        Dashboard {
            generation: cur.get("generation").unwrap_or(0),
            req_per_sec,
            p50_us: cur.get("query_p50_us"),
            p95_us: cur.get("query_p95_us"),
            p99_us: cur.get("query_p99_us"),
            cache_hit_ratio: (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64),
            admitted: cur.get("admitted").unwrap_or(0),
            queued: cur.get("queued").unwrap_or(0),
            overloaded: cur.get("overloaded").unwrap_or(0),
            window_requests: cur.get("window_requests").unwrap_or(0),
            masked: cur.masked,
        }
    }

    fn fmt_u64(&self, v: Option<u64>, unit: &str) -> String {
        match v {
            Some(v) => format!("{v}{unit}"),
            None if self.masked => "(masked)".to_owned(),
            None => "-".to_owned(),
        }
    }

    fn fmt_f64(&self, v: Option<f64>) -> String {
        match v {
            Some(v) => format!("{v:.2}"),
            None if self.masked => "(masked)".to_owned(),
            None => "-".to_owned(),
        }
    }

    /// The dashboard as a document [`Section`]; `history` is the
    /// req/s series for the sparkline row (empty hides it).
    pub fn section(&self, history: &[f64]) -> Section {
        let mut section = Section::new("swim-top");
        section.push(Block::KeyValue(KeyValueBlock::new(vec![
            ("generation", self.generation.to_string()),
            ("req/s", self.fmt_f64(self.req_per_sec)),
            ("p50", self.fmt_u64(self.p50_us, " us")),
            ("p95", self.fmt_u64(self.p95_us, " us")),
            ("p99", self.fmt_u64(self.p99_us, " us")),
            ("cache hit", self.fmt_f64(self.cache_hit_ratio)),
            ("admitted", self.admitted.to_string()),
            ("queued", self.queued.to_string()),
            ("overloaded", self.overloaded.to_string()),
            ("window reqs", self.window_requests.to_string()),
        ])));
        if !history.is_empty() {
            let note = if self.masked { " (masked)" } else { "" };
            let values = if self.masked {
                Vec::new()
            } else {
                history.to_vec()
            };
            section.push(Block::spark("req/s hist", values, note));
        }
        section
    }

    /// Terminal rendering (the live-tick and `--once` default).
    pub fn render_text(&self, history: &[f64]) -> String {
        self.section(history).render_text()
    }

    /// Markdown rendering for `--once --format md` in CI summaries.
    pub fn render_md(&self, history: &[f64]) -> String {
        markdown::render_section(&self.section(history), 2)
    }

    /// Fixed-shape JSON for `--once --format json`; masked or absent
    /// slots are `null`.
    pub fn render_json(&self) -> String {
        let opt_u = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
        let opt_f = |v: Option<f64>| v.map_or("null".to_owned(), |v| format!("{v:.2}"));
        format!(
            "{{\n  \"generation\": {},\n  \"req_per_sec\": {},\n  \"p50_us\": {},\n  \
             \"p95_us\": {},\n  \"p99_us\": {},\n  \"cache_hit_ratio\": {},\n  \
             \"admitted\": {},\n  \"queued\": {},\n  \"overloaded\": {},\n  \
             \"window_requests\": {}\n}}\n",
            self.generation,
            opt_f(self.req_per_sec),
            opt_u(self.p50_us),
            opt_u(self.p95_us),
            opt_u(self.p99_us),
            opt_f(self.cache_hit_ratio),
            self.admitted,
            self.queued,
            self.overloaded,
            self.window_requests,
        )
    }
}

/// Poll `metrics` (optionally `--mask`) and parse the sample.
pub fn poll(addr: SocketAddr, mask: bool) -> std::io::Result<Sample> {
    let line = if mask { "metrics --mask" } else { "metrics" };
    let resp = client::request(addr, line)?;
    if !resp.ok {
        return Err(std::io::Error::other(format!(
            "metrics request failed: {}",
            resp.body_text().trim()
        )));
    }
    Ok(Sample::parse(&resp.body_text(), swim_obs::clock::now_ms()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &str = "generation: 3\nuptime_ms: 5000\nrequests: 40\n\
        responses_ok: 39\noverloaded: 2\nadmitted: 4\nqueued: 1\n\
        cache_hits: 30\ncache_misses: 10\nwindow_ms: 60000\n\
        window_requests: 39\nwindow_rate_per_sec: 7.80\n\
        query_count: 9\nquery_p50_us: 120\nquery_p95_us: 400\n\
        query_p99_us: 900\nquery_max_us: 1000\nadmin_p50_us: -\n";

    #[test]
    fn parses_integers_rate_and_masked_slots() {
        let sample = Sample::parse(BODY, 10);
        assert_eq!(sample.get("requests"), Some(40));
        assert_eq!(sample.get("query_p95_us"), Some(400));
        assert_eq!(sample.get("admin_p50_us"), None);
        assert_eq!(sample.rate_per_sec, Some(7.8));
        assert!(!sample.masked);

        let masked = Sample::parse("requests: 4\nuptime_ms: (masked)\n", 10);
        assert!(masked.masked);
        assert_eq!(masked.get("uptime_ms"), None);
        assert_eq!(masked.get("requests"), Some(4));
    }

    #[test]
    fn rate_is_delta_over_elapsed_when_two_samples_exist() {
        let prev = Sample::parse("requests: 10\n", 1_000);
        let cur = Sample::parse("requests: 30\n", 3_000);
        let dash = Dashboard::from_samples(Some(&prev), &cur);
        assert_eq!(dash.req_per_sec, Some(10.0));

        // Single sample: fall back to the server's windowed rate.
        let solo = Sample::parse(BODY, 0);
        let dash = Dashboard::from_samples(None, &solo);
        assert_eq!(dash.req_per_sec, Some(7.8));
        assert_eq!(dash.generation, 3);
        assert_eq!(dash.p99_us, Some(900));
        assert_eq!(dash.cache_hit_ratio, Some(0.75));
    }

    #[test]
    fn masked_dashboard_masks_rate_and_quantiles_only() {
        let sample = Sample::parse(
            "generation: 1\nrequests: 4\nadmitted: 1\nqueued: 0\n\
             overloaded: 0\nwindow_requests: 3\ncache_hits: 1\n\
             cache_misses: 1\nwindow_rate_per_sec: (masked)\n\
             query_p50_us: (masked)\n",
            7,
        );
        let dash = Dashboard::from_samples(None, &sample);
        let text = dash.render_text(&[]);
        assert!(text.contains("req/s      : (masked)"), "{text}");
        assert!(text.contains("p95        : (masked)"), "{text}");
        assert!(text.contains("generation : 1"), "{text}");
        assert!(text.contains("cache hit  : 0.50"), "{text}");
        let json = dash.render_json();
        assert!(json.contains("\"req_per_sec\": null"), "{json}");
        assert!(json.contains("\"cache_hit_ratio\": 0.50"), "{json}");
    }

    #[test]
    fn render_shapes_are_stable() {
        let dash = Dashboard {
            generation: 2,
            req_per_sec: Some(12.5),
            p50_us: Some(100),
            p95_us: Some(200),
            p99_us: Some(300),
            cache_hit_ratio: None,
            admitted: 1,
            queued: 0,
            overloaded: 0,
            window_requests: 25,
            masked: false,
        };
        let text = dash.render_text(&[1.0, 2.0, 3.0]);
        assert!(text.starts_with("swim-top\n\n"), "{text}");
        assert!(text.contains("req/s hist"), "{text}");
        let md = dash.render_md(&[]);
        assert!(md.starts_with("## swim-top"), "{md}");
        let json = dash.render_json();
        assert!(json.contains("\"cache_hit_ratio\": null"), "{json}");
        assert!(json.ends_with("}\n"), "{json}");
    }
}
