//! The benchmark's own span recorder for the traced run.
//!
//! The driver records a span around every call it makes into a layer —
//! a fixture build, a request over the wire, a direct probe call — with
//! the span that caused it, and the round and request it belongs to.
//! Spans stay in memory and are written out once, at exit, so recording
//! costs a clock read and a `Vec` push. Spans *inside* the program are
//! the program's business (`swim_obs::span`), not this file's.

use std::io::Write;
use std::path::Path;
use swim_obs::clock;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// `layer.call`, e.g. `serve.request` or `store.open`.
    pub name: &'static str,
    /// Start, microseconds on the process clock.
    pub start_us: u64,
    /// End, microseconds on the process clock.
    pub end_us: u64,
    /// Round the span belongs to (0 for set-up and probes).
    pub round: u32,
    /// Request within the run (0 when the span is not a request).
    pub request: u64,
}

/// Handle to an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// An in-memory span list with a stack of open spans. A tracer that is
/// off records nothing, so the end-to-end runs share the code path of
/// the traced run without paying for it.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Whether this tracer records.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, round: u32, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let now = clock::now_us();
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name,
            start_us: now,
            end_us: now,
            round,
            request,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open` (and anything left open inside it).
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let now = clock::now_us();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_us = now;
            if top == idx {
                break;
            }
        }
    }

    /// Record `f` as one span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        round: u32,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let open = self.enter(name, round, 0);
        let out = f(self);
        self.exit(open);
        out
    }

    /// Adopt the finished spans of another tracer (a client thread's)
    /// as descendants of this tracer's innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let root = self.stack.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map_or(root, |p| Some(p + base));
            s
        }));
    }

    /// The recorded spans, in start order per recording thread.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON line per span, self time included.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let self_us = self_times_us(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (span, self_us)) in self.spans.iter().zip(self_us).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\
                 \"self_us\":{self_us},\"round\":{},\"request\":{}}}",
                span.name, span.start_us, span.end_us, span.round, span.request
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children are clipped to the parent and
/// overlapping children (two client threads under one round) are counted
/// once, so a self time is never negative.
pub fn self_times_us(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_us.clamp(p.start_us, p.end_us);
            let end = span.end_us.clamp(p.start_us, p.end_us);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_us;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_us - span.start_us).saturating_sub(covered)
        })
        .collect()
}

/// Of the time the spans called `name` cover, the share that is their
/// own: `Σ self time / Σ duration`. For `bench.round` that is one minus
/// the share of the rounds' wall time spent inside a call into a layer.
pub fn self_share(spans: &[Span], name: &str) -> f64 {
    let (mut own, mut whole) = (0u64, 0u64);
    for (span, self_us) in spans.iter().zip(self_times_us(spans)) {
        if span.name == name {
            own += self_us;
            whole += span.end_us - span.start_us;
        }
    }
    if whole == 0 {
        0.0
    } else {
        own as f64 / whole as f64
    }
}

/// Sum of self time by span name, largest first.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, usize)> {
    let mut totals: std::collections::BTreeMap<&str, (u64, usize)> = Default::default();
    for (span, self_us) in spans.iter().zip(self_times_us(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += self_us;
        entry.1 += 1;
    }
    let mut out: Vec<_> = totals
        .into_iter()
        .map(|(name, (us, count))| (name, us, count))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_us: u64, end_us: u64) -> Span {
        Span {
            parent,
            name: "t",
            start_us,
            end_us,
            round: 0,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(None, 0, 100),    // round
            span(Some(0), 10, 40), // request, client 0
            span(Some(0), 30, 60), // request, client 1 (overlaps)
            span(Some(0), 70, 80),
            span(Some(1), 15, 20), // grandchild counts against span 1 only
        ];
        // Children cover [10,60) and [70,80): 60 of 100.
        assert_eq!(self_times_us(&spans), vec![40, 25, 30, 10, 5]);
        // All five are called "t": 110 of their 175 microseconds are own.
        assert_eq!(self_share(&spans, "t"), 110.0 / 175.0);
        assert_eq!(self_share(&spans, "absent"), 0.0);
    }

    #[test]
    fn children_never_exceed_their_parent() {
        let spans = vec![
            span(None, 100, 200),
            span(Some(0), 50, 150),  // starts before the parent
            span(Some(0), 180, 900), // ends after it
            span(Some(0), 300, 400), // wholly outside
            span(Some(0), 120, 120), // empty
        ];
        let self_us = self_times_us(&spans);
        // Clipped children cover [100,150) and [180,200).
        assert_eq!(self_us[0], 30);
        for (s, own) in spans.iter().zip(&self_us) {
            assert!(*own <= s.end_us - s.start_us);
        }
        // Total self time of a tree never exceeds the root's duration
        // plus what children spent outside it.
        let nested = vec![
            span(None, 0, 10),
            span(Some(0), 0, 10),
            span(Some(1), 0, 10),
        ];
        assert_eq!(self_times_us(&nested), vec![0, 0, 10]);
    }

    #[test]
    fn tracer_nests_absorbs_and_stays_silent_when_off() {
        let mut off = Tracer::new(false);
        let open = off.enter("x", 1, 1);
        off.exit(open);
        assert!(off.spans().is_empty());

        let mut t = Tracer::new(true);
        let round = t.enter("bench.round", 3, 0);
        let req = t.enter("serve.request", 3, 7);
        t.exit(req);
        let mut client = Tracer::new(true);
        let r = client.enter("serve.request", 3, 8);
        let inner = client.enter("wire.read", 3, 8);
        client.exit(inner);
        client.exit(r);
        t.absorb(client);
        t.exit(round);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            spans[2].parent,
            Some(0),
            "absorbed root hangs off the open span"
        );
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!((spans[1].round, spans[1].request), (3, 7));
        for s in spans {
            assert!(s.end_us >= s.start_us);
        }
        let by_name = self_time_by_name(spans);
        assert_eq!(by_name.iter().map(|e| e.2).sum::<usize>(), 4);
    }
}
