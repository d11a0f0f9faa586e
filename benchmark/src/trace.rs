//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The drive loop is generic over a [`Recorder`]: [`NoTrace`] compiles to
//! nothing (end-to-end runs), [`SpanLog`] stamps every call with start,
//! end, the allocations made inside it and the work it reported. Spans stay
//! in memory until the run ends; [`SpanLog::summary`] turns them into the
//! per-layer numbers and [`SpanLog::to_json`] writes them out.

use std::time::Instant;

use crate::json::Json;
use crate::ALLOCATIONS;

/// Index into [`SpanLog::names`]. `0` is always the root `burst` span.
pub type SpanName = u8;
pub const ROOT: SpanName = 0;

/// What the drive loop reports its calls to.
pub trait Recorder {
    /// Opens the root span of one round of the drive loop.
    fn begin_round(&mut self);
    /// Closes it.
    fn end_round(&mut self);
    /// Runs one call into a layer. `call` returns its result and how many
    /// units of work it did (packets moved, or 1/0 for a step that did /
    /// did not find work) — 0 marks the call idle.
    fn call<T>(&mut self, name: SpanName, call: impl FnOnce() -> (T, u32)) -> T;
}

/// Tracing off.
pub struct NoTrace;

impl Recorder for NoTrace {
    #[inline(always)]
    fn begin_round(&mut self) {}
    #[inline(always)]
    fn end_round(&mut self) {}
    #[inline(always)]
    fn call<T>(&mut self, _name: SpanName, call: impl FnOnce() -> (T, u32)) -> T {
        call().0
    }
}

/// One recorded span. `parent` is the index of the round's root span
/// (`u32::MAX` for the root itself); all spans of a round share `burst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    pub parent: u32,
    pub burst: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Heap allocations made on this thread between start and end.
    pub allocs: u32,
    pub work: u32,
}

/// Per-span-name totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    pub name: String,
    pub calls: u64,
    pub idle_calls: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
    pub allocs: u64,
}

impl SpanSummary {
    pub fn idle_ratio(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.idle_calls as f64 / self.calls as f64
        }
    }
}

/// Tracing on: an in-memory span log.
pub struct SpanLog {
    names: Vec<String>,
    spans: Vec<Span>,
    epoch: Instant,
    round: u32,
    root: u32,
    /// Allocation counter reading when the current round began.
    round_allocs: u64,
}

impl SpanLog {
    /// `names[0]` must be the root span's name. `capacity` spans are
    /// reserved up front so that growing the log does not allocate inside
    /// anyone's span.
    pub fn new(names: Vec<String>, capacity: usize) -> SpanLog {
        SpanLog {
            names,
            spans: Vec::with_capacity(capacity),
            epoch: Instant::now(),
            round: 0,
            root: u32::MAX,
            round_allocs: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, in name order. A span's self time is its
    /// duration minus the durations of the spans it is the parent of.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let mut totals: Vec<SpanSummary> = self
            .names
            .iter()
            .map(|name| SpanSummary {
                name: name.clone(),
                calls: 0,
                idle_calls: 0,
                self_ns: 0,
                allocs: 0,
            })
            .collect();
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut child_allocs = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != u32::MAX {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
                child_allocs[span.parent as usize] += u64::from(span.allocs);
            }
        }
        for (index, span) in self.spans.iter().enumerate() {
            let total = &mut totals[span.name as usize];
            total.calls += 1;
            total.idle_calls += u64::from(span.work == 0);
            total.self_ns += (span.end_ns - span.start_ns).saturating_sub(child_ns[index]);
            total.allocs += u64::from(span.allocs).saturating_sub(child_allocs[index]);
        }
        totals
    }

    /// The trace file: span names, per-name totals, and the first
    /// `keep_rounds` rounds of raw spans (a full run holds millions).
    pub fn to_json(&self, keep_rounds: u32) -> Json {
        let spans: Vec<Json> = self
            .spans
            .iter()
            .enumerate()
            .take_while(|(_, span)| span.burst < keep_rounds)
            .map(|(id, span)| {
                Json::obj()
                    .with("id", id)
                    .with("name", self.names[span.name as usize].as_str())
                    .with("burst", u64::from(span.burst))
                    .with(
                        "parent",
                        if span.parent == u32::MAX {
                            Json::Null
                        } else {
                            Json::from(u64::from(span.parent))
                        },
                    )
                    .with("start_ns", span.start_ns)
                    .with("end_ns", span.end_ns)
                    .with("allocs", u64::from(span.allocs))
                    .with("work", u64::from(span.work))
            })
            .collect();
        let totals: Vec<Json> = self
            .summary()
            .iter()
            .map(|s| {
                Json::obj()
                    .with("name", s.name.as_str())
                    .with("calls", s.calls)
                    .with("idle_calls", s.idle_calls)
                    .with("self_ns", s.self_ns)
                    .with("allocs", s.allocs)
            })
            .collect();
        Json::obj()
            .with("rounds_recorded", u64::from(self.round))
            .with("spans_recorded", self.spans.len())
            .with("rounds_written", u64::from(keep_rounds.min(self.round)))
            .with("totals", totals)
            .with("spans", spans)
    }
}

impl Recorder for SpanLog {
    fn begin_round(&mut self) {
        self.root = self.spans.len() as u32;
        self.round_allocs = ALLOCATIONS.with(|a| a.get());
        let now = self.now_ns();
        self.spans.push(Span {
            name: ROOT,
            parent: u32::MAX,
            burst: self.round,
            start_ns: now,
            end_ns: now,
            allocs: 0,
            work: 0,
        });
    }

    fn end_round(&mut self) {
        let now = self.now_ns();
        let allocs = ALLOCATIONS.with(|a| a.get()) - self.round_allocs;
        let root = &mut self.spans[self.root as usize];
        root.end_ns = now;
        root.allocs = allocs as u32;
        self.round += 1;
    }

    fn call<T>(&mut self, name: SpanName, call: impl FnOnce() -> (T, u32)) -> T {
        let allocs_before = ALLOCATIONS.with(|a| a.get());
        let start_ns = self.now_ns();
        let (result, work) = call();
        let end_ns = self.now_ns();
        let allocs = ALLOCATIONS.with(|a| a.get()) - allocs_before;
        self.spans.push(Span {
            name,
            parent: self.root,
            burst: self.round,
            start_ns,
            end_ns,
            allocs: allocs as u32,
            work,
        });
        // The root's work is the packets its children moved out.
        self.spans[self.root as usize].work += work;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log() -> SpanLog {
        SpanLog::new(vec!["burst".into(), "a".into(), "b".into()], 64)
    }

    #[test]
    fn spans_nest_under_their_round_and_share_its_burst_id() {
        let mut log = log();
        for _ in 0..3 {
            log.begin_round();
            log.call(1, || ((), 32));
            log.call(2, || ((), 0));
            log.end_round();
        }
        let spans = log.spans();
        assert_eq!(spans.len(), 9);
        for round in 0..3u32 {
            let root = &spans[round as usize * 3];
            assert_eq!(
                (root.name, root.parent, root.burst),
                (ROOT, u32::MAX, round)
            );
            for child in &spans[round as usize * 3 + 1..round as usize * 3 + 3] {
                assert_eq!(child.parent, round * 3);
                assert_eq!(child.burst, round);
                assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
                assert!(child.start_ns <= child.end_ns);
            }
        }
    }

    #[test]
    fn self_time_excludes_children_and_parts_never_exceed_the_whole() {
        let mut log = log();
        log.begin_round();
        log.call(1, || {
            (std::thread::sleep(std::time::Duration::from_millis(2)), 1)
        });
        log.call(2, || ((), 0));
        log.end_round();
        let summary = log.summary();
        let whole = log.spans()[0].end_ns - log.spans()[0].start_ns;
        let parts: u64 = summary.iter().map(|s| s.self_ns).sum();
        assert_eq!(parts, whole);
        assert!(summary[1].self_ns >= 2_000_000);
        assert!(summary[0].self_ns < summary[1].self_ns);
        assert_eq!((summary[2].calls, summary[2].idle_calls), (1, 1));
        assert_eq!(summary[2].idle_ratio(), 1.0);
        assert_eq!(summary[1].idle_ratio(), 0.0);
    }

    #[test]
    fn allocations_are_attributed_to_the_span_that_made_them() {
        let mut log = log();
        log.begin_round();
        let kept = log.call(1, || (vec![1u8; 100], 1));
        log.call(2, || ((), 1));
        log.end_round();
        assert_eq!(kept.len(), 100);
        let summary = log.summary();
        assert_eq!(summary[1].allocs, 1);
        assert_eq!(summary[2].allocs, 0);
        assert_eq!(summary[0].allocs, 0, "root counts only its own allocations");
    }

    #[test]
    fn trace_file_keeps_totals_and_the_first_rounds() {
        let mut log = log();
        for _ in 0..5 {
            log.begin_round();
            log.call(1, || ((), 1));
            log.end_round();
        }
        let json = log.to_json(2);
        assert_eq!(json.get("spans").and_then(Json::as_arr).unwrap().len(), 4);
        assert_eq!(
            json.get("rounds_recorded").and_then(Json::as_f64),
            Some(5.0)
        );
        assert_eq!(
            json.get("spans_recorded").and_then(Json::as_f64),
            Some(10.0)
        );
        let parsed = Json::parse(&json.to_pretty()).unwrap();
        assert_eq!(parsed, json);
    }
}
