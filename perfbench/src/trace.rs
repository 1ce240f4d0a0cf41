//! The benchmark's own span recorder.
//!
//! A span covers one call into a layer's public function: it has a name,
//! a start and an end, the span that caused it, and the id of the solve or
//! request it belongs to.  Spans are kept in memory and written once, at the
//! end of the run, as Chrome trace-event JSON (loadable in Perfetto).  A
//! layer's *self time* is its span's duration minus the part of that
//! interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.search`.
    pub name: &'static str,
    /// The solve or request this span belongs to.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Timeline row (thread or connection) in the exported trace.
    pub track: u32,
    /// Start time.
    pub start_ns: u64,
    /// End time (≥ start).
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store.  When disabled every call is a no-op that reads no
/// clock, so the same code path serves the untraced and the traced run.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (already recorded spans stay).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].  Returns `None`
    /// when disabled.
    pub fn open(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        track: u32,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            id,
            parent,
            track,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<SpanId>) {
        if let Some(i) = span {
            let now = self.ns(Instant::now());
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        track: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, id, parent, track);
        let out = f();
        self.close(span);
        out
    }

    /// Records a span measured elsewhere (e.g. on another thread).
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<SpanId>,
        track: u32,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end).max(self.ns(start)));
        self.spans.push(Span {
            name,
            id,
            parent,
            track,
            start_ns,
            end_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name durations (self times) in nanoseconds.
    pub fn by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let selfs = self_times_ns(&self.spans);
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, s) in self.spans.iter().zip(selfs) {
            out.entry(span.name).or_default().push(s);
        }
        out
    }

    /// The recorded spans as Chrome trace-event JSON ("X" complete events;
    /// `args` carry the solve/request id and the parent span's index).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.track,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                i,
                parent
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Mean of the self times in `by_name` (see [`Tracer::by_name`]) of the
/// spans named `name`, divided by `scale` (1e3 gives µs, 1e6 ms), and how
/// many spans it covers; (0, 0) when there are none.
pub fn mean_self(by_name: &BTreeMap<&str, Vec<u64>>, name: &str, scale: f64) -> (f64, usize) {
    by_name.get(name).map_or((0.0, 0), |v| {
        (
            v.iter().sum::<u64>() as f64 / v.len() as f64 / scale,
            v.len(),
        )
    })
}

/// Length of the part of `[start, end)` covered by the union of
/// `intervals` (which may overlap each other and stick out of the window).
pub fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Share of the root spans named `root` that their children account for:
/// the summed durations of the children over the summed root durations.
/// Near 1 means the child spans attribute (almost) all of the root's time.
pub fn attribution(spans: &[Span], root: &str) -> f64 {
    let mut root_ns = 0u64;
    let mut child_ns = 0u64;
    for s in spans {
        if s.name == root {
            root_ns += s.dur_ns();
        } else if let Some(p) = s.parent {
            if spans[p].name == root {
                child_ns += s.dur_ns();
            }
        }
    }
    crate::stats::ratio(child_ns as f64, root_ns as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            track: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips_to_the_window() {
        assert_eq!(covered_ns(0, 100, &mut []), 0);
        assert_eq!(covered_ns(0, 100, &mut [(10, 20), (30, 40)]), 20);
        // Overlapping children are counted once.
        assert_eq!(covered_ns(0, 100, &mut [(10, 50), (20, 60), (55, 70)]), 60);
        // A child sticking out of the parent counts only inside it.
        assert_eq!(covered_ns(50, 100, &mut [(0, 60), (90, 200)]), 20);
        // A child nested in another adds nothing.
        assert_eq!(covered_ns(0, 100, &mut [(10, 90), (20, 30)]), 80);
    }

    #[test]
    fn self_time_under_overlapping_child_spans() {
        // Two workers' spans overlap inside one request span: the request's
        // self time is what neither covers, and each child's own self time
        // is its full duration (it has no children).
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 60),
            span("b", Some(0), 40, 80),
            span("a.inner", Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 40, 10]);
    }

    #[test]
    fn attribution_sums_direct_children_only() {
        let spans = vec![
            span("solve", None, 0, 100),
            span("core.problem", Some(0), 0, 10),
            span("core.search", Some(0), 10, 90),
            span("engine.inner", Some(2), 20, 30),
            span("schedule.validate", Some(0), 90, 95),
            span("solve", None, 200, 300),
            span("core.search", Some(5), 200, 300),
            span("probe", None, 300, 400),
        ];
        // (10 + 80 + 5 + 100) / (100 + 100); the grandchild and the probe
        // outside any solve do not count.
        assert!((attribution(&spans, "solve") - 195.0 / 200.0).abs() < 1e-12);
        assert_eq!(attribution(&spans, "nothing"), 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.open("x", 1, None, 0);
        t.close(s);
        assert_eq!(t.time("y", 1, None, 0, || 7), 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let s = t.open("x", 1, None, 0);
        t.time("y", 1, s, 0, || ());
        t.close(s);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        let json = t.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"y\""));
        assert!(json.contains("\"parent\":0"));
    }
}
