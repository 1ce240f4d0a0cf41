//! Zero-dependency observability for optsched: lock-free per-thread event
//! rings, RAII span scopes, fixed-bucket log2 latency histograms, and a
//! Chrome trace-event (Perfetto-loadable) exporter.
//!
//! # Design
//!
//! Everything event-shaped sits behind one global enable flag.  When tracing
//! is **disabled** (the default), every instrumentation site costs exactly one
//! relaxed atomic load — no clock read, no allocation, no thread-local access.
//! [`Histogram`]s are deliberately *not* behind the flag: they are plain
//! relaxed-atomic bucket counters, cheap enough that the service keeps its
//! latency distributions always on.
//!
//! When **enabled**, each thread records [`Event`]s into its own fixed-size
//! [ring buffer](EventRing).  Writers never block: a writer that loses the
//! single-word acquire race (only possible against a concurrent [`drain`])
//! drops the event and bumps a `dropped` counter instead of waiting.
//! Timestamps are microseconds from a process-wide monotonic epoch, so events
//! from different threads interleave correctly in one timeline.
//!
//! Spans are RAII guards: [`span`] pushes the span name onto a thread-local
//! stack (so nested spans know their parent) and the guard's `Drop` records
//! one complete-span event with the measured duration.
//!
//! [`drain`] collects and clears every thread's ring (including rings of
//! threads that have already exited) sorted by timestamp; [`trace`] renders
//! drained events as Chrome `trace_event` JSON.

#![deny(clippy::undocumented_unsafe_blocks)]

mod hist;
mod ring;
mod span;
pub mod trace;

pub use hist::{bucket_of, Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use ring::{drain, dropped, record, Event, EventKind, EventRing, RING_CAPACITY};
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TRACK: AtomicU64 = AtomicU64::new(1);

/// Turns event/span collection on or off, process-wide.
///
/// Enabling also pins the monotonic epoch (if this is the first enable), so
/// timestamps count from roughly the moment tracing started.
pub fn set_enabled(on: bool) {
    if on {
        let _ = EPOCH.get_or_init(Instant::now);
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether event/span collection is on.  This is the *entire* disabled-mode
/// cost of an instrumentation site: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process-wide monotonic epoch (pinned on first use).
#[inline]
pub fn now_us() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Hands out distinct track ids (Chrome trace `tid`s) so independent
/// activities — one search run, one connection, one PPE — get their own row
/// in the timeline.  Track 0 is the anonymous default.
pub fn next_track() -> u64 {
    NEXT_TRACK.fetch_add(1, Ordering::Relaxed)
}

/// Records an instant event (a point marker) if tracing is enabled.
///
/// `arg_name`/`arg` attach one numeric payload (use `""`/`0` for none).
#[inline]
pub fn instant(name: &'static str, track: u64, arg_name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    record(Event {
        name,
        parent: "",
        kind: EventKind::Instant,
        ts_us: now_us(),
        dur_us: 0,
        track,
        arg_name,
        arg,
    });
}

/// Drains all rings and writes them as Chrome trace-event JSON to `path`.
/// Returns the number of events written.
pub fn save_chrome_trace(path: &str) -> std::io::Result<usize> {
    let events = drain();
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    trace::write_chrome_trace(&mut out, &events)?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global flag and rings are process-wide, so the unit tests that
    // toggle them share one lock to stay independent of test threading.
    pub(crate) fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial_guard();
        set_enabled(false);
        let _ = drain();
        instant("noop", 0, "", 0);
        {
            let _s = span("noop_span", 0);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn instants_and_spans_land_in_the_drain() {
        let _g = serial_guard();
        set_enabled(true);
        let _ = drain();
        let track = next_track();
        {
            let _outer = span("outer", track);
            instant("tick", track, "n", 7);
            let _inner = span("inner", track);
        }
        set_enabled(false);
        let events = drain();
        assert_eq!(events.len(), 3);
        let tick = events.iter().find(|e| e.name == "tick").unwrap();
        assert_eq!(tick.kind, EventKind::Instant);
        assert_eq!((tick.arg_name, tick.arg), ("n", 7));
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(inner.parent, "outer", "nested span records its parent");
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        assert_eq!(outer.parent, "");
        assert!(outer.dur_us >= inner.dur_us);
        assert!(drain().is_empty(), "drain takes the events");
    }

    #[test]
    fn tracks_are_distinct() {
        let a = next_track();
        let b = next_track();
        assert_ne!(a, b);
    }
}
