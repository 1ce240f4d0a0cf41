//! Per-thread event rings and the global drain registry.
//!
//! Each thread that records gets one fixed-capacity ring, registered (behind
//! an `Arc`) in a global list the first time the thread records.  Recording
//! is wait-free: the writer try-acquires the ring's single-word `busy` flag
//! and, on the rare loss (a concurrent [`drain`] holds it), drops the event
//! and bumps a counter rather than spinning.  The ring outlives its thread —
//! `drain` reads through the registry's `Arc`s, so events from exited worker
//! threads are still collected.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Events a ring can hold before the oldest are overwritten.
pub const RING_CAPACITY: usize = 16 * 1024;

/// What kind of timeline entry an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A scope with a duration (`ph: "X"` in Chrome trace terms).
    Span,
    /// A point marker (`ph: "i"`).
    Instant,
}

/// One recorded timeline entry.  `Copy` and fully static-named so recording
/// never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Static name of the span/instant.
    pub name: &'static str,
    /// Name of the enclosing span on the recording thread (`""` for roots
    /// and instants).
    pub parent: &'static str,
    /// Span or instant.
    pub kind: EventKind,
    /// Microseconds since the process epoch (span events: the *start*).
    pub ts_us: u64,
    /// Span duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Timeline row (Chrome trace `tid`); see [`crate::next_track`].
    pub track: u64,
    /// Name of the numeric payload (`""` for none).
    pub arg_name: &'static str,
    /// Numeric payload.
    pub arg: u64,
}

const EMPTY: Event = Event {
    name: "",
    parent: "",
    kind: EventKind::Instant,
    ts_us: 0,
    dur_us: 0,
    track: 0,
    arg_name: "",
    arg: 0,
};

/// A fixed-capacity single-producer ring of [`Event`]s with a try-lock
/// against the (rare) concurrent drainer.
pub struct EventRing {
    slots: Box<[UnsafeCell<Event>]>,
    /// Monotonic count of events ever written; `head % capacity` is the next
    /// slot.  Only meaningful while `busy` is held.
    head: AtomicU64,
    /// Single-word mutual exclusion between the owning writer and a drainer.
    busy: AtomicBool,
    /// Events discarded because the writer lost the `busy` race.
    dropped: AtomicU64,
}

// SAFETY: `busy` and `dropped` are atomics, and every access to the
// `UnsafeCell` slots and to `head` happens strictly inside a successful
// `busy` compare-exchange acquire/release window, which serialises the owner
// thread's writes against the drainer (and would serialise any number of
// writers, though each ring has exactly one), so `&EventRing` may be shared
// across threads.  Exercised by
// `concurrent_push_and_take_account_for_every_event`.
unsafe impl Sync for EventRing {}
// SAFETY: the ring owns its slots outright (plain `Copy` events, no borrowed
// or thread-bound data), so moving it to another thread is sound; the
// registry's `Arc`s and `concurrent_push_and_take_account_for_every_event`
// rely on it.
unsafe impl Send for EventRing {}

impl EventRing {
    /// An empty ring (normally implicit: each recording thread gets one).
    pub fn new() -> Self {
        EventRing {
            slots: (0..RING_CAPACITY).map(|_| UnsafeCell::new(EMPTY)).collect(),
            head: AtomicU64::new(0),
            busy: AtomicBool::new(false),
            dropped: AtomicU64::new(0),
        }
    }

    fn try_acquire(&self) -> bool {
        self.busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    fn release(&self) {
        self.busy.store(false, Ordering::Release);
    }

    /// Wait-free push: on contention the event is dropped and counted.
    pub fn push(&self, ev: Event) {
        if !self.try_acquire() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let head = self.head.load(Ordering::Relaxed);
        let slot = (head as usize) % RING_CAPACITY;
        // SAFETY: `try_acquire` succeeded above, so this thread holds `busy`
        // and no other thread touches any slot until `release`.  Exercised by
        // `ring_wraps_keeping_the_newest_events` and, under contention, by
        // `concurrent_push_and_take_account_for_every_event`.
        unsafe { *self.slots[slot].get() = ev };
        self.head.store(head + 1, Ordering::Relaxed);
        self.release();
    }

    /// Takes the ring's contents in write order (oldest first), leaving it
    /// empty.  Spins for the `busy` word — drains are rare and writer
    /// critical sections are a handful of instructions.
    pub fn take(&self) -> Vec<Event> {
        while !self.try_acquire() {
            std::hint::spin_loop();
        }
        let head = self.head.load(Ordering::Relaxed);
        let len = (head as usize).min(RING_CAPACITY);
        let start = head as usize - len;
        let mut out = Vec::with_capacity(len);
        for i in start..head as usize {
            // SAFETY: the spin loop above acquired `busy`, so no writer
            // touches the slots until `release`.  Exercised by
            // `ring_wraps_keeping_the_newest_events` and, under contention, by
            // `concurrent_push_and_take_account_for_every_event`.
            out.push(unsafe { *self.slots[i % RING_CAPACITY].get() });
        }
        self.head.store(0, Ordering::Relaxed);
        self.release();
        out
    }

    /// Events this ring has discarded under drain contention.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

impl Default for EventRing {
    fn default() -> Self {
        EventRing::new()
    }
}

fn registry() -> &'static Mutex<Vec<Arc<EventRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<EventRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static LOCAL_RING: Arc<EventRing> = {
        let ring = Arc::new(EventRing::new());
        registry()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&ring));
        ring
    };
}

/// Records one event into the calling thread's ring.  Call sites normally go
/// through [`crate::instant`]/[`crate::span`], which check the enable flag
/// first; `record` itself is unconditional.
pub fn record(ev: Event) {
    // `try_with` so late events during thread teardown are dropped, not a
    // panic in a destructor.
    let _ = LOCAL_RING.try_with(|ring| ring.push(ev));
}

/// Drains every registered ring (live and exited threads alike) and returns
/// the events sorted by timestamp.
pub fn drain() -> Vec<Event> {
    let rings: Vec<Arc<EventRing>> = registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    let mut events: Vec<Event> = rings.iter().flat_map(|r| r.take()).collect();
    events.sort_by_key(|e| (e.ts_us, e.track));
    events
}

/// Total events dropped across all rings (writer lost the drain race, or the
/// ring wrapped — wrapping is silent; this counts only contention drops).
pub fn dropped() -> u64 {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|r| r.dropped())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_keeping_the_newest_events() {
        let ring = EventRing::new();
        let total = RING_CAPACITY as u64 + 37;
        for i in 0..total {
            let mut ev = EMPTY;
            ev.ts_us = i;
            ring.push(ev);
        }
        let events = ring.take();
        assert_eq!(events.len(), RING_CAPACITY, "capacity bounds the drain");
        // The oldest 37 were overwritten; what remains is the newest window,
        // still in write order.
        assert_eq!(events[0].ts_us, 37);
        assert_eq!(events[RING_CAPACITY - 1].ts_us, total - 1);
        for w in events.windows(2) {
            assert_eq!(w[1].ts_us, w[0].ts_us + 1, "write order is preserved");
        }
        assert!(ring.take().is_empty(), "take clears the ring");
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn contended_push_drops_instead_of_blocking() {
        let ring = EventRing::new();
        assert!(ring.try_acquire());
        ring.push(EMPTY); // writer loses the race while we hold `busy`
        assert_eq!(ring.dropped(), 1);
        ring.release();
        ring.push(EMPTY);
        assert_eq!(ring.take().len(), 1);
    }

    /// A writer thread and a draining thread share one ring: every event is
    /// either drained exactly once or counted as dropped, and what is
    /// drained keeps write order.
    #[test]
    fn concurrent_push_and_take_account_for_every_event() {
        const EVENTS: u64 = 4096; // below RING_CAPACITY: nothing wraps
        let ring = std::sync::Arc::new(EventRing::new());
        let writer = {
            let ring = std::sync::Arc::clone(&ring);
            std::thread::spawn(move || {
                for i in 0..EVENTS {
                    let mut ev = EMPTY;
                    ev.ts_us = i;
                    ring.push(ev);
                }
            })
        };
        let mut drained = Vec::new();
        while !writer.is_finished() {
            drained.extend(ring.take());
        }
        writer.join().expect("writer panicked");
        drained.extend(ring.take());
        assert_eq!(drained.len() as u64 + ring.dropped(), EVENTS);
        for w in drained.windows(2) {
            assert!(w[0].ts_us < w[1].ts_us, "drained events keep write order");
        }
    }
}
