//! `service_hot` and `service_auto`: JSON lines over two connections into a
//! 2-worker `ServiceRuntime`, in segments that each set a service up afresh
//! and run an open loop at a fixed rate, then a closed loop with a fixed
//! number of requests outstanding per connection.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crossbeam::channel::Receiver;
use optsched::core::{SchedulingProblem, SearchLimits, SearchStats};
use optsched::listsched::upper_bound;
use optsched::procnet::ProcNetwork;
use optsched::registry::{SchedulerRegistry, SchedulerSpec};
use optsched::taskgraph::{paper_example_dag, GraphLevels};
use optsched_service::portfolio::resolve;
use optsched_service::{
    CacheStats, CanonicalInstance, Connection, Instance, MetricsSnapshot, Reply, ReplyBody,
    Request, Response, SchedulingService, ServiceConfig, ServiceRuntime, StatsReport,
};

use crate::heap;
use crate::inputs::{auto_stream, describe, hot_stream, Stream};
use crate::report::Report;
use crate::stats::{self, percentile, ratio, windowed, FAILED};
use crate::trace::{self, Tracer};

/// Which service workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// Small direct requests, half of them repeats.
    Hot,
    /// Unique `auto` requests with deadlines in three bands.
    Auto,
}

/// Worker threads of the runtime.
pub const WORKERS: usize = 2;
/// Connections (the load comes from one process with at most `nproc` = 2).
pub const CONNECTIONS: usize = 2;
/// Open-loop arrival rate of `service_hot`, requests per second.
pub const HOT_RATE: f64 = 300.0;
/// Open-loop arrival rate of `service_auto`, requests per second.
pub const AUTO_RATE: f64 = 40.0;
/// Share of `--seconds` spent in the open loop.
pub const OPEN_SHARE: f64 = 0.5;
/// Lines of the `service_hot` closed loop (about 7 s on a 2-core host).
pub const HOT_CLOSED_LINES: usize = 32000;
/// Lines of the `service_auto` closed loop (about 7 s on a 2-core host).
pub const AUTO_CLOSED_LINES: usize = 2400;
/// The closed loop stops submitting after this many times `--seconds`,
/// so a much slower program still ends the run in time.
pub const CLOSED_CAP_FACTOR: f64 = 2.0;
/// Requests kept outstanding per connection in the closed loop.
pub const OUTSTANDING: usize = 4;
/// Latency limit of `goodput_rps`, in ms.
pub const HOT_LATENCY_LIMIT_MS: f64 = 50.0;
/// Latency limit of `goodput_rps` on `service_auto`, in ms, on top of each
/// request's own deadline.
pub const DEADLINE_SLACK_MS: f64 = 25.0;
/// A run whose generator ran later than this (p99, ms) is invalid.
pub const GEN_LAG_LIMIT_MS: f64 = 100.0;
/// Share of `--seconds` a traced run spends replaying lines through the
/// layers, split evenly between the traced replay and its untraced twin.
pub const REPLAY_SHARE: f64 = 0.5;
/// Independent segments of a run, each on a freshly set-up service.  On
/// `service_hot` the percentiles are medians over the segments (see
/// [`stats::windowed`]), so a slow spell on the host moves one segment, not
/// the result.
pub const SEGMENTS: usize = 8;
/// Set-ups timed per segment (`setup_s` is the median of all of them); the
/// last one serves the segment.  The first of a segment is two to three
/// times slower than the rest, so with eight the median sits among the
/// later ones rather than on the edge between the two kinds.
pub const SETUPS_PER_SEGMENT: usize = 8;
/// Longest wait for the replies of a phase before they count as lost.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }
}

fn cache_capacity() -> usize {
    let c = config();
    c.cache_shards * c.cache_capacity.max(1)
}

/// The set-up request: the paper's example graph on a 3-processor ring,
/// which no workload line asks about.
fn warmup_line() -> String {
    let mut r = Request::new(Instance::new(paper_example_dag(), ProcNetwork::ring(3)));
    r.algorithm = Some("astar".to_string());
    serde_json::to_string(&r).expect("a request always serialises")
}

/// One submitted line of a phase.
#[derive(Debug, Clone)]
struct Sent {
    /// The request's id (unique in the run).
    id: u64,
    line: usize,
    conn: usize,
    seq: u64,
    due: Instant,
    submitted: Instant,
    submit_end: Instant,
}

/// One reply as the benchmark received it.
struct Got {
    conn: usize,
    at: Instant,
    reply: Reply,
}

/// The checked outcome of one line.
#[derive(Debug, Clone)]
struct Outcome {
    sent: Sent,
    /// When the reply reached the benchmark.  `Connection` replies arrive
    /// as the workers finish them, unordered; this is the client's view.
    arrived: Option<Instant>,
    /// When an in-order writer (what the IO transports put in front of a
    /// connection) could have written it: once every earlier reply of its
    /// connection had arrived.
    delivered: Option<Instant>,
    response: Option<Response>,
    /// Answered `ok` with a schedule that passed every check.
    good: bool,
    /// Latency limit of `goodput_rps` for this line.
    limit_ms: f64,
    /// `listsched::upper_bound` of the line's instance.
    list_bound: u64,
    /// `InstanceFeatures::predicted_exact_ms` of the line's instance.
    predicted_ms: u64,
}

impl Outcome {
    /// From the due time to the reply's arrival; +∞ for a failure.
    fn latency_ms(&self) -> f64 {
        since_due(self, self.arrived)
    }

    /// From the due time to the in-order write; +∞ for a failure.
    fn in_order_latency_ms(&self) -> f64 {
        since_due(self, self.delivered)
    }
}

fn since_due(o: &Outcome, t: Option<Instant>) -> f64 {
    match (o.good, t) {
        (true, Some(t)) => t.duration_since(o.sent.due).as_secs_f64() * 1e3,
        _ => FAILED,
    }
}

/// Everything one segment measured.
struct Segment {
    open: Vec<Outcome>,
    closed: Vec<Outcome>,
    open_wall: f64,
    closed_wall: f64,
    stats: Option<StatsReport>,
    cache: CacheStats,
    snapshot: MetricsSnapshot,
}

/// Starts a service and runtime and answers one warm-up request: the
/// set-up `setup_s` times.
fn set_up(warmup: &str, report: &mut Report) -> (SchedulingService, ServiceRuntime, f64) {
    let t = Instant::now();
    let svc = SchedulingService::new(config());
    let rt = ServiceRuntime::start(&svc);
    {
        let (mut conn, rx) = rt.open();
        conn.submit_line(warmup);
        let ok = rx
            .recv()
            .ok()
            .and_then(Reply::into_response)
            .is_some_and(|r| r.ok);
        if !ok {
            report.violation("warm-up request failed".to_string());
        }
    }
    (svc, rt, t.elapsed().as_secs_f64())
}

/// Runs a service workload: [`SEGMENTS`] independent segments, each on its
/// own freshly set-up service, each an open loop followed by a closed loop.
pub fn run(kind: ServiceKind, seed: u64, seconds: f64, trace: bool) -> (Report, Tracer) {
    let mut report = Report::default();
    let rate = match kind {
        ServiceKind::Hot => HOT_RATE,
        ServiceKind::Auto => AUTO_RATE,
    };
    let open_s = seconds * OPEN_SHARE;
    let per_open = (rate * open_s / SEGMENTS as f64).round().max(1.0) as usize;
    let per_closed = match kind {
        ServiceKind::Hot => HOT_CLOSED_LINES,
        ServiceKind::Auto => AUTO_CLOSED_LINES,
    } / SEGMENTS;
    let (opens, closeds): (Vec<Stream>, Vec<Stream>) = match kind {
        ServiceKind::Hot => (0..SEGMENTS as u64)
            .map(|k| {
                let base = k << 40;
                (
                    hot_stream(seed, 2 * k + 1, per_open, base),
                    hot_stream(seed, 2 * k + 2, per_closed, base | 1 << 32),
                )
            })
            .unzip(),
        ServiceKind::Auto => {
            let open = auto_stream(seed, 1, per_open * SEGMENTS, 0);
            let closed = auto_stream(seed, 2, per_closed * SEGMENTS, 1 << 32);
            (0..SEGMENTS)
                .map(|k| {
                    (
                        open.slice(k * per_open..(k + 1) * per_open),
                        closed.slice(k * per_closed..(k + 1) * per_closed),
                    )
                })
                .unzip()
        }
    };
    report.meta("rate_rps", rate);
    report.meta("segments", SEGMENTS);
    report.meta(
        "open_loop_s_per_segment",
        format!("{:.3}", open_s / SEGMENTS as f64),
    );
    report.meta("closed_loop_lines_per_segment", per_closed);
    report.meta("outstanding_per_connection", OUTSTANDING);
    report.meta("connections", CONNECTIONS);
    report.meta("workers", WORKERS);
    for line in describe(&opens, cache_capacity()) {
        report.notes.push(format!("open-loop mix: {line}"));
    }
    for line in describe(&closeds, cache_capacity()) {
        report.notes.push(format!("closed-loop mix: {line}"));
    }

    // The trace's clock starts before the first request it will show.
    let mut tracer = Tracer::new(trace);
    let warmup = warmup_line();
    let mut setups = Vec::new();
    let mut segments = Vec::new();
    let mut peaks = Vec::new();
    for (open, closed) in opens.iter().zip(&closeds) {
        heap::reset_peak();
        // Spare set-ups, timed and shut down again: one set-up (under 1 ms)
        // is too short to time steadily on its own.
        for _ in 1..SETUPS_PER_SEGMENT {
            let (spare, rt, secs) = set_up(&warmup, &mut report);
            setups.push(secs);
            ServiceRuntime::shutdown(rt);
            drop(spare);
        }
        let (svc, rt, secs) = set_up(&warmup, &mut report);
        setups.push(secs);
        let (open_out, stats) = open_loop(&rt, open, rate, &mut report);
        let (closed_out, closed_wall) = closed_loop(
            &rt,
            closed,
            seconds * CLOSED_CAP_FACTOR / SEGMENTS as f64,
            &mut report,
        );
        let cache = svc.cache_stats();
        let snapshot = svc.metrics_snapshot();
        ServiceRuntime::shutdown(rt);
        peaks.push(heap::peak_mb());
        let open = check(kind, open, open_out, &mut report);
        let open_wall = open
            .iter()
            .filter_map(|o| o.arrived)
            .max()
            .zip(open.first())
            .map_or(0.0, |(last, first)| {
                last.duration_since(first.sent.due).as_secs_f64()
            });
        let closed = check(kind, closed, closed_out, &mut report);
        segments.push(Segment {
            open,
            closed,
            open_wall,
            closed_wall,
            stats,
            cache,
            snapshot,
        });
    }

    let open: Vec<&Outcome> = segments.iter().flat_map(|s| &s.open).collect();
    let all: Vec<&Outcome> = segments
        .iter()
        .flat_map(|s| s.open.iter().chain(&s.closed))
        .collect();
    let attempted = all.len();
    let failed = all.iter().filter(|o| !o.good).count();
    report.attempted = attempted as u64;
    report.failed = failed as u64;

    // End-to-end.
    report.set_n("setup_s", stats::median(&setups), setups.len());
    report.notes.push(format!(
        "setup seconds: {}",
        setups
            .iter()
            .map(|t| format!("{t:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // The handler's own time, over every reply of both loops (in segment
    // order, so the windows below are segments).
    let elapsed: Vec<f64> = all
        .iter()
        .map(|o| match (&o.response, o.good) {
            (Some(r), true) => r.elapsed_ms,
            _ => FAILED,
        })
        .collect();
    // `service_auto` sends one fixed suite split over the segments, so only
    // the pooled sample is the same set of requests in every run.
    let windows = match kind {
        ServiceKind::Hot => SEGMENTS,
        ServiceKind::Auto => 1,
    };
    let p = windowed(&elapsed, windows, 50.0);
    report.set_n("solve_ms.p50", p.value, p.n);
    let p = windowed(&elapsed, windows, 90.0);
    report.set_n("solve_ms.p90", p.value, p.n);
    let wall: f64 = segments.iter().map(|s| s.open_wall + s.closed_wall).sum();
    report.set_n(
        "solves_per_s",
        (attempted - failed) as f64 / wall,
        attempted,
    );
    // Latency as a caller waiting for each reply sees it: the closed loop's,
    // from submission to arrival.  The open loop's latencies are sub-ms on
    // `service_hot` and measure the host's thread wake-ups more than the
    // program (their spread over five seeds was 0.3-1.0 of the median), so
    // they are per-layer figures.
    let closed_latency: Vec<f64> = segments
        .iter()
        .flat_map(|s| &s.closed)
        .map(Outcome::latency_ms)
        .collect();
    let p = windowed(&closed_latency, windows, 50.0);
    report.set_n("latency_ms.p50", p.value, p.n);
    let p = windowed(&closed_latency, windows, 99.0);
    report.set_n("latency_ms.p99", p.value, p.n);
    let latency: Vec<f64> = open.iter().map(|o| o.latency_ms()).collect();
    let p = windowed(&latency, windows, 50.0);
    report.set_n("service.open_latency_ms.p50", p.value, p.n);
    let p = windowed(&latency, windows, 99.0);
    report.set_n("service.open_latency_ms.p99", p.value, p.n);
    let within = |o: &Outcome| o.latency_ms() <= o.limit_ms;
    let open_wall: f64 = segments.iter().map(|s| s.open_wall).sum();
    report.set_n(
        "goodput_rps",
        open.iter().filter(|o| within(o)).count() as f64 / open_wall,
        open.len(),
    );
    let rates: Vec<f64> = segments
        .iter()
        .map(|s| {
            ratio(
                s.closed.iter().filter(|o| o.good).count() as f64,
                s.closed_wall,
            )
        })
        .collect();
    let closed_good = segments
        .iter()
        .flat_map(|s| &s.closed)
        .filter(|o| o.good)
        .count();
    let closed_wall: f64 = segments.iter().map(|s| s.closed_wall).sum();
    let capacity = match kind {
        ServiceKind::Hot => stats::median(&rates),
        ServiceKind::Auto => ratio(closed_good as f64, closed_wall),
    };
    report.set_n("capacity_rps", capacity, closed_good);
    report.notes.push(format!(
        "closed-loop rates per segment: {}",
        rates
            .iter()
            .map(|r| format!("{r:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.notes.push(format!(
        "open-loop latency p50/p99 per segment (ms): {}",
        segments
            .iter()
            .map(|s| {
                let lat: Vec<f64> = s.open.iter().map(Outcome::latency_ms).collect();
                let (p50, p99) = (percentile(&lat, 50.0).value, percentile(&lat, 99.0).value);
                format!("{p50:.3}/{p99:.3}")
            })
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let ratios: Vec<f64> = open
        .iter()
        .filter(|o| o.good)
        .filter_map(|o| Some(o.response.as_ref()?.schedule_length? as f64 / o.list_bound as f64))
        .collect();
    report.set_n("makespan_vs_list", stats::mean(&ratios), ratios.len());

    // Run validity: the generator must have kept to its schedule.
    let lags: Vec<f64> = open
        .iter()
        .map(|o| o.sent.submitted.duration_since(o.sent.due).as_secs_f64() * 1e3)
        .collect();
    let lag = percentile(&lags, 99.0);
    report.set_n("bench.gen_lag_ms.p99", lag.value, lag.n);
    if lag.value > GEN_LAG_LIMIT_MS {
        report.violation(format!(
            "run invalid: generator lag p99 {:.3} ms exceeds {GEN_LAG_LIMIT_MS} ms",
            lag.value
        ));
    }
    report.set("failed_frac", ratio(failed as f64, attempted as f64));
    let misses = match kind {
        ServiceKind::Hot => 0,
        ServiceKind::Auto => open.iter().filter(|o| !within(o)).count(),
    };
    report.set_n(
        "deadline_miss_frac",
        ratio(misses as f64, open.len() as f64),
        open.len(),
    );

    if trace {
        // Client-side spans of the live open loops: one per request, from
        // its due time to its reply's arrival, around the submit call.
        for o in &open {
            let track = 10 + o.sent.conn as u32;
            let end = o.arrived.unwrap_or(o.sent.submit_end);
            let root = tracer.record("request", o.sent.id, None, track, o.sent.due, end);
            tracer.record(
                "service.submit",
                o.sent.id,
                root,
                track,
                o.sent.submitted,
                o.sent.submit_end,
            );
        }
        // In-order latency minus the handler's own time: queueing, hand-offs
        // and the head-of-line wait an in-order writer adds.
        let outside: Vec<f64> = open
            .iter()
            .filter(|o| o.good)
            .filter_map(|o| Some(o.in_order_latency_ms() - o.response.as_ref()?.elapsed_ms))
            .collect();
        let p = percentile(&outside, 99.0);
        report.set_n("service.runtime.outside_handler_ms.p99", p.value, p.n);
        let reports: Vec<&StatsReport> = segments.iter().filter_map(|s| s.stats.as_ref()).collect();
        let med = |f: fn(&StatsReport) -> f64| {
            stats::median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        report.set_n(
            "service.runtime.queue_wait_ms.p50",
            med(|r| r.queue_wait_p50_ms),
            reports.len(),
        );
        report.set_n(
            "service.runtime.queue_wait_ms.p99",
            med(|r| r.queue_wait_p99_ms),
            reports.len(),
        );
        let max =
            |f: fn(&StatsReport) -> u64| reports.iter().map(|r| f(r)).max().unwrap_or(0) as f64;
        let sum = |f: fn(&StatsReport) -> u64| reports.iter().map(|r| f(r)).sum::<u64>() as f64;
        report.set("service.runtime.peak_pending", max(|r| r.peak_pending));
        report.set("service.runtime.shed", sum(|r| r.shed));
        report.set("service.runtime.degraded", sum(|r| r.degraded));
        let cache =
            |f: fn(&CacheStats) -> u64| segments.iter().map(|s| f(&s.cache)).sum::<u64>() as f64;
        report.set(
            "service.cache.hit_rate",
            ratio(cache(|c| c.hits), cache(|c| c.hits + c.misses)),
        );
        report.set("service.cache.evictions", cache(|c| c.evictions));
        report.set("service.cache.filter_skips", cache(|c| c.filter_skips));
        let snap = |f: fn(&MetricsSnapshot) -> u64| {
            segments.iter().map(|s| f(&s.snapshot)).sum::<u64>() as f64
        };
        report.set("service.portfolio.band_exact", snap(|m| m.auto_exact));
        report.set("service.portfolio.band_anytime", snap(|m| m.auto_anytime));
        report.set("service.portfolio.band_raced", snap(|m| m.auto_raced));
        report.set(
            "service.portfolio.warm_starts",
            snap(|m| m.auto_warm_starts),
        );
        let predict: Vec<f64> = open
            .iter()
            .filter_map(|o| {
                let r = o.response.as_ref()?;
                (o.good && r.plan.as_deref() == Some("auto_exact"))
                    .then(|| ratio(o.predicted_ms as f64, r.elapsed_ms))
            })
            .collect();
        report.set_n(
            "service.portfolio.predict_ratio",
            stats::median(&predict),
            predict.len(),
        );
        replay_layers(
            &opens[0],
            seconds * REPLAY_SHARE / 2.0,
            &mut tracer,
            &mut report,
        );
    }
    // A segment's peak depends on which large searches happen to run at
    // once; the median over segments is steadier than the run's peak.
    report.notes.push(format!(
        "segment peak heap MiB: {}",
        peaks
            .iter()
            .map(|m| format!("{m:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.set_n("peak_heap_mb", stats::median(&peaks), peaks.len());
    (report, tracer)
}

/// Collects every reply of one connection until it disconnects.
fn collect(conn: usize, rx: &Receiver<Reply>, counter: &AtomicUsize) -> Vec<Got> {
    let mut out = Vec::new();
    while let Ok(reply) = rx.recv() {
        out.push(Got {
            conn,
            at: Instant::now(),
            reply,
        });
        counter.fetch_add(1, Ordering::Relaxed);
    }
    out
}

/// The open loop: line `i` is due at `i / rate` seconds and goes to
/// connection `i mod 2`.  After the last reply, one `{"type":"stats"}` line
/// asks the runtime for its counters.
fn open_loop(
    rt: &ServiceRuntime,
    stream: &Stream,
    rate: f64,
    report: &mut Report,
) -> (Vec<(Sent, Option<Got>)>, Option<StatsReport>) {
    let (mut conns, receivers): (Vec<Connection>, Vec<Receiver<Reply>>) =
        (0..CONNECTIONS).map(|_| rt.open()).unzip();
    let counter = AtomicUsize::new(0);
    let mut sent = Vec::with_capacity(stream.lines.len());
    let mut stats_seq = None;
    let got: Vec<Got> = std::thread::scope(|scope| {
        let handles: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(c, rx)| {
                let counter = &counter;
                scope.spawn(move || collect(c, &rx, counter))
            })
            .collect();
        let t0 = Instant::now();
        for (i, line) in stream.lines.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let conn = i % CONNECTIONS;
            let submitted = Instant::now();
            let (seq, _) = conns[conn].submit_line(&line.text);
            sent.push(Sent {
                id: line.id,
                line: i,
                conn,
                seq,
                due,
                submitted,
                submit_end: Instant::now(),
            });
        }
        let wait = Instant::now();
        while counter.load(Ordering::Relaxed) < sent.len() && wait.elapsed() < DRAIN_LIMIT {
            std::thread::sleep(Duration::from_millis(1));
        }
        if counter.load(Ordering::Relaxed) < sent.len() {
            report.violation(format!(
                "{} of {} open-loop replies never arrived",
                sent.len() - counter.load(Ordering::Relaxed),
                sent.len()
            ));
            // Nothing will close the connections' reply routes.
            finish_abandoned(report);
        }
        stats_seq = Some(conns[0].submit_line("{\"type\":\"stats\"}").0);
        drop(conns);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("collector thread"))
            .collect()
    });
    let mut stats = None;
    let mut by_key: BTreeMap<(usize, u64), Got> = BTreeMap::new();
    for g in got {
        let key = (g.conn, g.reply.seq);
        if g.conn == 0 && Some(g.reply.seq) == stats_seq {
            stats = g.reply.stats().cloned();
            continue;
        }
        if by_key.insert(key, g).is_some() {
            report.violation(format!("connection {} answered seq {} twice", key.0, key.1));
        }
    }
    if stats.is_none() {
        report.violation("the stats verb got no stats reply".to_string());
    }
    if by_key.len() != sent.len() {
        report.violation(format!(
            "{} replies for {} open-loop lines",
            by_key.len(),
            sent.len()
        ));
    }
    let out = sent
        .into_iter()
        .map(|s| {
            let g = by_key.remove(&(s.conn, s.seq));
            (s, g)
        })
        .collect();
    (out, stats)
}

/// The closed loop: each connection keeps [`OUTSTANDING`] lines in flight,
/// drawing the next line of the shared stream whenever a reply arrives,
/// until the stream is used up (or `cap_s` has passed).  Returns the lines
/// and the phase's wall time up to the last reply.
fn closed_loop(
    rt: &ServiceRuntime,
    stream: &Stream,
    cap_s: f64,
    report: &mut Report,
) -> (Vec<(Sent, Option<Got>)>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(cap_s);
    let per_conn: Vec<(Vec<Sent>, Vec<Got>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let next = &next;
                let (mut conn, rx) = rt.open();
                scope.spawn(move || {
                    let mut sent = Vec::new();
                    let mut got = Vec::new();
                    let submit = |conn: &mut Connection, sent: &mut Vec<Sent>| -> bool {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= stream.lines.len() {
                            return false;
                        }
                        let submitted = Instant::now();
                        let (seq, _) = conn.submit_line(&stream.lines[i].text);
                        sent.push(Sent {
                            id: stream.lines[i].id,
                            line: i,
                            conn: c,
                            seq,
                            due: submitted,
                            submitted,
                            submit_end: Instant::now(),
                        });
                        true
                    };
                    for _ in 0..OUTSTANDING {
                        submit(&mut conn, &mut sent);
                    }
                    while got.len() < sent.len() {
                        let Ok(reply) = rx.recv() else { break };
                        got.push(Got {
                            conn: c,
                            at: Instant::now(),
                            reply,
                        });
                        if Instant::now() < end {
                            submit(&mut conn, &mut sent);
                        }
                    }
                    drop(conn);
                    (sent, got)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread"))
            .collect()
    });
    if next.load(Ordering::Relaxed) < stream.lines.len() {
        report
            .notes
            .push(format!("closed loop stopped at its {cap_s} s cap"));
    }
    let mut out = Vec::new();
    let mut last = start;
    for (sent, got) in per_conn {
        let mut by_seq: BTreeMap<u64, Got> = BTreeMap::new();
        for g in got {
            last = last.max(g.at);
            let seq = g.reply.seq;
            if by_seq.insert(seq, g).is_some() {
                report.violation(format!("closed loop: seq {seq} answered twice"));
            }
        }
        for s in sent {
            let g = by_seq.remove(&s.seq);
            out.push((s, g));
        }
    }
    (out, last.duration_since(start).as_secs_f64())
}

/// Prints a failing result and exits: replies that never arrive leave the
/// collector threads blocked for good.
fn finish_abandoned(report: &Report) -> ! {
    print!("{}", report.text(false));
    println!("{}", report.result_json(false));
    std::process::exit(1);
}

/// The output oracle over one phase: exactly one reply per line, delivered
/// in sequence order per connection; every schedule valid for the
/// benchmark's own copy of the instance and never longer than the list
/// bound; `list` equal to it; direct `astar` proven optimal unless it
/// spent its expansion budget; and every
/// repeat of a pair the same length as its first answer.
fn check(
    kind: ServiceKind,
    stream: &Stream,
    lines: Vec<(Sent, Option<Got>)>,
    report: &mut Report,
) -> Vec<Outcome> {
    // In-order delivery times per connection.
    let mut by_conn: BTreeMap<usize, Vec<(u64, Instant)>> = BTreeMap::new();
    for (s, g) in &lines {
        if let Some(g) = g {
            by_conn.entry(s.conn).or_default().push((s.seq, g.at));
        }
    }
    let mut delivered: BTreeMap<(usize, u64), Instant> = BTreeMap::new();
    for (conn, mut v) in by_conn {
        v.sort_unstable_by_key(|x| x.0);
        let mut prev: Option<Instant> = None;
        for (seq, at) in v {
            let d = prev.map_or(at, |p| p.max(at));
            delivered.insert((conn, seq), d);
            prev = Some(d);
        }
    }
    let mut first_length: BTreeMap<usize, u64> = BTreeMap::new();
    let mut out = Vec::with_capacity(lines.len());
    for (sent, got) in lines {
        let pair = &stream.pairs[stream.lines[sent.line].pair];
        let delivered = delivered.get(&(sent.conn, sent.seq)).copied();
        let arrived = got.as_ref().map(|g| g.at);
        let response = got.and_then(|g| match g.reply.body {
            ReplyBody::Response(r) => Some(r),
            ReplyBody::Stats(_) => None,
        });
        let mut good = false;
        match &response {
            None => report.violation(format!("line {}: no reply", sent.line)),
            Some(r) if !r.ok => {} // error or shed: a failure
            Some(r) => {
                let inst = &pair.request.instance;
                let alg = pair.request.algorithm.as_deref().unwrap_or("");
                let problem = match (&r.schedule, r.schedule_length) {
                    (None, _) | (_, None) => Some("ok reply without a schedule".to_string()),
                    (Some(s), Some(len)) => {
                        if let Err(e) = s.validate(&inst.graph, &inst.network) {
                            Some(format!("invalid schedule: {e}"))
                        } else if s.makespan() != len {
                            Some(format!(
                                "schedule_length {len} but makespan {}",
                                s.makespan()
                            ))
                        } else if len > pair.list_bound {
                            Some(format!(
                                "length {len} above the list bound {}",
                                pair.list_bound
                            ))
                        } else if alg == "list" && !r.degraded && len != pair.list_bound {
                            Some(format!(
                                "list length {len} is not the list bound {}",
                                pair.list_bound
                            ))
                        } else if alg == "astar"
                            && !r.degraded
                            && r.quality.as_deref() != Some("optimal")
                            && pair.request.max_expansions.is_none_or(|m| r.expanded < m)
                        {
                            Some(format!(
                                "astar answered {:?} after {} expansions",
                                r.quality, r.expanded
                            ))
                        } else if r.degraded {
                            None
                        } else {
                            match first_length.get(&stream.lines[sent.line].pair) {
                                Some(&l) if l != len => {
                                    Some(format!("repeat answered {len}, first answer {l}"))
                                }
                                Some(_) => None,
                                None => {
                                    first_length.insert(stream.lines[sent.line].pair, len);
                                    None
                                }
                            }
                        }
                    }
                };
                match problem {
                    Some(p) => report.violation(format!("line {}: {p}", sent.line)),
                    None => good = true,
                }
            }
        }
        let limit_ms = match kind {
            ServiceKind::Hot => HOT_LATENCY_LIMIT_MS,
            ServiceKind::Auto => pair.request.deadline_ms.unwrap_or(0) as f64 + DEADLINE_SLACK_MS,
        };
        out.push(Outcome {
            sent,
            arrived,
            delivered,
            response,
            good,
            limit_ms,
            list_bound: pair.list_bound,
            predicted_ms: pair.predicted_ms,
        });
    }
    out
}

/// The traced replay: the first segment's open-loop lines, in order,
/// through each layer's public function on a fresh service, one span per
/// call; then the same lines again untraced for the overhead.  `budget_s`
/// bounds the traced pass.
fn replay_layers(stream: &Stream, budget_s: f64, tracer: &mut Tracer, report: &mut Report) {
    let (n, traced_s, probe) = replay(stream, usize::MAX, budget_s, tracer, report);
    tracer.set_enabled(false);
    let (_, untraced_s, _) = replay(stream, n, f64::INFINITY, tracer, report);
    tracer.set_enabled(true);
    report.set("bench.trace_overhead", ratio(traced_s, untraced_s));
    report.set(
        "bench.attribution",
        trace::attribution(tracer.spans(), "replay"),
    );

    let by_name = tracer.by_name();
    for (metric, span, scale) in [
        ("service.protocol.parse_us", "service.protocol.parse", 1e3),
        ("service.signature.canon_us", "service.signature.canon", 1e3),
        (
            "service.portfolio.resolve_us",
            "service.portfolio.resolve",
            1e3,
        ),
        ("core.problem_us", "core.problem", 1e3),
        ("core.search_ms", "core.search", 1e6),
        ("taskgraph.levels_us", "taskgraph.levels", 1e3),
        ("listsched.upper_bound_us", "listsched.upper_bound", 1e3),
        ("schedule.validate_us", "schedule.validate", 1e3),
    ] {
        let (v, n) = trace::mean_self(&by_name, span, scale);
        report.set_n(metric, v, n);
    }
    let handle: Vec<f64> = by_name.get("service.handle").map_or(Vec::new(), |v| {
        v.iter().map(|&ns| ns as f64 / 1e6).collect()
    });
    let p = percentile(&handle, 50.0);
    report.set_n("service.handle_ms.p50", p.value, p.n);
    let p = percentile(&handle, 99.0);
    report.set_n("service.handle_ms.p99", p.value, p.n);

    let generated = probe.generated as f64;
    let pruned = probe.total_pruned() as f64;
    report.set("core.expanded", probe.expanded as f64);
    report.set("core.generated", generated);
    report.set("core.pruned_share", ratio(pruned, generated + pruned));
    report.set("core.max_open_size", probe.max_open_size as f64);
    report.set(
        "core.arena.replayed_per_expansion",
        ratio(probe.replayed_deltas as f64, probe.expanded as f64),
    );
    report.set(
        "core.arena.path_cache_hit_rate",
        ratio(probe.path_cache_hits as f64, probe.materialisations as f64),
    );
    report.set(
        "core.arena.peak_live_records",
        probe.peak_live_records as f64,
    );
    report.set(
        "core.arena.reclaimed_records",
        probe.reclaimed_records as f64,
    );
    let search_s = by_name
        .get("core.search")
        .map_or(0, |v| v.iter().sum::<u64>()) as f64
        / 1e9;
    report.set(
        "core.expansions_per_s",
        ratio(probe.expanded as f64, search_s),
    );
}

/// Replays up to `limit` lines (and at most `budget_s` seconds) on a fresh
/// service.  Returns the lines replayed, the time they took, and the merged
/// counters of the core-search probes.
fn replay(
    stream: &Stream,
    limit: usize,
    budget_s: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (usize, f64, SearchStats) {
    let svc = SchedulingService::new(config());
    let mut probe = SearchStats::default();
    let start = Instant::now();
    let mut n = 0;
    for (i, line) in stream.lines.iter().enumerate() {
        if n >= limit || start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        let id = line.id;
        let inst = &stream.pairs[line.pair].request.instance;
        let (graph, net) = (inst.graph.clone(), inst.network.clone());
        let root = tracer.open("replay", id, None, 2);
        let parsed = tracer.time("service.protocol.parse", id, root, 2, || {
            serde_json::from_str::<Request>(&line.text)
        });
        let Ok(req) = parsed else {
            report.violation(format!("replay: line {i} does not parse"));
            continue;
        };
        tracer.time("service.signature.canon", id, root, 2, || {
            black_box(CanonicalInstance::of(&req.instance).signature())
        });
        let plan = tracer.time("service.portfolio.resolve", id, root, 2, || {
            resolve(&req, svc.config())
        });
        let response = tracer.time("service.handle", id, root, 2, || {
            svc.handle_request(&req, id)
        });
        let problem = tracer.time("core.problem", id, root, 2, || {
            SchedulingProblem::new(graph, net)
        });
        tracer.time("taskgraph.levels", id, root, 2, || {
            black_box(GraphLevels::compute(&inst.graph))
        });
        tracer.time("listsched.upper_bound", id, root, 2, || {
            black_box(upper_bound(&inst.graph, &inst.network))
        });
        if let Ok(plan) = plan {
            // The search the service's dispatch runs for this plan, on its
            // own (cache hits included, so every line pays it once).
            let spec = SchedulerSpec {
                limits: SearchLimits {
                    max_millis: req.deadline_ms,
                    max_expansions: req.max_expansions,
                    ..Default::default()
                },
                epsilon: plan.epsilon,
                weight: plan.weight,
                seed_incumbent: svc.config().seed_incumbent,
                ..SchedulerSpec::default()
            };
            let registry = SchedulerRegistry::with_spec(spec);
            if let Some(s) = registry.get(&plan.algorithm) {
                let r = tracer.time("core.search", id, root, 2, || s.run(&problem));
                probe.merge(&r.result.stats);
            }
        }
        if let Some(s) = &response.schedule {
            tracer.time("schedule.validate", id, root, 2, || {
                black_box(s.validate(&inst.graph, &inst.network).is_ok())
            });
        }
        tracer.close(root);
        n += 1;
    }
    (n, start.elapsed().as_secs_f64(), probe)
}
