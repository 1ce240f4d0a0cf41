//! The JSON-lines wire protocol of the scheduling service.
//!
//! One request per line in, one response per line out.  A request carries a
//! full problem [`Instance`] (task graph + processor network, in the
//! validated wire formats of `optsched-taskgraph`/`optsched-procnet`), the
//! registry name of the algorithm to run, and optional resource limits; a
//! response carries the schedule, its quality tag, and the service-side
//! accounting (cache hit, states expanded, elapsed time, plus the
//! admission-control `shed`/`degraded` markers).  Each connection's writer
//! delivers responses in request arrival order, whatever order the shared
//! worker pool finished them in; `id` still correlates across connections.

use serde::{Deserialize, Serialize};

use optsched_core::check_cost_ceiling;
use optsched_procnet::ProcNetwork;
use optsched_schedule::Schedule;
use optsched_taskgraph::{Cost, TaskGraph};
use optsched_workload::CorpusRequest;

/// One scheduling problem instance as it travels on the wire.
///
/// Deserialisation goes through the validated formats of the component
/// types, so a malformed instance (cyclic graph, dangling edge, unknown
/// link endpoint, zero-speed processor, …) is rejected at parse time with a
/// message naming the violated invariant — the service turns that into a
/// structured error response instead of scheduling garbage.  The pair must
/// also pass [`check_cost_ceiling`], so no accepted instance can overflow
/// the schedulers' cost arithmetic.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Instance {
    /// The task graph to schedule.
    pub graph: TaskGraph,
    /// The target processor network.
    pub network: ProcNetwork,
}

impl Deserialize for Instance {
    fn from_value(v: &serde::Value) -> Result<Instance, serde::Error> {
        let pairs = v.as_object().ok_or_else(|| {
            serde::Error::custom(format!(
                "expected an object for `Instance`, found {}",
                v.type_name()
            ))
        })?;
        let graph = TaskGraph::from_value(serde::__field(pairs, "graph"))
            .map_err(|e| serde::Error::custom(format!("field `graph` of `Instance`: {e}")))?;
        let network = ProcNetwork::from_value(serde::__field(pairs, "network"))
            .map_err(|e| serde::Error::custom(format!("field `network` of `Instance`: {e}")))?;
        check_cost_ceiling(&graph, &network).map_err(serde::Error::custom)?;
        Ok(Instance { graph, network })
    }
}

impl Instance {
    /// Bundles a graph and a network into an instance.
    pub fn new(graph: TaskGraph, network: ProcNetwork) -> Instance {
        Instance { graph, network }
    }
}

impl From<&CorpusRequest> for Request {
    /// Converts a workload-generated corpus entry into a wire request
    /// (fully connected processors, as the corpus generator assumes).
    fn from(c: &CorpusRequest) -> Request {
        Request {
            id: None,
            instance: Instance::new(c.graph.clone(), ProcNetwork::fully_connected(c.procs)),
            algorithm: Some(c.algorithm.clone()),
            deadline_ms: c.deadline_ms,
            max_expansions: None,
            epsilon: None,
            weight: None,
        }
    }
}

/// One scheduling request (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.  When absent
    /// the service assigns the request's submission sequence number.
    pub id: Option<u64>,
    /// The problem instance.
    pub instance: Instance,
    /// Registry name of the algorithm (`astar`, `wastar`, `aeps`, `chenyu`,
    /// `exhaustive`, `list`, `parallel`), or `auto` to let the service's
    /// portfolio pick one from the instance's features and the deadline (the
    /// response's `algorithm` reports what actually ran, `plan` which
    /// portfolio band chose it).  When absent the service picks `astar` — or
    /// `wastar`, its deadline-pressure algorithm, if the request carries a
    /// `deadline_ms`.
    pub algorithm: Option<String>,
    /// Wall-clock budget in milliseconds.  The search returns its best
    /// incumbent when the budget expires, so *every* deadline — even 0 ms —
    /// still yields a feasible schedule (tagged `anytime` or `heuristic`).
    pub deadline_ms: Option<u64>,
    /// Budget on expanded states (same anytime semantics as `deadline_ms`).
    pub max_expansions: Option<u64>,
    /// Approximation factor for `aeps` (default 0.2).
    pub epsilon: Option<f64>,
    /// Heuristic weight for `wastar` (default: the service's configured
    /// deadline-pressure weight).
    pub weight: Option<f64>,
}

impl Request {
    /// A plain request for `instance` with every knob at its default.
    pub fn new(instance: Instance) -> Request {
        Request {
            id: None,
            instance,
            algorithm: None,
            deadline_ms: None,
            max_expansions: None,
            epsilon: None,
            weight: None,
        }
    }
}

/// The quality guarantee a response's schedule carries.
pub mod quality {
    /// Proven optimal (or exhaustively certified).
    pub const OPTIMAL: &str = "optimal";
    /// Feasible and typically improved over the list heuristic, but without
    /// an optimality proof: a deadline/limit cut the search short, or a
    /// bounded-suboptimal algorithm (weighted A\*, `w > 1`) completed.
    pub const ANYTIME: &str = "anytime";
    /// The polynomial-time list-scheduling answer (also what a 0 ms deadline
    /// yields: the pre-seeded incumbent, untouched by search).
    pub const HEURISTIC: &str = "heuristic";
}

/// How `algorithm: "auto"` resolved a request (the response's `plan` tag).
pub mod plan {
    /// Generous or absent deadline: a seeded exact search.
    pub const AUTO_EXACT: &str = "auto_exact";
    /// Tight deadline: feature-calibrated weighted A\* (anytime).
    pub const AUTO_ANYTIME: &str = "auto_anytime";
    /// Mid-band deadline: a staged race — a weighted-A\* leg first, then the
    /// remaining budget on a warm-started exact search.
    pub const AUTO_RACED: &str = "auto_raced";
}

/// One scheduling response (one JSON line).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// Correlation id (the request's `id`, or its submission sequence number).
    pub id: u64,
    /// True when the request was served; false for a structured error.
    pub ok: bool,
    /// Registry name of the algorithm that produced the schedule.
    pub algorithm: Option<String>,
    /// For `algorithm: "auto"` requests: which portfolio band resolved the
    /// request (see [`plan`]); `null` for directly named algorithms.
    pub plan: Option<String>,
    /// Quality tag: `"optimal"`, `"anytime"` or `"heuristic"` (see
    /// [`quality`]).
    pub quality: Option<String>,
    /// Makespan of the returned schedule.
    pub schedule_length: Option<Cost>,
    /// The schedule itself, validated against the instance before sending.
    pub schedule: Option<Schedule>,
    /// Canonical instance signature (hex), for observability and cache
    /// debugging: requests with equal signatures intern to one cache slot.
    pub signature: Option<String>,
    /// True when the response was served from the memoizing result cache.
    pub cache_hit: bool,
    /// True when admission control refused the request because the pending
    /// budget was exhausted (`ok == false`, `error` starts with
    /// [`OVERLOADED`]) — structured load shedding, not a failure of the
    /// request itself.
    pub shed: bool,
    /// True when admission control degraded the request to deadline-clamped
    /// `wastar` under overload: the response is a feasible schedule
    /// (`ok == true`), but from the cheap anytime path rather than the
    /// requested algorithm.
    pub degraded: bool,
    /// States the search expanded for this response.  On a cache hit this is
    /// the producing run's count (provenance), not new work.
    pub expanded: u64,
    /// Peak simultaneously-live state-store records of the search that
    /// produced this response (the producing run's value on a cache hit,
    /// 0 on an error) — the per-request memory proxy of the delta arena,
    /// surfaced so callers and dashboards can see what a request cost beyond
    /// wall-clock.
    pub peak_live_records: u64,
    /// Service-side wall-clock time for this request, in milliseconds.
    pub elapsed_ms: f64,
    /// Error message (only for `ok == false`).
    pub error: Option<String>,
}

/// Prefix of the `error` message of a shed (overloaded) response.
pub const OVERLOADED: &str = "overloaded";

impl Response {
    /// A structured error response: the service answers malformed or
    /// unserviceable requests instead of dying.
    pub fn error(id: u64, message: impl Into<String>) -> Response {
        Response {
            id,
            ok: false,
            algorithm: None,
            plan: None,
            quality: None,
            schedule_length: None,
            schedule: None,
            signature: None,
            cache_hit: false,
            shed: false,
            degraded: false,
            expanded: 0,
            peak_live_records: 0,
            elapsed_ms: 0.0,
            error: Some(message.into()),
        }
    }

    /// The structured shed response: admission control refused the request
    /// because `budget` requests are already pending.  The caller should
    /// retry later (or with a deadline, which the degrade path honours).
    pub fn overloaded(id: u64, budget: u64) -> Response {
        let mut resp =
            Response::error(id, format!("{OVERLOADED}: admission budget {budget} exhausted"));
        resp.shed = true;
        resp
    }

    /// True for responses refused by admission control.
    pub fn is_overloaded(&self) -> bool {
        self.shed
    }
}

/// An admin verb on the JSON-lines protocol: a line shaped
/// `{"type": "<verb>"}` instead of a scheduling request.  Today the only
/// verb is `stats`, which answers with a [`StatsReport`].  Admin lines are
/// recognised *after* a line fails to parse as a [`Request`] (they carry no
/// `instance`), so the scheduling fast path pays nothing for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminRequest {
    /// The verb (`"stats"`).
    pub verb: String,
    /// Optional correlation id, echoed in the report.
    pub id: Option<u64>,
}

// `type` is a Rust keyword and the vendored serde has no field renaming, so
// the admin shapes (de)serialise by hand.
impl serde::Deserialize for AdminRequest {
    fn from_value(v: &serde::Value) -> Result<AdminRequest, serde::Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("admin request: expected an object"))?;
        let verb = match serde::__field(pairs, "type") {
            serde::Value::String(s) => s.clone(),
            serde::Value::Null => {
                return Err(serde::Error::custom("admin request: missing `type`"))
            }
            other => {
                return Err(serde::Error::custom(format!(
                    "admin request: `type` must be a string, got {}",
                    other.type_name()
                )))
            }
        };
        let id = match serde::__field(pairs, "id") {
            serde::Value::Null => None,
            other => Some(other.as_u64().ok_or_else(|| {
                serde::Error::custom("admin request: `id` must be an unsigned integer")
            })?),
        };
        Ok(AdminRequest { verb, id })
    }
}

/// The answer to a `{"type": "stats"}` admin line: a point-in-time copy of
/// the service's counters, latency histograms (as p50/p99 of the log2
/// buckets — upper bounds, at most 2× the true value) and cache occupancy.
/// Serialised with `"type": "stats"` so clients can tell it apart from a
/// scheduling [`Response`] on the same connection.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReport {
    /// Correlation id (the admin line's `id`, or its submission sequence).
    pub id: u64,
    /// Requests submitted (valid scheduling lines; includes shed ones).
    pub submitted: u64,
    /// Responses produced, admin replies included.
    pub responses: u64,
    /// Requests refused with a structured `overloaded` error.
    pub shed: u64,
    /// Requests degraded to deadline-clamped `wastar`.
    pub degraded: u64,
    /// Admitted requests not yet answered.
    pub pending: u64,
    /// High-water mark of `pending`.
    pub peak_pending: u64,
    /// High-water mark of per-request `peak_live_records`.
    pub peak_live_records: u64,
    /// Responses measured by the queue-wait histogram.
    pub queue_wait_count: u64,
    /// Injector-queue wait p50 in milliseconds.
    pub queue_wait_p50_ms: f64,
    /// Injector-queue wait p99 in milliseconds.
    pub queue_wait_p99_ms: f64,
    /// Responses measured by the end-to-end histogram.
    pub e2e_count: u64,
    /// End-to-end (admission → delivery) p50 in milliseconds.
    pub e2e_p50_ms: f64,
    /// End-to-end (admission → delivery) p99 in milliseconds.
    pub e2e_p99_ms: f64,
    /// Entries resident in the memoizing result cache.
    pub cache_entries: u64,
    /// Result-cache hits served so far.
    pub cache_hits: u64,
    /// Events dropped by the tracing rings (0 unless tracing is enabled and
    /// a drain raced a writer).
    pub dropped_events: u64,
}

impl serde::Serialize for StatsReport {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("type".to_string(), serde::Value::String("stats".to_string())),
            ("id".to_string(), serde::Value::U64(self.id)),
            ("submitted".to_string(), serde::Value::U64(self.submitted)),
            ("responses".to_string(), serde::Value::U64(self.responses)),
            ("shed".to_string(), serde::Value::U64(self.shed)),
            ("degraded".to_string(), serde::Value::U64(self.degraded)),
            ("pending".to_string(), serde::Value::U64(self.pending)),
            ("peak_pending".to_string(), serde::Value::U64(self.peak_pending)),
            ("peak_live_records".to_string(), serde::Value::U64(self.peak_live_records)),
            ("queue_wait_count".to_string(), serde::Value::U64(self.queue_wait_count)),
            ("queue_wait_p50_ms".to_string(), serde::Value::F64(self.queue_wait_p50_ms)),
            ("queue_wait_p99_ms".to_string(), serde::Value::F64(self.queue_wait_p99_ms)),
            ("e2e_count".to_string(), serde::Value::U64(self.e2e_count)),
            ("e2e_p50_ms".to_string(), serde::Value::F64(self.e2e_p50_ms)),
            ("e2e_p99_ms".to_string(), serde::Value::F64(self.e2e_p99_ms)),
            ("cache_entries".to_string(), serde::Value::U64(self.cache_entries)),
            ("cache_hits".to_string(), serde::Value::U64(self.cache_hits)),
            ("dropped_events".to_string(), serde::Value::U64(self.dropped_events)),
        ])
    }
}

impl serde::Deserialize for StatsReport {
    fn from_value(v: &serde::Value) -> Result<StatsReport, serde::Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("stats report: expected an object"))?;
        match serde::__field(pairs, "type") {
            serde::Value::String(s) if s == "stats" => {}
            _ => return Err(serde::Error::custom("stats report: missing `\"type\": \"stats\"`")),
        }
        let u = |name: &str| -> Result<u64, serde::Error> {
            serde::__field(pairs, name)
                .as_u64()
                .ok_or_else(|| serde::Error::custom(format!("stats report: bad field `{name}`")))
        };
        let f = |name: &str| -> Result<f64, serde::Error> {
            serde::__field(pairs, name)
                .as_f64()
                .ok_or_else(|| serde::Error::custom(format!("stats report: bad field `{name}`")))
        };
        Ok(StatsReport {
            id: u("id")?,
            submitted: u("submitted")?,
            responses: u("responses")?,
            shed: u("shed")?,
            degraded: u("degraded")?,
            pending: u("pending")?,
            peak_pending: u("peak_pending")?,
            peak_live_records: u("peak_live_records")?,
            queue_wait_count: u("queue_wait_count")?,
            queue_wait_p50_ms: f("queue_wait_p50_ms")?,
            queue_wait_p99_ms: f("queue_wait_p99_ms")?,
            e2e_count: u("e2e_count")?,
            e2e_p50_ms: f("e2e_p50_ms")?,
            e2e_p99_ms: f("e2e_p99_ms")?,
            cache_entries: u("cache_entries")?,
            cache_hits: u("cache_hits")?,
            dropped_events: u("dropped_events")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_taskgraph::paper_example_dag;

    #[test]
    fn request_round_trips_through_json() {
        let req = Request {
            id: Some(7),
            instance: Instance::new(paper_example_dag(), ProcNetwork::ring(3)),
            algorithm: Some("wastar".to_string()),
            deadline_ms: Some(50),
            max_expansions: None,
            epsilon: None,
            weight: Some(1.5),
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn minimal_request_defaults_every_knob() {
        // Only the instance is mandatory; everything else reads as None.
        let inst = Instance::new(paper_example_dag(), ProcNetwork::ring(3));
        let json = format!("{{\"instance\": {}}}", serde_json::to_string(&inst).unwrap());
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Request::new(inst));
    }

    #[test]
    fn requests_without_an_instance_fail_to_parse() {
        let err = serde_json::from_str::<Request>("{\"id\": 1}").unwrap_err();
        assert!(err.to_string().contains("instance"), "{err}");
    }

    #[test]
    fn error_response_shape() {
        let r = Response::error(3, "boom");
        assert!(!r.ok);
        assert_eq!(r.id, 3);
        let back: Response = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn admin_stats_lines_parse_and_reports_round_trip() {
        let admin: AdminRequest =
            serde_json::from_str("{\"type\": \"stats\", \"id\": 9}").unwrap();
        assert_eq!(admin, AdminRequest { verb: "stats".to_string(), id: Some(9) });
        let bare: AdminRequest = serde_json::from_str("{\"type\": \"stats\"}").unwrap();
        assert_eq!(bare.id, None);
        assert!(
            serde_json::from_str::<Request>("{\"type\": \"stats\"}").is_err(),
            "admin lines are not scheduling requests"
        );
        assert!(
            serde_json::from_str::<AdminRequest>("{\"id\": 1}").is_err(),
            "objects without `type` are not admin lines"
        );

        let report = StatsReport {
            id: 9,
            submitted: 10,
            responses: 11,
            shed: 1,
            degraded: 2,
            pending: 0,
            peak_pending: 4,
            peak_live_records: 123,
            queue_wait_count: 10,
            queue_wait_p50_ms: 0.255,
            queue_wait_p99_ms: 2.047,
            e2e_count: 10,
            e2e_p50_ms: 8.191,
            e2e_p99_ms: 32.767,
            cache_entries: 3,
            cache_hits: 5,
            dropped_events: 0,
        };
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"type\":\"stats\"") || json.contains("\"type\": \"stats\""));
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn corpus_requests_convert() {
        use optsched_workload::{generate_request_corpus, RequestCorpusConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let corpus = generate_request_corpus(
            &RequestCorpusConfig { count: 4, ..Default::default() },
            &mut StdRng::seed_from_u64(7),
        );
        let reqs: Vec<Request> = corpus.iter().map(Request::from).collect();
        assert_eq!(reqs.len(), 4);
        for (c, r) in corpus.iter().zip(&reqs) {
            assert_eq!(r.instance.graph, c.graph);
            assert_eq!(r.instance.network.num_procs(), c.procs);
            assert_eq!(r.deadline_ms, c.deadline_ms);
        }
    }
}
