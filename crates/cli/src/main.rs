//! `optsched` — command-line front end for the DAG schedulers.
//!
//! ```text
//! optsched schedule --input graph.json [--procs 4] [--topology ring|mesh|full|chain|star|hypercube]
//!                   [--algorithm astar|wastar|aeps|chenyu|exhaustive|list|parallel] [--epsilon 0.2]
//!                   [--weight 1.5] [--seed-incumbent] [--ppes 4] [--dup-detection local|sharded]
//!                   [--shards N] [--budget-ms N] [--max-expansions N]
//!                   [--trace-out trace.json] [--gantt] [--json]
//! optsched generate --nodes 20 --ccr 1.0 [--seed 7] [--output graph.json]
//! optsched example
//! optsched levels --input graph.json
//! optsched serve [--workers 2] [--listen 127.0.0.1:7878] [--admission-budget N]
//!                [--degrade-threshold N] [--degrade-deadline-ms N] [--cache-capacity N]
//!                [--cache-max-age-ms N] [--summary-interval-ms N] [--trace-out trace.json]
//!                [--no-seed-incumbent]
//! optsched batch --requests reqs.jsonl|- [--workers 2] [--min-cache-hits N] [--summary]
//!                [--admission-budget N] [--degrade-threshold N] [--degrade-deadline-ms N]
//!                [--cache-capacity N] [--cache-max-age-ms N] [--trace-out trace.json]
//!                [--no-seed-incumbent]
//! optsched requests --count 20 [--seed 7] [--output reqs.jsonl]
//! ```
//!
//! The `--algorithm` value is resolved through the facade's
//! [`SchedulerRegistry`]; the CLI has no per-algorithm code paths.  Every
//! run prints the state arena's `peak_live_records`, `reclaimed_records`
//! and path-cache hit-rate counters (`--algorithm parallel` adds the
//! `peak_live_states` headline and its CLOSED-table counters).  A graph
//! whose worst-case makespan does not fit under the schedulers' cost
//! ceiling is rejected with a message instead of being scheduled.
//!
//! Each subcommand accepts exactly the flags listed above for it: an unknown
//! flag, a flag missing its value, a stray argument or a value that does not
//! parse (`--ppes two`, `--topology torus`) exits 1 with a message naming
//! the flag, instead of being ignored or replaced by the default.
//!
//! Graph files are the `serde_json` serialisation of
//! [`optsched_taskgraph::TaskGraph`] (produced by `optsched generate`).
//! `--input -` reads the graph from stdin, so generation and scheduling
//! compose: `optsched generate --nodes 10 | optsched schedule --input -`.
//!
//! The service subcommands speak the JSON-lines protocol of
//! `optsched-service`: `serve` answers requests from stdin (or a TCP
//! listener with `--listen`) over **one** global worker pool shared by all
//! connections, `batch` drains a request file through that pool and reports
//! a summary, and `requests` generates a mixed request corpus — so the whole
//! pipeline composes as `optsched requests --count 20 | optsched batch
//! --requests -`.  `--admission-budget` / `--degrade-threshold` /
//! `--degrade-deadline-ms` tune the service's backpressure (shed with a
//! structured `overloaded` response past the budget, degrade to
//! deadline-clamped `wastar` past the threshold), `--cache-capacity` /
//! `--cache-max-age-ms` size the LRU result cache and its TTL, and
//! `serve --summary-interval-ms N` prints a metrics snapshot (pending,
//! shed, degraded, service-side latency percentiles, cache hit rate,
//! evictions, expirations) to stderr every N milliseconds.
//!
//! `--trace-out PATH` (on `schedule`, `serve` and `batch`) turns on the
//! `optsched-obs` event/span layer for the run and writes a Chrome
//! trace-event JSON file at exit — load it in `chrome://tracing` or
//! Perfetto.  Without the flag the collection layer stays disabled and
//! costs one relaxed atomic load per would-be event.  A running service
//! also answers the admin line `{"type": "stats"}` on any connection with
//! a JSON stats report (counters plus queue-wait/end-to-end p50/p99).

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use optsched::registry::{path_cache_hit_rate, SchedulerRegistry, SchedulerSpec};
use optsched_core::{
    check_cost_ceiling, AStarScheduler, SchedulingProblem, SearchLimits, SearchOutcome,
};
use optsched_procnet::{ProcNetwork, Topology, MAX_PROCS};
use optsched_schedule::{render_gantt, Schedule};
use optsched_service::{run_service, serve_tcp, Request, SchedulingService, ServiceConfig};
use optsched_taskgraph::{paper_example_dag, GraphLevels, TaskGraph};
use optsched_workload::{
    generate_random_dag, generate_request_corpus, RandomDagConfig, RequestCorpusConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The flags one subcommand accepts: `values` take an argument
/// (`--key value`), `switches` stand alone (`--key`).
struct FlagSpec {
    values: &'static [&'static str],
    switches: &'static [&'static str],
}

impl FlagSpec {
    /// The accepted flags of `cmd`, or `None` for an unknown subcommand.
    fn of(cmd: &str) -> Option<FlagSpec> {
        let (values, switches): (&[&str], &[&str]) = match cmd {
            "schedule" => (
                &[
                    "input", "procs", "topology", "algorithm", "epsilon", "weight", "ppes",
                    "dup-detection", "shards", "budget-ms", "max-expansions", "trace-out",
                ],
                &["seed-incumbent", "gantt", "json"],
            ),
            "generate" => (&["nodes", "ccr", "seed", "output"], &[]),
            "levels" => (&["input"], &[]),
            "example" => (&[], &[]),
            "serve" => (
                &[
                    "workers", "listen", "admission-budget", "degrade-threshold",
                    "degrade-deadline-ms", "cache-capacity", "cache-max-age-ms",
                    "summary-interval-ms", "trace-out",
                ],
                &["no-seed-incumbent"],
            ),
            "batch" => (
                &[
                    "requests", "workers", "min-cache-hits", "admission-budget",
                    "degrade-threshold", "degrade-deadline-ms", "cache-capacity",
                    "cache-max-age-ms", "trace-out",
                ],
                &["summary", "no-seed-incumbent"],
            ),
            "requests" => (&["count", "seed", "output"], &[]),
            _ => return None,
        };
        Some(FlagSpec { values, switches })
    }

    fn accepted(&self) -> String {
        let values = self.values.iter().map(|k| format!("--{k} <value>"));
        let switches = self.switches.iter().map(|k| format!("--{k}"));
        let all: Vec<String> = values.chain(switches).collect();
        if all.is_empty() {
            "none".to_string()
        } else {
            all.join(", ")
        }
    }
}

/// The parsed flags of one subcommand: `--key value` pairs and switches.
#[derive(Debug)]
struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the arguments after subcommand `cmd` against its `spec`.  An
    /// unknown flag, a value flag without a value and a stray argument are
    /// errors naming the offender.
    fn parse(cmd: &str, spec: &FlagSpec, argv: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        let mut argv = argv.iter();
        while let Some(a) = argv.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("optsched {cmd}: unexpected argument `{a}`"));
            };
            if spec.values.contains(&key) {
                match argv.next() {
                    Some(v) if !v.starts_with("--") => pairs.push((key.to_string(), v.clone())),
                    _ => return Err(format!("optsched {cmd}: flag `--{key}` needs a value")),
                }
            } else if spec.switches.contains(&key) {
                flags.push(key.to_string());
            } else {
                return Err(format!(
                    "optsched {cmd}: unknown flag `--{key}` (accepted: {})",
                    spec.accepted()
                ));
            }
        }
        Ok(Args { pairs, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// The value of `--key` parsed as `T`, or `None` when the flag is absent;
    /// a value that does not parse is an error naming the flag.
    fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| {
                v.parse().map_err(|_| {
                    format!("invalid value `{v}` for `--{key}` (expected {})", std::any::type_name::<T>())
                })
            })
            .transpose()
    }

    /// The value of `--key` parsed as `T`, or `default` when the flag is
    /// absent; a value that does not parse is an error naming the flag.
    fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  optsched schedule --input graph.json|- [--procs P] [--topology T] [--algorithm A] \\\n                    [--epsilon E] [--weight W] [--seed-incumbent] [--ppes Q] \\\n                    [--dup-detection local|sharded] [--shards N] \\\n                    [--budget-ms N] [--max-expansions N] \\\n                    [--trace-out trace.json] [--gantt] [--json]\n  optsched generate --nodes N --ccr C [--seed S] [--output file.json]\n  optsched levels --input graph.json|-\n  optsched example\n  optsched serve [--workers N] [--listen ADDR:PORT] [--admission-budget N] \\\n                 [--degrade-threshold N] [--degrade-deadline-ms N] [--cache-capacity N] \\\n                 [--cache-max-age-ms N] [--summary-interval-ms N] [--trace-out trace.json] \\\n                 [--no-seed-incumbent]\n  optsched batch --requests file.jsonl|- [--workers N] [--min-cache-hits N] [--summary] \\\n                 [--admission-budget N] [--degrade-threshold N] [--degrade-deadline-ms N] \\\n                 [--cache-capacity N] [--cache-max-age-ms N] [--trace-out trace.json] \\\n                 [--no-seed-incumbent]\n  optsched requests --count N [--seed S] [--output file.jsonl]\n(`--input -` reads the graph JSON from stdin; algorithms: astar|wastar|aeps|chenyu|exhaustive|list|parallel;\n serve/batch requests may also say \"auto\" to let the deadline-aware portfolio pick;\n a running serve/batch also answers the admin line {{\"type\": \"stats\"}};\n --trace-out writes a Chrome trace-event JSON of the run's spans at exit)"
    );
    ExitCode::FAILURE
}

fn load_graph(args: &Args) -> Result<TaskGraph, String> {
    match args.get("input") {
        Some("-") => {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("cannot parse stdin: {e}"))
        }
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            serde_json::from_str(&text).map_err(|e| format!("cannot parse {path}: {e}"))
        }
        None => Err("missing --input <graph.json|-> (or use `optsched example`)".to_string()),
    }
}

fn build_network(args: &Args, default_procs: usize) -> Result<ProcNetwork, String> {
    let p = args.get_parse("procs", default_procs)?;
    let (topology, count) = match args.get("topology").unwrap_or("full") {
        "full" => (Topology::FullyConnected, p),
        "ring" => (Topology::Ring, p),
        "chain" => (Topology::Chain, p),
        "star" => (Topology::Star, p),
        "hypercube" => (Topology::Hypercube, p.checked_next_power_of_two().unwrap_or(p)),
        "mesh" => {
            // Bounded by the limit so a count past it is refused at once.
            let rows = (p.min(MAX_PROCS) as f64).sqrt().floor().max(1.0) as usize;
            let rows = (1..=rows).rev().find(|r| p % r == 0).unwrap_or(1);
            (Topology::Mesh { rows, cols: p / rows }, p)
        }
        other => {
            return Err(format!(
                "invalid value `{other}` for `--topology` (expected full|ring|chain|star|hypercube|mesh)"
            ))
        }
    };
    ProcNetwork::try_with_topology(topology, count)
        .map_err(|e| format!("invalid value `{p}` for `--procs`: {e}"))
}

fn report(schedule: &Schedule, graph: &TaskGraph, net: &ProcNetwork, args: &Args, label: &str) {
    if let Err(e) = schedule.validate(graph, net) {
        eprintln!("internal error: produced an invalid schedule: {e}");
    }
    if args.has("json") {
        println!("{}", serde_json::to_string_pretty(schedule).expect("schedules serialise"));
        return;
    }
    println!("algorithm      : {label}");
    println!("schedule length: {}", schedule.makespan());
    println!("processors used: {}", schedule.procs_used());
    if args.has("gantt") {
        println!("{}", render_gantt(schedule, graph));
    }
}

/// Builds the scheduler configuration from the command line.  Every family
/// reads the knobs that apply to it; unknown values fail with a message.
fn build_spec(args: &Args) -> Result<SchedulerSpec, String> {
    let mut spec = SchedulerSpec {
        limits: SearchLimits {
            max_millis: args.get_opt("budget-ms")?,
            max_expansions: args.get_opt("max-expansions")?,
            ..Default::default()
        },
        epsilon: args.get_parse("epsilon", 0.2)?,
        weight: args.get_parse("weight", 1.5)?,
        seed_incumbent: args.has("seed-incumbent"),
        ..Default::default()
    };
    spec.parallel.num_ppes = args.get_parse("ppes", spec.parallel.num_ppes)?;
    spec.parallel.epsilon = args.get_opt("epsilon")?;
    if let Some(v) = args.get("dup-detection") {
        spec.parallel.duplicate_detection = v.parse()?;
    }
    spec.parallel.num_shards = args.get_parse("shards", spec.parallel.num_shards)?;
    Ok(spec)
}

fn cmd_schedule(args: &Args) -> Result<ExitCode, String> {
    // Every flag is checked before any work starts.
    let net = build_network(args, 4)?;
    let spec = build_spec(args)?;
    let graph = load_graph(args)?;
    // `--trace-out PATH` turns the event/span layer on for this run and
    // writes a Chrome trace-event file (load it in `chrome://tracing` or
    // Perfetto) after the report.
    let trace_out = args.get("trace-out").map(String::from);
    if trace_out.is_some() {
        optsched_obs::set_enabled(true);
    }
    check_cost_ceiling(&graph, &net).map_err(|e| e.to_string())?;
    let problem = SchedulingProblem::new(graph.clone(), net.clone());
    let registry = SchedulerRegistry::with_spec(spec);
    let algorithm = args.get("algorithm").unwrap_or("astar");
    let Some(scheduler) = registry.get(algorithm) else {
        return Err(format!(
            "unknown algorithm `{algorithm}` (expected {})",
            registry.names().join("|")
        ));
    };

    let run = scheduler.run(&problem);
    let Some(schedule) = run.result.schedule.as_ref() else {
        return Err(format!("internal error: `{algorithm}` produced no schedule"));
    };
    report(schedule, &graph, &net, args, &scheduler.description());
    if run.result.outcome == SearchOutcome::LimitReached {
        eprintln!("note: the search hit its budget; the schedule is the best incumbent, not proven optimal");
    }
    if !args.has("json") {
        for (label, value) in &run.extras {
            println!("{label:<15}: {value}");
        }
        // The parallel entry reports the arena-lifecycle counters among its
        // extras; print them from the uniform stats for every other family.
        if !run.extras.iter().any(|(k, _)| k == "peak_live_records") {
            let s = &run.result.stats;
            println!("{:<15}: {}", "peak_live_records", s.peak_live_records);
            println!("{:<15}: {}", "reclaimed_records", s.reclaimed_records);
            println!("{:<15}: {}", "path-cache hit rate", path_cache_hit_rate(s));
            println!("{:<15}: {}", "path-cache ancestor hits", s.path_cache_ancestor_hits);
            println!("{:<15}: {}", "replayed deltas saved", s.replayed_deltas_saved);
        }
    }
    if let Some(path) = trace_out {
        optsched_obs::set_enabled(false);
        let n = optsched_obs::save_chrome_trace(&path)
            .map_err(|e| format!("trace: failed to write {path}: {e}"))?;
        eprintln!("trace: wrote {n} events to {path}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_generate(args: &Args) -> Result<ExitCode, String> {
    let nodes = args.get_parse("nodes", 20usize)?;
    let ccr = args.get_parse("ccr", 1.0f64)?;
    let seed = args.get_parse("seed", 7u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = generate_random_dag(&RandomDagConfig { nodes, ccr, ..Default::default() }, &mut rng);
    let json = serde_json::to_string_pretty(&graph).expect("graphs serialise");
    match args.get("output") {
        Some(path) => {
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {nodes}-node graph (CCR {ccr}, seed {seed}) to {path}");
        }
        None => println!("{json}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_levels(graph: &TaskGraph) -> ExitCode {
    let levels = GraphLevels::compute(graph);
    println!("{:<8} {:>8} {:>10} {:>10} {:>10}", "node", "weight", "sl", "b-level", "t-level");
    for n in graph.node_ids() {
        println!(
            "{:<8} {:>8} {:>10} {:>10} {:>10}",
            n.to_string(),
            graph.weight(n),
            levels.static_level(n),
            levels.b_level(n),
            levels.t_level(n)
        );
    }
    println!("critical path length = {}", levels.critical_path_length());
    ExitCode::SUCCESS
}

/// Builds the service configuration shared by `serve` and `batch` from the
/// command line.
fn service_config_from_args(args: &Args) -> Result<ServiceConfig, String> {
    let d = ServiceConfig::default();
    let admission_budget = args.get_parse("admission-budget", d.admission_budget)?;
    Ok(ServiceConfig {
        workers: args.get_parse("workers", d.workers)?,
        cache_capacity: args.get_parse("cache-capacity", d.cache_capacity)?,
        cache_max_age_ms: args.get_opt("cache-max-age-ms")?,
        admission_budget,
        // The threshold must stay within the budget to mean anything.
        degrade_threshold: args
            .get_parse("degrade-threshold", d.degrade_threshold)?
            .min(admission_budget),
        degrade_deadline_ms: args.get_parse("degrade-deadline-ms", d.degrade_deadline_ms)?,
        seed_incumbent: !args.has("no-seed-incumbent"),
        trace_path: args.get("trace-out").map(String::from),
        ..d
    })
}

/// One metrics line for the periodic and final `serve` summaries.
fn metrics_line(service: &SchedulingService) -> String {
    let m = service.metrics_snapshot();
    let c = service.cache_stats();
    format!(
        "submitted {} responses {} pending {} (peak {}) shed {} degraded {} peak_live_records {} | auto: {} exact, {} anytime, {} raced, {} warm starts | latency: e2e p50 {:.1} ms p99 {:.1} ms, queue p50 {:.1} ms p99 {:.1} ms | cache: {} entries, {:.0}% hit rate, {} evictions, {} expired, {} filter skips",
        m.submitted,
        m.responses,
        m.pending,
        m.peak_pending,
        m.shed,
        m.degraded,
        m.peak_live_records,
        m.auto_exact,
        m.auto_anytime,
        m.auto_raced,
        m.auto_warm_starts,
        m.e2e_p50_us as f64 / 1e3,
        m.e2e_p99_us as f64 / 1e3,
        m.queue_wait_p50_us as f64 / 1e3,
        m.queue_wait_p99_us as f64 / 1e3,
        c.entries,
        c.hit_rate() * 100.0,
        c.evictions,
        c.expired,
        c.filter_skips
    )
}

/// Prints a metrics snapshot to stderr every `interval_ms` until the
/// returned guard is dropped (no-op at 0).
fn spawn_summary_monitor(interval_ms: u64, service: &SchedulingService) -> Option<SummaryMonitor> {
    if interval_ms == 0 {
        return None;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let service = service.clone();
    let flag = Arc::clone(&stop);
    let handle = std::thread::spawn(move || {
        let interval = std::time::Duration::from_millis(interval_ms.max(1));
        while !flag.load(Ordering::Relaxed) {
            std::thread::park_timeout(interval);
            if flag.load(Ordering::Relaxed) {
                break;
            }
            eprintln!("serve: {}", metrics_line(&service));
        }
    });
    Some(SummaryMonitor { stop, handle: Some(handle) })
}

/// Guard of the periodic summary thread; stops it on drop.
struct SummaryMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for SummaryMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            handle.join().expect("summary monitor panicked");
        }
    }
}

/// `optsched serve`: the JSON-lines scheduling service over stdin/stdout,
/// or over TCP with `--listen ADDR:PORT` — either way one global worker
/// pool answers every connection.
fn cmd_serve(args: &Args) -> Result<ExitCode, String> {
    let config = service_config_from_args(args)?;
    let interval_ms = args.get_parse("summary-interval-ms", 0u64)?;
    let (workers, admission_budget) = (config.workers, config.admission_budget);
    let service = SchedulingService::new(config);
    let _monitor = spawn_summary_monitor(interval_ms, &service);
    match args.get("listen") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| format!("cannot listen on {addr}: {e}"))?;
            eprintln!(
                "optsched-service listening on {addr} ({workers} shared workers, admission budget {admission_budget})"
            );
            serve_tcp(&service, &listener, None).map_err(|e| format!("serve error: {e}"))?;
        }
        None => {
            // `BufReader<Stdin>` rather than `StdinLock`: the runtime's
            // reader thread needs a `Send` reader.
            let stdin = std::io::BufReader::new(std::io::stdin());
            let mut stdout = std::io::stdout();
            let summary = run_service(&service, stdin, &mut stdout)
                .map_err(|e| format!("serve error: {e}"))?;
            eprintln!(
                "served {} responses ({} errors, {} cache hits, {} shed, {} degraded)",
                summary.responses,
                summary.errors,
                summary.cache_hits,
                summary.shed,
                summary.degraded
            );
            eprintln!("serve: {}", metrics_line(&service));
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `optsched batch`: drain a request file through the worker pool, print the
/// responses to stdout, and fail loudly if any response errored or the
/// cache saw fewer hits than `--min-cache-hits` (the CI smoke contract).
fn cmd_batch(args: &Args) -> Result<ExitCode, String> {
    let config = service_config_from_args(args)?;
    let min_hits = args.get_parse("min-cache-hits", 0u64)?;
    let Some(path) = args.get("requests") else {
        return Err("missing --requests <file.jsonl|->".to_string());
    };
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    };

    let service = SchedulingService::new(config);
    let mut stdout = std::io::stdout();
    let summary = run_service(&service, text.as_bytes(), &mut stdout)
        .map_err(|e| format!("batch error: {e}"))?;

    let stats = service.cache_stats();
    if args.has("summary") {
        eprintln!(
            "batch: {} responses, {} errors, {} cache hits, {} shed, {} degraded ({} entries, {:.0}% hit rate, {} evictions, {} expired)",
            summary.responses,
            summary.errors,
            summary.cache_hits,
            summary.shed,
            summary.degraded,
            stats.entries,
            stats.hit_rate() * 100.0,
            stats.evictions,
            stats.expired
        );
    }
    if summary.errors > 0 {
        return Err(format!("batch: {} response(s) reported errors", summary.errors));
    }
    if summary.cache_hits < min_hits {
        return Err(format!(
            "batch: expected >= {min_hits} cache hit(s), observed {}",
            summary.cache_hits
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// `optsched requests`: generate a mixed request corpus (sizes, CCRs,
/// algorithms, deadlines, repeated instances) as JSON lines.
fn cmd_requests(args: &Args) -> Result<ExitCode, String> {
    let cfg = RequestCorpusConfig {
        count: args.get_parse("count", RequestCorpusConfig::default().count)?,
        ..Default::default()
    };
    let seed = args.get_parse("seed", 7u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = generate_request_corpus(&cfg, &mut rng);
    let mut lines = String::new();
    for (i, c) in corpus.iter().enumerate() {
        let mut req = Request::from(c);
        req.id = Some(i as u64);
        lines.push_str(&serde_json::to_string(&req).expect("requests serialise"));
        lines.push('\n');
    }
    match args.get("output") {
        Some(path) => {
            std::fs::write(path, lines).map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("wrote {} requests (seed {seed}) to {path}", corpus.len());
        }
        None => print!("{lines}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_example() -> ExitCode {
    let graph = paper_example_dag();
    let net = ProcNetwork::ring(3);
    let problem = SchedulingProblem::new(graph.clone(), net.clone());
    let r = AStarScheduler::new(&problem).run();
    println!("paper example (Figure 1): optimal schedule length = {}", r.schedule_length);
    println!("{}", render_gantt(r.expect_schedule(), &graph));
    ExitCode::SUCCESS
}

fn run_command(cmd: &str, args: &Args) -> Result<ExitCode, String> {
    match cmd {
        "schedule" => cmd_schedule(args),
        "generate" => cmd_generate(args),
        "serve" => cmd_serve(args),
        "batch" => cmd_batch(args),
        "requests" => cmd_requests(args),
        "levels" => Ok(cmd_levels(&load_graph(args)?)),
        "example" => Ok(cmd_example()),
        _ => Ok(usage()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { return usage() };
    let Some(spec) = FlagSpec::of(cmd) else { return usage() };
    match Args::parse(cmd, &spec, &argv[1..]).and_then(|args| run_command(cmd, &args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
        Args::parse(cmd, &FlagSpec::of(cmd).expect("known subcommand"), &argv)
    }

    #[test]
    fn args_parser_handles_pairs_and_flags() {
        let a = parse("schedule", &["--procs", "12", "--gantt", "--epsilon", "0.5"]).unwrap();
        assert_eq!(a.get("procs"), Some("12"));
        assert_eq!(a.get_parse("epsilon", 1.0), Ok(0.5));
        assert_eq!(a.get_parse("ppes", 3usize), Ok(3));
        assert_eq!(a.get_opt::<u64>("budget-ms"), Ok(None));
        assert!(a.has("gantt"));
        assert!(!a.has("json"));
    }

    #[test]
    fn args_parser_rejects_what_the_subcommand_does_not_accept() {
        // Flags another subcommand takes, or none does, are named.
        let e = parse("schedule", &["--store", "eager"]).unwrap_err();
        assert!(e.contains("unknown flag `--store`"), "{e}");
        let e = parse("generate", &["--nodes", "8", "--gantt"]).unwrap_err();
        assert!(e.contains("unknown flag `--gantt`") && e.contains("--nodes <value>"), "{e}");
        let e = parse("example", &["--procs", "3"]).unwrap_err();
        assert!(e.contains("(accepted: none)"), "{e}");
        // A value flag needs its value; a stray word is not silently dropped.
        let e = parse("schedule", &["--ppes", "--json"]).unwrap_err();
        assert!(e.contains("`--ppes` needs a value"), "{e}");
        let e = parse("levels", &["graph.json"]).unwrap_err();
        assert!(e.contains("unexpected argument `graph.json`"), "{e}");
        // A switch takes no value, so a word after it is stray.
        assert!(parse("schedule", &["--json", "yes"]).is_err());
        assert!(FlagSpec::of("frobnicate").is_none());
    }

    #[test]
    fn unparseable_values_are_errors_not_defaults() {
        let a = parse("schedule", &["--ppes", "two", "--budget-ms", "-1"]).unwrap();
        let e = a.get_parse("ppes", 4usize).unwrap_err();
        assert!(e.contains("`two`") && e.contains("`--ppes`"), "{e}");
        assert!(a.get_opt::<u64>("budget-ms").unwrap_err().contains("`--budget-ms`"));
        let a = parse("schedule", &["--ppes", "two"]).unwrap();
        assert!(build_spec(&a).unwrap_err().contains("`--ppes`"));
        let a = parse("schedule", &["--topology", "torus"]).unwrap();
        assert!(build_network(&a, 4).unwrap_err().contains("`--topology`"));
        let a = parse("serve", &["--workers", "many"]).unwrap();
        assert!(service_config_from_args(&a).unwrap_err().contains("`--workers`"));
    }

    #[test]
    fn build_network_topologies() {
        let net = build_network(&parse("schedule", &["--procs", "6", "--topology", "mesh"]).unwrap(), 4).unwrap();
        assert_eq!(net.num_procs(), 6);
        let ring = parse("schedule", &["--procs", "5", "--topology", "ring"]).unwrap();
        assert_eq!(build_network(&ring, 4).unwrap().degree(optsched_procnet::ProcId(0)), 2);
        let hyper = parse("schedule", &["--procs", "5", "--topology", "hypercube"]).unwrap();
        assert_eq!(build_network(&hyper, 4).unwrap().num_procs(), 8);
        let full = parse("schedule", &["--topology", "full"]).unwrap();
        assert_eq!(build_network(&full, 4).unwrap().num_procs(), 4);
    }

    #[test]
    fn example_problem_solves_to_14() {
        let graph = paper_example_dag();
        let problem = SchedulingProblem::new(graph, ProcNetwork::ring(3));
        assert_eq!(AStarScheduler::new(&problem).run().schedule_length, 14);
    }
}
