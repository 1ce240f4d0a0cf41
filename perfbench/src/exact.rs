//! `exact_grid` and `parallel_exact`: closed-loop exact solves of a fixed
//! suite of the paper's random DAGs, one solve at a time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use optsched::core::{SchedulingProblem, SearchLimits, SearchOutcome, SearchStats};
use optsched::listsched::upper_bound;
use optsched::parallel::{ParallelAStarScheduler, ParallelConfig};
use optsched::procnet::ProcNetwork;
use optsched::registry::{SchedulerRegistry, SchedulerSpec};
use optsched::schedule::Schedule;
use optsched::taskgraph::GraphLevels;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calib::{self, REF_NOMINAL_MS};
use crate::counts::Counts;
use crate::heap;
use crate::inputs::{exact_network, exact_suite, shuffle, ExactInstance};
use crate::report::Report;
use crate::stats::{self, percentile, ratio, FAILED};
use crate::trace::{self, Tracer};

/// The suite of both exact workloads: (node count, instances per CCR).
/// 15 instances keep a round near 3 s, and the odd job counts this gives
/// (45 serial, 15 parallel) put every percentile's rank inside one job's
/// block of repeats rather than on the edge between two jobs, where the
/// value would jump between them from run to run.
pub const SUITE: [(usize, usize); 2] = [(8, 3), (9, 2)];
/// Chen & Yu runs only up to this size (it is ~20x slower than A*).
pub const CHENYU_MAX_NODES: usize = 9;
/// Per-solve expansion budget; a solve that hits it is a failure.
pub const EXPANSION_BUDGET: u64 = 5_000_000;
/// PPE threads of `parallel_exact`.
pub const PPES: usize = 2;
/// Latency limit of a solve for `goodput_rps`, in ms.
pub const SOLVE_LIMIT_MS: f64 = 10_000.0;
/// Set-ups timed at the start of each round: one set-up (about 1 ms) is
/// too short to time steadily on its own.
pub const SETUPS_PER_ROUND: usize = 16;
/// Largest share of the solve span the child spans may leave unattributed.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.02;

/// Which exact workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactKind {
    /// Serial `astar`, `aeps` and `chenyu` through the registry.
    Grid,
    /// `ParallelAStarScheduler` with [`PPES`] PPEs.
    Parallel,
}

/// One solve of the loop: a suite instance and an algorithm.
#[derive(Debug, Clone, Copy)]
struct Job {
    inst: usize,
    alg: &'static str,
}

/// What the parallel scheduler reports beyond the uniform result.
#[derive(Debug, Clone, Copy, Default)]
struct ParallelExtras {
    total_expanded: u64,
    election_transfers: u64,
    peak_in_flight: u64,
    imbalance: f64,
    dup_avoided: u64,
    closed_hits: u64,
    closed_lookups: u64,
}

/// One finished solve.
#[derive(Debug, Clone)]
struct Solved {
    job: Job,
    ms: f64,
    lag_ms: f64,
    /// Time of the host-speed reference run right after this solve.
    ref_ms: f64,
    /// Returned schedule length (0 without a schedule).
    length: u64,
    finished: bool,
    valid: bool,
    stats: SearchStats,
    parallel: Option<ParallelExtras>,
    round: usize,
    traced: bool,
}

struct Exact {
    kind: ExactKind,
    suite: Vec<ExactInstance>,
    jobs: Vec<Job>,
    net: ProcNetwork,
    list_bounds: Vec<u64>,
    epsilon: f64,
}

impl Exact {
    fn new(kind: ExactKind) -> Exact {
        let suite = exact_suite(&SUITE);
        let mut jobs = Vec::new();
        for (inst, i) in suite.iter().enumerate() {
            match kind {
                ExactKind::Grid => {
                    jobs.push(Job { inst, alg: "astar" });
                    jobs.push(Job { inst, alg: "aeps" });
                    if i.nodes <= CHENYU_MAX_NODES {
                        jobs.push(Job {
                            inst,
                            alg: "chenyu",
                        });
                    }
                }
                ExactKind::Parallel => jobs.push(Job {
                    inst,
                    alg: "parallel",
                }),
            }
        }
        let net = exact_network();
        let list_bounds = suite.iter().map(|i| upper_bound(&i.graph, &net)).collect();
        Exact {
            kind,
            suite,
            jobs,
            net,
            list_bounds,
            epsilon: SchedulerSpec::default().epsilon,
        }
    }

    fn registry() -> SchedulerRegistry {
        SchedulerRegistry::with_spec(SchedulerSpec {
            limits: SearchLimits::expansions(EXPANSION_BUDGET),
            ..SchedulerSpec::default()
        })
    }

    fn parallel_config() -> ParallelConfig {
        ParallelConfig {
            limits: SearchLimits::expansions(EXPANSION_BUDGET),
            ..ParallelConfig::exact(PPES)
        }
    }

    /// One solve from raw instance to validated schedule, with spans around
    /// each layer call when the tracer is on.
    fn solve(&self, reg: &SchedulerRegistry, job: Job, id: u64, tracer: &mut Tracer) -> Solved {
        let inst = &self.suite[job.inst];
        let (graph, net) = (inst.graph.clone(), self.net.clone());
        let t0 = Instant::now();
        let root = tracer.open("solve", id, None, 0);
        let problem = tracer.time("core.problem", id, root, 0, || {
            SchedulingProblem::new(graph, net)
        });
        let (schedule, outcome, stats, parallel): (Option<Schedule>, _, _, _) = match self.kind {
            ExactKind::Grid => {
                let scheduler = reg.get(job.alg).expect("registered algorithm");
                let report = tracer.time("core.search", id, root, 0, || scheduler.run(&problem));
                (
                    report.result.schedule,
                    report.result.outcome,
                    report.result.stats,
                    None,
                )
            }
            ExactKind::Parallel => {
                let r = tracer.time("parallel.search", id, root, 0, || {
                    ParallelAStarScheduler::new(&problem, Self::parallel_config()).run()
                });
                let totals = r.total_stats();
                let per: Vec<u64> = r.per_ppe_stats.iter().map(|s| s.expanded).collect();
                let closed = r.closed_stats.as_ref();
                let extras = ParallelExtras {
                    total_expanded: r.total_expanded(),
                    election_transfers: r.election_transfers(),
                    peak_in_flight: r.peak_in_flight,
                    imbalance: ratio(
                        per.iter().copied().max().unwrap_or(0) as f64,
                        stats::mean(&per.iter().map(|&x| x as f64).collect::<Vec<_>>()),
                    ),
                    dup_avoided: r.redundant_expansions_avoided(),
                    closed_hits: closed.map_or(0, |c| c.total_hits()),
                    closed_lookups: closed.map_or(0, |c| c.total_hits() + c.total_misses()),
                };
                (Some(r.schedule), r.outcome, totals, Some(extras))
            }
        };
        let valid = tracer.time("schedule.validate", id, root, 0, || {
            schedule
                .as_ref()
                .is_some_and(|s| s.validate(&inst.graph, &self.net).is_ok())
        });
        tracer.close(root);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let length = schedule.as_ref().map_or(0, |s| s.makespan());
        Solved {
            job,
            ms,
            lag_ms: 0.0,
            ref_ms: 0.0,
            length,
            finished: outcome == SearchOutcome::Optimal,
            valid,
            stats,
            parallel,
            round: 0,
            traced: tracer.enabled(),
        }
    }

    /// The layers `SchedulingProblem::new` calls into, timed on their own
    /// (outside the solve span, so they do not enter its attribution).
    fn probe_layers(&self, job: Job, id: u64, tracer: &mut Tracer) {
        let g = &self.suite[job.inst].graph;
        tracer.time("taskgraph.levels", id, None, 1, || {
            black_box(GraphLevels::compute(g))
        });
        tracer.time("listsched.upper_bound", id, None, 1, || {
            black_box(upper_bound(g, &self.net))
        });
    }
}

/// Runs an exact workload for `seconds` of whole rounds (every round solves
/// each job once, in a seed-shuffled order).
pub fn run(kind: ExactKind, seed: u64, seconds: f64, trace: bool) -> (Report, Tracer) {
    let ex = Exact::new(kind);
    let mut report = Report::default();
    let mut counts = Counts::load();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tracer = Tracer::new(false);

    // The serial A* answer of every instance, the oracle for the parallel
    // search (input preparation: neither set-up nor measured).
    let mut optimum: BTreeMap<usize, u64> = BTreeMap::new();
    let mut serial_expanded: BTreeMap<usize, u64> = BTreeMap::new();
    if kind == ExactKind::Parallel {
        let reg = Exact::registry();
        for (inst, i) in ex.suite.iter().enumerate() {
            let p = SchedulingProblem::new(i.graph.clone(), ex.net.clone());
            let r = reg.get("astar").expect("astar").run(&p).result;
            if r.outcome != SearchOutcome::Optimal {
                report.violation(format!("{}: serial reference hit the budget", i.key));
                continue;
            }
            if let Err(e) = counts.check(&i.key, "astar", &r.stats) {
                report.violation(e);
            }
            optimum.insert(inst, r.schedule_length);
            serial_expanded.insert(inst, r.stats.expanded);
        }
    }

    let mut setups = Vec::new();
    let mut solved: Vec<Solved> = Vec::new();
    let start = Instant::now();
    let mut round = 0usize;
    let mut round_s: Vec<f64> = Vec::new();
    let mut id = 0u64;
    // Traced runs alternate traced (odd) and untraced (even) rounds for the
    // overhead, which leaves out the colder first round; they need three.
    while start.elapsed().as_secs_f64() < seconds || (trace && round < 3) {
        // Each round starts with its own set-up, made SETUPS_PER_ROUND
        // times: the registry plus one untimed warm-up solve (`setup_s` is
        // the median of all of them).
        tracer.set_enabled(false);
        let mut reg = None;
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            let r = Exact::registry();
            black_box(ex.solve(&r, ex.jobs[0], u64::MAX, &mut tracer));
            setups.push(t.elapsed().as_secs_f64());
            reg = Some(r);
        }
        let reg = reg.expect("at least one set-up a round");

        let mut order = ex.jobs.clone();
        shuffle(&mut order, &mut rng);
        tracer.set_enabled(trace && round % 2 == 1);
        let round_start = Instant::now();
        let mut last_end = round_start;
        for job in order {
            let due = last_end;
            let mut s = ex.solve(&reg, job, id, &mut tracer);
            s.lag_ms = (Instant::now().duration_since(due).as_secs_f64() * 1e3 - s.ms).max(0.0);
            s.round = round;
            if tracer.enabled() {
                ex.probe_layers(job, id, &mut tracer);
            }
            s.ref_ms = calib::reference();
            solved.push(s);
            id += 1;
            last_end = Instant::now();
        }
        round_s.push(last_end.duration_since(round_start).as_secs_f64());
        round += 1;
    }
    let loop_s: f64 = round_s.iter().sum();
    tracer.set_enabled(false);

    check(&ex, &mut solved, &mut optimum, &mut counts, &mut report);
    counts.save();

    let n = solved.len();
    let failed = solved.iter().filter(|s| !ok(s)).count();
    report.attempted = n as u64;
    report.failed = failed as u64;
    // Every time is scaled to the nominal host speed by the reference runs
    // around it (see `calib`); the wall-clock figures go to the notes.
    let refs: Vec<f64> = solved.iter().map(|s| s.ref_ms).collect();
    let run_ref = stats::median(&refs);
    let raw: Vec<(f64, f64)> = solved.iter().map(|s| (s.ms, s.ms + s.lag_ms)).collect();
    let norm: Vec<(f64, f64)> = raw
        .iter()
        .zip(calib::local(&refs))
        .map(|(&(ms, lat), l)| (calib::normalise(ms, l), calib::normalise(lat, l)))
        .collect();
    // Solve and latency times with failures as +inf, and the loop's total
    // latency in seconds.
    let figures = |t: &[(f64, f64)]| {
        let times: Vec<f64> = solved
            .iter()
            .zip(t)
            .map(|(s, t)| if ok(s) { t.0 } else { FAILED })
            .collect();
        let latency: Vec<f64> = solved
            .iter()
            .zip(t)
            .map(|(s, t)| if ok(s) { t.1 } else { FAILED })
            .collect();
        let busy_s = t.iter().map(|t| t.1).sum::<f64>() / 1e3;
        (times, latency, busy_s)
    };
    let (times, latency, busy_s) = figures(&norm);
    let rate = |keep: &dyn Fn(&Solved, f64) -> bool| -> f64 {
        let kept = solved.iter().zip(&norm).filter(|(s, t)| keep(s, t.1));
        ratio(kept.count() as f64, busy_s)
    };
    report.meta("rounds", round);
    report.meta("jobs_per_round", ex.jobs.len());
    report.meta("loop_s", format!("{loop_s:.3}"));
    report.meta(
        "suite",
        format!(
            "{} instances, (v, per CCR) {:?}, {} fully connected processors, suite seed {:#x}",
            ex.suite.len(),
            SUITE,
            ex.net.num_procs(),
            crate::inputs::SUITE_SEED
        ),
    );
    report.meta("budget_expansions", EXPANSION_BUDGET);

    let setup = stats::median(&setups);
    report.set_n("setup_s", calib::normalise(setup, run_ref), setups.len());
    report.notes.push(format!(
        "setup seconds: {}",
        setups
            .iter()
            .map(|t| format!("{t:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let p50 = percentile(&times, 50.0);
    report.set_n("solve_ms.p50", p50.value, p50.n);
    let p90 = percentile(&times, 90.0);
    report.set_n("solve_ms.p90", p90.value, p90.n);
    report.set_n("solves_per_s", rate(&|s, _| ok(s)), n);
    let l50 = percentile(&latency, 50.0);
    report.set_n("latency_ms.p50", l50.value, l50.n);
    let l99 = percentile(&latency, 99.0);
    report.set_n("latency_ms.p99", l99.value, l99.n);
    report.set_n(
        "goodput_rps",
        rate(&|s, lat| ok(s) && lat <= SOLVE_LIMIT_MS),
        n,
    );
    report.set_n("capacity_rps", rate(&|s, _| s.length > 0), n);
    report.set_n("bench.ref_ms", run_ref, refs.len());
    let (wall_times, wall_latency, wall_busy_s) = figures(&raw);
    report.notes.push(format!(
        "wall clock, not normalised: setup_s {setup:.6}, solve_ms.p50 {:.4}, solve_ms.p90 {:.4}, \
         latency_ms.p99 {:.4}, solves_per_s {:.4}; reference ms median {run_ref:.4} \
         (nominal {REF_NOMINAL_MS}), quartiles {:.4} {:.4}",
        percentile(&wall_times, 50.0).value,
        percentile(&wall_times, 90.0).value,
        percentile(&wall_latency, 99.0).value,
        ratio((n - failed) as f64, wall_busy_s),
        percentile(&refs, 25.0).value,
        percentile(&refs, 75.0).value,
    ));
    report.notes.push(format!(
        "round seconds: {}",
        round_s
            .iter()
            .map(|r| format!("{r:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let ratios: Vec<f64> = solved
        .iter()
        .filter(|s| ok(s))
        .map(|s| s.length as f64 / ex.list_bounds[s.job.inst] as f64)
        .collect();
    report.set_n("makespan_vs_list", stats::mean(&ratios), ratios.len());

    if trace {
        layer_metrics(&solved, &serial_expanded, &tracer, &mut report);
    }
    report.set("failed_frac", ratio(failed as f64, n as f64));
    report.set("deadline_miss_frac", 0.0);
    let lags: Vec<f64> = solved.iter().map(|s| s.lag_ms).collect();
    let lag = percentile(&lags, 99.0);
    report.set_n("bench.gen_lag_ms.p99", lag.value, lag.n);
    report.set("peak_heap_mb", heap::peak_mb());
    (report, tracer)
}

fn ok(s: &Solved) -> bool {
    s.finished && s.valid && s.length > 0
}

/// The output oracle: every schedule valid, A* and Chen & Yu agree with the
/// instance's optimum, Aε* within (1+ε) of it, the parallel answer equal to
/// serial A*, and every (instance, algorithm) count identical to every
/// earlier observation.
fn check(
    ex: &Exact,
    solved: &mut [Solved],
    optimum: &mut BTreeMap<usize, u64>,
    counts: &mut Counts,
    report: &mut Report,
) {
    for s in solved.iter().filter(|s| s.job.alg == "astar" && s.finished) {
        optimum.entry(s.job.inst).or_insert(s.length);
    }
    for s in solved.iter_mut() {
        let key = &ex.suite[s.job.inst].key;
        let alg = s.job.alg;
        if !s.finished {
            // A budget hit is a failure, not a wrong answer, unless it
            // returned an incumbent that is not a valid schedule.
            if s.length > 0 && !s.valid {
                report.violation(format!("{key} {alg}: invalid incumbent at the budget"));
            }
            continue;
        }
        if !s.valid {
            report.violation(format!("{key} {alg}: invalid or missing schedule"));
            continue;
        }
        let Some(&opt) = optimum.get(&s.job.inst) else {
            continue;
        };
        let right = match alg {
            "aeps" => s.length as f64 <= (1.0 + ex.epsilon) * opt as f64 + 1e-9 && s.length >= opt,
            _ => s.length == opt,
        };
        if !right {
            report.violation(format!(
                "{key} {alg}: length {} against optimum {opt}",
                s.length
            ));
            s.valid = false;
        }
        if s.parallel.is_none() {
            if let Err(e) = counts.check(key, alg, &s.stats) {
                report.violation(e);
                s.valid = false;
            }
        }
    }
}

/// Per-layer metrics of a traced run.
fn layer_metrics(
    solved: &[Solved],
    serial_expanded: &BTreeMap<usize, u64>,
    tracer: &Tracer,
    report: &mut Report,
) {
    let by_name = tracer.by_name();
    for (metric, span, scale) in [
        ("core.problem_us", "core.problem", 1e3),
        ("core.search_ms", "core.search", 1e6),
        ("parallel.search_ms", "parallel.search", 1e6),
        ("schedule.validate_us", "schedule.validate", 1e3),
        ("taskgraph.levels_us", "taskgraph.levels", 1e3),
        ("listsched.upper_bound_us", "listsched.upper_bound", 1e3),
    ] {
        let (v, n) = trace::mean_self(&by_name, span, scale);
        report.set_n(metric, v, n);
    }
    let attribution = trace::attribution(tracer.spans(), "solve");
    report.set("bench.attribution", attribution);
    if attribution < 1.0 - ATTRIBUTION_TOLERANCE {
        report.violation(format!(
            "problem + search + validate spans cover {attribution:.4} of the solve spans"
        ));
    }

    // Overhead: mean solve time of a traced round over an untraced one
    // (every round solves the same jobs).
    let round_mean = |traced: bool| {
        let rounds: BTreeMap<usize, f64> = solved
            .iter()
            .filter(|s| s.traced == traced && s.round > 0)
            .fold(BTreeMap::new(), |mut m, s| {
                *m.entry(s.round).or_insert(0.0) += s.ms;
                m
            });
        stats::mean(&rounds.values().copied().collect::<Vec<_>>())
    };
    report.set(
        "bench.trace_overhead",
        ratio(round_mean(true), round_mean(false)),
    );

    // Serial counts: one observation per (instance, algorithm) — they repeat
    // exactly, so this is the suite's per-round total.
    let mut first: BTreeMap<(usize, &str), &SearchStats> = BTreeMap::new();
    for s in solved.iter().filter(|s| s.parallel.is_none()) {
        first.entry((s.job.inst, s.job.alg)).or_insert(&s.stats);
    }
    if !first.is_empty() {
        let sum =
            |f: &dyn Fn(&SearchStats) -> u64| first.values().map(|s| f(s)).sum::<u64>() as f64;
        let expanded = sum(&|s| s.expanded);
        let generated = sum(&|s| s.generated);
        let pruned = sum(&|s| s.total_pruned());
        report.set("core.expanded", expanded);
        report.set("core.generated", generated);
        report.set("core.pruned_share", ratio(pruned, generated + pruned));
        report.set(
            "core.max_open_size",
            first.values().map(|s| s.max_open_size).max().unwrap_or(0) as f64,
        );
        report.set(
            "core.arena.replayed_per_expansion",
            ratio(sum(&|s| s.replayed_deltas), expanded),
        );
        report.set(
            "core.arena.path_cache_hit_rate",
            ratio(sum(&|s| s.path_cache_hits), sum(&|s| s.materialisations)),
        );
        report.set(
            "core.arena.peak_live_records",
            first
                .values()
                .map(|s| s.peak_live_records)
                .max()
                .unwrap_or(0) as f64,
        );
        report.set(
            "core.arena.reclaimed_records",
            sum(&|s| s.reclaimed_records),
        );
        let traced: Vec<&Solved> = solved.iter().filter(|s| s.traced).collect();
        let traced_expanded: u64 = traced.iter().map(|s| s.stats.expanded).sum();
        let search_s = by_name
            .get("core.search")
            .map_or(0, |v| v.iter().sum::<u64>()) as f64
            / 1e9;
        report.set(
            "core.expansions_per_s",
            ratio(traced_expanded as f64, search_s),
        );
    }

    // Parallel counts vary run to run: report per-round totals by their
    // median, with the spread beside them.
    let par: Vec<(&Solved, ParallelExtras)> = solved
        .iter()
        .filter_map(|s| s.parallel.map(|p| (s, p)))
        .collect();
    if !par.is_empty() {
        let mut per_round: BTreeMap<usize, (f64, f64, f64)> = BTreeMap::new();
        for (s, p) in &par {
            let e = per_round.entry(s.round).or_default();
            e.0 += p.total_expanded as f64;
            e.1 += p.election_transfers as f64;
            e.2 += p.dup_avoided as f64;
        }
        let col = |f: fn(&(f64, f64, f64)) -> f64| per_round.values().map(f).collect::<Vec<f64>>();
        let expanded = col(|e| e.0);
        let q1 = percentile(&expanded, 25.0).value;
        let q3 = percentile(&expanded, 75.0).value;
        report.set_n(
            "parallel.total_expanded",
            stats::median(&expanded),
            expanded.len(),
        );
        report.set_n("parallel.total_expanded.iqr", q3 - q1, expanded.len());
        report.notes.push(format!(
            "parallel total_expanded per round: median {} q1 {q1} q3 {q3} min {} max {} over {} rounds",
            stats::median(&expanded),
            expanded.iter().copied().fold(f64::INFINITY, f64::min),
            expanded.iter().copied().fold(0.0, f64::max),
            expanded.len()
        ));
        report.set("parallel.election_transfers", stats::median(&col(|e| e.1)));
        report.set("parallel.closed.dup_avoided", stats::median(&col(|e| e.2)));
        let serial: u64 = par
            .iter()
            .map(|(s, _)| serial_expanded.get(&s.job.inst).copied().unwrap_or(0))
            .sum();
        let parallel: u64 = par.iter().map(|(_, p)| p.total_expanded).sum();
        report.set(
            "parallel.redundant_ratio",
            ratio(parallel as f64, serial as f64),
        );
        report.set(
            "parallel.peak_in_flight",
            par.iter().map(|(_, p)| p.peak_in_flight).max().unwrap_or(0) as f64,
        );
        let imbalance: Vec<f64> = par.iter().map(|(_, p)| p.imbalance).collect();
        report.set_n(
            "parallel.load_imbalance",
            stats::median(&imbalance),
            imbalance.len(),
        );
        let replayed: u64 = par.iter().map(|(s, _)| s.stats.replayed_deltas).sum();
        report.set(
            "parallel.arena.replayed_per_expansion",
            ratio(replayed as f64, parallel as f64),
        );
        let hits: u64 = par.iter().map(|(_, p)| p.closed_hits).sum();
        let lookups: u64 = par.iter().map(|(_, p)| p.closed_lookups).sum();
        report.set(
            "parallel.closed.hit_rate",
            ratio(hits as f64, lookups as f64),
        );
    }
}
