//! Workload inputs.  Everything here is a pure function of its arguments,
//! so a seed always yields the same inputs.

use optsched::listsched::upper_bound;
use optsched::procnet::ProcNetwork;
use optsched::taskgraph::TaskGraph;
use optsched::workload::{generate_random_dag, RandomDagConfig, PAPER_CCRS};
use optsched_service::{Instance, InstanceFeatures, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Processors of every exact-search instance (fully connected, as in the
/// paper's experiments).
pub const EXACT_PROCS: usize = 4;

/// Seed of the exact-search instance suite.  The suite does not depend on
/// the run's seed: exact solve times are heavy-tailed across generator
/// draws (a v = 9 instance can take 1 ms or 3 s), so only a fixed suite
/// lets two runs compare like with like.  The run's seed orders the solves.
pub const SUITE_SEED: u64 = 0x5EED_0000;

/// One instance of the exact-search suite.
#[derive(Debug, Clone)]
pub struct ExactInstance {
    /// Stable name, e.g. `v9-ccr1-i0`.
    pub key: String,
    /// Node count.
    pub nodes: usize,
    /// Communication-to-computation ratio it was generated with.
    pub ccr: f64,
    /// The task graph.
    pub graph: TaskGraph,
}

/// For each `(size, count)`, the first `count` paper random DAGs of every
/// (size, CCR) class, each class drawn from its own stream of
/// [`SUITE_SEED`].
pub fn exact_suite(classes: &[(usize, usize)]) -> Vec<ExactInstance> {
    let mut out = Vec::new();
    for &(nodes, per_class) in classes {
        for (ci, &ccr) in PAPER_CCRS.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(SUITE_SEED + nodes as u64 * 16 + ci as u64);
            for i in 0..per_class {
                let cfg = RandomDagConfig {
                    nodes,
                    ccr,
                    ..Default::default()
                };
                out.push(ExactInstance {
                    key: format!("v{nodes}-ccr{ccr}-i{i}"),
                    nodes,
                    ccr,
                    graph: generate_random_dag(&cfg, &mut rng),
                });
            }
        }
    }
    out
}

/// The exact-search network.
pub fn exact_network() -> ProcNetwork {
    ProcNetwork::fully_connected(EXACT_PROCS)
}

/// Fisher–Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// One distinct (instance, algorithm, deadline) the service is asked about.
#[derive(Debug, Clone)]
pub struct Pair {
    /// The wire request (its `id` is left unset).
    pub request: Request,
    /// `listsched::upper_bound` of the instance, computed by the benchmark.
    pub list_bound: u64,
    /// `InstanceFeatures::predicted_exact_ms` of the instance.
    pub predicted_ms: u64,
    /// Deadline band of an `auto` request (`generous`, `mid`, `tight`).
    pub band: Option<&'static str>,
}

/// One line of a service stream.
#[derive(Debug, Clone)]
pub struct Line {
    /// Index into [`Stream::pairs`].
    pub pair: usize,
    /// Whether an earlier line of the stream asked the same pair.
    pub repeat: bool,
    /// The request id the line carries.
    pub id: u64,
    /// The JSON line sent to the service.
    pub text: String,
}

/// A sequence of request lines plus the distinct pairs they ask about.
#[derive(Debug, Clone, Default)]
pub struct Stream {
    /// Distinct pairs, in order of first use.
    pub pairs: Vec<Pair>,
    /// The lines, in submission order.
    pub lines: Vec<Line>,
}

/// Algorithm shares of the `service_hot` mix (each asked directly).
pub const HOT_ALGORITHMS: [(&str, f64); 4] = [
    ("astar", 0.25),
    ("wastar", 0.25),
    ("aeps", 0.25),
    ("list", 0.25),
];

/// Share of `service_hot` lines that repeat an earlier pair.
pub const HOT_REPEAT_SHARE: f64 = 0.5;

/// Expansion budget carried by every `service_hot` line.  It keeps each
/// search small (a few ms at most), as the workload intends: without it a
/// rare v = 8 instance takes 30-140 ms, and the head-of-line blocking it
/// causes decides the latency tail.  A search that hits it answers
/// `anytime`, deterministically, and the service does not memoize it; nor
/// does it memoize `list` answers.  So with half the lines repeats, about
/// 0.3 of the lookups hit.
pub const HOT_MAX_EXPANSIONS: u64 = 1000;

/// Node counts of `service_hot` instances.
pub const HOT_NODES: [usize; 3] = [6, 7, 8];
/// Processor counts of `service_hot` instances (fully connected).
pub const HOT_PROCS: [usize; 2] = [2, 3];

/// Node counts of `service_auto` instances (4 fully connected processors).
pub const AUTO_NODES: [usize; 2] = [7, 8];

fn random_graph(rng: &mut StdRng, nodes: &[usize]) -> TaskGraph {
    let v = nodes[rng.gen_range(0..nodes.len())];
    let ccr = PAPER_CCRS[rng.gen_range(0..PAPER_CCRS.len())];
    generate_random_dag(
        &RandomDagConfig {
            nodes: v,
            ccr,
            ..Default::default()
        },
        rng,
    )
}

fn pick_share<'a>(rng: &mut StdRng, shares: &[(&'a str, f64)]) -> &'a str {
    let total: f64 = shares.iter().map(|s| s.1).sum();
    let mut x = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
    for &(name, share) in shares {
        if x < share {
            return name;
        }
        x -= share;
    }
    shares[shares.len() - 1].0
}

fn pair_of(request: Request, band: Option<&'static str>) -> Pair {
    let instance = &request.instance;
    Pair {
        list_bound: upper_bound(&instance.graph, &instance.network),
        predicted_ms: InstanceFeatures::of(instance).predicted_exact_ms(),
        request,
        band,
    }
}

fn line_text(request: &Request, id: u64) -> String {
    let mut r = request.clone();
    r.id = Some(id);
    serde_json::to_string(&r).expect("a request always serialises")
}

/// `count` lines of the `service_hot` mix: with probability
/// [`HOT_REPEAT_SHARE`] a line repeats a uniformly chosen earlier pair,
/// otherwise it asks a fresh random DAG (v from [`HOT_NODES`], CCR from the
/// paper's three, fully connected processors from [`HOT_PROCS`]) with an
/// algorithm drawn by [`HOT_ALGORITHMS`].  `stream` separates the phases'
/// streams of one seed; ids start at `first_id`.
pub fn hot_stream(seed: u64, stream: u64, count: usize, first_id: u64) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream);
    let mut out = Stream::default();
    for i in 0..count {
        let repeat = !out.pairs.is_empty() && rng.gen_bool(HOT_REPEAT_SHARE);
        let pair = if repeat {
            rng.gen_range(0..out.pairs.len())
        } else {
            let graph = random_graph(&mut rng, &HOT_NODES);
            let procs = HOT_PROCS[rng.gen_range(0..HOT_PROCS.len())];
            let mut request =
                Request::new(Instance::new(graph, ProcNetwork::fully_connected(procs)));
            request.algorithm = Some(pick_share(&mut rng, &HOT_ALGORITHMS).to_string());
            request.max_expansions = Some(HOT_MAX_EXPANSIONS);
            out.pairs.push(pair_of(request, None));
            out.pairs.len() - 1
        };
        let id = first_id + i as u64;
        let text = line_text(&out.pairs[pair].request, id);
        out.lines.push(Line {
            pair,
            repeat,
            id,
            text,
        });
    }
    out
}

/// Deadline bands of `service_auto`: name and deadline as a multiple of
/// the portfolio's own prediction.  Instances cycle through them, so each
/// takes one third.
pub const AUTO_BANDS: [(&str, f64); 3] = [("generous", 4.0), ("mid", 2.0), ("tight", 0.25)];

/// `count` lines of the `service_auto` mix: every line a distinct random
/// DAG (v from [`AUTO_NODES`], CCR from the paper's three, 4 fully connected
/// processors) with `algorithm: "auto"` and a deadline of its band's
/// multiple of `InstanceFeatures::predicted_exact_ms` (rounded down).
///
/// These requests search to completion or to their deadline, so their cost
/// is as heavy-tailed across generator draws as the exact suite's: the
/// instances come from a fixed stream (`stream` picks which) and the seed
/// sets the order in which they are sent.
pub fn auto_stream(seed: u64, stream: u64, count: usize, first_id: u64) -> Stream {
    let mut gen = StdRng::seed_from_u64(SUITE_SEED ^ (stream << 20));
    let mut pairs = Vec::with_capacity(count);
    for i in 0..count {
        let graph = random_graph(&mut gen, &AUTO_NODES);
        let mut request = Request::new(Instance::new(
            graph,
            ProcNetwork::fully_connected(EXACT_PROCS),
        ));
        request.algorithm = Some("auto".to_string());
        let (band, factor) = AUTO_BANDS[i % AUTO_BANDS.len()];
        let predicted = InstanceFeatures::of(&request.instance).predicted_exact_ms();
        request.deadline_ms = Some((predicted as f64 * factor).floor() as u64);
        pairs.push(pair_of(request, Some(band)));
    }
    let mut order: Vec<usize> = (0..count).collect();
    shuffle(
        &mut order,
        &mut StdRng::seed_from_u64(seed ^ (stream << 32)),
    );
    let lines = order
        .iter()
        .enumerate()
        .map(|(i, &pair)| Line {
            pair,
            repeat: false,
            id: first_id + i as u64,
            text: line_text(&pairs[pair].request, first_id + i as u64),
        })
        .collect();
    Stream { pairs, lines }
}

impl Stream {
    /// The lines in `range`, with the pairs they ask about.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Stream {
        let mut out = Stream::default();
        let mut remap = std::collections::BTreeMap::new();
        for line in &self.lines[range] {
            let pair = *remap.entry(line.pair).or_insert_with(|| {
                out.pairs.push(self.pairs[line.pair].clone());
                out.pairs.len() - 1
            });
            out.lines.push(Line {
                pair,
                repeat: line.repeat,
                id: line.id,
                text: line.text.clone(),
            });
        }
        out
    }
}

/// The realised mix of some streams (each served by its own service), one
/// line of text per property.
pub fn describe(streams: &[Stream], cache_capacity: usize) -> Vec<String> {
    let n = streams.iter().map(|s| s.lines.len()).sum::<usize>().max(1) as f64;
    let mut algs: Vec<(String, usize)> = Vec::new();
    let mut bands: Vec<(&str, usize)> = Vec::new();
    for (stream, line) in streams
        .iter()
        .flat_map(|s| s.lines.iter().map(move |l| (s, l)))
    {
        let pair = &stream.pairs[line.pair];
        let alg = pair.request.algorithm.clone().unwrap_or_default();
        match algs.iter_mut().find(|(a, _)| *a == alg) {
            Some(entry) => entry.1 += 1,
            None => algs.push((alg, 1)),
        }
        if let Some(b) = pair.band {
            match bands.iter_mut().find(|(x, _)| *x == b) {
                Some(entry) => entry.1 += 1,
                None => bands.push((b, 1)),
            }
        }
    }
    let share = |c: usize| format!("{:.3}", c as f64 / n);
    let mut out = vec![
        format!(
            "algorithms: {}",
            algs.iter()
                .map(|(a, c)| format!("{a}={}", share(*c)))
                .collect::<Vec<_>>()
                .join(" ")
        ),
        format!(
            "repeat share: {}",
            share(
                streams
                    .iter()
                    .flat_map(|s| &s.lines)
                    .filter(|l| l.repeat)
                    .count()
            )
        ),
        format!(
            "distinct pairs per service: at most {} (cache capacity {cache_capacity})",
            streams.iter().map(|s| s.pairs.len()).max().unwrap_or(0)
        ),
    ];
    if !bands.is_empty() {
        out.push(format!(
            "deadline bands: {}",
            bands
                .iter()
                .map(|(b, c)| format!("{b}={}", share(*c)))
                .collect::<Vec<_>>()
                .join(" ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_always_yields_the_same_mix() {
        let a = hot_stream(7, 1, 300, 0);
        let b = hot_stream(7, 1, 300, 0);
        let c = hot_stream(8, 1, 300, 0);
        let texts = |s: &Stream| s.lines.iter().map(|l| l.text.clone()).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert_ne!(texts(&a), texts(&c));
        assert_ne!(
            texts(&a),
            texts(&hot_stream(7, 2, 300, 0)),
            "phases draw their own streams"
        );
        let d = auto_stream(7, 1, 30, 0);
        assert_eq!(texts(&d), texts(&auto_stream(7, 1, 30, 0)));
        assert_ne!(texts(&d), texts(&auto_stream(8, 1, 30, 0)));
        let suite = exact_suite(&[(8, 3), (9, 2)]);
        assert_eq!(suite.len(), 15);
        assert_eq!(suite[0].graph, exact_suite(&[(8, 1)])[0].graph);
        assert_eq!(suite[9].key, "v9-ccr0.1-i0");
    }

    #[test]
    fn the_hot_mix_has_its_stated_shares() {
        let s = hot_stream(3, 1, 4000, 0);
        let repeats = s.lines.iter().filter(|l| l.repeat).count() as f64 / 4000.0;
        assert!(
            (repeats - HOT_REPEAT_SHARE).abs() < 0.03,
            "repeat share {repeats}"
        );
        for (alg, share) in HOT_ALGORITHMS {
            let got = s
                .pairs
                .iter()
                .filter(|p| p.request.algorithm.as_deref() == Some(alg))
                .count() as f64
                / s.pairs.len() as f64;
            assert!((got - share).abs() < 0.04, "{alg}: {got}");
        }
        // Every repeat is byte-identical to its pair's first line except
        // for the id.
        let first = &s.lines[0];
        assert!(!first.repeat);
        assert!(first.text.contains("\"id\":0"));
    }

    #[test]
    fn auto_lines_fall_a_third_in_each_band_with_their_deadlines() {
        let s = auto_stream(5, 1, 30, 100);
        for line in &s.lines {
            let pair = &s.pairs[line.pair];
            let (band, factor) = AUTO_BANDS[line.pair % 3];
            assert_eq!(pair.band, Some(band));
            let expect = (pair.predicted_ms as f64 * factor).floor() as u64;
            assert_eq!(pair.request.deadline_ms, Some(expect));
            assert!(!line.repeat);
        }
        let text = describe(&[s.slice(0..15), s.slice(15..30)], 8192).join("\n");
        assert!(text.contains("auto=1.000"), "{text}");
        assert!(text.contains("generous=0.333"), "{text}");
        assert!(
            text.contains("distinct pairs per service: at most 15"),
            "{text}"
        );
        let half = s.slice(10..20);
        assert_eq!(half.lines.len(), 10);
        assert_eq!(half.lines[0].text, s.lines[10].text);
        assert_eq!(
            half.pairs[half.lines[3].pair].request,
            s.pairs[s.lines[13].pair].request
        );
    }
}
