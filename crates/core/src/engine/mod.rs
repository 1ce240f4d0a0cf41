//! The unified best-first search engine.
//!
//! Every scheduler family in this workspace — serial A\*, Aε\*, the Chen & Yu
//! branch-and-bound baseline, exhaustive enumeration, and each PPE of the
//! parallel scheduler — is one state-space search over partial schedules.
//! This module implements that search **once**:
//!
//! * [`run_search`] is the single serial OPEN/CLOSED run loop: frontier
//!   selection, duplicate detection, limit enforcement, incumbent /
//!   upper-bound handling and [`SearchStats`] accounting, all configured by
//!   one [`SearchConfig`].  What differentiates the algorithms — child
//!   evaluation, bound pruning and expansion order — lives behind the
//!   [`FrontierPolicy`] trait ([`policy`]): `AStarScheduler`,
//!   `AEpsScheduler`, `ChenYuScheduler` and `ExhaustiveScheduler` are thin
//!   configurations over it.
//! * Each search rule exists once, and the parallel scheduler's PPE loop
//!   calls the same code as [`run_search`]: every heap-ordered OPEN list is
//!   a keyed [`MinHeap`] (no other `BinaryHeap` in the workspace; CI checks
//!   it),
//!   both loops stop by
//!   [`SearchLimits::reached`](crate::config::SearchLimits::reached), which
//!   also owns the 1/1024 clock cadence, and both report their store through
//!   [`StateArena::record_stats`].
//! * [`StateArena`] ([`arena`]) stores generated states as parent-id +
//!   [`ChildDelta`] records and materialises a full [`SearchState`] only
//!   when a state is selected for expansion; dead
//!   chains are reclaimed by refcount.  The arena is not tied to
//!   [`run_search`]: the parallel scheduler's PPE workers each own one,
//!   shipping states as delta chains or snapshots
//!   ([`StateArena::extract_chain`], [`StateArena::materialise_owned`]) and
//!   re-rooting received ones ([`StateArena::adopt_chain`],
//!   [`StateArena::adopt_snapshot`]).
//! * [`expand_state`] is the shared per-child admission pipeline
//!   (evaluate → bound-prune → duplicate-check), parameterised by the
//!   [`DuplicateFilter`] hook; the parallel scheduler's PPE workers drive the
//!   same pipeline with their sharded global CLOSED table behind the hook.
//!   The hook sees each child's signature as a view of its parent's words
//!   ([`ChildSignature`]); the serial engine's [`SignatureSet`] interns the
//!   admitted ones, so expanding a state allocates no signature at all.

pub mod arena;
pub mod policy;

use std::cell::Cell;
use std::time::Instant;

use optsched_obs as obs;
use optsched_schedule::Schedule;
use optsched_taskgraph::Cost;

use crate::config::{HeuristicKind, PruningConfig, SearchConfig, TIME_CHECK_CADENCE};
use crate::problem::SchedulingProblem;
use crate::state::{ChildDelta, ChildSignature, SearchState};
use crate::stats::{SearchOutcome, SearchResult, SearchStats};

pub use arena::{StateArena, StateId};
pub use policy::{
    focal_threshold, AStarPolicy, BoundPolicy, DfsPolicy, FocalPolicy, FrontierPolicy, MinHeap,
    OpenEntry, WeightedAStarPolicy,
};

/// The engine's duplicate-detection hook.
///
/// The serial engine uses [`SignatureSet`]; the parallel scheduler plugs its
/// sharded global CLOSED table (or the paper's per-PPE private sets) in
/// behind this trait, preserving its claim-ownership semantics.
pub trait DuplicateFilter {
    /// Decides whether the state identified by `sig` (with path cost `g`)
    /// is new.  Returns `false` — after updating the duplicate counters in
    /// `stats` — when an identical partial schedule was already seen.
    ///
    /// `sig` borrows the parent's signature words; a filter that keeps the
    /// signature copies it out ([`ChildSignature::to_signature`]).
    fn admit(&mut self, sig: ChildSignature<'_>, g: Cost, stats: &mut SearchStats) -> bool;
}

/// Signatures per storage chunk of a [`SignatureSet`].
const SIGNATURE_CHUNK: usize = 1024;

/// An empty index slot of a [`SignatureSet`].
const EMPTY_SLOT: u64 = u64::MAX;

/// The serial CLOSED ∪ OPEN seen-set: every admitted signature interned
/// once.
///
/// The words of admitted signatures live back to back in chunks of 1024
/// signatures (a growing set never moves stored words), addressed by a
/// dense `u32` id.  An open-addressing, linear-probing table maps a
/// signature's set hash to its id: each slot holds the id and the hash's
/// high 32 bits, which pick the home slot and pre-filter the probe.
/// A probe that passes the filter compares the child's words with the
/// stored ones word for word — two signatures are never equated by hash
/// alone.  The child arrives as a view of its parent's words, so admitting
/// a child copies its words once, and rejecting a duplicate allocates
/// nothing.  An entry costs its `8 · v` bytes of words plus 8 to 16 bytes
/// of index (the table is kept between three eighths and three quarters
/// full).
#[derive(Debug, Default)]
pub struct SignatureSet {
    /// Words per signature (the node count), fixed by the first admission.
    width: usize,
    /// Number of interned signatures (the next id).
    len: usize,
    /// The interned words; chunk `c` holds ids `c * SIGNATURE_CHUNK ..`.
    chunks: Vec<Vec<u64>>,
    /// Open-addressing index, a power of two long and at most three
    /// quarters full: `(hash >> 32) << 32 | id`, or [`EMPTY_SLOT`].
    slots: Vec<u64>,
}

impl SignatureSet {
    /// An empty set.
    pub fn new() -> SignatureSet {
        SignatureSet::default()
    }

    /// Number of distinct signatures seen.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no signature has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored words of signature `id`.
    #[inline]
    fn words(&self, id: usize) -> &[u64] {
        let at = (id % SIGNATURE_CHUNK) * self.width;
        &self.chunks[id / SIGNATURE_CHUNK][at..at + self.width]
    }

    /// Doubles the index (allocating its first 64 slots when empty) and
    /// re-places every entry by its stored hash bits.
    fn grow(&mut self) {
        let capacity = (self.slots.len() * 2).max(64);
        let mask = capacity - 1;
        let mut slots = vec![EMPTY_SLOT; capacity];
        for &slot in self.slots.iter().filter(|&&s| s != EMPTY_SLOT) {
            let mut pos = (slot >> 32) as usize & mask;
            while slots[pos] != EMPTY_SLOT {
                pos = (pos + 1) & mask;
            }
            slots[pos] = slot;
        }
        self.slots = slots;
    }
}

impl DuplicateFilter for SignatureSet {
    fn admit(&mut self, sig: ChildSignature<'_>, _g: Cost, stats: &mut SearchStats) -> bool {
        if self.len == 0 {
            self.width = sig.len();
        }
        debug_assert_eq!(sig.len(), self.width, "signatures of different problems");
        if 4 * (self.len + 1) > 3 * self.slots.len() {
            self.grow();
        }
        let tag = sig.set_hash() >> 32;
        let mask = self.slots.len() - 1;
        let mut pos = tag as usize & mask;
        loop {
            let slot = self.slots[pos];
            if slot == EMPTY_SLOT {
                break;
            }
            if slot >> 32 == tag && sig.matches(self.words(slot as u32 as usize)) {
                stats.duplicates += 1;
                return false;
            }
            pos = (pos + 1) & mask;
        }
        let id = u32::try_from(self.len).ok().filter(|&id| id != u32::MAX);
        let id = id.expect("signature set overflowed its u32 ids");
        self.slots[pos] = (tag << 32) | u64::from(id);
        if self.len % SIGNATURE_CHUNK == 0 {
            self.chunks.push(Vec::with_capacity(SIGNATURE_CHUNK * self.width));
        }
        let chunk = self.chunks.last_mut().expect("a chunk with room was pushed above");
        sig.extend_into(chunk);
        self.len += 1;
        true
    }
}

/// The instance-wide inputs of an expansion step, shared by every child the
/// step generates.
#[derive(Debug, Clone, Copy)]
pub struct ExpansionContext<'a> {
    /// The problem being solved.
    pub problem: &'a SchedulingProblem,
    /// The Section 3.2 pruning techniques in force.
    pub pruning: &'a PruningConfig,
    /// The admissible heuristic evaluated for every child.
    pub heuristic: HeuristicKind,
}

/// The shared per-child admission pipeline: enumerates the expansion
/// candidates of `state`, evaluates each child allocation-free via
/// [`SearchState::peek_child`], applies `evaluate`'s bound pruning (a `None`
/// is counted as [`SearchStats::pruned_upper_bound`]), rejects duplicates
/// through the [`DuplicateFilter`] hook, and hands every surviving child to
/// `admit`.
///
/// Both the serial [`run_search`] loop and the parallel scheduler's PPE
/// workers generate children exclusively through this function.
pub fn expand_state<D: DuplicateFilter>(
    ctx: ExpansionContext<'_>,
    state: &SearchState,
    dup: &mut D,
    stats: &mut SearchStats,
    mut evaluate: impl FnMut(&SearchState, &ChildDelta, &mut SearchStats) -> Option<Cost>,
    mut admit: impl FnMut(&SearchState, ChildDelta, Cost, &mut SearchStats),
) {
    let candidates = state.expansion_candidates(ctx.problem, ctx.pruning, stats);
    if candidates.is_empty() {
        return;
    }
    let parent_sig = state.parent_signature();
    for (node, proc) in candidates {
        let delta = state.peek_child(ctx.problem, node, proc, ctx.heuristic);
        stats.heuristic_evaluations += 1;
        let Some(value) = evaluate(state, &delta, stats) else {
            stats.pruned_upper_bound += 1;
            continue;
        };
        if !dup.admit(parent_sig.child(delta.node, delta.proc, delta.start), delta.g, stats) {
            continue;
        }
        admit(state, delta, value, stats);
    }
}

/// Runs a complete search over `problem` under the given frontier policy
/// and [`SearchConfig`].
///
/// This is the only OPEN/CLOSED run loop in the workspace's serial
/// schedulers: the state with the policy's best value is removed from the
/// frontier; a goal either proves optimality or updates the incumbent
/// (depending on the policy); otherwise the state is expanded through
/// [`expand_state`] and the surviving children are stored in the
/// [`StateArena`] and pushed back to the policy.
///
/// With [`SearchConfig::seed_incumbent`] the list-heuristic schedule is
/// treated as an *attained* incumbent from the first expansion on: the
/// length the policy's bound pruning starts from is capped at
/// [`SchedulingProblem::upper_bound`] (the big win for branch-and-bound,
/// whose own initial bound is infinite),
/// and the bound handed to [`FrontierPolicy::evaluate`] is tightened by one
/// so children that cannot *strictly* improve on a schedule the search
/// already holds are discarded.  Exhausting the frontier then *is* the
/// optimality proof for the incumbent (the evaluation is admissible and only
/// provably non-improving states were pruned), so such a run reports
/// [`SearchOutcome::Optimal`] instead of `Exhausted`.  The tightened bound
/// requires the policy to treat the passed incumbent length as an inclusive
/// upper bound (`value > bound` ⇒ prune), which holds for every best-first
/// policy here but *not* for [`DfsPolicy`]'s special goal handling — the
/// exhaustive enumerator therefore ignores this flag (it effectively seeds
/// already).
///
/// [`SearchConfig::warm_start`] optionally hands the search a complete
/// schedule attained by an earlier run (a cache near-match, a raced anytime
/// leg).  It is adopted as the starting incumbent only when it beats the
/// incumbent the search would otherwise start from, so `None` — and any
/// warm schedule that is no better — leaves the run bit-identical to the
/// unwarmed one.  The caller
/// must guarantee the schedule is feasible **for this problem**; the engine
/// trusts it the same way it trusts the list schedule.
pub fn run_search<P: FrontierPolicy>(
    problem: &SchedulingProblem,
    mut policy: P,
    config: &SearchConfig,
) -> SearchResult {
    let SearchConfig { pruning, heuristic, limits, seed_incumbent, ref warm_start } = *config;
    let start_time = Instant::now();
    // Observability: one timeline track per run, a span covering the whole
    // search, instants on every incumbent improvement and on the existing
    // 1/1024 expansion cadence.  All of it is behind `obs::enabled()` — the
    // disabled cost per site is a single relaxed atomic load.
    let obs_track = if obs::enabled() { obs::next_track() } else { 0 };
    let _obs_span = obs::span("run_search", obs_track);
    let mut stats = SearchStats::default();
    let mut arena = StateArena::new(problem);
    let mut dup = SignatureSet::new();
    let mut seq: u64 = 0;

    // Incumbent: best complete schedule known so far.  The schedule starts
    // as the list-heuristic schedule so a limit-bounded run always returns a
    // feasible result; the *length* the bound pruning starts from is the
    // policy's choice (the list upper bound for the A* family, infinite for
    // branch-and-bound elimination without an external bound) unless the
    // seeded mode caps it at the list upper bound, which that schedule
    // attains.
    let mut incumbent: Schedule = problem.upper_bound_schedule().clone();
    let mut initial_len = if seed_incumbent {
        policy.initial_incumbent_len(problem).min(problem.upper_bound())
    } else {
        policy.initial_incumbent_len(problem)
    };
    if let Some(warm) = warm_start {
        let warm_len = warm.makespan();
        if warm_len < initial_len {
            incumbent = warm.clone();
            initial_len = warm_len;
        }
    }
    let incumbent_len = Cell::new(initial_len);
    // The bound handed to the policy: inclusive of the incumbent length
    // normally, strictly below it when the incumbent is known to be attained.
    let prune_bound =
        |len: Cost| if seed_incumbent { len.saturating_sub(1) } else { len };

    let goal_is_final = policy.goal_on_pop_is_final();
    let track_goals = policy.track_goals_at_generation();
    let goal_depth = problem.num_nodes() as u16;

    let root_id = arena.insert_root(SearchState::initial(problem));
    policy.push(OpenEntry { id: root_id, f: 0, h: 0, value: 0, seq });
    stats.generated += 1;

    let mut kept: Vec<(ChildDelta, Cost)> = Vec::new();
    let outcome = loop {
        let Some(popped) = policy.pop() else {
            break SearchOutcome::Exhausted;
        };
        stats.max_open_size = stats.max_open_size.max(policy.open_len() + 1);

        kept.clear();
        {
            let state = arena.materialise(popped);

            // Goal test at expansion time: under a best-first policy the
            // first goal removed from OPEN is optimal; under an enumerating
            // policy it only updates the incumbent (and, with `kept` empty,
            // falls through to the handle release below).
            if state.is_goal(problem) {
                if goal_is_final {
                    incumbent = state.to_schedule(problem);
                    obs::instant("incumbent", obs_track, "makespan", state.g());
                    break SearchOutcome::Optimal;
                }
                if state.g() < incumbent_len.get() {
                    incumbent_len.set(state.g());
                    incumbent = state.to_schedule(problem);
                    obs::instant("incumbent", obs_track, "makespan", state.g());
                }
            } else {
                if let Some(stop) = limits.reached(
                    start_time,
                    stats.expanded,
                    stats.expanded,
                    stats.generated,
                    incumbent_len.get(),
                ) {
                    break stop;
                }

                stats.expanded += 1;
                if obs::enabled() && stats.expanded % TIME_CHECK_CADENCE == 0 {
                    obs::instant("expansion_rate", obs_track, "expanded", stats.expanded);
                }
                expand_state(
                    ExpansionContext { problem, pruning: &pruning, heuristic },
                    state,
                    &mut dup,
                    &mut stats,
                    |parent, delta, stats| {
                        policy.evaluate(
                            problem,
                            parent,
                            delta,
                            prune_bound(incumbent_len.get()),
                            stats,
                        )
                    },
                    |parent, delta, value, _stats| {
                        // Track incumbents discovered at generation time so the
                        // bound tightens within this expansion and a
                        // limit-bounded run still returns its best schedule.
                        if track_goals
                            && parent.depth() + 1 == goal_depth
                            && delta.g < incumbent_len.get()
                        {
                            incumbent_len.set(delta.g);
                            incumbent = parent.apply_delta(problem, &delta).to_schedule(problem);
                            obs::instant("incumbent", obs_track, "makespan", delta.g);
                        }
                        kept.push((delta, value));
                    },
                );
            }
        }

        for &(delta, value) in &kept {
            seq += 1;
            let id = arena.insert_child(popped, &delta);
            policy.push(OpenEntry { id, f: delta.f(), h: delta.h, value, seq });
            stats.generated += 1;
        }
        // The popped state is dead to the frontier: its kept children (if
        // any) hold it alive through their parent links; pruned-out or
        // childless states are reclaimed here, cascading up their dead
        // chains.
        arena.release(popped);
    };

    // A seeded search that exhausted its frontier has *proved* that nothing
    // strictly better than the incumbent exists: report the proof.
    let outcome = if seed_incumbent && outcome == SearchOutcome::Exhausted {
        SearchOutcome::Optimal
    } else {
        outcome
    };

    arena.record_stats(&mut stats);
    SearchResult {
        schedule_length: incumbent.makespan(),
        schedule: Some(incumbent),
        outcome,
        stats,
        elapsed: start_time.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{check_cost_ceiling, MAX_WORST_CASE_MAKESPAN};
    use crate::{AStarScheduler, ChenYuScheduler};
    use optsched_procnet::{ProcId, ProcNetwork};
    use optsched_taskgraph::{paper_example_dag, GraphBuilder, NodeId, TaskGraph};
    use optsched_workload::{generate_random_dag, RandomDagConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example_problem() -> SchedulingProblem {
        SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3))
    }

    #[test]
    fn signature_set_counts_duplicates() {
        let problem = example_problem();
        let mut stats = SearchStats::default();
        let mut set = SignatureSet::new();
        assert!(set.is_empty());
        let root = SearchState::initial(&problem);
        let parent = root.parent_signature();
        let sig = parent.child(NodeId(0), ProcId(0), 0);
        assert!(set.admit(sig, 0, &mut stats));
        assert!(!set.admit(sig, 0, &mut stats));
        assert_eq!(set.len(), 1);
        assert_eq!(stats.duplicates, 1);
        // A signature differing in one word (the start time) is new.
        assert!(set.admit(parent.child(NodeId(0), ProcId(0), 1), 0, &mut stats));
        assert_eq!((set.len(), stats.duplicates), (2, 1));
    }

    /// Two different signatures whose hashes collide in all 32 stored bits
    /// are still told apart: a probe that passes the hash filter compares
    /// the words, whether they differ before, at or after the patched word.
    #[test]
    fn signature_set_compares_words_not_just_hashes() {
        let problem = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let root = SearchState::initial(&problem);
        let s1 = root.schedule_node(&problem, NodeId(0), ProcId(0), h);
        let on = |n: u32, p: u32| s1.schedule_node(&problem, NodeId(n), ProcId(p), h);
        // Parents differing only in node 1's word, and only in node 3's.
        let (a, b, c, d) = (on(1, 0), on(1, 1), on(3, 0), on(3, 1));
        let (pa, pb) = (a.parent_signature(), b.parent_signature());
        let (pc, pd) = (c.parent_signature(), d.parent_signature());
        // (stored, probe) pairs differing in one word: before, at and after
        // the patched one.
        let pairs = [
            (pa.child(NodeId(3), ProcId(1), 9), pb.child(NodeId(3), ProcId(1), 9)),
            (pa.child(NodeId(2), ProcId(2), 7), pa.child(NodeId(2), ProcId(2), 8)),
            (pc.child(NodeId(1), ProcId(1), 9), pd.child(NodeId(1), ProcId(1), 9)),
        ];
        for (stored, probe) in pairs {
            let mut set = SignatureSet::new();
            let mut stats = SearchStats::default();
            assert!(set.admit(stored, 0, &mut stats));
            // Re-file the stored entry under the probe's hash bits at the
            // probe's home slot: a full collision of the stored hash bits.
            let tag = probe.set_hash() >> 32;
            let mask = set.slots.len() - 1;
            set.slots.fill(EMPTY_SLOT);
            set.slots[tag as usize & mask] = tag << 32;
            assert!(set.admit(probe, 0, &mut stats), "a hash match alone is no duplicate");
            assert_eq!((set.len(), stats.duplicates), (2, 0));
            assert!(!set.admit(probe, 0, &mut stats), "the probe itself is found");
        }
    }

    /// Every node and edge weight of `graph` multiplied by `k`.
    fn scaled(graph: &TaskGraph, k: Cost) -> TaskGraph {
        let mut b = GraphBuilder::new();
        for n in graph.node_ids() {
            b.add_node(graph.weight(n) * k);
        }
        for e in graph.edges() {
            b.add_edge(e.src, e.dst, e.weight * k).unwrap();
        }
        b.build().unwrap()
    }

    /// Scaling every cost by the largest `k` the cost ceiling accepts scales
    /// the optimum by `k` and changes nothing else: A\* and Chen & Yu expand
    /// and generate exactly what they do on the unscaled graph.  Start times
    /// then reach up to 2^53, so this fails if the start field of a
    /// signature word overlaps its processor field (two distinct partial
    /// schedules would share a signature and one be dropped as a duplicate).
    #[test]
    fn scaled_costs_leave_the_search_unchanged() {
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..12 {
            let config = RandomDagConfig { nodes: 5 + round % 3, ccr: 1.0, ..Default::default() };
            let graph = generate_random_dag(&config, &mut rng);
            let network = ProcNetwork::fully_connected(2 + round % 2);
            let k = MAX_WORST_CASE_MAKESPAN
                / (graph.total_computation() + graph.total_communication());
            let big = scaled(&graph, k);
            check_cost_ceiling(&big, &network).unwrap();
            let small = SchedulingProblem::new(graph, network.clone());
            let big = SchedulingProblem::new(big, network);
            let runs = [
                (AStarScheduler::new(&small).run(), AStarScheduler::new(&big).run()),
                (ChenYuScheduler::new(&small).run(), ChenYuScheduler::new(&big).run()),
            ];
            for (algorithm, (a, b)) in ["astar", "chenyu"].into_iter().zip(runs) {
                assert_eq!(b.schedule_length, k * a.schedule_length, "{algorithm} round {round}");
                assert_eq!(
                    (b.stats.expanded, b.stats.generated),
                    (a.stats.expanded, a.stats.generated),
                    "{algorithm} round {round}, k = {k}"
                );
            }
        }
    }

    /// The refcounted arena reclaims dead chains during a run: the live
    /// record set stays below everything ever generated, and only the root
    /// plus the scratch state are ever held in full.
    #[test]
    fn runs_reclaim_dead_chains() {
        let problem = example_problem();
        let r = run_search(&problem, AStarPolicy::new(true), &SearchConfig::default());
        assert_eq!(r.schedule_length, 14);
        assert!(r.stats.reclaimed_records > 0, "dead chains are reclaimed");
        assert!(r.stats.peak_live_records < r.stats.generated);
        assert!(r.stats.peak_live_states <= 2, "peak {}", r.stats.peak_live_states);
    }

    /// The arena is a pure memory trade: driving the same policy and
    /// admission pipeline over a clone-per-state store (ids index a `Vec`
    /// of full states) finds the same optimum with identical counts, while
    /// holding every generated state in full.
    #[test]
    fn store_layouts_produce_identical_searches() {
        let problem = example_problem();
        let config = SearchConfig::default();
        let arena = run_search(&problem, AStarPolicy::new(true), &config);

        let mut policy = AStarPolicy::new(true);
        let mut dup = SignatureSet::new();
        let mut stats = SearchStats::default();
        let mut states = vec![SearchState::initial(&problem)];
        policy.push(OpenEntry { id: 0, f: 0, h: 0, value: 0, seq: 0 });
        let incumbent = Cell::new(problem.upper_bound());
        let goal_depth = problem.num_nodes() as u16;
        let schedule_length = loop {
            let popped = policy.pop().expect("the search reaches a goal");
            let state = states[popped as usize].clone();
            if state.is_goal(&problem) {
                break state.g();
            }
            stats.expanded += 1;
            let mut kept = Vec::new();
            expand_state(
                ExpansionContext {
                    problem: &problem,
                    pruning: &config.pruning,
                    heuristic: config.heuristic,
                },
                &state,
                &mut dup,
                &mut stats,
                |parent, delta, stats| {
                    policy.evaluate(&problem, parent, delta, incumbent.get(), stats)
                },
                |parent, delta, value, _| {
                    if parent.depth() + 1 == goal_depth {
                        incumbent.set(incumbent.get().min(delta.g));
                    }
                    kept.push((parent.apply_delta(&problem, &delta), value));
                },
            );
            for (child, value) in kept {
                let id = StateId::try_from(states.len()).unwrap();
                let seq = u64::from(id);
                policy.push(OpenEntry { id, f: child.f(), h: child.h(), value, seq });
                states.push(child);
            }
        };

        assert_eq!(schedule_length, 14);
        assert_eq!(arena.schedule_length, 14);
        assert_eq!(stats.expanded, arena.stats.expanded);
        assert_eq!(states.len() as u64, arena.stats.generated);
        assert_eq!(stats.duplicates, arena.stats.duplicates);
        assert!(
            arena.stats.peak_live_states < states.len() as u64,
            "arena {} vs clone-per-state {}",
            arena.stats.peak_live_states,
            states.len()
        );
    }

    #[test]
    fn dfs_policy_enumerates_to_the_optimum() {
        let problem = example_problem();
        let config = SearchConfig {
            pruning: PruningConfig::none(),
            heuristic: HeuristicKind::Zero,
            ..SearchConfig::default()
        };
        let r = run_search(&problem, DfsPolicy::new(), &config);
        assert_eq!(r.outcome, SearchOutcome::Exhausted);
        assert_eq!(r.schedule_length, 14);
    }

    /// The seeded mode prunes against the attained list incumbent (strictly)
    /// yet stays exact, and reports `Optimal` even when the proof comes from
    /// frontier exhaustion rather than a popped goal.
    #[test]
    fn seeded_incumbent_stays_exact_and_never_expands_more() {
        let problem = example_problem();
        let run = |seed_incumbent| {
            let config = SearchConfig { seed_incumbent, ..SearchConfig::default() };
            run_search(&problem, AStarPolicy::new(true), &config)
        };
        let plain = run(false);
        let seeded = run(true);
        assert_eq!(plain.schedule_length, 14);
        assert_eq!(seeded.schedule_length, 14);
        assert_eq!(seeded.outcome, SearchOutcome::Optimal);
        assert!(
            seeded.stats.expanded <= plain.stats.expanded,
            "seeded {} vs plain {}",
            seeded.stats.expanded,
            plain.stats.expanded
        );
        seeded
            .expect_schedule()
            .validate(problem.graph(), problem.network())
            .unwrap();
    }

    /// A warm-start schedule only ever tightens the starting incumbent: a
    /// warmed run stays exact and expands no more states than the plain
    /// seeded run, while a warm schedule no better than the list incumbent
    /// (and `None`) leaves the run unchanged.
    #[test]
    fn warm_start_only_ever_tightens_the_incumbent() {
        let problem = example_problem();
        let run = |warm: Option<&Schedule>| {
            let config = SearchConfig {
                seed_incumbent: true,
                warm_start: warm.cloned(),
                ..SearchConfig::default()
            };
            run_search(&problem, AStarPolicy::new(true), &config)
        };
        let plain = run(None);
        assert_eq!(plain.schedule_length, 14);
        let optimal = plain.expect_schedule().clone();
        let warmed = run(Some(&optimal));
        assert_eq!(warmed.schedule_length, 14);
        assert_eq!(warmed.outcome, SearchOutcome::Optimal);
        assert!(
            warmed.stats.expanded <= plain.stats.expanded,
            "warmed {} vs plain {}",
            warmed.stats.expanded,
            plain.stats.expanded
        );
        let list = problem.upper_bound_schedule().clone();
        let ignored = run(Some(&list));
        assert_eq!(ignored.stats.expanded, plain.stats.expanded);
        assert_eq!(ignored.schedule_length, plain.schedule_length);
    }
}
