//! Search-state representation and the expansion operator (Section 3.1).
//!
//! A state is a *partial schedule*: a subset of the DAG's nodes assigned to
//! processors with concrete start/finish times.  The initial state is the
//! empty schedule, the expansion operator assigns one ready node to one
//! processor (appending after the processor's last task), and a goal state is
//! a complete schedule.

use std::cell::Cell;
use std::cmp::Reverse;

use optsched_procnet::ProcId;
use optsched_schedule::Schedule;
use optsched_taskgraph::{Cost, NodeId};

use crate::config::{HeuristicKind, PruningConfig};
use crate::problem::SchedulingProblem;
use crate::stats::SearchStats;

/// Signature word of a node that is not scheduled yet.
const UNSCHEDULED: u64 = u64::MAX;

/// Width of the start-time field of a signature word; the processor index
/// sits in the bits above it.  Every accepted instance's start times are at
/// most [`MAX_WORST_CASE_MAKESPAN`](crate::problem::MAX_WORST_CASE_MAKESPAN)
/// (2^53) and so fit in these bits, which keeps the two fields disjoint.
const START_BITS: u32 = 54;

/// Largest processor count a network, and so a [`SchedulingProblem`], can
/// have: processor indices fill the bits above the start field of a
/// [`StateSignature`] word.  With a start of at most 2^53, no packed word
/// can equal the `u64::MAX` marker of an unscheduled node either.
pub use optsched_procnet::MAX_PROCS;
const _: () = assert!(MAX_PROCS == 1 << (64 - START_BITS), "processor field width");

/// Packs one `(processor, start time)` assignment into a signature word.
#[inline]
fn pack(proc: ProcId, start: Cost) -> u64 {
    debug_assert!(proc.index() < MAX_PROCS, "processor index exceeds the packed range");
    debug_assert!(start < (1 << START_BITS), "start time exceeds the packed range");
    ((proc.index() as u64) << START_BITS) | start
}

/// The processor field of a packed signature word.
#[inline]
fn word_proc(word: u64) -> ProcId {
    ProcId((word >> START_BITS) as u32)
}

/// The start-time field of a packed signature word.
#[inline]
fn word_start(word: u64) -> Cost {
    word & ((1 << START_BITS) - 1)
}

/// The contribution of node `index`'s word to a signature's set hash.  A
/// signature's hash is the wrapping sum of this over its scheduled nodes,
/// so a child's hash is its parent's plus one term.
#[inline]
fn mix(index: usize, word: u64) -> u64 {
    // SplitMix64's finalizer over the word, offset by a per-node constant.
    let mut z = word.wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Exact identity of a partial schedule, used for duplicate detection.
///
/// Two states with the same signature assign the same nodes to the same
/// processors with the same start times, hence have identical `g`, `h` and
/// future expansions; only one needs to be kept.
///
/// The representation packs, for every node, the pair `(processor, start
/// time)` into one 64-bit word: the start in the low 54 bits, the processor
/// index above it (`u64::MAX` marks an unscheduled node).  The fields are
/// disjoint for every instance [`SchedulingProblem::new`] accepts (see
/// [`MAX_PROCS`]), so equal words mean equal assignments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateSignature(Box<[u64]>);

impl StateSignature {
    /// The signature of the child obtained from this (parent) signature by
    /// additionally scheduling `node` on `proc` at `start`.
    ///
    /// Equivalent to materialising the child and calling
    /// [`SearchState::signature`], at the cost of one word-slice clone.
    pub fn with_assignment(&self, node: NodeId, proc: ProcId, start: Cost) -> StateSignature {
        self.as_parent().child(node, proc, start).to_signature()
    }

    /// A borrowed view of this signature to describe children against.
    pub fn as_parent(&self) -> ParentSignature<'_> {
        ParentSignature::new(&self.0)
    }
}

/// A borrowed signature that children are described against: the parent
/// state's words plus their set hash, computed on first use only (the
/// parallel scheduler's duplicate filters never ask for it).
#[derive(Debug)]
pub struct ParentSignature<'a> {
    words: &'a [u64],
    hash: Cell<Option<u64>>,
}

impl<'a> ParentSignature<'a> {
    fn new(words: &'a [u64]) -> ParentSignature<'a> {
        ParentSignature { words, hash: Cell::new(None) }
    }

    /// The signature of the child that additionally schedules `node` on
    /// `proc` at `start`, as a view: nothing is copied or allocated.
    #[inline]
    pub fn child(&self, node: NodeId, proc: ProcId, start: Cost) -> ChildSignature<'_> {
        debug_assert_eq!(self.words[node.index()], UNSCHEDULED, "node scheduled in the parent");
        ChildSignature { parent: self, index: node.index(), word: pack(proc, start) }
    }

    /// The set hash of the parent's words (see [`mix`]), cached.
    fn set_hash(&self) -> u64 {
        if let Some(h) = self.hash.get() {
            return h;
        }
        let h = self
            .words
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w != UNSCHEDULED)
            .fold(0u64, |sum, (i, &w)| sum.wrapping_add(mix(i, w)));
        self.hash.set(Some(h));
        h
    }
}

/// The signature of a generated child, borrowed: its parent's words with
/// one word patched.  This is what [`DuplicateFilter::admit`] receives; a
/// filter that keeps signatures copies the words out only for children it
/// admits ([`ChildSignature::to_signature`], or in place into an interned
/// store).
///
/// [`DuplicateFilter::admit`]: crate::engine::DuplicateFilter::admit
#[derive(Debug, Clone, Copy)]
pub struct ChildSignature<'a> {
    parent: &'a ParentSignature<'a>,
    index: usize,
    word: u64,
}

impl ChildSignature<'_> {
    /// Number of words (the problem's node count).
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.words.len()
    }

    /// True for the signature of a problem without nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.words.is_empty()
    }

    /// The owned signature: one allocation and a copy of the words.
    pub fn to_signature(&self) -> StateSignature {
        let mut words: Box<[u64]> = self.parent.words.into();
        words[self.index] = self.word;
        StateSignature(words)
    }

    /// The set hash: the parent's plus the patched word's term.
    #[inline]
    pub(crate) fn set_hash(&self) -> u64 {
        self.parent.set_hash().wrapping_add(mix(self.index, self.word))
    }

    /// True if `words` are exactly this signature's words, compared word for
    /// word.
    #[inline]
    pub(crate) fn matches(&self, words: &[u64]) -> bool {
        let (parent, i) = (self.parent.words, self.index);
        words.len() == parent.len()
            && words[i] == self.word
            && words[..i] == parent[..i]
            && words[i + 1..] == parent[i + 1..]
    }

    /// Appends this signature's words to `out`.
    #[inline]
    pub(crate) fn extend_into(&self, out: &mut Vec<u64>) {
        let (parent, i) = (self.parent.words, self.index);
        out.extend_from_slice(&parent[..i]);
        out.push(self.word);
        out.extend_from_slice(&parent[i + 1..]);
    }
}

/// The delta record of one expansion step: everything that distinguishes a
/// child state from its parent, in a fixed-size value.
///
/// Produced by [`SearchState::peek_child`] *without* materialising the child,
/// so the search engine can evaluate, bound-prune and duplicate-check a
/// generated state before paying for a single allocation.  Applying the delta
/// to the parent with [`SearchState::apply_delta`] reproduces exactly the
/// state [`SearchState::schedule_node`] would have built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChildDelta {
    /// The ready node being scheduled.
    pub node: NodeId,
    /// The processor it is assigned to.
    pub proc: ProcId,
    /// Its start time (earliest start on `proc`).
    pub start: Cost,
    /// Its finish time.
    pub finish: Cost,
    /// The child's partial schedule length `g`.
    pub g: Cost,
    /// The child's heuristic estimate `h`.
    pub h: Cost,
}

impl ChildDelta {
    /// `f = g + h` of the child this delta describes.
    #[inline]
    pub fn f(&self) -> Cost {
        self.g + self.h
    }
}

/// A partial schedule together with its cost `f = g + h`.
#[derive(Debug, Clone)]
pub struct SearchState {
    /// The signature words: processor and start time of each node, packed
    /// ([`UNSCHEDULED`] when unscheduled) — also the state's one record of
    /// which nodes are scheduled.  Kept in signature form so the duplicate
    /// check can borrow them instead of building a signature.
    words: Box<[u64]>,
    /// Finish time of each scheduled node.
    finish: Box<[Cost]>,
    /// Ready time of each processor (finish of its last task).
    proc_ready: Box<[Cost]>,
    /// Number of unscheduled predecessors of each node.
    missing_preds: Box<[u16]>,
    /// Number of scheduled nodes.
    num_scheduled: u16,
    /// Node with the largest finish time (`n_max` in the paper), if any.
    max_finish_node: Option<NodeId>,
    /// Partial schedule length `g(s)`.
    g: Cost,
    /// Heuristic estimate `h(s)` of the remaining schedule length.
    h: Cost,
}

impl SearchState {
    /// The initial (empty) state with `f = 0`.
    pub fn initial(problem: &SchedulingProblem) -> SearchState {
        let v = problem.num_nodes();
        let p = problem.num_procs();
        let graph = problem.graph();
        let missing: Vec<u16> =
            graph.node_ids().map(|n| graph.in_degree(n) as u16).collect();
        SearchState {
            words: vec![UNSCHEDULED; v].into_boxed_slice(),
            finish: vec![0; v].into_boxed_slice(),
            proc_ready: vec![0; p].into_boxed_slice(),
            missing_preds: missing.into_boxed_slice(),
            num_scheduled: 0,
            max_finish_node: None,
            g: 0,
            h: 0,
        }
    }

    /// `g(s)`: the length of the partial schedule (max finish time).
    #[inline]
    pub fn g(&self) -> Cost {
        self.g
    }

    /// `h(s)`: the admissible estimate of the remaining schedule length.
    #[inline]
    pub fn h(&self) -> Cost {
        self.h
    }

    /// `f(s) = g(s) + h(s)`.
    #[inline]
    pub fn f(&self) -> Cost {
        self.g + self.h
    }

    /// Number of nodes scheduled so far.
    #[inline]
    pub fn depth(&self) -> u16 {
        self.num_scheduled
    }

    /// True when every node is scheduled (goal state).
    pub fn is_goal(&self, problem: &SchedulingProblem) -> bool {
        self.num_scheduled as usize == problem.num_nodes()
    }

    /// The node with the largest finish time, if any node is scheduled.
    pub fn max_finish_node(&self) -> Option<NodeId> {
        self.max_finish_node
    }

    /// True if `n` is scheduled in this state.
    #[inline]
    pub fn is_scheduled(&self, n: NodeId) -> bool {
        self.words[n.index()] != UNSCHEDULED
    }

    /// Processor of `n`, if scheduled.
    pub fn proc_of(&self, n: NodeId) -> Option<ProcId> {
        let w = self.words[n.index()];
        (w != UNSCHEDULED).then(|| word_proc(w))
    }

    /// Finish time of `n`, if scheduled.
    pub fn finish_time(&self, n: NodeId) -> Option<Cost> {
        self.is_scheduled(n).then(|| self.finish[n.index()])
    }

    /// Ready time `RT_i` of processor `p` (Definition 1).
    #[inline]
    pub fn proc_ready_time(&self, p: ProcId) -> Cost {
        self.proc_ready[p.index()]
    }

    /// True if no task has been placed on `p` yet.
    pub fn proc_is_empty(&self, p: ProcId) -> bool {
        !self.words.iter().any(|&w| w != UNSCHEDULED && word_proc(w) == p)
    }

    /// The ready nodes: unscheduled nodes whose predecessors are all scheduled.
    pub fn ready_nodes(&self, problem: &SchedulingProblem) -> Vec<NodeId> {
        problem
            .graph()
            .node_ids()
            .filter(|&n| !self.is_scheduled(n) && self.missing_preds[n.index()] == 0)
            .collect()
    }

    /// Earliest start time of ready node `n` on processor `p` (append-only),
    /// honouring the processor ready time and the arrival of every parent
    /// message.
    pub fn earliest_start(&self, problem: &SchedulingProblem, n: NodeId, p: ProcId) -> Cost {
        let net = problem.network();
        let mut est = self.proc_ready[p.index()];
        for &(parent, comm) in problem.graph().predecessors(n) {
            debug_assert!(self.is_scheduled(parent), "expanding a non-ready node");
            let parent_proc = word_proc(self.words[parent.index()]);
            let arrival = self.finish[parent.index()] + net.comm_cost(comm, parent_proc, p);
            est = est.max(arrival);
        }
        est
    }

    /// Creates the successor state obtained by scheduling ready node `n` on
    /// processor `p` at its earliest start time.
    pub fn schedule_node(
        &self,
        problem: &SchedulingProblem,
        n: NodeId,
        p: ProcId,
        heuristic: HeuristicKind,
    ) -> SearchState {
        let delta = self.peek_child(problem, n, p, heuristic);
        self.apply_delta(problem, &delta)
    }

    /// Evaluates the expansion "schedule ready node `n` on processor `p`"
    /// *without materialising the child state*: the returned [`ChildDelta`]
    /// carries the child's placement, `g` and `h`, computed directly against
    /// this (parent) state.
    ///
    /// This is the allocation-free half of the expansion operator; pass the
    /// delta to [`SearchState::apply_delta`] to build the full child, which is
    /// only necessary for states that survive pruning and duplicate detection
    /// and are actually selected for expansion.
    pub fn peek_child(
        &self,
        problem: &SchedulingProblem,
        n: NodeId,
        p: ProcId,
        heuristic: HeuristicKind,
    ) -> ChildDelta {
        let est = self.earliest_start(problem, n, p);
        let dur = problem.network().exec_time(problem.graph().weight(n), p);
        let finish = est + dur;
        let (g, max_finish_node) =
            if finish >= self.g { (finish, Some(n)) } else { (self.g, self.max_finish_node) };
        let h = self.peek_h(problem, heuristic, n, finish, g, max_finish_node);
        ChildDelta { node: n, proc: p, start: est, finish, g, h }
    }

    /// Evaluates the heuristic of the child obtained by scheduling `n` (with
    /// finish time `n_finish`), against this parent state.  `g` and
    /// `max_finish_node` are the child's values.
    fn peek_h(
        &self,
        problem: &SchedulingProblem,
        heuristic: HeuristicKind,
        n: NodeId,
        n_finish: Cost,
        g: Cost,
        max_finish_node: Option<NodeId>,
    ) -> Cost {
        let graph = problem.graph();
        let levels = problem.levels();
        // Scheduled-set and finish times of the *child*: the parent's, plus `n`.
        let scheduled = |m: NodeId| m == n || self.is_scheduled(m);
        let finish_of = |m: NodeId| if m == n { n_finish } else { self.finish[m.index()] };
        match heuristic {
            HeuristicKind::Zero => 0,
            HeuristicKind::PaperStaticLevel => {
                let Some(nmax) = max_finish_node else { return 0 };
                graph
                    .successors(nmax)
                    .iter()
                    .filter(|&&(c, _)| !scheduled(c))
                    .map(|&(c, _)| levels.static_level(c))
                    .max()
                    .unwrap_or(0)
            }
            HeuristicKind::TightStaticLevel => {
                let mut bound = g;
                for m in graph.node_ids().filter(|&m| scheduled(m)) {
                    let tail = graph
                        .successors(m)
                        .iter()
                        .filter(|&&(c, _)| !scheduled(c))
                        .map(|&(c, _)| levels.static_level(c))
                        .max()
                        .unwrap_or(0);
                    bound = bound.max(finish_of(m) + tail);
                }
                // Unscheduled entry-like nodes (all of whose predecessors are
                // unscheduled too) still need at least their static level.
                for m in graph.node_ids().filter(|&m| !scheduled(m)) {
                    if graph.predecessors(m).iter().all(|&(q, _)| !scheduled(q)) {
                        bound = bound.max(levels.static_level(m));
                    }
                }
                bound - g
            }
        }
    }

    /// Materialises the child described by `delta`: clones this state and
    /// applies the delta in place.
    pub fn apply_delta(&self, problem: &SchedulingProblem, delta: &ChildDelta) -> SearchState {
        let mut next = self.clone();
        next.apply_delta_in_place(problem, delta);
        next
    }

    /// Applies `delta` to this state in place (the replay step of the
    /// delta-backed state arena).  `self` must be the delta's parent state.
    pub fn apply_delta_in_place(&mut self, problem: &SchedulingProblem, delta: &ChildDelta) {
        let n = delta.node;
        let p = delta.proc;
        debug_assert!(!self.is_scheduled(n), "delta re-schedules an already scheduled node");
        self.words[n.index()] = pack(p, delta.start);
        self.finish[n.index()] = delta.finish;
        self.proc_ready[p.index()] = delta.finish;
        self.num_scheduled += 1;
        for &(child, _) in problem.graph().successors(n) {
            self.missing_preds[child.index()] -= 1;
        }
        if delta.finish >= self.g {
            self.max_finish_node = Some(n);
        }
        self.g = delta.g;
        self.h = delta.h;
    }

    /// Overwrites this state with the contents of `other` without allocating
    /// (all slices keep their boxes; both states must belong to the same
    /// problem instance, i.e. have identical slice lengths).
    pub fn copy_from(&mut self, other: &SearchState) {
        self.words.copy_from_slice(&other.words);
        self.finish.copy_from_slice(&other.finish);
        self.proc_ready.copy_from_slice(&other.proc_ready);
        self.missing_preds.copy_from_slice(&other.missing_preds);
        self.num_scheduled = other.num_scheduled;
        self.max_finish_node = other.max_finish_node;
        self.g = other.g;
        self.h = other.h;
    }

    /// Decomposes this state into a chain of [`ChildDelta`]s that, replayed
    /// in order onto the problem's *initial* state, rebuilds a state equal to
    /// `self` in every observable field (signature, `g`, `h`, depth,
    /// `max_finish_node`, processor ready times, ready set).
    ///
    /// This is the receive-side half of the parallel scheduler's
    /// materialise-on-send protocol: a state arriving from another PPE is a
    /// full `SearchState`, but a delta arena can re-root it as this chain and
    /// keep holding only fixed-size records.  The chain is *not* the sender's
    /// generation history — it replays the assignments in ascending finish
    /// order (a valid topological order, since a successor can only start at
    /// or after its predecessor's finish), with the true `max_finish_node`
    /// deliberately placed last among equal-finish assignments so the replay
    /// reproduces it exactly.  Intermediate `h` values are not reconstructed
    /// (they are never observed — only the final slot of a chain is
    /// materialised); the final delta carries this state's true `h`.
    pub fn to_delta_chain(&self) -> Vec<ChildDelta> {
        let mut assignments: Vec<NodeId> = (0..self.words.len())
            .filter(|&i| self.words[i] != UNSCHEDULED)
            .map(|i| NodeId(i as u32))
            .collect();
        assignments
            .sort_by_key(|&n| (self.finish[n.index()], Some(n) == self.max_finish_node, n));
        let last = assignments.len().checked_sub(1);
        assignments
            .iter()
            .enumerate()
            .map(|(i, &n)| ChildDelta {
                node: n,
                proc: word_proc(self.words[n.index()]),
                start: word_start(self.words[n.index()]),
                finish: self.finish[n.index()],
                // In ascending finish order the running schedule length is
                // exactly the finish of the assignment just applied.
                g: self.finish[n.index()],
                h: if Some(i) == last { self.h } else { 0 },
            })
            .collect()
    }

    /// The exact signature of this partial schedule (for duplicate detection).
    pub fn signature(&self) -> StateSignature {
        StateSignature(self.words.clone())
    }

    /// This state's signature as a borrowed view to describe its children
    /// against (no allocation).
    pub fn parent_signature(&self) -> ParentSignature<'_> {
        ParentSignature::new(&self.words)
    }

    /// Enumerates the `(ready node, processor)` pairs the expansion operator
    /// should try, applying the node-equivalence, processor-isomorphism and
    /// priority-ordering rules according to `config`.
    pub fn expansion_candidates(
        &self,
        problem: &SchedulingProblem,
        config: &PruningConfig,
        stats: &mut SearchStats,
    ) -> Vec<(NodeId, ProcId)> {
        let mut ready = self.ready_nodes(problem);
        if config.priority_ordering {
            ready.sort_by_key(|&n| (Reverse(problem.priority(n)), n));
        }

        // Node equivalence: among ready nodes of the same equivalence class,
        // keep only the smallest id (Definition 3 guarantees the discarded
        // orderings lead to schedules of identical length).
        if config.node_equivalence {
            let mut kept: Vec<NodeId> = Vec::with_capacity(ready.len());
            for &n in &ready {
                let rep = problem.equivalence_representative(n);
                let duplicate = kept.iter().any(|&m| problem.equivalence_representative(m) == rep);
                if duplicate {
                    stats.pruned_node_equivalence += 1;
                } else {
                    kept.push(n);
                }
            }
            ready = kept;
        }

        // Processor isomorphism: among *empty*, mutually interchangeable
        // processors keep only the smallest id (Definition 2).
        let mut procs: Vec<ProcId> = Vec::with_capacity(problem.num_procs());
        if config.processor_isomorphism {
            let mut kept_empty_reps: Vec<ProcId> = Vec::new();
            for p in problem.network().proc_ids() {
                if self.proc_ready[p.index()] == 0 && self.proc_is_empty(p) {
                    let rep = problem.interchange_representative(p);
                    if kept_empty_reps.contains(&rep) {
                        stats.pruned_processor_isomorphism += 1;
                        continue;
                    }
                    kept_empty_reps.push(rep);
                }
                procs.push(p);
            }
        } else {
            procs.extend(problem.network().proc_ids());
        }

        let mut out = Vec::with_capacity(ready.len() * procs.len());
        for &n in &ready {
            for &p in &procs {
                out.push((n, p));
            }
        }
        out
    }

    /// Converts a goal state (or any partial state) into a [`Schedule`].
    pub fn to_schedule(&self, problem: &SchedulingProblem) -> Schedule {
        let mut s = Schedule::new(problem.num_nodes(), problem.num_procs());
        for n in problem.graph().node_ids() {
            if self.is_scheduled(n) {
                let w = self.words[n.index()];
                s.assign(n, word_proc(w), word_start(w), self.finish[n.index()]);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::paper_example_dag;

    fn example_problem() -> SchedulingProblem {
        SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3))
    }

    #[test]
    fn initial_state_matches_paper() {
        let prob = example_problem();
        let s = SearchState::initial(&prob);
        assert_eq!(s.f(), 0, "the paper sets f(initial) = 0");
        assert_eq!(s.depth(), 0);
        assert!(!s.is_goal(&prob));
        assert_eq!(s.ready_nodes(&prob), vec![NodeId(0)]);
        assert!(s.proc_is_empty(ProcId(0)));
    }

    /// The root expansion of Figure 3: scheduling n1 to PE0 gives f = 2 + 10.
    #[test]
    fn fig3_root_state_cost() {
        let prob = example_problem();
        let s0 = SearchState::initial(&prob);
        let s1 = s0.schedule_node(&prob, NodeId(0), ProcId(0), HeuristicKind::PaperStaticLevel);
        assert_eq!(s1.g(), 2);
        assert_eq!(s1.h(), 10);
        assert_eq!(s1.f(), 12);
        assert_eq!(s1.max_finish_node(), Some(NodeId(0)));
        assert_eq!(s1.proc_of(NodeId(0)), Some(ProcId(0)));
        assert_eq!(s1.finish_time(NodeId(0)), Some(2));
    }

    /// Level-2 states of Figure 3: n2→PE0 f=5+7, n2→PE1 f=6+7,
    /// n4→PE0 f=6+2, n4→PE1 f=8+2.
    #[test]
    fn fig3_second_level_costs() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let s1 = SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), h);

        let n2_pe0 = s1.schedule_node(&prob, NodeId(1), ProcId(0), h);
        assert_eq!((n2_pe0.g(), n2_pe0.h()), (5, 7));

        let n2_pe1 = s1.schedule_node(&prob, NodeId(1), ProcId(1), h);
        assert_eq!((n2_pe1.g(), n2_pe1.h()), (6, 7));

        let n4_pe0 = s1.schedule_node(&prob, NodeId(3), ProcId(0), h);
        assert_eq!((n4_pe0.g(), n4_pe0.h()), (6, 2));

        let n4_pe1 = s1.schedule_node(&prob, NodeId(3), ProcId(1), h);
        assert_eq!((n4_pe1.g(), n4_pe1.h()), (8, 2));
    }

    #[test]
    fn ready_set_evolves_with_scheduling() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let s1 = SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), h);
        assert_eq!(s1.ready_nodes(&prob), vec![NodeId(1), NodeId(2), NodeId(3)]);
        // Scheduled-ness is read off the signature words.
        assert!(s1.is_scheduled(NodeId(0)) && !s1.is_scheduled(NodeId(1)));
        assert_eq!(s1.finish_time(NodeId(1)), None);
        let s2 = s1.schedule_node(&prob, NodeId(1), ProcId(0), h);
        let s3 = s2.schedule_node(&prob, NodeId(2), ProcId(1), h);
        // n5 becomes ready only after both n2 and n3 are scheduled.
        assert!(s3.ready_nodes(&prob).contains(&NodeId(4)));
        assert!(!s2.ready_nodes(&prob).contains(&NodeId(4)));
    }

    #[test]
    fn expansion_candidates_with_all_pruning_at_root() {
        let prob = example_problem();
        let s0 = SearchState::initial(&prob);
        let mut stats = SearchStats::default();
        let cands = s0.expansion_candidates(&prob, &PruningConfig::all(), &mut stats);
        // Only n1 is ready and all three empty ring PEs are interchangeable:
        // exactly one state is generated, as in Figure 3.
        assert_eq!(cands, vec![(NodeId(0), ProcId(0))]);
        assert_eq!(stats.pruned_processor_isomorphism, 2);
    }

    #[test]
    fn expansion_candidates_without_pruning_at_root() {
        let prob = example_problem();
        let s0 = SearchState::initial(&prob);
        let mut stats = SearchStats::default();
        let cands = s0.expansion_candidates(&prob, &PruningConfig::none(), &mut stats);
        assert_eq!(cands.len(), 3); // n1 × {PE0, PE1, PE2}
        assert_eq!(stats.total_pruned(), 0);
    }

    /// Figure 3, second expansion: with pruning, only n2 and n4 are tried
    /// (n3 is equivalent to n2) on PE0 and PE1 (PE1/PE2 interchangeable),
    /// giving exactly four candidate states.
    #[test]
    fn fig3_second_expansion_candidates() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let s1 = SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), h);
        let mut stats = SearchStats::default();
        let cands = s1.expansion_candidates(&prob, &PruningConfig::all(), &mut stats);
        assert_eq!(cands.len(), 4);
        let nodes: std::collections::BTreeSet<NodeId> = cands.iter().map(|&(n, _)| n).collect();
        assert_eq!(nodes.into_iter().collect::<Vec<_>>(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(stats.pruned_node_equivalence, 1); // n3 dropped
        assert!(stats.pruned_processor_isomorphism >= 1); // PE2 dropped
        // Priority ordering puts n2 (b+t = 19) before n4 (b+t = 14).
        assert_eq!(cands[0].0, NodeId(1));
    }

    #[test]
    fn goal_state_converts_to_valid_schedule() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let mut s = SearchState::initial(&prob);
        // Schedule everything on PE0 in topological id order.
        for n in prob.graph().node_ids() {
            s = s.schedule_node(&prob, n, ProcId(0), h);
        }
        assert!(s.is_goal(&prob));
        assert_eq!(s.h(), 0, "goal state has no remaining work");
        let schedule = s.to_schedule(&prob);
        schedule.validate(prob.graph(), prob.network()).unwrap();
        assert_eq!(schedule.makespan(), s.g());
        assert_eq!(schedule.makespan(), prob.graph().total_computation());
    }

    #[test]
    fn identical_partial_schedules_share_a_signature() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let s1 = SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), h);
        // Schedule n2 then n4 on different PEs, and n4 then n2: same partial schedule.
        let a = s1
            .schedule_node(&prob, NodeId(1), ProcId(0), h)
            .schedule_node(&prob, NodeId(3), ProcId(1), h);
        let b = s1
            .schedule_node(&prob, NodeId(3), ProcId(1), h)
            .schedule_node(&prob, NodeId(1), ProcId(0), h);
        assert_eq!(a.signature(), b.signature());
        assert_eq!(a.f(), b.f());
        // A genuinely different placement has a different signature.
        let c = s1
            .schedule_node(&prob, NodeId(1), ProcId(1), h)
            .schedule_node(&prob, NodeId(3), ProcId(1), h);
        assert_ne!(a.signature(), c.signature());
    }

    #[test]
    fn tight_heuristic_dominates_paper_heuristic() {
        let prob = example_problem();
        let s1 = SearchState::initial(&prob).schedule_node(
            &prob,
            NodeId(0),
            ProcId(0),
            HeuristicKind::PaperStaticLevel,
        );
        let paper_h = s1.h();
        let tight =
            SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), HeuristicKind::TightStaticLevel);
        assert!(tight.h() >= paper_h);
        let zero =
            SearchState::initial(&prob).schedule_node(&prob, NodeId(0), ProcId(0), HeuristicKind::Zero);
        assert_eq!(zero.h(), 0);
    }

    /// `peek_child` + `apply_delta` must agree with the materialised child on
    /// every observable (the expansion operator is now defined through them).
    #[test]
    fn peek_child_matches_materialised_child() {
        let prob = example_problem();
        for h in [HeuristicKind::PaperStaticLevel, HeuristicKind::TightStaticLevel, HeuristicKind::Zero] {
            let mut state = SearchState::initial(&prob);
            // Walk a fixed trace, checking every step.
            for (n, p) in [(0u32, 0u32), (1, 1), (3, 0), (2, 2), (4, 1)] {
                let (n, p) = (NodeId(n), ProcId(p));
                let delta = state.peek_child(&prob, n, p, h);
                let child = state.schedule_node(&prob, n, p, h);
                assert_eq!(delta.g, child.g(), "{h:?}");
                assert_eq!(delta.h, child.h(), "{h:?}");
                assert_eq!(delta.f(), child.f(), "{h:?}");
                assert_eq!(Some(delta.finish), child.finish_time(n));
                assert_eq!(child.signature(), state.signature().with_assignment(n, p, delta.start));
                let applied = state.apply_delta(&prob, &delta);
                assert_eq!(applied.signature(), child.signature());
                assert_eq!((applied.g(), applied.h()), (child.g(), child.h()));
                assert_eq!(applied.max_finish_node(), child.max_finish_node());
                state = child;
            }
        }
    }

    #[test]
    fn apply_delta_in_place_replays_a_trace() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let trace = [(0u32, 0u32), (1, 0), (2, 1), (3, 2), (4, 1), (5, 0)];
        // Eager chain of full states.
        let mut eager = vec![SearchState::initial(&prob)];
        let mut deltas = Vec::new();
        for &(n, p) in &trace {
            let last = eager.last().unwrap();
            deltas.push(last.peek_child(&prob, NodeId(n), ProcId(p), h));
            eager.push(last.schedule_node(&prob, NodeId(n), ProcId(p), h));
        }
        // Replay onto a reusable scratch state (the arena's materialisation path).
        let mut scratch = SearchState::initial(&prob);
        scratch.copy_from(&eager[0]);
        for (i, d) in deltas.iter().enumerate() {
            scratch.apply_delta_in_place(&prob, d);
            let want = &eager[i + 1];
            assert_eq!(scratch.signature(), want.signature());
            assert_eq!((scratch.g(), scratch.h(), scratch.depth()), (want.g(), want.h(), want.depth()));
            assert_eq!(scratch.ready_nodes(&prob), want.ready_nodes(&prob));
        }
        assert!(scratch.is_goal(&prob));
    }

    /// `to_delta_chain` + replay must reproduce every observable field of the
    /// decomposed state, whatever order the original schedule was built in —
    /// including equal-finish ties, where `max_finish_node` must survive.
    #[test]
    fn delta_chain_replay_reproduces_the_state() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        // Several generation orders, including partial and complete states.
        let traces: &[&[(u32, u32)]] = &[
            &[(0, 0)],
            &[(0, 0), (1, 1), (3, 0)],
            &[(0, 0), (3, 2), (1, 0), (2, 1)],
            &[(0, 0), (1, 0), (2, 1), (3, 2), (4, 1), (5, 0)],
            &[(0, 1), (2, 1), (1, 2), (3, 1), (4, 2), (5, 2)],
        ];
        for trace in traces {
            let mut state = SearchState::initial(&prob);
            for &(n, p) in *trace {
                state = state.schedule_node(&prob, NodeId(n), ProcId(p), h);
            }
            let chain = state.to_delta_chain();
            assert_eq!(chain.len(), trace.len());
            let mut replayed = SearchState::initial(&prob);
            for d in &chain {
                replayed.apply_delta_in_place(&prob, d);
            }
            assert_eq!(replayed.signature(), state.signature(), "{trace:?}");
            assert_eq!((replayed.g(), replayed.h()), (state.g(), state.h()), "{trace:?}");
            assert_eq!(replayed.depth(), state.depth(), "{trace:?}");
            assert_eq!(replayed.max_finish_node(), state.max_finish_node(), "{trace:?}");
            assert_eq!(replayed.ready_nodes(&prob), state.ready_nodes(&prob), "{trace:?}");
            for p in prob.network().proc_ids() {
                assert_eq!(replayed.proc_ready_time(p), state.proc_ready_time(p), "{trace:?}");
            }
            // The replayed state expands identically: same child deltas.
            for n in state.ready_nodes(&prob) {
                for p in prob.network().proc_ids() {
                    assert_eq!(
                        replayed.peek_child(&prob, n, p, h),
                        state.peek_child(&prob, n, p, h),
                        "{trace:?}"
                    );
                }
            }
        }
        assert!(SearchState::initial(&prob).to_delta_chain().is_empty());
    }

    #[test]
    fn copy_from_resets_a_dirty_state_without_alloc() {
        let prob = example_problem();
        let h = HeuristicKind::PaperStaticLevel;
        let root = SearchState::initial(&prob);
        let mut dirty = root.schedule_node(&prob, NodeId(0), ProcId(1), h);
        dirty.copy_from(&root);
        assert_eq!(dirty.signature(), root.signature());
        assert_eq!(dirty.depth(), 0);
        assert_eq!(dirty.proc_ready_time(ProcId(1)), 0);
        assert_eq!(dirty.ready_nodes(&prob), root.ready_nodes(&prob));
    }

    #[test]
    fn heterogeneous_execution_time_in_expansion() {
        let prob = SchedulingProblem::new(
            paper_example_dag(),
            ProcNetwork::fully_connected(2).with_cycle_times(&[1, 2]),
        );
        let h = HeuristicKind::PaperStaticLevel;
        let s0 = SearchState::initial(&prob);
        let fast = s0.schedule_node(&prob, NodeId(0), ProcId(0), h);
        let slow = s0.schedule_node(&prob, NodeId(0), ProcId(1), h);
        assert_eq!(fast.finish_time(NodeId(0)), Some(2));
        assert_eq!(slow.finish_time(NodeId(0)), Some(4));
    }
}
