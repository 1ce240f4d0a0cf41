//! Frontier policies: the per-algorithm part of the unified search engine.
//!
//! The [`run_search`](crate::engine::run_search) loop owns everything the
//! four serial scheduler families share — OPEN/CLOSED bookkeeping, duplicate
//! detection, limit enforcement, incumbent tracking, statistics.  What makes
//! A\*, Aε\*, Chen & Yu branch-and-bound and exhaustive enumeration different
//! algorithms is captured by the [`FrontierPolicy`] trait: how a generated
//! child is *evaluated* (and bound-pruned), and in which *order* frontier
//! states are selected for expansion.  Each policy below is a few dozen
//! lines; adding a new scheduler family means adding one more.
//!
//! **Record size.**  A frontier keeps, per state, only the key it orders by
//! and the state's arena id, not the whole pushed [`OpenEntry`]: an A\*
//! heap item (`(f, h, seq)` key plus id) is 32 bytes, a Chen & Yu or
//! Aε\* `f`-heap item (`(value, seq)` key plus id) 24 bytes, and a
//! depth-first stack item the 4-byte id.  `heap_item_layout_guard` in the
//! tests pins these bounds.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use optsched_taskgraph::Cost;

use crate::engine::arena::StateId;
use crate::problem::SchedulingProblem;
use crate::state::{ChildDelta, SearchState};
use crate::stats::SearchStats;

/// One state entering OPEN: its arena id plus every cost a policy may order
/// by.  Each policy stores only the fields its key uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenEntry {
    /// Arena id of the state.
    pub id: StateId,
    /// `f = g + h` of the state.
    pub f: Cost,
    /// `h` of the state.
    pub h: Cost,
    /// The policy's ordering value ([`FrontierPolicy::evaluate`]'s result):
    /// `f` for the A\* family, the path-matching bound for Chen & Yu, `g`
    /// for the exhaustive enumeration.
    pub value: Cost,
    /// Insertion sequence number (FIFO/LIFO tie-breaking).
    pub seq: u64,
}

/// The pluggable algorithm-specific half of the search engine.
pub trait FrontierPolicy {
    /// Evaluates a freshly generated child (described by `delta`, against its
    /// materialised `parent`).  Returns the child's ordering value, or `None`
    /// to discard it as bound-pruned (counted as
    /// [`SearchStats::pruned_upper_bound`]).
    fn evaluate(
        &mut self,
        problem: &SchedulingProblem,
        parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        stats: &mut SearchStats,
    ) -> Option<Cost>;

    /// Inserts a state into the frontier.
    fn push(&mut self, entry: OpenEntry);

    /// Removes the next state to expand and returns its arena id.
    fn pop(&mut self) -> Option<StateId>;

    /// Current frontier size (may include lazily deleted entries).
    fn open_len(&self) -> usize;

    /// True when the first goal state *popped* from the frontier is provably
    /// final (best-first order with an admissible evaluation).  When false,
    /// popped goals only update the incumbent and the search continues until
    /// the frontier is exhausted (exhaustive enumeration).
    fn goal_on_pop_is_final(&self) -> bool {
        true
    }

    /// Whether goals discovered at *generation* time update the incumbent
    /// immediately (tightening the bound for the rest of the expansion).
    fn track_goals_at_generation(&self) -> bool {
        true
    }

    /// The incumbent length the bound-pruning rule starts from.
    fn initial_incumbent_len(&self, problem: &SchedulingProblem) -> Cost {
        problem.upper_bound()
    }
}

/// A binary min-heap of state ids keyed by `K` (smallest key pops first).
/// An item is the key and the id, nothing else.
///
/// Every heap-ordered OPEN list in the workspace is one of these: the
/// policies below ([`DfsPolicy`] keeps a plain stack) and each PPE of the
/// parallel scheduler, which orders by the same `(f, h, seq)` key as
/// [`AStarPolicy`].
#[derive(Debug)]
pub struct MinHeap<K: Ord> {
    heap: BinaryHeap<Keyed<K>>,
}

#[derive(Debug)]
struct Keyed<K: Ord> {
    key: Reverse<K>,
    id: StateId,
}

impl<K: Ord> PartialEq for Keyed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<K: Ord> Eq for Keyed<K> {}
impl<K: Ord> PartialOrd for Keyed<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord> Ord for Keyed<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<K: Ord> MinHeap<K> {
    /// An empty heap.
    pub fn new() -> MinHeap<K> {
        MinHeap { heap: BinaryHeap::new() }
    }

    /// Inserts state `id` under `key`.
    pub fn push(&mut self, key: K, id: StateId) {
        self.heap.push(Keyed { key: Reverse(key), id });
    }

    /// Removes the smallest-key state and returns its id.
    pub fn pop(&mut self) -> Option<StateId> {
        self.heap.pop().map(|k| k.id)
    }

    /// Removes the smallest-key state and returns it with its key, so a
    /// caller can push it back unchanged.
    pub fn pop_keyed(&mut self) -> Option<(K, StateId)> {
        self.heap.pop().map(|k| (k.key.0, k.id))
    }

    /// The smallest key and its state, without removing it.
    pub fn peek(&self) -> Option<(&K, StateId)> {
        self.heap.peek().map(|k| (&k.key.0, k.id))
    }

    /// Number of states in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when the heap holds no state.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<K: Ord> Default for MinHeap<K> {
    fn default() -> MinHeap<K> {
        MinHeap::new()
    }
}

/// A\* (Section 3.1): best-first on `(f, h, FIFO)`, with the upper-bound
/// pruning rule of Section 3.2 when enabled.
#[derive(Debug)]
pub struct AStarPolicy {
    open: MinHeap<(Cost, Cost, u64)>,
    prune_upper_bound: bool,
}

impl AStarPolicy {
    /// An A\* frontier; `prune_upper_bound` enables the incumbent bound rule.
    pub fn new(prune_upper_bound: bool) -> AStarPolicy {
        AStarPolicy { open: MinHeap::new(), prune_upper_bound }
    }
}

impl FrontierPolicy for AStarPolicy {
    fn evaluate(
        &mut self,
        _problem: &SchedulingProblem,
        _parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        _stats: &mut SearchStats,
    ) -> Option<Cost> {
        let f = delta.f();
        (!self.prune_upper_bound || f <= incumbent_len).then_some(f)
    }

    fn push(&mut self, entry: OpenEntry) {
        self.open.push((entry.value, entry.h, entry.seq), entry.id);
    }

    fn pop(&mut self) -> Option<StateId> {
        self.open.pop()
    }

    fn open_len(&self) -> usize {
        self.open.len()
    }
}

/// Weighted A\* (the classic anytime/bounded-suboptimal variant): best-first
/// on `g + w · h` for a weight `w ≥ 1`, which inflates the heuristic to reach
/// goals sooner at the price of a `w`-bounded deviation from the optimum.
///
/// Everything *except* the ordering stays admissible: the upper-bound rule
/// still prunes on the uninflated `f = g + h`, so the weight never discards a
/// state a weight-1 search would keep — it only visits promising-looking
/// deep states earlier.  That makes the policy ideal under a wall-clock
/// deadline: an interrupted run's incumbent is much more likely to be a real
/// improvement over the list schedule.  At `w = 1` the ordering key
/// `(g + h, h, FIFO)` coincides with [`AStarPolicy`]'s and the search is
/// *bit-identical* to A\* (pinned by the conformance suite).
#[derive(Debug)]
pub struct WeightedAStarPolicy {
    open: MinHeap<(Cost, Cost, u64)>,
    weight: f64,
    prune_upper_bound: bool,
}

impl WeightedAStarPolicy {
    /// A weighted-A\* frontier with the given heuristic weight (`>= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is below 1 or not finite.
    pub fn new(weight: f64, prune_upper_bound: bool) -> WeightedAStarPolicy {
        assert!(weight.is_finite() && weight >= 1.0, "weight must be a finite number >= 1");
        WeightedAStarPolicy { open: MinHeap::new(), weight, prune_upper_bound }
    }

    /// The inflated ordering key `g + round(w · h)`.
    fn inflated(&self, g: Cost, h: Cost) -> Cost {
        g + (self.weight * h as f64).round() as Cost
    }
}

impl FrontierPolicy for WeightedAStarPolicy {
    fn evaluate(
        &mut self,
        _problem: &SchedulingProblem,
        _parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        _stats: &mut SearchStats,
    ) -> Option<Cost> {
        // Prune on the *uninflated* admissible f so the weight cannot cut an
        // optimal path; order by the inflated value.
        let f = delta.f();
        (!self.prune_upper_bound || f <= incumbent_len)
            .then(|| self.inflated(delta.g, delta.h))
    }

    fn push(&mut self, entry: OpenEntry) {
        self.open.push((entry.value, entry.h, entry.seq), entry.id);
    }

    fn pop(&mut self) -> Option<StateId> {
        self.open.pop()
    }

    fn open_len(&self) -> usize {
        self.open.len()
    }
}

/// Largest cost admitted into FOCAL when the smallest OPEN cost is `fmin`.
pub fn focal_threshold(epsilon: f64, fmin: Cost) -> Cost {
    ((fmin as f64) * (1.0 + epsilon)).floor() as Cost
}

/// Sentinel for "no live OPEN entry under this id" in [`FocalPolicy`]'s
/// lazy-deletion table.
const NO_OPEN_SEQ: u64 = u64::MAX;

/// Aε\* (Section 3.4, Pearl & Kim): keeps two lazily synchronised orderings
/// of OPEN — by `f` (for `fmin` and the fallback) and by `(h, f)` — and
/// expands the smallest-`h` state whose `f` is within `(1 + ε) · fmin`
/// (FOCAL), falling back to the smallest-`f` state.
#[derive(Debug)]
pub struct FocalPolicy {
    epsilon: f64,
    prune_upper_bound: bool,
    /// Keyed `(f, seq)`.
    open_f: MinHeap<(Cost, u64)>,
    /// Keyed `(h, f, seq)`.
    open_h: MinHeap<(Cost, Cost, u64)>,
    /// Lazy-deletion marker: the `seq` of the live OPEN entry per state id
    /// ([`NO_OPEN_SEQ`] when the id is closed).  Keyed on `seq` rather than
    /// a boolean because the arena reuses reclaimed ids — a stale twin entry
    /// for a freed-and-reused id must not be mistaken for the new state.
    in_open: Vec<u64>,
}

impl FocalPolicy {
    /// An Aε\* frontier with approximation factor `epsilon`.
    pub fn new(epsilon: f64, prune_upper_bound: bool) -> FocalPolicy {
        FocalPolicy {
            epsilon,
            prune_upper_bound,
            open_f: MinHeap::new(),
            open_h: MinHeap::new(),
            in_open: Vec::new(),
        }
    }

    fn is_open(&self, id: StateId, seq: u64) -> bool {
        self.in_open.get(id as usize).copied() == Some(seq)
    }

    fn mark(&mut self, id: StateId, seq: u64) {
        let i = id as usize;
        if i >= self.in_open.len() {
            self.in_open.resize(i + 1, NO_OPEN_SEQ);
        }
        self.in_open[i] = seq;
    }
}

impl FrontierPolicy for FocalPolicy {
    fn evaluate(
        &mut self,
        _problem: &SchedulingProblem,
        _parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        _stats: &mut SearchStats,
    ) -> Option<Cost> {
        let f = delta.f();
        (!self.prune_upper_bound || f <= incumbent_len).then_some(f)
    }

    fn push(&mut self, entry: OpenEntry) {
        self.mark(entry.id, entry.seq);
        self.open_f.push((entry.f, entry.seq), entry.id);
        self.open_h.push((entry.h, entry.f, entry.seq), entry.id);
    }

    fn pop(&mut self) -> Option<StateId> {
        // Clean stale entries from the f-ordered heap and read fmin.
        let fmin = loop {
            match self.open_f.peek() {
                None => return None,
                Some((&(f, seq), id)) if self.is_open(id, seq) => break f,
                Some(_) => {
                    self.open_f.pop();
                }
            }
        };
        let threshold = focal_threshold(self.epsilon, fmin);

        // Prefer the smallest-h state within FOCAL; fall back to the
        // smallest-f state (which is trivially in FOCAL).
        let mut chosen: Option<StateId> = None;
        while let Some((&(_, f, seq), id)) = self.open_h.peek() {
            if !self.is_open(id, seq) {
                self.open_h.pop();
                continue;
            }
            if f <= threshold {
                self.open_h.pop();
                chosen = Some(id);
            }
            break;
        }
        let id = match chosen {
            Some(id) => id,
            None => self.open_f.pop().expect("fmin was just observed"),
        };
        self.mark(id, NO_OPEN_SEQ);
        Some(id)
    }

    fn open_len(&self) -> usize {
        self.open_f.len()
    }
}

/// Branch-and-bound with an expensive underestimate (Chen & Yu): best-first
/// on the bound computed by the supplied evaluator — for the paper's
/// baseline, explicit execution-path enumeration matched against the
/// processor graph.  Elimination is against incumbents found by the search
/// itself (no external upper bound), hence the infinite initial incumbent.
#[derive(Debug)]
pub struct BoundPolicy<F> {
    open: MinHeap<(Cost, u64)>,
    bound: F,
}

impl<F> BoundPolicy<F>
where
    F: FnMut(&SchedulingProblem, &SearchState, &ChildDelta, &mut SearchStats) -> Cost,
{
    /// A branch-and-bound frontier ordered by `bound`'s result.
    pub fn new(bound: F) -> BoundPolicy<F> {
        BoundPolicy { open: MinHeap::new(), bound }
    }
}

impl<F> FrontierPolicy for BoundPolicy<F>
where
    F: FnMut(&SchedulingProblem, &SearchState, &ChildDelta, &mut SearchStats) -> Cost,
{
    fn evaluate(
        &mut self,
        problem: &SchedulingProblem,
        parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        stats: &mut SearchStats,
    ) -> Option<Cost> {
        let bound = (self.bound)(problem, parent, delta, stats);
        (bound <= incumbent_len).then_some(bound)
    }

    fn push(&mut self, entry: OpenEntry) {
        self.open.push((entry.value, entry.seq), entry.id);
    }

    fn pop(&mut self) -> Option<StateId> {
        self.open.pop()
    }

    fn open_len(&self) -> usize {
        self.open.len()
    }

    fn initial_incumbent_len(&self, _problem: &SchedulingProblem) -> Cost {
        Cost::MAX
    }
}

/// Exhaustive depth-first enumeration: LIFO order, prune only against the
/// best complete schedule found so far (exact because `g` never decreases
/// along a path).  Goals never terminate the search — exhausting the
/// frontier is the optimality proof.
#[derive(Debug, Default)]
pub struct DfsPolicy {
    stack: Vec<StateId>,
}

impl DfsPolicy {
    /// An empty depth-first frontier.
    pub fn new() -> DfsPolicy {
        DfsPolicy::default()
    }
}

impl FrontierPolicy for DfsPolicy {
    fn evaluate(
        &mut self,
        problem: &SchedulingProblem,
        parent: &SearchState,
        delta: &ChildDelta,
        incumbent_len: Cost,
        _stats: &mut SearchStats,
    ) -> Option<Cost> {
        let is_goal = usize::from(parent.depth()) + 1 == problem.num_nodes();
        if delta.g > incumbent_len || (is_goal && delta.g >= incumbent_len) {
            return None;
        }
        Some(delta.g)
    }

    fn push(&mut self, entry: OpenEntry) {
        self.stack.push(entry.id);
    }

    fn pop(&mut self) -> Option<StateId> {
        self.stack.pop()
    }

    fn open_len(&self) -> usize {
        self.stack.len()
    }

    fn goal_on_pop_is_final(&self) -> bool {
        false
    }

    fn track_goals_at_generation(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: StateId, f: Cost, h: Cost, seq: u64) -> OpenEntry {
        OpenEntry { id, f, h, value: f, seq }
    }

    #[test]
    fn astar_policy_orders_by_f_then_h_then_fifo() {
        let mut p = AStarPolicy::new(true);
        p.push(entry(0, 5, 3, 0));
        p.push(entry(1, 4, 9, 1));
        p.push(entry(2, 4, 2, 2));
        p.push(entry(3, 4, 2, 3));
        assert_eq!(p.open_len(), 4);
        let order: Vec<StateId> = std::iter::from_fn(|| p.pop()).collect();
        assert_eq!(order, vec![2, 3, 1, 0]);
    }

    #[test]
    fn weighted_policy_at_one_orders_like_astar() {
        let mut w = WeightedAStarPolicy::new(1.0, true);
        let mut a = AStarPolicy::new(true);
        for e in [entry(0, 5, 3, 0), entry(1, 4, 9, 1), entry(2, 4, 2, 2)] {
            w.push(e);
            a.push(e);
        }
        let worder: Vec<StateId> = std::iter::from_fn(|| w.pop()).collect();
        let aorder: Vec<StateId> = std::iter::from_fn(|| a.pop()).collect();
        assert_eq!(worder, aorder);
    }

    #[test]
    fn weighted_policy_inflates_only_the_ordering() {
        let mut p = WeightedAStarPolicy::new(2.0, true);
        assert_eq!(p.inflated(4, 3), 10);
        // value = g + 2h: a deep state (small h) overtakes a shallow one with
        // equal f.
        p.push(OpenEntry { id: 0, f: 10, h: 8, value: 2 + 16, seq: 0 });
        p.push(OpenEntry { id: 1, f: 10, h: 1, value: 9 + 2, seq: 1 });
        assert_eq!(p.pop().unwrap(), 1);
        assert_eq!(p.pop().unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "weight must be")]
    fn weighted_policy_rejects_weights_below_one() {
        let _ = WeightedAStarPolicy::new(0.5, true);
    }

    #[test]
    fn focal_threshold_rounds_down() {
        assert_eq!(focal_threshold(0.2, 10), 12);
        assert_eq!(focal_threshold(0.2, 14), 16); // 16.8 -> 16
        assert_eq!(focal_threshold(0.0, 7), 7);
    }

    #[test]
    fn focal_policy_prefers_small_h_within_the_bound() {
        let mut p = FocalPolicy::new(0.5, true);
        p.push(entry(0, 10, 9, 0)); // fmin, large h
        p.push(entry(1, 14, 1, 1)); // inside FOCAL (14 <= 15), smallest h
        p.push(entry(2, 16, 5, 2)); // outside FOCAL
        assert_eq!(p.pop().unwrap(), 1);
        // Now the h-ordered top is entry 2 (h = 5) but its f is above
        // floor(10 * 1.5) = 15: the policy only inspects the top of the
        // h-ordered heap, so it falls back to the smallest-f state (id 0).
        assert_eq!(p.pop().unwrap(), 0);
        assert_eq!(p.pop().unwrap(), 2);
        assert!(p.pop().is_none());
    }

    #[test]
    fn focal_policy_at_zero_epsilon_is_astar_like_on_f() {
        let mut p = FocalPolicy::new(0.0, true);
        p.push(entry(0, 5, 5, 0));
        p.push(entry(1, 5, 1, 1));
        p.push(entry(2, 7, 0, 2));
        // FOCAL = { f == 5 }: the h-ordered top is id 2 (h = 0) but f = 7 > 5,
        // so the fallback pops the smallest-f entry (id 0, FIFO before 1).
        assert_eq!(p.pop().unwrap(), 0);
        assert_eq!(p.pop().unwrap(), 1);
        assert_eq!(p.pop().unwrap(), 2);
    }

    /// A heap item stays at 32 bytes: a field that re-inflates it fails here.
    #[test]
    fn heap_item_layout_guard() {
        let astar = std::mem::size_of::<Keyed<(Cost, Cost, u64)>>();
        assert!(astar <= 32, "{astar} bytes");
        assert!(std::mem::size_of::<Keyed<(Cost, u64)>>() <= 24);
    }

    #[test]
    fn dfs_policy_is_lifo_and_goals_do_not_finalise() {
        let mut p = DfsPolicy::new();
        p.push(entry(0, 1, 0, 0));
        p.push(entry(1, 2, 0, 1));
        assert!(!p.goal_on_pop_is_final());
        assert!(!p.track_goals_at_generation());
        assert_eq!(p.pop().unwrap(), 1);
        assert_eq!(p.pop().unwrap(), 0);
    }
}
