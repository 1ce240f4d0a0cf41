//! Test-only reference models that the production code is checked against.
//!
//! * [`astar`] — a clone-per-state A\*: every generated state is a full
//!   [`SearchState`] held in OPEN, with no arena, no delta replay, no
//!   refcounting and no path-cache.  It follows the engine's rules (the
//!   `(f, h, FIFO)` order, the upper-bound rule against the list-heuristic
//!   bound, duplicate detection by signature, incumbents tracked at
//!   generation time), so on any instance it must report the engine's
//!   optimum and its expansion, generation and duplicate counts exactly.
//! * [`claims::ClaimModel`] — the parallel CLOSED table's claim
//!   protocol as one `Mutex<HashMap>`: the first claim of a key wins, a
//!   strictly better `g` re-opens it, anything else is a duplicate reporting
//!   the holder.  It imports nothing from the workspace, so the unit tests of
//!   `crates/parallel/src/closed.rs` include the same file.
//!
//! Both follow the idiom of the cache-LRU model in `tests/properties.rs`:
//! small enough to be obviously right, run side by side with the real thing.

#![allow(dead_code)] // each test binary uses its own subset

pub mod claims;

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use optsched::core::{HeuristicKind, PruningConfig, SchedulingProblem, SearchState, SearchStats};
use optsched::taskgraph::Cost;

/// What the reference A\* reports: the optimum and the engine's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReferenceRun {
    pub schedule_length: Cost,
    pub expanded: u64,
    pub generated: u64,
    pub duplicates: u64,
}

/// Clone-per-state A\* over `problem` (see the module docs).
pub fn astar(
    problem: &SchedulingProblem,
    pruning: PruningConfig,
    heuristic: HeuristicKind,
) -> ReferenceRun {
    // `expansion_candidates` reports its pruning counters here; the
    // reference only keeps its own three.
    let mut scratch_stats = SearchStats::default();
    let mut seen = HashSet::new();
    let mut open = BinaryHeap::new();
    let mut states = vec![SearchState::initial(problem)];
    open.push(Reverse((0, 0, 0u64, 0usize)));
    let mut incumbent = problem.upper_bound();
    let (mut expanded, mut generated, mut duplicates) = (0, 1, 0);
    while let Some(Reverse((_, _, _, idx))) = open.pop() {
        let state = states[idx].clone();
        if state.is_goal(problem) {
            incumbent = state.g();
            break;
        }
        expanded += 1;
        for (node, proc) in state.expansion_candidates(problem, &pruning, &mut scratch_stats) {
            let child = state.schedule_node(problem, node, proc, heuristic);
            let f = child.f();
            if pruning.upper_bound_pruning && f > incumbent {
                continue;
            }
            if !seen.insert(child.signature()) {
                duplicates += 1;
                continue;
            }
            if child.is_goal(problem) {
                incumbent = incumbent.min(child.g());
            }
            generated += 1;
            open.push(Reverse((f, child.h(), generated, states.len())));
            states.push(child);
        }
    }
    ReferenceRun {
        schedule_length: incumbent,
        expanded,
        generated,
        duplicates,
    }
}
