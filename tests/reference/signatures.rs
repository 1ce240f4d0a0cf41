//! The serial engine's interned seen-set against a plain
//! `HashSet<StateSignature>`.
//!
//! [`replay`] feeds both the same stream of child signatures, each a parent
//! signature with one assignment added, and checks after every admission
//! that they give the same answer.  Start times and processors come from
//! small ranges, so the stream is dense in exact repeats, in children that
//! differ from a stored signature in one word only, and in children of
//! different parents that land on the same partial schedule.

use std::collections::HashSet;

use optsched::core::engine::{DuplicateFilter, SignatureSet};
use optsched::core::state::StateSignature;
use optsched::core::{SchedulingProblem, SearchState, SearchStats};
use optsched::procnet::{ProcId, ProcNetwork};
use optsched::taskgraph::{Cost, GraphBuilder, NodeId};

/// What one replay saw, identical for the set and the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replay {
    /// Distinct signatures admitted.
    pub distinct: usize,
    /// Admissions rejected as duplicates.
    pub duplicates: u64,
}

/// A SplitMix64 stream: the model needs no more than uniform draws.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replays `admits` random child admissions over signatures of `width`
/// nodes through a [`SignatureSet`] and a `HashSet<StateSignature>`,
/// asserting equal answers at every step and equal `duplicates` counts.
///
/// Parents are random partial schedules over `procs` processors with start
/// times below `starts` (`width` should be at least 4, so that parents with
/// two open nodes exist); every child adds one unscheduled node of its
/// parent.
pub fn replay(width: usize, procs: u32, starts: Cost, admits: usize, seed: u64) -> Replay {
    let mut rng = seed;
    // Any `width`-node problem gives the empty signature to build on.
    let mut b = GraphBuilder::new();
    for _ in 0..width {
        b.add_node(1);
    }
    let problem = SchedulingProblem::new(b.build().unwrap(), ProcNetwork::fully_connected(1));
    let empty = SearchState::initial(&problem).signature();

    // A random assignment of `node`, drawn from the small ranges.
    let assign = |rng: &mut u64, sig: &StateSignature, node: NodeId| {
        let proc = ProcId((splitmix(rng) % u64::from(procs)) as u32);
        sig.with_assignment(node, proc, splitmix(rng) % starts)
    };
    // Two random partial schedules, then parents grown from earlier ones by
    // one assignment each: siblings share all but one or two words, so
    // children of different parents often coincide.
    let mut parents: Vec<(StateSignature, Vec<NodeId>)> = Vec::new();
    while parents.len() < 2 {
        let (mut sig, mut open) = (empty.clone(), Vec::new());
        for n in (0..width as u32).map(NodeId) {
            if splitmix(&mut rng) % 2 == 0 {
                sig = assign(&mut rng, &sig, n);
            } else {
                open.push(n);
            }
        }
        if open.len() >= 2 {
            parents.push((sig, open));
        }
    }
    while parents.len() < 24 {
        let (sig, open) = &parents[(splitmix(&mut rng) % parents.len() as u64) as usize];
        if open.len() < 2 {
            continue;
        }
        let mut open = open.clone();
        let node = open.swap_remove((splitmix(&mut rng) % open.len() as u64) as usize);
        let sig = assign(&mut rng, sig, node);
        parents.push((sig, open));
    }

    let mut set = SignatureSet::new();
    let mut model: HashSet<StateSignature> = HashSet::new();
    let (mut set_stats, mut model_duplicates) = (SearchStats::default(), 0u64);
    for step in 0..admits {
        let (parent, open) = &parents[(splitmix(&mut rng) % parents.len() as u64) as usize];
        let node = open[(splitmix(&mut rng) % open.len() as u64) as usize];
        let proc = ProcId((splitmix(&mut rng) % u64::from(procs)) as u32);
        let start = splitmix(&mut rng) % starts;

        let view = parent.as_parent();
        let child = view.child(node, proc, start);
        let admitted = set.admit(child, 0, &mut set_stats);
        let fresh = model.insert(parent.with_assignment(node, proc, start));
        model_duplicates += u64::from(!fresh);
        assert_eq!(admitted, fresh, "step {step}: set and model disagree on {node:?}");
        assert_eq!(set.len(), model.len(), "step {step}");
    }
    assert_eq!(set_stats.duplicates, model_duplicates);
    Replay { distinct: model.len(), duplicates: model_duplicates }
}
