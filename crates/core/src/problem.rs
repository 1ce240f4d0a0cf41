//! The [`SchedulingProblem`]: a task graph, a processor network and the
//! precomputed attributes shared by every search algorithm.

use optsched_listsched::upper_bound_schedule;
use optsched_procnet::{CommModel, ProcId, ProcNetwork};
use optsched_schedule::Schedule;
use optsched_taskgraph::{Cost, GraphLevels, NodeId, TaskGraph};

/// Ceiling on the worst-case makespan of an accepted instance (2^53).
///
/// Every cost the schedulers compute — start and finish times, static
/// levels, `f = g + h`, the Chen & Yu bound — is at most a small multiple of
/// the worst-case makespan, so below this ceiling no cost arithmetic can
/// overflow `u64`, and every cost is exactly representable in the `f64` that
/// Aε\*'s FOCAL threshold and weighted A\*'s ordering compute in.
pub const MAX_WORST_CASE_MAKESPAN: Cost = 1 << 53;

/// The worst-case makespan of scheduling `graph` on `network`: every task
/// run back to back at the slowest cycle time plus every edge paid at its
/// largest possible delay, `Σ w(n) · max cycle time + Σ c(e) · max delay
/// factor` (the factor is 1 under uniform latency, the network's largest hop
/// distance when delays scale with hops).  No schedule the list heuristic or
/// any search builds, complete or partial, ends later.  `None` when the sum
/// overflows `u64`.
fn worst_case_makespan(graph: &TaskGraph, network: &ProcNetwork) -> Option<Cost> {
    let max_cycle = network.proc_ids().map(|p| network.processor(p).cycle_time).max().unwrap_or(1);
    let delay_factor = match network.comm_model() {
        CommModel::UniformLatency => 1,
        CommModel::HopScaled => network
            .proc_ids()
            .flat_map(|a| network.proc_ids().map(move |b| network.hops(a, b)))
            .max()
            .map_or(1, |h| u64::from(h.max(1))),
    };
    let work = graph
        .node_ids()
        .try_fold(0u64, |sum, n| sum.checked_add(graph.weight(n).checked_mul(max_cycle)?))?;
    graph
        .edges()
        .iter()
        .try_fold(work, |sum, e| sum.checked_add(e.weight.checked_mul(delay_factor)?))
}

/// Accepts `graph` on `network` only if its worst-case makespan — every
/// task run back to back at the slowest cycle time plus every edge paid at
/// its largest possible delay — fits under [`MAX_WORST_CASE_MAKESPAN`].
/// Every front end — the service's wire format and the CLI — calls this
/// before [`SchedulingProblem::new`], whose cost arithmetic it makes
/// overflow-free; a rejection carries a message for the caller's structured
/// error.
pub fn check_cost_ceiling(graph: &TaskGraph, network: &ProcNetwork) -> Result<(), String> {
    match worst_case_makespan(graph, network) {
        Some(worst) if worst <= MAX_WORST_CASE_MAKESPAN => Ok(()),
        worst => Err(format!(
            "instance rejected: its worst-case makespan ({}) exceeds the cost ceiling \
             of {MAX_WORST_CASE_MAKESPAN} (Σ node weight × max cycle time + Σ edge weight × \
             max delay factor)",
            worst.map_or_else(|| "more than u64::MAX".to_string(), |w| w.to_string())
        )),
    }
}

/// An instance of the static scheduling problem of Section 2: schedule every
/// node of `graph` onto `network` so that the schedule length is minimal and
/// all precedence constraints are met.
///
/// The struct also carries everything the searches precompute once per
/// instance: the level attributes, the node-equivalence representatives
/// (Definition 3), the interchangeability classes of the processors
/// (Definition 2) and the upper-bound schedule of the list heuristic.
#[derive(Debug, Clone)]
pub struct SchedulingProblem {
    graph: TaskGraph,
    network: ProcNetwork,
    levels: GraphLevels,
    /// For every node, the smallest node id it is equivalent to (itself if none).
    equivalence_rep: Vec<NodeId>,
    /// For every processor, the smallest processor id it is interchangeable with.
    interchange_rep: Vec<ProcId>,
    /// The list-heuristic schedule used as the upper bound `U`.
    upper_bound_schedule: Schedule,
}

impl SchedulingProblem {
    /// Builds a problem instance and performs all per-instance precomputation.
    pub fn new(graph: TaskGraph, network: ProcNetwork) -> SchedulingProblem {
        let levels = GraphLevels::compute(&graph);

        let mut equivalence_rep: Vec<NodeId> = graph.node_ids().collect();
        for class in graph.equivalence_classes() {
            let rep = class[0];
            for &n in &class {
                equivalence_rep[n.index()] = rep;
            }
        }

        let mut interchange_rep: Vec<ProcId> = network.proc_ids().collect();
        for class in network.interchangeability_classes() {
            let rep = class[0];
            for &p in &class {
                interchange_rep[p.index()] = rep;
            }
        }

        let ub = upper_bound_schedule(&graph, &network);
        SchedulingProblem {
            graph,
            network,
            levels,
            equivalence_rep,
            interchange_rep,
            upper_bound_schedule: ub,
        }
    }

    /// The task graph.
    #[inline]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The target processor network.
    #[inline]
    pub fn network(&self) -> &ProcNetwork {
        &self.network
    }

    /// The precomputed level attributes.
    #[inline]
    pub fn levels(&self) -> &GraphLevels {
        &self.levels
    }

    /// Number of task nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Number of target processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.network.num_procs()
    }

    /// The priority used to order ready nodes: b-level + t-level.
    #[inline]
    pub fn priority(&self, n: NodeId) -> Cost {
        self.levels.b_plus_t(n)
    }

    /// The smallest node id equivalent to `n` under Definition 3.
    #[inline]
    pub fn equivalence_representative(&self, n: NodeId) -> NodeId {
        self.equivalence_rep[n.index()]
    }

    /// The smallest processor id interchangeable with `p` under Definition 2(i).
    #[inline]
    pub fn interchange_representative(&self, p: ProcId) -> ProcId {
        self.interchange_rep[p.index()]
    }

    /// The schedule produced by the linear-time upper-bound heuristic.
    pub fn upper_bound_schedule(&self) -> &Schedule {
        &self.upper_bound_schedule
    }

    /// The upper bound `U` on the optimal schedule length.
    pub fn upper_bound(&self) -> Cost {
        self.upper_bound_schedule.makespan()
    }

    /// A simple lower bound on the optimal schedule length (the static
    /// critical path); used for sanity checks and progress reporting.
    pub fn lower_bound(&self) -> Cost {
        self.graph.schedule_length_lower_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use optsched_procnet::ProcNetwork;
    use optsched_taskgraph::paper_example_dag;

    #[test]
    fn cost_ceiling_accepts_real_instances_and_rejects_overflowing_ones() {
        let net = ProcNetwork::ring(3);
        let example = paper_example_dag();
        let worst = worst_case_makespan(&example, &net).unwrap();
        let comm: Cost = example.edges().iter().map(|e| e.weight).sum();
        assert_eq!(worst, example.total_computation() + comm);
        assert!(check_cost_ceiling(&example, &net).is_ok());

        // The two-node chain of `u64::MAX` weights that once panicked the
        // list scheduler: its worst case does not even fit in a u64.
        let mut b = optsched_taskgraph::GraphBuilder::new();
        let (x, y) = (b.add_node(u64::MAX), b.add_node(u64::MAX));
        b.add_edge(x, y, u64::MAX).unwrap();
        let huge = b.build().unwrap();
        assert_eq!(worst_case_makespan(&huge, &net), None);
        let err = check_cost_ceiling(&huge, &net).unwrap_err();
        assert!(err.contains("cost ceiling"), "{err}");

        // Exactly at the ceiling is accepted, one past it is not; cycle
        // times and hop-scaled delays count.
        let single = |w| {
            let mut b = optsched_taskgraph::GraphBuilder::new();
            b.add_node(w);
            b.build().unwrap()
        };
        let one = ProcNetwork::fully_connected(1);
        assert!(check_cost_ceiling(&single(MAX_WORST_CASE_MAKESPAN), &one).is_ok());
        assert!(check_cost_ceiling(&single(MAX_WORST_CASE_MAKESPAN + 1), &one).is_err());
        let slow = ProcNetwork::fully_connected(2).with_cycle_times(&[1, 4]);
        assert_eq!(worst_case_makespan(&single(5), &slow), Some(20));
        let chain = ProcNetwork::chain(4).with_comm_model(CommModel::HopScaled);
        let mut b = optsched_taskgraph::GraphBuilder::new();
        let (x, y) = (b.add_node(1), b.add_node(1));
        b.add_edge(x, y, 10).unwrap();
        assert_eq!(worst_case_makespan(&b.build().unwrap(), &chain), Some(2 + 10 * 3));
    }

    #[test]
    fn precomputations_on_the_example() {
        let p = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        assert_eq!(p.num_nodes(), 6);
        assert_eq!(p.num_procs(), 3);
        // n2 and n3 are equivalent; n3's representative is n2.
        assert_eq!(p.equivalence_representative(NodeId(2)), NodeId(1));
        assert_eq!(p.equivalence_representative(NodeId(1)), NodeId(1));
        assert_eq!(p.equivalence_representative(NodeId(0)), NodeId(0));
        // All three ring PEs are interchangeable.
        for pe in p.network().proc_ids() {
            assert_eq!(p.interchange_representative(pe), ProcId(0));
        }
        // Bounds bracket the optimum (14).
        assert!(p.lower_bound() <= 14);
        assert!(p.upper_bound() >= 14);
        assert_eq!(p.priority(NodeId(0)), 19);
        assert_eq!(p.priority(NodeId(3)), 14);
    }

    #[test]
    fn upper_bound_schedule_is_valid() {
        let p = SchedulingProblem::new(paper_example_dag(), ProcNetwork::ring(3));
        p.upper_bound_schedule().validate(p.graph(), p.network()).unwrap();
        assert_eq!(p.upper_bound(), p.upper_bound_schedule().makespan());
    }

    #[test]
    fn star_network_representatives() {
        let p = SchedulingProblem::new(paper_example_dag(), ProcNetwork::star(4));
        assert_eq!(p.interchange_representative(ProcId(0)), ProcId(0));
        assert_eq!(p.interchange_representative(ProcId(2)), ProcId(1));
        assert_eq!(p.interchange_representative(ProcId(3)), ProcId(1));
    }
}
