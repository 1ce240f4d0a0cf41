//! The processor network: processors, links, hop distances and the
//! communication-cost model.

use serde::{Deserialize, Serialize};

use crate::topology::Topology;

/// Largest number of processors a [`ProcNetwork`] may have (1024): the
/// search packs a processor index into the 10 bits above the 54-bit start
/// time of a state-signature word.  Every constructor checks the count
/// first, before any work that grows with it — all-pairs hop distances are
/// quadratic in memory and cubic in time on a fully connected network.
pub const MAX_PROCS: usize = 1024;

/// Identifier of a target processing element (TPE). Dense indices `0..p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcId(pub u32);

impl ProcId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PE{}", self.0)
    }
}

/// A single processing element.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Processor {
    /// Time a unit of computation takes on this processor.  A homogeneous
    /// system uses `1` everywhere; a processor with `cycle_time = 2` runs
    /// every task twice as slowly as the reference processor.
    pub cycle_time: u64,
    /// Optional human-readable label.
    pub label: Option<String>,
}

impl Default for Processor {
    fn default() -> Self {
        Processor { cycle_time: 1, label: None }
    }
}

/// How a task-graph edge weight is converted into an inter-processor
/// communication delay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CommModel {
    /// The classic model used by the paper's cost function: the delay equals
    /// the edge weight whenever the two tasks are on *different* processors
    /// and zero when they are co-located.  Link homogeneity means the delay
    /// does not depend on which pair of processors is involved.
    #[default]
    UniformLatency,
    /// The delay is the edge weight multiplied by the hop distance between
    /// the two processors (store-and-forward routing).  Used to model sparser
    /// topologies more faithfully and by the Chen & Yu style bound, which
    /// matches execution paths against the processor graph.
    HopScaled,
}

/// An immutable processor network.
///
/// # Wire format
///
/// `ProcNetwork` (de)serialises as
/// `{"procs": [...], "links": [[a, b], ...], "comm_model": ..., "topology": ...}`
/// — the canonical parts only; the adjacency lists and the all-pairs hop
/// distances are recomputed on deserialisation through
/// [`ProcNetwork::try_from_parts`], which rejects out-of-range endpoints and
/// self links with a clear message instead of panicking or accepting an
/// inconsistent network.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcNetwork {
    procs: Vec<Processor>,
    /// Sorted neighbour lists.
    adj: Vec<Vec<ProcId>>,
    /// All-pairs hop distances (`u32::MAX` = unreachable).
    dist: Vec<Vec<u32>>,
    comm_model: CommModel,
    topology: Option<Topology>,
}

impl ProcNetwork {
    /// Builds a network of `p` homogeneous processors with the given topology.
    ///
    /// # Panics
    ///
    /// Panics if `p` is 0 or above [`MAX_PROCS`]; use
    /// [`ProcNetwork::try_with_topology`] for a count from outside the
    /// program.
    pub fn with_topology(topology: Topology, p: usize) -> ProcNetwork {
        Self::try_with_topology(topology, p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`ProcNetwork::with_topology`]: a processor count
    /// of 0 or above [`MAX_PROCS`] is refused before any link is generated.
    pub fn try_with_topology(topology: Topology, p: usize) -> Result<ProcNetwork, String> {
        check_proc_count(p)?;
        Self::try_from_parts(vec![Processor::default(); p], topology.edges(p), Some(topology))
    }

    /// `p` homogeneous, fully connected processors.
    pub fn fully_connected(p: usize) -> ProcNetwork {
        Self::with_topology(Topology::FullyConnected, p)
    }

    /// `p` homogeneous processors in a ring (the 3-processor target of
    /// Figure 1(b) is `ProcNetwork::ring(3)`).
    pub fn ring(p: usize) -> ProcNetwork {
        Self::with_topology(Topology::Ring, p)
    }

    /// `p` homogeneous processors in a chain.
    pub fn chain(p: usize) -> ProcNetwork {
        Self::with_topology(Topology::Chain, p)
    }

    /// A `rows x cols` homogeneous mesh.
    pub fn mesh(rows: usize, cols: usize) -> ProcNetwork {
        Self::with_topology(Topology::Mesh { rows, cols }, rows * cols)
    }

    /// A homogeneous hypercube with `p` processors (`p` must be a power of two).
    pub fn hypercube(p: usize) -> ProcNetwork {
        Self::with_topology(Topology::Hypercube, p)
    }

    /// A homogeneous star with processor 0 as hub.
    pub fn star(p: usize) -> ProcNetwork {
        Self::with_topology(Topology::Star, p)
    }

    /// Builds an arbitrary network from a processor list and an undirected
    /// edge list.
    ///
    /// # Panics
    ///
    /// Panics on an empty or too long ([`MAX_PROCS`]) processor list,
    /// out-of-range endpoints or self links; use
    /// [`ProcNetwork::try_from_parts`] for fallible construction from
    /// untrusted input (the wire format does).
    pub fn from_parts(
        procs: Vec<Processor>,
        edges: Vec<(usize, usize)>,
        topology: Option<Topology>,
    ) -> ProcNetwork {
        match Self::try_from_parts(procs, edges, topology) {
            Ok(net) => net,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`ProcNetwork::from_parts`]: returns a message
    /// naming the violated invariant instead of panicking.
    pub fn try_from_parts(
        procs: Vec<Processor>,
        edges: Vec<(usize, usize)>,
        topology: Option<Topology>,
    ) -> Result<ProcNetwork, String> {
        let p = procs.len();
        check_proc_count(p)?;
        let mut adj: Vec<Vec<ProcId>> = vec![Vec::new(); p];
        for &(a, b) in &edges {
            if a >= p || b >= p {
                return Err(format!("edge ({a}, {b}) references an unknown processor"));
            }
            if a == b {
                return Err(format!("self links are not allowed (PE{a})"));
            }
            if !adj[a].contains(&ProcId(b as u32)) {
                adj[a].push(ProcId(b as u32));
                adj[b].push(ProcId(a as u32));
            }
        }
        for list in &mut adj {
            list.sort_unstable();
        }
        let dist = all_pairs_hops(&adj);
        Ok(ProcNetwork { procs, adj, dist, comm_model: CommModel::UniformLatency, topology })
    }

    /// The undirected link list of the processor graph, each link reported
    /// once with its smaller endpoint first, sorted.  Together with the
    /// processor list and the communication model this is the canonical form
    /// the wire format serialises (and the instance signature hashes).
    pub fn links(&self) -> Vec<(usize, usize)> {
        let mut links = Vec::new();
        for a in self.proc_ids() {
            for &b in self.neighbors(a) {
                if a < b {
                    links.push((a.index(), b.index()));
                }
            }
        }
        links
    }

    /// Returns a copy of this network using the given communication model.
    pub fn with_comm_model(mut self, model: CommModel) -> ProcNetwork {
        self.comm_model = model;
        self
    }

    /// Returns a copy of this network with per-processor cycle times
    /// (heterogeneous speeds). `cycle_times.len()` must equal the processor count.
    pub fn with_cycle_times(mut self, cycle_times: &[u64]) -> ProcNetwork {
        assert_eq!(cycle_times.len(), self.procs.len());
        assert!(cycle_times.iter().all(|&c| c > 0), "cycle times must be positive");
        for (p, &c) in self.procs.iter_mut().zip(cycle_times) {
            p.cycle_time = c;
        }
        self
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Iterator over all processor ids.
    pub fn proc_ids(&self) -> impl Iterator<Item = ProcId> + '_ {
        (0..self.procs.len() as u32).map(ProcId)
    }

    /// The processor record.
    #[inline]
    pub fn processor(&self, p: ProcId) -> &Processor {
        &self.procs[p.index()]
    }

    /// The topology this network was created from, if it was a named one.
    pub fn topology(&self) -> Option<Topology> {
        self.topology
    }

    /// The communication model in force.
    pub fn comm_model(&self) -> CommModel {
        self.comm_model
    }

    /// Sorted neighbour list of `p`.
    #[inline]
    pub fn neighbors(&self, p: ProcId) -> &[ProcId] {
        &self.adj[p.index()]
    }

    /// Degree of `p` in the processor graph.
    #[inline]
    pub fn degree(&self, p: ProcId) -> usize {
        self.adj[p.index()].len()
    }

    /// Hop distance between `a` and `b` (0 if equal, `u32::MAX` if unreachable).
    #[inline]
    pub fn hops(&self, a: ProcId, b: ProcId) -> u32 {
        self.dist[a.index()][b.index()]
    }

    /// True if every processor can reach every other processor.
    pub fn is_connected(&self) -> bool {
        self.dist.iter().all(|row| row.iter().all(|&d| d != u32::MAX))
    }

    /// True if all processors have the same speed.
    pub fn is_homogeneous(&self) -> bool {
        self.procs.windows(2).all(|w| w[0].cycle_time == w[1].cycle_time)
    }

    /// Execution time of a task with computation cost `weight` on processor `p`.
    #[inline]
    pub fn exec_time(&self, weight: u64, p: ProcId) -> u64 {
        weight * self.procs[p.index()].cycle_time
    }

    /// Communication delay for a task-graph edge of weight `comm` when the
    /// parent runs on `from` and the child on `to`.
    #[inline]
    pub fn comm_cost(&self, comm: u64, from: ProcId, to: ProcId) -> u64 {
        if from == to {
            return 0;
        }
        match self.comm_model {
            CommModel::UniformLatency => comm,
            CommModel::HopScaled => comm * u64::from(self.hops(from, to).max(1)),
        }
    }

    /// True if swapping processors `a` and `b` (leaving everything else in
    /// place) is an automorphism of the processor graph and both processors
    /// run at the same speed.
    ///
    /// This is the structural half of the paper's *processor isomorphism*
    /// pruning rule (Definition 2(i): same degree and same neighbourhood);
    /// the scheduler additionally requires both processors to be empty
    /// (Definition 2(ii)) before collapsing them.  Requiring a genuine
    /// transposition automorphism keeps the pruning *safe*: any schedule that
    /// uses `b` can be relabelled to use `a` with identical timing.
    pub fn interchangeable(&self, a: ProcId, b: ProcId) -> bool {
        if a == b {
            return true;
        }
        if self.procs[a.index()].cycle_time != self.procs[b.index()].cycle_time {
            return false;
        }
        if self.degree(a) != self.degree(b) {
            return false;
        }
        // Neighbour sets must coincide once the two processors themselves are
        // ignored (so that e.g. all PEs of a triangle/fully-connected network
        // are pairwise interchangeable).
        let na: Vec<ProcId> = self.neighbors(a).iter().copied().filter(|&x| x != b).collect();
        let nb: Vec<ProcId> = self.neighbors(b).iter().copied().filter(|&x| x != a).collect();
        na == nb
    }

    /// Groups all processors into interchangeability classes (transitive
    /// closure of [`ProcNetwork::interchangeable`] applied pairwise).
    ///
    /// The relation as defined is reflexive and symmetric; for the symmetric
    /// topologies used in practice (fully connected, star leaves, K3 ring) it
    /// is also transitive.  The grouping below unions pairwise-related
    /// processors, which is what the search uses to pick one representative
    /// empty processor per class.
    pub fn interchangeability_classes(&self) -> Vec<Vec<ProcId>> {
        let p = self.num_procs();
        let mut class_of: Vec<Option<usize>> = vec![None; p];
        let mut classes: Vec<Vec<ProcId>> = Vec::new();
        for i in self.proc_ids() {
            if class_of[i.index()].is_some() {
                continue;
            }
            let idx = classes.len();
            class_of[i.index()] = Some(idx);
            let mut members = vec![i];
            for j in self.proc_ids() {
                if j > i && class_of[j.index()].is_none() && self.interchangeable(i, j) {
                    class_of[j.index()] = Some(idx);
                    members.push(j);
                }
            }
            classes.push(members);
        }
        classes
    }
}

impl serde::Serialize for ProcNetwork {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("procs".to_string(), self.procs.to_value()),
            ("links".to_string(), self.links().to_value()),
            ("comm_model".to_string(), self.comm_model.to_value()),
            ("topology".to_string(), self.topology.to_value()),
        ])
    }
}

impl serde::Deserialize for ProcNetwork {
    fn from_value(v: &serde::Value) -> Result<ProcNetwork, serde::Error> {
        let pairs = v.as_object().ok_or_else(|| {
            serde::Error::custom(format!(
                "expected an object for `ProcNetwork`, found {}",
                v.type_name()
            ))
        })?;
        let field = |name: &str| serde::__field(pairs, name);
        let procs = Vec::<Processor>::from_value(field("procs"))
            .map_err(|e| serde::Error::custom(format!("field `procs` of `ProcNetwork`: {e}")))?;
        let links = Vec::<(usize, usize)>::from_value(field("links"))
            .map_err(|e| serde::Error::custom(format!("field `links` of `ProcNetwork`: {e}")))?;
        let comm_model = match field("comm_model") {
            serde::Value::Null => CommModel::default(),
            other => CommModel::from_value(other)
                .map_err(|e| serde::Error::custom(format!("field `comm_model`: {e}")))?,
        };
        let topology = Option::<Topology>::from_value(field("topology"))
            .map_err(|e| serde::Error::custom(format!("field `topology`: {e}")))?;
        if procs.iter().any(|p| p.cycle_time == 0) {
            return Err(serde::Error::custom("invalid `ProcNetwork`: cycle times must be positive"));
        }
        ProcNetwork::try_from_parts(procs, links, topology)
            .map(|net| net.with_comm_model(comm_model))
            .map_err(|e| serde::Error::custom(format!("invalid `ProcNetwork`: {e}")))
    }
}

/// Accepts a processor count between 1 and [`MAX_PROCS`].
fn check_proc_count(p: usize) -> Result<(), String> {
    if p == 0 {
        return Err("a processor network needs at least one processor".to_string());
    }
    if p > MAX_PROCS {
        return Err(format!("{p} processors exceed the limit of {MAX_PROCS}"));
    }
    Ok(())
}

/// BFS from every processor over the neighbour lists.
fn all_pairs_hops(adj: &[Vec<ProcId>]) -> Vec<Vec<u32>> {
    let p = adj.len();
    let mut dist = vec![vec![u32::MAX; p]; p];
    let mut queue = std::collections::VecDeque::new();
    for (s, row) in dist.iter_mut().enumerate() {
        row[s] = 0;
        queue.clear();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            let du = row[u];
            for &v in &adj[u] {
                if row[v.index()] == u32::MAX {
                    row[v.index()] = du + 1;
                    queue.push_back(v.index());
                }
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring3_all_pairs_interchangeable() {
        let net = ProcNetwork::ring(3);
        for a in net.proc_ids() {
            for b in net.proc_ids() {
                assert!(net.interchangeable(a, b), "{a} vs {b}");
            }
        }
        assert_eq!(net.interchangeability_classes().len(), 1);
    }

    #[test]
    fn ring4_adjacent_not_interchangeable() {
        let net = ProcNetwork::ring(4);
        // In a 4-ring, swapping two adjacent PEs is not an automorphism that
        // fixes the rest: PE0's other neighbour is PE3, PE1's is PE2.
        assert!(!net.interchangeable(ProcId(0), ProcId(1)));
        // Swapping opposite PEs (0 and 2) fixes neighbours {1, 3} on both sides.
        assert!(net.interchangeable(ProcId(0), ProcId(2)));
    }

    #[test]
    fn fully_connected_all_interchangeable() {
        let net = ProcNetwork::fully_connected(6);
        assert_eq!(net.interchangeability_classes(), vec![net.proc_ids().collect::<Vec<_>>()]);
    }

    #[test]
    fn star_hub_differs_from_leaves() {
        let net = ProcNetwork::star(5);
        let classes = net.interchangeability_classes();
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0], vec![ProcId(0)]);
        assert_eq!(classes[1].len(), 4);
    }

    #[test]
    fn heterogeneous_speeds_block_interchangeability() {
        let net = ProcNetwork::fully_connected(3).with_cycle_times(&[1, 2, 1]);
        assert!(!net.interchangeable(ProcId(0), ProcId(1)));
        assert!(net.interchangeable(ProcId(0), ProcId(2)));
        assert!(!net.is_homogeneous());
        assert_eq!(net.exec_time(10, ProcId(1)), 20);
        assert_eq!(net.exec_time(10, ProcId(0)), 10);
    }

    #[test]
    fn chain_hop_distances() {
        let net = ProcNetwork::chain(5);
        assert_eq!(net.hops(ProcId(0), ProcId(4)), 4);
        assert_eq!(net.hops(ProcId(2), ProcId(2)), 0);
        assert!(net.is_connected());
    }

    #[test]
    fn mesh_hop_distances_manhattan() {
        let net = ProcNetwork::mesh(3, 3);
        // Corner (0,0) to corner (2,2): Manhattan distance 4.
        assert_eq!(net.hops(ProcId(0), ProcId(8)), 4);
        assert_eq!(net.degree(ProcId(4)), 4); // centre
        assert_eq!(net.degree(ProcId(0)), 2); // corner
    }

    #[test]
    fn hypercube_hop_distance_is_hamming() {
        let net = ProcNetwork::hypercube(8);
        assert_eq!(net.hops(ProcId(0), ProcId(7)), 3);
        assert_eq!(net.hops(ProcId(1), ProcId(5)), 1);
    }

    #[test]
    fn disconnected_network_detected() {
        let net = ProcNetwork::from_parts(vec![Processor::default(); 4], vec![(0, 1), (2, 3)], None);
        assert!(!net.is_connected());
        assert_eq!(net.hops(ProcId(0), ProcId(3)), u32::MAX);
    }

    #[test]
    fn comm_cost_models() {
        let uniform = ProcNetwork::chain(4);
        assert_eq!(uniform.comm_cost(10, ProcId(0), ProcId(3)), 10);
        assert_eq!(uniform.comm_cost(10, ProcId(1), ProcId(1)), 0);

        let hops = ProcNetwork::chain(4).with_comm_model(CommModel::HopScaled);
        assert_eq!(hops.comm_cost(10, ProcId(0), ProcId(3)), 30);
        assert_eq!(hops.comm_cost(10, ProcId(0), ProcId(1)), 10);
        assert_eq!(hops.comm_cost(10, ProcId(2), ProcId(2)), 0);
        assert_eq!(hops.comm_model(), CommModel::HopScaled);
    }

    #[test]
    fn single_processor_network() {
        let net = ProcNetwork::fully_connected(1);
        assert_eq!(net.num_procs(), 1);
        assert!(net.is_connected());
        assert_eq!(net.degree(ProcId(0)), 0);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_panics() {
        ProcNetwork::fully_connected(0);
    }

    #[test]
    fn duplicate_edges_collapsed() {
        let net =
            ProcNetwork::from_parts(vec![Processor::default(); 3], vec![(0, 1), (1, 0), (0, 1)], None);
        assert_eq!(net.degree(ProcId(0)), 1);
        assert_eq!(net.degree(ProcId(1)), 1);
    }

    #[test]
    fn serde_round_trip() {
        let net = ProcNetwork::mesh(2, 2).with_cycle_times(&[1, 1, 2, 2]);
        let json = serde_json::to_string(&net).unwrap();
        let back: ProcNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(net, back);
        // Non-default communication models survive the trip too.
        let hops = ProcNetwork::chain(3).with_comm_model(CommModel::HopScaled);
        let back: ProcNetwork =
            serde_json::from_str(&serde_json::to_string(&hops).unwrap()).unwrap();
        assert_eq!(back.comm_model(), CommModel::HopScaled);
    }

    /// Only the canonical parts travel: adjacency and hop distances are
    /// recomputed on arrival.
    #[test]
    fn wire_format_carries_links_not_derived_tables() {
        let json = serde_json::to_string(&ProcNetwork::ring(4)).unwrap();
        assert!(json.contains("\"links\""));
        assert!(!json.contains("\"adj\""), "{json}");
        assert!(!json.contains("\"dist\""), "{json}");
    }

    #[test]
    fn malformed_network_documents_are_rejected() {
        // Out-of-range link endpoint.
        let bad_link = r#"{"procs": [{"cycle_time": 1, "label": null}], "links": [[0, 9]]}"#;
        let err = serde_json::from_str::<ProcNetwork>(bad_link).unwrap_err();
        assert!(err.to_string().contains("unknown processor"), "{err}");

        // Self link.
        let self_link =
            r#"{"procs": [{"cycle_time": 1, "label": null}, {"cycle_time": 1, "label": null}],
                "links": [[1, 1]]}"#;
        assert!(serde_json::from_str::<ProcNetwork>(self_link).is_err());

        // No processors.
        assert!(serde_json::from_str::<ProcNetwork>(r#"{"procs": [], "links": []}"#).is_err());

        // A zero cycle time would divide the exec-time model by nothing.
        let zero_speed = r#"{"procs": [{"cycle_time": 0, "label": null}], "links": []}"#;
        assert!(serde_json::from_str::<ProcNetwork>(zero_speed).is_err());

        // More processors than the signature can address, refused before
        // the hop table is built.
        let proc = r#"{"cycle_time": 1, "label": null}"#;
        let procs = vec![proc; MAX_PROCS + 1].join(",");
        let too_many = format!(r#"{{"procs": [{procs}], "links": []}}"#);
        let err = serde_json::from_str::<ProcNetwork>(&too_many).unwrap_err();
        assert!(err.to_string().contains("exceed the limit of 1024"), "{err}");
    }

    #[test]
    fn links_report_each_undirected_edge_once() {
        let net = ProcNetwork::ring(4);
        assert_eq!(net.links(), vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
        let rebuilt =
            ProcNetwork::try_from_parts(vec![Processor::default(); 4], net.links(), None).unwrap();
        assert_eq!(rebuilt.neighbors(ProcId(0)), net.neighbors(ProcId(0)));
    }

    #[test]
    fn try_from_parts_reports_violations() {
        assert!(ProcNetwork::try_from_parts(vec![], vec![], None)
            .unwrap_err()
            .contains("at least one"));
        assert!(ProcNetwork::try_from_parts(vec![Processor::default()], vec![(0, 0)], None)
            .unwrap_err()
            .contains("self links"));
        // The processor limit is checked before any quadratic work.
        let too_many = vec![Processor::default(); MAX_PROCS + 1];
        let err = ProcNetwork::try_from_parts(too_many, vec![], None).unwrap_err();
        assert!(err.contains("1025 processors exceed the limit of 1024"), "{err}");
        let err = ProcNetwork::try_with_topology(Topology::FullyConnected, MAX_PROCS + 1);
        assert!(err.unwrap_err().contains("exceed the limit"));
        assert!(ProcNetwork::try_with_topology(Topology::Ring, 0).is_err());
        let largest = ProcNetwork::try_with_topology(Topology::Chain, MAX_PROCS).unwrap();
        assert_eq!(largest.num_procs(), MAX_PROCS);
    }

    #[test]
    fn display_of_proc_id() {
        assert_eq!(ProcId(2).to_string(), "PE2");
    }
}
