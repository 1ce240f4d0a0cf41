//! Topological orderings and reachability queries.

use crate::graph::{NodeId, TaskGraph};

/// A topological ordering of a [`TaskGraph`].
///
/// Produced by Kahn's algorithm; among nodes whose predecessors are all
/// emitted, the one with the smallest id is emitted first, so the order is
/// deterministic for a given graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopoOrder {
    order: Vec<NodeId>,
    /// `position[i]` = index of node `i` in `order`.
    position: Vec<usize>,
}

impl TopoOrder {
    /// Computes a topological order, or `None` if the graph contains a cycle.
    ///
    /// (Graphs built through [`crate::GraphBuilder`] are always acyclic; the
    /// `Option` exists because the builder itself uses this function for its
    /// cycle check.)
    pub fn compute(g: &TaskGraph) -> Option<TopoOrder> {
        let v = g.num_nodes();
        let mut indeg: Vec<usize> = (0..v).map(|i| g.in_degree(NodeId(i as u32))).collect();
        // Min-id-first frontier for determinism. A BinaryHeap over Reverse
        // would be O(v log v); with the small frontier sizes typical of task
        // graphs a sorted Vec used as a stack is simpler and fast enough.
        let mut ready: Vec<NodeId> =
            (0..v as u32).map(NodeId).filter(|&n| indeg[n.index()] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a)); // descending; pop() yields min
        let mut order = Vec::with_capacity(v);
        while let Some(n) = ready.pop() {
            order.push(n);
            for &(c, _) in g.successors(n) {
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    // Insert keeping descending order.
                    let pos = ready.partition_point(|&x| x > c);
                    ready.insert(pos, c);
                }
            }
        }
        if order.len() != v {
            return None;
        }
        let mut position = vec![0usize; v];
        for (i, &n) in order.iter().enumerate() {
            position[n.index()] = i;
        }
        Some(TopoOrder { order, position })
    }

    /// The nodes in topological order.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Position of `n` within the order (0 = first).
    pub fn position(&self, n: NodeId) -> usize {
        self.position[n.index()]
    }

    /// Iterate in reverse topological order (exits first).
    pub fn reverse(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.order.iter().rev().copied()
    }
}

/// Returns, for every node, the set of nodes reachable from it (its
/// descendants), as a vector of boolean masks indexed `[from][to]`.
///
/// O(v·e): every edge ORs the child's `Vec<bool>` mask into the parent's;
/// intended for analyses and tests, not for the inner search loop.
pub fn descendants(g: &TaskGraph) -> Vec<Vec<bool>> {
    let v = g.num_nodes();
    let topo = TopoOrder::compute(g).expect("TaskGraph is always acyclic");
    let mut reach = vec![vec![false; v]; v];
    for n in topo.reverse() {
        for &(c, _) in g.successors(n) {
            reach[n.index()][c.index()] = true;
            let (head, tail) = split_two(&mut reach, n.index(), c.index());
            for (a, b) in head.iter_mut().zip(tail.iter()) {
                *a = *a || *b;
            }
        }
    }
    reach
}

/// Splits `m` to obtain simultaneous `&mut m[i]` and `&m[j]` (i != j).
fn split_two(m: &mut [Vec<bool>], i: usize, j: usize) -> (&mut Vec<bool>, &Vec<bool>) {
    assert_ne!(i, j);
    if i < j {
        let (a, b) = m.split_at_mut(j);
        (&mut a[i], &b[0])
    } else {
        let (a, b) = m.split_at_mut(i);
        (&mut b[0], &a[j])
    }
}

/// True if `ancestor` can reach `descendant` through directed edges.
pub fn reaches(g: &TaskGraph, ancestor: NodeId, descendant: NodeId) -> bool {
    if ancestor == descendant {
        return true;
    }
    let mut stack = vec![ancestor];
    let mut seen = vec![false; g.num_nodes()];
    seen[ancestor.index()] = true;
    while let Some(n) = stack.pop() {
        for &(c, _) in g.successors(n) {
            if c == descendant {
                return true;
            }
            if !seen[c.index()] {
                seen[c.index()] = true;
                stack.push(c);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{paper_example_dag, GraphBuilder};

    #[test]
    fn topo_order_respects_precedence() {
        let g = paper_example_dag();
        let topo = TopoOrder::compute(&g).unwrap();
        for e in g.edges() {
            assert!(
                topo.position(e.src) < topo.position(e.dst),
                "edge {} -> {} violated",
                e.src,
                e.dst
            );
        }
        assert_eq!(topo.order().len(), g.num_nodes());
    }

    #[test]
    fn topo_order_is_deterministic_min_id_first() {
        // Two independent chains: ids interleave deterministically.
        let mut b = GraphBuilder::new();
        let a0 = b.add_node(1);
        let a1 = b.add_node(1);
        let b0 = b.add_node(1);
        let b1 = b.add_node(1);
        b.add_edge(a0, a1, 0).unwrap();
        b.add_edge(b0, b1, 0).unwrap();
        let g = b.build().unwrap();
        let topo = TopoOrder::compute(&g).unwrap();
        assert_eq!(topo.order(), &[a0, a1, b0, b1]);
    }

    #[test]
    fn reverse_iterates_exits_first() {
        let g = paper_example_dag();
        let topo = TopoOrder::compute(&g).unwrap();
        let first_in_reverse = topo.reverse().next().unwrap();
        assert_eq!(first_in_reverse, *topo.order().last().unwrap());
    }

    #[test]
    fn reachability_on_example() {
        let g = paper_example_dag();
        assert!(reaches(&g, NodeId(0), NodeId(5)));
        assert!(reaches(&g, NodeId(1), NodeId(5)));
        assert!(!reaches(&g, NodeId(3), NodeId(4)));
        assert!(reaches(&g, NodeId(2), NodeId(2)));
        assert!(!reaches(&g, NodeId(5), NodeId(0)));
    }

    #[test]
    fn descendants_matches_reaches() {
        let g = paper_example_dag();
        let d = descendants(&g);
        for a in g.node_ids() {
            for b in g.node_ids() {
                if a == b {
                    continue;
                }
                assert_eq!(d[a.index()][b.index()], reaches(&g, a, b), "{a} -> {b}");
            }
        }
    }
}
