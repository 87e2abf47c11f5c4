//! Iterative Tarjan strongly-connected-component decomposition.
//!
//! The paper's vertex-level reduction (`G_R → Ḡ_R`, Section III-B) maps each
//! SCC of `G_R` to one vertex and cites Tarjan's algorithm \[14\] as the most
//! efficient way to find them (`O(|V_R| + |E_R|)`). This implementation is
//! fully iterative (explicit DFS stack) so that deep path-shaped graphs
//! cannot overflow the call stack — reduced graphs of sparse datasets like
//! Yago2s are almost entirely long chains.
//!
//! A useful structural property this module guarantees and the closure code
//! relies on: **SCC ids come out in reverse topological order** of the
//! condensation. Every non-loop edge of `Ḡ_R` goes from a higher SCC id to
//! a lower one, so a single ascending sweep visits successors before
//! predecessors.

use crate::csr::Csr;
use crate::digraph::Digraph;
use crate::ids::SccId;

const UNVISITED: u32 = u32::MAX;

/// The SCC decomposition of a digraph.
#[derive(Clone, Debug)]
pub struct Scc {
    comp_of: Vec<u32>,
    members: Csr<u32>,
}

impl Scc {
    /// Number of SCCs (`|V̄_R|`).
    #[inline]
    pub fn count(&self) -> usize {
        self.members.rows()
    }

    /// SCC id containing vertex `v` (compact digraph id).
    #[inline]
    pub fn component_of(&self, v: u32) -> SccId {
        SccId(self.comp_of[v as usize])
    }

    /// Member vertices of SCC `s`, ascending.
    #[inline]
    pub fn members(&self, s: SccId) -> &[u32] {
        self.members.row(s.index())
    }

    /// Number of vertices in SCC `s`.
    #[inline]
    pub fn size(&self, s: SccId) -> usize {
        self.members.row_len(s.index())
    }

    /// Average number of vertices per SCC — the paper reports this as the
    /// indicator of how effective vertex-level reduction is (1.00 for
    /// Yago2s, where the reduction does not help).
    pub fn average_size(&self) -> f64 {
        if self.count() == 0 {
            return 0.0;
        }
        self.comp_of.len() as f64 / self.count() as f64
    }

    /// Heap bytes of the `vertex → SCC` table and the member rows.
    pub fn heap_bytes(&self) -> usize {
        self.comp_of.capacity() * std::mem::size_of::<u32>() + self.members.heap_bytes()
    }

    /// Iterates over `(scc, members)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (SccId, &[u32])> + '_ {
        (0..self.count()).map(move |i| (SccId::from_usize(i), self.members.row(i)))
    }
}

/// Computes SCCs of `g` with an iterative Tarjan DFS.
///
/// Returned SCC ids are in reverse topological order: if the condensation
/// has an edge `s → t` (with `s ≠ t`) then `t < s`.
pub fn tarjan_scc(g: &Digraph) -> Scc {
    let n = g.vertex_count();
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp_of = vec![UNVISITED; n];
    let mut tarjan_stack: Vec<u32> = Vec::new();
    // (vertex, next out-edge position) frames of the explicit DFS stack.
    let mut frames: Vec<(u32, u32)> = Vec::new();
    let mut next_index = 0u32;
    let mut scc_count = 0u32;

    for root in 0..n as u32 {
        if index[root as usize] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root as usize] = next_index;
        lowlink[root as usize] = next_index;
        next_index += 1;
        tarjan_stack.push(root);
        on_stack[root as usize] = true;

        while let Some(&mut (v, ref mut edge_pos)) = frames.last_mut() {
            let out = g.out(v);
            if (*edge_pos as usize) < out.len() {
                let w = out[*edge_pos as usize];
                *edge_pos += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    tarjan_stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v is the root of an SCC: pop the component.
                    loop {
                        let w = tarjan_stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = scc_count;
                        if w == v {
                            break;
                        }
                    }
                    scc_count += 1;
                }
            }
        }
    }

    let members = Csr::from_items(
        scc_count as usize,
        (0..n as u32).map(|v| (comp_of[v as usize] as usize, v)),
    );
    Scc { comp_of, members }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scc_sets(scc: &Scc) -> Vec<Vec<u32>> {
        let mut sets: Vec<Vec<u32>> = scc.iter().map(|(_, m)| m.to_vec()).collect();
        sets.sort();
        sets
    }

    #[test]
    fn empty_graph() {
        let g = Digraph::from_edges(0, vec![]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 0);
        assert_eq!(scc.average_size(), 0.0);
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        let g = Digraph::from_edges(3, vec![]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 3);
        for v in 0..3 {
            assert_eq!(scc.size(scc.component_of(v)), 1);
        }
    }

    #[test]
    fn simple_cycle_is_one_scc() {
        let g = Digraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 1);
        assert_eq!(scc.members(SccId(0)), &[0, 1, 2]);
        assert_eq!(scc.average_size(), 3.0);
    }

    #[test]
    fn dag_has_singleton_sccs_in_reverse_topo_order() {
        let g = Digraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 4);
        // Reverse topological order: successors get lower ids.
        for (s, d) in g.edges() {
            assert!(scc.component_of(d) < scc.component_of(s));
        }
    }

    #[test]
    fn example5_sccs_of_gbc() {
        // G_{b·c} from Fig. 5: edges {(2,4),(2,6),(3,5),(4,2),(5,3)} over
        // compact ids {v2,v3,v4,v5,v6} -> {0,1,2,3,4}.
        let g = Digraph::from_edges(5, vec![(0, 2), (0, 4), (1, 3), (2, 0), (3, 1)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 3); // s0={v2,v4}, s1={v6}, s2={v3,v5}
        assert_eq!(scc_sets(&scc), vec![vec![0, 2], vec![1, 3], vec![4]]);
        // {v2,v4} and {v3,v5} are nontrivial; {v6} singleton.
        assert_eq!(scc.component_of(0), scc.component_of(2));
        assert_eq!(scc.component_of(1), scc.component_of(3));
        assert_ne!(scc.component_of(0), scc.component_of(4));
    }

    #[test]
    fn self_loop_vertex_is_its_own_scc() {
        let g = Digraph::from_edges(2, vec![(0, 0), (0, 1)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 2);
        assert_eq!(scc.size(scc.component_of(0)), 1);
    }

    #[test]
    fn two_cycles_joined_by_bridge() {
        // 0<->1 -> 2<->3
        let g = Digraph::from_edges(4, vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)]);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 2);
        let a = scc.component_of(0);
        let b = scc.component_of(2);
        assert_ne!(a, b);
        // Edge 1->2 crosses from {0,1} to {2,3}: target id must be lower.
        assert!(b < a);
        assert_eq!(scc.members(a), &[0, 1]);
        assert_eq!(scc.members(b), &[2, 3]);
    }

    #[test]
    fn long_chain_does_not_overflow_stack() {
        // 200k-vertex path: a recursive Tarjan would blow the call stack.
        let n = 200_000;
        let edges: Vec<(u32, u32)> = (0..n - 1).map(|v| (v, v + 1)).collect();
        let g = Digraph::from_edges(n as usize, edges);
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), n as usize);
        assert_eq!(scc.component_of(0), SccId(n - 1)); // source popped last
        assert_eq!(scc.component_of(n - 1), SccId(0)); // sink popped first
    }

    #[test]
    fn reverse_topological_property_on_mixed_graph() {
        // SCCs: {0,1}, {2}, {3,4,5}, with cross edges.
        let g = Digraph::from_edges(
            6,
            vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)],
        );
        let scc = tarjan_scc(&g);
        assert_eq!(scc.count(), 3);
        for (s, d) in g.edges() {
            let (cs, cd) = (scc.component_of(s), scc.component_of(d));
            if cs != cd {
                assert!(cd < cs, "edge {s}->{d} violates reverse topo order");
            }
        }
    }

    #[test]
    fn every_vertex_has_a_component() {
        let g = Digraph::from_edges(5, vec![(0, 1), (3, 4)]);
        let scc = tarjan_scc(&g);
        assert!((0..5).all(|v| scc.component_of(v).index() < scc.count()));
        // Every vertex appears exactly once across members.
        let total: usize = scc.iter().map(|(_, m)| m.len()).sum();
        assert_eq!(total, 5);
    }
}
