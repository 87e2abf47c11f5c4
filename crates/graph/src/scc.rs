//! Iterative Tarjan strongly-connected-component decomposition.
//!
//! The paper's vertex-level reduction (`G_R → Ḡ_R`, Section III-B) maps each
//! SCC of `G_R` to one vertex and cites Tarjan's algorithm \[14\] as the most
//! efficient way to find them (`O(|V_R| + |E_R|)`). This implementation is
//! fully iterative (explicit DFS stack) so that deep path-shaped graphs
//! cannot overflow the call stack — reduced graphs of sparse datasets like
//! Yago2s are almost entirely long chains.
//!
//! There is one DFS, [`tarjan_components`]. It takes its out-rows from a
//! function, so it runs over a [`Digraph`] ([`tarjan_scc`]), over an
//! `R_G` in original vertex ids (`rpq_reduction::Rtc::from_pairs`) and over
//! the layered product of a graph and a closure-free body
//! (`rpq_reduction::Rtc::from_body`) alike. It reports each
//! component as it closes, with its members and the ids of the components
//! its members have edges into: the component's row of the condensation,
//! read in the same pass (Nuutila's variant).
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

/// One vertex on the DFS path.
struct Frame<I> {
    v: u32,
    /// The out-edges not walked yet.
    out: I,
    /// Heights of the component stack and of the successor stack when `v`
    /// was entered: a component rooted at `v` owns everything above them.
    stack_at: usize,
    succ_at: usize,
    /// Whether `v` has a self-edge.
    looped: bool,
}

/// Tarjan's DFS over vertices `0..n`, whose out-neighbours `out(v)` yields,
/// started from each of `roots` in order that is not visited yet.
///
/// Calls `close(members, successors, self_loop)` once per component, in
/// closing order, which is ascending id order: `members` are its vertices
/// in the order the search entered them, `successors` holds the ids of the
/// components its members have edges into, other than itself, each as
/// often as such an edge was walked (all below its own id, so all closed);
/// `self_loop` tells whether it has an internal edge (two or more members,
/// or one with a self-edge). Returns the component id of every vertex
/// (`u32::MAX` for a vertex no root reaches) with the number of components.
/// Component ids are in reverse topological order: an edge between two
/// components goes from the higher id to the lower.
///
/// A walked edge into a closed component pushes that component's id on a
/// successor stack, and a closing component takes the part of that stack
/// its members pushed: the descendants that closed before it truncated
/// their own parts. So the condensation is read in the DFS itself, with no
/// second walk over the members' rows.
pub fn tarjan_components<I>(
    n: usize,
    roots: impl IntoIterator<Item = u32>,
    mut out: impl FnMut(u32) -> I,
    mut close: impl FnMut(&[u32], &[u32], bool),
) -> (Vec<u32>, usize)
where
    I: Iterator<Item = u32>,
{
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    // A visited vertex is on the component stack until its component
    // closes and writes its id here.
    let mut comp_of = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut successors: Vec<u32> = Vec::new();
    let mut frames: Vec<Frame<I>> = Vec::new();
    let mut next_index = 0u32;
    let mut count = 0u32;

    for root in roots {
        if index[root as usize] != UNVISITED {
            continue;
        }
        let mut enter = Some(root);
        loop {
            if let Some(v) = enter.take() {
                index[v as usize] = next_index;
                lowlink[v as usize] = next_index;
                next_index += 1;
                frames.push(Frame {
                    v,
                    out: out(v),
                    stack_at: stack.len(),
                    succ_at: successors.len(),
                    looped: false,
                });
                stack.push(v);
            }
            let Some(top) = frames.last_mut() else {
                break;
            };
            let v = top.v;
            if let Some(w) = top.out.next() {
                if index[w as usize] == UNVISITED {
                    enter = Some(w);
                } else if comp_of[w as usize] == UNVISITED {
                    // On the stack: `w` is in `v`'s component.
                    top.looped |= w == v;
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                } else {
                    successors.push(comp_of[w as usize]);
                }
                continue;
            }
            let (stack_at, succ_at, looped) = (top.stack_at, top.succ_at, top.looped);
            frames.pop();
            let closes = lowlink[v as usize] == index[v as usize];
            if closes {
                let members = &stack[stack_at..];
                for &m in members {
                    comp_of[m as usize] = count;
                }
                close(members, &successors[succ_at..], members.len() > 1 || looped);
                stack.truncate(stack_at);
                successors.truncate(succ_at);
                count += 1;
            }
            if let Some(parent) = frames.last() {
                let p = parent.v as usize;
                if closes {
                    successors.push(comp_of[v as usize]);
                } else {
                    lowlink[p] = lowlink[p].min(lowlink[v as usize]);
                }
            }
        }
    }
    (comp_of, count as usize)
}

/// Computes SCCs of `g` with [`tarjan_components`], every vertex a root in
/// ascending order.
///
/// Returned SCC ids are in reverse topological order: if the condensation
/// has an edge `s → t` (with `s ≠ t`) then `t < s`.
pub fn tarjan_scc(g: &Digraph) -> Scc {
    let n = g.vertex_count();
    let (comp_of, count) =
        tarjan_components(n, 0..n as u32, |v| g.out(v).iter().copied(), |_, _, _| {});
    let members = Csr::from_items(
        count,
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
