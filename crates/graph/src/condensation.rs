//! Vertex-level reduction: the condensation `Ḡ_R` with self-loop tracking.
//!
//! Section III-B defines `Ḡ_R` by mapping each SCC of `G_R` to one vertex.
//! Two rules matter for Kleene-plus semantics:
//!
//! * edges between two vertices of the *same* SCC become **one self-loop**
//!   on the condensed vertex (any SCC with ≥ 2 members always has internal
//!   edges; a singleton SCC gets a self-loop only if its vertex has a
//!   self-edge in `G_R`);
//! * same-direction edges between two *different* SCCs collapse to one edge.
//!
//! The self-loop distinction is what makes `TC(Ḡ_R)` contain `(s̄, s̄)`
//! exactly when a length-≥1 `R`-path cycle exists inside the SCC, which in
//! turn is what Theorem 1 needs to enumerate `R⁺_G` (not `R*_G`).
//!
//! The build walks one SCC at a time and collects its successor row from
//! its members' out-rows, so no list of all cross edges is ever sorted.

use crate::csr::Csr;
use crate::digraph::Digraph;
use crate::ids::SccId;
use crate::rowset::Cover;
use crate::scc::Scc;

/// The condensation of a digraph: `Ḡ_R` plus self-loop flags.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// DAG adjacency over SCC ids (self-loops excluded, stored in `self_loop`).
    dag: Digraph,
    /// `self_loop[s]` — whether SCC `s` has an internal edge.
    self_loop: Vec<bool>,
    /// Total edge count of `Ḡ_R` including self-loops (`|Ē_R|`).
    edge_count: usize,
}

impl Condensation {
    /// Builds `Ḡ_R` from a digraph and its SCC decomposition.
    pub fn new(g: &Digraph, scc: &Scc) -> Self {
        let k = scc.count();
        let mut self_loop = vec![false; k];
        let mut row = Cover::new(k);
        let mut ascending: Vec<u32> = Vec::new();
        let mut out = Csr::new();
        for (s, members) in scc.iter() {
            for &v in members {
                for &w in g.out(v) {
                    let t = scc.component_of(w);
                    if t == s {
                        self_loop[s.index()] = true;
                    } else {
                        row.insert(t.raw());
                    }
                }
            }
            row.drain_ascending(|t| ascending.push(t));
            out.push_row(ascending.drain(..));
        }
        let dag = Digraph::from_csr(out);
        let edge_count = dag.edge_count() + self_loop.iter().filter(|&&b| b).count();
        Self {
            dag,
            self_loop,
            edge_count,
        }
    }

    /// Number of condensed vertices `|V̄_R|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.dag.vertex_count()
    }

    /// Number of condensed edges `|Ē_R|`, self-loops included.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Out-neighbors of SCC `s` in the DAG part (no self-loop), ascending.
    #[inline]
    pub fn out(&self, s: SccId) -> &[u32] {
        self.dag.out(s.raw())
    }

    /// Whether SCC `s` carries a self-loop (has an internal `G_R` edge).
    #[inline]
    pub fn has_self_loop(&self, s: SccId) -> bool {
        self.self_loop[s.index()]
    }

    /// Iterates over all `Ḡ_R` edges including self-loops.
    pub fn edges(&self) -> impl Iterator<Item = (SccId, SccId)> + '_ {
        let loops = self
            .self_loop
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b)
            .map(|(s, _)| (SccId::from_usize(s), SccId::from_usize(s)));
        let cross = self.dag.edges().map(|(s, d)| (SccId(s), SccId(d)));
        loops.chain(cross)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::tarjan_scc;

    /// Example 5/6 fixture: G_{b·c} over compact ids {v2,v3,v4,v5,v6} →
    /// {0,1,2,3,4} with edges {(0,2),(0,4),(1,3),(2,0),(3,1)}.
    fn gbc() -> (Digraph, Scc) {
        let g = Digraph::from_edges(5, vec![(0, 2), (0, 4), (1, 3), (2, 0), (3, 1)]);
        let scc = tarjan_scc(&g);
        (g, scc)
    }

    #[test]
    fn example5_condensation_shape() {
        let (g, scc) = gbc();
        let cond = Condensation::new(&g, &scc);
        // V̄_{b·c} = {s̄0, s̄1, s̄2}; Ē_{b·c} = {loop(s{2,4}), s{2,4}->s{6}, loop(s{3,5})}.
        assert_eq!(cond.vertex_count(), 3);
        assert_eq!(cond.edge_count(), 3);
        let s24 = scc.component_of(0); // compact 0 = v2
        let s6 = scc.component_of(4); // compact 4 = v6
        let s35 = scc.component_of(1); // compact 1 = v3
        assert!(cond.has_self_loop(s24));
        assert!(cond.has_self_loop(s35));
        assert!(!cond.has_self_loop(s6));
        assert_eq!(cond.out(s24), &[s6.raw()]);
        assert!(cond.out(s6).is_empty());
        assert!(cond.out(s35).is_empty());
    }

    #[test]
    fn parallel_cross_edges_collapse() {
        // Two SCCs {0,1} and {2,3}; multiple edges between them.
        let g = Digraph::from_edges(
            4,
            vec![(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3), (0, 3)],
        );
        let scc = tarjan_scc(&g);
        let cond = Condensation::new(&g, &scc);
        assert_eq!(cond.vertex_count(), 2);
        // 2 self-loops + 1 collapsed cross edge.
        assert_eq!(cond.edge_count(), 3);
    }

    #[test]
    fn singleton_self_loop_rule() {
        // v0 has a self-edge; v1 does not.
        let g = Digraph::from_edges(2, vec![(0, 0), (0, 1)]);
        let scc = tarjan_scc(&g);
        let cond = Condensation::new(&g, &scc);
        assert!(cond.has_self_loop(scc.component_of(0)));
        assert!(!cond.has_self_loop(scc.component_of(1)));
        assert_eq!(cond.edge_count(), 2); // loop + cross
    }

    #[test]
    fn dag_input_stays_dag() {
        let g = Digraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (0, 3)]);
        let scc = tarjan_scc(&g);
        let cond = Condensation::new(&g, &scc);
        assert_eq!(cond.vertex_count(), 4);
        assert_eq!(cond.edge_count(), 4);
        assert!((0..4).all(|s| !cond.has_self_loop(SccId(s))));
    }

    #[test]
    fn edges_iterator_includes_loops_and_cross() {
        let (g, scc) = gbc();
        let cond = Condensation::new(&g, &scc);
        let mut edges: Vec<(u32, u32)> = cond.edges().map(|(a, b)| (a.raw(), b.raw())).collect();
        edges.sort_unstable();
        assert_eq!(edges.len(), 3);
        let loops = edges.iter().filter(|&&(a, b)| a == b).count();
        assert_eq!(loops, 2);
    }

    #[test]
    fn empty_graph_condensation() {
        let g = Digraph::from_edges(0, vec![]);
        let scc = tarjan_scc(&g);
        let cond = Condensation::new(&g, &scc);
        assert_eq!(cond.vertex_count(), 0);
        assert_eq!(cond.edge_count(), 0);
    }

    #[test]
    fn condensation_respects_reverse_topo_ids() {
        let g = Digraph::from_edges(
            6,
            vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 5)],
        );
        let scc = tarjan_scc(&g);
        let cond = Condensation::new(&g, &scc);
        for s in 0..cond.vertex_count() as u32 {
            for &d in cond.out(SccId(s)) {
                assert!(d < s, "cross edge {s}->{d} must descend");
            }
        }
    }
}
