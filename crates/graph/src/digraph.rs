//! Unlabeled simple digraphs in CSR form.
//!
//! Both reduction levels of the paper produce graphs of this shape:
//! `G_R` (edge-level reduction, Section III-A) and `Ḡ_R` (vertex-level
//! reduction, Section III-B) are unlabeled, directed, *simple* graphs —
//! multi-edges collapse because labels have been erased.
//!
//! A [`Digraph`] uses dense compact ids `0..n`. When the vertex set is a
//! subset of another graph's vertices (as `V_R ⊆ V`), a [`VertexMapping`]
//! carries the compact ↔ original translation.

use crate::csr::Csr;
use crate::ids::VertexId;
use crate::pairset::PairSet;
use rustc_hash::FxHashMap;

/// An unlabeled simple directed graph over compact vertex ids `0..n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Digraph {
    out: Csr<u32>,
    edge_count: usize,
}

impl Digraph {
    /// Builds a digraph with `n` vertices from an edge list.
    ///
    /// Duplicate edges are removed (simple-graph invariant); self-loops are
    /// kept — they are meaningful for Kleene plus.
    pub fn from_edges(n: usize, mut edges: Vec<(u32, u32)>) -> Self {
        edges.sort_unstable();
        edges.dedup();
        let edge_count = edges.len();
        let out = Csr::from_items(n, edges.into_iter().map(|(s, d)| (s as usize, d)));
        Self { out, edge_count }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.out.rows()
    }

    /// Number of (deduplicated) edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Out-neighbors of `v`, sorted ascending.
    #[inline]
    pub fn out(&self, v: u32) -> &[u32] {
        self.out.row(v as usize)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: u32) -> usize {
        self.out.row_len(v as usize)
    }

    /// Whether edge `(src, dst)` exists.
    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.out(src).binary_search(&dst).is_ok()
    }

    /// Iterates over all edges in `(src, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.out.iter_entries().map(|(s, &d)| (s as u32, d))
    }

    /// The reverse digraph (every edge flipped).
    pub fn reverse(&self) -> Digraph {
        let edges: Vec<(u32, u32)> = self.edges().map(|(s, d)| (d, s)).collect();
        Digraph::from_edges(self.vertex_count(), edges)
    }
}

/// Translation between compact digraph ids and original graph vertices.
///
/// `V_R` — the vertex set of an edge-level reduced graph — only contains
/// vertices incident to some `R`-path, so it is usually much smaller than
/// `V`. The mapping is the bridge Algorithm 2 uses when joining `Pre_G`
/// (over original ids) with the RTC (over compact/SCC ids).
#[derive(Clone, Debug, Default)]
pub struct VertexMapping {
    to_original: Vec<VertexId>,
    to_compact: FxHashMap<VertexId, u32>,
}

impl VertexMapping {
    /// Builds a mapping from a sorted list of distinct original vertices.
    pub fn from_sorted_vertices(vertices: Vec<VertexId>) -> Self {
        debug_assert!(vertices.windows(2).all(|w| w[0] < w[1]));
        let to_compact = vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        Self {
            to_original: vertices,
            to_compact,
        }
    }

    /// Number of mapped vertices (`|V_R|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.to_original.len()
    }

    /// Whether the mapping is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.to_original.is_empty()
    }

    /// Original vertex for a compact id.
    #[inline]
    pub fn original(&self, compact: u32) -> VertexId {
        self.to_original[compact as usize]
    }

    /// Compact id for an original vertex, if the vertex is in `V_R`.
    #[inline]
    pub fn compact(&self, v: VertexId) -> Option<u32> {
        self.to_compact.get(&v).copied()
    }

    /// All original vertices, ascending.
    pub fn originals(&self) -> &[VertexId] {
        &self.to_original
    }
}

/// A digraph whose vertices are a remapped subset of another graph's
/// vertices: the edge-level reduced graph `G_R` (and its friends).
#[derive(Clone, Debug)]
pub struct MappedDigraph {
    /// Adjacency over compact ids.
    pub graph: Digraph,
    /// Compact ↔ original translation.
    pub mapping: VertexMapping,
}

impl MappedDigraph {
    /// Builds `G_R` from the evaluation result `R_G`: every pair becomes one
    /// edge, and `V_R` is exactly the set of incident vertices.
    pub fn from_pairset(pairs: &PairSet) -> Self {
        let mut vertices: Vec<VertexId> = Vec::with_capacity(pairs.len());
        for (s, d) in pairs.iter() {
            vertices.push(s);
            vertices.push(d);
        }
        vertices.sort_unstable();
        vertices.dedup();
        let mapping = VertexMapping::from_sorted_vertices(vertices);
        let edges: Vec<(u32, u32)> = pairs
            .iter()
            .map(|(s, d)| {
                (
                    mapping.compact(s).expect("source in mapping"),
                    mapping.compact(d).expect("target in mapping"),
                )
            })
            .collect();
        let graph = Digraph::from_edges(mapping.len(), edges);
        MappedDigraph { graph, mapping }
    }

    /// Number of vertices `|V_R|`.
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of edges `|E_R|`.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Translates an edge iterator back to original vertex ids.
    pub fn original_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.graph
            .edges()
            .map(move |(s, d)| (self.mapping.original(s), self.mapping.original(d)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_dedups() {
        let g = Digraph::from_edges(3, vec![(0, 1), (1, 2), (0, 1)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out(0), &[1]);
        assert_eq!(g.out(1), &[2]);
        assert_eq!(g.out(2), &[] as &[u32]);
    }

    #[test]
    fn self_loops_are_kept() {
        let g = Digraph::from_edges(2, vec![(0, 0), (0, 1)]);
        assert!(g.has_edge(0, 0));
    }

    #[test]
    fn reverse_flips_edges() {
        let g = Digraph::from_edges(3, vec![(0, 1), (1, 2)]);
        let r = g.reverse();
        assert!(r.has_edge(1, 0));
        assert!(r.has_edge(2, 1));
        assert_eq!(r.edge_count(), 2);
        assert_eq!(r.reverse(), g);
    }

    #[test]
    fn edges_iterates_in_order() {
        let g = Digraph::from_edges(3, vec![(1, 0), (0, 2), (0, 1)]);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 0)]);
    }

    #[test]
    fn out_degree() {
        let g = Digraph::from_edges(3, vec![(0, 1), (0, 2)]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(2), 0);
    }

    #[test]
    fn mapping_roundtrip() {
        let m = VertexMapping::from_sorted_vertices(vec![VertexId(2), VertexId(5), VertexId(9)]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.compact(VertexId(5)), Some(1));
        assert_eq!(m.compact(VertexId(3)), None);
        assert_eq!(m.original(2), VertexId(9));
        assert_eq!(m.originals(), &[VertexId(2), VertexId(5), VertexId(9)]);
    }

    #[test]
    fn mapped_digraph_from_pairset() {
        // Example 3's E_{b·c}: {(2,4),(2,6),(3,5),(4,2),(5,3)}.
        let pairs: PairSet = [(2u32, 4u32), (2, 6), (3, 5), (4, 2), (5, 3)]
            .into_iter()
            .collect();
        let gr = MappedDigraph::from_pairset(&pairs);
        assert_eq!(gr.vertex_count(), 5); // V_{b·c} = {2,3,4,5,6}
        assert_eq!(gr.edge_count(), 5);
        let mut back: Vec<(u32, u32)> = gr
            .original_edges()
            .map(|(s, d)| (s.raw(), d.raw()))
            .collect();
        back.sort_unstable();
        assert_eq!(back, vec![(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)]);
    }

    #[test]
    fn mapped_digraph_empty() {
        let gr = MappedDigraph::from_pairset(&PairSet::new());
        assert_eq!(gr.vertex_count(), 0);
        assert_eq!(gr.edge_count(), 0);
    }
}
