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
use std::iter;

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

    /// A digraph over a ready CSR whose rows are ascending and unique.
    pub(crate) fn from_csr(out: Csr<u32>) -> Self {
        debug_assert!(out.iter_rows().all(|r| r.windows(2).all(|w| w[0] < w[1])));
        let edge_count = out.len();
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

    /// Whether edge `(src, dst)` exists.
    pub fn has_edge(&self, src: u32, dst: u32) -> bool {
        self.out(src).binary_search(&dst).is_ok()
    }

    /// Iterates over all edges in `(src, dst)` order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.out.iter_entries().map(|(s, &d)| (s as u32, d))
    }
}

/// Marks an original id outside `V_R` in [`VertexMapping`]'s rank table.
const UNMAPPED: u32 = u32::MAX;

/// Translation between compact digraph ids and original graph vertices.
///
/// `V_R` — the vertex set of an edge-level reduced graph — only contains
/// vertices incident to some `R`-path, so it is usually much smaller than
/// `V`. The mapping is the bridge FullSharing's `FullTc` uses between
/// original ids and the compact ids of its closure rows; the RTC needs
/// none, as its Tarjan pass runs in original ids. It is an ascending
/// vertex list (compact id `i` is entry `i`) and its inverse, a
/// rank table over original ids `0..=max(V_R)` that makes
/// [`VertexMapping::compact`] one index. The list costs 4 bytes per `V_R`
/// vertex and the table 4 bytes per original id up to the largest one in
/// `V_R`: `4·(|V_R| + max(V_R) + 1)` bytes in all.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VertexMapping {
    to_original: Vec<VertexId>,
    /// Compact id by original id, [`UNMAPPED`] off `V_R`.
    to_compact: Vec<u32>,
}

impl VertexMapping {
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
        let c = *self.to_compact.get(v.index())?;
        (c != UNMAPPED).then_some(c)
    }

    /// All original vertices, ascending.
    pub fn originals(&self) -> &[VertexId] {
        &self.to_original
    }

    /// Heap bytes of the vertex list and the rank table.
    pub fn heap_bytes(&self) -> usize {
        self.to_original.capacity() * std::mem::size_of::<VertexId>()
            + self.to_compact.capacity() * std::mem::size_of::<u32>()
    }
}

/// A digraph whose vertices are a remapped subset of another graph's
/// vertices: the edge-level reduced graph `G_R` (and its friends).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MappedDigraph {
    /// Adjacency over compact ids.
    pub graph: Digraph,
    /// Compact ↔ original translation.
    pub mapping: VertexMapping,
}

impl MappedDigraph {
    /// Builds `G_R` from the evaluation result `R_G`: every pair becomes one
    /// edge, and `V_R` is exactly the set of incident vertices.
    ///
    /// The endpoints are marked in a rank table over the id range, and
    /// numbering them in ascending order is the compaction; the table stays
    /// as the mapping's inverse. That renumbering is monotone, so each row
    /// of `pairs` goes into the CSR still sorted and unique: no sort, no
    /// dedup, no hash.
    pub fn from_pairset(pairs: &PairSet) -> Self {
        let mut rank: Vec<u32> = Vec::new();
        let endpoints = pairs
            .groups()
            .flat_map(|(s, ends)| iter::once(s).chain(ends.iter()));
        for v in endpoints {
            if v.index() >= rank.len() {
                rank.resize(v.index() + 1, UNMAPPED);
            }
            rank[v.index()] = 0;
        }
        let mut to_original: Vec<VertexId> = Vec::new();
        for (v, r) in rank.iter_mut().enumerate() {
            if *r != UNMAPPED {
                *r = to_original.len() as u32;
                to_original.push(VertexId::from_usize(v));
            }
        }
        to_original.shrink_to_fit();
        rank.shrink_to_fit();
        // Starts ascend, so they arrive in compact-id order; every other
        // compact id is an end only and gets an empty row.
        let compact = &rank;
        let mut groups = pairs.groups().peekable();
        let out = Csr::from_rows((0..to_original.len() as u32).map(|c| {
            groups
                .next_if(|(s, _)| compact[s.index()] == c)
                .into_iter()
                .flat_map(move |(_, ends)| ends.iter().map(move |e| compact[e.index()]))
        }));
        let graph = Digraph::from_csr(out);
        let mapping = VertexMapping {
            to_original,
            to_compact: rank,
        };
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
    use crate::rowset::RowSet;
    use std::sync::Arc;

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
    fn edges_iterates_in_order() {
        let g = Digraph::from_edges(3, vec![(1, 0), (0, 2), (0, 1)]);
        let edges: Vec<(u32, u32)> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 0)]);
    }

    #[test]
    fn mapping_roundtrip() {
        let pairs: PairSet = [(2u32, 5u32), (9, 5)].into_iter().collect();
        let m = MappedDigraph::from_pairset(&pairs).mapping;
        assert_eq!(m.len(), 3);
        assert_eq!(m.compact(VertexId(2)), Some(0));
        assert_eq!(m.compact(VertexId(5)), Some(1));
        assert_eq!(m.compact(VertexId(9)), Some(2));
        // Below, between and above V_R.
        for v in [0, 3, 10] {
            assert_eq!(m.compact(VertexId(v)), None, "v{v}");
        }
        assert_eq!(m.original(2), VertexId(9));
        assert_eq!(m.originals(), &[VertexId(2), VertexId(5), VertexId(9)]);
        // 3 listed vertices and a rank table over ids 0..=9.
        assert_eq!(m.heap_bytes(), 4 * (3 + 10));
    }

    /// `relation` with the grouped backing.
    fn grouped(relation: &PairSet) -> PairSet {
        PairSet::from_grouped_rows(
            relation
                .groups()
                .map(|(s, ends)| {
                    let row = ends.iter().map(VertexId::raw).collect();
                    (s, Arc::new(RowSet::from_sorted_vec(row)))
                })
                .collect(),
        )
    }

    /// Flat or grouped, a relation gives one `G_R`: its endpoints as `V_R`
    /// and its pairs, in order, as the edges.
    #[test]
    fn from_pairset_flat_and_grouped_agree() {
        let cases: [&[(u32, u32)]; 5] = [
            // Empty.
            &[],
            // A self-loop.
            &[(3, 3), (3, 5)],
            // Example 3's E_{b·c}: v6 is only an end.
            &[(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)],
            // The highest id appears only as an end.
            &[(1, 9), (4, 1)],
            // Start 8's row holds only lower ids.
            &[(0, 5), (8, 0), (8, 2)],
        ];
        for case in cases {
            let flat: PairSet = case.iter().copied().collect();
            let gr = MappedDigraph::from_pairset(&flat);
            assert_eq!(MappedDigraph::from_pairset(&grouped(&flat)), gr, "{case:?}");
            let mut vertices: Vec<VertexId> = flat.iter().flat_map(|(s, d)| [s, d]).collect();
            vertices.sort_unstable();
            vertices.dedup();
            assert_eq!(gr.mapping.originals(), vertices, "{case:?}");
            assert_eq!(gr.edge_count(), flat.len(), "{case:?}");
            assert!(gr.original_edges().eq(flat.iter()), "{case:?}");
        }
    }
}
