//! The edge-labeled, directed multigraph of Section II-A.
//!
//! `G = (V, E, f, Σ, l)`: vertices, directed edges, an incidence function,
//! an alphabet and a labeling function. Parallel edges between an ordered
//! vertex pair are allowed but must carry **distinct labels** — the builder
//! enforces this by deduplicating `(src, label, dst)` triples.
//!
//! Storage is row-per-vertex and row-per-label sorted adjacency, the two
//! orientations the evaluator reads (every traversal walks edges forward),
//! so that each access is a contiguous scan or a binary search:
//!
//! * `out_adj[v]` — out-edges of `v`, sorted by `(label, dst)`; lets the
//!   product-graph traversal fetch `σ_{label}(out(v))` with two
//!   `partition_point` calls.
//! * `label_edges[l]` — the full edge list of label `l`, sorted by
//!   `(src, dst)`; this is the base relation `l_G` used by closure-free
//!   clause evaluation and by first-label source pruning.
//!
//! Each row is its own vector (rather than one flat CSR) so that the
//! versioned-mutation layer ([`crate::VersionedGraph`]) can apply a single
//! edge insert/delete by touching only the two rows involved —
//! `O(row length)` per edge instead of a full rebuild.
//!
//! Rows are reference-counted (`Arc<Vec<_>>`) so a clone of the whole graph
//! is `O(|V| + |Σ|)` pointer bumps that *share* every row. Mutation goes
//! through [`Arc::make_mut`]: a row still shared with an older clone (a
//! frozen [`crate::GraphView`]) is copied on first write, so frozen views
//! stay immutable while the live graph pays only for the rows it dirties.

use crate::error::GraphError;
use crate::ids::{LabelId, VertexId};
use crate::label_dict::LabelDict;
use crate::rowset::Cover;
use std::sync::Arc;

/// An edge-labeled directed multigraph (the paper's `G`).
///
/// Immutable through its public API; in-place single-edge mutation is
/// reserved for [`crate::VersionedGraph`], which pairs it with epoch
/// stamping so downstream caches can detect staleness.
#[derive(Clone, Debug)]
pub struct LabeledMultigraph {
    vertex_count: usize,
    labels: LabelDict,
    out_adj: Vec<Arc<Vec<(LabelId, VertexId)>>>,
    label_edges: Vec<Arc<Vec<(VertexId, VertexId)>>>,
    edge_count: usize,
}

impl LabeledMultigraph {
    /// Number of vertices `|V|`.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// Number of edges `|E|` (after label-level deduplication).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The alphabet `Σ`.
    #[inline]
    pub fn labels(&self) -> &LabelDict {
        &self.labels
    }

    /// Number of distinct labels `|Σ|`.
    #[inline]
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        (0..self.vertex_count as u32).map(VertexId)
    }

    /// Out-edges of `v` as `(label, dst)`, sorted by `(label, dst)`.
    #[inline]
    pub fn out_edges(&self, v: VertexId) -> &[(LabelId, VertexId)] {
        &self.out_adj[v.index()]
    }

    /// Out-neighbors of `v` through edges labeled `label`, as a sorted
    /// sub-slice of the adjacency row.
    pub fn out_with_label(&self, v: VertexId, label: LabelId) -> &[(LabelId, VertexId)] {
        label_range(&self.out_adj[v.index()], label)
    }

    /// The full edge relation of `label`: `{(src, dst)}` sorted ascending.
    pub fn edges_with_label(&self, label: LabelId) -> &[(VertexId, VertexId)] {
        &self.label_edges[label.index()]
    }

    /// [`LabeledMultigraph::edges_with_label`] as the graph shares it. A
    /// holder of the `Arc` keeps that version alive, and [`Arc::ptr_eq`]
    /// with the graph's row tells that the graph has not written it since:
    /// a write to a row that someone else holds copies the row first.
    pub fn shared_edges_with_label(&self, label: LabelId) -> &Arc<Vec<(VertexId, VertexId)>> {
        &self.label_edges[label.index()]
    }

    /// Distinct source vertices of edges labeled with any of `labels`,
    /// ascending: the vertices a path whose first label is one of them can
    /// leave.
    pub fn sources_with_labels(&self, labels: impl IntoIterator<Item = LabelId>) -> Vec<VertexId> {
        let mut sources = Cover::new(self.vertex_count);
        for label in labels {
            for &(s, _) in self.edges_with_label(label) {
                sources.insert(s.raw());
            }
        }
        let mut out = Vec::new();
        sources.drain_ascending(|s| out.push(VertexId(s)));
        out
    }

    /// Whether the edge `e(src, label, dst)` exists.
    pub fn has_edge(&self, src: VertexId, label: LabelId, dst: VertexId) -> bool {
        src.index() < self.vertex_count
            && self.out_adj[src.index()]
                .binary_search(&(label, dst))
                .is_ok()
    }

    /// Average vertex degree per label, `|E| / (|V|·|Σ|)` — the x-axis of
    /// every figure in the paper's evaluation.
    pub fn degree_per_label(&self) -> f64 {
        if self.vertex_count == 0 || self.labels.is_empty() {
            return 0.0;
        }
        self.edge_count() as f64 / (self.vertex_count as f64 * self.labels.len() as f64)
    }

    /// Iterates over every edge as `(src, label, dst)` in label-major order.
    pub fn all_edges(&self) -> impl Iterator<Item = (VertexId, LabelId, VertexId)> + '_ {
        (0..self.labels.len()).flat_map(move |l| {
            let label = LabelId::from_usize(l);
            self.edges_with_label(label)
                .iter()
                .map(move |&(s, d)| (s, label, d))
        })
    }

    // ---- mutation primitives (crate-private: used by `VersionedGraph`) ----

    /// Grows the vertex set to at least `n` vertices (never shrinks).
    pub(crate) fn grow_vertices(&mut self, n: usize) {
        if n > self.vertex_count {
            self.out_adj.resize_with(n, Default::default);
            self.vertex_count = n;
        }
    }

    /// Interns a label name, growing the per-label edge table for new ids.
    pub(crate) fn intern_label_mut(&mut self, name: &str) -> LabelId {
        let id = self.labels.intern(name);
        if id.index() >= self.label_edges.len() {
            self.label_edges
                .resize_with(id.index() + 1, Default::default);
        }
        id
    }

    /// Inserts edge `e(src, label, dst)`, growing the vertex set as needed.
    ///
    /// Returns `false` (and changes nothing) if the edge already exists.
    /// Cost: `O(log + len)` of the two rows touched.
    pub(crate) fn insert_edge_raw(&mut self, src: VertexId, label: LabelId, dst: VertexId) -> bool {
        debug_assert!(label.index() < self.label_edges.len(), "unknown label id");
        self.grow_vertices(src.index().max(dst.index()) + 1);
        // `make_mut` copies a row only when a frozen view still shares it.
        if self.out_adj[src.index()]
            .binary_search(&(label, dst))
            .is_ok()
        {
            return false;
        }
        let row = Arc::make_mut(&mut self.out_adj[src.index()]);
        let at = row.binary_search(&(label, dst)).unwrap_err();
        row.insert(at, (label, dst));
        let row = Arc::make_mut(&mut self.label_edges[label.index()]);
        let at = row.binary_search(&(src, dst)).unwrap_err();
        row.insert(at, (src, dst));
        self.edge_count += 1;
        true
    }

    /// Removes edge `e(src, label, dst)`.
    ///
    /// Returns `false` (and changes nothing) if the edge does not exist.
    /// The vertex set and alphabet never shrink — vertex ids and label ids
    /// stay stable across deletions.
    pub(crate) fn remove_edge_raw(&mut self, src: VertexId, label: LabelId, dst: VertexId) -> bool {
        if src.index() >= self.vertex_count
            || dst.index() >= self.vertex_count
            || label.index() >= self.label_edges.len()
        {
            return false;
        }
        let Ok(at) = self.out_adj[src.index()].binary_search(&(label, dst)) else {
            return false;
        };
        Arc::make_mut(&mut self.out_adj[src.index()]).remove(at);
        let row = Arc::make_mut(&mut self.label_edges[label.index()]);
        let at = row
            .binary_search(&(src, dst))
            .expect("label_edges out of sync");
        row.remove(at);
        self.edge_count -= 1;
        true
    }
}

/// Narrows an adjacency row (sorted by `(label, ...)`) to the run of one label.
#[inline]
fn label_range(row: &[(LabelId, VertexId)], label: LabelId) -> &[(LabelId, VertexId)] {
    let lo = row.partition_point(|&(l, _)| l < label);
    let hi = row.partition_point(|&(l, _)| l <= label);
    &row[lo..hi]
}

/// Incremental builder for [`LabeledMultigraph`].
///
/// Vertices are identified by raw `u32` ids; the vertex count is the maximum
/// id seen plus one, unless raised explicitly with
/// [`GraphBuilder::ensure_vertices`] (isolated vertices matter for `ε` and
/// `R*` results, which contain `(v, v)` for *every* vertex).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    labels: LabelDict,
    triples: Vec<(VertexId, LabelId, VertexId)>,
    min_vertices: usize,
}

impl GraphBuilder {
    /// A fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder with pre-allocated space for `edges` edges.
    pub fn with_capacity(edges: usize) -> Self {
        Self {
            labels: LabelDict::new(),
            triples: Vec::with_capacity(edges),
            min_vertices: 0,
        }
    }

    /// Declares that the graph has at least `n` vertices.
    pub fn ensure_vertices(&mut self, n: usize) -> &mut Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Adds edge `e(src, label, dst)`, interning the label name.
    pub fn add_edge(&mut self, src: u32, label: &str, dst: u32) -> &mut Self {
        let l = self.labels.intern(label);
        self.add_edge_id(src, l, dst)
    }

    /// Adds an edge with an already-interned label id.
    pub fn add_edge_id(&mut self, src: u32, label: LabelId, dst: u32) -> &mut Self {
        debug_assert!(label.index() < self.labels.len(), "unknown label id");
        self.triples.push((VertexId(src), label, VertexId(dst)));
        self
    }

    /// Interns a label name without adding an edge (useful to fix the
    /// alphabet ordering before bulk loading).
    pub fn intern_label(&mut self, name: &str) -> LabelId {
        self.labels.intern(name)
    }

    /// Finalizes the graph: dedups `(src, label, dst)` triples (the
    /// distinct-labels multigraph constraint) and freezes CSR storage.
    pub fn build(self) -> LabeledMultigraph {
        let GraphBuilder {
            labels,
            mut triples,
            min_vertices,
        } = self;
        let vertex_count = triples
            .iter()
            .flat_map(|&(s, _, d)| [s.index() + 1, d.index() + 1])
            .max()
            .unwrap_or(0)
            .max(min_vertices);

        triples.sort_unstable();
        triples.dedup();
        let edge_count = triples.len();

        // out rows arrive sorted by (src, label, dst) -> already (label, dst) sorted.
        let mut out_adj: Vec<Vec<(LabelId, VertexId)>> = vec![Vec::new(); vertex_count];
        for &(s, l, d) in &triples {
            out_adj[s.index()].push((l, d));
        }
        let mut label_edges: Vec<Vec<(VertexId, VertexId)>> = vec![Vec::new(); labels.len()];
        for &(s, l, d) in &triples {
            label_edges[l.index()].push((s, d));
        }
        for row in &mut label_edges {
            row.sort_unstable();
        }

        LabeledMultigraph {
            vertex_count,
            labels,
            out_adj: out_adj.into_iter().map(Arc::new).collect(),
            label_edges: label_edges.into_iter().map(Arc::new).collect(),
            edge_count,
        }
    }

    /// Like [`GraphBuilder::build`], but validates all vertex ids against an
    /// explicit vertex count instead of inferring it.
    pub fn build_with_vertex_count(mut self, n: usize) -> Result<LabeledMultigraph, GraphError> {
        for &(s, _, d) in &self.triples {
            for v in [s, d] {
                if v.index() >= n {
                    return Err(GraphError::VertexOutOfBounds {
                        vertex: v.raw(),
                        vertex_count: n as u32,
                    });
                }
            }
        }
        self.min_vertices = n;
        Ok(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LabeledMultigraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, "a", 1)
            .add_edge(1, "b", 2)
            .add_edge(1, "a", 2)
            .add_edge(2, "a", 0)
            .add_edge(1, "b", 2); // duplicate triple, must be dropped
        b.build()
    }

    #[test]
    fn counts_and_dedup() {
        let g = tiny();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 4); // duplicate (1,b,2) removed
        assert_eq!(g.label_count(), 2);
    }

    #[test]
    fn parallel_edges_with_distinct_labels_are_kept() {
        let g = tiny();
        let a = g.labels().get("a").unwrap();
        let b = g.labels().get("b").unwrap();
        assert!(g.has_edge(VertexId(1), a, VertexId(2)));
        assert!(g.has_edge(VertexId(1), b, VertexId(2)));
    }

    #[test]
    fn out_edges_sorted_by_label_then_dst() {
        let g = tiny();
        let row = g.out_edges(VertexId(1));
        assert!(row.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(row.len(), 2);
    }

    #[test]
    fn out_with_label_narrows_correctly() {
        let g = tiny();
        let a = g.labels().get("a").unwrap();
        let dsts: Vec<u32> = g
            .out_with_label(VertexId(1), a)
            .iter()
            .map(|&(_, d)| d.raw())
            .collect();
        assert_eq!(dsts, vec![2]);
        // Label with no edges from this vertex.
        let b = g.labels().get("b").unwrap();
        assert!(g.out_with_label(VertexId(0), b).is_empty());
    }

    #[test]
    fn out_rows_and_label_rows_hold_every_edge_once() {
        let g = tiny();
        let total_out: usize = g.vertices().map(|v| g.out_edges(v).len()).sum();
        let total_label: usize = (0..g.label_count())
            .map(|l| g.edges_with_label(LabelId::from_usize(l)).len())
            .sum();
        assert_eq!(total_out, g.edge_count());
        assert_eq!(total_label, g.edge_count());
    }

    #[test]
    fn label_edge_relation() {
        let g = tiny();
        let a = g.labels().get("a").unwrap();
        let edges: Vec<(u32, u32)> = g
            .edges_with_label(a)
            .iter()
            .map(|&(s, d)| (s.raw(), d.raw()))
            .collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0)]);
        assert_eq!(g.edges_with_label(a).len(), 3);
    }

    #[test]
    fn sources_with_labels_distinct_sorted() {
        let mut b = GraphBuilder::new();
        b.add_edge(5, "x", 1)
            .add_edge(5, "x", 2)
            .add_edge(1, "x", 0)
            .add_edge(5, "y", 0)
            .add_edge(3, "y", 4);
        let g = b.build();
        let x = g.labels().get("x").unwrap();
        let y = g.labels().get("y").unwrap();
        assert_eq!(g.sources_with_labels([x]), vec![VertexId(1), VertexId(5)]);
        // Vertex 5 leaves on both labels and is listed once.
        assert_eq!(
            g.sources_with_labels([y, x, y]),
            vec![VertexId(1), VertexId(3), VertexId(5)]
        );
        assert!(g.sources_with_labels([]).is_empty());
    }

    #[test]
    fn ensure_vertices_adds_isolated() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, "a", 1);
        b.ensure_vertices(10);
        let g = b.build();
        assert_eq!(g.vertex_count(), 10);
        assert!(g.out_edges(VertexId(9)).is_empty());
    }

    #[test]
    fn build_with_vertex_count_validates() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, "a", 7);
        let err = b.clone().build_with_vertex_count(5).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfBounds {
                vertex: 7,
                vertex_count: 5
            }
        );
        let g = b.build_with_vertex_count(8).unwrap();
        assert_eq!(g.vertex_count(), 8);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree_per_label(), 0.0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn degree_per_label_matches_formula() {
        let g = tiny();
        let expect = 4.0 / (3.0 * 2.0);
        assert!((g.degree_per_label() - expect).abs() < 1e-12);
    }

    #[test]
    fn all_edges_roundtrip() {
        let g = tiny();
        let mut edges: Vec<(u32, u32, u32)> = g
            .all_edges()
            .map(|(s, l, d)| (s.raw(), l.raw(), d.raw()))
            .collect();
        edges.sort_unstable();
        assert_eq!(edges.len(), g.edge_count());
        assert!(edges.contains(&(1, g.labels().get("b").unwrap().raw(), 2)));
    }

    #[test]
    fn self_loops_allowed() {
        let mut b = GraphBuilder::new();
        b.add_edge(3, "a", 3);
        let g = b.build();
        let a = g.labels().get("a").unwrap();
        assert!(g.has_edge(VertexId(3), a, VertexId(3)));
        assert_eq!(g.vertex_count(), 4);
    }
}
