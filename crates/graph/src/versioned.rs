//! The versioned mutation layer: [`GraphDelta`] batches and the
//! epoch-stamped [`VersionedGraph`].
//!
//! The paper builds `G` once and shares closures across queries; a serving
//! engine must additionally survive edge churn. This module is the
//! graph-side half of that story: a [`GraphDelta`] collects edge
//! insertions/deletions (interning label names delta-locally, so a delta
//! can introduce labels the graph has never seen), and a
//! [`VersionedGraph`] applies deltas in place — `O(touched rows)` per
//! edge, not a rebuild — while bumping a monotonically increasing *epoch*.
//! Downstream caches (`rpq_core::SharedCache`) compare their entries'
//! build epoch against the graph epoch to detect staleness instead of
//! silently serving closures of a graph that no longer exists.
//!
//! Semantics pinned here (and relied on by the engine's refresh of stale
//! shared structures in `rpq_core`):
//!
//! * deletions apply **before** insertions within one delta, so a triple
//!   both deleted and inserted in the same delta ends up present;
//! * vertex ids and label ids never shrink or shift — deleting the last
//!   edge of a vertex/label leaves the id allocated (isolated);
//! * applying an empty delta still advances the epoch (callers can use
//!   this as an explicit invalidation barrier).

use crate::ids::{LabelId, VertexId};
use crate::multigraph::LabeledMultigraph;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// A batch of edge insertions and deletions against a labeled multigraph.
///
/// Labels are named by string and interned *delta-locally*: the mapping to
/// graph [`LabelId`]s happens at apply time, so a delta built against one
/// graph snapshot stays meaningful for later snapshots (and can introduce
/// brand-new labels).
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    /// Delta-local label table, in first-use order.
    labels: Vec<String>,
    label_index: FxHashMap<String, u32>,
    /// `(src, local label, dst)` triples to insert.
    inserts: Vec<(u32, u32, u32)>,
    /// `(src, local label, dst)` triples to delete.
    deletes: Vec<(u32, u32, u32)>,
    min_vertices: usize,
}

impl GraphDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues insertion of edge `e(src, label, dst)`.
    pub fn insert(&mut self, src: u32, label: &str, dst: u32) -> &mut Self {
        let l = self.intern(label);
        self.inserts.push((src, l, dst));
        self
    }

    /// Queues deletion of edge `e(src, label, dst)`.
    pub fn delete(&mut self, src: u32, label: &str, dst: u32) -> &mut Self {
        let l = self.intern(label);
        self.deletes.push((src, l, dst));
        self
    }

    /// Declares that the graph must have at least `n` vertices after the
    /// delta is applied (isolated-vertex growth, mirroring
    /// [`crate::GraphBuilder::ensure_vertices`]).
    pub fn ensure_vertices(&mut self, n: usize) -> &mut Self {
        self.min_vertices = self.min_vertices.max(n);
        self
    }

    /// Total queued operations (`|delta|`).
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the delta queues no operations and no vertex growth.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty() && self.min_vertices == 0
    }

    /// The distinct label names this delta mentions, in first-use order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.labels.iter().map(String::as_str)
    }

    /// Iterates queued insertions as `(src, label name, dst)`.
    pub fn inserts(&self) -> impl Iterator<Item = (u32, &str, u32)> {
        self.inserts
            .iter()
            .map(move |&(s, l, d)| (s, self.labels[l as usize].as_str(), d))
    }

    /// Iterates queued deletions as `(src, label name, dst)`.
    pub fn deletes(&self) -> impl Iterator<Item = (u32, &str, u32)> {
        self.deletes
            .iter()
            .map(move |&(s, l, d)| (s, self.labels[l as usize].as_str(), d))
    }

    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&l) = self.label_index.get(label) {
            return l;
        }
        let l = self.labels.len() as u32;
        self.labels.push(label.to_owned());
        self.label_index.insert(label.to_owned(), l);
        l
    }
}

/// What [`VersionedGraph::apply`] actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaSummary {
    /// The epoch the graph is at after this delta.
    pub epoch: u64,
    /// Insertions that created a new edge (duplicates of existing edges
    /// are no-ops and not counted).
    pub edges_inserted: usize,
    /// Deletions that removed an existing edge (deletes of absent edges
    /// are no-ops and not counted).
    pub edges_deleted: usize,
    /// Labels the graph had never seen before this delta.
    pub new_labels: usize,
    /// Vertices added to the vertex set (ids past the old `|V|`).
    pub new_vertices: usize,
}

/// An immutable snapshot of a [`VersionedGraph`] at one epoch.
///
/// Produced only by [`VersionedGraph::freeze`]. The contained graph shares
/// its adjacency rows with the live graph through reference counting, so a
/// view costs `O(|V| + |Σ|)` pointer bumps to create and holds the rows
/// alive for as long as any reader pins it — later mutations copy only
/// the rows they touch (copy-on-write) and can never be observed here.
#[derive(Clone, Debug)]
pub struct GraphView {
    graph: LabeledMultigraph,
    epoch: u64,
}

impl GraphView {
    /// The frozen graph. Immutable: no `&mut` access exists to a view.
    #[inline]
    pub fn graph(&self) -> &LabeledMultigraph {
        &self.graph
    }

    /// The epoch this view was frozen at.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A mutable labeled multigraph with a monotonically increasing epoch.
///
/// Every applied delta — even an empty one — advances the epoch by one, so
/// `epoch()` is a complete version stamp: two reads with the same epoch
/// observed the same graph.
///
/// ```
/// use rpq_graph::{GraphBuilder, GraphDelta, VersionedGraph, VertexId};
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, "a", 1);
/// let mut g = VersionedGraph::new(b.build());
/// assert_eq!(g.epoch(), 0);
///
/// let mut delta = GraphDelta::new();
/// delta.insert(1, "b", 2).delete(0, "a", 1);
/// let summary = g.apply(&delta);
/// assert_eq!(summary.epoch, 1);
/// assert_eq!(summary.edges_inserted, 1);
/// assert_eq!(summary.edges_deleted, 1);
/// assert_eq!(g.graph().edge_count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct VersionedGraph {
    graph: LabeledMultigraph,
    epoch: u64,
}

impl VersionedGraph {
    /// Wraps a built graph at epoch 0.
    pub fn new(graph: LabeledMultigraph) -> Self {
        Self::restore(graph, 0)
    }

    /// Wraps a graph at an explicit epoch — the deserialization path of
    /// [`crate::snapshot`], where the restored graph must keep the epoch
    /// it was saved at so caches stamped before the save stay *fresh*
    /// rather than restarting the epoch clock at 0.
    pub fn restore(graph: LabeledMultigraph, epoch: u64) -> Self {
        Self { graph, epoch }
    }

    /// An immutable view of the graph at the current epoch.
    ///
    /// A freeze clones the row *tables* — `O(|V| + |Σ|)` reference bumps,
    /// no row data. Later `apply` calls copy-on-write only the rows they
    /// touch, so holding a view pins at most the rows that have since been
    /// dirtied plus the shared rest.
    pub fn freeze(&self) -> Arc<GraphView> {
        Arc::new(GraphView {
            graph: self.graph.clone(),
            epoch: self.epoch,
        })
    }

    /// The current graph snapshot.
    #[inline]
    pub fn graph(&self) -> &LabeledMultigraph {
        &self.graph
    }

    /// The current epoch (0 = as built, +1 per applied delta).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Applies `delta` in place: deletions first, then insertions, then
    /// vertex growth. Advances the epoch by one and reports what changed.
    ///
    /// Cost is `O(Σ touched-row lengths)` over the `|delta|` edges — the
    /// graph is never rebuilt.
    pub fn apply(&mut self, delta: &GraphDelta) -> DeltaSummary {
        let old_vertices = self.graph.vertex_count();
        let old_labels = self.graph.label_count();
        // Resolve delta-local labels against the graph's dictionary,
        // interning new names (deletes of unknown labels intern too — the
        // alphabet is append-only and the delete itself is a no-op).
        let label_map: Vec<LabelId> = delta
            .labels
            .iter()
            .map(|name| self.graph.intern_label_mut(name))
            .collect();

        let mut summary = DeltaSummary::default();
        for &(s, l, d) in &delta.deletes {
            if self
                .graph
                .remove_edge_raw(VertexId(s), label_map[l as usize], VertexId(d))
            {
                summary.edges_deleted += 1;
            }
        }
        for &(s, l, d) in &delta.inserts {
            if self
                .graph
                .insert_edge_raw(VertexId(s), label_map[l as usize], VertexId(d))
            {
                summary.edges_inserted += 1;
            }
        }
        self.graph.grow_vertices(delta.min_vertices);

        self.epoch += 1;
        summary.epoch = self.epoch;
        summary.new_labels = self.graph.label_count() - old_labels;
        summary.new_vertices = self.graph.vertex_count().saturating_sub(old_vertices);
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigraph::GraphBuilder;

    fn base() -> LabeledMultigraph {
        let mut b = GraphBuilder::new();
        b.add_edge(0, "a", 1)
            .add_edge(1, "b", 2)
            .add_edge(2, "a", 0);
        b.build()
    }

    /// Rebuilds the versioned graph's edge set from scratch with a plain
    /// builder — the oracle every mutation sequence must agree with.
    fn rebuild_oracle(g: &LabeledMultigraph) -> LabeledMultigraph {
        let mut b = GraphBuilder::new();
        b.ensure_vertices(g.vertex_count());
        for name in g
            .labels()
            .iter()
            .map(|(_, n)| n.to_owned())
            .collect::<Vec<_>>()
        {
            b.intern_label(&name);
        }
        for (s, l, d) in g.all_edges() {
            b.add_edge(s.raw(), g.labels().name(l), d.raw());
        }
        b.build()
    }

    fn assert_same_graph(a: &LabeledMultigraph, b: &LabeledMultigraph) {
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for v in a.vertices() {
            assert_eq!(a.out_edges(v), b.out_edges(v), "out row of {v}");
        }
        for (l, _) in a.labels().iter() {
            assert_eq!(a.edges_with_label(l), b.edges_with_label(l), "label {l}");
        }
    }

    #[test]
    fn epoch_advances_per_delta() {
        let mut g = VersionedGraph::new(base());
        assert_eq!(g.epoch(), 0);
        g.apply(&GraphDelta::new());
        assert_eq!(g.epoch(), 1);
        let mut d = GraphDelta::new();
        d.insert(0, "c", 2);
        g.apply(&d);
        assert_eq!(g.epoch(), 2);
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut g = VersionedGraph::new(base());
        let mut d = GraphDelta::new();
        d.insert(2, "b", 1).insert(0, "a", 1); // second is a duplicate
        let s = g.apply(&d);
        assert_eq!(s.edges_inserted, 1);
        assert_eq!(g.graph().edge_count(), 4);

        let mut d = GraphDelta::new();
        d.delete(2, "b", 1).delete(9, "zz", 9); // second is absent
        let s = g.apply(&d);
        assert_eq!(s.edges_deleted, 1);
        assert_eq!(g.graph().edge_count(), 3);
        assert_same_graph(g.graph(), &rebuild_oracle(g.graph()));
    }

    #[test]
    fn delete_then_reinsert_in_one_delta_keeps_edge() {
        let mut g = VersionedGraph::new(base());
        let mut d = GraphDelta::new();
        d.delete(0, "a", 1).insert(0, "a", 1);
        let s = g.apply(&d);
        assert_eq!((s.edges_deleted, s.edges_inserted), (1, 1));
        let a = g.graph().labels().get("a").unwrap();
        assert!(g.graph().has_edge(VertexId(0), a, VertexId(1)));
    }

    #[test]
    fn new_labels_and_vertices_are_reported() {
        let mut g = VersionedGraph::new(base());
        let mut d = GraphDelta::new();
        d.insert(5, "knows", 6).ensure_vertices(9);
        let s = g.apply(&d);
        assert_eq!(s.new_labels, 1);
        assert_eq!(s.new_vertices, 6); // 3 -> 9
        assert_eq!(g.graph().vertex_count(), 9);
        assert!(g.graph().labels().get("knows").is_some());
        assert_same_graph(g.graph(), &rebuild_oracle(g.graph()));
    }

    #[test]
    fn deleting_last_edge_keeps_vertex_and_label_ids() {
        let mut g = VersionedGraph::new(base());
        let b_id = g.graph().labels().get("b").unwrap();
        let mut d = GraphDelta::new();
        d.delete(1, "b", 2);
        g.apply(&d);
        assert_eq!(g.graph().vertex_count(), 3);
        assert_eq!(g.graph().labels().get("b"), Some(b_id));
        assert!(g.graph().edges_with_label(b_id).is_empty());
    }

    #[test]
    fn mutation_sequence_matches_rebuild() {
        let mut g = VersionedGraph::new(base());
        let script: &[(&str, u32, &str, u32)] = &[
            ("ins", 0, "c", 2),
            ("ins", 3, "a", 0),
            ("del", 1, "b", 2),
            ("ins", 2, "c", 2), // self-loop
            ("del", 0, "a", 1),
            ("ins", 0, "a", 1), // reinsert
            ("del", 2, "a", 0),
        ];
        for &(op, s, l, d) in script {
            let mut delta = GraphDelta::new();
            if op == "ins" {
                delta.insert(s, l, d);
            } else {
                delta.delete(s, l, d);
            }
            g.apply(&delta);
            assert_same_graph(g.graph(), &rebuild_oracle(g.graph()));
        }
        assert_eq!(g.epoch(), script.len() as u64);
    }

    #[test]
    fn freeze_is_immutable() {
        let mut g = VersionedGraph::new(base());
        let v0 = g.freeze();
        assert_eq!(v0.epoch(), 0);

        let mut d = GraphDelta::new();
        d.insert(0, "c", 2).delete(0, "a", 1);
        g.apply(&d);

        // The pinned view still shows epoch 0's graph, bit for bit.
        assert_eq!(v0.graph().edge_count(), 3);
        let a = v0.graph().labels().get("a").unwrap();
        assert!(v0.graph().has_edge(VertexId(0), a, VertexId(1)));
        assert!(v0.graph().labels().get("c").is_none());
        assert_same_graph(v0.graph(), &rebuild_oracle(v0.graph()));

        // A fresh freeze sees the new epoch.
        let v1 = g.freeze();
        assert!(!Arc::ptr_eq(&v0, &v1));
        assert_eq!(v1.epoch(), 1);
        assert!(!v1.graph().has_edge(VertexId(0), a, VertexId(1)));
    }

    #[test]
    fn freeze_shares_untouched_rows() {
        let mut g = VersionedGraph::new(base());
        let view = g.freeze();
        let mut d = GraphDelta::new();
        d.insert(0, "c", 2);
        g.apply(&d);
        // Vertex 1's rows were untouched by the delta: the live graph and
        // the frozen view must still hand out the very same row storage.
        assert_eq!(
            view.graph().out_edges(VertexId(1)).as_ptr(),
            g.graph().out_edges(VertexId(1)).as_ptr(),
        );
        // Vertex 0's out row was dirtied, so it diverged (copy-on-write).
        assert_ne!(
            view.graph().out_edges(VertexId(0)).as_ptr(),
            g.graph().out_edges(VertexId(0)).as_ptr(),
        );
    }

    #[test]
    fn delta_accessors() {
        let mut d = GraphDelta::new();
        assert!(d.is_empty());
        d.insert(0, "a", 1).delete(1, "b", 2).insert(2, "a", 3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.inserts().count(), 2);
        assert_eq!(d.deletes().count(), 1);
        assert_eq!(d.labels().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(
            d.inserts().collect::<Vec<_>>(),
            vec![(0, "a", 1), (2, "a", 3)]
        );
        assert_eq!(d.deletes().collect::<Vec<_>>(), vec![(1, "b", 2)]);
    }
}
