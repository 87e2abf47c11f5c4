//! Pinned, immutable epoch views — the MVCC read path.
//!
//! [`Engine::pin`](crate::Engine::pin) captures the engine's current
//! state as an [`EpochView`]: a frozen graph snapshot
//! ([`rpq_graph::GraphView`]) plus shared handles to the structural
//! cache, the per-(epoch, query) result cache and the metric
//! accumulators. A view answers `evaluate`/`check`/`ends_from` entirely
//! from that frozen state:
//!
//! * results are **bitwise identical** before, during and after any
//!   later mutation of the engine — the frozen rows are copy-on-write
//!   shared, never overwritten;
//! * structural-cache lookups are pinned to the view's epoch (an entry
//!   from any other epoch is invisible), and anything a pinned reader
//!   computes is inserted *at* its epoch without ever displacing newer
//!   entries;
//! * materialized results are memoized in the result instance of
//!   [`crate::SharedCache`], keyed by epoch + canonical query — the fast
//!   tier above the structural instance, bounded by the same budget.
//!
//! Views are cheap to clone (`Arc` bumps + a `Copy` config) and safe to
//! send across threads; the serving layer publishes one per epoch by
//! atomic swap and retains a short ring of them for `query … at <epoch>`
//! time travel.

use crate::cache::{EpochPin, Lookup, Shared, SharingKind};
use crate::engine::{EngineConfig, Handles};
use crate::error::EngineError;
use rpq_graph::{GraphView, LabeledMultigraph, PairSet};
use rpq_regex::Regex;
use std::sync::Arc;
use std::time::Instant;

/// An immutable view of an engine at one graph epoch (see the module
/// docs). Obtained from [`Engine::pin`](crate::Engine::pin).
#[derive(Clone)]
pub struct EpochView {
    pub(crate) graph: Arc<GraphView>,
    /// The engine's caches, accumulators and base configuration as of pin
    /// time — shared with it and with every other view, not copied.
    pub(crate) handles: Handles,
    /// Shared pin on this view's epoch in the structural cache: while
    /// any clone of the view is alive, budget eviction spares the
    /// entries the view gets fresh hits on (see `CacheBudget`).
    pub(crate) _pin: Arc<EpochPin>,
}

// `config`, `cache`, `results`, `check`, `ends_from` and the metric accessors
// are the ones `Engine` has: `read_surface!` in `engine.rs` writes both.
impl EpochView {
    /// The epoch this view is pinned to.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// The frozen graph snapshot.
    #[inline]
    pub fn graph(&self) -> &LabeledMultigraph {
        self.graph.graph()
    }

    /// Evaluates one query against the pinned epoch, under the captured
    /// base configuration. See [`EpochView::evaluate_with`].
    pub fn evaluate(&self, query: &Regex) -> Result<Arc<PairSet>, EngineError> {
        self.evaluate_with(query, self.handles.config)
    }

    /// [`EpochView::evaluate`] under an explicit configuration (the
    /// serving layer's per-connection overlay, resolved).
    ///
    /// The result cache is consulted first — keyed by `(epoch, canonical
    /// query)` only, since results are identical across strategies
    /// (property-tested). On a miss the query runs through
    /// the same recursion as `Engine::evaluate`, pinned to this view's
    /// epoch: structural entries stamped with exactly this epoch are
    /// hits, anything else is recomputed from the frozen graph, and
    /// inserts never displace newer entries. The materialized result is
    /// memoized before returning.
    ///
    /// The configuration's clause budget is assumed uniform across
    /// callers sharing one result cache (the serving layer never varies
    /// it per connection): a memoized result is returned without
    /// re-checking the budget.
    pub fn evaluate_with(
        &self,
        query: &Regex,
        config: EngineConfig,
    ) -> Result<Arc<PairSet>, EngineError> {
        let epoch = self.epoch();
        // Built once, outside any lock, for both the probe and the insert.
        let key = format!("{epoch}@{}", query.canonical_key());
        let results = &self.handles.results;
        if let Lookup::Fresh(Shared::Result(hit)) = results.lookup(SharingKind::Result, &key, epoch)
        {
            return Ok(hit);
        }
        let t = Instant::now();
        let result = self.handles.evaluate(self.graph(), epoch, &config, query)?;
        let result = Arc::new(result);
        // The evaluation time is the entry's cost-to-rebuild.
        let memo = Shared::Result(Arc::clone(&result));
        results.insert(key, memo, None, epoch, t.elapsed());
        Ok(result)
    }

    /// Parses and evaluates a query string against the pinned epoch.
    pub fn evaluate_str(&self, query: &str) -> Result<Arc<PairSet>, EngineError> {
        let q = Regex::parse(query)?;
        self.evaluate(&q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use rpq_graph::fixtures::paper_graph;
    use rpq_graph::{GraphDelta, VertexId};

    #[test]
    fn pinned_view_survives_later_deltas_bitwise() {
        let mut e = Engine::new_dynamic(paper_graph());
        let q = Regex::parse("d.(b.c)+.c").unwrap();
        let before = e.evaluate(&q).unwrap();

        let v0 = e.pin();
        assert_eq!(v0.epoch(), 0);

        // Mutate the engine underneath the pinned view.
        let mut d = GraphDelta::new();
        d.insert(3, "c", 7).delete(2, "b", 5);
        e.apply_delta(&d);
        let after = e.evaluate(&q).unwrap();
        assert_ne!(before, after, "delta must move the live result");

        // The view still answers from epoch 0, bit for bit.
        assert_eq!(*v0.evaluate(&q).unwrap(), before);
        assert_eq!(v0.epoch(), 0);
        assert_eq!(e.epoch(), 1);

        // A fresh pin sees the new epoch.
        let v1 = e.pin();
        assert_eq!(v1.epoch(), 1);
        assert_eq!(*v1.evaluate(&q).unwrap(), after);
    }

    #[test]
    fn view_results_are_memoized_per_epoch() {
        let mut e = Engine::new_dynamic(paper_graph());
        let q = Regex::parse("(b.c)+").unwrap();
        let v0 = e.pin();
        let first = v0.evaluate(&q).unwrap();
        let second = v0.evaluate(&q).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "second call is a view hit");
        assert_eq!(e.results().hits(), 1);
        assert_eq!(e.results().misses(), 1);

        // A new epoch misses the memo and computes its own entry.
        e.apply_delta(GraphDelta::new().delete(2, "b", 5));
        let v1 = e.pin();
        let moved = v1.evaluate(&q).unwrap();
        assert!(!Arc::ptr_eq(&first, &moved));
        assert_eq!(e.results().misses(), 2);
        assert_eq!(e.results().occupancy_entries(), 2);
    }

    #[test]
    fn old_view_never_displaces_newer_structural_entries() {
        let mut e = Engine::new_dynamic(paper_graph());
        let q = Regex::parse("(b.c)+").unwrap();
        let v0 = e.pin();
        e.apply_delta(GraphDelta::new().insert(6, "b", 8).insert(8, "c", 6));
        // Live engine computes the epoch-1 structure first…
        let live = e.evaluate(&q).unwrap();
        let live_pairs = e.shared_data_pairs();
        // …then the old view evaluates at epoch 0, inserting its own
        // structure at epoch 0 — which must not displace the fresh one.
        let pinned = v0.evaluate(&q).unwrap();
        assert_ne!(*pinned, live);
        assert_eq!(e.shared_data_pairs(), live_pairs);
        assert!(e.cache().contains_fresh(SharingKind::Rtc, "b.c"));
        // The live result is untouched by the pinned evaluation.
        assert_eq!(e.evaluate(&q).unwrap(), live);
    }

    #[test]
    fn view_metrics_are_shared_with_the_engine() {
        let e = Engine::new_dynamic(paper_graph());
        let v = e.pin();
        v.evaluate_str("d.(b.c)+.c").unwrap();
        // The evaluation above accumulated into the engine's breakdown…
        assert!(e.breakdown().total > std::time::Duration::ZERO);
        assert_eq!(v.breakdown().total, e.breakdown().total);
        // …and reset_metrics (engine-side) clears the view's counters too,
        // including the result-cache tiers (they share one set of Arcs, so
        // nothing is double-counted across publishes).
        e.reset_metrics();
        assert_eq!(v.breakdown().total, std::time::Duration::ZERO);
        assert_eq!((e.results().hits(), e.results().misses()), (0, 0));
    }

    #[test]
    fn selective_apis_answer_from_the_pinned_graph() {
        let mut e = Engine::new_dynamic(paper_graph());
        let q = Regex::parse("d.(b.c)+.c").unwrap();
        let v0 = e.pin();
        e.apply_delta(GraphDelta::new().delete(7, "d", 4));
        // Live: source 7 lost its d-edge, no paths remain.
        assert!(e.ends_from(&q, VertexId(7)).is_empty());
        // Pinned: epoch 0 still has them.
        let mut ends: Vec<u32> = v0
            .ends_from(&q, VertexId(7))
            .iter()
            .map(|x| x.raw())
            .collect();
        ends.sort_unstable();
        assert_eq!(ends, vec![3, 5]);
        assert!(v0.check(&q, VertexId(7), VertexId(5)));
        assert!(!e.check(&q, VertexId(7), VertexId(5)));
    }

    #[test]
    fn pin_of_a_borrowed_engine_is_epoch_zero() {
        let g = paper_graph();
        let e = Engine::new(&g);
        let v = e.pin();
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.graph().edge_count(), g.edge_count());
        assert_eq!(
            *v.evaluate_str("d.(b.c)+.c").unwrap(),
            e.evaluate_str("d.(b.c)+.c").unwrap()
        );
    }

    /// An engine built from `&g` owns a copy: its pins at one epoch share
    /// one frozen graph, and a delta moves the engine, never `g`.
    #[test]
    fn an_engine_from_a_reference_owns_one_store() {
        let g = paper_graph();
        let edges = |g: &LabeledMultigraph| g.all_edges().collect::<Vec<_>>();
        let mut e = Engine::new(&g);
        let (v0, again) = (e.pin(), e.pin());
        assert!(Arc::ptr_eq(&v0.graph, &again.graph), "one freeze per epoch");

        e.apply_delta(GraphDelta::new().insert(6, "b", 8));
        assert_eq!(edges(&g), edges(&paper_graph()));
        let v1 = e.pin();
        assert!(!Arc::ptr_eq(&v0.graph, &v1.graph));
        assert_eq!(v1.epoch(), 1);
        assert_eq!(v1.graph().edge_count(), g.edge_count() + 1);
    }
}
