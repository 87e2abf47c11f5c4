//! The [`Engine`] facade: one graph, one strategy, shared caches, timings.

use crate::breakdown::{Breakdown, EliminationStats, MaintenanceMetrics};
use crate::cache::{CacheBudget, EpochPin, SharedCache, SharingKind};
use crate::error::EngineError;
use crate::sharing::{eval_query, obtain, prepare_set, EvalCtx};
use crate::view::EpochView;
use rpq_eval::{find_witness, ProductEvaluator};
use rpq_graph::{
    DeltaSummary, GraphDelta, LabeledMultigraph, PairSet, RowSetPolicy, VersionedGraph, VertexId,
};
use rpq_reduction::MaintenanceConfig;
use rpq_regex::{Regex, DEFAULT_CLAUSE_LIMIT};
use std::marker::PhantomData;
use std::ops::AddAssign;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Multiple-RPQ evaluation strategy (the comparison set of Section V).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Evaluate each query independently with the automaton-based method of
    /// Yakovets et al. \[5\]; share nothing.
    NoSharing,
    /// Share the materialized `R⁺_G` among queries (Abul-Basher \[8\]).
    FullSharing,
    /// Share the reduced transitive closure (this paper).
    RtcSharing,
}

impl Strategy {
    /// All strategies, in the paper's presentation order.
    pub const ALL: [Strategy; 3] = [
        Strategy::NoSharing,
        Strategy::FullSharing,
        Strategy::RtcSharing,
    ];

    /// The structure this strategy caches per closure body; `None` for
    /// NoSharing, which shares nothing.
    pub fn kind(&self) -> Option<SharingKind> {
        match self {
            Strategy::NoSharing => None,
            Strategy::FullSharing => Some(SharingKind::Full),
            Strategy::RtcSharing => Some(SharingKind::Rtc),
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Strategy::NoSharing => "NoSharing",
            Strategy::FullSharing => "FullSharing",
            Strategy::RtcSharing => "RTCSharing",
        })
    }
}

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EngineConfig {
    /// Evaluation strategy.
    pub strategy: Strategy,
    /// DNF clause budget (guards against exponential blow-up).
    pub dnf_clause_limit: usize,
    /// Field-less: a stale shared structure is re-stamped if its body's
    /// [`crate::Footprint`] did not move and rebuilt otherwise, with nothing
    /// to tune. The field stays only because the benchmark harness's trace
    /// probe reads it ([`rpq_reduction::probe_shim`]).
    pub maintenance: MaintenanceConfig,
    /// Field-less: every closure row's layout follows the one density rule
    /// (`RowSet::wants_dense`), with nothing to tune. The field stays only
    /// because the benchmark harness's trace probe reads it (ROADMAP 4g).
    pub representation: RowSetPolicy,
    /// One retention budget over both [`SharedCache`] instances: structures
    /// plus memoized results stay within it, results making room for
    /// structures, never the reverse. Unbounded by default (every result of
    /// a live or pinned epoch is kept). This field is the only way to set a
    /// budget; `rpq --cache-budget` parses its spec into it. Results are the
    /// same under any budget; whatever it is, [`Engine::apply_delta`] drops
    /// every memoized result whose epoch is neither live nor pinned by a
    /// live view.
    pub cache_budget: CacheBudget,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::RtcSharing,
            dnf_clause_limit: DEFAULT_CLAUSE_LIMIT,
            maintenance: MaintenanceConfig,
            representation: RowSetPolicy,
            cache_budget: CacheBudget::default(),
        }
    }
}

/// Outcome of [`Engine::prepare`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrepareReport {
    /// Closure bodies whose shared structure was computed by this call.
    pub bodies_computed: usize,
    /// Bodies that were already cached.
    pub bodies_reused: usize,
    /// Total shared pairs held after preparation.
    pub shared_pairs: usize,
}

/// An RPQ evaluation engine bound to a graph.
///
/// The engine owns the shared-structure cache, so evaluating several
/// queries through one engine gets the amortization the paper measures in
/// Experiment 2 (Figs. 14–15). [`Engine::breakdown`] exposes the
/// three-part timing split of Figs. 11/15 and
/// [`Engine::elimination_stats`] the operation counters behind Section IV-B.
///
/// ## Concurrency
///
/// The whole query path takes `&self`: [`Engine::evaluate`],
/// [`Engine::evaluate_set`], [`Engine::prepare`], the selective APIs and
/// every metric accessor. The cache keeps one lock-protected map per
/// structure kind with atomic counters ([`SharedCache`]) and the metric
/// accumulators sit behind a private mutex, so any number of threads can
/// evaluate against one shared `&Engine` simultaneously — this is what
/// the serving front-end's read-write-locked sessions rely on. Only the
/// operation that changes what the engine *is* needs `&mut self`: graph
/// mutation ([`Engine::apply_delta`]). Per-call configuration overrides
/// go through [`Engine::evaluate_with`] / [`Engine::prepare_with`].
///
/// ```
/// use rpq_core::{Engine, Strategy};
/// use rpq_graph::fixtures::paper_graph;
/// use rpq_regex::Regex;
///
/// let g = paper_graph();
/// let engine = Engine::new(&g);
/// let result = engine.evaluate(&Regex::parse("d.(b.c)+.c").unwrap()).unwrap();
/// assert_eq!(result.len(), 2);
/// ```
pub struct Engine<'g> {
    graph: VersionedGraph,
    handles: Handles,
    /// Holds nothing: every engine owns its graph. The lifetime stays only
    /// because the benchmark harness's trace probe names `Engine<'static>`
    /// (ROADMAP 4g).
    _lifetime: PhantomData<&'g LabeledMultigraph>,
}

/// What an [`Engine`] and every [`EpochView`] pinned from it hold in
/// common, `Arc`-shared so there is one set of structures, memoized
/// results and counters however many views are alive — and the one way
/// into Algorithm 1 over them ([`Handles::enter`]).
#[derive(Clone)]
pub(crate) struct Handles {
    /// The structural cache.
    pub(crate) cache: Arc<SharedCache>,
    /// Per-(epoch, query) materialized results served by pinned views: a
    /// second instance of the same cache type, never pinned, built beside
    /// `cache` so the two share one budget account.
    pub(crate) results: Arc<SharedCache>,
    metrics: Arc<Mutex<EngineMetrics>>,
    /// The base configuration (per-call overrides are passed alongside).
    pub(crate) config: EngineConfig,
}

impl Handles {
    fn new(config: EngineConfig) -> Self {
        let cache = Arc::new(SharedCache::with_budget(config.cache_budget));
        Self {
            results: Arc::new(SharedCache::beside(Arc::clone(&cache))),
            cache,
            metrics: Arc::new(Mutex::new(EngineMetrics::default())),
            config,
        }
    }

    /// Locks the metric accumulators, clearing poisoning: the accumulators
    /// are plain counters/durations, consistent after any panic.
    pub(crate) fn metrics(&self) -> MutexGuard<'_, EngineMetrics> {
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `walk` over `graph` under `config`, pinned to `epoch` (which
    /// cache entries count as fresh — the engine passes its live epoch, a
    /// view its frozen one), then stamps the elapsed wall clock as `total`
    /// and folds everything the walk accumulated into the shared totals
    /// under one short lock. `walk` gets no context under NoSharing, which
    /// has no shared structure to look up. Results make room for what the
    /// walk inserted before this returns.
    fn enter<T>(
        &self,
        graph: &LabeledMultigraph,
        epoch: u64,
        config: &EngineConfig,
        walk: impl FnOnce(Option<&mut EvalCtx<'_>>) -> T,
    ) -> T {
        let t = Instant::now();
        let mut local = EngineMetrics::default();
        let mut ctx = config.strategy.kind().map(|kind| EvalCtx {
            graph,
            cache: &self.cache,
            epoch,
            kind,
            config,
            metrics: &mut local,
        });
        let out = walk(ctx.as_mut());
        self.results.enforce_budget();
        local.breakdown.total = t.elapsed();
        *self.metrics() += local;
        out
    }

    /// Evaluates one query: Algorithm 1 under a sharing strategy, the
    /// per-query product traversal under NoSharing.
    pub(crate) fn evaluate(
        &self,
        graph: &LabeledMultigraph,
        epoch: u64,
        config: &EngineConfig,
        query: &Regex,
    ) -> Result<PairSet, EngineError> {
        self.enter(graph, epoch, config, |ctx| match ctx {
            Some(ctx) => eval_query(ctx, query),
            None => Ok(ProductEvaluator::new(graph, query).evaluate()),
        })
    }
}

/// The read surface an [`Engine`] and an [`EpochView`] both expose over
/// their graph and their [`Handles`], written once.
macro_rules! read_surface {
    ($owner:ty) => {
        impl $owner {
            /// The base configuration (an engine's own; for a view, the one
            /// captured at pin time).
            pub fn config(&self) -> &EngineConfig {
                &self.handles.config
            }

            /// The shared-structure cache (hit/miss counters, sizes): one
            /// set of structures and counters across the live engine and
            /// every view pinned from it.
            pub fn cache(&self) -> &SharedCache {
                &self.handles.cache
            }

            /// The per-(epoch, query) result instance served by pinned views
            /// (see [`EpochView::evaluate`]). [`Engine::evaluate`] bypasses
            /// it — materialized results are only memoized where an
            /// immutable epoch makes them provably reusable.
            pub fn results(&self) -> &SharedCache {
                &self.handles.results
            }

            /// End vertices of `query`-paths starting at `source` (selective
            /// evaluation — does not materialize the full relation and
            /// bypasses both caches).
            pub fn ends_from(&self, query: &Regex, source: VertexId) -> Vec<VertexId> {
                ProductEvaluator::new(self.graph(), query).ends_from(source)
            }

            /// Whether a `query`-path from `source` to `target` exists
            /// (early-exit reachability check; bypasses both caches).
            pub fn check(&self, query: &Regex, source: VertexId, target: VertexId) -> bool {
                find_witness(self.graph(), query, source, target).is_some()
            }

            /// Accumulated stage timings since the last
            /// [`Engine::reset_metrics`]. Returned by value (it is `Copy`):
            /// the accumulators live behind the shared metric lock so
            /// concurrent evaluations, on the engine or any view, can
            /// update them.
            pub fn breakdown(&self) -> Breakdown {
                self.handles.metrics().breakdown
            }

            /// Accumulated elimination counters (by value — see
            /// [`Engine::breakdown`]).
            pub fn elimination_stats(&self) -> EliminationStats {
                self.handles.metrics().stats
            }

            /// Accumulated dynamic-graph maintenance counters and timings
            /// (deltas applied; unchanged vs rebuild refreshes of stale
            /// shared structures). By value — see [`Engine::breakdown`].
            pub fn maintenance_metrics(&self) -> MaintenanceMetrics {
                self.handles.metrics().maintenance
            }

            /// Total pairs held in `strategy`'s shared structures — the
            /// "shared data size" metric of Fig. 12.
            pub fn shared_data_pairs_with(&self, strategy: Strategy) -> usize {
                let cache = &self.handles.cache;
                strategy
                    .kind()
                    .map_or(0, |kind| cache.totals(kind).shared_pairs)
            }

            /// Heap bytes held by cached shared structural tables (RTC
            /// closure rows plus full closures, dense and sparse rows
            /// alike), as the serving layer's `info` command reports them.
            pub fn structural_heap_bytes(&self) -> usize {
                let cache = &self.handles.cache;
                cache.totals(SharingKind::Rtc).heap_bytes
                    + cache.totals(SharingKind::Full).heap_bytes
            }
        }
    };
}
read_surface!(Engine<'_>);
read_surface!(EpochView);

/// The engine's metric accumulators, grouped so the query path can merge
/// a whole evaluation's worth under one short lock acquisition.
#[derive(Clone, Copy, Default)]
pub(crate) struct EngineMetrics {
    pub(crate) breakdown: Breakdown,
    pub(crate) stats: EliminationStats,
    pub(crate) maintenance: MaintenanceMetrics,
}

impl AddAssign for EngineMetrics {
    fn add_assign(&mut self, rhs: EngineMetrics) {
        self.breakdown += rhs.breakdown;
        self.stats += rhs.stats;
        self.maintenance += rhs.maintenance;
    }
}

impl<'g> Engine<'g> {
    /// An engine with the default configuration (RTCSharing).
    ///
    /// Every engine owns its graph: this copies `graph`'s row tables
    /// (`O(|V| + |Σ|)` reference bumps, no row data) and never borrows it,
    /// so [`Engine::apply_delta`] leaves `graph` as it is.
    pub fn new(graph: &'g LabeledMultigraph) -> Self {
        Self::with_config(graph, EngineConfig::default())
    }

    /// An engine with the given strategy and default limits.
    pub fn with_strategy(graph: &'g LabeledMultigraph, strategy: Strategy) -> Self {
        Self::with_config(
            graph,
            EngineConfig {
                strategy,
                ..EngineConfig::default()
            },
        )
    }

    /// An engine with an explicit configuration.
    pub fn with_config(graph: &'g LabeledMultigraph, config: EngineConfig) -> Self {
        Engine::with_config_versioned(VersionedGraph::new(graph.clone()), config)
    }

    /// An engine over `graph`, taken by value (no copy).
    pub fn new_dynamic(graph: LabeledMultigraph) -> Engine<'static> {
        Engine::with_config_versioned(VersionedGraph::new(graph), EngineConfig::default())
    }

    /// An engine over an existing versioned graph with an explicit
    /// configuration (the cache starts at the graph's current epoch).
    pub fn with_config_versioned(graph: VersionedGraph, config: EngineConfig) -> Engine<'static> {
        let handles = Handles::new(config);
        handles.cache.advance_epoch(graph.epoch());
        handles.results.advance_epoch(graph.epoch());
        Engine {
            graph,
            handles,
            _lifetime: PhantomData,
        }
    }

    /// The current graph snapshot.
    pub fn graph(&self) -> &LabeledMultigraph {
        self.graph.graph()
    }

    /// The graph epoch this engine serves: 0 as built, +1 per applied delta
    /// (a restored snapshot keeps the epoch it was saved at).
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Applies a mutation batch to the engine's graph and advances the
    /// epoch, so cached shared structures become stale and refresh on
    /// their next use: re-stamped if no edge row of a label their body
    /// names moved (nor, for a nullable body, the vertex count), rebuilt
    /// otherwise.
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> DeltaSummary {
        let summary = self.graph.apply(delta);
        let Handles { cache, results, .. } = &self.handles;
        cache.advance_epoch(summary.epoch);
        results.advance_epoch(summary.epoch);
        // A result no live view can reach can never be asked for again.
        let (live, pinned) = (summary.epoch, cache.pinned_epochs());
        results.retain_epochs(|e| e == live || pinned.contains(&e));
        self.handles.metrics().maintenance.deltas_applied += 1;
        summary
    }

    /// Evaluates one query, sharing structures with previous evaluations.
    pub fn evaluate(&self, query: &Regex) -> Result<PairSet, EngineError> {
        self.evaluate_with(query, self.handles.config)
    }

    /// [`Engine::evaluate`] under an explicit configuration, without
    /// touching the engine's own. This is the per-connection overlay
    /// entry point of the serving layer: N clients resolve their own
    /// strategy and evaluate concurrently against one engine (and one
    /// shared cache) under plain `&self`.
    ///
    /// The configuration only shapes *how* this evaluation runs (strategy,
    /// clause budget); results are identical across strategies
    /// (property-tested), so overlays can never leak observable state
    /// between connections.
    pub fn evaluate_with(
        &self,
        query: &Regex,
        config: EngineConfig,
    ) -> Result<PairSet, EngineError> {
        self.handles
            .evaluate(self.graph(), self.epoch(), &config, query)
    }

    /// Pins the engine's current state as an immutable [`EpochView`].
    ///
    /// The view bundles a frozen graph snapshot with the engine's shared
    /// structural cache, result cache, metric accumulators and base
    /// configuration — everything a reader needs to answer queries without
    /// ever touching the engine again. Pinning is cheap (`O(|V| + |Σ|)`
    /// pointer bumps the first time per epoch, one `Arc` bump after);
    /// later [`Engine::apply_delta`] calls copy-on-write only the rows
    /// they dirty, so a pinned view keeps observing its epoch bit for bit.
    pub fn pin(&self) -> EpochView {
        let graph = self.graph.freeze();
        // The view pins its epoch in the structural cache: while it (or
        // any clone) is alive, budget eviction spares the epoch's entries.
        let pin = EpochPin::new(Arc::clone(&self.handles.cache), graph.epoch());
        EpochView {
            graph,
            handles: self.handles.clone(),
            _pin: Arc::new(pin),
        }
    }

    /// Parses and evaluates a query string.
    pub fn evaluate_str(&self, query: &str) -> Result<PairSet, EngineError> {
        let q = Regex::parse(query)?;
        self.evaluate(&q)
    }

    /// Evaluates a multiple-RPQ set, sharing along the way.
    ///
    /// The paper's unit of work: the queries run one after another, in
    /// order, on the calling thread, so each reuses every shared structure
    /// the ones before it computed. Every query adds its own response time
    /// to `breakdown().total`, as it does to the stage timers and counters,
    /// so the accumulated `total` of a set is the sum of its queries' times.
    pub fn evaluate_set(&self, queries: &[Regex]) -> Result<Vec<PairSet>, EngineError> {
        queries.iter().map(|q| self.evaluate(q)).collect()
    }

    /// Warms the shared cache for a query set before evaluating it.
    ///
    /// The paper leaves "optimizing the evaluation order of the batch
    /// units" as future work (Section IV-A); this realizes the simplest
    /// useful form: walk the set exactly as evaluation would — DNF,
    /// decomposition, the recursion into `Pre` — and fetch or compute each
    /// distinct closure body's shared structure once up front, joining
    /// nothing and materializing no result. Subsequent
    /// [`Engine::evaluate`] calls only hit the cache, so the first query of
    /// a set no longer pays for all the shared work (flattening the
    /// latency profile that Fig. 14 shows for set size 1).
    ///
    /// No-op for [`Strategy::NoSharing`].
    pub fn prepare(&self, queries: &[Regex]) -> Result<PrepareReport, EngineError> {
        self.prepare_with(queries, self.handles.config)
    }

    /// [`Engine::prepare`] under an explicit configuration (the warming
    /// half of [`Engine::evaluate_with`]): the serving layer's `prepare`
    /// command warms the structure kind of the *connection's* resolved
    /// strategy, not the engine default.
    pub fn prepare_with(
        &self,
        queries: &[Regex],
        config: EngineConfig,
    ) -> Result<PrepareReport, EngineError> {
        self.handles
            .enter(self.graph(), self.epoch(), &config, |ctx| match ctx {
                Some(ctx) => prepare_set(ctx, queries),
                None => Ok(PrepareReport::default()),
            })
    }

    /// Algorithm 1 lines 9–11 for one closure body, as a miss runs them:
    /// builds `strategy`'s shared structure for `body` (nested bodies
    /// first) into the cache. How [`crate::snapshot`] restores an entry.
    pub(crate) fn restore_body(&self, strategy: Strategy, body: &Regex) -> Result<(), EngineError> {
        let config = EngineConfig {
            strategy,
            ..self.handles.config
        };
        self.handles
            .enter(self.graph(), self.epoch(), &config, |ctx| match ctx {
                Some(ctx) => obtain(ctx, &body.canonical_key(), body).map(drop),
                None => Ok(()),
            })
    }

    /// [`Engine::shared_data_pairs_with`] the active strategy.
    pub fn shared_data_pairs(&self) -> usize {
        self.shared_data_pairs_with(self.handles.config.strategy)
    }

    /// Clears timing/counter accumulators — including the cache's
    /// hit/miss counters, the result cache's hit/miss tiers and the
    /// maintenance metrics — but keeps cached structures, memoized
    /// results (and the graph epoch). Pinned [`EpochView`]s share these
    /// accumulators by `Arc`, so the reset is visible to every view and
    /// publishing a new view never forks (or double-counts) the counters.
    pub fn reset_metrics(&self) {
        *self.handles.metrics() = EngineMetrics::default();
        self.handles.cache.reset_counters();
        self.handles.results.reset_counters();
    }

    /// Drops all cached shared structures and memoized results (and
    /// resets metrics).
    pub fn clear_cache(&self) {
        self.handles.cache.clear();
        self.handles.results.clear();
        self.reset_metrics();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::fixtures::paper_graph;
    use rpq_graph::GraphDelta;

    #[test]
    fn all_strategies_agree_on_example1() {
        let g = paper_graph();
        for strategy in Strategy::ALL {
            let e = Engine::with_strategy(&g, strategy);
            let r = e.evaluate_str("d.(b.c)+.c").unwrap();
            assert_eq!(r.len(), 2, "{strategy}");
            assert!(r.contains(VertexId(7), VertexId(5)));
            assert!(r.contains(VertexId(7), VertexId(3)));
        }
    }

    #[test]
    fn example7_query_sequence_shares_rtcs() {
        // The three queries of Example 7, evaluated as one set.
        let g = paper_graph();
        let e = Engine::new(&g);
        let queries = [
            Regex::parse("a").unwrap(),
            Regex::parse("a.(a.b)+.b").unwrap(),
            Regex::parse("(a.b)*.b+.(a.b+.c)+").unwrap(),
        ];
        let results = e.evaluate_set(&queries).unwrap();
        assert_eq!(results.len(), 3);
        // RTCs cached: a·b (reused by (a·b)*), b (reused inside a·b+·c),
        // and a·b+·c — at least 3 distinct closure bodies.
        assert!(
            e.cache().totals(SharingKind::Rtc).entries >= 3,
            "cached {}",
            e.cache().totals(SharingKind::Rtc).entries
        );
        // The reuse described in Example 7 means at least two cache hits.
        assert!(e.cache().hits() >= 2, "hits {}", e.cache().hits());
    }

    #[test]
    fn evaluate_set_amortizes_shared_data() {
        let g = paper_graph();
        let e = Engine::new(&g);
        let q = Regex::parse("d.(b.c)+.c").unwrap();
        e.evaluate(&q).unwrap();
        let misses_after_first = e.cache().misses();
        e.evaluate(&q).unwrap();
        // Second evaluation hits the cache; no new misses.
        assert_eq!(e.cache().misses(), misses_after_first);
        assert!(e.cache().hits() >= 1);
    }

    #[test]
    fn breakdown_accumulates() {
        let g = paper_graph();
        let e = Engine::new(&g);
        e.evaluate_str("d.(b.c)+.c").unwrap();
        let b = e.breakdown();
        assert!(b.total > std::time::Duration::ZERO);
        assert!(b.total >= b.shared_data + b.pre_join);
        e.reset_metrics();
        assert_eq!(e.breakdown().total, std::time::Duration::ZERO);
        // Cache survives metric reset.
        assert_eq!(e.cache().totals(SharingKind::Rtc).entries, 1);
        e.clear_cache();
        assert_eq!(e.cache().totals(SharingKind::Rtc).entries, 0);
    }

    #[test]
    fn shared_data_pairs_by_strategy() {
        let g = paper_graph();
        let no = Engine::with_strategy(&g, Strategy::NoSharing);
        no.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(no.shared_data_pairs(), 0);

        let rtc = Engine::with_strategy(&g, Strategy::RtcSharing);
        rtc.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(rtc.shared_data_pairs(), 3); // TC(Ḡ_{b·c}) has 3 pairs

        let full = Engine::with_strategy(&g, Strategy::FullSharing);
        full.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(full.shared_data_pairs(), 10); // |（b·c)+_G| = 10
    }

    /// `prepare` walks a set as evaluation would, minus the joins. The
    /// expected reports and lookup counts are what the evaluate-`R+`-and-
    /// drop chain this walk replaced produced for the same sets.
    #[test]
    fn prepare_warms_exactly_what_the_queries_look_up() {
        let g = paper_graph();
        // (set, bodies, RTC pairs, full pairs, lookups missed while warming)
        let cases: [(&[&str], usize, usize, usize, u64); 5] = [
            (&["d.(b.c)+.c"], 1, 3, 10, 1),
            // `(a.b)+` and `(a.b)*` share one body.
            (&["a.(a.b)+.b", "(a.b)*"], 1, 0, 0, 1),
            // The nested `b.c` is warmed by the outer body's own `R_G`.
            (&["((b.c)+.d)+"], 1, 3, 10, 2),
            // A `Pre` that itself contains a closure.
            (&["(a.b)*.b+.c"], 2, 5, 10, 2),
            (&["a.(b.c)+.d", "d.(b.c)*.c", "c.(a.b)+"], 2, 3, 10, 2),
        ];
        for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
            for (set, bodies, rtc_pairs, full_pairs, misses) in cases {
                let queries: Vec<Regex> = set.iter().map(|q| Regex::parse(q).unwrap()).collect();
                let shared_pairs = match strategy {
                    Strategy::RtcSharing => rtc_pairs,
                    _ => full_pairs,
                };
                let e = Engine::with_strategy(&g, strategy);
                let report = e.prepare(&queries).unwrap();
                let computed = PrepareReport {
                    bodies_computed: bodies,
                    bodies_reused: 0,
                    shared_pairs,
                };
                assert_eq!(report, computed, "{strategy} {set:?}");
                let c = e.cache();
                assert_eq!((c.hits(), c.misses(), c.stale_hits()), (0, misses, 0));
                // Evaluation now never misses, and agrees with an
                // unprepared engine.
                let results = e.evaluate_set(&queries).unwrap();
                assert_eq!(c.misses(), misses, "{strategy} {set:?}");
                let plain = Engine::with_strategy(&g, strategy);
                assert_eq!(results, plain.evaluate_set(&queries).unwrap());
                // Preparing again reuses everything.
                let reused = PrepareReport {
                    bodies_computed: 0,
                    bodies_reused: bodies,
                    shared_pairs,
                };
                assert_eq!(e.prepare(&queries).unwrap(), reused, "{strategy} {set:?}");
            }
        }
    }

    /// `prepare` joins nothing: it used to evaluate the whole `R+` and drop
    /// the answer, which charged `pre_join` for the discarded expansion.
    #[test]
    fn prepare_builds_the_structure_and_joins_nothing() {
        let g = paper_graph();
        for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
            let e = Engine::with_strategy(&g, strategy);
            e.prepare(&[Regex::parse("d.(b.c)+.c").unwrap()]).unwrap();
            let b = e.breakdown();
            assert!(b.total >= b.shared_data && b.shared_data > std::time::Duration::ZERO);
            assert_eq!(b.pre_join, std::time::Duration::ZERO, "{strategy}");
            assert_eq!(e.elimination_stats(), EliminationStats::default());
        }
    }

    /// On a stale entry `prepare` alone does the refresh a query would have
    /// done, and the next query is a plain fresh hit.
    #[test]
    fn prepare_refreshes_stale_entries_like_a_query() {
        let g = paper_graph();
        let queries = [Regex::parse("d.(b.c)+.c").unwrap()];
        for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
            let mut e = Engine::with_strategy(&g, strategy);
            e.prepare(&queries).unwrap();
            let mut delta = rpq_graph::GraphDelta::new();
            delta.insert(6, "b", 8).insert(8, "c", 6); // moves (b·c)_G
            e.apply_delta(&delta);
            let report = e.prepare(&queries).unwrap();
            assert_eq!((report.bodies_computed, report.bodies_reused), (1, 0));
            assert_eq!(e.cache().stale_hits(), 1);
            let m = e.maintenance_metrics();
            let refreshes = (m.rebuild_refreshes, m.unchanged_refreshes);
            assert_eq!(refreshes, (1, 0), "{strategy}");
            let (hits, misses) = (e.cache().hits(), e.cache().misses());
            e.evaluate(&queries[0]).unwrap();
            assert_eq!((e.cache().hits(), e.cache().misses()), (hits + 1, misses));
            assert_eq!(e.cache().stale_hits(), 1);
        }
    }

    #[test]
    fn selective_apis_match_full_evaluation() {
        let g = paper_graph();
        let e = Engine::new(&g);
        let q = Regex::parse("d.(b.c)+.c").unwrap();
        let full = e.evaluate(&q).unwrap();
        // ends_from / check agree with the materialized result.
        let ends: Vec<u32> = e
            .ends_from(&q, VertexId(7))
            .iter()
            .map(|v| v.raw())
            .collect();
        assert_eq!(ends, vec![3, 5]);
        assert!(e.check(&q, VertexId(7), VertexId(3)));
        assert!(!e.check(&q, VertexId(7), VertexId(4)));
        for (s, d) in full.iter() {
            assert!(e.check(&q, s, d));
        }
    }

    #[test]
    fn reset_metrics_clears_cache_counters_but_keeps_structures() {
        let g = paper_graph();
        let e = Engine::new(&g);
        e.evaluate_str("d.(b.c)+.c").unwrap();
        e.evaluate_str("d.(b.c)+.c").unwrap();
        assert!(e.cache().hits() > 0);
        assert!(e.cache().misses() > 0);
        e.reset_metrics();
        // Regression: the cache's hit/miss counters are part of the
        // "timing/counter accumulators" the method documents clearing.
        assert_eq!(e.cache().hits(), 0);
        assert_eq!(e.cache().misses(), 0);
        assert_eq!(e.cache().totals(SharingKind::Rtc).entries, 1); // structures preserved
                                                                   // Re-evaluation hits the preserved structure: no new misses.
        e.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(e.cache().misses(), 0);
        assert!(e.cache().hits() >= 1);
    }

    #[test]
    fn prepare_respects_configured_clause_limit() {
        // Regression: prepare() used to hard-code DEFAULT_CLAUSE_LIMIT, so
        // an engine configured with a *larger* budget rejected queries that
        // evaluation accepted.
        let g = paper_graph();
        let big = ["(a|b)"; 13].join("."); // 2^13 = 8192 clauses > 4096
        let queries = [Regex::parse(&big).unwrap(), Regex::parse("(b.c)+").unwrap()];
        let wide = EngineConfig {
            dnf_clause_limit: 10_000,
            ..EngineConfig::default()
        };
        let report = Engine::with_config(&g, wide).prepare(&queries).unwrap();
        assert_eq!(report.bodies_computed, 1);
        assert!(matches!(
            Engine::new(&g).prepare(&queries),
            Err(EngineError::Dnf(_))
        ));
    }

    #[test]
    fn evaluate_set_surfaces_dnf_errors() {
        let g = paper_graph();
        let e = Engine::with_config(
            &g,
            EngineConfig {
                dnf_clause_limit: 2,
                ..EngineConfig::default()
            },
        );
        let queries = [
            Regex::parse("(b.c)+").unwrap(),
            Regex::parse("(a|b).(a|b)").unwrap(), // 4 clauses > 2
        ];
        assert!(matches!(e.evaluate_set(&queries), Err(EngineError::Dnf(_))));
        assert!(e.evaluate_set(&[]).unwrap().is_empty());
    }

    #[test]
    fn prepare_is_noop_for_nosharing() {
        let g = paper_graph();
        let e = Engine::with_strategy(&g, Strategy::NoSharing);
        let report = e.prepare(&[Regex::parse("(b.c)+").unwrap()]).unwrap();
        assert_eq!(report, PrepareReport::default());
    }

    #[test]
    fn parse_errors_surface() {
        let g = paper_graph();
        let e = Engine::new(&g);
        assert!(matches!(e.evaluate_str("(a"), Err(EngineError::Parse(_))));
    }

    #[test]
    fn dnf_limit_respected() {
        let g = paper_graph();
        let e = Engine::with_config(
            &g,
            EngineConfig {
                strategy: Strategy::RtcSharing,
                dnf_clause_limit: 2,
                ..EngineConfig::default()
            },
        );
        // (a|b).(a|b) needs 4 clauses > 2.
        let err = e.evaluate_str("(a|b).(a|b)").unwrap_err();
        assert!(matches!(err, EngineError::Dnf(_)));
    }

    /// The clause budget holds for a closure body as well, though an RTC
    /// of a closure-free body is built without a DNF.
    #[test]
    fn dnf_limit_holds_inside_a_closure_body() {
        let g = paper_graph();
        for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
            let config = EngineConfig {
                strategy,
                dnf_clause_limit: 2,
                ..EngineConfig::default()
            };
            let err = Engine::with_config(&g, config).evaluate_str("((a|b).(a|b))+");
            assert!(matches!(err, Err(EngineError::Dnf(_))), "{strategy}");
        }
    }

    #[test]
    fn elimination_stats_populated_for_rtc() {
        let g = paper_graph();
        let e = Engine::new(&g);
        // The unit goes through Algorithm 2, which keeps the counters.
        e.evaluate_str("(b.c)+.c").unwrap();
        let s = e.elimination_stats();
        // Identity Pre over 10 vertices, 5 outside V_{b·c}.
        assert_eq!(s.useless1_skipped, 5);
        assert!(s.useless2_unchecked_inserts > 0);
    }

    #[test]
    fn apply_delta_rebuilds_a_stale_rtc_whose_relation_moved() {
        let g = paper_graph();
        let q = Regex::parse("d.(b.c)+.c").unwrap();
        // Oracle graph: a b/c two-cycle hanging off v6, so (b·c)+ gains pairs.
        let mut b = rpq_graph::GraphBuilder::new();
        b.ensure_vertices(g.vertex_count());
        for (s, l, d) in g.all_edges() {
            b.add_edge(s.raw(), g.labels().name(l), d.raw());
        }
        b.add_edge(6, "b", 8).add_edge(8, "c", 6);
        let mutated = b.build();
        let mut e = Engine::new(&g);
        e.evaluate(&q).unwrap();
        assert_eq!(e.epoch(), 0);

        let mut delta = rpq_graph::GraphDelta::new();
        delta.insert(6, "b", 8).insert(8, "c", 6);
        let summary = e.apply_delta(&delta);
        assert_eq!(summary.epoch, 1);
        assert_eq!(e.epoch(), 1);

        let after = e.evaluate(&q).unwrap();
        // Oracle: a fresh engine over the equivalently mutated graph.
        let fresh = Engine::new(&mutated);
        assert_eq!(after, fresh.evaluate(&q).unwrap());
        // The stale entry was found and rebuilt: b and c moved.
        let m = e.maintenance_metrics();
        assert_eq!((m.deltas_applied, m.rebuild_refreshes), (1, 1), "{m:?}");
        assert_eq!(e.cache().stale_hits(), 1);
        // The refreshed rows take the layouts a fresh build gives them.
        let dense_rows = |e: &Engine<'_>| e.cache().totals(SharingKind::Rtc).dense_rows;
        assert_eq!(dense_rows(&e), dense_rows(&fresh));
        assert!(dense_rows(&e) > 0);
    }

    #[test]
    fn apply_delta_unrelated_label_is_an_unchanged_refresh() {
        let g = paper_graph();
        let mut e = Engine::new(&g);
        e.evaluate_str("(b.c)+").unwrap();
        let mut delta = rpq_graph::GraphDelta::new();
        delta.insert(0, "zzz", 9); // never touches b/c
        e.apply_delta(&delta);
        let before_pairs = e.shared_data_pairs();
        e.evaluate_str("(b.c)+").unwrap();
        assert_eq!(e.maintenance_metrics().unchanged_refreshes, 1);
        assert_eq!(e.maintenance_metrics().rebuild_refreshes, 0);
        assert_eq!(e.shared_data_pairs(), before_pairs);
    }

    /// Warms `query` under `strategy` on the paper graph, applies `delta`
    /// and reads `query` again, which must equal a fresh engine's answer
    /// over the mutated graph. Returns the (re-stamped, rebuilt) refreshes.
    fn refresh(strategy: Strategy, query: &str, delta: &GraphDelta) -> (u64, u64) {
        let g = paper_graph();
        let mut e = Engine::with_strategy(&g, strategy);
        e.evaluate_str(query).unwrap();
        e.apply_delta(delta);
        let after = e.evaluate_str(query).unwrap();
        let mut mutated = VersionedGraph::new(g.clone());
        mutated.apply(delta);
        let fresh = Engine::with_strategy(mutated.graph(), strategy);
        assert_eq!(
            after,
            fresh.evaluate_str(query).unwrap(),
            "{strategy} {query}"
        );
        assert_eq!(e.cache().stale_hits(), 1);
        let m = e.maintenance_metrics();
        (m.unchanged_refreshes, m.rebuild_refreshes)
    }

    /// The stale witness is the body's footprint, not its `R_G`: `9 -b-> 0`
    /// moves `b`'s row, but no `c` leaves 0, so `(b·c)_G` is what it was.
    /// The entry is rebuilt all the same.
    #[test]
    fn a_moved_label_rebuilds_a_body_whose_relation_did_not_move() {
        let mut delta = GraphDelta::new();
        delta.insert(9, "b", 0);
        for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
            assert_eq!(
                refresh(strategy, "d.(b.c)+.c", &delta),
                (0, 1),
                "{strategy}"
            );
        }
    }

    /// A delete and a re-insert of one edge in one delta copy `b`'s row
    /// (the cache holds the old one) into an equal row: re-stamped.
    #[test]
    fn a_delete_and_reinsert_in_one_delta_re_stamps() {
        let mut delta = GraphDelta::new();
        delta.delete(2, "b", 3).insert(2, "b", 3);
        for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
            assert_eq!(
                refresh(strategy, "d.(b.c)+.c", &delta),
                (1, 0),
                "{strategy}"
            );
        }
    }

    /// New vertices move no label row, but every nullable body's `R_G`
    /// gains their `(v, v)` steps.
    #[test]
    fn grow_re_stamps_a_non_nullable_body_and_rebuilds_a_nullable_one() {
        let mut delta = GraphDelta::new();
        delta.ensure_vertices(12);
        for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
            assert_eq!(refresh(strategy, "(b.c)+", &delta), (1, 0), "{strategy}");
            assert_eq!(refresh(strategy, "(b.c|())+", &delta), (0, 1), "{strategy}");
        }
    }

    #[test]
    fn dynamic_engine_owns_its_graph() {
        let mut e = Engine::new_dynamic(paper_graph());
        let q = Regex::parse("(b.c)+").unwrap();
        let before = e.evaluate(&q).unwrap();
        assert_eq!(before.len(), 10);
        let mut delta = rpq_graph::GraphDelta::new();
        delta.delete(2, "b", 5);
        let s = e.apply_delta(&delta);
        assert_eq!((s.edges_deleted, s.edges_inserted), (1, 0));
        let after = e.evaluate(&q).unwrap();
        assert!(after.len() < before.len());
        // Delete-then-reinsert restores the original result bitwise.
        let mut delta = rpq_graph::GraphDelta::new();
        delta.insert(2, "b", 5);
        e.apply_delta(&delta);
        assert_eq!(e.evaluate(&q).unwrap(), before);
        assert_eq!(e.epoch(), 2);
    }

    #[test]
    fn apply_delta_agrees_with_rebuild_for_all_strategies() {
        let g = paper_graph();
        let queries = [
            Regex::parse("d.(b.c)+.c").unwrap(),
            Regex::parse("(a.b)+|(b.c)+").unwrap(),
            Regex::parse("a.(b.c)*").unwrap(),
        ];
        let mut delta = rpq_graph::GraphDelta::new();
        delta
            .insert(6, "b", 8)
            .insert(8, "c", 2)
            .delete(3, "c", 5)
            .insert(9, "d", 7);
        // Oracle graph with the same final edge set.
        let mut vg = rpq_graph::VersionedGraph::new(g.clone());
        vg.apply(&delta);
        let mutated = vg.graph().clone();
        for strategy in Strategy::ALL {
            let mut e = Engine::with_strategy(&g, strategy);
            e.evaluate_set(&queries).unwrap(); // warm at epoch 0
            e.apply_delta(&delta);
            let dynamic = e.evaluate_set(&queries).unwrap();
            let fresh = Engine::with_strategy(&mutated, strategy)
                .evaluate_set(&queries)
                .unwrap();
            assert_eq!(dynamic, fresh, "{strategy}");
        }
    }

    #[test]
    fn fullsharing_stale_entries_rebuild() {
        let g = paper_graph();
        let mut e = Engine::with_strategy(&g, Strategy::FullSharing);
        e.evaluate_str("(b.c)+").unwrap();
        let mut delta = rpq_graph::GraphDelta::new();
        delta.insert(6, "b", 8).insert(8, "c", 6);
        e.apply_delta(&delta);
        e.evaluate_str("(b.c)+").unwrap();
        let m = e.maintenance_metrics();
        assert_eq!((m.rebuild_refreshes, m.unchanged_refreshes), (1, 0));
    }

    /// The serving contract of this refactor: N threads evaluate through
    /// one `&Engine` simultaneously (no `&mut`, no external lock) and
    /// every result matches a single-threaded oracle, while the shared
    /// cache ends up with exactly one entry per closure body.
    #[test]
    fn concurrent_evaluation_through_a_shared_reference() {
        let g = paper_graph();
        let queries = [
            "d.(b.c)+.c",
            "a.(b.c)*",
            "(a.b)+|(b.c)+",
            "c.(a.b)+.b",
            "(a.b)*.b+",
            "b.c|d",
        ];
        let oracle: Vec<PairSet> = queries
            .iter()
            .map(|q| Engine::new(&g).evaluate_str(q).unwrap())
            .collect();
        let engine = Engine::new(&g);
        for round in 0..3 {
            std::thread::scope(|s| {
                let handles: Vec<_> = queries
                    .iter()
                    .map(|q| {
                        let engine = &engine;
                        s.spawn(move || engine.evaluate_str(q).unwrap())
                    })
                    .collect();
                for (h, expect) in handles.into_iter().zip(&oracle) {
                    assert_eq!(&h.join().unwrap(), expect, "round {round}");
                }
            });
        }
        // One entry per distinct closure body (b·c and a·b, plus the
        // nested bare b), no matter how many threads raced to fill it.
        assert_eq!(engine.cache().totals(SharingKind::Rtc).entries, 3);
        // Rounds 2 and 3 ran entirely warm.
        assert!(engine.cache().hits() >= 2 * queries.len() as u64);
    }

    /// Metric accumulators stay consistent when updated from many threads:
    /// totals add up across concurrent evaluations and reset under `&self`.
    #[test]
    fn metrics_accumulate_under_concurrent_evaluation() {
        let g = paper_graph();
        let engine = Engine::new(&g);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let engine = &engine;
                s.spawn(move || {
                    for _ in 0..8 {
                        engine.evaluate_str("d.(b.c)+.c").unwrap();
                    }
                });
            }
        });
        let b = engine.breakdown();
        assert!(b.total > std::time::Duration::ZERO);
        assert!(b.total >= b.shared_data + b.pre_join);
        // 32 evaluations, one lookup each; at worst each thread misses
        // once (racing on the cold key) before the insert lands.
        assert_eq!(engine.cache().hits() + engine.cache().misses(), 32);
        assert!(engine.cache().misses() <= 4, "{}", engine.cache().misses());
        engine.reset_metrics();
        assert_eq!(engine.breakdown().total, std::time::Duration::ZERO);
        assert_eq!(engine.cache().hits(), 0);
        assert_eq!(engine.cache().totals(SharingKind::Rtc).entries, 1);
    }
}
