//! The recursive query driver — Algorithm 1 (`RTCSharing`) and its
//! FullSharing twin.
//!
//! Both sharing strategies run the same plan, built by the engine's one
//! planner, [`explain_with_limit`]: the query in DNF with the outermost
//! closures opaque (line 2), each clause decomposed into
//! `Pre · R^(+|*) · Post` (line 4), and `Pre` planned by recursion.
//! `eval_query` runs it:
//!
//! 1. closure-free clauses go to `EvalRPQwithoutKC` — label joins (line 6);
//! 2. `Pre` is evaluated from its sub-plan (line 8), `R` by planning and
//!    running it when the shared structure is missing (line 10) — except
//!    under RTCSharing when `R` is closure-free: then its RTC comes from
//!    the layered product of the graph and `R` ([`Rtc::from_body`]) and
//!    `R_G` is never built;
//! 3. the shared structure is cached by the canonical form of `R`
//!    (lines 9–11), with `R`'s [`Footprint`] as its stale witness, and the
//!    batch unit evaluated (line 12);
//! 4. clause results are unioned (line 13).
//!
//! A body's own clause budget is checked when its structure is built
//! (`compute`), not when it is planned: a cache hit never expands a
//! body's DNF.
//!
//! The difference between the strategies is the shared structure and the
//! batch-unit evaluator — `Rtc` + Algorithm 2 vs `FullTc` + the plain
//! join, exactly the delta the paper measures — and that a full closure is
//! always built from `R_G`, which `FullTc` needs.
//!
//! [`crate::Engine::prepare`] runs the same plans but stops after step 3's
//! fetch-or-compute: it warms the cache and joins nothing.

use crate::batch_unit::{eval_batch_unit_full, eval_batch_unit_rtc};
use crate::cache::{Footprint, Lookup, Shared, SharedCache, SharingKind};
use crate::engine::{EngineConfig, EngineMetrics, PrepareReport};
use crate::error::EngineError;
use crate::explain::{explain_with_limit, ClausePlan, QueryPlan};
use crate::pre_relation::PreRelation;
use rpq_eval::label_seq::eval_label_names;
use rpq_graph::{LabeledMultigraph, PairSet};
use rpq_reduction::{FullTc, Rtc};
use rpq_regex::{to_dnf_with_limit, Regex};
use rustc_hash::FxHashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Evaluation context threaded through the recursion of one query, which
/// runs entirely on its calling thread. The cache is a shared reference —
/// its interior is lock-protected and its counters atomic, so concurrent
/// evaluations (one per serving connection) fill one cache at once; the
/// metric accumulators are exclusive, local to this evaluation, and
/// merged into the engine's shared totals afterwards.
pub(crate) struct EvalCtx<'a> {
    pub graph: &'a LabeledMultigraph,
    pub cache: &'a SharedCache,
    /// The graph epoch this evaluation is pinned to. Equal to the cache's
    /// live epoch on the engine's own path; older when evaluating against
    /// a frozen [`crate::EpochView`] — then cache lookups hit only entries
    /// stamped with exactly this epoch and inserts never displace newer
    /// ones.
    pub epoch: u64,
    pub kind: SharingKind,
    /// The configuration this evaluation runs under; the recursion reads
    /// its clause budget.
    pub config: &'a EngineConfig,
    pub metrics: &'a mut EngineMetrics,
}

/// Algorithm 1, parameterized by the sharing kind: plans `q` and runs the
/// plan.
pub(crate) fn eval_query(ctx: &mut EvalCtx<'_>, q: &Regex) -> Result<PairSet, EngineError> {
    run(ctx, &explain_with_limit(q, ctx.config.dnf_clause_limit)?)
}

fn run(ctx: &mut EvalCtx<'_>, plan: &QueryPlan) -> Result<PairSet, EngineError> {
    let mut q_g = PairSet::new();
    for clause in &plan.clauses {
        let clause_g = match clause {
            // Line 6: no Kleene closure — the whole clause is Post.
            ClausePlan::LabelJoin { labels } => eval_label_names(ctx.graph, labels),
            ClausePlan::BatchUnit {
                pre,
                r_key,
                body,
                closure,
                post,
            } => {
                // Line 8: evaluate Pre by recursion (ε stays symbolic).
                let pre = match pre {
                    None => PreRelation::Identity(ctx.graph.vertex_count()),
                    Some(pre) => PreRelation::Pairs(run(ctx, pre)?),
                };
                // Lines 9–11: fetch, refresh or compute the shared
                // structure for R; line 12: the batch unit — Algorithm 2
                // over an RTC (a bare closure, `Pre = Post = ε`, included:
                // its rows are Theorem 2's expansion), the plain join over
                // a full closure.
                let shared = obtain(ctx, r_key, body)?;
                let (graph, stats) = (ctx.graph, &mut ctx.metrics.stats);
                let out = match shared {
                    Shared::Rtc(rtc) => {
                        eval_batch_unit_rtc(graph, &pre, &rtc, *closure, post, stats)
                    }
                    Shared::Full(full) => {
                        eval_batch_unit_full(graph, &pre, &full, *closure, post, stats)
                    }
                    Shared::Result(_) => unreachable!("obtain returns a closure structure"),
                };
                ctx.metrics.breakdown.pre_join += out.pre_join;
                out.result
            }
        };
        // Line 13: union the clause result (moved in while `q_g` is empty).
        if q_g.is_empty() {
            q_g = clause_g;
        } else {
            q_g.union_in_place(&clause_g);
        }
    }
    Ok(q_g)
}

/// [`crate::Engine::prepare`]: warms the shared structure of every
/// distinct closure body `queries` will look up, and reports what that took.
/// Algorithm 1 without line 12: for each query's [`QueryPlan::bodies`] not
/// yet seen, either finds its structure fresh (reused) or runs lines 9–11
/// (computed: [`obtain`] builds a missing one, nested bodies included, and
/// refreshes a stale one, exactly as a query would). Nothing is joined.
pub(crate) fn prepare_set(
    ctx: &mut EvalCtx<'_>,
    queries: &[Regex],
) -> Result<PrepareReport, EngineError> {
    let mut report = PrepareReport::default();
    let mut seen = FxHashSet::default();
    for q in queries {
        for (key, body) in explain_with_limit(q, ctx.config.dnf_clause_limit)?.bodies() {
            if !seen.insert(key.to_owned()) {
                continue;
            }
            if ctx.cache.contains_fresh(ctx.kind, key) {
                report.bodies_reused += 1;
            } else {
                obtain(ctx, key, body)?;
                report.bodies_computed += 1;
            }
        }
    }
    report.shared_pairs = ctx.cache.totals(ctx.kind).shared_pairs;
    Ok(report)
}

/// Algorithm 1 lines 9–11, once for both strategies: fetches the shared
/// structure for `key` — fresh from the cache, re-stamped from a stale
/// entry whose body's [`Footprint`] did not move, or computed from scratch
/// (a miss, or a stale entry whose footprint did). The cache ends up
/// holding an entry at the evaluation's epoch either way.
pub(crate) fn obtain(ctx: &mut EvalCtx<'_>, key: &str, r: &Regex) -> Result<Shared, EngineError> {
    let stale = match ctx.cache.lookup(ctx.kind, key, ctx.epoch) {
        Lookup::Fresh(shared) => return Ok(shared),
        Lookup::Stale { shared, footprint } => Some((shared, footprint)),
        Lookup::Miss => None,
    };
    let footprint = Arc::new(Footprint::of(ctx.graph, r));
    let t = Instant::now();
    let (shared, footprint, build) = match stale {
        // No label of R moved, so neither did R_G or its closure: re-stamp.
        Some((shared, Some(old))) if *old == *footprint => {
            ctx.metrics.maintenance.unchanged_refreshes += 1;
            (shared, old, t.elapsed())
        }
        // Anything else is built anew, as a miss is.
        stale => {
            let (built, build) = compute(ctx, r)?;
            if stale.is_some() {
                ctx.metrics.maintenance.rebuild_refreshes += 1;
                ctx.metrics.maintenance.rebuild_time += build;
            }
            (built, footprint, build)
        }
    };
    ctx.metrics.breakdown.shared_data += build;
    // The construction time doubles as the entry's cost-to-rebuild under
    // the cache's cost-aware eviction.
    ctx.cache.insert(
        key.to_owned(),
        shared.clone(),
        Some(footprint),
        ctx.epoch,
        build,
    );
    Ok(shared)
}

/// Computes the strategy's shared structure for `r` from scratch, with the
/// time its build took. A closure-free body's RTC is built from the
/// product of the graph and `r`, all of it timed; anything else evaluates
/// `R_G` first (line 10, by recursion: nested bodies are fetched or
/// refreshed on the way), and only the structure built from it is timed.
fn compute(ctx: &mut EvalCtx<'_>, r: &Regex) -> Result<(Shared, Duration), EngineError> {
    if ctx.kind == SharingKind::Rtc && !r.has_closure() {
        // The clause budget holds for a body however it is built.
        to_dnf_with_limit(r, ctx.config.dnf_clause_limit)?;
        let t = Instant::now();
        if let Some(rtc) = Rtc::from_body(ctx.graph, r) {
            return Ok((Shared::Rtc(Arc::new(rtc)), t.elapsed()));
        }
    }
    let r_g = eval_query(ctx, r)?;
    let t = Instant::now();
    let shared = match ctx.kind {
        SharingKind::Rtc => Shared::Rtc(Arc::new(Rtc::from_pairs(&r_g))),
        SharingKind::Full => Shared::Full(Arc::new(FullTc::from_pairs(&r_g))),
        SharingKind::Result => unreachable!("strategies share closures, not results"),
    };
    Ok((shared, t.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, Strategy};
    use rpq_graph::fixtures::paper_graph;
    use rpq_graph::{VersionedGraph, VertexId};

    /// Evaluates `src` on the paper graph through a fresh engine, handing
    /// the engine back for its cache.
    fn run(strategy: Strategy, src: &str) -> (PairSet, Engine<'static>) {
        let config = EngineConfig {
            strategy,
            dnf_clause_limit: 1024,
            ..EngineConfig::default()
        };
        let e = Engine::with_config_versioned(VersionedGraph::new(paper_graph()), config);
        let r = e.evaluate_str(src).unwrap();
        (r, e)
    }

    fn rtcs(e: &Engine<'_>) -> usize {
        e.cache().totals(SharingKind::Rtc).entries
    }

    #[test]
    fn example1_rtc_and_full_agree() {
        let (rtc_res, _) = run(Strategy::RtcSharing, "d.(b.c)+.c");
        let (full_res, _) = run(Strategy::FullSharing, "d.(b.c)+.c");
        assert_eq!(rtc_res, full_res);
        assert_eq!(rtc_res.len(), 2);
        assert!(rtc_res.contains(VertexId(7), VertexId(5)));
        assert!(rtc_res.contains(VertexId(7), VertexId(3)));
    }

    #[test]
    fn closure_free_query_uses_label_joins() {
        let (res, e) = run(Strategy::RtcSharing, "b.c");
        assert_eq!(res.len(), 5);
        assert_eq!(rtcs(&e), 0); // no closure → nothing cached
    }

    #[test]
    fn rtc_cached_once_per_closure_body() {
        // Two closures with the same body must share one RTC.
        let (_, e) = run(Strategy::RtcSharing, "d.(b.c)+.c | a.(b.c)+");
        assert_eq!(rtcs(&e), 1);
        assert_eq!(e.cache().hits(), 1);
    }

    #[test]
    fn nested_closures_cache_inner_bodies() {
        // (a.b)*.b+ caches RTCs for both a·b and b.
        let (_, e) = run(Strategy::RtcSharing, "(a.b)*.b+");
        assert_eq!(rtcs(&e), 2);
    }

    #[test]
    fn alternation_unions_clauses() {
        let (res, _) = run(Strategy::RtcSharing, "b.c | d");
        let g = paper_graph();
        let bc = rpq_eval::evaluate_algebraic(&g, &Regex::parse("b.c").unwrap());
        let d = rpq_eval::evaluate_algebraic(&g, &Regex::parse("d").unwrap());
        assert_eq!(res, bc.union(&d));
    }

    #[test]
    fn plus_and_star_share_one_cache_entry() {
        let (_, e) = run(Strategy::RtcSharing, "(b.c)+ | (b.c)*");
        assert_eq!(rtcs(&e), 1);
        assert_eq!(e.cache().hits(), 1);
    }

    #[test]
    fn epsilon_query() {
        let (res, _) = run(Strategy::RtcSharing, "()");
        assert_eq!(res, PairSet::identity(10));
    }

    #[test]
    fn matches_oracle_on_fixture_queries() {
        let g = paper_graph();
        for q in [
            "a",
            "b.c",
            "(b.c)+",
            "(b.c)*",
            "d.(b.c)+.c",
            "d.(b.c)*.c",
            "a.(a.b)+.b",
            "(a.b)*.b+",
            "b?",
            "(b|c)+",
            "c.(b.c)*",
            "(b.c)+|(c.b)+",
        ] {
            let oracle = rpq_eval::evaluate_algebraic(&g, &Regex::parse(q).unwrap());
            let (rtc_res, _) = run(Strategy::RtcSharing, q);
            let (full_res, _) = run(Strategy::FullSharing, q);
            assert_eq!(rtc_res, oracle, "RTC vs oracle on {q}");
            assert_eq!(full_res, oracle, "Full vs oracle on {q}");
        }
    }
}
