//! Integration tests for the engine's production features beyond the
//! paper's core algorithm: witness paths, EXPLAIN plans, fast paths, and
//! cache lifecycle.

use rpq_testkit::{random_graph, random_regex, rng};
use rtc_rpq::core::{
    eval_batch_unit_rtc, explain, explain_set, EliminationStats, Engine, PreRelation, SharingKind,
    Strategy,
};
use rtc_rpq::eval::{find_witness, format_witness, ProductEvaluator};
use rtc_rpq::graph::fixtures::paper_graph;
use rtc_rpq::graph::{PairSet, VertexId};
use rtc_rpq::reduction::Rtc;
use rtc_rpq::regex::{ClosureKind, Regex};

/// Witness extraction agrees with engine results on random inputs.
#[test]
fn witnesses_cover_engine_results() {
    let mut r = rng(101);
    for case in 0..25 {
        let g = random_graph(&mut r, 4..14, 5..40);
        let (n, q) = (g.vertex_count() as u32, random_regex(&mut r, 2));
        let result = Engine::new(&g).evaluate(&q).unwrap();
        // Every result pair has a witness whose endpoints match.
        for (s, d) in result.iter().take(50) {
            let w = find_witness(&g, &q, s, d)
                .unwrap_or_else(|| panic!("case {case}: no witness for ({s},{d}) on {q}"));
            if let (Some(first), Some(last)) = (w.first(), w.last()) {
                assert_eq!(first.from, s);
                assert_eq!(last.to, d);
            } else {
                assert_eq!(s, d, "empty witness only for self pairs");
            }
        }
        // And a handful of non-result pairs have none.
        let mut misses = 0;
        for s in 0..n.min(6) {
            for d in 0..n.min(6) {
                let (s, d) = (VertexId(s), VertexId(d));
                if !result.contains(s, d) {
                    assert!(find_witness(&g, &q, s, d).is_none());
                    misses += 1;
                }
            }
        }
        let _ = misses;
    }
}

/// The EXPLAIN plan names exactly the closure bodies the engine caches.
#[test]
fn explain_predicts_cached_bodies() {
    let g = paper_graph();
    let queries = [
        Regex::parse("a.(a.b)+.b").unwrap(),
        Regex::parse("(a.b)*.b+.(a.b+.c)+").unwrap(),
        Regex::parse("d.(b.c)+.c").unwrap(),
    ];
    let plan = explain_set(&queries).unwrap();
    let planned: std::collections::BTreeSet<String> =
        plan.shared_bodies.iter().map(|(k, _)| k.clone()).collect();

    let engine = Engine::new(&g);
    engine.evaluate_set(&queries).unwrap();
    // Engine caches at least the plan-visible bodies (it may cache more:
    // bodies nested inside R are discovered during R's own evaluation).
    assert!(engine.cache().totals(SharingKind::Rtc).entries >= planned.len());
    for key in &planned {
        // Re-evaluating a query whose body is `key` must hit the cache.
        let hits_before = engine.cache().hits();
        engine
            .evaluate(&Regex::parse(&format!("({key})+")).unwrap())
            .unwrap();
        assert!(engine.cache().hits() > hits_before, "no hit for {key}");
    }
}

/// The Fig. 7 recursion-tree shape, as EXPLAIN output.
#[test]
fn explain_renders_paper_recursion_tree() {
    let q = Regex::parse("(a.b)*.b+.(a.b+.c)+").unwrap();
    let plan = explain(&q).unwrap();
    let text = plan.to_string();
    assert!(text.contains("(a.b+.c)+"), "{text}");
    assert!(text.contains("(a.b)*.b+"), "{text}");
    assert_eq!(plan.batch_unit_count(), 3);
}

/// Theorem 2 on random bare closures: the general Algorithm-2 join with
/// `Pre = Post = ε` — the path the engine answers them with — is exactly
/// the Theorem-1 expansion of the RTC (plus the identity for `R*`).
#[test]
fn fast_path_equivalence_randomized() {
    let mut r = rng(107);
    for _ in 0..30 {
        let g = random_graph(&mut r, 4..16, 5..50);
        let body = random_regex(&mut r, 2);
        let rtc = Rtc::from_pairs(&ProductEvaluator::new(&g, &body).evaluate());
        let identity = PairSet::identity(g.vertex_count());
        for kind in [ClosureKind::Plus, ClosureKind::Star] {
            let general = eval_batch_unit_rtc(
                &g,
                &PreRelation::Identity(g.vertex_count()),
                &rtc,
                kind,
                &[],
                &mut EliminationStats::default(),
            )
            .result;
            let (q, expansion) = match kind {
                ClosureKind::Plus => (Regex::plus(body.clone()), rtc.expand()),
                ClosureKind::Star => (Regex::star(body.clone()), rtc.expand().union(&identity)),
            };
            assert_eq!(general, expansion, "query {q}");
            assert_eq!(Engine::new(&g).evaluate(&q).unwrap(), general, "query {q}");
        }
    }
}

/// Cache lifecycle: clear_cache forces recomputation; reset_metrics does not.
#[test]
fn cache_lifecycle() {
    let g = paper_graph();
    let e = Engine::new(&g);
    let q = Regex::parse("d.(b.c)+.c").unwrap();
    e.evaluate(&q).unwrap();
    assert_eq!(e.cache().misses(), 1);

    // reset_metrics clears the hit/miss counters (they are metric
    // accumulators) but keeps cached structures: the re-evaluation is a
    // pure hit, with no new miss.
    e.reset_metrics();
    assert_eq!(e.cache().misses(), 0, "counters are metrics — reset");
    e.evaluate(&q).unwrap();
    assert_eq!(e.cache().misses(), 0, "metrics reset must keep the cache");
    assert!(e.cache().hits() >= 1);

    e.clear_cache();
    e.evaluate(&q).unwrap();
    assert_eq!(e.cache().misses(), 1, "fresh miss counter after clear");
    assert_eq!(e.cache().totals(SharingKind::Rtc).entries, 1);
}

/// Witness formatting uses the paper's p(...) notation end-to-end.
#[test]
fn witness_formatting() {
    let g = paper_graph();
    let q = Regex::parse("e.f").unwrap();
    let w = find_witness(&g, &q, VertexId(8), VertexId(8)).unwrap();
    assert_eq!(format_witness(&g, &w), "p(v8, e, v9, f, v8)");
}

/// NoSharing vs the sharing strategies on the full Section V-A workload
/// shape (multiple queries, one engine) — including star workloads.
#[test]
fn workload_shape_equivalence() {
    use rtc_rpq::datasets::workload::{alphabet_of, generate_workload, WorkloadConfig};
    let mut r = rng(109);
    let g = random_graph(&mut r, 48..49, 220..221);
    for use_star in [false, true] {
        let sets = generate_workload(
            &alphabet_of(&g),
            &WorkloadConfig {
                rs_per_length: 1,
                queries_per_set: 4,
                use_star,
                ..WorkloadConfig::default()
            },
        );
        for set in sets.iter().take(2) {
            let mut reference: Option<Vec<usize>> = None;
            for strategy in Strategy::ALL {
                let e = Engine::with_strategy(&g, strategy);
                let results = e.evaluate_set(&set.queries).unwrap();
                let sizes: Vec<usize> = results.iter().map(|p| p.len()).collect();
                match &reference {
                    None => reference = Some(sizes),
                    Some(expect) => assert_eq!(expect, &sizes, "{strategy}, star={use_star}"),
                }
            }
        }
    }
}
