//! Integration tests for the engine's production features beyond the
//! paper's core algorithm: witness paths, EXPLAIN plans, fast paths, and
//! cache lifecycle.

use rpq_testkit::{random_graph, random_regex, rng};
use rtc_rpq::automata::DerivativeMatcher;
use rtc_rpq::core::{
    eval_batch_unit_rtc, explain, explain_set, EliminationStats, Engine, PreRelation, SharingKind,
    Strategy,
};
use rtc_rpq::eval::{find_witness, format_witness, ProductEvaluator, WitnessStep};
use rtc_rpq::graph::fixtures::paper_graph;
use rtc_rpq::graph::{PairSet, VertexId};
use rtc_rpq::reduction::Rtc;
use rtc_rpq::regex::{ClosureKind, Regex};

/// Witness extraction agrees with engine results on random inputs: every
/// result pair has a witness that is a path of the graph from its source
/// to its target, and whose labels spell a word the independent derivative
/// matcher accepts; non-result pairs have none.
#[test]
fn witnesses_cover_engine_results() {
    let mut r = rng(101);
    for case in 0..25 {
        let g = random_graph(&mut r, 4..14, 5..40);
        let (n, q) = (g.vertex_count() as u32, random_regex(&mut r, 2));
        let result = Engine::new(&g).evaluate(&q).unwrap();
        let mut matcher = DerivativeMatcher::new(&q);
        for (s, d) in result.iter().take(50) {
            let w = find_witness(&g, &q, s, d)
                .unwrap_or_else(|| panic!("case {case}: no witness for ({s},{d}) on {q}"));
            let ctx = format!("case {case}: ({s},{d}) on {q}: {}", format_witness(&g, &w));
            match (w.first(), w.last()) {
                (Some(first), Some(last)) => assert_eq!((first.from, last.to), (s, d), "{ctx}"),
                _ => assert_eq!(s, d, "{ctx}: empty witness only for self pairs"),
            }
            let is_edge = |st: &WitnessStep| g.has_edge(st.from, st.label, st.to);
            assert!(w.iter().all(is_edge), "{ctx}");
            assert!(w.windows(2).all(|p| p[0].to == p[1].from), "{ctx}");
            let word: Vec<&str> = w.iter().map(|st| g.labels().name(st.label)).collect();
            assert!(matcher.matches(&word), "{ctx}");
        }
        // And a handful of non-result pairs have none.
        for s in 0..n.min(6) {
            for d in 0..n.min(6) {
                let (s, d) = (VertexId(s), VertexId(d));
                if !result.contains(s, d) {
                    assert!(find_witness(&g, &q, s, d).is_none());
                }
            }
        }
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
    // The engine caches exactly the plan-visible bodies here: the one body
    // nested inside an R (`b` in `a.b+.c`) is also planned by a query.
    assert_eq!(planned.len(), 4);
    assert_eq!(
        engine.cache().totals(SharingKind::Rtc).entries,
        planned.len()
    );
    for key in &planned {
        // Re-evaluating a query whose body is `key` must hit the cache.
        let hits_before = engine.cache().hits();
        engine
            .evaluate(&Regex::parse(&format!("({key})+")).unwrap())
            .unwrap();
        assert!(engine.cache().hits() > hits_before, "no hit for {key}");
    }
}

/// `explain_set` lists every body a cold evaluation caches, also a body
/// nested inside another body's `R` that no query plan shows.
#[test]
fn explain_set_lists_the_bodies_a_cold_evaluation_caches() {
    let g = paper_graph();
    let sets: [&[&str]; 4] = [
        &["(a.b+.c)+"],
        &["((b.c)+.d)+", "a.(a.b+.c)+"],
        &["(a.(b.(c.b)+)+)+"],
        &["(a.b)*.b+.(a.b+.c)+", "(c.b+)+"],
    ];
    for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
        for set in sets {
            let queries: Vec<Regex> = set.iter().map(|q| Regex::parse(q).unwrap()).collect();
            let listed = explain_set(&queries).unwrap().shared_bodies.len();
            let engine = Engine::with_strategy(&g, strategy);
            engine.evaluate_set(&queries).unwrap();
            let kind = strategy.kind().unwrap();
            let cached = engine.cache().totals(kind).entries;
            assert_eq!(listed, cached, "{strategy} {set:?}");
        }
    }
    let plan = explain_set(&[Regex::parse("(a.b+.c)+").unwrap()]).unwrap();
    let keys: Vec<&str> = plan.shared_bodies.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["a.b+.c", "b"]);
}

/// The plan is the walk evaluation runs: on a warm engine a query looks up
/// exactly its plan's batch units, each a structural hit, and misses
/// nothing (bodies nested inside an `R` are not looked up on a hit).
#[test]
fn warm_evaluation_takes_one_hit_per_planned_batch_unit() {
    let g = paper_graph();
    let cases = [
        ("d.(b.c)+.c", 1),
        ("a.(a.b)+.b", 1),
        ("(a.b)*.b+.(a.b+.c)+", 3),
        ("((b.c)+.d)+", 1),
    ];
    for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
        for (src, units) in cases {
            let q = Regex::parse(src).unwrap();
            assert_eq!(explain(&q).unwrap().bodies().len(), units, "{src}");
            let engine = Engine::with_strategy(&g, strategy);
            let cold = engine.evaluate(&q).unwrap();
            let (hits, misses) = (engine.cache().hits(), engine.cache().misses());
            assert_eq!(engine.evaluate(&q).unwrap(), cold);
            let taken = (
                engine.cache().hits() - hits,
                engine.cache().misses() - misses,
            );
            assert_eq!(taken, (units as u64, 0), "{strategy} {src}");
        }
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
    assert_eq!(plan.bodies().len(), 3);
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
