//! Dynamic-graph correctness: incremental maintenance must be *bitwise
//! identical* to rebuild-from-scratch — the same `Rtc` expansion/stats
//! and the same `FullTc` pairs — over random delta sequences (insert-only,
//! delete-only and mixed), including the delete-then-reinsert and
//! SCC-split/merge patterns; and engines absorbing delta streams answer
//! like the harness reference at every epoch (`common::run`).

mod common;

use common::{assert_equivalent, minimise, q, run, scenario, Axes, Scenario, Shape, Step};
use proptest::prelude::*;
use rtc_rpq::core::Strategy;
use rtc_rpq::graph::{PairSet, VertexId};
use rtc_rpq::reduction::{DynamicRtc, FullTc, MaintenanceConfig, Rtc};

/// Damage thresholds covering both maintenance paths plus the default.
const THRESHOLDS: [f64; 3] = [2.0, 0.0, 0.25];

fn vid(pairs: &[(u32, u32)]) -> Vec<(VertexId, VertexId)> {
    pairs
        .iter()
        .map(|&(a, b)| (VertexId(a), VertexId(b)))
        .collect()
}

/// Asserts a maintained structure equals a from-scratch rebuild of the
/// same relation, at `Rtc` level (expansion + all stats) and `FullTc`
/// level (Lemma 1 ties them together).
fn assert_rtc_equivalent(dynamic: &DynamicRtc, label: &str) {
    let pairs = dynamic.pairs();
    let fresh = Rtc::from_pairs(&pairs);
    let snap = dynamic.snapshot();
    assert_eq!(snap.expand(), fresh.expand(), "{label}: expansion");
    assert_eq!(snap.stats(), fresh.stats(), "{label}: stats");
    let full = FullTc::from_pairs(&pairs);
    assert_eq!(snap.expand(), full.expand(), "{label}: Lemma 1");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Mixed random delta sequences: after every batch the maintained
    /// structure equals rebuild-from-scratch, at every damage threshold.
    #[test]
    fn random_mixed_deltas_match_rebuild(
        base in prop::collection::vec((0u32..16, 0u32..16), 0..40),
        // First element: 0 = delete, 1 = insert (the vendored proptest
        // shim has no bool strategy).
        batches in prop::collection::vec(
            prop::collection::vec((0u32..2, 0u32..16, 0u32..16), 1..10),
            1..6,
        ),
    ) {
        for &threshold in &THRESHOLDS {
            let config = MaintenanceConfig { damage_threshold: threshold };
            let base_pairs: PairSet = base.iter().copied().collect();
            let mut dynamic = DynamicRtc::from_pairs(&base_pairs);
            for (i, batch) in batches.iter().enumerate() {
                let inserts: Vec<(u32, u32)> =
                    batch.iter().filter(|b| b.0 == 1).map(|b| (b.1, b.2)).collect();
                let deletes: Vec<(u32, u32)> =
                    batch.iter().filter(|b| b.0 == 0).map(|b| (b.1, b.2)).collect();
                dynamic.apply(&vid(&inserts), &vid(&deletes), &config);
                assert_rtc_equivalent(&dynamic, &format!("t={threshold} batch {i}"));
            }
        }
    }

    /// Insert-only growth from an arbitrary base.
    #[test]
    fn insert_only_deltas_match_rebuild(
        base in prop::collection::vec((0u32..12, 0u32..12), 0..25),
        adds in prop::collection::vec((0u32..12, 0u32..12), 1..30),
    ) {
        let base_pairs: PairSet = base.iter().copied().collect();
        let config = MaintenanceConfig { damage_threshold: 2.0 };
        // One pair at a time (maximal merge coverage)...
        let mut one_by_one = DynamicRtc::from_pairs(&base_pairs);
        for &p in &adds {
            one_by_one.apply(&vid(&[p]), &[], &config);
        }
        assert_rtc_equivalent(&one_by_one, "insert one-by-one");
        // ...and as a single batch.
        let mut batched = DynamicRtc::from_pairs(&base_pairs);
        batched.apply(&vid(&adds), &[], &config);
        assert_rtc_equivalent(&batched, "insert batched");
        prop_assert_eq!(one_by_one.pairs(), batched.pairs());
    }

    /// Delete-only shrinkage down to (possibly) empty, then reinsert
    /// everything — the structure must round-trip exactly.
    #[test]
    fn delete_then_reinsert_round_trips(
        base in prop::collection::vec((0u32..12, 0u32..12), 1..30),
        order in prop::collection::vec(0usize..1000, 1..30),
    ) {
        let base_pairs: PairSet = base.iter().copied().collect();
        let config = MaintenanceConfig { damage_threshold: 2.0 };
        let mut dynamic = DynamicRtc::from_pairs(&base_pairs);
        let all: Vec<(u32, u32)> = base_pairs.iter().map(|(a, b)| (a.raw(), b.raw())).collect();
        // Delete in a scrambled order, checking equivalence as we go.
        let mut remaining = all.clone();
        for &o in &order {
            if remaining.is_empty() {
                break;
            }
            let victim = remaining.swap_remove(o % remaining.len());
            dynamic.apply(&[], &vid(&[victim]), &config);
        }
        assert_rtc_equivalent(&dynamic, "after deletes");
        // Reinsert everything: bitwise identical to the original build.
        dynamic.apply(&vid(&all), &[], &config);
        assert_rtc_equivalent(&dynamic, "after reinsert");
        let fresh = Rtc::from_pairs(&base_pairs);
        let snap = dynamic.snapshot();
        prop_assert_eq!(snap.expand(), fresh.expand());
        prop_assert_eq!(snap.stats(), fresh.stats());
    }
}

/// SCC split/merge stress: cycles repeatedly broken and re-closed.
#[test]
fn scc_split_and_merge_cycles() {
    let config = MaintenanceConfig {
        damage_threshold: 2.0,
    };
    // A ring of three 3-cycles chained through bridges, all collapsed into
    // one big SCC by a closing edge.
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for c in 0..3u32 {
        let o = c * 3;
        pairs.extend([(o, o + 1), (o + 1, o + 2), (o + 2, o)]);
        pairs.push((o + 2, (o + 3) % 9)); // bridge to the next cluster
    }
    let base: PairSet = pairs.iter().copied().collect();
    let mut dynamic = DynamicRtc::from_pairs(&base);
    assert_eq!(dynamic.scc_count(), 1, "ring of rings is one SCC");

    // Break the outer ring: three separate SCCs again.
    dynamic.apply(&[], &vid(&[(8, 0)]), &config);
    assert_rtc_equivalent(&dynamic, "outer ring broken");
    assert_eq!(dynamic.snapshot().scc_count(), 3);

    // Break an inner cycle: its members become singletons.
    dynamic.apply(&[], &vid(&[(2, 0)]), &config);
    assert_rtc_equivalent(&dynamic, "inner cycle broken");

    // Re-close both: back to one SCC, bitwise identical to fresh.
    dynamic.apply(&vid(&[(2, 0), (8, 0)]), &[], &config);
    assert_rtc_equivalent(&dynamic, "re-closed");
    assert_eq!(dynamic.scc_count(), 1);
    assert_eq!(dynamic.snapshot().expand(), Rtc::from_pairs(&base).expand());
}

/// Engine-level equivalence: an engine absorbing update streams answers
/// every read — live and through held views — like the reference at that
/// epoch, for every strategy, at 1 and 2 threads, on both maintenance
/// paths (2.0 never rebuilds, 0.0 always does).
#[test]
fn engine_apply_delta_matches_fresh_engine() {
    let axes = Axes::default().strategy(&Strategy::ALL);
    let axes = axes.threads(&[1, 2]).maintenance(&[2.0, 0.0]);
    let shapes = [Shape::Uniform, Shape::GiantScc, Shape::DenseCyclic];
    for seed in 0..24 {
        assert_equivalent(&scenario(0xD15C0 + seed, shapes[seed as usize % 3]), &axes);
    }
}

/// A delta stream can make a query's relation grow, vanish and reappear;
/// the engine must track it through delete-then-reinsert exactly. Here
/// `(a·b)+` has a 4-cycle core the first delta cuts and the second heals,
/// so `(0, 0)` leaves the reference's answer and comes back.
#[test]
fn engine_delete_then_reinsert_is_exact() {
    let edges = [(0, "a", 1), (1, "b", 2), (2, "a", 3), (3, "b", 0)];
    let mut cycle = Scenario::fixed(&edges, &["(a.b)+"; 3]);
    let steps = &mut cycle.steps;
    steps.insert(1, Step::Delta(vec![(3, "b", 0)], vec![]));
    steps.insert(3, Step::Delta(vec![], vec![(3, "b", 0)]));
    let axes = Axes::default().strategy(&Strategy::ALL);
    run(&cycle, &axes.maintenance(&[2.0, 0.0]), |p| {
        if let [got] = p.answers {
            assert_eq!(got.contains(VertexId(0), VertexId(0)), p.index != 2);
        }
    });
}

/// The minimiser keeps exactly the steps a failure needs — a delta
/// inserting one edge and a later read of a query naming one label — out
/// of a generated stream of over 200 steps.
#[test]
fn minimiser_keeps_only_the_steps_a_failure_needs() {
    let edge = (1, "d", 2);
    let reads_d = |st: &Step| st.queries().iter().any(|q| q.labels().contains(&"d"));
    let inserts = |st: &Step| matches!(st, Step::Delta(_, ins) if ins.contains(&edge));
    let fails = |s: &Scenario| {
        let at = s.steps.iter().position(inserts)?;
        s.steps[at..].iter().any(reads_d).then(|| "planted".into())
    };
    let mut s = scenario(0x5A1, Shape::Uniform);
    for seed in 1..40 {
        s.steps.extend(scenario(0x5A1 + seed, Shape::Uniform).steps);
    }
    let planted = Step::Delta(vec![(0, "a", 1)], vec![(3, "c", 3), edge]);
    s.steps.insert(50, planted);
    s.steps.push(Step::Set(vec![q("a.b"), q("c.d+")]));
    assert!(s.steps.len() >= 200);
    let (min, msg) = minimise(&s, fails).expect("the planted pair fails");
    assert_eq!(msg, "planted");
    assert!(min.edges.is_empty(), "{min}");
    assert_eq!(min.steps[0], Step::Delta(vec![], vec![edge]), "{min}");
    assert!(matches!(&min.steps[1..], [read] if read.queries().len() == 1 && reads_d(read)));
    let printed = min.to_string();
    assert!(printed.contains(r#"Step::Delta(vec![], vec![(1, "d", 2)]),"#));
}
