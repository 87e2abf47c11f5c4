//! Dynamic-graph correctness: engines absorbing delta streams answer every
//! read like the harness reference at that epoch (`rpq_testkit::run`), through
//! delete-then-reinsert and SCC split/merge, and every RTC they cache
//! numbers its SCCs in reverse topological order.

use rpq_testkit::{
    assert_equivalent, minimise, q, run, scenario, Axes, Edge, Probe, Scenario, Shape, Step,
};
use rtc_rpq::core::{Lookup, Shared, Strategy};
use rtc_rpq::graph::{SccId, VertexId};
use rtc_rpq::reduction::Rtc;
use std::sync::Arc;

/// SCC split/merge: a ring of three `b`-labelled 3-cycles chained by
/// bridges, one SCC until the outer ring is broken, then an inner cycle;
/// both are re-closed. `b+` is read after every step, and the cached RTC's
/// SCC count follows the splits and the merge.
#[test]
fn scc_split_and_merge_cycles() {
    let mut edges: Vec<Edge> = Vec::new();
    for o in [0, 3, 6] {
        edges.extend([(o, "b", o + 1), (o + 1, "b", o + 2), (o + 2, "b", o)]);
        edges.push((o + 2, "b", (o + 3) % 9)); // bridge to the next cluster
    }
    let mut ring = Scenario::fixed(&edges, &["b+"; 4]);
    let steps = &mut ring.steps;
    steps.insert(1, Step::Delta(vec![(8, "b", 0)], vec![]));
    steps.insert(3, Step::Delta(vec![(2, "b", 0)], vec![]));
    steps.insert(5, Step::Delta(vec![], vec![(2, "b", 0), (8, "b", 0)]));
    run(&ring, &Axes::default().strategy(&Strategy::ALL), |p| {
        // Outer ring broken: three SCCs; inner cycle broken: its members
        // are singletons; both re-closed: one SCC again.
        let sccs = match p.index {
            0 | 6 => 1,
            2 => 3,
            4 => 5,
            _ => return,
        };
        if let Some((_, rtc)) = fresh_rtcs(p).first() {
            assert_eq!(rtc.scc_count(), sccs, "after step {}", p.index);
        }
    });
}

/// Engine-level equivalence: an engine absorbing update streams answers
/// every read — live, through held views and after snapshot restarts —
/// like the reference at that epoch, for every strategy.
#[test]
fn engine_apply_delta_matches_fresh_engine() {
    let axes = Axes::default().strategy(&Strategy::ALL);
    let shapes = [Shape::Uniform, Shape::GiantScc, Shape::DenseCyclic];
    let scenarios: Vec<_> = (0..24)
        .map(|seed| scenario(0xD15C0 + seed, shapes[seed as usize % 3]))
        .collect();
    assert!(restarts(&scenarios) >= 4, "the stream restores caches");
    for s in &scenarios {
        assert_equivalent(s, &axes);
    }
}

/// How many of `scenarios` restart from a snapshot at least once.
fn restarts(scenarios: &[Scenario]) -> usize {
    let restarts = |s: &&Scenario| s.steps.contains(&Step::Restart);
    scenarios.iter().filter(restarts).count()
}

/// After every step of a generated delta stream, every cached RTC numbers
/// its SCCs in reverse topological order: no SCC reaches a higher id than
/// its own. Tarjan's numbering has that property, and the Post stage may
/// rely on it only if every refresh and every snapshot restore keeps it.
#[test]
fn cached_rtcs_number_their_sccs_in_reverse_topological_order() {
    let axes = Axes::default().strategy(&[Strategy::RtcSharing]);
    let shapes = [Shape::Uniform, Shape::GiantScc, Shape::DenseCyclic];
    let scenarios: Vec<_> = (0..12)
        .map(|seed| scenario(0x70B0 + seed, shapes[seed as usize % 3]))
        .collect();
    assert!(restarts(&scenarios) >= 2, "the stream restores caches");
    for s in &scenarios {
        run(s, &axes, assert_reverse_topological);
    }
}

/// The probe's fresh cached RTCs with their keys, each fetched by a
/// (counted) lookup of the key the cache reports.
fn fresh_rtcs(p: &Probe) -> Vec<(String, Arc<Rtc>)> {
    let cache = p.engine.cache();
    let entries = cache.fresh_entries().into_iter();
    entries
        .filter_map(|e| match cache.lookup(e.kind, &e.key, cache.epoch()) {
            Lookup::Fresh(Shared::Rtc(rtc)) => Some((e.key, rtc)),
            _ => None,
        })
        .collect()
}

/// No cached RTC has an SCC that reaches a higher SCC id.
fn assert_reverse_topological(p: &Probe) {
    for (key, rtc) in fresh_rtcs(p) {
        for s in (0..rtc.scc_count()).map(SccId::from_usize) {
            let up = rtc.successors(s).iter().find(|&t| t > s.raw());
            assert_eq!(up, None, "'{}': SCC {} reaches a higher id", key, s.raw());
        }
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
    run(&cycle, &Axes::default().strategy(&Strategy::ALL), |p| {
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
