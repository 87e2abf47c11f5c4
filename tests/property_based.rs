//! Properties of the core data structures and the end-to-end pipeline
//! invariants, on inputs drawn by the test kit.

use rand::rngs::StdRng;
use rpq_testkit::{
    assert_equivalent, check, random_ids, relation, run, scenario, Axes, Reader, Shape, Step,
};
use rtc_rpq::core::{Lookup, Shared, Strategy as EvalStrategy};
use rtc_rpq::eval::algebraic::plus_closure;
use rtc_rpq::graph::{Ends, PairSet, RowSet, SccId, VertexId};
use rtc_rpq::reduction::{FullTc, Rtc};
use rtc_rpq::regex::Regex;

fn set(pairs: &[(u32, u32)]) -> PairSet {
    pairs.iter().copied().collect()
}

// ---------- PairSet algebra ----------

/// Union is commutative, associative and idempotent.
#[test]
fn pairset_union_laws() {
    let rel = relation(16, 30);
    let draw = |r: &mut StdRng| (rel(r), rel(r), rel(r));
    check(0x01, 64, draw, |(a, b, c)| {
        let (a, b, c) = (set(a), set(b), set(c));
        assert_eq!(a.union(&b), b.union(&a));
        assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        assert_eq!(a.union(&a), a);
    });
}

/// Difference is consistent with union and membership.
#[test]
fn pairset_set_identities() {
    let rel = relation(16, 30);
    let draw = |r: &mut StdRng| (rel(r), rel(r));
    check(0x02, 64, draw, |(a, b)| {
        let (a, b) = (set(a), set(b));
        let diff = a.difference(&b);
        // (a \ b) ∪ b = a ∪ b
        assert_eq!(diff.union(&b), a.union(&b));
        // a \ b ⊆ a and shares no pair with b
        assert!(diff.difference(&a).is_empty());
        assert!(diff.iter().all(|(s, e)| !b.contains(s, e)));
        assert!(a.difference(&a).is_empty());
    });
}

/// Composition is associative and identity-neutral.
#[test]
fn pairset_compose_laws() {
    let rel = relation(10, 20);
    let draw = |r: &mut StdRng| (rel(r), rel(r), rel(r));
    check(0x03, 64, draw, |(a, b, c)| {
        let (a, b, c) = (set(a), set(b), set(c));
        assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
        let id = PairSet::identity(10);
        assert_eq!(a.compose(&id), a);
        assert_eq!(id.compose(&a), a);
    });
}

/// Sortedness invariant survives every construction path.
#[test]
fn pairset_always_sorted_unique() {
    check(0x04, 64, relation(20, 60), |pairs| {
        let v: Vec<_> = set(pairs).iter().collect();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    });
}

// ---------- RowSet hybrid representation ----------

/// Dense and sparse backings agree on union, membership and iteration
/// for every mix of representations. Up to 80 draws over
/// a 160-id universe straddles the default 1/32 promotion boundary
/// from both sides.
#[test]
fn rowset_dense_equals_sparse() {
    let draw = |r: &mut StdRng| (random_ids(r, 160, 0..80), random_ids(r, 160, 0..80));
    check(0x05, 96, draw, |(a, b)| {
        let sa = RowSet::from_unsorted(a.clone());
        let sb = RowSet::from_unsorted(b.clone());
        let mut da = sa.clone();
        da.promote(160);
        let mut db = sb.clone();
        db.promote(160);
        // Promotion preserves contents, length and iteration order.
        assert_eq!(&sa, &da);
        assert_eq!(sa.len(), da.len());
        assert!(sa.iter().eq(da.iter()));
        for id in 0..170 {
            assert_eq!(sa.contains(id), da.contains(id), "{id}");
        }
        let union = sa.union(&sb).to_vec();
        for (x, y) in [(&sa, &sb), (&sa, &db), (&da, &sb), (&da, &db)] {
            assert_eq!(x.union(y).to_vec(), union);
            // The in-place form agrees with the pure form, and its changed
            // flag tells the truth.
            let mut u = x.clone();
            assert_eq!(u.union_in_place(y), union != x.to_vec());
            assert_eq!(u.to_vec(), union);
            // So does element-wise insertion.
            let mut i = x.clone();
            let changed = y.iter().fold(false, |c, id| i.insert(id) | c);
            assert_eq!(changed, union != x.to_vec());
            assert_eq!(i.to_vec(), union);
        }
    });
}

/// `normalize` never changes contents, whatever universe it is asked to
/// fit — the density rule only moves the representation, and it moves it
/// exactly as `wants_dense` says over the universe widened to the contents.
#[test]
fn rowset_normalize_preserves_contents() {
    let universes = [1, 16, 64, 200, 1024, 1 << 16];
    let draw = |r: &mut StdRng| (random_ids(r, 200, 0..100), universes.to_vec());
    check(0x06, 96, draw, |(ids, universes)| {
        let base = RowSet::from_unsorted(ids.clone());
        for &universe in universes {
            let mut r = base.clone();
            r.normalize(universe);
            assert_eq!(&r, &base, "universe {universe}");
            assert_eq!(r.len(), base.len());
            let widened = universe.max(base.max().map_or(0, |m| m + 1));
            assert_eq!(r.is_dense(), RowSet::wants_dense(base.len(), widened));
        }
    });
}

// ---------- closure invariants ----------

/// Theorem 1 as a property: RTC expansion == full TC == fixpoint.
#[test]
fn rtc_expansion_matches_all_closures() {
    check(0x07, 48, relation(24, 70), |pairs| {
        let base = set(pairs);
        let rtc = Rtc::from_pairs(&base).expand();
        let full = FullTc::from_pairs(&base).expand();
        let fix = plus_closure(&base);
        assert_eq!(&rtc, &full);
        assert_eq!(&rtc, &fix);
        // TC is idempotent and contains the base.
        assert_eq!(plus_closure(&fix), fix);
        assert!(base.difference(&fix).is_empty());
    });
}

/// The RTC never stores more pairs or vertices than the full closure.
#[test]
fn rtc_is_never_bigger() {
    check(0x08, 48, relation(24, 70), |pairs| {
        let base = set(pairs);
        let rtc = Rtc::from_pairs(&base);
        let full = FullTc::from_pairs(&base);
        assert!(rtc.closure_pair_count() <= full.pair_count());
        assert!(rtc.scc_count() <= full.vertex_count());
    });
}

// ---------- end-to-end pipeline: harness scenarios, one axis per test ----------

/// The flagship property: every strategy equals the reference, with every
/// read answered through a pinned view, on uniform graphs and on graphs
/// that deltas grow from nothing. Results therefore only mention vertices
/// of the graph they were read on: the reference's graph has exactly those.
#[test]
fn engine_matches_oracle() {
    let axes = Axes::default().reader(&[Reader::Pinned]);
    let axes = axes.strategy(&EvalStrategy::ALL);
    for seed in 0..32 {
        let shape = [Shape::Uniform, Shape::Degenerate][seed as usize % 2];
        assert_equivalent(&scenario(0xE2E + seed, shape), &axes);
    }
}

/// R* ≡ R+ ∪ identity, through the whole engine: every query is read as
/// the set `{R+, R*}` and the two answers are compared with each other.
#[test]
fn star_is_plus_union_identity() {
    for seed in 0..24 {
        let mut s = scenario(0x57A + seed, Shape::Uniform);
        for step in &mut s.steps {
            if let Some(q) = step.queries().first().cloned() {
                *step = Step::Set(vec![Regex::plus(q.clone()), Regex::star(q)]);
            }
        }
        run(&s, &Axes::default(), |p| {
            if let [plus, star] = p.answers {
                let id = PairSet::identity(p.graph.vertex_count());
                assert_eq!(star, &plus.union(&id), "{}", p.step);
            }
        });
    }
}

/// Row-layout invariance: on wide graphs the 1/32 density rule leaves
/// short rows sparse next to dense ones, and every strategy, read live
/// and through pinned views, equals the reference. The inspector reads the
/// cached closures and the answers, so the suite fails if its scenarios
/// stop producing both layouts.
#[test]
fn engine_invariant_under_representation() {
    let axes = Axes::default().strategy(&EvalStrategy::ALL);
    let axes = axes.reader(&[Reader::Live, Reader::Pinned]);
    // Non-empty (sparse, dense) rows seen: RTC closures, full closures,
    // answers.
    let mut seen = [[0usize; 2]; 3];
    let tally = |seen: &mut [usize; 2], row: &RowSet| {
        if !row.is_empty() {
            seen[usize::from(row.is_dense())] += 1;
        }
    };
    for seed in 0..6 {
        run(&scenario(0x7E9 + seed, Shape::Wide), &axes, |p| {
            let cache = p.engine.cache();
            for entry in cache.fresh_entries() {
                match cache.lookup(entry.kind, &entry.key, cache.epoch()) {
                    Lookup::Fresh(Shared::Rtc(rtc)) => {
                        for s in 0..rtc.scc_count() as u32 {
                            tally(&mut seen[0], rtc.successors(SccId(s)));
                        }
                    }
                    Lookup::Fresh(Shared::Full(full)) => {
                        let n = p.graph.vertex_count() as u32;
                        let rows = (0..n)
                            .filter(|&v| full.successors_original(VertexId(v)).next().is_some());
                        let (rows, dense) = (rows.count(), full.dense_rows());
                        seen[1][0] += rows - dense;
                        seen[1][1] += dense;
                    }
                    _ => {}
                }
            }
            for answer in p.answers {
                for (_, ends) in answer.groups() {
                    if let Ends::Row(row) = ends {
                        tally(&mut seen[2], row);
                    }
                }
            }
        });
    }
    for (kind, [sparse, dense]) in ["RTC", "full closure", "answer"].iter().zip(seen) {
        assert!(
            sparse > 0 && dense > 0,
            "{kind} rows: {sparse} sparse, {dense} dense"
        );
    }
}
