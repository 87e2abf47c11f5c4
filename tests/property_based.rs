//! Property-based tests (proptest) over the core data structures and the
//! end-to-end pipeline invariants.

mod common;

use common::{assert_equivalent, run, scenario, Axes, Reader, Shape, Step};
use proptest::prelude::*;
use rtc_rpq::core::Strategy as EvalStrategy;
use rtc_rpq::eval::algebraic::plus_closure;
use rtc_rpq::graph::{PairSet, ReprMode, RowSet, RowSetPolicy};
use rtc_rpq::reduction::{FullTc, Rtc};
use rtc_rpq::regex::Regex;

// ---------- generators ----------

fn arb_pairs(max_v: u32, max_len: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_v, 0..max_v), 0..max_len)
}

// ---------- PairSet algebra ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Union is commutative, associative and idempotent.
    #[test]
    fn pairset_union_laws(a in arb_pairs(16, 30), b in arb_pairs(16, 30), c in arb_pairs(16, 30)) {
        let a: PairSet = a.into_iter().collect();
        let b: PairSet = b.into_iter().collect();
        let c: PairSet = c.into_iter().collect();
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        prop_assert_eq!(a.union(&a), a.clone());
    }

    /// Difference/intersection are consistent with union.
    #[test]
    fn pairset_set_identities(a in arb_pairs(16, 30), b in arb_pairs(16, 30)) {
        let a: PairSet = a.into_iter().collect();
        let b: PairSet = b.into_iter().collect();
        // (a \ b) ∪ (a ∩ b) = a
        prop_assert_eq!(a.difference(&b).union(&a.intersect(&b)), a.clone());
        // (a \ b) ∩ b = ∅
        prop_assert!(a.difference(&b).intersect(&b).is_empty());
    }

    /// Composition is associative and identity-neutral.
    #[test]
    fn pairset_compose_laws(a in arb_pairs(10, 20), b in arb_pairs(10, 20), c in arb_pairs(10, 20)) {
        let a: PairSet = a.into_iter().collect();
        let b: PairSet = b.into_iter().collect();
        let c: PairSet = c.into_iter().collect();
        prop_assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
        let id = PairSet::identity(10);
        prop_assert_eq!(a.compose(&id), a.clone());
        prop_assert_eq!(id.compose(&a), a);
    }

    /// Sortedness invariant survives every construction path.
    #[test]
    fn pairset_always_sorted_unique(pairs in arb_pairs(20, 60)) {
        let p: PairSet = pairs.into_iter().collect();
        let v: Vec<_> = p.iter().collect();
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
    }
}

// ---------- RowSet hybrid representation ----------

fn arb_ids(max_v: u32, max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0..max_v, 0..max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Dense and sparse backings agree on union, intersection, difference
    /// and iteration for every mix of representations. Up to 80 draws over
    /// a 160-id universe straddles the default 1/32 promotion boundary
    /// from both sides.
    #[test]
    fn rowset_dense_equals_sparse(a in arb_ids(160, 80), b in arb_ids(160, 80)) {
        let sa = RowSet::from_unsorted(a);
        let sb = RowSet::from_unsorted(b);
        let mut da = sa.clone();
        da.promote(160);
        let mut db = sb.clone();
        db.promote(160);
        // Promotion preserves contents, length and iteration order.
        prop_assert_eq!(&sa, &da);
        prop_assert_eq!(sa.len(), da.len());
        prop_assert!(sa.iter().eq(da.iter()));
        let union = sa.union(&sb).to_vec();
        let inter = sa.intersect(&sb).to_vec();
        let diff = sa.difference(&sb).to_vec();
        for (x, y) in [(&sa, &sb), (&sa, &db), (&da, &sb), (&da, &db)] {
            prop_assert_eq!(x.union(y).to_vec(), union.clone());
            prop_assert_eq!(x.intersect(y).to_vec(), inter.clone());
            prop_assert_eq!(x.difference(y).to_vec(), diff.clone());
            // In-place forms agree with the pure forms, and their changed
            // flags tell the truth.
            let mut u = x.clone();
            prop_assert_eq!(u.union_in_place(y), union != x.to_vec());
            prop_assert_eq!(u.to_vec(), union.clone());
            let mut d = x.clone();
            prop_assert_eq!(d.difference_in_place(y), diff != x.to_vec());
            prop_assert_eq!(d.to_vec(), diff.clone());
        }
    }

    /// `normalize` never changes contents, for any mode at any crossover —
    /// the promotion/demotion boundary only moves the representation.
    #[test]
    fn rowset_normalize_preserves_contents(
        ids in arb_ids(200, 100),
        crossover in prop::sample::select(vec![0.0, 1.0 / 64.0, 1.0 / 32.0, 1.0 / 16.0, 0.5, 1.0]),
    ) {
        let base = RowSet::from_unsorted(ids);
        for mode in [ReprMode::Adaptive, ReprMode::ForceSparse, ReprMode::ForceDense] {
            let policy = RowSetPolicy { mode, crossover };
            let mut r = base.clone();
            r.normalize(200, &policy);
            prop_assert_eq!(&r, &base, "mode {:?} crossover {}", mode, crossover);
            prop_assert_eq!(r.len(), base.len());
            if mode == ReprMode::ForceSparse {
                prop_assert!(!r.is_dense());
            }
            if mode == ReprMode::ForceDense && !base.is_empty() {
                prop_assert!(r.is_dense());
            }
        }
    }
}

// ---------- closure invariants ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem 1 as a property: RTC expansion == full TC == fixpoint.
    #[test]
    fn rtc_expansion_matches_all_closures(pairs in arb_pairs(24, 70)) {
        let base: PairSet = pairs.into_iter().collect();
        let rtc = Rtc::from_pairs(&base).expand();
        let full = FullTc::from_pairs(&base).expand();
        let fix = plus_closure(&base);
        prop_assert_eq!(&rtc, &full);
        prop_assert_eq!(&rtc, &fix);
        // TC is idempotent and contains the base.
        prop_assert_eq!(plus_closure(&fix), fix.clone());
        prop_assert!(base.difference(&fix).is_empty());
    }

    /// The RTC never stores more pairs or vertices than the full closure.
    #[test]
    fn rtc_is_never_bigger(pairs in arb_pairs(24, 70)) {
        let base: PairSet = pairs.into_iter().collect();
        let rtc = Rtc::from_pairs(&base);
        let full = FullTc::from_pairs(&base);
        prop_assert!(rtc.closure_pair_count() <= full.pair_count());
        prop_assert!(rtc.scc_count() <= full.vertex_count());
    }
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

/// Representation-ablation invariance: forced-sparse, forced-dense and
/// adaptive engines equal the reference under every strategy at 1 and 2
/// threads, held views included.
#[test]
fn engine_invariant_under_representation() {
    let reprs = [
        RowSetPolicy::sparse(),
        RowSetPolicy::dense(),
        RowSetPolicy::adaptive(),
    ];
    let axes = Axes::default().strategy(&EvalStrategy::ALL);
    let axes = axes.threads(&[1, 2]).repr(&reprs);
    for seed in 0..6 {
        assert_equivalent(&scenario(0x7E9 + seed, Shape::Uniform), &axes);
    }
}
