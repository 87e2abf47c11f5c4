//! Randomized differential testing: the three engine strategies must agree
//! with the independent algebraic reference on arbitrary graphs ×
//! arbitrary queries. Each test replays harness scenarios
//! (`rpq_testkit::run`) with the strategy axis fixed.

use rpq_testkit::{assert_equivalent, scenario, Axes, Scenario, Shape};
use rtc_rpq::core::Strategy;

/// Uniform random scenarios, read live, under every strategy.
#[test]
fn strategies_match_oracle_on_random_cases() {
    let axes = Axes::default().strategy(&Strategy::ALL);
    for seed in 0..40 {
        assert_equivalent(&scenario(0xD1F + seed, Shape::Uniform), &axes);
    }
}

/// Query sets on one engine around one giant SCC: the sharing strategies
/// reuse its closure across the set and across reads, and reuse must not
/// change results.
#[test]
fn shared_cache_does_not_change_results() {
    let axes = Axes::default().strategy(&[Strategy::FullSharing, Strategy::RtcSharing]);
    for seed in 0..8 {
        assert_equivalent(&scenario(77 + seed, Shape::GiantScc), &axes);
    }
}

/// Dense graphs with heavy cycles — the regime where SCC collapsing does
/// the most work and bugs in self-loop handling would show: generated
/// scenarios, and a fixed closure-heavy query list on their base graphs.
#[test]
fn strategies_match_on_cyclic_dense_graphs() {
    let queries = [
        "a+",
        "(a.b)+",
        "(a|b)+.c",
        "a*.b*",
        "(a.b.c)+",
        "c.(a|b)*.d",
    ];
    let axes = Axes::default().strategy(&Strategy::ALL);
    for seed in 0..16 {
        let dense = scenario(424242 + seed, Shape::DenseCyclic);
        let mut fixed = Scenario::fixed(&dense.edges, &queries);
        fixed.n = dense.n;
        assert_equivalent(&dense, &axes);
        assert_equivalent(&fixed, &axes);
    }
}

/// Edge cases: empty graphs, single vertices, self-loops — fixed queries
/// on each, and generated scenarios that grow them by deltas.
#[test]
fn degenerate_graphs() {
    let queries = ["a", "a+", "a*", "a.b", "a|b", "()", "a?"];
    let axes = Axes::default().strategy(&Strategy::ALL);
    for (n, edges) in [(0, &[][..]), (1, &[]), (1, &[(0, "a", 0)])] {
        let mut fixed = Scenario::fixed(edges, &queries);
        fixed.n = n;
        assert_equivalent(&fixed, &axes);
    }
    for seed in 0..16 {
        assert_equivalent(&scenario(seed, Shape::Degenerate), &axes);
    }
}
