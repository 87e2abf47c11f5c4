//! Differential test of the two batch-unit evaluators against the product
//! evaluator on the whole query, and of their elimination counters against
//! a pair-at-a-time reference that walks Algorithm 2 lines 4–12 literally.
//!
//! Graphs are the harness's uniform, giant-SCC and wide shapes
//! (`rpq_testkit::Shape`; giant-SCC is one giant `a`-SCC with singleton
//! feeders, as in the benchmark's RMAT graphs, and wide graphs put sparse
//! closure and Post rows next to dense ones); the batch unit is
//! `Pre·a^(+|*)·Post` with
//! `Pre ∈ {ε, b, b·c}` (its `b` starts include vertices outside `V_a`),
//! `|Post| ∈ {0, 1, 2}` and both shared structures.

use rpq_testkit::{scenario, Shape};
use rtc_rpq::core::{eval_batch_unit_full, eval_batch_unit_rtc, EliminationStats, PreRelation};
use rtc_rpq::eval::ProductEvaluator;
use rtc_rpq::graph::{SccId, VertexId};
use rtc_rpq::reduction::{FullTc, Rtc};
use rtc_rpq::regex::{ClosureKind, Regex};
use std::collections::HashSet;

/// Algorithm 2 lines 4–12 pair by pair: `ResEq7`/`ResEq8` as hash sets,
/// Eq. (9) one member at a time, the `R*` seed skipped by membership.
fn reference_rtc_stats(pre: &PreRelation, rtc: &Rtc, kind: ClosureKind) -> EliminationStats {
    let mut stats = EliminationStats::default();
    pre.for_each_group(|_, ends| {
        let (mut res7, mut res8) = (HashSet::new(), HashSet::new());
        for vj in ends.iter() {
            let Some(sj) = rtc.scc_of_original(vj) else {
                stats.useless1_skipped += 1;
                continue;
            };
            if !res7.insert(sj) {
                stats.redundant1_skipped += 1;
                continue;
            }
            for sk in rtc.successors(sj).iter() {
                if !res8.insert(sk) {
                    stats.redundant2_skipped += 1;
                    continue;
                }
                for vk in rtc.members_original(SccId(sk)) {
                    if kind == ClosureKind::Plus || !ends.contains(vk) {
                        stats.useless2_unchecked_inserts += 1;
                    }
                }
            }
        }
    });
    stats
}

/// The FullSharing join pair by pair: a hash set of `(v_i, v_k)` per `v_i`,
/// seeded for `R*`, one duplicate hit per repeated successor insert.
fn reference_full_stats(pre: &PreRelation, full: &FullTc, kind: ClosureKind) -> EliminationStats {
    let mut stats = EliminationStats::default();
    pre.for_each_group(|_, ends| {
        let mut res9: HashSet<VertexId> = HashSet::new();
        if kind == ClosureKind::Star {
            res9.extend(ends.iter());
        }
        for vj in ends.iter() {
            for vk in full.successors_original(vj) {
                if !res9.insert(vk) {
                    stats.full_duplicate_hits += 1;
                }
            }
        }
    });
    stats
}

#[test]
fn batch_units_match_the_product_evaluator_and_the_reference_counters() {
    for case in 0..60 {
        let shape = match case {
            0..=39 => [Shape::GiantScc, Shape::Uniform][case as usize % 2],
            _ => Shape::Wide,
        };
        let g = scenario(0xB47C + case, shape).graph();
        let r_g = ProductEvaluator::new(&g, &Regex::parse("a").unwrap()).evaluate();
        let rtc = Rtc::from_pairs(&r_g);
        let full = FullTc::from_pairs(&r_g);
        for pre_src in ["", "b", "b.c"] {
            let pre = if pre_src.is_empty() {
                PreRelation::Identity(g.vertex_count())
            } else {
                let p = ProductEvaluator::new(&g, &Regex::parse(pre_src).unwrap());
                PreRelation::Pairs(p.evaluate())
            };
            for post in [&[][..], &["c"], &["c", "b"]] {
                let post: Vec<String> = post.iter().map(|l| l.to_string()).collect();
                for (kind, op) in [(ClosureKind::Plus, "+"), (ClosureKind::Star, "*")] {
                    let parts: Vec<String> = [pre_src.to_string(), format!("(a){op}")]
                        .into_iter()
                        .chain(post.iter().cloned())
                        .filter(|p| !p.is_empty())
                        .collect();
                    let q = parts.join(".");
                    let expect = ProductEvaluator::new(&g, &Regex::parse(&q).unwrap()).evaluate();
                    let ctx = format!("case {case} {q}");

                    let mut stats = EliminationStats::default();
                    let out = eval_batch_unit_rtc(&g, &pre, &rtc, kind, &post, &mut stats);
                    assert_eq!(out.result, expect, "RTC: {ctx}");
                    assert_eq!(stats, reference_rtc_stats(&pre, &rtc, kind), "RTC: {ctx}");

                    let mut stats = EliminationStats::default();
                    let out = eval_batch_unit_full(&g, &pre, &full, kind, &post, &mut stats);
                    assert_eq!(out.result, expect, "Full: {ctx}");
                    assert_eq!(
                        stats,
                        reference_full_stats(&pre, &full, kind),
                        "Full: {ctx}"
                    );
                }
            }
        }
    }
}
