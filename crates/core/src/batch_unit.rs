//! Batch-unit evaluation: Algorithm 2 and the FullSharing-style join.
//!
//! A batch unit is `Pre·R⁺·Post` or `Pre·R*·Post` (Post closure-free). Its
//! result is the join pipeline of Theorem 2 / Eq. (6)–(10):
//!
//! ```text
//! Pre_G ⋈ SCC ⋈ TC(Ḡ_R) ⋈ SCC ⋈ Post_G
//! ```
//!
//! [`eval_batch_unit_rtc`] implements the optimized Algorithm 2:
//!
//! * **useless-1** — the closure is only expanded from `Pre_G` end vertices
//!   (and those outside `V_R` fail the SCC join immediately);
//! * **redundant-1** — Eq. (7)'s intermediate `(v_i, s_j)` pairs are
//!   deduplicated, so several `Pre_G` tuples landing in one SCC expand once;
//! * **redundant-2** — Eq. (8)'s `(v_i, s_k)` pairs are deduplicated, so
//!   SCCs reachable along several branches expand once;
//! * **useless-2** — Eq. (9)'s member expansion inserts *without duplicate
//!   checks*: SCC member sets are disjoint, so no duplicates can arise.
//!
//! The per-`v_i` dedup of (7)/(8) uses epoch-stamped scratch arrays over
//! SCC ids instead of hash sets of pairs — semantically identical to
//! `ResEq7`/`ResEq8` membership, with O(1) clears between groups.
//!
//! [`eval_batch_unit_full`] is the baseline join over the materialized
//! `R⁺_G`: every successor insert pays a duplicate check, which is exactly
//! the redundant work the paper attributes to FullSharing.

use crate::breakdown::EliminationStats;
use crate::pre_relation::PreRelation;
use rpq_eval::label_seq::eval_label_sequence_from;
use rpq_graph::{EpochVisited, LabelId, LabeledMultigraph, PairSet, SccId, VertexId};
use rpq_reduction::{FullTc, Rtc};
use rpq_regex::ClosureKind;
use rustc_hash::FxHashMap;
use std::time::{Duration, Instant};

/// Result of a batch-unit evaluation with its stage timings.
#[derive(Debug)]
pub struct BatchUnitResult {
    /// `(Pre·R^(+|*)·Post)_G`.
    pub result: PairSet,
    /// Time spent in the `Pre_G ⋈ R⁺_G` part (Algorithm 2 lines 4–12).
    pub pre_join: Duration,
    /// Time spent in the Post stage (lines 13–16).
    pub post: Duration,
}

/// Algorithm 2: optimized batch-unit evaluation over the RTC.
pub fn eval_batch_unit_rtc(
    graph: &LabeledMultigraph,
    pre: &PreRelation,
    rtc: &Rtc,
    kind: ClosureKind,
    post: &[String],
    stats: &mut EliminationStats,
) -> BatchUnitResult {
    let t0 = Instant::now();
    // ResEq9 is a plain vector: the expansion below never produces
    // duplicates (useless-2), and the star seed is guarded explicitly.
    let mut res9: Vec<(VertexId, VertexId)> = Vec::new();
    let mut stamp7 = EpochVisited::new(rtc.scc_count());
    let mut stamp8 = EpochVisited::new(rtc.scc_count());

    pre.for_each_group(|vi, ends| {
        stamp7.clear();
        stamp8.clear();
        if kind == ClosureKind::Star {
            // Initialization for Pre·R*·Post (Algorithm 2 lines 2–3).
            res9.extend(ends.iter().map(|vj| (vi, vj)));
        }
        for vj in ends.iter() {
            // (7): find the SCC containing vj. Tuples whose end vertex is
            // outside V_R never reach the closure — useless-1 elimination.
            let Some(sj) = rtc.scc_of_original(vj) else {
                stats.useless1_skipped += 1;
                continue;
            };
            // Duplicate check for (7) — redundant-1 elimination.
            if !stamp7.insert(sj.raw()) {
                stats.redundant1_skipped += 1;
                continue;
            }
            // (8): SCCs reachable from sj in TC(Ḡ_R).
            for sk in rtc.successors(sj).iter() {
                // Duplicate check for (8) — redundant-2 elimination.
                if !stamp8.insert(sk) {
                    stats.redundant2_skipped += 1;
                    continue;
                }
                // (9): expand members of sk with NO duplicate checks —
                // useless-2 elimination (SCC member sets are disjoint).
                for vk in rtc.members_original(SccId(sk)) {
                    if kind == ClosureKind::Star && ends.contains(vk) {
                        // Already present from the star seed.
                        continue;
                    }
                    res9.push((vi, vk));
                    stats.useless2_unchecked_inserts += 1;
                }
            }
        }
    });
    let pre_join = t0.elapsed();

    let t1 = Instant::now();
    let result = apply_post(graph, res9, post);
    let post_time = t1.elapsed();

    BatchUnitResult {
        result,
        pre_join,
        post: post_time,
    }
}

/// FullSharing-style batch-unit evaluation over the materialized `R⁺_G`.
///
/// Joins `Pre_G` directly with the per-source closure rows; every insert
/// into the intermediate result pays a duplicate check (the redundant-1/-2
/// operations Algorithm 2 eliminates), counted in
/// [`EliminationStats::full_duplicate_hits`].
pub fn eval_batch_unit_full(
    graph: &LabeledMultigraph,
    pre: &PreRelation,
    full: &FullTc,
    kind: ClosureKind,
    post: &[String],
    stats: &mut EliminationStats,
) -> BatchUnitResult {
    let t0 = Instant::now();
    let mut res9: rustc_hash::FxHashSet<(VertexId, VertexId)> = rustc_hash::FxHashSet::default();
    pre.for_each_group(|vi, ends| {
        if kind == ClosureKind::Star {
            res9.extend(ends.iter().map(|vj| (vi, vj)));
        }
        for vj in ends.iter() {
            for vk in full.successors_original(vj) {
                // Duplicate check on every insert — the redundant work.
                if !res9.insert((vi, vk)) {
                    stats.full_duplicate_hits += 1;
                }
            }
        }
    });
    let res9: Vec<(VertexId, VertexId)> = res9.into_iter().collect();
    let pre_join = t0.elapsed();

    let t1 = Instant::now();
    let result = apply_post(graph, res9, post);
    let post_time = t1.elapsed();

    BatchUnitResult {
        result,
        pre_join,
        post: post_time,
    }
}

/// Lines 13–16: extend `(Pre·R^(+|*))_G` with the closure-free `Post`.
///
/// `EvalRestrictedRPQ(Post, v_k)` results are memoized per distinct `v_k`;
/// all strategies use this same machinery, preserving the paper's
/// "Remainder is largely identical" comparison.
fn apply_post(
    graph: &LabeledMultigraph,
    res9: Vec<(VertexId, VertexId)>,
    post: &[String],
) -> PairSet {
    if post.is_empty() {
        return PairSet::from_pairs(res9);
    }
    let mut label_ids: Vec<LabelId> = Vec::with_capacity(post.len());
    for name in post {
        match graph.labels().get(name) {
            Some(id) => label_ids.push(id),
            // A label absent from the alphabet matches no edge.
            None => return PairSet::new(),
        }
    }
    let mut memo: FxHashMap<VertexId, Vec<VertexId>> = FxHashMap::default();
    let mut out: Vec<(VertexId, VertexId)> = Vec::new();
    for (vi, vk) in res9 {
        let ends = memo
            .entry(vk)
            .or_insert_with(|| eval_label_sequence_from(graph, &label_ids, vk));
        out.extend(ends.iter().map(|&vl| (vi, vl)));
    }
    PairSet::from_pairs(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_eval::ProductEvaluator;
    use rpq_graph::fixtures::paper_graph;
    use rpq_regex::Regex;

    /// Builds (Pre_G, Rtc, FullTc) for the paper's running batch unit
    /// d·(b·c)+·c: Pre = d, R = b·c, Post = [c].
    fn setup() -> (LabeledMultigraph, PairSet, Rtc, FullTc) {
        let g = paper_graph();
        let pre_g = ProductEvaluator::new(&g, &Regex::parse("d").unwrap()).evaluate();
        let r_g = ProductEvaluator::new(&g, &Regex::parse("b.c").unwrap()).evaluate();
        let rtc = Rtc::from_pairs(&r_g);
        let full = FullTc::from_pairs(&r_g);
        (g, pre_g, rtc, full)
    }

    fn pairs(ps: &PairSet) -> Vec<(u32, u32)> {
        ps.iter().map(|(a, b)| (a.raw(), b.raw())).collect()
    }

    #[test]
    fn example1_via_rtc_batch_unit() {
        let (g, pre_g, rtc, _) = setup();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(pre_g),
            &rtc,
            ClosureKind::Plus,
            &["c".into()],
            &mut stats,
        );
        assert_eq!(pairs(&out.result), vec![(7, 3), (7, 5)]);
    }

    #[test]
    fn example1_via_full_batch_unit() {
        let (g, pre_g, _, full) = setup();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_full(
            &g,
            &PreRelation::from(pre_g),
            &full,
            ClosureKind::Plus,
            &["c".into()],
            &mut stats,
        );
        assert_eq!(pairs(&out.result), vec![(7, 3), (7, 5)]);
    }

    #[test]
    fn star_batch_unit_includes_pre_pairs() {
        // d·(b·c)*·c = d·(b·c)+·c ∪ d·c; from v7: d reaches v4, c from v4
        // goes nowhere, so the star adds nothing here...
        let (g, pre_g, rtc, full) = setup();
        let mut stats = EliminationStats::default();
        let star_rtc = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(pre_g.clone()),
            &rtc,
            ClosureKind::Star,
            &["c".into()],
            &mut stats,
        );
        let star_full = eval_batch_unit_full(
            &g,
            &PreRelation::from(pre_g),
            &full,
            ClosureKind::Star,
            &["c".into()],
            &mut stats,
        );
        assert_eq!(star_rtc.result, star_full.result);
        // ...and must match the product evaluator on the whole query.
        let expect = ProductEvaluator::new(&g, &Regex::parse("d.(b.c)*.c").unwrap()).evaluate();
        assert_eq!(star_rtc.result, expect);
    }

    #[test]
    fn star_with_empty_post_keeps_pre() {
        let (g, pre_g, rtc, _) = setup();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(pre_g.clone()),
            &rtc,
            ClosureKind::Star,
            &[],
            &mut stats,
        );
        // d·(b·c)* ⊇ d_G.
        for (a, b) in pre_g.iter() {
            assert!(out.result.contains(a, b));
        }
        let expect = ProductEvaluator::new(&g, &Regex::parse("d.(b.c)*").unwrap()).evaluate();
        assert_eq!(out.result, expect);
    }

    #[test]
    fn identity_pre_expands_whole_closure() {
        // Pre = ε: the batch unit is exactly R⁺, so the result must equal
        // Theorem 1's expansion.
        let (g, _, rtc, _) = setup();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::Identity(g.vertex_count()),
            &rtc,
            ClosureKind::Plus,
            &[],
            &mut stats,
        );
        assert_eq!(out.result, rtc.expand());
        // Vertices outside V_R were skipped as useless-1.
        assert_eq!(stats.useless1_skipped, 5); // v0, v1, v7, v8, v9

        // Pre·R*·Post with Pre = Post = ε adds exactly the identity.
        let star = eval_batch_unit_rtc(
            &g,
            &PreRelation::Identity(g.vertex_count()),
            &rtc,
            ClosureKind::Star,
            &[],
            &mut stats,
        );
        let identity = PairSet::identity(g.vertex_count());
        assert_eq!(star.result, rtc.expand().union(&identity));
    }

    #[test]
    fn useless1_counted_for_off_path_pre_ends() {
        let (g, _, rtc, _) = setup();
        // Pre_G with end vertices off every b·c path.
        let pre: PairSet = [(7u32, 8u32), (7, 9)].into_iter().collect();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(pre),
            &rtc,
            ClosureKind::Plus,
            &[],
            &mut stats,
        );
        assert!(out.result.is_empty());
        assert_eq!(stats.useless1_skipped, 2);
        assert_eq!(stats.useless2_unchecked_inserts, 0);
    }

    #[test]
    fn redundant1_deduplicates_same_scc_ends() {
        let (g, _, rtc, _) = setup();
        // Two Pre tuples from the same start into the same SCC {v2, v4}.
        let pre: PairSet = [(0u32, 2u32), (0, 4)].into_iter().collect();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(pre),
            &rtc,
            ClosureKind::Plus,
            &[],
            &mut stats,
        );
        // Expansion ran once; the second tuple was redundant-1.
        assert_eq!(stats.redundant1_skipped, 1);
        // (0, x) for x ∈ members(TC successors of s{2,4}) = {2,4,6}.
        assert_eq!(pairs(&out.result), vec![(0, 2), (0, 4), (0, 6)]);
    }

    #[test]
    fn redundant2_deduplicates_shared_successor_sccs() {
        // Build a shape where two different SCCs reach a common third SCC:
        // R_G = {(0,1),(1,0)} ∪ {(2,3),(3,2)} ∪ {(1,4),(3,4)}.
        let mut gb = rpq_graph::GraphBuilder::new();
        gb.add_edge(9, "p", 0).add_edge(9, "p", 2); // Pre edges
        gb.ensure_vertices(10);
        let g = gb.build();
        let r_g: PairSet = [(0u32, 1u32), (1, 0), (2, 3), (3, 2), (1, 4), (3, 4)]
            .into_iter()
            .collect();
        let rtc = Rtc::from_pairs(&r_g);
        let pre: PairSet = [(9u32, 0u32), (9, 2)].into_iter().collect();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(pre),
            &rtc,
            ClosureKind::Plus,
            &[],
            &mut stats,
        );
        // {4} is reachable from both cycles but expanded once for v9.
        assert_eq!(stats.redundant2_skipped, 1);
        assert_eq!(
            pairs(&out.result),
            vec![(9, 0), (9, 1), (9, 2), (9, 3), (9, 4)]
        );
    }

    #[test]
    fn full_sharing_incurs_duplicate_hits_where_rtc_does_not() {
        let (_, _, _, _) = setup();
        // Same redundant-2 shape as above, measured on the Full side.
        let mut gb = rpq_graph::GraphBuilder::new();
        gb.add_edge(9, "p", 0).add_edge(9, "p", 2);
        gb.ensure_vertices(10);
        let g = gb.build();
        let r_g: PairSet = [(0u32, 1u32), (1, 0), (2, 3), (3, 2), (1, 4), (3, 4)]
            .into_iter()
            .collect();
        let full = FullTc::from_pairs(&r_g);
        let pre: PairSet = [(9u32, 0u32), (9, 2)].into_iter().collect();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_full(
            &g,
            &PreRelation::from(pre),
            &full,
            ClosureKind::Plus,
            &[],
            &mut stats,
        );
        assert_eq!(
            pairs(&out.result),
            vec![(9, 0), (9, 1), (9, 2), (9, 3), (9, 4)]
        );
        // (9,4) is produced by both branches: one duplicate hit.
        assert_eq!(stats.full_duplicate_hits, 1);
    }

    #[test]
    fn res9_is_duplicate_free_even_for_star() {
        // Star seed overlapping with expansion: Pre_G = (2,2) (self pair on
        // a closure vertex) — (2,2) is both seeded and in the expansion.
        let (g, _, rtc, _) = setup();
        let pre: PairSet = [(2u32, 2u32)].into_iter().collect();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(pre),
            &rtc,
            ClosureKind::Star,
            &[],
            &mut stats,
        );
        // (2,2) appears once; expansion adds (2,4) and (2,6).
        assert_eq!(pairs(&out.result), vec![(2, 2), (2, 4), (2, 6)]);
        // Inserts skipped the seeded pair: 2 unchecked inserts, not 3.
        assert_eq!(stats.useless2_unchecked_inserts, 2);
    }

    #[test]
    fn unknown_post_label_empties_result() {
        let (g, pre_g, rtc, _) = setup();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(pre_g),
            &rtc,
            ClosureKind::Plus,
            &["nope".into()],
            &mut stats,
        );
        assert!(out.result.is_empty());
    }

    #[test]
    fn multi_label_post_sequence() {
        let (g, pre_g, rtc, _) = setup();
        let mut stats = EliminationStats::default();
        // d·(b·c)+·c·c — wait, c·c from v2: c→v5, c from v5→{v4,v6}.
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(pre_g),
            &rtc,
            ClosureKind::Plus,
            &["c".into(), "c".into()],
            &mut stats,
        );
        let expect = ProductEvaluator::new(&g, &Regex::parse("d.(b.c)+.c.c").unwrap()).evaluate();
        assert_eq!(out.result, expect);
    }

    #[test]
    fn empty_pre_relation_gives_empty_result() {
        let (g, _, rtc, _) = setup();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(PairSet::new()),
            &rtc,
            ClosureKind::Plus,
            &[],
            &mut stats,
        );
        assert!(out.result.is_empty());
    }
}
