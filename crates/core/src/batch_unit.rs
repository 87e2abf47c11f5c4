//! Batch-unit evaluation: Algorithm 2 and the FullSharing-style join.
//!
//! A batch unit is `Pre·R⁺·Post` or `Pre·R*·Post` (Post closure-free). Its
//! result is the join pipeline of Theorem 2 / Eq. (6)–(10):
//!
//! ```text
//! Pre_G ⋈ SCC ⋈ TC(Ḡ_R) ⋈ SCC ⋈ Post_G
//! ```
//!
//! [`eval_batch_unit_rtc`] implements the optimized Algorithm 2. Its first
//! pass (lines 4–12, timed as `pre_join`) applies the four eliminations:
//!
//! * **useless-1** — the closure is only expanded from `Pre_G` end vertices
//!   (and those outside `V_R` fail the SCC join immediately);
//! * **redundant-1** — Eq. (7)'s intermediate `(v_i, s_j)` pairs are
//!   deduplicated, so several `Pre_G` tuples landing in one SCC expand once;
//! * **redundant-2** — Eq. (8)'s `(v_i, s_k)` pairs are deduplicated, so
//!   SCCs reachable along several branches expand once;
//! * **useless-2** — Eq. (9)'s member expansion needs *no duplicate
//!   checks* (SCC member sets are disjoint): it is counted, not built.
//!
//! The per-`v_i` dedup of (7)/(8) uses epoch-stamped scratch arrays over
//! SCC ids instead of hash sets of pairs — semantically identical to
//! `ResEq7`/`ResEq8` membership, with O(1) clears between groups.
//!
//! Its second pass (lines 13–16, timed as `post`) is redundant-1 in the
//! Post dimension: the Post image is built once per SCC (`PostRow[s_k] =
//! ⋃ Post(v), v ∈ s_k`) and once per entry SCC (`EntryRow[s_j] =
//! ⋃ PostRow[s_k], s_k ∈ TC(s_j)`), and every `v_i` entering one SCC shares
//! that row by `Arc` in a result grouped by `v_i` — no flat pair vector, no
//! global sort. With `Post = ε` the rows are Theorem 1's expansion.
//!
//! [`eval_batch_unit_full`] is the baseline join over the materialized
//! `R⁺_G`: every successor insert pays a duplicate check — the redundant
//! work the paper attributes to FullSharing — before the same Post step.

use crate::breakdown::EliminationStats;
use crate::pre_relation::PreRelation;
use rpq_graph::{EpochVisited, LabelId, LabeledMultigraph, PairSet, RowSet, SccId, VertexId};
use rpq_reduction::{FullTc, Rtc};
use rpq_regex::ClosureKind;
use rustc_hash::FxHashMap;
use std::sync::Arc;
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
    // Per `v_i`: where its entry SCCs and its uncovered `R*` seeds end.
    let mut plan: Vec<(VertexId, usize, usize)> = Vec::new();
    let (mut entries, mut seeds) = (Vec::<SccId>::new(), Vec::<u32>::new());
    // A single-entry `v_i`'s (9) insert count depends on its `s_j` alone.
    let mut reach_sizes: FxHashMap<SccId, u64> = FxHashMap::default();
    let mut stamp7 = EpochVisited::new(rtc.scc_count());
    let mut stamp8 = EpochVisited::new(rtc.scc_count());

    pre.for_each_group(|vi, ends| {
        stamp7.clear();
        let first = entries.len();
        for vj in ends.iter() {
            // (7): find the SCC containing vj. Tuples whose end vertex is
            // outside V_R never reach the closure — useless-1 elimination.
            let Some(sj) = rtc.scc_of_original(vj) else {
                stats.useless1_skipped += 1;
                continue;
            };
            // Duplicate check for (7) — redundant-1 elimination.
            if stamp7.insert(sj.raw()) {
                entries.push(sj);
            } else {
                stats.redundant1_skipped += 1;
            }
        }
        let mine = &entries[first..];
        if let [sj] = mine {
            // One entry: (8) meets no duplicate, (9) covers all of TC(s_j).
            stats.useless2_unchecked_inserts += *reach_sizes.entry(*sj).or_insert_with(|| {
                let sizes = rtc.successors(*sj).iter().map(|sk| rtc.scc_size(SccId(sk)));
                sizes.sum::<usize>() as u64
            });
        } else {
            stamp8.clear();
            for &sj in mine {
                // (8): SCCs reachable from sj in TC(Ḡ_R).
                for sk in rtc.successors(sj).iter() {
                    // Duplicate check for (8) — redundant-2 elimination; (9)
                    // inserts s_k's members unchecked — useless-2.
                    if stamp8.insert(sk) {
                        stats.useless2_unchecked_inserts += rtc.scc_size(SccId(sk)) as u64;
                    } else {
                        stats.redundant2_skipped += 1;
                    }
                }
            }
        }
        if kind == ClosureKind::Star {
            // Initialization for Pre·R*·Post (Algorithm 2 lines 2–3): a seed
            // end in a reached SCC is one (9) insert fewer; the rest seed.
            for vj in ends.iter() {
                let reached = rtc.scc_of_original(vj).is_some_and(|s| match mine {
                    [sj] => rtc.successors(*sj).contains(s.raw()),
                    _ => stamp8.contains(s.raw()),
                });
                if reached {
                    stats.useless2_unchecked_inserts -= 1;
                } else {
                    seeds.push(vj.raw());
                }
            }
        }
        plan.push((vi, entries.len(), seeds.len()));
    });
    let pre_join = t0.elapsed();

    let t1 = Instant::now();
    let n = graph.vertex_count() as u32;
    let result = post_image(graph, post).map_or_else(PairSet::new, |image| {
        let mut post_rows: FxHashMap<u32, RowSet> = FxHashMap::default();
        let mut entry_rows: FxHashMap<SccId, Arc<RowSet>> = FxHashMap::default();
        let mut groups = Vec::with_capacity(plan.len());
        let (mut e0, mut s0) = (0, 0);
        for (vi, e1, s1) in plan {
            let (mine, seeded) = (&entries[e0..e1], &seeds[s0..s1]);
            (e0, s0) = (e1, s1);
            for &sj in mine {
                entry_rows.entry(sj).or_insert_with(|| {
                    let reach = rtc.successors(sj);
                    for sk in reach.iter() {
                        let members = rtc.members_original(SccId(sk)).map(VertexId::raw);
                        post_rows
                            .entry(sk)
                            .or_insert_with(|| image(members.collect()));
                    }
                    let rows = reach.iter().filter_map(|sk| post_rows.get(&sk));
                    Arc::new(RowSet::union_all(rows, n))
                });
            }
            let row = match (mine, seeded) {
                ([sj], []) => Arc::clone(&entry_rows[sj]),
                _ => {
                    let seed = image(seeded.iter().copied().collect());
                    let rows = mine.iter().map(|sj| &*entry_rows[sj]).chain([&seed]);
                    Arc::new(RowSet::union_all(rows, n))
                }
            };
            groups.push((vi, row));
        }
        PairSet::from_grouped_rows(groups)
    });

    BatchUnitResult {
        result,
        pre_join,
        post: t1.elapsed(),
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
    // Per `v_i`, its `(Pre·R^(+|*))_G` end vertices as one row.
    let mut reached: Vec<(VertexId, RowSet)> = Vec::new();
    let mut seen = EpochVisited::new(graph.vertex_count());
    pre.for_each_group(|vi, ends| {
        seen.clear();
        let mut row: Vec<u32> = Vec::new();
        if kind == ClosureKind::Star {
            row.extend(ends.iter().map(VertexId::raw).filter(|&vj| seen.insert(vj)));
        }
        for vj in ends.iter() {
            for vk in full.successors_original(vj) {
                // Duplicate check on every insert — the redundant work.
                if seen.insert(vk.raw()) {
                    row.push(vk.raw());
                } else {
                    stats.full_duplicate_hits += 1;
                }
            }
        }
        reached.push((vi, RowSet::from_unsorted(row)));
    });
    let pre_join = t0.elapsed();

    let t1 = Instant::now();
    let result = post_image(graph, post).map_or_else(PairSet::new, |image| {
        let rows = reached
            .into_iter()
            .map(|(v, row)| (v, Arc::new(image(row))));
        PairSet::from_grouped_rows(rows.collect())
    });

    BatchUnitResult {
        result,
        pre_join,
        post: t1.elapsed(),
    }
}

/// Lines 13–16 for both evaluators: maps a set of `(Pre·R^(+|*))_G` end
/// vertices to `⋃ Post(v)` over the set, one frontier step per Post label
/// (a vertex reached along several paths expands once), as a normalized
/// row. `None` when a Post label is absent from the alphabet: it matches no
/// edge, so the batch unit is empty.
fn post_image<'a>(
    graph: &'a LabeledMultigraph,
    post: &[String],
) -> Option<impl Fn(RowSet) -> RowSet + 'a> {
    let labels: Option<Vec<LabelId>> = post.iter().map(|l| graph.labels().get(l)).collect();
    let labels = labels?;
    Some(move |mut ends: RowSet| {
        for &label in &labels {
            let out = |v| graph.out_with_label(VertexId(v), label);
            ends = ends.iter().flat_map(out).map(|&(_, d)| d.raw()).collect();
        }
        ends.normalize(graph.vertex_count() as u32);
        ends
    })
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
    fn giant_scc_result_shares_one_row() {
        // A 300-vertex R-cycle entered by 300 Pre starts, one end each:
        // 90 000 result pairs, every start holding the cycle's one row.
        let mut gb = rpq_graph::GraphBuilder::new();
        gb.ensure_vertices(600);
        let g = gb.build();
        let r_g: PairSet = (0..300u32).map(|v| (v, (v + 1) % 300)).collect();
        let rtc = Rtc::from_pairs(&r_g);
        let pre: PairSet = (300..600u32).map(|v| (v, v % 300)).collect();
        let mut stats = EliminationStats::default();
        let out = eval_batch_unit_rtc(
            &g,
            &PreRelation::from(pre),
            &rtc,
            ClosureKind::Plus,
            &[],
            &mut stats,
        );
        assert_eq!(out.result.len(), 300 * 300);
        assert_eq!(stats.useless2_unchecked_inserts, 300 * 300);
        assert!(out.result.is_grouped());
        // The shared row is charged once, not once per start.
        let flat = PairSet::from_pairs(out.result.iter().collect());
        assert!(
            out.result.heap_bytes() * 100 < flat.heap_bytes(),
            "{} vs flat {}",
            out.result.heap_bytes(),
            flat.heap_bytes()
        );
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
