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
//! Neither `ResEq7` nor `ResEq8` is a hash set of pairs. Both are a
//! [`Cover`], bitset words over SCC ids emptied between groups over only
//! the words they set. (7)'s takes each entry SCC id. (8)'s takes each
//! kept entry's whole closure row, a dense row 64 ids at a time.
//! Redundant-2 adds the popcount of a cone's overlap with the cover.
//! Useless-2 adds the popcount of the new bits, plus `|s_k| − 1` for each
//! new bit that is a multi-member SCC (a per-evaluation mask over SCC
//! ids): one insert per member. A single-entry `v_i` weighs its whole cone
//! the same way, memoized per entry. Since the covers empty over the words
//! they set, many starts on a large RTC never pay for its width.
//!
//! Cones nest (`t ∈ TC(s)` implies `TC(t) ⊆ TC(s)`), and every cached RTC
//! numbers its SCCs in reverse topological order, so an SCC's successors
//! have lower ids. Redundant-2 is therefore a cone cover: a `v_i`'s entry
//! SCCs are walked in descending id, and an entry already covered by an
//! earlier entry's cone is not walked — its whole `TC(s_j)` counts as
//! redundant-2 skips, the same total the pair-by-pair walk reaches, since
//! `Σ|TC(s_j)| − |⋃ TC(s_j)|` does not depend on order. The entries left
//! are the *kept* entries: those no other entry of the same `v_i` reaches.
//!
//! Its second pass (lines 13–16, timed as `post`) is redundant-1 in the
//! Post dimension: the Post image is built once per SCC (`PostRow[s_k] =
//! ⋃ Post(v), v ∈ s_k`) and once per kept entry SCC (`EntryRow[s_j] =
//! ⋃ PostRow[s_k], s_k ∈ TC(s_j)`), and every `v_i` with one kept entry and
//! no `R*` seed shares that row by `Arc` in a result grouped by `v_i` — no
//! flat pair vector, no global sort. Only a `v_i` with several kept entries
//! (or seeds) unions rows. With `Post = ε` the rows are Theorem 1's
//! expansion.
//!
//! Entry rows cover each cone once too: they are built in ascending id
//! order, so the entry rows below `s_j` are finished first. The entries
//! `t ≠ s_j` of `TC(s_j)` are read off as `TC(s_j) ∧ entries`, a word at a
//! time, and walked in descending id: each one not yet covered gives its
//! finished `EntryRow[t]` and ORs all of `TC(t)` into a cover. `PostRow[t]`
//! is then taken for each `t` of `TC(s_j) ∧ ¬covered`. That is the union
//! an id-by-id walk of the cone takes, so the rows, their layouts and
//! bytes are the same. Only entry SCCs get rows: memoizing every cone is
//! quadratic on a long chain.
//!
//! [`eval_batch_unit_full`] is the baseline join over the materialized
//! `R⁺_G`: every successor insert pays a duplicate check — the redundant
//! work the paper attributes to FullSharing — before the same Post step.

use crate::breakdown::EliminationStats;
use crate::pre_relation::PreRelation;
use rpq_graph::{Cover, LabelId, LabeledMultigraph, PairSet, RowSet, SccId, VertexId};
use rpq_reduction::{FullTc, Rtc};
use rpq_regex::ClosureKind;
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
    let sccs = rtc.scc_count();
    // Per `v_i`: where its kept entry SCCs and its uncovered `R*` seeds end.
    let mut plan: Vec<(VertexId, usize, usize)> = Vec::new();
    let (mut entries, mut seeds) = (Vec::<SccId>::new(), Vec::<u32>::new());
    // A single-entry `v_i`'s (9) insert count depends on its `s_j` alone.
    let mut reach_sizes: Vec<Option<u64>> = vec![None; sccs];
    let mut seen7 = Cover::new(sccs);
    let mut cover = Cover::new(sccs);
    // A new SCC is one (9) insert per member: its bit counts one, and a
    // multi-member SCC adds `|s_k| − 1` more.
    let mut multi = Cover::new(sccs);
    for s in (0..sccs as u32).filter(|&s| rtc.scc_size(SccId(s)) > 1) {
        multi.insert(s);
    }
    let extra_members = |cone: &RowSet, cover: &Cover| -> u64 {
        let new = multi.common_rev(cone).filter(|&s| !cover.contains(s));
        new.map(|s| rtc.scc_size(SccId(s)) as u64 - 1).sum()
    };

    pre.for_each_group(|vi, ends| {
        seen7.clear();
        cover.clear();
        let first = entries.len();
        for vj in ends.iter() {
            // (7): find the SCC containing vj. Tuples whose end vertex is
            // outside V_R never reach the closure — useless-1 elimination.
            let Some(sj) = rtc.scc_of_original(vj) else {
                stats.useless1_skipped += 1;
                continue;
            };
            // Duplicate check for (7) — redundant-1 elimination.
            if seen7.insert(sj.raw()) {
                entries.push(sj);
            } else {
                stats.redundant1_skipped += 1;
            }
        }
        let single = entries.len() - first == 1;
        if single {
            // One entry: (8) meets no duplicate, (9) covers all of TC(s_j),
            // weighed against the still empty cover.
            let cone = rtc.successors(entries[first]);
            stats.useless2_unchecked_inserts += *reach_sizes[entries[first].index()]
                .get_or_insert_with(|| cone.len() as u64 + extra_members(cone, &cover));
        } else {
            // Descending id walks every entry that reaches `s_j` before it.
            // A covered `s_j` lies in a walked cone, so all of TC(s_j) is
            // covered too: its walk would only skip, so it is counted whole
            // and `s_j` is dropped.
            entries[first..].sort_unstable_by(|a, b| b.cmp(a));
            let mut kept = first;
            for i in first..entries.len() {
                let sj = entries[i];
                let cone = rtc.successors(sj);
                if cover.contains(sj.raw()) {
                    stats.redundant2_skipped += cone.len() as u64;
                    continue;
                }
                // (8): SCCs reachable from sj in TC(Ḡ_R), OR-ed into the
                // cover. Its duplicate check — redundant-2 elimination — is
                // the overlap; (9) inserts each new s_k's members
                // unchecked — useless-2.
                let extra = extra_members(cone, &cover);
                let fresh = cover.add(cone);
                stats.redundant2_skipped += (cone.len() - fresh) as u64;
                stats.useless2_unchecked_inserts += fresh as u64 + extra;
                entries[kept] = sj;
                kept += 1;
            }
            entries.truncate(kept);
        }
        if kind == ClosureKind::Star {
            // Initialization for Pre·R*·Post (Algorithm 2 lines 2–3): a seed
            // end in a reached SCC is one (9) insert fewer; the rest seed.
            for vj in ends.iter() {
                let reached = rtc.scc_of_original(vj).is_some_and(|s| {
                    if single {
                        rtc.successors(entries[first]).contains(s.raw())
                    } else {
                        cover.contains(s.raw())
                    }
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
    let result = PostImage::new(graph, post).map_or_else(PairSet::new, |mut image| {
        let mut distinct = entries.clone();
        distinct.sort_unstable();
        distinct.dedup();
        // `entry_rows[slot[s]]` is entry SCC `s`'s row, pushed in ascending
        // id order.
        let mut slot = vec![0u32; sccs];
        let mut entry_set = Cover::new(sccs);
        for (i, s) in distinct.iter().enumerate() {
            slot[s.index()] = i as u32;
            entry_set.insert(s.raw());
        }
        let mut entry_rows: Vec<Arc<RowSet>> = Vec::with_capacity(distinct.len());
        let mut post_rows: Vec<Option<RowSet>> = vec![None; sccs];
        let mut covered = Cover::new(sccs);
        let (mut taken, mut reused) = (Vec::new(), Vec::new());
        for &s in &distinct {
            let cone = rtc.successors(s);
            covered.clear();
            reused.clear();
            // Successors have lower ids, so the entries in `s`'s cone other
            // than `s` have finished rows. Walked in descending id, each one
            // not yet covered gives its row and covers its own cone.
            for t in entry_set.common_rev(cone) {
                if t != s.raw() && !covered.contains(t) {
                    reused.push(slot[t as usize] as usize);
                    covered.add(rtc.successors(SccId(t)));
                }
            }
            taken.clear();
            taken.extend(covered.uncovered_rev(cone).map(|t| t as usize));
            for &t in &taken {
                post_rows[t].get_or_insert_with(|| {
                    image.row(rtc.members_original(SccId(t as u32)).map(VertexId::raw))
                });
            }
            let rows = taken.iter().filter_map(|&t| post_rows[t].as_ref());
            let rows = rows.chain(reused.iter().map(|&i| &*entry_rows[i]));
            entry_rows.push(Arc::new(RowSet::union_all(rows, n)));
        }
        let entry_row = |sj: &SccId| &entry_rows[slot[sj.index()] as usize];
        let mut groups = Vec::with_capacity(plan.len());
        let (mut e0, mut s0) = (0, 0);
        for (vi, e1, s1) in plan {
            let (kept, seeded) = (&entries[e0..e1], &seeds[s0..s1]);
            (e0, s0) = (e1, s1);
            let row = match (kept, seeded) {
                ([sj], []) => Arc::clone(entry_row(sj)),
                ([], _) => Arc::new(image.row(seeded.iter().copied())),
                _ => {
                    let seed = image.row(seeded.iter().copied());
                    let rows = kept.iter().map(|sj| &**entry_row(sj)).chain([&seed]);
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
    let mut seen = Cover::new(graph.vertex_count());
    pre.for_each_group(|vi, ends| {
        if kind == ClosureKind::Star {
            for vj in ends.iter() {
                seen.insert(vj.raw());
            }
        }
        for vj in ends.iter() {
            for vk in full.successors_original(vj) {
                // Duplicate check on every insert — the redundant work.
                if !seen.insert(vk.raw()) {
                    stats.full_duplicate_hits += 1;
                }
            }
        }
        let mut row: Vec<u32> = Vec::new();
        seen.drain_ascending(|vk| row.push(vk));
        row.shrink_to_fit();
        reached.push((vi, RowSet::from_sorted_vec(row)));
    });
    let pre_join = t0.elapsed();

    let t1 = Instant::now();
    let result = PostImage::new(graph, post).map_or_else(PairSet::new, |mut image| {
        let rows = reached
            .into_iter()
            .map(|(v, row)| (v, Arc::new(image.row(row.iter()))));
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
/// (a vertex reached along several paths expands once). One visited set
/// and two frontiers serve every row of an evaluation.
struct PostImage<'a> {
    graph: &'a LabeledMultigraph,
    labels: Vec<LabelId>,
    seen: Cover,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl<'a> PostImage<'a> {
    /// `None` when a Post label is absent from the alphabet: it matches no
    /// edge, so the batch unit is empty.
    fn new(graph: &'a LabeledMultigraph, post: &[String]) -> Option<Self> {
        let labels: Option<Vec<LabelId>> = post.iter().map(|l| graph.labels().get(l)).collect();
        Some(PostImage {
            graph,
            labels: labels?,
            seen: Cover::new(graph.vertex_count()),
            frontier: Vec::new(),
            next: Vec::new(),
        })
    }

    /// The image of `ends`, built in the layout [`RowSet::wants_dense`]
    /// picks over the graph's vertices: the row, layout and bytes
    /// [`RowSet::normalize`] would leave.
    fn row(&mut self, ends: impl IntoIterator<Item = u32>) -> RowSet {
        self.seen.clear();
        self.frontier.clear();
        self.frontier
            .extend(ends.into_iter().filter(|&v| self.seen.insert(v)));
        for &label in &self.labels {
            self.seen.clear();
            self.next.clear();
            for &v in &self.frontier {
                for &(_, d) in self.graph.out_with_label(VertexId(v), label) {
                    if self.seen.insert(d.raw()) {
                        self.next.push(d.raw());
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
        }
        let n = self.graph.vertex_count() as u32;
        if RowSet::wants_dense(self.frontier.len(), n) {
            RowSet::dense_from_iter(n, self.frontier.iter().copied())
        } else {
            let mut ids = self.frontier.clone();
            ids.sort_unstable();
            RowSet::from_sorted_vec(ids)
        }
    }
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
