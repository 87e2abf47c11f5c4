//! Differential test of the two batch-unit evaluators against the product
//! evaluator on the whole query, and of their elimination counters against
//! a pair-at-a-time reference that walks Algorithm 2 lines 4–12 literally.
//! Algorithm 2's Post rows, which reuse the rows of the entry SCCs each
//! closure cone reaches, are checked against the flat formula row by row
//! (same answer, same layouts, same bytes, same sharing) on all five kit
//! shapes, on hand-made cones, on a fixed RTC whose cones cross the cone
//! cover's 64-id word boundaries, and (`#[ignore]`d, for its run time) on
//! the `cold_sets` benchmark graph. A start keeps only the entry SCCs no
//! other entry of it reaches, and one kept entry means a shared row. With
//! Post = ε the pass-1 insert count is the answer's size.
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
use rtc_rpq::graph::{
    Ends, GraphBuilder, LabelId, LabeledMultigraph, PairSet, RowSet, SccId, VertexId,
};
use rtc_rpq::reduction::{FullTc, Rtc};
use rtc_rpq::regex::{ClosureKind, Regex};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

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

/// Lines 13–16 by the flat formula: every entry row is `⋃ PostRow[s_k]`
/// over all of `TC(s_j)`. A start whose entry SCCs, less those another of
/// them reaches, come down to one and that has no `R*` seed shares its
/// entry's row; any other start gets the union of all its entry rows and
/// its seeds' Post image.
fn reference_post(
    g: &LabeledMultigraph,
    pre: &PreRelation,
    rtc: &Rtc,
    kind: ClosureKind,
    post: &[String],
) -> PairSet {
    let n = g.vertex_count() as u32;
    let labels: Option<Vec<LabelId>> = post.iter().map(|l| g.labels().get(l)).collect();
    let Some(labels) = labels else {
        return PairSet::new();
    };
    let image = |ends: Vec<u32>| {
        let mut row = RowSet::from_unsorted(ends);
        for &l in &labels {
            let out = |v| g.out_with_label(VertexId(v), l);
            row = row.iter().flat_map(out).map(|&(_, d)| d.raw()).collect();
        }
        row.normalize(n);
        row
    };
    let post_row = |s| image(rtc.members_original(SccId(s)).map(VertexId::raw).collect());
    let mut entry_rows: HashMap<SccId, Arc<RowSet>> = HashMap::new();
    let mut groups = Vec::new();
    pre.for_each_group(|vi, ends| {
        let mut mine: Vec<SccId> = Vec::new();
        for sj in ends.iter().filter_map(|vj| rtc.scc_of_original(vj)) {
            if !mine.contains(&sj) {
                mine.push(sj);
            }
        }
        let reached = |s: SccId| mine.iter().any(|&sj| rtc.successors(sj).contains(s.raw()));
        let seeds: Vec<u32> = match kind {
            ClosureKind::Plus => Vec::new(),
            ClosureKind::Star => ends
                .iter()
                .filter(|&vj| !rtc.scc_of_original(vj).is_some_and(reached))
                .map(VertexId::raw)
                .collect(),
        };
        for &sj in &mine {
            entry_rows.entry(sj).or_insert_with(|| {
                let rows: Vec<RowSet> = rtc.successors(sj).iter().map(post_row).collect();
                Arc::new(RowSet::union_all(rows.iter(), n))
            });
        }
        let reached_by_another = |s: SccId| {
            let mut others = mine.iter().filter(|&&sj| sj != s);
            others.any(|&sj| rtc.successors(sj).contains(s.raw()))
        };
        let kept: Vec<SccId> = mine
            .iter()
            .copied()
            .filter(|&s| !reached_by_another(s))
            .collect();
        let row = match (&kept[..], &seeds[..]) {
            ([sj], []) => Arc::clone(&entry_rows[sj]),
            _ => {
                let seed = image(seeds);
                let rows = mine.iter().map(|sj| &*entry_rows[sj]).chain([&seed]);
                Arc::new(RowSet::union_all(rows, n))
            }
        };
        groups.push((vi, row));
    });
    PairSet::from_grouped_rows(groups)
}

/// A grouped answer's rows by start.
fn rows_of<'a>(ps: &'a PairSet, ctx: &str) -> Vec<(VertexId, &'a RowSet)> {
    let row = |(v, ends)| match ends {
        Ends::Row(r) => (v, r),
        _ => panic!("{ctx}: a Post answer is grouped by start"),
    };
    ps.groups().map(row).collect()
}

/// `eval_batch_unit_rtc`'s answer equals [`reference_post`]'s row by row:
/// the same rows in the same layouts and bytes, shared as often. With
/// Post = ε, pass 1's unchecked inserts are the answer's pairs, less
/// `Pre_G` itself under `R*` (its pairs are seeds, not inserts).
/// Returns the evaluation's counters.
fn assert_post_matches_the_flat_union(
    g: &LabeledMultigraph,
    pre: &PreRelation,
    rtc: &Rtc,
    kind: ClosureKind,
    post: &[String],
    ctx: &str,
) -> EliminationStats {
    let mut stats = EliminationStats::default();
    let got = eval_batch_unit_rtc(g, pre, rtc, kind, post, &mut stats).result;
    if post.is_empty() {
        let seeded = if kind == ClosureKind::Star {
            pre.len()
        } else {
            0
        };
        let counted = stats.useless2_unchecked_inserts as usize + seeded;
        assert_eq!(counted, got.len(), "{ctx}: pass-1 count");
    }
    let want = reference_post(g, pre, rtc, kind, post);
    assert_eq!(got, want, "{ctx}");
    assert_eq!(got.heap_bytes(), want.heap_bytes(), "{ctx}");
    let (got_rows, want_rows) = (rows_of(&got, ctx), rows_of(&want, ctx));
    for ((v, a), (_, b)) in got_rows.iter().zip(&want_rows) {
        assert_eq!(a.is_dense(), b.is_dense(), "{ctx}: layout of {v}'s row");
        assert_eq!(a.heap_bytes(), b.heap_bytes(), "{ctx}: bytes of {v}'s row");
    }
    let distinct = |rows: &[(VertexId, &RowSet)]| {
        let ptrs: HashSet<*const RowSet> = rows.iter().map(|&(_, r)| r as *const _).collect();
        ptrs.len()
    };
    assert_eq!(
        distinct(&got_rows),
        distinct(&want_rows),
        "{ctx}: shared rows"
    );
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

/// `Pre ∈ {ε, b, b·c}` as a [`PreRelation`] on `g`.
fn pre_relations(g: &LabeledMultigraph) -> Vec<(&'static str, PreRelation)> {
    let pairs =
        |src| PreRelation::Pairs(ProductEvaluator::new(g, &Regex::parse(src).unwrap()).evaluate());
    vec![
        ("ε", PreRelation::Identity(g.vertex_count())),
        ("b", pairs("b")),
        ("b.c", pairs("b.c")),
    ]
}

#[test]
fn cone_rows_equal_the_flat_union_on_every_shape() {
    let shapes = [
        Shape::Uniform,
        Shape::DenseCyclic,
        Shape::Degenerate,
        Shape::GiantScc,
        Shape::Wide,
    ];
    for case in 0..50u64 {
        let shape = shapes[case as usize % shapes.len()];
        let g = scenario(0xC0E5 + case, shape).graph();
        let r_g = ProductEvaluator::new(&g, &Regex::parse("a").unwrap()).evaluate();
        let rtc = Rtc::from_pairs(&r_g);
        for (pre_src, pre) in pre_relations(&g) {
            for post in [&[][..], &["c"], &["c", "b"]] {
                let post: Vec<String> = post.iter().map(|l| l.to_string()).collect();
                for kind in [ClosureKind::Plus, ClosureKind::Star] {
                    let ctx = format!("case {case} ({shape:?}) {pre_src}·a{kind:?}·{post:?}");
                    assert_post_matches_the_flat_union(&g, &pre, &rtc, kind, &post, &ctx);
                }
            }
        }
    }
}

/// `(from, to)` edges of one label.
type Edges = &'static [(u32, u32)];

/// Hand-made cones: `a` edges are `R`, `b` edges are `Pre`, and every
/// vertex `v` has a `c` edge to `20 + v`, so each SCC's Post row is its own.
#[test]
fn cone_rows_equal_the_flat_union_on_fixed_cones() {
    let fixtures: [(&str, Edges, Edges); 5] = [
        // 0 → {1, 2} → 3 → 4, entered at 0, 1 and 2: 0's cone reuses
        // the two middle rows, whose own Post rows lie outside their cones.
        (
            "diamond",
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            &[(10, 0), (11, 1), (12, 2)],
        ),
        // The cycle {0, 1, 2} is in its own cone and reaches the entry 3.
        (
            "cyclic entry",
            &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)],
            &[(10, 0), (11, 3)],
        ),
        // Only the head of 0 → 1 → 2 → 3 → 4 is entered: the flat union.
        ("chain", &[(0, 1), (1, 2), (2, 3), (3, 4)], &[(10, 0)]),
        // 10 enters 0, whose cone holds 3; 5 and 6 are off `V_a`, so under
        // `a*` they are seeds while 3 is not.
        (
            "seeds",
            &[(0, 1), (1, 3), (3, 4)],
            &[(10, 0), (10, 3), (10, 5), (10, 6), (11, 5)],
        ),
        // 10 enters both middles of the diamond and its bottom; 11 enters
        // the top alone and shares its entry row.
        (
            "several entries",
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
            &[(10, 1), (10, 2), (10, 3), (11, 0), (12, 1), (12, 4)],
        ),
    ];
    for (name, r_edges, pre_edges) in fixtures {
        let mut gb = GraphBuilder::new();
        for &(u, v) in r_edges {
            gb.add_edge(u, "a", v);
        }
        for &(u, v) in pre_edges {
            gb.add_edge(u, "b", v);
        }
        for v in 0..7 {
            gb.add_edge(v, "c", 20 + v);
        }
        let g = gb.build();
        let r_g = ProductEvaluator::new(&g, &Regex::parse("a").unwrap()).evaluate();
        let rtc = Rtc::from_pairs(&r_g);
        for (pre_src, pre) in pre_relations(&g) {
            for post in [&[][..], &["c"]] {
                let post: Vec<String> = post.iter().map(|l| l.to_string()).collect();
                for (kind, op) in [(ClosureKind::Plus, "+"), (ClosureKind::Star, "*")] {
                    let ctx = format!("{name}: {pre_src}·a{op}·{post:?}");
                    assert_post_matches_the_flat_union(&g, &pre, &rtc, kind, &post, &ctx);
                    let closure = format!("(a){op}");
                    let parts = [pre_src, &closure].into_iter();
                    let parts = parts.chain(post.iter().map(String::as_str));
                    let q: Vec<&str> = parts.filter(|p| *p != "ε").collect();
                    let expect = ProductEvaluator::new(&g, &Regex::parse(&q.join(".")).unwrap());
                    let mut stats = EliminationStats::default();
                    let out = eval_batch_unit_rtc(&g, &pre, &rtc, kind, &post, &mut stats);
                    assert_eq!(out.result, expect.evaluate(), "{ctx}");
                }
            }
        }
    }
}

/// A start entering `s` and some `t ∈ TC(s)` keeps `s` alone and shares
/// the row of a start entering `s` only; a start entering two SCCs neither
/// of which reaches the other gets a row of its own.
#[test]
fn an_entry_another_entry_reaches_is_dropped() {
    let mut gb = GraphBuilder::new();
    // `a`: 0 → 1 → 2 → 3 and 4 → 3; `b`: 10 enters 0 and 2, 11 enters 0,
    // 12 enters 0 and 4.
    for (u, v) in [(0, 1), (1, 2), (2, 3), (4, 3)] {
        gb.add_edge(u, "a", v);
    }
    for (u, v) in [(10, 0), (10, 2), (11, 0), (12, 0), (12, 4)] {
        gb.add_edge(u, "b", v);
    }
    let g = gb.build();
    let rtc = Rtc::from_pairs(&ProductEvaluator::new(&g, &Regex::parse("a").unwrap()).evaluate());
    let pre = PreRelation::Pairs(ProductEvaluator::new(&g, &Regex::parse("b").unwrap()).evaluate());
    let mut stats = EliminationStats::default();
    let got = eval_batch_unit_rtc(&g, &pre, &rtc, ClosureKind::Plus, &[], &mut stats).result;
    let rows = rows_of(&got, "fixed cone");
    let row = |v: u32| {
        rows.iter()
            .find(|&&(s, _)| s == VertexId(v))
            .expect("a row")
            .1
    };
    assert!(std::ptr::eq(row(10), row(11)), "10 shares 0's row");
    assert!(
        !std::ptr::eq(row(12), row(11)),
        "12 unions 0's and 4's rows"
    );
    // 10's dropped TC(2) = {3} counts whole, and 12's two cones share 3.
    assert_eq!(stats.redundant2_skipped, 1 + 1);
}

/// The SCC count of [`word_boundary_graph`]: three cover words, the last
/// one partly used.
const BOUNDARY_SCCS: u32 = 150;

/// An `a`-graph whose SCC ids are fixed by construction, with cones that
/// cross the cover's word boundaries. SCC `i` has head vertex `heads[i]`;
/// SCCs 0, 63, 64 and 128 are 2- or 3-cycles and 1 and 149 self-loops.
/// Every vertex has an `a` edge, so the one Tarjan pass closes the SCCs in
/// head order and SCC `i` gets id `i`.
///
/// * `i → i − 2` for `2 ≤ i ≤ 140`: an even and an odd chain whose cones
///   are dense, disjoint below 99, and cross words 0–1 (63, 64) and 1–2
///   (128); `100 → 99` and `140 → 139` join them.
/// * 141–148 hang small cones off the chains: sparse (at most 4 of 150
///   ids) next to dense ones.
///
/// `b` edges enter 2–4 SCCs per start (nested, overlapping and disjoint
/// cones, a cyclic entry, the same SCC twice, an end off `V_a`), and each
/// SCC vertex `v` has one `c` edge to a vertex of its own.
fn word_boundary_graph() -> (LabeledMultigraph, Vec<u32>) {
    let members = |i: u32| match i {
        0 | 63 | 128 => 2,
        64 => 3,
        _ => 1,
    };
    let mut heads = Vec::new();
    let mut next = 0;
    for i in 0..BOUNDARY_SCCS {
        heads.push(next);
        next += members(i);
    }
    let mut a: Vec<(u32, u32)> = Vec::new();
    for (i, &h) in heads.iter().enumerate() {
        let size = members(i as u32);
        if size > 1 {
            a.extend((0..size).map(|k| (h + k, h + (k + 1) % size)));
        }
    }
    a.extend([(heads[1], heads[1]), (heads[149], heads[149])]);
    a.extend((2..=140).map(|i| (heads[i], heads[i - 2])));
    let hang: [(usize, &[usize]); 10] = [
        (100, &[99]),
        (140, &[139]),
        (141, &[0]),
        (142, &[141]),
        (143, &[1]),
        (144, &[143, 142]),
        (145, &[3]),
        (146, &[145, 63]),
        (147, &[2]),
        (148, &[147, 145]),
    ];
    for (i, to) in hang {
        a.extend(to.iter().map(|&t| (heads[i], heads[t])));
    }

    let (starts, targets) = (next, next + 12);
    let enter: [&[usize]; 11] = [
        &[66, 64, 20],
        &[65, 66],
        &[100, 65, 63],
        &[130, 101, 64, 141],
        &[142, 143],
        &[144, 2, 3, 70],
        &[63, 64],
        &[128],
        &[149, 148],
        &[140, 146, 129],
        &[147, 145],
    ];
    let mut gb = GraphBuilder::new();
    for &(u, v) in &a {
        gb.add_edge(u, "a", v);
    }
    for (k, scc_ids) in enter.iter().enumerate() {
        for &i in *scc_ids {
            gb.add_edge(starts + k as u32, "b", heads[i]);
        }
    }
    // The same SCC by two members, and an end off `V_a` (a seed under `a*`).
    let last = starts + enter.len() as u32;
    gb.add_edge(last, "b", heads[64])
        .add_edge(last, "b", heads[64] + 2);
    gb.add_edge(starts + 8, "b", targets + 5);
    for v in 0..starts {
        gb.add_edge(v, "c", targets + v);
    }
    (gb.build(), heads)
}

/// Algorithm 2 on [`word_boundary_graph`] under `Pre ∈ {ε, b}`, both
/// closure kinds and `|Post| ∈ {0, 1}`: the counters equal the pair-by-pair
/// reference and the rows the flat union.
#[test]
fn cones_across_cover_word_boundaries() {
    let (g, heads) = word_boundary_graph();
    let rtc = Rtc::from_pairs(&ProductEvaluator::new(&g, &Regex::parse("a").unwrap()).evaluate());
    assert_eq!(rtc.scc_count(), BOUNDARY_SCCS as usize);
    for (i, &h) in heads.iter().enumerate() {
        assert_eq!(rtc.scc_of_original(VertexId(h)), Some(SccId(i as u32)));
    }
    for i in [0, 63, 64, 128] {
        assert!(rtc.scc_size(SccId(i)) > 1, "SCC {i} is multi-member");
    }
    let dense = |i| rtc.successors(SccId(i)).is_dense();
    assert!(dense(65) && dense(66) && dense(130) && dense(144) && dense(146));
    assert!(!dense(142) && !dense(145) && !dense(147) && !dense(149));
    let pre_b = ProductEvaluator::new(&g, &Regex::parse("b").unwrap()).evaluate();
    let pres = [
        ("ε", PreRelation::Identity(g.vertex_count())),
        ("b", PreRelation::Pairs(pre_b)),
    ];
    for (pre_src, pre) in &pres {
        for post in [&[][..], &["c"]] {
            let post: Vec<String> = post.iter().map(|l| l.to_string()).collect();
            for (kind, op) in [(ClosureKind::Plus, "+"), (ClosureKind::Star, "*")] {
                let ctx = format!("{pre_src}·a{op}·{post:?}");
                let stats = assert_post_matches_the_flat_union(&g, pre, &rtc, kind, &post, &ctx);
                assert_eq!(stats, reference_rtc_stats(pre, &rtc, kind), "{ctx}");
                let closure = format!("(a){op}");
                let parts = [*pre_src, &closure].into_iter();
                let parts = parts.chain(post.iter().map(String::as_str));
                let q: Vec<&str> = parts.filter(|p| *p != "ε").collect();
                let expect = ProductEvaluator::new(&g, &Regex::parse(&q.join(".")).unwrap());
                let mut stats = EliminationStats::default();
                let out = eval_batch_unit_rtc(&g, pre, &rtc, kind, &post, &mut stats);
                assert_eq!(out.result, expect.evaluate(), "{ctx}");
            }
        }
    }
}

/// Algorithm 2 on the `cold_sets` benchmark graph (RMAT_2 2^11, labels
/// `l0`–`l3`) over every 1–3-label body, each with a one-label `Pre` drawn
/// in turn from the four labels, `Post` empty or one label drawn likewise,
/// and both closure kinds: the counters equal the pair-by-pair reference
/// and the rows the flat union.
/// Run with `cargo test --release --test batch_unit_equivalence -- --ignored`.
#[test]
#[ignore = "exhaustive; run in release with --ignored"]
fn cold_sets_graph_all_short_bodies() {
    let g = rtc_rpq::datasets::rmat::rmat_n_scaled(2, 11, 1);
    let labels = ["l0", "l1", "l2", "l3"];
    assert!(labels.iter().all(|l| g.labels().get(l).is_some()));
    let mut bodies: Vec<String> = vec![String::new()];
    let mut checked = 0;
    for _ in 0..3 {
        bodies = bodies
            .iter()
            .flat_map(|b| labels.map(|l| [b.as_str(), l].join(".")))
            .collect();
        for body in &bodies {
            let body = body.trim_start_matches('.');
            let rtc = Rtc::from_body(&g, &Regex::parse(body).unwrap()).unwrap();
            let pre_label = labels[checked % 4];
            let pre = ProductEvaluator::new(&g, &Regex::parse(pre_label).unwrap()).evaluate();
            let pre = PreRelation::Pairs(pre);
            let post_label = labels[checked / 4 % 4].to_string();
            for post in [vec![], vec![post_label]] {
                for kind in [ClosureKind::Plus, ClosureKind::Star] {
                    let ctx = format!("{pre_label}·({body}){kind:?}·{post:?}");
                    let stats =
                        assert_post_matches_the_flat_union(&g, &pre, &rtc, kind, &post, &ctx);
                    assert_eq!(stats, reference_rtc_stats(&pre, &rtc, kind), "{ctx}");
                }
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 84);
}
