//! `Rtc::from_pairs` — one Tarjan pass over `R_G` in original vertex ids —
//! against the staged build it replaced: `reduce_edge_level` (`G_R` over
//! compact ids) → `tarjan_scc` → `Condensation::new` →
//! `closure_of_condensation_rows`.
//!
//! The two number their SCCs differently (the staged Tarjan also roots a
//! search at every vertex that is only an end), so SCCs are matched by
//! their members. The exhaustive check over the benchmark's `cold_sets`
//! graph is `#[ignore]`d; run it with
//! `cargo test --release --test rtc_one_pass -- --ignored`.

use rpq_testkit::{scenario, Shape};
use rtc_rpq::eval::{eval_label_sequence, ProductEvaluator};
use rtc_rpq::graph::{
    tarjan_scc, Condensation, LabelId, MappedDigraph, PairSet, RowSet, RowSetPolicy, RowTable, Scc,
    SccId, VertexId,
};
use rtc_rpq::reduction::{closure_of_condensation_rows, reduce_edge_level, Rtc, RtcStats};
use rtc_rpq::regex::Regex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// [`assert_structure_matches_staged`], and equal expansions.
fn assert_matches_staged(r_g: &PairSet) {
    let (rtc, expanded) = assert_structure_matches_staged(r_g);
    assert_eq!(rtc.expand(), expanded);
}

/// Checks the one-pass RTC of `r_g` against the staged build: equal
/// stats, the same SCCs as sets of original vertices with ids in reverse
/// topological order, equal closure rows (SCCs matched by members) in the
/// layout the density rule picks, and id tables 8 B a `V_R` vertex smaller
/// than `G_R`'s mapping plus the compact SCC tables. Returns the RTC and
/// the staged expansion.
fn assert_structure_matches_staged(r_g: &PairSet) -> (Rtc, PairSet) {
    let rtc = Rtc::from_pairs(r_g);
    let gr = reduce_edge_level(r_g);
    let scc = tarjan_scc(&gr.graph);
    let cond = Condensation::new(&gr.graph, &scc);
    let closure = closure_of_condensation_rows(&cond, &RowSetPolicy);
    let staged = RtcStats {
        vr_vertices: gr.vertex_count(),
        er_edges: gr.edge_count(),
        scc_count: scc.count(),
        ebar_edges: cond.edge_count(),
        closure_pairs: closure.total_len(),
    };
    assert_eq!(rtc.stats(), &staged, "stats");
    assert_eq!(rtc.scc_count(), staged.scc_count);

    // The staged SCC of an original vertex in `V_R`.
    let staged_of = |v: VertexId| scc.component_of(gr.mapping.compact(v).unwrap());
    let k = rtc.scc_count();
    let mut to_staged = vec![0u32; k];
    for s in (0..k).map(SccId::from_usize) {
        let members: Vec<VertexId> = rtc.members_original(s).collect();
        assert!(members.windows(2).all(|w| w[0] < w[1]), "members ascend");
        assert_eq!(members.len(), rtc.scc_size(s));
        let t = staged_of(members[0]);
        let staged_members = scc.members(t).iter().map(|&c| gr.mapping.original(c));
        assert!(staged_members.eq(members.iter().copied()), "SCC {s:?}");
        for &v in &members {
            assert_eq!(rtc.scc_of_original(v), Some(s));
        }
        to_staged[s.index()] = t.raw();
    }
    // Every id off `V_R`, up to one past the largest, has no SCC.
    let top = gr.mapping.originals().last().map_or(0, |v| v.raw() + 1);
    for v in (0..=top).map(VertexId) {
        assert_eq!(
            rtc.scc_of_original(v).is_some(),
            gr.mapping.compact(v).is_some()
        );
    }
    // Reverse topological ids: no pair of `R_G` climbs to a higher SCC,
    // so no closure row holds an id above its own.
    for (a, b) in r_g.iter() {
        assert!(
            rtc.scc_of_original(b) <= rtc.scc_of_original(a),
            "({a:?}, {b:?})"
        );
    }
    for s in (0..k).map(SccId::from_usize) {
        let row = rtc.successors(s);
        assert!(row.iter().all(|t| t <= s.raw()), "SCC {s:?} climbs");
        assert_eq!(
            row.is_dense(),
            RowSet::wants_dense(row.len(), k as u32),
            "layout"
        );
        let mut mapped: Vec<u32> = row.iter().map(|t| to_staged[t as usize]).collect();
        mapped.sort_unstable();
        let staged_row = closure.row(to_staged[s.index()] as usize);
        assert_eq!(mapped, staged_row.to_vec(), "closure row of SCC {s:?}");
    }
    assert_eq!(rtc.closure_heap_bytes(), closure.heap_bytes());
    let staged_bytes = gr.mapping.heap_bytes() + scc.heap_bytes() + closure.heap_bytes();
    assert_eq!(rtc.heap_bytes() + 8 * staged.vr_vertices, staged_bytes);
    let expanded = staged_expand(&gr, &scc, &closure);
    (rtc, expanded)
}

/// Theorem 1's expansion from the staged structures.
fn staged_expand(gr: &MappedDigraph, scc: &Scc, closure: &RowTable) -> PairSet {
    let mut groups = Vec::new();
    for (s, members) in scc.iter() {
        let mut row: Vec<u32> = closure
            .row(s.index())
            .iter()
            .flat_map(|t| scc.members(SccId(t)).iter())
            .map(|&c| gr.mapping.original(c).raw())
            .collect();
        row.sort_unstable();
        let row = Arc::new(RowSet::from_sorted_vec(row));
        for &c in members {
            groups.push((gr.mapping.original(c), Arc::clone(&row)));
        }
    }
    PairSet::from_grouped_rows(groups)
}

fn pairs(list: &[(u32, u32)]) -> PairSet {
    list.iter().copied().collect()
}

/// Every query each kit shape's scenarios read, evaluated on the base
/// graph, as `R_G`: nullable queries put a self-loop on every vertex.
#[test]
fn kit_shapes_match_the_staged_build() {
    let shapes = [
        Shape::Uniform,
        Shape::DenseCyclic,
        Shape::Degenerate,
        Shape::GiantScc,
        Shape::Wide,
    ];
    let mut checked = 0;
    for (i, &shape) in shapes.iter().enumerate() {
        for seed in 0..12 {
            let s = scenario(0x1A55 + 100 * i as u64 + seed, shape);
            let g = s.graph();
            let mut queries = BTreeSet::new();
            for step in &s.steps {
                queries.extend(step.queries().iter().map(ToString::to_string));
            }
            for q in queries {
                assert_matches_staged(
                    &ProductEvaluator::new(&g, &Regex::parse(&q).unwrap()).evaluate(),
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 150, "{checked} relations");
}

/// Fixed shapes, each named for the case it pins.
#[test]
fn fixed_cases_match_the_staged_build() {
    // The empty relation.
    assert_matches_staged(&PairSet::new());
    // Vertex 1 is only an end, below every start: the staged build roots a
    // search at it first, the one-pass build reaches it from start 3.
    assert_matches_staged(&pairs(&[(3, 1), (3, 4), (4, 3), (4, 9)]));
    // A singleton with a self-loop next to one without.
    assert_matches_staged(&pairs(&[(2, 2), (2, 5), (5, 7)]));
    // Parallel routes into one SCC, and a chain below it: each SCC's row
    // holds only its own successors.
    assert_matches_staged(&pairs(&[
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 3),
        (3, 4),
        (4, 3),
        (4, 5),
        (5, 6),
    ]));
    // A 2 000-edge chain, ascending (a search 2 000 deep through 2 001
    // SCCs) and descending (roots close one at a time).
    let up: Vec<(u32, u32)> = (0..2_000).map(|v| (v, v + 1)).collect();
    assert_matches_staged(&pairs(&up));
    let down: Vec<(u32, u32)> = (0..2_000).map(|v| (v + 1, v)).collect();
    assert_matches_staged(&pairs(&down));
    // A 30 000-edge chain closed into a cycle: a search 30 000 deep whose
    // lowlinks all come back through every frame. Its expansion holds
    // 900 M pairs, so only the sizes are compared. (The open chain's
    // closure alone would hold 450 M.)
    let mut cycle: Vec<(u32, u32)> = (0..29_999).map(|v| (v, v + 1)).collect();
    cycle.push((29_999, 0));
    let (rtc, expanded) = assert_structure_matches_staged(&pairs(&cycle));
    assert_eq!(rtc.expanded_pair_count(), expanded.len());
}

/// A grouped `R_G` whose rows are dense bitsets, the shape a closure body
/// nested in another closure evaluates to: a 200-cycle with a tail into
/// it and one out of it, expanded.
#[test]
fn grouped_dense_relation_matches_the_staged_build() {
    let mut edges: Vec<(u32, u32)> = (0..200).map(|v| (v, (v + 1) % 200)).collect();
    edges.extend([(300, 301), (301, 0), (150, 400), (400, 401)]);
    let inner = Rtc::from_pairs(&pairs(&edges)).expand();
    assert!(inner.is_grouped());
    assert!(inner.groups().any(|(_, ends)| matches!(
        ends,
        rtc_rpq::graph::Ends::Row(row) if row.is_dense()
    )));
    assert_matches_staged(&inner);
}

/// Every label sequence of length 1–3 over the four labels of the
/// `cold_sets` graph: 84 relations, each built both ways.
#[test]
#[ignore = "exhaustive; run in release with --ignored"]
fn cold_sets_graph_all_short_sequences() {
    let g = rtc_rpq::datasets::rmat::rmat_n_scaled(2, 11, 1);
    let k = g.labels().len() as u32;
    assert_eq!(k, 4);
    let mut seqs: Vec<Vec<LabelId>> = vec![Vec::new()];
    let mut checked = 0;
    for _ in 0..3 {
        seqs = seqs
            .iter()
            .flat_map(|s| {
                (0..k).map(move |l| {
                    let mut s = s.clone();
                    s.push(LabelId(l));
                    s
                })
            })
            .collect();
        for seq in &seqs {
            assert_matches_staged(&eval_label_sequence(&g, seq));
            checked += 1;
        }
    }
    assert_eq!(checked, 84);
}
