//! The two one-pass RTC builds against the staged build they replaced:
//! `reduce_edge_level` (`G_R` over compact ids) → `tarjan_scc` →
//! `Condensation::new` → `closure_of_condensation_rows`.
//!
//! * `Rtc::from_pairs` — one Tarjan pass over `R_G` in original vertex ids.
//! * `Rtc::from_body` — one Tarjan pass over the layered product of the
//!   graph and a closure-free body, which never builds `R_G`. It is checked
//!   against the staged build and against `Rtc::from_pairs` on the body's
//!   `R_G`, as the product evaluator computes it.
//!
//! The builds number their SCCs differently (the staged Tarjan also roots
//! a search at every vertex that is only an end, and the product search
//! meets a start's ends in path order), so SCCs are matched by their
//! members. The exhaustive checks over the benchmark's `cold_sets` graph
//! are `#[ignore]`d; run them with
//! `cargo test --release --test rtc_one_pass -- --ignored`.

use rpq_testkit::{scenario, Shape};
use rtc_rpq::eval::{eval_label_sequence, ProductEvaluator};
use rtc_rpq::graph::{
    tarjan_scc, Condensation, GraphBuilder, LabelId, LabeledMultigraph, MappedDigraph, PairSet,
    RowSet, RowSetPolicy, RowTable, Scc, SccId, VertexId,
};
use rtc_rpq::reduction::{closure_of_condensation_rows, reduce_edge_level, Rtc, RtcStats};
use rtc_rpq::regex::Regex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// [`assert_structure_matches_staged`] for `Rtc::from_pairs`, and equal
/// expansions.
fn assert_matches_staged(r_g: &PairSet) {
    let rtc = Rtc::from_pairs(r_g);
    let expanded = assert_structure_matches_staged(&rtc, r_g);
    assert_eq!(rtc.expand(), expanded);
}

/// [`assert_body_structure`], and equal expansions.
fn assert_body_matches(g: &LabeledMultigraph, body: &str) {
    let (rtc, expanded) = assert_body_structure(g, body);
    assert_eq!(rtc.expand(), expanded, "{body}");
}

/// Builds `body`'s RTC on `g` from the product and checks it against the
/// staged build over the body's `R_G`
/// ([`assert_structure_matches_staged`]) and against `Rtc::from_pairs` on
/// that `R_G`: equal stats, bytes and dense-row counts. Returns the RTC and
/// the staged expansion.
fn assert_body_structure(g: &LabeledMultigraph, body: &str) -> (Rtc, PairSet) {
    let body_re = Regex::parse(body).unwrap();
    let r_g = ProductEvaluator::new(g, &body_re).evaluate();
    let rtc = Rtc::from_body(g, &body_re).expect("a closure-free body");
    let expanded = assert_structure_matches_staged(&rtc, &r_g);
    let oracle = Rtc::from_pairs(&r_g);
    assert_eq!(rtc.stats(), oracle.stats(), "{body}");
    assert_eq!(rtc.heap_bytes(), oracle.heap_bytes(), "{body}");
    assert_eq!(rtc.dense_closure_rows(), oracle.dense_closure_rows());
    (rtc, expanded)
}

/// Checks an RTC of `r_g` against the staged build: equal stats, the same
/// SCCs as sets of original vertices with ids in reverse topological
/// order, equal closure rows (SCCs matched by members) in the layout the
/// density rule picks, and id tables 8 B a `V_R` vertex smaller than
/// `G_R`'s mapping plus the compact SCC tables. Returns the staged
/// expansion.
fn assert_structure_matches_staged(rtc: &Rtc, r_g: &PairSet) -> PairSet {
    let gr = reduce_edge_level(r_g);
    let scc = tarjan_scc(&gr.graph);
    let cond = Condensation::new(&gr.graph, &scc);
    let closure = closure_of_condensation_rows(&cond, &RowSetPolicy);
    // |E_R| is a count of the relation: G_R has one edge per pair.
    assert_eq!(r_g.len(), gr.edge_count(), "|E_R|");
    let staged = RtcStats {
        vr_vertices: gr.vertex_count(),
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
    staged_expand(&gr, &scc, &closure)
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
    let cycle = pairs(&cycle);
    let rtc = Rtc::from_pairs(&cycle);
    let expanded = assert_structure_matches_staged(&rtc, &cycle);
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

/// The closure-free bodies of `q`'s closures, as canonical keys.
fn closure_free_bodies(q: &Regex, out: &mut BTreeSet<String>) {
    match q {
        Regex::Plus(r) | Regex::Star(r) => {
            if !r.has_closure() {
                out.insert(r.canonical_key());
            }
            closure_free_bodies(r, out);
        }
        Regex::Optional(r) => closure_free_bodies(r, out),
        Regex::Concat(parts) | Regex::Alt(parts) => {
            parts.iter().for_each(|p| closure_free_bodies(p, out));
        }
        _ => {}
    }
}

/// Every closure-free body of every query each kit shape's scenarios read,
/// built from the product of the base graph and the body.
#[test]
fn kit_bodies_match_from_pairs() {
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
            let mut bodies = BTreeSet::new();
            for step in &s.steps {
                step.queries()
                    .iter()
                    .for_each(|q| closure_free_bodies(q, &mut bodies));
            }
            for body in bodies {
                assert_body_matches(&g, &body);
                checked += 1;
            }
        }
    }
    assert!(checked >= 100, "{checked} bodies");
}

fn graph(edges: &[(u32, &str, u32)]) -> LabeledMultigraph {
    let mut b = GraphBuilder::new();
    for &(s, l, d) in edges {
        b.add_edge(s, l, d);
    }
    b.build()
}

/// Fixed bodies, each named for the case it pins.
#[test]
fn fixed_bodies_match_from_pairs() {
    let g = rtc_rpq::graph::fixtures::paper_graph();
    for body in [
        // One label, read off the adjacency rows in place.
        "b",
        // One layer: each clause a single label or ε.
        "a|b",
        // Multi-clause bodies: a two-hop clause beside a one-hop one, and
        // clauses that share their positions' layers.
        "a.b|c",
        "(a|b).(b|c)",
        "b.c.b.c|d",
        // Nullable bodies: every vertex gets a self-loop.
        "()",
        "b?",
        "(b.c)?",
        "b.c|()",
        // Absent labels: a clause through one contributes nothing.
        "zz",
        "b.zz",
        "b.c|zz",
        "zz?",
    ] {
        assert_body_matches(&g, body);
    }
    // A body with a closure is built from its `R_G` instead.
    for nested in ["b+", "(b.c)*.d", "a.(b|c+)"] {
        assert!(Rtc::from_body(&g, &Regex::parse(nested).unwrap()).is_none());
    }
    // No vertices at all.
    assert_body_matches(&GraphBuilder::new().build(), "a.b");
    // Root 1 closes alone: its `a` hop ends where no `b` leaves. Root 3's
    // step then ends at 1, so 1 is in `V_R` after all. Root 5 closes alone
    // and stays off `V_R`, which the pass learns only after it.
    let late = graph(&[(1, "a", 2), (3, "a", 4), (4, "b", 1), (5, "a", 6)]);
    let (rtc, _) = assert_body_structure(&late, "a.b");
    assert_eq!(rtc.stats().vr_vertices, 2);
    assert_body_matches(&late, "a.b|b");
    // Real shapes: an RMAT graph, where steps enter cyclic components at
    // inner layers and leave them before they are back at layer 0.
    let rmat = rtc_rpq::datasets::rmat::rmat_n_scaled(1, 9, 1);
    for body in ["l0.l0", "l0.l1.l2", "(l0|l1).l2", "l0.l1?", "l3.l2.l1.l0"] {
        assert_body_matches(&rmat, body);
    }
}

/// A 30 000-vertex ring whose edges alternate `a` and `b`: `(a·b)_G` is a
/// 15 000-cycle, and the product search runs 30 000 deep. Its expansion
/// holds 225 M pairs, so only the sizes are compared.
#[test]
fn a_two_label_ring_matches_from_pairs() {
    let n = 30_000u32;
    let edges: Vec<(u32, &str, u32)> = (0..n)
        .map(|v| (v, if v % 2 == 0 { "a" } else { "b" }, (v + 1) % n))
        .collect();
    let g = graph(&edges);
    let (rtc, expanded) = assert_body_structure(&g, "a.b");
    assert_eq!(rtc.scc_count(), 1);
    assert_eq!(rtc.expanded_pair_count(), expanded.len());
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

/// Every label sequence of length 1–3 over the four labels of the
/// `cold_sets` graph, built from the product and checked against
/// `Rtc::from_pairs` on its `R_G`: 84 bodies.
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
            .flat_map(|b| {
                labels.map(|l| {
                    if b.is_empty() {
                        l.to_owned()
                    } else {
                        format!("{b}.{l}")
                    }
                })
            })
            .collect();
        for body in &bodies {
            assert_body_matches(&g, body);
            checked += 1;
        }
    }
    assert_eq!(checked, 84);
}
