//! Plan introspection and witness paths on the paper's running example.
//!
//! ```text
//! cargo run --release --example explain_and_witness
//! ```
//!
//! Shows two production features layered over the RTCSharing core:
//!
//! * `explain` / `explain_set` — the batch-unit plan (the recursion trees
//!   of the paper's Fig. 7) and the sharing analysis before evaluating;
//! * `find_witness` — an actual shortest path for a result pair (the paths
//!   Fig. 2 draws).

use rtc_rpq::core::{explain_set, Engine, SharingKind};
use rtc_rpq::eval::{find_witness, format_witness};
use rtc_rpq::graph::fixtures::paper_graph;
use rtc_rpq::regex::Regex;

fn main() {
    let g = paper_graph();

    // The three queries of the paper's Example 7.
    let queries = [
        Regex::parse("a").unwrap(),
        Regex::parse("a.(a.b)+.b").unwrap(),
        Regex::parse("(a.b)*.b+.(a.b+.c)+").unwrap(),
    ];

    println!("=== EXPLAIN (Fig. 7 recursion trees) ===");
    let plan = explain_set(&queries).unwrap();
    println!("{plan}");

    println!("=== Evaluation with sharing ===");
    let engine = Engine::new(&g);
    engine.prepare(&queries).unwrap();
    for q in &queries {
        let r = engine.evaluate(q).unwrap();
        println!("  {q} -> {} pairs", r.len());
    }
    println!(
        "  cache: {} RTCs, {} hits, {} misses\n",
        engine.cache().totals(SharingKind::Rtc).entries,
        engine.cache().hits(),
        engine.cache().misses()
    );

    println!("=== Witness paths for d.(b.c)+.c (Fig. 2) ===");
    let q = Regex::parse("d.(b.c)+.c").unwrap();
    let result = engine.evaluate(&q).unwrap();
    for (s, d) in result.iter() {
        let w = find_witness(&g, &q, s, d).unwrap();
        println!("  ({s},{d}): {}", format_witness(&g, &w));
    }
}
