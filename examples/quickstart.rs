//! Quickstart: build a graph, evaluate RPQs, inspect the shared RTC.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Reproduces the paper's running example (Fig. 1 / Example 1) and shows
//! the three evaluation strategies agreeing while sharing different
//! amounts of data.

use rtc_rpq::core::{Engine, SharingKind, Strategy};
use rtc_rpq::graph::GraphBuilder;
use rtc_rpq::regex::Regex;

fn main() {
    // The edge-labeled directed multigraph of Fig. 1, built by hand.
    // (rtc_rpq::graph::fixtures::paper_graph() is the same graph.)
    let mut b = GraphBuilder::new();
    b.add_edge(0, "a", 1)
        .add_edge(1, "c", 2)
        .add_edge(2, "b", 3)
        .add_edge(2, "b", 5)
        .add_edge(2, "c", 5)
        .add_edge(3, "b", 2)
        .add_edge(4, "b", 1)
        .add_edge(5, "b", 6)
        .add_edge(5, "c", 6)
        .add_edge(5, "c", 4)
        .add_edge(6, "c", 3)
        .add_edge(7, "d", 4)
        .add_edge(7, "a", 8)
        .add_edge(8, "e", 9)
        .add_edge(9, "f", 8);
    let graph = b.build();
    println!(
        "graph: |V|={} |E|={} |Σ|={}",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );

    // Example 1: d·(b·c)+·c finds {(v7,v5), (v7,v3)}.
    let query = Regex::parse("d.(b.c)+.c").expect("valid RPQ");
    println!("\nquery: {query}");

    for strategy in Strategy::ALL {
        let engine = Engine::with_strategy(&graph, strategy);
        let result = engine.evaluate(&query).expect("evaluation succeeds");
        let pairs: Vec<String> = result.iter().map(|(s, e)| format!("({s},{e})")).collect();
        println!(
            "  {:<11} -> {{{}}}  shared_pairs={}  time={:?}",
            strategy.to_string(),
            pairs.join(", "),
            engine.shared_data_pairs(),
            engine.breakdown().total,
        );
    }

    // The RTC for b·c is tiny (3 SCC pairs) compared with the 10-pair
    // (b·c)+_G that FullSharing materializes — TABLE III in action.
    let engine = Engine::new(&graph);
    engine.evaluate(&query).unwrap();
    println!(
        "\nRTCSharing cached {} RTC(s) holding {} pairs total (FullSharing would hold 10).",
        engine.cache().totals(SharingKind::Rtc).entries,
        engine.cache().totals(SharingKind::Rtc).shared_pairs,
    );

    // A second query reuses the cached RTC for b·c: zero extra shared work.
    let query2 = Regex::parse("a.(b.c)*.c").unwrap();
    let result2 = engine.evaluate(&query2).unwrap();
    println!(
        "second query {query2} -> {} pairs, cache hits = {}",
        result2.len(),
        engine.cache().hits()
    );
}
