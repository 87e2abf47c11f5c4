//! The paper's multiple-RPQ experiment in miniature: a Section V-A
//! workload on an R-MAT graph, evaluated under all three strategies with
//! the per-stage breakdown printed (a self-contained Fig. 10 + Fig. 11).
//!
//! ```text
//! cargo run --release --example multi_query_workload
//! ```

use rtc_rpq::core::{Engine, Strategy};
use rtc_rpq::datasets::rmat::rmat_n_scaled;
use rtc_rpq::datasets::workload::{alphabet_of, generate_workload, WorkloadConfig};

fn main() {
    // RMAT_3-shaped graph at 2^10 vertices: per-label degree 2 (the
    // median point of the paper's synthetic sweep).
    let graph = rmat_n_scaled(3, 10, 45);
    println!(
        "graph: |V|={} |E|={} |Σ|={} degree/label={:.2}",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count(),
        graph.degree_per_label()
    );

    // One multiple-RPQ set of 4 queries sharing the closure body R.
    let sets = generate_workload(
        &alphabet_of(&graph),
        &WorkloadConfig {
            rs_per_length: 1,
            r_lengths: vec![2],
            queries_per_set: 4,
            ..WorkloadConfig::default()
        },
    );
    let set = &sets[0];
    println!("\nshared sub-query R = {}", set.r);
    for (i, q) in set.queries.iter().enumerate() {
        println!("  Q{i}: {q}");
    }

    println!(
        "\n{:<12} {:>10} {:>14} {:>12} {:>12} {:>12}",
        "strategy", "total", "shared_data", "pre_join", "remainder", "shared_pairs"
    );
    let mut reference: Option<Vec<usize>> = None;
    for strategy in Strategy::ALL {
        let engine = Engine::with_strategy(&graph, strategy);
        let results = engine.evaluate_set(&set.queries).unwrap();
        let sizes: Vec<usize> = results.iter().map(|r| r.len()).collect();
        match &reference {
            None => reference = Some(sizes),
            Some(expect) => assert_eq!(expect, &sizes, "strategies must agree"),
        }
        let b = engine.breakdown();
        println!(
            "{:<12} {:>10.3?} {:>14.3?} {:>12.3?} {:>12.3?} {:>12}",
            strategy.to_string(),
            b.total,
            b.shared_data,
            b.pre_join,
            b.remainder(),
            engine.shared_data_pairs()
        );
    }

    let reference = reference.unwrap();
    println!(
        "\nAll strategies returned identical result sets ({} pairs per query: {:?}).",
        reference.iter().sum::<usize>(),
        reference
    );
    println!("Note how RTCSharing's shared_data and pre_join shrink while remainder stays flat —");
    println!("that is exactly the Fig. 11 decomposition from the paper.");
}
