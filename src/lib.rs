#![warn(missing_docs)]
//! # rtc-rpq
//!
//! A Rust implementation of **"Regular Path Query Evaluation Sharing a
//! Reduced Transitive Closure Based on Graph Reduction"** (Na, Moon, Yi,
//! Whang, Hyun — ICDE 2022).
//!
//! This facade crate re-exports the whole workspace API:
//!
//! * [`graph`] — labeled multigraphs, CSR digraphs, SCCs, condensations.
//! * [`regex`] — the RPQ expression language, parser, DNF, decomposition.
//! * [`automata`] — the Glushkov automaton and a derivative reference matcher.
//! * [`eval`] — single-RPQ product-graph evaluation (the NoSharing method).
//! * [`reduction`] — RPQ-based graph reduction and the RTC.
//! * [`core`] — the `Engine` with the RTCSharing / FullSharing / NoSharing
//!   strategies.
//! * [`datasets`] — RMAT generators, real-dataset surrogates, workloads.
//! * [`server`] — the serving front-end: CLI REPL, line-delimited TCP
//!   protocol, and snapshot warm restarts over a long-lived `Engine`.
//!
//! ## Quickstart
//!
//! ```
//! use rtc_rpq::prelude::*;
//!
//! // Build the paper's Fig. 1 graph.
//! let g = rtc_rpq::graph::fixtures::paper_graph();
//!
//! // Evaluate the RPQ of Example 1: d·(b·c)+·c.
//! let mut engine = Engine::new(&g);
//! let q = Regex::parse("d.(b.c)+.c").unwrap();
//! let result = engine.evaluate(&q).unwrap();
//!
//! assert_eq!(result.len(), 2); // {(v7,v5), (v7,v3)}
//! assert!(result.contains(VertexId(7), VertexId(5)));
//! assert!(result.contains(VertexId(7), VertexId(3)));
//! ```

pub use rpq_automata as automata;
pub use rpq_core as core;
pub use rpq_datasets as datasets;
pub use rpq_eval as eval;
pub use rpq_graph as graph;
pub use rpq_reduction as reduction;
pub use rpq_regex as regex;
pub use rpq_server as server;

/// Convenience re-exports for typical use.
pub mod prelude {
    pub use rpq_core::{explain, explain_set, Engine, EngineConfig, QueryPlan, Strategy};
    pub use rpq_eval::{find_witness, format_witness, WitnessStep};
    pub use rpq_graph::{GraphBuilder, LabeledMultigraph, PairSet, VertexId};
    pub use rpq_regex::Regex;
}
