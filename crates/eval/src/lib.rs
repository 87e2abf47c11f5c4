#![warn(missing_docs)]
//! Single-RPQ evaluation.
//!
//! This crate implements the evaluation methods of Section II-B:
//!
//! * [`product::ProductEvaluator`] — the automaton-based method of Yakovets
//!   et al. \[5\]: traverse the graph from each candidate start vertex while
//!   stepping a finite automaton, terminating a branch when the
//!   `(vertex, state)` pair was already visited from the same source
//!   (Example 2's duplicate-avoidance rule). Its one BFS loop serves the
//!   **NoSharing** baseline, `ends` reads and `check`'s shortest witness.
//! * [`label_seq`] — `EvalRPQwithoutKC`: closure-free clauses, closure
//!   bodies `R_G` and prefixes `Pre_G` by per-start label-edge joins. Its
//!   [`LabelPath`] is the one walk of a vertex set along a label path: the
//!   join's suffix rows and Algorithm 2's `EvalRestrictedRPQ(Post, v)` (the
//!   batch units' Post stage in `rpq_core`) both take it.
//! * [`algebraic`] — an independent relational-algebra evaluator (structural
//!   recursion with semi-naive closure fixpoints). It shares no code with
//!   the automaton path and serves as the *oracle* for every randomized
//!   equivalence test in the workspace.
//! * [`witness`] — a witness path's steps (found by [`find_witness`]) and
//!   their rendering in the paper's notation.
//!
//! ```
//! use rpq_eval::ProductEvaluator;
//! use rpq_graph::fixtures::paper_graph;
//! use rpq_regex::Regex;
//!
//! let g = paper_graph();
//! let ev = ProductEvaluator::new(&g, &Regex::parse("d.(b.c)+.c").unwrap());
//! let result = ev.evaluate(); // Example 1: {(v7,v5), (v7,v3)}
//! assert_eq!(result.len(), 2);
//! ```

pub mod algebraic;
pub mod label_seq;
pub mod product;
pub mod witness;

pub use algebraic::evaluate_algebraic;
pub use label_seq::{eval_label_names, eval_label_sequence, LabelPath};
pub use product::{find_witness, ProductEvaluator};
pub use witness::{format_witness, WitnessStep};
