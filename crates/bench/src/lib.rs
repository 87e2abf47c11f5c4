#![warn(missing_docs)]
//! Experiment harness regenerating the paper's evaluation (Section V).
//!
//! The [`profiles`] module defines three experiment scales (`fast`,
//! `default`, `paper`); [`datasets`] builds the synthetic degree sweep and
//! the real-dataset surrogates for a profile; [`runner`] executes a
//! multiple-RPQ set under each strategy and captures the metrics the
//! figures plot; [`experiments`] assembles those metrics into the exact
//! rows/series of TABLE IV and Figs. 10–15; [`table`] renders aligned text
//! and JSON.
//!
//! Every set is evaluated as the paper does, one query after another on
//! one thread, so a set's three-part breakdown (Figs. 11 and 15) splits
//! one wall clock: `Shared_Data` and `Pre⋈R⁺` are parts of it, and the
//! remainder is the rest.
//!
//! The `experiments` binary (`cargo run -p rpq_bench --release --bin
//! experiments -- all`) drives everything.

pub mod ablation;
pub mod datasets;
pub mod experiments;
pub mod profiles;
pub mod runner;
pub mod table;

pub use profiles::Profile;
pub use runner::{run_all_strategies, run_query_set, RunMetrics};
