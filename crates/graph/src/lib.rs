#![warn(missing_docs)]
//! Graph substrate for the RTC-RPQ engine.
//!
//! This crate provides every graph-shaped building block the paper's
//! pipeline needs, built from scratch:
//!
//! * [`LabeledMultigraph`] — the data model of Section II-A: an
//!   edge-labeled, directed multigraph where parallel edges between an
//!   ordered vertex pair must carry distinct labels.
//! * [`Digraph`] — an unlabeled simple digraph in CSR form; the result of
//!   edge-level reduction (`G_R`) and the condensation (`Ḡ_R`) are both
//!   stored as `Digraph`s.
//! * [`Scc`] / [`tarjan_scc`] — iterative Tarjan strongly-connected-component
//!   decomposition (the paper's vertex-level reduction driver, ref. \[14\]).
//! * [`Condensation`] — `Ḡ_R` with the self-loop bookkeeping that Kleene
//!   plus semantics require.
//! * [`PairSet`] — the canonical set-of-vertex-pairs relation used for every
//!   `R_G` result.
//!
//! Everything is index-based (`u32` ids wrapped in newtypes) and allocation
//! conscious: adjacency is CSR, and every visited or duplicate check uses
//! one scratch id set, [`Cover`] (bitset words that empty over the words
//! they set), instead of hash sets.

pub mod bfs;
pub mod condensation;
pub mod csr;
pub mod digraph;
pub mod error;
pub mod fixtures;
pub mod ids;
pub mod label_dict;
pub mod multigraph;
pub mod pairset;
pub mod rowset;
pub mod scc;
pub mod snapshot;
pub mod stats;
pub mod versioned;

pub use condensation::Condensation;
pub use csr::Csr;
pub use digraph::{Digraph, MappedDigraph, VertexMapping};
pub use error::GraphError;
pub use ids::{LabelId, SccId, VertexId, MAX_VERTICES};
pub use label_dict::LabelDict;
pub use multigraph::{GraphBuilder, LabeledMultigraph};
pub use pairset::{Ends, PairSet};
pub use rowset::{Cover, RowSet, RowSetPolicy, RowTable};
pub use scc::{tarjan_components, tarjan_scc, Scc};
pub use stats::GraphStats;
pub use versioned::{DeltaSummary, GraphDelta, GraphView, VersionedGraph};
