#![warn(missing_docs)]
//! Dataset substrate for the evaluation (Section V-A).
//!
//! The paper experiments on synthetic R-MAT graphs generated with TrillionG
//! \[18\] and four real datasets (TABLE IV). Neither TrillionG nor the real
//! downloads are available here, so this crate builds the closest synthetic
//! equivalents (see `DESIGN.md` §4 for the substitution argument):
//!
//! * [`rmat`] — an R-MAT \[17\] edge sampler with the standard skew
//!   parameters, uniform random edge labels and deterministic seeding.
//!   `rmat_n(N)` reproduces the paper's `RMAT_N` family: `2^13` vertices,
//!   `2^(N+13)` edges, 4 labels ⇒ per-label degree `2^(N-2)`.
//! * [`surrogate`] — generators matching the exact `|V|, |E|, |Σ|` rows of
//!   TABLE IV for Robots, Advogato, Youtube_Sampled, and a scaled Yago2s.
//! * [`workload`] — the multiple-RPQ sets of Section V-A: a shared closure
//!   body `R` (1–3 concatenated labels) wrapped in per-query
//!   `Pre·R⁺·Post` with single-label Pre/Post; larger sets contain smaller
//!   ones.
//! * [`structured`] — generators with a controlled SCC structure (cycle
//!   clusters, paths, uniform random), the knob behind the
//!   `scc_sensitivity` ablation.
//! * [`io`] — a plain-text edge-list format for persisting datasets.
//! * [`dynamic`] — interleaved update/query streams ([`GraphDelta`]
//!   batches) for exercising `Engine::apply_delta` and the refresh of
//!   stale shared structures.
//!
//! [`GraphDelta`]: rpq_graph::GraphDelta
//!
//! ```
//! use rpq_datasets::rmat::rmat_n_scaled;
//! use rpq_datasets::workload::{alphabet_of, generate_workload, WorkloadConfig};
//!
//! let g = rmat_n_scaled(3, 8, 42); // 256 vertices, per-label degree 2
//! assert_eq!(g.vertex_count(), 256);
//! let sets = generate_workload(&alphabet_of(&g), &WorkloadConfig::default());
//! assert_eq!(sets.len(), 30); // 10 Rs per length, lengths 1–3
//! ```

pub mod dynamic;
pub mod io;
pub mod rmat;
pub mod structured;
pub mod surrogate;
pub mod workload;

pub use dynamic::{generate_dynamic_workload, DynamicStep, DynamicWorkload, DynamicWorkloadConfig};
pub use rmat::{rmat_graph, rmat_n, RmatConfig};
pub use structured::{cycle_clusters, cycle_graph, erdos_renyi, path_graph, CycleClusterConfig};
pub use surrogate::{
    advogato_like, advogato_like_scaled, robots_like, yago2s_like, youtube_like,
    youtube_like_scaled, SurrogateSpec,
};
pub use workload::{generate_workload, MultiQuerySet, WorkloadConfig};
