#![warn(missing_docs)]
//! RPQ-based graph reduction and the reduced transitive closure (RTC).
//!
//! Section III of the paper, implemented end to end:
//!
//! * [`edge_level`] — `G → G_R`: map every pair of `R_G` to one unlabeled
//!   edge (Section III-A). By **Lemma 1**, `R⁺_G = TC(G_R)`.
//! * [`tc`] — transitive closure on unlabeled digraphs: the naive
//!   per-vertex BFS (`O(|V_R|·|E_R|)`, what FullSharing must pay) and the
//!   Purdom-style closure of the condensation (ref \[12\]) that builds the
//!   RTC.
//! * [`rtc`] — the [`Rtc`] structure: `TC(Ḡ_R)` plus SCC membership. By
//!   **Lemma 3 / Theorem 1**,
//!   `R⁺_G = ⋃ { s_k × s_l | (s̄_k, s̄_l) ∈ TC(Ḡ_R) }`, which
//!   [`Rtc::expand`] materializes and Algorithm 2 consumes incrementally.
//! * [`full_tc`] — the materialized `R⁺_G` grouped by source vertex: the
//!   heavyweight structure FullSharing \[8\] shares between queries, kept
//!   here as the baseline's data plane.
//!
//! ```
//! use rpq_graph::PairSet;
//! use rpq_reduction::{FullTc, Rtc};
//!
//! // R_G for b·c on the paper's Fig. 1 graph (Example 3).
//! let r_g: PairSet = [(2u32, 4u32), (2, 6), (3, 5), (4, 2), (5, 3)]
//!     .into_iter()
//!     .collect();
//! let rtc = Rtc::from_pairs(&r_g);
//! assert_eq!(rtc.scc_count(), 3);          // Example 5
//! assert_eq!(rtc.closure_pair_count(), 3); // Example 6: |TC(Ḡ)| = 3
//! // Theorem 1: the expansion is the full R⁺_G (10 pairs, Example 4).
//! assert_eq!(rtc.expand().len(), 10);
//! assert_eq!(rtc.expand(), FullTc::from_pairs(&r_g).expand());
//! ```

pub mod edge_level;
pub mod full_tc;
pub mod probe_shim;
pub mod rtc;
pub mod tc;

pub use edge_level::reduce_edge_level;
pub use full_tc::FullTc;
pub use probe_shim::{DynamicRtc, MaintenanceConfig};
pub use rtc::{Rtc, RtcStats};
pub use tc::{closure_of_condensation_rows, tc_naive};
