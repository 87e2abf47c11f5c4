#![warn(missing_docs)]
//! The RTCSharing engine — the paper's primary contribution.
//!
//! [`Engine`] evaluates (multiple) regular path queries over a
//! [`rpq_graph::LabeledMultigraph`] under one of three strategies
//! (Section V's comparison set):
//!
//! * [`Strategy::RtcSharing`] — Algorithm 1: DNF with outermost closures as
//!   literals, batch units `Pre·R^(+|*)·Post`, a **reduced transitive
//!   closure** shared across batch units and queries, and the optimized
//!   [`batch_unit`] evaluation (Algorithm 2) that eliminates *useless-1/2*
//!   and *redundant-1/2* operations.
//! * [`Strategy::FullSharing`] — Abul-Basher \[8\]: the same recursion but
//!   sharing the materialized `R⁺_G` and joining it directly (incurring the
//!   redundant/useless operations).
//! * [`Strategy::NoSharing`] — Yakovets et al. \[5\]: each query evaluated
//!   independently by automaton product traversal; nothing shared.
//!
//! Per-stage timings ([`Breakdown`]: `Shared_Data`, `Pre⋈R⁺`, `Remainder`)
//! and operation counters ([`EliminationStats`]) expose exactly the
//! quantities the paper's Figures 10–15 plot.

pub mod batch_unit;
pub mod breakdown;
pub mod cache;
pub mod engine;
pub mod error;
pub mod explain;
pub mod pre_relation;
pub mod sharing;
pub mod snapshot;
pub mod view;

pub use batch_unit::{eval_batch_unit_full, eval_batch_unit_rtc};
pub use breakdown::{Breakdown, EliminationStats, MaintenanceMetrics};
pub use cache::{
    CacheBudget, EpochPin, EvictionCounters, Footprint, FreshEntry, KindTotals, Lookup, Shared,
    SharedCache, SharingKind,
};
pub use engine::{Engine, EngineConfig, PrepareReport, Strategy};
pub use error::EngineError;
pub use explain::{
    explain, explain_set, explain_set_with_limit, explain_with_limit, ClausePlan, QueryPlan,
    SetPlan,
};
pub use pre_relation::PreRelation;
pub use view::EpochView;
