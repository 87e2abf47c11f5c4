//! Per-stage timing and operation-elimination accounting.
//!
//! Section V-B splits query response time into three parts and compares
//! them between FullSharing and RTCSharing:
//!
//! * **`Shared_Data`** — building the shared structure (`R̄⁺_G` for RTC,
//!   `R⁺_G` for Full). Where it is built *from `R_G`* — every full
//!   closure, and an RTC whose body nests a closure — evaluating `R_G` is
//!   excluded here (it lands in the remainder). A closure-free body's RTC
//!   is built from the product of the graph and the body, with no `R_G`,
//!   so all of that build is shared data.
//! * **`Pre⋈R⁺`** — the join of `Pre_G` with the shared structure
//!   (Algorithm 2 lines 4–12), where the useless/redundant eliminations
//!   act.
//! * **`Remainder`** — everything else: evaluating `Pre_G` and any
//!   `R_G`, the `Post` stage, DNF conversion and result unions. Computed as
//!   `total − shared_data − pre_join`, where `total` is the wall-clock
//!   response time, so nothing can be double-counted across the recursion.

use std::fmt;
use std::ops::AddAssign;
use std::time::Duration;

/// Accumulated per-stage wall-clock times.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Time building the shared structures (any `R_G` they were built
    /// from excluded).
    pub shared_data: Duration,
    /// Time joining `Pre_G` with the shared closure.
    pub pre_join: Duration,
    /// Total wall-clock query response time.
    pub total: Duration,
}

impl Breakdown {
    /// `Remainder`: total minus the two instrumented stages (saturating, in
    /// case timer granularity makes the parts exceed the whole).
    pub fn remainder(&self) -> Duration {
        self.total
            .saturating_sub(self.shared_data)
            .saturating_sub(self.pre_join)
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Breakdown) {
        self.shared_data += rhs.shared_data;
        self.pre_join += rhs.pre_join;
        self.total += rhs.total;
    }
}

impl fmt::Display for Breakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shared_data={:?} pre_join={:?} remainder={:?} total={:?}",
            self.shared_data,
            self.pre_join,
            self.remainder(),
            self.total
        )
    }
}

/// Counters making the four operation-elimination rules observable.
///
/// For RTCSharing these count *avoided* work; for FullSharing the
/// corresponding counter records *incurred* duplicate work, so tests can
/// assert the asymmetry the paper claims.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EliminationStats {
    /// `Pre_G` tuples whose end vertex lies outside `V_R` — the closure is
    /// never expanded for them (*useless-1* elimination).
    pub useless1_skipped: u64,
    /// `Pre_G` tuples collapsing onto an already-seen `(v_i, s_j)` pair
    /// (*redundant-1* elimination; Algorithm 2 line 6).
    pub redundant1_skipped: u64,
    /// Closure successors collapsing onto an already-seen `(v_i, s_k)` pair
    /// (*redundant-2* elimination; Algorithm 2 line 9).
    pub redundant2_skipped: u64,
    /// Member-expansion inserts performed **without** a duplicate check
    /// (*useless-2* elimination; Algorithm 2 line 12).
    pub useless2_unchecked_inserts: u64,
    /// FullSharing only: successor inserts that hit the duplicate check —
    /// the redundant operations RTCSharing structurally avoids.
    pub full_duplicate_hits: u64,
}

impl AddAssign for EliminationStats {
    fn add_assign(&mut self, rhs: EliminationStats) {
        self.useless1_skipped += rhs.useless1_skipped;
        self.redundant1_skipped += rhs.redundant1_skipped;
        self.redundant2_skipped += rhs.redundant2_skipped;
        self.useless2_unchecked_inserts += rhs.useless2_unchecked_inserts;
        self.full_duplicate_hits += rhs.full_duplicate_hits;
    }
}

/// Accounting for the dynamic-graph refresh paths: how stale shared
/// structures were brought up to the current graph epoch, and what it
/// cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceMetrics {
    /// `Engine::apply_delta` calls absorbed.
    pub deltas_applied: u64,
    /// Stale entries whose body's footprint (the edge rows of its labels,
    /// and the vertex count if it is nullable) had not moved — the entry
    /// was re-stamped without touching the structure.
    pub unchanged_refreshes: u64,
    /// Stale entries whose footprint moved, rebuilt as a miss is.
    pub rebuild_refreshes: u64,
    /// Wall-clock time in rebuild refreshes.
    pub rebuild_time: Duration,
}

impl AddAssign for MaintenanceMetrics {
    fn add_assign(&mut self, rhs: MaintenanceMetrics) {
        self.deltas_applied += rhs.deltas_applied;
        self.unchanged_refreshes += rhs.unchanged_refreshes;
        self.rebuild_refreshes += rhs.rebuild_refreshes;
        self.rebuild_time += rhs.rebuild_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maintenance_metrics_accumulate() {
        let m = MaintenanceMetrics {
            deltas_applied: 1,
            unchanged_refreshes: 2,
            rebuild_refreshes: 4,
            rebuild_time: Duration::from_millis(6),
        };
        let mut sum = MaintenanceMetrics::default();
        sum += m;
        sum += m;
        assert_eq!(sum.unchanged_refreshes + sum.rebuild_refreshes, 12);
        assert_eq!(sum.rebuild_time, Duration::from_millis(12));
    }

    #[test]
    fn breakdown_remainder_accumulates() {
        let b = Breakdown {
            shared_data: Duration::from_millis(2),
            pre_join: Duration::from_millis(3),
            total: Duration::from_millis(10),
        };
        assert_eq!(b.remainder(), Duration::from_millis(5));
        let mut sum = Breakdown::default();
        sum += b;
        sum += b;
        assert_eq!(sum.total, Duration::from_millis(20));
        assert_eq!(sum.remainder(), Duration::from_millis(10));
    }

    #[test]
    fn remainder_saturates() {
        let b = Breakdown {
            shared_data: Duration::from_millis(8),
            pre_join: Duration::from_millis(8),
            total: Duration::from_millis(10),
        };
        assert_eq!(b.remainder(), Duration::ZERO);
    }

    #[test]
    fn elimination_stats_accumulate() {
        let a = EliminationStats {
            useless1_skipped: 1,
            redundant1_skipped: 2,
            redundant2_skipped: 3,
            useless2_unchecked_inserts: 4,
            full_duplicate_hits: 5,
        };
        let mut sum = EliminationStats::default();
        sum += a;
        sum += a;
        assert_eq!(sum.redundant2_skipped, 6);
        assert_eq!(sum.full_duplicate_hits, 10);
    }

    #[test]
    fn breakdown_display() {
        let b = Breakdown::default();
        let s = b.to_string();
        assert!(s.contains("shared_data"));
        assert!(s.contains("total"));
    }
}
