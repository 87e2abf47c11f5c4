//! The names the benchmark harness's trace probe calls for a stale RTC
//! (`benchmark/src/trace.rs`: `DynamicRtc::from_rtc`, `apply`, `snapshot`,
//! and `EngineConfig::maintenance`). Nothing in `crates/` calls them: the
//! engine refreshes a stale RTC by rebuilding it as a miss does, and this
//! stand-in rebuilds it from its new `R_G`. It goes when the probe names are released
//! (ROADMAP 4g).

use crate::rtc::Rtc;
use rpq_graph::{PairSet, VertexId};

/// What `EngineConfig::maintenance` holds: there is nothing left to tune.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceConfig;

/// An [`Rtc`] with the `R_G` it was built from.
#[derive(Clone)]
pub struct DynamicRtc {
    r_g: PairSet,
    rtc: Rtc,
}

impl DynamicRtc {
    /// Pairs `rtc` with the relation it was built from.
    pub fn from_rtc(rtc: &Rtc, r_g: &PairSet) -> DynamicRtc {
        DynamicRtc {
            r_g: r_g.clone(),
            rtc: rtc.clone(),
        }
    }

    /// Removes `deletes` from `R_G`, adds `inserts`, and rebuilds the RTC.
    pub fn apply(
        &mut self,
        inserts: &[(VertexId, VertexId)],
        deletes: &[(VertexId, VertexId)],
        _: &MaintenanceConfig,
    ) {
        let kept = self.r_g.difference(&PairSet::from_pairs(deletes.to_vec()));
        self.r_g = kept.union(&PairSet::from_pairs(inserts.to_vec()));
        self.rtc = Rtc::from_pairs(&self.r_g);
    }

    /// The current RTC.
    pub fn snapshot(&self) -> Rtc {
        self.rtc.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_rebuilds_the_moved_relation() {
        let r_g: PairSet = [(2u32, 4u32), (2, 6), (3, 5), (4, 2), (5, 3)]
            .into_iter()
            .collect();
        let moved: PairSet = [(2u32, 4u32), (2, 6), (4, 2), (5, 3), (6, 2)]
            .into_iter()
            .collect();
        let (ins, del) = ([(VertexId(6), VertexId(2))], [(VertexId(3), VertexId(5))]);
        let mut dynamic = DynamicRtc::from_rtc(&Rtc::from_pairs(&r_g), &r_g);
        dynamic.apply(&ins, &del, &MaintenanceConfig);
        let (snap, fresh) = (dynamic.snapshot(), Rtc::from_pairs(&moved));
        assert_eq!(snap.expand(), fresh.expand());
        assert_eq!(snap.stats(), fresh.stats());
        assert_eq!(snap.dense_closure_rows(), fresh.dense_closure_rows());
    }
}
