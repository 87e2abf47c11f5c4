//! Eviction correctness under cache budgets.
//!
//! Budgeted engines are driven with deliberately tiny budgets so eviction
//! churns on nearly every operation, and four invariants are checked:
//!
//! 1. **Answers never change.** Every read, live or through a view held
//!    across deltas, equals the harness reference at its epoch
//!    (`rpq_testkit::run`) — eviction may cost rebuild time, never correctness.
//! 2. **The budget holds, over both tiers.** After any public call made
//!    while no pin is held, structures plus memoized results stay within
//!    `max_bytes`/`max_entries` (pinned epochs may park the structural
//!    instance over budget and are tested separately); and always, pins or
//!    not, the result instance alone stays within the budget minus what
//!    the structures hold — results make room, structures never do.
//! 3. **Pins win.** Structures referenced by a live `EpochView` survive
//!    eviction pressure at newer epochs, and time-travel evaluation at
//!    the pinned epoch still answers from them (`Fresh`, not a rebuild).
//! 4. **Dead epochs hold nothing.** After every delta the result instance
//!    holds at most the results a still-held view asked for; a result such
//!    a view can reach is never dropped for unreachability.

use rpq_testkit::{q, run, scenario, Axes, Probe, Reader, Shape, Step};
use rtc_rpq::core::{CacheBudget, EpochView, Lookup, SharingKind, Strategy};
use std::collections::{HashMap, HashSet};

/// What invariants 2 and 4 remember across the steps of one replay.
#[derive(Default)]
struct Ledger {
    /// Every (epoch, canonical query) a view memoized so far.
    asked: HashSet<(u64, String)>,
    /// Per (held view, canonical query): budget evictions from the view's
    /// result instance just before the call that last memoized it.
    /// Unchanged since means the entry cannot have been evicted, not even by
    /// its own insert.
    memoized_at: HashMap<(usize, String), u64>,
    /// Per held view: hits, misses and budget evictions of the result
    /// instance it reads, after the last step. A view held across a
    /// `Restart` keeps reading the old engine's instance.
    before: HashMap<usize, (u64, u64, u64)>,
}

/// Hits, misses and budget evictions of the result instance `view` reads.
fn result_tier(view: &EpochView) -> (u64, u64, u64) {
    let r = view.results();
    let ev = r.eviction_counters();
    (r.hits(), r.misses(), ev.by_bytes + ev.by_entries)
}

impl Ledger {
    fn check(&mut self, p: &Probe) {
        if p.index == 0 {
            *self = Ledger::default();
        }
        let (c, r) = (p.engine.cache(), p.engine.results());
        let budget = p.engine.config().cache_budget;
        let (max_bytes, max_entries) = (budget.max_bytes.unwrap(), budget.max_entries.unwrap());
        if let Some(v) = p.view {
            for q in p.step.queries() {
                self.asked.insert((v.epoch(), q.canonical_key()));
            }
        }
        let held = |e: u64| p.held.iter().flatten().any(|v| v.epoch() == e);
        match p.step {
            // Re-asking a still-held view: reachability never drops a
            // reachable result, so unless the budget took it this is a hit.
            Step::Ask(k, q) if !p.answers.is_empty() => {
                let (hits, misses, evictions) = self.before[k];
                if self.memoized_at.insert((*k, q.canonical_key()), evictions) == Some(evictions) {
                    let (now_hits, now_misses, _) = result_tier(p.view.expect("view answered"));
                    assert_eq!((now_hits, now_misses), (hits + 1, misses), "{}", p.step);
                }
            }
            // Only results of held epochs survive a delta (the new live
            // epoch has none yet).
            Step::Delta(..) => {
                let reachable = self.asked.iter().filter(|(e, _)| held(*e)).count();
                let kept = r.occupancy_entries();
                assert!(kept <= reachable, "{kept} held, {reachable} reachable");
            }
            _ => {}
        }
        // Results only ever get what the structures leave…
        let (rb, cb) = (r.occupancy_bytes(), c.occupancy_bytes());
        assert!(rb <= max_bytes.saturating_sub(cb), "{rb} B beside {cb} B");
        let (re, ce) = (r.occupancy_entries(), c.occupancy_entries());
        assert!(re <= max_entries.saturating_sub(ce), "{re} beside {ce}");
        // …and a pin may park the structures over budget; the sum must hold
        // again once every view is gone and it is re-settled.
        if p.held.iter().all(Option::is_none) && p.view.is_none() {
            c.enforce_budget();
            assert!(c.occupancy_bytes() + r.occupancy_bytes() <= max_bytes);
            assert!(c.occupancy_entries() + r.occupancy_entries() <= max_entries);
        }
        let views = p.held.iter().enumerate();
        let views = views.filter_map(|(k, v)| Some((k, result_tier(v.as_ref()?))));
        self.before = views.collect();
    }
}

/// Invariants 1 + 2 + 4: a budgeted engine answers like the reference —
/// live, through a view pinned per read, and through views held across
/// deltas — its occupancy respects the budget after every step, whichever
/// structure kind the budget is evicting, and the result instance holds
/// what a held view can still ask for and nothing else.
#[test]
fn bounded_engines_answer_like_unbounded_ones() {
    // One entry: any second closure body evicts the first, so the
    // scenarios really do evict and rebuild both kinds — and a structure
    // leaves results no room. Four: both tiers share the account and both
    // churn.
    let budgets = ["bytes=4k,entries=1", "bytes=4k,entries=4"].map(CacheBudget::parse);
    let axes = Axes::default().budget(&budgets.map(Option::unwrap));
    let axes = axes.strategy(&[Strategy::RtcSharing, Strategy::FullSharing]);
    let axes = axes.reader(&[Reader::Live, Reader::Pinned]);
    let mut ledger = Ledger::default();
    for seed in 0..12 {
        let s = scenario(0xE71C + seed, Shape::Uniform);
        run(&s, &axes, |p| ledger.check(p));
    }
}

/// Invariant 3: a pinned epoch's structures survive churn at newer
/// epochs, and evaluating on the view still answers from the cache.
#[test]
fn pinned_views_survive_eviction_pressure() {
    // Two queries sharing one outermost closure: warming the first caches
    // the closure's RTC; the probe can only answer without a miss from
    // that same entry. One entry of headroom: every later insert forces an
    // eviction decision, and only the pin protects the view's structure.
    let key = q("a.b").canonical_key();
    let axes = Axes::default().budget(&[CacheBudget::parse("entries=1").unwrap()]);
    for seed in 0..48 {
        // The churn: a generated scenario's queries and deltas.
        let mut s = scenario(0x9177 + seed, Shape::Uniform);
        let steps = &mut s.steps;
        steps.retain(|st| matches!(st, Step::Query(_) | Step::Delta(..)));
        steps.splice(0..0, [Step::Query(q("c.(a.b)+")), Step::Pin]);
        steps.extend([Step::Ask(0, q("(a.b)+.d")), Step::Unpin(0)]);
        let mut before = (0, 0);
        run(&s, &axes, |p| {
            let c = p.engine.cache();
            let (misses, hits) = if p.index == 0 { (0, 0) } else { before };
            match p.step {
                Step::Pin => {
                    let fresh = c.lookup(SharingKind::Rtc, &key, p.engine.epoch());
                    assert!(matches!(fresh, Lookup::Fresh(_)));
                }
                // The pinned structure was still resident at its epoch and
                // time travel answered from it, a hit and no rebuild.
                Step::Ask(..) => {
                    assert_eq!(c.misses(), misses, "pinned RTC '{key}' was evicted");
                    assert!(c.hits() > hits);
                }
                // Once the view drops, the pin releases and pressure
                // reclaims the old epoch's entries again.
                Step::Unpin(_) => {
                    c.enforce_budget();
                    assert!(c.occupancy_entries() <= 1);
                }
                _ => {}
            }
            before = (c.misses(), c.hits());
        });
    }
}
