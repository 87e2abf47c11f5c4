//! Order statistics over latency samples, and the seeded samplers the
//! operation streams are drawn with.

use rand::rngs::StdRng;
use rand::Rng;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1). Empty
/// input reads 0 so a workload that never issues an operation class
/// reports a number, not a panic.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A percentile is only trusted with at least ten samples beyond it
/// (choosing-metrics §1): p95 needs 200 samples, p50 needs 20.
pub fn supports(n: usize, p: f64) -> bool {
    (n as f64) * (1.0 - p) >= 10.0
}

pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.50)
}

/// One measured operation of the timed region.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    /// When it completed, in seconds from the region's start.
    pub at_s: f64,
    /// The measurement (a round-trip in ms).
    pub value: f64,
    /// Bytes of the reply.
    pub bytes: u64,
    /// Sent by a background connection (see `ConnPlan::background`).
    pub background: bool,
}

/// Share of the region's one-second windows that are read.
///
/// The container's cores are shared, and a neighbour's burst slows
/// everything by 20–40 % for seconds at a time; pooled over the whole
/// region such bursts move a rate or a p95 by several percent from run to
/// run. So the region is cut into one-second windows, the third that
/// completed the fewest operations is set aside as disturbed, and every
/// rate and percentile is taken over the samples of the other two thirds
/// (on the seed: run-to-run range of `cold_sets` ops/s 7.6 % → 2.7 %).
/// The same windows serve every metric of a run. A server-side stall
/// would have to recur in fewer than a third of the seconds to hide here;
/// peak memory and the failure count always cover the whole region.
const KEPT_NUM: usize = 2;
const KEPT_DEN: usize = 3;

/// The quieter two thirds of a timed region's one-second windows.
pub struct QuietWindows {
    kept: Vec<bool>,
    seconds: f64,
}

impl QuietWindows {
    /// Chooses by operations completed per window, over every sample of
    /// the region (all classes, all connections).
    pub fn choose<'a>(all: impl Iterator<Item = &'a Sample>, seconds: f64) -> QuietWindows {
        let windows = (seconds.round() as usize).max(1);
        let mut counts = vec![0usize; windows];
        let index = |s: &Sample| ((s.at_s / seconds * windows as f64) as usize).min(windows - 1);
        for s in all {
            counts[index(s)] += 1;
        }
        let mut by_count: Vec<usize> = (0..windows).collect();
        // Stable: equal counts keep the earlier window.
        by_count.sort_by_key(|&w| std::cmp::Reverse(counts[w]));
        let keep = (windows * KEPT_NUM).div_ceil(KEPT_DEN);
        let mut kept = vec![false; windows];
        for &w in &by_count[..keep] {
            kept[w] = true;
        }
        QuietWindows { kept, seconds }
    }

    /// Whether `s` completed in a kept window. The operation in flight at
    /// the deadline completes after it and counts in the last window.
    fn holds(&self, s: &Sample) -> bool {
        let windows = self.kept.len();
        self.kept[((s.at_s / self.seconds * windows as f64) as usize).min(windows - 1)]
    }

    pub fn kept_seconds(&self) -> f64 {
        self.seconds * self.kept.iter().filter(|&&k| k).count() as f64 / self.kept.len() as f64
    }

    /// How many of `samples` completed in kept windows.
    pub fn count<'s>(&self, samples: impl Iterator<Item = &'s Sample>) -> usize {
        samples.filter(|s| self.holds(s)).count()
    }

    /// Kept samples per second of kept time.
    pub fn rate<'s>(&self, samples: impl Iterator<Item = &'s Sample>) -> f64 {
        self.count(samples) as f64 / self.kept_seconds()
    }

    /// Kept reply bytes, in total.
    pub fn bytes<'s>(&self, samples: impl Iterator<Item = &'s Sample>) -> u64 {
        samples.filter(|s| self.holds(s)).map(|s| s.bytes).sum()
    }

    /// The `p`-th percentile of the kept samples' values, and how many
    /// samples it rests on.
    pub fn percentile<'s>(
        &self,
        samples: impl Iterator<Item = &'s Sample>,
        p: f64,
    ) -> (f64, usize) {
        let mut values: Vec<f64> = samples.filter(|s| self.holds(s)).map(|s| s.value).collect();
        values.sort_by(f64::total_cmp);
        (percentile(&values, p), values.len())
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight `1/(k+1)^s`.
/// The CDF is tabulated once; a draw is one uniform and a binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs a non-empty support");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Derives an independent stream seed from the run seed and a purpose
/// tag (SplitMix64 finalizer), so the graph, the query pool and each
/// connection's stream never share a generator.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        assert!(!supports(199, 0.95));
        assert!(supports(200, 0.95));
        assert!(!supports(19, 0.50));
        assert!(supports(20, 0.50));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quiet_windows_set_the_disturbed_third_aside() {
        // Six one-second windows, ten operations each at 10 ms — except
        // windows 2 and 3, where a burst lets only four through at 50 ms.
        let mut samples = Vec::new();
        for w in 0..6 {
            let (n, value) = if w == 2 || w == 3 {
                (4, 50.0)
            } else {
                (10, 10.0)
            };
            for i in 0..n {
                samples.push(Sample {
                    at_s: w as f64 + (i as f64 + 0.5) / n as f64,
                    value,
                    bytes: 100,
                    background: false,
                });
            }
        }
        let quiet = QuietWindows::choose(samples.iter(), 6.0);
        assert_eq!(quiet.kept, [true, true, false, false, true, true]);
        assert_eq!(quiet.percentile(samples.iter(), 0.95), (10.0, 40));
        assert_eq!(quiet.rate(samples.iter()), 10.0);
        assert_eq!(quiet.bytes(samples.iter()), 4000);
        assert_eq!(quiet.kept_seconds(), 4.0);
        // Pooled, the same burst owns the tail.
        let mut pooled: Vec<f64> = samples.iter().map(|s| s.value).collect();
        pooled.sort_by(f64::total_cmp);
        assert_eq!(percentile(&pooled, 0.95), 50.0);
    }

    #[test]
    fn quiet_windows_edge_cases() {
        // The operation in flight at the deadline lands in the last window.
        let late = [Sample {
            at_s: 3.4,
            value: 1.0,
            ..Sample::default()
        }];
        let quiet = QuietWindows::choose(late.iter(), 3.0);
        assert_eq!(
            quiet.kept,
            [true, false, true],
            "ties keep the earlier window"
        );
        assert_eq!(quiet.percentile(late.iter(), 0.5), (1.0, 1));
        // No samples at all: zeros, not a panic.
        let none = QuietWindows::choose(std::iter::empty(), 0.4);
        assert_eq!(none.percentile(std::iter::empty(), 0.95), (0.0, 0));
        assert_eq!(none.rate(std::iter::empty()), 0.0);
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let z = Zipf::new(400, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..2000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "equal seeds give equal streams");
        assert_ne!(a, draw(8), "different seeds give different streams");
        assert!(a.iter().all(|&k| k < 400));
        // Zipf(1) over 400 ranks puts ~15 % of the mass on rank 0 and
        // ~45 % on the first ten.
        let head = a.iter().filter(|&&k| k == 0).count() as f64 / a.len() as f64;
        let top10 = a.iter().filter(|&&k| k < 10).count() as f64 / a.len() as f64;
        assert!((0.11..0.20).contains(&head), "rank-0 share {head}");
        assert!((0.38..0.52).contains(&top10), "top-10 share {top10}");
    }

    #[test]
    fn sub_seeds_differ_by_tag_and_seed() {
        assert_ne!(sub_seed(1, 0), sub_seed(1, 1));
        assert_ne!(sub_seed(1, 0), sub_seed(2, 0));
        assert_eq!(sub_seed(9, 3), sub_seed(9, 3));
    }
}
