//! Reads the server's own counters out of its `metrics` and `cache`
//! replies. The lines are hand-formatted text that a later change may
//! reword, so every reading is an `Option`: a missing or reworded line
//! gives `None` (reported as `null`), never an error.

/// The payload line whose trimmed text starts with `prefix`, without it.
fn line<'a>(lines: &'a [String], prefix: &str) -> Option<&'a str> {
    lines
        .iter()
        .find_map(|l| l.trim_start().strip_prefix(prefix))
}

/// The value of `key=value` in `text` (value ends at whitespace, `,` or `)`).
fn value_of<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("{key}=");
    let start = text.match_indices(&needle).map(|(i, _)| i).find(|&i| {
        i == 0 || !text.as_bytes()[i - 1].is_ascii_alphanumeric() && text.as_bytes()[i - 1] != b'_'
    })? + needle.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| c.is_whitespace() || c == ',' || c == ')')
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// The number written directly before `phrase` (`12 view hits` → 12).
fn number_before(text: &str, phrase: &str) -> Option<f64> {
    let head = &text[..text.find(phrase)?];
    head.trim_end()
        .rsplit(|c: char| c.is_whitespace() || c == '(')
        .next()?
        .parse()
        .ok()
}

/// Seconds in a `Duration` debug rendering (`35.26µs`, `1.20ms`, `2.00s`).
fn seconds(token: &str) -> Option<f64> {
    let split = token.find(|c: char| !(c.is_ascii_digit() || c == '.'))?;
    let value: f64 = token[..split].parse().ok()?;
    let scale = match &token[split..] {
        "ns" => 1e-9,
        "µs" | "us" => 1e-6,
        "ms" => 1e-3,
        "s" => 1.0,
        _ => return None,
    };
    Some(value * scale)
}

fn ratio(part: Option<f64>, whole: Option<f64>) -> Option<f64> {
    match (part?, whole?) {
        // Nothing counted yet: the ratio exists and is zero.
        (_, 0.0) => Some(0.0),
        (p, w) => Some(p / w),
    }
}

fn sum(parts: &[Option<f64>]) -> Option<f64> {
    parts.iter().try_fold(0.0, |acc, p| Some(acc + (*p)?))
}

/// Every scraped per-layer metric, by the name `BENCHMARK.json` lists.
pub fn layer_metrics(metrics: &[String], cache: &[String]) -> Vec<(&'static str, Option<f64>)> {
    let breakdown = line(metrics, "breakdown:");
    let part = |key| breakdown.and_then(|l| value_of(l, key)).and_then(seconds);
    let total = part("total");

    let maintenance = line(metrics, "maintenance:");
    let count = |key| {
        maintenance
            .and_then(|l| value_of(l, key))
            .and_then(|v| v.parse::<f64>().ok())
    };
    let (incremental, rebuild) = (count("incremental"), count("rebuild"));

    let results = line(cache, "results:");
    let result = |phrase| results.and_then(|l| number_before(l, phrase));
    let result_lookups = sum(&[result("view hits"), result("result misses")]);

    let lookups = line(cache, "lookups:");
    let lookup = |phrase| lookups.and_then(|l| number_before(l, phrase));
    // Fresh hits are read from the first comma field only: "hits" also ends
    // the later "stale hits" phrase.
    let (hits, misses, stale) = (
        lookups
            .and_then(|l| l.split(',').next())
            .and_then(|first| number_before(first, "hits")),
        lookup("misses"),
        lookup("stale hits"),
    );
    let structural_lookups = sum(&[hits, misses, stale]);

    let evictions = line(cache, "evictions:").and_then(|l| number_before(l, "total"));
    let occupancy = line(cache, "budget:").and_then(|l| number_before(l, "B,"));
    let publish = line(metrics, "serving:")
        .and_then(|l| l.split("mean ").nth(1))
        .and_then(|rest| rest.split(')').next())
        .and_then(seconds);

    let per_kop = |events: Option<f64>, ops: Option<f64>| ratio(events, ops).map(|r| r * 1000.0);
    vec![
        (
            "reduction.incremental_ratio",
            ratio(incremental, sum(&[incremental, rebuild])),
        ),
        (
            "core.result_cache.hit_ratio",
            ratio(result("view hits"), result_lookups),
        ),
        (
            "core.result_cache.evictions_per_kop",
            per_kop(result("evicted"), result_lookups),
        ),
        ("core.result_cache.entries", result("memoized")),
        ("core.cache.hit_ratio", ratio(hits, structural_lookups)),
        ("core.cache.stale_ratio", ratio(stale, structural_lookups)),
        (
            "core.cache.evictions_per_kop",
            per_kop(evictions, structural_lookups),
        ),
        ("core.cache.occupancy_bytes", occupancy),
        (
            "core.breakdown.shared_data_share",
            ratio(part("shared_data"), total),
        ),
        (
            "core.breakdown.pre_join_share",
            ratio(part("pre_join"), total),
        ),
        (
            "core.breakdown.remainder_share",
            ratio(part("remainder"), total),
        ),
        ("server.publish_us", publish.map(|s| s * 1e6)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn owned(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|l| l.to_string()).collect()
    }

    /// Captured from the seed's `rpq serve`.
    const METRICS: &[&str] = &[
        "  breakdown: shared_data=10.00ms pre_join=5.00ms remainder=85.00ms total=100.00ms",
        "  elimination: useless1=397 redundant1=2064 redundant2=57093 useless2_inserts=664741 full_dup_hits=0",
        "  maintenance: deltas=9 unchanged=1 incremental=6 rebuild=2 inc_time=1.50ms rebuild_time=0.00ns",
        "  results: 30 view hits, 10 result misses, 2 memoized (cap 256)",
        "  serving: 4 publishes (last 35.26µs, mean 41.50µs), 1 views retained (epochs 0..0), conns 1/256",
        "  memory: structural=55768 B (rtc=55768 B, 422 dense rows; full=0 B, 0 dense rows)",
        "  budget: unbounded occupancy=901648 B/2 entries evictions=0 (bytes=0 entries=0 ttl=0 stale=0) rebuilds_after_evict=0",
    ];
    const CACHE: &[&str] = &[
        "  entries: 2 rtc (95002 pairs, 927 sccs), 0 full (0 pairs)",
        "  memory: 55768 B structural heap (422 dense rows)",
        "  lookups: 6 hits, 3 misses, 1 stale hits (epoch 0)",
        "  budget: bytes=64m (occupancy 901648 B, 2 entries, 901648 B pinned)",
        "  evictions: 5 total (bytes=5 entries=0 ttl=0 stale=0), 0 rebuilds after evict",
        "  results: 2 memoized, 30 view hits, 10 result misses (cap 256), 4 evicted",
    ];

    fn get(values: &[(&'static str, Option<f64>)], name: &str) -> Option<f64> {
        values.iter().find(|(n, _)| *n == name).unwrap().1
    }

    fn close(a: Option<f64>, b: f64) -> bool {
        a.is_some_and(|a| (a - b).abs() < 1e-9)
    }

    #[test]
    fn reads_every_metric_from_captured_lines() {
        let v = layer_metrics(&owned(METRICS), &owned(CACHE));
        assert!(close(get(&v, "reduction.incremental_ratio"), 0.75));
        assert!(close(get(&v, "core.result_cache.hit_ratio"), 0.75));
        assert!(close(get(&v, "core.result_cache.evictions_per_kop"), 100.0));
        assert!(close(get(&v, "core.result_cache.entries"), 2.0));
        assert!(close(get(&v, "core.cache.hit_ratio"), 0.6));
        assert!(close(get(&v, "core.cache.stale_ratio"), 0.1));
        assert!(close(get(&v, "core.cache.evictions_per_kop"), 500.0));
        assert!(close(get(&v, "core.cache.occupancy_bytes"), 901648.0));
        assert!(close(get(&v, "core.breakdown.shared_data_share"), 0.10));
        assert!(close(get(&v, "core.breakdown.pre_join_share"), 0.05));
        assert!(close(get(&v, "core.breakdown.remainder_share"), 0.85));
        assert!(close(get(&v, "server.publish_us"), 41.5));
    }

    #[test]
    fn missing_or_reworded_lines_read_null() {
        let v = layer_metrics(&[], &[]);
        assert!(v.iter().all(|(_, value)| value.is_none()));

        let reworded = owned(&[
            "  timing: shared=10.00ms join=5.00ms total=100.00ms",
            "  maintenance: deltas=9 incremental=six rebuild=2",
        ]);
        let v = layer_metrics(&reworded, &owned(&["  lookups: many hits"]));
        assert_eq!(get(&v, "core.breakdown.remainder_share"), None);
        assert_eq!(get(&v, "reduction.incremental_ratio"), None);
        assert_eq!(get(&v, "core.cache.hit_ratio"), None);
    }

    #[test]
    fn zero_denominators_read_zero_not_nan() {
        let v = layer_metrics(
            &owned(&["  maintenance: deltas=0 unchanged=0 incremental=0 rebuild=0"]),
            &owned(&["  lookups: 0 hits, 0 misses, 0 stale hits (epoch 0)"]),
        );
        assert_eq!(get(&v, "reduction.incremental_ratio"), Some(0.0));
        assert_eq!(get(&v, "core.cache.hit_ratio"), Some(0.0));
    }

    #[test]
    fn token_helpers() {
        assert_eq!(seconds("35.26µs"), Some(35.26e-6));
        assert_eq!(seconds("0.00ns"), Some(0.0));
        assert_eq!(seconds("2.50s"), Some(2.5));
        assert_eq!(seconds("fast"), None);
        assert_eq!(value_of("a=1 pre_join=2.90ms join=7", "join"), Some("7"));
        assert_eq!(value_of("x (bytes=5 entries=0)", "entries"), Some("0"));
        assert_eq!(
            number_before("(occupancy 901648 B, 2 entries", "B,"),
            Some(901648.0)
        );
        assert_eq!(number_before("no digits hits", "hits"), None);
    }
}
