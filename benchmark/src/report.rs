//! Turns one workload's raw measurements into named metrics, prints
//! them, and keeps the per-commit results file.

use crate::e2e::E2eResult;
use crate::json::Json;
use crate::server::OUT_DIR;
use crate::spec::Spec;
use crate::stats::{supports, QuietWindows};
use crate::trace::TraceResult;
use crate::workloads::{Class, Workload};
use std::path::PathBuf;

/// One named reading. `value` is `None` when the source does not exist
/// (a scraped line that is absent); `n` is the sample count behind a
/// percentile or rate, where there is one.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub n: Option<usize>,
}

fn metric(name: &'static str, value: f64, n: usize) -> Metric {
    Metric {
        name,
        value: Some(value),
        n: Some(n),
    }
}

/// Everything reported for one workload run.
pub struct WorkloadReport {
    pub workload: Workload,
    pub connections: usize,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// In-process vs over-TCP query p75, when the run was traced.
    pub tracing: Option<(f64, f64)>,
    pub notes: Vec<String>,
}

impl WorkloadReport {
    /// Names every metric of the run. A metric that does not apply to the
    /// workload (no `delta` in `cold_sets`) reads 0 from its empty sample.
    pub fn new(e2e: &E2eResult, trace: Option<&TraceResult>) -> WorkloadReport {
        // Every rate and percentile is read over the same quiet windows.
        let quiet = QuietWindows::choose(e2e.foreground_samples(), e2e.seconds);
        let latency = |name, (value, n): (f64, usize)| metric(name, value, n);
        let class = |c| e2e.samples(c).iter();
        let ops = quiet.count(e2e.foreground_samples());
        let query_p50 = latency("query_p50_ms", quiet.percentile(class(Class::Query), 0.50));
        let query_p75 = latency("query_p75_ms", quiet.percentile(class(Class::Query), 0.75));
        let query_p95 = latency("query_p95_ms", quiet.percentile(class(Class::Query), 0.95));
        let queries = query_p95.n.unwrap_or(0);
        let point = class(Class::Ends).chain(class(Class::Check));

        let mut notes = e2e.notes.clone();
        if !supports(queries, 0.95) {
            notes.push(format!(
                "query_p95_ms rests on {queries} samples; fewer than 200 leave under ten beyond it"
            ));
        }
        let mut metrics = vec![
            metric("setup_s", e2e.setup_median_s(), e2e.setup_s.len()),
            metric("ops_per_s", quiet.rate(e2e.foreground_samples()), ops),
            query_p50,
            query_p75.clone(),
            query_p95,
            latency(
                "set_response_p50_ms",
                quiet.percentile(e2e.sets.iter(), 0.50),
            ),
            latency("point_p50_ms", quiet.percentile(point, 0.50)),
            latency("delta_p50_ms", quiet.percentile(class(Class::Delta), 0.50)),
            latency("bulk_p50_ms", quiet.percentile(class(Class::Bulk), 0.50)),
            metric(
                "payload_mb_per_s",
                quiet.bytes(class(Class::Bulk)) as f64 / 1e6 / quiet.kept_seconds(),
                quiet.count(class(Class::Bulk)),
            ),
            Metric {
                name: "peak_rss_mb",
                value: e2e.peak_rss_mb,
                n: None,
            },
            metric(
                "failed_ratio",
                e2e.failed as f64 / e2e.attempted.max(1) as f64,
                e2e.attempted as usize,
            ),
            metric(
                "server.bytes_out_per_op",
                quiet.bytes(e2e.foreground_samples()) as f64 / ops.max(1) as f64,
                ops,
            ),
        ];
        metrics.extend(e2e.scraped.iter().map(|&(name, value)| Metric {
            name,
            value,
            n: None,
        }));
        let mut tracing = None;
        if let Some(trace) = trace {
            metrics.extend(trace.metrics.iter().map(|&(name, value)| Metric {
                name,
                value: Some(value),
                n: None,
            }));
            let in_process = trace.in_process_query_p75_ms;
            let tcp = query_p75.value.unwrap_or(0.0);
            metrics.push(metric("server.transport_ms", tcp - in_process, queries));
            tracing = Some((in_process, tcp));
        }
        WorkloadReport {
            workload: e2e.workload,
            connections: e2e.connections,
            attempted: e2e.attempted,
            failed: e2e.failed,
            metrics,
            tracing,
            notes,
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    /// Every metric by name with its unit and sample count, for a person.
    pub fn print(&self, spec: &Spec, nproc: usize) {
        println!(
            "── {} · {} connection(s) · {nproc}-core shared container · {} attempted, {} failed",
            self.workload.name(),
            self.connections,
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            let unit = spec.metric(m.name).map_or("", |s| s.unit.as_str());
            let value = m.value.map_or("null".to_string(), |v| format!("{v:.4}"));
            let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
            println!("  {:<40} {value:>14} {unit}{n}", m.name);
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
    }

    /// The contract's result line: exactly the metrics `BENCHMARK.json`
    /// lists for the mode, each a number (an absent reading is 0 here and
    /// `null` in the results file).
    pub fn contract_line(&self, spec: &Spec, traced: bool) -> String {
        let listed = if traced {
            &spec.per_layer
        } else {
            &spec.end_to_end
        };
        let metrics = listed
            .iter()
            .map(|s| {
                let value = self.value(&s.name).filter(|v| v.is_finite()).unwrap_or(0.0);
                (
                    s.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::str(s.unit.clone())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .compact()
    }

    fn to_json(&self, spec: &Spec) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let unit = spec.metric(m.name).map_or("", |s| s.unit.as_str());
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::opt(m.value)),
                        ("unit", Json::str(unit)),
                        ("n", Json::opt(m.n.map(|n| n as f64))),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("connections", Json::Num(self.connections as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
            (
                "tracing",
                self.tracing.map_or(Json::Null, |(in_process, tcp)| {
                    Json::obj(vec![
                        ("in_process_query_p75_ms", Json::num(in_process)),
                        ("tcp_query_p75_ms", Json::num(tcp)),
                    ])
                }),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Where and under what conditions the numbers were taken.
pub struct RunContext {
    pub commit: String,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub rustc: String,
}

impl RunContext {
    pub fn detect(seed: u64, seconds: f64) -> RunContext {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or("unknown".to_string(), |s| s.trim().to_string());
        RunContext {
            commit: head_commit().unwrap_or_else(|| "nogit".to_string()),
            seed,
            seconds,
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            rustc,
        }
    }

    pub fn results_path(&self) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!("results-{}-{}.json", self.commit, self.seed))
    }

    /// Adds (or replaces) this workload's entry in the results file of
    /// this commit and seed, so one file collects all four workloads
    /// whether they ran in one invocation or four.
    pub fn save(&self, spec: &Spec, report: &WorkloadReport) -> Result<PathBuf, String> {
        let path = self.results_path();
        let mut root = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| Json::parse(&text).ok())
            .filter(|j| j.get("workloads").is_some())
            .unwrap_or_else(|| Json::obj(vec![("workloads", Json::Obj(Vec::new()))]));
        root.set("commit", Json::str(self.commit.clone()));
        root.set("seed", Json::Num(self.seed as f64));
        root.set("seconds", Json::Num(self.seconds));
        root.set("nproc", Json::Num(self.nproc as f64));
        root.set("rustc", Json::str(self.rustc.clone()));
        let mut workloads = root.get("workloads").cloned().expect("filtered above");
        workloads.set(report.workload.name(), report.to_json(spec));
        root.set("workloads", workloads);
        std::fs::write(&path, root.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Ok(path)
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// only — never from a parent directory, and without running git.
fn head_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|h| h.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed.lines().find_map(|l| {
                    l.strip_suffix(reference)
                        .map(|hash| hash.trim().to_string())
                })
            })?,
    };
    (hash.len() >= 12 && hash.chars().all(|c| c.is_ascii_hexdigit()))
        .then(|| hash[..12].to_string())
}

/// Every metric name a traced run reports.
#[cfg(test)]
pub fn metric_names() -> Vec<&'static str> {
    let trace = TraceResult {
        metrics: crate::trace::metric_names()
            .into_iter()
            .map(|name| (name, 0.0))
            .collect(),
        in_process_query_p75_ms: 0.0,
        spans: 0,
        requests: 0,
    };
    WorkloadReport::new(&E2eResult::empty(Workload::ColdSets), Some(&trace))
        .metrics
        .iter()
        .map(|m| m.name)
        .collect()
}
