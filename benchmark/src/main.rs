//! End-to-end TCP load benchmark for `rpq serve`, with an outside-in
//! per-layer trace. See `benchmark/README.md` for the workloads, the
//! metric glossary and the first readings.
//!
//! ```text
//! rpq-e2e-bench [--workload|--only NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! rpq-e2e-bench compare A.json B.json
//! ```
//!
//! Run from the root of a checkout (that is where `cargo run
//! --manifest-path benchmark/Cargo.toml` leaves the working directory):
//! the harness builds `rpq` from it and reads `BENCHMARK.json` there.

mod client;
mod compare;
mod e2e;
mod json;
mod oracle;
mod report;
mod scrape;
mod server;
mod spec;
mod stats;
mod trace;
mod workloads;

use report::{RunContext, WorkloadReport};
use spec::Spec;
use std::path::Path;
use std::process::ExitCode;
use workloads::{Plan, Workload};

/// Set-ups per untraced run: `setup_s` is their median.
const SETUPS_PER_RUN: usize = 3;

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    corrupt_oracle: bool,
}

const USAGE: &str = "usage: rpq-e2e-bench [--workload|--only cold_sets|warm_reads|churn|pressure] \
[--seed N] [--seconds S] [--trace [0|1]] [--corrupt-oracle]\n       rpq-e2e-bench compare A.json B.json";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: None,
        trace: false,
        corrupt_oracle: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |what: &str| -> Result<&String, String> {
            i += 1;
            args.get(i).ok_or(format!("{flag} needs {what}"))
        };
        match flag {
            "--workload" | "--only" => {
                let name = value("a workload name")?;
                opts.workloads =
                    vec![Workload::from_name(name).ok_or(format!("unknown workload '{name}'"))?];
            }
            "--seed" => {
                let v = value("a number")?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs a whole number, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds needs a number, got '{v}'"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got '{v}'"));
                }
                opts.seconds = Some(s);
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    opts.trace = v == "1";
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--corrupt-oracle" => opts.corrupt_oracle = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(opts)
}

fn run_workload(
    rpq: &Path,
    spec: &Spec,
    ctx: &RunContext,
    workload: Workload,
    opts: &Options,
) -> Result<WorkloadReport, String> {
    let plan = Plan::build(workload, ctx.seed);
    let mut oracle = oracle::Oracle::compute(&plan);
    if opts.corrupt_oracle {
        oracle.corrupt();
    }
    // A traced run reports no set-up time, so it sets up once.
    let setups = if opts.trace { 1 } else { SETUPS_PER_RUN };
    let e2e = e2e::run(
        rpq,
        &plan,
        &oracle,
        ctx.seconds,
        setups,
        opts.corrupt_oracle,
    )?;
    let trace = if opts.trace {
        let path = Path::new(server::OUT_DIR).join(format!("trace-{}.jsonl", workload.name()));
        let t = trace::run(&plan, &path)?;
        eprintln!(
            "trace: {} spans over {} requests -> {}",
            t.spans,
            t.requests,
            path.display()
        );
        Some(t)
    } else {
        None
    };
    let report = WorkloadReport::new(&e2e, trace.as_ref());
    report.print(spec, ctx.nproc);
    let saved = ctx.save(spec, &report)?;
    eprintln!("results: {}", saved.display());
    Ok(report)
}

fn real_main() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let spec = Spec::load()?;
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else {
            return Err(USAGE.to_string());
        };
        return Ok(if compare::run(&spec, a, b)? {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let opts = parse_args(&args)?;
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    let rpq = server::build_rpq()?;
    let ctx = RunContext::detect(opts.seed, opts.seconds.unwrap_or(spec.run_seconds));
    let mut last_line = None;
    for &workload in &opts.workloads {
        let report = run_workload(&rpq, &spec, &ctx, workload, &opts)?;
        last_line = Some(report.contract_line(&spec, opts.trace));
    }
    // The driver's contract: one workload per invocation, its result as
    // the last line of stdout.
    if let ([_], Some(line)) = (opts.workloads.as_slice(), last_line) {
        println!("{line}");
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn contract_arguments_parse() {
        let o = parse_args(&args("--workload churn --seed 42 --seconds 7 --trace 1")).unwrap();
        assert_eq!(o.workloads, [Workload::Churn]);
        assert_eq!((o.seed, o.seconds, o.trace), (42, Some(7.0), true));
        let o = parse_args(&args("--workload churn --seed 42 --seconds 7 --trace 0")).unwrap();
        assert!(!o.trace);
    }

    #[test]
    fn suite_arguments_parse() {
        let o = parse_args(&args("--trace --only pressure")).unwrap();
        assert!(o.trace);
        assert_eq!(o.workloads, [Workload::Pressure]);
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.workloads, Workload::ALL);
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.corrupt_oracle),
            (1, None, false, false)
        );
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "accepted '{bad}'");
        }
    }

    /// `BENCHMARK.json` is the one list of metric names; the harness must
    /// compute every name it lists and list every name it computes.
    #[test]
    fn benchmark_json_and_the_harness_agree_on_metric_names() {
        let text = std::fs::read_to_string("../BENCHMARK.json").expect("run from benchmark/");
        let spec = Spec::parse(&text).unwrap();
        let mut listed: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        listed.sort_unstable();
        let mut computed = report::metric_names();
        computed.sort_unstable();
        assert_eq!(listed, computed);
        let mut workloads: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        workloads.sort_unstable();
        let mut own: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        own.sort_unstable();
        assert_eq!(workloads, own);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s"));
    }
}
