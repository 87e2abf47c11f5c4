//! The experiment driver binary.
//!
//! Regenerates every table and figure of the paper's evaluation section:
//!
//! ```text
//! cargo run -p rpq_bench --release --bin experiments -- all
//! cargo run -p rpq_bench --release --bin experiments -- fig10 --profile paper
//! cargo run -p rpq_bench --release --bin experiments -- table4 --csv results/
//! cargo run -p rpq_bench --release --bin experiments -- exp1 --threads 4
//! ```
//!
//! Commands: `table4`, `fig10`, `fig11`, `fig12`, `fig13` (Experiment 1),
//! `fig14`, `fig15` (Experiment 2), `exp1`, `exp2`, `ablation`, `cache`,
//! `par`, `all`.
//! Duplicate commands are deduplicated and `all` subsumes everything, so
//! no experiment ever runs twice. Flags: `--profile fast|default|paper`
//! (scale), `--csv DIR` (also write CSV files), `--json DIR` (also write
//! JSON files — what the nightly bench job uploads as artifacts),
//! `--threads N` (queries of a set evaluated at once; 1 = sequential,
//! 0 = all cores; every closure is built sequentially).

use rpq_bench::ablation::{
    batch_unit_table, cache_pressure_table, par_table, scc_sensitivity_table, tc_algorithms_table,
};
use rpq_bench::datasets::{real_surrogates, synthetic_sweep};
use rpq_bench::experiments::{
    fig10_table, fig11_table, fig12_table, fig13_table, fig14_table, fig15_table, run_experiment1,
    run_experiment2, table4,
};
use rpq_bench::profiles::Profile;
use rpq_bench::table::Table;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every subcommand the driver understands — single source of truth for
/// argument validation and the usage string. `main`'s `wants()` dispatch
/// must cover exactly these names.
const COMMANDS: [&str; 13] = [
    "table4", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "exp1", "exp2", "ablation",
    "cache", "par", "all",
];

struct Options {
    profile: Profile,
    csv_dir: Option<PathBuf>,
    json_dir: Option<PathBuf>,
    threads: usize,
    commands: Vec<String>,
}

fn parse_args() -> Result<Options, String> {
    parse_args_from(std::env::args().skip(1))
}

fn parse_args_from(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut profile = Profile::Default;
    let mut csv_dir = None;
    let mut json_dir = None;
    let mut threads = 1usize;
    let mut commands = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile" => {
                let v = args.next().ok_or("--profile needs a value")?;
                profile = Profile::parse(&v).ok_or(format!("unknown profile '{v}'"))?;
            }
            "--csv" => {
                let v = args.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(PathBuf::from(v));
            }
            "--json" => {
                let v = args.next().ok_or("--json needs a directory")?;
                json_dir = Some(PathBuf::from(v));
            }
            "--threads" => {
                let v = args.next().ok_or("--threads needs a value")?;
                threads = v
                    .parse::<usize>()
                    .map_err(|_| format!("--threads needs a non-negative integer, got '{v}'"))?;
            }
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            cmd if !cmd.starts_with('-') => {
                if !COMMANDS.contains(&cmd) {
                    return Err(format!("unknown command '{cmd}'"));
                }
                commands.push(cmd.to_string());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Options {
        profile,
        csv_dir,
        json_dir,
        threads,
        commands: normalize_commands(commands),
    })
}

/// Normalizes the requested command list so no experiment runs twice:
/// an empty list defaults to `all`, `all` anywhere subsumes every other
/// command, and duplicates collapse to their first occurrence (order
/// otherwise preserved).
fn normalize_commands(commands: Vec<String>) -> Vec<String> {
    if commands.is_empty() || commands.iter().any(|c| c == "all") {
        return vec!["all".to_string()];
    }
    let mut out: Vec<String> = Vec::with_capacity(commands.len());
    for c in commands {
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

fn print_usage() {
    eprintln!(
        "usage: experiments [--profile fast|default|paper] [--csv DIR] [--json DIR] [--threads N] [{}]...",
        COMMANDS.join("|")
    );
    eprintln!();
    eprintln!("flags:");
    eprintln!("  --profile P   experiment scale: fast (seconds), default, paper (TABLE IV sizes)");
    eprintln!("  --csv DIR     additionally write each table as DIR/<table-slug>.csv");
    eprintln!("  --json DIR    additionally write each table as DIR/<table-slug>.json —");
    eprintln!("                the machine-readable form the nightly bench workflow");
    eprintln!("                (.github/workflows/nightly-bench.yml) uploads as artifacts");
    eprintln!("  --threads N   queries of a set evaluated at once in exp1/exp2");
    eprintln!("                (1 = sequential, 0 = all cores; closures are built sequentially)");
    eprintln!();
    eprintln!("Commands may be combined; duplicates are deduplicated and 'all' subsumes");
    eprintln!("everything. With no command, 'all' runs.");
}

fn emit(table: &Table, opts: &Options) {
    println!("{}", table.render());
    if let Some(dir) = &opts.csv_dir {
        match table.write_csv(dir) {
            Ok(path) => eprintln!("  [csv] {}", path.display()),
            Err(e) => eprintln!("  [csv] write failed: {e}"),
        }
    }
    if let Some(dir) = &opts.json_dir {
        match table.write_json(dir) {
            Ok(path) => eprintln!("  [json] {}", path.display()),
            Err(e) => eprintln!("  [json] write failed: {e}"),
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            return ExitCode::FAILURE;
        }
    };

    let wants = |names: &[&str]| {
        opts.commands
            .iter()
            .any(|c| names.contains(&c.as_str()) || c == "all")
    };

    eprintln!(
        "# profile = {} (use --profile paper for the full-scale TABLE IV sizes)",
        opts.profile
    );
    eprintln!(
        "# threads = {} ({}; applies to exp1/exp2 engine runs — table4/ablation are sequential, par sweeps its own)",
        opts.threads,
        match opts.threads {
            0 => "all available cores".to_string(),
            1 => "sequential".to_string(),
            n => format!("{n} scoped workers"),
        }
    );

    if wants(&["table4"]) {
        emit(&table4(opts.profile), &opts);
    }

    let exp1_needed = wants(&["fig10", "fig11", "fig12", "fig13", "exp1"]);
    if exp1_needed {
        eprintln!(
            "# experiment 1: degree sweep, {} RPQs per set",
            opts.profile.fixed_set_size()
        );
        let synth = synthetic_sweep(opts.profile);
        let synth_rows = run_experiment1(
            &synth,
            opts.profile,
            opts.profile.fixed_set_size(),
            opts.threads,
        );
        let real = real_surrogates(opts.profile);
        let real_rows = run_experiment1(
            &real,
            opts.profile,
            opts.profile.fixed_set_size(),
            opts.threads,
        );

        if wants(&["fig10", "exp1"]) {
            emit(
                &fig10_table("Fig 10(a): response time, synthetic", &synth_rows),
                &opts,
            );
            emit(
                &fig10_table("Fig 10(b): response time, real surrogates", &real_rows),
                &opts,
            );
        }
        if wants(&["fig11", "exp1"]) {
            emit(
                &fig11_table("Fig 11(a): 3-part breakdown, synthetic", &synth_rows),
                &opts,
            );
            emit(
                &fig11_table("Fig 11(b): 3-part breakdown, real surrogates", &real_rows),
                &opts,
            );
        }
        if wants(&["fig12", "exp1"]) {
            emit(
                &fig12_table("Fig 12(a): shared data size, synthetic", &synth_rows),
                &opts,
            );
            emit(
                &fig12_table("Fig 12(b): shared data size, real surrogates", &real_rows),
                &opts,
            );
        }
        if wants(&["fig13", "exp1"]) {
            emit(
                &fig13_table("Fig 13(a): number of vertices, synthetic", &synth_rows),
                &opts,
            );
            emit(
                &fig13_table("Fig 13(b): number of vertices, real surrogates", &real_rows),
                &opts,
            );
        }
    }

    if wants(&["ablation"]) {
        eprintln!("# ablations: TC algorithms, batch-unit join, SCC sensitivity");
        emit(&tc_algorithms_table(opts.profile), &opts);
        emit(&batch_unit_table(opts.profile), &opts);
        emit(&scc_sensitivity_table(), &opts);
    }

    if wants(&["cache"]) {
        eprintln!("# cache-pressure ablation: Zipf stream, bounded vs unbounded budget");
        emit(&cache_pressure_table(opts.profile), &opts);
    }

    if wants(&["par"]) {
        eprintln!("# parallel-path ablation: evaluate_set fan-out at 1/2/4 workers");
        emit(&par_table(), &opts);
    }

    if wants(&["fig14", "fig15", "exp2"]) {
        eprintln!("# experiment 2: #RPQs sweep on RMAT_3 and Advogato");
        let rows = run_experiment2(opts.profile, opts.threads);
        if wants(&["fig14", "exp2"]) {
            emit(&fig14_table(&rows), &opts);
        }
        if wants(&["fig15", "exp2"]) {
            emit(&fig15_table(&rows), &opts);
        }
    }

    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_to_all() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.commands, vec!["all"]);
        assert_eq!(o.threads, 1);
        assert_eq!(o.profile, Profile::Default);
        assert!(o.csv_dir.is_none());
    }

    #[test]
    fn duplicate_commands_run_once() {
        // Regression: `exp1 exp1 fig10 exp1` used to run exp1 three times.
        let o = parse(&["exp1", "exp1", "fig10", "exp1"]).unwrap();
        assert_eq!(o.commands, vec!["exp1", "fig10"]);
    }

    #[test]
    fn all_subsumes_specific_commands() {
        // Regression: `all exp1` used to run experiment 1 twice (once via
        // `all`, once via the explicit command).
        for args in [
            &["all", "exp1"][..],
            &["exp1", "all"][..],
            &["fig10", "all", "fig10"][..],
        ] {
            let o = parse(args).unwrap();
            assert_eq!(o.commands, vec!["all"], "args {args:?}");
        }
    }

    #[test]
    fn order_of_first_occurrence_is_preserved() {
        let o = parse(&["fig12", "exp2", "fig12", "table4"]).unwrap();
        assert_eq!(o.commands, vec!["fig12", "exp2", "table4"]);
    }

    #[test]
    fn threads_flag_parses() {
        assert_eq!(parse(&["--threads", "4", "exp1"]).unwrap().threads, 4);
        assert_eq!(parse(&["--threads", "0"]).unwrap().threads, 0);
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "x"]).is_err());
        assert!(parse(&["--threads", "-2"]).is_err());
    }

    #[test]
    fn profile_and_csv_flags_parse() {
        let o = parse(&["--profile", "fast", "--csv", "out", "fig14"]).unwrap();
        assert_eq!(o.profile, Profile::Fast);
        assert_eq!(o.csv_dir.as_deref(), Some(std::path::Path::new("out")));
        assert_eq!(o.commands, vec!["fig14"]);
        assert!(parse(&["--profile", "nope"]).is_err());
    }

    #[test]
    fn json_flag_parses() {
        let o = parse(&["--json", "artifacts", "table4"]).unwrap();
        assert_eq!(
            o.json_dir.as_deref(),
            Some(std::path::Path::new("artifacts"))
        );
        assert!(o.csv_dir.is_none());
        assert!(parse(&["--json"]).is_err());
        // CSV and JSON can be requested together.
        let o = parse(&["--csv", "a", "--json", "b"]).unwrap();
        assert!(o.csv_dir.is_some() && o.json_dir.is_some());
    }

    #[test]
    fn unknown_commands_and_flags_rejected() {
        assert!(parse(&["fig99"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn normalize_is_idempotent() {
        let once = normalize_commands(vec!["exp1".into(), "exp2".into(), "exp1".into()]);
        assert_eq!(normalize_commands(once.clone()), once);
    }
}
