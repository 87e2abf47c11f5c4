//! The `rpq` binary: REPL and TCP front-ends over one serving engine.
//!
//! ```text
//! rpq repl  [--load PATH] [--strategy rtc|full|none] [--cache-budget SPEC]
//! rpq serve --addr HOST:PORT [--max-conns N] [--load PATH]
//!           [--strategy rtc|full|none] [--cache-budget SPEC]
//! ```
//!
//! `repl` reads commands from stdin (interactive prompt on a TTY, silent
//! in pipes) and writes responses to stdout. `serve` speaks the same
//! command language as a line-delimited TCP protocol; all connections
//! share one engine and one epoch-aware cache, up to `--max-conns`
//! simultaneous clients (default 256; over-limit connections get one
//! `ERR busy` line). `--load` accepts an edge list or an engine snapshot
//! written by `save` (warm restart) — the format is auto-detected. See
//! `docs/QUERY_LANGUAGE.md` for the command reference.

use rpq_server::command::parse_strategy;
use rpq_server::session::{startup_config, Session};
use std::process::ExitCode;

struct Options {
    mode: Mode,
    load: Option<String>,
    strategy: Option<rpq_core::Strategy>,
    cache_budget: Option<rpq_core::CacheBudget>,
    max_conns: usize,
}

enum Mode {
    Repl,
    Serve { addr: String },
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mode = match args.next().as_deref() {
        Some("repl") => Mode::Repl,
        Some("serve") => Mode::Serve {
            addr: String::new(),
        },
        Some("--help" | "-h") | None => return Err(String::new()),
        Some(other) => return Err(format!("unknown mode '{other}' (use repl or serve)")),
    };
    let mut opts = Options {
        mode,
        load: None,
        strategy: None,
        cache_budget: None,
        max_conns: rpq_server::DEFAULT_MAX_CONNS,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--load" => opts.load = Some(args.next().ok_or("--load needs a PATH")?),
            "--strategy" => {
                let v = args.next().ok_or("--strategy needs rtc|full|none")?;
                opts.strategy = Some(parse_strategy(&v).ok_or(format!("unknown strategy '{v}'"))?);
            }
            "--cache-budget" => {
                let v = args
                    .next()
                    .ok_or("--cache-budget needs a spec like 'bytes=64m,entries=512'")?;
                opts.cache_budget = Some(rpq_core::CacheBudget::parse(&v).ok_or(format!(
                    "bad --cache-budget '{v}' (want 'bytes=SIZE,entries=N', a bare SIZE, or 'unbounded')"
                ))?);
            }
            "--addr" => {
                let v = args.next().ok_or("--addr needs HOST:PORT")?;
                match &mut opts.mode {
                    Mode::Serve { addr } => *addr = v,
                    Mode::Repl => return Err("--addr only applies to serve".into()),
                }
            }
            "--max-conns" => {
                if matches!(opts.mode, Mode::Repl) {
                    return Err("--max-conns only applies to serve".into());
                }
                let v = args.next().ok_or("--max-conns needs a value")?;
                opts.max_conns = v
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or(format!("--max-conns needs a positive integer, got '{v}'"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if let Mode::Serve { addr } = &opts.mode {
        if addr.is_empty() {
            return Err("serve needs --addr HOST:PORT".into());
        }
    }
    Ok(opts)
}

fn print_usage() {
    eprintln!("usage: rpq repl  [--load PATH] [--strategy rtc|full|none] [--cache-budget SPEC]");
    eprintln!("       rpq serve --addr HOST:PORT [--max-conns N] [--load PATH]");
    eprintln!("                 [--strategy rtc|full|none] [--cache-budget SPEC]");
    eprintln!();
    eprintln!("--load accepts an edge list or an engine snapshot written by 'save'");
    eprintln!("(warm restart) — the format is auto-detected. --max-conns caps");
    eprintln!("simultaneous TCP clients (default 256; extras get 'ERR busy').");
    eprintln!("--cache-budget is one account over structures and memoized results:");
    eprintln!("'bytes=SIZE,entries=N' (SIZE takes k/m/g suffixes; either part may be");
    eprintln!("omitted; a bare SIZE caps bytes). The default, 'unbounded', keeps");
    eprintln!("every distinct query's result: set a budget before exposing 'serve'");
    eprintln!("to clients. Deltas drop results no view can reach.");
    eprintln!("Commands: see 'help' in the session or docs/QUERY_LANGUAGE.md.");
}

/// Pins glibc's heap trim and mmap thresholds at the ceiling its own
/// dynamic rule reaches (mmap 32 MiB, trim twice that). Left dynamic, they
/// only rise once a block that large has been freed, so whether a freed
/// heap top goes back to the kernel — to be faulted in again by the next
/// query — depends on allocation history: a process whose results are
/// shared rows never frees a block big enough, and every `reset cache`
/// returned megabytes that the next cold query faulted back in.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_heap_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    const MMAP_CEILING: i32 = 32 << 20;
    // SAFETY: `mallopt` only sets allocator parameters; it is called once,
    // before this process starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, MMAP_CEILING);
        mallopt(M_TRIM_THRESHOLD, 2 * MMAP_CEILING);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_heap_thresholds() {}

fn main() -> ExitCode {
    pin_heap_thresholds();
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            print_usage();
            return ExitCode::FAILURE;
        }
    };

    // Startup flags set the engine's *base* configuration (not a
    // connection overlay): every connection inherits it, and an
    // engine-snapshot load picks it up too.
    let mut session = Session::with_config(startup_config(opts.strategy, opts.cache_budget));
    if let Some(path) = &opts.load {
        match session.execute(&format!("load {path}")) {
            Some(r) if matches!(r.status, rpq_server::Status::Ok(_)) => {
                eprint!("{}", r.render());
            }
            Some(r) => {
                eprint!("{}", r.render());
                return ExitCode::FAILURE;
            }
            None => unreachable!("load always responds"),
        }
    }

    match opts.mode {
        Mode::Repl => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            match rpq_server::run_repl(&mut session, stdin.lock(), stdout.lock()) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Mode::Serve { addr } => {
            let listener = match std::net::TcpListener::bind(&addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error: cannot bind {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "listening on {} (line protocol, max {} connections; try: echo 'info' | nc {addr})",
                listener
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or(addr.clone()),
                opts.max_conns,
            );
            let shared = session.shared();
            shared.set_max_conns(opts.max_conns);
            match rpq_server::serve(listener, shared) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: accept loop failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
    }
}
