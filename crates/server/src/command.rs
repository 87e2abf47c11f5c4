//! The serving command language: one line in, one [`Command`] out.
//!
//! Both front-ends — the interactive REPL and the line-delimited TCP
//! protocol — parse requests through this single grammar, so a script that
//! drives the REPL over a pipe works verbatim against a TCP socket. The
//! full reference with worked examples lives in `docs/QUERY_LANGUAGE.md`.
//!
//! A command line is whitespace-separated tokens; the first token selects
//! the command. Commands that take an RPQ take it as **the rest of the
//! line**, so query text may contain spaces and quoted labels
//! (`query d . (b.c)+ . c` is fine). Blank lines and `#` comments parse
//! to `None`.

use rpq_core::Strategy;
use rpq_datasets::rmat::rmat_n_scaled_edges;
use rpq_graph::MAX_VERTICES;
use std::num::IntErrorKind;

/// One mutation inside a [`Command::Delta`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// `ins SRC LABEL DST` — queue an edge insertion.
    Insert(u32, String, u32),
    /// `del SRC LABEL DST` — queue an edge deletion.
    Delete(u32, String, u32),
    /// `grow N` — ensure at least `N` vertices.
    Grow(usize),
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `help` — list commands.
    Help,
    /// `info` — graph and engine status.
    Info,
    /// `epoch` — the current graph epoch.
    Epoch,
    /// `load PATH` — load an edge list or an engine snapshot
    /// (format auto-detected).
    Load(String),
    /// `save PATH` — write an engine snapshot (graph + warm cache).
    Save(String),
    /// `export PATH` — write the graph as a plain-text edge list.
    Export(String),
    /// `gen paper` — load the paper's Fig. 1 example graph.
    GenPaper,
    /// `gen rmat N SCALE SEED` — generate an `RMAT_N` graph with
    /// `2^SCALE` vertices.
    GenRmat {
        /// Degree exponent `N` (per-label degree `2^(N-2)`).
        n: u32,
        /// Vertex-count exponent.
        scale: u32,
        /// Generator seed.
        seed: u64,
    },
    /// `query RPQ [at EPOCH]` — evaluate, sharing structures with prior
    /// queries; `at EPOCH` pins a retained older epoch (time travel).
    Query {
        /// The path query.
        query: String,
        /// Retained epoch to evaluate against, if time-travelling.
        at: Option<u64>,
    },
    /// `check SRC DST RPQ [at EPOCH]` — does an `RPQ`-path from SRC to
    /// DST exist?
    Check {
        /// Source vertex.
        src: u32,
        /// Target vertex.
        dst: u32,
        /// The path query.
        query: String,
        /// Retained epoch to evaluate against, if time-travelling.
        at: Option<u64>,
    },
    /// `ends SRC RPQ [at EPOCH]` — end vertices of `RPQ`-paths from SRC.
    Ends {
        /// Source vertex.
        src: u32,
        /// The path query.
        query: String,
        /// Retained epoch to evaluate against, if time-travelling.
        at: Option<u64>,
    },
    /// `prepare RPQ` — warm the shared cache for a query without
    /// materializing its result.
    Prepare(String),
    /// `delta OPS` — apply a mutation batch
    /// (`delta ins 0 a 1 del 2 b 3 grow 20`).
    Delta(Vec<DeltaOp>),
    /// `strategy rtc|full|none` — switch **this connection's** evaluation
    /// strategy (an overlay over the engine's base configuration).
    SetStrategy(Strategy),
    /// `limit N` — cap the result pairs printed per query (0 = none).
    SetLimit(usize),
    /// `binary on|off` — switch this connection's `query` responses
    /// between text payload lines and `RESULT-BIN` binary frames.
    SetBinary(bool),
    /// `metrics` — timing breakdown, elimination and maintenance counters.
    Metrics,
    /// `cache` — shared-structure cache breakdown.
    Cache,
    /// `reset metrics|cache` — clear counters / drop cached structures.
    Reset {
        /// `true` also drops the cached structures.
        cache_too: bool,
    },
    /// `quit` / `exit` — end the session.
    Quit,
}

/// Parses one request line. `Ok(None)` for blank lines and `#` comments.
pub fn parse_command(line: &str) -> Result<Option<Command>, String> {
    let line = line.trim();
    let mut tokens = line.split_whitespace();
    let Some(head) = tokens.next().filter(|head| !head.starts_with('#')) else {
        return Ok(None);
    };
    let rest = line[head.len()..].trim();
    let cmd = match head {
        "help" | "?" => Command::Help,
        "info" => Command::Info,
        "epoch" => Command::Epoch,
        "load" => Command::Load(require_path(rest, "load")?),
        "save" => Command::Save(require_path(rest, "save")?),
        "export" => Command::Export(require_path(rest, "export")?),
        "gen" => parse_gen(&mut tokens)?,
        "query" | "q" => require_query(rest, head)?,
        "check" => {
            let src = parse_num(tokens.next(), "check needs SRC DST RPQ")?;
            let dst = parse_num(tokens.next(), "check needs SRC DST RPQ")?;
            let (query, at) = split_at_epoch(&strip_tokens(rest, 2))?;
            if query.is_empty() {
                return Err("check needs SRC DST RPQ".into());
            }
            Command::Check {
                src,
                dst,
                query,
                at,
            }
        }
        "ends" => {
            let src = parse_num(tokens.next(), "ends needs SRC RPQ")?;
            let (query, at) = split_at_epoch(&strip_tokens(rest, 1))?;
            if query.is_empty() {
                return Err("ends needs SRC RPQ".into());
            }
            Command::Ends { src, query, at }
        }
        "prepare" => {
            if rest.is_empty() {
                return Err("prepare needs an RPQ".into());
            }
            Command::Prepare(rest.to_string())
        }
        "delta" => Command::Delta(parse_delta(&mut tokens)?),
        "strategy" => {
            let name = tokens.next().unwrap_or("");
            let strategy = parse_strategy(name)
                .ok_or_else(|| format!("strategy needs rtc|full|none, got '{name}'"))?;
            Command::SetStrategy(strategy)
        }
        "limit" => Command::SetLimit(parse_num::<usize>(tokens.next(), "limit needs N")?),
        "binary" => match tokens.next() {
            Some("on") => Command::SetBinary(true),
            Some("off") => Command::SetBinary(false),
            other => {
                return Err(format!(
                    "binary takes on|off, got '{}'",
                    other.unwrap_or("")
                ))
            }
        },
        "metrics" => Command::Metrics,
        "cache" => Command::Cache,
        "reset" => match tokens.next() {
            Some("metrics") | None => Command::Reset { cache_too: false },
            Some("cache") => Command::Reset { cache_too: true },
            Some(other) => return Err(format!("reset takes metrics|cache, got '{other}'")),
        },
        "quit" | "exit" => Command::Quit,
        other => return Err(format!("unknown command '{other}' (try 'help')")),
    };
    Ok(Some(cmd))
}

fn require_path(rest: &str, cmd: &str) -> Result<String, String> {
    if rest.is_empty() {
        Err(format!("{cmd} needs a PATH"))
    } else {
        Ok(rest.to_string())
    }
}

fn require_query(rest: &str, cmd: &str) -> Result<Command, String> {
    let (query, at) = split_at_epoch(rest)?;
    if query.is_empty() {
        Err(format!("{cmd} needs an RPQ"))
    } else {
        Ok(Command::Query { query, at })
    }
}

/// Splits a trailing `at <epoch>` time-travel suffix off an RPQ tail,
/// preserving the query text's internal spacing. Only the exact two-token
/// tail `at <number>` is reserved — `at` alone, or `at` anywhere else in
/// the query, still parses as an ordinary label; a query genuinely ending
/// in the label `at` followed by nothing numeric is untouched. A reserved
/// tail whose number does not fit an epoch is an error.
fn split_at_epoch(text: &str) -> Result<(String, Option<u64>), String> {
    let keep = || Ok((text.to_string(), None));
    let trimmed = text.trim_end();
    let Some(last_ws) = trimmed.rfind(char::is_whitespace) else {
        return keep();
    };
    let tail = trimmed[last_ws..].trim();
    let epoch = match tail.parse::<u64>() {
        Err(e) if *e.kind() != IntErrorKind::PosOverflow => return keep(),
        parsed => parsed.map_err(|_| format!("epoch {tail} is out of range")),
    };
    let head = trimmed[..last_ws].trim_end();
    let query = match head.rfind(char::is_whitespace) {
        None if head == "at" => String::new(),
        Some(prev_ws) if head[prev_ws..].trim() == "at" => head[..prev_ws].trim_end().to_string(),
        _ => return keep(),
    };
    Ok((query, Some(epoch?)))
}

/// Drops the first `n` whitespace-separated tokens of `rest`, returning
/// the trimmed remainder (the RPQ tail of `check`/`ends`, which must keep
/// its internal spacing).
fn strip_tokens(rest: &str, n: usize) -> String {
    let mut s = rest;
    for _ in 0..n {
        s = s.trim_start();
        let end = s.find(char::is_whitespace).unwrap_or(s.len());
        s = &s[end..];
    }
    s.trim().to_string()
}

/// A strategy by the name both the `strategy` command and the `rpq`
/// binary's `--strategy` flag take.
pub fn parse_strategy(name: &str) -> Option<Strategy> {
    match name {
        "rtc" => Some(Strategy::RtcSharing),
        "full" => Some(Strategy::FullSharing),
        "none" | "no" => Some(Strategy::NoSharing),
        _ => None,
    }
}

fn parse_num<T: std::str::FromStr>(tok: Option<&str>, err: &str) -> Result<T, String> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| err.to_string())
}

fn parse_gen<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> Result<Command, String> {
    match tokens.next() {
        Some("paper") => Ok(Command::GenPaper),
        Some("rmat") => {
            let n = parse_num(tokens.next(), "gen rmat needs N SCALE SEED")?;
            let scale = parse_num(tokens.next(), "gen rmat needs N SCALE SEED")?;
            let seed = parse_num(tokens.next(), "gen rmat needs N SCALE SEED")?;
            if rmat_n_scaled_edges(n, scale).is_none() {
                return Err(format!(
                    "gen rmat {n} {scale}: 2^SCALE vertices must be at most {MAX_VERTICES} \
                     and 2^(N+SCALE) edges must fit a usize"
                ));
            }
            Ok(Command::GenRmat { n, scale, seed })
        }
        other => Err(format!(
            "gen takes paper | rmat N SCALE SEED, got '{}'",
            other.unwrap_or("")
        )),
    }
}

/// A delta's vertex id: below [`MAX_VERTICES`], so the vertex count it
/// implies fits the `u32` id space.
fn parse_vertex(tok: Option<&str>) -> Result<u32, String> {
    match parse_num(tok, "delta ins/del needs SRC LABEL DST")? {
        v if v as usize >= MAX_VERTICES => Err(format!(
            "vertex id {v} is out of range: a graph holds at most {MAX_VERTICES} vertices"
        )),
        v => Ok(v),
    }
}

fn parse_delta<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> Result<Vec<DeltaOp>, String> {
    let mut ops = Vec::new();
    while let Some(op) = tokens.next() {
        match op {
            "ins" | "del" => {
                let src = parse_vertex(tokens.next())?;
                let label = tokens
                    .next()
                    .ok_or("delta ins/del needs SRC LABEL DST")?
                    .to_string();
                let dst = parse_vertex(tokens.next())?;
                ops.push(if op == "ins" {
                    DeltaOp::Insert(src, label, dst)
                } else {
                    DeltaOp::Delete(src, label, dst)
                });
            }
            "grow" => match parse_num(tokens.next(), "grow needs N")? {
                n if n > MAX_VERTICES => {
                    return Err(format!(
                        "grow {n}: a graph holds at most {MAX_VERTICES} vertices"
                    ))
                }
                n => ops.push(DeltaOp::Grow(n)),
            },
            other => return Err(format!("delta ops are ins|del|grow, got '{other}'")),
        }
    }
    if ops.is_empty() {
        return Err(
            "delta needs at least one op (ins SRC LABEL DST | del SRC LABEL DST | grow N)".into(),
        );
    }
    Ok(ops)
}

/// The `help` text, one line per command (shared by both front-ends).
pub const HELP: &[&str] = &[
    "  help                      list commands",
    "  info                      graph and engine status",
    "  epoch                     current graph epoch",
    "  load PATH                 load edge list / engine snapshot (warm restart)",
    "  save PATH                 write engine snapshot (graph + warm cache)",
    "  export PATH               write plain-text edge list",
    "  gen paper                 load the paper's Fig. 1 graph",
    "  gen rmat N SCALE SEED     generate RMAT_N with 2^SCALE vertices",
    "  query RPQ [at E]          evaluate an RPQ (shares structures); at E = retained epoch",
    "  check SRC DST RPQ [at E]  does an RPQ-path SRC -> DST exist?",
    "  ends SRC RPQ [at E]       end vertices of RPQ-paths from SRC",
    "  prepare RPQ               warm the shared cache for an RPQ",
    "  delta OPS...              mutate: ins SRC LABEL DST | del SRC LABEL DST | grow N",
    "  strategy rtc|full|none    switch evaluation strategy",
    "  limit N                   result pairs printed per query (0 = none)",
    "  binary on|off             query results as RESULT-BIN frames (this connection)",
    "  metrics                   timing/elimination/maintenance counters",
    "  cache                     shared-structure cache breakdown",
    "  reset [metrics|cache]     clear counters / drop cached structures",
    "  quit                      end the session",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn one(line: &str) -> Command {
        parse_command(line).unwrap().unwrap()
    }

    #[test]
    fn blank_and_comment_lines_are_skipped() {
        assert_eq!(parse_command("").unwrap(), None);
        assert_eq!(parse_command("   ").unwrap(), None);
        assert_eq!(parse_command("# a comment").unwrap(), None);
    }

    fn query(text: &str, at: Option<u64>) -> Command {
        Command::Query {
            query: text.into(),
            at,
        }
    }

    #[test]
    fn query_keeps_the_rest_of_the_line() {
        assert_eq!(one("query d.(b.c)+.c"), query("d.(b.c)+.c", None));
        assert_eq!(
            one("q d . ( b . c ) + . c"),
            query("d . ( b . c ) + . c", None)
        );
        assert_eq!(one("query 'has part'+"), query("'has part'+", None));
    }

    #[test]
    fn at_epoch_suffix_is_split_off() {
        assert_eq!(one("query d.(b.c)+.c at 3"), query("d.(b.c)+.c", Some(3)));
        assert_eq!(
            one("q d . ( b . c ) + at 0"),
            query("d . ( b . c ) +", Some(0))
        );
        // `at` stays an ordinary label everywhere except the reserved
        // two-token tail.
        assert_eq!(one("query at"), query("at", None));
        assert_eq!(one("query at.b"), query("at.b", None));
        assert_eq!(one("query a at b"), query("a at b", None));
        assert_eq!(one("query b.at at 7"), query("b.at", Some(7)));
        // A bare `at <epoch>` leaves no query text.
        assert!(parse_command("query at 3").is_err());
        // An epoch past `u64` is an error, not part of the query.
        let e = parse_command("query a at 99999999999999999999").unwrap_err();
        assert_eq!(e, "epoch 99999999999999999999 is out of range");
        assert!(parse_command("ends 1 a at 99999999999999999999").is_err());
        assert_eq!(one("query a at 9x"), query("a at 9x", None));
        assert_eq!(
            one("check 7 5 d.(b.c)+.c at 2"),
            Command::Check {
                src: 7,
                dst: 5,
                query: "d.(b.c)+.c".into(),
                at: Some(2)
            }
        );
        assert_eq!(
            one("ends 7 (b.c)+ at 1"),
            Command::Ends {
                src: 7,
                query: "(b.c)+".into(),
                at: Some(1)
            }
        );
    }

    #[test]
    fn check_and_ends_split_numbers_then_query() {
        assert_eq!(
            one("check 7 5 d.(b.c)+.c"),
            Command::Check {
                src: 7,
                dst: 5,
                query: "d.(b.c)+.c".into(),
                at: None
            }
        );
        assert_eq!(
            one("ends 7 d.(b.c)+.c"),
            Command::Ends {
                src: 7,
                query: "d.(b.c)+.c".into(),
                at: None
            }
        );
        assert!(parse_command("check 7 d").is_err());
        assert!(parse_command("ends x d").is_err());
    }

    #[test]
    fn delta_parses_op_groups() {
        assert_eq!(
            one("delta ins 0 a 1 del 2 b 3 grow 20"),
            Command::Delta(vec![
                DeltaOp::Insert(0, "a".into(), 1),
                DeltaOp::Delete(2, "b".into(), 3),
                DeltaOp::Grow(20),
            ])
        );
        assert!(parse_command("delta").is_err());
        assert!(parse_command("delta ins 0 a").is_err());
        assert!(parse_command("delta frobnicate").is_err());
    }

    #[test]
    fn delta_refuses_vertices_past_the_id_space() {
        // Id u32::MAX would make the graph u32::MAX + 1 vertices.
        for line in [
            "delta ins 1 a 4294967295",
            "delta ins 4294967295 a 1",
            "delta del 1 a 4294967295",
            "delta grow 4294967296",
        ] {
            let e = parse_command(line).unwrap_err();
            assert!(e.contains("at most 4294967295 vertices"), "{line}: {e}");
        }
        assert_eq!(
            one("delta ins 4294967294 a 0 grow 4294967295"),
            Command::Delta(vec![
                DeltaOp::Insert(4294967294, "a".into(), 0),
                DeltaOp::Grow(4294967295),
            ])
        );
    }

    #[test]
    fn strategy_and_knobs() {
        assert_eq!(
            one("strategy rtc"),
            Command::SetStrategy(Strategy::RtcSharing)
        );
        assert_eq!(
            one("strategy full"),
            Command::SetStrategy(Strategy::FullSharing)
        );
        assert_eq!(
            one("strategy none"),
            Command::SetStrategy(Strategy::NoSharing)
        );
        assert!(parse_command("strategy magic").is_err());
        assert_eq!(one("limit 100"), Command::SetLimit(100));
        assert_eq!(one("binary on"), Command::SetBinary(true));
        assert_eq!(one("binary off"), Command::SetBinary(false));
        assert!(parse_command("binary").is_err());
        assert!(parse_command("binary maybe").is_err());
    }

    #[test]
    fn gen_variants() {
        assert_eq!(one("gen paper"), Command::GenPaper);
        assert_eq!(
            one("gen rmat 3 8 42"),
            Command::GenRmat {
                n: 3,
                scale: 8,
                seed: 42
            }
        );
        assert!(parse_command("gen").is_err());
        assert!(parse_command("gen rmat 3").is_err());
        // 2^SCALE past the u32 id space, or 2^(N+SCALE) edges past usize.
        for line in ["gen rmat 2 40 1", "gen rmat 2 64 1", "gen rmat 60 10 1"] {
            let e = parse_command(line).unwrap_err();
            assert!(e.contains("must be at most 4294967295"), "{line}: {e}");
        }
    }

    #[test]
    fn reset_variants() {
        assert_eq!(one("reset"), Command::Reset { cache_too: false });
        assert_eq!(one("reset metrics"), Command::Reset { cache_too: false });
        assert_eq!(one("reset cache"), Command::Reset { cache_too: true });
        assert!(parse_command("reset everything").is_err());
    }

    #[test]
    fn paths_keep_spaces() {
        assert_eq!(
            one("load /tmp/my graph.el"),
            Command::Load("/tmp/my graph.el".into())
        );
    }

    #[test]
    fn unknown_commands_error() {
        assert!(parse_command("frobnicate").is_err());
        assert!(parse_command("query").is_err());
        assert!(parse_command("load").is_err());
        // The server builds every closure sequentially: no `threads` knob.
        let e = parse_command("threads 2").unwrap_err();
        assert_eq!(e, "unknown command 'threads' (try 'help')");
    }

    #[test]
    fn help_lists_every_command_head() {
        for head in [
            "help", "info", "epoch", "load", "save", "export", "gen", "query", "check", "ends",
            "prepare", "delta", "strategy", "limit", "binary", "metrics", "cache", "reset", "quit",
        ] {
            assert!(
                HELP.iter().any(|l| l.trim_start().starts_with(head)),
                "help is missing '{head}'"
            );
        }
    }
}
