//! The interactive REPL: stdin lines in, wire-format responses out.
//!
//! The loop is transport-agnostic on purpose — it reads any `BufRead` and
//! writes any `Write` — so the integration tests drive it end to end over
//! an in-memory pipe, and `rpq repl < script.rpq` works for batch use.
//! It is the same loop the TCP protocol ([`crate::tcp`]) runs, so
//! responses use the same `payload lines + OK/ERR status line` framing
//! and a script is portable between the two front-ends.
//!
//! When stdout is a terminal, a `rpq> ` prompt is written to **stderr**
//! between commands; piped stdout therefore contains only responses.

use crate::session::Session;
use std::io::{BufRead, IsTerminal, Write};

/// Runs the command loop until EOF or `quit`, returning the number of
/// commands executed. Errors from the output sink end the loop (the
/// consumer is gone); session-level command errors are reported in-band
/// as `ERR` lines and do not end the loop.
pub fn run_repl<R: BufRead, W: Write>(
    session: &mut Session,
    input: R,
    output: W,
) -> std::io::Result<u64> {
    let prompt = std::io::stdout().is_terminal().then_some("rpq> ");
    session.serve(input, output, prompt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_loop_over_a_pipe() {
        let script = "\
gen paper
query d.(b.c)+.c
# a comment and a blank line are skipped

cache
quit
query never.reached
";
        let mut session = Session::new();
        let mut out = Vec::new();
        let executed = run_repl(&mut session, script.as_bytes(), &mut out).unwrap();
        assert_eq!(executed, 4); // gen, query, cache, quit — comment/blank skipped
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("v7 -> v5"));
        assert!(text.contains("OK bye"));
        assert!(!text.contains("never"));
    }

    #[test]
    fn eof_ends_the_loop_cleanly() {
        let mut session = Session::new();
        let mut out = Vec::new();
        let executed = run_repl(&mut session, &b"info\n"[..], &mut out).unwrap();
        assert_eq!(executed, 1);
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("OK graph 'empty'"));
    }
}
