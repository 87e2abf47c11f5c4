//! Language-preservation of the DNF transformation and agreement between
//! the Glushkov automaton and the derivative matcher, using random words
//! as probes.

mod common;

use common::{random_regex, rng, ALPHABET};
use rand::Rng;
use rtc_rpq::automata::{build_glushkov, DerivativeMatcher};
use rtc_rpq::regex::{decompose, to_dnf, Regex};

fn random_word(r: &mut rand::rngs::StdRng, max_len: usize) -> Vec<&'static str> {
    let len = r.gen_range(0..=max_len);
    (0..len)
        .map(|_| ALPHABET[r.gen_range(0..ALPHABET.len())])
        .collect()
}

/// A word matches the query iff it matches some DNF clause.
#[test]
fn dnf_preserves_language() {
    let mut r = rng(41);
    for case in 0..80 {
        let q = random_regex(&mut r, 3);
        let clauses = match to_dnf(&q) {
            Ok(c) => c,
            Err(_) => continue, // clause budget exceeded — guarded elsewhere
        };
        let nfa = build_glushkov(&q);
        let clause_nfas: Vec<_> = clauses
            .iter()
            .map(|c| build_glushkov(&c.to_regex()))
            .collect();
        for _ in 0..20 {
            let w = random_word(&mut r, 6);
            let direct = nfa.matches(&w);
            let via_dnf = clause_nfas.iter().any(|n| n.matches(&w));
            assert_eq!(direct, via_dnf, "case {case}: query {q}, word {w:?}");
        }
    }
}

/// Decomposition round-trip: Pre·R^(+|*)·Post reassembles to a regex with
/// the same language as the original clause.
#[test]
fn decompose_preserves_language() {
    let mut r = rng(43);
    for case in 0..60 {
        let q = random_regex(&mut r, 3);
        let Ok(clauses) = to_dnf(&q) else { continue };
        for clause in &clauses {
            let unit = decompose(clause);
            let reassembled = unit.to_regex();
            let a = build_glushkov(&clause.to_regex());
            let b = build_glushkov(&reassembled);
            for _ in 0..10 {
                let w = random_word(&mut r, 6);
                assert_eq!(
                    a.matches(&w),
                    b.matches(&w),
                    "case {case}: clause {clause}, word {w:?}"
                );
            }
        }
    }
}

/// The Glushkov automaton and the derivative matcher (which share no
/// code) accept the same language on random probes.
#[test]
fn automata_backends_agree() {
    let mut r = rng(47);
    for case in 0..60 {
        let q = random_regex(&mut r, 3);
        let glushkov = build_glushkov(&q);
        let mut derivative = DerivativeMatcher::new(&q);
        for _ in 0..25 {
            let w = random_word(&mut r, 7);
            let expect = glushkov.matches(&w);
            assert_eq!(
                derivative.matches(&w),
                expect,
                "case {case}: derivative, {q}, {w:?}"
            );
        }
    }
}

/// Nullability agrees between the AST analysis and both matchers.
#[test]
fn nullability_is_consistent() {
    let mut r = rng(53);
    for _ in 0..100 {
        let q = random_regex(&mut r, 3);
        let expect = q.nullable();
        assert_eq!(build_glushkov(&q).accepts_empty(), expect, "{q}");
        assert_eq!(build_glushkov(&q).matches(&[]), expect, "{q}");
        assert_eq!(DerivativeMatcher::new(&q).matches(&[]), expect, "{q}");
    }
}

/// Parser ↔ printer round-trip on random expressions.
#[test]
fn parse_display_roundtrip_random() {
    let mut r = rng(59);
    for _ in 0..200 {
        let q = random_regex(&mut r, 4);
        let printed = q.to_string();
        let reparsed =
            Regex::parse(&printed).unwrap_or_else(|e| panic!("failed to reparse '{printed}': {e}"));
        assert_eq!(q, reparsed, "roundtrip failed for {printed}");
    }
}
