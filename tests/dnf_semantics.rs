//! Language-preservation of the DNF transformation and agreement between
//! the Glushkov automaton and the derivative matcher, using random words
//! as probes; and the expression language's own properties: printing,
//! parsing, smart constructors and well-formed DNF clauses.

use rpq_testkit::{check, random_regex, random_syntax, random_word, rng};
use rtc_rpq::automata::{build_glushkov, DerivativeMatcher};
use rtc_rpq::regex::{decompose, to_dnf, Literal, Regex};

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

/// Display → parse is the identity on normalized expressions, and keeps
/// canonical keys, size, nullability and closures. `∅` only prints at top
/// level in normalized form, so it is covered on its own below.
#[test]
fn syntax_survives_print_and_parse() {
    check(0x2E, 256, random_syntax, |r| {
        if *r == Regex::Empty {
            return;
        }
        let printed = r.to_string();
        let reparsed =
            Regex::parse(&printed).unwrap_or_else(|e| panic!("reparse of '{printed}' failed: {e}"));
        assert_eq!(r, &reparsed, "printed: {printed}");
        let key = r.canonical_key();
        assert_eq!(key, Regex::parse(&key).unwrap().canonical_key());
        assert_eq!(r.nullable(), reparsed.nullable());
        assert_eq!(r.size(), reparsed.size());
        assert_eq!(r.has_closure(), reparsed.has_closure());
    });
}

#[test]
fn empty_regex_prints_and_reparses() {
    assert_eq!(Regex::Empty.to_string(), "∅");
    assert_eq!(Regex::parse("∅").unwrap(), Regex::Empty);
}

/// Smart constructors are idempotent: rebuilding a normalized tree
/// through the constructors yields the same tree.
#[test]
fn constructors_idempotent() {
    fn rebuild(r: &Regex) -> Regex {
        match r {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Label(l) => Regex::label(l.clone()),
            Regex::Concat(parts) => Regex::concat(parts.iter().map(rebuild).collect()),
            Regex::Alt(parts) => Regex::alt(parts.iter().map(rebuild).collect()),
            Regex::Plus(inner) => Regex::plus(rebuild(inner)),
            Regex::Star(inner) => Regex::star(rebuild(inner)),
            Regex::Optional(inner) => Regex::optional(rebuild(inner)),
        }
    }
    check(0x2F, 256, random_syntax, |r| assert_eq!(&rebuild(r), r));
}

/// DNF clauses are closure-literal-correct: every clause either has no
/// closure or decomposes with a closure whose Post is label-only, and the
/// reassembled batch unit equals the clause. The clauses keep the query's
/// nullability (some clause is nullable iff the query is) and its label
/// set (no labels invented or lost).
#[test]
fn dnf_clauses_decompose_cleanly() {
    check(0x30, 256, random_syntax, |r| {
        let Ok(clauses) = to_dnf(r) else { return };
        for clause in &clauses {
            let unit = decompose(clause);
            assert_eq!(unit.to_regex(), clause.to_regex());
            if let Some(i) = clause.literals.iter().rposition(|l| l.is_closure()) {
                let post = &clause.literals[i + 1..];
                assert!(post.iter().all(|l| matches!(l, Literal::Label(_))));
            } else {
                assert_eq!(unit.closure, None);
            }
        }
        let any_nullable = clauses.iter().any(|c| c.to_regex().nullable());
        assert_eq!(r.nullable(), any_nullable);
        let mut from_clauses: Vec<String> = clauses
            .iter()
            .flat_map(|c| {
                c.to_regex()
                    .labels()
                    .into_iter()
                    .map(String::from)
                    .collect::<Vec<_>>()
            })
            .collect();
        from_clauses.sort();
        from_clauses.dedup();
        let mut from_query: Vec<String> = r.labels().into_iter().map(String::from).collect();
        from_query.sort();
        assert_eq!(from_query, from_clauses);
    });
}
