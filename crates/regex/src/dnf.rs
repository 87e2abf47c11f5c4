//! Disjunctive normal form with outermost Kleene closures as literals.
//!
//! Section IV-A: "we can convert all RPQs to a logically equivalent DNF
//! treating each outermost Kleene closure as a literal" \[15\]. A DNF clause
//! is a concatenation of literals, where a literal is either a single edge
//! label or a whole closure `R+`/`R*` (whose body may itself contain
//! arbitrary nesting — the recursion in Algorithm 1 deals with that).
//!
//! The transformation distributes alternation over concatenation
//! (`(a|b)·c → a·c | b·c`) and expands options (`r? → r | ε`). It can grow
//! exponentially, so [`to_dnf_with_limit`] enforces a clause budget.

use crate::ast::{ClosureKind, Regex};
use crate::error::DnfError;
use std::fmt;

/// Default clause budget for [`to_dnf`].
pub const DEFAULT_CLAUSE_LIMIT: usize = 4096;

/// A DNF literal: an edge label or an outermost Kleene closure.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Literal {
    /// A single edge label.
    Label(String),
    /// An outermost closure `inner+` or `inner*`.
    Closure {
        /// The closure body `R` (may contain nested closures).
        inner: Regex,
        /// Plus or star.
        kind: ClosureKind,
    },
}

impl Literal {
    /// Converts the literal back to a regular expression.
    pub fn to_regex(&self) -> Regex {
        match self {
            Literal::Label(l) => Regex::Label(l.clone()),
            Literal::Closure { inner, kind } => Regex::closure(inner.clone(), *kind),
        }
    }

    /// Whether this literal is a closure.
    pub fn is_closure(&self) -> bool {
        matches!(self, Literal::Closure { .. })
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_regex())
    }
}

/// A DNF clause: a concatenation of literals. The empty clause is `ε`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct Clause {
    /// The literals, in concatenation order.
    pub literals: Vec<Literal>,
}

impl Clause {
    /// The `ε` clause.
    pub fn epsilon() -> Self {
        Self::default()
    }

    /// Whether any literal is a Kleene closure.
    pub fn has_closure(&self) -> bool {
        self.literals.iter().any(Literal::is_closure)
    }

    /// Converts the clause back to a regular expression.
    pub fn to_regex(&self) -> Regex {
        Regex::concat(self.literals.iter().map(Literal::to_regex).collect())
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_regex())
    }
}

/// Converts `r` to DNF with the default clause budget.
pub fn to_dnf(r: &Regex) -> Result<Vec<Clause>, DnfError> {
    to_dnf_with_limit(r, DEFAULT_CLAUSE_LIMIT)
}

/// Converts `r` to DNF, failing if more than `limit` clauses would result.
///
/// The returned clause list is duplicate-free and preserves first-produced
/// order (left alternative first), which keeps evaluation order predictable.
pub fn to_dnf_with_limit(r: &Regex, limit: usize) -> Result<Vec<Clause>, DnfError> {
    let mut clauses = convert(r, limit)?;
    dedup_preserving_order(&mut clauses);
    Ok(clauses)
}

fn convert(r: &Regex, limit: usize) -> Result<Vec<Clause>, DnfError> {
    let out = match r {
        Regex::Empty => vec![],
        Regex::Epsilon => vec![Clause::epsilon()],
        Regex::Label(l) => vec![Clause {
            literals: vec![Literal::Label(l.clone())],
        }],
        Regex::Plus(inner) => vec![Clause {
            literals: vec![Literal::Closure {
                inner: (**inner).clone(),
                kind: ClosureKind::Plus,
            }],
        }],
        Regex::Star(inner) => vec![Clause {
            literals: vec![Literal::Closure {
                inner: (**inner).clone(),
                kind: ClosureKind::Star,
            }],
        }],
        Regex::Optional(inner) => {
            let mut clauses = convert(inner, limit)?;
            clauses.push(Clause::epsilon());
            clauses
        }
        Regex::Alt(parts) => {
            let mut clauses = Vec::new();
            for p in parts {
                clauses.extend(convert(p, limit)?);
                if clauses.len() > limit {
                    return Err(DnfError::TooManyClauses { limit });
                }
            }
            clauses
        }
        Regex::Concat(parts) => {
            let mut acc = vec![Clause::epsilon()];
            for p in parts {
                let rhs = convert(p, limit)?;
                if acc.len().saturating_mul(rhs.len()) > limit {
                    return Err(DnfError::TooManyClauses { limit });
                }
                let mut next = Vec::with_capacity(acc.len() * rhs.len());
                for a in &acc {
                    for b in &rhs {
                        let mut literals = Vec::with_capacity(a.literals.len() + b.literals.len());
                        literals.extend(a.literals.iter().cloned());
                        literals.extend(b.literals.iter().cloned());
                        next.push(Clause { literals });
                    }
                }
                acc = next;
            }
            acc
        }
    };
    if out.len() > limit {
        return Err(DnfError::TooManyClauses { limit });
    }
    Ok(out)
}

fn dedup_preserving_order(clauses: &mut Vec<Clause>) {
    let mut seen: Vec<Clause> = Vec::with_capacity(clauses.len());
    clauses.retain(|c| {
        if seen.contains(c) {
            false
        } else {
            seen.push(c.clone());
            true
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dnf_strings(src: &str) -> Vec<String> {
        let r = Regex::parse(src).unwrap();
        to_dnf(&r).unwrap().iter().map(|c| c.to_string()).collect()
    }

    #[test]
    fn label_is_single_clause() {
        assert_eq!(dnf_strings("a"), vec!["a"]);
    }

    #[test]
    fn epsilon_is_single_empty_clause() {
        let r = Regex::Epsilon;
        let d = to_dnf(&r).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0], Clause::epsilon());
    }

    #[test]
    fn empty_language_has_no_clauses() {
        assert!(to_dnf(&Regex::Empty).unwrap().is_empty());
    }

    #[test]
    fn alternation_splits_into_clauses() {
        assert_eq!(dnf_strings("a|b.c|d+"), vec!["a", "b.c", "d+"]);
    }

    #[test]
    fn concat_distributes_over_alt() {
        assert_eq!(dnf_strings("(a|b).c"), vec!["a.c", "b.c"]);
        assert_eq!(dnf_strings("a.(b|c)"), vec!["a.b", "a.c"]);
        assert_eq!(dnf_strings("(a|b).(c|d)"), vec!["a.c", "a.d", "b.c", "b.d"]);
    }

    #[test]
    fn outermost_closure_is_opaque_literal() {
        // (a|b)+ must NOT be distributed — the closure body stays intact.
        let d = dnf_strings("(a|b)+");
        assert_eq!(d, vec!["(a|b)+"]);
        let r = Regex::parse("(a|b)+").unwrap();
        let clauses = to_dnf(&r).unwrap();
        assert_eq!(clauses.len(), 1);
        assert!(clauses[0].has_closure());
        match &clauses[0].literals[0] {
            Literal::Closure { inner, kind } => {
                assert_eq!(*kind, ClosureKind::Plus);
                assert_eq!(inner, &Regex::parse("a|b").unwrap());
            }
            other => panic!("expected closure literal, got {other:?}"),
        }
    }

    #[test]
    fn option_expands_to_clause_plus_epsilon() {
        let r = Regex::parse("a?").unwrap();
        let d = to_dnf(&r).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].to_string(), "a");
        assert_eq!(d[1], Clause::epsilon());
    }

    #[test]
    fn option_inside_concat() {
        assert_eq!(dnf_strings("a.b?.c"), vec!["a.b.c", "a.c"]);
    }

    #[test]
    fn paper_batch_unit_shape() {
        // d·(b·c)+·c is one clause: [d, (b·c)+, c].
        let r = Regex::parse("d.(b.c)+.c").unwrap();
        let d = to_dnf(&r).unwrap();
        assert_eq!(d.len(), 1);
        let lits = &d[0].literals;
        assert_eq!(lits.len(), 3);
        assert_eq!(lits[0], Literal::Label("d".into()));
        assert!(lits[1].is_closure());
        assert_eq!(lits[2], Literal::Label("c".into()));
    }

    #[test]
    fn nested_closures_stay_in_literal() {
        // (a·b+·c)+ from Example 7 is one literal with a nested closure.
        let r = Regex::parse("(a.b+.c)+").unwrap();
        let d = to_dnf(&r).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].literals.len(), 1);
        match &d[0].literals[0] {
            Literal::Closure { inner, .. } => assert!(inner.has_closure()),
            other => panic!("expected closure, got {other:?}"),
        }
    }

    #[test]
    fn clauses_are_deduplicated() {
        // (a|a.b?) -> a, a.b, a -> dedup to [a, a.b].
        assert_eq!(
            dnf_strings("a|a.b?|a"),
            vec!["a", "a.b", "a"]
                .into_iter()
                .map(String::from)
                .collect::<Vec<_>>()[..2]
                .to_vec()
        );
    }

    #[test]
    fn clause_roundtrip_to_regex() {
        let r = Regex::parse("d.(b.c)+.c").unwrap();
        let d = to_dnf(&r).unwrap();
        assert_eq!(d[0].to_regex(), r);
    }

    #[test]
    fn clause_limit_enforced() {
        // (a|b)^12 would be 4096 clauses; with limit 100 it must fail.
        let base = Regex::parse("a|b").unwrap();
        let big = Regex::concat(vec![base; 12]);
        let err = to_dnf_with_limit(&big, 100).unwrap_err();
        assert_eq!(err, DnfError::TooManyClauses { limit: 100 });
        // And with the default limit it succeeds at exactly 4096 clauses.
        assert_eq!(to_dnf(&big).unwrap().len(), 4096);
    }

    #[test]
    fn star_closure_literal_kind() {
        let r = Regex::parse("(a.b)*").unwrap();
        let d = to_dnf(&r).unwrap();
        match &d[0].literals[0] {
            Literal::Closure { kind, .. } => assert_eq!(*kind, ClosureKind::Star),
            other => panic!("expected closure, got {other:?}"),
        }
    }

    #[test]
    fn display_of_literals() {
        assert_eq!(Literal::Label("a".into()).to_string(), "a");
        let c = Literal::Closure {
            inner: Regex::parse("b.c").unwrap(),
            kind: ClosureKind::Plus,
        };
        assert_eq!(c.to_string(), "(b.c)+");
    }
}
