//! Query plans: Algorithm 1's recursion, walked once.
//!
//! [`explain_with_limit`] is the engine's only planner. It converts a query
//! to DNF with the outermost closures opaque (line 2), decomposes each
//! clause into `Pre · R^(+|*) · Post` (line 4) and plans `Pre` by recursion
//! (line 8), evaluating nothing. The engine runs that plan: evaluation
//! joins it (`sharing::eval_query`), [`crate::Engine::prepare`] fetches or
//! builds each of [`QueryPlan::bodies`] and joins nothing, and `EXPLAIN`
//! renders it — the textual rendering mirrors the recursion trees of the
//! paper's Fig. 7.
//!
//! A plan never looks inside a closure body `R`: bodies nested in `R` are
//! met only when a cache miss evaluates `R_G`, and `R`'s own clause budget
//! is checked when its structure is built, not when it is planned, so a
//! cache hit never expands a body's DNF. [`explain_set`] plans such bodies
//! on its own, to list every body a cold evaluation of the set caches.

use crate::error::EngineError;
use rpq_regex::{decompose, to_dnf_with_limit, ClosureKind, Regex, DEFAULT_CLAUSE_LIMIT};
use rustc_hash::FxHashMap;
use std::fmt;

/// The plan for one query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryPlan {
    /// The (normalized) query.
    pub query: Regex,
    /// One plan per DNF clause, in evaluation order.
    pub clauses: Vec<ClausePlan>,
}

/// The plan for one DNF clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClausePlan {
    /// Closure-free clause: evaluated by label-edge joins
    /// (`EvalRPQwithoutKC`). An empty label list is the `ε` clause.
    LabelJoin {
        /// The label sequence.
        labels: Vec<String>,
    },
    /// A batch unit `Pre · R^(+|*) · Post` (Algorithm 2).
    BatchUnit {
        /// The recursive plan for `Pre` (`None` when `Pre = ε`).
        pre: Option<Box<QueryPlan>>,
        /// Cache key of the closure body `R`.
        r_key: String,
        /// The closure body `R`, which a cache miss builds its shared
        /// structure from.
        body: Regex,
        /// Plus or star.
        closure: ClosureKind,
        /// The closure-free postfix labels.
        post: Vec<String>,
    },
}

/// A plan for a multiple-RPQ set with sharing analysis.
#[derive(Clone, Debug)]
pub struct SetPlan {
    /// Per-query plans in evaluation order.
    pub queries: Vec<QueryPlan>,
    /// Every closure body a cold evaluation of the set caches, nested ones
    /// included, and how many batch units reference each (sorted by
    /// descending reference count, then key). Counts > 1 mean the RTC is
    /// computed once and shared.
    pub shared_bodies: Vec<(String, usize)>,
}

/// Explains one query with the default clause budget.
pub fn explain(query: &Regex) -> Result<QueryPlan, EngineError> {
    explain_with_limit(query, DEFAULT_CLAUSE_LIMIT)
}

/// Explains one query with an explicit clause budget.
pub fn explain_with_limit(query: &Regex, limit: usize) -> Result<QueryPlan, EngineError> {
    plan(query.clone(), limit)
}

fn plan(query: Regex, limit: usize) -> Result<QueryPlan, EngineError> {
    let clauses = to_dnf_with_limit(&query, limit)?
        .iter()
        .map(|clause| {
            let unit = decompose(clause);
            Ok(match unit.closure {
                None => ClausePlan::LabelJoin { labels: unit.post },
                Some((body, closure)) => ClausePlan::BatchUnit {
                    pre: match unit.pre {
                        Regex::Epsilon => None,
                        pre => Some(Box::new(plan(pre, limit)?)),
                    },
                    r_key: body.canonical_key(),
                    body,
                    closure,
                    post: unit.post,
                },
            })
        })
        .collect::<Result<_, EngineError>>()?;
    Ok(QueryPlan { query, clauses })
}

/// Explains a query set and reports which closure bodies are shared.
pub fn explain_set(queries: &[Regex]) -> Result<SetPlan, EngineError> {
    explain_set_with_limit(queries, DEFAULT_CLAUSE_LIMIT)
}

/// Explains a query set with an explicit clause budget. A body with a
/// closure is planned too, as its cold build evaluates `R_G` by that plan:
/// bodies only such plans list count the batch units there naming them.
pub fn explain_set_with_limit(queries: &[Regex], limit: usize) -> Result<SetPlan, EngineError> {
    let plans = queries
        .iter()
        .map(|q| explain_with_limit(q, limit))
        .collect::<Result<Vec<_>, _>>()?;
    let mut counts: FxHashMap<String, usize> = FxHashMap::default();
    let mut nesting = Vec::new();
    for (key, body) in plans.iter().flat_map(QueryPlan::bodies) {
        let count = counts.entry(key.to_owned()).or_insert(0);
        if *count == 0 && body.has_closure() {
            nesting.push(body.clone());
        }
        *count += 1;
    }
    let mut nested: FxHashMap<String, usize> = FxHashMap::default();
    while let Some(body) = nesting.pop() {
        for (key, inner) in explain_with_limit(&body, limit)?.bodies() {
            if counts.contains_key(key) {
                continue;
            }
            let count = nested.entry(key.to_owned()).or_insert(0);
            if *count == 0 && inner.has_closure() {
                nesting.push(inner.clone());
            }
            *count += 1;
        }
    }
    let mut shared_bodies: Vec<(String, usize)> = counts.into_iter().chain(nested).collect();
    shared_bodies.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    Ok(SetPlan {
        queries: plans,
        shared_bodies,
    })
}

impl QueryPlan {
    /// Every batch unit's closure body as `(cache key, R)`, in the order
    /// evaluation reaches them: a unit's `Pre` before its own body.
    pub fn bodies(&self) -> Vec<(&str, &Regex)> {
        let mut out = Vec::new();
        self.push_bodies(&mut out);
        out
    }

    fn push_bodies<'a>(&'a self, out: &mut Vec<(&'a str, &'a Regex)>) {
        for clause in &self.clauses {
            if let ClausePlan::BatchUnit {
                pre, r_key, body, ..
            } = clause
            {
                if let Some(pre) = pre {
                    pre.push_bodies(out);
                }
                out.push((r_key, body));
            }
        }
    }

    fn render(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        out.push_str(&format!("{pad}query {}\n", self.query));
        for (i, clause) in self.clauses.iter().enumerate() {
            match clause {
                ClausePlan::LabelJoin { labels } => {
                    let seq = if labels.is_empty() {
                        "ε".to_string()
                    } else {
                        labels.join("·")
                    };
                    out.push_str(&format!("{pad}  clause {i}: label-join [{seq}]\n"));
                }
                ClausePlan::BatchUnit {
                    pre,
                    r_key,
                    closure,
                    post,
                    ..
                } => {
                    let post_s = if post.is_empty() {
                        "ε".to_string()
                    } else {
                        post.join("·")
                    };
                    out.push_str(&format!(
                        "{pad}  clause {i}: batch-unit Pre·({r_key}){closure}·{post_s}\n"
                    ));
                    match pre {
                        None => out.push_str(&format!("{pad}    pre: ε\n")),
                        Some(p) => {
                            out.push_str(&format!("{pad}    pre:\n"));
                            p.render(indent + 3, out);
                        }
                    }
                }
            }
        }
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.render(0, &mut out);
        f.write_str(out.trim_end())
    }
}

impl fmt::Display for SetPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for plan in &self.queries {
            writeln!(f, "{plan}")?;
        }
        writeln!(f, "shared closure bodies:")?;
        for (key, count) in &self.shared_bodies {
            writeln!(f, "  {key}  x{count}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(src: &str) -> QueryPlan {
        explain(&q(src)).unwrap()
    }

    fn q(src: &str) -> Regex {
        Regex::parse(src).unwrap()
    }

    #[test]
    fn closure_free_query_is_label_join() {
        let p = plan("a.b.c");
        assert_eq!(p.clauses.len(), 1);
        assert_eq!(
            p.clauses[0],
            ClausePlan::LabelJoin {
                labels: vec!["a".into(), "b".into(), "c".into()]
            }
        );
        assert_eq!(p.bodies().len(), 0);
    }

    #[test]
    fn paper_query_plan_shape() {
        let p = plan("d.(b.c)+.c");
        assert_eq!(p.clauses.len(), 1);
        match &p.clauses[0] {
            ClausePlan::BatchUnit {
                pre,
                r_key,
                body,
                closure,
                post,
            } => {
                assert_eq!(r_key, "b.c");
                assert_eq!(body.canonical_key(), "b.c");
                assert_eq!(*closure, ClosureKind::Plus);
                assert_eq!(post, &vec!["c".to_string()]);
                // Pre = d is itself a single label-join plan.
                let pre = pre.as_ref().unwrap();
                assert_eq!(pre.query.to_string(), "d");
                assert_eq!(pre.bodies().len(), 0);
            }
            other => panic!("expected batch unit, got {other:?}"),
        }
        assert_eq!(p.bodies().len(), 1);
    }

    #[test]
    fn example7_nested_plan() {
        // (a·b)*·b+·(a·b+·c)+ — Fig. 7's right-hand recursion tree.
        let p = plan("(a.b)*.b+.(a.b+.c)+");
        assert_eq!(p.bodies().len(), 3); // outer, b+, (a.b)*
        match &p.clauses[0] {
            ClausePlan::BatchUnit { pre, r_key, .. } => {
                assert_eq!(r_key, "a.b+.c");
                let pre = pre.as_ref().unwrap();
                assert_eq!(pre.query.to_string(), "(a.b)*.b+");
                match &pre.clauses[0] {
                    ClausePlan::BatchUnit {
                        pre: pre2, r_key, ..
                    } => {
                        assert_eq!(r_key, "b");
                        let pre2 = pre2.as_ref().unwrap();
                        assert_eq!(pre2.query.to_string(), "(a.b)*");
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bodies_list_pre_before_the_unit() {
        let p = plan("(a.b)*.b+.(a.b+.c)+ | c.(b.c)+");
        let keys: Vec<&str> = p.bodies().iter().map(|&(key, _)| key).collect();
        assert_eq!(keys, ["a.b", "b", "a.b+.c", "b.c"]);
        assert!(p
            .bodies()
            .iter()
            .all(|(key, body)| body.canonical_key() == *key));
    }

    #[test]
    fn alternation_produces_multiple_clauses() {
        let p = plan("a|b+.c");
        assert_eq!(p.clauses.len(), 2);
        assert!(matches!(p.clauses[0], ClausePlan::LabelJoin { .. }));
        assert!(matches!(p.clauses[1], ClausePlan::BatchUnit { .. }));
    }

    #[test]
    fn set_plan_counts_shared_bodies() {
        let queries = [
            Regex::parse("a.(b.c)+.d").unwrap(),
            Regex::parse("d.(b.c)+").unwrap(),
            Regex::parse("(b.c)*").unwrap(),
            Regex::parse("x+.y").unwrap(),
        ];
        let sp = explain_set(&queries).unwrap();
        assert_eq!(sp.queries.len(), 4);
        // b.c referenced by 3 batch units; x by 1.
        assert_eq!(sp.shared_bodies[0], ("b.c".to_string(), 3));
        assert!(sp.shared_bodies.contains(&("x".to_string(), 1)));
    }

    #[test]
    fn nested_bodies_are_counted() {
        let counts = |qs: &[&str], limit| {
            let qs: Vec<Regex> = qs.iter().map(|s| q(s)).collect();
            let sp = explain_set_with_limit(&qs, limit)?;
            let counts = sp.shared_bodies.iter().map(|(k, c)| format!("{k} x{c}"));
            Ok::<_, EngineError>(counts.collect::<Vec<_>>().join(", "))
        };
        // (a.b+.c)+'s plan shows a·b+·c only, but a cold build of that body
        // evaluates its R_G by its own plan, which caches b.
        assert_eq!(counts(&["(a.b+.c)+"], 64).unwrap(), "a.b+.c x1, b x1");
        // Each nesting body counts its reference; a body a query plan
        // lists keeps its plan count.
        let got = counts(&["(a.b+.c)+", "(d.b+)+", "e.(a.b+.c)+"], 64);
        assert_eq!(got.unwrap(), "a.b+.c x2, b x2, d.b+ x1");
        let got = counts(&["(a.b+.c)+", "b+"], 64);
        assert_eq!(got.unwrap(), "a.b+.c x1, b x1");
        // Nested bodies are planned under the same clause budget.
        assert!(counts(&["((a|b).(a|b).(c+|d))+"], 4).is_err());
        assert_eq!(
            counts(&["((a|b).(a|b).(c+|d))+"], 8).unwrap(),
            "c x4, (a|b).(a|b).(c+|d) x1"
        );
    }

    #[test]
    fn display_renders_tree() {
        let p = plan("d.(b.c)+.c");
        let text = p.to_string();
        assert!(text.contains("query d.(b.c)+.c"), "{text}");
        assert!(text.contains("batch-unit"), "{text}");
        assert!(text.contains("(b.c)+"), "{text}");
        let sp = explain_set(&[Regex::parse("d.(b.c)+.c").unwrap()]).unwrap();
        let text = sp.to_string();
        assert!(text.contains("shared closure bodies:"), "{text}");
        assert!(text.contains("b.c  x1"), "{text}");
    }

    #[test]
    fn epsilon_clause_plan() {
        let p = plan("a?");
        assert_eq!(p.clauses.len(), 2);
        assert_eq!(p.clauses[1], ClausePlan::LabelJoin { labels: vec![] });
    }

    #[test]
    fn explain_respects_clause_limit() {
        let big = Regex::parse("(a|b).(a|b).(a|b)").unwrap();
        assert!(explain_with_limit(&big, 4).is_err());
        assert!(explain_with_limit(&big, 8).is_ok());
    }
}
