//! Glushkov (position) automaton construction.
//!
//! The Glushkov automaton has one state per label *occurrence* (position)
//! plus an initial state, and is ε-free by construction — exactly the shape
//! the product-graph traversal wants. The construction computes the classic
//! `nullable` / `first` / `last` / `follow` sets in one AST pass.

use crate::nfa::Nfa;
use rpq_regex::Regex;
use rustc_hash::FxHashMap;

/// Builds the Glushkov position automaton for `r`.
///
/// State 0 is initial; state `p` (1-based) corresponds to the `p`-th label
/// occurrence in left-to-right order. Accepting states are the `last` set,
/// plus state 0 when `r` is nullable.
pub fn build_glushkov(r: &Regex) -> Nfa {
    let mut b = Builder::default();
    let info = b.walk(r);

    let state_count = b.position_symbol.len() + 1;
    let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); state_count];
    for &p in &info.first {
        rows[0].push((b.position_symbol[p as usize - 1], p));
    }
    for (p, follows) in b.follow.iter().enumerate() {
        for &q in follows {
            rows[p + 1].push((b.position_symbol[q as usize - 1], q));
        }
    }

    let mut accepting = vec![false; state_count];
    accepting[0] = info.nullable;
    for &p in &info.last {
        accepting[p as usize] = true;
    }

    Nfa::from_parts(b.alphabet, rows, accepting)
}

/// `nullable` / `first` / `last` triple for a sub-expression.
struct Info {
    nullable: bool,
    first: Vec<u32>,
    last: Vec<u32>,
}

impl Info {
    fn empty() -> Self {
        Info {
            nullable: false,
            first: Vec::new(),
            last: Vec::new(),
        }
    }
}

#[derive(Default)]
struct Builder {
    alphabet: Vec<String>,
    symbol_index: FxHashMap<String, u32>,
    /// 0-based position → local symbol.
    position_symbol: Vec<u32>,
    /// 0-based position → set of follow positions (1-based ids).
    follow: Vec<Vec<u32>>,
}

impl Builder {
    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&s) = self.symbol_index.get(label) {
            return s;
        }
        let s = self.alphabet.len() as u32;
        self.alphabet.push(label.to_owned());
        self.symbol_index.insert(label.to_owned(), s);
        s
    }

    fn new_position(&mut self, symbol: u32) -> u32 {
        self.position_symbol.push(symbol);
        self.follow.push(Vec::new());
        self.position_symbol.len() as u32 // 1-based
    }

    fn add_follow(&mut self, from: &[u32], to: &[u32]) {
        for &p in from {
            let row = &mut self.follow[p as usize - 1];
            for &q in to {
                if !row.contains(&q) {
                    row.push(q);
                }
            }
        }
    }

    fn walk(&mut self, r: &Regex) -> Info {
        match r {
            Regex::Empty => Info::empty(),
            Regex::Epsilon => Info {
                nullable: true,
                first: Vec::new(),
                last: Vec::new(),
            },
            Regex::Label(l) => {
                let sym = self.intern(l);
                let p = self.new_position(sym);
                Info {
                    nullable: false,
                    first: vec![p],
                    last: vec![p],
                }
            }
            Regex::Concat(parts) => {
                let mut acc = Info {
                    nullable: true,
                    first: Vec::new(),
                    last: Vec::new(),
                };
                for part in parts {
                    let info = self.walk(part);
                    self.add_follow(&acc.last, &info.first);
                    if acc.nullable {
                        acc.first.extend_from_slice(&info.first);
                    }
                    if info.nullable {
                        acc.last.extend_from_slice(&info.last);
                    } else {
                        acc.last = info.last;
                    }
                    acc.nullable &= info.nullable;
                }
                acc
            }
            Regex::Alt(parts) => {
                let mut acc = Info::empty();
                for part in parts {
                    let info = self.walk(part);
                    acc.nullable |= info.nullable;
                    acc.first.extend(info.first);
                    acc.last.extend(info.last);
                }
                acc
            }
            Regex::Plus(inner) => {
                let info = self.walk(inner);
                self.add_follow(&info.last, &info.first);
                info
            }
            Regex::Star(inner) => {
                let info = self.walk(inner);
                self.add_follow(&info.last, &info.first);
                Info {
                    nullable: true,
                    ..info
                }
            }
            Regex::Optional(inner) => {
                let info = self.walk(inner);
                Info {
                    nullable: true,
                    ..info
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nfa(src: &str) -> Nfa {
        build_glushkov(&Regex::parse(src).unwrap())
    }

    #[test]
    fn single_label() {
        let n = nfa("a");
        assert_eq!(n.state_count(), 2);
        assert!(n.matches(&["a"]));
        assert!(!n.matches(&[]));
        assert!(!n.matches(&["a", "a"]));
    }

    #[test]
    fn concat() {
        let n = nfa("a.b.c");
        assert_eq!(n.state_count(), 4);
        assert!(n.matches(&["a", "b", "c"]));
        assert!(!n.matches(&["a", "b"]));
        assert!(!n.matches(&["a", "c", "b"]));
    }

    #[test]
    fn alternation() {
        let n = nfa("a|b.c");
        assert!(n.matches(&["a"]));
        assert!(n.matches(&["b", "c"]));
        assert!(!n.matches(&["b"]));
        assert!(!n.matches(&["a", "b", "c"]));
    }

    #[test]
    fn kleene_plus() {
        let n = nfa("(b.c)+");
        assert!(!n.matches(&[]));
        assert!(n.matches(&["b", "c"]));
        assert!(n.matches(&["b", "c", "b", "c"]));
        assert!(!n.matches(&["b", "c", "b"]));
        assert!(!n.accepts_empty());
    }

    #[test]
    fn kleene_star() {
        let n = nfa("(b.c)*");
        assert!(n.matches(&[]));
        assert!(n.accepts_empty());
        assert!(n.matches(&["b", "c", "b", "c"]));
        assert!(!n.matches(&["c"]));
    }

    #[test]
    fn optional() {
        let n = nfa("a.b?.c");
        assert!(n.matches(&["a", "c"]));
        assert!(n.matches(&["a", "b", "c"]));
        assert!(!n.matches(&["a", "b", "b", "c"]));
    }

    #[test]
    fn paper_query_language() {
        // d·(b·c)+·c accepts dbcc, dbcbcc, ... (Example 1).
        let n = nfa("d.(b.c)+.c");
        assert!(n.matches(&["d", "b", "c", "c"]));
        assert!(n.matches(&["d", "b", "c", "b", "c", "c"]));
        assert!(!n.matches(&["d", "c"]));
        assert!(!n.matches(&["d", "b", "c"]));
        assert!(!n.matches(&["b", "c", "c"]));
        // The Glushkov automaton for this query has 5 states — exactly the
        // q0..q4 NFA drawn in Fig. 3.
        assert_eq!(n.state_count(), 5);
    }

    #[test]
    fn nested_closures() {
        let n = nfa("(a.b+.c)+");
        assert!(n.matches(&["a", "b", "c"]));
        assert!(n.matches(&["a", "b", "b", "c"]));
        assert!(n.matches(&["a", "b", "c", "a", "b", "b", "c"]));
        assert!(!n.matches(&["a", "c"]));
        assert!(!n.matches(&["a", "b"]));
    }

    #[test]
    fn nullable_concat_of_stars() {
        let n = nfa("a*.b*");
        assert!(n.matches(&[]));
        assert!(n.matches(&["a"]));
        assert!(n.matches(&["b"]));
        assert!(n.matches(&["a", "a", "b"]));
        assert!(!n.matches(&["b", "a"]));
    }

    #[test]
    fn empty_language() {
        let n = build_glushkov(&Regex::Empty);
        assert_eq!(n.state_count(), 1);
        assert!(!n.matches(&[]));
        assert!(!n.accepts_empty());
        assert!(n.transitions_from(0).is_empty());
    }

    #[test]
    fn epsilon_language() {
        let n = build_glushkov(&Regex::Epsilon);
        assert_eq!(n.state_count(), 1);
        assert!(n.matches(&[]));
        assert!(!n.matches(&["a"]));
    }

    #[test]
    fn state_count_is_positions_plus_one() {
        // Glushkov has exactly one state per label occurrence + initial.
        assert_eq!(nfa("a.a.a").state_count(), 4);
        assert_eq!(nfa("(a|b)+").state_count(), 3);
        assert_eq!(nfa("(a.b)*.b+.(a.b+.c)+").state_count(), 7);
    }

    #[test]
    fn repeated_label_shares_symbol() {
        let n = nfa("a.a");
        assert_eq!(n.alphabet().len(), 1);
        assert_eq!(n.state_count(), 3);
    }

    #[test]
    fn star_of_alt() {
        let n = nfa("(a|b)*");
        assert!(n.matches(&[]));
        assert!(n.matches(&["a", "b", "a", "a"]));
        assert!(!n.matches(&["a", "z"]));
    }
}
