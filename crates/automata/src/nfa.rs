//! The shared ε-free NFA representation.
//!
//! States are dense `u32` ids with state 0 as the initial state. Symbols are
//! a compact local alphabet (`0..k`) of the label names that actually occur
//! in the expression — the evaluator maps graph [`rpq_graph::LabelId`]s onto
//! this local alphabet once per query, so per-edge lookups are plain vector
//! indexing.

use rpq_graph::Csr;

/// An automaton state id. State 0 is always the initial state.
pub type StateId = u32;

/// An ε-free nondeterministic finite automaton over a compact local alphabet.
#[derive(Clone, Debug)]
pub struct Nfa {
    /// Local symbol index → label name.
    alphabet: Vec<String>,
    /// Per-state transition lists, sorted by `(symbol, target)`.
    transitions: Csr<(u32, StateId)>,
    /// Accepting-state flags.
    accepting: Vec<bool>,
}

impl Nfa {
    /// Builds an NFA from parts. Transition rows are sorted on entry.
    pub fn from_parts(
        alphabet: Vec<String>,
        mut transition_rows: Vec<Vec<(u32, StateId)>>,
        accepting: Vec<bool>,
    ) -> Self {
        assert_eq!(
            transition_rows.len(),
            accepting.len(),
            "state count mismatch"
        );
        assert!(
            !accepting.is_empty(),
            "an NFA needs at least the initial state"
        );
        for row in &mut transition_rows {
            row.sort_unstable();
            row.dedup();
        }
        Self {
            alphabet,
            transitions: Csr::from_rows(transition_rows),
            accepting,
        }
    }

    /// Number of states.
    #[inline]
    pub fn state_count(&self) -> usize {
        self.accepting.len()
    }

    /// The local alphabet (symbol index → label name).
    #[inline]
    pub fn alphabet(&self) -> &[String] {
        &self.alphabet
    }

    /// Finds the local symbol for a label name.
    pub fn symbol_of(&self, label: &str) -> Option<u32> {
        self.alphabet
            .iter()
            .position(|l| l == label)
            .map(|i| i as u32)
    }

    /// All transitions out of `state`, sorted by `(symbol, target)`.
    #[inline]
    pub fn transitions_from(&self, state: StateId) -> &[(u32, StateId)] {
        self.transitions.row(state as usize)
    }

    /// Targets reachable from `state` on `symbol`.
    pub fn targets(&self, state: StateId, symbol: u32) -> impl Iterator<Item = StateId> + '_ {
        let row = self.transitions_from(state);
        let lo = row.partition_point(move |&(s, _)| s < symbol);
        row[lo..]
            .iter()
            .take_while(move |&&(s, _)| s == symbol)
            .map(|&(_, t)| t)
    }

    /// Whether `state` accepts.
    #[inline]
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state as usize]
    }

    /// Whether the automaton accepts the empty word (the initial state
    /// accepts) — mirrors `Regex::nullable`.
    #[inline]
    pub fn accepts_empty(&self) -> bool {
        self.accepting[0]
    }

    /// Runs the NFA over a sequence of local symbols.
    pub fn matches_symbols(&self, symbols: &[u32]) -> bool {
        let mut current = vec![false; self.state_count()];
        current[0] = true;
        let mut next = vec![false; self.state_count()];
        for &sym in symbols {
            next.fill(false);
            let mut any = false;
            for (state, active) in current.iter().enumerate() {
                if !active {
                    continue;
                }
                for t in self.targets(state as StateId, sym) {
                    next[t as usize] = true;
                    any = true;
                }
            }
            if !any {
                return false;
            }
            std::mem::swap(&mut current, &mut next);
        }
        current
            .iter()
            .enumerate()
            .any(|(s, &active)| active && self.accepting[s])
    }

    /// Runs the NFA over a sequence of label names; labels outside the
    /// alphabet reject immediately.
    pub fn matches(&self, labels: &[&str]) -> bool {
        let mut symbols = Vec::with_capacity(labels.len());
        for l in labels {
            match self.symbol_of(l) {
                Some(s) => symbols.push(s),
                None => return false,
            }
        }
        self.matches_symbols(&symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built NFA for `a·b+`: 0 -a-> 1, 1 -b-> 2, 2 -b-> 2; accept {2}.
    fn ab_plus() -> Nfa {
        Nfa::from_parts(
            vec!["a".into(), "b".into()],
            vec![vec![(0, 1)], vec![(1, 2)], vec![(1, 2)]],
            vec![false, false, true],
        )
    }

    #[test]
    fn counts() {
        let n = ab_plus();
        assert_eq!(n.state_count(), 3);
        assert_eq!(n.transitions.len(), 3);
        assert_eq!(n.alphabet(), &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn symbol_lookup() {
        let n = ab_plus();
        assert_eq!(n.symbol_of("a"), Some(0));
        assert_eq!(n.symbol_of("b"), Some(1));
        assert_eq!(n.symbol_of("z"), None);
    }

    #[test]
    fn matching() {
        let n = ab_plus();
        assert!(n.matches(&["a", "b"]));
        assert!(n.matches(&["a", "b", "b", "b"]));
        assert!(!n.matches(&["a"]));
        assert!(!n.matches(&["b"]));
        assert!(!n.matches(&[]));
        assert!(!n.matches(&["a", "b", "a"]));
        assert!(!n.matches(&["a", "z"]));
    }

    #[test]
    fn accepts_empty_flag() {
        let n = ab_plus();
        assert!(!n.accepts_empty());
        let nullable = Nfa::from_parts(
            vec!["a".into()],
            vec![vec![(0, 1)], vec![]],
            vec![true, true],
        );
        assert!(nullable.accepts_empty());
        assert!(nullable.matches(&[]));
    }

    #[test]
    fn targets_filters_by_symbol() {
        let n = Nfa::from_parts(
            vec!["a".into(), "b".into()],
            vec![vec![(0, 1), (0, 2), (1, 2)], vec![], vec![]],
            vec![false, true, true],
        );
        let on_a: Vec<u32> = n.targets(0, 0).collect();
        assert_eq!(on_a, vec![1, 2]);
        let on_b: Vec<u32> = n.targets(0, 1).collect();
        assert_eq!(on_b, vec![2]);
        assert_eq!(n.targets(1, 0).count(), 0);
    }

    #[test]
    fn duplicate_transitions_are_removed() {
        let n = Nfa::from_parts(
            vec!["a".into()],
            vec![vec![(0, 1), (0, 1)], vec![]],
            vec![false, true],
        );
        assert_eq!(n.transitions.len(), 1);
    }

    #[test]
    #[should_panic(expected = "state count mismatch")]
    fn mismatched_parts_panic() {
        let _ = Nfa::from_parts(vec![], vec![vec![]], vec![true, false]);
    }
}
