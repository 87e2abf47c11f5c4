//! Brzozowski-derivative matcher — the independent oracle.
//!
//! The derivative of a language `L` with respect to symbol `a` is
//! `a⁻¹L = {w | aw ∈ L}`. Matching a word means taking successive
//! derivatives and checking nullability at the end. This matcher shares no
//! code with the NFA construction, so agreement between the two is a
//! strong correctness signal — the property tests in `tests/` exploit that.
//!
//! States (derived expressions) are memoized modulo an ACI normalization of
//! alternation (flatten + sort + dedup), which keeps the state space finite.

use rpq_regex::Regex;
use rustc_hash::FxHashMap;

/// A lazily-expanded deterministic matcher based on regex derivatives.
#[derive(Debug)]
pub struct DerivativeMatcher {
    /// Canonicalized state expressions.
    states: Vec<Regex>,
    /// Key → state id.
    index: FxHashMap<String, u32>,
    /// Memoized transitions `(state, label) → state`.
    transitions: FxHashMap<(u32, String), u32>,
}

impl DerivativeMatcher {
    /// Creates a matcher with `r` as the initial state.
    pub fn new(r: &Regex) -> Self {
        let initial = aci_normalize(r);
        let mut index = FxHashMap::default();
        index.insert(initial.canonical_key(), 0);
        Self {
            states: vec![initial],
            index,
            transitions: FxHashMap::default(),
        }
    }

    /// Returns the state reached from `state` on `label`, expanding lazily.
    pub fn step(&mut self, state: u32, label: &str) -> u32 {
        if let Some(&t) = self.transitions.get(&(state, label.to_owned())) {
            return t;
        }
        let d = aci_normalize(&derivative(&self.states[state as usize], label));
        let key = d.canonical_key();
        let target = match self.index.get(&key) {
            Some(&t) => t,
            None => {
                let t = self.states.len() as u32;
                self.states.push(d);
                self.index.insert(key, t);
                t
            }
        };
        self.transitions.insert((state, label.to_owned()), target);
        target
    }

    /// Whether `state` is accepting (its expression is nullable).
    pub fn is_accepting(&self, state: u32) -> bool {
        self.states[state as usize].nullable()
    }

    /// Whether `state` is the sink rejecting state (`∅`).
    pub fn is_dead(&self, state: u32) -> bool {
        self.states[state as usize].is_empty_language()
    }

    /// Matches a word given as label names.
    pub fn matches(&mut self, labels: &[&str]) -> bool {
        let mut state = 0u32;
        for l in labels {
            state = self.step(state, l);
            if self.is_dead(state) {
                return false;
            }
        }
        self.is_accepting(state)
    }
}

/// The Brzozowski derivative `a⁻¹ L(r)`.
pub fn derivative(r: &Regex, label: &str) -> Regex {
    match r {
        Regex::Empty | Regex::Epsilon => Regex::Empty,
        Regex::Label(l) => {
            if l == label {
                Regex::Epsilon
            } else {
                Regex::Empty
            }
        }
        Regex::Concat(parts) => {
            // D_a(r1·rest) = D_a(r1)·rest  |  [nullable(r1)] D_a(rest).
            // An empty concatenation is `ε`, whose derivative is `∅`.
            let Some((head, rest)) = parts.split_first() else {
                return Regex::Empty;
            };
            let rest_re = Regex::concat(rest.to_vec());
            let left = Regex::concat(vec![derivative(head, label), rest_re.clone()]);
            if head.nullable() {
                Regex::alt(vec![left, derivative(&rest_re, label)])
            } else {
                left
            }
        }
        Regex::Alt(parts) => Regex::alt(parts.iter().map(|p| derivative(p, label)).collect()),
        Regex::Star(inner) => Regex::concat(vec![
            derivative(inner, label),
            Regex::star((**inner).clone()),
        ]),
        Regex::Plus(inner) => Regex::concat(vec![
            derivative(inner, label),
            Regex::star((**inner).clone()),
        ]),
        Regex::Optional(inner) => derivative(inner, label),
    }
}

/// Normalizes alternation modulo associativity, commutativity and
/// idempotence by recursively sorting `Alt` children on their canonical key.
pub fn aci_normalize(r: &Regex) -> Regex {
    match r {
        Regex::Empty | Regex::Epsilon | Regex::Label(_) => r.clone(),
        Regex::Concat(parts) => Regex::concat(parts.iter().map(aci_normalize).collect()),
        Regex::Alt(parts) => {
            let mut children: Vec<Regex> = parts.iter().map(aci_normalize).collect();
            children.sort_by_cached_key(|c| c.canonical_key());
            Regex::alt(children)
        }
        Regex::Plus(inner) => Regex::plus(aci_normalize(inner)),
        Regex::Star(inner) => Regex::star(aci_normalize(inner)),
        Regex::Optional(inner) => Regex::optional(aci_normalize(inner)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matches(src: &str, word: &[&str]) -> bool {
        DerivativeMatcher::new(&Regex::parse(src).unwrap()).matches(word)
    }

    #[test]
    fn label_derivative() {
        let a = Regex::label("a");
        assert_eq!(derivative(&a, "a"), Regex::Epsilon);
        assert_eq!(derivative(&a, "b"), Regex::Empty);
    }

    #[test]
    fn concat_derivative_with_nullable_head() {
        // D_a(a*·b) = a*·b | D_a(b) = a*·b  (since D_a(b) = ∅)
        let r = Regex::parse("a*.b").unwrap();
        let d = derivative(&r, "a");
        assert_eq!(d, Regex::parse("a*.b").unwrap());
        let d = derivative(&r, "b");
        assert_eq!(d, Regex::Epsilon);
    }

    #[test]
    fn plus_derivative_unrolls_to_star() {
        let r = Regex::parse("(b.c)+").unwrap();
        let d = derivative(&r, "b");
        // D_b((bc)+) = c·(bc)*
        assert_eq!(d, Regex::parse("c.(b.c)*").unwrap());
    }

    #[test]
    fn basic_matching() {
        assert!(matches("a", &["a"]));
        assert!(!matches("a", &["b"]));
        assert!(!matches("a", &[]));
        assert!(matches("a.b.c", &["a", "b", "c"]));
        assert!(matches("a|b", &["b"]));
        assert!(matches("(b.c)+", &["b", "c", "b", "c"]));
        assert!(!matches("(b.c)+", &[]));
        assert!(matches("(b.c)*", &[]));
        assert!(matches("d.(b.c)+.c", &["d", "b", "c", "b", "c", "c"]));
        assert!(!matches("d.(b.c)+.c", &["d", "b", "c"]));
    }

    #[test]
    fn dead_state_detection() {
        let mut m = DerivativeMatcher::new(&Regex::parse("a.b").unwrap());
        let s1 = m.step(0, "z");
        assert!(m.is_dead(s1));
        assert!(!m.matches(&["z", "a", "b"]));
    }

    #[test]
    fn state_space_stays_finite_on_repetition() {
        let mut m = DerivativeMatcher::new(&Regex::parse("(a|b)*.(a.a|b.b)+").unwrap());
        // Feed a long word; the memo table must saturate, not grow linearly.
        let word: Vec<&str> = std::iter::repeat_n(["a", "b"], 200).flatten().collect();
        let _ = m.matches(&word);
        assert!(
            m.states.len() < 64,
            "derivative states exploded: {}",
            m.states.len()
        );
    }

    #[test]
    fn aci_normalization_merges_permuted_alts() {
        let r1 = aci_normalize(&Regex::parse("a|b|c").unwrap());
        let r2 = aci_normalize(&Regex::parse("c|a|b").unwrap());
        assert_eq!(r1, r2);
        let nested1 = aci_normalize(&Regex::parse("(a|b).(c|d)").unwrap());
        let nested2 = aci_normalize(&Regex::parse("(b|a).(d|c)").unwrap());
        assert_eq!(nested1, nested2);
    }

    #[test]
    fn agrees_with_glushkov() {
        use crate::glushkov::build_glushkov;
        let queries = [
            "a",
            "a.b",
            "a|b.c",
            "(b.c)+",
            "(b.c)*",
            "a?.b",
            "d.(b.c)+.c",
            "(a.b+.c)+",
        ];
        let words: Vec<Vec<&str>> = vec![
            vec![],
            vec!["a"],
            vec!["b"],
            vec!["a", "b"],
            vec!["b", "c"],
            vec!["d", "b", "c", "c"],
            vec!["a", "b", "b", "c"],
            vec!["b", "c", "b", "c"],
        ];
        for q in queries {
            let r = Regex::parse(q).unwrap();
            let nfa = build_glushkov(&r);
            let mut m = DerivativeMatcher::new(&r);
            for w in &words {
                assert_eq!(nfa.matches(w), m.matches(w), "query {q} word {w:?}");
            }
        }
    }
}
