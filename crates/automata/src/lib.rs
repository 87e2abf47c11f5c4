#![warn(missing_docs)]
//! Automaton-based pattern matching for RPQs.
//!
//! RPQ evaluation combines graph traversal with pattern matching, and
//! "finite automata are usually used for pattern matching" (Section II-B,
//! refs \[1\], \[4\], \[5\], \[10\], \[11\]). This crate holds the one
//! construction the evaluator runs and one independent reference:
//!
//! * [`glushkov::build_glushkov`] — the position automaton over the shared
//!   ε-free [`Nfa`] representation; ε-free by construction, one state per
//!   label occurrence. Every product traversal and witness search steps
//!   this automaton.
//! * [`derivative`] — a lazy Brzozowski-derivative matcher, used as an
//!   *independent oracle* in tests (it shares no code with the NFA path).
//!
//! Both accept any [`rpq_regex::Regex`] including nested closures.
//!
//! ```
//! use rpq_automata::{build_glushkov, DerivativeMatcher};
//! use rpq_regex::Regex;
//!
//! let q = Regex::parse("d.(b.c)+.c").unwrap();
//! let nfa = build_glushkov(&q);
//! assert_eq!(nfa.state_count(), 5); // the q0..q4 NFA of Fig. 3
//! assert!(nfa.matches(&["d", "b", "c", "c"]));
//! assert!(DerivativeMatcher::new(&q).matches(&["d", "b", "c", "c"]));
//! ```

pub mod derivative;
pub mod glushkov;
pub mod nfa;

pub use derivative::DerivativeMatcher;
pub use glushkov::build_glushkov;
pub use nfa::{Nfa, StateId};
