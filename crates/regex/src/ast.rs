//! The regular-expression AST and its normalizing constructors.

use std::fmt;

/// Kleene closure flavor: `R+` (one or more) or `R*` (zero or more).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClosureKind {
    /// Kleene plus — at least one repetition.
    Plus,
    /// Kleene star — zero or more repetitions.
    Star,
}

impl fmt::Display for ClosureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ClosureKind::Plus => "+",
            ClosureKind::Star => "*",
        })
    }
}

/// A regular path query over edge labels.
///
/// Invariants maintained by the smart constructors ([`Regex::concat`],
/// [`Regex::alt`], [`Regex::plus`], [`Regex::star`], [`Regex::optional`]):
///
/// * `Concat`/`Alt` hold at least two children and are never directly
///   nested in a node of the same kind (flattened);
/// * `Concat` contains no `Epsilon` children and collapses to `Empty` if
///   any child is `Empty`;
/// * `Alt` contains no duplicate children and no `Empty` children;
/// * degenerate closures are rewritten (`∅+ → ∅`, `ε* → ε`, `(r*)+ → r*`,
///   `(r+)* → r*`, `(r?)+ → r*`, …).
///
/// The invariants make structural equality a useful cache key: the engine
/// shares RTCs between queries whose closure bodies are structurally equal
/// after normalization.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Regex {
    /// The empty language `∅` (matches no path).
    Empty,
    /// The empty path `ε` (matches the zero-length path at every vertex).
    Epsilon,
    /// A single edge label.
    Label(String),
    /// Concatenation `r1·r2·…·rk`.
    Concat(Vec<Regex>),
    /// Alternation `r1|r2|…|rk`.
    Alt(Vec<Regex>),
    /// Kleene plus `r+`.
    Plus(Box<Regex>),
    /// Kleene star `r*`.
    Star(Box<Regex>),
    /// Option `r?` (equivalent to `r|ε`).
    Optional(Box<Regex>),
}

impl Regex {
    /// A single-label query.
    pub fn label(name: impl Into<String>) -> Regex {
        Regex::Label(name.into())
    }

    /// Normalized concatenation of `parts`.
    pub fn concat(parts: Vec<Regex>) -> Regex {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Epsilon => {}
                Regex::Empty => return Regex::Empty,
                Regex::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() <= 1 {
            flat.pop().unwrap_or(Regex::Epsilon)
        } else {
            Regex::Concat(flat)
        }
    }

    /// Normalized alternation of `parts`.
    pub fn alt(parts: Vec<Regex>) -> Regex {
        let mut flat: Vec<Regex> = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Empty => {}
                Regex::Alt(inner) => {
                    for q in inner {
                        if !flat.contains(&q) {
                            flat.push(q);
                        }
                    }
                }
                other => {
                    if !flat.contains(&other) {
                        flat.push(other);
                    }
                }
            }
        }
        if flat.len() <= 1 {
            flat.pop().unwrap_or(Regex::Empty)
        } else {
            Regex::Alt(flat)
        }
    }

    /// Normalized Kleene plus.
    pub fn plus(r: Regex) -> Regex {
        match r {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            p @ Regex::Plus(_) => p,
            Regex::Optional(inner) => Regex::star(*inner),
            other => Regex::Plus(Box::new(other)),
        }
    }

    /// Normalized Kleene star.
    pub fn star(r: Regex) -> Regex {
        match r {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            Regex::Star(inner) => Regex::Star(inner),
            Regex::Plus(inner) | Regex::Optional(inner) => Regex::Star(inner),
            other => Regex::Star(Box::new(other)),
        }
    }

    /// Normalized option (`r?`).
    pub fn optional(r: Regex) -> Regex {
        match r {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            Regex::Plus(inner) => Regex::Star(inner),
            o @ Regex::Optional(_) => o,
            other => Regex::Optional(Box::new(other)),
        }
    }

    /// Applies a closure of the given kind.
    pub fn closure(r: Regex, kind: ClosureKind) -> Regex {
        match kind {
            ClosureKind::Plus => Regex::plus(r),
            ClosureKind::Star => Regex::star(r),
        }
    }

    /// Whether `ε ∈ L(self)` — i.e. the zero-length path matches.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Label(_) => false,
            Regex::Epsilon | Regex::Star(_) | Regex::Optional(_) => true,
            Regex::Plus(r) => r.nullable(),
            Regex::Concat(parts) => parts.iter().all(Regex::nullable),
            Regex::Alt(parts) => parts.iter().any(Regex::nullable),
        }
    }

    /// Whether the expression contains any Kleene closure (`+` or `*`) at
    /// any depth.
    pub fn has_closure(&self) -> bool {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Label(_) => false,
            Regex::Plus(_) | Regex::Star(_) => true,
            Regex::Optional(r) => r.has_closure(),
            Regex::Concat(parts) | Regex::Alt(parts) => parts.iter().any(Regex::has_closure),
        }
    }

    /// Whether the language is empty (`L(self) = ∅`).
    ///
    /// With the constructor invariants `Empty` never survives inside a
    /// composite node, so this is a top-level check.
    pub fn is_empty_language(&self) -> bool {
        matches!(self, Regex::Empty)
    }

    /// Collects the distinct label names used, in first-occurrence order.
    pub fn labels(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Label(l) => {
                if !out.contains(&l.as_str()) {
                    out.push(l);
                }
            }
            Regex::Plus(r) | Regex::Star(r) | Regex::Optional(r) => r.collect_labels(out),
            Regex::Concat(parts) | Regex::Alt(parts) => {
                for p in parts {
                    p.collect_labels(out);
                }
            }
        }
    }

    /// Number of AST nodes; a rough complexity measure used in tests and
    /// workload statistics.
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Label(_) => 1,
            Regex::Plus(r) | Regex::Star(r) | Regex::Optional(r) => 1 + r.size(),
            Regex::Concat(parts) | Regex::Alt(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
        }
    }

    /// A deterministic textual form usable as a cache key.
    ///
    /// Structurally equal (post-normalization) expressions produce equal
    /// keys; the key parses back to an equal expression.
    pub fn canonical_key(&self) -> String {
        self.to_string()
    }

    fn precedence(&self) -> u8 {
        match self {
            Regex::Alt(_) => 0,
            Regex::Concat(_) => 1,
            _ => 2,
        }
    }

    fn fmt_child(&self, child: &Regex, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if child.precedence() < self.precedence() {
            write!(f, "({child})")
        } else {
            write!(f, "{child}")
        }
    }
}

/// Whether a label name can be printed bare (re-parses as one token).
fn is_plain_label(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        // Mirrors the parser: first char alphanumeric/underscore (but not
        // the ε/∅ meta characters), rest may also contain '-'.
        Some(c) if (c.is_alphanumeric() && c != 'ε' && c != '∅') || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| (c.is_alphanumeric() && c != 'ε' && c != '∅') || c == '_' || c == '-')
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Regex::Empty => f.write_str("∅"),
            Regex::Epsilon => f.write_str("()"),
            Regex::Label(l) => {
                if is_plain_label(l) {
                    f.write_str(l)
                } else {
                    write!(f, "'{l}'")
                }
            }
            Regex::Concat(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str(".")?;
                    }
                    self.fmt_child(p, f)?;
                }
                Ok(())
            }
            Regex::Alt(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        f.write_str("|")?;
                    }
                    self.fmt_child(p, f)?;
                }
                Ok(())
            }
            Regex::Plus(r) => {
                if r.precedence() < 2 {
                    write!(f, "({r})+")
                } else {
                    write!(f, "{r}+")
                }
            }
            Regex::Star(r) => {
                if r.precedence() < 2 {
                    write!(f, "({r})*")
                } else {
                    write!(f, "{r}*")
                }
            }
            Regex::Optional(r) => {
                if r.precedence() < 2 {
                    write!(f, "({r})?")
                } else {
                    write!(f, "{r}?")
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lab(s: &str) -> Regex {
        Regex::label(s)
    }

    #[test]
    fn concat_flattens_and_drops_epsilon() {
        let r = Regex::concat(vec![
            lab("a"),
            Regex::Epsilon,
            Regex::concat(vec![lab("b"), lab("c")]),
        ]);
        assert_eq!(r, Regex::Concat(vec![lab("a"), lab("b"), lab("c")]));
    }

    #[test]
    fn concat_with_empty_is_empty() {
        let r = Regex::concat(vec![lab("a"), Regex::Empty, lab("b")]);
        assert_eq!(r, Regex::Empty);
    }

    #[test]
    fn concat_degenerate_cases() {
        assert_eq!(Regex::concat(vec![]), Regex::Epsilon);
        assert_eq!(Regex::concat(vec![lab("a")]), lab("a"));
        assert_eq!(
            Regex::concat(vec![Regex::Epsilon, Regex::Epsilon]),
            Regex::Epsilon
        );
    }

    #[test]
    fn alt_flattens_dedups_drops_empty() {
        let r = Regex::alt(vec![
            lab("a"),
            Regex::Empty,
            Regex::alt(vec![lab("b"), lab("a")]),
        ]);
        assert_eq!(r, Regex::Alt(vec![lab("a"), lab("b")]));
    }

    #[test]
    fn alt_degenerate_cases() {
        assert_eq!(Regex::alt(vec![]), Regex::Empty);
        assert_eq!(Regex::alt(vec![lab("a")]), lab("a"));
        assert_eq!(Regex::alt(vec![lab("a"), lab("a")]), lab("a"));
        assert_eq!(Regex::alt(vec![Regex::Empty, Regex::Empty]), Regex::Empty);
    }

    #[test]
    fn closure_rewrites() {
        assert_eq!(Regex::plus(Regex::Empty), Regex::Empty);
        assert_eq!(Regex::plus(Regex::Epsilon), Regex::Epsilon);
        assert_eq!(Regex::star(Regex::Empty), Regex::Epsilon);
        assert_eq!(Regex::star(Regex::Epsilon), Regex::Epsilon);
        // (r*)+ = r*, (r+)* = r*, (r?)+ = r*, (r?)* = r*
        let r = lab("a");
        assert_eq!(Regex::plus(Regex::star(r.clone())), Regex::star(r.clone()));
        assert_eq!(Regex::star(Regex::plus(r.clone())), Regex::star(r.clone()));
        assert_eq!(
            Regex::plus(Regex::optional(r.clone())),
            Regex::star(r.clone())
        );
        assert_eq!(
            Regex::star(Regex::optional(r.clone())),
            Regex::star(r.clone())
        );
        // (r+)+ = r+, (r*)* = r*
        assert_eq!(Regex::plus(Regex::plus(r.clone())), Regex::plus(r.clone()));
        assert_eq!(Regex::star(Regex::star(r.clone())), Regex::star(r.clone()));
        // (r+)? = r*, (r*)? = r*, r?? = r?
        assert_eq!(
            Regex::optional(Regex::plus(r.clone())),
            Regex::star(r.clone())
        );
        assert_eq!(
            Regex::optional(Regex::star(r.clone())),
            Regex::star(r.clone())
        );
        assert_eq!(
            Regex::optional(Regex::optional(r.clone())),
            Regex::optional(r.clone())
        );
    }

    #[test]
    fn nullable_cases() {
        assert!(!lab("a").nullable());
        assert!(!Regex::Empty.nullable());
        assert!(Regex::Epsilon.nullable());
        assert!(Regex::star(lab("a")).nullable());
        assert!(Regex::optional(lab("a")).nullable());
        assert!(!Regex::plus(lab("a")).nullable());
        assert!(!Regex::concat(vec![lab("a"), Regex::star(lab("b"))]).nullable());
        assert!(Regex::concat(vec![Regex::star(lab("a")), Regex::star(lab("b"))]).nullable());
        assert!(Regex::alt(vec![lab("a"), Regex::star(lab("b"))]).nullable());
    }

    #[test]
    fn has_closure_cases() {
        assert!(!lab("a").has_closure());
        assert!(Regex::plus(lab("a")).has_closure());
        assert!(Regex::star(lab("a")).has_closure());
        assert!(!Regex::optional(lab("a")).has_closure());
        assert!(Regex::concat(vec![lab("a"), Regex::plus(lab("b"))]).has_closure());
        assert!(Regex::optional(Regex::plus(lab("a"))).has_closure());
    }

    #[test]
    fn labels_in_first_occurrence_order() {
        let r = Regex::concat(vec![
            lab("b"),
            Regex::alt(vec![lab("a"), lab("b")]),
            Regex::plus(lab("c")),
        ]);
        assert_eq!(r.labels(), vec!["b", "a", "c"]);
    }

    #[test]
    fn display_respects_precedence() {
        let r = Regex::concat(vec![
            lab("d"),
            Regex::plus(Regex::concat(vec![lab("b"), lab("c")])),
            lab("c"),
        ]);
        assert_eq!(r.to_string(), "d.(b.c)+.c");
        let r = Regex::alt(vec![lab("a"), Regex::concat(vec![lab("b"), lab("c")])]);
        assert_eq!(r.to_string(), "a|b.c");
        let r = Regex::concat(vec![Regex::alt(vec![lab("a"), lab("b")]), lab("c")]);
        assert_eq!(r.to_string(), "(a|b).c");
        let r = Regex::star(Regex::alt(vec![lab("a"), lab("b")]));
        assert_eq!(r.to_string(), "(a|b)*");
        assert_eq!(Regex::optional(lab("a")).to_string(), "a?");
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(lab("a").size(), 1);
        assert_eq!(Regex::plus(lab("a")).size(), 2);
        assert_eq!(Regex::concat(vec![lab("a"), lab("b")]).size(), 3);
    }

    #[test]
    fn labels_needing_quotes_are_quoted() {
        assert_eq!(lab("a").to_string(), "a");
        assert_eq!(lab("has_part").to_string(), "has_part");
        assert_eq!(lab("has part").to_string(), "'has part'");
        assert_eq!(lab("x.y").to_string(), "'x.y'");
        assert_eq!(lab("-x").to_string(), "'-x'");
        // Quoted forms must re-parse to the same expression.
        for name in ["has part", "x.y", "a|b", "-x"] {
            let r = lab(name);
            assert_eq!(Regex::parse(&r.to_string()).unwrap(), r, "{name}");
        }
    }

    #[test]
    fn canonical_key_is_deterministic() {
        let r1 = Regex::concat(vec![lab("a"), Regex::concat(vec![lab("b"), lab("c")])]);
        let r2 = Regex::concat(vec![Regex::concat(vec![lab("a"), lab("b")]), lab("c")]);
        assert_eq!(r1.canonical_key(), r2.canonical_key());
    }
}
