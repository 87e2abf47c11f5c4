//! Recursive-descent parser for the RPQ textual syntax.
//!
//! Grammar (whitespace is insignificant):
//!
//! ```text
//! alt    := concat ('|' concat)*
//! concat := postfix (('.' | '/')? postfix)*      -- separators optional
//! postfix:= atom ('+' | '*' | '?')*
//! atom   := LABEL | '(' alt ')' | '()' | 'ε' | '∅'
//! LABEL  := [A-Za-z0-9_][A-Za-z0-9_-]*  |  '\'' [^']* '\''
//! ```
//!
//! `.` and `/` are interchangeable concatenation operators (the paper uses
//! `·`, SPARQL property paths use `/`); juxtaposition such as `a(b|c)` also
//! concatenates. Quoted labels allow arbitrary characters. Parentheses
//! nest at most [`MAX_NESTING`] deep.

use crate::ast::Regex;
use crate::error::ParseError;

impl Regex {
    /// Parses an RPQ from its textual form.
    ///
    /// ```
    /// use rpq_regex::Regex;
    /// let q = Regex::parse("d.(b.c)+.c").unwrap();
    /// assert_eq!(q.to_string(), "d.(b.c)+.c");
    /// ```
    pub fn parse(input: &str) -> Result<Regex, ParseError> {
        let mut p = Parser::new(input);
        let r = p.parse_alt()?;
        p.skip_ws();
        if let Some((pos, c)) = p.peek() {
            return Err(ParseError::new(pos, format!("unexpected character '{c}'")));
        }
        Ok(r)
    }
}

/// Deepest parenthesis nesting [`Regex::parse`] accepts. Every later stage
/// recurses once per level, so unbounded nesting from a request or a
/// snapshot key could exhaust a serving thread's stack.
pub const MAX_NESTING: usize = 256;

struct Parser<'a> {
    input: &'a str,
    chars: Vec<(usize, char)>,
    at: usize,
    /// Parentheses open at `at`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            input,
            chars: input.char_indices().collect(),
            at: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<(usize, char)> {
        self.chars.get(self.at).copied()
    }

    fn bump(&mut self) -> Option<(usize, char)> {
        let c = self.peek();
        if c.is_some() {
            self.at += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while let Some((_, c)) = self.peek() {
            if c.is_whitespace() {
                self.at += 1;
            } else {
                break;
            }
        }
    }

    fn eof_pos(&self) -> usize {
        self.input.len()
    }

    fn parse_alt(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.parse_concat()?];
        loop {
            self.skip_ws();
            match self.peek() {
                Some((_, '|')) => {
                    self.bump();
                    parts.push(self.parse_concat()?);
                }
                _ => break,
            }
        }
        Ok(Regex::alt(parts))
    }

    fn parse_concat(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.parse_postfix()?];
        loop {
            self.skip_ws();
            match self.peek() {
                Some((_, '.')) | Some((_, '/')) => {
                    self.bump();
                    parts.push(self.parse_postfix()?);
                }
                // Juxtaposition: a new atom starts immediately.
                Some((_, c))
                    if is_label_start(c) || c == '(' || c == 'ε' || c == '∅' || c == '\'' =>
                {
                    parts.push(self.parse_postfix()?);
                }
                _ => break,
            }
        }
        Ok(Regex::concat(parts))
    }

    fn parse_postfix(&mut self) -> Result<Regex, ParseError> {
        let mut r = self.parse_atom()?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some((_, '+')) => {
                    self.bump();
                    r = Regex::plus(r);
                }
                Some((_, '*')) => {
                    self.bump();
                    r = Regex::star(r);
                }
                Some((_, '?')) => {
                    self.bump();
                    r = Regex::optional(r);
                }
                _ => break,
            }
        }
        Ok(r)
    }

    fn parse_atom(&mut self) -> Result<Regex, ParseError> {
        self.skip_ws();
        match self.peek() {
            None => Err(ParseError::new(self.eof_pos(), "unexpected end of input")),
            Some((pos, '(')) => {
                self.bump();
                self.skip_ws();
                // "()" is ε.
                if let Some((_, ')')) = self.peek() {
                    self.bump();
                    return Ok(Regex::Epsilon);
                }
                if self.depth == MAX_NESTING {
                    let msg = format!("parentheses nested deeper than {MAX_NESTING}");
                    return Err(ParseError::new(pos, msg));
                }
                self.depth += 1;
                let inner = self.parse_alt()?;
                self.depth -= 1;
                self.skip_ws();
                match self.bump() {
                    Some((_, ')')) => Ok(inner),
                    Some((p, c)) => Err(ParseError::new(p, format!("expected ')', found '{c}'"))),
                    None => Err(ParseError::new(pos, "unclosed '('")),
                }
            }
            Some((_, 'ε')) => {
                self.bump();
                Ok(Regex::Epsilon)
            }
            Some((_, '∅')) => {
                self.bump();
                Ok(Regex::Empty)
            }
            Some((pos, '\'')) => {
                self.bump();
                let start = self.at;
                while let Some((_, c)) = self.peek() {
                    if c == '\'' {
                        break;
                    }
                    self.bump();
                }
                match self.peek() {
                    Some((_, '\'')) => {
                        let label: String =
                            self.chars[start..self.at].iter().map(|&(_, c)| c).collect();
                        self.bump();
                        if label.is_empty() {
                            Err(ParseError::new(pos, "empty quoted label"))
                        } else {
                            Ok(Regex::Label(label))
                        }
                    }
                    _ => Err(ParseError::new(pos, "unclosed quoted label")),
                }
            }
            Some((pos, c)) if is_label_start(c) => {
                let start = self.at;
                while let Some((_, c)) = self.peek() {
                    if is_label_continue(c) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                let label: String = self.chars[start..self.at].iter().map(|&(_, c)| c).collect();
                debug_assert!(!label.is_empty(), "label at {pos} must be non-empty");
                Ok(Regex::Label(label))
            }
            Some((pos, c)) => Err(ParseError::new(pos, format!("unexpected character '{c}'"))),
        }
    }
}

fn is_label_start(c: char) -> bool {
    c.is_alphanumeric() && c != 'ε' && c != '∅' || c == '_'
}

fn is_label_continue(c: char) -> bool {
    c.is_alphanumeric() && c != 'ε' && c != '∅' || c == '_' || c == '-'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::ClosureKind;

    fn lab(s: &str) -> Regex {
        Regex::label(s)
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |d: usize| format!("{}a{}", "(".repeat(d), ")+".repeat(d));
        assert!(Regex::parse(&nested(MAX_NESTING)).is_ok());
        let err = Regex::parse(&nested(MAX_NESTING + 1)).unwrap_err();
        assert!(err.to_string().contains("nested deeper than"), "{err}");
        assert!(Regex::parse(&nested(100_000)).is_err());
    }

    #[test]
    fn single_label() {
        assert_eq!(Regex::parse("a").unwrap(), lab("a"));
        assert_eq!(Regex::parse("  knows ").unwrap(), lab("knows"));
        assert_eq!(Regex::parse("l42").unwrap(), lab("l42"));
    }

    #[test]
    fn concatenation_with_dot_slash_and_juxtaposition() {
        let expect = Regex::concat(vec![lab("a"), lab("b")]);
        assert_eq!(Regex::parse("a.b").unwrap(), expect);
        assert_eq!(Regex::parse("a/b").unwrap(), expect);
        assert_eq!(Regex::parse("a (b)").unwrap(), expect);
        assert_eq!(Regex::parse("(a)(b)").unwrap(), expect);
    }

    #[test]
    fn alternation_and_precedence() {
        let r = Regex::parse("a|b.c").unwrap();
        assert_eq!(
            r,
            Regex::alt(vec![lab("a"), Regex::concat(vec![lab("b"), lab("c")])])
        );
        let r = Regex::parse("(a|b).c").unwrap();
        assert_eq!(
            r,
            Regex::concat(vec![Regex::alt(vec![lab("a"), lab("b")]), lab("c")])
        );
    }

    #[test]
    fn postfix_operators() {
        assert_eq!(Regex::parse("a+").unwrap(), Regex::plus(lab("a")));
        assert_eq!(Regex::parse("a*").unwrap(), Regex::star(lab("a")));
        assert_eq!(Regex::parse("a?").unwrap(), Regex::optional(lab("a")));
        // Stacked postfix normalizes: a+* = a*.
        assert_eq!(Regex::parse("a+*").unwrap(), Regex::star(lab("a")));
    }

    #[test]
    fn paper_example_queries() {
        // The three queries of Example 7.
        let q1 = Regex::parse("a").unwrap();
        assert_eq!(q1, lab("a"));

        let q2 = Regex::parse("a.(a.b)+.b").unwrap();
        assert_eq!(
            q2,
            Regex::concat(vec![
                lab("a"),
                Regex::plus(Regex::concat(vec![lab("a"), lab("b")])),
                lab("b"),
            ])
        );

        let q3 = Regex::parse("(a.b)*.b+.(a.b+.c)+").unwrap();
        assert_eq!(
            q3,
            Regex::concat(vec![
                Regex::star(Regex::concat(vec![lab("a"), lab("b")])),
                Regex::plus(lab("b")),
                Regex::plus(Regex::concat(vec![
                    lab("a"),
                    Regex::plus(lab("b")),
                    lab("c"),
                ])),
            ])
        );
        assert_eq!(
            Regex::closure(lab("x"), ClosureKind::Plus),
            Regex::plus(lab("x"))
        );
    }

    #[test]
    fn epsilon_and_empty() {
        assert_eq!(Regex::parse("()").unwrap(), Regex::Epsilon);
        assert_eq!(Regex::parse("ε").unwrap(), Regex::Epsilon);
        assert_eq!(Regex::parse("∅").unwrap(), Regex::Empty);
        assert_eq!(Regex::parse("a.()").unwrap(), lab("a"));
        assert_eq!(Regex::parse("a|∅").unwrap(), lab("a"));
    }

    #[test]
    fn quoted_labels() {
        assert_eq!(Regex::parse("'has part'").unwrap(), lab("has part"));
        let r = Regex::parse("'x.y'.'z'").unwrap();
        assert_eq!(r, Regex::concat(vec![lab("x.y"), lab("z")]));
    }

    #[test]
    fn whitespace_insensitive() {
        assert_eq!(
            Regex::parse(" d . ( b . c ) + . c ").unwrap(),
            Regex::parse("d.(b.c)+.c").unwrap()
        );
    }

    #[test]
    fn error_unclosed_paren() {
        let e = Regex::parse("(a.b").unwrap_err();
        assert!(e.message.contains("unclosed"), "{e}");
    }

    #[test]
    fn error_unexpected_char() {
        assert!(Regex::parse("a..b").is_err());
        assert!(Regex::parse("|a").is_err());
        assert!(Regex::parse("a)").is_err());
        assert!(Regex::parse("+").is_err());
        assert!(Regex::parse("").is_err());
        assert!(Regex::parse("'unclosed").is_err());
        assert!(Regex::parse("''").is_err());
    }

    #[test]
    fn error_position_is_meaningful() {
        let e = Regex::parse("ab c d !").unwrap_err();
        assert_eq!(e.position, 7);
    }

    #[test]
    fn display_parse_roundtrip() {
        for src in [
            "a",
            "a.b.c",
            "a|b|c",
            "(a|b).c",
            "d.(b.c)+.c",
            "(a.b)*.b+.(a.b+.c)+",
            "a?",
            "(a|b.c)*",
            "a.(b|c)+.d",
        ] {
            let r = Regex::parse(src).unwrap();
            let printed = r.to_string();
            let reparsed = Regex::parse(&printed).unwrap();
            assert_eq!(r, reparsed, "roundtrip failed for {src} -> {printed}");
        }
    }

    #[test]
    fn hyphen_and_underscore_labels() {
        assert_eq!(Regex::parse("has_part").unwrap(), lab("has_part"));
        assert_eq!(Regex::parse("x-y").unwrap(), lab("x-y"));
        // Hyphen cannot start a label.
        assert!(Regex::parse("-x").is_err());
    }
}
