//! The pattern language: AST, variables, and the text form.
//!
//! Patterns arrive from three places — Rust code building the AST
//! directly, history constraints compiled down by `txlog-constraints`,
//! and text on the wire (`Subscribe` frames, the REPL's `:subscribe`).
//! The text grammar is deliberately tiny:
//!
//! ```text
//! pattern := seq(p, p) | and(p, p) | or(p, p) | without(p, p)
//!          | insert(REL, term*) | delete(REL, term*)
//! term    := IDENT        -- a variable
//!          | 'text'       -- a symbolic constant
//!          | 1234         -- a numeric constant
//!          | _            -- wildcard
//! ```
//!
//! The first argument of `insert`/`delete` names the relation; every
//! other bare identifier is a variable. Rendering ([`std::fmt::Display`])
//! and [`Pattern::parse`] round-trip.

use std::collections::BTreeSet;
use std::fmt;

use txlog_base::{Atom, Symbol};

/// A term slot in a primitive event pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PTerm {
    /// A variable: binds the field value, joins across operands.
    Var(Symbol),
    /// A constant: the field must equal this atom.
    Const(Atom),
    /// Matches any field value without binding it.
    Wildcard,
}

/// Which primitive change an event pattern watches.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A tuple appeared in the relation (insert, or the new value of a
    /// modify).
    Insert,
    /// A tuple left the relation (delete, or the old value of a
    /// modify).
    Delete,
}

/// A primitive event pattern: one kind of change to one relation, with
/// a term per attribute.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Prim {
    /// Insert or delete.
    pub kind: EventKind,
    /// The watched relation, by name (resolved against the schema at
    /// compile time).
    pub rel: Symbol,
    /// One term per attribute of the relation.
    pub terms: Vec<PTerm>,
}

/// A complex-event pattern over the commit stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Pattern {
    /// A primitive change event.
    Prim(Prim),
    /// Left at some commit, right at a strictly later commit. The
    /// match carries the right operand's version.
    Seq(Box<Pattern>, Box<Pattern>),
    /// Both occurred, in any order (the same commit counts). The match
    /// carries the later operand's version.
    And(Box<Pattern>, Box<Pattern>),
    /// Either occurred.
    Or(Box<Pattern>, Box<Pattern>),
    /// Left occurred and no compatible right match exists at the same
    /// or any earlier version. Bounded (past-scoped) negation: a match,
    /// once emitted, is never retracted by a later right match.
    Without(Box<Pattern>, Box<Pattern>),
}

impl Pattern {
    /// An `insert(rel, …)` primitive.
    pub fn insert(rel: &str, terms: Vec<PTerm>) -> Pattern {
        Pattern::Prim(Prim {
            kind: EventKind::Insert,
            rel: Symbol::new(rel),
            terms,
        })
    }

    /// A `delete(rel, …)` primitive.
    pub fn delete(rel: &str, terms: Vec<PTerm>) -> Pattern {
        Pattern::Prim(Prim {
            kind: EventKind::Delete,
            rel: Symbol::new(rel),
            terms,
        })
    }

    /// `seq(a, b)`: `a` strictly before `b`.
    pub fn seq(a: Pattern, b: Pattern) -> Pattern {
        Pattern::Seq(Box::new(a), Box::new(b))
    }

    /// `and(a, b)`: both, in any order.
    pub fn and(a: Pattern, b: Pattern) -> Pattern {
        Pattern::And(Box::new(a), Box::new(b))
    }

    /// `or(a, b)`: either.
    pub fn or(a: Pattern, b: Pattern) -> Pattern {
        Pattern::Or(Box::new(a), Box::new(b))
    }

    /// `without(a, b)`: `a` with no compatible `b` at ≤ its version.
    pub fn without(a: Pattern, b: Pattern) -> Pattern {
        Pattern::Without(Box::new(a), Box::new(b))
    }

    /// Every variable the pattern mentions, sorted.
    pub fn vars(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// Variables every match is guaranteed to bind: all of a
    /// primitive's, the union for `seq`/`and`, the *intersection* for
    /// `or` (a match comes from one branch), and the left operand's for
    /// `without` (the right side never contributes to the emission).
    /// Materialization columns must come from this set.
    pub fn certain_vars(&self) -> BTreeSet<Symbol> {
        match self {
            Pattern::Prim(_) => self.vars(),
            Pattern::Seq(a, b) | Pattern::And(a, b) => {
                let mut out = a.certain_vars();
                out.extend(b.certain_vars());
                out
            }
            Pattern::Or(a, b) => a
                .certain_vars()
                .intersection(&b.certain_vars())
                .copied()
                .collect(),
            Pattern::Without(a, _) => a.certain_vars(),
        }
    }

    /// Every relation name the pattern watches.
    pub fn rels(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        self.collect_rels(&mut out);
        out
    }

    fn collect_rels(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Pattern::Prim(p) => {
                out.insert(p.rel);
            }
            Pattern::Seq(a, b)
            | Pattern::And(a, b)
            | Pattern::Or(a, b)
            | Pattern::Without(a, b) => {
                a.collect_rels(out);
                b.collect_rels(out);
            }
        }
    }

    fn collect_vars(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Pattern::Prim(p) => {
                for t in &p.terms {
                    if let PTerm::Var(v) = t {
                        out.insert(*v);
                    }
                }
            }
            Pattern::Seq(a, b)
            | Pattern::And(a, b)
            | Pattern::Or(a, b)
            | Pattern::Without(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }

    /// Parse the text form. Total: returns a typed error, never
    /// panics. See the module docs for the grammar.
    pub fn parse(src: &str) -> Result<Pattern, PatternError> {
        let mut p = Parser {
            tokens: tokenize(src)?,
            pos: 0,
        };
        let pattern = p.pattern()?;
        if p.pos != p.tokens.len() {
            return Err(PatternError::Parse(format!(
                "trailing input after pattern: {:?}",
                p.tokens[p.pos]
            )));
        }
        Ok(pattern)
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pattern::Prim(p) => {
                let kind = match p.kind {
                    EventKind::Insert => "insert",
                    EventKind::Delete => "delete",
                };
                write!(f, "{kind}({rel}", rel = p.rel.as_str())?;
                for t in &p.terms {
                    match t {
                        PTerm::Var(v) => write!(f, ", {}", v.as_str())?,
                        PTerm::Const(Atom::Nat(n)) => write!(f, ", {n}")?,
                        PTerm::Const(Atom::Str(s)) => write!(f, ", '{}'", s.as_str())?,
                        PTerm::Wildcard => write!(f, ", _")?,
                    }
                }
                write!(f, ")")
            }
            Pattern::Seq(a, b) => write!(f, "seq({a}, {b})"),
            Pattern::And(a, b) => write!(f, "and({a}, {b})"),
            Pattern::Or(a, b) => write!(f, "or({a}, {b})"),
            Pattern::Without(a, b) => write!(f, "without({a}, {b})"),
        }
    }
}

/// Why a pattern failed to parse, compile, or register.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PatternError {
    /// The text form did not parse; the message says where and why.
    Parse(String),
    /// The pattern names a relation the schema does not declare.
    UnknownRelation(String),
    /// A primitive's term count differs from the relation's arity.
    Arity {
        /// The relation whose arity was violated.
        rel: String,
        /// The declared arity.
        expected: usize,
        /// The term count the pattern supplied.
        got: usize,
    },
}

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternError::Parse(msg) => write!(f, "pattern parse error: {msg}"),
            PatternError::UnknownRelation(rel) => {
                write!(f, "pattern names unknown relation {rel}")
            }
            PatternError::Arity { rel, expected, got } => write!(
                f,
                "pattern term count {got} does not match arity {expected} of {rel}"
            ),
        }
    }
}

impl std::error::Error for PatternError {}

/// A named pattern registered when a database is built: the pattern
/// itself plus its materialization into a system-maintained relation.
/// (Live, notification-only patterns are subscriptions instead, added
/// to a running database.)
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PatternDef {
    /// Registry name (unique per database, subscriptions included).
    pub name: String,
    /// The pattern.
    pub pattern: Pattern,
    /// Where matches are installed as tuples.
    pub materialize: Materialize,
}

impl PatternDef {
    /// Materialize matches into `relation`, one column per listed
    /// pattern variable.
    pub fn materialized(
        name: &str,
        pattern: Pattern,
        relation: &str,
        columns: &[&str],
    ) -> PatternDef {
        PatternDef {
            name: name.to_string(),
            pattern,
            materialize: Materialize {
                relation: relation.to_string(),
                columns: columns.iter().map(|c| c.to_string()).collect(),
            },
        }
    }
}

/// How a pattern's matches become tuples of a system relation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Materialize {
    /// The system relation to maintain (declared automatically, flagged
    /// `system` in the schema).
    pub relation: String,
    /// Pattern variables, one per attribute of the relation, in
    /// attribute order. Each match binding projects onto these to form
    /// the inserted tuple.
    pub columns: Vec<String>,
}

// ---------------------------------------------------------------- parser

#[derive(Clone, PartialEq, Eq, Debug)]
enum Token {
    Ident(String),
    Num(u64),
    Quoted(String),
    LParen,
    RParen,
    Comma,
    Underscore,
}

fn tokenize(src: &str) -> Result<Vec<Token>, PatternError> {
    let mut out = Vec::new();
    let mut chars = src.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            ' ' | '\t' | '\n' | '\r' => {}
            '(' => out.push(Token::LParen),
            ')' => out.push(Token::RParen),
            ',' => out.push(Token::Comma),
            '\'' => {
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some((_, '\'')) => break,
                        Some((_, ch)) => s.push(ch),
                        None => {
                            return Err(PatternError::Parse(format!(
                                "unterminated quoted atom starting at byte {i}"
                            )))
                        }
                    }
                }
                out.push(Token::Quoted(s));
            }
            '0'..='9' => {
                let mut n = u64::from(c as u8 - b'0');
                while let Some((_, d)) = chars.peek() {
                    if let Some(digit) = d.to_digit(10) {
                        n = n
                            .checked_mul(10)
                            .and_then(|n| n.checked_add(u64::from(digit)))
                            .ok_or_else(|| {
                                PatternError::Parse(format!(
                                    "numeric constant at byte {i} overflows u64"
                                ))
                            })?;
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Token::Num(n));
            }
            c if c == '_' || c.is_alphabetic() => {
                let mut s = String::new();
                s.push(c);
                while let Some((_, d)) = chars.peek() {
                    if d.is_alphanumeric() || *d == '_' || *d == '-' {
                        s.push(*d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if s == "_" {
                    out.push(Token::Underscore);
                } else {
                    out.push(Token::Ident(s));
                }
            }
            other => {
                return Err(PatternError::Parse(format!(
                    "unexpected character {other:?} at byte {i}"
                )))
            }
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn next(&mut self, what: &str) -> Result<Token, PatternError> {
        let t =
            self.tokens.get(self.pos).cloned().ok_or_else(|| {
                PatternError::Parse(format!("expected {what}, found end of input"))
            })?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, tok: Token, what: &str) -> Result<(), PatternError> {
        let t = self.next(what)?;
        if t == tok {
            Ok(())
        } else {
            Err(PatternError::Parse(format!("expected {what}, found {t:?}")))
        }
    }

    fn pattern(&mut self) -> Result<Pattern, PatternError> {
        let head = match self.next("a pattern operator")? {
            Token::Ident(s) => s,
            other => {
                return Err(PatternError::Parse(format!(
                    "expected a pattern operator, found {other:?}"
                )))
            }
        };
        match head.as_str() {
            "seq" | "and" | "or" | "without" => {
                self.expect(Token::LParen, "'('")?;
                let a = self.pattern()?;
                self.expect(Token::Comma, "','")?;
                let b = self.pattern()?;
                self.expect(Token::RParen, "')'")?;
                Ok(match head.as_str() {
                    "seq" => Pattern::seq(a, b),
                    "and" => Pattern::and(a, b),
                    "or" => Pattern::or(a, b),
                    _ => Pattern::without(a, b),
                })
            }
            "insert" | "delete" => {
                let kind = if head == "insert" {
                    EventKind::Insert
                } else {
                    EventKind::Delete
                };
                self.expect(Token::LParen, "'('")?;
                let rel = match self.next("a relation name")? {
                    Token::Ident(s) => s,
                    other => {
                        return Err(PatternError::Parse(format!(
                            "expected a relation name, found {other:?}"
                        )))
                    }
                };
                let mut terms = Vec::new();
                loop {
                    match self.next("',' or ')'")? {
                        Token::RParen => break,
                        Token::Comma => terms.push(self.term()?),
                        other => {
                            return Err(PatternError::Parse(format!(
                                "expected ',' or ')', found {other:?}"
                            )))
                        }
                    }
                }
                Ok(Pattern::Prim(Prim {
                    kind,
                    rel: Symbol::new(&rel),
                    terms,
                }))
            }
            other => Err(PatternError::Parse(format!(
                "unknown pattern operator {other:?} (expected seq, and, or, without, insert, delete)"
            ))),
        }
    }

    fn term(&mut self) -> Result<PTerm, PatternError> {
        Ok(match self.next("a term")? {
            Token::Ident(s) => PTerm::Var(Symbol::new(&s)),
            Token::Num(n) => PTerm::Const(Atom::nat(n)),
            Token::Quoted(s) => PTerm::Const(Atom::str(&s)),
            Token::Underscore => PTerm::Wildcard,
            other => {
                return Err(PatternError::Parse(format!(
                    "expected a term, found {other:?}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let sources = [
            "insert(EMP, Name, _, 'S', 500)",
            "delete(EMP, Name, _, _, _)",
            "seq(delete(EMP, N), insert(EMP, N))",
            "and(insert(A, X), or(delete(B, X), insert(C, X)))",
            "without(insert(EMP, N), delete(FIRE, N))",
        ];
        for src in sources {
            let p = Pattern::parse(src).expect("parses");
            let rendered = p.to_string();
            assert_eq!(Pattern::parse(&rendered).expect("re-parses"), p, "{src}");
        }
    }

    #[test]
    fn parse_errors_are_typed() {
        for bad in [
            "",
            "seq(insert(A, X))",
            "insert",
            "insert(EMP, X) trailing",
            "xor(insert(A), insert(B))",
            "insert(EMP, 'unterminated",
            "insert(EMP, !)",
            "insert(EMP, 99999999999999999999999999)",
        ] {
            assert!(
                matches!(Pattern::parse(bad), Err(PatternError::Parse(_))),
                "{bad:?} should fail to parse"
            );
        }
    }

    #[test]
    fn vars_are_collected_across_operands() {
        let p = Pattern::parse("seq(delete(EMP, N, _), insert(EMP, N, S))").unwrap();
        let mut vars: Vec<&str> = p.vars().iter().map(|v| v.as_str()).collect();
        vars.sort_unstable();
        assert_eq!(vars, ["N", "S"]);
    }
}
