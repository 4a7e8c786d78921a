//! General regular expressions over edge colors — the §7 extension.
//!
//! The paper closes with: *"One topic is to extend RQs and PQs by
//! supporting general regular expressions. Nevertheless, with this comes
//! increased complexity. Indeed, the containment and minimization problems
//! become PSPACE-complete even for RQs."*
//!
//! This module supplies the expressive side of that trade-off: full
//! regular expressions (union, concatenation, Kleene star/plus, grouping)
//! compiled through Thompson construction into the same ε-free automaton
//! type as the class F ([`Nfa::from_general`]), so the *evaluation*
//! machinery (product-space search) extends unchanged — exactly as the
//! paper predicts. The PSPACE-hard static analyses are deliberately **not**
//! provided for this class; that asymmetry is the paper's argument for the
//! restricted class F.
//!
//! Syntax: `fa`, `_`, juxtaposition (whitespace) for concatenation, `|`
//! for union, postfix `*` / `+`, parentheses. Example:
//! `"(fa | sa)+ fn"` — any positive number of allies edges, then one
//! nemeses edge.

use crate::ast::{FRegex, Quant};
use crate::nfa::{Nfa, StateId};
use rpq_graph::{Alphabet, Color};
use std::fmt;

/// AST of a general regular expression. `L(·)` never contains ε (as in the
/// class F, a query edge always stands for a nonempty path); the parser
/// and constructors maintain this.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GRegex {
    /// One edge of this (possibly wildcard) color.
    Color(Color),
    /// Concatenation, in order. Invariant: nonempty.
    Concat(Vec<GRegex>),
    /// Union. Invariant: nonempty.
    Union(Vec<GRegex>),
    /// One or more repetitions.
    Plus(Box<GRegex>),
    /// Zero or more repetitions of the inner expression, but the overall
    /// expression must still consume at least one edge; `Star` may
    /// therefore only appear where a sibling guarantees nonemptiness
    /// (enforced by [`GRegex::validate`]).
    Star(Box<GRegex>),
}

impl GRegex {
    /// Can this expression match the empty word?
    pub fn nullable(&self) -> bool {
        match self {
            GRegex::Color(_) => false,
            GRegex::Concat(parts) => parts.iter().all(GRegex::nullable),
            GRegex::Union(parts) => parts.iter().any(GRegex::nullable),
            GRegex::Plus(inner) => inner.nullable(),
            GRegex::Star(_) => true,
        }
    }

    /// Check the nonempty-language discipline: the expression as a whole
    /// must not be nullable (query edges denote nonempty paths).
    pub fn validate(&self) -> Result<(), GParseError> {
        if self.nullable() {
            Err(GParseError::Nullable)
        } else {
            Ok(())
        }
    }

    /// Embed a class-F expression (`c^k` unrolled into nested options).
    pub fn from_fregex(re: &FRegex) -> GRegex {
        let parts = re
            .atoms()
            .iter()
            .map(|a| {
                let c = GRegex::Color(a.color);
                match a.quant {
                    Quant::One => c,
                    Quant::Plus => GRegex::Plus(Box::new(c)),
                    Quant::AtMost(k) => {
                        // c^k = c | cc | … | c^k
                        let alts = (1..=k)
                            .map(|i| GRegex::Concat(vec![GRegex::Color(a.color); i as usize]))
                            .collect();
                        GRegex::Union(alts)
                    }
                }
            })
            .collect();
        GRegex::Concat(parts)
    }

    /// Does `word` belong to `L(self)`? Decided on the compiled NFA.
    pub fn matches(&self, word: &[Color]) -> bool {
        Nfa::from_general(self).accepts(word)
    }

    /// Render with color names from `alphabet`.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> impl fmt::Display + 'a {
        DisplayG { re: self, alphabet }
    }
}

struct DisplayG<'a> {
    re: &'a GRegex,
    alphabet: &'a Alphabet,
}

impl DisplayG<'_> {
    fn rec(&self, re: &GRegex, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match re {
            GRegex::Color(c) => write!(f, "{}", self.alphabet.name(*c)),
            GRegex::Concat(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    if matches!(p, GRegex::Union(_)) {
                        write!(f, "(")?;
                        self.rec(p, f)?;
                        write!(f, ")")?;
                    } else {
                        self.rec(p, f)?;
                    }
                }
                Ok(())
            }
            GRegex::Union(parts) => {
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    self.rec(p, f)?;
                }
                Ok(())
            }
            GRegex::Plus(inner) => {
                write!(f, "(")?;
                self.rec(inner, f)?;
                write!(f, ")+")
            }
            GRegex::Star(inner) => {
                write!(f, "(")?;
                self.rec(inner, f)?;
                write!(f, ")*")
            }
        }
    }
}

impl fmt::Display for DisplayG<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.rec(self.re, f)
    }
}

/// Why a general-regex string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GParseError {
    /// Unknown color name.
    UnknownColor(String),
    /// Unbalanced parenthesis or dangling operator.
    Syntax(String),
    /// Empty expression or empty group.
    Empty,
    /// The expression can match the empty word, which query edges forbid.
    Nullable,
    /// Groups or repetition operators nest deeper than [`MAX_NESTING`].
    TooDeep,
}

impl fmt::Display for GParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GParseError::UnknownColor(c) => write!(f, "unknown edge color {c:?}"),
            GParseError::Syntax(m) => write!(f, "syntax error: {m}"),
            GParseError::Empty => write!(f, "empty expression"),
            GParseError::Nullable => {
                write!(
                    f,
                    "expression may match the empty path (query edges must consume ≥1 edge)"
                )
            }
            GParseError::TooDeep => write!(f, "nested deeper than {MAX_NESTING} levels"),
        }
    }
}

impl std::error::Error for GParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Name(String),
    LParen,
    RParen,
    Pipe,
    Star,
    Plus,
}

fn lex(input: &str) -> Result<Vec<Tok>, GParseError> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '(' => {
                toks.push(Tok::LParen);
                chars.next();
            }
            ')' => {
                toks.push(Tok::RParen);
                chars.next();
            }
            '|' => {
                toks.push(Tok::Pipe);
                chars.next();
            }
            '*' => {
                toks.push(Tok::Star);
                chars.next();
            }
            '+' => {
                toks.push(Tok::Plus);
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            _ => {
                let mut name = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || "()|*+".contains(c) {
                        break;
                    }
                    name.push(c);
                    chars.next();
                }
                toks.push(Tok::Name(name));
            }
        }
    }
    Ok(toks)
}

/// Deepest nesting [`GRegex::parse`] accepts, counted two ways: groups
/// open at once, and the height of the expression tree (each union,
/// concatenation, `*` or `+` over its operands). The parser recurses once
/// per group, and every walk over a [`GRegex`] (including dropping it)
/// once per level of the tree, so 100 000 nested `(` or stacked `+` would
/// otherwise overflow the stack.
pub const MAX_NESTING: usize = 256;

struct Parser<'a> {
    toks: Vec<Tok>,
    pos: usize,
    alphabet: &'a Alphabet,
    /// Groups open around `pos`.
    groups: usize,
}

/// A parsed subexpression and the height of its tree.
type Parsed = (GRegex, usize);

/// `inner` under one more node: its height, checked against [`MAX_NESTING`].
fn above(inner: usize) -> Result<usize, GParseError> {
    if inner < MAX_NESTING {
        Ok(inner + 1)
    } else {
        Err(GParseError::TooDeep)
    }
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    /// `parts` as one node: the part itself when it is alone.
    fn join(
        mut parts: Vec<Parsed>,
        node: fn(Vec<GRegex>) -> GRegex,
    ) -> Result<Parsed, GParseError> {
        if parts.len() == 1 {
            return Ok(parts.pop().expect("one element"));
        }
        let height = above(parts.iter().map(|p| p.1).max().unwrap_or(0))?;
        Ok((node(parts.into_iter().map(|p| p.0).collect()), height))
    }

    fn union(&mut self) -> Result<Parsed, GParseError> {
        let mut alts = vec![self.concat()?];
        while self.peek() == Some(&Tok::Pipe) {
            self.pos += 1;
            alts.push(self.concat()?);
        }
        Self::join(alts, GRegex::Union)
    }

    fn concat(&mut self) -> Result<Parsed, GParseError> {
        let mut parts = Vec::new();
        while matches!(self.peek(), Some(Tok::Name(_)) | Some(Tok::LParen)) {
            parts.push(self.postfix()?);
        }
        if parts.is_empty() {
            return Err(GParseError::Empty);
        }
        Self::join(parts, GRegex::Concat)
    }

    fn postfix(&mut self) -> Result<Parsed, GParseError> {
        let (mut base, mut height) = self.primary()?;
        loop {
            let wrap = match self.peek() {
                Some(Tok::Star) => GRegex::Star,
                Some(Tok::Plus) => GRegex::Plus,
                _ => break,
            };
            self.pos += 1;
            height = above(height)?;
            base = wrap(Box::new(base));
        }
        Ok((base, height))
    }

    fn primary(&mut self) -> Result<Parsed, GParseError> {
        match self.peek().cloned() {
            Some(Tok::Name(name)) => {
                self.pos += 1;
                let color = self
                    .alphabet
                    .get(&name)
                    .ok_or(GParseError::UnknownColor(name))?;
                Ok((GRegex::Color(color), 1))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                self.groups = above(self.groups)?;
                let inner = self.union()?;
                if self.peek() != Some(&Tok::RParen) {
                    return Err(GParseError::Syntax("expected ')'".into()));
                }
                self.pos += 1;
                self.groups -= 1;
                Ok(inner)
            }
            other => Err(GParseError::Syntax(format!("unexpected {other:?}"))),
        }
    }
}

impl GRegex {
    /// Parse `"(fa | sa)+ fn"` against `alphabet`.
    pub fn parse(input: &str, alphabet: &Alphabet) -> Result<GRegex, GParseError> {
        let toks = lex(input)?;
        if toks.is_empty() {
            return Err(GParseError::Empty);
        }
        let mut p = Parser {
            toks,
            pos: 0,
            alphabet,
            groups: 0,
        };
        let (re, _) = p.union()?;
        if p.pos != p.toks.len() {
            return Err(GParseError::Syntax("trailing input".into()));
        }
        re.validate()?;
        Ok(re)
    }
}

/// Thompson fragment during construction: ε-NFA with single start, single
/// accept, transitions on colors or ε.
struct Frag {
    start: u32,
    accept: u32,
}

struct Builder {
    eps: Vec<Vec<u32>>,
    steps: Vec<Vec<(Color, u32)>>,
}

impl Builder {
    fn state(&mut self) -> u32 {
        self.eps.push(Vec::new());
        self.steps.push(Vec::new());
        (self.eps.len() - 1) as u32
    }

    fn build(&mut self, re: &GRegex) -> Frag {
        match re {
            GRegex::Color(c) => {
                let s = self.state();
                let a = self.state();
                self.steps[s as usize].push((*c, a));
                Frag {
                    start: s,
                    accept: a,
                }
            }
            GRegex::Concat(parts) => {
                let frags: Vec<Frag> = parts.iter().map(|p| self.build(p)).collect();
                for w in frags.windows(2) {
                    self.eps[w[0].accept as usize].push(w[1].start);
                }
                Frag {
                    start: frags.first().expect("nonempty").start,
                    accept: frags.last().expect("nonempty").accept,
                }
            }
            GRegex::Union(parts) => {
                let s = self.state();
                let a = self.state();
                for p in parts {
                    let f = self.build(p);
                    self.eps[s as usize].push(f.start);
                    self.eps[f.accept as usize].push(a);
                }
                Frag {
                    start: s,
                    accept: a,
                }
            }
            GRegex::Plus(inner) => {
                let f = self.build(inner);
                self.eps[f.accept as usize].push(f.start);
                f
            }
            GRegex::Star(inner) => {
                let s = self.state();
                let a = self.state();
                let f = self.build(inner);
                self.eps[s as usize].push(f.start);
                self.eps[s as usize].push(a);
                self.eps[f.accept as usize].push(f.start);
                self.eps[f.accept as usize].push(a);
                Frag {
                    start: s,
                    accept: a,
                }
            }
        }
    }

    fn closure(&self, s: u32) -> Vec<u32> {
        let mut seen = vec![false; self.eps.len()];
        let mut stack = vec![s];
        seen[s as usize] = true;
        let mut out = vec![s];
        while let Some(x) = stack.pop() {
            for &y in &self.eps[x as usize] {
                if !seen[y as usize] {
                    seen[y as usize] = true;
                    out.push(y);
                    stack.push(y);
                }
            }
        }
        out
    }
}

impl Nfa {
    /// Compile a general expression: Thompson construction, then
    /// ε-elimination. State 0 is a fresh start state; Thompson state `s`
    /// becomes `s + 1`.
    pub fn from_general(re: &GRegex) -> Nfa {
        let mut b = Builder {
            eps: Vec::new(),
            steps: Vec::new(),
        };
        let frag = b.build(re);
        let n = b.eps.len();
        let mut fwd: Vec<Vec<(Color, StateId)>> = vec![Vec::new(); n + 1];
        let mut accepting = vec![false; n + 1];
        let origins =
            std::iter::once((0, frag.start)).chain((0..n as u32).map(|s| (s as usize + 1, s)));
        for (state, origin) in origins {
            for &cs in &b.closure(origin) {
                if cs == frag.accept {
                    // the nonempty-language discipline makes this
                    // unreachable from the start of a validated expression
                    accepting[state] = true;
                }
                for &(c, t) in &b.steps[cs as usize] {
                    for &tc in &b.closure(t) {
                        if !fwd[state].contains(&(c, tc + 1)) {
                            fwd[state].push((c, tc + 1));
                        }
                    }
                }
            }
        }
        Nfa::new(accepting, fwd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Atom;
    use proptest::prelude::*;

    fn al() -> Alphabet {
        Alphabet::from_names(["a", "b", "c"])
    }

    fn c(i: u8) -> Color {
        Color(i)
    }

    #[test]
    fn parse_and_match_union() {
        let al = al();
        let re = GRegex::parse("(a | b)+ c", &al).unwrap();
        assert!(re.matches(&[c(0), c(2)]));
        assert!(re.matches(&[c(1), c(0), c(1), c(2)]));
        assert!(!re.matches(&[c(2)]));
        assert!(!re.matches(&[c(0), c(1)]));
        assert!(!re.matches(&[]));
    }

    #[test]
    fn star_requires_a_nonempty_sibling() {
        let al = al();
        assert_eq!(GRegex::parse("a*", &al), Err(GParseError::Nullable));
        assert_eq!(GRegex::parse("(a | b)*", &al), Err(GParseError::Nullable));
        // fine when something else consumes an edge
        let re = GRegex::parse("a* b", &al).unwrap();
        assert!(re.matches(&[c(1)]));
        assert!(re.matches(&[c(0), c(0), c(1)]));
        assert!(!re.matches(&[c(0)]));
    }

    #[test]
    fn parse_errors() {
        let al = al();
        assert_eq!(GRegex::parse("", &al), Err(GParseError::Empty));
        assert!(matches!(
            GRegex::parse("zz", &al),
            Err(GParseError::UnknownColor(_))
        ));
        assert!(matches!(
            GRegex::parse("(a", &al),
            Err(GParseError::Syntax(_))
        ));
        assert!(matches!(
            GRegex::parse("a )", &al),
            Err(GParseError::Syntax(_))
        ));
        assert!(matches!(GRegex::parse("| a", &al), Err(GParseError::Empty)));
    }

    #[test]
    fn nesting_is_capped_at_max_nesting() {
        let al = al();
        let groups = |depth: usize| format!("{}a b{}", "(".repeat(depth), ")".repeat(depth));
        let stacked = |ops: usize| format!("a{}", "+".repeat(ops));
        // a concatenation and its two colors sit under the groups
        assert!(GRegex::parse(&groups(MAX_NESTING), &al).is_ok());
        assert!(GRegex::parse(&stacked(MAX_NESTING - 1), &al).is_ok());
        for deep in [
            groups(MAX_NESTING + 1),
            stacked(MAX_NESTING),
            // few groups, each holding a concatenation under a `+`
            "(a ".repeat(MAX_NESTING / 2 + 1) + &")+".repeat(MAX_NESTING / 2 + 1),
            // deep enough to overflow any thread's stack one frame a level
            "(".repeat(100_000) + "a",
            stacked(100_000),
        ] {
            assert_eq!(GRegex::parse(&deep, &al), Err(GParseError::TooDeep));
        }
    }

    #[test]
    fn fregex_embedding_agrees() {
        let al = al();
        let cases = ["a", "a^3", "a+", "a^2 b", "a^2 b+ c", "_ a^2"];
        let al_w = Alphabet::from_names(["a", "b", "c"]);
        for src in cases {
            let f = FRegex::parse(src, &al_w).unwrap();
            let g = GRegex::from_fregex(&f);
            g.validate().unwrap();
            // exhaustive words up to length 4 over {a,b,c}
            let colors = [c(0), c(1), c(2)];
            let mut stack: Vec<Vec<Color>> = vec![vec![]];
            while let Some(w) = stack.pop() {
                assert_eq!(g.matches(&w), f.matches(&w), "{src} on {w:?}");
                if w.len() < 4 {
                    for &cc in &colors {
                        let mut w2 = w.clone();
                        w2.push(cc);
                        stack.push(w2);
                    }
                }
            }
        }
        let _ = al;
    }

    #[test]
    fn display_roundtrip() {
        let al = al();
        let re = GRegex::parse("(a | b)+ c", &al).unwrap();
        let text = re.display(&al).to_string();
        let again = GRegex::parse(&text, &al).unwrap();
        // same language on sample words (structure may renest)
        for w in [vec![c(0), c(2)], vec![c(1), c(1), c(2)], vec![c(2)]] {
            assert_eq!(re.matches(&w), again.matches(&w));
        }
    }

    #[test]
    fn nested_groups() {
        let al = al();
        let re = GRegex::parse("((a b) | c)+", &al).unwrap();
        assert!(re.matches(&[c(0), c(1)]));
        assert!(re.matches(&[c(2), c(0), c(1), c(2)]));
        assert!(!re.matches(&[c(0)]));
        assert!(!re.matches(&[c(1), c(0)]));
    }

    #[test]
    fn wildcard_in_general_regex() {
        let al = al();
        let re = GRegex::parse("_ _ | c", &al).unwrap();
        assert!(re.matches(&[c(0), c(1)]));
        assert!(re.matches(&[c(2)]));
        assert!(!re.matches(&[c(0)]));
    }

    #[test]
    fn gnfa_predecessors_invert() {
        let al = al();
        let re = GRegex::parse("(a | b)+ c", &al).unwrap();
        let nfa = Nfa::from_general(&re);
        for s in 0..nfa.state_count() as StateId {
            for color in [c(0), c(1), c(2)] {
                for t in nfa.successors(s, color) {
                    assert!(nfa.predecessors(t, color).any(|p| p == s));
                }
            }
        }
        let _ = Atom::new(c(0), Quant::One); // keep the import honest
    }

    /// Regex-shaped text: the grammar's tokens, known and unknown names,
    /// runs of `(` and `+` around [`MAX_NESTING`] and arbitrary
    /// characters, in any order, cut at an arbitrary character.
    fn hostile_text() -> impl Strategy<Value = String> {
        const PIECES: &[&str] = &[
            "(",
            ")",
            "|",
            "*",
            "+",
            " ",
            "\t",
            "a",
            "b",
            "c",
            "_",
            "zz",
            "ab",
            "a(",
            "é",
            " a b ",
            " (a | b) ",
            " c+ ",
            " _* ",
            " (c a)+ ",
        ];
        let token = prop_oneof![
            8 => (0..PIECES.len()).prop_map(|i| PIECES[i].to_owned()),
            1 => any::<u32>().prop_map(|u| char::from_u32(u % 0x11_0000).map_or_else(String::new, String::from)),
            1 => (0usize..2, MAX_NESTING - 2..MAX_NESTING + 3)
                .prop_map(|(op, n)| ["(", "+"][op].repeat(n)),
        ];
        (proptest::collection::vec(token, 0..24), any::<u16>()).prop_map(|(tokens, cut)| {
            let text = tokens.concat();
            // uncut about half the time
            let keep = usize::from(cut) % (2 * text.chars().count() + 1);
            text.chars().take(keep).collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// No text panics the parser, and what it accepts compiles,
        /// matches words, and prints as text that parses back to the
        /// same language.
        #[test]
        fn hostile_text_never_panics(
            text in hostile_text(),
            words in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..5), 4..5),
        ) {
            let al = al();
            if let Ok(re) = GRegex::parse(&text, &al) {
                let shown = re.display(&al).to_string();
                let again = GRegex::parse(&shown, &al);
                prop_assert!(again.is_ok(), "{:?} prints as {:?}: {:?}", text, shown, again);
                let again = again.unwrap();
                for word in words {
                    let word: Vec<Color> = word.into_iter().map(c).collect();
                    prop_assert_eq!(re.matches(&word), again.matches(&word), "{:?} on {:?}", text, word);
                }
            }
        }
    }
}
