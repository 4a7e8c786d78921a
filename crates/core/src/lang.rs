//! A small textual language for pattern queries.
//!
//! The paper defines PQs abstractly; a library users adopt needs a way to
//! write them down. The grammar is line-oriented:
//!
//! ```text
//! # comment
//! node B: job = "doctor" && dsp = "cloning";
//! node C: job = "biologist";
//! node D;                          # no predicate = match anything
//! edge B -> C: fn;
//! edge C -> D: fa^2 sa^2;
//! edge C -> C: fa+;
//! ```
//!
//! Node predicates use the [`crate::predicate::Predicate::parse`] syntax;
//! edge constraints use the [`rpq_regex::FRegex::parse`] syntax. Statements
//! end with `;` (a newline also terminates a statement); a `;` or `#`
//! inside a string constant is part of the constant. [`format_pq`]
//! prints a query back in this syntax; parsing its output round-trips.

use crate::pq::Pq;
use crate::predicate::{PredParseError, Predicate};
use rpq_graph::attr::split_unquoted;
use rpq_graph::{Alphabet, Schema};
use rpq_regex::{FRegex, ParseError};
use std::collections::HashMap;
use std::fmt;

/// Why a query text failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LangError {
    /// A statement is neither `node …` nor `edge …`, or a `node` whose
    /// name is empty or holds `->`.
    BadStatement(usize, String),
    /// Node declared twice.
    DuplicateNode(usize, String),
    /// Edge references an undeclared node.
    UnknownNode(usize, String),
    /// The predicate after `:` failed to parse.
    BadPredicate(usize, PredParseError),
    /// The regex after `:` failed to parse.
    BadRegex(usize, ParseError),
    /// `edge` without `->`.
    MissingArrow(usize, String),
    /// Edge without a constraint (every PQ edge carries one).
    MissingConstraint(usize, String),
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::BadStatement(l, s) => write!(f, "line {l}: unrecognized statement {s:?}"),
            LangError::DuplicateNode(l, n) => write!(f, "line {l}: node {n:?} declared twice"),
            LangError::UnknownNode(l, n) => write!(f, "line {l}: unknown node {n:?}"),
            LangError::BadPredicate(l, e) => write!(f, "line {l}: bad predicate: {e}"),
            LangError::BadRegex(l, e) => write!(f, "line {l}: bad edge constraint: {e}"),
            LangError::MissingArrow(l, s) => write!(f, "line {l}: edge needs '->': {s:?}"),
            LangError::MissingConstraint(l, s) => {
                write!(f, "line {l}: edge needs a ': <regex>' constraint: {s:?}")
            }
        }
    }
}

impl std::error::Error for LangError {}

/// Parse a query text against a graph vocabulary.
pub fn parse_pq(input: &str, schema: &Schema, alphabet: &Alphabet) -> Result<Pq, LangError> {
    let mut pq = Pq::new();
    let mut ids: HashMap<String, usize> = HashMap::new();

    for (lineno, raw_line) in input.lines().enumerate() {
        let line = lineno + 1;
        let uncommented = split_unquoted(raw_line, "#").next().unwrap_or("");
        for stmt in split_unquoted(uncommented, ";") {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("node ") {
                let (name, pred_src) = match rest.split_once(':') {
                    Some((n, p)) => (n.trim(), p.trim()),
                    None => (rest.trim(), ""),
                };
                // a nameless node would print as a bare `node`, and no
                // edge could name one holding `->` as its source
                if name.is_empty() || name.contains("->") {
                    return Err(LangError::BadStatement(line, stmt.to_owned()));
                }
                if ids.contains_key(name) {
                    return Err(LangError::DuplicateNode(line, name.to_owned()));
                }
                let pred = Predicate::parse(pred_src, schema)
                    .map_err(|e| LangError::BadPredicate(line, e))?;
                let id = pq.add_node(name, pred);
                ids.insert(name.to_owned(), id);
            } else if let Some(rest) = stmt.strip_prefix("edge ") {
                let (endpoints, regex_src) = match rest.split_once(':') {
                    Some((e, r)) => (e.trim(), r.trim()),
                    None => return Err(LangError::MissingConstraint(line, rest.to_owned())),
                };
                let (from, to) = endpoints
                    .split_once("->")
                    .map(|(a, b)| (a.trim(), b.trim()))
                    .ok_or_else(|| LangError::MissingArrow(line, endpoints.to_owned()))?;
                let &fid = ids
                    .get(from)
                    .ok_or_else(|| LangError::UnknownNode(line, from.to_owned()))?;
                let &tid = ids
                    .get(to)
                    .ok_or_else(|| LangError::UnknownNode(line, to.to_owned()))?;
                let regex =
                    FRegex::parse(regex_src, alphabet).map_err(|e| LangError::BadRegex(line, e))?;
                pq.add_edge(fid, tid, regex);
            } else {
                return Err(LangError::BadStatement(line, stmt.to_owned()));
            }
        }
    }
    Ok(pq)
}

/// Print a query in the language's syntax (round-trips through
/// [`parse_pq`]).
pub fn format_pq(pq: &Pq, schema: &Schema, alphabet: &Alphabet) -> String {
    let mut out = String::new();
    for n in pq.nodes() {
        if n.pred.is_trivial() {
            out.push_str(&format!("node {};\n", n.label));
        } else {
            out.push_str(&format!("node {}: {};\n", n.label, n.pred.display(schema)));
        }
    }
    for e in pq.edges() {
        out.push_str(&format!(
            "edge {} -> {}: {};\n",
            pq.node(e.from).label,
            pq.node(e.to).label,
            e.regex.display(alphabet)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_match::JoinMatch;
    use crate::predicate::tests::{cut_anywhere, token};
    use crate::reach::ProbeReach;
    use proptest::prelude::*;
    use rpq_graph::gen::essembly;
    use rpq_graph::DistanceMatrix;

    const Q2_TEXT: &str = r#"
        # the paper's Q2 (Fig. 1)
        node B: job = "doctor" && dsp = "cloning";
        node C: job = "biologist" && sp = "cloning";
        node D: uid = "Alice001";
        edge B -> C: fn;
        edge C -> B: fn;
        edge C -> C: fa+;
        edge B -> D: fn;
        edge C -> D: fa^2 sa^2;
    "#;

    #[test]
    fn parse_q2_and_evaluate() {
        let g = essembly();
        let pq = parse_pq(Q2_TEXT, g.schema(), g.alphabet()).unwrap();
        assert_eq!(pq.node_count(), 3);
        assert_eq!(pq.edge_count(), 5);
        let m = DistanceMatrix::build(&g);
        let res = JoinMatch::eval(&pq, &g, &ProbeReach::new(&m));
        assert_eq!(res.size(), 8); // Example 2.3's table
    }

    #[test]
    fn roundtrip() {
        let g = essembly();
        let pq = parse_pq(Q2_TEXT, g.schema(), g.alphabet()).unwrap();
        let text = format_pq(&pq, g.schema(), g.alphabet());
        let again = parse_pq(&text, g.schema(), g.alphabet()).unwrap();
        assert_eq!(pq, again);
    }

    /// `minimize` names the copies of a class after its label; the printed
    /// minimum parses back to itself and is equivalent to the input. The
    /// second pattern needs two copies of `C`'s class and already has a
    /// node named like a copy.
    #[test]
    fn a_minimized_pattern_prints_and_parses_back() {
        let g = essembly();
        let fig3 = r#"
            node B: job = "doctor";
            node C: job = "biologist";
            node C_0: job = "biologist";
            node C_1: job = "biologist";
            edge B -> C: fa;
            edge B -> C_0: fa^2;
            edge B -> C_1: fa^3;
            edge B -> C: sn;
        "#;
        let m = DistanceMatrix::build(&g);
        for text in [Q2_TEXT, fig3] {
            let pq = parse_pq(text, g.schema(), g.alphabet()).unwrap();
            let slim = crate::minimize::minimize(&pq);
            let printed = format_pq(&slim, g.schema(), g.alphabet());
            let back = parse_pq(&printed, g.schema(), g.alphabet())
                .unwrap_or_else(|e| panic!("{e}:\n{printed}"));
            assert_eq!(back, slim, "{printed}");
            assert!(crate::contain::pq_equivalent(&back, &pq), "{printed}");
            let eval = |q: &Pq| JoinMatch::eval(q, &g, &ProbeReach::new(&m));
            assert_eq!(eval(&back), eval(&slim));
            assert_eq!(eval(&back).is_empty(), eval(&pq).is_empty());
        }
    }

    #[test]
    fn nodes_without_predicates_and_inline_statements() {
        let g = essembly();
        let pq = parse_pq(
            "node A; node B; edge A -> B: fa; edge B -> A: fn^3",
            g.schema(),
            g.alphabet(),
        )
        .unwrap();
        assert_eq!(pq.node_count(), 2);
        assert!(pq.node(0).pred.is_trivial());
        assert_eq!(pq.edge(1).regex.len(), 1);
    }

    #[test]
    fn errors_are_located() {
        let g = essembly();
        let err = |t: &str| parse_pq(t, g.schema(), g.alphabet()).unwrap_err();
        assert!(matches!(err("frob A"), LangError::BadStatement(1, _)));
        assert!(matches!(
            err("node A;\nnode :;"),
            LangError::BadStatement(2, _)
        ));
        assert!(matches!(
            err("node A;\nnode a->b;"),
            LangError::BadStatement(2, _)
        ));
        assert!(matches!(
            err("node A;\nnode A;"),
            LangError::DuplicateNode(2, _)
        ));
        assert!(matches!(
            err("node A;\nedge A -> Z: fa;"),
            LangError::UnknownNode(2, _)
        ));
        assert!(matches!(
            err("node A: bogus = 1;"),
            LangError::BadPredicate(1, _)
        ));
        assert!(matches!(
            err("node A;\nnode B;\nedge A -> B: zz;"),
            LangError::BadRegex(3, _)
        ));
        assert!(matches!(
            err("node A;\nedge A B: fa;"),
            LangError::MissingArrow(2, _)
        ));
        assert!(matches!(
            err("node A;\nedge A -> A"),
            LangError::MissingConstraint(2, _)
        ));
        // display formatting smoke test
        assert!(err("frob A").to_string().contains("line 1"));
    }

    #[test]
    fn comments_ignored() {
        let g = essembly();
        let pq = parse_pq(
            "# heading\nnode A: job = \"doctor\"; # trailing\n\n# edge X -> Y: zz\n",
            g.schema(),
            g.alphabet(),
        )
        .unwrap();
        assert_eq!(pq.node_count(), 1);
        assert_eq!(pq.edge_count(), 0);
    }

    /// A pattern over `essembly`'s vocabulary: random predicates, whose
    /// string constants hold quotes, backslashes, `&&`, `#` and `;`, and
    /// random edges.
    fn pattern() -> impl Strategy<Value = Pq> {
        (
            prop::collection::vec(crate::predicate::tests::random_predicate(4, 0..3), 1..4),
            prop::collection::vec((0usize..4, 0usize..4, 0usize..4), 0..5),
        )
            .prop_map(|(preds, edges)| {
                let g = essembly();
                let regexes = ["fa", "fn^2", "fa+ sn", "_^3"];
                let mut pq = Pq::new();
                for (i, pred) in preds.iter().enumerate() {
                    pq.add_node(&format!("n{i}"), pred.clone());
                }
                for (from, to, re) in edges {
                    let regex = FRegex::parse(regexes[re], g.alphabet()).unwrap();
                    pq.add_edge(from % preds.len(), to % preds.len(), regex);
                }
                pq
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A printed pattern parses back to itself.
        #[test]
        fn format_parses_back(pq in pattern()) {
            let g = essembly();
            let text = format_pq(&pq, g.schema(), g.alphabet());
            let back = parse_pq(&text, g.schema(), g.alphabet());
            prop_assert_eq!(back, Ok(pq), "{}", text);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// No text panics the parser — token soup of statements, names,
        /// `:`, `->`, `;`, `#`, line breaks, predicates and regexes, or a
        /// printed pattern, cut anywhere — and what it accepts prints as
        /// text that parses back to the same pattern.
        #[test]
        fn hostile_text_never_panics(
            text in cut_anywhere(prop_oneof![
                1 => prop::collection::vec(token(&[
                    "node ", "edge ", "node", "A", "B", "C", " ", ":", ";", "\n", "\r\n", "#",
                    "->", " -> ", "-", "job = \"doctor\"", "\"x;y#\"", "\"", "&&", "true",
                    "fa^2 fn", "_+", "zz", "node A: job = \"a\";\n", "node B;", "edge A -> B: fa;\n",
                    "edge B -> A: sn^2;", "node :;", "é",
                ]), 0..16).prop_map(|t| t.concat()),
                1 => pattern().prop_map(|pq| {
                    let g = essembly();
                    format_pq(&pq, g.schema(), g.alphabet())
                }),
            ]),
        ) {
            let g = essembly();
            if let Ok(pq) = parse_pq(&text, g.schema(), g.alphabet()) {
                let shown = format_pq(&pq, g.schema(), g.alphabet());
                let back = parse_pq(&shown, g.schema(), g.alphabet());
                prop_assert_eq!(back, Ok(pq), "{:?} prints as {:?}", text, shown);
            }
        }
    }
}
