//! Plain-text serialization of data graphs.
//!
//! A line-oriented format, stable across versions of this library, so
//! graphs can be shipped next to the binary and loaded by the CLI:
//!
//! ```text
//! # rpq graph v1
//! color fa
//! color fn
//! node B1 job="doctor" dsp="cloning" age=41
//! node C3 job="biologist"
//! edge C3 B1 fn
//! ```
//!
//! * `color NAME` declares an edge color (order defines the alphabet),
//! * `node LABEL [attr=value]…` declares a node; integer values are bare,
//!   string values are double-quoted (with `\"` and `\\` escapes; a
//!   backslash takes the next character as it is),
//! * `edge FROM TO COLOR` declares an edge by node labels,
//! * `#` outside a string value starts a comment; blank lines are ignored.
//!
//! Node labels must be unique and contain no whitespace.

use crate::attr::{split_unquoted, unquote, AttrValue};
use crate::builder::GraphBuilder;
use crate::color::{Color, WILDCARD};
use crate::graph::Graph;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, Write};

/// Why a graph file failed to parse.
#[derive(Debug)]
pub enum GraphIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem at the given 1-based line.
    Parse(usize, String),
}

impl fmt::Display for GraphIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphIoError::Io(e) => write!(f, "i/o error: {e}"),
            GraphIoError::Parse(l, m) => write!(f, "line {l}: {m}"),
        }
    }
}

impl std::error::Error for GraphIoError {}

impl From<io::Error> for GraphIoError {
    fn from(e: io::Error) -> Self {
        GraphIoError::Io(e)
    }
}

/// Write `g` in the text format.
pub fn write_graph(g: &Graph, w: &mut impl Write) -> io::Result<()> {
    writeln!(w, "# rpq graph v1")?;
    for c in g.alphabet().colors() {
        writeln!(w, "color {}", g.alphabet().name(c))?;
    }
    for v in g.nodes() {
        write!(w, "node {}", g.label(v))?;
        for (id, val) in g.attrs(v).iter() {
            write!(w, " {}={val}", g.schema().name(id))?;
        }
        writeln!(w)?;
    }
    for (x, y, c) in g.edges() {
        writeln!(
            w,
            "edge {} {} {}",
            g.label(x),
            g.label(y),
            g.alphabet().name(c)
        )?;
    }
    Ok(())
}

/// Serialize to a `String` (convenience over [`write_graph`]).
pub fn graph_to_string(g: &Graph) -> String {
    let mut buf = Vec::new();
    write_graph(g, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("format is ASCII/UTF-8")
}

/// Tokenize one node line's attribute section: `name=value` pairs, a
/// value an integer or a string constant (which may hold whitespace).
fn split_attrs(mut rest: &str, line: usize) -> Result<Vec<(&str, AttrValue)>, GraphIoError> {
    let mut pairs = Vec::new();
    loop {
        rest = rest.trim_start();
        if rest.is_empty() {
            return Ok(pairs);
        }
        let key_end = rest
            .find(|c: char| c == '=' || c.is_whitespace())
            .unwrap_or(rest.len());
        let key = &rest[..key_end];
        let Some(after) = rest[key_end..].strip_prefix('=') else {
            let msg = format!("attribute {key:?} missing '='");
            return Err(GraphIoError::Parse(line, msg));
        };
        if key.is_empty() {
            return Err(GraphIoError::Parse(line, "empty attribute name".into()));
        }
        let value = if after.starts_with('"') {
            let (value, after) = unquote(after)
                .ok_or_else(|| GraphIoError::Parse(line, "unterminated string".into()))?;
            rest = after;
            AttrValue::Str(value)
        } else {
            let end = after.find(char::is_whitespace).unwrap_or(after.len());
            let raw = &after[..end];
            rest = &after[end..];
            AttrValue::Int(
                raw.parse()
                    .map_err(|_| GraphIoError::Parse(line, format!("bad integer value {raw:?}")))?,
            )
        };
        pairs.push((key, value));
    }
}

/// Read a graph in the text format.
pub fn read_graph(r: &mut impl BufRead) -> Result<Graph, GraphIoError> {
    let mut b = GraphBuilder::new();
    let mut node_ids: HashMap<String, crate::graph::NodeId> = HashMap::new();

    for (lineno, line) in r.lines().enumerate() {
        let line_no = lineno + 1;
        let line = line?;
        let stmt = split_unquoted(&line, "#").next().unwrap_or("").trim();
        if stmt.is_empty() {
            continue;
        }
        if let Some(name) = stmt.strip_prefix("color ") {
            color(&mut b, name.trim(), line_no)?;
        } else if let Some(rest) = stmt.strip_prefix("node ") {
            let rest = rest.trim();
            let (label, attrs_src) = match rest.split_once(char::is_whitespace) {
                Some((l, a)) => (l, a),
                None => (rest, ""),
            };
            if node_ids.contains_key(label) {
                return Err(GraphIoError::Parse(
                    line_no,
                    format!("duplicate node {label:?}"),
                ));
            }
            let mut pairs = Vec::new();
            for (key, value) in split_attrs(attrs_src, line_no)? {
                let attr = b.try_attr(key).ok_or_else(|| {
                    GraphIoError::Parse(
                        line_no,
                        format!(
                            "too many distinct attribute names (max 65536), starting with {key:?}"
                        ),
                    )
                })?;
                pairs.push((attr, value));
            }
            let id = b.add_node(label, pairs);
            node_ids.insert(label.to_owned(), id);
        } else if let Some(rest) = stmt.strip_prefix("edge ") {
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 {
                return Err(GraphIoError::Parse(
                    line_no,
                    format!("edge needs 'FROM TO COLOR', got {rest:?}"),
                ));
            }
            let &from = node_ids.get(parts[0]).ok_or_else(|| {
                GraphIoError::Parse(line_no, format!("unknown node {:?}", parts[0]))
            })?;
            let &to = node_ids.get(parts[1]).ok_or_else(|| {
                GraphIoError::Parse(line_no, format!("unknown node {:?}", parts[1]))
            })?;
            let c = color(&mut b, parts[2], line_no)?;
            b.add_edge(from, to, c);
        } else {
            return Err(GraphIoError::Parse(
                line_no,
                format!("unrecognized line {stmt:?}"),
            ));
        }
    }
    Ok(b.build())
}

/// Intern the color `name`, or report a full alphabet (one byte per
/// color, 255 reserved for the wildcard) as a parse error at `line`.
fn color(b: &mut GraphBuilder, name: &str, line: usize) -> Result<Color, GraphIoError> {
    b.try_color(name).ok_or_else(|| {
        GraphIoError::Parse(
            line,
            format!(
                "too many distinct colors (max {}), starting with {name:?}",
                WILDCARD.0
            ),
        )
    })
}

/// Parse from a string (convenience over [`read_graph`]).
pub fn graph_from_str(s: &str) -> Result<Graph, GraphIoError> {
    read_graph(&mut s.as_bytes())
}

/// Edge color assumed by [`read_edge_list`] for two-token lines.
pub const DEFAULT_EDGE_COLOR: &str = "e";

/// Read a plain-text **edge list** (the format SNAP and most public graph
/// datasets ship): one `FROM TO [COLOR]` line per edge, whitespace
/// separated. Nodes are created on first appearance, keeping the token as
/// their label (attribute tuples are empty); a missing third token uses
/// color [`DEFAULT_EDGE_COLOR`]. Self-loops are kept; exact duplicate
/// edges are deduplicated by the builder.
///
/// Files found in the wild are tolerated as-is: lines starting with `#`
/// or `%` and blank lines are ignored, CRLF (and stray `\r`) line endings
/// are accepted, and a UTF-8 byte-order mark on the first line is
/// stripped. Anything else malformed — a one-token line, trailing tokens,
/// a color-alphabet overflow — is reported as a parse error carrying the
/// **1-based line number**, never a panic or a generic failure.
///
/// Note the format carries no isolated nodes and no attributes — use the
/// richer [`read_graph`] format when either matters.
pub fn read_edge_list(r: &mut impl BufRead) -> Result<Graph, GraphIoError> {
    let mut b = GraphBuilder::new();
    let mut node_ids: HashMap<String, crate::graph::NodeId> = HashMap::new();
    for (lineno, line) in r.lines().enumerate() {
        let line_no = lineno + 1;
        let line = line?;
        // `BufRead::lines` strips `\n` and `\r\n`; a lone trailing `\r`
        // (mixed line endings) and the BOM a Windows editor may prepend
        // still reach us
        let line = if line_no == 1 {
            line.trim_start_matches('\u{feff}')
        } else {
            line.as_str()
        };
        let stmt = line.trim();
        if stmt.is_empty() || stmt.starts_with('#') || stmt.starts_with('%') {
            continue;
        }
        let mut parts = stmt.split_whitespace();
        let (from, to) = match (parts.next(), parts.next()) {
            (Some(f), Some(t)) => (f, t),
            _ => {
                return Err(GraphIoError::Parse(
                    line_no,
                    format!("edge needs 'FROM TO [COLOR]', got {stmt:?}"),
                ))
            }
        };
        let color = parts.next().unwrap_or(DEFAULT_EDGE_COLOR);
        if parts.next().is_some() {
            return Err(GraphIoError::Parse(
                line_no,
                format!("trailing tokens after 'FROM TO COLOR' in {stmt:?}"),
            ));
        }
        let c = self::color(&mut b, color, line_no)?;
        let mut node = |label: &str, b: &mut GraphBuilder| {
            *node_ids
                .entry(label.to_owned())
                .or_insert_with(|| b.add_node(label, []))
        };
        let f = node(from, &mut b);
        let t = node(to, &mut b);
        b.add_edge(f, t, c);
    }
    Ok(b.build())
}

/// Write `g` as an edge list (`FROM TO COLOR` per line, node labels as
/// tokens). The inverse of [`read_edge_list`] up to isolated nodes and
/// attributes, which the format cannot carry.
pub fn write_edge_list(g: &Graph, w: &mut impl Write) -> io::Result<()> {
    for (x, y, c) in g.edges() {
        writeln!(w, "{} {} {}", g.label(x), g.label(y), g.alphabet().name(c))?;
    }
    Ok(())
}

impl Graph {
    /// Parse a SNAP-style edge list from a string — see [`read_edge_list`].
    ///
    /// ```
    /// use rpq_graph::Graph;
    /// let g = Graph::from_edge_list("# a tiny triangle\n1 2 knows\n2 3 knows\n3 1\n").unwrap();
    /// assert_eq!(g.node_count(), 3);
    /// assert_eq!(g.edge_count(), 3);
    /// assert_eq!(g.alphabet().len(), 2); // "knows" and the default "e"
    /// ```
    pub fn from_edge_list(s: &str) -> Result<Graph, GraphIoError> {
        read_edge_list(&mut s.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{essembly, synthetic};
    use proptest::prelude::*;

    fn assert_same_graph(a: &Graph, b: &Graph) {
        assert_eq!(a.node_count(), b.node_count());
        assert_eq!(a.edge_count(), b.edge_count());
        for v in a.nodes() {
            let w = b.node_by_label(a.label(v)).expect("label preserved");
            let attrs_a: Vec<_> = a
                .attrs(v)
                .iter()
                .map(|(id, val)| (a.schema().name(id).to_owned(), val.clone()))
                .collect();
            let attrs_b: Vec<_> = b
                .attrs(w)
                .iter()
                .map(|(id, val)| (b.schema().name(id).to_owned(), val.clone()))
                .collect();
            assert_eq!(attrs_a, attrs_b, "attrs of {}", a.label(v));
        }
        let mut ea: Vec<_> = a
            .edges()
            .map(|(x, y, c)| {
                (
                    a.label(x).to_owned(),
                    a.label(y).to_owned(),
                    a.alphabet().name(c).to_owned(),
                )
            })
            .collect();
        let mut eb: Vec<_> = b
            .edges()
            .map(|(x, y, c)| {
                (
                    b.label(x).to_owned(),
                    b.label(y).to_owned(),
                    b.alphabet().name(c).to_owned(),
                )
            })
            .collect();
        ea.sort();
        eb.sort();
        assert_eq!(ea, eb);
    }

    #[test]
    fn roundtrip_essembly() {
        let g = essembly();
        let text = graph_to_string(&g);
        let back = graph_from_str(&text).unwrap();
        assert_same_graph(&g, &back);
    }

    #[test]
    fn roundtrip_synthetic() {
        let g = synthetic(60, 200, 3, 4, 9);
        let back = graph_from_str(&graph_to_string(&g)).unwrap();
        assert_same_graph(&g, &back);
    }

    #[test]
    fn quoted_strings_with_escapes() {
        let text = r#"
            color c
            node a name="he said \"hi\" \\ bye" n=3
            node b tag="C#;x" # a comment
            edge a b c
        "#;
        let g = graph_from_str(text).unwrap();
        let name = g.schema().get("name").unwrap();
        let a = g.node_by_label("a").unwrap();
        assert_eq!(
            g.attrs(a).get(name),
            Some(&AttrValue::Str("he said \"hi\" \\ bye".into()))
        );
        let (tag, b) = (
            g.schema().get("tag").unwrap(),
            g.node_by_label("b").unwrap(),
        );
        assert_eq!(g.attrs(b).get(tag), Some(&AttrValue::Str("C#;x".into())));
        // and it round-trips
        let back = graph_from_str(&graph_to_string(&g)).unwrap();
        assert_same_graph(&g, &back);
    }

    #[test]
    fn parse_errors() {
        let err = |t: &str| graph_from_str(t).unwrap_err().to_string();
        assert!(err("bogus line").contains("line 1"));
        assert!(err("node a\nnode a").contains("duplicate"));
        assert!(err("node a\nedge a z c").contains("unknown node"));
        assert!(err("edge a").contains("FROM TO COLOR"));
        assert!(err("node a x=\"unterminated").contains("unterminated"));
        assert!(err("node a x=notanint").contains("bad integer"));
        assert!(err("node a x").contains("missing '='"));
    }

    #[test]
    fn comments_and_blanks() {
        let g = graph_from_str("# header\n\ncolor c # trailing\nnode a\n").unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.alphabet().len(), 1);
    }

    #[test]
    fn edge_list_basics() {
        let g = Graph::from_edge_list(
            "# SNAP-ish header\n% another comment style\n0 1 a\n1 2 b\n2 0\n2 2 a\n2 0\n",
        )
        .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 4, "exact duplicate dropped, self-loop kept");
        let n0 = g.node_by_label("0").unwrap();
        let n2 = g.node_by_label("2").unwrap();
        let a = g.alphabet().get("a").unwrap();
        let e = g.alphabet().get(DEFAULT_EDGE_COLOR).unwrap();
        assert!(g.has_edge(n2, n0, e));
        assert!(g.has_edge(n2, n2, a));
    }

    #[test]
    fn edge_list_tolerates_comments_blanks_crlf_and_bom() {
        // CRLF endings, a BOM, '#' and '%' comments, blank and
        // whitespace-only lines, and a lone '\r' on a mixed-endings line
        let text = "\u{feff}# exported from a Windows tool\r\n\
                    \r\n\
                    % second comment style\r\n\
                    a b knows\r\n\
                    b c\r\
                    \n   \t  \r\n\
                    c a knows\r\n";
        let g = Graph::from_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let a = g.node_by_label("a").expect("BOM stripped from first label");
        let b = g.node_by_label("b").unwrap();
        let knows = g.alphabet().get("knows").unwrap();
        assert!(g.has_edge(a, b, knows));
        // the bare edge got the default color, not a '\r'-polluted one
        assert!(g.alphabet().get(DEFAULT_EDGE_COLOR).is_some());
        assert_eq!(g.alphabet().len(), 2);
    }

    #[test]
    fn edge_list_errors_carry_line_numbers() {
        // the malformed line is pinpointed even after comments and blanks
        let err = Graph::from_edge_list("# header\n\n1 2 c\nonly\n3 4 c\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 4"), "{msg}");
        assert!(msg.contains("FROM TO"), "{msg}");
        let err = Graph::from_edge_list("1 2 c\r\n1 2 c d e\r\n").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains("trailing"), "{msg}");
    }

    #[test]
    fn edge_list_errors() {
        let err = |t: &str| Graph::from_edge_list(t).unwrap_err().to_string();
        assert!(err("onlyone").contains("FROM TO"));
        assert!(err("a b c d").contains("trailing"));
        // color-alphabet overflow is a parse error, not a process abort
        let mut big = String::new();
        for i in 0..300 {
            big.push_str(&format!("a b c{i}\n"));
        }
        assert!(err(&big).contains("too many distinct colors"));
    }

    #[test]
    fn too_many_attribute_names_is_a_parse_error() {
        // one past the 65 536 names an `AttrId` can hold, on line 2
        let mut text = String::from("color c\nnode a");
        for i in 0..=65_536 {
            text.push_str(&format!(" k{i}=0"));
        }
        let msg = graph_from_str(&text).unwrap_err().to_string();
        assert!(msg.starts_with("line 2: "), "{msg}");
        assert!(msg.contains("too many distinct attribute names"), "{msg}");
    }

    #[test]
    fn too_many_colors_is_a_parse_error() {
        // 255 colors fit (255 is the wildcard); the 256th is on line 258,
        // after the two node lines, whether declared or used by an edge
        let mut text = String::from("node a\nnode b\n");
        for i in 0..255 {
            text.push_str(&format!("color c{i}\n"));
        }
        let declared = format!("{text}color extra\n");
        let used = format!("{text}edge a b extra\n");
        for text in [declared, used] {
            let msg = graph_from_str(&text).unwrap_err().to_string();
            assert!(msg.starts_with("line 258: "), "{msg}");
            assert!(msg.contains("too many distinct colors"), "{msg}");
        }
        assert_eq!(graph_from_str(&text).unwrap().alphabet().len(), 255);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = synthetic(50, 220, 2, 4, 17);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back = Graph::from_edge_list(&text).unwrap();
        // the format drops attributes and isolated nodes: compare the edge
        // multiset by (label, label, color name) and the connected node set
        let key = |g: &Graph| {
            let mut e: Vec<_> = g
                .edges()
                .map(|(x, y, c)| {
                    (
                        g.label(x).to_owned(),
                        g.label(y).to_owned(),
                        g.alphabet().name(c).to_owned(),
                    )
                })
                .collect();
            e.sort();
            e
        };
        assert_eq!(key(&g), key(&back));
        // and a second trip is lossless entirely
        let mut buf2 = Vec::new();
        write_edge_list(&back, &mut buf2).unwrap();
        let third = Graph::from_edge_list(std::str::from_utf8(&buf2).unwrap()).unwrap();
        assert_eq!(back.node_count(), third.node_count());
        assert_eq!(key(&back), key(&third));
    }

    /// Graph-file bytes built from the statements both formats know, broken
    /// pieces of them and arbitrary bytes (non-UTF-8 included), mixed line
    /// endings, cut at an arbitrary byte.
    fn hostile_graph_file() -> impl Strategy<Value = Vec<u8>> {
        const PIECES: &[&str] = &[
            "# rpq graph v1",
            "color fa",
            "color _",
            "color ",
            "node a",
            "node b",
            "node b x=1 s=\"v\"",
            "node c s=\"q\\\"#;\" t=-7",
            "node a x=",
            "node d =1",
            "node e x=\"unterminated",
            "node f x=99999999999999999999",
            "node g x=1 x=2",
            "edge a b fa",
            "edge a a _",
            "edge b z fa",
            "edge a b",
            "edge",
            "1 2",
            "1 2 knows",
            "1 1 _",
            "1 2 c d",
            "onlyone",
            "% comment",
            "\u{feff}1 2",
            "#",
            " ",
            "\t",
            "\"",
            "\\",
            "=",
        ];
        // well-formed openings, so the hostile lines also meet declared
        // nodes and colors
        const OPENINGS: &[&str] = &[
            "",
            "node a\nnode b\n",
            "color fa\nnode a x=1\nnode b s=\"v\"\nedge a b fa\n",
            "1 2 fa\n2 1\n",
        ];
        let piece = prop_oneof![
            8 => (0..PIECES.len()).prop_map(|i| PIECES[i].as_bytes().to_vec()),
            1 => proptest::collection::vec(any::<u8>(), 1..6),
        ];
        let line = prop_oneof![
            4 => proptest::collection::vec(piece.clone(), 1..2),
            1 => proptest::collection::vec(piece, 2..4),
        ]
        .prop_map(|parts| parts.join(&b' '));
        let ending = prop_oneof![Just(&b"\n"[..]), Just(&b"\r\n"[..]), Just(&b"\r"[..])];
        let lines = proptest::collection::vec((line, ending), 0..8);
        let file = (0..OPENINGS.len(), lines).prop_map(|(opening, lines)| {
            let mut file = OPENINGS[opening].as_bytes().to_vec();
            for (line, end) in lines {
                file.extend(line);
                file.extend(end);
            }
            file
        });
        (file, any::<u16>()).prop_map(|(file, cut)| {
            // uncut about half the time
            let keep = cut as usize % (2 * file.len() + 1);
            file[..keep.min(file.len())].to_vec()
        })
    }

    /// A parse error names a 1-based line; an I/O error on an in-memory
    /// file can only be bytes that are not UTF-8.
    fn typed(outcome: Result<Graph, GraphIoError>) -> Result<(), String> {
        match outcome {
            Ok(_) => Ok(()),
            Err(GraphIoError::Parse(line, _)) if line >= 1 => Ok(()),
            Err(GraphIoError::Io(e)) if e.kind() == io::ErrorKind::InvalidData => Ok(()),
            Err(other) => Err(format!("{other:?}")),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// No file panics either reader: each is a graph or a typed error.
        #[test]
        fn readers_never_panic(file in hostile_graph_file()) {
            prop_assert_eq!(typed(read_graph(&mut &file[..])), Ok(()));
            prop_assert_eq!(typed(read_edge_list(&mut &file[..])), Ok(()));
        }
    }
}
