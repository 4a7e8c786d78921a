//! Wire format v1: line-oriented requests, JSON-lines answers.
//!
//! Requests are tab-separated lines (one query or update per line) so a
//! batch is trivially streamable and malformed input can be rejected with
//! a *line-numbered* error, mirroring the edge-list reader's hardening:
//!
//! ```text
//! rq<TAB>from-predicate<TAB>to-predicate<TAB>regex
//! pq<TAB>escaped pattern text (lang.rs syntax)
//! ins<TAB>u<TAB>v<TAB>color-name
//! del<TAB>u<TAB>v<TAB>color-name
//! ```
//!
//! Fields are escaped with `\t` → `\\t`, `\n` → `\\n`, `\r` → `\\r`,
//! `\\` → `\\\\`, so predicates and full multi-line PQ texts travel as a
//! single line. An *empty* predicate field means the trivially-true
//! predicate (its pretty-printed form `true` is display-only and does not
//! re-parse). Answers come back one JSON object per input line:
//!
//! ```text
//! {"kind": "rq", "plan": "DM", "pairs": [[0, 3], [2, 5]]}
//! {"kind": "pq", "plan": "JoinMatch/hop", "nodes": [[1], [4, 5]], "edges": [[[1, 4]], ...]}
//! ```
//!
//! Encoding is canonical — one byte string per answer — which is what
//! makes the server's "bit-identical to in-process evaluation" acceptance
//! checkable by literal string comparison.
//!
//! An RQ pair list is rendered once per shared answer. The engine's memo
//! answers every exact hit with a clone of one kept
//! [`RqResult`](rpq_core::rq::RqResult), and the clones share one byte slot:
//! the first encode writes the pairs straight into the body, the second
//! renders them into the slot, and every later one copies the slot. A
//! result encoded once — a miss no query repeats — pays nothing for the
//! slot. PQ answers are laid out afresh on every encode.

use rpq_core::incremental::Update;
use rpq_core::lang::format_pq;
use rpq_engine::{BatchItem, EngineError, Query, QueryOutput};
use rpq_graph::{Graph, NodeId, WILDCARD};

/// Version tag of this wire format; lives in the URL namespace (`/v1/…`)
/// and the `/v1/schema` document.
pub const PROTOCOL_VERSION: u32 = 1;

/// Escape one field for embedding in a tab-separated line.
pub fn escape_field(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape_field`]. Rejects truncated or unknown escapes — a frame
/// that does not round-trip is a malformed frame, not a guess.
pub fn unescape_field(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape '\\{other}'")),
            None => return Err("truncated escape at end of field".into()),
        }
    }
    Ok(out)
}

fn bad(line: usize, msg: impl Into<String>) -> EngineError {
    EngineError::BadQuery {
        line,
        msg: msg.into(),
    }
}

/// Encode one query as a single request line (no trailing newline).
pub fn encode_query(q: &Query, g: &Graph) -> String {
    match q {
        Query::Rq(rq) => {
            let pred = |p: &rpq_core::predicate::Predicate| {
                if p.is_trivial() {
                    String::new()
                } else {
                    escape_field(&p.display(g.schema()).to_string())
                }
            };
            format!(
                "rq\t{}\t{}\t{}",
                pred(&rq.from),
                pred(&rq.to),
                escape_field(&rq.regex.display(g.alphabet()).to_string())
            )
        }
        Query::Pq(pq) => format!(
            "pq\t{}",
            escape_field(&format_pq(pq, g.schema(), g.alphabet()))
        ),
    }
}

/// Encode a whole batch, one line per query.
pub fn encode_queries(queries: &[Query], g: &Graph) -> String {
    let mut out = String::new();
    for q in queries {
        out.push_str(&encode_query(q, g));
        out.push('\n');
    }
    out
}

/// Parse one request line (1-based `line` for error attribution).
pub fn parse_query_line(line_no: usize, line: &str, g: &Graph) -> Result<Query, EngineError> {
    let mut fields = line.split('\t');
    let op = fields.next().unwrap_or("");
    match op {
        "rq" => {
            let mut field = |name: &str| {
                fields
                    .next()
                    .ok_or_else(|| bad(line_no, format!("rq line is missing the {name} field")))
                    .and_then(|f| {
                        unescape_field(f).map_err(|e| bad(line_no, format!("{name} field: {e}")))
                    })
            };
            let from = field("source-predicate")?;
            let to = field("target-predicate")?;
            let regex = field("regex")?;
            if fields.next().is_some() {
                return Err(bad(line_no, "rq line has more than 4 fields"));
            }
            Query::parse_rq(&from, &to, &regex, g).map_err(|e| relocate(e, line_no))
        }
        "pq" => {
            let text = fields
                .next()
                .ok_or_else(|| bad(line_no, "pq line is missing the pattern text"))
                .and_then(|f| {
                    unescape_field(f).map_err(|e| bad(line_no, format!("pattern text: {e}")))
                })?;
            if fields.next().is_some() {
                return Err(bad(line_no, "pq line has more than 2 fields"));
            }
            Query::parse_pq(&text, g).map_err(|e| relocate_pq(e, line_no))
        }
        other => Err(bad(
            line_no,
            format!("unknown op {other:?} (expected rq or pq)"),
        )),
    }
}

/// Parse a request body: one query per non-empty line, errors carry the
/// 1-based body line number.
pub fn parse_query_body(body: &str, g: &Graph) -> Result<Vec<Query>, EngineError> {
    let mut queries = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        queries.push(parse_query_line(i + 1, line, g)?);
    }
    Ok(queries)
}

/// Stamp a parse error (reported against line 0 or a statement-internal
/// line) with the wire line it arrived on.
fn relocate(e: EngineError, line_no: usize) -> EngineError {
    match e {
        EngineError::BadQuery { msg, .. } => bad(line_no, msg),
        other => other,
    }
}

/// PQ texts are themselves line-oriented; keep the inner statement number
/// in the message, attribute the error to the wire line.
fn relocate_pq(e: EngineError, line_no: usize) -> EngineError {
    match e {
        EngineError::BadQuery { line: 0, msg } => bad(line_no, msg),
        EngineError::BadQuery { line, msg } => {
            bad(line_no, format!("pattern statement {line}: {msg}"))
        }
        other => other,
    }
}

/// Encode one update as a request line.
pub fn encode_update(u: &Update, g: &Graph) -> String {
    let (op, x, y, c) = match *u {
        Update::Insert(x, y, c) => ("ins", x, y, c),
        Update::Delete(x, y, c) => ("del", x, y, c),
    };
    let color = if c == WILDCARD {
        "_".to_owned() // rejected server-side, but encode faithfully
    } else {
        escape_field(g.alphabet().name(c))
    };
    format!("{op}\t{}\t{}\t{color}", x.0, y.0)
}

/// Encode a whole update batch, one line per update.
pub fn encode_updates(updates: &[Update], g: &Graph) -> String {
    let mut out = String::new();
    for u in updates {
        out.push_str(&encode_update(u, g));
        out.push('\n');
    }
    out
}

/// Parse one update line.
pub fn parse_update_line(line_no: usize, line: &str, g: &Graph) -> Result<Update, EngineError> {
    let fields: Vec<&str> = line.split('\t').collect();
    if fields.len() != 4 {
        return Err(bad(
            line_no,
            format!("expected 4 tab-separated fields, got {}", fields.len()),
        ));
    }
    let node = |f: &str, name: &str| {
        f.parse::<u32>()
            .map(NodeId)
            .map_err(|_| bad(line_no, format!("{name} node id {f:?} is not a u32")))
    };
    let x = node(fields[1], "source")?;
    let y = node(fields[2], "target")?;
    let color_name =
        unescape_field(fields[3]).map_err(|e| bad(line_no, format!("color field: {e}")))?;
    let color = if color_name == "_" {
        WILDCARD // surfaces as EngineError::WildcardEdge in apply()
    } else {
        g.alphabet()
            .get(&color_name)
            .ok_or_else(|| bad(line_no, format!("unknown edge color {color_name:?}")))?
    };
    match fields[0] {
        "ins" => Ok(Update::Insert(x, y, color)),
        "del" => Ok(Update::Delete(x, y, color)),
        other => Err(bad(
            line_no,
            format!("unknown op {other:?} (expected ins or del)"),
        )),
    }
}

/// Parse an update body: one update per non-empty line.
pub fn parse_update_body(body: &str, g: &Graph) -> Result<Vec<Update>, EngineError> {
    let mut updates = Vec::new();
    for (i, line) in body.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        updates.push(parse_update_line(i + 1, line, g)?);
    }
    Ok(updates)
}

/// Where the answer layout goes: the byte counter that sizes the buffer,
/// then the buffer itself — one description of the format, two passes.
trait Sink {
    fn bytes(&mut self, b: &[u8]);
    fn decimal(&mut self, n: u32);

    /// `[x,y]` — the unit answers are made of; a sink may do it faster.
    fn pair(&mut self, x: u32, y: u32) {
        self.bytes(b"[");
        self.decimal(x);
        self.bytes(b",");
        self.decimal(y);
        self.bytes(b"]");
    }
}

/// Counts what a `Vec<u8>` sink would receive.
struct ByteCount(usize);

impl Sink for ByteCount {
    fn bytes(&mut self, b: &[u8]) {
        self.0 += b.len();
    }

    fn decimal(&mut self, n: u32) {
        self.0 += decimal_len(n);
    }
}

impl Sink for Vec<u8> {
    fn bytes(&mut self, b: &[u8]) {
        self.extend_from_slice(b);
    }

    fn decimal(&mut self, n: u32) {
        let mut buf = [0u8; 10]; // u32::MAX has ten digits
        let at = decimal_before(&mut buf, 10, n);
        self.extend_from_slice(&buf[at..]);
    }

    fn pair(&mut self, x: u32, y: u32) {
        // composed back to front on the stack, appended in one copy
        let mut buf = [0u8; 23];
        buf[22] = b']';
        let at = decimal_before(&mut buf, 22, y) - 1;
        buf[at] = b',';
        let at = decimal_before(&mut buf, at, x) - 1;
        buf[at] = b'[';
        self.extend_from_slice(&buf[at..]);
    }
}

/// Number of decimal digits of `n`.
fn decimal_len(n: u32) -> usize {
    const POWERS: [u32; 9] = [
        10,
        100,
        1_000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
        1_000_000_000,
    ];
    1 + POWERS.iter().filter(|&&p| n >= p).count()
}

/// `"00" "01" … "99"`: two digits per table lookup halves the divisions.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Write `n` in decimal so that it ends just before `buf[end]`; returns
/// where it starts. No `fmt` machinery, no allocation.
fn decimal_before(buf: &mut [u8], end: usize, mut n: u32) -> usize {
    let mut at = end;
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    at
}

/// `a,b,c` — `each` laid out per element, comma-separated.
fn write_list<S: Sink, I: IntoIterator>(
    out: &mut S,
    list: I,
    mut each: impl FnMut(&mut S, I::Item),
) {
    for (i, x) in list.into_iter().enumerate() {
        if i > 0 {
            out.bytes(b",");
        }
        each(out, x);
    }
}

fn write_pairs<S: Sink>(out: &mut S, pairs: &[(NodeId, NodeId)]) {
    write_list(out, pairs, |out, (x, y)| out.pair(x.0, y.0));
}

/// An RQ answer's pair list as its bytes, the second time the answer —
/// or a clone of it, such as the memo's answer to an exact hit — is
/// encoded, and every time after
/// ([`RqResult::rendered`](rpq_core::rq::RqResult::rendered)); `None` the
/// first time, and for a PQ answer.
fn rendered_pairs(item: &BatchItem) -> Option<&[u8]> {
    let QueryOutput::Rq(r) = &item.output else {
        return None;
    };
    r.rendered(|pairs| {
        let mut len = ByteCount(0);
        write_pairs(&mut len, pairs);
        let mut bytes = Vec::with_capacity(len.0);
        write_pairs(&mut bytes, pairs);
        bytes
    })
}

/// One answered query as its canonical JSON line, newline included. An
/// RQ's pair list is `rendered` when its bytes are at hand.
fn write_item<S: Sink>(out: &mut S, item: &BatchItem, rendered: Option<&[u8]>) {
    let plan = crate::json::escape(item.plan.name());
    match &item.output {
        QueryOutput::Rq(r) => {
            out.bytes(b"{\"kind\":\"rq\",\"plan\":\"");
            out.bytes(plan.as_bytes());
            out.bytes(b"\",\"pairs\":[");
            match rendered {
                Some(bytes) => out.bytes(bytes),
                None => write_pairs(out, r.as_slice()),
            }
            out.bytes(b"]}\n");
        }
        QueryOutput::Pq(r) => {
            out.bytes(b"{\"kind\":\"pq\",\"plan\":\"");
            out.bytes(plan.as_bytes());
            out.bytes(b"\",\"nodes\":[");
            write_list(out, 0..r.node_count(), |out, u| {
                out.bytes(b"[");
                write_list(out, r.node_matches(u), |out, n| out.decimal(n.0));
                out.bytes(b"]");
            });
            out.bytes(b"],\"edges\":[");
            write_list(out, 0..r.edge_count(), |out, e| {
                out.bytes(b"[");
                write_pairs(out, r.edge_matches(e));
                out.bytes(b"]");
            });
            out.bytes(b"]}\n");
        }
    }
}

/// Append the canonical JSON lines of `items` — the body of a `/v1/query`
/// response — to `out`. The layout is counted first and `out` grown once,
/// by exactly that much; no pair, id or line allocates on its own. An RQ
/// pair list encoded before is copied from its rendered bytes.
pub fn encode_items_into(out: &mut Vec<u8>, items: &[BatchItem]) {
    let rendered: Vec<Option<&[u8]>> = items.iter().map(rendered_pairs).collect();
    let mut len = ByteCount(0);
    for (item, &bytes) in items.iter().zip(&rendered) {
        write_item(&mut len, item, bytes);
    }
    out.reserve_exact(len.0);
    let start = out.len();
    for (item, &bytes) in items.iter().zip(&rendered) {
        write_item(out, item, bytes);
    }
    debug_assert_eq!(
        out.len() - start,
        len.0,
        "counted and written layouts agree"
    );
}

/// Encode one answered query as its canonical JSON line (no newline).
pub fn encode_item(item: &BatchItem) -> String {
    let mut line = encode_items(std::slice::from_ref(item));
    line.pop(); // the line terminator
    line
}

/// Encode a run of answered queries, one JSON line per query — the body
/// of a `/v1/query` response.
pub fn encode_items(items: &[BatchItem]) -> String {
    let mut out = Vec::new();
    encode_items_into(&mut out, items);
    String::from_utf8(out).expect("digits, ASCII punctuation and JSON-escaped plan names")
}

/// The HTTP status an [`EngineError`] maps onto: client mistakes are
/// 400s, config problems are the server operator's bug (500).
pub fn status_for(e: &EngineError) -> u16 {
    match e {
        EngineError::BadQuery { .. }
        | EngineError::NodeOutOfRange { .. }
        | EngineError::WildcardEdge
        | EngineError::ColorOutOfRange { .. } => 400,
        EngineError::Config(_) => 500,
        _ => 500, // EngineError is #[non_exhaustive]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rpq_core::pq::PqResult;
    use rpq_core::predicate::Predicate;
    use rpq_core::rq::{Rq, RqResult};
    use rpq_engine::Plan;
    use rpq_graph::gen::essembly;
    use std::sync::Arc;
    use std::time::Duration;

    /// The reference encoder the proptests hold the real one against:
    /// `format!` per pair, `join` per list, `format!` per line.
    fn encode_item_by_format(item: &BatchItem) -> String {
        let pair_list = |pairs: &[(NodeId, NodeId)]| {
            let pairs: Vec<String> = pairs
                .iter()
                .map(|(x, y)| format!("[{},{}]", x.0, y.0))
                .collect();
            pairs.join(",")
        };
        match &item.output {
            QueryOutput::Rq(r) => format!(
                "{{\"kind\":\"rq\",\"plan\":\"{}\",\"pairs\":[{}]}}",
                crate::json::escape(item.plan.name()),
                pair_list(r.as_slice())
            ),
            QueryOutput::Pq(r) => {
                let nodes: Vec<String> = (0..r.node_count())
                    .map(|u| {
                        let ids: Vec<String> =
                            r.node_matches(u).iter().map(|n| n.0.to_string()).collect();
                        format!("[{}]", ids.join(","))
                    })
                    .collect();
                let edges: Vec<String> = (0..r.edge_count())
                    .map(|e| format!("[{}]", pair_list(r.edge_matches(e))))
                    .collect();
                format!(
                    "{{\"kind\":\"pq\",\"plan\":\"{}\",\"nodes\":[{}],\"edges\":[{}]}}",
                    crate::json::escape(item.plan.name()),
                    nodes.join(","),
                    edges.join(",")
                )
            }
        }
    }

    fn item(output: QueryOutput, plan: usize) -> BatchItem {
        BatchItem {
            output,
            plan: Plan::ALL[plan % Plan::ALL.len()],
            time: Duration::ZERO,
            profile: None,
        }
    }

    /// Node ids around every digit-count boundary the graphs in use reach,
    /// and the extremes of the type.
    fn node_id() -> impl Strategy<Value = NodeId> {
        prop_oneof![
            Just(0u32),
            Just(9),
            Just(10),
            Just(99_999),
            Just(u32::MAX),
            0u32..100_000,
            any::<u32>(),
        ]
        .prop_map(NodeId)
    }

    fn pair_list() -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
        proptest::collection::vec((node_id(), node_id()), 0..12)
    }

    fn output() -> impl Strategy<Value = QueryOutput> {
        prop_oneof![
            pair_list().prop_map(|pairs| QueryOutput::Rq(RqResult::from_pairs(pairs))),
            (
                proptest::collection::vec(proptest::collection::vec(node_id(), 0..6), 0..5),
                proptest::collection::vec(pair_list(), 0..5),
            )
                .prop_map(|(nodes, edges)| {
                    QueryOutput::Pq(Arc::new(PqResult::from_parts(nodes, edges)))
                }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The allocation-free encoder writes the oracle's bytes: per line,
        /// per body, and appended behind whatever the buffer already holds.
        /// The three encodes of each answer take the three paths of an RQ
        /// pair list: written straight, rendered into the shared slot,
        /// copied from it.
        #[test]
        fn encoder_matches_the_format_oracle(
            outputs in proptest::collection::vec((output(), 0usize..14), 0..5),
        ) {
            let items: Vec<BatchItem> =
                outputs.into_iter().map(|(o, plan)| item(o, plan)).collect();
            let mut expected = String::new();
            for it in &items {
                let line = encode_item_by_format(it);
                prop_assert_eq!(&encode_item(it), &line);
                expected.push_str(&line);
                expected.push('\n');
            }
            prop_assert_eq!(&encode_items(&items), &expected);
            let mut body = b"kept".to_vec();
            encode_items_into(&mut body, &items);
            prop_assert_eq!(body, [b"kept", expected.as_bytes()].concat());
        }
    }

    #[test]
    fn an_answer_encoded_again_is_copied_from_its_rendered_pairs() {
        let answer = RqResult::from_pairs(vec![(NodeId(7), NodeId(10)), (NodeId(0), NodeId(99))]);
        let first = item(QueryOutput::Rq(answer.clone()), 0);
        // a clone, as the memo hands every exact hit
        let again = item(QueryOutput::Rq(answer.clone()), 1);
        let bodies: Vec<String> = (0..3)
            .map(|_| encode_items(&[first.clone(), again.clone()]))
            .collect();
        let expected = format!(
            "{}\n{}\n",
            encode_item_by_format(&first),
            encode_item_by_format(&again)
        );
        for body in &bodies {
            assert_eq!(body, &expected);
        }
        let slot = answer.rendered(|_| unreachable!("rendered by the encoder"));
        assert_eq!(slot, Some(&b"[0,99],[7,10]"[..]));
    }

    /// Arbitrary request bodies made of the wire format's own pieces —
    /// op names, tabs, escapes, predicate, regex and pattern syntax,
    /// numbers past the types' edges — laid out as lines of tab-separated
    /// fields, with stray bytes (lossy UTF-8) mixed in.
    fn hostile_body() -> impl Strategy<Value = String> {
        const PIECES: &[&str] = &[
            "rq",
            "pq",
            "ins",
            "del",
            "\t",
            "\n",
            "\r",
            "\\",
            "\\\\",
            "\\t",
            "\\n",
            "\\x",
            "\t\t",
            "fa",
            "fn",
            "sa",
            "_",
            "+",
            "^",
            "^0",
            "^1",
            "^4294967295",
            "^99999999999",
            " ",
            "\"",
            "=",
            "!=",
            "<=",
            ">",
            "&&",
            "job",
            "sp",
            "\"doctor\"",
            "node a",
            "node b",
            "edge a -> b",
            "edge a -> a",
            "->",
            ":",
            ";",
            "#",
            "0",
            "1",
            "4294967295",
            "4294967296",
            "-1",
            "é",
            "\u{0}",
        ];
        let piece = prop_oneof![
            4 => (0..PIECES.len()).prop_map(|i| PIECES[i].as_bytes().to_vec()),
            1 => proptest::collection::vec(any::<u8>(), 1..4),
        ];
        let field = proptest::collection::vec(piece, 0..3).prop_map(|parts| parts.concat());
        let line = (0usize..5, proptest::collection::vec(field, 0..5)).prop_map(|(op, fields)| {
            let op = ["rq", "pq", "ins", "del", ""][op].as_bytes().to_vec();
            [vec![op], fields].concat().join(&b'\t')
        });
        proptest::collection::vec(line, 1..4)
            .prop_map(|lines| String::from_utf8_lossy(&lines.join(&b'\n')).into_owned())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8192))]

        /// No request body panics the parsers: each is a query or update
        /// batch, or a typed error.
        #[test]
        fn parsers_never_panic(body in hostile_body()) {
            let g = essembly();
            match parse_query_body(&body, &g) {
                Ok(_) | Err(EngineError::BadQuery { .. }) => {}
                Err(other) => prop_assert!(false, "{other:?}"),
            }
            match parse_update_body(&body, &g) {
                Ok(_) | Err(EngineError::BadQuery { .. }) => {}
                Err(other) => prop_assert!(false, "{other:?}"),
            }
        }
    }

    #[test]
    fn every_plan_name_and_empty_answers_encode_like_the_oracle() {
        for plan in 0..Plan::ALL.len() {
            for output in [
                QueryOutput::Rq(RqResult::from_pairs(Vec::new())),
                QueryOutput::Rq(RqResult::from_pairs(vec![(NodeId(0), NodeId(u32::MAX))])),
                QueryOutput::Pq(Arc::new(PqResult::from_parts(Vec::new(), Vec::new()))),
                QueryOutput::Pq(Arc::new(PqResult::from_parts(
                    vec![Vec::new(), vec![NodeId(9), NodeId(10)]],
                    vec![Vec::new(), vec![(NodeId(99_999), NodeId(0))]],
                ))),
            ] {
                let it = item(output, plan);
                assert_eq!(encode_item(&it), encode_item_by_format(&it));
            }
        }
        assert_eq!(encode_items(&[]), "");
    }

    #[test]
    fn a_refused_update_is_the_client_s_mistake() {
        for e in [
            EngineError::NodeOutOfRange {
                node: 7,
                node_count: 7,
            },
            EngineError::WildcardEdge,
            EngineError::ColorOutOfRange {
                color: 4,
                colors: 4,
            },
        ] {
            assert_eq!(status_for(&e), 400, "{e}");
        }
    }

    #[test]
    fn decimal_writer_agrees_with_to_string() {
        let mut probes = vec![0u32, 1, u32::MAX - 1, u32::MAX];
        for k in 1..10 {
            let p = 10u32.pow(k);
            probes.extend([p - 1, p, p + 1]);
        }
        for n in probes {
            let text = n.to_string();
            let mut out = Vec::new();
            Sink::decimal(&mut out, n);
            assert_eq!(out, text.as_bytes());
            assert_eq!(decimal_len(n), text.len(), "{n}");
            let mut counted = ByteCount(0);
            counted.pair(n, n);
            let mut out = Vec::new();
            out.pair(n, n);
            assert_eq!(out, format!("[{n},{n}]").as_bytes());
            assert_eq!(counted.0, out.len());
        }
    }

    #[test]
    fn field_escaping_round_trips() {
        for s in [
            "",
            "plain",
            "a\tb",
            "a\\nb",
            "tricky \\t literal",
            "nl\nnl\r",
        ] {
            assert_eq!(unescape_field(&escape_field(s)).unwrap(), s);
        }
        assert!(unescape_field("bad \\x escape").is_err());
        assert!(unescape_field("truncated \\").is_err());
    }

    #[test]
    fn rq_and_pq_lines_round_trip() {
        let g = essembly();
        let rq = Query::parse_rq("job = \"biologist\"", "", "fa^2 fn", &g).unwrap();
        let line = encode_query(&rq, &g);
        let back = parse_query_line(1, &line, &g).unwrap();
        assert_eq!(encode_query(&back, &g), line);

        let pq =
            Query::parse_pq("node a: job = \"doctor\";\nnode b;\nedge a -> b: fa+;", &g).unwrap();
        let line = encode_query(&pq, &g);
        assert!(!line.contains('\n'), "pq must travel as one line");
        let back = parse_query_line(1, &line, &g).unwrap();
        assert_eq!(encode_query(&back, &g), line);
    }

    /// String constants holding the predicate and pattern syntaxes'
    /// own characters reach the server as the client's queries.
    #[test]
    fn string_constants_survive_the_wire() {
        let g = essembly();
        let attr = |name: &str, value: &str| {
            let id = g.schema().get(name).unwrap();
            Predicate::eq(id, rpq_graph::AttrValue::Str(value.into()))
        };
        let regex = |text: &str| rpq_regex::FRegex::parse(text, g.alphabet()).unwrap();
        let mut pq = rpq_core::pq::Pq::new();
        let a = pq.add_node("a", attr("job", "C#"));
        let b = pq.add_node("b", attr("sp", "a;b\t\"c\""));
        pq.add_edge(a, b, regex("fa+"));
        let queries = vec![
            Query::Rq(Rq::new(
                attr("job", r"a\b"),
                attr("sp", r#"say "hi""#),
                regex("fa"),
            )),
            Query::Rq(Rq::new(
                attr("uid", "x && y"),
                Predicate::always_true(),
                regex("fn"),
            )),
            Query::Pq(pq),
        ];
        let body = encode_queries(&queries, &g);
        assert_eq!(parse_query_body(&body, &g), Ok(queries), "{body}");
    }

    #[test]
    fn errors_carry_the_wire_line_number() {
        let g = essembly();
        let body = "rq\t\t\tfa\nzz\t1\t2\n";
        let err = parse_query_body(body, &g).unwrap_err();
        assert_eq!(
            err,
            EngineError::BadQuery {
                line: 2,
                msg: "unknown op \"zz\" (expected rq or pq)".into()
            }
        );
        let err = parse_query_body("rq\t\t\tno_such_color", &g).unwrap_err();
        assert!(
            matches!(err, EngineError::BadQuery { line: 1, .. }),
            "{err}"
        );

        let err = parse_update_body("ins\t0\t1\tfa\ndel\t0\tnot-a-node\tfa", &g).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse_update_body("ins\t0\t1\tchartreuse", &g).unwrap_err();
        assert!(err.to_string().contains("unknown edge color"), "{err}");
    }

    #[test]
    fn update_lines_round_trip() {
        let g = essembly();
        let fa = g.alphabet().get("fa").unwrap();
        for u in [
            Update::Insert(NodeId(0), NodeId(3), fa),
            Update::Delete(NodeId(2), NodeId(1), fa),
        ] {
            let line = encode_update(&u, &g);
            assert_eq!(parse_update_line(1, &line, &g).unwrap(), u);
        }
    }
}
