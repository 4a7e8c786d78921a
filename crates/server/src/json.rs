//! Minimal JSON support for the wire format.
//!
//! The server emits JSON by formatting strings (answers are flat and the
//! shapes are fixed), and the client side needs just enough of a parser to
//! read `/metrics` scrapes and update acknowledgements. No crates.io
//! access, so both halves are hand-rolled here: [`escape`] for writing,
//! [`Json::parse`] for reading.

use std::collections::BTreeMap;
use std::fmt;

/// Escape a string for embedding in a JSON string literal (no quotes).
pub use rpq_trace::escape_json as escape;

/// A parsed JSON value. Numbers are kept as `f64` (the wire format never
/// sends integers large enough to lose precision: node ids are `u32`,
/// counters fit in 2^53).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

/// Parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level, so a document of a few hundred
/// kilobytes of `[` would otherwise overflow the stack of the thread
/// parsing it; the documents the wire and the ledger exchange nest well
/// under ten deep.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse one JSON document; trailing garbage, and nesting deeper than
    /// [`MAX_DEPTH`], are errors.
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: s,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .ok()
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // surrogate pairs are not produced by this
                            // wire format; reject rather than mis-decode
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("bad \\u code point"))?;
                            out.push(c);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(b) if b < 0x20 => return Err(self.err("control byte in string")),
                Some(_) => {
                    // copy the run of plain bytes up to the next quote,
                    // escape or control byte at once: those are ASCII, so
                    // the run ends on a char boundary
                    let start = self.pos;
                    while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    /// `parse` one level deeper, or an error past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than MAX_DEPTH"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_the_shapes_the_wire_uses() {
        let v = Json::parse(r#"{"version": 3, "applied": 2}"#).unwrap();
        assert_eq!(v.get("version").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("applied").unwrap().as_u64(), Some(2));

        let v = Json::parse(r#"{"pairs": [[0, 1], [2, 3]], "plan": "DM"}"#).unwrap();
        assert_eq!(v.get("plan").unwrap().as_str(), Some("DM"));
        let pairs = v.get("pairs").unwrap().as_array().unwrap();
        assert_eq!(pairs[1].as_array().unwrap()[0].as_u64(), Some(2));

        let v = Json::parse(r#"{"qps": 123.5, "err": "line 3: bad query"}"#).unwrap();
        assert_eq!(v.get("qps").unwrap().as_f64(), Some(123.5));
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "tab\t nl\n quote\" back\\slash ünïcode \u{1}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn a_long_string_parses_in_linear_time() {
        // 4 MiB of mixed ASCII, multi-byte and escaped characters: copied
        // run by run, not re-validated to the end of the document per char
        let text = "ab ü \"ẞ\" ".repeat(3 << 17);
        assert!(text.len() >= 4 << 20);
        let doc = format!("\"{}\"", escape(&text));
        let t = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.as_str(), Some(text.as_str()));
        assert!(t.elapsed().as_secs_f64() < 2.0, "took {:?}", t.elapsed());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |open: &str, close: &str, depth: usize| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(Json::parse(&nest("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest("{\"k\":", "}", MAX_DEPTH)).is_ok());
        for doc in [
            nest("[", "]", MAX_DEPTH + 1),
            nest("{\"k\":", "}", MAX_DEPTH + 1),
            // deep enough to overflow any thread's stack one frame a level
            "[".repeat(100_000),
            "[{\"k\":".repeat(50_000),
        ] {
            let err = Json::parse(&doc).unwrap_err();
            assert_eq!(err.msg, "nesting deeper than MAX_DEPTH");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "{} extra",
            "[1 2]",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// A well-formed document drawn from `seed`, nested at most `depth`
    /// levels: every value kind, numbers in both signs and with
    /// exponents, strings holding escapes and multi-byte characters.
    fn document(seed: &mut impl Iterator<Item = u8>, depth: usize) -> String {
        let b = seed.next().unwrap_or(0);
        let width = usize::from(b / 8 % 4);
        let mut children =
            |depth| -> Vec<String> { (0..width).map(|_| document(seed, depth)).collect() };
        match b % 8 {
            0 => "null".to_owned(),
            1 => (b >= 128).to_string(),
            2 => format!("-{}.{}e{}", b / 3, b % 10, i32::from(b % 7) - 3),
            3 => {
                let text: String = "ü\"\u{1}\n ẞ".chars().take(width + 1).collect();
                format!("\"{}\"", escape(&text))
            }
            4 | 5 if depth > 0 => format!("[{}]", children(depth - 1).join(",")),
            6 | 7 if depth > 0 => {
                let fields: Vec<String> = children(depth - 1)
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| format!("\"k{i}\" : {v}"))
                    .collect();
                format!("{{ {} }}", fields.join(" , "))
            }
            _ => b.to_string(),
        }
    }

    /// JSON-shaped text: the grammar's tokens, whole and broken escapes,
    /// runs of brackets around [`MAX_DEPTH`] and arbitrary characters, in
    /// any order, cut at an arbitrary character.
    fn hostile_text() -> impl Strategy<Value = String> {
        const PIECES: &[&str] = &[
            "{",
            "}",
            "[",
            "]",
            ":",
            ",",
            " ",
            "\"k\"",
            "\"",
            "\\",
            "\\n",
            "\"\\u00e9\"",
            "\"\\ud800\"",
            "\"\\u12",
            "\"\\x\"",
            "1",
            "-",
            "-0",
            "1.5e3",
            "1e999",
            "0.",
            ".5",
            "true",
            "tru",
            "null",
            "ü",
        ];
        let token = prop_oneof![
            8 => (0..PIECES.len()).prop_map(|i| PIECES[i].to_owned()),
            1 => any::<u32>().prop_map(|u| char::from_u32(u % 0x11_0000).map_or_else(String::new, String::from)),
            1 => (0usize..2, MAX_DEPTH - 2..MAX_DEPTH + 3)
                .prop_map(|(open, n)| ["[", "{\"k\":"][open].repeat(n)),
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

        /// A well-formed document parses, and none of its prefixes panics
        /// the parser.
        #[test]
        fn documents_parse_and_their_prefixes_do_not_panic(
            seed in proptest::collection::vec(any::<u8>(), 0..64),
            cut in any::<u16>(),
        ) {
            let doc = document(&mut seed.into_iter(), 6);
            prop_assert!(Json::parse(&doc).is_ok(), "{}", doc);
            let prefix: String = doc.chars().take(usize::from(cut) % (doc.chars().count() + 1)).collect();
            let _ = Json::parse(&prefix);
        }

        /// No text panics the parser.
        #[test]
        fn hostile_text_never_panics(text in hostile_text()) {
            let _ = Json::parse(&text);
        }
    }
}
