//! A deliberately small HTTP/1.1 codec over `std::net`.
//!
//! The build environment has no crates.io access, so the server speaks
//! just enough HTTP for its own wire format: request line + headers +
//! `Content-Length` bodies, keep-alive by default (1.1 semantics),
//! `Connection: close` honored, hard limits on header and body sizes.
//! No chunked encoding, no TLS, no pipelining guarantees beyond
//! request/response alternation — clients that need more belong behind a
//! reverse proxy.

use std::io::{self, BufRead, IoSlice, Read, Write};

/// Cap on the request line plus all headers (a malformed peer cannot make
/// the server buffer unboundedly).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Did the client ask to drop the connection after this exchange?
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// Body as UTF-8, or `None` if it is not valid UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Head or body exceeded the configured limit.
    TooLarge,
    /// Syntactically broken request.
    Malformed(&'static str),
    /// Transport failure (includes read timeouts on idle keep-alives).
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Read one head line — the request line or a header — into `buf` and
/// return it without its line ending, charged to `left`, the head budget
/// still unspent. `Ok(None)` is EOF. The read stops one byte past the
/// budget, so a peer that never sends a newline is refused at the cap
/// instead of buffered.
fn read_head_line<'a>(
    r: &mut impl BufRead,
    buf: &'a mut Vec<u8>,
    left: &mut usize,
) -> Result<Option<&'a str>, HttpError> {
    buf.clear();
    let n = r.by_ref().take(*left as u64 + 1).read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(None);
    }
    *left = left.checked_sub(n).ok_or(HttpError::TooLarge)?;
    let line =
        std::str::from_utf8(buf).map_err(|_| HttpError::Malformed("head is not valid utf-8"))?;
    Ok(Some(line.trim_end_matches(['\r', '\n'])))
}

/// Read one request. `Ok(None)` means the peer closed cleanly before
/// sending anything (the normal end of a keep-alive connection).
pub fn read_request(r: &mut impl BufRead, max_body: usize) -> Result<Option<Request>, HttpError> {
    let mut head_left = MAX_HEAD_BYTES;
    let mut buf = Vec::new();
    // tolerate a stray blank line between pipelined requests
    let request_line = loop {
        match read_head_line(r, &mut buf, &mut head_left)? {
            None => return Ok(None),
            Some("") => {}
            Some(line) => break line.to_owned(),
        }
    };
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("empty request line"))?
        .to_owned();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("request line without a path"))?
        .to_owned();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("request line without a version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("not an HTTP/1.x request"));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_head_line(r, &mut buf, &mut head_left)?
            .ok_or(HttpError::Malformed("eof inside headers"))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without ':'"))?;
        headers.push((name.trim().to_owned(), value.trim().to_owned()));
    }

    let content_length = content_length(&headers)?;
    if content_length > max_body {
        return Err(HttpError::TooLarge);
    }
    let body = read_body(r, content_length)?;

    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// The body length a head declares, for requests and responses alike:
/// 0 without a `Content-Length`, else the value of the one such header,
/// all ASCII digits. A second header could frame the body differently
/// from a proxy in front (request smuggling) and `usize::from_str` alone
/// would take a leading `+`, so either is `Malformed`.
fn content_length(headers: &[(String, String)]) -> Result<usize, HttpError> {
    let mut lengths = headers
        .iter()
        .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"));
    match (lengths.next(), lengths.next()) {
        (None, _) => Ok(0),
        (Some(_), Some(_)) => Err(HttpError::Malformed("repeated content-length")),
        (Some((_, v)), None) => v
            .bytes()
            .all(|b| b.is_ascii_digit())
            .then(|| v.parse::<usize>().ok())
            .flatten()
            .ok_or(HttpError::Malformed("bad content-length")),
    }
}

/// Read a body of `len` declared bytes; fewer is an unexpected EOF. The
/// first [`BODY_RESERVE`] bytes are read into a buffer of their size, the
/// rest through `take` into one that grows with the bytes that arrive, so
/// a declared length costs no memory the peer does not send.
fn read_body(r: &mut impl BufRead, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut body = vec![0u8; len.min(BODY_RESERVE)];
    r.read_exact(&mut body)?;
    let rest = (len - body.len()) as u64;
    if rest > 0 && r.take(rest).read_to_end(&mut body)? as u64 != rest {
        return Err(io::Error::from(io::ErrorKind::UnexpectedEof).into());
    }
    Ok(body)
}

/// The most [`read_body`] allocates before the bytes arrive.
const BODY_RESERVE: usize = 1 << 20;

/// One response about to be written.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON-bodied response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into(),
        }
    }

    /// A response with an explicit content type (Prometheus text
    /// exposition, trace JSON-lines).
    pub fn text(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), content_type.into())],
            body: body.into(),
        }
    }

    /// The standard error shape: `{"error": "<msg>"}`.
    pub fn error(status: u16, msg: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\": \"{}\"}}\n", crate::json::escape(msg)),
        )
    }

    pub fn with_header(mut self, name: &str, value: impl ToString) -> Self {
        self.headers.push((name.into(), value.to_string()));
        self
    }

    /// Serialize onto the stream. `keep_alive` controls the `Connection`
    /// header; the caller must actually honor it afterwards.
    pub fn write(&self, w: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, status_text(self.status));
        for (k, v) in &self.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n"
        } else {
            "Connection: close\r\n"
        });
        head.push_str("\r\n");
        write_both(w, head.as_bytes(), &self.body)?;
        w.flush()
    }
}

/// `write_all` of `head` then `body` through vectored writes: on a
/// no-delay socket the two reach the peer as one segment train, so a
/// blocked reader is woken once, not once for the head and again for the
/// body. Short writes resume where they stopped.
fn write_both(w: &mut impl Write, mut head: &[u8], mut body: &[u8]) -> io::Result<()> {
    while !head.is_empty() {
        match w.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) if n < head.len() => head = &head[n..],
            Ok(n) => {
                body = &body[n - head.len()..];
                head = &[];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.write_all(body)
}

/// Reason phrase for the handful of codes the server emits.
pub fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A decoded response: status, headers, body.
pub type RawResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Client side: read one response (status, headers, body).
pub fn read_response(r: &mut impl BufRead) -> Result<RawResponse, HttpError> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(HttpError::Malformed("connection closed before response"));
    }
    let mut parts = line.trim_end_matches(['\r', '\n']).splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("not an HTTP/1.x response"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("bad status code"))?;

    let mut headers = Vec::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(HttpError::Malformed("eof inside response headers"));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.trim().to_owned(), value.trim().to_owned()));
        }
    }
    let body = read_body(r, content_length(&headers)?)?;
    Ok((status, headers, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_request_with_body() {
        let raw = b"POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut BufReader::new(&raw[..]), 1024)
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/query");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body_str(), Some("hello"));
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_malformed() {
        assert!(matches!(
            read_request(&mut BufReader::new(&b""[..]), 1024),
            Ok(None)
        ));
        assert!(matches!(
            read_request(&mut BufReader::new(&b"NOT-HTTP\r\n\r\n"[..]), 1024),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn a_content_length_is_one_header_of_ascii_digits() {
        let read = |head: &str| {
            let raw = format!("POST / HTTP/1.1\r\n{head}\r\n\r\nhello");
            read_request(&mut BufReader::new(raw.as_bytes()), 1024)
        };
        // a repeat, agreeing or not, would leave the framing to whichever
        // header a reader takes
        for second in ["Content-Length: 5", "content-length: 1"] {
            assert!(matches!(
                read(&format!("content-length: 1\r\n{second}")),
                Err(HttpError::Malformed("repeated content-length"))
            ));
        }
        for bad in ["+4", "-0", "0x4", "4.0", "", "4 4", "\u{0664}"] {
            assert!(
                matches!(
                    read(&format!("Content-Length: {bad}")),
                    Err(HttpError::Malformed("bad content-length"))
                ),
                "{bad:?}"
            );
        }
        // surrounding blanks are the header syntax's, not the value's
        let req = read("Content-Length:  0005 ").unwrap().unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn oversized_bodies_are_rejected_up_front() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n";
        assert!(matches!(
            read_request(&mut BufReader::new(&raw[..]), 10),
            Err(HttpError::TooLarge)
        ));
    }

    /// A reader that counts the bytes drawn from it.
    struct Counted<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counted<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn a_head_without_a_newline_is_refused_at_the_cap() {
        let flood = Counted {
            inner: io::repeat(b'A').take(1 << 20),
            read: 0,
        };
        let mut r = BufReader::new(flood);
        assert!(matches!(
            read_request(&mut r, 1024),
            Err(HttpError::TooLarge)
        ));
        let read = r.get_ref().read;
        assert!(
            read <= MAX_HEAD_BYTES + r.capacity(),
            "{read} bytes read to refuse a head"
        );
    }

    #[test]
    fn a_head_line_that_is_not_utf8_is_malformed() {
        for raw in [
            &b"GET / HTTP/1.1\r\nX-Bad: \xff\xfe\r\n\r\n"[..],
            &b"GET /\xff HTTP/1.1\r\n\r\n"[..],
        ] {
            assert!(matches!(
                read_request(&mut BufReader::new(raw), 1024),
                Err(HttpError::Malformed(_))
            ));
        }
    }

    /// A writer that accepts at most three bytes per call, like a socket
    /// with a nearly full send buffer.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(3);
            self.0.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_lose_and_repeat_nothing() {
        let resp = Response::json(200, "{\"ok\": true}").with_header("X-Rpq-Version", 7);
        let mut whole = Vec::new();
        resp.write(&mut whole, true).unwrap();
        let mut trickled = Trickle(Vec::new());
        resp.write(&mut trickled, true).unwrap();
        assert_eq!(trickled.0, whole);
        assert!(whole.ends_with(b"\r\n\r\n{\"ok\": true}"));
    }

    #[test]
    fn response_round_trips() {
        let mut buf = Vec::new();
        Response::json(200, "{\"ok\": true}")
            .with_header("X-Rpq-Version", 7)
            .write(&mut buf, true)
            .unwrap();
        let (status, headers, body) = read_response(&mut BufReader::new(&buf[..])).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"{\"ok\": true}");
        assert!(headers
            .iter()
            .any(|(k, v)| k == "X-Rpq-Version" && v == "7"));
    }

    #[test]
    fn a_response_length_is_one_header_of_ascii_digits() {
        let read = |head: &str| {
            let raw = format!("HTTP/1.1 200 OK\r\n{head}\r\n\r\nhello");
            read_response(&mut BufReader::new(raw.as_bytes()))
        };
        assert_eq!(read("Content-Length: 5").unwrap().2, b"hello");
        assert_eq!(read("X-A: b").unwrap().2, b"");
        // a misread length would leave the rest of a keep-alive stream
        // out of step with its responses
        for bad in ["x", "+4", "4 4", ""] {
            assert!(
                matches!(
                    read(&format!("Content-Length: {bad}")),
                    Err(HttpError::Malformed("bad content-length"))
                ),
                "{bad:?}"
            );
        }
        assert!(matches!(
            read("Content-Length: 5\r\ncontent-length: 3"),
            Err(HttpError::Malformed("repeated content-length"))
        ));
        // a length far past what arrives: an unexpected EOF, not an
        // allocation of the declared size
        for declared in [6, 1usize << 40] {
            assert!(
                matches!(
                    read(&format!("Content-Length: {declared}")),
                    Err(HttpError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof
                ),
                "{declared}"
            );
        }
        // past the up-front buffer, the rest arrives through `take`
        let big: Vec<u8> = (0..BODY_RESERVE + 5).map(|i| i as u8).collect();
        for (declared, whole) in [(big.len(), true), (big.len() + 1, false)] {
            let mut raw =
                format!("HTTP/1.1 200 OK\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
            raw.extend(&big);
            match read_response(&mut BufReader::new(&raw[..])) {
                Ok((_, _, body)) => assert!(whole && body == big),
                Err(HttpError::Io(e)) => {
                    assert!(!whole && e.kind() == io::ErrorKind::UnexpectedEof)
                }
                Err(e) => panic!("{e:?}"),
            }
        }
    }

    /// A reader that hands out at most `step` bytes per call, like a peer
    /// dribbling its request (slow-loris).
    struct Dribble<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// Several requests for one reader: request lines and headers, mostly
    /// well formed; a `Content-Length` that is honest, absent, lying in
    /// either direction or not a number; heads that are not UTF-8, bare
    /// `\n` and `\r` line endings, arbitrary bytes; the stream cut at an
    /// arbitrary byte.
    fn hostile_stream() -> impl Strategy<Value = Vec<u8>> {
        fn pick(pieces: &'static [&'static str]) -> impl Strategy<Value = Vec<u8>> {
            (0..pieces.len()).prop_map(move |i| pieces[i].as_bytes().to_vec())
        }
        let garbage = || {
            prop_oneof![
                1 => proptest::collection::vec(any::<u8>(), 0..6),
                1 => Just(b"X-Bad: \xff\xfe".to_vec()),
            ]
        };
        let line = prop_oneof![
            10 => pick(&["GET / HTTP/1.1", "POST /v1/query HTTP/1.1", "POST /v1/explain HTTP/1.0"]),
            1 => pick(&["GET", "GET /", "POST /v1/query HTTP/2", "", " GET  /  HTTP/1.1 "]),
            1 => garbage(),
        ];
        let header = prop_oneof![
            10 => pick(&["Host: x", "Connection: close", "content-length: 1", "X-A:b:c"]),
            1 => pick(&["no colon", ": empty name", "Content-Length: 2"]),
            1 => garbage(),
        ];
        let length = prop_oneof![
            4 => Just(None),
            1 => pick(&["3x", "-1", "", "18446744073709551616", "4 4", "+4"]).prop_map(Some),
        ];
        let ending = prop_oneof![
            10 => Just(&b"\r\n"[..]),
            1 => Just(&b"\n"[..]),
            1 => Just(&b"\r"[..]),
        ];
        let request = (
            line,
            proptest::collection::vec(header, 0..3),
            (0usize..4, length),
            proptest::collection::vec(any::<u8>(), 0..24),
            ending,
        )
            .prop_map(|(line, headers, (lie, length), body, end)| {
                // honest, absent, 5 bytes over or 5 under, or not a number
                let declared = match (lie, length) {
                    (_, Some(text)) => Some(text),
                    (0, None) => Some(body.len().to_string().into_bytes()),
                    (1, None) => None,
                    (2, None) => Some((body.len() + 5).to_string().into_bytes()),
                    (_, None) => Some(body.len().saturating_sub(5).to_string().into_bytes()),
                };
                let mut out = line;
                for h in headers
                    .into_iter()
                    .chain(declared.map(|d| [&b"Content-Length: "[..], &d].concat()))
                {
                    out.extend(end);
                    out.extend(h);
                }
                out.extend(end);
                out.extend(end);
                out.extend(body);
                out
            });
        (proptest::collection::vec(request, 1..4), any::<u16>()).prop_map(|(requests, cut)| {
            let stream = requests.concat();
            // uncut about half the time
            let keep = cut as usize % (2 * stream.len() + 1);
            stream[..keep.min(stream.len())].to_vec()
        })
    }

    /// The requests `r` yields up to the end of the stream or the first
    /// error, each rendered with the length of its body, then the error.
    fn read_all(r: &mut impl BufRead, max_body: usize) -> Result<Vec<String>, String> {
        let mut seen = Vec::new();
        loop {
            match read_request(r, max_body) {
                Ok(None) => return Ok(seen),
                Ok(Some(req)) => {
                    if req.body.len() > max_body {
                        return Err(format!(
                            "a {}-byte body under max_body {max_body}",
                            req.body.len()
                        ));
                    }
                    seen.push(format!(
                        "{} {} {:?} {}",
                        req.method,
                        req.path,
                        req.headers,
                        req.body.len()
                    ));
                }
                Err(HttpError::Io(e)) if e.kind() != io::ErrorKind::UnexpectedEof => {
                    return Err(format!("in-memory read failed: {e}"));
                }
                Err(e) => {
                    seen.push(format!("{e:?}"));
                    return Ok(seen);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// No byte stream panics the request reader: each read is a
        /// request whose body fits `max_body`, the clean end of the
        /// stream, or an `HttpError` (a truncated body is an unexpected
        /// EOF, nothing else fails on memory). A peer that dribbles the
        /// same bytes gets the same requests and the same error.
        #[test]
        fn request_reader_never_panics(
            stream in hostile_stream(),
            max_body in 0usize..20,
            step in 1usize..8,
        ) {
            let whole = read_all(&mut BufReader::new(&stream[..]), max_body);
            prop_assert!(whole.is_ok(), "{:?}", whole);
            let dribbled = BufReader::new(Dribble { bytes: &stream, step });
            prop_assert_eq!(read_all(&mut { dribbled }, max_body), whole);
        }
    }
}
