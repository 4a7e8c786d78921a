//! A blocking wire-protocol client over one keep-alive connection.
//!
//! This is the client the load generator, the integration tests, and the
//! CI smoke job drive. One [`Client`] owns one TCP connection; it is not
//! thread-safe (closed-loop load generators run one per thread).

use crate::http::{read_response, HttpError};
use crate::json::Json;
use crate::wire;
use rpq_core::incremental::Update;
use rpq_engine::Query;
use rpq_graph::Graph;
use std::io::{self, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A decoded server response.
#[derive(Debug, Clone)]
pub struct WireResponse {
    pub status: u16,
    /// `Retry-After` seconds, present on 429s.
    pub retry_after: Option<u64>,
    /// `X-Rpq-Version` (the snapshot version that answered), if present.
    pub version: Option<u64>,
    pub body: String,
}

impl WireResponse {
    pub fn is_ok(&self) -> bool {
        self.status == 200
    }

    /// The answer lines of a `/v1/query` response.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.body.lines()
    }
}

/// One keep-alive connection to an `rpq-server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn io_err(e: HttpError) -> io::Error {
    match e {
        HttpError::Io(e) => e,
        HttpError::TooLarge => io::Error::new(io::ErrorKind::InvalidData, "response too large"),
        HttpError::Malformed(m) => io::Error::new(io::ErrorKind::InvalidData, m),
    }
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request, read one response.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<WireResponse> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: rpq\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        let (status, headers, body) = read_response(&mut self.reader).map_err(io_err)?;
        let header = |name: &str| {
            headers
                .iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .and_then(|(_, v)| v.parse::<u64>().ok())
        };
        Ok(WireResponse {
            status,
            retry_after: header("retry-after"),
            version: header("x-rpq-version"),
            // valid UTF-8 (every body this server sends) moves, uncopied
            body: String::from_utf8(body)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
        })
    }

    /// Run a query batch. `graph` supplies the vocabulary for encoding
    /// (fetch it from the same source the server was built with).
    pub fn query(&mut self, queries: &[Query], graph: &Graph) -> io::Result<WireResponse> {
        self.request("POST", "/v1/query", &wire::encode_queries(queries, graph))
    }

    /// Apply an update batch.
    pub fn update(&mut self, updates: &[Update], graph: &Graph) -> io::Result<WireResponse> {
        self.request("POST", "/v1/update", &wire::encode_updates(updates, graph))
    }

    /// Scrape `/metrics` (Prometheus text exposition; decode it with
    /// [`parse_prometheus_text`](crate::metrics::parse_prometheus_text)).
    pub fn metrics_prometheus(&mut self) -> io::Result<String> {
        Ok(self.request("GET", "/metrics", "")?.body)
    }

    /// Profile a query batch through `POST /v1/explain`: one
    /// `QueryProfile` JSON object per line.
    pub fn explain(&mut self, queries: &[Query], graph: &Graph) -> io::Result<WireResponse> {
        self.request("POST", "/v1/explain", &wire::encode_queries(queries, graph))
    }

    /// Dump the server's trace ring (`GET /debug/trace`), one JSON event
    /// per line, oldest first.
    pub fn debug_trace(&mut self) -> io::Result<String> {
        Ok(self.request("GET", "/debug/trace", "")?.body)
    }

    /// Fetch `/v1/schema` as parsed JSON.
    pub fn schema(&mut self) -> io::Result<Json> {
        let resp = self.request("GET", "/v1/schema", "")?;
        Json::parse(&resp.body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> io::Result<WireResponse> {
        self.request("POST", "/v1/shutdown", "")
    }
}
