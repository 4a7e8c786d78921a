//! `rpq-server` — a networked serving front-end for the query engine.
//!
//! The rest of the workspace answers queries in-process; this crate puts
//! a process boundary in front of it: a hand-rolled, threaded HTTP/1.1
//! server (`std::net` only — the build environment has no crates.io
//! access) that owns an [`UpdatableEngine`](rpq_engine::UpdatableEngine)
//! and speaks a versioned line/JSON wire format.
//!
//! * [`wire`] — the codec: tab-separated query/update request lines with
//!   line-numbered rejection of malformed frames, canonical JSON-lines
//!   answers, and the [`EngineError`](rpq_engine::EngineError) → HTTP
//!   status mapping.
//! * [`server`] — listener, per-connection threads, the bounded
//!   admission queue (full ⇒ **429** + `Retry-After`) — a monitor whose
//!   submitting threads run the batches themselves, each draining what
//!   queued up into one scatter-gather batch — and graceful shutdown.
//! * [`metrics`] — the `/metrics` registry: qps, interpolated p50/p99
//!   latency, queue depth, snapshot version, index bytes, per-plan
//!   latency summaries and repair-phase timings — rendered as Prometheus
//!   text exposition.
//! * [`client`] — the blocking client the load generator and tests use.
//! * [`http`] / [`json`] — the minimal protocol plumbing underneath.
//!
//! ## Endpoints (wire protocol v1)
//!
//! | Endpoint            | Payload                                        |
//! |---------------------|------------------------------------------------|
//! | `POST /v1/query`    | one query per line → one JSON answer per line  |
//! | `POST /v1/explain`  | same body → one `QueryProfile` JSON per line   |
//! | `POST /v1/update`   | one edge update per line → `{version, applied}`|
//! | `GET /metrics`      | Prometheus text                                |
//! | `GET /debug/trace`  | trace ring as JSON lines, oldest first         |
//! | `GET /v1/schema`    | graph vocabulary (attrs, colors, sizes)        |
//! | `POST /v1/shutdown` | graceful shutdown                              |
//!
//! ```no_run
//! use rpq_engine::UpdatableEngine;
//! use rpq_server::{Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(UpdatableEngine::new(rpq_graph::gen::essembly()));
//! let server = Server::start(engine, ServerConfig::default()).unwrap();
//! println!("serving on http://{}", server.addr());
//! server.wait(); // until POST /v1/shutdown
//! ```

pub mod client;
pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod wire;

pub use client::{Client, WireResponse};
pub use metrics::Metrics;
pub use server::{Server, ServerConfig, ServerHandle};
