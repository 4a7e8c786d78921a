//! `rpq-server` — serve RQ/PQ traffic over HTTP.
//!
//! ```text
//! rpq-server [ADDR] [--gen N [--seed S]] [--graph FILE]
//!            [--queue N] [--matrix-limit N] [--no-trace]
//!            [--slow-query-us US]
//! ```
//!
//! With `--graph`, the file is read in the edge-list format of
//! `rpq_graph::io`; otherwise a `--gen N`-node youtube-like graph is
//! generated (default 10 000 nodes, seed 42) — start `rpq-load` with the
//! same `--gen`/`--seed` so both sides share the vocabulary. The server
//! runs until `POST /v1/shutdown`.

use rpq_engine::{EngineConfig, UpdatableEngine};
use rpq_server::{Server, ServerConfig};
use std::io::BufReader;
use std::sync::Arc;

fn fail(msg: &str) -> ! {
    eprintln!("rpq-server: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7411".to_owned();
    let mut gen_nodes = 10_000usize;
    let mut seed = 42u64;
    let mut graph_file: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut matrix_limit: Option<usize> = None;
    let mut trace = true;
    let mut slow_query_us = 0u64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--gen" => {
                gen_nodes = value("--gen")
                    .parse()
                    .unwrap_or_else(|_| fail("--gen expects a node count"))
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed expects a u64"))
            }
            "--graph" => graph_file = Some(value("--graph")),
            "--queue" => {
                config.queue_capacity = value("--queue")
                    .parse()
                    .unwrap_or_else(|_| fail("--queue expects a count"))
            }
            "--matrix-limit" => {
                matrix_limit = Some(
                    value("--matrix-limit")
                        .parse()
                        .unwrap_or_else(|_| fail("--matrix-limit expects a node count")),
                )
            }
            "--no-trace" => trace = false,
            "--slow-query-us" => {
                slow_query_us = value("--slow-query-us")
                    .parse()
                    .unwrap_or_else(|_| fail("--slow-query-us expects microseconds"))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: rpq-server [ADDR] [--gen N] [--seed S] [--graph FILE] \
                     [--queue N] [--matrix-limit N] \
                     [--no-trace] [--slow-query-us US]"
                );
                return;
            }
            other if !other.starts_with('-') => addr = other.to_owned(),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    config.addr = addr;

    let graph = match &graph_file {
        Some(path) => {
            let file = std::fs::File::open(path)
                .unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
            rpq_graph::io::read_edge_list(&mut BufReader::new(file))
                .unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
        }
        None => rpq_graph::gen::youtube_like(gen_nodes, seed),
    };
    eprintln!(
        "graph ready: {} nodes / {} edges ({} colors)",
        graph.node_count(),
        graph.edge_count(),
        graph.alphabet().len()
    );

    // the serving binary runs with the trace ring on by default: the
    // per-event cost is one relaxed-atomic sequence plus a ring slot, and
    // /debug/trace is only useful when something was recorded
    rpq_trace::tracer().set_enabled(trace);
    let mut builder = EngineConfig::builder().slow_query_us(slow_query_us);
    if let Some(limit) = matrix_limit {
        builder = builder.matrix_node_limit(limit);
    }
    let engine_config = builder
        .build()
        .unwrap_or_else(|e| fail(&format!("bad engine config: {e}")));
    let engine = Arc::new(UpdatableEngine::with_config(graph, engine_config));

    let server =
        Server::start(engine, config).unwrap_or_else(|e| fail(&format!("cannot bind: {e}")));
    eprintln!(
        "rpq-server listening on http://{} (metrics: /metrics, shutdown: POST /v1/shutdown)",
        server.addr()
    );
    server.wait();
    eprintln!("rpq-server: drained, bye");
}
