//! Release acceptance for the serving stack: ≥ 1000 concurrent
//! closed-loop connections of mixed RQ/PQ reads and edge-update writes
//! against one `rpq-server`, with latency-percentile assertions and a
//! bit-identical parity check against in-process evaluation.
//! (Backpressure is `tests/server.rs::full_queue_gets_backpressure`.)
//!
//! Run with:
//!
//! ```text
//! cargo test --release -p rpq-server --test scale -- --ignored --nocapture
//! ```

use rpq_bench::loadgen::{run_load, scrape_metrics, LoadConfig};
use rpq_bench::querygen::{generate_pq, generate_rq, QueryParams};
use rpq_engine::{Query, UpdatableEngine};
use rpq_graph::gen::youtube_like;
use rpq_server::{wire, Client, Server, ServerConfig};
use std::sync::Arc;

const CONNECTIONS: usize = 1024;
const GRAPH_NODES: usize = 1_000;
const SEED: u64 = 42;

#[test]
#[ignore = "release acceptance: ~1k threads; run with --release --ignored"]
fn thousand_connection_mixed_load() {
    let engine = Arc::new(UpdatableEngine::new(youtube_like(GRAPH_NODES, SEED)));
    let graph = Arc::clone(engine.snapshot().graph());
    let server = Server::start(
        Arc::clone(&engine),
        ServerConfig {
            queue_capacity: 2048,
            max_pending_updates: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.addr().to_string();

    let cfg = LoadConfig {
        connections: CONNECTIONS,
        requests_per_connection: 3,
        write_pct: 20,
        batch: 2,
        updates_per_write: 2,
        seed: SEED,
    };
    println!(
        "offered load: {} connections × {} requests (batch {}, {}% writes)",
        cfg.connections, cfg.requests_per_connection, cfg.batch, cfg.write_pct
    );
    let report = run_load(&addr, &graph, &cfg);
    println!(
        "completed in {:.2?}: {} requests, {} queries, {} updates applied, \
         {} rejected (retried), {} errors",
        report.wall,
        report.requests,
        report.queries,
        report.updates_applied,
        report.rejected,
        report.errors
    );
    println!(
        "client-side: {:.0} q/s, p50 {} µs, p99 {} µs",
        report.qps, report.p50_us, report.p99_us
    );

    // every connection completed every request, none errored out
    assert_eq!(report.errors, 0, "load run saw errors");
    assert_eq!(
        report.requests,
        (cfg.connections * cfg.requests_per_connection) as u64
    );
    assert!(report.qps > 0.0);
    // latency bounds are deliberately loose: with 1k closed-loop
    // connections on one shared CI core, p50 is dominated by queue wait,
    // so these assert the *shape* (the pipeline kept moving; nothing hit
    // the 120 s response timeout) rather than a hardware-specific number
    assert!(report.p50_us > 0, "no latencies recorded");
    assert!(
        report.p50_us < 60_000_000,
        "p50 {} µs: server stalled under load",
        report.p50_us
    );
    assert!(
        report.p99_us < 110_000_000,
        "p99 {} µs: tail collapsed under load",
        report.p99_us
    );

    // server-side metrics agree the traffic happened
    let mut client = Client::connect(server.addr()).unwrap();
    let samples = scrape_metrics(&mut client).unwrap();
    let get = |series: &str| rpq_server::metrics::sample(&samples, series).unwrap();
    let served = get("rpq_queries_total");
    assert!(
        served >= report.queries as f64,
        "server served {served}, clients completed {}",
        report.queries
    );
    assert!(served / get("rpq_uptime_seconds") > 0.0);
    assert_eq!(
        get("rpq_snapshot_version"),
        engine.snapshot().version() as f64
    );

    // parity after the churn: wire answers are bit-identical to an
    // in-process run_batch on the final snapshot
    let params = QueryParams {
        nodes: 3,
        edges: 3,
        preds: 2,
        bound: 3,
        colors: 2,
        redundant: false,
    };
    let queries: Vec<Query> = (0..24)
        .map(|i| {
            if i % 3 == 2 {
                Query::Pq(generate_pq(&graph, &params, 9_000 + i))
            } else {
                Query::Rq(generate_rq(&graph, 2, 3, 2, 9_000 + i))
            }
        })
        .collect();
    let resp = client.query(&queries, &graph).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let expected = wire::encode_items(engine.snapshot().run_batch(&queries).items());
    assert_eq!(resp.body, expected, "post-load parity broke");

    server.shutdown();
}
