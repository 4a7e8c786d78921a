//! `rpq-load` — closed-loop load generator and smoke checker for
//! `rpq-server`.
//!
//! ```text
//! rpq-load ADDR [--gen N [--seed S]] [--connections C] [--requests R]
//!          [--batch B] [--write-pct P] [--assert-qps]
//!          [--explain-sample N] [--assert-observability] [--shutdown]
//! ```
//!
//! `--gen`/`--seed` must match the server's so both sides share the graph
//! vocabulary. With `--assert-qps` the tool scrapes `/metrics` after the
//! run and exits non-zero unless the server reports non-zero qps and zero
//! errors were observed client-side — the CI smoke contract.
//! `--explain-sample N` sends N representative queries through
//! `POST /v1/explain` after the run and prints the aggregated stage-time
//! table. `--assert-observability` additionally requires the
//! `/metrics` body to carry the core metric families and every
//! `/debug/trace` line to be valid JSON. With `--shutdown` it asks the
//! server to drain afterwards.

use rpq_bench::loadgen::{
    assert_observability, run_load, sample_explain, scrape_metrics, LoadConfig,
};
use rpq_server::metrics::sample;
use rpq_server::Client;
use std::sync::Arc;

fn fail(msg: &str) -> ! {
    eprintln!("rpq-load: {msg}");
    std::process::exit(2);
}

fn main() {
    let mut addr: Option<String> = None;
    let mut gen_nodes = 10_000usize;
    let mut seed = 42u64;
    let mut cfg = LoadConfig::default();
    let mut assert_qps = false;
    let mut assert_obs = false;
    let mut explain_sample = 0usize;
    let mut shutdown = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--gen" => gen_nodes = value("--gen").parse().unwrap_or_else(|_| fail("--gen")),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| fail("--seed")),
            "--connections" => {
                cfg.connections = value("--connections")
                    .parse()
                    .unwrap_or_else(|_| fail("--connections"))
            }
            "--requests" => {
                cfg.requests_per_connection = value("--requests")
                    .parse()
                    .unwrap_or_else(|_| fail("--requests"))
            }
            "--batch" => cfg.batch = value("--batch").parse().unwrap_or_else(|_| fail("--batch")),
            "--write-pct" => {
                cfg.write_pct = value("--write-pct")
                    .parse()
                    .unwrap_or_else(|_| fail("--write-pct"))
            }
            "--assert-qps" => assert_qps = true,
            "--assert-observability" => assert_obs = true,
            "--explain-sample" => {
                explain_sample = value("--explain-sample")
                    .parse()
                    .unwrap_or_else(|_| fail("--explain-sample"))
            }
            "--shutdown" => shutdown = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: rpq-load ADDR [--gen N] [--seed S] [--connections C] \
                     [--requests R] [--batch B] [--write-pct P] [--assert-qps] \
                     [--explain-sample N] [--assert-observability] [--shutdown]"
                );
                return;
            }
            other if !other.starts_with('-') => addr = Some(other.to_owned()),
            other => fail(&format!("unknown flag {other:?}")),
        }
    }
    let addr = addr.unwrap_or_else(|| fail("missing server ADDR"));

    eprintln!("generating the shared {gen_nodes}-node vocabulary graph (seed {seed})…");
    let graph = Arc::new(rpq_graph::gen::youtube_like(gen_nodes, seed));

    eprintln!(
        "offered load: {} connections × {} requests (batch {}, {}% writes)",
        cfg.connections, cfg.requests_per_connection, cfg.batch, cfg.write_pct
    );
    let report = run_load(&addr, &graph, &cfg);
    println!(
        "done in {:.2?}: {} requests ({} queries, {} updates applied), \
         {} rejected (429, retried), {} errors",
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

    let mut failures = 0;
    let scraped = Client::connect(&addr)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut c| scrape_metrics(&mut c));
    match scraped {
        Ok(samples) => {
            let get = |series: &str| sample(&samples, series).unwrap_or(0.0);
            let served = get("rpq_queries_total");
            let qps = served / get("rpq_uptime_seconds").max(1e-9);
            println!(
                "server /metrics: {served} queries ({qps:.1} q/s), {} errors, {} rejected, \
                 snapshot v{}, {} slow queries",
                get("rpq_errors_total"),
                get("rpq_rejected_total"),
                get("rpq_snapshot_version"),
                get("rpq_slow_queries_total"),
            );
            if assert_qps {
                if qps <= 0.0 {
                    eprintln!("FAIL: server reports qps = {qps}");
                    failures += 1;
                }
                if served < report.queries as f64 {
                    eprintln!(
                        "FAIL: server served {served} queries, client completed {}",
                        report.queries
                    );
                    failures += 1;
                }
            }
        }
        Err(e) => {
            eprintln!("FAIL: cannot scrape /metrics: {e}");
            failures += 1;
        }
    }
    if assert_qps && report.errors > 0 {
        eprintln!("FAIL: {} client-side errors", report.errors);
        failures += 1;
    }
    if explain_sample > 0 {
        match sample_explain(&addr, &graph, explain_sample, seed) {
            Ok(summary) => print!("{}", summary.table()),
            Err(e) => {
                eprintln!("FAIL: explain sample: {e}");
                failures += 1;
            }
        }
    }
    if assert_obs {
        match assert_observability(&addr) {
            Ok(()) => eprintln!("observability check passed (/metrics + /debug/trace)"),
            Err(e) => {
                eprintln!("FAIL: observability: {e}");
                failures += 1;
            }
        }
    }

    if shutdown {
        match Client::connect(&addr).and_then(|mut c| c.shutdown_server()) {
            Ok(resp) if resp.is_ok() => eprintln!("server acknowledged shutdown"),
            Ok(resp) => {
                eprintln!("FAIL: shutdown returned {}", resp.status);
                failures += 1;
            }
            Err(e) => {
                eprintln!("FAIL: shutdown request failed: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
