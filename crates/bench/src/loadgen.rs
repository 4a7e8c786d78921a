//! Closed-loop load generator for `rpq-server`.
//!
//! One thread per connection, each running a closed loop: send a request,
//! wait for the answer, send the next. Traffic is a seeded mix of RQ/PQ
//! read batches (via [`querygen`](crate::querygen)) and small edge-update
//! writes. 429 backpressure responses are honored by a short pause and a
//! retry, and counted — so a saturated server slows the offered load down
//! instead of melting, which is the whole point of admission control.
//!
//! Per-request latencies are collected across all connections; the
//! [`LoadReport`] carries the percentiles the acceptance test asserts.
//! Recorded wire-level numbers are the ledger's (`BENCHMARK.json`:
//! `read_p50_ms`, `read_p95_ms`, `read_qps`, `server.write_roundtrip_ms`),
//! measured by its own closed loop, not by this module.

use crate::querygen::{generate_pq, generate_rq, QueryParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_core::incremental::Update;
use rpq_engine::Query;
use rpq_graph::{Color, Graph, NodeId};
use rpq_server::Client;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Shape of the offered load.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent connections (threads).
    pub connections: usize,
    /// Requests each connection completes before closing.
    pub requests_per_connection: usize,
    /// Percentage of requests that are update writes (0–100).
    pub write_pct: u32,
    /// Queries per read request.
    pub batch: usize,
    /// Updates per write request.
    pub updates_per_write: usize,
    /// Base RNG seed (connection `i` uses `seed + i`).
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 8,
            requests_per_connection: 16,
            write_pct: 20,
            batch: 4,
            updates_per_write: 4,
            seed: 1,
        }
    }
}

/// Aggregated outcome of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests answered 200.
    pub requests: u64,
    /// Individual queries answered (batch of 4 counts 4).
    pub queries: u64,
    /// Updates acknowledged as applied by the server.
    pub updates_applied: u64,
    /// 429 backpressure responses observed (each was retried).
    pub rejected: u64,
    /// Responses with any other non-200 status, plus transport errors.
    pub errors: u64,
    /// Wall-clock of the whole run.
    pub wall: Duration,
    pub p50_us: u64,
    pub p99_us: u64,
    /// Completed queries per second over the run.
    pub qps: f64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct ConnOutcome {
    latencies_us: Vec<u64>,
    queries: u64,
    updates_applied: u64,
    rejected: u64,
    errors: u64,
}

/// A small random (but valid) update batch: node ids in range, concrete
/// colors only — writes must never 400.
fn random_updates(g: &Graph, count: usize, rng: &mut StdRng) -> Vec<Update> {
    let n = g.node_count() as u32;
    let colors: Vec<Color> = g.alphabet().colors().collect();
    (0..count)
        .map(|_| {
            let x = NodeId(rng.gen_range(0..n));
            let y = NodeId(rng.gen_range(0..n));
            let c = colors[rng.gen_range(0..colors.len())];
            if rng.gen_bool(0.5) {
                Update::Insert(x, y, c)
            } else {
                Update::Delete(x, y, c)
            }
        })
        .collect()
}

fn run_connection(
    addr: &str,
    g: &Graph,
    cfg: &LoadConfig,
    conn_idx: usize,
) -> Result<ConnOutcome, std::io::Error> {
    let mut client = Client::connect(addr)?;
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(conn_idx as u64));
    let mut out = ConnOutcome {
        latencies_us: Vec::with_capacity(cfg.requests_per_connection),
        queries: 0,
        updates_applied: 0,
        rejected: 0,
        errors: 0,
    };
    let pq_params = QueryParams {
        nodes: 3,
        edges: 3,
        preds: 2,
        bound: 3,
        colors: 2,
        redundant: false,
    };

    for req in 0..cfg.requests_per_connection {
        let write = rng.gen_range(0..100u32) < cfg.write_pct;
        let mut attempt = 0usize;
        loop {
            let started = Instant::now();
            let resp = if write {
                let updates = random_updates(g, cfg.updates_per_write, &mut rng);
                client.update(&updates, g)?
            } else {
                let queries: Vec<Query> = (0..cfg.batch)
                    .map(|k| {
                        let seed = cfg
                            .seed
                            .wrapping_add((conn_idx * 1_000_003 + req * 101 + k) as u64);
                        if k % 4 == 3 {
                            Query::Pq(generate_pq(g, &pq_params, seed))
                        } else {
                            Query::Rq(generate_rq(g, 2, 3, 2, seed))
                        }
                    })
                    .collect();
                client.query(&queries, g)?
            };
            match resp.status {
                200 => {
                    out.latencies_us.push(started.elapsed().as_micros() as u64);
                    if write {
                        if let Ok(applied) = parse_applied(&resp.body) {
                            out.updates_applied += applied;
                        }
                    } else {
                        out.queries += cfg.batch as u64;
                    }
                    break;
                }
                429 => {
                    out.rejected += 1;
                    attempt += 1;
                    if attempt > 50 {
                        out.errors += 1;
                        break;
                    }
                    // honor backpressure; scaled-down Retry-After keeps
                    // closed-loop tests from sleeping for whole seconds
                    let base = resp.retry_after.unwrap_or(1).min(2);
                    thread::sleep(Duration::from_millis(10 * base * attempt as u64));
                }
                _ => {
                    out.errors += 1;
                    break;
                }
            }
        }
    }
    Ok(out)
}

/// Aggregated stage timings from an explain sample: how a set of
/// representative queries spent their time, by stage and by plan.
#[derive(Debug, Clone, Default)]
pub struct ExplainSummary {
    /// Profiles collected.
    pub profiles: u64,
    /// Per stage name: (occurrences, total µs across the sample).
    pub stages: Vec<(String, u64, u64)>,
    /// Per plan variant: queries the planner sent there.
    pub plans: Vec<(String, u64)>,
}

impl ExplainSummary {
    /// Render the aggregate as an aligned table (what `rpq-load
    /// --explain-sample N` prints).
    pub fn table(&self) -> String {
        let mut out = format!("explain sample: {} profiles\n", self.profiles);
        out.push_str("  stage           count   total_us    mean_us\n");
        for (name, count, total) in &self.stages {
            out.push_str(&format!(
                "  {name:<14} {count:>6} {total:>10} {:>10.1}\n",
                *total as f64 / (*count).max(1) as f64
            ));
        }
        out.push_str("  plan                        queries\n");
        for (plan, count) in &self.plans {
            out.push_str(&format!("  {plan:<26} {count:>7}\n"));
        }
        out
    }
}

/// Send `n` seeded queries through `POST /v1/explain` on one connection
/// and aggregate the returned profiles per stage and per plan.
pub fn sample_explain(
    addr: &str,
    g: &Graph,
    n: usize,
    seed: u64,
) -> Result<ExplainSummary, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let pq_params = QueryParams {
        nodes: 3,
        edges: 3,
        preds: 2,
        bound: 3,
        colors: 2,
        redundant: false,
    };
    let queries: Vec<Query> = (0..n)
        .map(|k| {
            let s = seed.wrapping_add(k as u64);
            if k % 4 == 3 {
                Query::Pq(generate_pq(g, &pq_params, s))
            } else {
                Query::Rq(generate_rq(g, 2, 3, 2, s))
            }
        })
        .collect();
    let resp = client
        .explain(&queries, g)
        .map_err(|e| format!("explain request: {e}"))?;
    if resp.status != 200 {
        return Err(format!("explain answered {}: {}", resp.status, resp.body));
    }
    let mut summary = ExplainSummary::default();
    for line in resp.body.lines() {
        let profile = rpq_server::json::Json::parse(line)
            .map_err(|e| format!("profile line is not JSON ({e}): {line}"))?;
        summary.profiles += 1;
        let plan = profile
            .get("plan")
            .and_then(|p| p.as_str())
            .ok_or_else(|| format!("profile without a plan: {line}"))?
            .to_owned();
        match summary.plans.iter_mut().find(|(p, _)| *p == plan) {
            Some((_, c)) => *c += 1,
            None => summary.plans.push((plan, 1)),
        }
        let stages = profile
            .get("stages")
            .and_then(|s| s.as_array())
            .ok_or_else(|| format!("profile without stages: {line}"))?;
        for stage in stages {
            let name = stage
                .get("name")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_owned();
            let us = stage.get("us").and_then(|v| v.as_u64()).unwrap_or(0);
            match summary.stages.iter_mut().find(|(s, _, _)| *s == name) {
                Some((_, count, total)) => {
                    *count += 1;
                    *total += us;
                }
                None => summary.stages.push((name, 1, us)),
            }
        }
    }
    if summary.profiles != n as u64 {
        return Err(format!("expected {n} profiles, got {}", summary.profiles));
    }
    Ok(summary)
}

/// Scrape `/metrics` and validate it as Prometheus text exposition: the
/// samples as `(series, value)` pairs.
pub fn scrape_metrics(client: &mut Client) -> Result<Vec<(String, f64)>, String> {
    let text = client
        .metrics_prometheus()
        .map_err(|e| format!("/metrics scrape: {e}"))?;
    rpq_server::metrics::parse_prometheus_text(&text)
        .map_err(|e| format!("/metrics is not valid Prometheus exposition: {e}"))
}

/// The smoke job's observability contract: the `/metrics` body must
/// round-trip a Prometheus text parser with the core families present,
/// and every `/debug/trace` line must be valid JSON.
pub fn assert_observability(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let samples = scrape_metrics(&mut client)?;
    for family in [
        "rpq_queries_total",
        "rpq_request_latency_seconds_count",
        "rpq_uptime_seconds",
        "rpq_semcache_declined_total",
    ] {
        if rpq_server::metrics::sample(&samples, family).is_none() {
            return Err(format!("/metrics lacks the {family} series"));
        }
    }
    let trace = client
        .debug_trace()
        .map_err(|e| format!("/debug/trace fetch: {e}"))?;
    for line in trace.lines() {
        rpq_server::json::Json::parse(line)
            .map_err(|e| format!("/debug/trace line is not JSON ({e}): {line}"))?;
    }
    Ok(())
}

pub(crate) fn parse_applied(body: &str) -> Result<u64, ()> {
    rpq_server::json::Json::parse(body)
        .ok()
        .and_then(|d| d.get("applied").and_then(|v| v.as_u64()))
        .ok_or(())
}

/// Drive `cfg.connections` closed-loop connections against `addr` and
/// aggregate the outcome. `graph` must share the server's vocabulary
/// (same generator parameters or the same file).
pub fn run_load(addr: &str, graph: &Arc<Graph>, cfg: &LoadConfig) -> LoadReport {
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<Result<ConnOutcome, std::io::Error>>();
    let mut spawned = 0usize;
    for i in 0..cfg.connections {
        let tx = tx.clone();
        let addr = addr.to_owned();
        let graph = Arc::clone(graph);
        let cfg = cfg.clone();
        // modest stacks so ≥1000 generator threads stay cheap
        let handle = thread::Builder::new()
            .name(format!("rpq-load-{i}"))
            .stack_size(256 * 1024)
            .spawn(move || {
                let _ = tx.send(run_connection(&addr, &graph, &cfg, i));
            });
        if handle.is_ok() {
            spawned += 1;
        }
    }
    drop(tx);

    let mut latencies = Vec::new();
    let mut report = LoadReport {
        requests: 0,
        queries: 0,
        updates_applied: 0,
        rejected: 0,
        errors: 0,
        wall: Duration::ZERO,
        p50_us: 0,
        p99_us: 0,
        qps: 0.0,
    };
    report.errors += (cfg.connections - spawned) as u64;
    for outcome in rx {
        match outcome {
            Ok(o) => {
                report.requests += o.latencies_us.len() as u64;
                report.queries += o.queries;
                report.updates_applied += o.updates_applied;
                report.rejected += o.rejected;
                report.errors += o.errors;
                latencies.extend(o.latencies_us);
            }
            Err(_) => report.errors += 1,
        }
    }
    report.wall = started.elapsed();
    latencies.sort_unstable();
    report.p50_us = percentile(&latencies, 0.50);
    report.p99_us = percentile(&latencies, 0.99);
    report.qps = report.queries as f64 / report.wall.as_secs_f64().max(1e-9);
    report
}
