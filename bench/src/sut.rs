//! The system under test: an in-process `rpq_server::Server` over an
//! `UpdatableEngine`, reached through real loopback sockets.
//!
//! Index readiness is observed only through
//! `QueryService::plan_query(q).name()` — one kick query, then poll — so
//! the ledger keeps working when the index lifecycles are refactored.

use crate::inputs::{selective_pq, Inputs, Kind, Request};
use rpq_bench::querygen::generate_rq;
use rpq_engine::{BatchItem, Plan, Query, QueryOutput, QueryService, UpdatableEngine};
use rpq_graph::Graph;
use rpq_server::json::Json;
use rpq_server::{wire, Client, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Plans that mean "no index backs this query yet".
const FALLBACK_PLANS: [&str; 4] = ["biBFS", "BFS+memo", "JoinMatch/cache", "SplitMatch/cache"];
const INDEX_TIMEOUT: Duration = Duration::from_secs(150);

pub fn is_fallback(plan: &str) -> bool {
    FALLBACK_PLANS.contains(&plan)
}

pub struct Sut {
    pub inputs: Inputs,
    pub engine: Arc<UpdatableEngine>,
    pub server: Server,
    /// Graph generation alone, seconds (a part of `setup_s`).
    pub gen_s: f64,
    /// The whole timed set-up, seconds.
    pub setup_s: f64,
}

impl Sut {
    /// Timed set-up: graph generation + engine construction + kick/poll
    /// until index-backed plans are chosen + server bind + first wire
    /// answer.
    pub fn start(kind: Kind, seed: u64, smoke: bool) -> Result<Sut, String> {
        let t0 = Instant::now();
        let graph = Arc::new(kind.graph(smoke));
        let gen_s = t0.elapsed().as_secs_f64();
        // pool and edge-list construction is ledger bookkeeping, not
        // system set-up: it runs off the clock
        let inputs = Inputs::over(kind, seed, graph);
        let t1 = Instant::now();
        let engine = Arc::new(UpdatableEngine::with_config(
            (*inputs.graph).clone(),
            kind.config(smoke),
        ));
        if let Some(pq) = &inputs.standing {
            engine.register_pq(pq.clone());
        }
        // one kick query starts whatever index build the regime calls for
        // (a background label build, or the matrix on the spot) ...
        let kicks = kick_queries(&inputs);
        engine.run_query(&kicks[0]);
        // ... then poll until an RQ and a PQ both plan index-backed
        let deadline = Instant::now() + INDEX_TIMEOUT;
        while kicks
            .iter()
            .any(|q| is_fallback(engine.plan_query(q).name()))
        {
            if Instant::now() > deadline {
                return Err(format!(
                    "{}: no index-backed plan after {INDEX_TIMEOUT:?}",
                    kind.name()
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let server = Server::start(Arc::clone(&engine), ServerConfig::default())
            .map_err(|e| format!("server bind: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let first = client
            .query(&kicks[..1], &inputs.graph)
            .map_err(|e| format!("first wire request: {e}"))?;
        if !first.is_ok() {
            return Err(format!("first wire request answered {}", first.status));
        }
        let setup_s = gen_s + t1.elapsed().as_secs_f64();
        Ok(Sut {
            inputs,
            engine,
            server,
            gen_s,
            setup_s,
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.server.addr()).map_err(|e| format!("connect: {e}"))
    }

    /// Stop the server, wait for its threads, hand the inputs back.
    pub fn stop(self) -> Inputs {
        self.server.shutdown();
        self.inputs
    }
}

/// One RQ and one PQ whose plans tell whether the index is up; the RQ is
/// also the kick and the first wire request. Fixed per workload, so
/// set-up does the same work whatever the traffic seed. The PQ is never
/// the registered standing one (that plans `standing` regardless).
fn kick_queries(inputs: &Inputs) -> Vec<Query> {
    const KICK_SEED: u64 = 0x6b69_636b;
    let g = &inputs.graph;
    vec![
        Query::Rq(generate_rq(g, 2, 3, 2, KICK_SEED)),
        Query::Pq(selective_pq(g, KICK_SEED)),
    ]
}

/// Quiesced answer check: sampled wire answers against the paper's naive
/// semantics (`Rq::eval_bfs`, `Pq::eval_naive`) on the engine's current
/// graph. Returns `(checked, wrong)`. Samples come from the request
/// stream starting at `from`; at least 16 RQs and 4 small PQs are checked
/// where the workload has them.
pub fn check_answers(sut: &Sut, from: u64) -> Result<(u64, u64), String> {
    let graph: Arc<Graph> = Arc::clone(sut.engine.snapshot().graph());
    let mut client = sut.connect()?;
    let (mut rqs, mut pqs, mut wrong) = (0u64, 0u64, 0u64);
    for index in from..from + 64 {
        if rqs >= 16 && pqs >= 4 {
            break;
        }
        let Request::Read { queries, .. } = sut.inputs.request(index) else {
            continue;
        };
        // naive PQ evaluation is quadratic in the candidate sets: check
        // the small patterns only
        let sample: Vec<Query> = queries
            .into_iter()
            .filter(|q| match q {
                Query::Rq(_) => rqs < 16,
                Query::Pq(pq) => pqs < 4 && pq.size() <= 6,
            })
            .collect();
        if sample.is_empty() {
            continue;
        }
        let resp = client
            .query(&sample, &graph)
            .map_err(|e| format!("answer check request: {e}"))?;
        if !resp.is_ok() {
            return Err(format!("answer check answered {}", resp.status));
        }
        let lines: Vec<&str> = resp.lines().collect();
        if lines.len() != sample.len() {
            return Err("answer check: one answer line per query expected".into());
        }
        for (q, line) in sample.iter().zip(lines) {
            let plan = sut.engine.plan_query(q);
            let expect = match q {
                Query::Rq(rq) => {
                    rqs += 1;
                    QueryOutput::Rq(rq.eval_bfs(&graph))
                }
                Query::Pq(pq) => {
                    pqs += 1;
                    QueryOutput::Pq(Arc::new(pq.eval_naive(&graph)))
                }
            };
            if !same_answer(line, expect, plan)? {
                wrong += 1;
                eprintln!("wrong answer for request {index}: {line:.200}");
            }
        }
    }
    Ok((rqs + pqs, wrong))
}

/// Does a wire answer line carry exactly `expect`? Compared as the
/// canonical wire encoding of the reference output, field by field — the
/// `plan` field is the only one allowed to differ.
fn same_answer(line: &str, expect: QueryOutput, plan: Plan) -> Result<bool, String> {
    let reference = wire::encode_item(&BatchItem {
        output: expect,
        plan,
        time: Duration::ZERO,
        profile: None,
    });
    let got = Json::parse(line).map_err(|e| format!("answer line: {e}"))?;
    let want = Json::parse(&reference).map_err(|e| format!("reference line: {e}"))?;
    Ok(["kind", "pairs", "nodes", "edges"]
        .iter()
        .all(|field| got.get(field) == want.get(field)))
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
