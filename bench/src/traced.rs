//! The traced pass (`--trace 1`): where a request's time goes, layer by
//! layer, measured from outside — by timing calls into each crate's
//! public functions with `rpq_trace::tracer()` enabled. No crate is
//! instrumented for it.
//!
//! Two identical systems are set up one after the other and fed the same
//! fixed prefix of the request stream from the same starting state:
//!
//! * on the first the ledger performs the request path *itself*, in
//!   process and single-threaded — `http::read_request` →
//!   `wire::parse_*_body` → `plan_query` → `run_batch` / `apply` →
//!   `wire::encode_items` — each call inside a ledger-side span
//!   (the **replay**);
//! * on the second the same requests go **over the wire** on one
//!   connection, which gives the round trip and the server's own ring
//!   spans; request by request, round trip minus the replay's child spans
//!   is what sockets, admission queue, coalescer hand-off and client
//!   decode cost (`server.residual_ms`).
//!
//! Then, on the second system: tracer on/off overhead blocks, a write
//! block, the answer check; and last the leaf microbenches. Everything
//! marked *exact* comes from the fixed single-threaded parts and repeats
//! exactly for a seed.

use crate::inputs::{Kind, Request};
use crate::load::send;
use crate::micro;
use crate::report::RunReport;
use crate::spans::SpanLog;
use crate::stats::{mean, median, Outcome};
use crate::sut::{check_answers, is_fallback, Sut};
use rpq_core::incremental::Update;
use rpq_engine::IndexState;
use rpq_server::{http, wire, Client};
use std::io::BufReader;
use std::time::{Duration, Instant};

/// Where each part of a run reads the request stream.
pub const CHECK_BEFORE: u64 = 0;
pub const CHECK_AFTER: u64 = 64;
const PREFIX_FROM: u64 = 128;
const PROFILE_FROM: u64 = 512;
const OVERHEAD_FROM: u64 = 1024;
/// Read requests per overhead block, write batches per write block, read
/// requests whose queries are profiled.
const OVERHEAD_BLOCK: usize = 24;
const WRITE_BLOCK: u64 = 8;
const PROFILED_REQUESTS: u64 = 8;
/// Largest request body the replay accepts, as `ServerConfig::default()`.
const MAX_BODY: usize = 8 << 20;

/// Requests in the prefix both systems are fed.
fn prefix_len(kind: Kind, smoke: bool) -> u64 {
    match (kind, smoke) {
        (_, true) => 32,
        (Kind::HopZipf, false) => 256,
        (_, false) => 96,
    }
}

/// The bytes `rpq_server::Client` puts on the wire for `request`.
fn http_bytes(request: &Request) -> Vec<u8> {
    let body = request.body();
    let mut bytes = format!(
        "POST {} HTTP/1.1\r\nHost: rpq\r\nContent-Length: {}\r\n\r\n",
        request.path(),
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

fn per(total: u64, of: u64) -> f64 {
    total as f64 / of.max(1) as f64
}

fn med(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

/// What the in-process applies saw, wherever they ran.
#[derive(Default)]
struct Applies {
    ms: Vec<f64>,
    repaired: u64,
    landmarks: u64,
    shards: u64,
}

impl Applies {
    fn apply(&mut self, sut: &Sut, updates: &[Update]) -> Result<(), String> {
        let t = Instant::now();
        let report = sut
            .engine
            .apply(updates)
            .map_err(|e| format!("apply: {e}"))?;
        self.ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.repaired += u64::from(report.index.state == IndexState::Repaired);
        self.landmarks += report.index.landmarks_invalidated as u64;
        self.shards += report.index.shards_touched as u64;
        Ok(())
    }

    fn report(&self, report: &mut RunReport) {
        let batches = self.ms.len() as u64;
        report.timing("engine.apply_ms", med(&self.ms), self.ms.len());
        for (name, total) in [
            ("engine.index_repaired_share", self.repaired),
            ("engine.landmarks_invalidated", self.landmarks),
            ("engine.shards_touched", self.shards),
        ] {
            report.count(name, per(total, batches), batches as usize);
        }
    }
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    smoke: bool,
    trace_out: Option<&str>,
) -> Result<RunReport, String> {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut report = RunReport {
        workload: kind.name().to_owned(),
        trace: true,
        correct: true,
        ..RunReport::default()
    };
    let tracer = rpq_trace::tracer();
    let n = prefix_len(kind, smoke);
    let mut log = SpanLog::new();
    let mut applies = Applies::default();

    // first system: the replay
    let sut = Sut::start(kind, seed, smoke)?;
    report.timing("graph.gen_s", sut.gen_s, 1);
    let (mut checked, mut wrong) = check_answers(&sut, CHECK_BEFORE)?;
    tracer.set_enabled(true);
    let explained_ms = replay(&sut, n, &mut log, &mut applies, &mut report)?;
    profile_stages(&sut, &mut report);
    tracer.set_enabled(false);
    sut.stop();

    // second system: the same prefix over the wire
    let sut = Sut::start(kind, seed, smoke)?;
    let (c, w) = check_answers(&sut, CHECK_BEFORE)?;
    checked += c;
    wrong += w;
    tracer.set_enabled(true);
    let mut client = sut.connect()?;
    let mut outcome = wire_pass(&sut, &mut client, n, &explained_ms, &mut report);
    outcome.merge(overhead_blocks(
        &sut,
        &mut client,
        budget.mul_f64(0.25),
        &mut report,
    ));

    // write block: in-process applies, then the same over the wire
    for index in 0..WRITE_BLOCK {
        if let Request::Write { updates, .. } = sut.inputs.write_request(index) {
            applies.apply(&sut, &updates)?;
        }
    }
    applies.report(&mut report);
    let mut writes = Outcome::default();
    for index in WRITE_BLOCK..2 * WRITE_BLOCK {
        send(&mut client, &sut.inputs.write_request(index), &mut writes);
    }
    report.timing(
        "server.write_roundtrip_ms",
        med(&writes.write_ms),
        writes.write_ms.len(),
    );
    outcome.merge(writes);
    report.count(
        "server.rejected_429",
        outcome.rejected_429 as f64,
        outcome.attempted as usize,
    );
    tracer.set_enabled(false);

    let (c, w) = check_answers(&sut, CHECK_AFTER)?;
    checked += c;
    wrong += w;
    if seed == 1 && !smoke {
        check_character(kind, &mut report);
    }
    report.attempted = outcome.attempted + checked;
    report.failed = outcome.failed + wrong;
    if wrong > 0 {
        report.problem(format!("{wrong} of {checked} sampled answers were wrong"));
    }
    if outcome.failed > 0 {
        report.problem(format!("{} requests failed", outcome.failed));
    }
    let inputs = sut.stop();

    // leaf microbenches, in what is left of the budget
    micro::run(
        &inputs,
        budget.saturating_sub(started.elapsed()),
        &mut report,
    );

    if let Some(path) = trace_out {
        std::fs::write(path, log.to_ndjson()).map_err(|e| format!("{path}: {e}"))?;
    }
    if log.spans().iter().any(|s| log.self_ns(s.id).is_none()) {
        report.problem("a span's children outlast it".into());
    }
    Ok(report)
}

/// The ledger performs the request path itself, one request at a time,
/// every call into a layer inside a span. Returns, per request of the
/// prefix, the time its child spans explain (ms).
fn replay(
    sut: &Sut,
    n: u64,
    log: &mut SpanLog,
    applies: &mut Applies,
    report: &mut RunReport,
) -> Result<Vec<f64>, String> {
    let (mut pairs, mut queries_run, mut response_bytes, mut reads) = (0u64, 0u64, 0u64, 0u64);
    let (mut exact, mut subsumed, mut missed) = (0u64, 0u64, 0u64);
    let mut explained_ms = Vec::with_capacity(n as usize);
    for index in PREFIX_FROM..PREFIX_FROM + n {
        let request = sut.inputs.request(index);
        let bytes = http_bytes(&request);
        let root = log.open(None, index, "ledger", "request");
        let parsed = log
            .time(root, "server", "http_parse", || {
                http::read_request(&mut BufReader::new(&bytes[..]), MAX_BODY)
            })
            .ok()
            .flatten()
            .ok_or("replay: the request did not parse as HTTP")?;
        let body = parsed.body_str().ok_or("replay: body is not utf-8")?;
        let snapshot = sut.engine.snapshot();
        if request.is_write() {
            let updates = log
                .time(root, "server", "wire_parse", || {
                    wire::parse_update_body(body, snapshot.graph())
                })
                .map_err(|e| format!("replay: {e}"))?;
            log.time(root, "engine", "apply", || applies.apply(sut, &updates))?;
        } else {
            let queries = log
                .time(root, "server", "wire_parse", || {
                    wire::parse_query_body(body, snapshot.graph())
                })
                .map_err(|e| format!("replay: {e}"))?;
            let plans = log.time(root, "engine", "plan", || {
                queries
                    .iter()
                    .map(|q| snapshot.plan_query(q).name())
                    .collect::<Vec<_>>()
            });
            for plan in plans {
                *report.plans.entry(plan.to_owned()).or_insert(0) += 1;
            }
            let before = snapshot.semantic_stats();
            let result = log.time(root, "engine", "run_batch", || snapshot.run_batch(&queries));
            let after = snapshot.semantic_stats();
            exact += after.exact_hits - before.exact_hits;
            subsumed += after.subsumption_hits - before.subsumption_hits;
            missed += after.misses - before.misses;
            let encoded = log.time(root, "server", "wire_encode", || {
                wire::encode_items(result.items())
            });
            pairs += result
                .outputs()
                .map(|o| o.match_count() as u64)
                .sum::<u64>();
            queries_run += queries.len() as u64;
            response_bytes += encoded.len() as u64;
            reads += 1;
        }
        log.close(root);
        let covered: u64 = log.children(root).map(|s| s.dur_ns()).sum();
        explained_ms.push(covered as f64 / 1e6);
    }

    for (name, layer, span, ns_per_unit) in [
        ("server.http_parse_us", "server", "http_parse", 1e3),
        ("server.wire_parse_us", "server", "wire_parse", 1e3),
        ("server.wire_encode_us", "server", "wire_encode", 1e3),
        ("engine.plan_us", "engine", "plan", 1e3),
        ("engine.run_batch_ms", "engine", "run_batch", 1e6),
    ] {
        let ns = log.durations(layer, span);
        report.timing(name, med(&ns) / ns_per_unit, ns.len());
    }
    report.count(
        "core.pairs_per_query",
        per(pairs, queries_run),
        queries_run as usize,
    );
    report.count(
        "server.response_kb",
        per(response_bytes, reads) / 1024.0,
        reads as usize,
    );
    // not exact: batch workers race on keys that repeat inside one batch,
    // so a lookup or two flips between hit and miss from run to run
    let lookups = exact + subsumed + missed;
    for (name, hits) in [
        ("engine.memo_exact_rate", exact),
        ("engine.memo_subsumption_rate", subsumed),
        ("engine.memo_miss_rate", missed),
    ] {
        report.timing(name, per(hits, lookups), lookups as usize);
    }
    let planned: u64 = report.plans.values().sum();
    let fallback: u64 = report
        .plans
        .iter()
        .filter(|(plan, _)| is_fallback(plan))
        .map(|(_, count)| *count)
        .sum();
    report.count(
        "engine.indexed_plan_share",
        per(planned - fallback, planned),
        planned as usize,
    );
    report.count(
        "engine.fallback_plan_share",
        per(fallback, planned),
        planned as usize,
    );
    Ok(explained_ms)
}

/// The engine's own stage breakdown (`run_query_profiled`), on queries
/// past the prefix.
fn profile_stages(sut: &Sut, report: &mut RunReport) {
    let (mut plan_us, mut prepare_us, mut eval_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut probes, mut profiled) = (0u64, 0u64);
    for index in PROFILE_FROM..PROFILE_FROM + PROFILED_REQUESTS {
        let Request::Read { queries, .. } = sut.inputs.request(index) else {
            continue;
        };
        let snapshot = sut.engine.snapshot();
        for q in &queries {
            let (_, profile) = snapshot.run_query_profiled(q);
            for stage in &profile.stages {
                let us = stage.duration.as_secs_f64() * 1e6;
                match stage.name {
                    "plan" => plan_us.push(us),
                    "prepare" => prepare_us.push(us),
                    "eval" => eval_us.push(us),
                    _ => {}
                }
            }
            probes += profile.probes;
            profiled += 1;
        }
    }
    for (name, samples) in [
        ("engine.stage.plan_us", &plan_us),
        ("engine.stage.prepare_us", &prepare_us),
        ("engine.stage.eval_us", &eval_us),
    ] {
        report.timing(name, mean(samples).unwrap_or(f64::NAN), samples.len());
    }
    report.count(
        "engine.probes_per_query",
        per(probes, profiled),
        profiled as usize,
    );
}

/// The prefix over the wire, one connection, tracer on. `explained_ms[i]`
/// is what the replay's child spans explained of request `i`.
fn wire_pass(
    sut: &Sut,
    client: &mut Client,
    n: u64,
    explained_ms: &[f64],
    report: &mut RunReport,
) -> Outcome {
    let mut total = Outcome::default();
    let mut ring = RingReader::new();
    let (mut roundtrip_ms, mut residual_ms) = (Vec::new(), Vec::new());
    for (i, index) in (PREFIX_FROM..PREFIX_FROM + n).enumerate() {
        let request = sut.inputs.request(index);
        let mut one = Outcome::default();
        send(client, &request, &mut one);
        if let (false, [ms]) = (request.is_write(), one.read_ms.as_slice()) {
            roundtrip_ms.push(*ms);
            residual_ms.push(ms - explained_ms[i]);
        }
        total.merge(one);
        if i % 32 == 31 {
            ring.drain();
        }
    }
    ring.drain();
    report.timing(
        "server.roundtrip_ms",
        med(&roundtrip_ms),
        roundtrip_ms.len(),
    );
    report.timing("server.residual_ms", med(&residual_ms), residual_ms.len());
    // means, not medians: the ring stores whole microseconds
    for (name, samples) in [
        ("server.queue_wait_us", &ring.queue_wait_us),
        ("server.execute_us", &ring.execute_us),
        ("server.serialize_us", &ring.serialize_us),
        ("server.coalesced_per_batch", &ring.submissions),
    ] {
        report.timing(name, mean(samples).unwrap_or(f64::NAN), samples.len());
    }
    let latency = &sut.server.metrics().latency;
    report.timing(
        "server.side_p50_ms",
        latency.quantile(0.5) as f64 / 1e3,
        latency.count() as usize,
    );
    total
}

/// Tracer on/off overhead: one block of reads, replayed under alternating
/// tracer state (the order alternates too), p50 per arm — bounds what the
/// traced numbers are worth. Leaves the tracer on.
fn overhead_blocks(
    sut: &Sut,
    client: &mut Client,
    slice: Duration,
    report: &mut RunReport,
) -> Outcome {
    let tracer = rpq_trace::tracer();
    let block: Vec<Request> = (OVERHEAD_FROM..)
        .map(|i| sut.inputs.request(i))
        .filter(|r| !r.is_write())
        .take(OVERHEAD_BLOCK)
        .collect();
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    let mut total = Outcome::default();
    let started = Instant::now();
    let mut round = 0;
    while round < 3 || (started.elapsed() < slice && round < 64) {
        for arm in [round % 2 == 0, round % 2 != 0] {
            tracer.set_enabled(arm);
            let mut one = Outcome::default();
            for request in &block {
                send(client, request, &mut one);
            }
            // the first round only warms the block's cache footprint
            if round > 0 {
                if arm { &mut on_ms } else { &mut off_ms }.extend_from_slice(&one.read_ms);
            }
            one.read_ms.clear();
            total.merge(one);
        }
        round += 1;
    }
    tracer.set_enabled(true);
    report.timing(
        "trace.overhead_pct",
        (med(&on_ms) / med(&off_ms) - 1.0) * 100.0,
        on_ms.len(),
    );
    total
}

/// The workloads stress what they were chosen for — asserted on the
/// guarded (seed 1, full size) run, where the inputs are known.
fn check_character(kind: Kind, report: &mut RunReport) {
    let value = |name: &str| report.get(name).map_or(f64::NAN, |m| m.value);
    let has = |plan: &str| report.plans.contains_key(plan);
    let exact = value("engine.memo_exact_rate");
    let indexed = value("engine.indexed_plan_share");
    let demands: &[(bool, &str)] = match kind {
        Kind::HopUnique => &[
            (exact <= 0.1, "memo_exact_rate > 0.1"),
            (indexed >= 0.95, "indexed_plan_share < 0.95"),
        ],
        Kind::HopZipf => &[
            (exact >= 0.8, "memo_exact_rate < 0.8"),
            (indexed >= 0.95, "indexed_plan_share < 0.95"),
        ],
        Kind::MatrixPq => &[
            (indexed >= 0.95, "indexed_plan_share < 0.95"),
            (has("SplitMatch/DM"), "SplitMatch/DM never planned"),
            (has("JoinMatch/DM"), "JoinMatch/DM never planned"),
        ],
        Kind::ShardedLive => &[
            (
                value("engine.index_repaired_share") == 1.0,
                "index_repaired_share != 1.0",
            ),
            (has("standing"), "`standing` never planned"),
        ],
    };
    let lost: Vec<&str> = demands.iter().filter(|d| !d.0).map(|d| d.1).collect();
    for what in lost {
        report.problem(format!("workload lost its character: {what}"));
    }
}

/// Reads the server's own spans back from the `rpq_trace` ring through
/// the public `tracer().recent()`, often enough that it never wraps
/// (4096 slots; a wire request records a handful of events).
struct RingReader {
    next_seq: u64,
    queue_wait_us: Vec<f64>,
    execute_us: Vec<f64>,
    serialize_us: Vec<f64>,
    submissions: Vec<f64>,
}

impl RingReader {
    fn new() -> RingReader {
        let next_seq = rpq_trace::tracer().recent().last().map_or(0, |e| e.seq + 1);
        RingReader {
            next_seq,
            queue_wait_us: Vec::new(),
            execute_us: Vec::new(),
            serialize_us: Vec::new(),
            submissions: Vec::new(),
        }
    }

    fn drain(&mut self) {
        let events = rpq_trace::tracer().recent();
        for event in &events {
            if event.seq < self.next_seq || event.scope != "server" {
                continue;
            }
            let us = event.dur_us as f64;
            match event.name.as_str() {
                "queue-wait" => {
                    self.queue_wait_us.push(us);
                    let n = event
                        .detail
                        .split_whitespace()
                        .find_map(|kv| kv.strip_prefix("submissions="))
                        .and_then(|v| v.parse::<f64>().ok());
                    self.submissions.extend(n);
                }
                "execute" => self.execute_us.push(us),
                "serialize" => self.serialize_us.push(us),
                _ => {}
            }
        }
        if let Some(last) = events.last() {
            self.next_seq = last.seq + 1;
        }
    }
}
