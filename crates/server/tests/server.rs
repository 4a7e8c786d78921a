//! End-to-end integration tests: a real `Server` on a loopback port,
//! driven by real `Client`s over TCP.
//!
//! The central assertion is the serving contract: answers delivered over
//! the wire are **bit-identical** to encoding an in-process `run_batch`
//! on the same snapshot — coalescing across connections, keep-alive
//! reuse, and the process boundary change nothing about the bytes.

use rpq_bench::loadgen::scrape_metrics;
use rpq_bench::querygen::{generate_pq, generate_rq, QueryParams};
use rpq_core::incremental::Update;
use rpq_engine::{EngineConfig, Query, UpdatableEngine};
use rpq_graph::{gen::youtube_like, Color, DistanceMatrix, Graph, NodeId, WILDCARD};
use rpq_server::{http, Client, Server, ServerConfig, WireResponse};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn start(config: ServerConfig) -> (Arc<UpdatableEngine>, Server, Arc<Graph>) {
    start_engine(UpdatableEngine::new(youtube_like(500, 3)), config)
}

fn start_engine(
    engine: UpdatableEngine,
    config: ServerConfig,
) -> (Arc<UpdatableEngine>, Server, Arc<Graph>) {
    let engine = Arc::new(engine);
    let graph = Arc::clone(engine.snapshot().graph());
    let server = Server::start(Arc::clone(&engine), config).expect("bind loopback");
    (engine, server, graph)
}

/// A server with a single executor role, on the search backend so that
/// [`block`] has a slow query to hold the role with.
fn start_with_one_role(config: ServerConfig) -> (Arc<UpdatableEngine>, Server, Arc<Graph>) {
    let engine = UpdatableEngine::with_config(
        youtube_like(500, 3),
        EngineConfig::builder()
            .matrix_node_limit(0)
            .hop_label_budget(0)
            .build()
            .unwrap(),
    );
    start_engine(
        engine,
        ServerConfig {
            executors: 1,
            ..config
        },
    )
}

/// Send a deliberately slow query on a connection of its own — a ring of
/// 16 `_+` edges, ≈ 0.2 s of JoinMatch on the search backend (two-core
/// box), nearly all of it assembling the 3.2 M matched pairs, so it stays
/// slow however cheap refinement over the graph gets — and return once
/// its batch holds the server's one role.
fn block(addr: SocketAddr, graph: &Arc<Graph>, probe: &mut Client) -> JoinHandle<WireResponse> {
    const RING: usize = 16;
    let nodes: String = (0..RING).map(|i| format!("node n{i}; ")).collect();
    let edges: Vec<String> = (0..RING)
        .map(|i| format!("edge n{i} -> n{}: _+", (i + 1) % RING))
        .collect();
    let slow = Query::parse_pq(&(nodes + &edges.join("; ")), graph).unwrap();
    let graph = Arc::clone(graph);
    let blocker = std::thread::spawn(move || {
        Client::connect(addr)
            .unwrap()
            .query(&[slow], &graph)
            .unwrap()
    });
    await_gauge(probe, "rpq_executors_busy", 1.0, &blocker);
    blocker
}

/// Scrape `/metrics` until `gauge` reads `value` — a state that can only
/// arise while `blocker` holds the role.
fn await_gauge(probe: &mut Client, gauge: &str, value: f64, blocker: &JoinHandle<WireResponse>) {
    while scrape(probe)(gauge) != value {
        assert!(
            !blocker.is_finished(),
            "the blocker's batch ended before {gauge} reached {value}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Scrape `/metrics` into a by-series lookup.
fn scrape(client: &mut Client) -> impl Fn(&str) -> f64 {
    let samples = scrape_metrics(client).unwrap();
    move |series| {
        rpq_server::metrics::sample(&samples, series)
            .unwrap_or_else(|| panic!("no {series} series"))
    }
}

fn mixed_queries(g: &Graph, count: usize, seed: u64) -> Vec<Query> {
    let params = QueryParams {
        nodes: 3,
        edges: 3,
        preds: 2,
        bound: 3,
        colors: 2,
        redundant: false,
    };
    (0..count)
        .map(|i| {
            if i % 3 == 2 {
                Query::Pq(generate_pq(g, &params, seed + i as u64))
            } else {
                Query::Rq(generate_rq(g, 2, 3, 2, seed + i as u64))
            }
        })
        .collect()
}

/// Multiple concurrent clients, answers bit-identical to in-process
/// evaluation on the same engine.
#[test]
fn concurrent_clients_get_bit_identical_answers() {
    rpq_trace::tracer().set_enabled(true);
    let (engine, server, graph) = start_with_one_role(ServerConfig::default());
    let addr = server.addr();
    let mut probe = Client::connect(addr).unwrap();
    let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(addr).unwrap()).collect();

    for round in 0..4 {
        // the one role is busy, so this round's three submissions queue up
        // behind it and the next batch to run takes all three: every
        // connection must still be handed exactly its own slice of it
        let blocker = block(addr, &graph, &mut probe);
        let sent: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let (graph, engine) = (Arc::clone(&graph), Arc::clone(&engine));
                std::thread::spawn(move || {
                    // a different count per client, so a slice handed to
                    // the wrong connection cannot even have the right length
                    let queries = mixed_queries(&graph, 3 + c, 1000 * c as u64 + round);
                    let resp = client.query(&queries, &graph).unwrap();
                    assert_eq!(resp.status, 200, "{}", resp.body);
                    assert_eq!(resp.version, Some(0), "no writes in this test");
                    let expected = rpq_server::wire::encode_items(
                        engine.snapshot().run_batch(&queries).items(),
                    );
                    assert_eq!(resp.body, expected, "wire answers diverged (client {c})");
                    client
                })
            })
            .collect();
        await_gauge(&mut probe, "rpq_queue_depth", 3.0, &blocker);
        assert_eq!(blocker.join().unwrap().status, 200);
        clients = sent.into_iter().map(|h| h.join().unwrap()).collect();
        // the three submissions (3 + 4 + 5 queries) ran as one batch
        let trace = probe.debug_trace().unwrap();
        assert!(
            trace
                .lines()
                .any(|l| l.contains("\"name\":\"queue-wait\"")
                    && l.contains("submissions=3 queries=12")),
            "no fully coalesced queue-wait span in:\n{trace}"
        );
    }
    server.shutdown();
}

/// More clients than executor roles, a writer publishing versions under
/// them, default config: every answer is what in-process
/// evaluation gives on the snapshot named by its `X-Rpq-Version`, batches
/// did run concurrently, and the semantic-cache counters count each RQ
/// once however the batches overlapped.
#[test]
fn overlapping_batches_answer_from_their_own_snapshot() {
    // 11 queries a request: no other test of this binary (they share the
    // process tracer) runs a batch whose size is a multiple of it
    const PER_REQUEST: usize = 11;
    const CLIENTS: u64 = 8;
    const ROUNDS: u64 = 24;
    rpq_trace::tracer().set_enabled(true);
    let (engine, server, graph) = start(ServerConfig::default());
    let addr = server.addr();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    // the one writer: after each acknowledged update the published
    // snapshot is the acknowledged version, and it keeps them all
    let writer = {
        let (engine, graph, done) = (Arc::clone(&engine), Arc::clone(&graph), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let colors: Vec<Color> = graph.alphabet().colors().collect();
            let mut snapshots = vec![engine.snapshot()];
            let mut step = 0u32;
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                step += 1;
                let (a, b) = (NodeId(step % 97), NodeId((step * 7 + 1) % 89));
                let update = Update::Insert(a, b, colors[step as usize % colors.len()]);
                let resp = client.update(&[update], &graph).unwrap();
                assert_eq!(resp.status, 200, "{}", resp.body);
                let snapshot = engine.snapshot();
                if snapshot.version() as usize == snapshots.len() {
                    snapshots.push(snapshot);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            snapshots
        })
    };

    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let graph = Arc::clone(&graph);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                (0..ROUNDS)
                    .map(|round| {
                        let queries = mixed_queries(&graph, PER_REQUEST, 100 * c + round % 6);
                        let resp = client.query(&queries, &graph).unwrap();
                        assert_eq!(resp.status, 200, "{}", resp.body);
                        (queries, resp.version.expect("X-Rpq-Version"), resp.body)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let answers: Vec<_> = clients
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    done.store(true, std::sync::atomic::Ordering::SeqCst);
    let snapshots = writer.join().unwrap();

    // read the server's own accounts before evaluating anything here
    let mut client = Client::connect(addr).unwrap();
    let get = scrape(&mut client);
    let rqs = answers
        .iter()
        .flat_map(|(queries, ..)| queries)
        .filter(|q| matches!(q, Query::Rq(_)))
        .count();
    assert_eq!(
        get("rpq_semcache_hits_total{kind=\"exact\"}")
            + get("rpq_semcache_hits_total{kind=\"subsumption\"}")
            + get("rpq_semcache_misses_total"),
        rqs as f64,
        "one lookup per RQ, each counted once"
    );
    assert_eq!(get("rpq_executors_busy"), 0.0);
    assert!(get("rpq_executors_cap") >= 1.0);
    assert_eq!(get("rpq_worker_panics_total"), 0.0);
    let trace = client.debug_trace().unwrap();

    assert!(snapshots.len() > 1, "the writer published nothing");
    for (queries, version, body) in &answers {
        let expected =
            rpq_server::wire::encode_items(snapshots[*version as usize].run_batch(queries).items());
        assert_eq!(body, &expected, "answer diverged from version {version}");
    }

    // this test's batches in the ring: `[start, end]` of each `execute`
    let field = |line: &str, key: &str| -> u64 {
        let rest = &line[line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len()..];
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        rest[..digits].parse().unwrap()
    };
    let mine = |l: &&str| l.contains("\"scope\":\"server\"") && field(l, "queries=") % 11 == 0;
    assert!(
        !trace.lines().any(|l| l.contains("submissions=0 ")),
        "an executor that found the queue empty recorded a span:\n{trace}"
    );
    let spans: Vec<(u64, u64)> = trace
        .lines()
        .filter(|l| l.contains("\"name\":\"execute\""))
        .filter(mine)
        .map(|l| {
            let (end, dur) = (field(l, "\"at_us\":"), field(l, "\"dur_us\":"));
            (end.saturating_sub(dur), end)
        })
        .collect();
    assert!(
        !spans.is_empty(),
        "no execute span of this test in:\n{trace}"
    );
    if std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2 {
        // (a span's end is stamped a few µs after the batch's: ask for
        // more overlap than that)
        let overlap = spans.iter().enumerate().any(|(i, a)| {
            spans[i + 1..]
                .iter()
                .any(|b| a.1.min(b.1).saturating_sub(a.0.max(b.0)) >= 50)
        });
        assert!(overlap, "no two execute spans overlap in:\n{trace}");
    }
    server.shutdown();
}

/// Updates round-trip: version advances, answers change, the applied
/// count is reported.
#[test]
fn updates_advance_the_snapshot_version() {
    let (engine, server, graph) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let colors: Vec<Color> = graph.alphabet().colors().collect();
    let updates = vec![
        Update::Insert(NodeId(1), NodeId(2), colors[0]),
        Update::Insert(NodeId(2), NodeId(3), colors[0]),
    ];
    let resp = client.update(&updates, &graph).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let ack = rpq_server::json::Json::parse(&resp.body).unwrap();
    assert_eq!(ack.get("version").unwrap().as_u64(), Some(1));
    assert!(ack.get("applied").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(engine.version(), 1);

    // queries now answer from the new version, still bit-identically
    let queries = mixed_queries(&graph, 4, 77);
    let resp = client.query(&queries, &graph).unwrap();
    assert_eq!(resp.version, Some(1));
    let expected = rpq_server::wire::encode_items(engine.snapshot().run_batch(&queries).items());
    assert_eq!(resp.body, expected);
    server.shutdown();
}

/// Engine and codec failures map onto HTTP statuses with line-numbered
/// messages — a bad request must never kill the connection thread.
#[test]
fn errors_map_to_statuses_not_dead_connections() {
    let (_engine, server, graph) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    // malformed query: 400 naming the body line
    let resp = client
        .request("POST", "/v1/query", "rq\t\t\tfc\nrq\t\t\tno_such_color\n")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("line 2"), "{}", resp.body);

    // unknown color in an update: 400
    let resp = client
        .request("POST", "/v1/update", "ins\t0\t1\tchartreuse\n")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("unknown edge color"), "{}", resp.body);

    // node id past the graph: 400 via EngineError::NodeOutOfRange
    let resp = client
        .update(
            &[Update::Insert(NodeId(9_999_999), NodeId(0), Color(0))],
            &graph,
        )
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("out of range"), "{}", resp.body);

    // wildcard edge data: 400 via EngineError::WildcardEdge
    let resp = client
        .update(&[Update::Insert(NodeId(0), NodeId(1), WILDCARD)], &graph)
        .unwrap();
    assert_eq!(resp.status, 400);

    // unknown endpoint & wrong method
    assert_eq!(client.request("GET", "/nope", "").unwrap().status, 404);
    assert_eq!(client.request("PUT", "/v1/query", "").unwrap().status, 405);

    // …and the same connection still answers real queries afterwards
    let queries = mixed_queries(&graph, 2, 5);
    assert_eq!(client.query(&queries, &graph).unwrap().status, 200);

    // every 4xx so far is one error and no rejection (429 is the only
    // rejection)
    let counters = |client: &mut Client| {
        let get = scrape(client);
        (get("rpq_errors_total"), get("rpq_rejected_total"))
    };
    assert_eq!(counters(&mut client), (6.0, 0.0));

    // a body that is not UTF-8: 400, and the connection keeps serving
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"POST /v1/query HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe")
        .unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let (status, _, body) = http::read_response(&mut reader).unwrap();
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    raw.write_all(b"GET /v1/schema HTTP/1.1\r\n\r\n").unwrap();
    assert_eq!(http::read_response(&mut reader).unwrap().0, 200);
    assert_eq!(counters(&mut client), (7.0, 0.0));

    // a malformed request head: 400, then the server closes the connection
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let mut reader = BufReader::new(raw);
    assert_eq!(http::read_response(&mut reader).unwrap().0, 400);
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the server closed the connection");
    assert_eq!(counters(&mut client), (8.0, 0.0));
    server.shutdown();
}

/// A body over `max_body_bytes` is refused with 413 and counted as an
/// error; the server closes that connection and keeps serving new ones.
#[test]
fn oversized_body_is_a_counted_413() {
    let (_engine, server, graph) = start(ServerConfig {
        max_body_bytes: 1024,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).unwrap();
    let resp = client
        .request("POST", "/v1/query", &"x".repeat(1025))
        .unwrap();
    assert_eq!(resp.status, 413, "{}", resp.body);

    let mut fresh = Client::connect(server.addr()).unwrap();
    assert_eq!(scrape(&mut fresh)("rpq_errors_total"), 1.0);
    let queries = mixed_queries(&graph, 1, 5);
    assert_eq!(fresh.query(&queries, &graph).unwrap().status, 200);
    server.shutdown();
}

/// A full admission queue answers 429 + `Retry-After` instead of
/// buffering without bound.
#[test]
fn full_queue_gets_backpressure() {
    let (_engine, server, graph) = start_with_one_role(ServerConfig {
        queue_capacity: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();

    // the one role is busy; the occupant takes the one queue slot behind it
    let blocker = block(addr, &graph, &mut client);
    let g1 = Arc::clone(&graph);
    let occupant = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query(&mixed_queries(&g1, 1, 1), &g1).unwrap()
    });
    await_gauge(&mut client, "rpq_queue_depth", 1.0, &blocker);

    let resp = client.query(&mixed_queries(&graph, 1, 2), &graph).unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert_eq!(resp.retry_after, Some(1), "429 must carry Retry-After");

    // the occupant is answered normally once the blocker's batch ends
    assert_eq!(blocker.join().unwrap().status, 200);
    let resp = occupant.join().unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // after the rejection, the metrics counted it
    assert_eq!(scrape(&mut client)("rpq_rejected_total"), 1.0);
    server.shutdown();
}

/// `/metrics` reports live qps/latency/queue/version/index numbers.
#[test]
fn metrics_scrape_reflects_served_traffic() {
    let (engine, server, graph) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let queries = mixed_queries(&graph, 6, 9);
    for _ in 0..3 {
        assert_eq!(client.query(&queries, &graph).unwrap().status, 200);
    }
    client
        .update(&[Update::Insert(NodeId(0), NodeId(1), Color(0))], &graph)
        .unwrap();

    let get = scrape(&mut client);
    assert_eq!(get("rpq_queries_total"), 18.0);
    assert_eq!(get("rpq_query_requests_total"), 3.0);
    assert_eq!(get("rpq_update_requests_total"), 1.0);
    assert_eq!(get("rpq_snapshot_version"), engine.version() as f64);
    assert!(get("rpq_uptime_seconds") > 0.0, "qps has no denominator");
    // 3 query requests + 1 update request
    assert_eq!(get("rpq_request_latency_seconds_count"), 4.0);
    assert!(
        get("rpq_request_latency_seconds_sum") > 0.0,
        "latency histogram recorded nothing"
    );
    // matrix regime: no label index applies, so the update stream counts
    // neither repairs nor rebuild fallbacks
    assert_eq!(get("rpq_index_state{state=\"stale\"}"), 1.0);
    assert_eq!(get("rpq_index_repairs_total"), 0.0);
    assert_eq!(get("rpq_index_rebuilds_total"), 0.0);
    assert_eq!(get("rpq_landmarks_invalidated_total"), 0.0);
    assert!(get("rpq_index_fresh_seconds") >= 0.0);
    server.shutdown();
}

/// In the label regime, `/metrics` reports the published snapshot's index
/// state and counts update batches that repaired the index or rebuilt it
/// inside the write.
#[test]
fn metrics_report_index_maintenance() {
    let engine = Arc::new(UpdatableEngine::with_config(
        youtube_like(500, 3),
        rpq_engine::EngineConfig::builder()
            .matrix_node_limit(0) // force the label regime
            .build()
            .unwrap(),
    ));
    let graph = Arc::clone(engine.snapshot().graph());
    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // the engine was built with its labels
    assert_eq!(scrape(&mut client)("rpq_index_state{state=\"built\"}"), 1.0);
    // a one-edge write repairs them. Repeating the insert applies nothing,
    // so it maintains nothing: the counters must not move
    for _ in 0..2 {
        client
            .update(&[Update::Insert(NodeId(0), NodeId(7), Color(0))], &graph)
            .unwrap();
        let get = scrape(&mut client);
        assert_eq!(get("rpq_index_state{state=\"repaired\"}"), 1.0);
        assert_eq!(get("rpq_index_repairs_total"), 1.0);
        assert_eq!(get("rpq_index_rebuilds_total"), 0.0);
    }
    // a hub-making write invalidates too many landmarks to repair: the
    // labels are rebuilt inside the write
    let hub: Vec<Update> = (100..300)
        .map(|v| Update::Insert(NodeId(1), NodeId(v), Color(0)))
        .collect();
    client.update(&hub, &graph).unwrap();
    let get = scrape(&mut client);
    assert_eq!(get("rpq_index_state{state=\"built\"}"), 1.0);
    assert_eq!(get("rpq_index_rebuilds_total"), 1.0);
    assert_eq!(get("rpq_index_repairs_total"), 1.0);
    server.shutdown();
}

/// The `index_bytes` gauge reads the one index each engine was built with:
/// the matrix in the matrix regime, the labels in the sharded regime.
#[test]
fn metrics_index_gauge_covers_every_index_without_building() {
    let (engine, server, graph) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let gauge = |client: &mut Client| scrape(client)("rpq_index_bytes") as u64;
    let matrix = DistanceMatrix::bytes_for(&graph) as u64;
    assert!(engine.snapshot().engine().matrix().is_some());
    assert_eq!(gauge(&mut client), matrix, "built with the engine");
    let queries = mixed_queries(&graph, 3, 5);
    assert_eq!(client.query(&queries, &graph).unwrap().status, 200);
    assert_eq!(gauge(&mut client), matrix, "queries build nothing");
    server.shutdown();

    let engine = Arc::new(UpdatableEngine::with_config(
        youtube_like(500, 3),
        rpq_engine::EngineConfig::builder()
            .matrix_node_limit(0)
            .hop_label_budget(0)
            .shards(2)
            .build()
            .unwrap(),
    ));
    let snapshot = engine.snapshot();
    let labels = snapshot.engine().sharded().expect("unbudgeted build");
    let bytes = labels.stats().total_bytes() as u64;
    let server = Server::start(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(bytes > 0);
    assert_eq!(gauge(&mut client), bytes);
    server.shutdown();
}

/// `/v1/schema` hands a client the vocabulary it needs to build queries.
#[test]
fn schema_endpoint_describes_the_vocabulary() {
    let (_engine, server, graph) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();
    let schema = client.schema().unwrap();
    assert_eq!(schema.get("protocol").unwrap().as_u64(), Some(1));
    assert_eq!(
        schema.get("nodes").unwrap().as_u64(),
        Some(graph.node_count() as u64)
    );
    let colors = schema.get("colors").unwrap().as_array().unwrap();
    assert_eq!(colors.len(), graph.alphabet().len());
    server.shutdown();
}

/// Graceful shutdown: in-flight work completes, then the port closes.
#[test]
fn shutdown_drains_and_closes_the_port() {
    let (_engine, server, graph) = start(ServerConfig::default());
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client
            .query(&mixed_queries(&graph, 2, 3), &graph)
            .unwrap()
            .status,
        200
    );

    server.shutdown();
    // the listener is gone: a fresh connection must fail
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "port still accepting after shutdown"
    );
}

/// The wire shutdown endpoint unblocks `Server::wait`.
#[test]
fn wire_shutdown_unblocks_wait() {
    let (_engine, server, _graph) = start(ServerConfig::default());
    let addr = server.addr();
    let waited = std::thread::spawn(move || server.wait());

    let mut client = Client::connect(addr).unwrap();
    let resp = client.shutdown_server().unwrap();
    assert_eq!(resp.status, 200);
    waited
        .join()
        .expect("wait() must return after wire shutdown");
}

/// `POST /v1/explain` returns one well-formed profile JSON object per
/// query line, without disturbing the query path's answers.
#[test]
fn explain_endpoint_profiles_every_query() {
    let (_engine, server, graph) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    let queries = mixed_queries(&graph, 5, 17);
    let resp = client.explain(&queries, &graph).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let lines: Vec<&str> = resp.body.lines().collect();
    assert_eq!(lines.len(), queries.len(), "one profile per query");
    for line in &lines {
        let profile = rpq_server::json::Json::parse(line).expect("profile line is JSON");
        assert!(profile.get("plan").unwrap().as_str().is_some());
        assert!(!profile
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        assert!(profile.get("wall_us").unwrap().as_u64().is_some());
    }
    // explained traffic counts as served queries, and each RQ's memo
    // lookup reaches the semantic-cache counters
    let rqs = queries.iter().filter(|q| matches!(q, Query::Rq(_))).count() as f64;
    let get = scrape(&mut client);
    assert_eq!(get("rpq_queries_total"), 5.0);
    let exact = get("rpq_semcache_hits_total{kind=\"exact\"}");
    let lookups = exact
        + get("rpq_semcache_hits_total{kind=\"subsumption\"}")
        + get("rpq_semcache_misses_total");
    assert_eq!(lookups, rqs);
    // explaining them again is answered from the memo
    assert_eq!(client.explain(&queries, &graph).unwrap().status, 200);
    let get = scrape(&mut client);
    assert_eq!(get("rpq_semcache_hits_total{kind=\"exact\"}"), exact + rqs);
    server.shutdown();
}

/// `/metrics` is Prometheus text exposition (which must round-trip the
/// crate's own parser); `/debug/trace` yields JSON lines once tracing is
/// on.
#[test]
fn prometheus_exposition_and_trace_ring_round_trip() {
    rpq_trace::tracer().set_enabled(true);
    let (_engine, server, graph) = start(ServerConfig::default());
    let mut client = Client::connect(server.addr()).unwrap();

    assert_eq!(
        client
            .query(&mixed_queries(&graph, 4, 23), &graph)
            .unwrap()
            .status,
        200
    );

    let text = client.metrics_prometheus().unwrap();
    let samples =
        rpq_server::metrics::parse_prometheus_text(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    let get = |series: &str| {
        rpq_server::metrics::sample(&samples, series)
            .unwrap_or_else(|| panic!("missing {series} in:\n{text}"))
    };
    assert_eq!(get("rpq_queries_total"), 4.0);
    assert_eq!(get("rpq_request_latency_seconds_count"), 1.0);
    assert!(get("rpq_uptime_seconds") > 0.0);
    // the batch recorded per-plan evaluation latency
    assert!(
        samples
            .iter()
            .any(|(s, _)| s.starts_with("rpq_plan_latency_seconds{plan=")),
        "no per-plan summary in:\n{text}"
    );

    // the trace ring captured server spans; every line is valid JSON
    let trace = client.debug_trace().unwrap();
    assert!(!trace.is_empty(), "tracing enabled but ring is empty");
    for line in trace.lines() {
        rpq_server::json::Json::parse(line).expect("trace line is JSON");
    }
    assert!(
        trace.lines().any(|l| l.contains("\"scope\":\"server\"")),
        "no server-scope span in:\n{trace}"
    );
    // the connection thread records its encode span before it replies, so
    // a client that has its answer finds it — with the body size it read
    let body_len = client
        .query(&mixed_queries(&graph, 4, 23), &graph)
        .unwrap()
        .body
        .len();
    let trace = client.debug_trace().unwrap();
    assert!(
        trace.lines().any(|l| l.contains("\"name\":\"serialize\"")
            && l.contains(&format!("queries=4 bytes={body_len}"))),
        "no serialize span for the {body_len}-byte answer in:\n{trace}"
    );
    server.shutdown();
}
