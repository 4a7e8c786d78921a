//! The threaded serving core: listener, connection threads, a bounded
//! admission queue, and an executor role — held by one connection thread
//! at a time — that feeds coalesced client batches into the
//! scatter-gather engine.
//!
//! ## Threading model
//!
//! * **accept thread** — owns the [`TcpListener`]; spawns one small-stack
//!   thread per connection. Stops on shutdown.
//! * **connection threads** — parse HTTP requests, run the wire codec in
//!   both directions, and *submit* query batches to the admission queue.
//!   Each encodes its own answer (`serialize` span, recorded before the
//!   reply goes out) and writes head and body in one vectored write, so
//!   encoding one response overlaps evaluating the next. Updates go
//!   straight to [`UpdatableEngine::apply`] (the engine serializes
//!   writers internally), gated by a concurrent-writer cap.
//! * **the executor role** ([`Executing`]) — there is no executor
//!   thread. A submission admitted into an idle queue takes the role on
//!   its own connection thread: it drains the queue, concatenates the
//!   pending submissions into one batch, runs it against one snapshot
//!   (`queue-wait` and `execute` spans), hands each submission the shared
//!   result plus the range of items that is its own, and passes the role
//!   to the oldest submission that queued up meanwhile. So batches still
//!   run one at a time, each on a single snapshot, but a request that
//!   finds the server idle is parsed, evaluated, encoded and written by
//!   one thread: it waits for no other thread to wake, and nothing waits
//!   for it. (With a dedicated coalescer thread every request paid two
//!   cross-thread wake-ups, and on the ledger's two-core box their cost
//!   — not evaluation — set `hop_zipf`'s throughput and made it differ
//!   by ±8 % from one run to the next.) Coalescing amortizes the
//!   per-batch costs (one snapshot pin, one planning pass) across
//!   connections; reach-set memoization does not depend on it — the memo
//!   lives as long as the graph version and is shared by every batch on
//!   the snapshot, coalesced or not. (Running several batches at once —
//!   the executor pool — is ROADMAP item 1's open half.)
//!
//! ## Admission control
//!
//! The queue is bounded ([`ServerConfig::queue_capacity`]). A submission
//! that finds it full is refused immediately with **429** and a
//! `Retry-After` header — backpressure instead of unbounded buffering.
//! [`ServerConfig::coalesce_window`] optionally holds the executor for a
//! beat after work arrives so concurrent clients land in one engine
//! batch; it is also what makes backpressure deterministic to test.

use crate::http::{read_request, HttpError, Request, Response};
use crate::metrics::Metrics;
use crate::wire;
use rpq_engine::{BatchResult, Query, UpdatableEngine};
use rpq_graph::AttrId;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Admission-queue capacity in *requests*; a full queue answers 429.
    pub queue_capacity: usize,
    /// Max submissions coalesced into one engine batch.
    pub coalesce_max: usize,
    /// How long the executor waits after work arrives before draining,
    /// letting concurrent submissions pile into one batch. Zero (the
    /// default) serves lowest-latency; a few ms trades latency for
    /// fewer, larger engine batches.
    pub coalesce_window: Duration,
    /// Concurrent update requests admitted before writers get 429.
    pub max_pending_updates: usize,
    /// Per-connection read timeout (bounds idle keep-alives).
    pub read_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            queue_capacity: 128,
            coalesce_max: 64,
            coalesce_window: Duration::ZERO,
            max_pending_updates: 32,
            read_timeout: Duration::from_secs(30),
            max_body_bytes: 8 << 20,
        }
    }
}

/// `Retry-After` seconds sent with 429 responses.
const RETRY_AFTER_SECS: u32 = 1;

/// One admitted query submission waiting to be executed.
struct Pending {
    queries: Vec<Query>,
    reply: mpsc::SyncSender<Reply>,
    /// When the connection thread pushed this submission — the executing
    /// thread derives the queue-wait trace span from the oldest one in a
    /// drain.
    submitted: Instant,
}

/// What a waiting submission is sent.
enum Reply {
    /// Its batch ran: encode your items.
    Answer(Answer),
    /// Nothing is executing and yours is the oldest submission queued:
    /// drain the queue and run the batch (see [`Executing`]).
    Lead,
}

/// The whole batch's result, shared, and which of its items are this
/// submission's. Encoding them is the connection thread's job.
struct Answer {
    result: Arc<BatchResult>,
    range: Range<usize>,
    version: u64,
}

#[derive(Default)]
struct QueueState {
    items: VecDeque<Pending>,
    closed: bool,
    /// A connection thread holds the executor role (an [`Executing`]
    /// exists). Whenever `items` is non-empty this is true: whoever
    /// pushes into an idle queue takes the role, and whoever lays it down
    /// passes it to the oldest submission still queued.
    executing: bool,
}

/// Bounded multi-producer queue whose consumer is whichever producer
/// holds the executor role.
struct WorkQueue {
    state: Mutex<QueueState>,
    capacity: usize,
}

impl WorkQueue {
    fn new(capacity: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState::default()),
            capacity,
        }
    }

    /// Admit a submission, or refuse immediately when full/closed. An
    /// admission into an idle queue comes back with the executor role.
    fn try_push(&self, p: Pending) -> Result<Option<Executing<'_>>, ()> {
        let mut s = self.state.lock().expect("queue lock");
        if s.closed || s.items.len() >= self.capacity {
            return Err(());
        }
        s.items.push_back(p);
        let idle = !std::mem::replace(&mut s.executing, true);
        Ok(idle.then(|| Executing(self)))
    }

    fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// A submission whose thread stops waiting: whatever reached `rx` is
    /// taken and `rx` closed in one step with respect to role hand-offs
    /// (which happen under the same lock), so a role passed to a thread
    /// that is giving up is handed on instead of lost.
    fn give_up(&self, rx: mpsc::Receiver<Reply>) -> Option<Answer> {
        let last = {
            let _s = self.state.lock().expect("queue lock");
            let last = rx.try_recv().ok();
            drop(rx);
            last
        };
        match last? {
            Reply::Answer(answer) => Some(answer),
            Reply::Lead => {
                drop(Executing(self));
                None
            }
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
    }
}

/// The executor role: at most one exists per queue, held by the
/// connection thread that is running a batch. Dropping it — also when a
/// batch panics — passes the role to the oldest submission still queued
/// whose thread is still waiting, or lays it down when the queue is empty.
struct Executing<'a>(&'a WorkQueue);

impl Executing<'_> {
    /// Drain up to `max` submissions, oldest first. The holder's own is
    /// the oldest one still waited for, so it is among them (unless `max`
    /// abandoned ones are ahead of it: then the role comes straight back
    /// to it). `window` holds the drain so concurrent submissions
    /// coalesce.
    fn drain(&self, max: usize, window: Duration) -> Vec<Pending> {
        if !window.is_zero() {
            thread::sleep(window);
        }
        let mut s = self.0.state.lock().expect("queue lock");
        let n = s.items.len().min(max);
        s.items.drain(..n).collect()
    }
}

impl Drop for Executing<'_> {
    fn drop(&mut self) {
        let mut s = self.0.state.lock().expect("queue lock");
        // a submission reads a `Lead` before anything else can be sent to
        // it (it is the one who sends what follows), so its one-slot
        // channel is never full here; a closed one has given up
        s.executing = s
            .items
            .iter()
            .any(|p| p.reply.try_send(Reply::Lead).is_ok());
    }
}

struct Shared {
    engine: Arc<UpdatableEngine>,
    metrics: Arc<Metrics>,
    queue: WorkQueue,
    config: ServerConfig,
    addr: SocketAddr,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
    pending_updates: AtomicUsize,
    /// Read halves of live connections, so shutdown can unblock idle
    /// keep-alive reads instead of waiting out their timeout.
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// leaves the threads running for the rest of the process.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<thread::JoinHandle<()>>,
}

/// A cheap clonable handle for signalling shutdown from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Ask the server to stop accepting and drain. Idempotent.
    pub fn shutdown(&self) {
        signal_shutdown(&self.shared);
    }
}

impl Server {
    /// Bind, spawn the accept thread, return immediately.
    pub fn start(engine: Arc<UpdatableEngine>, config: ServerConfig) -> io::Result<Server> {
        let listener =
            TcpListener::bind(config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "unresolvable addr")
            })?)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            metrics: Arc::new(Metrics::new()),
            queue: WorkQueue::new(config.queue_capacity.max(1)),
            config,
            addr,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            pending_updates: AtomicUsize::new(0),
            conn_streams: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("rpq-accept".into())
                .spawn(move || accept_loop(listener, &shared))?
        };

        Ok(Server {
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The server's metrics registry (shared with `/metrics`).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// A handle that can signal shutdown from elsewhere.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Block until the server is shut down (via [`Server::shutdown`], a
    /// [`ServerHandle`], or `POST /v1/shutdown`), then drain gracefully.
    pub fn wait(mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        drain_connections(&self.shared);
    }

    /// Graceful shutdown: stop accepting, refuse new admissions, finish
    /// in-flight requests, join the serving threads.
    pub fn shutdown(self) {
        signal_shutdown(&self.shared);
        self.wait();
    }
}

fn signal_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return; // already signalled
    }
    shared.queue.close();
    // half-close the read side of every live connection: idle keep-alive
    // reads return EOF at once, while in-flight responses still go out
    if let Ok(conns) = shared.conn_streams.lock() {
        for stream in conns.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
    // wake the blocking accept() with a throwaway connection
    let _ = TcpStream::connect(shared.addr);
}

/// Wait (bounded) for connection threads to finish their last responses.
fn drain_connections(shared: &Shared) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while shared.active_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
        shared.active_connections.fetch_add(1, Ordering::SeqCst);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let (Ok(clone), Ok(mut conns)) = (stream.try_clone(), shared.conn_streams.lock()) {
            conns.insert(conn_id, clone);
        }
        let conn_shared = Arc::clone(shared);
        // small stacks: at thousands of connections the default 8 MiB
        // per thread is the limit, not the sockets
        let spawned = thread::Builder::new()
            .name("rpq-conn".into())
            .stack_size(256 * 1024)
            .spawn(move || {
                handle_connection(stream, &conn_shared);
                if let Ok(mut conns) = conn_shared.conn_streams.lock() {
                    conns.remove(&conn_id);
                }
                conn_shared
                    .active_connections
                    .fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            if let Ok(mut conns) = shared.conn_streams.lock() {
                conns.remove(&conn_id);
            }
            shared.active_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Run one engine batch as the holder of the executor `role`: drain the
/// queue, concatenate the submissions, evaluate them against one
/// snapshot, and send each its share. The role is passed on (or laid
/// down) when this returns.
fn execute_batch(shared: &Shared, role: Executing<'_>) {
    let cfg = &shared.config;
    let tracer = rpq_trace::tracer();
    let batch = role.drain(cfg.coalesce_max.max(1), cfg.coalesce_window);
    let drained = Instant::now();
    let mut all = Vec::with_capacity(batch.iter().map(|p| p.queries.len()).sum());
    for p in &batch {
        all.extend_from_slice(&p.queries);
    }
    let snapshot = shared.engine.snapshot();
    // diff the snapshot memo's cumulative counters around the batch:
    // the memo is pinned with the snapshot Arc, so the delta is exact
    // even if a writer publishes a newer version mid-batch
    let sem0 = snapshot.semantic_stats();
    let result = Arc::new(snapshot.run_batch(&all));
    shared
        .metrics
        .record_semcache(&sem0, &snapshot.semantic_stats());
    let executed = Instant::now();
    // per-plan-variant evaluation latency (worker wall time, not
    // request time — isolates engine cost from queueing)
    for item in result.items() {
        shared
            .metrics
            .plan_histogram(item.plan.name())
            .record(item.time.as_micros() as u64);
    }
    let version = snapshot.version();
    // queue-wait and execute are recorded *before* the replies go
    // out, so a client that got its answer is guaranteed to see its
    // batch's spans in /debug/trace
    if tracer.enabled() {
        let oldest = batch.iter().map(|p| p.submitted).min().unwrap_or(drained);
        tracer.record_span(
            "server",
            "queue-wait",
            drained - oldest,
            &format!("submissions={} queries={}", batch.len(), all.len()),
        );
        tracer.record_span(
            "server",
            "execute",
            executed - drained,
            &format!("queries={} version={version}", all.len()),
        );
    }
    let mut offset = 0;
    for p in &batch {
        let range = offset..offset + p.queries.len();
        offset = range.end;
        // a receiver that gave up (timeout, dead connection) is fine
        let _ = p.reply.send(Reply::Answer(Answer {
            result: Arc::clone(&result),
            range,
            version,
        }));
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;

    loop {
        let req = match read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(Some(req)) => req,
            Ok(None) => break,              // clean EOF
            Err(HttpError::Io(_)) => break, // timeout or reset
            Err(HttpError::TooLarge) => {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let _ = Response::error(413, "request too large").write(&mut writer, false);
                break;
            }
            Err(HttpError::Malformed(msg)) => {
                shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
                let _ = Response::error(400, msg).write(&mut writer, false);
                break;
            }
        };

        let client_close = req.wants_close();
        let resp = dispatch(&req, shared);
        if resp.status >= 400 && resp.status != 429 {
            shared.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        let closing = client_close || shared.shutdown.load(Ordering::SeqCst);
        if resp.write(&mut writer, !closing).is_err() || closing {
            break;
        }
    }
    let _ = writer.flush();
}

fn dispatch(req: &Request, shared: &Shared) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/query") => handle_query(req, shared),
        ("POST", "/v1/explain") => handle_explain(req, shared),
        ("POST", "/v1/update") => handle_update(req, shared),
        ("GET", "/metrics") => handle_metrics(shared),
        ("GET", "/debug/trace") => handle_trace(),
        ("GET", "/v1/schema") => handle_schema(shared),
        ("POST", "/v1/shutdown") => {
            signal_shutdown(shared);
            Response::json(200, "{\"ok\": true}\n")
        }
        ("GET" | "POST", _) => Response::error(404, "no such endpoint"),
        _ => Response::error(405, "method not allowed"),
    }
}

fn engine_error_response(e: &rpq_engine::EngineError) -> Response {
    Response::error(wire::status_for(e), &e.to_string())
}

fn handle_query(req: &Request, shared: &Shared) -> Response {
    let Some(body) = req.body_str() else {
        return Response::error(400, "body is not valid utf-8");
    };
    let started = Instant::now();
    let snapshot = shared.engine.snapshot();
    let queries = match wire::parse_query_body(body, snapshot.graph()) {
        Ok(q) => q,
        Err(e) => return engine_error_response(&e),
    };
    drop(snapshot);
    let n = queries.len();
    if n == 0 {
        return Response::json(200, "").with_header("X-Rpq-Version", shared.engine.version());
    }

    let (tx, rx) = mpsc::sync_channel(1);
    let pending = Pending {
        queries,
        reply: tx,
        submitted: started,
    };
    let mut role = match shared.queue.try_push(pending) {
        Ok(role) => role,
        Err(()) => {
            shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Response::error(429, "admission queue full")
                .with_header("Retry-After", RETRY_AFTER_SECS);
        }
    };
    let answer = loop {
        if let Some(role) = role.take() {
            execute_batch(shared, role);
        }
        match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(Reply::Answer(answer)) => break answer,
            Ok(Reply::Lead) => role = Some(Executing(&shared.queue)),
            Err(e) => match (shared.queue.give_up(rx), e) {
                (Some(answer), _) => break answer,
                (None, mpsc::RecvTimeoutError::Timeout) => {
                    return Response::error(503, "evaluation timed out")
                }
                (None, mpsc::RecvTimeoutError::Disconnected) => {
                    return Response::error(503, "server is shutting down")
                }
            },
        }
    };

    let received = Instant::now();
    let mut body = Vec::new();
    wire::encode_items_into(&mut body, &answer.result.items()[answer.range]);
    // like queue-wait and execute, recorded *before* the reply goes out:
    // a client that has its answer finds the span
    let tracer = rpq_trace::tracer();
    if tracer.enabled() {
        tracer.record_span(
            "server",
            "serialize",
            received.elapsed(),
            &format!("queries={n} bytes={}", body.len()),
        );
    }
    // request in → response ready: encoding is inside the latency
    let us = started.elapsed().as_micros() as u64;
    shared.metrics.latency.record(us);
    shared
        .metrics
        .queries
        .fetch_add(n as u64, Ordering::Relaxed);
    shared
        .metrics
        .query_requests
        .fetch_add(1, Ordering::Relaxed);
    Response::json(200, body).with_header("X-Rpq-Version", answer.version)
}

fn handle_update(req: &Request, shared: &Shared) -> Response {
    let Some(body) = req.body_str() else {
        return Response::error(400, "body is not valid utf-8");
    };
    let started = Instant::now();
    let snapshot = shared.engine.snapshot();
    let updates = match wire::parse_update_body(body, snapshot.graph()) {
        Ok(u) => u,
        Err(e) => return engine_error_response(&e),
    };
    drop(snapshot);
    // writer admission: the engine serializes writers on a mutex, so cap
    // how many connection threads may stack up behind it
    let waiting = shared.pending_updates.fetch_add(1, Ordering::SeqCst);
    if waiting >= shared.config.max_pending_updates {
        shared.pending_updates.fetch_sub(1, Ordering::SeqCst);
        shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::error(429, "too many concurrent updates")
            .with_header("Retry-After", RETRY_AFTER_SECS);
    }
    let applied = shared.engine.apply(&updates);
    shared.pending_updates.fetch_sub(1, Ordering::SeqCst);
    match applied {
        Ok(report) => {
            let us = started.elapsed().as_micros() as u64;
            shared.metrics.latency.record(us);
            shared
                .metrics
                .updates
                .fetch_add(report.applied as u64, Ordering::Relaxed);
            shared
                .metrics
                .update_requests
                .fetch_add(1, Ordering::Relaxed);
            // a batch that changed nothing maintained nothing: its report
            // only restates the snapshot's standing index state
            if report.applied > 0 {
                shared.metrics.record_index(&report.index);
            }
            Response::json(
                200,
                format!(
                    "{{\"version\": {}, \"applied\": {}}}\n",
                    report.snapshot.version(),
                    report.applied
                ),
            )
        }
        Err(e) => engine_error_response(&e),
    }
}

/// `POST /v1/explain` — same wire body as `/v1/query`, but every query
/// runs through the profiled path and the response is one
/// [`QueryProfile`](rpq_trace::QueryProfile) JSON object per line instead
/// of answers. Explain bypasses the admission queue: it is a diagnostic
/// read against the current snapshot, not throughput traffic, and its
/// profiles should not be distorted by coalescing with the hot path.
fn handle_explain(req: &Request, shared: &Shared) -> Response {
    let Some(body) = req.body_str() else {
        return Response::error(400, "body is not valid utf-8");
    };
    let started = Instant::now();
    let snapshot = shared.engine.snapshot();
    let queries = match wire::parse_query_body(body, snapshot.graph()) {
        Ok(q) => q,
        Err(e) => return engine_error_response(&e),
    };
    let mut out = String::new();
    let sem0 = snapshot.semantic_stats();
    for query in &queries {
        let (_, profile) = snapshot.run_query_profiled(query);
        out.push_str(&profile.to_json());
        out.push('\n');
    }
    shared
        .metrics
        .record_semcache(&sem0, &snapshot.semantic_stats());
    shared
        .metrics
        .latency
        .record(started.elapsed().as_micros() as u64);
    shared
        .metrics
        .queries
        .fetch_add(queries.len() as u64, Ordering::Relaxed);
    shared
        .metrics
        .query_requests
        .fetch_add(1, Ordering::Relaxed);
    Response::json(200, out).with_header("X-Rpq-Version", snapshot.version())
}

/// `GET /debug/trace` — the process tracer's ring buffer as JSON lines,
/// oldest first. Empty body when tracing is disabled or nothing has been
/// recorded yet.
fn handle_trace() -> Response {
    Response::text(
        200,
        "application/x-ndjson",
        rpq_trace::tracer().to_json_lines(),
    )
}

/// `GET /metrics`: Prometheus text exposition.
fn handle_metrics(shared: &Shared) -> Response {
    let snapshot = shared.engine.snapshot();
    Response::text(
        200,
        "text/plain; version=0.0.4; charset=utf-8",
        shared.metrics.render_prometheus(
            shared.queue.depth(),
            snapshot.version(),
            snapshot.engine().index_bytes(),
            snapshot.index_state().as_str(),
        ),
    )
}

fn handle_schema(shared: &Shared) -> Response {
    let snapshot = shared.engine.snapshot();
    let graph = snapshot.graph();
    let schema = graph.schema();
    let attrs: Vec<String> = (0..schema.len())
        .map(|i| format!("\"{}\"", crate::json::escape(schema.name(AttrId(i as u16)))))
        .collect();
    let colors: Vec<String> = graph
        .alphabet()
        .colors()
        .map(|c| format!("\"{}\"", crate::json::escape(graph.alphabet().name(c))))
        .collect();
    Response::json(
        200,
        format!(
            concat!(
                "{{\"protocol\": {}, \"nodes\": {}, \"edges\": {}, ",
                "\"version\": {}, \"attrs\": [{}], \"colors\": [{}]}}\n"
            ),
            wire::PROTOCOL_VERSION,
            graph.node_count(),
            graph.edge_count(),
            snapshot.version(),
            attrs.join(", "),
            colors.join(", "),
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submission() -> (Pending, mpsc::Receiver<Reply>) {
        let (tx, rx) = mpsc::sync_channel(1);
        let pending = Pending {
            queries: Vec::new(),
            reply: tx,
            submitted: Instant::now(),
        };
        (pending, rx)
    }

    fn leads(rx: &mpsc::Receiver<Reply>) -> bool {
        matches!(rx.try_recv(), Ok(Reply::Lead))
    }

    #[test]
    fn the_role_goes_to_whoever_finds_the_queue_idle_then_down_the_queue() {
        let queue = WorkQueue::new(8);
        let (first, _rx1) = submission();
        let role = queue.try_push(first).unwrap().expect("idle queue");
        let (second, rx2) = submission();
        let (third, rx3) = submission();
        assert!(queue.try_push(second).unwrap().is_none(), "one role");
        assert!(queue.try_push(third).unwrap().is_none());

        // the first holder runs a batch of one; the role passes to the
        // oldest submission left, and only to it
        assert_eq!(role.drain(1, Duration::ZERO).len(), 1);
        drop(role);
        assert!(leads(&rx2));
        assert!(!leads(&rx3));

        // the second drains everything: the role is laid down, and the
        // next admission picks it up again
        let role = Executing(&queue);
        assert_eq!(role.drain(8, Duration::ZERO).len(), 2);
        drop(role);
        assert!(!leads(&rx3));
        assert_eq!(queue.depth(), 0);
        let (fourth, _rx4) = submission();
        assert!(queue.try_push(fourth).unwrap().is_some());
    }

    #[test]
    fn a_submission_that_gave_up_neither_keeps_nor_loses_the_role() {
        let queue = WorkQueue::new(8);
        let (first, _rx1) = submission();
        let role = queue.try_push(first).unwrap().expect("idle queue");
        let (gone, rx_gone) = submission();
        let (late, rx_late) = submission();
        let (waiting, rx_waiting) = submission();
        for p in [gone, late, waiting] {
            assert!(queue.try_push(p).unwrap().is_none());
        }
        role.drain(1, Duration::ZERO);

        // one thread stopped waiting before the role reached it: skipped
        assert!(queue.give_up(rx_gone).is_none());
        drop(role);
        assert!(!leads(&rx_waiting));
        // the next one stops waiting with the role already in its
        // channel: it hands the role on instead of taking it to the grave
        assert!(queue.give_up(rx_late).is_none());
        assert!(leads(&rx_waiting));

        // the abandoned submissions are still executed (and their answers
        // dropped); after that the queue is idle again
        let role = Executing(&queue);
        assert_eq!(role.drain(8, Duration::ZERO).len(), 3);
        drop(role);
        let (next, _rx) = submission();
        assert!(queue.try_push(next).unwrap().is_some());
    }

    #[test]
    fn a_closed_or_full_queue_admits_nothing() {
        let queue = WorkQueue::new(1);
        let (first, _rx1) = submission();
        let _role = queue.try_push(first).unwrap();
        let (second, _rx2) = submission();
        assert!(queue.try_push(second).is_err(), "full");
        let queue = WorkQueue::new(1);
        queue.close();
        let (third, _rx3) = submission();
        assert!(queue.try_push(third).is_err(), "closed");
    }
}
