//! The threaded serving core: listener, connection threads, and a bounded
//! admission queue whose batches are run by the connection threads that
//! submitted them — up to [`ServerConfig::executors`] at once.
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
//! * **the admission queue** (`WorkQueue`) — there is no executor
//!   thread. The queue is a monitor: one mutex over the queued
//!   submissions and the count of batches running, one condvar signalled
//!   whenever a batch ends. One rule decides who evaluates: **a thread
//!   runs a batch only while its own submission is still queued and fewer
//!   than *cap* batches are running.** It then drains the whole queue,
//!   oldest first, into one engine batch, pins *its own* snapshot and runs
//!   the batch outside the lock (`queue-wait` and `execute` spans); back
//!   under the lock it lays its role down, hands each submission the
//!   shared result plus the range of items that is its own, and wakes
//!   every waiter. A waiter re-checks after each wake-up: answered →
//!   encode; still queued with a role free → run; otherwise wait on. A
//!   batch always holds its runner's own submission, so no drain comes up
//!   empty and no role is ever passed from one thread to another; the
//!   model test at the bottom of this file walks random interleavings of
//!   these steps, condvar wake-ups included.
//!
//!   Evaluation only reads the graph and its indices, so batches on
//!   immutable snapshots cannot change one another's answers. The cap is
//!   [`ServerConfig::executors`] (one per core when 0) — on one core
//!   batches run one at a time. The engine runs a batch on the thread
//!   that drained it and starts no thread of its own, so these roles are
//!   the only parallelism in query serving. A request that finds a role
//!   free is parsed, evaluated, encoded and written by one thread: it
//!   waits for no other thread to wake, and nothing waits for it. (With a dedicated coalescer thread every
//!   request paid two cross-thread wake-ups, and on the ledger's two-core
//!   box their cost — not evaluation — set `hop_zipf`'s throughput; with
//!   one role, the second closed-loop connection spent half of every
//!   request waiting for the first one's batch: `hop_unique`
//!   `read_p50_ms` 9.6 against a one-connection round trip of 5.8.)
//!
//!   *What coalesces:* only what queued up while every role was held —
//!   the next thread to run drains all of it. Coalescing amortizes the
//!   per-batch costs (one snapshot pin, one planning pass) across
//!   connections; reach-set memoization does not depend on it — the memo
//!   lives as long as the graph version and is shared by every batch on
//!   the snapshot, coalesced or not, concurrent or not.
//!
//!   One level of parallelism was measured on the ledger (two cores,
//!   two closed-loop connections, seed 1, 15 s runs, medians of runs
//!   alternated with and without the engine's helper threads). Running
//!   every batch on the thread that drained it, with no helper threads
//!   and no budget shared between them, moved `read_qps` 1 746 → 1 786
//!   on `hop_unique` (10 pairs), 2 942 → 3 139 on `matrix_pq`, 45 860 →
//!   58 900 on `hop_zipf` and 1 909 → 2 097 on `sharded_live` (5 pairs
//!   each), every answer correct; `hop_unique`'s peak RSS rose 96.7 →
//!   100.8 MiB. Turning the semantic memo's exact-hit path into a read
//!   lock was **not** done: on `hop_zipf`'s 91 %-hit stream 0.36 % of
//!   the memo's lock acquisitions on its hit path (its one query
//!   method, inside `rpq-engine`) found the mutex held (526 of
//!   146 568), waiting 0.57 ms in total over 36 665 requests — about
//!   16 ns of a ≈ 300 µs `server.execute_us`.
//!
//! ## Admission control
//!
//! The queue is bounded ([`ServerConfig::queue_capacity`]), which also
//! bounds one drain. A submission that finds it full is refused
//! immediately with **429** and a `Retry-After` header — backpressure
//! instead of unbounded buffering. A submission not answered within
//! 120 s answers **503**, withdrawn from the queue if no batch has taken
//! it. A batch whose evaluation panics answers each of its submissions
//! **500** (`rpq_worker_panics_total`); its connection threads and its
//! role survive it.

use crate::http::{read_request, HttpError, Request, Response};
use crate::metrics::{Gauges, Metrics};
use crate::wire;
use rpq_engine::{BatchResult, Query, UpdatableEngine};
use rpq_graph::AttrId;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Admission-queue capacity in *requests*; a full queue answers 429.
    /// It also bounds how many submissions one engine batch takes.
    pub queue_capacity: usize,
    /// Executor roles: most batches evaluated at once, each on the
    /// connection thread that drained it; `0` means one per available
    /// core.
    pub executors: usize,
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
            executors: 0,
            max_pending_updates: 32,
            read_timeout: Duration::from_secs(30),
            max_body_bytes: 8 << 20,
        }
    }
}

/// `Retry-After` seconds sent with 429 responses.
const RETRY_AFTER_SECS: u32 = 1;

/// How long a submission waits for its answer before it answers 503.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(120);

/// Where a submission's answer lands, set once — under the queue lock —
/// by whichever thread runs its batch: `None` when the batch panicked (a
/// 500). The `Arc` also identifies the submission in the queue.
type Reply = Arc<OnceLock<Option<Answer>>>;

/// One admitted query submission waiting to be executed.
struct Pending {
    queries: Vec<Query>,
    /// When the connection thread pushed this submission — the running
    /// thread derives the queue-wait trace span from the oldest one in a
    /// drain.
    submitted: Instant,
    reply: Reply,
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
    /// Batches running right now, at most [`WorkQueue::cap`].
    executing: usize,
    closed: bool,
}

/// What a waiting submission's thread does next, decided under the
/// queue lock by [`WorkQueue::step`].
enum Step {
    /// Its thread holds a role: run this batch, which holds its own
    /// submission.
    Run(Vec<Pending>),
    /// Wait for the next batch to end.
    Wait,
    /// Stop waiting: answered, or past its deadline.
    Done,
}

/// The bounded admission queue, a monitor: the threads that submit run
/// the batches, by the one rule of the module doc.
struct WorkQueue {
    state: Mutex<QueueState>,
    /// Signalled whenever a batch ends: replies were set and a role came
    /// free.
    turn: Condvar,
    capacity: usize,
    /// Most batches in flight at once.
    cap: usize,
    /// `notify_all`s so far: the model test's view of the condvar.
    #[cfg(test)]
    wakeups: AtomicUsize,
}

impl WorkQueue {
    fn new(capacity: usize, cap: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState::default()),
            turn: Condvar::new(),
            capacity,
            cap,
            #[cfg(test)]
            wakeups: AtomicUsize::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("queue lock")
    }

    /// Admit a submission, or refuse immediately when full/closed.
    fn try_push(&self, queries: Vec<Query>, submitted: Instant) -> Result<Reply, ()> {
        let mut s = self.lock();
        if s.closed || s.items.len() >= self.capacity {
            return Err(());
        }
        let reply = Reply::default();
        s.items.push_back(Pending {
            queries,
            submitted,
            reply: Arc::clone(&reply),
        });
        Ok(reply)
    }

    /// One pass of a waiting submission's loop: poll its reply, try to
    /// run, and — past its deadline (`expired`) — give up, withdrawing it
    /// if no batch has taken it.
    fn step(&self, s: &mut QueueState, own: &Reply, expired: bool) -> Step {
        if own.get().is_some() {
            return Step::Done;
        }
        let queued = s.items.iter().position(|p| Arc::ptr_eq(&p.reply, own));
        if queued.is_some() && s.executing < self.cap {
            s.executing += 1;
            return Step::Run(s.items.drain(..).collect());
        }
        if !expired {
            return Step::Wait;
        }
        if let Some(at) = queued {
            s.items.remove(at);
        }
        Step::Done
    }

    /// Block until `own` is answered or its thread may run a batch, and
    /// return that batch. `None` is answered, or unanswered at `deadline`.
    fn next_batch(&self, own: &Reply, deadline: Instant) -> Option<Vec<Pending>> {
        let mut s = self.lock();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.step(&mut s, own, left.is_zero()) {
                Step::Run(batch) => return Some(batch),
                Step::Wait => s = self.turn.wait_timeout(s, left).expect("queue lock").0,
                Step::Done => return None,
            }
        }
    }

    /// Lay a role down: hand each submission of `batch` its share of
    /// `ran` (`None`: the batch panicked) and wake every waiter.
    fn finish(&self, batch: Vec<Pending>, ran: Option<(Arc<BatchResult>, u64)>) {
        let mut s = self.lock();
        s.executing -= 1;
        let mut offset = 0;
        for p in batch {
            let range = offset..offset + p.queries.len();
            offset = range.end;
            let answer = ran.as_ref().map(|(result, version)| Answer {
                result: Arc::clone(result),
                range,
                version: *version,
            });
            // set under the lock: a waiter that found it unset is in
            // `wait_timeout` before the wake-up below
            assert!(p.reply.set(answer).is_ok(), "a submission is drained once");
        }
        drop(s);
        self.wake_all();
    }

    fn wake_all(&self) {
        #[cfg(test)]
        self.wakeups.fetch_add(1, Ordering::SeqCst);
        self.turn.notify_all();
    }

    fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// Batches running right now.
    fn executing(&self) -> usize {
        self.lock().executing
    }

    fn close(&self) {
        self.lock().closed = true;
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
    /// Fail point: the next batch to run panics instead.
    #[cfg(test)]
    fail_next_batch: AtomicBool,
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
        // on one core, one batch at a time
        let cap = match config.executors {
            0 => thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let shared = Arc::new(Shared {
            engine,
            metrics: Arc::new(Metrics::new()),
            queue: WorkQueue::new(config.queue_capacity.max(1), cap),
            config,
            addr,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            pending_updates: AtomicUsize::new(0),
            conn_streams: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            #[cfg(test)]
            fail_next_batch: AtomicBool::new(false),
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

/// Run the `batch` a role was granted with: concatenate the submissions,
/// evaluate them against one snapshot — pinned here, by this thread, for
/// this batch — then lay the role down and hand each submission its
/// share.
fn execute_batch(shared: &Shared, batch: Vec<Pending>) {
    let drained = Instant::now();
    // a panicking evaluation must neither take the connection thread down
    // nor leave the other submissions of its batch unanswered
    let ran = catch_unwind(AssertUnwindSafe(|| evaluate(shared, &batch, drained))).ok();
    if ran.is_none() {
        shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
    }
    shared.queue.finish(batch, ran);
}

/// The part of [`execute_batch`] that can panic: evaluate `batch` on the
/// current snapshot and record what it did. Returns the result and the
/// version it was evaluated at.
fn evaluate(shared: &Shared, batch: &[Pending], drained: Instant) -> (Arc<BatchResult>, u64) {
    let mut all = Vec::with_capacity(batch.iter().map(|p| p.queries.len()).sum());
    for p in batch {
        all.extend_from_slice(&p.queries);
    }
    let snapshot = shared.engine.snapshot();
    #[cfg(test)]
    if shared.fail_next_batch.swap(false, Ordering::SeqCst) {
        panic!("fail point: batch panics");
    }
    let result = Arc::new(snapshot.run_batch(&all));
    let executed = Instant::now();
    // per-plan-variant evaluation latency (worker wall time, not
    // request time — isolates engine cost from queueing)
    for item in result.items() {
        shared
            .metrics
            .plan_histogram(item.plan)
            .record(item.time.as_micros() as u64);
    }
    let version = snapshot.version();
    // queue-wait and execute are recorded *before* the replies go
    // out, so a client that got its answer is guaranteed to see its
    // batch's spans in /debug/trace
    let tracer = rpq_trace::tracer();
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
    (result, version)
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
    let n = queries.len();
    if n == 0 {
        return Response::json(200, "").with_header("X-Rpq-Version", snapshot.version());
    }
    drop(snapshot);

    let Ok(reply) = shared.queue.try_push(queries, started) else {
        shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::error(429, "admission queue full")
            .with_header("Retry-After", RETRY_AFTER_SECS);
    };
    if let Some(batch) = shared.queue.next_batch(&reply, started + ANSWER_TIMEOUT) {
        // the batch holds this submission: answered when this returns
        execute_batch(shared, batch);
    }
    let answer = match reply.get() {
        Some(Some(answer)) => answer,
        Some(None) => return Response::error(500, "evaluation failed"),
        None => return Response::error(503, "evaluation timed out"),
    };

    let received = Instant::now();
    let mut body = Vec::new();
    wire::encode_items_into(&mut body, &answer.result.items()[answer.range.clone()]);
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

/// `POST /v1/explain` — same wire body as `/v1/query`, but the queries
/// run as one profiled batch (`Snapshot::run_batch_profiled`) and the
/// response is one [`QueryProfile`](rpq_trace::QueryProfile) JSON object
/// per line instead of answers. Each query is evaluated on one thread,
/// so a profile carries no thread count.
/// Explain bypasses the admission queue: it is a diagnostic read against
/// the current snapshot, not throughput traffic, and its profiles should
/// not be distorted by coalescing with the hot path.
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
    let result = snapshot.run_batch_profiled(&queries);
    let mut out = String::new();
    for item in result.items() {
        out.push_str(&item.profile.as_deref().expect("profiled run").to_json());
        out.push('\n');
    }
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
        shared.metrics.render_prometheus(&Gauges {
            queue_depth: shared.queue.depth(),
            executors_busy: shared.queue.executing(),
            executors_cap: shared.queue.cap,
            snapshot_version: snapshot.version(),
            index_bytes: snapshot.index_bytes(),
            index_state: snapshot.index_state().as_str(),
            semcache_bytes: snapshot.memo_queue_bytes(),
            semantic: snapshot.semantic_stats(),
        }),
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
    use proptest::prelude::*;

    fn submit(queue: &WorkQueue) -> Result<Reply, ()> {
        queue.try_push(Vec::new(), Instant::now())
    }

    /// `own`'s thread re-checks before its deadline: the batch it may
    /// run, if any.
    fn try_run(queue: &WorkQueue, own: &Reply) -> Option<Vec<Pending>> {
        match queue.step(&mut queue.lock(), own, false) {
            Step::Run(batch) => Some(batch),
            _ => None,
        }
    }

    /// With a cap of two: "idle" is "a role is free".
    #[test]
    fn the_role_goes_to_whoever_finds_the_queue_idle_then_down_the_queue() {
        let queue = WorkQueue::new(8, 2);
        let first = submit(&queue).unwrap();
        let batch1 = try_run(&queue, &first).expect("idle queue");
        let second = submit(&queue).unwrap();
        let batch2 = try_run(&queue, &second).expect("a second role while the first is held");
        let third = submit(&queue).unwrap();
        let fourth = submit(&queue).unwrap();
        assert!(try_run(&queue, &third).is_none() && try_run(&queue, &fourth).is_none());
        assert_eq!((queue.executing(), queue.depth()), (2, 2), "two roles");

        // the first batch ends: its submission is answered, every waiter
        // is woken, and the first of them to re-check takes the free role
        // and the whole queue with it
        let woken = queue.wakeups.load(Ordering::SeqCst);
        queue.finish(batch1, None);
        assert_eq!(queue.wakeups.load(Ordering::SeqCst), woken + 1);
        assert!(first.get().is_some() && third.get().is_none());
        let batch3 = try_run(&queue, &fourth).expect("a role came free");
        assert_eq!(batch3.len(), 2, "the third's submission went along");
        // …so the third has nothing to run, and waits for that batch
        assert!(matches!(
            queue.step(&mut queue.lock(), &third, false),
            Step::Wait
        ));
        queue.finish(batch3, None);
        assert!(third.get().is_some() && fourth.get().is_some());
        assert!(matches!(
            queue.step(&mut queue.lock(), &third, false),
            Step::Done
        ));

        queue.finish(batch2, None);
        assert_eq!((queue.executing(), queue.depth()), (0, 0));
        let next = submit(&queue).unwrap();
        assert!(try_run(&queue, &next).is_some());
    }

    #[test]
    fn a_submission_that_gave_up_neither_keeps_nor_loses_the_role() {
        let queue = WorkQueue::new(8, 1);
        let first = submit(&queue).unwrap();
        let batch1 = try_run(&queue, &first).expect("idle queue");
        let gone = submit(&queue).unwrap();
        let late = submit(&queue).unwrap();
        let waiting = submit(&queue).unwrap();

        // one thread stops waiting while its submission is queued: it
        // withdraws it, and holds no role to keep or lose
        assert!(queue.next_batch(&gone, Instant::now()).is_none());
        assert_eq!((queue.executing(), queue.depth()), (1, 2));
        queue.finish(batch1, None);
        assert_eq!(queue.executing(), 0);
        let batch = try_run(&queue, &waiting).expect("the role came back");
        assert_eq!(batch.len(), 2, "the withdrawn submission is not run");

        // the next one stops waiting after a batch took its submission:
        // nothing to withdraw, the role stays with the batch, and its
        // answer is set all the same (and dropped)
        assert!(queue.next_batch(&late, Instant::now()).is_none());
        assert_eq!((queue.executing(), queue.depth()), (1, 0));
        queue.finish(batch, None);
        assert!(late.get().is_some() && gone.get().is_none());
        assert_eq!(queue.executing(), 0);
        let next = submit(&queue).unwrap();
        assert!(try_run(&queue, &next).is_some());
    }

    #[test]
    fn a_closed_or_full_queue_admits_nothing() {
        let queue = WorkQueue::new(1, 2);
        let _first = submit(&queue).unwrap();
        assert!(submit(&queue).is_err(), "full");
        let queue = WorkQueue::new(1, 2);
        queue.close();
        assert!(submit(&queue).is_err(), "closed");
    }

    /// A connection thread of the model below: where it is in
    /// `handle_query`.
    enum Client {
        /// In `next_batch`, about to take a [`WorkQueue::step`].
        Awake(Reply),
        /// In `wait_timeout`: it moves on a `notify_all` or its deadline,
        /// never on its own.
        Asleep(Reply),
        /// In `execute_batch`, outside the lock.
        Running(Reply, Vec<Pending>),
        /// Answered, or gave up.
        Done,
    }

    /// The queue over every interleaving a seed can reach: the real
    /// `WorkQueue`, driven one step of one connection thread at a time,
    /// with the condvar's wake-ups read off [`WorkQueue::wakeups`].
    struct Model<'a> {
        queue: &'a WorkQueue,
        /// An empty batch's result, standing in for every answer.
        result: Arc<BatchResult>,
        clients: Vec<Client>,
    }

    impl Model<'_> {
        fn push(&mut self) {
            if let Ok(own) = submit(self.queue) {
                self.clients.push(Client::Awake(own));
            }
        }

        /// One step of client `c`, past its deadline or not, in a batch
        /// that panics or not; false if it cannot move.
        fn step(&mut self, c: usize, expired: bool, panics: bool) -> bool {
            self.clients[c] = match std::mem::replace(&mut self.clients[c], Client::Done) {
                Client::Awake(own) => self.check_in(own, expired),
                // `wait_timeout` timed out
                Client::Asleep(own) if expired => self.check_in(own, true),
                Client::Running(own, batch) => {
                    let woken = self.queue.wakeups.load(Ordering::SeqCst);
                    let ran = (!panics).then(|| (Arc::clone(&self.result), 0));
                    self.queue.finish(batch, ran);
                    if self.queue.wakeups.load(Ordering::SeqCst) != woken {
                        for client in &mut self.clients {
                            if let Client::Asleep(sleeper) = client {
                                *client = Client::Awake(Arc::clone(sleeper));
                            }
                        }
                    }
                    Client::Awake(own)
                }
                stuck => {
                    self.clients[c] = stuck;
                    return false;
                }
            };
            true
        }

        fn check_in(&self, own: Reply, expired: bool) -> Client {
            match self.queue.step(&mut self.queue.lock(), &own, expired) {
                Step::Run(batch) => Client::Running(own, batch),
                Step::Wait => Client::Asleep(own),
                Step::Done => Client::Done,
            }
        }

        fn check(&self) {
            let s = self.queue.lock();
            let ran_by = |own: &Reply| {
                self.clients.iter().any(|c| {
                    matches!(c, Client::Running(_, batch)
                        if batch.iter().any(|p| Arc::ptr_eq(&p.reply, own)))
                })
            };
            let running = self
                .clients
                .iter()
                .filter(|c| matches!(c, Client::Running(..)))
                .count();
            assert_eq!(s.executing, running, "roles held ≠ batches running");
            assert!(s.executing <= self.queue.cap, "more roles than the cap");
            for p in &s.items {
                assert!(
                    self.clients.iter().any(|c| matches!(c,
                        Client::Awake(own) | Client::Asleep(own) if Arc::ptr_eq(own, &p.reply))),
                    "a queued submission nobody waits for"
                );
            }
            // every sleeper has a wake-up coming: it is queued behind
            // `cap` running batches, or one of them holds its submission
            for c in &self.clients {
                if let Client::Asleep(own) = c {
                    let queued = s.items.iter().any(|p| Arc::ptr_eq(&p.reply, own));
                    assert!(own.get().is_none(), "a sleeper was answered but not woken");
                    assert!(
                        (queued && s.executing == self.queue.cap) || ran_by(own),
                        "a sleeper nothing will wake ({} of {} roles held)",
                        s.executing,
                        self.queue.cap
                    );
                }
            }
        }

        /// Let every thread run, none past its deadline, until none can
        /// move.
        fn settle(&mut self) {
            while (0..self.clients.len()).fold(false, |moved, c| self.step(c, false, false) | moved)
            {
                self.check();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_role_protocol_holds_on_every_interleaving(
            cap in 1usize..4,
            ops in proptest::collection::vec((0u8..8, 0usize..64), 0..80),
        ) {
            let queue = WorkQueue::new(6, cap);
            let engine = UpdatableEngine::new(rpq_graph::gen::essembly());
            let result = Arc::new(engine.snapshot().run_batch(&[]));
            let mut model = Model { queue: &queue, result, clients: Vec::new() };
            for (op, pick) in ops {
                let c = pick % model.clients.len().max(1);
                match op {
                    0 | 1 => model.push(),
                    _ if c >= model.clients.len() => {}
                    2 => _ = model.step(c, true, false),
                    3 => _ = model.step(c, false, true),
                    _ => _ = model.step(c, false, false),
                }
                model.check();
            }
            model.settle();
            // everything still waited for was answered, every role is
            // back, and nothing is stranded in the queue
            for (c, client) in model.clients.iter().enumerate() {
                prop_assert!(matches!(client, Client::Done), "submission {c} was never answered");
            }
            prop_assert_eq!((queue.executing(), queue.depth()), (0, 0));
        }
    }

    #[test]
    fn a_panicking_batch_answers_500_and_the_connection_lives_on() {
        let graph = rpq_graph::gen::essembly();
        let queries = [Query::parse_rq("job = \"doctor\"", "", "fn", &graph).unwrap()];
        let engine = Arc::new(UpdatableEngine::new(graph.clone()));
        let server = Server::start(engine, ServerConfig::default()).unwrap();
        let mut client = crate::Client::connect(server.addr()).unwrap();
        assert_eq!(client.query(&queries, &graph).unwrap().status, 200);

        server.shared.fail_next_batch.store(true, Ordering::SeqCst);
        let failed = client.query(&queries, &graph).unwrap();
        assert_eq!(failed.status, 500, "{}", failed.body);
        assert!(failed.body.contains("evaluation failed"), "{}", failed.body);

        // same connection, next request: served, and the role came back
        assert_eq!(client.query(&queries, &graph).unwrap().status, 200);
        assert_eq!(server.shared.queue.executing(), 0);
        let metrics = server.metrics();
        assert_eq!(metrics.worker_panics.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.errors.load(Ordering::Relaxed), 1);
        server.shutdown();
    }
}
