//! The threaded serving core: listener, connection threads, a bounded
//! admission queue, and executor roles — as many as the engine has worker
//! threads, each held by one connection thread at a time — that feed
//! coalesced client batches into the scatter-gather engine.
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
//! * **executor roles** (`Executing`) — there is no executor thread,
//!   and the role is a count, not a flag. Evaluation only reads the graph
//!   and its indices, so batches on immutable snapshots cannot change one
//!   another's answers, and up to *cap* of them run at once. The cap is
//!   the engine's worker budget ([`EngineConfig::worker_budget`]: its
//!   `workers`, one per core when 0) — on one core a single role, which is
//!   the one-batch-at-a-time server this was before. A submission
//!   admitted while a role is free takes it on its own connection thread:
//!   it drains the queue, concatenates what it drained into one batch,
//!   pins *its own* snapshot and runs the batch against it (`queue-wait`
//!   and `execute` spans), and hands each submission the shared result
//!   plus the range of items that is its own. A submission admitted while
//!   every role is held waits in the queue; whoever lays a role down
//!   passes it (`Reply::Lead`) to the oldest such submission. So a
//!   request that finds a role free is parsed, evaluated, encoded and
//!   written by one thread: it waits for no other thread to wake, and
//!   nothing waits for it. (With a dedicated coalescer thread every
//!   request paid two cross-thread wake-ups, and on the ledger's two-core
//!   box their cost — not evaluation — set `hop_zipf`'s throughput; with
//!   one role, the second closed-loop connection spent half of every
//!   request waiting for the first one's batch: `hop_unique`
//!   `read_p50_ms` 9.6 against a one-connection round trip of 5.8.)
//!
//!   *What coalesces, and when:* only what queued up while every role was
//!   held — those submissions are drained together by the next role to
//!   come free — or, with a [`ServerConfig::coalesce_window`], what
//!   arrived during the first holder's window beyond the submissions that
//!   took the remaining roles. Coalescing amortizes the per-batch costs
//!   (one snapshot pin, one planning pass) across connections; reach-set
//!   memoization does not depend on it — the memo lives as long as the
//!   graph version and is shared by every batch on the snapshot,
//!   coalesced or not, concurrent or not.
//!
//!   Three things keep the protocol sound with more than one role; the
//!   model test at the bottom of this file walks random interleavings of
//!   them. A submission that holds a role it has yet to drain with, or
//!   has been sent one, is marked `led` under the queue lock and never
//!   sent a second: an unread `Lead` in its one-slot channel would leak a
//!   role, or block the executor that sends it its answer. A role holder
//!   whose own submission another executor's drain already took may find
//!   the queue empty: it records nothing and goes back to waiting. And the
//!   engine shares its worker budget between the batches running on it
//!   ([`QueryEngine::run_batch`](rpq_engine::QueryEngine::run_batch)):
//!   two concurrent batches on two cores each evaluate on their caller
//!   alone instead of both starting a helper thread.
//!
//!   Both engine-side questions were settled on the ledger (two cores,
//!   two closed-loop connections). Sharing the helper budget **stays**:
//!   without it `hop_unique` read 7.3 ms `read_p50_ms` / 974 q/s /
//!   166 MiB peak RSS, with it 6.8 ms / 1076 q/s / 143 MiB, same runs
//!   alternated. Turning the semantic memo's exact-hit path into a read
//!   lock was **not** done: on `hop_zipf`'s 91 %-hit stream 0.36 % of
//!   `try_answer`'s lock acquisitions found the mutex held (526 of
//!   146 568), waiting 0.57 ms in total over 36 665 requests — about
//!   16 ns of a ≈ 300 µs `server.execute_us`.
//!
//! ## Admission control
//!
//! The queue is bounded ([`ServerConfig::queue_capacity`]). A submission
//! that finds it full is refused immediately with **429** and a
//! `Retry-After` header — backpressure instead of unbounded buffering.
//! [`ServerConfig::coalesce_window`] optionally holds an executor for a
//! beat after work arrives so concurrent clients land in one engine
//! batch; it is also what makes backpressure deterministic to test. A
//! batch whose evaluation panics answers each of its submissions **500**
//! (`rpq_worker_panics_total`); its connection threads and its role
//! survive it.
//!
//! [`EngineConfig::worker_budget`]: rpq_engine::EngineConfig::worker_budget

use crate::http::{read_request, HttpError, Request, Response};
use crate::metrics::{Gauges, Metrics};
use crate::wire;
use rpq_engine::{BatchResult, Query, SemanticStats, UpdatableEngine};
use rpq_graph::AttrId;
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
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
    /// Identifies the submission to the role its thread holds (see
    /// [`Executing`]).
    ticket: u64,
    /// Its thread holds an executor role it has yet to drain with, or has
    /// been sent one: it must not be sent another. A second `Lead` would
    /// sit unread in the one-slot channel — a role leaked for good if the
    /// thread is answered first, and until it is read, a block on the
    /// executor trying to send that answer. Written under the queue lock.
    led: bool,
}

/// What a waiting submission is sent.
enum Reply {
    /// Its batch ran: encode your items.
    Answer(Answer),
    /// Its batch panicked: answer 500.
    Failed,
    /// An executor role is free and yours is the oldest submission queued
    /// without one: drain the queue and run the batch (see [`Executing`]).
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
    /// Executor roles held (live [`Executing`]s, plus `Lead`s sent and not
    /// yet read), at most [`WorkQueue::cap`]. Whenever `items` holds a
    /// submission that is not `led` and whose thread still waits, this
    /// equals the cap: whoever pushes while a role is free takes it, and
    /// whoever lays one down passes it to the oldest such submission.
    executing: usize,
    next_ticket: u64,
}

/// Bounded multi-producer queue whose consumers are whichever producers
/// hold an executor role.
struct WorkQueue {
    state: Mutex<QueueState>,
    capacity: usize,
    /// Most batches in flight at once.
    cap: usize,
}

impl WorkQueue {
    fn new(capacity: usize, cap: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState::default()),
            capacity,
            cap,
        }
    }

    /// Admit a submission, or refuse immediately when full/closed. Returns
    /// its ticket, and an executor role if one was free.
    fn try_push(
        &self,
        queries: Vec<Query>,
        reply: mpsc::SyncSender<Reply>,
        submitted: Instant,
    ) -> Result<(u64, Option<Executing<'_>>), ()> {
        let mut s = self.state.lock().expect("queue lock");
        if s.closed || s.items.len() >= self.capacity {
            return Err(());
        }
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        let led = s.executing < self.cap;
        s.executing += usize::from(led);
        s.items.push_back(Pending {
            queries,
            reply,
            submitted,
            ticket,
            led,
        });
        Ok((ticket, led.then(|| self.role(ticket))))
    }

    /// The role a thread holds after [`try_push`](Self::try_push) granted
    /// it one or it read a [`Reply::Lead`]: `executing` already counts it.
    fn role(&self, owner: u64) -> Executing<'_> {
        Executing { queue: self, owner }
    }

    fn depth(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Executor roles held right now.
    fn executing(&self) -> usize {
        self.state.lock().expect("queue lock").executing
    }

    /// A submission whose thread stops waiting: whatever reached `rx` is
    /// taken and `rx` closed in one step with respect to role hand-offs
    /// (which happen under the same lock), so a role passed to a thread
    /// that is giving up is handed on instead of lost. Returns the reply
    /// it had after all, never a `Lead`.
    fn give_up(&self, rx: mpsc::Receiver<Reply>, ticket: u64) -> Option<Reply> {
        let last = {
            let _s = self.state.lock().expect("queue lock");
            let last = rx.try_recv().ok();
            drop(rx);
            last
        };
        match last? {
            Reply::Lead => {
                drop(self.role(ticket));
                None
            }
            settled => Some(settled),
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
    }
}

/// An executor role: at most [`WorkQueue::cap`] exist per queue, each
/// held by a connection thread that is running a batch. Dropping it —
/// also when a batch panics — passes the role to the oldest submission
/// still queued that has none and whose thread is still waiting, or lays
/// it down when there is no such submission.
struct Executing<'a> {
    queue: &'a WorkQueue,
    /// Ticket of the holder's own submission.
    owner: u64,
}

impl Executing<'_> {
    /// Drain up to `max` submissions, oldest first; `window` holds the
    /// drain so concurrent submissions coalesce. The holder's own need not
    /// be among them: another executor's drain may have taken it already
    /// (then the queue may even be empty), or `max` older ones are ahead
    /// of it (then the role comes straight back to it when this one is
    /// dropped).
    fn drain(&self, max: usize, window: Duration) -> Vec<Pending> {
        if !window.is_zero() {
            thread::sleep(window);
        }
        let mut s = self.queue.state.lock().expect("queue lock");
        let n = s.items.len().min(max);
        s.items.drain(..n).collect()
    }
}

impl Drop for Executing<'_> {
    fn drop(&mut self) {
        // every update below leaves the state valid, and a drop must not
        // panic: a poisoned lock is still good
        let mut s = self
            .queue
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // the holder's own submission, if still queued, is led by nobody
        // once this role is gone
        if let Some(own) = s.items.iter_mut().find(|p| p.ticket == self.owner) {
            own.led = false;
        }
        // a submission without a role has been sent nothing yet, so its
        // one-slot channel is empty; a closed one has given up
        let next = s
            .items
            .iter_mut()
            .find(|p| !p.led && p.reply.try_send(Reply::Lead).is_ok());
        match next {
            Some(p) => p.led = true,
            None => s.executing -= 1,
        }
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
        // as many batches at once as the engine has threads to run them
        // on: on one core, one at a time
        let cap = engine.config().worker_budget().max(1);
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

/// Run one engine batch as the holder of an executor `role`: drain the
/// queue, concatenate the submissions, evaluate them against one
/// snapshot — pinned here, by this holder, for this batch — and send each
/// its share. The role is passed on (or laid down) when this returns.
fn execute_batch(shared: &Shared, role: Executing<'_>) {
    let cfg = &shared.config;
    let batch = role.drain(cfg.coalesce_max.max(1), cfg.coalesce_window);
    if batch.is_empty() {
        // another executor's drain took this holder's submission along
        // with its own: nothing ran here, so there is nothing to record —
        // the holder goes back to waiting for that executor's answer
        return;
    }
    let drained = Instant::now();
    // a panicking evaluation must neither take the connection thread down
    // nor leave the other submissions of its batch unanswered
    let ran = catch_unwind(AssertUnwindSafe(|| evaluate(shared, &batch, drained)));
    if ran.is_err() {
        shared.metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
    }
    let mut offset = 0;
    for p in &batch {
        let range = offset..offset + p.queries.len();
        offset = range.end;
        let reply = match &ran {
            Ok((result, version)) => Reply::Answer(Answer {
                result: Arc::clone(result),
                range,
                version: *version,
            }),
            Err(_) => Reply::Failed,
        };
        // a receiver that gave up (timeout, dead connection) is fine; one
        // with an unread `Lead` in its slot reads it at once
        let _ = p.reply.send(reply);
    }
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
    // the batch's own lookups, not a delta of the snapshot memo's
    // counters: batches overlapping on one snapshot would each count the
    // other's
    shared.metrics.record_semcache(&result.semantic_stats());
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
    drop(snapshot);
    let n = queries.len();
    if n == 0 {
        return Response::json(200, "").with_header("X-Rpq-Version", shared.engine.version());
    }

    let (tx, rx) = mpsc::sync_channel(1);
    let Ok((ticket, mut role)) = shared.queue.try_push(queries, tx, started) else {
        shared.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::error(429, "admission queue full")
            .with_header("Retry-After", RETRY_AFTER_SECS);
    };
    let answer = loop {
        if let Some(role) = role.take() {
            execute_batch(shared, role);
        }
        let settled = match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(Reply::Lead) => {
                role = Some(shared.queue.role(ticket));
                continue;
            }
            Ok(settled) => settled,
            Err(e) => match shared.queue.give_up(rx, ticket) {
                Some(settled) => settled,
                None if e == mpsc::RecvTimeoutError::Timeout => {
                    return Response::error(503, "evaluation timed out")
                }
                None => return Response::error(503, "server is shutting down"),
            },
        };
        match settled {
            Reply::Answer(answer) => break answer,
            _ => return Response::error(500, "evaluation failed"),
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
    // each profile names its own query's lookup; the filter time of a
    // subsumption answer is not in it, and goes uncounted here
    let mut lookups = SemanticStats::default();
    for query in &queries {
        let (_, profile) = snapshot.run_query_profiled(query);
        match profile.semcache.as_str() {
            "exact_hit" => lookups.exact_hits += 1,
            "subsumption_hit" => lookups.subsumption_hits += 1,
            "miss" => lookups.misses += 1,
            _ => {} // a PQ: no lookup
        }
        out.push_str(&profile.to_json());
        out.push('\n');
    }
    shared.metrics.record_semcache(&lookups);
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
            index_bytes: snapshot.engine().index_bytes(),
            index_state: snapshot.index_state().as_str(),
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

    /// One admitted submission as its connection thread sees it.
    struct Submitted<'a> {
        ticket: u64,
        role: Option<Executing<'a>>,
        rx: mpsc::Receiver<Reply>,
    }

    fn submit(queue: &WorkQueue) -> Result<Submitted<'_>, ()> {
        let (tx, rx) = mpsc::sync_channel(1);
        let (ticket, role) = queue.try_push(Vec::new(), tx, Instant::now())?;
        Ok(Submitted { ticket, role, rx })
    }

    fn leads(rx: &mpsc::Receiver<Reply>) -> bool {
        matches!(rx.try_recv(), Ok(Reply::Lead))
    }

    /// With a cap of two: "idle" is "a role is free".
    #[test]
    fn the_role_goes_to_whoever_finds_the_queue_idle_then_down_the_queue() {
        let queue = WorkQueue::new(8, 2);
        let first = submit(&queue).unwrap();
        let second = submit(&queue).unwrap();
        let third = submit(&queue).unwrap();
        let fourth = submit(&queue).unwrap();
        let role1 = first.role.expect("idle queue");
        let role2 = second.role.expect("a second role while the first is held");
        assert!(third.role.is_none() && fourth.role.is_none(), "two roles");
        assert_eq!(queue.executing(), 2);

        // the first holder runs a batch of one; its role passes to the
        // oldest submission without one — not to the second, which holds
        // one it has yet to drain with — and only to it
        assert_eq!(role1.drain(1, Duration::ZERO).len(), 1);
        drop(role1);
        assert!(!leads(&second.rx));
        assert!(leads(&third.rx));
        assert!(!leads(&fourth.rx));
        assert_eq!(queue.executing(), 2);

        // the second drains everything, the third's submission included:
        // the third finds the queue empty and lays its role down
        assert_eq!(role2.drain(8, Duration::ZERO).len(), 3);
        let role3 = queue.role(third.ticket);
        assert!(role3.drain(8, Duration::ZERO).is_empty());
        drop(role3);
        assert_eq!(queue.executing(), 1);
        drop(role2);
        assert!(!leads(&fourth.rx));
        assert_eq!((queue.executing(), queue.depth()), (0, 0));
        assert!(submit(&queue).unwrap().role.is_some());
    }

    #[test]
    fn a_submission_that_gave_up_neither_keeps_nor_loses_the_role() {
        let queue = WorkQueue::new(8, 2);
        let role1 = submit(&queue).unwrap().role.expect("idle queue");
        let role2 = submit(&queue).unwrap().role.expect("second role");
        let gone = submit(&queue).unwrap();
        let late = submit(&queue).unwrap();
        let waiting = submit(&queue).unwrap();
        assert_eq!(role1.drain(2, Duration::ZERO).len(), 2);

        // one thread stopped waiting before a role reached it: skipped
        assert!(queue.give_up(gone.rx, gone.ticket).is_none());
        drop(role1);
        assert!(!leads(&waiting.rx));
        // the next one stops waiting with the role already in its
        // channel: it hands the role on instead of taking it to the grave
        assert!(queue.give_up(late.rx, late.ticket).is_none());
        assert!(leads(&waiting.rx));
        assert_eq!(queue.executing(), 2);

        // the abandoned submissions are still executed (and their answers
        // dropped); after that the queue is idle again
        assert_eq!(role2.drain(8, Duration::ZERO).len(), 3);
        drop(role2);
        drop(queue.role(waiting.ticket));
        assert_eq!(queue.executing(), 0);
        assert!(submit(&queue).unwrap().role.is_some());
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
    /// `handle_query`'s loop.
    enum Client<'a> {
        /// In `execute_batch`, before the drain (`batch` is `None`) or
        /// between drain and replies.
        Executing {
            role: Executing<'a>,
            batch: Option<Vec<Pending>>,
            rx: mpsc::Receiver<Reply>,
        },
        /// In `recv_timeout`.
        Waiting(mpsc::Receiver<Reply>),
        /// Answered, or gave up.
        Done,
    }

    /// The role protocol over every interleaving a seed can reach: the
    /// real `WorkQueue`, driven one step of one connection thread at a
    /// time. `Reply::Failed` stands in for an answer.
    struct Model<'a> {
        queue: &'a WorkQueue,
        max: usize,
        /// By ticket.
        clients: Vec<Client<'a>>,
    }

    impl<'a> Model<'a> {
        fn push(&mut self) {
            let Ok(Submitted { ticket, role, rx }) = submit(self.queue) else {
                return;
            };
            assert_eq!(ticket as usize, self.clients.len());
            self.clients.push(match role {
                Some(role) => Client::Executing {
                    role,
                    batch: None,
                    rx,
                },
                None => Client::Waiting(rx),
            });
        }

        /// One step of client `c`; false if it has none left to take.
        fn step(&mut self, c: usize) -> bool {
            match std::mem::replace(&mut self.clients[c], Client::Done) {
                Client::Executing {
                    role,
                    batch: None,
                    rx,
                } => {
                    let batch = Some(role.drain(self.max, Duration::ZERO));
                    self.clients[c] = Client::Executing { role, batch, rx };
                }
                Client::Executing {
                    role,
                    batch: Some(batch),
                    rx,
                } => {
                    self.clients[c] = Client::Waiting(rx);
                    for p in batch {
                        self.answer(p);
                    }
                    drop(role);
                }
                Client::Waiting(rx) => match rx.try_recv() {
                    Ok(Reply::Lead) => {
                        let role = self.queue.role(c as u64);
                        self.clients[c] = Client::Executing {
                            role,
                            batch: None,
                            rx,
                        };
                    }
                    Ok(_) => {}
                    Err(_) => {
                        self.clients[c] = Client::Waiting(rx);
                        return false;
                    }
                },
                Client::Done => return false,
            }
            true
        }

        /// `p.reply.send(..)` of `execute_batch`: blocks while `p`'s slot
        /// holds an unread `Lead`, which its thread must be there to read.
        fn answer(&mut self, p: Pending) {
            if let Err(mpsc::TrySendError::Full(reply)) = p.reply.try_send(Reply::Failed) {
                let c = p.ticket as usize;
                assert!(
                    matches!(self.clients[c], Client::Waiting(_)),
                    "an answer is blocked behind a Lead sent to a thread that holds a role"
                );
                assert!(self.step(c), "the full slot holds a Lead");
                assert!(p.reply.try_send(reply).is_ok(), "the slot was read");
            }
        }

        fn give_up(&mut self, c: usize) {
            match std::mem::replace(&mut self.clients[c], Client::Done) {
                Client::Waiting(rx) => {
                    let last = self.queue.give_up(rx, c as u64);
                    assert!(!matches!(last, Some(Reply::Lead)));
                }
                busy => self.clients[c] = busy,
            }
        }

        fn check(&self) {
            let s = self.queue.state.lock().unwrap();
            assert!(s.executing <= self.queue.cap, "more roles than the cap");
            let holders = self
                .clients
                .iter()
                .filter(|c| matches!(c, Client::Executing { .. }))
                .count();
            assert!(s.executing >= holders, "a held role is not counted");
            // nobody waits in the queue while a role is free
            for p in &s.items {
                let waits = matches!(self.clients[p.ticket as usize], Client::Waiting(_));
                assert!(
                    p.led || !waits || s.executing == self.queue.cap,
                    "submission {} waits with {} of {} roles held",
                    p.ticket,
                    s.executing,
                    self.queue.cap
                );
            }
        }

        /// Let every thread run until none can move.
        fn settle(&mut self) {
            while (0..self.clients.len()).fold(false, |moved, c| self.step(c) | moved) {
                self.check();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_role_protocol_holds_on_every_interleaving(
            cap in 1usize..4,
            max in 1usize..4,
            ops in proptest::collection::vec((0u8..8, 0usize..64), 0..80),
        ) {
            let queue = WorkQueue::new(6, cap);
            let mut model = Model { queue: &queue, max, clients: Vec::new() };
            for (op, pick) in ops {
                let c = pick % model.clients.len().max(1);
                match op {
                    0 | 1 => model.push(),
                    2 => {
                        if c < model.clients.len() {
                            model.give_up(c);
                        }
                    }
                    _ => {
                        if c < model.clients.len() {
                            model.step(c);
                        }
                    }
                }
                model.check();
            }
            model.settle();
            // everything still waited for was answered, every role is
            // back, and no channel holds a `Lead` nobody will read
            for (c, client) in model.clients.iter().enumerate() {
                prop_assert!(matches!(client, Client::Done), "submission {c} was never answered");
            }
            prop_assert_eq!(queue.executing(), 0);
            // what is left queued was abandoned: the next admission
            // takes a role and, batch by batch, all of it
            while queue.depth() > 0 {
                model.push();
                model.settle();
                prop_assert_eq!(queue.executing(), 0);
            }
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
