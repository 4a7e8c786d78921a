//! # rpq-trace — structured tracing and per-query profiling
//!
//! A dependency-free observability substrate shared by every layer of the
//! engine: the planner, the hop-label and sharded indices, the updatable
//! engine's apply pipeline, and the HTTP server all record into the same
//! process-wide [`Tracer`].
//!
//! Two complementary facilities live here:
//!
//! * **Spans and events** — [`Tracer::span`] times a region of code and
//!   deposits a [`TraceEvent`] into a fixed-size ring buffer when it
//!   drops. The ring is a diagnostic flight recorder: the server exposes
//!   it as JSON lines under `GET /debug/trace`.
//! * **Query profiles** — [`QueryProfile`] is a per-query breakdown
//!   (chosen plan + the planner's rationale, contiguous stage timings,
//!   probe counts, memo hit/miss and the lookup's kind, shard fan-out,
//!   matches, the canonical query) built by the engine's
//!   `run_query_profiled` path and served over
//!   `POST /v1/explain`.
//!
//! ## Overhead guarantee
//!
//! The tracer is **disabled by default**. While disabled, every
//! instrumentation site costs exactly one `Relaxed` atomic load — no
//! clock read, no allocation, no lock. The *enabled* cost is measured by
//! the ledger (`bench/`): its `trace.overhead_pct` metric compares
//! one-connection p50 latency with the tracer on and off.
//!
//! When enabled, recording an event takes one `Relaxed` fetch-add to
//! claim a ring slot plus one per-slot mutex (never contended unless two
//! writers lap the ring simultaneously at the same slot) — writers on
//! different slots never serialize against each other.
//!
//! ```
//! let tracer = rpq_trace::Tracer::new(64);
//! tracer.set_enabled(true);
//! {
//!     let mut span = tracer.span("demo", "warmup");
//!     span.detail("n=3");
//! } // recorded on drop
//! assert_eq!(tracer.recent().len(), 1);
//! assert_eq!(tracer.recent()[0].scope, "demo");
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One recorded event: a named, timed region of code with free-form
/// detail, stamped with a global sequence number and a microsecond
/// offset from the tracer's creation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (monotone across threads).
    pub seq: u64,
    /// Microseconds since the tracer was created, at record time.
    pub at_us: u64,
    /// Subsystem that recorded the event (e.g. `"planner"`, `"hop-repair"`).
    pub scope: &'static str,
    /// Event name within the scope (e.g. `"invalidate"`, `"execute"`).
    pub name: String,
    /// Duration of the spanned region, in microseconds (0 for instants).
    pub dur_us: u64,
    /// Free-form key=value detail.
    pub detail: String,
}

impl TraceEvent {
    /// Render the event as one line of JSON.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"at_us\":{},\"scope\":\"{}\",\"name\":\"{}\",\"dur_us\":{},\"detail\":\"{}\"}}",
            self.seq,
            self.at_us,
            escape_json(self.scope),
            escape_json(&self.name),
            self.dur_us,
            escape_json(&self.detail),
        )
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Lock-light tracer: an enabled flag plus a fixed-size ring buffer of
/// [`TraceEvent`]s. See the crate docs for the overhead guarantee.
pub struct Tracer {
    enabled: AtomicBool,
    seq: AtomicU64,
    epoch: Instant,
    ring: Vec<Mutex<Option<TraceEvent>>>,
    slow_queries: AtomicU64,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .field("capacity", &self.ring.len())
            .field("recorded", &self.seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl Tracer {
    /// A tracer with a ring of `capacity` slots (at least 1), disabled.
    pub fn new(capacity: usize) -> Tracer {
        let capacity = capacity.max(1);
        Tracer {
            enabled: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            epoch: Instant::now(),
            ring: (0..capacity).map(|_| Mutex::new(None)).collect(),
            slow_queries: AtomicU64::new(0),
        }
    }

    /// Is recording on? One `Relaxed` load — this is the only cost an
    /// instrumentation site pays while the tracer is disabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off. Callable at any time, from any thread.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Start a span; the event is recorded when the guard drops. While
    /// the tracer is disabled this reads no clock and records nothing.
    #[inline]
    pub fn span<'a>(&'a self, scope: &'static str, name: &str) -> Span<'a> {
        if !self.enabled() {
            return Span {
                tracer: self,
                scope,
                name: String::new(),
                started: None,
                detail: String::new(),
            };
        }
        Span {
            tracer: self,
            scope,
            name: name.to_owned(),
            started: Some(Instant::now()),
            detail: String::new(),
        }
    }

    /// Record an instantaneous event (no duration) with free-form detail.
    #[inline]
    pub fn event(&self, scope: &'static str, name: &str, detail: &str) {
        if !self.enabled() {
            return;
        }
        self.record(scope, name.to_owned(), Duration::ZERO, detail.to_owned());
    }

    /// Record a completed region with an explicit duration.
    #[inline]
    pub fn record_span(&self, scope: &'static str, name: &str, dur: Duration, detail: &str) {
        if !self.enabled() {
            return;
        }
        self.record(scope, name.to_owned(), dur, detail.to_owned());
    }

    fn record(&self, scope: &'static str, name: String, dur: Duration, detail: String) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let event = TraceEvent {
            seq,
            at_us: self.epoch.elapsed().as_micros() as u64,
            scope,
            name,
            dur_us: dur.as_micros() as u64,
            detail,
        };
        let slot = (seq % self.ring.len() as u64) as usize;
        // per-slot lock: writers on different slots never contend
        *self.ring[slot].lock().unwrap() = Some(event);
    }

    /// Count a query that exceeded the configured slow-query threshold.
    /// Surfaced by the server as `rpq_slow_queries_total`.
    pub fn note_slow_query(&self) {
        self.slow_queries.fetch_add(1, Ordering::Relaxed);
    }

    /// Total slow queries noted since creation.
    pub fn slow_queries(&self) -> u64 {
        self.slow_queries.load(Ordering::Relaxed)
    }

    /// Snapshot the ring's surviving events, oldest first. Events being
    /// written concurrently are either fully present or absent — never
    /// torn (each slot is handed out under its own mutex).
    pub fn recent(&self) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .ring
            .iter()
            .filter_map(|slot| slot.lock().unwrap().clone())
            .collect();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// The ring as JSON lines (one event object per line, oldest first).
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for e in self.recent() {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

/// RAII guard returned by [`Tracer::span`]; records a [`TraceEvent`]
/// with the elapsed duration when dropped (if the tracer was enabled
/// when the span started).
pub struct Span<'a> {
    tracer: &'a Tracer,
    scope: &'static str,
    name: String,
    started: Option<Instant>,
    detail: String,
}

impl Span<'_> {
    /// Attach (or extend) free-form `key=value` detail. No-op when the
    /// span is disabled, so callers may format eagerly only when live.
    pub fn detail(&mut self, detail: &str) {
        if self.started.is_none() {
            return;
        }
        if !self.detail.is_empty() {
            self.detail.push(' ');
        }
        self.detail.push_str(detail);
    }

    /// Is this span actually recording? Lets callers skip expensive
    /// detail formatting when the tracer is off.
    pub fn is_recording(&self) -> bool {
        self.started.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(started) = self.started {
            self.tracer.record(
                self.scope,
                std::mem::take(&mut self.name),
                started.elapsed(),
                std::mem::take(&mut self.detail),
            );
        }
    }
}

/// The process-wide tracer (ring of 4096 events, disabled until
/// something calls [`Tracer::set_enabled`] — `rpq-server` does at
/// startup). Library code records through this so instrumentation does
/// not need a handle threaded through every layer.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| Tracer::new(4096))
}

/// One timed stage of a profiled query. Stages are contiguous
/// sub-intervals of a single clock, so their durations sum to the
/// profile's wall time (within instrumentation noise).
#[derive(Debug, Clone)]
pub struct StageTiming {
    /// Stage name (`"plan"`, `"prepare"`, `"eval"`, …).
    pub name: &'static str,
    /// Time spent in the stage.
    pub duration: Duration,
    /// Free-form detail (e.g. `"matrix prebuilt"`, `"probes=124"`).
    pub detail: String,
}

/// Per-query execution profile: what plan ran, why, and where the time
/// went. Built by the engine's `run_query_profiled` surface and served
/// over `POST /v1/explain`.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    /// Compact rendering of the query itself.
    pub query: String,
    /// Name of the chosen plan variant (e.g. `"hop"`, `"SplitMatch/DM"`).
    pub plan: String,
    /// The planner's rationale, including crossover values at decision
    /// time (e.g. `"cyclic pattern, size 9 >= crossover 16"`).
    pub rationale: String,
    /// Contiguous stage timings; they sum to [`wall`](QueryProfile::wall)
    /// within instrumentation noise.
    pub stages: Vec<StageTiming>,
    /// Index distance probes issued (0 when the plan does not probe). A
    /// PQ's are its refinement's: result assembly scans the graph and is
    /// not counted.
    pub probes: u64,
    /// Batch-memo hits attributable to this query.
    pub memo_hits: u64,
    /// Batch-memo misses attributable to this query.
    pub memo_misses: u64,
    /// Shards scattered to (0 for unsharded plans).
    pub shard_fanout: u32,
    /// Result size (pairs for an RQ, matched nodes for a PQ).
    pub matches: u64,
    /// Semantic-cache outcome for the evaluation: `"exact_hit"`,
    /// `"subsumption_hit"`, `"miss"`, or empty when the plan never
    /// consulted the cache.
    pub semcache: String,
    /// The canonical (minimized, run-normal) form the query was planned
    /// and cached under; empty when identical to the submitted form.
    pub canonical: String,
    /// End-to-end wall time of the profiled run.
    pub wall: Duration,
}

impl QueryProfile {
    /// A profile shell with the given query/plan/rationale and no
    /// stages; callers push [`StageTiming`]s and fill the counters.
    pub fn new(query: String, plan: String, rationale: String) -> QueryProfile {
        QueryProfile {
            query,
            plan,
            rationale,
            stages: Vec::new(),
            probes: 0,
            memo_hits: 0,
            memo_misses: 0,
            shard_fanout: 0,
            matches: 0,
            semcache: String::new(),
            canonical: String::new(),
            wall: Duration::ZERO,
        }
    }

    /// Push a stage timing.
    pub fn stage(&mut self, name: &'static str, duration: Duration, detail: String) {
        self.stages.push(StageTiming {
            name,
            duration,
            detail,
        });
    }

    /// Sum of all stage durations.
    pub fn stage_total(&self) -> Duration {
        self.stages.iter().map(|s| s.duration).sum()
    }

    /// Render the profile as one JSON object.
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":\"{}\",\"us\":{},\"detail\":\"{}\"}}",
                    escape_json(s.name),
                    s.duration.as_micros(),
                    escape_json(&s.detail),
                )
            })
            .collect();
        format!(
            "{{\"query\":\"{}\",\"plan\":\"{}\",\"rationale\":\"{}\",\"stages\":[{}],\
             \"probes\":{},\"memo_hits\":{},\"memo_misses\":{},\"shard_fanout\":{},\
             \"matches\":{},\"semcache\":\"{}\",\"canonical\":\"{}\",\
             \"wall_us\":{}}}",
            escape_json(&self.query),
            escape_json(&self.plan),
            escape_json(&self.rationale),
            stages.join(","),
            self.probes,
            self.memo_hits,
            self.memo_misses,
            self.shard_fanout,
            self.matches,
            escape_json(&self.semcache),
            escape_json(&self.canonical),
            self.wall.as_micros(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(8);
        {
            let mut s = t.span("test", "noop");
            s.detail("ignored");
            assert!(!s.is_recording());
        }
        t.event("test", "noop", "ignored");
        assert!(t.recent().is_empty());
        assert_eq!(t.to_json_lines(), "");
    }

    #[test]
    fn span_records_on_drop_with_detail() {
        let t = Tracer::new(8);
        t.set_enabled(true);
        {
            let mut s = t.span("scope", "work");
            assert!(s.is_recording());
            s.detail("k=1");
            s.detail("j=2");
        }
        let events = t.recent();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].scope, "scope");
        assert_eq!(events[0].name, "work");
        assert_eq!(events[0].detail, "k=1 j=2");
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let t = Tracer::new(4);
        t.set_enabled(true);
        for i in 0..10 {
            t.event("test", &format!("e{i}"), "");
        }
        let events = t.recent();
        assert_eq!(events.len(), 4);
        // oldest first, and only the last 4 survive the wraparound
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["e6", "e7", "e8", "e9"]);
    }

    #[test]
    fn json_lines_escape_and_parse_shape() {
        let t = Tracer::new(4);
        t.set_enabled(true);
        t.event("test", "quote\"backslash\\", "tab\there");
        let line = t.to_json_lines();
        assert!(line.contains("quote\\\"backslash\\\\"));
        assert!(line.contains("tab\\there"));
        assert!(line.trim().starts_with('{') && line.trim().ends_with('}'));
    }

    #[test]
    fn concurrent_writers_never_tear_events() {
        let t = Arc::new(Tracer::new(64));
        t.set_enabled(true);
        let writers: Vec<_> = (0..8)
            .map(|w| {
                let t = Arc::clone(&t);
                thread::spawn(move || {
                    for i in 0..200 {
                        let mut s = t.span("writer", &format!("w{w}"));
                        s.detail(&format!("i={i}"));
                    }
                })
            })
            .collect();
        // render mid-flight: every snapshot must hold only whole events
        for _ in 0..50 {
            for e in t.recent() {
                assert_eq!(e.scope, "writer");
                assert!(e.name.starts_with('w'), "torn name: {:?}", e.name);
                assert!(e.detail.starts_with("i="), "torn detail: {:?}", e.detail);
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(t.recent().len(), 64);
    }

    #[test]
    fn profile_stages_sum_and_json() {
        let mut p = QueryProfile::new("rq …".into(), "hop".into(), "labels usable".into());
        p.stage("plan", Duration::from_micros(5), String::new());
        p.stage("eval", Duration::from_micros(95), "probes=12".into());
        p.probes = 12;
        p.wall = Duration::from_micros(100);
        assert_eq!(p.stage_total(), Duration::from_micros(100));
        let json = p.to_json();
        assert!(json.contains("\"plan\":\"hop\""));
        assert!(json.contains("\"probes\":12"));
        assert!(json.contains("\"wall_us\":100"));
    }

    #[test]
    fn global_tracer_is_shared_and_starts_disabled() {
        let a = tracer() as *const Tracer;
        let b = tracer() as *const Tracer;
        assert_eq!(a, b);
        assert_eq!(tracer().capacity(), 4096);
    }
}
