//! Lock-free serving metrics: counters plus log-bucketed latency
//! histograms, rendered as the Prometheus text exposition `/metrics`
//! serves.
//!
//! Every hot-path touch is a relaxed atomic increment; percentile math
//! happens only at scrape time. The histogram is log₂-bucketed with four
//! sub-buckets per octave, and quantiles interpolate linearly *within*
//! the landing bucket (≤ one sub-bucket width of error instead of the
//! mid-bucket ~19%), which is plenty for p50/p99 serving dashboards and
//! needs no allocation and no locks. The one lock in this module guards
//! the repair-phase accumulators, touched once per update, never per
//! query.
//!
//! The memo's lookup counts are not kept here: the live engine keeps the
//! one tally of them, and `/metrics` renders it as sampled at scrape time
//! ([`Gauges::semantic`]).

use rpq_engine::{Plan, SemanticStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const LINEAR_CUTOFF: u64 = 16;
const SUBBUCKETS: usize = 4;
const BUCKETS: usize = LINEAR_CUTOFF as usize + (64 - 4) * SUBBUCKETS;

/// Fixed-size histogram of microsecond latencies.
pub struct LatencyHistogram {
    buckets: Vec<AtomicU64>, // BUCKETS entries
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

fn bucket_of(us: u64) -> usize {
    if us < LINEAR_CUTOFF {
        return us as usize;
    }
    let octave = 63 - us.leading_zeros() as usize; // >= 4
    let sub = ((us >> (octave - 2)) & 0b11) as usize;
    LINEAR_CUTOFF as usize + (octave - 4) * SUBBUCKETS + sub
}

/// Inclusive lower edge of a bucket, in µs.
fn bucket_low(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        return idx as u64;
    }
    let rest = idx - LINEAR_CUTOFF as usize;
    let octave = rest / SUBBUCKETS + 4;
    let sub = (rest % SUBBUCKETS) as u128;
    let v = (1u128 << octave) + sub * (1u128 << (octave - 2));
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Inclusive upper edge of a bucket, in µs (the largest value that maps
/// into it).
fn bucket_max(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        return idx as u64;
    }
    let rest = idx - LINEAR_CUTOFF as usize;
    let octave = rest / SUBBUCKETS + 4;
    let sub = (rest % SUBBUCKETS) as u128;
    let v = (1u128 << octave) + (sub + 1) * (1u128 << (octave - 2)) - 1;
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Representative (mid-bucket) value, in µs — the fallback when a
/// quantile rank lands past every populated bucket.
fn bucket_value(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        return idx as u64;
    }
    let rest = idx - LINEAR_CUTOFF as usize;
    let octave = rest / SUBBUCKETS + 4;
    let sub = (rest % SUBBUCKETS) as u128;
    // low edge of the sub-bucket plus half a sub-bucket width; u128
    // intermediate because the top octave's upper edge is 2^64
    let v = (1u128 << octave) + (sub + 1) * (1u128 << (octave - 2)) - (1u128 << (octave - 3));
    u64::try_from(v).unwrap_or(u64::MAX)
}

impl LatencyHistogram {
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of every recorded value, in µs (the Prometheus `_sum` series).
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// The value at quantile `q` ∈ [0, 1], or 0 with no samples.
    ///
    /// The rank is located in its bucket and then **interpolated
    /// linearly** across the bucket's value range (midpoint convention:
    /// the `j`-th of `c` samples in a bucket sits at fraction
    /// `(j − ½) / c`). Against the old mid-bucket answer this cuts the
    /// worst-case error from half an octave to one sub-bucket width and
    /// makes quantiles of dense uniform data land on the exact rank
    /// value.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let frac = ((rank - seen) as f64 - 0.5) / c as f64;
                let low = bucket_low(i) as f64;
                let span = (bucket_max(i) - bucket_low(i)) as f64;
                return (low + frac * span).round() as u64;
            }
            seen += c;
        }
        bucket_value(BUCKETS - 1)
    }

    /// Samples with a value ≤ `bound_us`. Exact when `bound_us` is a
    /// bucket edge (powers of two are), which is how the Prometheus
    /// histogram `le` bounds are chosen.
    fn cumulative_le(&self, bound_us: u64) -> u64 {
        self.buckets
            .iter()
            .enumerate()
            .take_while(|(i, _)| bucket_low(*i) <= bound_us)
            .filter(|(i, _)| bucket_max(*i) <= bound_us)
            .map(|(_, b)| b.load(Ordering::Relaxed))
            .sum()
    }
}

/// `le` bounds (µs) of the Prometheus request-latency histogram — octave
/// edges, so the cumulative counts are exact, spanning 16 µs … ~4 s.
const PROM_LE_BOUNDS_US: [u64; 10] = [
    16, 64, 256, 1024, 4096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304,
];

/// The server's metrics registry. One instance per [`Server`], shared by
/// every connection thread: what the server itself sees — requests,
/// latencies, writes. What the engine counts, memo lookups among it, is
/// sampled from the engine at scrape time ([`Gauges`]).
///
/// [`Server`]: crate::Server
pub struct Metrics {
    started: Instant,
    /// Individual queries answered (batch of 8 counts 8).
    pub queries: AtomicU64,
    /// Query requests answered (batch of 8 counts 1).
    pub query_requests: AtomicU64,
    /// Updates applied.
    pub updates: AtomicU64,
    /// Update requests answered.
    pub update_requests: AtomicU64,
    /// Requests refused with 429 because the admission queue was full.
    pub rejected: AtomicU64,
    /// Requests answered with a 4xx/5xx other than 429.
    pub errors: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Update batches whose label index was carried through an
    /// incremental repair ([`IndexState::Repaired`]).
    ///
    /// [`IndexState::Repaired`]: rpq_engine::IndexState::Repaired
    pub index_repairs: AtomicU64,
    /// Update batches whose label index was rebuilt from scratch inside
    /// the write ([`IndexState::Built`]).
    ///
    /// [`IndexState::Built`]: rpq_engine::IndexState::Built
    pub index_rebuilds: AtomicU64,
    /// Cumulative landmarks invalidated across every repair (the work the
    /// incremental path did instead of full rebuilds).
    pub landmarks_invalidated: AtomicU64,
    /// Micros since `started` at the last moment the label index was
    /// known fresh (a `Repaired` or `Built` publication). Zero = never.
    index_fresh_at_us: AtomicU64,
    /// Batches whose evaluation panicked: every submission in one was
    /// answered 500, and the connection threads lived on.
    pub worker_panics: AtomicU64,
    /// Request latency (admission to response ready), µs.
    pub latency: LatencyHistogram,
    /// Per-plan engine evaluation latency: one histogram per row of
    /// [`Plan::ALL`], in its order.
    plan_latency: [LatencyHistogram; Plan::ALL.len()],
    /// Cumulative time per apply/repair phase, folded from
    /// [`IndexMaintenance::phases`](rpq_engine::IndexMaintenance) —
    /// exported as `rpq_repair_phase_seconds_total{phase=...}`. Summed as
    /// `Duration`s, so no phase loses its sub-µs remainder on a write.
    repair_phases: Mutex<Vec<(&'static str, Duration)>>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics {
            started: Instant::now(),
            queries: AtomicU64::new(0),
            query_requests: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            update_requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            index_repairs: AtomicU64::new(0),
            index_rebuilds: AtomicU64::new(0),
            landmarks_invalidated: AtomicU64::new(0),
            index_fresh_at_us: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
            plan_latency: std::array::from_fn(|_| LatencyHistogram::default()),
            repair_phases: Mutex::new(Vec::new()),
        }
    }

    /// The evaluation-latency histogram of `plan`.
    pub fn plan_histogram(&self, plan: Plan) -> &LatencyHistogram {
        let row = Plan::ALL.iter().position(|&p| p == plan);
        &self.plan_latency[row.expect("Plan::ALL lists every plan")]
    }

    /// Fold one update's index-maintenance outcome into the counters:
    /// `Repaired` counts a repair, `Built` a rebuild inside the write, and
    /// both publish a complete new index, so both refresh the freshness
    /// clock; `Stale` (matrix regime) does neither. Phase durations
    /// accumulate into the `rpq_repair_phase_seconds_total` family.
    pub fn record_index(&self, m: &rpq_engine::IndexMaintenance) {
        let counter = match m.state {
            rpq_engine::IndexState::Repaired => Some(&self.index_repairs),
            rpq_engine::IndexState::Built => Some(&self.index_rebuilds),
            rpq_engine::IndexState::Stale => None,
        };
        if let Some(counter) = counter {
            counter.fetch_add(1, Ordering::Relaxed);
            let us = (self.started.elapsed().as_micros() as u64).max(1);
            self.index_fresh_at_us.store(us, Ordering::Relaxed);
        }
        self.landmarks_invalidated
            .fetch_add(m.landmarks_invalidated as u64, Ordering::Relaxed);
        if !m.phases.is_empty() {
            let mut acc = self.repair_phases.lock().expect("phase accumulator lock");
            for &(phase, dur) in &m.phases {
                match acc.iter_mut().find(|(name, _)| *name == phase) {
                    Some((_, total)) => *total += dur,
                    None => acc.push((phase, dur)),
                }
            }
        }
    }

    /// Seconds since the label index was last published fresh (a
    /// `Repaired` or `Built` apply). Falls back to the server's uptime
    /// when no write has published an index yet — "fresh at some point
    /// before we started" is the most honest bound available.
    pub fn index_fresh_secs(&self) -> f64 {
        let at = self.index_fresh_at_us.load(Ordering::Relaxed);
        if at == 0 {
            return self.uptime_secs();
        }
        (self.uptime_secs() - at as f64 / 1e6).max(0.0)
    }

    pub fn uptime_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64().max(1e-9)
    }

    /// Render the Prometheus text exposition (format 0.0.4) — the
    /// `/metrics` body. The queue- and engine-side [`Gauges`] are sampled
    /// by the caller at scrape time. Families:
    ///
    /// * `rpq_*_total` counters, including `rpq_slow_queries_total` from
    ///   the process tracer;
    /// * gauges: `rpq_uptime_seconds`, `rpq_queue_depth`,
    ///   `rpq_executors_busy`, `rpq_executors_cap`,
    ///   `rpq_snapshot_version`, `rpq_index_bytes`,
    ///   `rpq_index_fresh_seconds`, one-hot `rpq_index_state{state=...}`,
    ///   `rpq_semcache_bytes{queue="probation"|"main"}`;
    /// * the `rpq_semcache_*` lookup counters, from the engine's tally
    ///   in [`Gauges::semantic`];
    /// * `rpq_request_latency_seconds` histogram with power-of-two `le`
    ///   bounds (cumulative counts are exact, not interpolated);
    /// * per-plan `rpq_plan_latency_seconds{plan=...}` summaries
    ///   (q0.5/q0.99 + `_sum`/`_count`), in [`Plan::ALL`] order, for each
    ///   plan that has served a query;
    /// * `rpq_repair_phase_seconds_total{phase=...}` counters from the
    ///   live engine's apply/repair phase accounting.
    pub fn render_prometheus(&self, gauges: &Gauges) -> String {
        let Gauges {
            queue_depth,
            executors_busy,
            executors_cap,
            snapshot_version,
            index_bytes,
            index_state,
            semcache_bytes,
            semantic,
        } = *gauges;
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::with_capacity(4096);
        let mut counter = |name: &str, help: &str, value: u64| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        };
        counter(
            "rpq_queries_total",
            "Individual queries answered.",
            g(&self.queries),
        );
        counter(
            "rpq_query_requests_total",
            "Query requests answered.",
            g(&self.query_requests),
        );
        counter("rpq_updates_total", "Updates applied.", g(&self.updates));
        counter(
            "rpq_update_requests_total",
            "Update requests answered.",
            g(&self.update_requests),
        );
        counter(
            "rpq_rejected_total",
            "Requests refused with 429 backpressure.",
            g(&self.rejected),
        );
        counter(
            "rpq_errors_total",
            "Requests answered with a non-429 4xx/5xx.",
            g(&self.errors),
        );
        counter(
            "rpq_connections_total",
            "Connections accepted.",
            g(&self.connections),
        );
        counter(
            "rpq_index_repairs_total",
            "Update batches whose label index was repaired incrementally.",
            g(&self.index_repairs),
        );
        counter(
            "rpq_index_rebuilds_total",
            "Update batches that rebuilt the index inside the write.",
            g(&self.index_rebuilds),
        );
        counter(
            "rpq_landmarks_invalidated_total",
            "Landmarks re-run across every incremental repair.",
            g(&self.landmarks_invalidated),
        );
        counter(
            "rpq_slow_queries_total",
            "Queries over the configured slow-query threshold.",
            rpq_trace::tracer().slow_queries(),
        );
        counter(
            "rpq_semcache_misses_total",
            "Semantic reach-cache lookups no cached entry could answer.",
            semantic.misses,
        );
        counter(
            "rpq_semcache_patched_total",
            "Semantic reach-cache misses answered by patching a reach set \
             inherited from an earlier graph version (a subset of the misses).",
            semantic.patched,
        );
        counter(
            "rpq_semcache_declined_total",
            "Semantic reach-cache misses a full cache answered without \
             installing the reach set: the key held neither a cell nor a \
             ghost-set slot, having been neither evicted nor missed since \
             the cache first evicted a cell (a subset of the misses).",
            semantic.declined,
        );
        counter(
            "rpq_worker_panics_total",
            "Batches whose evaluation panicked (answered 500).",
            g(&self.worker_panics),
        );

        out.push_str(concat!(
            "# HELP rpq_semcache_hits_total Semantic reach-cache hits by kind.\n",
            "# TYPE rpq_semcache_hits_total counter\n"
        ));
        for (kind, v) in [
            ("exact", semantic.exact_hits),
            ("subsumption", semantic.subsumption_hits),
        ] {
            out.push_str(&format!("rpq_semcache_hits_total{{kind=\"{kind}\"}} {v}\n"));
        }
        out.push_str(&format!(
            concat!(
                "# HELP rpq_semcache_filter_seconds_total Time spent filtering cached ",
                "reach sets for subsumption answers.\n",
                "# TYPE rpq_semcache_filter_seconds_total counter\n",
                "rpq_semcache_filter_seconds_total {}\n"
            ),
            semantic.filter_time.as_secs_f64()
        ));

        let mut gauge = |name: &str, help: &str, value: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        };
        gauge(
            "rpq_uptime_seconds",
            "Seconds since the server started.",
            // shortest round-trip form: a young server's uptime stays positive
            self.uptime_secs().to_string(),
        );
        gauge(
            "rpq_queue_depth",
            "Admission-queue depth at scrape time.",
            queue_depth.to_string(),
        );
        gauge(
            "rpq_executors_busy",
            "Executor roles held at scrape time (batches in flight).",
            executors_busy.to_string(),
        );
        gauge(
            "rpq_executors_cap",
            "Most batches that run at once (the server's executor roles).",
            executors_cap.to_string(),
        );
        gauge(
            "rpq_snapshot_version",
            "Currently published snapshot version.",
            snapshot_version.to_string(),
        );
        gauge(
            "rpq_index_bytes",
            "Resident bytes of the current snapshot's shared indices.",
            index_bytes.to_string(),
        );
        gauge(
            "rpq_index_fresh_seconds",
            "Seconds since the label index was last published fresh.",
            format!("{:.3}", self.index_fresh_secs()),
        );
        out.push_str(concat!(
            "# HELP rpq_index_state Current index state, one-hot.\n",
            "# TYPE rpq_index_state gauge\n"
        ));
        for state in ["stale", "repaired", "built"] {
            out.push_str(&format!(
                "rpq_index_state{{state=\"{state}\"}} {}\n",
                u8::from(state == index_state)
            ));
        }
        out.push_str(concat!(
            "# HELP rpq_semcache_bytes Bytes the current snapshot's semantic reach ",
            "cache charges: reach sets on probation (not read since installed), ",
            "and main (read reach sets, and every kept answer).\n",
            "# TYPE rpq_semcache_bytes gauge\n"
        ));
        for (queue, bytes) in [("probation", semcache_bytes.0), ("main", semcache_bytes.1)] {
            out.push_str(&format!(
                "rpq_semcache_bytes{{queue=\"{queue}\"}} {bytes}\n"
            ));
        }

        out.push_str(concat!(
            "# HELP rpq_request_latency_seconds Request latency, admission to response ready.\n",
            "# TYPE rpq_request_latency_seconds histogram\n"
        ));
        for bound in PROM_LE_BOUNDS_US {
            out.push_str(&format!(
                "rpq_request_latency_seconds_bucket{{le=\"{}\"}} {}\n",
                bound as f64 / 1e6,
                self.latency.cumulative_le(bound)
            ));
        }
        out.push_str(&format!(
            "rpq_request_latency_seconds_bucket{{le=\"+Inf\"}} {}\n",
            self.latency.count()
        ));
        out.push_str(&format!(
            "rpq_request_latency_seconds_sum {}\n",
            self.latency.sum_us() as f64 / 1e6
        ));
        out.push_str(&format!(
            "rpq_request_latency_seconds_count {}\n",
            self.latency.count()
        ));

        let plans = Plan::ALL.iter().zip(&self.plan_latency);
        let mut plans = plans.filter(|(_, h)| h.count() > 0).peekable();
        if plans.peek().is_some() {
            out.push_str(concat!(
                "# HELP rpq_plan_latency_seconds Engine evaluation latency per plan variant.\n",
                "# TYPE rpq_plan_latency_seconds summary\n"
            ));
        }
        for (plan, h) in plans {
            let plan = plan.name();
            for (q, label) in [(0.50, "0.5"), (0.99, "0.99")] {
                out.push_str(&format!(
                    "rpq_plan_latency_seconds{{plan=\"{plan}\",quantile=\"{label}\"}} {}\n",
                    h.quantile(q) as f64 / 1e6
                ));
            }
            out.push_str(&format!(
                "rpq_plan_latency_seconds_sum{{plan=\"{plan}\"}} {}\n",
                h.sum_us() as f64 / 1e6
            ));
            out.push_str(&format!(
                "rpq_plan_latency_seconds_count{{plan=\"{plan}\"}} {}\n",
                h.count()
            ));
        }

        let phases = self.repair_phases.lock().expect("phase accumulator lock");
        if !phases.is_empty() {
            out.push_str(concat!(
                "# HELP rpq_repair_phase_seconds_total Cumulative apply/repair phase time.\n",
                "# TYPE rpq_repair_phase_seconds_total counter\n"
            ));
            for (phase, total) in phases.iter() {
                out.push_str(&format!(
                    "rpq_repair_phase_seconds_total{{phase=\"{phase}\"}} {}\n",
                    total.as_secs_f64()
                ));
            }
        }
        out
    }
}

/// What [`Metrics::render_prometheus`] cannot count for itself: the
/// admission queue's and the engine's state, sampled at scrape time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Submissions in the admission queue.
    pub queue_depth: usize,
    /// Executor roles held (batches in flight).
    pub executors_busy: usize,
    /// Most batches that run at once.
    pub executors_cap: usize,
    /// Currently published snapshot version.
    pub snapshot_version: u64,
    /// Resident bytes of the current snapshot's index
    /// ([`Snapshot::index_bytes`](rpq_engine::Snapshot::index_bytes)).
    pub index_bytes: u64,
    /// The current snapshot's
    /// [`IndexState::as_str`](rpq_engine::IndexState::as_str).
    pub index_state: &'static str,
    /// The current snapshot's memo bytes on probation and in main
    /// ([`Snapshot::memo_queue_bytes`](rpq_engine::Snapshot::memo_queue_bytes)).
    pub semcache_bytes: (usize, usize),
    /// The live engine's memo lookups since it was built
    /// ([`Snapshot::semantic_stats`](rpq_engine::Snapshot::semantic_stats)):
    /// the `rpq_semcache_*` counters.
    pub semantic: SemanticStats,
}

/// The value of `series` (metric name with its label set verbatim)
/// among the samples [`parse_prometheus_text`] returned.
pub fn sample(samples: &[(String, f64)], series: &str) -> Option<f64> {
    let found = samples.iter().find(|(s, _)| s == series);
    found.map(|&(_, value)| value)
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

/// Validate a Prometheus text exposition and return its samples as
/// `(series, value)` pairs, where `series` is the metric name with its
/// label set verbatim. Checks the things a scraper would choke on:
/// comment lines must be `# HELP`/`# TYPE` with a known type, sample
/// lines must be `name[{k="v",...}] value` with a parseable value, and
/// the document must contain at least one sample. Used by the CI smoke
/// job to assert `/metrics` round-trips.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut samples = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", i + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(type_decl) = comment.strip_prefix("TYPE ") {
                let kind = type_decl.split_ascii_whitespace().nth(1).unwrap_or("");
                if !matches!(kind, "counter" | "gauge" | "histogram" | "summary") {
                    return err("unknown metric type");
                }
            } else if !comment.starts_with("HELP ") {
                return err("comment is neither HELP nor TYPE");
            }
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            return err("sample line without a value");
        };
        if value.parse::<f64>().is_err() {
            return err("unparseable sample value");
        }
        let name_end = series.find('{').unwrap_or(series.len());
        let name = &series[..name_end];
        let valid_name = !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
        if !valid_name {
            return err("invalid metric name");
        }
        if name_end < series.len() {
            let labels = &series[name_end..];
            let Some(inner) = labels.strip_prefix('{').and_then(|l| l.strip_suffix('}')) else {
                return err("unbalanced label braces");
            };
            // our label values never contain commas or escaped quotes, so
            // a flat split is an exact parse of everything this server emits
            for pair in inner.split(',') {
                let well_formed = pair.split_once('=').is_some_and(|(k, v)| {
                    !k.is_empty() && v.len() >= 2 && v.starts_with('"') && v.ends_with('"')
                });
                if !well_formed {
                    return err("malformed label pair");
                }
            }
        }
        samples.push((series.to_owned(), value.parse::<f64>().unwrap()));
    }
    if samples.is_empty() {
        return Err("no samples in exposition".to_owned());
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The plan named `name`.
    fn plan(name: &str) -> Plan {
        let found = Plan::ALL.into_iter().find(|p| p.name() == name);
        found.unwrap_or_else(|| panic!("no plan is named {name}"))
    }

    #[test]
    fn buckets_are_monotone_and_cover_u64() {
        let mut last = 0;
        for us in [0u64, 1, 15, 16, 17, 100, 1000, 65_536, u64::MAX / 2] {
            let b = bucket_of(us);
            assert!(b >= last, "bucket order broke at {us}");
            last = b;
            assert!(b < BUCKETS);
        }
        // a bucket's representative value maps back into that bucket
        for idx in [0usize, 5, 16, 17, 40, 100, BUCKETS - 1] {
            assert_eq!(bucket_of(bucket_value(idx)), idx, "idx {idx}");
        }
        // the edges invert bucket_of exactly
        for idx in [0usize, 15, 16, 17, 40, 100, 200] {
            assert_eq!(bucket_of(bucket_low(idx)), idx, "low edge of {idx}");
            assert_eq!(bucket_of(bucket_max(idx)), idx, "max edge of {idx}");
            if idx > 0 {
                assert_eq!(bucket_max(idx - 1) + 1, bucket_low(idx), "gap at {idx}");
            }
        }
    }

    #[test]
    fn quantiles_track_recorded_values() {
        let h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.record(us);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        // log-bucket resolution: within ~20% of the exact rank values
        assert!((400..=650).contains(&p50), "p50 = {p50}");
        assert!((800..=1300).contains(&p99), "p99 = {p99}");
        assert!(p50 <= p99);
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum_us(), 500_500);
    }

    /// Pins the intra-bucket interpolation: on dense uniform data the
    /// interpolated quantile lands on (or next to) the exact rank value,
    /// where the old mid-bucket answer was off by up to half an octave
    /// (it returned 480/960 for this distribution).
    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.record(us);
        }
        assert_eq!(h.quantile(0.50), 500);
        assert_eq!(h.quantile(0.99), 1010);
        // a single sample interpolates to its bucket's midpoint, never
        // outside the bucket that recorded it
        let one = LatencyHistogram::default();
        one.record(100);
        let q = one.quantile(0.50);
        assert_eq!(bucket_of(q), bucket_of(100), "q = {q}");
        // sub-16 µs samples are exact (linear buckets)
        let lin = LatencyHistogram::default();
        lin.record(7);
        assert_eq!(lin.quantile(0.99), 7);
    }

    /// Phase times add up as `Duration`s: two 1 500 ns `carry` phases are
    /// 3 µs, where summing whole microseconds would lose both remainders.
    #[test]
    fn repair_phases_keep_their_sub_microsecond_time() {
        let m = Metrics::new();
        let carry = rpq_engine::IndexMaintenance {
            state: rpq_engine::IndexState::Repaired,
            phases: vec![("carry", Duration::from_nanos(1_500))],
            ..Default::default()
        };
        m.record_index(&carry);
        m.record_index(&carry);
        let text = m.render_prometheus(&Gauges::default());
        let samples = parse_prometheus_text(&text).expect("exposition must parse");
        let carried = sample(&samples, "rpq_repair_phase_seconds_total{phase=\"carry\"}");
        assert_eq!(carried, Some(3e-6), "in:\n{text}");
    }

    #[test]
    fn prometheus_exposition_round_trips_the_parser() {
        let m = Metrics::new();
        m.latency.record(120);
        m.latency.record(90_000);
        m.queries.fetch_add(7, Ordering::Relaxed);
        m.plan_histogram(plan("DM")).record(42);
        m.plan_histogram(plan("JoinMatch/hop")).record(4_200);
        m.record_index(&rpq_engine::IndexMaintenance {
            state: rpq_engine::IndexState::Repaired,
            phases: vec![
                ("validate", std::time::Duration::from_micros(10)),
                ("carry", std::time::Duration::from_micros(500)),
            ],
            ..Default::default()
        });
        m.worker_panics.fetch_add(1, Ordering::Relaxed);
        let text = m.render_prometheus(&Gauges {
            queue_depth: 3,
            executors_busy: 1,
            executors_cap: 2,
            snapshot_version: 9,
            index_bytes: 4096,
            index_state: "repaired",
            semcache_bytes: (1024, 8192),
            semantic: SemanticStats {
                exact_hits: 5,
                subsumption_hits: 2,
                misses: 3,
                patched: 2,
                declined: 1,
                filter_time: std::time::Duration::from_micros(1500),
            },
        });
        let samples = parse_prometheus_text(&text).expect("exposition must parse");
        let get = |series: &str| {
            sample(&samples, series)
                .unwrap_or_else(|| panic!("missing series {series} in:\n{text}"))
        };
        assert_eq!(get("rpq_queries_total"), 7.0);
        assert_eq!(get("rpq_queue_depth"), 3.0);
        assert_eq!(get("rpq_executors_busy"), 1.0);
        assert_eq!(get("rpq_executors_cap"), 2.0);
        assert_eq!(get("rpq_worker_panics_total"), 1.0);
        assert_eq!(get("rpq_snapshot_version"), 9.0);
        assert_eq!(get("rpq_index_bytes"), 4096.0);
        assert_eq!(get("rpq_index_state{state=\"repaired\"}"), 1.0);
        assert_eq!(get("rpq_index_state{state=\"stale\"}"), 0.0);
        assert_eq!(get("rpq_semcache_bytes{queue=\"probation\"}"), 1024.0);
        assert_eq!(get("rpq_semcache_bytes{queue=\"main\"}"), 8192.0);
        // exact cumulative counts at power-of-two le edges
        assert_eq!(
            get("rpq_request_latency_seconds_bucket{le=\"0.001024\"}"),
            1.0
        );
        assert_eq!(get("rpq_request_latency_seconds_bucket{le=\"+Inf\"}"), 2.0);
        assert_eq!(get("rpq_request_latency_seconds_count"), 2.0);
        assert!(get("rpq_plan_latency_seconds{plan=\"DM\",quantile=\"0.5\"}") > 0.0);
        assert_eq!(
            get("rpq_plan_latency_seconds_count{plan=\"JoinMatch/hop\"}"),
            1.0
        );
        assert!(get("rpq_repair_phase_seconds_total{phase=\"carry\"}") > 0.0);
        assert_eq!(get("rpq_index_repairs_total"), 1.0);
        assert_eq!(get("rpq_semcache_hits_total{kind=\"exact\"}"), 5.0);
        assert_eq!(get("rpq_semcache_hits_total{kind=\"subsumption\"}"), 2.0);
        assert_eq!(get("rpq_semcache_misses_total"), 3.0);
        assert_eq!(get("rpq_semcache_patched_total"), 2.0);
        assert_eq!(get("rpq_semcache_declined_total"), 1.0);
        assert!((get("rpq_semcache_filter_seconds_total") - 0.0015).abs() < 1e-9);
    }

    #[test]
    fn prometheus_parser_rejects_malformed_documents() {
        assert!(parse_prometheus_text("").is_err(), "empty: no samples");
        assert!(parse_prometheus_text("# FOO bar\nx 1\n").is_err());
        assert!(parse_prometheus_text("rpq_thing\n").is_err(), "no value");
        assert!(parse_prometheus_text("rpq_thing abc\n").is_err());
        assert!(parse_prometheus_text("9bad_name 1\n").is_err());
        assert!(parse_prometheus_text("x{le=\"1\" 1\n").is_err(), "brace");
        assert!(parse_prometheus_text("x{le=1} 1\n").is_err(), "quotes");
        assert!(parse_prometheus_text("# TYPE x wat\nx 1\n").is_err());
        assert!(parse_prometheus_text("x{le=\"+Inf\"} 3\n").is_ok());
    }

    #[test]
    fn concurrent_recording_never_corrupts_totals() {
        use std::sync::Arc;
        let m = Arc::new(Metrics::new());
        let threads = 8;
        let per_thread = 500u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let m = Arc::clone(&m);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        m.latency.record(t * 100 + i);
                        m.queries.fetch_add(1, Ordering::Relaxed);
                        m.plan_histogram(plan(if i % 2 == 0 { "DM" } else { "BFS+memo" }))
                            .record(i);
                    }
                });
            }
            // render concurrently with the writers: must not panic and
            // must stay parseable mid-flight
            for _ in 0..20 {
                let text = m.render_prometheus(&Gauges::default());
                parse_prometheus_text(&text).expect("mid-flight exposition parses");
            }
        });
        let total = threads * per_thread;
        assert_eq!(m.latency.count(), total);
        assert_eq!(m.queries.load(Ordering::Relaxed), total);
        let dm = m.plan_histogram(plan("DM")).count();
        let bfs = m.plan_histogram(plan("BFS+memo")).count();
        assert_eq!(dm + bfs, total);
        assert_eq!(dm, bfs);
    }

    #[test]
    fn index_counters_track_apply_outcomes() {
        let m = Metrics::new();
        let repaired = rpq_engine::IndexMaintenance {
            state: rpq_engine::IndexState::Repaired,
            landmarks_invalidated: 12,
            ..Default::default()
        };
        let built = rpq_engine::IndexMaintenance {
            state: rpq_engine::IndexState::Built,
            ..Default::default()
        };
        // before any repair: freshness falls back to uptime
        assert!((m.index_fresh_secs() - m.uptime_secs()).abs() < 1e-3);
        m.record_index(&repaired);
        m.record_index(&repaired);
        std::thread::sleep(std::time::Duration::from_millis(50));
        let aged = m.index_fresh_secs();
        assert!(aged >= 0.05, "{aged}");
        // a rebuilt index is as fresh as a repaired one
        m.record_index(&built);
        assert!(
            m.index_fresh_secs() < aged,
            "a built index resets the clock"
        );
        m.record_index(&rpq_engine::IndexMaintenance::default()); // Stale
        assert_eq!(m.index_repairs.load(Ordering::Relaxed), 2);
        assert_eq!(m.index_rebuilds.load(Ordering::Relaxed), 1);
        assert_eq!(m.landmarks_invalidated.load(Ordering::Relaxed), 24);
        assert!(m.index_fresh_secs() < m.uptime_secs());
        let text = m.render_prometheus(&Gauges::default());
        let samples = parse_prometheus_text(&text).unwrap();
        let get = |series: &str| sample(&samples, series).unwrap();
        assert_eq!(get("rpq_index_repairs_total"), 2.0);
        assert_eq!(get("rpq_index_rebuilds_total"), 1.0);
        assert_eq!(get("rpq_landmarks_invalidated_total"), 24.0);
        let fresh = get("rpq_index_fresh_seconds");
        assert!((0.0..aged).contains(&fresh), "{fresh} vs {aged}");
    }

    #[test]
    fn a_fresh_server_renders_a_positive_uptime() {
        let text = Metrics::new().render_prometheus(&Gauges::default());
        let samples = parse_prometheus_text(&text).unwrap();
        let uptime = sample(&samples, "rpq_uptime_seconds").unwrap();
        assert!(uptime > 0.0, "{uptime} in:\n{text}");
    }
}
