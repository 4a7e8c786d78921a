//! The [`QueryEngine`]: one immutable graph, lazily-built shared indices,
//! and scoped-thread batch evaluation.

use crate::batch::{BatchItem, BatchResult, Query, QueryOutput};
use crate::error::{ConfigError, EngineError};
use crate::explain::{query_summary, CountingProbe};
use crate::memo::{CacheKind, Lookup, SemanticMemo, SemanticStats};
use crate::planner::{self, Algo, Backend, Plan, Rationale, Uncovered};
use crate::slot::IndexSlot;
use rpq_core::canonical::{canonical_pq, canonical_rq};
use rpq_core::join_match::JoinMatch;
use rpq_core::pq::Pq;
use rpq_core::predicate::Predicate;
use rpq_core::reach::{ProbeReach, ReachEngine};
use rpq_core::rq::{Rq, RqResult};
use rpq_core::split_match::SplitMatch;
use rpq_graph::{DistanceMatrix, Graph, NodeId};
use rpq_index::{DistProbe, GraphProbe, HopConfig, HopLabels, ShardedConfig, ShardedLabels};
use rpq_trace::QueryProfile;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Engine tuning knobs.
///
/// Construct via [`EngineConfig::default`] or the validating
/// [`EngineConfig::builder`]. The struct is `#[non_exhaustive]` so the
/// serving/config surface can grow fields without breaking callers —
/// which also means struct-literal construction is crate-private; outside
/// this crate go through the builder:
///
/// ```
/// use rpq_engine::EngineConfig;
/// let config = EngineConfig::builder()
///     .workers(4)
///     .matrix_node_limit(0)
///     .build()
///     .unwrap();
/// assert_eq!(config.workers, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Worker threads per batch; `0` means one per available core.
    pub workers: usize,
    /// Build the per-color distance matrix lazily iff
    /// `|V| <= matrix_node_limit` (the matrix costs O(|Σ|·|V|²) memory —
    /// the default keeps it a few tens of megabytes).
    pub matrix_node_limit: usize,
    /// Byte budget for the pruned 2-hop label index built for graphs
    /// *above* the matrix node limit (`0` disables hop labels entirely).
    /// The build runs in the background off the first over-limit batch;
    /// until it lands, queries are answered over the graph itself (the
    /// search backend's plans). The index holds one layer per concrete
    /// color — queries mentioning `_` are always answered by the graph —
    /// and if those layers do not fit the budget, nothing is published and
    /// the engine serves search plans permanently.
    pub hop_label_budget: usize,
    /// Number of shards for the partitioned fallback backend; `< 2`
    /// disables sharding. With `shards ≥ 2`, a graph over the matrix
    /// limit whose single hop-label build **fails its budget** (or is
    /// disabled) gets a sharded index instead: k per-shard label builds —
    /// run in parallel, each under [`shard_memory_budget`](EngineConfig::shard_memory_budget)
    /// — plus boundary-overlay labels, serving the `sharded` /
    /// `JoinMatch/sharded` plans. The single-index build stays preferred
    /// when it fits: its probes don't pay the overlay stitch.
    pub shards: usize,
    /// Byte budget for **each** per-shard label build of the sharded
    /// backend; `0` means unlimited (matching `HopConfig::budget_bytes`
    /// and `ShardedConfig::shard_budget_bytes` — but note
    /// [`hop_label_budget`](EngineConfig::hop_label_budget) is the odd
    /// one out: `0` there *disables* hop labels entirely). Memory-capped
    /// deployments set this explicitly — e.g. `hop_label_budget /
    /// shards`, the reading "the same memory, but no single build ever
    /// holds more than one shard's index".
    pub shard_memory_budget: usize,
    /// Slow-query threshold in microseconds; `0` (the default) disables
    /// the slow-query log. A query whose evaluation exceeds the threshold
    /// is counted on the process tracer (surfaced by the server as
    /// `rpq_slow_queries_total`) and — when the tracer is enabled —
    /// recorded into the trace ring with its text, chosen plan, and
    /// duration. With the threshold at 0 the hot path pays a single
    /// integer compare.
    pub slow_query_us: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            matrix_node_limit: 2048,
            hop_label_budget: 256 << 20,
            shards: 1,
            shard_memory_budget: 0,
            slow_query_us: 0,
        }
    }
}

impl EngineConfig {
    /// A validating builder seeded with the defaults. Setters mirror the
    /// field docs; [`EngineConfigBuilder::build`] rejects values the
    /// engine cannot serve with (`Err(ConfigError)`) instead of letting
    /// them panic deep inside a batch.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }

    /// [`workers`](EngineConfig::workers) with its `0` resolved: the
    /// number of threads this deployment evaluates queries on — one per
    /// available core unless configured. One batch spreads over that many
    /// (`run_batch`), and the server runs at most that many batches at
    /// once.
    pub fn worker_budget(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.workers
        }
    }

    /// The one derivation of the sharded build's settings — background
    /// builds, [`QueryEngine::build_sharded`] and the live-update repair
    /// all go through it, so a repaired index can never be built under
    /// different settings from a fresh one.
    pub(crate) fn sharded_config(&self) -> ShardedConfig {
        ShardedConfig {
            shards: self.shards,
            shard_budget_bytes: self.shard_memory_budget,
        }
    }
}

/// Builder for [`EngineConfig`] — see [`EngineConfig::builder`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sanity cap on [`workers`](EngineConfigBuilder::workers): the engine
    /// runs a batch on up to this many scoped threads, so a typo'd huge
    /// value is a config error, not a fork bomb.
    pub const MAX_WORKERS: usize = 4096;

    /// Worker threads per batch; `0` (default) means one per core.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Largest node count that still gets the per-color distance matrix
    /// (`0` disables the matrix regime entirely).
    pub fn matrix_node_limit(mut self, limit: usize) -> Self {
        self.config.matrix_node_limit = limit;
        self
    }

    /// Byte budget for the pruned 2-hop label index (`0` disables hop
    /// labels).
    pub fn hop_label_budget(mut self, bytes: usize) -> Self {
        self.config.hop_label_budget = bytes;
        self
    }

    /// Shard count for the partitioned fallback backend (`1` disables
    /// sharding; must be ≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Byte budget for **each** per-shard label build (`0` = unlimited).
    pub fn shard_memory_budget(mut self, bytes: usize) -> Self {
        self.config.shard_memory_budget = bytes;
        self
    }

    /// Slow-query threshold in microseconds (`0` = disabled, the default).
    pub fn slow_query_us(mut self, threshold_us: u64) -> Self {
        self.config.slow_query_us = threshold_us;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        let c = &self.config;
        if c.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if c.workers > Self::MAX_WORKERS {
            return Err(ConfigError::TooManyWorkers {
                workers: c.workers,
                max: Self::MAX_WORKERS,
            });
        }
        Ok(self.config)
    }
}

/// A shared, immutable graph plus lazily-built indices, evaluating batches
/// of mixed [`Query::Rq`] / [`Query::Pq`] queries on scoped worker threads.
///
/// The engine is `Sync`: one instance can serve batches from many threads;
/// index construction happens at most once.
#[derive(Debug)]
pub struct QueryEngine {
    graph: Arc<Graph>,
    config: EngineConfig,
    matrix: OnceLock<DistanceMatrix>,
    /// The one reach-set memo of this graph version: an RQ's reach set
    /// is a function of (graph, source predicate, regex) alone, so every
    /// run on this engine shares it. The graph is immutable for the life
    /// of the engine, so nothing ever invalidates an entry; the live
    /// layer publishes a fresh engine — and with it an empty memo — per
    /// version.
    memo: SemanticMemo,
    /// `run_batch` calls in flight on this engine: they share the worker
    /// budget between them.
    running_batches: AtomicUsize,
    /// Set by [`retire_index_builds`](QueryEngine::retire_index_builds)
    /// (or drop): in-flight background label builds abort at their next
    /// checkpoint. Shared with both slots.
    retired: Arc<AtomicBool>,
    /// The whole-graph label index, built in the background off the first
    /// over-limit batch (or by [`hop().force()`](IndexSlot::force)).
    hop: Arc<IndexSlot<HopLabels>>,
    /// The partitioned fallback index: built once the single hop-label
    /// build has failed its budget (or is disabled) and `shards ≥ 2`.
    sharded: Arc<IndexSlot<ShardedLabels>>,
}

impl QueryEngine {
    /// Engine over `graph` with default configuration.
    pub fn new(graph: Arc<Graph>) -> Self {
        Self::with_config(graph, EngineConfig::default())
    }

    /// Engine over `graph` with explicit configuration.
    pub fn with_config(graph: Arc<Graph>, config: EngineConfig) -> Self {
        let retired = Arc::new(AtomicBool::new(false));
        // policy, build closure and description: the only per-backend
        // lifecycle code. Hop labels: over the matrix limit (under it the
        // strictly faster matrix wins) with a nonzero budget.
        let over_limit = graph.node_count() > config.matrix_node_limit;
        let hop_allowed = over_limit && config.hop_label_budget > 0;
        let build_config = HopConfig {
            budget_bytes: config.hop_label_budget,
        };
        let g = Arc::clone(&graph);
        let hop = IndexSlot::new(
            "hop",
            &retired,
            move || hop_allowed,
            |l: &HopLabels| format!("bytes={}", l.bytes()),
            move |cancel| HopLabels::build_with(&g, &build_config, cancel),
        );
        // Sharded labels: only when a single-machine index cannot serve —
        // sharding configured, and the hop build either disabled by policy
        // or already failed its budget. While a single-index build is
        // still possible (or in flight) it stays preferred: its probes
        // don't pay the overlay stitch.
        let sharded_wanted = over_limit && config.shards >= 2;
        let (g, build_config) = (Arc::clone(&graph), config.sharded_config());
        let single = Arc::clone(&hop);
        let sharded = IndexSlot::new(
            "sharded",
            &retired,
            move || sharded_wanted && (!hop_allowed || single.over_budget()),
            |l: &ShardedLabels| {
                let stats = l.stats();
                format!("shards={} bytes={}", stats.shards, stats.total_bytes())
            },
            move |cancel| ShardedLabels::build_with(&g, &build_config, cancel),
        );
        QueryEngine {
            graph,
            config,
            matrix: OnceLock::new(),
            memo: SemanticMemo::new(),
            running_batches: AtomicUsize::new(0),
            retired,
            hop,
            sharded,
        }
    }

    /// Engine whose one index is the sharded backend, built **now**: the
    /// graph is partitioned into `config.shards` pieces (clamped to
    /// `1..=|V|` by the partitioner) and labelled by parallel per-shard
    /// builds, each under `config.shard_memory_budget` bytes (`0` =
    /// unlimited). What a deployment runs when the graph is known up
    /// front to exceed any single-index budget: no matrix and no single
    /// hop index race the planner, and a per-shard build over its budget
    /// fails here with [`EngineError::IndexOverBudget`] instead of
    /// degrading to search plans. The index is reachable through
    /// [`sharded().get()`](QueryEngine::sharded).
    pub fn build_sharded(graph: Arc<Graph>, config: EngineConfig) -> Result<Self, EngineError> {
        let labels = ShardedLabels::build_with(&graph, &config.sharded_config(), None)?;
        let engine = Self::with_config(
            graph,
            EngineConfig {
                matrix_node_limit: 0,
                hop_label_budget: 0,
                shards: labels.sharded_graph().k(),
                ..config
            },
        );
        engine.sharded.adopt(Arc::new(labels));
        Ok(engine)
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Would the planner see a distance matrix for this graph? True once
    /// built, or when the graph is small enough that the engine will build
    /// it on first use.
    pub fn matrix_available(&self) -> bool {
        self.matrix.get().is_some() || self.graph.node_count() <= self.config.matrix_node_limit
    }

    /// The distance matrix, building it first if the policy allows;
    /// `None` when the graph is over the node limit and no matrix exists.
    pub fn matrix(&self) -> Option<&DistanceMatrix> {
        if self.graph.node_count() <= self.config.matrix_node_limit {
            Some(self.force_matrix())
        } else {
            self.matrix.get()
        }
    }

    /// Build the matrix unconditionally (callers who know the footprint is
    /// acceptable can opt in above the node limit).
    pub fn force_matrix(&self) -> &DistanceMatrix {
        self.matrix
            .get_or_init(|| DistanceMatrix::build(&self.graph))
    }

    /// The whole-graph hop-label index: [`get`](IndexSlot::get) it once
    /// the background build has published it, or
    /// [`force`](IndexSlot::force) the build on the calling thread. It
    /// holds one layer per concrete color; queries mentioning `_` are
    /// answered by the graph. Policy allows it over the matrix limit with
    /// a nonzero [`hop_label_budget`](EngineConfig::hop_label_budget).
    pub fn hop(&self) -> &IndexSlot<HopLabels> {
        &self.hop
    }

    /// The partitioned fallback index. Policy allows it only once the
    /// single hop-label index is out (disabled, or failed its budget) and
    /// [`shards`](EngineConfig::shards) ≥ 2.
    pub fn sharded(&self) -> &IndexSlot<ShardedLabels> {
        &self.sharded
    }

    /// Bytes held by the indices built so far (matrix + hop labels +
    /// sharded labels). A gauge: it never triggers a build.
    pub fn index_bytes(&self) -> u64 {
        let matrix = self
            .matrix
            .get()
            .map_or(0, |_| DistanceMatrix::bytes_for(&self.graph));
        let hop = self.hop.get().map_or(0, |l| l.bytes());
        let sharded = self.sharded.get().map_or(0, |l| l.stats().total_bytes());
        (matrix + hop + sharded) as u64
    }

    /// Cumulative counters of this engine's semantic reach-set memo —
    /// exact hits, subsumption hits, misses, and filter time — over
    /// every query run since construction.
    pub fn semantic_stats(&self) -> SemanticStats {
        self.memo.semantic_stats()
    }

    /// Does this deployment's config call for a label index (hop or
    /// sharded) on this graph at all? The live-update layer's
    /// `Rebuilding` vs `Stale` verdict.
    pub(crate) fn label_index_expected(&self) -> bool {
        self.hop.allowed() || self.sharded.allowed()
    }

    /// Without a matrix, kick off whichever background label build
    /// policy allows and nobody has started; queries keep planning
    /// against whatever is ready right now (fallback-while-stale).
    fn ensure_index_builds(&self) {
        if !self.matrix_available() {
            self.hop.ensure_background();
            self.sharded.ensure_background();
        }
    }

    /// Mark this engine's graph version as superseded: any in-flight
    /// background index build aborts at its next checkpoint instead of
    /// finishing work nobody will read. Called by the live-update layer
    /// when a newer snapshot is published; queries against this engine
    /// stay correct (they simply keep their search fallback).
    pub fn retire_index_builds(&self) {
        self.retired.store(true, Ordering::Relaxed);
    }

    /// The best backend usable for `query` right now: matrix → hop →
    /// sharded → search, a label index counting only once published and
    /// holding a layer for every color the query probes.
    fn best_backend(&self, query: &Query) -> Backend {
        if self.matrix_available() {
            Backend::Matrix
        } else if self.hop.covers(query, HopLabels::has_layer) {
            Backend::Hop
        } else if self.sharded.covers(query, ShardedLabels::has_layer) {
            Backend::Sharded
        } else {
            Backend::Search
        }
    }

    fn plan(&self, query: &Query) -> (Plan, Rationale) {
        let backend = self.best_backend(query);
        let (plan, why) = match query {
            Query::Rq(rq) => planner::plan_rq(&rq.regex, backend),
            Query::Pq(pq) => planner::plan_pq(pq, backend),
        };
        // off the matrix, a query mentioning `_` is never index-backed
        if backend == Backend::Search && !query.all_colors(|c| !c.is_wildcard()) {
            return (plan, why.uncovered(Uncovered::Wildcard));
        }
        (plan, why)
    }

    /// The plan the engine would pick for `query` outside any batch.
    pub fn plan_query(&self, query: &Query) -> Plan {
        self.plan(query).0
    }

    /// Evaluate one query (a batch of one, on the calling thread).
    pub fn run_query(&self, query: &Query) -> QueryOutput {
        self.run_one(query, None, false).0
    }

    /// Evaluate one query and return its execution profile alongside the
    /// output: chosen plan + rationale, contiguous stage timings (their
    /// sum equals the profile's wall time by construction), probe
    /// counts, memo hit/miss, shard fan-out, and worker utilization.
    /// This is the `explain` surface.
    pub fn run_query_profiled(&self, query: &Query) -> (QueryOutput, QueryProfile) {
        let (out, profile) = self.run_one(query, None, true);
        (out, profile.expect("profiled run"))
    }

    /// Profiled evaluation under a **caller-chosen** plan, bypassing the
    /// planner — the test/bench surface that lets the differential oracle drive
    /// every servable entry of [`Plan::ALL`] (like [`IndexSlot::force`],
    /// this is for deterministic harnesses, not production traffic). It
    /// also bypasses the engine's memo: the run evaluates against a
    /// scratch memo local to the call, so it exercises the plan rather
    /// than the cache, and leaves [`semantic_stats`](Self::semantic_stats)
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not match the query kind, requires an index
    /// that is not built (force the build first), or is the `standing`
    /// plan — standing answers are served by the snapshot layer
    /// (`Snapshot::run_query_profiled`), not the engine.
    pub fn run_query_with_plan_profiled(
        &self,
        query: &Query,
        plan: Plan,
    ) -> (QueryOutput, QueryProfile) {
        let (out, profile) = self.run_one(query, Some(plan), true);
        (out, profile.expect("profiled run"))
    }

    /// The one prologue of every run: canonicalise → kick the background
    /// index builds → plan each query (or take the `forced` plan) → build
    /// the matrix if a plan needs it, before any worker starts. Returns
    /// the canonical queries, their plans, and the instant planning
    /// ended and index preparation began (a profile's stage boundary).
    fn prologue(
        &self,
        queries: &[Query],
        forced: Option<Plan>,
    ) -> (Vec<Query>, Vec<(Plan, Rationale)>, Instant) {
        // minimize-before-plan: every query is rewritten into its
        // run-normal canonical form (shape- and answer-preserving), so
        // syntactic variants of one language share a memo key, a plan,
        // and one reach-set computation
        let queries: Vec<Query> = queries.iter().map(canonical_query).collect();
        let plans: Vec<(Plan, Rationale)> = match forced {
            Some(plan) => vec![(plan, Rationale::Forced(plan)); queries.len()],
            None => {
                self.ensure_index_builds();
                queries.iter().map(|q| self.plan(q)).collect()
            }
        };
        let planned = Instant::now();
        if plans.iter().any(|(p, _)| p.backend() == Backend::Matrix) {
            self.matrix();
        }
        (queries, plans, planned)
    }

    /// The one single-query path: [`prologue`](Self::prologue) → eval, on
    /// the calling thread with the whole worker budget. With `profiled`,
    /// the same evaluation runs behind a probe-counting decorator and the
    /// stage boundaries become a [`QueryProfile`] — contiguous
    /// sub-intervals of one clock (`t0 → t1 → t2 → t3`), so their sum
    /// equals the wall time exactly.
    fn run_one(
        &self,
        query: &Query,
        forced: Option<Plan>,
        profiled: bool,
    ) -> (QueryOutput, Option<QueryProfile>) {
        let t0 = Instant::now();
        let (canon, plans, t1) = self.prologue(std::slice::from_ref(query), forced);
        let (canon, (plan, why)) = (&canon[0], plans[0]);
        let t2 = Instant::now();
        // a forced plan must exercise the plan, not the cache
        let scratch = forced.map(|_| SemanticMemo::new());
        let memo = scratch.as_ref().unwrap_or(&self.memo);
        let workers = self.config.worker_budget();
        let job = Job {
            g: &self.graph,
            query: canon,
            plan,
            memo,
            pq_workers: workers,
            count_probes: profiled,
        };
        let (out, probes, lookup) = self.answer(job, || {});
        let t3 = Instant::now();
        self.note_if_slow(canon, plan, t3 - t2);
        if !profiled {
            return (out, None);
        }

        let mut profile = QueryProfile::new(
            query_summary(query, &self.graph),
            plan.name().to_owned(),
            why.to_string(),
        );
        if canon != query {
            profile.canonical = query_summary(canon, &self.graph);
        }
        let indices = format!("hop={:?} sharded={:?}", self.hop, self.sharded);
        profile.stage("plan", t1 - t0, indices);
        let prepared = if plan.backend() == Backend::Matrix {
            "distance matrix ready"
        } else {
            "no shared index to prepare"
        };
        profile.stage("prepare", t2 - t1, prepared.to_owned());
        profile.stage("eval", t3 - t2, format!("probes={probes}"));
        profile.probes = probes;
        // this query's own lookup, not a delta of the shared counters:
        // exact whatever else runs on the memo meanwhile
        let hit = lookup.map(|l| l.kind);
        profile.memo_hits = u64::from(matches!(hit, Some(Some(_))));
        profile.memo_misses = u64::from(hit == Some(None));
        profile.semcache = match hit {
            Some(Some(CacheKind::Exact)) => "exact_hit",
            Some(Some(CacheKind::Subsumption)) => "subsumption_hit",
            Some(None) => "miss",
            // the plan never consulted the cache (PQ backends)
            None => "",
        }
        .to_owned();
        profile.workers = workers;
        if plan.backend() == Backend::Sharded {
            profile.shard_fanout = self.sharded.ready().sharded_graph().k() as u32;
        }
        profile.matches = out.match_count() as u64;
        profile.wall = t3 - t0;

        let tracer = rpq_trace::tracer();
        if tracer.enabled() {
            let detail = format!(
                "plan={} probes={probes} matches={}",
                plan.name(),
                profile.matches
            );
            tracer.record_span("engine", "explain", profile.wall, &detail);
        }
        (out, Some(profile))
    }

    /// Evaluate a batch: plan each query, then pull queries
    /// off a shared counter — on the calling thread, joined by scoped
    /// helper threads from the first query the memo cannot answer. A
    /// batch of cache hits therefore never leaves its caller: starting
    /// and joining a thread costs more than filtering a cached pair set
    /// (`engine.run_batch_ms` on the ledger's `hop_zipf`: 0.88 ms with
    /// the threads, 0.40 without). The worker budget is shared between
    /// the batches running on this engine at once: a batch that starts
    /// while `k − 1` others run takes `budget / k` threads (at least its
    /// caller), so concurrent callers do not each start a full set of
    /// helpers onto the same cores. Outputs come back in submission order
    /// and are identical to sequential single-query evaluation — the
    /// strategies differ only in cost. Reach sets are shared through the
    /// engine's memo, so hot keys are computed once per engine rather
    /// than once per batch; the reported semantic stats are this batch's
    /// own lookups, tallied per item.
    pub fn run_batch(&self, queries: &[Query]) -> BatchResult {
        let t0 = Instant::now();
        let memo = &self.memo;
        if queries.is_empty() {
            return BatchResult::new(Vec::new(), t0.elapsed(), 0, SemanticStats::default());
        }
        let (queries, plans, _) = self.prologue(queries, None);

        let running = RunningBatch::enter(&self.running_batches);
        let budget = (self.config.worker_budget() / running.count).max(1);
        let workers = budget.min(queries.len());
        // worker budget left over by a short batch goes to PQ refinement:
        // each index-backed PQ evaluation chunks its per-edge source tests
        // over this many threads, so one big PQ in a batch of one still
        // saturates the machine
        let pq_workers = (budget / workers).max(1);
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<(BatchItem, Option<Lookup>)>> =
            queries.iter().map(|_| OnceLock::new()).collect();

        // one worker's loop; `before_eval(i)` runs when query `i` turns
        // out to need evaluating, before it is evaluated
        let work = |before_eval: &mut dyn FnMut(usize)| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= queries.len() {
                break;
            }
            let job = Job {
                g: &self.graph,
                query: &queries[i],
                plan: plans[i].0,
                memo,
                pq_workers,
                count_probes: false,
            };
            let t = Instant::now();
            let (output, _, lookup) = self.answer(job, || before_eval(i));
            let time = t.elapsed();
            self.note_if_slow(job.query, job.plan, time);
            let item = BatchItem {
                output,
                plan: job.plan,
                time,
                profile: None,
            };
            slots[i]
                .set((item, lookup))
                .unwrap_or_else(|_| unreachable!("each index is claimed once"));
        };
        let mut threads = 1;
        std::thread::scope(|s| {
            let work = &work;
            work(&mut |i| {
                // the caller's first real evaluation: the queries behind
                // it are now worth a thread each, up to the budget
                if threads == 1 {
                    threads += (workers - 1).min(queries.len() - 1 - i);
                    for _ in 1..threads {
                        s.spawn(move || work(&mut |_| {}));
                    }
                }
            });
        });
        drop(running);

        let mut semantic = SemanticStats::default();
        let items = slots
            .into_iter()
            .map(|slot| {
                let (item, lookup) = slot.into_inner().expect("worker filled every slot");
                if let Some(lookup) = lookup {
                    semantic.record(lookup);
                }
                item
            })
            .collect();
        BatchResult::new(items, t0.elapsed(), threads, semantic)
    }

    /// Answer `job`: from the memo if it can, else by evaluating the plan
    /// (`before_eval` runs first). Returns the output, the distance
    /// probes issued (see [`evaluate`](Self::evaluate)) and the one memo
    /// lookup the query made — `None` for a PQ, which has no cell.
    ///
    /// Every RQ plan probes the semantic cache first: a completed exact
    /// cell or a containing cached entry answers — filtered down by the
    /// query's target predicate — without touching the index or the
    /// graph; a cold cache costs one lookup and declines
    /// (`SemanticMemo::try_answer` never blocks on in-flight
    /// computations).
    fn answer(
        &self,
        job: Job<'_>,
        before_eval: impl FnOnce(),
    ) -> (QueryOutput, u64, Option<Lookup>) {
        let Job { g, memo, .. } = job;
        let lookup = match job.query {
            Query::Pq(_) => None,
            Query::Rq(rq) => match memo.try_answer(g, &rq.from, &rq.regex) {
                Some((pairs, hit)) => return (rq_targets(g, rq, &pairs), 0, Some(hit)),
                None => Some(Lookup::MISS),
            },
        };
        before_eval();
        let (out, probes) = self.evaluate(job);
        (out, probes, lookup)
    }

    /// What the memo could not answer: resolve `plan`'s backend to its
    /// probe — an index, or on [`Backend::Search`] the graph itself
    /// ([`GraphProbe`]) — and evaluate the plan's algorithm over it.
    /// Returns the output and — with `count_probes`, the explain surface —
    /// the number of distance probes issued (0 for `biBFS`, which probes
    /// nothing).
    fn evaluate(&self, job: Job<'_>) -> (QueryOutput, u64) {
        match job.plan.backend() {
            Backend::Matrix => eval_on(job, self.matrix.get().expect("prepared by the caller")),
            Backend::Hop => eval_on(job, self.hop.ready()),
            Backend::Sharded => eval_on(job, self.sharded.ready()),
            Backend::Search => eval_on(job, &GraphProbe::new(job.g)),
        }
    }

    /// Slow-query log hook: with a nonzero
    /// [`slow_query_us`](EngineConfig::slow_query_us) threshold, a query
    /// over it is counted on the process [`rpq_trace::tracer`] and — when
    /// the tracer is enabled — recorded into the trace ring with its
    /// text, plan, and duration. Costs one integer compare when the
    /// threshold is 0.
    #[inline]
    fn note_if_slow(&self, query: &Query, plan: Plan, dur: std::time::Duration) {
        let threshold = self.config.slow_query_us;
        if threshold == 0 || (dur.as_micros() as u64) < threshold {
            return;
        }
        let t = rpq_trace::tracer();
        t.note_slow_query();
        if t.enabled() {
            t.record_span(
                "slow",
                plan.name(),
                dur,
                &format!(
                    "threshold_us={threshold} {}",
                    query_summary(query, &self.graph)
                ),
            );
        }
    }
}

impl Drop for QueryEngine {
    /// An engine being dropped can never serve the index its background
    /// thread is building — cancel it instead of letting it run seconds of
    /// CPU and keep the graph alive for a result nobody can read. (The
    /// live-update layer additionally retires superseded engines eagerly,
    /// while readers may still pin them.)
    fn drop(&mut self) {
        self.retired.store(true, Ordering::Relaxed);
    }
}

/// One `run_batch` call counted into its engine's `running_batches`
/// until dropped — also when the batch panics, so a caught panic does
/// not halve the worker budget for good.
struct RunningBatch<'a> {
    running: &'a AtomicUsize,
    /// Batches running when this one started, itself included.
    count: usize,
}

impl<'a> RunningBatch<'a> {
    fn enter(running: &'a AtomicUsize) -> Self {
        // a statistic that sizes a thread count: publishes no data
        let count = running.fetch_add(1, Ordering::Relaxed) + 1;
        RunningBatch { running, count }
    }
}

impl Drop for RunningBatch<'_> {
    fn drop(&mut self) {
        self.running.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What one probe-backed evaluation needs besides the probe.
#[derive(Clone, Copy)]
struct Job<'a> {
    g: &'a Graph,
    query: &'a Query,
    plan: Plan,
    memo: &'a SemanticMemo,
    /// Threads an index-backed PQ chunks its bulk refinement steps over.
    pq_workers: usize,
    count_probes: bool,
}

/// Evaluate `job` over `probe` — the one generic evaluator every backend
/// shares, statically dispatched per probe type. Profiling is the
/// [`CountingProbe`] decorator around the same call: it still delegates to
/// the backend's optimized bulk implementations.
fn eval_on<P: DistProbe + Sync>(job: Job<'_>, probe: &P) -> (QueryOutput, u64) {
    if job.count_probes {
        let counting = CountingProbe::new(probe);
        (eval_probing(job, &counting), counting.probes())
    } else {
        (eval_probing(job, probe), 0)
    }
}

fn eval_probing<P: DistProbe + Sync>(job: Job<'_>, probe: &P) -> QueryOutput {
    match (job.query, job.plan.algo()) {
        (Query::Rq(rq), Algo::RqDm | Algo::RqBfsMemo) => rq_indexed(job.g, rq, probe, job.memo),
        // the paper's baseline, servable when forced: it probes nothing
        (Query::Rq(rq), Algo::RqBiBfs) => QueryOutput::Rq(rq.eval_bibfs(job.g)),
        (Query::Pq(pq), algo) => {
            let mut reach = ProbeReach::with_workers(probe, job.pq_workers);
            eval_pq(algo, pq, job.g, &mut reach)
        }
        (Query::Rq(_), algo) => mismatched(algo),
    }
}

/// §5's two PQ algorithms over whichever reachability backend `reach` is.
fn eval_pq<R: ReachEngine>(algo: Algo, pq: &Pq, g: &Graph, reach: &mut R) -> QueryOutput {
    QueryOutput::Pq(Arc::new(match algo {
        Algo::Join => JoinMatch::eval(pq, g, reach),
        Algo::Split => SplitMatch::eval(pq, g, reach),
        _ => mismatched(algo),
    }))
}

fn mismatched(plan: impl std::fmt::Debug) -> ! {
    unreachable!("{plan:?} does not evaluate this query kind on this backend")
}

/// `pairs` — a memoized reach set of `rq`'s `(source predicate, regex)`
/// key, sorted and duplicate-free — filtered down to the query's target
/// predicate. The predicate is evaluated once per distinct target node
/// (the verdict table fills on first sight), and not at all when it is
/// trivially true; a filtered slice of a sorted set is still sorted, so
/// the result is checked, not re-sorted.
fn rq_targets(g: &Graph, rq: &Rq, pairs: &[(NodeId, NodeId)]) -> QueryOutput {
    let hits = if rq.to.is_trivial() {
        pairs.to_vec()
    } else {
        let mut verdicts: Vec<Option<bool>> = vec![None; g.node_count()];
        pairs
            .iter()
            .filter(|&&(_, y)| {
                *verdicts[y.index()].get_or_insert_with(|| rq.to.matches(g.attrs(y)))
            })
            .copied()
            .collect()
    };
    QueryOutput::Rq(
        RqResult::from_sorted_pairs(hits)
            .expect("memoized reach sets are sorted and duplicate-free"),
    )
}

/// Probe-backed RQ evaluation after a declined cache probe: the key's
/// *full* reach set is computed through the index (or the graph) —
/// target predicate widened to `true`, trading the backward-pruning pass
/// for a reusable cache entry — installed via [`SemanticMemo::insert`],
/// and filtered down to the query's targets; the next exact or contained
/// query on the key is a cache hit.
fn rq_indexed<D: DistProbe>(g: &Graph, rq: &Rq, probe: &D, memo: &SemanticMemo) -> QueryOutput {
    let wide = Rq::new(rq.from.clone(), Predicate::always_true(), rq.regex.clone());
    let pairs = memo.insert(
        &rq.from,
        &rq.regex,
        wide.eval_with_dist(g, probe).into_pairs(),
    );
    rq_targets(g, rq, &pairs)
}

/// The query with every regex in run-normal canonical form
/// ([`rpq_core::canonical`]) — shape- and answer-preserving, so outputs
/// are bit-identical to evaluating the submitted spelling, but every
/// syntactic variant of one language keys the same memo cell and plan.
fn canonical_query(query: &Query) -> Query {
    match query {
        Query::Rq(rq) => Query::Rq(canonical_rq(rq)),
        Query::Pq(pq) => Query::Pq(canonical_pq(pq)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rpq_core::pq::Pq;
    use rpq_core::predicate::Predicate;
    use rpq_core::rq::Rq;
    use rpq_graph::gen::essembly;
    use rpq_regex::FRegex;

    fn rq(g: &Graph, from: &str, to: &str, re: &str) -> Rq {
        Rq::new(
            Predicate::parse(from, g.schema()).unwrap(),
            Predicate::parse(to, g.schema()).unwrap(),
            FRegex::parse(re, g.alphabet()).unwrap(),
        )
    }

    #[test]
    fn batch_equals_sequential_on_essembly() {
        let g = Arc::new(essembly());
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                workers: 3,
                ..EngineConfig::default()
            },
        );
        let q1 = rq(
            &g,
            "job = \"biologist\" && sp = \"cloning\"",
            "job = \"doctor\"",
            "fa^2 fn",
        );
        let mut pq = Pq::new();
        let a = pq.add_node(
            "a",
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        );
        let b = pq.add_node("b", Predicate::always_true());
        pq.add_edge(a, b, FRegex::parse("fn+", g.alphabet()).unwrap());

        let queries: Vec<Query> = vec![
            Query::Rq(q1.clone()),
            Query::Pq(pq.clone()),
            Query::Rq(q1.clone()),
            Query::Rq(rq(&g, "job = \"physician\"", "job = \"doctor\"", "sn+")),
        ];
        let batch = engine.run_batch(&queries);
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.workers(), 3);

        let m = DistanceMatrix::build(&g);
        assert_eq!(
            batch.items()[0].output.as_rq().unwrap(),
            &q1.eval_with_matrix(&g, &m)
        );
        assert_eq!(
            batch.items()[1].output.as_pq().unwrap(),
            &JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m))
        );
        assert_eq!(batch.items()[0].output, batch.items()[2].output);
        assert!(batch.items()[3].output.as_rq().unwrap().is_empty());
        assert!(batch.total_query_time() >= batch.items()[0].time);
    }

    #[test]
    fn small_graph_builds_matrix_lazily() {
        let g = Arc::new(essembly());
        let engine = QueryEngine::new(Arc::clone(&g));
        assert!(engine.matrix_available());
        assert!(engine.matrix.get().is_none(), "matrix must be lazy");
        assert_eq!(engine.index_bytes(), 0);
        assert!(engine.matrix.get().is_none(), "the gauge must not build");
        let q = Query::Rq(rq(&g, "job = \"doctor\"", "job = \"doctor\"", "fa"));
        assert_eq!(engine.plan_query(&q).name(), "DM");
        engine.run_query(&q);
        assert!(
            engine.matrix.get().is_some(),
            "DM plan should have built it"
        );
        assert!(engine.index_bytes() > 0);
    }

    #[test]
    fn over_limit_graph_avoids_matrix() {
        let g = Arc::new(essembly());
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                matrix_node_limit: 0,
                // one worker: the batch's lookups happen in order
                workers: 1,
                // keep plans deterministic: no background label build racing
                // the batch's planning pass
                hop_label_budget: 0,
                ..EngineConfig::default()
            },
        );
        assert!(!engine.matrix_available());
        let shared = rq(&g, "job = \"biologist\"", "job = \"doctor\"", "fa^2 fn");
        let solo = rq(&g, "job = \"doctor\"", "job = \"biologist\"", "fa fn");
        let batch = engine.run_batch(&[
            Query::Rq(shared.clone()),
            Query::Rq(shared.clone()),
            Query::Rq(solo.clone()),
        ]);
        assert!(engine.matrix.get().is_none());
        // search RQs plan the memoized per-atom sweep over the graph,
        // whatever the batch shape
        for item in batch.items() {
            assert_eq!(item.plan.algo(), Algo::RqBfsMemo);
        }
        // outputs still equal the reference strategies
        assert_eq!(
            batch.items()[0].output.as_rq().unwrap(),
            &shared.eval_bfs(&g)
        );
        assert_eq!(batch.items()[2].output.as_rq().unwrap(), &solo.eval_bfs(&g));
        // three RQs, three lookups: the shared key computed once and then
        // reused, the solo's probe of the cold cache declined
        let (hits, misses) = batch.memo_stats();
        assert_eq!(hits, 1, "second probe reused it");
        assert_eq!(misses, 2, "shared key computed once");
        // biBFS, the paper's baseline, is served only when forced
        let bibfs = Plan::ALL
            .into_iter()
            .find(|p| p.algo() == Algo::RqBiBfs)
            .unwrap();
        let (out, profile) = engine.run_query_with_plan_profiled(&Query::Rq(solo.clone()), bibfs);
        assert_eq!(out.as_rq().unwrap(), &solo.eval_bfs(&g));
        assert_eq!((profile.plan.as_str(), profile.probes), ("biBFS", 0));
    }

    #[test]
    fn empty_batch() {
        let engine = QueryEngine::new(Arc::new(essembly()));
        let batch = engine.run_batch(&[]);
        assert!(batch.is_empty());
        assert_eq!(batch.workers(), 0);
    }

    /// `run_batch` evaluates on its caller's stack, and the server calls
    /// it from connection threads with 256 KiB of it: every backend has
    /// to fit half of that, whatever the graph's size.
    #[test]
    fn a_batch_fits_half_a_connection_threads_stack() {
        let g = Arc::new(rpq_graph::gen::synthetic(600, 2400, 2, 3, 21));
        let mut ring = Pq::new();
        let nodes: Vec<_> = ["a0 <= 6", "a1 >= 2", "a0 >= 3", ""]
            .iter()
            .enumerate()
            .map(|(i, p)| ring.add_node(&format!("n{i}"), Predicate::parse(p, g.schema()).unwrap()))
            .collect();
        for (i, re) in ["c0^2", "c1+", "_^3", "c2 c0"].iter().enumerate() {
            let re = FRegex::parse(re, g.alphabet()).unwrap();
            ring.add_edge(nodes[i], nodes[(i + 1) % 4], re);
        }
        let queries = vec![
            Query::Rq(rq(&g, "a0 <= 4", "a1 >= 6", "c0^2 c1")),
            Query::Rq(rq(&g, "a0 <= 9", "", "_^3")),
            Query::Rq(rq(&g, "a1 <= 3", "a0 >= 2", "c1+ c2")),
            Query::Pq(ring),
        ];
        // (matrix_node_limit, hop_label_budget): search, hop, matrix
        for (limit, budget) in [(0, 0), (0, 256 << 20), (2048, 0)] {
            let g = Arc::clone(&g);
            let queries = queries.clone();
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || {
                    let engine = QueryEngine::with_config(
                        g,
                        EngineConfig {
                            matrix_node_limit: limit,
                            hop_label_budget: budget,
                            workers: 1,
                            ..EngineConfig::default()
                        },
                    );
                    if budget > 0 {
                        engine.hop().force().expect("within budget");
                    }
                    engine.run_batch(&queries).len()
                })
                .unwrap()
                .join()
                .expect("evaluated without overflowing");
        }
    }

    #[test]
    fn helper_threads_start_at_the_first_query_the_memo_cannot_answer() {
        let g = Arc::new(essembly());
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                workers: 3,
                ..EngineConfig::default()
            },
        );
        let hot: Vec<Query> = ["fa", "fn", "sa", "sn"]
            .iter()
            .map(|re| Query::Rq(rq(&g, "job = \"doctor\"", "job = \"biologist\"", re)))
            .collect();
        let cold = engine.run_batch(&hot);
        assert_eq!(cold.workers(), 3, "nothing cached: the whole budget");

        // every answer is in the memo now: the batch never leaves its caller
        let warm = engine.run_batch(&hot);
        assert_eq!(warm.workers(), 1);
        assert_eq!(warm.memo_stats(), (4, 0));
        for (c, w) in cold.items().iter().zip(warm.items()) {
            assert_eq!(c.output, w.output);
        }

        // two hits, then a miss with one query left behind it: one helper
        let mut mixed = hot[..2].to_vec();
        mixed.push(Query::Rq(rq(&g, "job = \"doctor\"", "", "fa^2 fn")));
        mixed.push(hot[3].clone());
        let batch = engine.run_batch(&mixed);
        assert_eq!(batch.workers(), 2);
        assert_eq!(batch.items()[3].output, cold.items()[3].output);
        // ... and a miss in last place has nothing to hand a helper
        mixed.swap(2, 3);
        mixed[3] = Query::Rq(rq(&g, "job = \"doctor\"", "", "sa^2 sn"));
        assert_eq!(engine.run_batch(&mixed).workers(), 1);
    }

    #[test]
    fn batches_running_at_once_share_the_worker_budget() {
        let g = Arc::new(essembly());
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                workers: 4,
                ..EngineConfig::default()
            },
        );
        let cold = |res: [&str; 4]| -> Vec<Query> {
            res.iter()
                .map(|re| Query::Rq(rq(&g, "job = \"doctor\"", "job = \"biologist\"", re)))
                .collect()
        };
        // with another batch in flight a cold batch takes half the budget
        let other = RunningBatch::enter(&engine.running_batches);
        assert_eq!(
            engine.run_batch(&cold(["fa", "fn", "sa", "sn"])).workers(),
            2
        );
        drop(other);
        // ... alone, all of it; and a panicking batch does not stay counted
        let unwound = std::panic::catch_unwind(|| {
            let _running = RunningBatch::enter(&engine.running_batches);
            panic!("a batch panics");
        });
        assert!(unwound.is_err());
        let batch = engine.run_batch(&cold(["fa^2", "fn^2", "sa^2", "sn^2"]));
        assert_eq!(batch.workers(), 4);
    }

    #[test]
    fn overlapping_batches_each_tally_their_own_lookups() {
        let g = Arc::new(essembly());
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
        );
        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::always_true());
        let b = pq.add_node("b", Predicate::always_true());
        pq.add_edge(a, b, FRegex::parse("fn+", g.alphabet()).unwrap());
        // 5 RQs over 3 keys (one a narrowing of another, one spelled two
        // ways) and a PQ
        let queries = vec![
            Query::Rq(rq(&g, "job = \"biologist\"", "", "fa^2 fn")),
            Query::Rq(rq(&g, "job = \"biologist\"", "job = \"doctor\"", "fa^2 fn")),
            Query::Pq(pq),
            Query::Rq(rq(
                &g,
                "job = \"biologist\" && sp = \"cloning\"",
                "",
                "fa^2 fn",
            )),
            Query::Rq(rq(&g, "job = \"doctor\"", "", "sa sa^2")),
            Query::Rq(rq(&g, "job = \"doctor\"", "", "sa^2 sa")),
        ];
        let (threads, rounds) = (4, 50);
        let start = std::sync::Barrier::new(threads);
        let tallies: Vec<SemanticStats> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let mut mine = SemanticStats::default();
                        for _ in 0..rounds {
                            let stats = engine.run_batch(&queries).semantic_stats();
                            assert_eq!(stats.hits() + stats.misses, 5, "one lookup per RQ");
                            mine.exact_hits += stats.exact_hits;
                            mine.subsumption_hits += stats.subsumption_hits;
                            mine.misses += stats.misses;
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // together the batches account for everything the memo counted
        let total = engine.semantic_stats();
        let sum = |f: fn(&SemanticStats) -> u64| tallies.iter().map(f).sum::<u64>();
        assert_eq!(sum(|s| s.exact_hits), total.exact_hits);
        assert_eq!(sum(|s| s.subsumption_hits), total.subsumption_hits);
        assert_eq!(sum(|s| s.misses), total.misses);
        assert_eq!(total.hits() + total.misses, (threads * rounds * 5) as u64);
    }

    #[test]
    fn hop_labels_serve_over_limit_rqs() {
        let g = Arc::new(rpq_graph::gen::synthetic(600, 2400, 2, 3, 21));
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                matrix_node_limit: 0, // force the over-limit regime
                workers: 2,
                ..EngineConfig::default()
            },
        );
        assert!(!engine.matrix_available());
        assert!(engine.hop().get().is_none(), "index must be lazy");
        let q = rq(&g, "a0 <= 4", "a1 >= 6", "c0^2 c1");

        // deterministic path for the assertion: build inline
        engine.hop().force().expect("within default budget");
        assert!(engine.hop().get().is_some());
        assert_eq!(engine.plan_query(&Query::Rq(q.clone())).name(), "hop");

        let batch = engine.run_batch(&[Query::Rq(q.clone()), Query::Rq(q.clone())]);
        assert_eq!(batch.items()[0].plan.name(), "hop");
        assert_eq!(batch.items()[1].plan.name(), "hop");
        // bit-identical to search-based evaluation
        assert_eq!(batch.items()[0].output.as_rq().unwrap(), &q.eval_bfs(&g));
        assert_eq!(batch.items()[0].output, batch.items()[1].output);
        // `_` is answered by the graph, beside the published index
        let wq = rq(&g, "a0 <= 9", "a1 >= 2", "_^2");
        assert_eq!(engine.plan_query(&Query::Rq(wq.clone())).name(), "BFS+memo");
        assert_eq!(
            engine.run_query(&Query::Rq(wq.clone())).as_rq().unwrap(),
            &wq.eval_bfs(&g)
        );
    }

    #[test]
    fn hop_labels_serve_over_limit_pqs() {
        let g = Arc::new(rpq_graph::gen::synthetic(600, 2400, 2, 3, 21));
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                matrix_node_limit: 0, // force the over-limit regime
                workers: 2,
                ..EngineConfig::default()
            },
        );
        // a small acyclic pattern and a large cyclic one: over the matrix
        // limit both route to JoinMatch (split is a matrix-only pick), and
        // the backend flips search → hop once the index lands
        let mut join_pq = Pq::new();
        let a = join_pq.add_node("a", Predicate::parse("a0 <= 4", g.schema()).unwrap());
        let b = join_pq.add_node("b", Predicate::parse("a1 >= 5", g.schema()).unwrap());
        join_pq.add_edge(a, b, FRegex::parse("c0^2 c1", g.alphabet()).unwrap());

        let mut ring_pq = Pq::new();
        let ring: Vec<usize> = (0..10)
            .map(|i| ring_pq.add_node(&format!("n{i}"), Predicate::always_true()))
            .collect();
        for i in 0..10 {
            ring_pq.add_edge(
                ring[i],
                ring[(i + 1) % 10],
                FRegex::parse(if i % 2 == 0 { "c0" } else { "c1+" }, g.alphabet()).unwrap(),
            );
        }

        // before the index lands: the search backend's plans
        for pq in [&join_pq, &ring_pq] {
            assert_eq!(
                engine.plan_query(&Query::Pq(pq.clone())).name(),
                "JoinMatch/cache"
            );
        }

        engine.hop().force().expect("within default budget");
        let batch = engine.run_batch(&[Query::Pq(join_pq.clone()), Query::Pq(ring_pq.clone())]);
        assert_eq!(batch.items()[0].plan.name(), "JoinMatch/hop");
        assert_eq!(batch.items()[1].plan.name(), "JoinMatch/hop");
        // bit-identical to the reference fixpoint
        assert_eq!(
            batch.items()[0].output.as_pq().unwrap(),
            &join_pq.eval_naive(&g)
        );
        assert_eq!(
            batch.items()[1].output.as_pq().unwrap(),
            &ring_pq.eval_naive(&g)
        );
        // the same large ring under the matrix limit is the split regime
        let small_engine = QueryEngine::new(Arc::clone(&g));
        assert_eq!(
            small_engine.plan_query(&Query::Pq(ring_pq.clone())).name(),
            "SplitMatch/DM"
        );
        assert_eq!(
            small_engine
                .run_query(&Query::Pq(ring_pq.clone()))
                .as_pq()
                .unwrap(),
            &ring_pq.eval_naive(&g)
        );
    }

    /// One concrete-color and one `_`-bearing query of each kind, with
    /// their reference answers (`Rq::eval_bfs` / `Pq::eval_naive`).
    fn layer_probe_queries(g: &Graph) -> (Vec<Query>, Vec<QueryOutput>) {
        let pq = |re: &str| {
            let mut pq = Pq::new();
            let a = pq.add_node("a", Predicate::parse("a0 <= 5", g.schema()).unwrap());
            let b = pq.add_node("b", Predicate::always_true());
            pq.add_edge(a, b, FRegex::parse(re, g.alphabet()).unwrap());
            Query::Pq(pq)
        };
        let queries = vec![
            Query::Rq(rq(g, "a0 <= 4", "a1 >= 6", "c0^2 c1")),
            Query::Rq(rq(g, "a0 <= 9", "a1 >= 2", "_^2")),
            pq("c0 c1"),
            pq("c0 _^2"),
        ];
        let reference = queries
            .iter()
            .map(|q| match q {
                Query::Rq(rq) => QueryOutput::Rq(rq.eval_bfs(g)),
                Query::Pq(pq) => QueryOutput::Pq(Arc::new(pq.eval_naive(g))),
            })
            .collect();
        (queries, reference)
    }

    #[test]
    fn wildcard_dropped_on_budget_falls_back_for_pqs() {
        // `_` is answered by the graph whether or not an index serves the
        // concrete colors; a hop build one byte over its budget publishes
        // nothing, which pins search for every query
        let g = Arc::new(rpq_graph::gen::synthetic(600, 2400, 2, 3, 21));
        let (queries, reference) = layer_probe_queries(&g);
        let full = HopLabels::build(&g).bytes();
        for (budget, indexed) in [(full, true), (full - 1, false)] {
            let engine = QueryEngine::with_config(
                Arc::clone(&g),
                EngineConfig {
                    matrix_node_limit: 0,
                    hop_label_budget: budget,
                    workers: 2,
                    ..EngineConfig::default()
                },
            );
            assert_eq!(engine.hop().force().is_some(), indexed);
            let slot = if indexed {
                "hop=Ready"
            } else {
                "hop=OverBudget"
            };
            for (i, (q, want)) in queries.iter().zip(&reference).enumerate() {
                let wildcard = i % 2 == 1;
                let (out, profile) = engine.run_query_profiled(q);
                assert_eq!(&out, want, "{}", profile.plan);
                let why = &profile.rationale;
                let backend = engine.plan_query(q).backend();
                if wildcard {
                    assert_eq!(backend, Backend::Search, "{why}");
                    assert!(why.contains("label indices hold concrete colours"), "{why}");
                } else if indexed {
                    assert_eq!(backend, Backend::Hop, "{why}");
                } else {
                    assert_eq!(backend, Backend::Search, "{why}");
                    assert!(why.contains("no usable index"), "{why}");
                }
                let detail = &profile.stages[0].detail;
                assert!(detail.contains(slot), "{detail}");
            }
        }
    }

    #[test]
    fn background_build_lands_and_later_batches_use_it() {
        let g = Arc::new(rpq_graph::gen::synthetic(300, 1200, 2, 3, 5));
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                matrix_node_limit: 0,
                ..EngineConfig::default()
            },
        );
        let q = rq(&g, "a0 <= 5", "a1 >= 5", "c0 c1");
        // first batch: kicks the build; its own plan is a search fallback
        // or (if the tiny build won the race) already hop — both correct
        let first = engine.run_batch(&[Query::Rq(q.clone())]);
        let reference = q.eval_bfs(&g);
        assert_eq!(first.items()[0].output.as_rq().unwrap(), &reference);
        // wait for the background build to land
        let t0 = std::time::Instant::now();
        while engine.hop().get().is_none() && t0.elapsed() < std::time::Duration::from_secs(30) {
            std::thread::yield_now();
        }
        assert!(
            engine.hop().get().is_some(),
            "background build never landed"
        );
        let second = engine.run_batch(&[Query::Rq(q.clone())]);
        assert_eq!(second.items()[0].plan.name(), "hop");
        assert_eq!(second.items()[0].output.as_rq().unwrap(), &reference);
    }

    #[test]
    fn over_budget_build_pins_search_fallback() {
        let g = Arc::new(rpq_graph::gen::synthetic(200, 800, 2, 3, 9));
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                matrix_node_limit: 0,
                hop_label_budget: 1, // nothing fits
                ..EngineConfig::default()
            },
        );
        assert!(engine.hop().force().is_none());
        let q = rq(&g, "a0 <= 5", "a1 >= 5", "c0 c1");
        assert_eq!(
            engine.plan_query(&Query::Rq(q.clone())).backend(),
            Backend::Search
        );
        assert_eq!(
            engine.run_query(&Query::Rq(q.clone())).as_rq().unwrap(),
            &q.eval_bfs(&g)
        );
    }

    #[test]
    fn busted_hop_budget_flips_to_sharded_plans() {
        let g = Arc::new(rpq_graph::gen::clustered(400, 1600, 4, 2, 3, 60, 7));
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                matrix_node_limit: 0, // over-limit regime
                hop_label_budget: 1,  // the single-index build cannot fit
                shards: 4,
                shard_memory_budget: 0, // unlimited per-shard builds
                workers: 2,
                ..EngineConfig::default()
            },
        );
        // while the hop build hasn't failed yet, sharding stays out of
        // policy — the single index is still preferred
        assert!(engine.sharded().force().is_none());
        assert!(engine.hop().force().is_none(), "hop build over budget");
        // now the flip: policy admits the sharded fallback
        let labels = engine.sharded().force().expect("sharded build fits");
        assert_eq!(labels.sharded_graph().k(), 4);
        assert!(engine.sharded().get().is_some());

        let q = rq(&g, "a0 <= 4", "a1 >= 6", "c0^2 c1");
        assert_eq!(engine.plan_query(&Query::Rq(q.clone())).name(), "sharded");
        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::parse("a0 <= 3", g.schema()).unwrap());
        let b = pq.add_node("b", Predicate::parse("a1 >= 5", g.schema()).unwrap());
        pq.add_edge(a, b, FRegex::parse("c0 c1", g.alphabet()).unwrap());
        assert_eq!(
            engine.plan_query(&Query::Pq(pq.clone())).name(),
            "JoinMatch/sharded"
        );

        let batch = engine.run_batch(&[Query::Rq(q.clone()), Query::Pq(pq.clone())]);
        assert_eq!(batch.items()[0].plan.name(), "sharded");
        assert_eq!(batch.items()[1].plan.name(), "JoinMatch/sharded");
        assert_eq!(batch.items()[0].output.as_rq().unwrap(), &q.eval_bfs(&g));
        assert_eq!(batch.items()[1].output.as_pq().unwrap(), &pq.eval_naive(&g));
    }

    #[test]
    fn build_sharded_serves_sharded_plans() {
        let g = Arc::new(rpq_graph::gen::clustered(500, 2000, 4, 2, 3, 60, 17));
        let engine = QueryEngine::build_sharded(
            Arc::clone(&g),
            EngineConfig {
                shards: 4,
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .expect("unbudgeted build");
        let labels = engine.sharded().get().expect("built eagerly");
        assert_eq!(labels.sharded_graph().k(), 4);
        assert_eq!(engine.index_bytes(), labels.stats().total_bytes() as u64);
        // the sharded regime is pinned: no other index can race the planner
        assert!(!engine.matrix_available());
        assert!(engine.hop().force().is_none());

        let q = rq(&g, "a0 <= 4", "a1 >= 6", "c0^2 c1");
        assert_eq!(engine.plan_query(&Query::Rq(q.clone())).name(), "sharded");

        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::parse("a0 <= 3", g.schema()).unwrap());
        let b = pq.add_node("b", Predicate::parse("a1 >= 5", g.schema()).unwrap());
        pq.add_edge(a, b, FRegex::parse("c0 c1", g.alphabet()).unwrap());
        assert_eq!(
            engine.plan_query(&Query::Pq(pq.clone())).name(),
            "JoinMatch/sharded"
        );

        let batch = engine.run_batch(&[Query::Rq(q.clone()), Query::Pq(pq.clone())]);
        for item in batch.items() {
            assert_eq!(item.plan.backend(), Backend::Sharded);
        }
        // bit-identical to the search references
        assert_eq!(batch.items()[0].output.as_rq().unwrap(), &q.eval_bfs(&g));
        assert_eq!(batch.items()[1].output.as_pq().unwrap(), &pq.eval_naive(&g));
    }

    #[test]
    fn build_sharded_fails_eagerly_over_budget() {
        let g = Arc::new(rpq_graph::gen::synthetic(300, 1200, 2, 3, 3));
        let err = QueryEngine::build_sharded(
            Arc::clone(&g),
            EngineConfig {
                shards: 3,
                shard_memory_budget: 1,
                ..EngineConfig::default()
            },
        );
        assert!(matches!(err, Err(EngineError::IndexOverBudget { .. })));
    }

    #[test]
    fn backend_preference_is_matrix_hop_sharded_search() {
        // the one place index availability is ranked: each better index,
        // once usable, displaces the one below it for RQs and PQs alike
        let g = Arc::new(rpq_graph::gen::clustered(300, 1200, 3, 2, 3, 60, 11));
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                matrix_node_limit: 0,
                ..EngineConfig::default()
            },
        );
        let q = Query::Rq(rq(&g, "a0 <= 4", "a1 >= 6", "c0^2 c1"));
        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::parse("a0 <= 3", g.schema()).unwrap());
        let b = pq.add_node("b", Predicate::always_true());
        pq.add_edge(a, b, FRegex::parse("c0 c1", g.alphabet()).unwrap());
        let pq = Query::Pq(pq);
        let backends = || [&q, &pq].map(|query| engine.plan_query(query).backend());

        assert_eq!(backends(), [Backend::Search; 2]);
        // (policy only builds the sharded index once the single index is
        // out, so seed it the way the carry path does)
        let sharded = ShardedLabels::build_with(&g, &engine.config.sharded_config(), None);
        engine.sharded().adopt(Arc::new(sharded.unwrap()));
        assert_eq!(backends(), [Backend::Sharded; 2]);
        engine.hop().force().expect("within default budget");
        assert_eq!(backends(), [Backend::Hop; 2]);
        engine.force_matrix();
        assert_eq!(backends(), [Backend::Matrix; 2]);
        // and every rung answers identically
        assert_eq!(engine.run_query(&q), QueryEngine::new(g).run_query(&q));
    }

    #[test]
    fn builder_validates() {
        let built = EngineConfig::builder()
            .workers(2)
            .shards(4)
            .shard_memory_budget(1 << 20)
            .build()
            .unwrap();
        assert_eq!(built.workers, 2);
        assert_eq!(built.shards, 4);
        assert_eq!(built.shard_memory_budget, 1 << 20);
        // untouched fields keep their defaults
        assert_eq!(
            built.matrix_node_limit,
            EngineConfig::default().matrix_node_limit
        );

        assert_eq!(
            EngineConfig::builder().shards(0).build(),
            Err(ConfigError::ZeroShards)
        );
        assert!(matches!(
            EngineConfig::builder().workers(usize::MAX).build(),
            Err(ConfigError::TooManyWorkers { .. })
        ));
    }

    #[test]
    fn retired_engine_never_pins_failure() {
        let g = Arc::new(rpq_graph::gen::synthetic(150, 500, 2, 3, 2));
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                matrix_node_limit: 0,
                ..EngineConfig::default()
            },
        );
        engine.retire_index_builds();
        engine.ensure_index_builds();
        // a retired engine never starts a background build, so nothing
        // can pin a failure
        assert!(engine.hop().get().is_none());
        assert!(!engine.hop.over_budget(), "cancel must not pin a failure");
        // a forced build on a retired engine still works (force is
        // deliberate and synchronous, so the epoch flag does not apply)
        assert!(engine.hop().force().is_some());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The hit-path filter (verdict table, checked sorted-input
        /// constructor) returns what per-pair filtering plus a sort did,
        /// for selective, unselective and trivial target predicates.
        #[test]
        fn rq_targets_matches_per_pair_filter_and_sort(
            raw in proptest::collection::vec((0u32..200, 0u32..200), 0..300),
            to in prop_oneof![
                Just(String::new()),
                (0i64..240).prop_map(|k| format!("len <= {k}")),
                (0i64..240).prop_map(|k| format!("len >= {k} && cat = \"Music\"")),
            ],
        ) {
            let g = rpq_graph::gen::youtube_like(200, 1);
            let query = rq(&g, "", &to, "fc");
            // a memoized reach set: sorted, duplicate-free
            let mut pairs: Vec<(NodeId, NodeId)> =
                raw.into_iter().map(|(x, y)| (NodeId(x), NodeId(y))).collect();
            pairs.sort_unstable();
            pairs.dedup();
            let kept = pairs
                .iter()
                .filter(|&&(_, y)| query.to.matches(g.attrs(y)))
                .copied()
                .collect();
            let expected = QueryOutput::Rq(RqResult::from_pairs(kept));
            prop_assert_eq!(rq_targets(&g, &query, &pairs), expected);
        }
    }
}
