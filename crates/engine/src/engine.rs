//! The [`QueryEngine`]: one immutable graph, the one index built for it,
//! and batch evaluation on the calling thread.

use crate::batch::{BatchItem, BatchResult, Query, QueryOutput};
use crate::error::ConfigError;
use crate::explain::query_summary;
use crate::memo::{Lookup, SemanticMemo, SemanticStats};
use crate::planner::{self, Algo, Backend, Plan, Rationale, Uncovered};
use crate::snapshot::StandingEntry;
use rpq_core::canonical::{canonical_pq, canonical_rq};
use rpq_core::incremental::patch_reach_set;
use rpq_core::join_match::JoinMatch;
use rpq_core::predicate::{selected, Predicate};
use rpq_core::reach::ProbeReach;
use rpq_core::rq::{Rq, RqResult};
use rpq_core::split_match::SplitMatch;
use rpq_graph::{DistanceMatrix, Graph, NodeId};
use rpq_index::{
    CountingProbe, DistProbe, GraphProbe, HopBuildError, HopConfig, HopLabels, ShardedLabels,
};
use rpq_trace::QueryProfile;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
///     .matrix_node_limit(0)
///     .build()
///     .unwrap();
/// assert_eq!(config.matrix_node_limit, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Build the per-color distance matrix iff `|V| <= matrix_node_limit`
    /// (the matrix costs O(|Σ|·|V|²) memory — the default keeps it a few
    /// tens of megabytes).
    pub matrix_node_limit: usize,
    /// Byte budget for the pruned 2-hop label index built for graphs
    /// *above* the matrix node limit (`0` disables hop labels entirely),
    /// at engine construction. The index holds one layer per concrete
    /// color — queries mentioning `_` are always answered by the graph —
    /// and if those layers do not fit the budget, the engine falls through
    /// to the sharded regime (when configured) or serves search plans
    /// permanently.
    pub hop_label_budget: usize,
    /// Number of shards of the sharded regime; `< 2` disables it. With
    /// `shards ≥ 2`, a graph over the matrix limit whose hop-label build
    /// **fails its budget** (or is disabled) gets a
    /// [`ShardedLabels`]: the graph plus an edge-cut partition into
    /// `shards` pieces, serving the `sharded` / `JoinMatch/sharded` plans
    /// by sweeping the graph — the answers and the cost of search, with a
    /// write's touched shards counted in
    /// [`IndexMaintenance::shards_touched`](crate::IndexMaintenance::shards_touched).
    pub shards: usize,
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
            matrix_node_limit: 2048,
            hop_label_budget: 256 << 20,
            shards: 1,
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
}

/// Builder for [`EngineConfig`] — see [`EngineConfig::builder`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
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

    /// Shard count of the sharded regime (`1` disables it; must be ≥ 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Slow-query threshold in microseconds (`0` = disabled, the default).
    pub fn slow_query_us(mut self, threshold_us: u64) -> Self {
        self.config.slow_query_us = threshold_us;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        if self.config.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        Ok(self.config)
    }
}

/// The one reachability index of an engine's graph version, decided and
/// built with the engine ([`Index::build`]) or carried into it through a
/// repair by the live-update layer.
#[derive(Debug)]
pub(crate) enum Index {
    /// The per-color distance matrix: graphs at or under
    /// [`matrix_node_limit`](EngineConfig::matrix_node_limit).
    Matrix(DistanceMatrix),
    /// The whole-graph hop-label index.
    Hop(HopLabels),
    /// The graph plus an edge-cut partition of it.
    Sharded(ShardedLabels),
    /// No index fits this configuration: the graph answers every query.
    None,
}

impl Index {
    /// The deployment policy, one rung after the other: the matrix at or
    /// under the node limit; otherwise hop labels under
    /// [`hop_label_budget`](EngineConfig::hop_label_budget); otherwise
    /// the sharded regime when [`shards`](EngineConfig::shards) ≥ 2. A
    /// hop build over its budget falls through to the next rung, and the
    /// last rung is graph-only — a pinned verdict for this graph version.
    pub(crate) fn build(g: &Arc<Graph>, config: &EngineConfig) -> Index {
        if g.node_count() <= config.matrix_node_limit {
            return Index::Matrix(DistanceMatrix::build(g));
        }
        if config.hop_label_budget > 0 {
            let hop = HopConfig {
                budget_bytes: config.hop_label_budget,
            };
            let built = traced_build("hop", || HopLabels::build_with(g, &hop));
            if let Some(labels) = built {
                return Index::Hop(labels);
            }
        }
        if config.shards >= 2 {
            let built = traced_build("sharded", || Ok(ShardedLabels::build(g, config.shards)));
            return Index::Sharded(built.expect("a partition has no budget to bust"));
        }
        Index::None
    }

    /// Is this a label index (hop) or the sharded regime — the kind a
    /// write repairs?
    pub(crate) fn is_label(&self) -> bool {
        matches!(self, Index::Hop(_) | Index::Sharded(_))
    }

    pub(crate) fn name(&self) -> &'static str {
        match self {
            Index::Matrix(_) => "matrix",
            Index::Hop(_) => "hop",
            Index::Sharded(_) => "sharded",
            Index::None => "none",
        }
    }
}

/// Run one label build and record it as an `index/<name>-build` span:
/// the index, or `None` over budget.
fn traced_build<T>(name: &str, build: impl FnOnce() -> Result<T, HopBuildError>) -> Option<T> {
    let t0 = Instant::now();
    let built = build();
    let detail = match &built {
        Ok(_) => "ok".to_owned(),
        Err(e) => format!("{e}: next rung"),
    };
    rpq_trace::tracer().record_span("index", &format!("{name}-build"), t0.elapsed(), &detail);
    built.ok()
}

/// A shared, immutable graph plus the one index built for it, evaluating
/// batches of mixed [`Query::Rq`] / [`Query::Pq`] queries, each batch on
/// the thread that submits it.
///
/// The engine is `Sync`: one instance serves batches from many threads at
/// once, and they share its memo.
#[derive(Debug)]
pub struct QueryEngine {
    graph: Arc<Graph>,
    config: EngineConfig,
    /// Decided and built at construction: every query plans against an
    /// index that exists.
    index: Index,
    /// The one reach-set memo of this graph version: an RQ's reach set
    /// is a function of (graph, source predicate, regex) alone, so every
    /// run on this engine shares it. The graph is immutable for the life
    /// of the engine, so nothing ever invalidates a fresh entry. The live
    /// layer publishes a new engine per version whose memo inherits the
    /// predecessor's cells ([`SemanticMemo::carry`]); a miss patches an
    /// inherited cell instead of evaluating in full. A read-only engine
    /// starts empty and inherits nothing.
    memo: SemanticMemo,
}

impl QueryEngine {
    /// Engine over `graph` with default configuration.
    pub fn new(graph: Arc<Graph>) -> Self {
        Self::with_config(graph, EngineConfig::default())
    }

    /// Engine over `graph` with explicit configuration: builds the index
    /// the configuration calls for before returning — the matrix at or
    /// under [`matrix_node_limit`](EngineConfig::matrix_node_limit), else
    /// hop labels under their budget, else the sharded regime, else none.
    pub fn with_config(graph: Arc<Graph>, config: EngineConfig) -> Self {
        let index = Index::build(&graph, &config);
        Self::with_index(graph, config, index)
    }

    /// Engine over `graph` serving `index`, which must answer for
    /// `graph` — built for it, or repaired into it by the live-update
    /// layer.
    pub(crate) fn with_index(graph: Arc<Graph>, config: EngineConfig, index: Index) -> Self {
        QueryEngine {
            graph,
            config,
            index,
            memo: SemanticMemo::new(),
        }
    }

    /// This engine with `memo` — the predecessor version's memo carried
    /// over one batch ([`SemanticMemo::carry`]) — in place of its empty one.
    pub(crate) fn with_memo(mut self, memo: SemanticMemo) -> Self {
        self.memo = memo;
        self
    }

    /// This version's reach-set memo.
    pub(crate) fn memo(&self) -> &SemanticMemo {
        &self.memo
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// This engine's index.
    pub(crate) fn index(&self) -> &Index {
        &self.index
    }

    /// The distance matrix, when this engine was built with one.
    pub fn matrix(&self) -> Option<&DistanceMatrix> {
        match &self.index {
            Index::Matrix(matrix) => Some(matrix),
            _ => None,
        }
    }

    /// The whole-graph hop-label index, when this engine was built (or
    /// repaired) with one. It holds one layer per concrete color; queries
    /// mentioning `_` are answered by the graph.
    pub fn hop(&self) -> Option<&HopLabels> {
        match &self.index {
            Index::Hop(labels) => Some(labels),
            _ => None,
        }
    }

    /// The sharded regime's graph and partition, when this engine was
    /// built (or repaired) with one.
    pub fn sharded(&self) -> Option<&ShardedLabels> {
        match &self.index {
            Index::Sharded(labels) => Some(labels),
            _ => None,
        }
    }

    /// Bytes held by this engine's index (`/metrics` `rpq_index_bytes`).
    pub fn index_bytes(&self) -> u64 {
        (match &self.index {
            Index::Matrix(_) => DistanceMatrix::bytes_for(&self.graph),
            Index::Hop(labels) => labels.bytes(),
            Index::Sharded(labels) => labels.stats().total_bytes(),
            Index::None => 0,
        }) as u64
    }

    /// Cumulative counters of this engine's semantic reach-set memo —
    /// exact hits, subsumption hits, misses, and filter time — over
    /// every query run since construction.
    pub fn semantic_stats(&self) -> SemanticStats {
        self.memo.semantic_stats()
    }

    /// The best backend for `query`: this engine's index, when it is the
    /// matrix or a label index holding a layer for every color the query
    /// probes; otherwise the graph ([`Backend::Search`]).
    fn best_backend(&self, query: &Query) -> Backend {
        match &self.index {
            Index::Matrix(_) => Backend::Matrix,
            Index::Hop(labels) if query.all_colors(|c| labels.has_layer(c)) => Backend::Hop,
            Index::Sharded(labels) if query.all_colors(|c| labels.has_layer(c)) => Backend::Sharded,
            _ => Backend::Search,
        }
    }

    /// The plan for `query`, and the entry of `standing` (a snapshot's
    /// standing answers) that serves it: a PQ of a registered shape
    /// ([`rpq_core::pq_same_shape`]) plans `standing`; everything else is
    /// planned over this engine's index.
    pub(crate) fn plan<'s>(
        &self,
        query: &Query,
        standing: &'s [StandingEntry],
    ) -> (Plan, Rationale, Option<&'s StandingEntry>) {
        if let Query::Pq(pq) = query {
            if let Some(entry) = standing.iter().find(|s| rpq_core::pq_same_shape(&s.pq, pq)) {
                let plan = Plan {
                    algo: Algo::Standing,
                    backend: Backend::Search,
                };
                return (plan, Rationale::Standing, Some(entry));
            }
        }
        let backend = self.best_backend(query);
        let (plan, why) = match query {
            Query::Rq(rq) => planner::plan_rq(&rq.regex, backend),
            Query::Pq(pq) => planner::plan_pq(pq, backend),
        };
        // off the matrix, a query mentioning `_` is never index-backed
        if backend == Backend::Search && !query.all_colors(|c| !c.is_wildcard()) {
            return (plan, why.uncovered(Uncovered::Wildcard), None);
        }
        (plan, why, None)
    }

    /// The plan the engine would pick for `query` outside any batch.
    pub fn plan_query(&self, query: &Query) -> Plan {
        self.plan(query, &[]).0
    }

    /// Evaluate one query (a batch of one, on the calling thread).
    pub fn run_query(&self, query: &Query) -> QueryOutput {
        let batch = self.run(std::slice::from_ref(query), &[], Mode::Serve);
        batch.items()[0].output.clone()
    }

    /// Evaluate one query and return its execution profile alongside the
    /// output: chosen plan + rationale, contiguous stage timings (their
    /// sum equals the profile's wall time by construction), probe
    /// counts, memo hit/miss and shard fan-out.
    /// This is the `explain` surface.
    pub fn run_query_profiled(&self, query: &Query) -> (QueryOutput, QueryProfile) {
        self.profile_one(query, &[], Mode::Profile)
    }

    /// Profiled evaluation under a **caller-chosen** plan, bypassing the
    /// planner — the test/bench surface that lets the differential oracle drive
    /// every servable entry of [`Plan::ALL`] (this is for deterministic
    /// harnesses, not production traffic). It
    /// also bypasses the engine's memo: the run evaluates against a
    /// scratch memo local to the call, so it exercises the plan rather
    /// than the cache, and leaves [`semantic_stats`](Self::semantic_stats)
    /// untouched.
    ///
    /// # Panics
    ///
    /// Panics if `plan` does not match the query kind, requires an index
    /// this engine was not built with, or is the `standing`
    /// plan — standing answers are served by the snapshot layer
    /// (`Snapshot::run_query_profiled`), not the engine.
    pub fn run_query_with_plan_profiled(
        &self,
        query: &Query,
        plan: Plan,
    ) -> (QueryOutput, QueryProfile) {
        self.profile_one(query, &[], Mode::Force(plan))
    }

    /// A profiled batch of one through [`run`](Self::run): its output and
    /// the profile its item carries.
    pub(crate) fn profile_one(
        &self,
        query: &Query,
        standing: &[StandingEntry],
        mode: Mode,
    ) -> (QueryOutput, QueryProfile) {
        let batch = self.run(std::slice::from_ref(query), standing, mode);
        let item = &batch.items()[0];
        let profile = item.profile.as_deref().expect("profiled run");
        (item.output.clone(), profile.clone())
    }

    /// Evaluate a batch on the calling thread: plan each query, then
    /// answer them one after the other, in submission order. Outputs are
    /// identical to sequential single-query evaluation — the strategies
    /// differ only in cost. Batches are the unit of parallelism above the
    /// engine: any number of threads may run batches on one engine at
    /// once (the server runs one per executor role), and they share its
    /// memo, so hot keys are computed once per engine rather than once
    /// per batch; the reported semantic stats are this batch's own
    /// lookups, tallied per item.
    pub fn run_batch(&self, queries: &[Query]) -> BatchResult {
        self.run(queries, &[], Mode::Serve)
    }

    /// The one evaluation loop behind every run of this engine and of
    /// its snapshots, which pass their `standing` answers in.
    pub(crate) fn run(
        &self,
        queries: &[Query],
        standing: &[StandingEntry],
        mode: Mode,
    ) -> BatchResult {
        let t0 = Instant::now();
        let planned = self.prologue(queries, standing, mode);
        let profiled = mode != Mode::Serve;
        // a forced plan must exercise the plan, not the cache
        let scratch = matches!(mode, Mode::Force(_)).then(SemanticMemo::new);
        let memo = scratch.as_ref().unwrap_or(&self.memo);

        let mut semantic = SemanticStats::default();
        let mut items = Vec::with_capacity(queries.len());
        for (submitted, p) in queries.iter().zip(&planned) {
            let job = Job {
                g: &self.graph,
                query: &p.query,
                plan: p.plan,
                memo,
            };
            let t = Instant::now();
            let (output, probes, lookup) = self.answer(job, p.standing);
            let time = t.elapsed();
            self.note_if_slow(job.query, job.plan, time);
            if let Some(lookup) = lookup {
                semantic.record(lookup);
            }
            let mut item = BatchItem {
                output,
                plan: job.plan,
                time,
                profile: None,
            };
            if profiled {
                let profile = self.profile(submitted, p, &item, probes, lookup);
                item.profile = Some(Arc::new(profile));
            }
            items.push(item);
        }
        BatchResult::new(items, t0.elapsed(), semantic)
    }

    /// The one prologue of every run: canonicalise → plan each query (or
    /// take the forced plan). Minimize-before-plan: syntactic variants of
    /// one language share a memo key, a plan, and one reach-set
    /// computation. The standing test sees the submitted PQ's verdict:
    /// [`rpq_core::pq_same_shape`] compares canonical regexes.
    fn prologue<'s>(
        &self,
        queries: &[Query],
        standing: &'s [StandingEntry],
        mode: Mode,
    ) -> Vec<Planned<'s>> {
        queries
            .iter()
            .map(|query| {
                // the hot path reads no clock here
                let t = (mode != Mode::Serve).then(Instant::now);
                let query = canonical_query(query);
                let (plan, why, standing) = match mode {
                    Mode::Force(plan) => (plan, Rationale::Forced(plan), None),
                    _ => self.plan(&query, standing),
                };
                Planned {
                    query,
                    plan,
                    why,
                    standing,
                    planning: t.map_or(Duration::ZERO, |t| t.elapsed()),
                }
            })
            .collect()
    }

    /// The profile of one answered query. Its stages are contiguous
    /// (planning, then answering), so they sum to the wall time exactly:
    /// `plan` and `standing-answer` for a standing answer, else `plan`,
    /// `prepare` (zero: the index was built with the engine) and `eval`.
    fn profile(
        &self,
        submitted: &Query,
        p: &Planned<'_>,
        item: &BatchItem,
        probes: u64,
        lookup: Option<Lookup>,
    ) -> QueryProfile {
        let mut profile = QueryProfile::new(
            query_summary(submitted, &self.graph),
            p.plan.name().to_owned(),
            p.why.to_string(),
        );
        if p.query != *submitted {
            profile.canonical = query_summary(&p.query, &self.graph);
        }
        if p.standing.is_some() {
            profile.stage("plan", p.planning, "standing query matched".to_owned());
            profile.stage("standing-answer", item.time, String::new());
        } else {
            profile.stage("plan", p.planning, format!("index={}", self.index.name()));
            profile.stage("prepare", Duration::ZERO, String::new());
            profile.stage("eval", item.time, format!("probes={probes}"));
        }
        profile.probes = probes;
        // this query's own lookup, not a delta of the shared counters:
        // exact whatever else runs on the memo meanwhile
        if let Some(lookup) = lookup {
            let hit = matches!(lookup, Lookup::Exact | Lookup::Subsumption { .. });
            profile.memo_hits = u64::from(hit);
            profile.memo_misses = u64::from(!hit);
            profile.semcache = lookup.as_str().to_owned();
        }
        if let (Backend::Sharded, Some(labels)) = (p.plan.backend(), self.sharded()) {
            profile.shard_fanout = labels.partition().k() as u32;
        }
        profile.matches = item.output.match_count() as u64;
        profile.wall = p.planning + item.time;

        let tracer = rpq_trace::tracer();
        if tracer.enabled() {
            let detail = format!(
                "plan={} probes={probes} matches={}",
                p.plan.name(),
                profile.matches
            );
            tracer.record_span("engine", "explain", profile.wall, &detail);
        }
        profile
    }

    /// Answer `job`: from `standing` — the snapshot's maintained answer,
    /// the PQ counterpart of a memo hit — or from the memo if it can,
    /// else by evaluating the plan. Returns the output, the distance
    /// probes issued (see [`evaluate`](Self::evaluate)) and the one memo
    /// lookup the query made — `None` for a PQ, which has no cell.
    ///
    /// Every RQ plan probes the semantic cache first: a fresh exact cell
    /// or a containing cached entry answers — with the answer the cell
    /// keeps for the query's target predicate, or its reach set filtered
    /// down to that target — without touching the index or the graph; a
    /// cold cache costs one lookup and declines (a cell enters the memo
    /// complete, so there is nothing to wait on).
    fn answer(
        &self,
        job: Job<'_>,
        standing: Option<&StandingEntry>,
    ) -> (QueryOutput, u64, Option<Lookup>) {
        let Job { g, memo, .. } = job;
        match (job.query, standing) {
            (_, Some(entry)) => return (QueryOutput::Pq(entry.answer(g)), 0, None),
            (Query::Rq(rq), None) => {
                if let Some((answer, hit)) = memo.try_answer(g, rq) {
                    return (QueryOutput::Rq(answer), 0, Some(hit));
                }
            }
            (Query::Pq(_), None) => {}
        }
        self.evaluate(job)
    }

    /// What the memo could not answer: resolve `plan`'s backend to its
    /// probe — an index, or on [`Backend::Search`] the graph itself
    /// ([`GraphProbe`]) — and evaluate the plan's algorithm over it,
    /// through one [`CountingProbe`]. Returns the output, the number of
    /// distance probes issued (0 for `biBFS`, which probes nothing; only
    /// profiles read it), and an RQ's memo miss: patched or evaluated.
    fn evaluate(&self, job: Job<'_>) -> (QueryOutput, u64, Option<Lookup>) {
        let graph;
        let probe: &dyn DistProbe = match (job.plan.backend(), &self.index) {
            (Backend::Matrix, Index::Matrix(matrix)) => matrix,
            (Backend::Hop, Index::Hop(labels)) => labels,
            (Backend::Sharded, Index::Sharded(labels)) => labels,
            (Backend::Search, _) => {
                graph = GraphProbe::new(job.g);
                &graph
            }
            (backend, index) => panic!(
                "the plan requires the {backend:?} index; this engine holds {}",
                index.name()
            ),
        };
        let counting = CountingProbe::new(probe);
        let (out, lookup) = eval_probing(job, &counting);
        (out, counting.probes(), lookup)
    }

    /// Slow-query log hook: with a nonzero
    /// [`slow_query_us`](EngineConfig::slow_query_us) threshold, a query
    /// over it is counted on the process [`rpq_trace::tracer`] and — when
    /// the tracer is enabled — recorded into the trace ring with its
    /// text, plan, and duration. Costs one integer compare when the
    /// threshold is 0.
    #[inline]
    fn note_if_slow(&self, query: &Query, plan: Plan, dur: Duration) {
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

/// What one run records besides the outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// The serving path: no profiles, no extra clock.
    Serve,
    /// A [`QueryProfile`] in every item's [`BatchItem::profile`].
    Profile,
    /// Profiled under the caller's plan, against a scratch memo (the
    /// test/bench harness).
    Force(Plan),
}

/// One query after the prologue.
struct Planned<'s> {
    /// The canonical form, what runs.
    query: Query,
    plan: Plan,
    why: Rationale,
    /// The standing entry that answers it, when the plan is `standing`.
    standing: Option<&'s StandingEntry>,
    /// Canonicalising and planning it (zero on the serving path).
    planning: Duration,
}

/// What one probe-backed evaluation needs besides the probe.
#[derive(Clone, Copy)]
struct Job<'a> {
    g: &'a Graph,
    query: &'a Query,
    plan: Plan,
    memo: &'a SemanticMemo,
}

/// Evaluate `job` over `probe` — the one evaluator every backend shares,
/// compiled once: the probe is a trait object, and each backend still
/// answers a call with its own optimized implementation. Returns the
/// output, and an RQ's memo miss: patched or evaluated.
fn eval_probing(job: Job<'_>, probe: &dyn DistProbe) -> (QueryOutput, Option<Lookup>) {
    match (job.query, job.plan.algo()) {
        (Query::Rq(rq), Algo::RqDm) => {
            let (out, lookup) = rq_indexed(job.g, rq, probe, job.memo);
            (out, Some(lookup))
        }
        // the paper's baseline, servable when forced: it probes nothing
        (Query::Rq(rq), Algo::RqBiBfs) => {
            (QueryOutput::Rq(rq.eval_bibfs(job.g)), Some(Lookup::Miss))
        }
        // §5's two PQ algorithms
        (Query::Pq(pq), algo) => {
            let reach = &mut ProbeReach::new(probe);
            let answer = match algo {
                Algo::Join => JoinMatch::eval(pq, job.g, reach),
                Algo::Split => SplitMatch::eval(pq, job.g, reach),
                _ => mismatched(algo),
            };
            (QueryOutput::Pq(Arc::new(answer)), None)
        }
        (Query::Rq(_), algo) => mismatched(algo),
    }
}

fn mismatched(plan: impl std::fmt::Debug) -> ! {
    unreachable!("{plan:?} does not evaluate this query kind on this backend")
}

/// `pairs` — a memoized reach set, sorted and duplicate-free — filtered
/// down to the target predicate `to`: one column scan
/// ([`Predicate::select_bits`]), then a bit test per pair; nothing at all
/// when `to` is trivially true. A filtered slice of a sorted set is still
/// sorted, so the result is checked, not re-sorted.
pub(crate) fn rq_targets(g: &Graph, to: &Predicate, pairs: &[(NodeId, NodeId)]) -> RqResult {
    let hits = if to.is_trivial() {
        pairs.to_vec()
    } else {
        let targets = to.select_bits(g);
        pairs
            .iter()
            .filter(|&&(_, y)| selected(&targets, y))
            .copied()
            .collect()
    };
    RqResult::from_sorted_pairs(hits).expect("memoized reach sets are sorted and duplicate-free")
}

/// Probe-backed RQ evaluation after a declined cache probe: the key's
/// *full* reach set — target predicate widened to `true` — is patched
/// from the cell an earlier graph version left in the memo,
/// re-evaluating through the index (or the graph) only the sources the
/// changes since can reach ([`SemanticMemo::patch`], [`patch_reach_set`]).
/// Without one, or when the patch would touch most sources, the memo
/// decides whether the key is worth a cell ([`SemanticMemo::admit`]).
/// Admitted — always while the memo has room, else from the key's second
/// miss — the set is computed in full and installed via
/// [`SemanticMemo::insert`], trading the backward-pruning pass for a
/// reusable cache entry. Patched or admitted, the query's answer is the
/// set filtered down to its targets ([`SemanticMemo::answer`], which keeps
/// it for the next exact hit with the same target), and the next exact or
/// contained query on the key is a cache hit. Declined, the query alone is
/// evaluated (§4's DM tests its target predicate on the last level) and
/// nothing is installed. Also returns the miss: [`Lookup::Patched`],
/// [`Lookup::Miss`] or [`Lookup::Declined`].
fn rq_indexed(
    g: &Graph,
    rq: &Rq,
    probe: &dyn DistProbe,
    memo: &SemanticMemo,
) -> (QueryOutput, Lookup) {
    let wide = Rq::new(rq.from.clone(), Predicate::always_true(), rq.regex.clone());
    let patch = |old: &[_], changes: &[_]| patch_reach_set(g, &wide, probe, old, changes);
    let (pairs, lookup) = match memo.patch(&rq.from, &rq.regex, patch) {
        Some(pairs) => (pairs, Lookup::Patched),
        None if memo.admit(&rq.from, &rq.regex) => {
            let full = wide.eval_with_dist(g, probe).into_pairs();
            (memo.insert(&rq.from, &rq.regex, full), Lookup::Miss)
        }
        None => {
            return (
                QueryOutput::Rq(rq.eval_with_dist(g, probe)),
                Lookup::Declined,
            )
        }
    };
    (QueryOutput::Rq(memo.answer(g, rq, &pairs)), lookup)
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
        let engine = QueryEngine::new(Arc::clone(&g));
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
    fn small_graph_builds_matrix_with_the_engine() {
        let g = Arc::new(essembly());
        let engine = QueryEngine::new(Arc::clone(&g));
        assert!(engine.matrix().is_some(), "built at construction");
        assert_eq!(engine.index_bytes(), DistanceMatrix::bytes_for(&g) as u64);
        assert!(engine.hop().is_none() && engine.sharded().is_none());
        let q = Query::Rq(rq(&g, "job = \"doctor\"", "job = \"doctor\"", "fa"));
        assert_eq!(engine.plan_query(&q).name(), "DM");
        let (_, profile) = engine.run_query_profiled(&q);
        assert_eq!(profile.stages[0].detail, "index=matrix");
    }

    #[test]
    fn over_limit_graph_avoids_matrix() {
        let g = Arc::new(essembly());
        let engine = QueryEngine::with_config(
            Arc::clone(&g),
            EngineConfig {
                matrix_node_limit: 0,
                // no label index either: the graph answers
                hop_label_budget: 0,
                ..EngineConfig::default()
            },
        );
        assert!(engine.matrix().is_none());
        let shared = rq(&g, "job = \"biologist\"", "job = \"doctor\"", "fa^2 fn");
        let solo = rq(&g, "job = \"doctor\"", "job = \"biologist\"", "fa fn");
        let batch = engine.run_batch(&[
            Query::Rq(shared.clone()),
            Query::Rq(shared.clone()),
            Query::Rq(solo.clone()),
        ]);
        assert_eq!(engine.index_bytes(), 0);
        // search RQs plan the memoized per-atom sweep over the graph,
        // whatever the batch shape
        for item in batch.items() {
            assert_eq!(
                (item.plan.algo(), item.plan.backend()),
                (Algo::RqDm, Backend::Search)
            );
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
                            ..EngineConfig::default()
                        },
                    );
                    assert_eq!(engine.hop().is_some(), budget > 0);
                    engine.run_batch(&queries).len()
                })
                .unwrap()
                .join()
                .expect("evaluated without overflowing");
        }
    }

    #[test]
    fn overlapping_batches_each_tally_their_own_lookups() {
        let g = Arc::new(essembly());
        let engine = QueryEngine::new(Arc::clone(&g));
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
                ..EngineConfig::default()
            },
        );
        assert!(engine.matrix().is_none());
        assert!(engine.hop().is_some(), "built at construction");
        let q = rq(&g, "a0 <= 4", "a1 >= 6", "c0^2 c1");
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
                ..EngineConfig::default()
            },
        );
        // a small acyclic pattern and a large cyclic one: over the matrix
        // limit both route to JoinMatch (split is a matrix-only pick)
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
        // concrete colors; a hop build one byte over its budget leaves the
        // engine without an index, which pins search for every query
        let g = Arc::new(rpq_graph::gen::synthetic(600, 2400, 2, 3, 21));
        let (queries, reference) = layer_probe_queries(&g);
        let full = HopLabels::build(&g).bytes();
        for (budget, indexed) in [(full, true), (full - 1, false)] {
            let engine = QueryEngine::with_config(
                Arc::clone(&g),
                EngineConfig {
                    matrix_node_limit: 0,
                    hop_label_budget: budget,
                    ..EngineConfig::default()
                },
            );
            assert_eq!(engine.hop().is_some(), indexed);
            let index = if indexed { "index=hop" } else { "index=none" };
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
                assert_eq!(detail, index);
            }
        }
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
        assert!(engine.hop().is_none());
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
                ..EngineConfig::default()
            },
        );
        // the hop build busts its budget, so the next rung is built
        assert!(engine.hop().is_none(), "hop build over budget");
        let labels = engine.sharded().expect("the next rung");
        assert_eq!(labels.partition().k(), 4);
        assert_eq!(engine.index_bytes(), labels.stats().total_bytes() as u64);

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
    fn backend_preference_is_matrix_hop_sharded_search() {
        // the one place index policy is ranked: each configuration builds
        // the best rung it allows, for RQs and PQs alike
        let g = Arc::new(rpq_graph::gen::clustered(300, 1200, 3, 2, 3, 60, 11));
        let q = Query::Rq(rq(&g, "a0 <= 4", "a1 >= 6", "c0^2 c1"));
        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::parse("a0 <= 3", g.schema()).unwrap());
        let b = pq.add_node("b", Predicate::always_true());
        pq.add_edge(a, b, FRegex::parse("c0 c1", g.alphabet()).unwrap());
        let pq = Query::Pq(pq);
        let reference = QueryEngine::new(Arc::clone(&g)).run_query(&q);
        // (matrix_node_limit, hop_label_budget, shards) → the rung built
        let rungs = [
            ((300, 0, 1), Backend::Matrix),
            ((0, 256 << 20, 3), Backend::Hop),
            ((0, 0, 3), Backend::Sharded),
            ((0, 1, 3), Backend::Sharded),
            ((0, 0, 1), Backend::Search),
        ];
        for ((limit, budget, shards), backend) in rungs {
            let engine = QueryEngine::with_config(
                Arc::clone(&g),
                EngineConfig {
                    matrix_node_limit: limit,
                    hop_label_budget: budget,
                    shards,
                    ..EngineConfig::default()
                },
            );
            let planned = [&q, &pq].map(|query| engine.plan_query(query).backend());
            assert_eq!(planned, [backend; 2], "{limit} {budget} {shards}");
            // and every rung answers identically
            assert_eq!(engine.run_query(&q), reference);
        }
    }

    /// Every backend answers through a full memo exactly as the
    /// reference evaluator does: on a key's declined first miss, on its
    /// admitted second miss, and on the exact hits after it. The memo's
    /// budget holds a few wide reach sets, so it fills early in the first
    /// round, which asks every query once; the second round asks each
    /// three times in a row.
    #[test]
    fn a_full_memo_answers_alike_on_every_outcome() {
        use rpq_bench::querygen::generate_rq;
        let g = Arc::new(rpq_graph::gen::youtube_like(600, 1));
        let rqs: Vec<Rq> = (0..24).map(|seed| generate_rq(&g, 2, 3, 2, seed)).collect();
        let truth: Vec<RqResult> = rqs.iter().map(|rq| rq.eval_bfs(&g)).collect();
        let queries: Vec<Query> = rqs.into_iter().map(Query::Rq).collect();
        // (matrix_node_limit, hop_label_budget, shards) → the rung built
        let rungs = [
            ((2048, 0, 1), Backend::Matrix),
            ((0, 256 << 20, 1), Backend::Hop),
            ((0, 0, 3), Backend::Sharded),
            ((0, 0, 1), Backend::Search),
        ];
        for ((limit, budget, shards), backend) in rungs {
            let config = EngineConfig {
                matrix_node_limit: limit,
                hop_label_budget: budget,
                shards,
                ..EngineConfig::default()
            };
            let engine = QueryEngine::with_config(Arc::clone(&g), config)
                .with_memo(SemanticMemo::with_byte_budget(64 << 10));
            let mut declined = vec![false; queries.len()];
            let (mut admitted, mut exact) = (0, 0);
            for (round, asks) in [(1, 1), (2, 3)] {
                for (i, query) in queries.iter().enumerate() {
                    for _ in 0..asks {
                        let batch = engine.run_batch(std::slice::from_ref(query));
                        let item = &batch.items()[0];
                        assert_eq!(item.plan.backend(), backend);
                        let answer = item.output.as_rq().expect("an RQ answer");
                        assert_eq!(answer, &truth[i], "{backend:?} query {i} round {round}");
                        let s = batch.semantic_stats();
                        if s.declined == 1 {
                            declined[i] = true;
                        } else if s.misses == 1 && declined[i] {
                            admitted += 1;
                        }
                        exact += s.exact_hits;
                    }
                }
            }
            let declined = declined.iter().filter(|&&d| d).count();
            assert!(
                declined > 0 && admitted > 0 && exact > 0,
                "{backend:?}: {declined} keys declined, {admitted} admitted, {exact} exact hits"
            );
        }
    }

    #[test]
    fn builder_validates() {
        let built = EngineConfig::builder()
            .shards(4)
            .slow_query_us(7)
            .build()
            .unwrap();
        assert_eq!((built.shards, built.slow_query_us), (4, 7));
        // untouched fields keep their defaults
        assert_eq!(
            built.matrix_node_limit,
            EngineConfig::default().matrix_node_limit
        );

        assert_eq!(
            EngineConfig::builder().shards(0).build(),
            Err(ConfigError::ZeroShards)
        );
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
            prop_assert_eq!(rq_targets(&g, &query.to, &pairs), RqResult::from_pairs(kept));
        }
    }
}
