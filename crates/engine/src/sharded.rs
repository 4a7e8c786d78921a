//! The [`ShardedEngine`]: scatter-gather batch serving over a
//! partitioned graph.
//!
//! Where [`QueryEngine`] treats the sharded index as a *fallback* (built
//! in the background once a single-index build has failed its budget),
//! this engine makes the shard topology the primary regime — what a
//! deployment runs when the graph is known up front to exceed any
//! single-index budget:
//!
//! * **build scatter** — construction partitions the graph (or adopts a
//!   caller-supplied [`ShardedGraph`] partition) and builds the `k`
//!   per-shard label indices on a per-shard worker set, each under the
//!   configured per-shard memory budget, then labels the boundary
//!   overlay; the constructor returns the build error eagerly instead of
//!   degrading to search plans;
//! * **query scatter-gather** — batches fan out over worker threads
//!   exactly like [`QueryEngine::run_batch`] (the engine *is* one,
//!   pinned to sharded plans), and each index-backed PQ additionally
//!   chunks its bulk refinement steps across the idle worker budget
//!   ([`rpq_core::reach::ProbeReach::with_workers`]), so one big pattern
//!   query saturates all shards' labels at once; results gather in
//!   submission order, bit-identical to any other backend.
//!
//! Plans come out on [`Backend::Sharded`](crate::Backend::Sharded)
//! (`sharded` / `JoinMatch/sharded`) — the existing RQ/PQ evaluation
//! algorithms run unchanged over the stitched
//! [`DistProbe`](rpq_index::DistProbe); only the probe changes.

use crate::engine::{EngineConfig, QueryEngine};
use crate::error::EngineError;
use crate::memo::{ReachMemo, SemanticStats};
use rpq_graph::{Graph, ShardedGraph};
use rpq_index::{ShardedLabels, ShardedStats};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch engine whose one index is the sharded backend: `k` per-shard
/// hop-label indices plus boundary-overlay labels, built eagerly at
/// construction. See the module docs.
///
/// Unlike the bare [`QueryEngine`] (whose `run_*` entry points spin up a
/// throwaway memo per call), the sharded engine owns an engine-lifetime
/// [`ReachMemo`], so repeated and semantically-contained RQ traffic is
/// served from cache across calls and the cache's hit/miss counters are
/// visible in profiles ([`ShardedEngine::semantic_stats`]). The graph is
/// immutable for the life of the engine, so no invalidation is needed.
#[derive(Debug)]
pub struct ShardedEngine {
    inner: QueryEngine,
    labels: Arc<ShardedLabels>,
    memo: Arc<ReachMemo>,
    build_time: Duration,
}

impl ShardedEngine {
    /// Partition `graph` into `config.shards` pieces and build the
    /// sharded index (parallel per-shard builds, each under
    /// `config.shard_memory_budget` bytes; `0` = unlimited). Fails
    /// eagerly when any per-shard build exceeds its budget.
    ///
    /// `config.shards` is honored as given (clamped to `1..=|V|` by the
    /// partitioner): `shards: 1` yields a single-shard topology — no cut
    /// edges, no overlay stitch cost — which is occasionally useful as a
    /// baseline but serves no scaling purpose.
    pub fn build(graph: Arc<Graph>, config: EngineConfig) -> Result<Self, EngineError> {
        let t0 = Instant::now();
        let labels = Arc::new(ShardedLabels::build_with(
            &graph,
            &config.sharded_config(),
            None,
        )?);
        Ok(Self::with_labels(graph, config, labels, t0.elapsed()))
    }

    /// Build over a caller-partitioned [`ShardedGraph`] (external
    /// partitioners, benches pinning a specific cut).
    pub fn build_on(sharded: Arc<ShardedGraph>, config: EngineConfig) -> Result<Self, EngineError> {
        let t0 = Instant::now();
        let graph = Arc::clone(sharded.graph());
        let labels = Arc::new(ShardedLabels::build_on(
            sharded,
            &config.sharded_config(),
            None,
        )?);
        Ok(Self::with_labels(graph, config, labels, t0.elapsed()))
    }

    fn with_labels(
        graph: Arc<Graph>,
        config: EngineConfig,
        labels: Arc<ShardedLabels>,
        build_time: Duration,
    ) -> Self {
        // pin the sharded regime: no matrix, no single-index build racing
        // the batch planner — every plannable query takes a sharded plan
        let inner = QueryEngine::with_config(
            graph,
            EngineConfig {
                matrix_node_limit: 0,
                hop_label_budget: 0,
                shards: labels.sharded_graph().k(),
                ..config
            },
        );
        inner.sharded().adopt(Arc::clone(&labels));
        ShardedEngine {
            inner,
            labels,
            memo: Arc::new(ReachMemo::persistent()),
            build_time,
        }
    }

    /// The global graph.
    pub fn graph(&self) -> &Arc<Graph> {
        self.inner.graph()
    }

    /// The partitioned storage (shards, boundary, cut edges).
    pub fn sharded_graph(&self) -> &Arc<ShardedGraph> {
        self.labels.sharded_graph()
    }

    /// The stitched index itself.
    pub fn labels(&self) -> &Arc<ShardedLabels> {
        &self.labels
    }

    /// Index shape and per-shard footprints (the numbers the per-shard
    /// budget caps).
    pub fn stats(&self) -> ShardedStats {
        self.labels.stats()
    }

    /// Wall-clock time of the partition + parallel index build.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// The engine-lifetime reach-set memo every
    /// [`QueryService`](crate::QueryService) call on this engine runs
    /// against (the bare inner engine uses a throwaway memo per call).
    pub fn memo(&self) -> &Arc<ReachMemo> {
        &self.memo
    }

    /// Cumulative semantic-cache counters — exact hits, subsumption
    /// hits, misses, and time spent filtering cached reach sets — for
    /// all queries served through this engine since construction.
    pub fn semantic_stats(&self) -> SemanticStats {
        self.memo.semantic_stats()
    }

    /// The inner batch engine, pinned to the sharded regime. Querying goes
    /// through [`QueryService`](crate::QueryService) — plans come out on
    /// [`Backend::Sharded`](crate::Backend::Sharded) whenever the index
    /// covers the probed colors, search fallbacks otherwise (a dropped
    /// wildcard layer).
    pub fn engine(&self) -> &QueryEngine {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Query;
    use crate::planner::Backend;
    use crate::service::QueryService;
    use rpq_core::pq::Pq;
    use rpq_core::predicate::Predicate;
    use rpq_core::rq::Rq;
    use rpq_regex::FRegex;

    fn rq(g: &Graph, from: &str, to: &str, re: &str) -> Rq {
        Rq::new(
            Predicate::parse(from, g.schema()).unwrap(),
            Predicate::parse(to, g.schema()).unwrap(),
            FRegex::parse(re, g.alphabet()).unwrap(),
        )
    }

    #[test]
    fn sharded_engine_serves_sharded_plans() {
        let g = Arc::new(rpq_graph::gen::clustered(500, 2000, 4, 2, 3, 60, 17));
        let engine = ShardedEngine::build(
            Arc::clone(&g),
            EngineConfig {
                shards: 4,
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .expect("unbudgeted build");
        assert_eq!(engine.sharded_graph().k(), 4);
        assert!(engine.stats().wildcard);
        assert!(engine.build_time() > Duration::ZERO);

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
    fn sharded_profiles_report_persistent_memo_hits() {
        let g = Arc::new(rpq_graph::gen::clustered(400, 1600, 4, 2, 3, 60, 23));
        let engine = ShardedEngine::build(
            Arc::clone(&g),
            EngineConfig {
                shards: 3,
                workers: 1,
                ..EngineConfig::default()
            },
        )
        .expect("unbudgeted build");

        let q = Query::Rq(rq(&g, "a0 <= 4", "a1 >= 6", "c0^2 c1"));
        let (out0, p0) = engine.run_query_profiled(&q);
        assert_eq!(p0.semcache, "miss", "cold query populates the memo");

        // the second identical query is served from the engine-lifetime
        // memo — visible both in the profile and in the engine counters
        let (out1, p1) = engine.run_query_profiled(&q);
        assert_eq!(out0, out1);
        assert_eq!(p1.semcache, "exact_hit");
        let stats = engine.semantic_stats();
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.misses, 1);

        // a narrower-predicate variant is answered by subsumption from
        // the same cached cell
        let narrow = Query::Rq(rq(&g, "a0 <= 2", "a1 >= 6", "c0^2 c1"));
        let (out2, p2) = engine.run_query_profiled(&narrow);
        assert_eq!(p2.semcache, "subsumption_hit");
        assert_eq!(
            out2.as_rq().unwrap(),
            &match &narrow {
                Query::Rq(r) => r.eval_bfs(&g),
                Query::Pq(_) => unreachable!(),
            },
            "subsumption answer is bit-identical to direct evaluation"
        );
        assert_eq!(engine.semantic_stats().subsumption_hits, 1);
    }

    #[test]
    fn per_shard_budget_failure_is_eager() {
        let g = Arc::new(rpq_graph::gen::synthetic(300, 1200, 2, 3, 3));
        let err = ShardedEngine::build(
            Arc::clone(&g),
            EngineConfig {
                shards: 3,
                shard_memory_budget: 1,
                ..EngineConfig::default()
            },
        );
        assert!(matches!(err, Err(EngineError::IndexOverBudget { .. })));
    }
}
