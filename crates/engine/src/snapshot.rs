//! Immutable, versioned read views of a live graph: [`Snapshot`].
//!
//! A snapshot is what readers of an [`UpdatableEngine`](crate::UpdatableEngine)
//! actually query. It freezes together
//!
//! * one graph version (an `Arc<Graph>` shared with the writer that
//!   published it),
//! * the index for that version — the
//!   [`DistanceMatrix`](rpq_graph::DistanceMatrix) (small graphs) or a
//!   label index (`rpq_index::HopLabels` / `ShardedLabels`, repaired from
//!   the predecessor's or rebuilt inside the write) — and the reach-set
//!   memo, all inside an owned [`QueryEngine`] and so *versioned with the
//!   snapshot*: an update batch publishes a fresh snapshot with a fresh
//!   engine, so no reader ever sees an index computed against a different
//!   graph version. A version is published only once its index is
//!   complete; until then readers keep serving the previous version with
//!   its index. The new engine's memo
//!   inherits the predecessor's reach sets with the batch's edge changes
//!   ([`SemanticMemo::carry`](crate::SemanticMemo::carry)): an inherited
//!   set never answers as it is, only a miss reads it, and patches the
//!   sources the changes can reach; and
//! * the standing answers: for every registered standing PQ, the match
//!   sets maintained by
//!   [`IncrementalMatcher`](rpq_core::incremental::IncrementalMatcher) as
//!   of this version; the full [`PqResult`] is assembled lazily, on its
//!   first read ([`StandingEntry`]).
//!
//! A snapshot has no evaluation loop of its own: plans, batches, single
//! queries and profiles all run through its engine's one loop
//! (`QueryEngine::run`), handed this version's standing answers as one
//! more answer source. The prologue plans `standing` for a PQ of a
//! registered shape, and the loop answers it from the maintained match
//! sets in its submission slot — the PQ counterpart of a memo hit.
//!
//! Because a snapshot owns `Arc`s of everything it needs, batches keep
//! running against it — unaffected — while writers publish newer versions:
//! that is the snapshot-isolation guarantee the live tests assert.

use crate::batch::{BatchResult, Query, QueryOutput};
use crate::engine::{Mode, QueryEngine};
use crate::planner::Plan;
use crate::updatable::StandingId;
use rpq_core::pq::{Pq, PqResult};
use rpq_graph::{Graph, NodeId};
use std::sync::{Arc, OnceLock};

/// One registered standing query as of a snapshot's version: the
/// maintained match sets, and the full per-edge [`PqResult`] assembled
/// lazily on first read (assembly runs reachability probes per pattern
/// edge — paying it inside the writer's `apply` for answers nobody reads
/// would serialize that work under the writer lock).
#[derive(Debug, Clone)]
pub(crate) struct StandingEntry {
    pub(crate) pq: Pq,
    pub(crate) mats: Arc<Vec<Vec<NodeId>>>,
    /// shared across republished snapshots of the same version, so the
    /// answer is assembled at most once per (query, version)
    pub(crate) cell: Arc<OnceLock<Arc<PqResult>>>,
}

impl StandingEntry {
    pub(crate) fn new(pq: Pq, mats: Vec<Vec<NodeId>>) -> Self {
        StandingEntry {
            pq,
            mats: Arc::new(mats),
            cell: Arc::new(OnceLock::new()),
        }
    }

    pub(crate) fn answer(&self, g: &Graph) -> Arc<PqResult> {
        Arc::clone(self.cell.get_or_init(|| {
            Arc::new(if self.mats.iter().any(|m| m.is_empty()) {
                PqResult::empty(&self.pq)
            } else {
                rpq_core::join_match::assemble(&self.pq, g, &self.mats)
            })
        }))
    }
}

/// How this snapshot came by its label index (hop or sharded), published
/// by [`UpdatableEngine::apply`](crate::UpdatableEngine::apply) so
/// operators and tests can see whether the update path is *carrying*
/// indices forward or rebuilding them.
///
/// * [`Repaired`](IndexState::Repaired) — the predecessor snapshot's
///   label index was carried through an incremental repair into this
///   snapshot's engine.
/// * [`Built`](IndexState::Built) — this version's label index was built
///   from scratch: at construction, or inside the write because the
///   repair cost model declined (too many landmarks invalidated) or the
///   repair went over budget.
/// * [`Stale`](IndexState::Stale) — this snapshot holds no label index
///   (matrix regime, labels disabled by config, or over budget): there
///   was nothing to carry. The name is the operator's view from the
///   update stream: whatever label state existed before the stream is
///   not coming back by itself.
///
/// Either way a snapshot is published with its index complete: label-backed
/// plans are available from its first query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexState {
    /// Label index carried forward via incremental repair.
    Repaired,
    /// Label index built from scratch for this version.
    Built,
    /// No label index applies to this snapshot.
    Stale,
}

impl IndexState {
    /// Stable lowercase name, used by the `/metrics` endpoint.
    pub fn as_str(self) -> &'static str {
        match self {
            IndexState::Repaired => "repaired",
            IndexState::Built => "built",
            IndexState::Stale => "stale",
        }
    }
}

/// A consistent, immutable view of the graph at one version, with its own
/// indices and the standing answers maintained up to that version.
///
/// Obtained from [`UpdatableEngine::snapshot`](crate::UpdatableEngine::snapshot)
/// (or an [`ApplyReport`](crate::ApplyReport)); cheap to clone the `Arc`
/// and safe to query from any thread for as long as the caller keeps it.
#[derive(Debug)]
pub struct Snapshot {
    version: u64,
    engine: Arc<QueryEngine>,
    standing: Vec<StandingEntry>,
    index_state: IndexState,
}

impl Snapshot {
    pub(crate) fn new(
        version: u64,
        engine: Arc<QueryEngine>,
        standing: Vec<StandingEntry>,
        index_state: IndexState,
    ) -> Self {
        Snapshot {
            version,
            engine,
            standing,
            index_state,
        }
    }

    /// How this snapshot came by its label index: carried through an
    /// incremental [`Repaired`](IndexState::Repaired) step,
    /// [`Built`](IndexState::Built) from scratch, or
    /// [`Stale`](IndexState::Stale) (no label index applies). See
    /// [`IndexState`] for the full contract; the per-batch numbers behind
    /// a `Repaired` verdict ride on
    /// [`ApplyReport::index`](crate::ApplyReport).
    pub fn index_state(&self) -> IndexState {
        self.index_state
    }

    /// The graph version this snapshot serves (the
    /// [`DynamicGraph`](rpq_core::incremental::DynamicGraph) batch counter
    /// at publication time).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The graph image at this version.
    pub fn graph(&self) -> &Arc<Graph> {
        self.engine.graph()
    }

    /// The per-version batch engine (the version's index lives here).
    pub fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    /// Cumulative counters of this version's semantic reach-set memo —
    /// exact hits, subsumption hits, misses, and filter time — since the
    /// version was published (the memo lives in the per-version engine,
    /// so a fresh version starts from zero). Cumulative over *every*
    /// caller: what one batch did is
    /// [`BatchResult::semantic_stats`](crate::BatchResult::semantic_stats).
    pub fn semantic_stats(&self) -> crate::memo::SemanticStats {
        self.engine.semantic_stats()
    }

    /// This snapshot with one more standing answer: the same version
    /// and engine — its index and memo carry over.
    pub(crate) fn with_standing(&self, entry: StandingEntry) -> Snapshot {
        let mut standing = self.standing.clone();
        standing.push(entry);
        let engine = Arc::clone(&self.engine);
        Snapshot::new(self.version, engine, standing, self.index_state)
    }

    /// Number of standing queries this snapshot carries answers for.
    pub fn standing_count(&self) -> usize {
        self.standing.len()
    }

    /// The maintained answer of standing query `id` as of this version
    /// (`None` if `id` was registered after this snapshot was published).
    /// Assembled from the maintained match sets on first read, then cached
    /// for the life of the version.
    pub fn standing_result(&self, id: StandingId) -> Option<Arc<PqResult>> {
        self.standing
            .get(id.index())
            .map(|s| s.answer(self.graph()))
    }

    /// The plan this snapshot would pick for `query`: a PQ of the same
    /// shape as a registered standing query is served from its
    /// maintained match sets (the `standing` plan, which beats any
    /// evaluation strategy); everything else gets the engine's plan over
    /// this version's index.
    pub fn plan_query(&self, query: &Query) -> Plan {
        self.engine.plan(query, &self.standing).0
    }

    /// Evaluate one query against this snapshot (a batch of one through
    /// [`run_batch`](Self::run_batch)'s loop).
    pub fn run_query(&self, query: &Query) -> QueryOutput {
        let batch = self
            .engine
            .run(std::slice::from_ref(query), &self.standing, Mode::Serve);
        batch.items()[0].output.clone()
    }

    /// Evaluate one query with its execution profile (the snapshot's
    /// explain surface). A standing answer profiles as stages `plan` and
    /// `standing-answer` (the latter covers the lazy assembly on a
    /// version's first read) with no probes; everything else as the
    /// engine's `plan` / `prepare` / `eval`.
    pub fn run_query_profiled(&self, query: &Query) -> (QueryOutput, rpq_trace::QueryProfile) {
        self.engine
            .profile_one(query, &self.standing, Mode::Profile)
    }

    /// Evaluate a batch against this snapshot: [`QueryEngine::run_batch`]'s
    /// one loop, with this version's standing answers as one more answer
    /// source. A PQ of the same shape as a registered standing query
    /// ([`rpq_core::pq_same_shape`]: the same node and edge structure,
    /// language-equal regex spellings) plans `standing` and is answered
    /// from the maintained match sets instead of being re-evaluated — the
    /// PQ counterpart of a memo hit: it starts no helper thread, and
    /// passes through the slow-query log like every other item. A variant
    /// that also permutes node order is evaluated, unless it is
    /// registered itself.
    pub fn run_batch(&self, queries: &[Query]) -> BatchResult {
        self.engine.run(queries, &self.standing, Mode::Serve)
    }

    /// [`run_batch`](Self::run_batch) with every item's profile in
    /// [`BatchItem::profile`](crate::BatchItem::profile) — the explain
    /// surface for a whole batch.
    pub fn run_batch_profiled(&self, queries: &[Query]) -> BatchResult {
        self.engine.run(queries, &self.standing, Mode::Profile)
    }
}

#[cfg(test)]
mod tests {
    use crate::{EngineConfig, Query, QueryEngine, UpdatableEngine};
    use rpq_core::pq::Pq;
    use rpq_core::predicate::Predicate;
    use rpq_graph::gen::essembly;
    use rpq_graph::Graph;
    use rpq_regex::FRegex;
    use std::sync::Arc;

    fn pq(g: &Graph, labels: [&str; 2], from: &str, regex: &str) -> Pq {
        let mut pq = Pq::new();
        let a = pq.add_node(labels[0], Predicate::parse(from, g.schema()).unwrap());
        let b = pq.add_node(labels[1], Predicate::always_true());
        pq.add_edge(a, b, FRegex::parse(regex, g.alphabet()).unwrap());
        pq
    }

    #[test]
    fn an_interleaved_batch_keeps_order_and_plans_standing_where_the_shape_matches() {
        let engine = UpdatableEngine::new(essembly());
        let g = Arc::clone(engine.snapshot().graph());
        let registered = pq(&g, ["a", "b"], "job = \"doctor\"", "fn fn^2");
        let id = engine.register_pq(registered.clone());
        let snap = engine.snapshot();
        let rq = |from: &str, re: &str| Query::parse_rq(from, "", re, &g).unwrap();
        let queries = vec![
            Query::Pq(registered.clone()),
            rq("job = \"biologist\"", "fa^2 fn"),
            // the registered pattern, labels renamed and regex respelled
            Query::Pq(pq(&g, ["p", "q"], "job = \"doctor\"", "fn^2 fn")),
            rq("job = \"doctor\"", "sa sa^2"),
            // the same regexes from another source: evaluated
            Query::Pq(pq(&g, ["a", "b"], "job = \"biologist\"", "fn fn^2")),
            rq("job = \"biologist\"", "fa^2 fn"),
        ];
        let batch = snap.run_batch(&queries);

        let fresh = QueryEngine::new(Arc::clone(&g)).run_batch(&queries);
        let outputs: Vec<_> = batch.outputs().collect();
        assert_eq!(outputs, fresh.outputs().collect::<Vec<_>>());
        for (i, (q, item)) in queries.iter().zip(batch.items()).enumerate() {
            let standing = matches!(q, Query::Pq(p) if rpq_core::pq_same_shape(&registered, p));
            assert_eq!(item.plan.name() == "standing", standing, "item {i}");
            assert_eq!(item.plan, snap.plan_query(q), "item {i}");
            if standing {
                assert_eq!(item.output.as_pq(), snap.standing_result(id).as_deref());
            }
        }
        assert_eq!(
            batch
                .items()
                .iter()
                .filter(|it| it.plan.name() == "standing")
                .count(),
            2
        );
        // one memo lookup per RQ; neither PQ kind consults a cell
        let rqs = queries.iter().filter(|q| matches!(q, Query::Rq(_))).count() as u64;
        let stats = batch.semantic_stats();
        assert_eq!(stats.hits() + stats.misses, rqs);
        let total = snap.semantic_stats();
        assert_eq!(total.hits() + total.misses, rqs);
        // a batch of standing answers alone never leaves its caller
        assert_eq!(snap.run_batch(&queries[..1]).workers(), 1);
    }

    #[test]
    fn standing_answers_reach_the_slow_query_log() {
        let g = rpq_graph::gen::synthetic(600, 2400, 2, 3, 21);
        let config = EngineConfig::builder().slow_query_us(1).build().unwrap();
        let engine = UpdatableEngine::with_config(g, config);
        let g = Arc::clone(engine.snapshot().graph());
        // a broad pattern: its first read assembles a large answer
        let pattern = pq(&g, ["a", "b"], "", "c0 c1");
        let id = engine.register_pq(pattern.clone());
        let snap = engine.snapshot();
        let tracer = rpq_trace::tracer();
        let before = tracer.slow_queries();
        let batch = snap.run_batch(&[Query::Pq(pattern)]);
        assert_eq!(batch.items()[0].plan.name(), "standing");
        assert!(!snap.standing_result(id).unwrap().is_empty());
        assert!(
            tracer.slow_queries() > before,
            "the standing item took {:?}, over the 1 µs threshold",
            batch.items()[0].time
        );
    }
}
