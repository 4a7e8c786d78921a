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
//! Because a snapshot owns `Arc`s of everything it needs, batches keep
//! running against it — unaffected — while writers publish newer versions:
//! that is the snapshot-isolation guarantee the live tests assert.

use crate::batch::{BatchItem, BatchResult, Query, QueryOutput};
use crate::engine::QueryEngine;
use crate::planner::{self, Plan};
use crate::updatable::StandingId;
use rpq_core::pq::{Pq, PqResult};
use rpq_graph::{Graph, NodeId};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

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

    fn answer(&self, g: &Graph) -> Arc<PqResult> {
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

    pub(crate) fn engine_arc(&self) -> Arc<QueryEngine> {
        Arc::clone(&self.engine)
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

    pub(crate) fn standing_entries(&self) -> &[StandingEntry] {
        &self.standing
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

    /// Find a standing entry that can serve `pq` *bit-identically*:
    /// structural equality, or [`rpq_core::pq_same_shape`] — the same node
    /// and edge structure with language-equal (canonical-form) regex
    /// spellings — so syntactic variants of a registered query are served
    /// from the maintained match sets too. A variant that also permutes
    /// node order is evaluated, unless it is registered itself.
    fn standing_match(&self, pq: &Pq) -> Option<usize> {
        self.standing
            .iter()
            .position(|s| rpq_core::pq_same_shape(&s.pq, pq))
    }

    /// The plan this snapshot would pick for `query`: a PQ equal to a
    /// registered standing query is served from its maintained match sets
    /// (the `standing` plan, which beats any evaluation strategy);
    /// everything else gets the batch engine's plan over this version's
    /// index.
    pub fn plan_query(&self, query: &Query) -> Plan {
        match query {
            Query::Pq(pq) if self.standing_match(pq).is_some() => planner::plan_standing().0,
            _ => self.engine.plan_query(query),
        }
    }

    /// Evaluate one query against this snapshot (standing answers are
    /// served without evaluation; everything else runs on this version's
    /// engine).
    pub fn run_query(&self, query: &Query) -> QueryOutput {
        if let Query::Pq(pq) = query {
            if let Some(i) = self.standing_match(pq) {
                return QueryOutput::Pq(self.standing[i].answer(self.graph()));
            }
        }
        self.engine.run_query(query)
    }

    /// Evaluate one query with its execution profile (the snapshot's
    /// explain surface). A PQ equal to a registered standing query is
    /// served from the maintained match sets and profiled as a
    /// `standing` answer (one `standing-answer` stage covering
    /// lazy assembly); everything else delegates to the engine's
    /// detailed profiled path, planned with this snapshot's live state.
    pub fn run_query_profiled(&self, query: &Query) -> (QueryOutput, rpq_trace::QueryProfile) {
        if let Query::Pq(pq) = query {
            if let Some(i) = self.standing_match(pq) {
                let t0 = Instant::now();
                let (plan, why) = planner::plan_standing();
                let g = self.graph();
                let mut profile = rpq_trace::QueryProfile::new(
                    format!("standing pq #{i} (version {})", self.version),
                    plan.name().to_owned(),
                    why.to_string(),
                );
                let t1 = Instant::now();
                profile.stage(
                    "plan",
                    t1 - t0,
                    "matched registered standing query".to_owned(),
                );
                let assembled = self.standing[i].cell.get().is_some();
                let output = QueryOutput::Pq(self.standing[i].answer(g));
                let t2 = Instant::now();
                profile.stage(
                    "standing-answer",
                    t2 - t1,
                    if assembled {
                        "answer already assembled for this version".to_owned()
                    } else {
                        "assembled from maintained match sets (first read)".to_owned()
                    },
                );
                profile.matches = output.match_count() as u64;
                profile.wall = t2 - t0;
                return (output, profile);
            }
        }
        self.engine.run_query_profiled(query)
    }

    /// Evaluate a batch against this snapshot. Identical to
    /// [`QueryEngine::run_batch`] except that PQs equal to a registered
    /// standing query are answered from the maintained match sets (the
    /// `standing` plan) instead of being re-evaluated.
    pub fn run_batch(&self, queries: &[Query]) -> BatchResult {
        let t0 = Instant::now();
        let standing_of: Vec<Option<usize>> = queries
            .iter()
            .map(|q| match q {
                Query::Pq(pq) => self.standing_match(pq),
                Query::Rq(_) => None,
            })
            .collect();
        if standing_of.iter().all(Option::is_none) {
            return self.engine.run_batch(queries);
        }

        let rest: Vec<Query> = queries
            .iter()
            .zip(&standing_of)
            .filter(|(_, s)| s.is_none())
            .map(|(q, _)| q.clone())
            .collect();
        let sub = self.engine.run_batch(&rest);
        let workers = sub.workers();
        let semantic = sub.semantic_stats();
        let mut rest_items = sub.into_items().into_iter();
        let items: Vec<BatchItem> = standing_of
            .iter()
            .map(|s| match s {
                Some(i) => {
                    let t = Instant::now();
                    let output = QueryOutput::Pq(self.standing[*i].answer(self.graph()));
                    BatchItem {
                        output,
                        plan: planner::plan_standing().0,
                        time: t.elapsed(),
                        profile: None,
                    }
                }
                None => rest_items
                    .next()
                    .expect("one evaluated item per non-standing query"),
            })
            .collect();
        BatchResult::new(items, t0.elapsed(), workers, semantic)
    }
}
