//! The live engine's serving surface: [`QueryService`].
//!
//! [`UpdatableEngine`] (the live writer/reader pair) implements it, for
//! code that serves queries from whatever version is current; today that
//! is the benchmark ledger (`bench/`), which drives the live engine
//! through it. [`QueryEngine`](crate::QueryEngine) (one immutable graph)
//! and [`Snapshot`](crate::Snapshot) (one pinned version of a live graph)
//! have inherent methods of the same names and contract, and the server
//! calls [`Snapshot::run_batch`](crate::Snapshot::run_batch) directly.

use crate::batch::{BatchResult, Query, QueryOutput};
use crate::planner::Plan;
use crate::updatable::UpdatableEngine;
use rpq_graph::Graph;
use std::sync::Arc;

/// A backend that evaluates RQ/PQ queries against its current graph
/// version.
///
/// The contract: outputs are **bit-identical** to those of a
/// [`QueryEngine`](crate::QueryEngine) over the same graph and to sequential single-query
/// evaluation — strategies differ only in cost. `run_batch` returns
/// outputs in submission order.
///
/// The trait is object-safe; serving code may take `&dyn QueryService`:
///
/// ```
/// use std::sync::Arc;
/// use rpq_engine::{Query, QueryEngine, QueryService, UpdatableEngine};
/// use rpq_graph::gen::essembly;
///
/// fn answer(svc: &dyn QueryService, text: &str) -> usize {
///     let q = Query::parse_pq(text, &svc.graph()).unwrap();
///     svc.run_query(&q).match_count()
/// }
///
/// let text = "node a: job = \"doctor\"; node b; edge a -> b: fn+";
/// let fixed = QueryEngine::new(Arc::new(essembly()));
/// let live = UpdatableEngine::new(essembly());
/// let q = Query::parse_pq(text, fixed.graph()).unwrap();
/// assert_eq!(answer(&live, text), fixed.run_query(&q).match_count());
/// ```
pub trait QueryService: Send + Sync {
    /// The graph this service answers against. An owned `Arc` because a
    /// live engine's graph changes with every published version — the
    /// returned handle pins the version current at the time of the call.
    fn graph(&self) -> Arc<Graph>;

    /// The plan this service would pick for `query` right now (a live
    /// engine's next published version can still shift it).
    fn plan_query(&self, query: &Query) -> Plan;

    /// Evaluate one query (a batch of one).
    fn run_query(&self, query: &Query) -> QueryOutput;

    /// Evaluate a batch; outputs come back in submission order.
    fn run_batch(&self, queries: &[Query]) -> BatchResult;

    /// Evaluate one query and return its execution profile — the
    /// `explain` surface: stage timings, rationale, probe counts, memo
    /// hit/miss and fan-out.
    fn run_query_profiled(&self, query: &Query) -> (QueryOutput, rpq_trace::QueryProfile);
}

/// Every call runs against the snapshot current *at that call* — two
/// queries of one `run_batch` see one version, two `run_batch` calls may
/// not. Pin a [`Snapshot`](crate::Snapshot)
/// ([`UpdatableEngine::snapshot`]) when several batches must agree on a
/// version.
impl QueryService for UpdatableEngine {
    fn graph(&self) -> Arc<Graph> {
        Arc::clone(self.snapshot().graph())
    }

    fn plan_query(&self, query: &Query) -> Plan {
        self.snapshot().plan_query(query)
    }

    fn run_query(&self, query: &Query) -> QueryOutput {
        self.snapshot().run_query(query)
    }

    fn run_batch(&self, queries: &[Query]) -> BatchResult {
        self.snapshot().run_batch(queries)
    }

    fn run_query_profiled(&self, query: &Query) -> (QueryOutput, rpq_trace::QueryProfile) {
        self.snapshot().run_query_profiled(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use rpq_graph::gen::essembly;

    #[test]
    fn backends_agree_through_the_trait() {
        let g = Arc::new(essembly());
        let fixed = QueryEngine::new(Arc::clone(&g));
        let live = UpdatableEngine::new(essembly());
        let snapshot = live.snapshot();
        let rq = Query::parse_rq(
            "job = \"biologist\" && sp = \"cloning\"",
            "job = \"doctor\"",
            "fa^2 fn",
            &g,
        )
        .unwrap();
        let pq = Query::parse_pq("node a: job = \"doctor\"; node b; edge a -> b: fn+", &g).unwrap();
        let queries = [rq.clone(), pq.clone()];
        let svc: &dyn QueryService = &live;
        assert_eq!(svc.graph().node_count(), g.node_count());
        let outputs = |batch: BatchResult| batch.outputs().cloned().collect::<Vec<_>>();
        let reference = outputs(fixed.run_batch(&queries));
        for (name, got, single) in [
            ("live", outputs(svc.run_batch(&queries)), svc.run_query(&rq)),
            (
                "snapshot",
                outputs(snapshot.run_batch(&queries)),
                snapshot.run_query(&rq),
            ),
        ] {
            assert_eq!(got[0], single, "{name}: batch vs single");
            assert_eq!(got, reference, "{name}: disagrees with the engine");
        }
        for q in &queries {
            assert_eq!(svc.plan_query(q), fixed.plan_query(q));
            assert_eq!(svc.run_query_profiled(q).0, fixed.run_query(q));
        }
        assert_eq!(reference[0].match_count(), 4, "Example 2.2");
    }
}
