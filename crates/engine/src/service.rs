//! The unified serving surface: [`QueryService`].
//!
//! The repo has three engine types — [`QueryEngine`] (one immutable
//! graph, whichever index regime its config or constructor picks),
//! [`Snapshot`] (one pinned version of a live graph) and
//! [`UpdatableEngine`] (the live writer/reader pair). Anything that
//! serves queries without caring which one backs it (parity tests, the
//! examples) programs against [`QueryService`], the one trait they all
//! implement, and the choice of backend becomes deployment configuration.

use crate::batch::{BatchResult, Query, QueryOutput};
use crate::engine::QueryEngine;
use crate::planner::Plan;
use crate::snapshot::Snapshot;
use crate::updatable::UpdatableEngine;
use rpq_graph::Graph;
use std::sync::Arc;

/// A backend that evaluates RQ/PQ queries: the one interface parity
/// tests and backend-agnostic serving code program against.
///
/// All three engine types implement it:
///
/// | implementor | graph | notes |
/// |---|---|---|
/// | [`QueryEngine`] | immutable | matrix / hop / sharded indices, one reach-set memo |
/// | [`Snapshot`] | one pinned version | standing-query answers spliced in |
/// | [`UpdatableEngine`] | live | each call runs on the *current* snapshot |
///
/// The contract every implementor keeps: outputs are **bit-identical**
/// across backends and to sequential single-query evaluation —
/// strategies differ only in cost. `run_batch` returns outputs in
/// submission order.
///
/// The trait is object-safe; serving code takes `&dyn QueryService` so
/// the backend is chosen at deployment time, not compile time:
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
/// assert_eq!(answer(&fixed, text), answer(&live, text));
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

impl QueryService for QueryEngine {
    fn graph(&self) -> Arc<Graph> {
        Arc::clone(QueryEngine::graph(self))
    }

    fn plan_query(&self, query: &Query) -> Plan {
        QueryEngine::plan_query(self, query)
    }

    fn run_query(&self, query: &Query) -> QueryOutput {
        QueryEngine::run_query(self, query)
    }

    fn run_batch(&self, queries: &[Query]) -> BatchResult {
        QueryEngine::run_batch(self, queries)
    }

    fn run_query_profiled(&self, query: &Query) -> (QueryOutput, rpq_trace::QueryProfile) {
        QueryEngine::run_query_profiled(self, query)
    }
}

impl QueryService for Snapshot {
    fn graph(&self) -> Arc<Graph> {
        Arc::clone(Snapshot::graph(self))
    }

    fn plan_query(&self, query: &Query) -> Plan {
        Snapshot::plan_query(self, query)
    }

    fn run_query(&self, query: &Query) -> QueryOutput {
        Snapshot::run_query(self, query)
    }

    fn run_batch(&self, queries: &[Query]) -> BatchResult {
        Snapshot::run_batch(self, queries)
    }

    fn run_query_profiled(&self, query: &Query) -> (QueryOutput, rpq_trace::QueryProfile) {
        Snapshot::run_query_profiled(self, query)
    }
}

/// Every call runs against the snapshot current *at that call* — two
/// queries of one `run_batch` see one version, two `run_batch` calls may
/// not. Pin a [`Snapshot`] (itself a `QueryService`) when several batches
/// must agree on a version.
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
    use rpq_graph::gen::essembly;

    #[test]
    fn backends_agree_through_the_trait() {
        let g = Arc::new(essembly());
        let fixed = QueryEngine::new(Arc::clone(&g));
        let live = UpdatableEngine::new(essembly());
        // a snapshot pulled out of a live engine is a service of its own
        let snapshot = live.snapshot();
        let services: [(&str, &dyn QueryService); 3] = [
            ("engine", &fixed),
            ("live", &live),
            ("snapshot", &*snapshot),
        ];
        let rq = Query::parse_rq(
            "job = \"biologist\" && sp = \"cloning\"",
            "job = \"doctor\"",
            "fa^2 fn",
            &g,
        )
        .unwrap();
        let pq = Query::parse_pq("node a: job = \"doctor\"; node b; edge a -> b: fn+", &g).unwrap();
        let mut reference: Option<Vec<QueryOutput>> = None;
        for (name, svc) in services {
            assert_eq!(svc.graph().node_count(), g.node_count(), "{name}");
            let batch = svc.run_batch(&[rq.clone(), pq.clone()]);
            let outputs: Vec<QueryOutput> = batch.outputs().cloned().collect();
            assert_eq!(outputs[0], svc.run_query(&rq), "{name}: batch vs single");
            match &reference {
                None => reference = Some(outputs),
                Some(r) => assert_eq!(r, &outputs, "{name}: backend disagrees"),
            }
        }
        assert_eq!(reference.unwrap()[0].match_count(), 4, "Example 2.2");
    }
}
