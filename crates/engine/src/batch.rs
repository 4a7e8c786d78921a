//! Batch inputs and outputs: [`Query`], [`QueryOutput`], [`BatchResult`].

use crate::error::EngineError;
use crate::memo::SemanticStats;
use crate::planner::Plan;
use rpq_core::lang::LangError;
use rpq_core::pq::{Pq, PqResult};
use rpq_core::predicate::Predicate;
use rpq_core::rq::{Rq, RqResult};
use rpq_graph::{Color, Graph};
use rpq_regex::FRegex;
use std::sync::Arc;
use std::time::Duration;

/// One query in a batch — the engine serves RQs and PQs side by side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// A reachability query (§2, §4).
    Rq(Rq),
    /// A graph pattern query (§2, §5).
    Pq(Pq),
}

impl Query {
    /// Parse an RQ from its three textual fields against `graph`'s
    /// vocabulary: source predicate, target predicate (empty string =
    /// trivially true) and an F-regex. This is the boundary the server's
    /// wire codec lands on — parse failures are typed
    /// [`EngineError::BadQuery`] values, never panics.
    ///
    /// ```
    /// use rpq_engine::Query;
    /// use rpq_graph::gen::essembly;
    /// let g = essembly();
    /// let q = Query::parse_rq("job = \"biologist\"", "", "fa^2 fn", &g).unwrap();
    /// assert!(matches!(q, Query::Rq(_)));
    /// assert!(Query::parse_rq("job = \"x\"", "", "no_such_color", &g).is_err());
    /// ```
    pub fn parse_rq(
        from: &str,
        to: &str,
        regex: &str,
        graph: &Graph,
    ) -> Result<Query, EngineError> {
        let from = Predicate::parse(from, graph.schema()).map_err(|e| EngineError::BadQuery {
            line: 0,
            msg: format!("source predicate: {e}"),
        })?;
        let to = Predicate::parse(to, graph.schema()).map_err(|e| EngineError::BadQuery {
            line: 0,
            msg: format!("target predicate: {e}"),
        })?;
        let regex = FRegex::parse(regex, graph.alphabet()).map_err(|e| EngineError::BadQuery {
            line: 0,
            msg: format!("regex: {e}"),
        })?;
        Ok(Query::Rq(Rq::new(from, to, regex)))
    }

    /// Parse a PQ from its [`rpq_core::lang`] text (`node …; edge a -> b:
    /// regex` statements) against `graph`'s vocabulary. Failures carry the
    /// 1-based line of the offending statement in
    /// [`EngineError::BadQuery`].
    ///
    /// ```
    /// use rpq_engine::{EngineError, Query};
    /// use rpq_graph::gen::essembly;
    /// let g = essembly();
    /// let q = Query::parse_pq("node a: job = \"doctor\"; node b; edge a -> b: fn+", &g);
    /// assert!(matches!(q, Ok(Query::Pq(_))));
    /// let err = Query::parse_pq("node a\nedge a -> ghost: fn", &g).unwrap_err();
    /// assert!(matches!(err, EngineError::BadQuery { line: 2, .. }));
    /// ```
    pub fn parse_pq(text: &str, graph: &Graph) -> Result<Query, EngineError> {
        rpq_core::lang::parse_pq(text, graph.schema(), graph.alphabet())
            .map(Query::Pq)
            .map_err(lang_error)
    }

    /// Does `ok` hold for every edge color this query's regexes probe?
    /// (The index-coverage check: a label index serves a query only if it
    /// has a layer for each of them.)
    pub(crate) fn all_colors(&self, ok: impl Fn(Color) -> bool) -> bool {
        match self {
            Query::Rq(rq) => rq.regex.atoms().iter().all(|a| ok(a.color)),
            Query::Pq(pq) => pq
                .edges()
                .iter()
                .flat_map(|e| e.regex.atoms())
                .all(|a| ok(a.color)),
        }
    }
}

/// Lift a [`LangError`] (which formats as `line {l}: {msg}`) into
/// [`EngineError::BadQuery`] with the line split out, so the server can
/// report it as a structured field without double-prefixing.
fn lang_error(e: LangError) -> EngineError {
    let line = match &e {
        LangError::BadStatement(l, _)
        | LangError::DuplicateNode(l, _)
        | LangError::UnknownNode(l, _)
        | LangError::BadPredicate(l, _)
        | LangError::BadRegex(l, _)
        | LangError::MissingArrow(l, _)
        | LangError::MissingConstraint(l, _) => *l,
    };
    let full = e.to_string();
    let msg = full
        .strip_prefix(&format!("line {line}: "))
        .unwrap_or(&full)
        .to_owned();
    EngineError::BadQuery { line, msg }
}

impl From<Rq> for Query {
    fn from(rq: Rq) -> Self {
        Query::Rq(rq)
    }
}

impl From<Pq> for Query {
    fn from(pq: Pq) -> Self {
        Query::Pq(pq)
    }
}

/// The result of one query, tagged by kind.
///
/// PQ results are behind an `Arc`: serving a standing query's maintained
/// answer is an O(1) handle clone, not a deep copy of the match sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutput {
    /// Result of a [`Query::Rq`].
    Rq(RqResult),
    /// Result of a [`Query::Pq`].
    Pq(Arc<PqResult>),
}

impl QueryOutput {
    /// The RQ result, if this was an RQ.
    pub fn as_rq(&self) -> Option<&RqResult> {
        match self {
            QueryOutput::Rq(r) => Some(r),
            QueryOutput::Pq(_) => None,
        }
    }

    /// The PQ result, if this was a PQ.
    pub fn as_pq(&self) -> Option<&PqResult> {
        match self {
            QueryOutput::Pq(r) => Some(r.as_ref()),
            QueryOutput::Rq(_) => None,
        }
    }

    /// Number of matched pairs (RQ) or total match-set size (PQ) — a
    /// uniform "result volume" measure for reports.
    pub fn match_count(&self) -> usize {
        match self {
            QueryOutput::Rq(r) => r.len(),
            QueryOutput::Pq(r) => r.size(),
        }
    }
}

/// Per-query record in a [`BatchResult`].
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// The query's result.
    pub output: QueryOutput,
    /// The strategy the planner chose.
    pub plan: Plan,
    /// Wall-clock evaluation time of this query on its worker.
    pub time: Duration,
    /// Execution profile: `Some` on every item of a profiled run —
    /// `Snapshot::run_batch_profiled`, and the batch of one behind each
    /// `run_query_profiled` / `run_query_with_plan_profiled` (so
    /// `POST /v1/explain`); `None` on `run_batch`, the hot path, which
    /// pays nothing for the field.
    pub profile: Option<Arc<rpq_trace::QueryProfile>>,
}

/// Everything a batch run produced, in input order.
#[derive(Debug, Clone)]
pub struct BatchResult {
    items: Vec<BatchItem>,
    wall: Duration,
    workers: usize,
    semantic: SemanticStats,
}

impl BatchResult {
    pub(crate) fn new(
        items: Vec<BatchItem>,
        wall: Duration,
        workers: usize,
        semantic: SemanticStats,
    ) -> Self {
        BatchResult {
            items,
            wall,
            workers,
            semantic,
        }
    }

    /// Per-query records, in the order the queries were submitted.
    pub fn items(&self) -> &[BatchItem] {
        &self.items
    }

    /// Just the outputs, in submission order.
    pub fn outputs(&self) -> impl Iterator<Item = &QueryOutput> {
        self.items.iter().map(|i| &i.output)
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Wall-clock time of the whole batch (parallel).
    pub fn wall_time(&self) -> Duration {
        self.wall
    }

    /// Sum of per-query evaluation times (the sequential-equivalent cost).
    pub fn total_query_time(&self) -> Duration {
        self.items.iter().map(|i| i.time).sum()
    }

    /// Number of worker threads the batch ran on.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// What this batch's own lookups did in the engine's reach-set memo:
    /// one exact hit, subsumption hit or miss per RQ (a PQ consults no
    /// cell). Tallied per item by the batch's workers, so the counts are
    /// exact however many other batches share the memo.
    pub fn semantic_stats(&self) -> SemanticStats {
        self.semantic
    }

    /// `(hits, misses)` of [`semantic_stats`](Self::semantic_stats).
    pub fn memo_stats(&self) -> (u64, u64) {
        (self.semantic.hits(), self.semantic.misses)
    }
}
