//! # rpq — regular-expression reachability and graph pattern queries
//!
//! A from-scratch Rust implementation of Fan, Li, Ma, Tang & Wu,
//! *"Adding regular expressions to graph reachability and pattern queries"*
//! (ICDE 2011 / Frontiers of Computer Science 2012).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`graph`] — the attributed, edge-colored data-graph substrate,
//! * [`regex`] — the restricted regular-expression class `F ::= c | c^k | c+ | FF`,
//! * [`index`] — the pruned landmark (2-hop) reachability-label index
//!   ([`HopLabels`](prelude::HopLabels)) and the [`DistProbe`](prelude::DistProbe)
//!   backend trait: exact per-color distance probes with memory
//!   proportional to label size, serving graphs far beyond the dense
//!   matrix's node limit,
//! * [`core`] — reachability queries (RQs), graph pattern queries (PQs),
//!   their evaluation algorithms (`JoinMatch`, `SplitMatch`, matrix and
//!   bi-directional-BFS backends), static analyses (containment,
//!   equivalence, minimization) and the paper's baselines,
//! * [`trace`] — dependency-free structured tracing and per-query
//!   profiling: a process-wide [`Tracer`](prelude::Tracer) (ring-buffered
//!   span/event log, one relaxed atomic load when disabled) and the
//!   [`QueryProfile`](prelude::QueryProfile) EXPLAIN surface every
//!   engine layer can emit,
//! * [`engine`] — the serving layer: a
//!   [`QueryEngine`](prelude::QueryEngine) that owns a shared graph and
//!   the one index built for it, plans a strategy per query, and evaluates
//!   batches of mixed RQs/PQs on the calling thread, sharing reach
//!   sets through the one memo of its graph version; an
//!   [`UpdatableEngine`](prelude::UpdatableEngine) serving a *mutating*
//!   graph through versioned snapshots, each published with its index
//!   repaired or rebuilt inside the write, and incrementally maintained
//!   standing queries. Past the hop-label budget, an engine configured
//!   with shards builds the sharded regime
//!   ([`ShardedLabels`](prelude::ShardedLabels)): the graph plus an
//!   edge-cut [`Partition`](prelude::Partition), answering every question
//!   by a graph sweep. Every entry point minimizes queries to
//!   canonical form before planning and serves repeats, respellings and
//!   *contained* queries from the engine's semantic subsumption cache
//!   ([`SemanticMemo`](prelude::SemanticMemo)).
//!
//! ## Quickstart
//!
//! ```
//! use rpq::prelude::*;
//!
//! // Build a tiny social graph.
//! let mut b = GraphBuilder::new();
//! let job = b.attr("job");
//! let ann = b.add_node("Ann", [(job, "doctor".into())]);
//! let bob = b.add_node("Bob", [(job, "biologist".into())]);
//! let fa = b.color("fa");
//! b.add_edge(ann, bob, fa);
//! let g = b.build();
//!
//! // "doctor reaches biologist via 1..=2 fa-edges"
//! let rq = Rq::new(
//!     Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
//!     Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
//!     FRegex::parse("fa^2", g.alphabet()).unwrap(),
//! );
//! let matrix = DistanceMatrix::build(&g);
//! let result = rq.eval_with_matrix(&g, &matrix);
//! assert_eq!(result.pairs(), vec![(ann, bob)]);
//! ```
//!
//! ## Batch evaluation
//!
//! Serving many queries against one graph? Hand them to the
//! [`QueryEngine`](prelude::QueryEngine) instead of evaluating one at a
//! time: it picks a plan per query (its index where the index covers the
//! query, else a search over the graph), shares reach sets across every
//! batch through its memo, and answers the batch on the calling thread —
//! run batches from several threads for parallelism.
//!
//! ```
//! use std::sync::Arc;
//! use rpq::prelude::*;
//!
//! let mut b = GraphBuilder::new();
//! let job = b.attr("job");
//! let ann = b.add_node("Ann", [(job, "doctor".into())]);
//! let bob = b.add_node("Bob", [(job, "biologist".into())]);
//! let fa = b.color("fa");
//! b.add_edge(ann, bob, fa);
//! let g = Arc::new(b.build());
//!
//! let engine = QueryEngine::new(Arc::clone(&g));
//! let rq = Rq::new(
//!     Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
//!     Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
//!     FRegex::parse("fa", g.alphabet()).unwrap(),
//! );
//! // a (tiny) batch: the same API scales to thousands of mixed RQs/PQs
//! let batch = engine.run_batch(&[Query::Rq(rq.clone()), Query::Rq(rq)]);
//! for item in batch.items() {
//!     assert_eq!(item.output.as_rq().unwrap().pairs(), vec![(ann, bob)]);
//! }
//! println!("batch of {} in {:?}", batch.len(), batch.wall_time());
//! ```
//!
//! ## Live updates
//!
//! When the graph itself mutates (§7 of the paper), wrap it in an
//! [`UpdatableEngine`](prelude::UpdatableEngine): writers apply
//! [`Update`](prelude::Update) batches, readers query immutable versioned
//! [`Snapshot`](prelude::Snapshot)s, and standing PQs registered with
//! `register_pq` are incrementally maintained instead of re-evaluated.
//!
//! ```
//! use rpq::prelude::*;
//!
//! let mut b = GraphBuilder::new();
//! let job = b.attr("job");
//! let ann = b.add_node("Ann", [(job, "doctor".into())]);
//! let bob = b.add_node("Bob", [(job, "biologist".into())]);
//! let fa = b.color("fa");
//! let engine = UpdatableEngine::new(b.build());
//!
//! let rq = Rq::new(
//!     Predicate::parse("job = \"doctor\"", engine.snapshot().graph().schema()).unwrap(),
//!     Predicate::parse("job = \"biologist\"", engine.snapshot().graph().schema()).unwrap(),
//!     FRegex::parse("fa", engine.snapshot().graph().alphabet()).unwrap(),
//! );
//!
//! let before = engine.snapshot();                       // pin version 0
//! engine.apply(&[Update::Insert(ann, bob, fa)]).unwrap(); // publish version 1
//!
//! // the pinned snapshot is isolated from the update; the current one sees it
//! assert!(before.run_query(&Query::Rq(rq.clone())).as_rq().unwrap().is_empty());
//! let now = engine.snapshot().run_query(&Query::Rq(rq));
//! assert_eq!(now.as_rq().unwrap().pairs(), vec![(ann, bob)]);
//! ```

pub use rpq_core as core;
pub use rpq_engine as engine;
pub use rpq_graph as graph;
pub use rpq_index as index;
pub use rpq_regex as regex;
pub use rpq_trace as trace;

/// One-stop imports for applications.
pub mod prelude {
    pub use rpq_core::baseline::{bounded_sim_match, plain_sim_match, subiso_match};
    pub use rpq_core::grq::GRq;
    pub use rpq_core::incremental::{DynamicGraph, IncrementalMatcher, Update};
    pub use rpq_core::join_match::JoinMatch;
    pub use rpq_core::lang::{format_pq, parse_pq};
    pub use rpq_core::minimize::minimize;
    pub use rpq_core::pq::{Pq, PqResult};
    pub use rpq_core::predicate::Predicate;
    pub use rpq_core::reach::ProbeReach;
    pub use rpq_core::rq::{Rq, RqResult};
    pub use rpq_core::split_match::SplitMatch;
    pub use rpq_engine::{
        Algo, ApplyReport, Backend, BatchItem, BatchResult, ConfigError, EngineConfig,
        EngineConfigBuilder, EngineError, IndexMaintenance, IndexState, Plan, Query, QueryEngine,
        QueryOutput, QueryService, SemanticMemo, SemanticStats, Snapshot, StandingId,
        UpdatableEngine,
    };
    pub use rpq_graph::{
        Alphabet, AttrId, AttrValue, Attrs, Color, DistanceMatrix, Graph, GraphBuilder, NodeId,
        Partition, Schema, WILDCARD,
    };
    pub use rpq_index::{
        DistProbe, GraphProbe, HopConfig, HopLabels, HopStats, ShardedLabels, ShardedStats,
    };
    pub use rpq_regex::{FRegex, GRegex};
    pub use rpq_trace::{tracer, QueryProfile, StageTiming, TraceEvent, Tracer};
}
