//! # rpq-engine — batch query engine
//!
//! The paper (Fan et al., ICDE 2011) evaluates RQs and PQs one at a time;
//! this crate is the serving layer that amortizes shared work across
//! *batches* of concurrent queries against one immutable graph:
//!
//! * [`QueryEngine`] owns an `Arc<Graph>`, the one index built for it at
//!   construction (the per-color
//!   [`DistanceMatrix`](rpq_graph::DistanceMatrix) when the graph is small
//!   enough to afford its O(|Σ|·|V|²) footprint, else a label index) and
//!   the one reach-set memo of that graph version;
//! * every query runs under a [`Plan`] = [`Algo`] × [`Backend`], the way
//!   the paper states its evaluators once and parameterises them by the
//!   reachability oracle: the backend is the engine's index (matrix, hop
//!   labels or the sharded regime) where it covers the query, else search,
//!   where the graph itself is the probe; the [`planner`] picks the
//!   algorithm on it — **DM**
//!   probes for RQs, `JoinMatch`/`SplitMatch` for PQs by pattern shape —
//!   replacing the hard-picked strategy calls in `rpq_core::rq`. Each
//!   evaluator is compiled once and takes its probe as a
//!   `&dyn DistProbe`, wrapped in one counting decorator, so the serving
//!   path and the explain surface run the same code;
//!   [`Plan::ALL`] is the table of servable combinations (see the
//!   [`planner`] docs for the ones that are servable but never planned);
//! * the engine's concurrent semantic [`memo`] table, keyed on `(source
//!   predicate, canonical regex)`, shares reach sets across every run on
//!   the engine (an RQ's reach set depends on nothing else): queries are
//!   rewritten into run-normal canonical form before planning so
//!   syntactic variants share one cell, and on an exact miss the
//!   [`SemanticMemo`] looks for a cached *containing* entry
//!   (wider predicate or containing regex) and derives the answer by
//!   filtering the cached reach set (and, for a strictly narrower
//!   regex, re-evaluating only its surviving sources over the graph)
//!   instead of evaluating every candidate source;
//! * [`BatchResult`] carries per-query outputs, chosen plans and timings
//!   for the bench harness;
//! * with [`EngineConfig::shards`] ≥ 2, a [`QueryEngine`] whose hop-label
//!   build busts its budget (or is disabled) builds the sharded regime:
//!   the graph plus an edge-cut partition, answering by graph sweeps;
//! * [`UpdatableEngine`] serves a *mutating* graph (§7): writers apply
//!   [`Update`](rpq_core::incremental::Update) batches and publish
//!   immutable versioned [`Snapshot`]s via an `Arc` swap, readers query a
//!   pinned snapshot without ever blocking on writers, each version is
//!   published with its index repaired or rebuilt inside the write, its
//!   memo inherits the previous version's reach sets to patch, and
//!   registered standing PQs are maintained incrementally and served from
//!   their standing answers ([`Algo::Standing`]) instead of being
//!   re-evaluated — a snapshot runs every query through the engine's one
//!   evaluation loop, its standing answers the PQ counterpart of the memo;
//! * [`QueryService`] is the live engine's object-safe serving trait
//!   ([`QueryEngine`] and [`Snapshot`] have inherent methods of the same
//!   names), with boundary failures surfaced as typed [`EngineError`]
//!   values instead of panics.
//!
//! A batch runs on the thread that submits it, one query after the
//! other; the engine starts no thread to evaluate. Parallelism is the
//! caller's: many threads may run batches on one engine (or snapshot) at
//! once, sharing its memo — the server runs one per executor role.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use rpq_engine::{EngineConfig, Query, QueryEngine};
//! use rpq_core::predicate::Predicate;
//! use rpq_core::rq::Rq;
//! use rpq_graph::gen::essembly;
//! use rpq_regex::FRegex;
//!
//! let g = Arc::new(essembly());
//! let engine = QueryEngine::with_config(Arc::clone(&g), EngineConfig::default());
//! let rq = Rq::new(
//!     Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
//!     Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
//!     FRegex::parse("fa^2 fn", g.alphabet()).unwrap(),
//! );
//! let batch = engine.run_batch(&[Query::Rq(rq.clone()), Query::Rq(rq)]);
//! assert_eq!(batch.len(), 2);
//! assert_eq!(batch.items()[0].output.as_rq().unwrap().len(), 4);
//! ```

mod batch;
mod engine;
mod error;
mod explain;
pub mod memo;
pub mod planner;
mod service;
mod snapshot;
mod updatable;

pub use batch::{BatchItem, BatchResult, Query, QueryOutput};
pub use engine::{EngineConfig, EngineConfigBuilder, QueryEngine};
pub use error::{ConfigError, EngineError};
pub use memo::{Lookup, SemanticMemo, SemanticStats};
pub use planner::{Algo, Backend, Plan, Rationale, Uncovered};
pub use service::QueryService;
pub use snapshot::{IndexState, Snapshot};
pub use updatable::{ApplyReport, IndexMaintenance, StandingId, UpdatableEngine};
// the profile types live in rpq-trace (every layer records into it);
// re-exported here because the engine's explain surface returns them
pub use rpq_trace::{QueryProfile, StageTiming};
