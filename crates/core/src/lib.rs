//! # rpq-core — reachability and graph pattern queries with regex edges
//!
//! The primary contribution of Fan et al., *"Adding regular expressions to
//! graph reachability and pattern queries"* (ICDE 2011): **RQs** and
//! **PQs** whose edges are constrained by the restricted regular-expression
//! class F, matched under an extension of graph simulation.
//!
//! Module map (paper section in parentheses):
//!
//! * [`predicate`] — node search conditions and their implication (§2, §3.1)
//! * [`rq`] — reachability queries and their three evaluation strategies (§4)
//! * [`pq`] — pattern queries, semantics, reference evaluator (§2)
//! * [`reach`] — [`reach::ProbeReach`], regex-constrained reachability over any
//!   index probe or the graph itself (§4–5)
//! * [`join_match`] — the join-based PQ algorithm, Fig. 7 (§5.1)
//! * [`split_match`] — the split-based PQ algorithm, Fig. 8 (§5.2)
//! * [`simulation`] — revised query-to-query similarity (§3.1)
//! * [`contain`] — containment and equivalence of RQs/PQs (§3.1)
//! * [`canonical`] — run-normal canonical forms, the keys of the engine's
//!   semantic cache and standing-answer lookup
//! * [`mod@minimize`] — the cubic-time `minPQs` minimization, Fig. 6 (§3.2)
//! * [`baseline`] — `SubIso` and bounded-simulation `Match` baselines (§6)
//! * [`incremental`] — standing-query maintenance under graph updates
//!   (the §7 future-work direction)

pub mod baseline;
pub mod canonical;
pub mod contain;
pub mod grq;
pub mod incremental;
pub mod join_match;
pub mod lang;
pub mod minimize;
pub mod pq;
pub mod predicate;
pub mod reach;
pub mod rq;
pub mod simulation;
pub mod split_match;

pub use canonical::{canonical_pq, canonical_rq, pq_same_shape};
pub use contain::{
    pq_contained_in, pq_equivalent, rq_contained_in, rq_contained_in_fast, rq_equivalent,
};
pub use grq::GRq;
pub use incremental::{DynamicGraph, IncrementalMatcher, Update};
pub use join_match::JoinMatch;
pub use minimize::minimize;
pub use pq::{Pq, PqEdge, PqNode, PqResult};
pub use predicate::{CompOp, PredAtom, Predicate};
pub use reach::ProbeReach;
pub use rq::{Rq, RqResult};
pub use split_match::SplitMatch;
