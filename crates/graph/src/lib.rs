//! # rpq-graph — data-graph substrate
//!
//! The data-graph model of Fan et al., *"Adding regular expressions to graph
//! reachability and pattern queries"* (ICDE 2011, §2): a directed graph
//! `G = (V, E, f_A, f_C)` where
//!
//! * every node `v ∈ V` carries a tuple of attribute/value pairs (`f_A`), and
//! * every edge `e ∈ E` carries a *color* (edge type) drawn from a finite
//!   alphabet Σ (`f_C`).
//!
//! This crate provides:
//!
//! * the graph representation itself ([`Graph`], [`GraphBuilder`]) — CSR
//!   forward and reverse adjacency for cache-friendly traversal,
//! * attribute storage and interning ([`attr`]): each node's row, and the
//!   same values by column ([`Columns`]: an `i64` column and a
//!   dictionary-coded string column per attribute, each with a presence
//!   bitmap), which predicate selection scans. Rows and columns sit behind
//!   one `Arc` that graphs derived by edge updates share,
//! * the color alphabet ([`color`]),
//! * graph algorithms the query engine relies on ([`algo`]): per-color BFS,
//!   Tarjan's strongly-connected components, reverse topological order,
//! * the per-color shortest-distance matrix of §4 ([`distance`]),
//! * dataset generators standing in for the paper's real-life data ([`gen`]),
//! * edge-cut partitioning ([`partition`]): [`Partition`] assigns nodes to
//!   `k` balanced shards.

pub mod algo;
pub mod attr;
pub mod builder;
pub mod color;
pub mod distance;
pub mod gen;
pub mod graph;
pub mod io;
pub mod partition;

pub use attr::{AttrId, AttrValue, Attrs, Columns, IntColumn, Schema, StrColumn};
pub use builder::GraphBuilder;
pub use color::{Alphabet, Color, WILDCARD};
pub use distance::{DistanceMatrix, INFINITY};
pub use graph::{EdgeRef, Graph, NodeId};
pub use partition::Partition;
