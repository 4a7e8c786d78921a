//! # rpq-index — scalable reachability-label index
//!
//! The paper's fastest RQ strategy is the dense per-color
//! [`DistanceMatrix`](rpq_graph::DistanceMatrix) (§4), whose O(|Σ|·|V|²)
//! footprint caps it at a few thousand nodes; above that the engine
//! degrades to per-query search. This crate closes the gap between the two
//! extremes with **pruned landmark (2-hop) distance labeling**
//! ([`HopLabels`]): per-color forward/backward label sets built by pruned
//! BFS from SCC/degree-ranked landmarks, answering the atom probes of the
//! regex class F — *"is there a path of color `c` and length ≤ k?"* — as a
//! merge of two short sorted lists, with memory proportional to total
//! label size instead of |V|².
//!
//! The [`DistProbe`] trait is the seam: both the dense matrix and the hop
//! labels implement it, so RQ evaluation in `rpq-core`
//! (`Rq::eval_with_dist`) **and PQ evaluation** (`ProbeReach<P:
//! DistProbe>` backs `JoinMatch`/`SplitMatch`) are
//! backend-generic and the engine's planner is free to pick
//!
//! * the **matrix** under its node limit (fastest probes),
//! * **hop labels** above it while the label budget holds
//!   (the `Backend::Hop` plans — `hop`, `JoinMatch/hop`, `SplitMatch/hop` — in
//!   `rpq-engine`), and
//! * the graph itself ([`GraphProbe`]: breadth-first sweeps, one backward
//!   sweep per `Join` step) when no index is usable.
//!
//! Beyond point probes, [`DistProbe::sources_reaching_within`] is the bulk
//! primitive PQ refinement runs on: [`HopLabels`] answers a whole
//! `Join`-step (every source against a target set) with one target-side
//! hub aggregation plus one `Lout` scan per source; the matrix, like the
//! graph, with one backward sweep.
//!
//! ## The sharded backend and its overlay
//!
//! One whole-graph labeling is still one build: its working set must fit
//! one machine (or one budget). [`ShardedLabels`] removes that cap by
//! re-founding the index on a shard topology
//! ([`ShardedGraph`](rpq_graph::ShardedGraph)): one independent
//! [`HopLabels`] **per shard** — built one after another on the
//! caller's thread, each under the per-shard byte budget — plus exact 2-hop labels over the **boundary
//! overlay**, the weighted digraph whose nodes are the endpoints of cut
//! edges and whose edges are (a) the cut edges themselves at weight 1 and
//! (b) a closure edge per intra-shard boundary pair, weighted by that
//! shard's local distance, one layer per concrete color. Neither index
//! holds a layer for the wildcard `_`: the engine answers `_` over the
//! graph itself ([`GraphProbe`]).
//!
//! *Exactness.* A global path either stays inside one shard — then it
//! appears verbatim in that shard's local graph — or it uses ≥ 1 cut
//! edge, in which case it splits at the first cut edge's source `b₁` and
//! the last cut edge's target `b₂`: the prefix and suffix are intra-shard
//! (no cut edge), and the middle alternates cut edges with intra-shard
//! boundary-to-boundary segments, each dominated by its closure edge. So
//! `dist(u,v) = min(local(u,v) [same shard],
//! min_{b₁,b₂} local(u,b₁) + overlay(b₁,b₂) + local(b₂,v))`, every term
//! realizable by a real path — probes are bit-identical to a whole-graph
//! index, which the parity suite asserts against both the matrix and
//! unsharded labels. Only point probes (`dist`) stitch; the set
//! questions — bounded scans, cycle tests, whole `Join` steps — sweep the
//! graph the index was built or repaired for, through [`GraphProbe`].
//!
//! ## Example
//!
//! ```
//! use rpq_graph::gen::synthetic;
//! use rpq_graph::{Color, DistanceMatrix};
//! use rpq_index::{DistProbe, HopLabels};
//!
//! let g = synthetic(300, 900, 2, 3, 7);
//! let labels = HopLabels::build(&g);
//! let matrix = DistanceMatrix::build(&g);
//! // exact labels agree with the dense matrix on every probe
//! for u in g.nodes().take(10) {
//!     for v in g.nodes().take(10) {
//!         assert_eq!(labels.dist(u, v, Color(1)), matrix.dist(u, v, Color(1)));
//!     }
//! }
//! assert!(labels.bytes() < DistanceMatrix::bytes_for(&g) * 4); // tiny graph; at scale the gap inverts hugely
//! ```

mod labels;
mod overlay;
mod probe;
mod sharded;

pub use labels::{HopBuildError, HopConfig, HopLabels, HopRepair, HopStats, InSetAgg};
pub use probe::{CountingProbe, DistProbe, GraphProbe};
pub use sharded::{ShardedConfig, ShardedLabels, ShardedRepair, ShardedStats};
