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
//! (`Rq::eval_with_dist`) **and PQ evaluation** (`ProbeReach`, over a
//! `&dyn DistProbe`, backs `JoinMatch`/`SplitMatch`) are
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
//! ## The sharded backend
//!
//! [`ShardedLabels`] is the graph plus an edge-cut
//! [`Partition`](rpq_graph::Partition) of it. It holds no labels: every
//! question, point probes included, is a [`GraphProbe`] sweep of the graph
//! it was built or repaired for, and a repair carries the partition
//! forward and counts the shards a write touched. It stays while the
//! benchmark's `sharded_live` workload is configured into that regime.
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
mod probe;
mod sharded;

pub use labels::{HopBuildError, HopConfig, HopLabels, HopRepair, HopStats};
pub use probe::{CountingProbe, DistProbe, GraphProbe};
pub use sharded::{ShardedLabels, ShardedStats};
