//! The paper's comparison baselines (§6, Exp-1):
//!
//! * [`subiso`] — `SubIso`, subgraph-isomorphism pattern matching in the
//!   style of Ullmann (the paper's \[43\]): edges map to single data edges,
//!   node mapping is injective. High precision, low recall on PQ workloads.
//! * [`bounded_sim`] — `Match`, bounded graph simulation (the paper's
//!   \[20\]): hop bounds are honored but edge colors are not. Full recall,
//!   lower precision.

pub mod bounded_sim;
pub mod plain_sim;
pub mod subiso;

pub use bounded_sim::{bounded_sim_match, to_bounded_wildcard};
pub use plain_sim::{plain_sim_match, to_plain};
pub use subiso::{subiso_match, SubIsoResult};
