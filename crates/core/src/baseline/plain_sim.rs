//! Plain graph simulation — the classical notion \[HHK95\] the paper's PQ
//! semantics extends.
//!
//! Under plain simulation a pattern edge maps to a **single** data edge of
//! admissible color (no hop bounds, no regex): it is the `b = 1` /
//! single-atom corner of PQs, and the origin point of the paper's
//! genealogy (simulation → bounded simulation \[20\] → regex-constrained
//! simulation, this paper). Exposed as a baseline so the expressiveness
//! ladder can be compared end to end.

use crate::join_match::JoinMatch;
use crate::pq::{Pq, PqResult};
use crate::reach::ProbeReach;
use rpq_graph::Graph;
use rpq_index::GraphProbe;
use rpq_regex::{FRegex, Quant};

/// Strip every edge constraint down to a single one-hop atom of its first
/// color: the plain-simulation reading of a PQ.
pub fn to_plain(pq: &Pq) -> Pq {
    let mut out = Pq::new();
    for n in pq.nodes() {
        out.add_node(&n.label, n.pred.clone());
    }
    for e in pq.edges() {
        let first = e.regex.atoms()[0].color;
        out.add_edge(e.from, e.to, FRegex::atom(first, Quant::One));
    }
    out
}

/// Evaluate the plain-simulation reading of `pq` on `g`: the greatest
/// simulation relation, reported in the usual [`PqResult`] form. Every
/// constraint of [`to_plain`]'s pattern is one hop of one color, so each
/// refinement probe over the graph is a direct edge lookup.
pub fn plain_sim_match(pq: &Pq, g: &Graph) -> PqResult {
    JoinMatch::eval(&to_plain(pq), g, &ProbeReach::new(&GraphProbe::new(g)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::reach::ProbeReach;
    use rpq_graph::gen::essembly;
    use rpq_graph::DistanceMatrix;

    #[test]
    fn one_hop_only() {
        // C --fn--> B: plain simulation sees exactly the direct fn edges
        let g = essembly();
        let mut pq = Pq::new();
        let c = pq.add_node(
            "C",
            Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
        );
        let b = pq.add_node(
            "B",
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        );
        pq.add_edge(c, b, FRegex::parse("fn", g.alphabet()).unwrap());
        let res = plain_sim_match(&pq, &g);
        let n = |l: &str| g.node_by_label(l).unwrap();
        assert_eq!(res.node_matches(0), &[n("C3")]);
        assert_eq!(res.node_matches(1), &[n("B1"), n("B2")]);
    }

    #[test]
    fn ladder_plain_subset_of_pq() {
        // on a single-atom one-hop query, plain simulation equals the PQ;
        // on a bounded query it is a subset (stricter edge reading)
        let g = essembly();
        let m = DistanceMatrix::build(&g);
        let mut pq = Pq::new();
        let c = pq.add_node(
            "C",
            Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
        );
        let b = pq.add_node(
            "B",
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        );
        pq.add_edge(c, b, FRegex::parse("fn^3", g.alphabet()).unwrap());

        let plain = plain_sim_match(&pq, &g);
        let full = JoinMatch::eval(&pq, &g, &ProbeReach::new(&m));
        for &x in plain.node_matches(0) {
            assert!(full.node_matches(0).contains(&x));
        }
        let _ = c;
        let _ = b;
    }

    #[test]
    fn simulation_not_isomorphism() {
        // the classical separation: simulation allows two pattern nodes to
        // map to one data node, isomorphism does not
        let g = essembly();
        let mut pq = Pq::new();
        let c1 = pq.add_node(
            "C1",
            Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
        );
        let c2 = pq.add_node(
            "C2",
            Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
        );
        let b = pq.add_node(
            "B",
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        );
        let re = FRegex::parse("fn", g.alphabet()).unwrap();
        pq.add_edge(c1, b, re.clone());
        pq.add_edge(c2, b, re);
        let res = plain_sim_match(&pq, &g);
        let n = |l: &str| g.node_by_label(l).unwrap();
        // both C1 and C2 map to the single data node C3
        assert_eq!(res.node_matches(0), &[n("C3")]);
        assert_eq!(res.node_matches(1), &[n("C3")]);
    }
}
