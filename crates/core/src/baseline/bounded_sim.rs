//! `Match`: bounded graph simulation (the paper's baseline \[20\],
//! Fan et al., PVLDB 2010).
//!
//! Bounded simulation is the special case of PQs where only a single edge
//! type exists: every edge carries a hop bound `k` (or `+`, unbounded) and
//! **edge colors are ignored**. The paper's Exp-1 runs `Match` on
//! multi-colored graphs exactly this way, which is why its recall is
//! perfect but its precision drops (Fig. 9(b)): it returns matches
//! connected by paths of the right length but the wrong relationship
//! types.
//!
//! Implementation: rewrite each edge constraint `c1^k1 … cn^kn` to the
//! wildcard bound `_^(k1+…+kn)` (or `_+` if any atom is `+`), then run the
//! same refinement fixpoint as `JoinMatch` — bounded simulation *is* that
//! fixpoint on the rewritten query.

use crate::join_match::JoinMatch;
use crate::pq::{Pq, PqResult};
use crate::reach::{total_bound, ProbeReach};
use rpq_graph::{Graph, WILDCARD};
use rpq_regex::{FRegex, Quant};

/// Rewrite a PQ into its bounded-simulation relaxation: same nodes and
/// edges, every constraint replaced by a wildcard with the summed bound.
pub fn to_bounded_wildcard(pq: &Pq) -> Pq {
    let mut out = Pq::new();
    for n in pq.nodes() {
        out.add_node(&n.label, n.pred.clone());
    }
    for e in pq.edges() {
        let quant = match total_bound(&e.regex) {
            Some(k) => Quant::AtMost(k),
            None => Quant::Plus,
        };
        out.add_edge(e.from, e.to, FRegex::atom(WILDCARD, quant));
    }
    out
}

/// Evaluate the `Match` baseline: bounded simulation of `pq`'s relaxation
/// on `g`. Returns a [`PqResult`] over the same node/edge indices as `pq`.
pub fn bounded_sim_match(pq: &Pq, g: &Graph, engine: &ProbeReach<'_>) -> PqResult {
    let relaxed = to_bounded_wildcard(pq);
    JoinMatch::eval(&relaxed, g, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::reach::ProbeReach;
    use rpq_graph::gen::essembly;
    use rpq_graph::DistanceMatrix;

    fn q1_pattern(g: &Graph) -> Pq {
        let mut pq = Pq::new();
        let c = pq.add_node(
            "C",
            Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap(),
        );
        let b = pq.add_node(
            "B",
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        );
        pq.add_edge(c, b, FRegex::parse("fa^2 fn", g.alphabet()).unwrap());
        pq
    }

    #[test]
    fn rewrite_shape() {
        let g = essembly();
        let pq = q1_pattern(&g);
        let relaxed = to_bounded_wildcard(&pq);
        assert_eq!(relaxed.node_count(), 2);
        let e = relaxed.edge(0);
        assert_eq!(e.regex.atoms()[0].color, WILDCARD);
        assert_eq!(e.regex.atoms()[0].quant, Quant::AtMost(3));
    }

    #[test]
    fn recall_is_total_precision_is_not() {
        // ground truth: the color-aware PQ; Match: color-blind relaxation
        let g = essembly();
        let pq = q1_pattern(&g);
        let m = DistanceMatrix::build(&g);
        let truth = JoinMatch::eval(&pq, &g, &ProbeReach::new(&m));
        let relaxed = bounded_sim_match(&pq, &g, &ProbeReach::new(&m));
        // every true edge match is found (full recall)
        for &p in truth.edge_matches(0) {
            assert!(
                relaxed.edge_matches(0).contains(&p),
                "bounded simulation must not miss {p:?}"
            );
        }
        // ...but extra, color-violating matches appear (lower precision):
        // C3 reaches doctors within 3 hops of arbitrary colors
        let c3 = g.node_by_label("C3").unwrap();
        let b1 = g.node_by_label("B1").unwrap();
        assert!(relaxed.edge_matches(0).contains(&(c3, b1)));
        assert!(!truth.edge_matches(0).contains(&(c3, b1)));
        assert!(relaxed.size() > truth.size());
    }

    #[test]
    fn plus_becomes_unbounded_wildcard() {
        let g = essembly();
        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::always_true());
        let b = pq.add_node("b", Predicate::always_true());
        pq.add_edge(a, b, FRegex::parse("fa^2 fn+", g.alphabet()).unwrap());
        let relaxed = to_bounded_wildcard(&pq);
        assert_eq!(relaxed.edge(0).regex.atoms()[0].quant, Quant::Plus);
    }

    #[test]
    fn a_bound_past_u32_max_becomes_unbounded_wildcard() {
        let g = essembly();
        let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
        assert_eq!(total_bound(&re("fa^4294967295")), Some(u32::MAX));
        assert_eq!(total_bound(&re("fa^4294967295 fn")), None);
        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::always_true());
        let b = pq.add_node("b", Predicate::always_true());
        pq.add_edge(a, b, re("fa^4294967295 fn"));
        let relaxed = to_bounded_wildcard(&pq);
        assert_eq!(relaxed.edge(0).regex.atoms()[0].quant, Quant::Plus);
    }
}
