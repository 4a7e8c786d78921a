//! Reachability queries with **general** regular expressions (§7).
//!
//! Evaluation carries over from RQs unchanged — the product-space search
//! only needs an automaton, and [`Nfa::from_general`] builds the same
//! automaton type as the class F, so [`GRq::eval`] runs the very loop of
//! [`Rq::eval_bfs`](crate::rq::Rq::eval_bfs). What does *not* carry over
//! are the static analyses: containment/equivalence of general
//! expressions is PSPACE-complete (Jiang & Ravikumar), so [`GRq`]
//! deliberately exposes no `contained_in`.
//!
//! `GRq` is not an engine query class: no workload, client or wire
//! syntax sends one, and an engine plan would need a `Query` variant, a
//! wire syntax, a planner branch and a memo exclusion. The `rpq grq`
//! command and the tests call [`GRq::eval`] directly.

use crate::predicate::Predicate;
use crate::rq::{product_search, RqResult};
use rpq_graph::Graph;
use rpq_regex::{GRegex, Nfa};

/// A reachability query whose edge constraint is a general regular
/// expression, e.g. `"(fa | sa)+ fn"`.
#[derive(Debug, Clone, PartialEq)]
pub struct GRq {
    /// Search condition on the source node.
    pub from: Predicate,
    /// Search condition on the target node.
    pub to: Predicate,
    /// The general edge constraint.
    pub regex: GRegex,
}

impl GRq {
    /// Build a general RQ.
    pub fn new(from: Predicate, to: Predicate, regex: GRegex) -> Self {
        GRq { from, to, regex }
    }

    /// Evaluate by forward product-automaton search from every candidate
    /// source (the BFS strategy; general expressions have no distance-
    /// matrix decomposition because their atoms are not single colors).
    pub fn eval(&self, g: &Graph) -> RqResult {
        product_search(g, &Nfa::from_general(&self.regex), &self.from, &self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rq::Rq;
    use rpq_graph::gen::{essembly, synthetic};
    use rpq_regex::FRegex;

    #[test]
    fn union_expresses_more_than_f() {
        // "(fa | sa)+": allies of either kind, any positive length —
        // inexpressible in the class F (which has no union of colors
        // other than the all-colors wildcard)
        let g = essembly();
        let grq = GRq::new(
            Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
            Predicate::parse("uid = \"Alice001\"", g.schema()).unwrap(),
            GRegex::parse("(fa | sa)+", g.alphabet()).unwrap(),
        );
        let res = grq.eval(&g);
        let n = |l: &str| g.node_by_label(l).unwrap();
        // every biologist reaches D1 through fa/sa chains (e.g. C3 fa C1 sa D1)
        for c in ["C1", "C2", "C3"] {
            assert!(res.contains(n(c), n("D1")), "{c} must reach D1");
        }
        // the wildcard over-approximates: fn edges would also count
        let wild = Rq::new(
            grq.from.clone(),
            grq.to.clone(),
            FRegex::parse("_+", g.alphabet()).unwrap(),
        );
        let wild_res = wild.eval_bfs(&g);
        for &(x, y) in res.as_slice() {
            assert!(wild_res.contains(x, y));
        }
    }

    #[test]
    fn agrees_with_f_class_on_embeddable_constraints() {
        let g = synthetic(40, 150, 2, 3, 77);
        for src in ["c0", "c0^2 c1", "c2+", "_^2"] {
            let f = FRegex::parse(src, g.alphabet()).unwrap();
            let rq = Rq::new(
                Predicate::always_true(),
                Predicate::always_true(),
                f.clone(),
            );
            let grq = GRq::new(
                Predicate::always_true(),
                Predicate::always_true(),
                GRegex::from_fregex(&f),
            );
            assert_eq!(rq.eval_bfs(&g), grq.eval(&g), "constraint {src}");
        }
    }

    #[test]
    fn star_with_anchor() {
        // "fa* fn": any number of fa hops then one fn
        let g = essembly();
        let grq = GRq::new(
            Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
            GRegex::parse("fa* fn", g.alphabet()).unwrap(),
        );
        let res = grq.eval(&g);
        let n = |l: &str| g.node_by_label(l).unwrap();
        // C3 matches with zero fa hops (direct fn), C1/C2 with several
        for c in ["C1", "C2", "C3"] {
            assert!(res.contains(n(c), n("B1")), "{c}");
        }
    }
}
