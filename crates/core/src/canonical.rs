//! Query canonicalization: the normal forms the engine's semantic cache
//! and the snapshot's standing-answer lookup key on.
//!
//! Every edge constraint is rewritten into the run-normal form of
//! [`rpq_regex::canon`], so syntactic spellings of one language (`a^2 a`
//! vs `a a^2`) become structurally equal and collapse onto one memo key /
//! one plan. [`canonical_rq`] and [`canonical_pq`] are *shape-preserving*:
//! they touch only the regexes, never the node/edge structure, so results
//! stay bit-identical to the submitted query's shape.

use crate::pq::Pq;
use crate::rq::Rq;
use rpq_regex::canon::canonicalize;

/// The RQ with its regex in run-normal canonical form. Language- and
/// therefore answer-preserving; predicates are untouched.
pub fn canonical_rq(rq: &Rq) -> Rq {
    Rq::new(rq.from.clone(), rq.to.clone(), canonicalize(&rq.regex))
}

/// The PQ with every edge regex in run-normal canonical form. The node
/// and edge structure (and therefore the shape of [`crate::pq::PqResult`])
/// is preserved exactly; only regex spellings change.
pub fn canonical_pq(pq: &Pq) -> Pq {
    let mut out = Pq::new();
    for n in pq.nodes() {
        out.add_node(&n.label, n.pred.clone());
    }
    for e in pq.edges() {
        out.add_edge(e.from, e.to, canonicalize(&e.regex));
    }
    out
}

/// Are `a` and `b` the same pattern under the *identity* node mapping,
/// ignoring display labels and regex spelling? Requires equal predicates
/// per node index and, per edge index, equal endpoints and language-equal
/// (canonical) regexes. This is the cheap membership test the snapshot
/// uses to serve a standing answer for a syntactic variant: because node
/// and edge indices coincide, the maintained result is bit-identical in
/// the variant's shape.
pub fn pq_same_shape(a: &Pq, b: &Pq) -> bool {
    a.node_count() == b.node_count()
        && a.edge_count() == b.edge_count()
        && a.nodes()
            .iter()
            .zip(b.nodes())
            .all(|(x, y)| x.pred == y.pred)
        && a.edges().iter().zip(b.edges()).all(|(x, y)| {
            x.from == y.from
                && x.to == y.to
                && rpq_regex::canon::equivalent_canonical(&x.regex, &y.regex)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contain::pq_equivalent;
    use crate::predicate::Predicate;
    use rpq_graph::{Alphabet, Schema};
    use rpq_regex::FRegex;

    fn vocab() -> (Schema, Alphabet) {
        let mut schema = Schema::new();
        schema.intern("t");
        (schema, Alphabet::from_names(["c", "d"]))
    }

    #[test]
    fn canonical_rq_unifies_spellings() {
        let (schema, al) = vocab();
        let p = Predicate::parse("t = 1", &schema).unwrap();
        let mk = |re: &str| {
            Rq::new(
                p.clone(),
                Predicate::always_true(),
                FRegex::parse(re, &al).unwrap(),
            )
        };
        assert_eq!(canonical_rq(&mk("c^2 c")), canonical_rq(&mk("c c^2")));
        assert_ne!(canonical_rq(&mk("c^2 c")), canonical_rq(&mk("c^2")));
    }

    #[test]
    fn canonical_pq_preserves_shape() {
        let (schema, al) = vocab();
        let p = Predicate::parse("t = 1", &schema).unwrap();
        let mut q = Pq::new();
        let a = q.add_node("A", p.clone());
        let b = q.add_node("B", p);
        q.add_edge(a, b, FRegex::parse("c+ c", &al).unwrap());
        let c = canonical_pq(&q);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.edge_count(), 1);
        assert_eq!(c.edge(0).regex, FRegex::parse("c c+", &al).unwrap());
        assert_eq!(c.node(0).label, "A");
        assert!(pq_equivalent(&c, &q));
        assert!(pq_same_shape(&c, &q));
    }

    #[test]
    fn same_shape_ignores_labels_and_spelling_only() {
        let (schema, al) = vocab();
        let p = Predicate::parse("t = 1", &schema).unwrap();
        let mk = |labels: (&str, &str), re: &str| {
            let mut q = Pq::new();
            let a = q.add_node(labels.0, p.clone());
            let b = q.add_node(labels.1, Predicate::always_true());
            q.add_edge(a, b, FRegex::parse(re, &al).unwrap());
            q
        };
        assert!(pq_same_shape(
            &mk(("x", "y"), "c^2 c"),
            &mk(("u", "v"), "c c^2")
        ));
        // different language is a different query
        assert!(!pq_same_shape(
            &mk(("x", "y"), "c^2"),
            &mk(("x", "y"), "c^3")
        ));
    }
}
