//! Containment and equivalence of RQs and PQs (§3.1).
//!
//! * RQs: `Q1 ⊑ Q2` iff `u1 ⊢ w1`, `u2 ⊢ w2` and `L(fe1) ⊆ L(fe2)` —
//!   decidable in quadratic time (Prop. 3.3). The regex half is
//!   [`contains_fast`], the one containment decider of the workspace (the
//!   engine's memo, PQ simulation and minPQs use it too).
//! * PQs: `Q1 ⊑ Q2` iff `Q2 ⊴ Q1` (Lemma 3.1), decidable in cubic time via
//!   the revised similarity (Thm. 3.2).

use crate::pq::Pq;
use crate::rq::Rq;
use crate::simulation::revised_similar;
use rpq_regex::canon::contains_fast;

/// RQ containment `a ⊑ b`: for every graph, every match pair of `a` is a
/// match pair of `b`. Sound and linear in the regexes: besides the
/// paper's atom-aligned scan it accepts the containments only the
/// run-level check sees, such as `a a ⊑ a^2`.
pub fn rq_contained_in(a: &Rq, b: &Rq) -> bool {
    a.from.implies(&b.from) && a.to.implies(&b.to) && contains_fast(&a.regex, &b.regex)
}

/// RQ equivalence `a ≡ b`.
pub fn rq_equivalent(a: &Rq, b: &Rq) -> bool {
    rq_contained_in(a, b) && rq_contained_in(b, a)
}

/// PQ containment `a ⊑ b` (Lemma 3.1: `a ⊑ b` iff `b ⊴ a`).
pub fn pq_contained_in(a: &Pq, b: &Pq) -> bool {
    revised_similar(b, a)
}

/// PQ equivalence `a ≡ b`.
pub fn pq_equivalent(a: &Pq, b: &Pq) -> bool {
    pq_contained_in(a, b) && pq_contained_in(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use rpq_graph::gen::{essembly, synthetic};
    use rpq_graph::{Alphabet, Schema};
    use rpq_regex::FRegex;

    #[test]
    fn rq_containment_basics() {
        let mut schema = Schema::new();
        schema.intern("age");
        let al = Alphabet::from_names(["c"]);
        let rq = |from: &str, to: &str, re: &str| {
            Rq::new(
                Predicate::parse(from, &schema).unwrap(),
                Predicate::parse(to, &schema).unwrap(),
                FRegex::parse(re, &al).unwrap(),
            )
        };
        let tight = rq("age > 10", "age = 3", "c^2");
        let loose = rq("age > 5", "age <= 3", "c^4");
        assert!(rq_contained_in(&tight, &loose));
        assert!(!rq_contained_in(&loose, &tight));
        assert!(rq_equivalent(&tight, &tight));
        assert!(!rq_equivalent(&tight, &loose));
        // regex mismatch alone breaks containment
        let other = rq("age > 10", "age = 3", "c");
        assert!(!rq_contained_in(&tight, &other));
        assert!(rq_contained_in(&other, &loose));
    }

    /// The run-level half of the decider: `a a` and `a^2` have different
    /// atom counts, so the atom-aligned scan cannot align them, yet every
    /// word of `a a` is one of `a^2`.
    #[test]
    fn rq_containment_sees_runs() {
        let g = essembly();
        let from = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let rq = |re: &str| {
            let regex = FRegex::parse(re, g.alphabet()).unwrap();
            Rq::new(from.clone(), from.clone(), regex)
        };
        assert!(rq_contained_in(&rq("fa fa"), &rq("fa^2")));
        assert!(!rq_contained_in(&rq("fa^2"), &rq("fa fa")));
        assert!(!rq_equivalent(&rq("fa fa"), &rq("fa^2")));
    }

    /// Semantic validation of RQ containment: on concrete graphs, if
    /// `a ⊑ b` syntactically then `a`'s result is a subset of `b`'s.
    #[test]
    fn rq_containment_is_semantically_sound() {
        let g = synthetic(60, 200, 2, 2, 11);
        let rqs: Vec<Rq> = [
            ("a0 > 3", "", "c0"),
            ("a0 > 5", "", "c0"),
            ("a0 > 5", "a1 < 5", "c0"),
            ("", "", "c0^2"),
            ("", "", "c0^3"),
            ("", "", "c0+"),
            ("a0 > 3", "", "c0 c1^2"),
            ("a0 > 3", "", "c0 c1^3"),
        ]
        .iter()
        .map(|(f, t, r)| {
            Rq::new(
                Predicate::parse(f, g.schema()).unwrap(),
                Predicate::parse(t, g.schema()).unwrap(),
                FRegex::parse(r, g.alphabet()).unwrap(),
            )
        })
        .collect();
        for a in &rqs {
            for b in &rqs {
                if rq_contained_in(a, b) {
                    let ra = a.eval_bfs(&g);
                    let rb = b.eval_bfs(&g);
                    for &(x, y) in ra.as_slice() {
                        assert!(rb.contains(x, y), "containment violated on ({x:?},{y:?})");
                    }
                }
            }
        }
    }

    /// Semantic validation of PQ containment on the Essembly graph: when
    /// `a ⊑ b`, there must be an edge mapping κ with `Se ⊆ S_{κ(e)}`.
    #[test]
    fn pq_containment_is_semantically_sound() {
        let g = essembly();
        let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
        let bio = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let doc = Predicate::parse("job = \"doctor\"", g.schema()).unwrap();

        // a: biologist --fn--> doctor ; b: biologist --fn^2--> doctor
        let mut a = Pq::new();
        let a0 = a.add_node("C", bio.clone());
        let a1 = a.add_node("B", doc.clone());
        a.add_edge(a0, a1, re("fn"));
        let mut b = Pq::new();
        let b0 = b.add_node("C", bio);
        let b1 = b.add_node("B", doc);
        b.add_edge(b0, b1, re("fn^2"));

        assert!(pq_contained_in(&a, &b));
        assert!(!pq_contained_in(&b, &a));
        let ra = a.eval_naive(&g);
        let rb = b.eval_naive(&g);
        for &p in ra.edge_matches(0) {
            assert!(rb.edge_matches(0).contains(&p));
        }
    }

    #[test]
    fn pq_containment_reflexive_and_transitive() {
        // build a few related patterns and check order axioms
        let mut schema = Schema::new();
        schema.intern("t");
        let al = Alphabet::from_names(["c", "d"]);
        let p = Predicate::parse("t = 1", &schema).unwrap();
        let mk = |res: &[&str]| {
            let mut q = Pq::new();
            let a = q.add_node("a", p.clone());
            let b = q.add_node("b", Predicate::always_true());
            for r in res {
                q.add_edge(a, b, FRegex::parse(r, &al).unwrap());
            }
            q
        };
        let qs = [mk(&["c"]), mk(&["c^2"]), mk(&["c^3"]), mk(&["c", "d"])];
        for q in &qs {
            assert!(pq_contained_in(q, q), "reflexivity");
        }
        for x in &qs {
            for y in &qs {
                for z in &qs {
                    if pq_contained_in(x, y) && pq_contained_in(y, z) {
                        assert!(pq_contained_in(x, z), "transitivity");
                    }
                }
            }
        }
        assert!(pq_equivalent(&qs[0], &qs[0]));
        assert!(!pq_equivalent(&qs[0], &qs[1]));
    }
}
