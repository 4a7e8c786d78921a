//! Randomized cross-validation of the paper's SubIso baseline: every
//! match pair it reports satisfies its node predicate and the local edge
//! structure. (Answers of the RQ/PQ evaluators are the differential
//! oracle's, `tests/oracle.rs`.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq::prelude::*;

#[test]
fn subiso_embeddings_are_sound() {
    // every SubIso match pair must satisfy its node predicate and have the
    // required adjacent edges when the full embedding is rebuilt
    let mut rng = StdRng::seed_from_u64(808);
    for trial in 0..5u64 {
        let g = rpq::graph::gen::synthetic(30, 90, 1, 2, 300 + trial);
        let mut pq = Pq::new();
        let n_nodes = rng.gen_range(2..4usize);
        for i in 0..n_nodes {
            pq.add_node(&format!("u{i}"), Predicate::always_true());
        }
        for w in 0..n_nodes - 1 {
            let color = if rng.gen_bool(0.5) { "c0" } else { "c1" };
            pq.add_edge(w, w + 1, FRegex::parse(color, g.alphabet()).unwrap());
        }
        let res = rpq::core::baseline::subiso_match(&pq, &g, 1 << 22);
        // match pairs are a projection of complete embeddings; check they
        // at least satisfy the unary predicate and local edge consistency
        for &(u, x) in &res.match_pairs {
            assert!(pq.node(u).pred.matches(g.attrs(x)));
            for &ei in pq.out_edges(u) {
                let e = pq.edge(ei);
                let color = e.regex.atoms()[0].color;
                assert!(
                    g.out_edges(x).iter().any(|de| color.admits(de.color)),
                    "match pair ({u},{x:?}) lacks any {color:?} out-edge"
                );
            }
        }
    }
}
