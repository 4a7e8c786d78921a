//! The paper's query generator (§6, "Query generator").
//!
//! "The generator has five parameters: |Vp| denotes the number of pattern
//! nodes, |Ep| is the number of pattern edges, |pred| denotes the number of
//! predicates each pattern node carries, and bounds b and c are used such
//! that each edge is constrained by a regular expression e1^b … ek^b, with
//! 1 ≤ k ≤ c."
//!
//! To produce *meaningful* queries (the paper's word), node predicates are
//! sampled from the attribute tuples of actual data nodes, so every query
//! node has at least one candidate match. For the minimization experiment
//! (Fig. 10(a)) the generator can draw node predicates and edge constraints
//! from small per-query pools, which makes simulation-equivalent nodes —
//! and hence redundancy — likely, as in the paper's observation that
//! "larger queries have a higher probability to contain redundant nodes
//! and edges".

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_core::pq::Pq;
use rpq_core::predicate::{CompOp, PredAtom, Predicate};
use rpq_core::rq::Rq;
use rpq_graph::{AttrValue, Graph};
use rpq_regex::{Atom, FRegex, Quant};

/// The five paper parameters plus generation controls.
#[derive(Debug, Clone, Copy)]
pub struct QueryParams {
    /// Number of pattern nodes `|Vp|`.
    pub nodes: usize,
    /// Number of pattern edges `|Ep|`.
    pub edges: usize,
    /// Predicates per pattern node `|pred|`.
    pub preds: usize,
    /// Per-atom hop bound `b` (each atom is `e^b`; `b = 1` degenerates to
    /// a plain color).
    pub bound: u32,
    /// Maximum atoms per edge constraint `c` (each edge draws `k ∈ 1..=c`).
    pub colors: usize,
    /// Draw predicates/regexes from small pools to induce redundancy
    /// (the paper's Fig. 10(a) minimization workload).
    pub redundant: bool,
}

impl QueryParams {
    /// The defaults shared by Figs. 11-12: `(|Vp|, |Ep|, |pred|, b, c) =
    /// (6, 8, 3, 5, 4)`.
    pub fn defaults() -> Self {
        QueryParams {
            nodes: 6,
            edges: 8,
            preds: 3,
            bound: 5,
            colors: 4,
            redundant: false,
        }
    }
}

/// Sample one predicate with `preds` conjuncts from the attribute tuple of
/// a random data node (so the predicate is satisfiable on `g`).
pub fn sample_predicate(g: &Graph, preds: usize, rng: &mut StdRng) -> Predicate {
    let v = rpq_graph::NodeId(rng.gen_range(0..g.node_count() as u32));
    sample_predicate_at(g, v, preds, rng)
}

/// Sample one predicate with `preds` conjuncts satisfied by the specific
/// node `v`.
pub fn sample_predicate_at(
    g: &Graph,
    v: rpq_graph::NodeId,
    preds: usize,
    rng: &mut StdRng,
) -> Predicate {
    let pairs: Vec<_> = g.attrs(v).iter().collect();
    if pairs.is_empty() {
        return Predicate::always_true();
    }
    let mut atoms = Vec::with_capacity(preds);
    for i in 0..preds {
        // avoid near-unique conjuncts (e.g. equality on a key attribute
        // like the GTD group name): they would collapse candidate sets to
        // singletons, which no realistic query workload does
        let mut chosen: Option<PredAtom> = None;
        for retry in 0..4 {
            let (attr, value) = pairs[(rng.gen_range(0..pairs.len()) + i) % pairs.len()];
            let (op, value) = match value {
                AttrValue::Str(_) => (CompOp::Eq, value.clone()),
                AttrValue::Int(n) => match rng.gen_range(0..3) {
                    0 => (CompOp::Le, AttrValue::Int(*n)),
                    1 => (CompOp::Ge, AttrValue::Int(*n)),
                    _ => (CompOp::Ne, AttrValue::Int(n.wrapping_add(1))),
                },
            };
            let atom = PredAtom { attr, op, value };
            let selectivity = g
                .nodes()
                .filter(|&x| {
                    g.attrs(x).get(atom.attr).is_some_and(|val| {
                        val.same_domain(&atom.value) && atom.op.eval(val, &atom.value)
                    })
                })
                .take(5)
                .count();
            if selectivity >= 5 || retry == 3 {
                chosen = Some(atom);
                break;
            }
        }
        atoms.push(chosen.expect("retry loop always yields an atom"));
    }
    Predicate::new(atoms)
}

/// Sample one edge constraint `e1^b … ek^b` with `k ∈ 1..=c` distinct
/// colors from `g`'s alphabet.
pub fn sample_regex(g: &Graph, bound: u32, c: usize, rng: &mut StdRng) -> FRegex {
    let m = g.alphabet().len();
    let k = rng.gen_range(1..=c.max(1)).min(m.max(1));
    let mut colors: Vec<_> = g.alphabet().colors().collect();
    // partial Fisher-Yates for k distinct colors
    for i in 0..k.min(colors.len()) {
        let j = rng.gen_range(i..colors.len());
        colors.swap(i, j);
    }
    let quant = if bound <= 1 {
        Quant::One
    } else {
        Quant::AtMost(bound)
    };
    FRegex::new(
        colors
            .into_iter()
            .take(k)
            .map(|color| Atom::new(color, quant))
            .collect(),
    )
}

/// Generate one PQ over `g` with the given parameters (deterministic in
/// `seed`). The pattern's first `|Vp| - 1` edges form a random spanning
/// tree when `|Ep|` allows, keeping patterns connected as the paper
/// assumes; extra edges (possibly creating cycles) are added uniformly.
pub fn generate_pq(g: &Graph, p: &QueryParams, seed: u64) -> Pq {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pq = Pq::new();

    // pools for redundancy mode
    let pred_pool: Vec<Predicate> = if p.redundant {
        (0..(p.nodes / 2).max(2))
            .map(|_| sample_predicate(g, p.preds, &mut rng))
            .collect()
    } else {
        Vec::new()
    };
    let regex_pool: Vec<FRegex> = if p.redundant {
        (0..3)
            .map(|_| sample_regex(g, p.bound, p.colors, &mut rng))
            .collect()
    } else {
        Vec::new()
    };

    for i in 0..p.nodes {
        let pred = if p.redundant {
            pred_pool[rng.gen_range(0..pred_pool.len())].clone()
        } else {
            sample_predicate(g, p.preds, &mut rng)
        };
        pq.add_node(&format!("u{i}"), pred);
    }
    let mut remaining = p.edges;
    let next_regex = |rng: &mut StdRng| {
        if p.redundant {
            regex_pool[rng.gen_range(0..regex_pool.len())].clone()
        } else {
            sample_regex(g, p.bound, p.colors, rng)
        }
    };
    // spanning-tree backbone
    for i in 1..p.nodes {
        if remaining == 0 {
            break;
        }
        let parent = rng.gen_range(0..i);
        let (u, v) = if rng.gen_bool(0.5) {
            (parent, i)
        } else {
            (i, parent)
        };
        let re = next_regex(&mut rng);
        pq.add_edge(u, v, re);
        remaining -= 1;
    }
    // extra edges
    while remaining > 0 {
        let u = rng.gen_range(0..p.nodes);
        let v = rng.gen_range(0..p.nodes);
        let re = next_regex(&mut rng);
        pq.add_edge(u, v, re);
        remaining -= 1;
    }
    pq
}

/// Generate one RQ (the PQ special case with two nodes and one edge) whose
/// constraint uses exactly `k` distinct colors, each bounded by `b` —
/// the Fig. 10(b) workload `c1^b … ck^b`.
pub fn generate_rq(g: &Graph, preds: usize, bound: u32, k: usize, seed: u64) -> Rq {
    let mut rng = StdRng::seed_from_u64(seed);
    let from = sample_predicate(g, preds, &mut rng);
    let to = sample_predicate(g, preds, &mut rng);
    let m = g.alphabet().len();
    let k = k.min(m).max(1);
    let mut colors: Vec<_> = g.alphabet().colors().collect();
    for i in 0..k {
        let j = rng.gen_range(i..colors.len());
        colors.swap(i, j);
    }
    let quant = if bound <= 1 {
        Quant::One
    } else {
        Quant::AtMost(bound)
    };
    let regex = FRegex::new(
        colors
            .into_iter()
            .take(k)
            .map(|c| Atom::new(c, quant))
            .collect(),
    );
    Rq::new(from, to, regex)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::gen::synthetic;

    #[test]
    fn generated_pq_respects_parameters() {
        let g = synthetic(200, 700, 3, 4, 1);
        let p = QueryParams {
            nodes: 6,
            edges: 9,
            preds: 2,
            bound: 5,
            colors: 3,
            redundant: false,
        };
        for seed in 0..10 {
            let pq = generate_pq(&g, &p, seed);
            assert_eq!(pq.node_count(), 6);
            assert_eq!(pq.edge_count(), 9);
            for n in pq.nodes() {
                assert_eq!(n.pred.len(), 2);
            }
            for e in pq.edges() {
                assert!((1..=3).contains(&e.regex.len()));
                for a in e.regex.atoms() {
                    assert_eq!(a.quant, Quant::AtMost(5));
                }
            }
        }
    }

    #[test]
    fn predicates_are_satisfiable_on_the_graph() {
        let g = synthetic(100, 300, 3, 4, 2);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..30 {
            let pred = sample_predicate(&g, 3, &mut rng);
            assert!(
                g.nodes().any(|v| pred.matches(g.attrs(v))),
                "unsatisfiable predicate generated"
            );
        }
    }

    #[test]
    fn determinism() {
        let g = synthetic(100, 300, 3, 4, 2);
        let p = QueryParams::defaults();
        assert_eq!(generate_pq(&g, &p, 7), generate_pq(&g, &p, 7));
        assert_ne!(generate_pq(&g, &p, 7), generate_pq(&g, &p, 8));
    }

    #[test]
    fn rq_generator_uses_k_colors() {
        let g = synthetic(100, 300, 3, 4, 2);
        for k in 1..=4 {
            let rq = generate_rq(&g, 3, 5, k, 11);
            assert_eq!(rq.regex.len(), k);
            assert_eq!(rq.regex.distinct_colors(), k);
        }
    }

    #[test]
    fn redundant_mode_duplicates_predicates() {
        let g = synthetic(100, 300, 3, 4, 2);
        let p = QueryParams {
            nodes: 10,
            edges: 14,
            preds: 2,
            bound: 5,
            colors: 2,
            redundant: true,
        };
        let pq = generate_pq(&g, &p, 3);
        // with a pool of ≤5 predicates over 10 nodes, duplicates must occur
        let mut preds: Vec<String> = (0..pq.node_count())
            .map(|u| format!("{:?}", pq.node(u).pred))
            .collect();
        preds.sort();
        preds.dedup();
        assert!(preds.len() < 10);
    }
}
