//! `SubIso`: Ullmann-style subgraph isomorphism (the paper's baseline \[43\]).
//!
//! Traditional pattern matching: an embedding is an **injective** mapping
//! `m : Vp → V` such that every data node satisfies its query node's
//! predicate and every query edge `(u, u')` maps to a **single data edge**
//! `m(u) → m(u')` whose color is admitted by the first color of the edge's
//! constraint — the paper's experimental setup "restricts the color
//! constrained by a query edge to 1, to favor SubIso".
//!
//! The search is classic backtracking over candidate lists with
//! forward-checking refinement, plus a step budget so NP-hard worst cases
//! cannot wedge the harness (the paper's Fig. 12(f) makes the same point by
//! timing out SubIso on graphs of a few hundred nodes).

use crate::pq::Pq;
use rpq_graph::{Graph, NodeId};
use std::collections::HashSet;

/// Outcome of a `SubIso` run.
#[derive(Debug, Clone)]
pub struct SubIsoResult {
    /// Distinct `(query node, data node)` pairs over all embeddings found —
    /// the `#matches` measure of §6 Exp-1.
    pub match_pairs: Vec<(usize, NodeId)>,
    /// Number of complete embeddings enumerated.
    pub embeddings: u64,
    /// False if the step budget expired before the search space was
    /// exhausted.
    pub complete: bool,
}

/// Run subgraph-isomorphism matching of `pq` on `g` with the given
/// backtracking step budget.
pub fn subiso_match(pq: &Pq, g: &Graph, max_steps: u64) -> SubIsoResult {
    let n = pq.node_count();
    if n == 0 {
        return SubIsoResult {
            match_pairs: Vec::new(),
            embeddings: 0,
            complete: true,
        };
    }
    // initial candidates: predicate matches
    let mut cands: Vec<Vec<NodeId>> = (0..n).map(|u| pq.node(u).pred.select(g)).collect();

    // Ullmann refinement: x is a candidate of u only if, for each query
    // edge (u, u'), x has an out-neighbor of admissible color among the
    // candidates of u' (and symmetrically for in-edges).
    let mut changed = true;
    while changed {
        changed = false;
        for u in 0..n {
            let before = cands[u].len();
            let kept: Vec<NodeId> = cands[u]
                .iter()
                .copied()
                .filter(|&x| {
                    pq.out_edges(u).iter().all(|&ei| {
                        let e = pq.edge(ei);
                        let color = e.regex.atoms()[0].color;
                        g.out_edges(x)
                            .iter()
                            .any(|de| color.admits(de.color) && cands[e.to].contains(&de.node))
                    }) && pq.in_edges(u).iter().all(|&ei| {
                        let e = pq.edge(ei);
                        let color = e.regex.atoms()[0].color;
                        g.in_edges(x)
                            .iter()
                            .any(|de| color.admits(de.color) && cands[e.from].contains(&de.node))
                    })
                })
                .collect();
            if kept.len() != before {
                cands[u] = kept;
                changed = true;
            }
        }
    }
    if cands.iter().any(|c| c.is_empty()) {
        return SubIsoResult {
            match_pairs: Vec::new(),
            embeddings: 0,
            complete: true,
        };
    }

    // search order: most constrained first
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&u| cands[u].len());

    let mut state = Search {
        pq,
        g,
        cands: &cands,
        order: &order,
        assignment: vec![None; n],
        used: HashSet::new(),
        pairs: HashSet::new(),
        embeddings: 0,
        steps: 0,
        max_steps,
    };
    let complete = state.dfs(0);
    let mut match_pairs: Vec<(usize, NodeId)> = state.pairs.into_iter().collect();
    match_pairs.sort_unstable();
    SubIsoResult {
        match_pairs,
        embeddings: state.embeddings,
        complete,
    }
}

struct Search<'a> {
    pq: &'a Pq,
    g: &'a Graph,
    cands: &'a [Vec<NodeId>],
    order: &'a [usize],
    assignment: Vec<Option<NodeId>>,
    used: HashSet<NodeId>,
    pairs: HashSet<(usize, NodeId)>,
    embeddings: u64,
    steps: u64,
    max_steps: u64,
}

impl Search<'_> {
    /// Returns false if the budget ran out.
    fn dfs(&mut self, depth: usize) -> bool {
        if depth == self.order.len() {
            self.embeddings += 1;
            for (u, x) in self.assignment.iter().enumerate() {
                self.pairs.insert((u, x.expect("complete assignment")));
            }
            return true;
        }
        let u = self.order[depth];
        for i in 0..self.cands[u].len() {
            let x = self.cands[u][i];
            self.steps += 1;
            if self.steps > self.max_steps {
                return false;
            }
            if self.used.contains(&x) || !self.consistent(u, x) {
                continue;
            }
            self.assignment[u] = Some(x);
            self.used.insert(x);
            let ok = self.dfs(depth + 1);
            self.used.remove(&x);
            self.assignment[u] = None;
            if !ok {
                return false;
            }
        }
        true
    }

    /// Edge consistency of `u → x` against already-assigned neighbors.
    fn consistent(&self, u: usize, x: NodeId) -> bool {
        for &ei in self.pq.out_edges(u) {
            let e = self.pq.edge(ei);
            if let Some(y) = self.assignment[e.to] {
                let color = e.regex.atoms()[0].color;
                if !self.g.has_edge_admitting(x, y, color) {
                    return false;
                }
            }
        }
        for &ei in self.pq.in_edges(u) {
            let e = self.pq.edge(ei);
            if let Some(w) = self.assignment[e.from] {
                let color = e.regex.atoms()[0].color;
                if !self.g.has_edge_admitting(w, x, color) {
                    return false;
                }
            }
        }
        // self-loop edges where from == to == u
        for &ei in self.pq.out_edges(u) {
            let e = self.pq.edge(ei);
            if e.to == u {
                let color = e.regex.atoms()[0].color;
                if !self.g.has_edge_admitting(x, x, color) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use rpq_graph::gen::essembly;
    use rpq_graph::GraphBuilder;
    use rpq_regex::FRegex;

    #[test]
    fn finds_exact_triangle() {
        // data: triangle x->y->z->x of color c; pattern: the same triangle
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        let z = b.add_node("z", []);
        let c = b.color("c");
        b.add_edge(x, y, c);
        b.add_edge(y, z, c);
        b.add_edge(z, x, c);
        let g = b.build();
        let mut pq = Pq::new();
        let a0 = pq.add_node("a", Predicate::always_true());
        let a1 = pq.add_node("b", Predicate::always_true());
        let a2 = pq.add_node("c", Predicate::always_true());
        let re = FRegex::parse("c", g.alphabet()).unwrap();
        pq.add_edge(a0, a1, re.clone());
        pq.add_edge(a1, a2, re.clone());
        pq.add_edge(a2, a0, re);
        let res = subiso_match(&pq, &g, 1 << 20);
        assert!(res.complete);
        assert_eq!(res.embeddings, 3, "three rotations of the triangle");
        assert_eq!(res.match_pairs.len(), 9);
    }

    #[test]
    fn injectivity_enforced() {
        // pattern: two nodes both -> same target shape; data has only 2 nodes
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        let c = b.color("c");
        b.add_edge(x, y, c);
        let g = b.build();
        let mut pq = Pq::new();
        let a0 = pq.add_node("a", Predicate::always_true());
        let a1 = pq.add_node("b", Predicate::always_true());
        let a2 = pq.add_node("c", Predicate::always_true());
        let re = FRegex::parse("c", g.alphabet()).unwrap();
        pq.add_edge(a0, a1, re.clone());
        pq.add_edge(a2, a1, re);
        // a0 and a2 would both need to map to x, but injectivity forbids it
        let res = subiso_match(&pq, &g, 1 << 20);
        assert!(res.complete);
        assert_eq!(res.embeddings, 0);
        assert!(res.match_pairs.is_empty());
    }

    #[test]
    fn misses_multi_hop_matches_that_pqs_find() {
        // the Q1 shape on Essembly: edge-to-edge matching cannot see the
        // fa fa fn paths, so SubIso finds only the direct fn edges C3->Bi
        // when the constraint is relaxed to one hop, and nothing for the
        // two-hop shape
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
        let res = subiso_match(&pq, &g, 1 << 20);
        assert!(res.complete);
        assert_eq!(res.embeddings, 2, "C3->B1 and C3->B2");
        let pairs: Vec<_> = res.match_pairs;
        let c3 = g.node_by_label("C3").unwrap();
        assert!(pairs.contains(&(0, c3)));
        assert_eq!(pairs.iter().filter(|(u, _)| *u == 0).count(), 1);
    }

    #[test]
    fn budget_reports_incomplete() {
        let g = rpq_graph::gen::synthetic(60, 400, 1, 1, 3);
        let mut pq = Pq::new();
        let nodes: Vec<_> = (0..5)
            .map(|i| pq.add_node(&format!("u{i}"), Predicate::always_true()))
            .collect();
        let re = FRegex::parse("c0", g.alphabet()).unwrap();
        for w in nodes.windows(2) {
            pq.add_edge(w[0], w[1], re.clone());
        }
        let res = subiso_match(&pq, &g, 10);
        assert!(!res.complete);
    }

    #[test]
    fn self_loop_pattern() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        let c = b.color("c");
        b.add_edge(x, x, c);
        b.add_edge(x, y, c);
        let g = b.build();
        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::always_true());
        pq.add_edge(a, a, FRegex::parse("c", g.alphabet()).unwrap());
        let res = subiso_match(&pq, &g, 1 << 20);
        assert_eq!(res.embeddings, 1, "only x has a self-loop");
        assert_eq!(res.match_pairs, vec![(0, x)]);
    }
}
