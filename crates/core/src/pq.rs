//! Graph pattern queries (PQs) and their revised-simulation semantics (§2).
//!
//! A PQ is a directed graph whose nodes carry predicates and whose edges
//! carry F expressions — i.e. every edge is an embedded RQ. The result
//! `Qp(G)` is the **maximum** set `{(e, Se)}` such that every pair in `Se`
//! is an RQ match of `e`, every matched node can extend along *all* the
//! out-edges of its query node (recursively), and no `Se` is empty.
//! Prop. 2.1 shows this maximum is unique; operationally it is the greatest
//! fixpoint computed by [`Pq::eval_naive`] (the reference implementation
//! the fast algorithms of §5 are tested against).

use crate::predicate::Predicate;
use crate::reach::product_reach_set;
use rpq_graph::{Graph, NodeId};
use rpq_regex::{FRegex, Nfa};

/// A pattern node: predicate plus a debug label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PqNode {
    /// Display label (no semantics).
    pub label: String,
    /// Search condition `f_v(u)`.
    pub pred: Predicate,
}

/// A pattern edge `(from, to)` constrained by `regex`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PqEdge {
    /// Source query-node index.
    pub from: usize,
    /// Target query-node index.
    pub to: usize,
    /// The embedded RQ's edge constraint.
    pub regex: FRegex,
}

/// A graph pattern query `Qp = (Vp, Ep, f_v, f_e)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pq {
    nodes: Vec<PqNode>,
    edges: Vec<PqEdge>,
    out: Vec<Vec<usize>>, // out-edge indices per node
    inc: Vec<Vec<usize>>, // in-edge indices per node
}

impl Pq {
    /// Empty pattern.
    pub fn new() -> Self {
        Pq::default()
    }

    /// Add a query node; returns its index.
    pub fn add_node(&mut self, label: &str, pred: Predicate) -> usize {
        self.nodes.push(PqNode {
            label: label.to_owned(),
            pred,
        });
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Add a query edge; returns its index.
    ///
    /// # Panics
    /// If `from`/`to` are out of range.
    pub fn add_edge(&mut self, from: usize, to: usize, regex: FRegex) -> usize {
        assert!(from < self.nodes.len() && to < self.nodes.len());
        let id = self.edges.len();
        self.edges.push(PqEdge { from, to, regex });
        self.out[from].push(id);
        self.inc[to].push(id);
        id
    }

    /// Number of query nodes `|Vp|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of query edges `|Ep|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// `|Q| = |Vp| + |Ep|`, the minimization metric of §3.2.
    pub fn size(&self) -> usize {
        self.nodes.len() + self.edges.len()
    }

    /// The query node at `u`.
    pub fn node(&self, u: usize) -> &PqNode {
        &self.nodes[u]
    }

    /// The query edge at `e`.
    pub fn edge(&self, e: usize) -> &PqEdge {
        &self.edges[e]
    }

    /// All query nodes.
    pub fn nodes(&self) -> &[PqNode] {
        &self.nodes
    }

    /// All query edges.
    pub fn edges(&self) -> &[PqEdge] {
        &self.edges
    }

    /// Indices of edges leaving `u`.
    pub fn out_edges(&self, u: usize) -> &[usize] {
        &self.out[u]
    }

    /// Indices of edges entering `u`.
    pub fn in_edges(&self, u: usize) -> &[usize] {
        &self.inc[u]
    }

    /// Does the query graph contain a directed cycle (self-loops count)?
    ///
    /// A *shape signal* for the engine's PQ planner: §5.2 reports the
    /// split-based algorithm ahead of the join-based one on larger and
    /// cyclic patterns (cyclic components force `JoinMatch` to iterate a
    /// whole SCC to its fixpoint, while `SplitMatch`'s partition blocks
    /// shrink monotonically across the pattern). O(|Vp| + |Ep|), via the
    /// same SCC condensation the refinement loop orders components with:
    /// cyclic iff some component has ≥ 2 nodes or some edge is a self-loop.
    pub fn has_cycle(&self) -> bool {
        let (_, comps) = rpq_graph::algo::condensation(self.nodes.len(), |u| {
            self.out[u]
                .iter()
                .map(|&e| self.edges[e].to)
                .collect::<Vec<_>>()
                .into_iter()
        });
        comps.iter().any(|c| c.len() > 1) || self.edges.iter().any(|e| e.from == e.to)
    }

    /// Single-edge PQ from an RQ — "RQs are a special case of PQs" (§2).
    pub fn from_rq(rq: &crate::rq::Rq) -> Self {
        let mut pq = Pq::new();
        let a = pq.add_node("u1", rq.from.clone());
        let b = pq.add_node("u2", rq.to.clone());
        pq.add_edge(a, b, rq.regex.clone());
        pq
    }

    /// The dummy-node rewrite of §4/§5.1: every multi-atom edge is split
    /// into a chain of single-atom edges through fresh unconstrained nodes.
    /// Original node indices are preserved; dummies are appended.
    pub fn normalize(&self) -> Pq {
        let mut out = Pq::new();
        for n in &self.nodes {
            out.add_node(&n.label, n.pred.clone());
        }
        for e in &self.edges {
            let atoms = e.regex.atoms();
            let mut cur = e.from;
            for (i, atom) in atoms.iter().enumerate() {
                let tgt = if i + 1 == atoms.len() {
                    e.to
                } else {
                    out.add_node(&format!("dummy({},{i})", e.from), Predicate::always_true())
                };
                out.add_edge(cur, tgt, FRegex::new(vec![*atom]));
                cur = tgt;
            }
        }
        out
    }

    /// Reference semantics: the greatest fixpoint, computed naively.
    ///
    /// Exponentially simpler than `JoinMatch`/`SplitMatch` but asymptotically
    /// slower; used as the test oracle and for small graphs. Predicates are
    /// tested row by row ([`Predicate::matches`]), not by column scan.
    pub fn eval_naive(&self, g: &Graph) -> PqResult {
        // candidate matches per query node
        let mut mats: Vec<Vec<NodeId>> = (self.nodes.iter())
            .map(|n| g.nodes().filter(|&v| n.pred.matches(g.attrs(v))).collect())
            .collect();
        // reach sets per (edge, source node), computed once
        let nfas: Vec<Nfa> = self
            .edges
            .iter()
            .map(|e| Nfa::from_regex(&e.regex))
            .collect();
        let mut reach: Vec<std::collections::HashMap<NodeId, Vec<NodeId>>> =
            vec![std::collections::HashMap::new(); self.edges.len()];

        loop {
            let mut changed = false;
            for (ei, e) in self.edges.iter().enumerate() {
                let target_mask = {
                    let mut mask = vec![false; g.node_count()];
                    for &y in &mats[e.to] {
                        mask[y.index()] = true;
                    }
                    mask
                };
                let (from, _) = (e.from, e.to);
                let mut keep = Vec::with_capacity(mats[from].len());
                for &x in &mats[from] {
                    let targets = reach[ei]
                        .entry(x)
                        .or_insert_with(|| product_reach_set(g, &nfas[ei], x));
                    if targets.iter().any(|&y| target_mask[y.index()]) {
                        keep.push(x);
                    } else {
                        changed = true;
                    }
                }
                mats[from] = keep;
            }
            if !changed {
                break;
            }
        }

        if mats.iter().any(|m| m.is_empty()) {
            return PqResult::empty(self);
        }
        // assemble Se per edge
        let mut edge_matches = Vec::with_capacity(self.edges.len());
        for (ei, e) in self.edges.iter().enumerate() {
            let target_mask = {
                let mut mask = vec![false; g.node_count()];
                for &y in &mats[e.to] {
                    mask[y.index()] = true;
                }
                mask
            };
            let mut pairs = Vec::new();
            for &x in &mats[e.from] {
                let targets = reach[ei]
                    .entry(x)
                    .or_insert_with(|| product_reach_set(g, &nfas[ei], x));
                pairs.extend(
                    targets
                        .iter()
                        .filter(|y| target_mask[y.index()])
                        .map(|&y| (x, y)),
                );
            }
            pairs.sort_unstable();
            edge_matches.push(pairs);
        }
        for m in &mut mats {
            m.sort_unstable();
        }
        PqResult {
            node_matches: mats,
            edge_matches,
        }
    }
}

/// Result of a PQ: per-edge match sets `Se` plus the per-node match sets
/// they induce. An empty result (condition (3) of the semantics) has all
/// sets empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PqResult {
    pub(crate) node_matches: Vec<Vec<NodeId>>,
    pub(crate) edge_matches: Vec<Vec<(NodeId, NodeId)>>,
}

impl PqResult {
    /// The all-empty result for `pq`.
    pub fn empty(pq: &Pq) -> Self {
        PqResult {
            node_matches: vec![Vec::new(); pq.node_count()],
            edge_matches: vec![Vec::new(); pq.edge_count()],
        }
    }

    /// A result from its match sets, as a wire decoder or a codec test
    /// holds them: `node_matches[u]` per query node, `edge_matches[e]`
    /// (`Se`) per query edge, each sorted.
    pub fn from_parts(
        node_matches: Vec<Vec<NodeId>>,
        edge_matches: Vec<Vec<(NodeId, NodeId)>>,
    ) -> Self {
        PqResult {
            node_matches,
            edge_matches,
        }
    }

    /// Number of query nodes this result covers.
    pub fn node_count(&self) -> usize {
        self.node_matches.len()
    }

    /// Number of query edges this result covers.
    pub fn edge_count(&self) -> usize {
        self.edge_matches.len()
    }

    /// Matches of query node `u`, sorted.
    pub fn node_matches(&self, u: usize) -> &[NodeId] {
        &self.node_matches[u]
    }

    /// Matches `Se` of query edge `e`, sorted.
    pub fn edge_matches(&self, e: usize) -> &[(NodeId, NodeId)] {
        &self.edge_matches[e]
    }

    /// `Qp(G) = ∅`?
    pub fn is_empty(&self) -> bool {
        self.edge_matches.iter().any(|m| m.is_empty())
            || self.node_matches.iter().any(|m| m.is_empty())
    }

    /// The paper's result size `Σ_e |Se|`.
    pub fn size(&self) -> usize {
        self.edge_matches.iter().map(Vec::len).sum()
    }

    /// Distinct `(query node, data node)` match pairs — the `#matches`
    /// measure of §6 Exp-1.
    pub fn match_pair_count(&self) -> usize {
        self.node_matches.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::gen::essembly;

    /// The paper's Q2 (Fig. 1, Example 2.3).
    pub(crate) fn q2(g: &Graph) -> Pq {
        let mut pq = Pq::new();
        let b = pq.add_node(
            "B",
            Predicate::parse("job = \"doctor\" && dsp = \"cloning\"", g.schema()).unwrap(),
        );
        let c = pq.add_node(
            "C",
            Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap(),
        );
        let d = pq.add_node(
            "D",
            Predicate::parse("uid = \"Alice001\"", g.schema()).unwrap(),
        );
        let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
        pq.add_edge(b, c, re("fn")); // edge 0: (B,C)
        pq.add_edge(c, b, re("fn")); // edge 1: (C,B)
        pq.add_edge(c, c, re("fa+")); // edge 2: (C,C)
        pq.add_edge(b, d, re("fn")); // edge 3: (B,D)
        pq.add_edge(c, d, re("fa^2 sa^2")); // edge 4: (C,D)
        pq
    }

    /// Example 2.3's result table, exactly.
    #[test]
    fn example_2_3_naive() {
        let g = essembly();
        let pq = q2(&g);
        let res = pq.eval_naive(&g);
        let n = |l: &str| g.node_by_label(l).unwrap();
        assert!(!res.is_empty());
        assert_eq!(
            res.edge_matches(0),
            &[(n("B1"), n("C3")), (n("B2"), n("C3"))],
            "(B,C)"
        );
        assert_eq!(
            res.edge_matches(1),
            &[(n("C3"), n("B1")), (n("C3"), n("B2"))],
            "(C,B)"
        );
        assert_eq!(res.edge_matches(2), &[(n("C3"), n("C3"))], "(C,C)");
        assert_eq!(
            res.edge_matches(3),
            &[(n("B1"), n("D1")), (n("B2"), n("D1"))],
            "(B,D)"
        );
        assert_eq!(res.edge_matches(4), &[(n("C3"), n("D1"))], "(C,D)");
        // node matches: B → {B1,B2}, C → {C3}, D → {D1}
        assert_eq!(res.node_matches(0), &[n("B1"), n("B2")]);
        assert_eq!(res.node_matches(1), &[n("C3")]);
        assert_eq!(res.node_matches(2), &[n("D1")]);
        assert_eq!(res.size(), 8);
        assert_eq!(res.match_pair_count(), 4);
    }

    #[test]
    fn unsatisfiable_edge_empties_result() {
        let g = essembly();
        let mut pq = q2(&g);
        // add an edge D --sn--> B: D1's only sn-successor is H1 (physician)
        let re = FRegex::parse("sn", g.alphabet()).unwrap();
        pq.add_edge(2, 0, re);
        let res = pq.eval_naive(&g);
        assert!(res.is_empty());
        assert_eq!(res.size(), 0);
    }

    #[test]
    fn normalize_shapes() {
        let g = essembly();
        let pq = q2(&g);
        let norm = pq.normalize();
        // edges 0,1,3 single-atom stay; edge 2 single-atom (fa+);
        // edge 4 (fa^2 sa^2) splits into 2 atoms with 1 dummy
        assert_eq!(norm.node_count(), pq.node_count() + 1);
        assert_eq!(norm.edge_count(), pq.edge_count() + 1);
        assert!(norm.edges().iter().all(|e| e.regex.len() == 1));
        // original node indices preserved
        for u in 0..pq.node_count() {
            assert_eq!(norm.node(u).pred, pq.node(u).pred);
        }
    }

    #[test]
    fn from_rq_roundtrip() {
        let g = essembly();
        let rq = crate::rq::Rq::new(
            Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
            FRegex::parse("fa^2 fn", g.alphabet()).unwrap(),
        );
        let pq = Pq::from_rq(&rq);
        assert_eq!(pq.node_count(), 2);
        assert_eq!(pq.edge_count(), 1);
        let res = pq.eval_naive(&g);
        let rq_pairs = rq.eval_bfs(&g).pairs();
        assert_eq!(res.edge_matches(0), rq_pairs.as_slice());
    }

    #[test]
    fn cycle_detection() {
        let g = essembly();
        // q2 has the B↔C 2-cycle and the C self-loop
        assert!(q2(&g).has_cycle());
        // a pure chain is acyclic
        let mut chain = Pq::new();
        let a = chain.add_node("a", Predicate::always_true());
        let b = chain.add_node("b", Predicate::always_true());
        let c = chain.add_node("c", Predicate::always_true());
        let re = FRegex::parse("fa", g.alphabet()).unwrap();
        chain.add_edge(a, b, re.clone());
        chain.add_edge(b, c, re.clone());
        assert!(!chain.has_cycle());
        // a self-loop alone is a cycle
        chain.add_edge(c, c, re);
        assert!(chain.has_cycle());
        assert!(!Pq::new().has_cycle());
    }

    #[test]
    fn single_node_pattern() {
        let g = essembly();
        let mut pq = Pq::new();
        pq.add_node(
            "B",
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        );
        let res = pq.eval_naive(&g);
        assert_eq!(res.node_matches(0).len(), 2);
        assert!(!res.is_empty());
    }
}
