//! Regex-constrained reachability backends — the **one** layer both query
//! classes evaluate through.
//!
//! Both PQ evaluation algorithms (§5) and RQ evaluation (§4) reduce to one
//! primitive: *does a nonempty path from `x` to `y` spell a word of
//! `L(fe)`?* [`ProbeReach`] answers it over **any** [`DistProbe`]: the dense
//! per-color [`DistanceMatrix`](rpq_graph::DistanceMatrix) (O(1) atom
//! tests, the regime under the engine's matrix node limit), the pruned
//! 2-hop labels of `rpq_index` beyond it, and — with no index at all — the
//! graph itself ([`GraphProbe`](rpq_index::GraphProbe): breadth-first
//! sweeps). Atom
//! tests are cheap on every one of them, so callers *normalize* queries
//! (split every edge into single-atom edges with dummy nodes) and get the
//! paper's per-edge refinement; the bulk
//! [`DistProbe::sources_reaching_within`] lets a backend answer a whole
//! `Join` step at once — one target-side label aggregation, or one
//! backward sweep over the graph — on the thread that runs the query.
//!
//! §4's fallback for graphs too big for the matrix, a "distance cache using
//! hashmap as indices" memoizing pairwise bi-directional searches, is gone:
//! the graph probe answers in one sweep per `Join` step every pair the
//! cache searched for one at a time, and measured faster on every RQ and
//! PQ shape (≈ 2000× per concrete-pattern `JoinMatch` on a 5 000-node
//! graph).
//!
//! [`ProbeReach`] holds its probe as a `&dyn DistProbe`, so
//! `JoinMatch`/`SplitMatch` are compiled once and run *unchanged* over any
//! backend — the planner picks it, the algorithms stay the same. Only the
//! top-level probe call goes through the vtable; inside each backend,
//! label merges, sweeps and row scans are statically dispatched.
//!
//! The free function [`product_reach_set`] is the underlying product-space
//! search, usable on its own (the reference evaluators are built on it).

use rpq_graph::{Graph, NodeId};
use rpq_index::DistProbe;
use rpq_regex::{Atom, FRegex, Nfa, Quant};
use std::collections::VecDeque;

/// All nodes `y` such that `(x, y) ⊨ re`, by forward BFS over the
/// (node × NFA state) product. O(states · (|V| + |E|)).
pub fn product_reach_set(g: &Graph, nfa: &Nfa, x: NodeId) -> Vec<NodeId> {
    let states = nfa.state_count();
    let mut visited = vec![false; g.node_count() * states];
    let mut hit = vec![false; g.node_count()];
    let mut queue = VecDeque::new();
    visited[x.index() * states + nfa.start() as usize] = true;
    queue.push_back((x, nfa.start()));
    while let Some((u, s)) = queue.pop_front() {
        for e in g.out_edges(u) {
            for t in nfa.successors(s, e.color) {
                let slot = e.node.index() * states + t as usize;
                if !visited[slot] {
                    visited[slot] = true;
                    if nfa.is_accepting(t) {
                        hit[e.node.index()] = true;
                    }
                    queue.push_back((e.node, t));
                }
            }
        }
    }
    hit.iter()
        .enumerate()
        .filter(|(_, &h)| h)
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

/// The one reachability engine, over any [`DistProbe`] — an index, or the
/// graph itself ([`GraphProbe`](rpq_index::GraphProbe)). A refinement
/// step is one bulk probe ([`DistProbe::sources_reaching_within`] on
/// [`probe`](ProbeReach::probe)); per-source enumeration steps a frontier
/// through the atoms (the paper's dummy-node decomposition, evaluated in
/// place), so every backend serves `JoinMatch`/`SplitMatch` through one
/// code path.
///
/// The probe itself is shared immutably (`&dyn DistProbe`): one index can
/// back any number of concurrently running engines. The only per-engine
/// state is a reusable dedup scratch mask for frontier sweeps (kept
/// all-false between calls), so result assembly over thousands of sources
/// doesn't re-zero an O(|V|) buffer per source.
pub struct ProbeReach<'a> {
    probe: &'a dyn DistProbe,
    scratch: Vec<bool>,
}

impl<'a> ProbeReach<'a> {
    /// Wrap a probe: a pre-built index (a
    /// [`DistanceMatrix`](rpq_graph::DistanceMatrix),
    /// `rpq_index::HopLabels`, …) or the graph's
    /// [`GraphProbe`](rpq_index::GraphProbe).
    pub fn new(probe: &'a dyn DistProbe) -> Self {
        ProbeReach {
            probe,
            scratch: Vec::new(),
        }
    }

    /// Access the underlying index.
    pub fn probe(&self) -> &'a dyn DistProbe {
        self.probe
    }

    /// Advance a frontier through `atoms` one at a time — the paper's
    /// dummy-node decomposition evaluated in place, using bounded
    /// neighborhood scans (inverted hub lists per frontier node on hop
    /// labels; one forward sweep over the graph for the whole frontier on
    /// the matrix, the sharded regime and the graph itself — never
    /// per-pair probes against all of V). Returns the set of nodes
    /// reachable from `x` through every atom, i.e. exactly
    /// `{ y : (x, y) ⊨ atoms }` under the nonempty-path semantics
    /// ([`DistProbe::for_each_reaching_from`] is the per-atom step). The
    /// reusable scratch mask only dedups, and is restored to all-false via
    /// the nodes actually collected.
    fn frontier_sweep(&mut self, g: &Graph, x: NodeId, atoms: &[Atom]) -> Vec<NodeId> {
        if self.scratch.len() < g.node_count() {
            self.scratch.resize(g.node_count(), false);
        }
        let probe = self.probe;
        let mask = &mut self.scratch;
        let mut frontier: Vec<NodeId> = vec![x];
        for atom in atoms {
            let mut next: Vec<NodeId> = Vec::new();
            probe.for_each_reaching_from(g, &frontier, atom.color, atom.quant.max(), &mut |z| {
                if !mask[z.index()] {
                    mask[z.index()] = true;
                    next.push(z);
                }
            });
            for &z in &next {
                mask[z.index()] = false;
            }
            if next.is_empty() {
                return next;
            }
            frontier = next;
        }
        frontier
    }

    /// All `y` with `(x, y) ⊨ re` — the per-source enumeration PQ result
    /// assembly is built from, by per-atom frontier stepping (never the
    /// product space).
    pub fn reach_set(&mut self, g: &Graph, x: NodeId, re: &FRegex) -> Vec<NodeId> {
        self.frontier_sweep(g, x, re.atoms())
    }
}

/// Quantifier helper: total hop budget of a regex (`None` if unbounded),
/// used by the bounded-simulation baseline.
pub fn total_bound(re: &FRegex) -> Option<u32> {
    re.atoms().iter().try_fold(0u32, |acc, a| match a.quant {
        Quant::One => Some(acc + 1),
        Quant::AtMost(k) => Some(acc + k),
        Quant::Plus => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rpq_graph::{Color, DistanceMatrix, GraphBuilder, WILDCARD};
    use rpq_index::GraphProbe;

    /// The Essembly graph from Fig. 1.
    fn g() -> Graph {
        rpq_graph::gen::essembly()
    }

    fn re(g: &Graph, s: &str) -> FRegex {
        FRegex::parse(s, g.alphabet()).unwrap()
    }

    #[test]
    fn product_set_q1_paths() {
        let g = g();
        let q1 = re(&g, "fa^2 fn");
        let nfa = Nfa::from_regex(&q1);
        let c2 = g.node_by_label("C2").unwrap();
        let set = product_reach_set(&g, &nfa, c2);
        let b1 = g.node_by_label("B1").unwrap();
        let b2 = g.node_by_label("B2").unwrap();
        assert!(set.contains(&b1));
        assert!(set.contains(&b2));
        // C3 has no fa-then-fn continuation
        let c3 = g.node_by_label("C3").unwrap();
        let set3 = product_reach_set(&g, &nfa, c3);
        assert!(!set3.contains(&b1));
    }

    /// `x`'s reach set through `r`, sorted.
    fn sorted_reach(reach: &mut ProbeReach<'_>, g: &Graph, x: NodeId, r: &FRegex) -> Vec<NodeId> {
        let mut set = reach.reach_set(g, x, r);
        set.sort_unstable();
        set
    }

    #[test]
    fn engines_agree_with_oracle() {
        let g = g();
        let regexes = [
            re(&g, "fa"),
            re(&g, "fa^2 fn"),
            re(&g, "fa+"),
            re(&g, "fa^2 sa^2"),
            re(&g, "fn _+"),
            re(&g, "_^3"),
        ];
        let matrix = DistanceMatrix::build(&g);
        let labels = rpq_index::HopLabels::build(&g);
        let graph = GraphProbe::new(&g);
        let mut mx = ProbeReach::new(&matrix);
        let mut hop = ProbeReach::new(&labels);
        let mut search = ProbeReach::new(&graph);
        for r in &regexes {
            let nfa = Nfa::from_regex(r);
            // the labels hold concrete colors; `_` is the graph's to answer
            let labelled = r.atoms().iter().all(|a| !a.color.is_wildcard());
            for x in g.nodes() {
                let oracle = product_reach_set(&g, &nfa, x);
                let at = format!("from {} via {}", g.label(x), r.display(g.alphabet()));
                assert_eq!(sorted_reach(&mut mx, &g, x, r), oracle, "matrix {at}");
                if labelled {
                    assert_eq!(sorted_reach(&mut hop, &g, x, r), oracle, "hop labels {at}");
                }
                assert_eq!(sorted_reach(&mut search, &g, x, r), oracle, "graph {at}");
            }
        }
    }

    /// `synthetic(n, e, …)` over three colors plus one self-loop (node
    /// and color from the seed): `synthetic` never draws one.
    fn with_self_loop(seed: u64, n: usize, e: usize) -> Graph {
        let g = rpq_graph::gen::synthetic(n, e, 0, 3, seed);
        let mut b = GraphBuilder::from_graph(&g);
        let v = NodeId((seed % n as u64) as u32);
        b.insert_edge(v, v, Color((seed % 3) as u8));
        b.build()
    }

    fn arb_atom() -> impl Strategy<Value = Atom> {
        let color = prop_oneof![3 => (0u8..3).prop_map(Color), 1 => Just(WILDCARD)];
        let quant = prop_oneof![Just(Quant::One), Just(Quant::AtMost(3)), Just(Quant::Plus)];
        (color, quant).prop_map(|(c, q)| Atom::new(c, q))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A `Join` step (`sources_reaching_within` over 1 500 sources
        /// cycling over the nodes) and a frontier walk (`reach_set`) on
        /// every probe — the matrix, the hop labels on concrete colors,
        /// the graph — must agree with the matrix's point probes and row
        /// scans.
        #[test]
        fn sweeps_match_matrix_point_probes(
            seed in 0u64..10_000,
            n in 2usize..12,
            e in 0usize..40,
            target_mask in any::<u16>(),
            atoms in prop::collection::vec(arb_atom(), 1..4),
        ) {
            let g = with_self_loop(seed, n, e);
            let m = DistanceMatrix::build(&g);
            let labels = rpq_index::HopLabels::build(&g);
            let graph = GraphProbe::new(&g);
            let labelled = atoms.iter().all(|a| !a.color.is_wildcard());
            let mut probes: Vec<(&str, &dyn DistProbe)> = vec![("matrix", &m), ("graph", &graph)];
            if labelled {
                probes.push(("hop labels", &labels));
            }
            let nodes: Vec<NodeId> = g.nodes().collect();
            let sources: Vec<NodeId> = (0..1500).map(|i| nodes[i % n]).collect();
            let picked: Vec<NodeId> = g.nodes().filter(|v| target_mask >> v.index() & 1 == 1).collect();
            let re = FRegex::new(atoms.clone());
            for atom in &atoms {
                let (c, max) = (atom.color, atom.quant.max());
                for targets in [&picked, &nodes, &Vec::new()] {
                    let want: Vec<bool> = sources
                        .iter()
                        .map(|&x| targets.iter().any(|&y| m.reaches_within(&g, x, y, c, max)))
                        .collect();
                    for &(name, probe) in &probes {
                        prop_assert_eq!(
                            probe.sources_reaching_within(&g, &sources, targets, c, max),
                            want.clone(),
                            "{}: {:?} into {:?}", name, atom, targets
                        );
                    }
                }
            }
            for &x in &nodes {
                // one row scan per frontier node and atom
                let mut want = vec![x];
                for atom in &atoms {
                    let mut next = vec![false; n];
                    for &w in &want {
                        m.for_each_reaching_within(&g, w, atom.color, atom.quant.max(), &mut |z| {
                            next[z.index()] = true
                        });
                    }
                    want = nodes.iter().copied().filter(|z| next[z.index()]).collect();
                }
                for &(name, probe) in &probes {
                    let got = sorted_reach(&mut ProbeReach::new(probe), &g, x, &re);
                    prop_assert_eq!(got, want.clone(), "{}: from {:?} via {:?}", name, x, atoms);
                }
            }
        }
    }

    #[test]
    fn bulk_step_matches_pairwise_probes() {
        // one bulk step over the matrix, the hop labels and the graph must
        // agree with the matrix's pairwise probes
        let g = rpq_graph::gen::synthetic(1500, 6000, 1, 3, 13);
        let matrix = DistanceMatrix::build(&g);
        let labels = rpq_index::HopLabels::build(&g);
        let graph = GraphProbe::new(&g);
        let sources: Vec<NodeId> = g.nodes().collect();
        let targets: Vec<NodeId> = g.nodes().filter(|n| n.index() % 7 == 0).collect();
        for atom in [
            Atom::new(Color(0), Quant::One),
            Atom::new(Color(1), Quant::AtMost(3)),
            Atom::new(WILDCARD, Quant::Plus),
        ] {
            let (c, max) = (atom.color, atom.quant.max());
            let want: Vec<bool> = sources
                .iter()
                .map(|&x| {
                    targets
                        .iter()
                        .any(|&y| matrix.reaches_within(&g, x, y, c, max))
                })
                .collect();
            let got_m = matrix.sources_reaching_within(&g, &sources, &targets, c, max);
            assert_eq!(got_m, want, "matrix, {atom:?}");
            // the labels hold concrete colors only
            if !c.is_wildcard() {
                let got_h = labels.sources_reaching_within(&g, &sources, &targets, c, max);
                assert_eq!(got_h, want, "labels, {atom:?}");
            }
            let got_g = graph.sources_reaching_within(&g, &sources, &targets, c, max);
            assert_eq!(got_g, want, "graph, {atom:?}");
        }
    }

    #[test]
    fn nonempty_path_semantics_at_same_node() {
        // x -c-> x self-loop vs. isolated y
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        let c = b.color("c");
        b.add_edge(x, x, c);
        b.add_edge(x, y, c);
        let g = b.build();
        let matrix = DistanceMatrix::build(&g);
        let graph = GraphProbe::new(&g);
        let mut mx = ProbeReach::new(&matrix);
        let mut search = ProbeReach::new(&graph);
        let rc = FRegex::parse("c+", g.alphabet()).unwrap();
        assert_eq!(sorted_reach(&mut mx, &g, x, &rc), [x, y]);
        assert_eq!(sorted_reach(&mut search, &g, x, &rc), [x, y]);
        assert!(mx.reach_set(&g, y, &rc).is_empty());
        assert!(search.reach_set(&g, y, &rc).is_empty());
    }

    #[test]
    fn multi_atom_through_cycle() {
        // ring with two colors; regex must thread through the boundary
        let mut b = GraphBuilder::new();
        let ns: Vec<_> = (0..5).map(|i| b.add_node(&format!("n{i}"), [])).collect();
        let r = b.color("r");
        let s = b.color("s");
        b.add_edge(ns[0], ns[1], r);
        b.add_edge(ns[1], ns[2], r);
        b.add_edge(ns[2], ns[3], s);
        b.add_edge(ns[3], ns[4], s);
        let g = b.build();
        let matrix = DistanceMatrix::build(&g);
        let mut mx = ProbeReach::new(&matrix);
        let re = FRegex::parse("r^2 s^2", g.alphabet()).unwrap();
        // n2 needs at least one s
        assert_eq!(sorted_reach(&mut mx, &g, ns[0], &re), [ns[3], ns[4]]);
        assert_eq!(sorted_reach(&mut mx, &g, ns[1], &re), [ns[3], ns[4]]);
    }

    #[test]
    fn wildcard_atom_reach() {
        let g = g();
        let matrix = DistanceMatrix::build(&g);
        let mut mx = ProbeReach::new(&matrix);
        let d1 = g.node_by_label("D1").unwrap();
        let h1 = g.node_by_label("H1").unwrap();
        let w = FRegex::new(vec![Atom::new(WILDCARD, Quant::AtMost(2))]);
        assert!(mx.reach_set(&g, d1, &w).contains(&h1));
    }

    #[test]
    fn total_bound_helper() {
        let g = g();
        assert_eq!(total_bound(&re(&g, "fa^2 fn")), Some(3));
        assert_eq!(total_bound(&re(&g, "fa")), Some(1));
        assert_eq!(total_bound(&re(&g, "fa^2 fn+")), None);
    }
}
