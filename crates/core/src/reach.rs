//! Regex-constrained reachability backends — the **one** layer both query
//! classes evaluate through.
//!
//! Both PQ evaluation algorithms (§5) and RQ evaluation (§4) reduce to one
//! primitive: *does a nonempty path from `x` to `y` spell a word of
//! `L(fe)`?* [`ProbeReach`] answers it over **any** [`DistProbe`]: the dense
//! per-color [`DistanceMatrix`] (O(1) atom tests, the regime under the
//! engine's matrix node limit), the pruned 2-hop or sharded labels of
//! `rpq_index` beyond it, and — with no index at all — the graph itself
//! ([`GraphProbe`](rpq_index::GraphProbe): breadth-first sweeps). Atom
//! tests are cheap on every one of them, so callers *normalize* queries
//! (split every edge into single-atom edges with dummy nodes) and get the
//! paper's per-edge refinement; the bulk
//! [`ReachEngine::sources_reaching_atom`] lets a backend answer a whole
//! `Join` step at once — one target-side label aggregation, or one
//! backward sweep over the graph — and spreads large source sets over
//! worker threads ([`ProbeReach::with_workers`]).
//!
//! §4's fallback for graphs too big for the matrix, a "distance cache using
//! hashmap as indices" memoizing pairwise bi-directional searches, is gone:
//! the graph probe answers in one sweep per `Join` step every pair the
//! cache searched for one at a time, and measured faster on every RQ and
//! PQ shape (≈ 2000× per concrete-pattern `JoinMatch` on a 5 000-node
//! graph).
//!
//! [`MatrixReach`] survives as an alias for `ProbeReach<DistanceMatrix>`:
//! the unification of this layer means `JoinMatch`/`SplitMatch` run
//! *unchanged* over any backend — the planner picks it, the algorithms
//! stay the same.
//!
//! The free function [`product_reach_set`] is the underlying product-space
//! search, usable on its own (the reference evaluators are built on it).

use rpq_graph::{DistanceMatrix, Graph, NodeId};
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

/// A backend answering regex-constrained reachability tests.
///
/// `&mut self` because a backend may keep per-evaluation scratch
/// ([`ProbeReach`]'s frontier dedup mask).
pub trait ReachEngine {
    /// Should PQ algorithms normalize queries (single-atom edges with
    /// dummy nodes) before refinement? True exactly when single-atom tests
    /// are cheap index probes, i.e. for the [`ProbeReach`] backends (§5.1:
    /// "if one wants to use a distance matrix … Qp is normalized").
    fn prefers_normalized(&self) -> bool;

    /// Is there a nonempty path `x → y` whose colors spell a word in
    /// `L(re)`?
    fn reaches(&mut self, g: &Graph, x: NodeId, y: NodeId, re: &FRegex) -> bool;

    /// Atom fast path: `(x, y) ⊨ c^k / c / c+`.
    fn reaches_atom(&mut self, g: &Graph, x: NodeId, y: NodeId, atom: &Atom) -> bool {
        self.reaches(g, x, y, &FRegex::new(vec![*atom]))
    }

    /// Bulk `Join`-step primitive: `out[i]` is true iff some `y ∈ targets`
    /// satisfies `(sources[i], y) ⊨ atom`. The default short-circuits
    /// pairwise [`reaches_atom`](ReachEngine::reaches_atom) probes (right
    /// for adjacency lookups); [`ProbeReach`] overrides it so a whole
    /// refinement step is answered from label/row scans or one graph sweep
    /// instead of per-pair probes — and, with
    /// [`with_workers`](ProbeReach::with_workers), spread across threads.
    fn sources_reaching_atom(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        targets: &[NodeId],
        atom: &Atom,
    ) -> Vec<bool> {
        sources
            .iter()
            .map(|&x| targets.iter().any(|&y| self.reaches_atom(g, x, y, atom)))
            .collect()
    }

    /// All `y` with `(x, y) ⊨ re` — the per-source enumeration PQ result
    /// assembly is built from. The default runs the forward
    /// product-automaton search ([`product_reach_set`]); [`ProbeReach`]
    /// overrides it with per-atom frontier stepping, so assembly never
    /// touches the product space.
    fn reach_set(&mut self, g: &Graph, x: NodeId, re: &FRegex) -> Vec<NodeId> {
        product_reach_set(g, &Nfa::from_regex(re), x)
    }
}

/// Engine over any [`DistProbe`] — an index, or the graph itself
/// ([`GraphProbe`](rpq_index::GraphProbe)). Atom tests are direct probes;
/// multi-atom expressions fall back to frontier stepping (the paper's
/// dummy-node decomposition, evaluated in place), so every backend serves
/// `JoinMatch`/`SplitMatch` through one code path.
///
/// The probe itself is shared immutably (`&P`): one index can back any
/// number of concurrently running engines, which is what lets a single
/// large PQ be refined by several batch workers at once
/// ([`ProbeReach::with_workers`]). The only per-engine state is a reusable
/// dedup scratch mask for frontier sweeps (kept all-false between calls),
/// so result assembly over thousands of sources doesn't re-zero an
/// O(|V|) buffer per source.
#[derive(Debug)]
pub struct ProbeReach<'a, P: DistProbe + ?Sized> {
    probe: &'a P,
    workers: usize,
    scratch: Vec<bool>,
}

/// Below this many sources a bulk refinement step is not worth spreading
/// over threads (spawn cost dominates the label scans).
const PAR_SOURCE_THRESHOLD: usize = 512;

impl<'a, P: DistProbe + ?Sized> ProbeReach<'a, P> {
    /// Wrap a probe: a pre-built index (a [`DistanceMatrix`],
    /// `rpq_index::HopLabels`, …) or the graph's
    /// [`GraphProbe`](rpq_index::GraphProbe).
    pub fn new(probe: &'a P) -> Self {
        Self::with_workers(probe, 1)
    }

    /// Like [`new`](ProbeReach::new), but bulk refinement steps over large
    /// source sets are chunked across up to `workers` scoped threads
    /// (clamped to ≥ 1). Serving layers pass their idle batch-worker count
    /// here so one big PQ in a small batch still uses the whole machine.
    pub fn with_workers(probe: &'a P, workers: usize) -> Self {
        ProbeReach {
            probe,
            workers: workers.max(1),
            scratch: Vec::new(),
        }
    }

    /// Access the underlying index.
    pub fn probe(&self) -> &'a P {
        self.probe
    }
}

/// Matrix-backed engine — the historical name, now just [`ProbeReach`]
/// over the dense [`DistanceMatrix`].
pub type MatrixReach<'a> = ProbeReach<'a, DistanceMatrix>;

impl<P: DistProbe + ?Sized> ProbeReach<'_, P> {
    /// Advance a frontier through `atoms` one at a time — the paper's
    /// dummy-node decomposition evaluated in place, using bounded
    /// neighborhood scans (row scans on the matrix, inverted hub lists on
    /// labels, one sweep over the graph — never per-pair probes against
    /// all of V). Returns the set of nodes reachable from `x` through
    /// every atom, i.e. exactly `{ y : (x, y) ⊨ atoms }` under the
    /// nonempty-path semantics ([`DistProbe::for_each_reaching_from`] is
    /// the per-atom step). Each step costs scan-output work, not O(|V|):
    /// the reusable scratch mask only dedups, and is restored to all-false
    /// via the nodes actually collected.
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
}

impl<P: DistProbe + Sync + ?Sized> ReachEngine for ProbeReach<'_, P> {
    fn prefers_normalized(&self) -> bool {
        true
    }

    fn reaches(&mut self, g: &Graph, x: NodeId, y: NodeId, re: &FRegex) -> bool {
        let atoms = re.atoms();
        if atoms.len() == 1 {
            return self.reaches_atom(g, x, y, &atoms[0]);
        }
        // sweep through all but the last atom, then one bulk test
        let frontier = self.frontier_sweep(g, x, &atoms[..atoms.len() - 1]);
        if frontier.is_empty() {
            return false;
        }
        let last = &atoms[atoms.len() - 1];
        self.probe
            .sources_reaching_within(g, &frontier, &[y], last.color, last.quant.max())
            .iter()
            .any(|&b| b)
    }

    fn reach_set(&mut self, g: &Graph, x: NodeId, re: &FRegex) -> Vec<NodeId> {
        self.frontier_sweep(g, x, re.atoms())
    }

    fn reaches_atom(&mut self, g: &Graph, x: NodeId, y: NodeId, atom: &Atom) -> bool {
        self.probe
            .reaches_within(g, x, y, atom.color, atom.quant.max())
    }

    fn sources_reaching_atom(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        targets: &[NodeId],
        atom: &Atom,
    ) -> Vec<bool> {
        let max_len = atom.quant.max();
        let probe = self.probe;
        // chunk the source side across scoped threads. Each chunk redoes
        // the backend's target-side aggregation, so a chunk must carry
        // enough sources to amortize it: at least the flat threshold, and
        // at least a quarter of the target count (the fold is linear in
        // targets) — this bounds the redundant aggregation work at a
        // small constant factor of one fold however many workers run.
        let min_chunk = PAR_SOURCE_THRESHOLD.max(targets.len() / 4);
        let workers = self.workers.min(sources.len().div_ceil(min_chunk));
        if workers <= 1 {
            return probe.sources_reaching_within(g, sources, targets, atom.color, max_len);
        }
        let chunk = sources.len().div_ceil(workers);
        let mut out = Vec::with_capacity(sources.len());
        std::thread::scope(|s| {
            let handles: Vec<_> = sources
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        probe.sources_reaching_within(g, part, targets, atom.color, max_len)
                    })
                })
                .collect();
            for h in handles {
                out.extend(h.join().expect("refinement worker panicked"));
            }
        });
        out
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
    use rpq_graph::{Color, GraphBuilder, WILDCARD};
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
        let mut mx = MatrixReach::new(&matrix);
        let mut hop = ProbeReach::new(&labels);
        let mut search = ProbeReach::new(&graph);
        for r in &regexes {
            let nfa = Nfa::from_regex(r);
            // the labels hold concrete colors; `_` is the graph's to answer
            let labelled = r.atoms().iter().all(|a| !a.color.is_wildcard());
            for x in g.nodes() {
                let reached = product_reach_set(&g, &nfa, x);
                assert_eq!(search.reach_set(&g, x, r).len(), reached.len(), "{r:?}");
                for y in g.nodes() {
                    let oracle = reached.contains(&y);
                    assert_eq!(
                        mx.reaches(&g, x, y, r),
                        oracle,
                        "matrix {}->{} via {}",
                        g.label(x),
                        g.label(y),
                        r.display(g.alphabet())
                    );
                    if labelled {
                        assert_eq!(
                            hop.reaches(&g, x, y, r),
                            oracle,
                            "hop labels {x:?}->{y:?} {r:?}"
                        );
                    }
                    assert_eq!(search.reaches(&g, x, y, r), oracle, "graph {x:?}->{y:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_bulk_matches_sequential() {
        // the chunked multi-worker path must agree with one-shot bulk and
        // with pairwise probes, on both index backends and the graph
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
            let want: Vec<bool> = sources
                .iter()
                .map(|&x| {
                    targets
                        .iter()
                        .any(|&y| MatrixReach::new(&matrix).reaches_atom(&g, x, y, &atom))
                })
                .collect();
            for workers in [1usize, 4] {
                let got_m = ProbeReach::with_workers(&matrix, workers)
                    .sources_reaching_atom(&g, &sources, &targets, &atom);
                assert_eq!(got_m, want, "matrix, {workers} workers, {atom:?}");
                // the labels hold concrete colors only
                if !atom.color.is_wildcard() {
                    let got_h = ProbeReach::with_workers(&labels, workers)
                        .sources_reaching_atom(&g, &sources, &targets, &atom);
                    assert_eq!(got_h, want, "labels, {workers} workers, {atom:?}");
                }
                let got_g = ProbeReach::with_workers(&graph, workers)
                    .sources_reaching_atom(&g, &sources, &targets, &atom);
                assert_eq!(got_g, want, "graph, {workers} workers, {atom:?}");
            }
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
        let mut mx = MatrixReach::new(&matrix);
        let mut search = ProbeReach::new(&graph);
        let rc = FRegex::parse("c+", g.alphabet()).unwrap();
        assert!(mx.reaches(&g, x, x, &rc));
        assert!(search.reaches(&g, x, x, &rc));
        assert!(!mx.reaches(&g, y, y, &rc));
        assert!(!search.reaches(&g, y, y, &rc));
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
        let mut mx = MatrixReach::new(&matrix);
        let re = FRegex::parse("r^2 s^2", g.alphabet()).unwrap();
        assert!(mx.reaches(&g, ns[0], ns[4], &re));
        assert!(mx.reaches(&g, ns[0], ns[3], &re));
        assert!(!mx.reaches(&g, ns[0], ns[2], &re)); // needs at least one s
        assert!(mx.reaches(&g, ns[1], ns[3], &re));
    }

    #[test]
    fn wildcard_atom_reach() {
        let g = g();
        let matrix = DistanceMatrix::build(&g);
        let mut mx = MatrixReach::new(&matrix);
        let d1 = g.node_by_label("D1").unwrap();
        let h1 = g.node_by_label("H1").unwrap();
        let w = FRegex::new(vec![Atom::new(WILDCARD, Quant::AtMost(2))]);
        assert!(mx.reaches(&g, d1, h1, &w));
    }

    #[test]
    fn total_bound_helper() {
        let g = g();
        assert_eq!(total_bound(&re(&g, "fa^2 fn")), Some(3));
        assert_eq!(total_bound(&re(&g, "fa")), Some(1));
        assert_eq!(total_bound(&re(&g, "fa^2 fn+")), None);
    }
}
