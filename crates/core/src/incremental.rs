//! Incremental PQ evaluation under graph updates.
//!
//! §7 of the paper singles this out: *"In practice data graphs are
//! frequently modified, and it is too costly to re-evaluate PQs in
//! cubic-time … every time the graphs are updated. This suggests that we
//! evaluate the queries once, and incrementally compute query answers in
//! response to changes to the graphs."*
//!
//! This module implements that workflow for edge insertions and deletions.
//! The key structural facts it exploits follow from the PQ semantics being
//! a **greatest fixpoint** of a refinement operator that is monotone in
//! the data graph:
//!
//! * inserting a data edge can only **grow** match sets (new witnesses may
//!   appear, none disappear), and
//! * deleting a data edge can only **shrink** them.
//!
//! A greatest fixpoint restarted from any superset of the answer
//! converges to it, so evaluation and maintenance are **one loop** —
//! [`join_match::refine_from`](crate::join_match), JoinMatch's SCC-ordered
//! worklist — and differ only in the seed: the initial evaluation and
//! every batch containing an insertion seed with the *predicate-eligible*
//! nodes (a fresh evaluation is maintenance from nothing), a delete-only
//! batch seeds with the *standing* match sets, which is where the savings
//! come from; the worst case remains a full re-evaluation, as the paper
//! anticipates ("nontrivial to … minimize unnecessary recomputation").
//! The loop refines the *normalized* pattern over the graph itself
//! ([`GraphProbe`]): each `Join` step is one backward sweep, and there is
//! no reachability cache for an update to make stale.
//!
//! The data graph is wrapped in [`DynamicGraph`], an overlay that applies
//! edge insertions/deletions by rebuilding the CSR image (the substrate is
//! immutable by design); the matcher keeps its own state across updates.

use crate::join_match::{refine, refine_from};
use crate::pq::{Pq, PqResult};
use crate::predicate::selected;
use crate::reach::ProbeReach;
use crate::rq::Rq;
use rpq_graph::{Color, Graph, GraphBuilder, NodeId};
use rpq_index::{DistProbe, GraphProbe};
use rpq_regex::FRegex;
use std::sync::Arc;

/// A data graph that accepts edge insertions and deletions.
///
/// Updates rebuild the immutable CSR image — O(|V| + |E| + updates) per
/// batch (the builder's edge index makes each update O(1)), which keeps the
/// traversal-side representation optimal. Batch several updates with
/// [`DynamicGraph::apply`] to pay the rebuild once.
///
/// The image is held behind an [`Arc`] so serving layers can publish each
/// version as an immutable snapshot without copying the graph: readers
/// holding a [`DynamicGraph::graph_arc`] clone keep a consistent view while
/// later batches replace the current image.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    graph: Arc<Graph>,
    version: u64,
}

/// One graph update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Update {
    /// Insert edge `(from, to, color)` (no-op if it already exists).
    Insert(NodeId, NodeId, Color),
    /// Delete edge `(from, to, color)` (no-op if absent).
    Delete(NodeId, NodeId, Color),
}

impl DynamicGraph {
    /// Wrap an existing graph.
    pub fn new(graph: Graph) -> Self {
        Self::from_arc(Arc::new(graph))
    }

    /// Wrap an already-shared graph (no copy).
    pub fn from_arc(graph: Arc<Graph>) -> Self {
        DynamicGraph { graph, version: 0 }
    }

    /// The current immutable image.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// A shared handle to the current image — this is what snapshot-based
    /// serving publishes to readers.
    pub fn graph_arc(&self) -> Arc<Graph> {
        Arc::clone(&self.graph)
    }

    /// Monotonically increasing update-batch counter.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Apply a batch of `U` updates, rebuilding the CSR image once:
    /// O(|V| + |E| + U) total, via the builder's O(1) edge index (a naive
    /// edge-list scan per update would be O(U·|E|)).
    /// Returns the updates that actually changed the graph.
    pub fn apply(&mut self, updates: &[Update]) -> Vec<Update> {
        let mut b = GraphBuilder::from_graph(&self.graph);
        let mut effective = Vec::new();
        for &u in updates {
            let changed = match u {
                Update::Insert(x, y, c) => b.insert_edge(x, y, c),
                Update::Delete(x, y, c) => b.remove_edge(x, y, c),
            };
            if changed {
                effective.push(u);
            }
        }
        if effective.is_empty() {
            return effective;
        }
        self.graph = Arc::new(b.build());
        self.version += 1;
        effective
    }
}

/// Standing PQ matcher: evaluate once, then maintain the answer across
/// graph updates.
pub struct IncrementalMatcher {
    pq: Pq,
    /// `pq` normalized: the pattern the refinement runs on
    work: Pq,
    /// current match sets per node of `work` (sorted): `pq`'s nodes first,
    /// then the dummies
    mats: Vec<Vec<NodeId>>,
}

impl IncrementalMatcher {
    /// Evaluate `pq` on the current graph and set up maintenance state.
    pub fn new(pq: Pq, g: &DynamicGraph) -> Self {
        let work = pq.normalize();
        let mats = refine(
            &work,
            g.graph(),
            &mut ProbeReach::new(&GraphProbe::new(g.graph())),
        )
        .unwrap_or_else(|| vec![Vec::new(); work.node_count()]);
        IncrementalMatcher { pq, work, mats }
    }

    /// The query being maintained.
    pub fn pq(&self) -> &Pq {
        &self.pq
    }

    /// Current matches of query node `u`.
    pub fn matches(&self, u: usize) -> &[NodeId] {
        &self.mats[u]
    }

    /// The standing match sets, indexed by query node (the normalized
    /// pattern's dummies left out). Snapshot-based serving copies these
    /// out per published version and assembles the full per-edge result
    /// lazily via [`join_match::assemble`](crate::join_match::assemble).
    pub fn match_sets(&self) -> &[Vec<NodeId>] {
        &self.mats[..self.pq.node_count()]
    }

    /// True if the standing answer is empty.
    pub fn is_empty(&self) -> bool {
        self.mats.iter().any(|m| m.is_empty())
    }

    /// Maintain the answer after `g` has applied `effective` updates: one
    /// `join_match::refine_from` call, seeded by the kind of batch.
    /// Insertions can only grow match sets, so a batch with any insert
    /// restarts from the predicate-eligible nodes (a node excluded by an
    /// earlier refinement may now have a witness).
    /// Deletions can only shrink them, so a delete-only batch restarts
    /// from the standing sets — and an empty standing answer stays empty
    /// (the seeded loop returns at once on an empty seed).
    pub fn on_update(&mut self, g: &DynamicGraph, effective: &[Update]) {
        if effective.is_empty() {
            return;
        }
        let graph = GraphProbe::new(g.graph());
        let reach = &mut ProbeReach::new(&graph);
        let refined = if effective.iter().any(|u| matches!(u, Update::Insert(..))) {
            refine(&self.work, g.graph(), reach)
        } else {
            let standing = std::mem::take(&mut self.mats);
            refine_from(&self.work, g.graph(), reach, standing)
        };
        self.mats = refined.unwrap_or_else(|| vec![Vec::new(); self.work.node_count()]);
    }

    /// Assemble the full per-edge result from the standing match sets.
    pub fn result(&self, g: &DynamicGraph) -> PqResult {
        if self.is_empty() {
            return PqResult::empty(&self.pq);
        }
        crate::join_match::assemble(&self.pq, g.graph(), self.match_sets())
    }

    /// Reference check: a full from-scratch evaluation (tests compare the
    /// incremental answer against this).
    pub fn full_reeval(&self, g: &DynamicGraph) -> PqResult {
        let graph = GraphProbe::new(g.graph());
        crate::join_match::JoinMatch::eval(&self.pq, g.graph(), &mut ProbeReach::new(&graph))
    }
}

/// One logged edge change, `(tail, head, colour)`: an insertion or a
/// deletion alike — the cone below needs only where the edge was.
pub type EdgeChange = (NodeId, NodeId, Color);

/// The nodes whose reach set under `regex` the edge `changes` can alter,
/// ascending: every node with a path of at most `max_word_len − 1` edges
/// (any length when `regex` has a `+`), each of a colour the regex admits,
/// to the **tail** of a change whose colour it admits — the tails
/// themselves included. One backward breadth-first sweep from all tails
/// at once, restricted to the regex's colours (all of them when it has
/// `_`), on the current graph.
///
/// Why this is sound: take any path of length ≤ L = `max_word_len` that
/// spells a word of `L(regex)` in one of the two graphs but not in the
/// other. Its first changed edge `(u, v)` is preceded by unchanged,
/// admitted edges, fewer than L of them; that prefix exists in both
/// graphs, so the path's source lies in the cone from `u`. A source
/// outside the cone therefore has the same reach set in both graphs.
pub fn rq_source_cone(g: &Graph, regex: &FRegex, changes: &[EdgeChange]) -> Vec<NodeId> {
    let admits = |c: Color| regex.atoms().iter().any(|a| a.color.admits(c));
    let admitted: Vec<bool> = (0..=u8::MAX).map(|c| admits(Color(c))).collect();
    // the first changed edge of a path sits behind at most L − 1 edges
    let cap = regex.max_word_len().map_or(u64::MAX, |l| l - 1);
    let mut seen = vec![false; g.node_count()];
    let mut cone = Vec::new();
    for &(u, _, c) in changes {
        if admitted[c.0 as usize] && !seen[u.index()] {
            seen[u.index()] = true;
            cone.push(u);
        }
    }
    // level by level: `cone[level..]` is the frontier at distance `depth`
    let (mut level, mut depth) = (0, 0);
    while level < cone.len() && depth < cap {
        let frontier = level..cone.len();
        level = cone.len();
        for i in frontier {
            for e in g.in_edges(cone[i]) {
                if admitted[e.color.0 as usize] && !seen[e.node.index()] {
                    seen[e.node.index()] = true;
                    cone.push(e.node);
                }
            }
        }
        depth += 1;
    }
    cone.sort_unstable();
    cone
}

/// `rq`'s answer on `g`, from its answer `old` (sorted, duplicate-free)
/// on an earlier version that differs from `g` by at most the edge
/// `changes`: the rows of the candidate sources in
/// [`rq_source_cone`] are re-evaluated through `probe`
/// ([`Rq::eval_with_dist_from`]) and spliced into the rows of every
/// other source, which cannot have changed. Edge updates never change
/// node attributes, so the candidate sources are the same on both
/// versions.
///
/// `None` when the cone holds more than half of the candidate sources: a
/// full [`Rq::eval_with_dist`] is then cheaper than the patch.
pub fn patch_reach_set(
    g: &Graph,
    rq: &Rq,
    probe: &dyn DistProbe,
    old: &[(NodeId, NodeId)],
    changes: &[EdgeChange],
) -> Option<Vec<(NodeId, NodeId)>> {
    let sources = rq.from.select_bits(g);
    let mut cone = rq_source_cone(g, &rq.regex, changes);
    cone.retain(|&v| selected(&sources, v));
    if cone.len() * 2 > sources.iter().map(|w| w.count_ones() as usize).sum() {
        return None;
    }
    let fresh = rq.eval_with_dist_from(g, probe, cone.clone()).into_pairs();
    // both sides ascend by source, and their sources are disjoint once the
    // cone's old rows are dropped
    let mut out = Vec::with_capacity(old.len() + fresh.len());
    let mut fresh = fresh.into_iter().peekable();
    for row in old.chunk_by(|a, b| a.0 == b.0) {
        let x = row[0].0;
        while let Some(p) = fresh.next_if(|p| p.0 < x) {
            out.push(p);
        }
        if cone.binary_search(&x).is_err() {
            out.extend_from_slice(row);
        }
    }
    out.extend(fresh);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use rpq_graph::gen::{essembly, synthetic};
    use rpq_regex::FRegex;

    fn q2(g: &Graph) -> Pq {
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
        pq.add_edge(b, c, re("fn"));
        pq.add_edge(c, b, re("fn"));
        pq.add_edge(c, c, re("fa+"));
        pq.add_edge(b, d, re("fn"));
        pq.add_edge(c, d, re("fa^2 sa^2"));
        pq
    }

    #[test]
    fn dynamic_graph_apply() {
        let mut dg = DynamicGraph::new(essembly());
        let c1 = dg.graph().node_by_label("C1").unwrap();
        let b1 = dg.graph().node_by_label("B1").unwrap();
        let fnc = dg.graph().alphabet().get("fn").unwrap();
        assert!(!dg.graph().has_edge(c1, b1, fnc));
        let before = dg.graph_arc();
        let eff = dg.apply(&[Update::Insert(c1, b1, fnc)]);
        assert_eq!(eff.len(), 1);
        assert!(dg.graph().has_edge(c1, b1, fnc));
        assert_eq!(dg.version(), 1);
        // an edge write shares the attribute columns instead of rebuilding them
        assert!(std::ptr::eq(before.columns(), dg.graph().columns()));
        // duplicate insert is a no-op
        assert!(dg.apply(&[Update::Insert(c1, b1, fnc)]).is_empty());
        assert_eq!(dg.version(), 1);
        // delete restores the original
        let eff = dg.apply(&[Update::Delete(c1, b1, fnc)]);
        assert_eq!(eff.len(), 1);
        assert!(!dg.graph().has_edge(c1, b1, fnc));
        // attributes and labels survive rebuilds
        let job = dg.graph().schema().get("job").unwrap();
        assert_eq!(
            dg.graph().attrs(b1).get(job),
            Some(&rpq_graph::AttrValue::Str("doctor".into()))
        );
    }

    #[test]
    fn large_batch_apply_matches_reference_set() {
        // 1k-update batch on a 10k-edge graph: the edge-indexed apply must
        // agree with a reference set simulation (the perf side — O(U + E),
        // not O(U·E) — is the ledger's `graph.apply_us`)
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::HashSet;
        let mut rng = StdRng::seed_from_u64(7);
        let g = synthetic(2000, 10_000, 1, 3, 17);
        let mut reference: HashSet<(NodeId, NodeId, Color)> = g.edges().collect();
        let mut dg = DynamicGraph::new(g);

        let updates: Vec<Update> = (0..1000)
            .map(|_| {
                let x = NodeId(rng.gen_range(0..2000));
                let y = NodeId(rng.gen_range(0..2000));
                let c = Color(rng.gen_range(0..3));
                if rng.gen_bool(0.5) {
                    Update::Insert(x, y, c)
                } else {
                    Update::Delete(x, y, c)
                }
            })
            .collect();
        let mut expect_effective = 0usize;
        for &u in &updates {
            let changed = match u {
                Update::Insert(x, y, c) => reference.insert((x, y, c)),
                Update::Delete(x, y, c) => reference.remove(&(x, y, c)),
            };
            expect_effective += usize::from(changed);
        }

        let effective = dg.apply(&updates);
        assert_eq!(effective.len(), expect_effective);
        assert_eq!(dg.version(), 1, "one batch, one rebuild");
        assert_eq!(dg.graph().edge_count(), reference.len());
        let rebuilt: HashSet<(NodeId, NodeId, Color)> = dg.graph().edges().collect();
        assert_eq!(rebuilt, reference);
    }

    #[test]
    fn insertion_grows_matches() {
        // give C1 the fn edge to B1 it lacks: C1 then satisfies (C,B) and,
        // with its existing paths, joins the matches of C
        let mut dg = DynamicGraph::new(essembly());
        let pq = q2(dg.graph());
        let mut inc = IncrementalMatcher::new(pq, &dg);
        let c1 = dg.graph().node_by_label("C1").unwrap();
        let c_idx = 1;
        assert!(!inc.matches(c_idx).contains(&c1));

        let b1 = dg.graph().node_by_label("B1").unwrap();
        let fnc = dg.graph().alphabet().get("fn").unwrap();
        let eff = dg.apply(&[Update::Insert(c1, b1, fnc)]);
        inc.on_update(&dg, &eff);
        assert_eq!(inc.result(&dg), inc.full_reeval(&dg), "insert divergence");
        assert!(inc.matches(c_idx).contains(&c1), "C1 must join the matches");
    }

    #[test]
    fn deletion_shrinks_matches() {
        // remove C3's fn edges: the whole pattern collapses (no (C,B) pair)
        let mut dg = DynamicGraph::new(essembly());
        let pq = q2(dg.graph());
        let mut inc = IncrementalMatcher::new(pq, &dg);
        assert!(!inc.is_empty());
        let c3 = dg.graph().node_by_label("C3").unwrap();
        let b1 = dg.graph().node_by_label("B1").unwrap();
        let b2 = dg.graph().node_by_label("B2").unwrap();
        let fnc = dg.graph().alphabet().get("fn").unwrap();
        let eff = dg.apply(&[Update::Delete(c3, b1, fnc), Update::Delete(c3, b2, fnc)]);
        inc.on_update(&dg, &eff);
        assert_eq!(inc.result(&dg), inc.full_reeval(&dg), "delete divergence");
        assert!(inc.is_empty());
    }

    #[test]
    fn randomized_update_streams_match_full_reeval() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let (mut emptied, mut revived) = (0, 0);
        // (nodes, edges, colors, steps, a→b regex, b→a regex): a dense
        // graph whose answer only grows and shrinks, then a sparse
        // one-color graph where the cyclic pattern holds iff a cycle
        // exists, so single flips empty the answer and later revive it
        for (n, edges, colors, steps, ab, ba) in [
            (35u32, 110, 3u8, 12, "c0^2 c1", "_+"),
            (5, 4, 1, 40, "c0+", "c0+"),
        ] {
            for trial in 0..4u64 {
                let g = synthetic(n as usize, edges, 2, colors as usize, 4400 + trial);
                let mut dg = DynamicGraph::new(g);
                let mut pq = Pq::new();
                let a = pq.add_node(
                    "a",
                    Predicate::parse(
                        &format!("a0 <= {}", rng.gen_range(4..9)),
                        dg.graph().schema(),
                    )
                    .unwrap(),
                );
                let b = pq.add_node("b", Predicate::always_true());
                pq.add_edge(a, b, FRegex::parse(ab, dg.graph().alphabet()).unwrap());
                pq.add_edge(b, a, FRegex::parse(ba, dg.graph().alphabet()).unwrap());
                let mut inc = IncrementalMatcher::new(pq, &dg);
                for step in 0..steps {
                    let x = NodeId(rng.gen_range(0..n));
                    let y = NodeId(rng.gen_range(0..n));
                    let c = Color(rng.gen_range(0..colors));
                    let upd = if rng.gen_bool(0.5) {
                        Update::Insert(x, y, c)
                    } else {
                        Update::Delete(x, y, c)
                    };
                    if x == y {
                        continue;
                    }
                    let was_empty = inc.is_empty();
                    let eff = dg.apply(&[upd]);
                    inc.on_update(&dg, &eff);
                    assert_eq!(
                        inc.result(&dg),
                        inc.full_reeval(&dg),
                        "{n} nodes, trial {trial} step {step} after {upd:?}"
                    );
                    emptied += usize::from(!was_empty && inc.is_empty());
                    revived += usize::from(was_empty && !inc.is_empty());
                }
            }
        }
        assert!(
            emptied > 0 && revived > 0,
            "streams must cross the empty answer both ways: {emptied} emptied, {revived} revived"
        );
    }

    #[test]
    fn empty_answer_recovers_after_insertion() {
        // start with an unsatisfiable pattern, then insert the edge that
        // satisfies it: the matcher must recover from the empty answer
        let mut b = GraphBuilder::new();
        let ja = b.attr("t");
        let x = b.add_node("x", [(ja, 1.into())]);
        let y = b.add_node("y", [(ja, 2.into())]);
        let c = b.color("c");
        let _ = c;
        let mut dg = DynamicGraph::new(b.build());
        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::parse("t = 1", dg.graph().schema()).unwrap());
        let bb = pq.add_node("b", Predicate::parse("t = 2", dg.graph().schema()).unwrap());
        pq.add_edge(a, bb, FRegex::parse("c", dg.graph().alphabet()).unwrap());
        let mut inc = IncrementalMatcher::new(pq, &dg);
        assert!(inc.is_empty());
        let eff = dg.apply(&[Update::Insert(
            x,
            y,
            dg.graph().alphabet().get("c").unwrap(),
        )]);
        inc.on_update(&dg, &eff);
        assert!(!inc.is_empty());
        assert_eq!(inc.result(&dg), inc.full_reeval(&dg));
    }

    #[test]
    fn rq_source_cone_is_conservative_and_bounded() {
        let g = essembly();
        let re = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        let n = |lbl: &str| g.node_by_label(lbl).unwrap();
        let fnc = g.alphabet().get("fn").unwrap();
        // deleting C3->B1 affects C1, C2 (their paths run through C3) and C3
        let cone = rq_source_cone(&g, &re, &[(n("C3"), n("B1"), fnc)]);
        for lbl in ["C1", "C2", "C3"] {
            assert!(cone.contains(&n(lbl)), "{lbl} must be in the cone");
        }
        assert!(cone.is_sorted());
        // a colour the regex does not admit seeds nothing
        let sn = g.alphabet().get("sn").unwrap();
        assert!(rq_source_cone(&g, &re, &[(n("C3"), n("B1"), sn)]).is_empty());

        // on a one-colour chain 0 → 1 → … → 9, a change at the tail 9
        // reaches back exactly `max_word_len − 1` edges, or all the way
        // with `+`
        let mut b = GraphBuilder::new();
        let c = b.color("c");
        let nodes: Vec<NodeId> = (0..10).map(|i| b.add_node(&format!("v{i}"), [])).collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], c);
        }
        let chain = b.build();
        let cone = |text: &str| {
            let re = FRegex::parse(text, chain.alphabet()).unwrap();
            rq_source_cone(&chain, &re, &[(nodes[9], nodes[0], c)])
        };
        assert_eq!(cone("c^3"), nodes[7..].to_vec());
        assert_eq!(cone("c c"), nodes[8..].to_vec());
        assert_eq!(cone("c"), nodes[9..].to_vec());
        assert_eq!(cone("c+"), nodes);
        assert_eq!(cone("_^2"), nodes[8..].to_vec());
    }

    #[test]
    fn patched_reach_sets_equal_full_evaluation() {
        // a reach set computed on one version, patched across a log of one
        // to three later batches, equals a full evaluation on the last
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(35);
        let (mut patched, mut declined) = (0, 0);
        for trial in 0..24u64 {
            // sparse to dense: the cone of a `_+` regex on the dense graphs
            // holds most sources, and the patch declines
            let g = synthetic(60, 60 * (1 + trial as usize % 4), 2, 3, 900 + trial);
            let regex = ["c0^2 c1", "c1+", "_ c2", "c0 _^2", "c2^3", "_+"][trial as usize % 6];
            let rq = Rq::new(
                Predicate::parse(&format!("a0 <= {}", trial % 6), g.schema()).unwrap(),
                Predicate::always_true(),
                FRegex::parse(regex, g.alphabet()).unwrap(),
            );
            let old = rq.eval_bfs(&g).into_pairs();
            let mut dg = DynamicGraph::new(g);
            let mut log = Vec::new();
            for _ in 0..1 + trial % 3 {
                let edges: Vec<_> = dg.graph().edges().collect();
                let (u, v, c) = edges[rng.gen_range(0..edges.len())];
                let x = NodeId(rng.gen_range(0..60));
                let y = NodeId(rng.gen_range(0..60));
                let color = Color(rng.gen_range(0..3));
                for u in dg.apply(&[Update::Delete(u, v, c), Update::Insert(x, y, color)]) {
                    log.push(match u {
                        Update::Insert(a, b, c) | Update::Delete(a, b, c) => (a, b, c),
                    });
                }
            }
            let g = dg.graph();
            let probe = GraphProbe::new(g);
            match patch_reach_set(g, &rq, &probe, &old, &log) {
                Some(pairs) => {
                    assert_eq!(pairs, rq.eval_bfs(g).into_pairs(), "trial {trial}: {regex}");
                    patched += 1;
                }
                None => declined += 1,
            }
        }
        assert!(
            patched > 0 && declined > 0,
            "{patched} patched, {declined} declined"
        );
    }
}
