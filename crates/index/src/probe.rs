//! The [`DistProbe`] abstraction: what RQ evaluation actually needs from a
//! distance index.
//!
//! `Rq::eval_with_matrix` (rpq-core) never reads the dense matrix directly;
//! its per-atom step needs exactly three capabilities:
//!
//! 1. a point probe — the shortest `color`-constrained distance between two
//!    nodes ([`DistProbe::dist`]),
//! 2. a bounded neighborhood scan — every node within `max` hops of a
//!    source along one color ([`DistProbe::for_each_within`]), and
//! 3. the nonempty-path diagonal case — a cycle through the node itself
//!    ([`DistProbe::has_cycle_within`]), which no symmetric-distance store
//!    can read off directly because the diagonal holds 0 while the paper's
//!    semantics requires |path| ≥ 1. The trait default walks the node's
//!    out-edges with one distance probe each; a backend may instead answer
//!    from a per-layer table of shortest cycle lengths computed at build
//!    time ([`HopLabels`](crate::HopLabels) does — one read per call).
//!
//! Both the dense [`DistanceMatrix`] (O(1) probes, O(|Σ|·|V|²) memory) and
//! the pruned 2-hop [`HopLabels`](crate::HopLabels) (label-merge probes,
//! memory proportional to total label size) implement the trait, so the
//! evaluation algorithms in `rpq-core` are backend-generic: the planner
//! picks the index, the algorithm stays the same. With no index at all,
//! [`GraphProbe`] asks the graph the same questions by breadth-first sweeps.
//!
//! PQ refinement also asks one set question, a whole `Join` step
//! ([`DistProbe::sources_reaching_within`]), which every backend answers
//! at once. The matrix keeps its point probes and row scans for RQs and
//! answers it with one [`GraphProbe`] sweep over the graph,
//! O(|V| + |E|) — not a probe per (source, target) pair. Answer pairs,
//! an RQ's and a PQ's alike, come from the per-node scan
//! ([`DistProbe::for_each_reaching_within`]) in `rpq-core`'s DM level
//! scan.

use rpq_graph::{Color, DistanceMatrix, Graph, NodeId, INFINITY};
use std::cell::Cell;
use std::ops::RangeInclusive;
use std::sync::Mutex;

/// A per-color shortest-distance oracle usable as an RQ atom-test backend.
///
/// Implementations must agree with BFS ground truth: `dist(u, v, c)` is the
/// length of the shortest nonempty-or-empty path `u → v` over edges admitted
/// by `c` (`0` iff `u == v`, [`INFINITY`] iff unreachable), saturating at
/// `u16::MAX - 1` exactly like
/// [`bfs_distances`](rpq_graph::algo::bfs_distances).
pub trait DistProbe {
    /// Shortest distance from `from` to `to` along edges admitted by
    /// `color`; [`INFINITY`] if unreachable, 0 if `from == to`.
    fn dist(&self, from: NodeId, to: NodeId, color: Color) -> u16;

    /// Call `f(z)` for every node `z ≠ from` with
    /// `1 ≤ dist(from, z, color) ≤ max`.
    ///
    /// `f` may be called **more than once per node** (label-based backends
    /// enumerate via hubs, and several hubs can witness the same target);
    /// callers must be idempotent in `z` — the mask/bitset accumulation in
    /// RQ evaluation is.
    fn for_each_within(&self, from: NodeId, color: Color, max: u16, f: &mut dyn FnMut(NodeId));

    /// Bounded scan **with the diagonal**: `f(z)` for every `z` with a
    /// nonempty path `from → z` of length ≤ `max_len` (`None` =
    /// unbounded) — [`for_each_within`](DistProbe::for_each_within) plus
    /// `from` itself when a cycle through it fits the bound. This is the
    /// one-atom step of the DM level scan that answers RQs and assembles
    /// PQs; it lives here so the subtle diagonal rule (the matrix/label
    /// diagonal stores 0, but the semantics requires |path| ≥ 1) is
    /// encoded once. Like the underlying scan, `f` may be called more
    /// than once per node.
    fn for_each_reaching_within(
        &self,
        g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
        f: &mut dyn FnMut(NodeId),
    ) {
        let cap = u32::from(u16::MAX - 1);
        let max = max_len.map_or(cap, |k| k.min(cap)) as u16;
        self.for_each_within(from, color, max, f);
        if self.has_cycle_within(g, from, color, max_len) {
            f(from);
        }
    }

    /// Nonempty-cycle test at `from`: one admitted edge out, then back,
    /// within `max_len` total hops (`None` = unbounded).
    ///
    /// The default walks `from`'s out-edges in `g` with one
    /// [`dist`](DistProbe::dist) per admitted edge. A label backend may
    /// answer from a per-layer table of shortest cycle lengths instead —
    /// the same arithmetic, precomputed (`1` for a self-loop, else
    /// `1 + dist(u, from)`, minimized over the edges). [`GraphProbe`], and
    /// the sharded backend through it, sweeps forward from `from`'s
    /// successors.
    fn has_cycle_within(
        &self,
        g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        let budget = max_len.unwrap_or(u32::MAX);
        if budget == 0 {
            return false;
        }
        g.out_edges_of(from, color).iter().any(|e| {
            if e.node == from {
                return true;
            }
            let back = self.dist(e.node, from, color);
            back != INFINITY && (back as u32 + 1) <= budget
        })
    }

    /// Atom test: is there a **nonempty** path `from → to` whose edges all
    /// have color `color`, of length at most `max_len` (`None` = unbounded)?
    fn reaches_within(
        &self,
        g: &Graph,
        from: NodeId,
        to: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        if from == to {
            return self.has_cycle_within(g, from, color, max_len);
        }
        let d = self.dist(from, to, color);
        if d == INFINITY || d == 0 {
            return false;
        }
        match max_len {
            None => true,
            Some(k) => (d as u32) <= k,
        }
    }

    /// Bulk atom test, the PQ refinement primitive: `out[i]` is true iff
    /// some `y ∈ targets` satisfies
    /// [`reaches_within`](DistProbe::reaches_within)`(sources[i], y)`.
    ///
    /// Every backend answers a whole `Join` step at once instead of
    /// `|S|·|T|` pairwise probes: [`HopLabels`](crate::HopLabels) folds
    /// every target's `Lin` into one per-hub minimum and then answers each
    /// source with a single `Lout` scan (`O(Σ|Lin| + Σ|Lout|)` label
    /// entries); [`GraphProbe`], and the matrix and the sharded backend
    /// through it, run one backward sweep over `g`.
    fn sources_reaching_within(
        &self,
        g: &Graph,
        sources: &[NodeId],
        targets: &[NodeId],
        color: Color,
        max_len: Option<u32>,
    ) -> Vec<bool>;
}

impl DistProbe for DistanceMatrix {
    #[inline]
    fn dist(&self, from: NodeId, to: NodeId, color: Color) -> u16 {
        DistanceMatrix::dist(self, from, to, color)
    }

    fn for_each_within(&self, from: NodeId, color: Color, max: u16, f: &mut dyn FnMut(NodeId)) {
        // the diagonal stores 0, so `d >= 1` also excludes `from` itself;
        // `max < INFINITY` makes the upper check subsume the INFINITY test
        debug_assert!(max < INFINITY);
        for (z, &d) in self.row(from, color).iter().enumerate() {
            if d >= 1 && d <= max {
                f(NodeId(z as u32));
            }
        }
    }

    // a Join step sweeps `g`: a probe per (source, target) pair costs
    // more than one O(|V| + |E|) pass
    fn sources_reaching_within(
        &self,
        g: &Graph,
        sources: &[NodeId],
        targets: &[NodeId],
        color: Color,
        max_len: Option<u32>,
    ) -> Vec<bool> {
        MATRIX_SWEEPS.with(|pool| {
            GraphProbe::with_pool(g, pool)
                .sources_reaching_within(g, sources, targets, color, max_len)
        })
    }
}

thread_local! {
    /// The matrix's sweep buffers, one pool per thread: a fresh buffer per
    /// call costs ≈ 0.7 µs of a ≈ 2.8 µs `Join` step on
    /// `youtube_like(600, 1)` (two-core box). A buffer grows to the
    /// largest graph its thread swept.
    static MATRIX_SWEEPS: SweepPool = SweepPool::default();
}

/// The graph itself as a [`DistProbe`]: no index, every question answered
/// by a breadth-first sweep over the edges `color` admits — the backend of
/// the engine's search plans, the standing-query matcher and PQ assembly.
/// A sweep step reads exactly one color's run of a row
/// ([`Graph::out_edges_of`] / [`Graph::in_edges_of`]; the whole row for
/// `_`), never the other colors' edges.
///
/// Sweeps are set-at-a-time where the question is.
/// [`sources_reaching_within`](DistProbe::sources_reaching_within) runs
/// **one** backward sweep from the whole target set, capped at depth
/// `k − 1`, and keeps a source iff one of its admitted out-edges lands
/// inside it: the nonempty-path rule for a whole `Join` step in
/// O(|V| + |E|), whatever |S| and |T|.
/// [`for_each_reaching_within`](DistProbe::for_each_reaching_within) is
/// one forward sweep seeded at depth 1 with `from`'s admitted successors.
///
/// A sweep marks visited nodes with an epoch stamp in an O(|V|) buffer
/// that is reused, not re-zeroed, across calls: each thread probing at
/// once takes a buffer from a sweep pool and puts it back, so a probe
/// built per evaluation allocates one buffer per concurrent thread. The
/// pool is the only state — the probe's own, or one lent by an index that
/// sweeps its graph ([`ShardedLabels`](crate::ShardedLabels), or the
/// [`DistanceMatrix`]'s per-thread pool) — so the probe stays `Sync`, and
/// the threads running batches at once share one index that lends its
/// pool.
pub struct GraphProbe<'g> {
    g: &'g Graph,
    pool: Pool<'g>,
}

enum Pool<'g> {
    Own(SweepPool),
    Lent(&'g SweepPool),
}

/// Sweep buffers for the [`GraphProbe`]s over one graph, one per thread
/// probing at once.
#[derive(Default)]
pub(crate) struct SweepPool(Mutex<Vec<Sweep>>);

impl SweepPool {
    /// Run `f` on a buffer of this pool, grown to `n` nodes if it is
    /// smaller (a fresh one when every buffer is in use, e.g. by another
    /// worker or a nested call).
    fn with<R>(&self, n: usize, f: impl FnOnce(&mut Sweep) -> R) -> R {
        let pooled = self.0.lock().expect("sweep pool poisoned").pop();
        let mut sweep = pooled.unwrap_or_else(|| Sweep {
            seen: vec![0; n],
            epoch: 0,
            queue: Vec::new(),
        });
        if sweep.seen.len() < n {
            // a stamp of 0 is never the current epoch
            sweep.seen.resize(n, 0);
        }
        let out = f(&mut sweep);
        self.0.lock().expect("sweep pool poisoned").push(sweep);
        out
    }
}

impl std::fmt::Debug for SweepPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SweepPool")
    }
}

/// One thread's sweep scratch: `seen[v] == epoch` marks `v` visited by the
/// current sweep; `queue` holds the visited nodes in BFS order.
struct Sweep {
    seen: Vec<u32>,
    epoch: u32,
    queue: Vec<NodeId>,
}

impl Sweep {
    /// Visit, breadth first over color `color`'s run of each row (in-edges
    /// when `backward`), every node reachable from `seeds` — which sit at depth
    /// `depths.start()` — down to depth `depths.end()`. `reached(z, depth)`
    /// runs once per visited node, seeds included; returning `true` stops
    /// the sweep, and `run` returns `true`.
    fn run(
        &mut self,
        g: &Graph,
        backward: bool,
        color: Color,
        seeds: impl IntoIterator<Item = NodeId>,
        depths: RangeInclusive<u32>,
        mut reached: impl FnMut(NodeId, u32) -> bool,
    ) -> bool {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
        self.queue.clear();
        let (first, max) = depths.into_inner();
        if first > max {
            return false;
        }
        for s in seeds {
            if self.mark(s) {
                self.queue.push(s);
                if reached(s, first) {
                    return true;
                }
            }
        }
        let (mut head, mut depth) = (0, first);
        while depth < max && head < self.queue.len() {
            depth += 1;
            let end = self.queue.len();
            while head < end {
                let u = self.queue[head];
                head += 1;
                let edges = if backward {
                    g.in_edges_of(u, color)
                } else {
                    g.out_edges_of(u, color)
                };
                for e in edges {
                    if self.mark(e.node) {
                        self.queue.push(e.node);
                        if reached(e.node, depth) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    #[inline]
    fn mark(&mut self, v: NodeId) -> bool {
        let stamp = &mut self.seen[v.index()];
        let fresh = *stamp != self.epoch;
        *stamp = self.epoch;
        fresh
    }

    #[inline]
    fn visited(&self, v: NodeId) -> bool {
        self.seen[v.index()] == self.epoch
    }
}

impl<'g> GraphProbe<'g> {
    /// A probe over `g`; allocates nothing until the first sweep.
    pub fn new(g: &'g Graph) -> Self {
        GraphProbe {
            g,
            pool: Pool::Own(SweepPool::default()),
        }
    }

    /// A probe over `g` sweeping with `pool`'s buffers, which outlive it
    /// (and may have swept other graphs).
    pub(crate) fn with_pool(g: &'g Graph, pool: &'g SweepPool) -> Self {
        GraphProbe {
            g,
            pool: Pool::Lent(pool),
        }
    }

    fn with_sweep<R>(&self, f: impl FnOnce(&mut Sweep) -> R) -> R {
        let pool = match &self.pool {
            Pool::Own(pool) => pool,
            Pool::Lent(pool) => pool,
        };
        pool.with(self.g.node_count(), f)
    }

    /// The nodes one admitted edge out of `from` reaches: where a nonempty
    /// path from `from` is at depth 1.
    fn successors(&self, from: NodeId, color: Color) -> impl Iterator<Item = NodeId> + 'g {
        let g: &'g Graph = self.g;
        g.out_edges_of(from, color).iter().map(|e| e.node)
    }
}

impl DistProbe for GraphProbe<'_> {
    fn dist(&self, from: NodeId, to: NodeId, color: Color) -> u16 {
        if from == to {
            return 0;
        }
        let mut found = INFINITY;
        self.with_sweep(|s| {
            s.run(self.g, false, color, [from], 0..=u32::MAX, |z, depth| {
                if z == to {
                    found = depth.min(u32::from(u16::MAX - 1)) as u16;
                }
                z == to
            })
        });
        found
    }

    fn for_each_within(&self, from: NodeId, color: Color, max: u16, f: &mut dyn FnMut(NodeId)) {
        self.with_sweep(|s| {
            s.run(self.g, false, color, [from], 0..=u32::from(max), |z, _| {
                if z != from {
                    f(z);
                }
                false
            })
        });
    }

    fn for_each_reaching_within(
        &self,
        _: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
        f: &mut dyn FnMut(NodeId),
    ) {
        let seeds = self.successors(from, color);
        let max = max_len.unwrap_or(u32::MAX);
        self.with_sweep(|s| {
            s.run(self.g, false, color, seeds, 1..=max, |z, _| {
                f(z);
                false
            })
        });
    }

    fn has_cycle_within(
        &self,
        g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        self.reaches_within(g, from, from, color, max_len)
    }

    fn reaches_within(
        &self,
        _: &Graph,
        from: NodeId,
        to: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        let max = max_len.unwrap_or(u32::MAX);
        let seeds = self.successors(from, color);
        self.with_sweep(|s| s.run(self.g, false, color, seeds, 1..=max, |z, _| z == to))
    }

    fn sources_reaching_within(
        &self,
        _: &Graph,
        sources: &[NodeId],
        targets: &[NodeId],
        color: Color,
        max_len: Option<u32>,
    ) -> Vec<bool> {
        // a nonempty path of length ≤ k is one admitted edge onto a node
        // at most k − 1 backward steps from a target
        let Some(cap) = max_len.map_or(Some(u32::MAX), |k| k.checked_sub(1)) else {
            return vec![false; sources.len()];
        };
        let g = self.g;
        self.with_sweep(|s| {
            s.run(g, true, color, targets.iter().copied(), 0..=cap, |_, _| {
                false
            });
            sources
                .iter()
                .map(|&x| (g.out_edges_of(x, color).iter()).any(|e| s.visited(e.node)))
                .collect()
        })
    }
}

/// A [`DistProbe`] decorator that counts probe calls while delegating
/// every method to the wrapped backend — so a counted evaluation exercises
/// the backend's own optimized implementations (e.g. the hop-label bulk
/// `sources_reaching_within`, the graph's one-sweep scan), not the trait
/// defaults. A call counts once, whatever it fans out to, except
/// `sources_reaching_within`, which counts its sources.
///
/// The engine wraps every evaluation's probe in one; only profiles read
/// the count. A PQ's count is its refinement: assembly scans the graph
/// with a probe of its own, which nothing counts. The counter is a plain
/// [`Cell`]: a probe serves the one thread that runs its query.
pub struct CountingProbe<'a> {
    inner: &'a dyn DistProbe,
    probes: Cell<u64>,
}

impl<'a> CountingProbe<'a> {
    /// Wrap `inner`, with no probe counted yet.
    pub fn new(inner: &'a dyn DistProbe) -> Self {
        CountingProbe {
            inner,
            probes: Cell::new(0),
        }
    }

    /// Probes issued so far.
    pub fn probes(&self) -> u64 {
        self.probes.get()
    }

    fn count(&self, calls: u64) {
        self.probes.set(self.probes.get() + calls);
    }
}

impl DistProbe for CountingProbe<'_> {
    fn dist(&self, from: NodeId, to: NodeId, color: Color) -> u16 {
        self.count(1);
        self.inner.dist(from, to, color)
    }

    fn for_each_within(&self, from: NodeId, color: Color, max: u16, f: &mut dyn FnMut(NodeId)) {
        self.count(1);
        self.inner.for_each_within(from, color, max, f)
    }

    fn for_each_reaching_within(
        &self,
        g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
        f: &mut dyn FnMut(NodeId),
    ) {
        self.count(1);
        self.inner
            .for_each_reaching_within(g, from, color, max_len, f)
    }

    fn has_cycle_within(
        &self,
        g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        self.count(1);
        self.inner.has_cycle_within(g, from, color, max_len)
    }

    fn reaches_within(
        &self,
        g: &Graph,
        from: NodeId,
        to: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        self.count(1);
        self.inner.reaches_within(g, from, to, color, max_len)
    }

    fn sources_reaching_within(
        &self,
        g: &Graph,
        sources: &[NodeId],
        targets: &[NodeId],
        color: Color,
        max_len: Option<u32>,
    ) -> Vec<bool> {
        self.count(sources.len() as u64);
        self.inner
            .sources_reaching_within(g, sources, targets, color, max_len)
    }
}

/// Reference answer to [`DistProbe::sources_reaching_within`]: one
/// [`reaches_within`](DistProbe::reaches_within) per (source, target) pair.
#[cfg(test)]
pub(crate) fn pairwise_sources_reaching(
    p: &dyn DistProbe,
    g: &Graph,
    sources: &[NodeId],
    targets: &[NodeId],
    color: Color,
    max_len: Option<u32>,
) -> Vec<bool> {
    sources
        .iter()
        .map(|&x| {
            targets
                .iter()
                .any(|&y| p.reaches_within(g, x, y, color, max_len))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rpq_graph::{GraphBuilder, WILDCARD};

    /// A 3-cycle x → y → z → x of color r.
    fn triangle() -> (rpq_graph::Graph, [NodeId; 3], Color) {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        let z = b.add_node("z", []);
        let r = b.color("r");
        b.add_edge(x, y, r);
        b.add_edge(y, z, r);
        b.add_edge(z, x, r);
        (b.build(), [x, y, z], r)
    }

    fn probe_the_triangle(g: &Graph, p: &dyn DistProbe, [x, y, z]: [NodeId; 3], r: Color) {
        assert_eq!(p.dist(x, z, r), 2);
        assert_eq!(p.dist(x, x, r), 0);
        assert!(p.reaches_within(g, x, x, r, Some(3)), "3-cycle");
        assert!(!p.reaches_within(g, x, x, r, Some(2)));
        let mut seen = Vec::new();
        p.for_each_within(x, r, 1, &mut |v| seen.push(v));
        assert_eq!(seen, vec![y]);
        seen.clear();
        p.for_each_within(x, r, 2, &mut |v| seen.push(v));
        seen.sort_unstable();
        assert_eq!(seen, vec![y, z]);
        // z is one edge from the target x, y two: only z within 1
        let got = p.sources_reaching_within(g, &[x, y, z], &[x], r, Some(1));
        assert_eq!(got, vec![false, false, true]);
    }

    #[test]
    fn matrix_probe_matches_inherent_api() {
        let (g, nodes, r) = triangle();
        probe_the_triangle(&g, &DistanceMatrix::build(&g), nodes, r);
    }

    #[test]
    fn graph_probe_answers_like_the_matrix() {
        let (g, nodes, r) = triangle();
        probe_the_triangle(&g, &GraphProbe::new(&g), nodes, r);
    }

    /// a -r-> b -r-> d,  a -s-> c -s-> d,  d -r-> a
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new();
        let [a, bb, c, d] = ["a", "b", "c", "d"].map(|l| b.add_node(l, []));
        let r = b.color("r");
        let s = b.color("s");
        b.add_edge(a, bb, r);
        b.add_edge(bb, d, r);
        b.add_edge(a, c, s);
        b.add_edge(c, d, s);
        b.add_edge(d, a, r);
        b.build()
    }

    #[test]
    fn reaches_within_bounds() {
        let g = diamond();
        let [a, d] = ["a", "d"].map(|l| g.node_by_label(l).unwrap());
        let [r, s] = ["r", "s"].map(|c| g.alphabet().get(c).unwrap());
        let probes: [&dyn DistProbe; 2] = [&DistanceMatrix::build(&g), &GraphProbe::new(&g)];
        for p in probes {
            assert!(p.reaches_within(&g, a, d, r, Some(2)));
            assert!(!p.reaches_within(&g, a, d, r, Some(1)));
            assert!(p.reaches_within(&g, a, d, r, None));
            // nonempty-path semantics at the same node: a -r-> b -r-> d -r-> a
            assert!(p.reaches_within(&g, a, a, r, Some(3)));
            assert!(!p.reaches_within(&g, a, a, r, Some(2)));
            assert!(p.reaches_within(&g, a, a, r, None));
            assert!(!p.reaches_within(&g, a, a, s, None));
        }
    }

    #[test]
    fn self_loop_counts_as_cycle() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let r = b.color("r");
        b.add_edge(x, x, r);
        let g = b.build();
        let probes: [&dyn DistProbe; 2] = [&DistanceMatrix::build(&g), &GraphProbe::new(&g)];
        for p in probes {
            assert!(p.reaches_within(&g, x, x, r, Some(1)));
            assert!(!p.reaches_within(&g, x, x, r, Some(0)));
        }
    }

    /// A random graph of 1–9 nodes over three colors: random edges (which
    /// draw self-loops of their own on so few nodes) plus 1–3 self-loops.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        let edges = prop::collection::vec((0usize..64, 0usize..64, 0usize..3), 0..30);
        let loops = prop::collection::vec((0usize..64, 0usize..3), 1..4);
        (1usize..10, edges, loops).prop_map(|(n, edges, loops)| {
            let mut b = GraphBuilder::new();
            let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(&format!("v{i}"), [])).collect();
            let colors = ["r", "s", "t"].map(|c| b.color(c));
            let loops = loops.into_iter().map(|(v, c)| (v, v, c));
            for (u, v, c) in edges.into_iter().chain(loops) {
                b.add_edge(nodes[u % n], nodes[v % n], colors[c]);
            }
            b.build()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The matrix answers a `Join` step by sweeping the graph; it must
        /// agree with its own point probes — for every color and `_`,
        /// sources that are also targets (the |path| ≥ 1 diagonal), empty
        /// target sets, and bounds 0, 1, 3 and none.
        #[test]
        fn matrix_set_questions_match_point_probes_and_row_scans(
            g in arb_graph(),
            target_mask in any::<u16>(),
        ) {
            let m = DistanceMatrix::build(&g);
            let nodes: Vec<NodeId> = g.nodes().collect();
            let pick = |mask: u16| -> Vec<NodeId> {
                g.nodes().filter(|v| mask >> v.index() & 1 == 1).collect()
            };
            let colors: Vec<Color> = g.alphabet().colors().chain([WILDCARD]).collect();
            for c in colors {
                for max_len in [Some(0), Some(1), Some(3), None] {
                    for targets in [pick(target_mask), nodes.clone(), Vec::new()] {
                        prop_assert_eq!(
                            m.sources_reaching_within(&g, &nodes, &targets, c, max_len),
                            pairwise_sources_reaching(&m, &g, &nodes, &targets, c, max_len),
                            "sources reaching {:?} along {:?} within {:?}", targets, c, max_len
                        );
                    }
                }
            }
        }
    }

    /// A backend whose scans exist only as the reaching override: the
    /// trait default, which goes through `for_each_within`, panics.
    struct OverridesOnly;

    impl DistProbe for OverridesOnly {
        fn dist(&self, _: NodeId, _: NodeId, _: Color) -> u16 {
            unreachable!("dist")
        }

        fn for_each_within(&self, _: NodeId, _: Color, _: u16, _: &mut dyn FnMut(NodeId)) {
            panic!("the trait default ran instead of the backend's override");
        }

        fn for_each_reaching_within(
            &self,
            _: &Graph,
            from: NodeId,
            _: Color,
            _: Option<u32>,
            f: &mut dyn FnMut(NodeId),
        ) {
            f(from);
        }

        fn sources_reaching_within(
            &self,
            _: &Graph,
            sources: &[NodeId],
            targets: &[NodeId],
            _: Color,
            _: Option<u32>,
        ) -> Vec<bool> {
            sources.iter().map(|x| targets.contains(x)).collect()
        }
    }

    #[test]
    fn counting_forwards_the_reaching_overrides_once_per_call() {
        let mut b = GraphBuilder::new();
        let (x, y) = (b.add_node("x", []), b.add_node("y", []));
        let r = b.color("r");
        b.add_edge(x, y, r);
        let g = b.build();
        let probe = CountingProbe::new(&OverridesOnly);
        let mut seen = Vec::new();
        probe.for_each_reaching_within(&g, x, r, Some(2), &mut |z| seen.push(z));
        probe.for_each_reaching_within(&g, y, r, None, &mut |z| seen.push(z));
        assert_eq!(seen, [x, y]);
        assert_eq!(probe.probes(), 2);
        // a Join step counts its sources
        let joined = probe.sources_reaching_within(&g, &[x, y], &[y], r, None);
        assert_eq!(joined, [false, true]);
        assert_eq!(probe.probes(), 4);
    }
}
