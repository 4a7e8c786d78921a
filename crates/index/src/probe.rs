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
//! picks the index, the algorithm stays the same.

use rpq_graph::{Color, DistanceMatrix, Graph, NodeId, INFINITY};

/// A per-color shortest-distance oracle usable as an RQ atom-test backend.
///
/// Implementations must agree with BFS ground truth: `dist(u, v, c)` is the
/// length of the shortest nonempty-or-empty path `u → v` over edges admitted
/// by `c` (`0` iff `u == v`, [`INFINITY`] iff unreachable), saturating at
/// `u16::MAX - 1` exactly like
/// [`bfs_distances`](rpq_graph::algo::bfs_distances).
pub trait DistProbe {
    /// Number of nodes the index was built for.
    fn node_count(&self) -> usize;

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
    /// one-atom step both RQ evaluation and PQ frontier sweeps are built
    /// from; it lives here so the subtle diagonal rule (the matrix/label
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
    /// [`dist`](DistProbe::dist) per admitted edge. A backend whose cycles
    /// stay inside its own structure may answer from a per-layer table of
    /// shortest cycle lengths instead — the same arithmetic, precomputed
    /// (`1` for a self-loop, else `1 + dist(u, from)`, minimized over the
    /// edges). A backend whose cycles can leave its structure (a shard)
    /// keeps the default.
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
        g.out_edges(from).iter().any(|e| {
            if !color.admits(e.color) {
                return false;
            }
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
    /// The default runs the pairwise probes (right for the O(1) matrix);
    /// label-based backends override it to aggregate the *target side once*
    /// — e.g. [`HopLabels`](crate::HopLabels) folds every target's `Lin`
    /// into one per-hub minimum and then answers each source with a single
    /// `Lout` scan, so a `Join` step over `|S|` sources and `|T|` targets
    /// costs `O(Σ|Lin| + Σ|Lout|)` label entries instead of `|S|·|T|` hub
    /// merges.
    fn sources_reaching_within(
        &self,
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
                    .any(|&y| self.reaches_within(g, x, y, color, max_len))
            })
            .collect()
    }
}

impl DistProbe for DistanceMatrix {
    fn node_count(&self) -> usize {
        DistanceMatrix::node_count(self)
    }

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

    fn has_cycle_within(
        &self,
        g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        DistanceMatrix::has_cycle_within(self, g, from, color, max_len)
    }

    fn reaches_within(
        &self,
        g: &Graph,
        from: NodeId,
        to: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        DistanceMatrix::reaches_within(self, g, from, to, color, max_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::GraphBuilder;

    #[test]
    fn matrix_probe_matches_inherent_api() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        let z = b.add_node("z", []);
        let r = b.color("r");
        b.add_edge(x, y, r);
        b.add_edge(y, z, r);
        b.add_edge(z, x, r);
        let g = b.build();
        let m = DistanceMatrix::build(&g);
        let p: &dyn DistProbe = &m;
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.dist(x, z, r), 2);
        assert_eq!(p.dist(x, x, r), 0);
        assert!(p.reaches_within(&g, x, x, r, Some(3)), "3-cycle");
        assert!(!p.reaches_within(&g, x, x, r, Some(2)));
        let mut seen = Vec::new();
        p.for_each_within(x, r, 1, &mut |v| seen.push(v));
        assert_eq!(seen, vec![y]);
        seen.clear();
        p.for_each_within(x, r, 2, &mut |v| seen.push(v));
        seen.sort_unstable();
        assert_eq!(seen, vec![y, z]);
    }
}
