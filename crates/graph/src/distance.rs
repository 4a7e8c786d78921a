//! The per-color shortest-distance matrix of §4.
//!
//! `M[v1][v2][c]` records the length of the shortest path from `v1` to `v2`
//! using only edges of color `c`; the extra wildcard layer records shortest
//! distances over edges of arbitrary colors. With the matrix, the atom tests
//! of the regex class F — "is there a path of color `c` and length ≤ k?" —
//! take constant time. The build is one BFS per row, run on the caller's
//! thread.
//!
//! As the paper notes, the O((m+1)·|V|²) space is the price of the fastest
//! evaluation strategy; for graphs where it is unaffordable, the engine
//! probes label indices or, with none usable, sweeps the graph itself
//! (`rpq_index::GraphProbe`).

use crate::algo::{bfs_distances_into, Direction};
use crate::color::{Color, WILDCARD};
use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// "Unreachable" marker in the distance matrix.
pub const INFINITY: u16 = u16::MAX;

/// Dense `(m+1) × |V| × |V|` matrix of shortest distances, one layer per
/// concrete color plus one wildcard layer.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    colors: usize, // concrete colors; the wildcard layer is index `colors`
    data: Vec<u16>,
}

impl DistanceMatrix {
    /// Build the matrix by running one BFS per (node, color) pair plus one
    /// wildcard BFS per node: O((m+1)·|V|·(|V|+|E|)) work, as in §4. Each
    /// BFS writes its matrix row in place through one reused queue, so the
    /// build allocates nothing per (node, color).
    pub fn build(g: &Graph) -> Self {
        let n = g.node_count();
        let m = g.alphabet().len();
        let mut data = vec![INFINITY; (m + 1) * n * n];
        let mut queue = VecDeque::new();
        for (idx, row) in data.chunks_mut(n.max(1)).enumerate() {
            let (layer, src) = (idx / n, idx % n);
            let color = if layer == m {
                WILDCARD
            } else {
                Color(layer as u8)
            };
            bfs_distances_into(
                g,
                NodeId(src as u32),
                color,
                Direction::Forward,
                row,
                &mut queue,
            );
        }
        DistanceMatrix { n, colors: m, data }
    }

    /// Estimated memory footprint in bytes (`(m+1)·|V|²·2`), so callers can
    /// decide between the matrix and the runtime cache, as §6 discusses.
    pub fn bytes_for(g: &Graph) -> usize {
        let n = g.node_count();
        (g.alphabet().len() + 1) * n * n * 2
    }

    #[inline]
    fn layer(&self, color: Color) -> usize {
        if color.is_wildcard() {
            self.colors
        } else {
            debug_assert!((color.0 as usize) < self.colors, "color outside alphabet");
            color.0 as usize
        }
    }

    /// Shortest distance from `from` to `to` along edges admitted by
    /// `color` ([`WILDCARD`] for any). `INFINITY` if unreachable;
    /// 0 if `from == to`.
    #[inline]
    pub fn dist(&self, from: NodeId, to: NodeId, color: Color) -> u16 {
        self.data[self.layer(color) * self.n * self.n + from.index() * self.n + to.index()]
    }

    /// Number of nodes this matrix was built for.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The contiguous distance row from `from` along `color`: entry `z` is
    /// `dist(from, z, color)`. Row scans are sequential in memory, which
    /// is what makes matrix-based evaluation fast in practice (random
    /// per-pair probes into an 85 MB matrix are cache misses; a row is a
    /// few KB of streaming reads).
    #[inline]
    pub fn row(&self, from: NodeId, color: Color) -> &[u16] {
        let base = self.layer(color) * self.n * self.n + from.index() * self.n;
        &self.data[base..base + self.n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn diamond() -> Graph {
        // a -r-> b -r-> d,  a -s-> c -s-> d, d -r-> a
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", []);
        let bb = b.add_node("b", []);
        let c = b.add_node("c", []);
        let d = b.add_node("d", []);
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
    fn per_color_distances() {
        let g = diamond();
        let m = DistanceMatrix::build(&g);
        let a = g.node_by_label("a").unwrap();
        let d = g.node_by_label("d").unwrap();
        let r = g.alphabet().get("r").unwrap();
        let s = g.alphabet().get("s").unwrap();
        assert_eq!(m.dist(a, d, r), 2);
        assert_eq!(m.dist(a, d, s), 2);
        assert_eq!(m.dist(a, d, WILDCARD), 2);
        assert_eq!(m.dist(d, a, r), 1);
        assert_eq!(m.dist(d, a, s), INFINITY);
    }

    #[test]
    fn memory_estimate() {
        let g = diamond();
        assert_eq!(DistanceMatrix::bytes_for(&g), 3 * 4 * 4 * 2);
    }

    #[test]
    fn every_row_is_a_bfs_from_its_source() {
        let g = crate::gen::synthetic(97, 400, 2, 3, 13);
        let m = DistanceMatrix::build(&g);
        let colors = (0..g.alphabet().len()).map(|c| Color(c as u8));
        for color in colors.chain([WILDCARD]) {
            for v in g.nodes() {
                let bfs = crate::algo::bfs_distances(&g, v, color, Direction::Forward);
                assert_eq!(m.row(v, color), &bfs[..], "row of {v:?} in {color:?}");
            }
        }
    }
}
