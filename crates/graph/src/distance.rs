//! The per-color shortest-distance matrix of §4.
//!
//! `M[v1][v2][c]` records the length of the shortest path from `v1` to `v2`
//! using only edges of color `c`; the extra wildcard layer records shortest
//! distances over edges of arbitrary colors. With the matrix, the atom tests
//! of the regex class F — "is there a path of color `c` and length ≤ k?" —
//! take constant time.
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
    /// wildcard BFS per node: O((m+1)·|V|·(|V|+|E|)) work, as in §4,
    /// parallelized across source nodes on one scoped thread per available
    /// core (the per-(node, color) BFSs are independent and each writes
    /// exactly one matrix row, so workers take disjoint contiguous row
    /// stripes and write in place — no post-merge, no per-BFS allocation).
    pub fn build(g: &Graph) -> Self {
        Self::build_with_workers(g, 0)
    }

    /// [`build`](DistanceMatrix::build) with an explicit worker count
    /// (`0` = one per available core).
    pub fn build_with_workers(g: &Graph, workers: usize) -> Self {
        let n = g.node_count();
        let m = g.alphabet().len();
        let mut data = vec![INFINITY; (m + 1) * n * n];
        let total_rows = (m + 1) * n;
        if total_rows == 0 {
            return DistanceMatrix { n, colors: m, data };
        }
        let hw = std::thread::available_parallelism().map_or(1, |c| c.get());
        let workers = (if workers == 0 { hw } else { workers }).clamp(1, total_rows);
        let rows_per = total_rows.div_ceil(workers);

        std::thread::scope(|s| {
            let mut rest: &mut [u16] = &mut data;
            let mut start = 0usize;
            while start < total_rows {
                let take = rows_per.min(total_rows - start);
                let (stripe, tail) = rest.split_at_mut(take * n);
                rest = tail;
                let lo = start;
                s.spawn(move || {
                    let mut queue = VecDeque::new();
                    for (i, row) in stripe.chunks_mut(n).enumerate() {
                        let idx = lo + i;
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
                });
                start += take;
            }
        });
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
    fn parallel_build_matches_serial() {
        let g = crate::gen::synthetic(97, 400, 2, 3, 13);
        let serial = DistanceMatrix::build_with_workers(&g, 1);
        for workers in [2, 3, 8, 1000] {
            let par = DistanceMatrix::build_with_workers(&g, workers);
            assert_eq!(par.data, serial.data, "workers = {workers}");
        }
        assert_eq!(DistanceMatrix::build(&g).data, serial.data);
    }
}
