//! Graph algorithms used by the query engine: color-constrained BFS,
//! single-pair bi-directional BFS, Tarjan's SCC, and condensation
//! (SCC DAG) construction.
//!
//! The SCC routines are generic over a successor function so that the same
//! code serves both data graphs and the (tiny) pattern graphs of `rpq-core`.

use crate::color::Color;
use crate::distance::INFINITY;
use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Traversal direction for BFS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges (distances *from* the source).
    Forward,
    /// Follow in-edges (distances *to* the source).
    Backward,
}

/// Single-source BFS distances along edges admitted by `color`
/// (use [`crate::WILDCARD`] for "any color").
///
/// Returns one `u16` distance per node; unreachable nodes get
/// [`INFINITY`]. The source itself is at distance 0. Distances larger than
/// `u16::MAX - 1` saturate to `u16::MAX - 1` (irrelevant in practice: the
/// paper's hop bounds are single digits).
pub fn bfs_distances(g: &Graph, src: NodeId, color: Color, dir: Direction) -> Vec<u16> {
    let mut dist = vec![INFINITY; g.node_count()];
    let mut queue = VecDeque::new();
    bfs_distances_into(g, src, color, dir, &mut dist, &mut queue);
    dist
}

/// [`bfs_distances`] into caller-owned buffers: `dist` (length `|V|`, reset
/// to [`INFINITY`] here) and `queue` (cleared here).
///
/// Index construction runs one BFS per (node, color) pair; allocating a
/// fresh `Vec<u16>` plus queue for each would dominate the build on big
/// graphs, so bulk callers ([`DistanceMatrix::build`](crate::DistanceMatrix::build))
/// hand the same buffers to every call — or, for the matrix, the target row
/// itself, making the build allocation-free per (node, color).
pub fn bfs_distances_into(
    g: &Graph,
    src: NodeId,
    color: Color,
    dir: Direction,
    dist: &mut [u16],
    queue: &mut VecDeque<NodeId>,
) {
    debug_assert_eq!(dist.len(), g.node_count(), "dist buffer sized to |V|");
    dist.fill(INFINITY);
    queue.clear();
    dist[src.index()] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        let next = du.saturating_add(1).min(u16::MAX - 1);
        let adj = match dir {
            Direction::Forward => g.out_edges_of(u, color),
            Direction::Backward => g.in_edges_of(u, color),
        };
        for e in adj {
            if dist[e.node.index()] == INFINITY {
                dist[e.node.index()] = next;
                queue.push_back(e.node);
            }
        }
    }
}

/// Shortest distance from `from` to `to` along edges admitted by `color`,
/// computed by *bi-directional* BFS (§4 of the paper): two frontiers, one
/// expanding forward from `from`, one backward from `to`; the smaller
/// frontier is expanded each round.
///
/// Returns `None` if `to` is unreachable. A distance of 0 means
/// `from == to`; note the paper's path semantics requires *nonempty* paths,
/// which callers handle by asking for a positive distance or by stepping
/// one edge first.
pub fn bidirectional_distance(g: &Graph, from: NodeId, to: NodeId, color: Color) -> Option<u32> {
    if from == to {
        return Some(0);
    }
    let n = g.node_count();
    // visited depth + 1, 0 = unvisited, per side
    let mut fwd = vec![0u32; n];
    let mut bwd = vec![0u32; n];
    fwd[from.index()] = 1;
    bwd[to.index()] = 1;
    let mut fq: Vec<NodeId> = vec![from];
    let mut bq: Vec<NodeId> = vec![to];
    let mut fdepth = 0u32;
    let mut bdepth = 0u32;

    while !fq.is_empty() && !bq.is_empty() {
        // expand the smaller frontier
        if fq.len() <= bq.len() {
            fdepth += 1;
            let mut next = Vec::new();
            for &u in &fq {
                for e in g.out_edges_of(u, color) {
                    let vi = e.node.index();
                    if bwd[vi] != 0 {
                        return Some(fdepth + (bwd[vi] - 1));
                    }
                    if fwd[vi] == 0 {
                        fwd[vi] = fdepth + 1;
                        next.push(e.node);
                    }
                }
            }
            fq = next;
        } else {
            bdepth += 1;
            let mut next = Vec::new();
            for &u in &bq {
                for e in g.in_edges_of(u, color) {
                    let vi = e.node.index();
                    if fwd[vi] != 0 {
                        return Some(bdepth + (fwd[vi] - 1));
                    }
                    if bwd[vi] == 0 {
                        bwd[vi] = bdepth + 1;
                        next.push(e.node);
                    }
                }
            }
            bq = next;
        }
    }
    None
}

/// Strongly connected components via Tarjan's algorithm (iterative, so deep
/// graphs cannot overflow the call stack).
///
/// Generic over the successor function: `succ(v)` yields the out-neighbors
/// of node `v ∈ 0..n`. Components are returned in **reverse topological
/// order** of the condensation (a component is emitted only after every
/// component it can reach), which is exactly the processing order
/// `JoinMatch` needs (§5.1).
pub fn tarjan_scc<F, I>(n: usize, succ: F) -> Vec<Vec<usize>>
where
    F: Fn(usize) -> I,
    I: Iterator<Item = usize>,
{
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0u32;
    let mut comps: Vec<Vec<usize>> = Vec::new();

    // explicit DFS stack: (node, iterator state via restart index)
    enum Frame<I> {
        Enter(usize),
        Resume(usize, I, usize), // (v, iterator, last child)
    }
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut call: Vec<Frame<I>> = vec![Frame::Enter(root)];
        while let Some(frame) = call.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    call.push(Frame::Resume(v, succ(v), usize::MAX));
                }
                Frame::Resume(v, mut it, child) => {
                    if child != usize::MAX {
                        lowlink[v] = lowlink[v].min(lowlink[child]);
                    }
                    let mut descended = false;
                    while let Some(w) = it.next() {
                        if index[w] == UNVISITED {
                            call.push(Frame::Resume(v, it, w));
                            call.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            lowlink[v] = lowlink[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if lowlink[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comps.push(comp);
                    }
                }
            }
        }
    }
    comps
}

/// The condensation (SCC DAG) of a graph given by a successor function:
/// returns `(comp_of, comps)` where `comp_of[v]` is the index of `v`'s
/// component in `comps`, and `comps` is in reverse topological order
/// (as produced by [`tarjan_scc`]).
pub fn condensation<F, I>(n: usize, succ: F) -> (Vec<usize>, Vec<Vec<usize>>)
where
    F: Fn(usize) -> I,
    I: Iterator<Item = usize>,
{
    let comps = tarjan_scc(n, &succ);
    let mut comp_of = vec![0usize; n];
    for (ci, comp) in comps.iter().enumerate() {
        for &v in comp {
            comp_of[v] = ci;
        }
    }
    (comp_of, comps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::color::WILDCARD;

    fn chain_graph(k: usize) -> (Graph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let ns: Vec<_> = (0..k).map(|i| b.add_node(&format!("n{i}"), [])).collect();
        let c = b.color("c");
        for w in ns.windows(2) {
            b.add_edge(w[0], w[1], c);
        }
        (b.build(), ns)
    }

    #[test]
    fn bfs_chain() {
        let (g, ns) = chain_graph(5);
        let c = g.alphabet().get("c").unwrap();
        let d = bfs_distances(&g, ns[0], c, Direction::Forward);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let back = bfs_distances(&g, ns[4], c, Direction::Backward);
        assert_eq!(back, vec![4, 3, 2, 1, 0]);
    }

    #[test]
    fn bfs_respects_colors() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        let z = b.add_node("z", []);
        let r = b.color("r");
        let s = b.color("s");
        b.add_edge(x, y, r);
        b.add_edge(y, z, s);
        let g = b.build();
        let dr = bfs_distances(&g, x, r, Direction::Forward);
        assert_eq!(dr[z.index()], INFINITY);
        let dw = bfs_distances(&g, x, WILDCARD, Direction::Forward);
        assert_eq!(dw[z.index()], 2);
    }

    #[test]
    fn bidirectional_agrees_with_bfs() {
        let (g, ns) = chain_graph(8);
        let c = g.alphabet().get("c").unwrap();
        for i in 0..8 {
            for j in 0..8 {
                let uni = bfs_distances(&g, ns[i], c, Direction::Forward)[ns[j].index()];
                let bi = bidirectional_distance(&g, ns[i], ns[j], c);
                if uni == INFINITY {
                    assert_eq!(bi, None, "{i}->{j}");
                } else {
                    assert_eq!(bi, Some(uni as u32), "{i}->{j}");
                }
            }
        }
    }

    #[test]
    fn bidirectional_cycle() {
        let mut b = GraphBuilder::new();
        let ns: Vec<_> = (0..6).map(|i| b.add_node(&format!("n{i}"), [])).collect();
        let c = b.color("c");
        for i in 0..6 {
            b.add_edge(ns[i], ns[(i + 1) % 6], c);
        }
        let g = b.build();
        assert_eq!(bidirectional_distance(&g, ns[0], ns[3], c), Some(3));
        assert_eq!(bidirectional_distance(&g, ns[3], ns[0], c), Some(3));
        assert_eq!(bidirectional_distance(&g, ns[0], ns[0], c), Some(0));
    }

    #[test]
    fn scc_simple() {
        // 0 <-> 1, 2 alone, 1 -> 2
        let adj = [vec![1], vec![0, 2], vec![]];
        let comps = tarjan_scc(3, |v| adj[v].iter().copied());
        assert_eq!(comps.len(), 2);
        // reverse topological: {2} first, then {0,1}
        let mut first = comps[0].clone();
        first.sort_unstable();
        assert_eq!(first, vec![2]);
        let mut second = comps[1].clone();
        second.sort_unstable();
        assert_eq!(second, vec![0, 1]);
    }

    #[test]
    fn scc_reverse_topological_order() {
        // DAG of three 2-cycles: A -> B -> C
        // nodes: A={0,1}, B={2,3}, C={4,5}
        let adj = [vec![1], vec![0, 2], vec![3], vec![2, 4], vec![5], vec![4]];
        let (comp_of, comps) = condensation(6, |v| adj[v].iter().copied());
        assert_eq!(comps.len(), 3);
        // C (reaching nothing) must come before B, B before A
        assert!(comp_of[4] < comp_of[2]);
        assert!(comp_of[2] < comp_of[0]);
    }

    #[test]
    fn scc_deep_chain_no_overflow() {
        // 100k-node chain: a recursive Tarjan would blow the stack
        let n = 100_000;
        let comps = tarjan_scc(n, |v| {
            if v + 1 < n { Some(v + 1) } else { None }.into_iter()
        });
        assert_eq!(comps.len(), n);
    }

    #[test]
    fn scc_big_cycle() {
        let n = 50_000;
        let comps = tarjan_scc(n, move |v| std::iter::once((v + 1) % n));
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), n);
    }
}
