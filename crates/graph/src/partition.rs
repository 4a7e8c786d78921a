//! Edge-cut graph partitioning.
//!
//! [`Partition::edge_cut`] assigns every node of a [`Graph`] to one of `k`
//! balanced shards: size-constrained label propagation finds the graph's
//! communities, a greedy packing bins them into shards under the balance
//! cap, and a bounded boundary refinement moves nodes to their
//! neighbor-majority shard while balance allows — cheap, deterministic,
//! and effective on graphs with community structure. `rpq-index`'s
//! sharded backend keeps one beside its graph and counts, per write, the
//! shards that hold an intra-shard change.

use crate::graph::{Graph, NodeId};
use std::collections::{HashMap, VecDeque};

/// BFS order of `comm`'s members over the subgraph they induce, started
/// from the lowest-id member; members unreached within the community
/// (it need not be connected) restart the BFS in ascending order. A node's
/// unvisited neighbors are queued out-neighbors first, each side by id. Uses
/// `scratch` (all-[`UNASSIGNED`] on entry) as a visited mark, restoring
/// it before returning.
fn bfs_order_within(g: &Graph, comm: &[u32], scratch: &mut [u32]) -> Vec<u32> {
    const IN_COMM: u32 = u32::MAX - 1;
    for &v in comm {
        scratch[v as usize] = IN_COMM;
    }
    let mut order = Vec::with_capacity(comm.len());
    let mut queue = VecDeque::new();
    for &start in comm {
        if scratch[start as usize] != IN_COMM {
            continue;
        }
        scratch[start as usize] = UNASSIGNED;
        order.push(start);
        queue.push_back(NodeId(start));
        while let Some(u) = queue.pop_front() {
            for row in [g.out_edges(u), g.in_edges(u)] {
                let fresh = order.len();
                for e in row {
                    if scratch[e.node.index()] == IN_COMM {
                        scratch[e.node.index()] = UNASSIGNED;
                        order.push(e.node.0);
                    }
                }
                // rows are colour-major: queue a row's new members by id,
                // so the order does not depend on the edges' colours
                order[fresh..].sort_unstable();
                queue.extend(order[fresh..].iter().map(|&v| NodeId(v)));
            }
        }
    }
    order
}

const UNASSIGNED: u32 = u32::MAX;

/// Boundary refinement over an existing node→shard assignment, two
/// mechanisms per pass:
///
/// 1. *capped moves* — a node with a strict neighbor majority in
///    another shard moves there while the target has headroom and
///    the source keeps one node;
/// 2. *balanced swaps* — when both shards sit at the cap (the
///    common end state of the packing), moves alone cannot fix a
///    misplaced blob, but for every shard pair the nodes wanting
///    to cross in opposite directions can be exchanged
///    gain-ordered, improving the cut at exactly zero balance
///    cost. This is what repairs a capped community that
///    straddled two clusters during propagation.
///
/// Runs up to four passes or until a pass changes nothing, mutating
/// `shard_of`/`sizes` in place. This is the final polish of
/// [`Partition::edge_cut`].
fn refine_assignment(g: &Graph, shard_of: &mut [u32], sizes: &mut [usize], cap: usize) {
    let n = shard_of.len();
    let k = sizes.len();
    let mut votes = vec![0u32; k];
    for _pass in 0..4 {
        let mut moved = 0usize;
        for v in 0..n {
            let id = NodeId(v as u32);
            votes.iter_mut().for_each(|t| *t = 0);
            for e in g.out_edges(id).iter().chain(g.in_edges(id)) {
                if e.node != id {
                    votes[shard_of[e.node.index()] as usize] += 1;
                }
            }
            let cur = shard_of[v] as usize;
            let best = (0..k)
                .max_by_key(|&s| (votes[s], usize::from(s == cur), usize::MAX - s))
                .expect("k >= 1");
            if best != cur && votes[best] > votes[cur] && sizes[best] < cap && sizes[cur] > 1 {
                shard_of[v] = best as u32;
                sizes[cur] -= 1;
                sizes[best] += 1;
                moved += 1;
            }
        }
        // swap phase: collect would-be movers per (from, to) pair
        // against a frozen snapshot of the assignment, then exchange
        // the top-gain prefixes of opposite directions
        let mut movers: HashMap<(u32, u32), Vec<(u32, u32)>> = HashMap::new();
        for v in 0..n {
            let id = NodeId(v as u32);
            votes.iter_mut().for_each(|t| *t = 0);
            for e in g.out_edges(id).iter().chain(g.in_edges(id)) {
                if e.node != id {
                    votes[shard_of[e.node.index()] as usize] += 1;
                }
            }
            let cur = shard_of[v] as usize;
            let best = (0..k)
                .max_by_key(|&s| (votes[s], usize::from(s == cur), usize::MAX - s))
                .expect("k >= 1");
            if best != cur && votes[best] > votes[cur] {
                movers
                    .entry((cur as u32, best as u32))
                    .or_default()
                    .push((votes[best] - votes[cur], v as u32));
            }
        }
        for a in 0..k as u32 {
            for b in (a + 1)..k as u32 {
                let (Some(fwd), Some(bwd)) = (movers.get(&(a, b)), movers.get(&(b, a))) else {
                    continue;
                };
                let mut fwd = fwd.clone();
                let mut bwd = bwd.clone();
                fwd.sort_unstable_by_key(|&(gain, v)| (std::cmp::Reverse(gain), v));
                bwd.sort_unstable_by_key(|&(gain, v)| (std::cmp::Reverse(gain), v));
                let m = fwd.len().min(bwd.len());
                for i in 0..m {
                    shard_of[fwd[i].1 as usize] = b;
                    shard_of[bwd[i].1 as usize] = a;
                    moved += 2;
                }
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// An assignment of graph nodes to `k` shards.
#[derive(Debug, Clone)]
pub struct Partition {
    /// global node index → shard.
    shard_of: Vec<u32>,
    k: usize,
}

impl Partition {
    /// Partition `g` into `k` balanced shards: **label propagation**
    /// finds the graph's communities, a greedy packing bins them into
    /// `k` shards under the balance cap `⌈|V|/k⌉` (oversized communities
    /// are split along their internal BFS order, so even the split parts
    /// stay contiguous), and a bounded boundary-refinement sweep moves
    /// nodes to their neighbor-majority shard while balance allows. `k`
    /// is clamped to `1..=|V|` (every shard gets at least one node when
    /// the graph has that many). Deterministic for a given graph.
    ///
    /// On graphs with community structure the cut converges to the
    /// fraction of genuinely cross-community edges; on structureless
    /// random graphs (one giant community) the split degenerates to
    /// BFS-ordered chunks — no partitioner does better there.
    pub fn edge_cut(g: &Graph, k: usize) -> Partition {
        let n = g.node_count();
        let k = k.clamp(1, n.max(1));
        if n == 0 {
            return Partition {
                shard_of: Vec::new(),
                k,
            };
        }
        let cap = n.div_ceil(k);

        // --- community detection: **size-constrained** in-place label
        // propagation. Each node adopts the most frequent label among its
        // (undirected) neighbors, ties to the smallest label — except
        // that a label whose community already holds `cap` nodes cannot
        // recruit. Unconstrained LPA suffers label epidemics on exactly
        // the graphs sharding is for (one early-coalesced community
        // leaks through the few cross-cluster bridges and swallows the
        // graph); capping community size at the shard size blocks the
        // epidemic and emits communities that already fit a shard.
        // In-place sweeping in node order is deterministic; the round
        // budget is sized for the slow tail of cap-constrained
        // migrations (measured ~22 rounds to full convergence on a
        // 100k-node 4-cluster graph — each round is one O(|E|) sweep,
        // and the early-exit fires as soon as a sweep changes nothing).
        let cap_lpa = cap;
        let mut label: Vec<u32> = (0..n as u32).collect();
        let mut comm_size: Vec<u32> = vec![1; n];
        // neighbor votes per label, dense over the label space (labels are
        // node ids); `voted` lists the labels to reset after each node
        let mut tally: Vec<u32> = vec![0; n];
        let mut voted: Vec<u32> = Vec::new();
        for _round in 0..40 {
            let mut changed = 0usize;
            for v in 0..n {
                let id = NodeId(v as u32);
                for e in g.out_edges(id).iter().chain(g.in_edges(id)) {
                    if e.node != id {
                        let l = label[e.node.index()];
                        if tally[l as usize] == 0 {
                            voted.push(l);
                        }
                        tally[l as usize] += 1;
                    }
                }
                let cur = label[v];
                let best = (voted.iter())
                    .filter(|&&l| l == cur || (comm_size[l as usize] as usize) < cap_lpa)
                    .map(|&l| (tally[l as usize], std::cmp::Reverse(l)))
                    .max()
                    .map(|(_, std::cmp::Reverse(l))| l);
                for l in voted.drain(..) {
                    tally[l as usize] = 0;
                }
                let Some(best) = best else {
                    continue; // isolated node (or every neighbor full)
                };
                if best != cur {
                    label[v] = best;
                    comm_size[cur as usize] -= 1;
                    comm_size[best as usize] += 1;
                    changed += 1;
                }
            }
            if changed == 0 {
                break;
            }
        }

        // --- communities, then an agglomerative merge: LPA under a size
        // cap can leave one real cluster split across several labels
        // (two part-grown labels deadlock at the cap boundary); merging
        // the community pair with the heaviest inter-edge weight while
        // the union still fits a shard reassembles them. Pure bookkeeping
        // on the community graph — O(C²) pairs with C in the tens.
        let mut members: HashMap<u32, Vec<u32>> = HashMap::new();
        for (v, &l) in label.iter().enumerate() {
            members.entry(l).or_default().push(v as u32);
        }
        let mut communities: Vec<Vec<u32>> = members.into_values().collect();
        communities.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
        {
            let mut comm_of = vec![0u32; n];
            for (ci, c) in communities.iter().enumerate() {
                for &v in c {
                    comm_of[v as usize] = ci as u32;
                }
            }
            let mut weight: HashMap<(u32, u32), u64> = HashMap::new();
            for (u, v, _) in g.edges() {
                let (a, b) = (comm_of[u.index()], comm_of[v.index()]);
                if a != b {
                    *weight.entry((a.min(b), a.max(b))).or_insert(0) += 1;
                }
            }
            while let Some((&(a, b), _)) = weight
                .iter()
                .filter(|(&(a, b), &w)| {
                    w > 0 && communities[a as usize].len() + communities[b as usize].len() <= cap
                })
                .max_by_key(|(&(a, b), &w)| (w, std::cmp::Reverse((a, b))))
            {
                // merge b into a; redirect b's community-graph edges
                let moved = std::mem::take(&mut communities[b as usize]);
                communities[a as usize].extend(moved);
                let b_edges: Vec<((u32, u32), u64)> = weight
                    .iter()
                    .filter(|(&(x, y), _)| x == b || y == b)
                    .map(|(&k, &w)| (k, w))
                    .collect();
                for (key, w) in b_edges {
                    weight.remove(&key);
                    let other = if key.0 == b { key.1 } else { key.0 };
                    if other != a {
                        *weight.entry((a.min(other), a.max(other))).or_insert(0) += w;
                    }
                }
            }
            communities.retain(|c| !c.is_empty());
            communities.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
        }

        // --- greedy affinity packing under the cap (streaming-partition
        // style): each community goes to the shard it shares the most
        // edges with, damped by that shard's fill — LPA fragments big
        // communities into many pieces, and raw least-loaded packing
        // would scatter one cluster's pieces across shards; edge
        // affinity glues them back together. Whatever exceeds the chosen
        // shard's headroom spills to the next pick, chunked along the
        // community's internal BFS order so split parts stay contiguous
        // subgraphs.
        let mut shard_of = vec![UNASSIGNED; n];
        let mut sizes = vec![0usize; k];
        let mut affinity = vec![0u64; k];
        for comm in &communities {
            let ordered = bfs_order_within(g, comm, &mut shard_of);
            affinity.iter_mut().for_each(|a| *a = 0);
            for &v in &ordered {
                let id = NodeId(v);
                for e in g.out_edges(id).iter().chain(g.in_edges(id)) {
                    let s = shard_of[e.node.index()];
                    if s != UNASSIGNED {
                        affinity[s as usize] += 1;
                    }
                }
            }
            let mut rest: &[u32] = &ordered;
            while !rest.is_empty() {
                // LDG score: affinity damped by fill; a full shard is out
                let s = (0..k)
                    .filter(|&s| sizes[s] < cap)
                    .max_by_key(|&s| {
                        let headroom = (cap - sizes[s]) as u64;
                        // affinity * headroom/cap, in integer arithmetic;
                        // least-loaded breaks ties (and the zero-affinity
                        // case of the first communities)
                        (
                            affinity[s] * headroom / cap as u64,
                            headroom,
                            usize::MAX - s,
                        )
                    })
                    .expect("cap * k >= n leaves room somewhere");
                let room = cap - sizes[s];
                let take = rest.len().min(room);
                for &v in &rest[..take] {
                    shard_of[v as usize] = s as u32;
                }
                sizes[s] += take;
                rest = &rest[take..];
            }
        }

        // --- boundary refinement
        refine_assignment(g, &mut shard_of, &mut sizes, cap);

        // --- no shard stays empty: since k ≤ |V|, every empty shard can
        // take one node from the currently largest shard (the packing
        // leaves shards empty when fewer than k communities existed and
        // none needed to spill — e.g. a 5-node path at k = 4)
        for s in 0..k {
            if sizes[s] > 0 {
                continue;
            }
            let donor = (0..k)
                .max_by_key(|&d| (sizes[d], usize::MAX - d))
                .expect("k >= 1");
            debug_assert!(sizes[donor] > 1, "k <= |V| guarantees a spare node");
            let v = shard_of
                .iter()
                .position(|&x| x == donor as u32)
                .expect("donor is nonempty");
            shard_of[v] = s as u32;
            sizes[donor] -= 1;
            sizes[s] += 1;
        }

        Partition::from_shard_of(shard_of, k)
    }

    /// Build a partition from an explicit node→shard assignment (every
    /// entry must be `< k`). This is the injection point for external
    /// partitioners — and for the degenerate cases the test suite pins
    /// (e.g. a partition cutting every edge).
    pub fn from_shard_of(shard_of: Vec<u32>, k: usize) -> Partition {
        let k = k.max(1);
        for (v, &s) in shard_of.iter().enumerate() {
            assert!((s as usize) < k, "node {v} assigned to shard {s} >= k={k}");
        }
        Partition { shard_of, k }
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes partitioned.
    pub fn node_count(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard holding node `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.shard_of[v.index()] as usize
    }

    /// Number of nodes in shard `s`.
    pub fn shard_size(&self, s: usize) -> usize {
        self.shard_of.iter().filter(|&&x| x as usize == s).count()
    }

    /// Resident bytes of the assignment.
    pub fn bytes(&self) -> usize {
        self.shard_of.len() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen::{clustered, essembly, synthetic};

    /// A row is colour-major, but the packing order is by id: node 0's
    /// out-row lists 3 (colour a) before 1 and 2 (colour b).
    #[test]
    fn community_bfs_queues_neighbors_by_id() {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..5).map(|i| b.add_node(&format!("v{i}"), [])).collect();
        let (a, c) = (b.color("a"), b.color("b"));
        b.add_edge(v[0], v[3], a);
        b.add_edge(v[0], v[2], c);
        b.add_edge(v[0], v[1], c);
        b.add_edge(v[4], v[0], a);
        let g = b.build();
        assert_eq!(g.out_edges(v[0])[0].node, v[3]);
        let mut scratch = vec![UNASSIGNED; 5];
        assert_eq!(
            bfs_order_within(&g, &[0, 1, 2, 3, 4], &mut scratch),
            [0, 1, 2, 3, 4]
        );
        assert!(scratch.iter().all(|&s| s == UNASSIGNED));
    }

    #[test]
    fn partition_is_balanced_and_total() {
        for k in [1usize, 2, 3, 4] {
            let g = synthetic(50, 180, 2, 3, 7);
            let p = Partition::edge_cut(&g, k);
            assert_eq!(p.k(), k);
            let total: usize = (0..k).map(|s| p.shard_size(s)).sum();
            assert_eq!(total, 50);
            let cap = 50usize.div_ceil(k);
            for s in 0..k {
                assert!(p.shard_size(s) <= cap, "shard {s} over cap");
                assert!(p.shard_size(s) >= 1, "shard {s} empty");
            }
        }
    }

    #[test]
    fn no_shard_left_empty() {
        // a 5-node path at k = 4: the packer alone would fill three
        // shards (cap = 2) and leave the fourth empty
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..5).map(|i| b.add_node(&format!("n{i}"), [])).collect();
        let c = b.color("c");
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], c);
        }
        let g = b.build();
        for k in 1..=5usize {
            let p = Partition::edge_cut(&g, k);
            assert_eq!(p.k(), k);
            for s in 0..k {
                assert!(p.shard_size(s) >= 1, "k={k}: shard {s} empty");
            }
            assert_eq!((0..k).map(|s| p.shard_size(s)).sum::<usize>(), 5);
        }
    }

    /// Cut edges of `g` under `p`.
    fn cut_count(g: &Graph, p: &Partition) -> usize {
        g.edges()
            .filter(|&(u, v, _)| p.shard_of(u) != p.shard_of(v))
            .count()
    }

    /// The sharding of a graph is total, in range, and deterministic: every
    /// node sits in exactly one shard `< k`, the shard sizes add up to
    /// `|V|`, and partitioning the same graph again assigns the same shards.
    fn check_invariants(g: &Graph, p: &Partition) {
        assert_eq!(p.node_count(), g.node_count());
        for v in g.nodes() {
            assert!(p.shard_of(v) < p.k(), "{v:?} in shard {}", p.shard_of(v));
        }
        let total: usize = (0..p.k()).map(|s| p.shard_size(s)).sum();
        assert_eq!(total, g.node_count());
        assert_eq!(p.bytes(), g.node_count() * 4);
        let again = Partition::edge_cut(g, p.k());
        assert!(g.nodes().all(|v| again.shard_of(v) == p.shard_of(v)));
    }

    #[test]
    fn sharded_graph_invariants() {
        for k in [1usize, 2, 3, 4] {
            let g = synthetic(60, 240, 2, 3, 11);
            let p = Partition::edge_cut(&g, k);
            check_invariants(&g, &p);
            if k == 1 {
                assert_eq!(cut_count(&g, &p), 0, "one shard cuts nothing");
            }
        }
        let e = essembly();
        check_invariants(&e, &Partition::edge_cut(&e, 3));
    }

    #[test]
    fn clustered_graphs_cut_few_edges() {
        let g = clustered(400, 1600, 4, 2, 3, 30, 5);
        let p = Partition::edge_cut(&g, 4);
        let cut = g
            .edges()
            .filter(|&(u, v, _)| p.shard_of(u) != p.shard_of(v));
        let ratio = cut.count() as f64 / g.edge_count() as f64;
        assert!(
            ratio < 0.25,
            "partitioner should recover most of the community structure, got {:.1}% cut",
            100.0 * ratio
        );
        let largest = (0..4).map(|s| p.shard_size(s)).max().unwrap();
        assert_eq!(largest, 100, "balanced at |V|/k");
        assert_eq!(p.bytes(), 400 * 4);
    }

    #[test]
    fn explicit_partition_and_degenerate_cut() {
        // even/odd split of a path graph cuts every edge
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..8).map(|i| b.add_node(&format!("n{i}"), [])).collect();
        let c = b.color("c");
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1], c);
        }
        let g = b.build();
        let shard_of: Vec<u32> = (0..8).map(|v| (v % 2) as u32).collect();
        let p = Partition::from_shard_of(shard_of, 2);
        assert_eq!(p.k(), 2);
        assert_eq!((p.shard_size(0), p.shard_size(1)), (4, 4));
        assert!(nodes.iter().all(|&v| p.shard_of(v) == v.index() % 2));
        assert_eq!(cut_count(&g, &p), g.edge_count());
        // one singleton shard per node cuts every edge as well
        let singletons = Partition::edge_cut(&g, 8);
        assert_eq!(cut_count(&g, &singletons), g.edge_count());
    }

    #[test]
    #[should_panic(expected = ">= k")]
    fn from_shard_of_validates() {
        Partition::from_shard_of(vec![0, 5], 2);
    }

    #[test]
    fn handles_k_larger_than_n_and_empty() {
        let g = synthetic(3, 2, 1, 1, 1);
        let p = Partition::edge_cut(&g, 10);
        assert_eq!(p.k(), 3, "k clamps to |V|");
        assert!((0..3).all(|s| p.shard_size(s) == 1));
        let empty = Partition::edge_cut(&GraphBuilder::new().build(), 4);
        assert_eq!((empty.k(), empty.node_count()), (1, 0));
    }
}
