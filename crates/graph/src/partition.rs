//! Edge-cut graph partitioning and the sharded storage view.
//!
//! Every index in this workspace — the dense
//! [`DistanceMatrix`](crate::DistanceMatrix), the pruned 2-hop labels of
//! `rpq-index` — is
//! built against **one** resident [`Graph`], so the whole system is capped
//! by the memory of a single index build. This module is the storage half
//! of the way past that cap:
//!
//! * [`Partition`] — an assignment of nodes to `k` shards with dense
//!   *local* ids per shard and both directions of the local↔global id map.
//!   [`Partition::edge_cut`] computes one with a seeded multi-source BFS
//!   ("bubble growing": `k` spread-out seeds grow balanced regions in
//!   round-robin) followed by a bounded label-propagation refinement that
//!   moves nodes to their neighbor-majority shard while balance allows —
//!   cheap, deterministic, and effective on graphs with community
//!   structure (the graphs one shards in practice). Any other assignment
//!   can be injected through [`Partition::from_shard_of`].
//! * [`ShardedGraph`] — the partitioned image of a graph: `k` per-shard
//!   [`Graph`]s over local ids (each carrying only intra-shard edges, with
//!   labels, attributes and the shared vocabulary preserved), the list of
//!   **cut edges** (edges crossing shards, in global ids), and the
//!   **boundary nodes** (endpoints of cut edges) that any cross-shard path
//!   must thread through. The boundary is what `rpq-index` builds its
//!   overlay distance labels over.
//!
//! The exactness contract the index layer relies on: a path either stays
//! inside one shard (then it lives in that shard's local graph verbatim)
//! or it uses at least one cut edge — in which case it decomposes into an
//! intra-shard prefix to the first cut edge's source, an alternation of
//! cut edges and intra-shard boundary-to-boundary segments, and an
//! intra-shard suffix from the last cut edge's target. Both endpoints of
//! every cut edge are boundary nodes, so the decomposition is entirely
//! visible to per-shard indices plus a boundary overlay.

use crate::builder::GraphBuilder;
use crate::color::Color;
use crate::graph::{Graph, NodeId};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// BFS order of `comm`'s members over the subgraph they induce, started
/// from the lowest-id member; members unreached within the community
/// (it need not be connected) restart the BFS in ascending order. Uses
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
            for e in g.out_edges(u).iter().chain(g.in_edges(u)) {
                if scratch[e.node.index()] == IN_COMM {
                    scratch[e.node.index()] = UNASSIGNED;
                    order.push(e.node.0);
                    queue.push_back(e.node);
                }
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

/// An assignment of graph nodes to `k` shards, with per-shard dense local
/// ids and the maps between local and global id spaces.
#[derive(Debug, Clone)]
pub struct Partition {
    /// global node index → shard.
    shard_of: Vec<u32>,
    /// global node index → dense local id within its shard.
    local_of: Vec<u32>,
    /// shard → local id → global node.
    globals: Vec<Vec<NodeId>>,
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
    /// BFS-ordered chunks — no partitioner does better there, and the
    /// sharded index stays exact either way, only less economical.
    pub fn edge_cut(g: &Graph, k: usize) -> Partition {
        let n = g.node_count();
        let k = k.clamp(1, n.max(1));
        if n == 0 {
            return Partition::from_shard_of(Vec::new(), k);
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
    /// entry must be `< k`). Local ids are dense per shard, in ascending
    /// global order. This is the injection point for external partitioners
    /// — and for the degenerate cases the test suite pins (e.g. a
    /// partition cutting every edge).
    pub fn from_shard_of(shard_of: Vec<u32>, k: usize) -> Partition {
        let k = k.max(1);
        let mut globals: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        let mut local_of = vec![0u32; shard_of.len()];
        for (v, &s) in shard_of.iter().enumerate() {
            assert!((s as usize) < k, "node {v} assigned to shard {s} >= k={k}");
            local_of[v] = globals[s as usize].len() as u32;
            globals[s as usize].push(NodeId(v as u32));
        }
        Partition {
            shard_of,
            local_of,
            globals,
        }
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.globals.len()
    }

    /// Number of nodes partitioned.
    pub fn node_count(&self) -> usize {
        self.shard_of.len()
    }

    /// The shard holding global node `v`.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        self.shard_of[v.index()] as usize
    }

    /// The local id of global node `v` within its shard.
    #[inline]
    pub fn local_of(&self, v: NodeId) -> NodeId {
        NodeId(self.local_of[v.index()])
    }

    /// Both halves of the global→local map at once.
    #[inline]
    pub fn to_local(&self, v: NodeId) -> (usize, NodeId) {
        (self.shard_of(v), self.local_of(v))
    }

    /// The global node behind local id `local` of shard `s`.
    #[inline]
    pub fn to_global(&self, s: usize, local: NodeId) -> NodeId {
        self.globals[s][local.index()]
    }

    /// All global nodes of shard `s`, in local-id order.
    pub fn shard_nodes(&self, s: usize) -> &[NodeId] {
        &self.globals[s]
    }

    /// Number of nodes in shard `s`.
    pub fn shard_size(&self, s: usize) -> usize {
        self.globals[s].len()
    }
}

/// Aggregate shape of a [`ShardedGraph`], for logs, benches and planning.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Number of shards.
    pub shards: usize,
    /// Total nodes.
    pub nodes: usize,
    /// Total edges (intra-shard + cut).
    pub edges: usize,
    /// Edges crossing shards.
    pub cut_edges: usize,
    /// Nodes incident to at least one cut edge.
    pub boundary_nodes: usize,
    /// Largest shard, in nodes.
    pub max_shard_nodes: usize,
    /// Smallest shard, in nodes.
    pub min_shard_nodes: usize,
}

impl ShardStats {
    /// Fraction of edges cut by the partition (0 when the graph is empty).
    pub fn edge_cut_ratio(&self) -> f64 {
        if self.edges == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.edges as f64
        }
    }

    /// Largest shard relative to the ideal `|V|/k` (1.0 = perfectly
    /// balanced).
    pub fn balance(&self) -> f64 {
        if self.nodes == 0 {
            1.0
        } else {
            self.max_shard_nodes as f64 / (self.nodes as f64 / self.shards as f64)
        }
    }
}

impl std::fmt::Display for ShardStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shards over {} nodes / {} edges: {} cut ({:.1}%), {} boundary nodes, balance {:.2}",
            self.shards,
            self.nodes,
            self.edges,
            self.cut_edges,
            100.0 * self.edge_cut_ratio(),
            self.boundary_nodes,
            self.balance()
        )
    }
}

/// Shard `s` of `graph` under `partition` as a standalone local graph:
/// the shard's nodes (labels and attributes preserved, dense local ids
/// in `shard_nodes` order) plus exactly its intra-shard edges.
fn build_shard_graph(graph: &Graph, partition: &Partition, s: usize) -> Graph {
    let mut b = GraphBuilder::with_vocabulary(graph.schema().clone(), graph.alphabet().clone());
    for &v in partition.shard_nodes(s) {
        let pairs: Vec<_> = graph
            .attrs(v)
            .iter()
            .map(|(id, val)| (id, val.clone()))
            .collect();
        b.add_node(graph.label(v), pairs);
    }
    for &v in partition.shard_nodes(s) {
        let lu = partition.local_of(v);
        for e in graph.out_edges(v) {
            let (sv, lv) = partition.to_local(e.node);
            if sv == s {
                b.add_edge(lu, lv, e.color);
            }
        }
    }
    b.build()
}

/// The cross-shard edges of `graph` under `partition`: one O(|E|) scan.
fn scan_cut_edges(graph: &Graph, partition: &Partition) -> Vec<(NodeId, NodeId, Color)> {
    graph
        .edges()
        .filter(|&(u, v, _)| partition.shard_of(u) != partition.shard_of(v))
        .collect()
}

/// A graph stored as `k` per-shard local graphs plus the cross-shard
/// residue: cut edges and the boundary-node directory. The shards share
/// the original vocabulary (schema and alphabet), so queries authored
/// against the global graph parse and evaluate against any shard.
#[derive(Debug)]
pub struct ShardedGraph {
    graph: Arc<Graph>,
    partition: Partition,
    /// Per-shard local graphs, `Arc`'d so the incremental constructor
    /// ([`ShardedGraph::apply_updates`]) can carry untouched shards into
    /// the successor for free.
    shards: Vec<Arc<Graph>>,
    /// per shard: boundary nodes as **local** ids, ascending.
    boundary_locals: Vec<Vec<NodeId>>,
    /// all boundary nodes as **global** ids, ascending — this order is the
    /// overlay id space of `rpq-index`.
    boundary_globals: Vec<NodeId>,
    /// global node index → overlay id ([`UNASSIGNED`] when interior).
    overlay_of: Vec<u32>,
    /// cross-shard edges, global ids.
    cut_edges: Vec<(NodeId, NodeId, Color)>,
}

impl ShardedGraph {
    /// Shard `g` into `k` pieces with the built-in edge-cut partitioner.
    pub fn new(graph: Arc<Graph>, k: usize) -> ShardedGraph {
        let partition = Partition::edge_cut(&graph, k);
        Self::with_partition(graph, partition)
    }

    /// Shard `g` along an explicit partition (which must cover exactly
    /// `g`'s nodes).
    pub fn with_partition(graph: Arc<Graph>, partition: Partition) -> ShardedGraph {
        assert_eq!(
            partition.node_count(),
            graph.node_count(),
            "partition must cover the graph"
        );
        let cut_edges = scan_cut_edges(&graph, &partition);
        Self::assemble(graph, partition, cut_edges, |_| None)
    }

    /// The one constructor — a fresh build is maintenance from nothing:
    /// [`with_partition`](ShardedGraph::with_partition) carries no shard,
    /// [`apply_updates`](ShardedGraph::apply_updates) carries its untouched
    /// ones. A shard `carried` yields is taken by `Arc` (the caller vouches
    /// that its intra-shard edges are unchanged), every
    /// other local graph is built from `graph`. The boundary directory —
    /// per-shard boundary locals (ascending), the global boundary list
    /// whose index order **is** the overlay id space, and the
    /// global→overlay map — is derived from the cut-edge *set*
    /// (order-insensitive, so a patched cut list yields the same directory
    /// as a from-scratch scan).
    fn assemble(
        graph: Arc<Graph>,
        partition: Partition,
        cut_edges: Vec<(NodeId, NodeId, Color)>,
        carried: impl Fn(usize) -> Option<Arc<Graph>>,
    ) -> ShardedGraph {
        let n = graph.node_count();
        let k = partition.k();
        let shards: Vec<Arc<Graph>> = (0..k)
            .map(|s| {
                carried(s).unwrap_or_else(|| Arc::new(build_shard_graph(&graph, &partition, s)))
            })
            .collect();
        let mut is_boundary = vec![false; n];
        for &(u, v, _) in &cut_edges {
            is_boundary[u.index()] = true;
            is_boundary[v.index()] = true;
        }
        let mut boundary_globals = Vec::new();
        let mut overlay_of = vec![UNASSIGNED; n];
        let mut boundary_locals: Vec<Vec<NodeId>> = vec![Vec::new(); k];
        for v in 0..n {
            if is_boundary[v] {
                overlay_of[v] = boundary_globals.len() as u32;
                let id = NodeId(v as u32);
                boundary_globals.push(id);
                boundary_locals[partition.shard_of(id)].push(partition.local_of(id));
            }
        }
        ShardedGraph {
            graph,
            partition,
            shards,
            boundary_locals,
            boundary_globals,
            overlay_of,
            cut_edges,
        }
    }

    /// Re-image this sharded view onto `new_graph` **without re-sharding**:
    /// the partition is kept verbatim, only shards containing an endpoint
    /// pair of an *intra-shard* change get their local graph rebuilt
    /// (everything else is carried by `Arc`), cross-shard changes patch
    /// the cut-edge list in place, and the boundary directory is
    /// re-derived from the patched cut. For a batch touching a handful of
    /// shards this is O(touched shard size + |changes| + |cut| + |V|)
    /// instead of the O(|V| + |E|) full reconstruction of
    /// [`ShardedGraph::with_partition`].
    ///
    /// Preconditions: `new_graph` has the same node set (count, labels,
    /// attrs) as the current graph — updates here are edge-only — and
    /// `changes` lists the edge deltas: an entry present in `new_graph`
    /// is an insert, an absent one a delete. Ineffective entries (inserts
    /// of pre-existing edges, deletes of never-present ones) are ignored.
    ///
    /// The result is observationally identical to
    /// `with_partition(new_graph, partition.clone())` — same shard
    /// graphs, boundary directory and cut-edge *set* (the patched list
    /// may order cut edges differently, which nothing downstream depends
    /// on).
    pub fn apply_updates(
        &self,
        new_graph: Arc<Graph>,
        changes: &[(NodeId, NodeId, Color)],
    ) -> ShardedGraph {
        assert_eq!(
            new_graph.node_count(),
            self.graph.node_count(),
            "apply_updates is edge-only: the node set must not change"
        );
        let partition = self.partition.clone();
        let mut touched = vec![false; self.k()];
        let mut cross_deletes: std::collections::HashSet<(NodeId, NodeId, Color)> =
            std::collections::HashSet::new();
        let mut cross_inserts: Vec<(NodeId, NodeId, Color)> = Vec::new();
        for &(u, v, c) in changes {
            if partition.shard_of(u) == partition.shard_of(v) {
                touched[partition.shard_of(u)] = true;
            } else if new_graph.has_edge(u, v, c) {
                if !self.graph.has_edge(u, v, c) && !cross_inserts.contains(&(u, v, c)) {
                    cross_inserts.push((u, v, c));
                }
            } else if self.graph.has_edge(u, v, c) {
                cross_deletes.insert((u, v, c));
            }
        }
        let mut cut_edges: Vec<(NodeId, NodeId, Color)> = if cross_deletes.is_empty() {
            self.cut_edges.clone()
        } else {
            self.cut_edges
                .iter()
                .filter(|e| !cross_deletes.contains(e))
                .copied()
                .collect()
        };
        cut_edges.extend(cross_inserts);
        Self::assemble(new_graph, partition, cut_edges, |s| {
            (!touched[s]).then(|| Arc::clone(&self.shards[s]))
        })
    }

    /// Number of shards.
    pub fn k(&self) -> usize {
        self.shards.len()
    }

    /// The original (global) graph.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The node→shard assignment and id maps.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Shard `s` as a standalone local graph.
    pub fn shard(&self, s: usize) -> &Graph {
        &self.shards[s]
    }

    /// All per-shard graphs (`Arc`'d — incremental successors share
    /// untouched shards with their predecessor).
    pub fn shards(&self) -> &[Arc<Graph>] {
        &self.shards
    }

    /// Boundary nodes of shard `s` as local ids, ascending.
    pub fn boundary_locals(&self, s: usize) -> &[NodeId] {
        &self.boundary_locals[s]
    }

    /// Every boundary node (global ids, ascending) — index into this slice
    /// is the node's *overlay id*.
    pub fn boundary_globals(&self) -> &[NodeId] {
        &self.boundary_globals
    }

    /// The overlay id of global node `v`, if it is a boundary node.
    #[inline]
    pub fn overlay_index(&self, v: NodeId) -> Option<u32> {
        let o = self.overlay_of[v.index()];
        (o != UNASSIGNED).then_some(o)
    }

    /// The cross-shard edges, in global ids.
    pub fn cut_edges(&self) -> &[(NodeId, NodeId, Color)] {
        &self.cut_edges
    }

    /// Shape summary.
    pub fn stats(&self) -> ShardStats {
        let sizes = (0..self.k()).map(|s| self.partition.shard_size(s));
        ShardStats {
            shards: self.k(),
            nodes: self.graph.node_count(),
            edges: self.graph.edge_count(),
            cut_edges: self.cut_edges.len(),
            boundary_nodes: self.boundary_globals.len(),
            max_shard_nodes: sizes.clone().max().unwrap_or(0),
            min_shard_nodes: sizes.min().unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{clustered, essembly, synthetic};

    fn check_invariants(sg: &ShardedGraph) {
        let g = sg.graph();
        let p = sg.partition();
        // id maps round-trip
        for v in g.nodes() {
            let (s, l) = p.to_local(v);
            assert_eq!(p.to_global(s, l), v);
            let local = sg.shard(s);
            assert_eq!(local.label(l), g.label(v), "labels preserved");
            assert_eq!(local.attrs(l), g.attrs(v), "attrs preserved");
        }
        // every edge is either local (with translated endpoints) or cut
        let intra: usize = (0..sg.k()).map(|s| sg.shard(s).edge_count()).sum();
        assert_eq!(intra + sg.cut_edges().len(), g.edge_count());
        for &(u, v, c) in sg.cut_edges() {
            assert_ne!(p.shard_of(u), p.shard_of(v));
            assert!(g.has_edge(u, v, c));
            assert!(sg.overlay_index(u).is_some(), "cut source is boundary");
            assert!(sg.overlay_index(v).is_some(), "cut target is boundary");
        }
        for (u, v, c) in g.edges() {
            let (su, lu) = p.to_local(u);
            let (sv, lv) = p.to_local(v);
            if su == sv {
                assert!(sg.shard(su).has_edge(lu, lv, c));
            }
        }
        // overlay ids are dense over the ascending boundary list
        for (i, &b) in sg.boundary_globals().iter().enumerate() {
            assert_eq!(sg.overlay_index(b), Some(i as u32));
        }
        let boundary_total: usize = (0..sg.k()).map(|s| sg.boundary_locals(s).len()).sum();
        assert_eq!(boundary_total, sg.boundary_globals().len());
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

    #[test]
    fn sharded_graph_invariants() {
        for k in [1usize, 2, 3, 4] {
            let g = Arc::new(synthetic(60, 240, 2, 3, 11));
            check_invariants(&ShardedGraph::new(Arc::clone(&g), k));
        }
        check_invariants(&ShardedGraph::new(Arc::new(essembly()), 3));
    }

    #[test]
    fn clustered_graphs_cut_few_edges() {
        let g = Arc::new(clustered(400, 1600, 4, 2, 3, 30, 5));
        let sg = ShardedGraph::new(Arc::clone(&g), 4);
        let stats = sg.stats();
        assert!(
            stats.edge_cut_ratio() < 0.25,
            "partitioner should recover most of the community structure, got {:.1}% cut",
            100.0 * stats.edge_cut_ratio()
        );
        assert!(stats.balance() <= 1.01 + 1e-9);
        let line = stats.to_string();
        assert!(line.contains("4 shards"), "{line}");
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
        let g = Arc::new(b.build());
        let shard_of: Vec<u32> = (0..8).map(|v| (v % 2) as u32).collect();
        let sg =
            ShardedGraph::with_partition(Arc::clone(&g), Partition::from_shard_of(shard_of, 2));
        assert_eq!(sg.cut_edges().len(), g.edge_count());
        assert_eq!(sg.boundary_globals().len(), 8);
        assert_eq!(sg.shard(0).edge_count() + sg.shard(1).edge_count(), 0);
        check_invariants(&sg);
    }

    #[test]
    fn handles_k_larger_than_n_and_empty() {
        let g = Arc::new(synthetic(3, 2, 1, 1, 1));
        let sg = ShardedGraph::new(Arc::clone(&g), 10);
        assert_eq!(sg.k(), 3, "k clamps to |V|");
        check_invariants(&sg);
        let empty = Arc::new(GraphBuilder::new().build());
        let se = ShardedGraph::new(Arc::clone(&empty), 4);
        assert_eq!(se.graph().node_count(), 0);
        assert_eq!(se.stats().edge_cut_ratio(), 0.0);
    }

    #[test]
    #[should_panic(expected = ">= k")]
    fn from_shard_of_validates() {
        Partition::from_shard_of(vec![0, 5], 2);
    }

    fn lcg(s: &mut u64) -> u64 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s >> 33
    }

    /// Apply `count` pseudo-random edge flips to `g`, returning the new
    /// graph and the effective change list (`apply_updates`'s contract).
    fn random_mutation_round(
        g: &Graph,
        count: usize,
        seed: u64,
    ) -> (Graph, Vec<(NodeId, NodeId, Color)>) {
        let n = g.node_count() as u64;
        let m = g.alphabet().len() as u64;
        let mut b = GraphBuilder::from_graph(g);
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut eff = Vec::new();
        for _ in 0..count {
            let u = NodeId((lcg(&mut s) % n) as u32);
            let v = NodeId((lcg(&mut s) % n) as u32);
            let c = Color((lcg(&mut s) % m) as u8);
            let applied = match lcg(&mut s) % 2 {
                0 => b.insert_edge(u, v, c) || b.remove_edge(u, v, c),
                _ => b.remove_edge(u, v, c) || b.insert_edge(u, v, c),
            };
            if applied {
                eff.push((u, v, c));
            }
        }
        (b.build(), eff)
    }

    /// The two sharded views expose the same storage: partitions,
    /// per-shard graphs, boundary directories, and cut-edge sets.
    fn assert_same_view(a: &ShardedGraph, b: &ShardedGraph) {
        assert_eq!(a.k(), b.k());
        assert_eq!(a.graph().node_count(), b.graph().node_count());
        assert_eq!(a.boundary_globals(), b.boundary_globals());
        for v in a.graph().nodes() {
            assert_eq!(a.overlay_index(v), b.overlay_index(v));
            assert_eq!(a.partition().to_local(v), b.partition().to_local(v));
        }
        for s in 0..a.k() {
            assert_eq!(a.boundary_locals(s), b.boundary_locals(s), "shard {s}");
            assert_eq!(a.partition().shard_nodes(s), b.partition().shard_nodes(s));
            let (ga, gb) = (a.shard(s), b.shard(s));
            assert_eq!(ga.node_count(), gb.node_count(), "shard {s}");
            let ea: Vec<_> = ga.edges().collect();
            let eb: Vec<_> = gb.edges().collect();
            assert_eq!(ea, eb, "shard {s} edges");
        }
        let mut ca = a.cut_edges().to_vec();
        let mut cb = b.cut_edges().to_vec();
        ca.sort_unstable();
        cb.sort_unstable();
        assert_eq!(ca, cb, "cut-edge sets");
    }

    #[test]
    fn apply_updates_matches_full_resharding() {
        let mut g = Arc::new(synthetic(80, 320, 2, 3, 19));
        let mut sg = ShardedGraph::new(Arc::clone(&g), 3);
        for round in 0..4u64 {
            let (next, changes) = random_mutation_round(&g, 12, 1000 + round);
            let next = Arc::new(next);
            let inc = sg.apply_updates(Arc::clone(&next), &changes);
            let full = ShardedGraph::with_partition(Arc::clone(&next), sg.partition().clone());
            assert_same_view(&inc, &full);
            check_invariants(&inc);
            g = next;
            sg = inc;
        }
    }

    #[test]
    fn apply_updates_carries_untouched_shards_by_pointer() {
        let g = Arc::new(synthetic(60, 240, 2, 3, 23));
        let sg = ShardedGraph::new(Arc::clone(&g), 4);
        // one intra-shard insert in shard 0's first two nodes
        let p = sg.partition();
        let (a, b) = (p.to_global(0, NodeId(0)), p.to_global(0, NodeId(1)));
        let mut builder = GraphBuilder::from_graph(&g);
        let c = Color(0);
        let applied = builder.insert_edge(a, b, c) || builder.remove_edge(a, b, c);
        assert!(applied);
        let next = Arc::new(builder.build());
        let inc = sg.apply_updates(Arc::clone(&next), &[(a, b, c)]);
        for s in 1..sg.k() {
            assert!(
                Arc::ptr_eq(&sg.shards()[s], &inc.shards()[s]),
                "untouched shard {s} should be carried by Arc"
            );
        }
        assert!(!Arc::ptr_eq(&sg.shards()[0], &inc.shards()[0]));
        // a purely cross-shard change carries every shard
        let u = p.to_global(1, NodeId(0));
        let mut builder = GraphBuilder::from_graph(&next);
        let applied = builder.insert_edge(a, u, c) || builder.remove_edge(a, u, c);
        assert!(applied);
        let after = Arc::new(builder.build());
        let inc2 = inc.apply_updates(Arc::clone(&after), &[(a, u, c)]);
        for s in 0..inc.k() {
            assert!(Arc::ptr_eq(&inc.shards()[s], &inc2.shards()[s]));
        }
        assert_same_view(
            &inc2,
            &ShardedGraph::with_partition(after, inc.partition().clone()),
        );
    }
}
