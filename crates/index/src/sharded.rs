//! The sharded backend: the graph it was built for, an edge-cut
//! [`Partition`] of that graph, and a pool of sweep buffers.
//!
//! Every question is a bounded sweep of the graph through
//! [`GraphProbe`] — the paper's §4 BFS evaluator: bounded scans, the
//! nonempty-cycle test, whole `Join` steps, and the point probes
//! [`DistProbe::dist`] and [`DistProbe::reaches_within`] too. So the
//! backend answers exactly what the search backend answers. The partition
//! answers nothing; a [`repair`](ShardedLabels::repair) carries it to the
//! next version and counts the shards holding an intra-shard change.
//!
//! The regime is the graph plus a partition, kept because the benchmark's
//! `sharded_live` workload is configured into it and reads its plan
//! names, its index bytes and its per-write shard counts.

use crate::probe::{DistProbe, GraphProbe, SweepPool};
use rpq_graph::{Color, Graph, NodeId, Partition};
use std::sync::Arc;

/// Shape of a [`ShardedLabels`], for logs and the `index_bytes` gauge.
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// Number of shards.
    pub shards: usize,
    /// Nodes covered.
    pub nodes: usize,
    /// Resident bytes of the partition.
    pub partition_bytes: usize,
}

impl ShardedStats {
    /// Total footprint: the partition; the graph is the engine's.
    pub fn total_bytes(&self) -> usize {
        self.partition_bytes
    }
}

/// A graph and an edge-cut partition of it, answering every
/// [`DistProbe`] question by sweeping the graph. See the module docs.
#[derive(Debug)]
pub struct ShardedLabels {
    graph: Arc<Graph>,
    partition: Partition,
    /// Buffers for the sweeps over `graph`.
    sweeps: SweepPool,
}

impl ShardedLabels {
    /// Partition `g` into `shards` pieces ([`Partition::edge_cut`], which
    /// clamps the count to `1..=|V|`).
    pub fn build(g: &Arc<Graph>, shards: usize) -> Self {
        Self::over(Arc::clone(g), Partition::edge_cut(g, shards))
    }

    fn over(graph: Arc<Graph>, partition: Partition) -> Self {
        ShardedLabels {
            graph,
            partition,
            sweeps: SweepPool::default(),
        }
    }

    /// The index of `new_graph` — this index's graph with the edge
    /// `changes` applied, both inserts and deletes — and the number of
    /// shards holding an intra-shard change. The partition is carried
    /// verbatim: an edge update keeps the node set, so the node→shard
    /// assignment stays fixed for the life of the index.
    pub fn repair(
        &self,
        new_graph: Arc<Graph>,
        changes: &[(NodeId, NodeId, Color)],
    ) -> (ShardedLabels, usize) {
        assert_eq!(
            new_graph.node_count(),
            self.graph.node_count(),
            "edge updates must keep the node set"
        );
        let mut touched = vec![false; self.partition.k()];
        for &(u, v, _) in changes {
            let s = self.partition.shard_of(u);
            if s == self.partition.shard_of(v) {
                touched[s] = true;
            }
        }
        let touched = touched.into_iter().filter(|&t| t).count();
        (Self::over(new_graph, self.partition.clone()), touched)
    }

    /// The node→shard assignment.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Is `color` answerable? True for every concrete color, false for
    /// the wildcard — as for [`HopLabels::has_layer`](crate::HopLabels::has_layer).
    pub fn has_layer(&self, color: Color) -> bool {
        !color.is_wildcard()
    }

    /// Shape statistics.
    pub fn stats(&self) -> ShardedStats {
        ShardedStats {
            shards: self.partition.k(),
            nodes: self.partition.node_count(),
            partition_bytes: self.partition.bytes(),
        }
    }

    /// The graph this index was built or repaired for, with this index's
    /// sweep buffers.
    fn graph_probe(&self) -> GraphProbe<'_> {
        GraphProbe::with_pool(&self.graph, &self.sweeps)
    }
}

impl DistProbe for ShardedLabels {
    fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    fn dist(&self, from: NodeId, to: NodeId, color: Color) -> u16 {
        self.graph_probe().dist(from, to, color)
    }

    fn for_each_within(&self, from: NodeId, color: Color, max: u16, f: &mut dyn FnMut(NodeId)) {
        self.graph_probe().for_each_within(from, color, max, f);
    }

    fn for_each_reaching_within(
        &self,
        g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
        f: &mut dyn FnMut(NodeId),
    ) {
        self.graph_probe()
            .for_each_reaching_within(g, from, color, max_len, f);
    }

    fn for_each_reaching_from(
        &self,
        g: &Graph,
        frontier: &[NodeId],
        color: Color,
        max_len: Option<u32>,
        f: &mut dyn FnMut(NodeId),
    ) {
        self.graph_probe()
            .for_each_reaching_from(g, frontier, color, max_len, f);
    }

    fn has_cycle_within(
        &self,
        g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        self.graph_probe().has_cycle_within(g, from, color, max_len)
    }

    fn reaches_within(
        &self,
        g: &Graph,
        from: NodeId,
        to: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        self.graph_probe()
            .reaches_within(g, from, to, color, max_len)
    }

    fn sources_reaching_within(
        &self,
        g: &Graph,
        sources: &[NodeId],
        targets: &[NodeId],
        color: Color,
        max_len: Option<u32>,
    ) -> Vec<bool> {
        self.graph_probe()
            .sources_reaching_within(g, sources, targets, color, max_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::pairwise_sources_reaching;
    use rpq_graph::gen::{clustered, essembly, synthetic};
    use rpq_graph::{DistanceMatrix, GraphBuilder};

    /// The largest finite distance a probe reports.
    const DIST_CAP: u16 = u16::MAX - 1;

    fn all_colors(g: &Graph) -> Vec<Color> {
        g.alphabet().colors().collect()
    }

    fn assert_probe_parity(g: &Arc<Graph>, labels: &ShardedLabels) {
        let m = DistanceMatrix::build(g);
        for c in all_colors(g) {
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        DistProbe::dist(labels, u, v, c),
                        m.dist(u, v, c),
                        "dist({u:?},{v:?},{c:?})"
                    );
                }
                for max in [0u16, 1, 2, 5, DIST_CAP] {
                    let mut want = vec![false; g.node_count()];
                    DistProbe::for_each_within(&m, u, c, max, &mut |z| want[z.index()] = true);
                    let mut got = vec![false; g.node_count()];
                    labels.for_each_within(u, c, max, &mut |z| got[z.index()] = true);
                    assert_eq!(got, want, "scan from {u:?} color {c:?} max {max}");
                }
            }
        }
    }

    /// The shards holding an intra-shard change of `changes` under `p`.
    fn shards_touched(p: &Partition, changes: &[(NodeId, NodeId, Color)]) -> usize {
        let mut shards: Vec<usize> = (changes.iter())
            .filter(|&&(u, v, _)| p.shard_of(u) == p.shard_of(v))
            .map(|&(u, _, _)| p.shard_of(u))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards.len()
    }

    /// Node `v` in shard `v % 2`: every edge between nodes of different
    /// parity is cut.
    fn even_odd(g: &Arc<Graph>) -> ShardedLabels {
        let shard_of = (0..g.node_count() as u32).map(|v| v % 2).collect();
        ShardedLabels::over(Arc::clone(g), Partition::from_shard_of(shard_of, 2))
    }

    #[test]
    fn parity_on_synthetic_graphs() {
        for (seed, k) in [(5u64, 2usize), (9, 3), (23, 4)] {
            let g = Arc::new(synthetic(40, 150, 2, 3, seed));
            let labels = ShardedLabels::build(&g, k);
            assert_eq!(labels.partition().k(), k);
            assert_probe_parity(&g, &labels);
        }
    }

    #[test]
    fn parity_on_clustered_and_essembly() {
        let g = Arc::new(clustered(80, 320, 4, 2, 3, 80, 3));
        assert_probe_parity(&g, &ShardedLabels::build(&g, 4));
        let e = Arc::new(essembly());
        assert_probe_parity(&e, &ShardedLabels::build(&e, 3));
    }

    /// Two colors on an even ring with odd-length chords: an even/odd
    /// partition cuts every edge.
    fn all_cut_ring(chords: bool) -> (Arc<Graph>, Vec<NodeId>, [Color; 2]) {
        let mut b = GraphBuilder::new();
        let nodes: Vec<NodeId> = (0..12).map(|i| b.add_node(&format!("n{i}"), [])).collect();
        let r = b.color("r");
        let s = b.color("s");
        for i in 0..12 {
            b.add_edge(
                nodes[i],
                nodes[(i + 1) % 12],
                if i % 2 == 0 { r } else { s },
            );
            if chords {
                b.add_edge(nodes[i], nodes[(i + 5) % 12], r);
            }
        }
        (Arc::new(b.build()), nodes, [r, s])
    }

    #[test]
    fn parity_with_every_edge_cut() {
        let (g, _, _) = all_cut_ring(true);
        let labels = even_odd(&g);
        let part = labels.partition();
        let cut = g
            .edges()
            .filter(|&(u, v, _)| part.shard_of(u) != part.shard_of(v));
        assert_eq!(cut.count(), g.edge_count(), "degenerate cut");
        assert_probe_parity(&g, &labels);
    }

    #[test]
    fn bulk_matches_pairwise_and_matrix() {
        for (seed, k) in [(11u64, 2usize), (29, 3), (77, 4)] {
            let g = Arc::new(synthetic(50, 200, 2, 3, seed));
            let m = DistanceMatrix::build(&g);
            let labels = ShardedLabels::build(&g, k);
            let nodes: Vec<NodeId> = g.nodes().collect();
            let every_3rd: Vec<NodeId> = nodes.iter().copied().step_by(3).collect();
            let subsets: [(&[NodeId], &[NodeId]); 5] = [
                (&nodes[0..20], &nodes[25..45]),
                (&nodes[10..35], &nodes[20..30]),
                (&nodes[0..50], &nodes[0..50]),
                (&nodes[7..8], &nodes[7..8]),
                (&nodes[0..50], &every_3rd),
            ];
            for c in all_colors(&g) {
                for (sources, targets) in subsets {
                    for max in [None, Some(0u32), Some(1), Some(2), Some(7)] {
                        let got = labels.sources_reaching_within(&g, sources, targets, c, max);
                        let want = pairwise_sources_reaching(&m, &g, sources, targets, c, max);
                        assert_eq!(got, want, "bulk({c:?}, within {max:?}, seed {seed}, k {k})");
                    }
                }
            }
        }
    }

    #[test]
    fn reaches_and_cycles_agree_with_matrix() {
        let g = Arc::new(synthetic(36, 140, 2, 2, 13));
        let m = DistanceMatrix::build(&g);
        let labels = ShardedLabels::build(&g, 3);
        for c in all_colors(&g) {
            for u in g.nodes() {
                for max in [None, Some(0u32), Some(1), Some(3)] {
                    assert_eq!(
                        labels.has_cycle_within(&g, u, c, max),
                        m.has_cycle_within(&g, u, c, max),
                        "cycle at {u:?} {c:?} within {max:?}"
                    );
                }
                for v in g.nodes() {
                    for max in [None, Some(0u32), Some(1), Some(3)] {
                        assert_eq!(
                            labels.reaches_within(&g, u, v, c, max),
                            m.reaches_within(&g, u, v, c, max),
                            "reaches {u:?}->{v:?} {c:?} within {max:?}"
                        );
                    }
                }
            }
        }
    }

    fn lcg(s: &mut u64) -> u64 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s >> 33
    }

    /// Apply pseudo-random edge flips, returning the new graph and the
    /// effective change list.
    fn random_mutation_round(
        g: &Graph,
        count: usize,
        seed: u64,
    ) -> (Arc<Graph>, Vec<(NodeId, NodeId, Color)>) {
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
        (Arc::new(b.build()), eff)
    }

    #[test]
    fn repair_matches_rebuild_after_updates() {
        for (seed, k) in [(5u64, 2usize), (9, 3), (23, 4)] {
            let g = Arc::new(synthetic(40, 150, 2, 3, seed));
            let labels = ShardedLabels::build(&g, k);
            let (g2, eff) = random_mutation_round(&g, 12, seed ^ 0xFACE);
            assert!(!eff.is_empty());
            let (repaired, touched) = labels.repair(Arc::clone(&g2), &eff);
            assert!(touched <= k);
            assert_eq!(touched, shards_touched(labels.partition(), &eff));
            // the partition is carried: the same node → shard assignment
            let (before, after) = (labels.partition(), repaired.partition());
            assert_eq!(after.k(), k);
            assert!(g.nodes().all(|v| before.shard_of(v) == after.shard_of(v)));
            assert_probe_parity(&g2, &repaired);
        }
    }

    #[test]
    fn intra_shard_change_touches_one_shard() {
        let g = Arc::new(synthetic(40, 150, 2, 2, 31));
        let k = 4;
        let labels = ShardedLabels::build(&g, k);
        let part = labels.partition();
        // two distinct nodes of shard 0
        let (u, v) = {
            let mut it = g.nodes().filter(|&v| part.shard_of(v) == 0);
            (it.next().unwrap(), it.next().unwrap())
        };
        let c = Color(0);
        let mut b = GraphBuilder::from_graph(&g);
        let applied = b.insert_edge(u, v, c) || b.remove_edge(u, v, c);
        assert!(applied);
        let g2 = Arc::new(b.build());
        let (repaired, touched) = labels.repair(Arc::clone(&g2), &[(u, v, c)]);
        assert_eq!(touched, 1);
        assert_probe_parity(&g2, &repaired);
    }

    #[test]
    fn cross_shard_change_carries_every_shard() {
        let g = Arc::new(synthetic(40, 150, 2, 2, 17));
        let k = 3;
        let labels = ShardedLabels::build(&g, k);
        let part = labels.partition();
        let u = g.nodes().find(|&v| part.shard_of(v) == 0).unwrap();
        let v = g.nodes().find(|&v| part.shard_of(v) == 1).unwrap();
        let c = Color(1);
        let mut b = GraphBuilder::from_graph(&g);
        let applied = b.insert_edge(u, v, c) || b.remove_edge(u, v, c);
        assert!(applied);
        let g2 = Arc::new(b.build());
        let (repaired, touched) = labels.repair(Arc::clone(&g2), &[(u, v, c)]);
        // a change between two shards touches none of them
        assert_eq!(touched, 0);
        assert_eq!(repaired.partition().k(), k);
        assert_probe_parity(&g2, &repaired);
    }

    #[test]
    fn repair_with_every_edge_cut_partition() {
        let (g, nodes, [r, s]) = all_cut_ring(false);
        let labels = even_odd(&g);
        // delete one ring edge, insert a chord — both cross-shard
        let mut gb = GraphBuilder::from_graph(&g);
        assert!(gb.remove_edge(nodes[0], nodes[1], r));
        assert!(gb.insert_edge(nodes[2], nodes[9], s));
        let g2 = Arc::new(gb.build());
        let changes = [(nodes[0], nodes[1], r), (nodes[2], nodes[9], s)];
        let (repaired, touched) = labels.repair(Arc::clone(&g2), &changes);
        assert_eq!(touched, 0);
        assert_probe_parity(&g2, &repaired);
    }

    /// An `r` ring through eight nodes, two `s` two-cycles and one `s`
    /// chord.
    fn ring() -> (Arc<Graph>, Vec<NodeId>, [Color; 2]) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..8).map(|i| b.add_node(&format!("n{i}"), [])).collect();
        let (r, s) = (b.color("r"), b.color("s"));
        for i in 0..8 {
            b.add_edge(n[i], n[(i + 1) % 8], r);
        }
        for (u, v) in [(0, 2), (2, 0), (5, 7), (7, 5), (1, 6)] {
            b.add_edge(n[u], n[v], s);
        }
        (Arc::new(b.build()), n, [r, s])
    }

    #[test]
    fn sweeps_follow_the_repaired_version() {
        let (g, n, [r, s]) = ring();
        let labels = ShardedLabels::build(&g, 2);
        let part = labels.partition();
        // a self-loop on n2, n0 → n1 gone, and n4 → n3 closing a two-cycle
        let changes = [(n[2], n[2], r), (n[0], n[1], r), (n[4], n[3], r)];
        let mut b = GraphBuilder::from_graph(&g);
        assert!(b.insert_edge(n[2], n[2], r));
        assert!(b.remove_edge(n[0], n[1], r));
        assert!(b.insert_edge(n[4], n[3], r));
        let g2 = Arc::new(b.build());
        let want = shards_touched(part, &changes);
        let (labels, touched) = labels.repair(Arc::clone(&g2), &changes);
        assert_eq!(touched, want, "shards holding an intra-shard change");
        // what only the new version answers
        assert!(labels.has_cycle_within(&g2, n[2], r, Some(1)), "self-loop");
        assert!(
            labels.has_cycle_within(&g2, n[3], r, Some(2)),
            "n3 → n4 → n3"
        );
        let mut reached = Vec::new();
        labels.for_each_reaching_within(&g2, n[0], r, Some(3), &mut |z| reached.push(z));
        assert!(reached.is_empty(), "n0's only r edge is gone: {reached:?}");
        // the point probes sweep the new version too
        let graph = GraphProbe::new(&g2);
        let nodes: Vec<NodeId> = g2.nodes().collect();
        for c in [r, s] {
            for &u in &nodes {
                for &v in &nodes {
                    assert_eq!(labels.dist(u, v, c), graph.dist(u, v, c));
                    for max in [Some(0), Some(1), Some(3), None] {
                        assert_eq!(
                            labels.reaches_within(&g2, u, v, c, max),
                            graph.reaches_within(&g2, u, v, c, max),
                            "{u:?} → {v:?} {c:?} within {max:?}"
                        );
                    }
                }
            }
        }
        // a change between two shards touches neither
        let part = labels.partition();
        let other = *(nodes.iter())
            .find(|&&v| part.shard_of(v) != part.shard_of(n[0]))
            .expect("two shards");
        assert_eq!(labels.repair(Arc::clone(&g2), &[(n[0], other, s)]).1, 0);
    }

    #[test]
    fn single_shard_and_stats() {
        let g = Arc::new(synthetic(30, 90, 1, 2, 2));
        for k in [1, 3] {
            let labels = ShardedLabels::build(&g, k);
            let stats = labels.stats();
            assert_eq!((stats.shards, stats.nodes), (k, 30));
            assert_eq!(stats.total_bytes(), 30 * 4, "one shard id per node");
            assert_eq!(labels.node_count(), 30);
        }
    }
}
