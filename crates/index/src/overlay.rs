//! Exact 2-hop distance labels over the **boundary overlay** of a
//! sharded graph.
//!
//! The overlay is a small *weighted* digraph per color layer: its nodes
//! are the boundary nodes of a [`ShardedGraph`](rpq_graph::ShardedGraph)
//! (endpoints of cut edges), its edges are
//!
//! * every cut edge admitted by the layer's color, with weight 1, and
//! * a *closure* edge `b1 → b2` of weight `d` for every boundary pair of
//!   one shard with intra-shard distance `d` under the layer's color
//!   (read off that shard's [`HopLabels`](crate::HopLabels)).
//!
//! By construction, the overlay distance between two boundary nodes
//! equals their **global** distance: any global path between boundary
//! nodes alternates cut edges with intra-shard boundary-to-boundary
//! segments, and each segment is dominated by its closure edge; each
//! overlay edge is conversely realized by a real path of its weight.
//!
//! Because edges are weighted, the pruned-**BFS** labeling of
//! [`HopLabels`](crate::HopLabels) does not apply; this module runs the
//! same pruning idea with Dijkstra (the weighted form of Akiba-Iwata-
//! Yoshida's pruned landmark labeling): nodes ranked by overlay degree,
//! and the search from landmark `r` prunes every node whose distance is
//! already covered by higher-ranked hubs. Every node is processed, so
//! probes are exact.
//!
//! Layers are keyed like [`HopLabels`]: one per concrete color.

use crate::labels::Top2;
#[cfg(test)]
use rpq_graph::INFINITY;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distances saturate one below [`INFINITY`], like every probe backend.
const DIST_CAP: u16 = u16::MAX - 1;
const UNSET: u16 = u16::MAX;

/// One weighted overlay edge: `(from, to, weight)` in overlay ids.
pub(crate) type OverlayEdge = (u32, u32, u16);

/// One layer of overlay labels: per-node `Lout`/`Lin` in CSR form, hubs
/// stored as ranks ascending (labels are appended in rank order).
#[derive(Debug, Clone, Default)]
pub(crate) struct OverlayLayer {
    hubs: usize,
    out_offsets: Vec<u32>,
    out_hubs: Vec<u32>,
    out_dists: Vec<u16>,
    in_offsets: Vec<u32>,
    in_hubs: Vec<u32>,
    in_dists: Vec<u16>,
}

impl OverlayLayer {
    /// Build exact labels for the weighted digraph on `b` overlay nodes.
    #[cfg(test)]
    pub(crate) fn build(b: usize, edges: &[OverlayEdge]) -> OverlayLayer {
        Self::build_with(b, edges, None).expect("uncancelled overlay build cannot fail")
    }

    /// [`build`](OverlayLayer::build) with a cancellation flag, checked
    /// between Dijkstra sources: on overlay-heavy partitions the labeling
    /// here is a large share of the whole index build, and a superseded
    /// build must be able to stop mid-overlay, not only at per-shard
    /// landmark checkpoints. Returns `None` when cancelled.
    pub(crate) fn build_with(
        b: usize,
        edges: &[OverlayEdge],
        cancel: Option<&std::sync::atomic::AtomicBool>,
    ) -> Option<OverlayLayer> {
        // CSR adjacency, both directions
        let mut fwd_off = vec![0u32; b + 1];
        let mut bwd_off = vec![0u32; b + 1];
        for &(u, v, _) in edges {
            fwd_off[u as usize + 1] += 1;
            bwd_off[v as usize + 1] += 1;
        }
        for i in 0..b {
            fwd_off[i + 1] += fwd_off[i];
            bwd_off[i + 1] += bwd_off[i];
        }
        let mut fwd = vec![(0u32, 0u16); edges.len()];
        let mut bwd = vec![(0u32, 0u16); edges.len()];
        {
            let mut fc = fwd_off.clone();
            let mut bc = bwd_off.clone();
            for &(u, v, w) in edges {
                fwd[fc[u as usize] as usize] = (v, w);
                fc[u as usize] += 1;
                bwd[bc[v as usize] as usize] = (u, w);
                bc[v as usize] += 1;
            }
        }
        let adj = |off: &[u32], v: usize| -> std::ops::Range<usize> {
            off[v] as usize..off[v + 1] as usize
        };

        // rank by total overlay degree (hubby boundary nodes cover the
        // most cross-shard shortest paths), ties to the lower id
        let mut order: Vec<u32> = (0..b as u32).collect();
        order.sort_unstable_by_key(|&v| {
            let vi = v as usize;
            let deg = (fwd_off[vi + 1] - fwd_off[vi]) + (bwd_off[vi + 1] - bwd_off[vi]);
            (Reverse(deg), v)
        });

        let mut lout: Vec<Vec<(u32, u16)>> = vec![Vec::new(); b];
        let mut lin: Vec<Vec<(u32, u16)>> = vec![Vec::new(); b];
        let mut tmp = vec![UNSET; b];
        let mut dist = vec![UNSET; b];
        let mut touched: Vec<u32> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(u16, u32)>> = BinaryHeap::new();

        // one pruned Dijkstra: from `r` over `list` (forward ⇒ writes
        // Lin, pruned against Lout(r) ⊗ Lin(u); backward is the mirror)
        let pruned_dijkstra =
            |rank: usize,
             r: u32,
             off: &[u32],
             list: &[(u32, u16)],
             seed: &[(u32, u16)],
             side: &mut [Vec<(u32, u16)>],
             tmp: &mut [u16],
             dist: &mut [u16],
             touched: &mut Vec<u32>,
             heap: &mut BinaryHeap<Reverse<(u16, u32)>>| {
                for &(h, d) in seed {
                    tmp[h as usize] = d;
                }
                tmp[rank] = 0;
                heap.clear();
                dist[r as usize] = 0;
                touched.push(r);
                heap.push(Reverse((0, r)));
                while let Some(Reverse((du, u))) = heap.pop() {
                    if du > dist[u as usize] {
                        continue; // stale heap entry
                    }
                    // covered by higher-ranked hubs already?
                    let mut best = u32::MAX;
                    for &(h, dh) in side[u as usize].iter() {
                        let t = tmp[h as usize];
                        if t != UNSET {
                            best = best.min(t as u32 + dh as u32);
                        }
                    }
                    if best <= du as u32 {
                        continue;
                    }
                    side[u as usize].push((rank as u32, du));
                    for i in adj(off, u as usize) {
                        let (v, w) = list[i];
                        let nd = (du as u32 + w as u32).min(DIST_CAP as u32) as u16;
                        if dist[v as usize] == UNSET {
                            dist[v as usize] = nd;
                            touched.push(v);
                            heap.push(Reverse((nd, v)));
                        } else if nd < dist[v as usize] {
                            dist[v as usize] = nd;
                            heap.push(Reverse((nd, v)));
                        }
                    }
                }
                for &t in touched.iter() {
                    dist[t as usize] = UNSET;
                }
                touched.clear();
                for &(h, _) in seed {
                    tmp[h as usize] = UNSET;
                }
                tmp[rank] = UNSET;
            };

        for (rank, &r) in order.iter().enumerate() {
            if cancel.is_some_and(|f| f.load(std::sync::atomic::Ordering::Relaxed)) {
                return None;
            }
            let seed: Vec<(u32, u16)> = lout[r as usize].clone();
            pruned_dijkstra(
                rank,
                r,
                &fwd_off,
                &fwd,
                &seed,
                &mut lin,
                &mut tmp,
                &mut dist,
                &mut touched,
                &mut heap,
            );
            let seed: Vec<(u32, u16)> = lin[r as usize].clone();
            pruned_dijkstra(
                rank,
                r,
                &bwd_off,
                &bwd,
                &seed,
                &mut lout,
                &mut tmp,
                &mut dist,
                &mut touched,
                &mut heap,
            );
        }

        let mut layer = OverlayLayer {
            hubs: b,
            ..OverlayLayer::default()
        };
        let pack = |labels: &[Vec<(u32, u16)>],
                    offsets: &mut Vec<u32>,
                    hubs: &mut Vec<u32>,
                    dists: &mut Vec<u16>| {
            offsets.reserve(b + 1);
            offsets.push(0);
            for l in labels {
                for &(h, d) in l {
                    hubs.push(h);
                    dists.push(d);
                }
                offsets.push(hubs.len() as u32);
            }
        };
        pack(
            &lout,
            &mut layer.out_offsets,
            &mut layer.out_hubs,
            &mut layer.out_dists,
        );
        pack(
            &lin,
            &mut layer.in_offsets,
            &mut layer.in_hubs,
            &mut layer.in_dists,
        );
        Some(layer)
    }

    /// Number of hub ranks (= overlay nodes; every node is processed).
    pub(crate) fn hubs(&self) -> usize {
        self.hubs
    }

    fn out_label(&self, v: usize) -> (&[u32], &[u16]) {
        let lo = self.out_offsets[v] as usize;
        let hi = self.out_offsets[v + 1] as usize;
        (&self.out_hubs[lo..hi], &self.out_dists[lo..hi])
    }

    fn in_label(&self, v: usize) -> (&[u32], &[u16]) {
        let lo = self.in_offsets[v] as usize;
        let hi = self.in_offsets[v + 1] as usize;
        (&self.in_hubs[lo..hi], &self.in_dists[lo..hi])
    }

    /// Mirror of [`aggregate_in`](OverlayLayer::aggregate_in) carrying
    /// origin-tracked [`Top2`] costs — the composition-safe form the
    /// sharded bulk refinement stitches through.
    pub(crate) fn aggregate_in2(&self, seeds: &[(u32, Top2)], out: &mut Vec<Top2>) {
        out.clear();
        out.resize(self.hubs, Top2::NONE);
        for (b, t2) in seeds {
            let (hs, ds) = self.in_label(*b as usize);
            for (&h, &d) in hs.iter().zip(ds) {
                out[h as usize].add_shifted(t2, d);
            }
        }
    }

    /// Origin-tracked form of a source-to-set scan: the [`Top2`] of
    /// `min_h dist(v ⇝ h) + agg_in[h]`.
    pub(crate) fn dist_from2(&self, v: u32, agg_in: &[Top2]) -> Top2 {
        let (hs, ds) = self.out_label(v as usize);
        let mut out = Top2::NONE;
        for (&h, &d) in hs.iter().zip(ds) {
            out.add_shifted(&agg_in[h as usize], d);
        }
        out
    }

    /// Point probe: overlay distance `u → v` (= global distance between
    /// the two boundary nodes). [`INFINITY`] when disconnected.
    #[cfg(test)]
    pub(crate) fn dist(&self, u: u32, v: u32) -> u16 {
        if u == v {
            return 0;
        }
        let (oh, od) = self.out_label(u as usize);
        let (ih, id) = self.in_label(v as usize);
        let mut best = u32::MAX;
        let (mut i, mut j) = (0usize, 0usize);
        while i < oh.len() && j < ih.len() {
            match oh[i].cmp(&ih[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    best = best.min(od[i] as u32 + id[j] as u32);
                    i += 1;
                    j += 1;
                }
            }
        }
        if best == u32::MAX {
            INFINITY
        } else {
            best.min(DIST_CAP as u32) as u16
        }
    }

    /// Fold weighted seeds on the **source side** into a per-hub table:
    /// `out[h] = min over (b, w) of w + dist(b ⇝ h)`. `out` is resized
    /// and reset here; `u32::MAX` marks unreached hubs.
    pub(crate) fn aggregate_out(&self, seeds: &[(u32, u16)], out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.hubs, u32::MAX);
        for &(b, w) in seeds {
            let (hs, ds) = self.out_label(b as usize);
            for (&h, &d) in hs.iter().zip(ds) {
                let v = w as u32 + d as u32;
                let slot = &mut out[h as usize];
                if v < *slot {
                    *slot = v;
                }
            }
        }
    }

    /// Mirror of [`aggregate_out`](OverlayLayer::aggregate_out) on the
    /// target side: `out[h] = min over (b, w) of dist(h ⇝ b) + w`.
    pub(crate) fn aggregate_in(&self, seeds: &[(u32, u16)], out: &mut Vec<u32>) {
        out.clear();
        out.resize(self.hubs, u32::MAX);
        for &(b, w) in seeds {
            let (hs, ds) = self.in_label(b as usize);
            for (&h, &d) in hs.iter().zip(ds) {
                let v = d as u32 + w as u32;
                let slot = &mut out[h as usize];
                if v < *slot {
                    *slot = v;
                }
            }
        }
    }

    /// `min_h agg_out[h] + dist(h ⇝ v)` — the distance from an aggregated
    /// source set to overlay node `v`. `u32::MAX` when unreachable.
    pub(crate) fn dist_to(&self, agg_out: &[u32], v: u32) -> u32 {
        let (hs, ds) = self.in_label(v as usize);
        let mut best = u32::MAX;
        for (&h, &d) in hs.iter().zip(ds) {
            let a = agg_out[h as usize];
            if a != u32::MAX {
                best = best.min(a + d as u32);
            }
        }
        best
    }

    /// `min_h dist(v ⇝ h) + agg_in[h]` — the distance from overlay node
    /// `v` into an aggregated target set. `u32::MAX` when unreachable.
    #[cfg(test)]
    pub(crate) fn dist_from(&self, v: u32, agg_in: &[u32]) -> u32 {
        let (hs, ds) = self.out_label(v as usize);
        let mut best = u32::MAX;
        for (&h, &d) in hs.iter().zip(ds) {
            let a = agg_in[h as usize];
            if a != u32::MAX {
                best = best.min(d as u32 + a);
            }
        }
        best
    }

    /// `min_h agg_out[h] + agg_in[h]` — source-set to target-set distance.
    pub(crate) fn combine(agg_out: &[u32], agg_in: &[u32]) -> u32 {
        agg_out
            .iter()
            .zip(agg_in)
            .filter(|&(&a, &b)| a != u32::MAX && b != u32::MAX)
            .map(|(&a, &b)| a + b)
            .min()
            .unwrap_or(u32::MAX)
    }

    /// Estimated resident bytes.
    pub(crate) fn bytes(&self) -> usize {
        (self.out_hubs.len() + self.in_hubs.len()) * 6
            + (self.out_offsets.len() + self.in_offsets.len()) * 4
    }

    /// Total label entries, both directions.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> usize {
        self.out_hubs.len() + self.in_hubs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_stops_between_sources() {
        // the flag is polled before every Dijkstra source, so a pre-set
        // flag aborts before any labeling work
        let edges: Vec<OverlayEdge> = (0..20u32).map(|i| (i, (i + 1) % 20, 1)).collect();
        let flag = std::sync::atomic::AtomicBool::new(true);
        assert!(OverlayLayer::build_with(20, &edges, Some(&flag)).is_none());
        flag.store(false, std::sync::atomic::Ordering::Relaxed);
        assert!(OverlayLayer::build_with(20, &edges, Some(&flag)).is_some());
    }

    /// Dijkstra ground truth over the same weighted edges.
    fn dijkstra_row(b: usize, edges: &[OverlayEdge], src: u32) -> Vec<u16> {
        let mut dist = vec![UNSET; b];
        let mut heap = BinaryHeap::new();
        dist[src as usize] = 0;
        heap.push(Reverse((0u16, src)));
        while let Some(Reverse((du, u))) = heap.pop() {
            if du > dist[u as usize] {
                continue;
            }
            for &(a, v, w) in edges {
                if a != u {
                    continue;
                }
                let nd = (du as u32 + w as u32).min(DIST_CAP as u32) as u16;
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist.iter()
            .map(|&d| if d == UNSET { INFINITY } else { d })
            .collect()
    }

    fn random_edges(b: usize, m: usize, seed: u64) -> Vec<OverlayEdge> {
        // tiny deterministic LCG; weights 1..=9
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        (0..m)
            .map(|_| {
                let u = (next() % b as u64) as u32;
                let v = (next() % b as u64) as u32;
                let w = (next() % 9 + 1) as u16;
                (u, v, w)
            })
            .filter(|&(u, v, _)| u != v)
            .collect()
    }

    #[test]
    fn labels_match_dijkstra() {
        for seed in [3u64, 17, 99] {
            let b = 40;
            let edges = random_edges(b, 140, seed);
            let layer = OverlayLayer::build(b, &edges);
            for u in 0..b as u32 {
                let truth = dijkstra_row(b, &edges, u);
                for v in 0..b as u32 {
                    assert_eq!(layer.dist(u, v), truth[v as usize], "{u}->{v} seed {seed}");
                }
            }
        }
    }

    #[test]
    fn aggregates_match_point_probes() {
        let b = 30;
        let edges = random_edges(b, 100, 7);
        let layer = OverlayLayer::build(b, &edges);
        let seeds: Vec<(u32, u16)> = vec![(1, 0), (4, 3), (9, 1)];
        let mut agg_out = Vec::new();
        let mut agg_in = Vec::new();
        layer.aggregate_out(&seeds, &mut agg_out);
        layer.aggregate_in(&seeds, &mut agg_in);
        for v in 0..b as u32 {
            let want_to = seeds
                .iter()
                .map(|&(s, w)| {
                    let d = layer.dist(s, v);
                    if d == INFINITY {
                        u32::MAX
                    } else {
                        w as u32 + d as u32
                    }
                })
                .min()
                .unwrap();
            assert_eq!(layer.dist_to(&agg_out, v), want_to, "to {v}");
            let want_from = seeds
                .iter()
                .map(|&(t, w)| {
                    let d = layer.dist(v, t);
                    if d == INFINITY {
                        u32::MAX
                    } else {
                        d as u32 + w as u32
                    }
                })
                .min()
                .unwrap();
            assert_eq!(layer.dist_from(v, &agg_in), want_from, "from {v}");
        }
        // set-to-set: min over all (seed, seed) pairs
        let mut want = u32::MAX;
        for &(s, w) in &seeds {
            for &(t, w2) in &seeds {
                let d = layer.dist(s, t);
                if d != INFINITY {
                    want = want.min(w as u32 + d as u32 + w2 as u32);
                }
            }
        }
        assert_eq!(OverlayLayer::combine(&agg_out, &agg_in), want);
        assert!(layer.bytes() > 0);
        assert!(layer.entries() > 0);
        assert_eq!(layer.hubs(), b);
    }

    #[test]
    fn empty_overlay() {
        let layer = OverlayLayer::build(0, &[]);
        assert_eq!(layer.hubs(), 0);
        assert_eq!(layer.entries(), 0);
        assert_eq!(OverlayLayer::combine(&[], &[]), u32::MAX);
    }
}
