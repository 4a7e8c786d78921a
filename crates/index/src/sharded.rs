//! The sharded distance backend: per-shard [`HopLabels`] stitched through
//! boundary [`OverlayLayer`](crate::overlay) labels — a [`DistProbe`]
//! whose *build* never holds more than one shard's index in flight.
//!
//! # Construction
//!
//! [`ShardedLabels::build_with`] partitions the graph (or accepts a
//! prebuilt [`ShardedGraph`]), then — on the one path it shares with
//! [`ShardedLabels::repair`]: a fresh build is maintenance from nothing,
//! every shard rebuilt and no label or closure row to carry —
//!
//! 1. builds one [`HopLabels`] **per shard**, one after another on the
//!    caller's thread, each over that shard's local graph and each under
//!    the *per-shard* byte budget
//!    ([`ShardedConfig::shard_budget_bytes`]) — this is the memory cap the
//!    whole design exists for: no single build ever needs the footprint of
//!    a whole-graph labeling;
//! 2. derives the per-layer weighted **overlay** over boundary nodes (cut
//!    edges at weight 1 + intra-shard boundary-to-boundary closures read
//!    off the per-shard labels) and labels it with pruned Dijkstra.
//!
//! # Probing (the exactness argument)
//!
//! Every global path either stays inside one shard or uses ≥ 1 cut edge.
//! In the second case it decomposes as
//! `u ⇝ b₁ (intra-shard) · b₁ ⇝ b₂ (overlay) · b₂ ⇝ v (intra-shard)`
//! where `b₁` is the source of the first cut edge and `b₂` the target of
//! the last: the prefix and suffix use no cut edge, so they live in one
//! shard each, and the middle alternates cut edges with intra-shard
//! boundary segments — each dominated by its overlay closure edge.
//! Hence
//!
//! ```text
//! dist(u, v) = min( local(u, v) if shard(u) = shard(v),
//!                   min over b₁ ∈ B(shard(u)), b₂ ∈ B(shard(v)) of
//!                       local(u, b₁) + overlay(b₁, b₂) + local(b₂, v) )
//! ```
//!
//! and every term of the stitched minimum is realized by a real path, so
//! probes are **exact** — bit-identical to a whole-graph index (the
//! differential oracle, `tests/oracle.rs`, pins sharded answers to the
//! paper's semantics, on label-propagation and all-edges-cut partitions). Note the same-shard case still takes the
//! stitched minimum too: the shortest path between two nodes of one shard
//! may leave the shard and return.
//!
//! The stitched minimum is never evaluated over boundary pairs: `u`'s
//! exits are folded over overlay hubs once
//! ([`OverlayLayer::aggregate_out`]), `v`'s entries once, and the two
//! tables combined.
//!
//! Only the **point** questions stitch — [`DistProbe::dist`] and the
//! trait's `reaches_within` over it. Every **set** question (bounded
//! scans, the nonempty-cycle test, whole `Join` steps) is a bounded sweep
//! of the graph the index was built or repaired for — [`GraphProbe`] over
//! `sharded.graph()`, with sweep buffers pooled in the index. A stitched
//! scan pays exits, an overlay fold and a label scan per boundary node;
//! the sweep touches only what it reaches, and on `clustered(3000, …)`
//! evaluates an RQ about 5× faster.

use crate::labels::{HopBuildError, HopConfig, HopLabels};
use crate::overlay::{OverlayEdge, OverlayLayer};
use crate::probe::{DistProbe, GraphProbe, SweepPool};
use rpq_graph::{Color, Graph, NodeId, ShardedGraph, INFINITY};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DIST_CAP: u16 = u16::MAX - 1;

/// Tuning knobs for [`ShardedLabels::build_with`].
#[derive(Debug, Clone)]
pub struct ShardedConfig {
    /// Number of shards to partition into (clamped to `1..=|V|`).
    pub shards: usize,
    /// Byte budget for **each** per-shard label build (`0` = unlimited).
    /// A shard exceeding it fails the whole build
    /// ([`HopBuildError::OverBudget`]).
    pub shard_budget_bytes: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: 4,
            shard_budget_bytes: 0,
        }
    }
}

/// Build/shape statistics of a [`ShardedLabels`], for logs, benches and
/// the budget assertions of the scale suite.
#[derive(Debug, Clone)]
pub struct ShardedStats {
    /// Number of shards.
    pub shards: usize,
    /// Nodes covered.
    pub nodes: usize,
    /// Boundary nodes (= overlay size).
    pub boundary_nodes: usize,
    /// Cross-shard edges.
    pub cut_edges: usize,
    /// Fraction of edges cut by the partition.
    pub edge_cut_ratio: f64,
    /// Estimated resident bytes of each shard's label index.
    pub shard_bytes: Vec<usize>,
    /// Estimated resident bytes of the overlay labels (all layers).
    pub overlay_bytes: usize,
}

impl ShardedStats {
    /// The largest single-shard label footprint — the number the
    /// per-shard budget caps.
    pub fn max_shard_bytes(&self) -> usize {
        self.shard_bytes.iter().copied().max().unwrap_or(0)
    }

    /// Total footprint: every shard plus the overlay.
    pub fn total_bytes(&self) -> usize {
        self.shard_bytes.iter().sum::<usize>() + self.overlay_bytes
    }
}

impl std::fmt::Display for ShardedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} shards / {} nodes: {} boundary, {} cut ({:.1}%), max shard {} KiB, overlay {} KiB",
            self.shards,
            self.nodes,
            self.boundary_nodes,
            self.cut_edges,
            100.0 * self.edge_cut_ratio,
            self.max_shard_bytes() / 1024,
            self.overlay_bytes / 1024,
        )
    }
}

/// One shard's boundary-to-boundary closure rows for one layer, keyed by
/// *positions* into that shard's boundary list (stable across repairs
/// that leave the shard untouched): `(i, j, dist)`.
type ShardClosure = Vec<(u32, u32, u16)>;

/// What [`ShardedLabels::maintain`] is asked to do with one shard's labels
/// — and, in its per-shard outcome, what it did.
#[derive(Clone, Copy, PartialEq)]
enum Action {
    Carry,
    Repair,
    Rebuild,
}

/// Per-shard 2-hop labels plus boundary-overlay labels, composed into one
/// exact global [`DistProbe`]. See the module docs for the construction
/// and the exactness argument.
#[derive(Debug)]
pub struct ShardedLabels {
    sharded: Arc<ShardedGraph>,
    /// `Arc` so [`ShardedLabels::repair`] carries untouched shards forward
    /// without copying their label arrays.
    shard_labels: Vec<Arc<HopLabels>>,
    /// `overlay[c]` for color `c`: like the shards' labels, the overlay
    /// holds concrete colors only — `_` is answered by the graph.
    overlay: Vec<OverlayLayer>,
    /// `closures[c][shard]`: the boundary closure rows each overlay layer
    /// was built from, retained so a repair recomputes only the rows of
    /// shards whose labels or boundary set actually changed.
    closures: Vec<Vec<ShardClosure>>,
    /// Buffers for the sweeps that answer set questions over
    /// `sharded.graph()`.
    sweeps: SweepPool,
    colors: usize,
    n: usize,
}

impl ShardedLabels {
    /// Partition `g` into `shards` pieces and build with no budget.
    /// Cannot fail.
    pub fn build(g: &Arc<Graph>, shards: usize) -> Self {
        Self::build_with(
            g,
            &ShardedConfig {
                shards,
                ..ShardedConfig::default()
            },
        )
        .expect("unbudgeted build cannot fail")
    }

    /// Partition and build under `config`.
    pub fn build_with(g: &Arc<Graph>, config: &ShardedConfig) -> Result<Self, HopBuildError> {
        let sharded = Arc::new(ShardedGraph::new(Arc::clone(g), config.shards));
        Self::build_on(sharded, config)
    }

    /// Build over a prebuilt partition (custom partitioners, tests).
    pub fn build_on(
        sharded: Arc<ShardedGraph>,
        config: &ShardedConfig,
    ) -> Result<Self, HopBuildError> {
        let rebuild_all = vec![Action::Rebuild; sharded.k()];
        Self::maintain(None, sharded, &rebuild_all, &[], config).map(|r| r.labels)
    }

    /// The one construction path — a fresh build is maintenance from
    /// nothing: [`build_on`](ShardedLabels::build_on) asks for every shard
    /// `Rebuild` with no `prev` to carry labels or closure rows from,
    /// [`repair`](ShardedLabels::repair) for carry / repair / rebuild per
    /// shard against `prev`.
    ///
    /// Scatter: shard by shard, each individually budgeted
    /// ([`ShardedConfig::shard_budget_bytes`]). `Carry` costs one reference count; `Repair` runs
    /// [`HopLabels::repair`] over `intra[shard]` (local ids) and falls
    /// back to `Rebuild` when more than half the shard's landmarks are
    /// dirty or the repaired labels outgrow the budget a freshly pruned
    /// build might fit. Gather: [`build_overlays`](Self::build_overlays),
    /// reusing `prev`'s closure rows only where nothing underneath moved —
    /// same labels *and* the same boundary list (a cross-shard insert can
    /// promote a node to boundary in an otherwise untouched shard).
    fn maintain(
        prev: Option<&ShardedLabels>,
        sharded: Arc<ShardedGraph>,
        action: &[Action],
        intra: &[Vec<(NodeId, NodeId, Color)>],
        config: &ShardedConfig,
    ) -> Result<ShardedRepair, HopBuildError> {
        let k = sharded.k();
        let hop_config = HopConfig {
            budget_bytes: config.shard_budget_bytes,
        };
        let t0 = Instant::now();
        let run_shard = |s: usize| -> Result<(Arc<HopLabels>, Action, usize), HopBuildError> {
            let old = prev.map(|p| &p.shard_labels[s]);
            let shard_g = sharded.shard(s);
            let ts = Instant::now();
            match (action[s], old) {
                (Action::Carry, Some(old)) => return Ok((Arc::clone(old), Action::Carry, 0)),
                (Action::Repair, Some(old)) => {
                    let limit = (old.node_count() / 2).max(1);
                    // too broad or over budget falls through to a fresh
                    // pruned build, which might fit where the repaired
                    // labels do not
                    if let Ok(r) = old.repair(shard_g, &intra[s], hop_config.budget_bytes, limit) {
                        rpq_trace::tracer().record_span(
                            "index",
                            "shard-repair",
                            ts.elapsed(),
                            &format!("shard={s} invalidated={}", r.landmarks_invalidated),
                        );
                        return Ok((Arc::new(r.labels), Action::Repair, r.landmarks_invalidated));
                    }
                }
                _ => {}
            }
            let labels = HopLabels::build_with(shard_g, &hop_config)?;
            rpq_trace::tracer().record_span(
                "index",
                "shard-rebuild",
                ts.elapsed(),
                &format!("shard={s} bytes={}", labels.bytes()),
            );
            Ok((Arc::new(labels), Action::Rebuild, 0))
        };
        let mut shard_labels = Vec::with_capacity(k);
        let (mut repaired, mut rebuilt, mut invalidated) = (0usize, 0usize, 0usize);
        for s in 0..k {
            let (labels, done, dirty) = run_shard(s)?;
            repaired += usize::from(done == Action::Repair);
            rebuilt += usize::from(done == Action::Rebuild);
            invalidated += dirty;
            shard_labels.push(labels);
        }

        let t_scattered = Instant::now();
        let reusable: Vec<bool> = (0..k)
            .map(|s| {
                prev.is_some_and(|p| {
                    action[s] == Action::Carry
                        && sharded.boundary_locals(s) == p.sharded.boundary_locals(s)
                })
            })
            .collect();
        let colors = sharded.graph().alphabet().len();
        let (overlay, closures) =
            Self::build_overlays(&sharded, &shard_labels, colors, |layer, shard| {
                prev.filter(|_| reusable[shard])
                    .map(|p| p.closures[layer][shard].clone())
            });
        let t_overlaid = Instant::now();

        Ok(ShardedRepair {
            labels: ShardedLabels {
                n: sharded.graph().node_count(),
                colors,
                sharded,
                shard_labels,
                overlay,
                closures,
                sweeps: SweepPool::default(),
            },
            shards_carried: k - repaired - rebuilt,
            shards_repaired: repaired,
            shards_rebuilt: rebuilt,
            landmarks_invalidated: invalidated,
            phases: vec![
                ("scatter", t_scattered - t0),
                ("overlay", t_overlaid - t_scattered),
            ],
        })
    }

    /// Gather step of [`maintain`](Self::maintain): one overlay layer per
    /// color, cut edges at weight 1 plus
    /// per-shard boundary closures. `reuse` may return a previously
    /// computed closure for a `(layer, shard)` whose rows are known to be
    /// unchanged; everything else is recomputed from the shard labels.
    #[allow(clippy::type_complexity)]
    fn build_overlays(
        sharded: &Arc<ShardedGraph>,
        shard_labels: &[Arc<HopLabels>],
        colors: usize,
        reuse: impl Fn(usize, usize) -> Option<ShardClosure>,
    ) -> (Vec<OverlayLayer>, Vec<Vec<ShardClosure>>) {
        let k = sharded.k();
        let b = sharded.boundary_globals().len();

        // overlay id of each shard's boundary list, aligned by position
        let boundary_ov: Vec<Vec<u32>> = (0..k)
            .map(|s| {
                sharded
                    .boundary_locals(s)
                    .iter()
                    .map(|&l| {
                        sharded
                            .overlay_index(sharded.partition().to_global(s, l))
                            .expect("boundary node has an overlay id")
                    })
                    .collect()
            })
            .collect();

        (0..colors)
            .map(|li| {
                let color = Color(li as u8);
                let shard_closures: Vec<ShardClosure> = (shard_labels.iter().enumerate())
                    .take(k)
                    .map(|(shard, labels)| {
                        reuse(li, shard)
                            .unwrap_or_else(|| shard_closure(sharded, labels, shard, color))
                    })
                    .collect();
                let mut edges: Vec<OverlayEdge> = Vec::new();
                for &(u, v, ec) in sharded.cut_edges() {
                    if color.admits(ec) {
                        let ou = sharded
                            .overlay_index(u)
                            .expect("cut endpoints are boundary");
                        let ov = sharded
                            .overlay_index(v)
                            .expect("cut endpoints are boundary");
                        edges.push((ou, ov, 1));
                    }
                }
                for (shard, rows) in shard_closures.iter().enumerate() {
                    for &(i, j, d) in rows {
                        edges.push((
                            boundary_ov[shard][i as usize],
                            boundary_ov[shard][j as usize],
                            d,
                        ));
                    }
                }
                (OverlayLayer::build(b, &edges), shard_closures)
            })
            .unzip()
    }

    /// Repair this index after `changes` were applied to the graph it was
    /// built on, yielding the index of `new_graph` — shard-local work
    /// instead of a whole-index rebuild.
    ///
    /// The successor storage is this index's own sharded graph re-imaged
    /// through [`ShardedGraph::apply_updates`], so the partition is fixed
    /// for the life of the index: the carried labels are always over the
    /// shards they were built on. `new_graph` must hold the same node set
    /// and alphabet; changes are `(from, to, color)` in global ids, both
    /// inserts and deletes.
    ///
    /// Per shard:
    /// * an **intra-shard** change triggers [`HopLabels::repair`] on that
    ///   shard's labels (falling back to a shard-local rebuild when more
    ///   than half its landmarks are dirty or the repaired labels outgrow
    ///   the per-shard budget, where a freshly pruned build might not);
    /// * every other shard's labels are carried forward by reference.
    ///
    /// The overlay layers are then relabeled from the new cut-edge set
    /// (**cross-shard** changes enter here, at weight 1) plus the boundary
    /// closures — recomputing only the closure rows of shards whose labels
    /// or boundary set changed and reusing the retained rows of untouched
    /// shards. The result answers every probe identically to
    /// [`build_on`](ShardedLabels::build_on) over the same partition of
    /// `new_graph`.
    pub fn repair(
        &self,
        new_graph: Arc<Graph>,
        changes: &[(NodeId, NodeId, Color)],
        config: &ShardedConfig,
    ) -> Result<ShardedRepair, HopBuildError> {
        assert_eq!(
            new_graph.alphabet().len(),
            self.colors,
            "updates must preserve the alphabet"
        );
        let new_sharded = Arc::new(self.sharded.apply_updates(new_graph, changes));
        let k = self.sharded.k();
        let part = new_sharded.partition();
        let mut action = vec![Action::Carry; k];
        let mut intra: Vec<Vec<(NodeId, NodeId, Color)>> = vec![Vec::new(); k];
        for &(u, v, c) in changes {
            let (su, lu) = part.to_local(u);
            let (sv, lv) = part.to_local(v);
            if su == sv {
                intra[su].push((lu, lv, c));
                action[su] = Action::Repair;
            }
            // cross-shard changes only alter cut edges, which the overlay
            // relabeling reads fresh off `new_sharded`
        }

        let repair = Self::maintain(Some(self), new_sharded, &action, &intra, config)?;
        let tracer = rpq_trace::tracer();
        if tracer.enabled() {
            tracer.record_span(
                "index",
                "sharded-repair",
                repair.phases.iter().map(|&(_, d)| d).sum(),
                &format!(
                    "carried={} repaired={} rebuilt={} invalidated={}",
                    repair.shards_carried,
                    repair.shards_repaired,
                    repair.shards_rebuilt,
                    repair.landmarks_invalidated
                ),
            );
        }
        Ok(repair)
    }

    /// The partitioned storage this index serves.
    pub fn sharded_graph(&self) -> &Arc<ShardedGraph> {
        &self.sharded
    }

    /// The label index of shard `s`.
    pub fn shard_labels(&self, s: usize) -> &HopLabels {
        &self.shard_labels[s]
    }

    /// Is `color` answerable? True for every concrete color, false for
    /// the wildcard — as for [`HopLabels::has_layer`].
    pub fn has_layer(&self, color: Color) -> bool {
        !color.is_wildcard()
    }

    /// Build/shape statistics.
    pub fn stats(&self) -> ShardedStats {
        let sg_stats = self.sharded.stats();
        ShardedStats {
            shards: self.sharded.k(),
            nodes: self.n,
            boundary_nodes: sg_stats.boundary_nodes,
            cut_edges: sg_stats.cut_edges,
            edge_cut_ratio: sg_stats.edge_cut_ratio(),
            shard_bytes: self.shard_labels.iter().map(|l| l.bytes()).collect(),
            overlay_bytes: self.overlay.iter().map(OverlayLayer::bytes).sum(),
        }
    }

    fn overlay_or_panic(&self, color: Color) -> &OverlayLayer {
        self.overlay
            .get(usize::from(color.0))
            .unwrap_or_else(|| panic!("no sharded layer for {color:?} (check has_layer first)"))
    }

    /// The graph this index was built or repaired for, asked the set
    /// questions with this index's sweep buffers.
    fn graph_probe(&self) -> GraphProbe<'_> {
        GraphProbe::with_pool(self.sharded.graph(), &self.sweeps)
    }

    /// `(shard, local)` of a global node.
    #[inline]
    fn to_local(&self, v: NodeId) -> (usize, NodeId) {
        self.sharded.partition().to_local(v)
    }

    /// Distances from `v` to every boundary node of its own shard, as
    /// overlay-id seeds for [`OverlayLayer::aggregate_out`]. Empty when
    /// the shard touches no cut edge.
    fn exits_of(&self, shard: usize, local: NodeId, color: Color) -> Vec<(u32, u16)> {
        let labels: &HopLabels = &self.shard_labels[shard];
        self.sharded
            .boundary_locals(shard)
            .iter()
            .filter_map(|&b| {
                let d = DistProbe::dist(labels, local, b, color);
                (d != INFINITY).then(|| {
                    let g = self.sharded.partition().to_global(shard, b);
                    (self.sharded.overlay_index(g).expect("boundary"), d)
                })
            })
            .collect()
    }

    /// Mirror of [`exits_of`](ShardedLabels::exits_of): distances from
    /// every boundary node of `v`'s shard to `v`.
    fn entries_of(&self, shard: usize, local: NodeId, color: Color) -> Vec<(u32, u16)> {
        let labels: &HopLabels = &self.shard_labels[shard];
        self.sharded
            .boundary_locals(shard)
            .iter()
            .filter_map(|&b| {
                let d = DistProbe::dist(labels, b, local, color);
                (d != INFINITY).then(|| {
                    let g = self.sharded.partition().to_global(shard, b);
                    (self.sharded.overlay_index(g).expect("boundary"), d)
                })
            })
            .collect()
    }
}

/// What a [`ShardedLabels::repair`] did, shard by shard — the cost-model
/// and metrics view of an incremental index maintenance step.
#[derive(Debug)]
pub struct ShardedRepair {
    /// The repaired index — probe-identical to a from-scratch build over
    /// the same sharded graph.
    pub labels: ShardedLabels,
    /// Shards whose labels were carried forward by reference.
    pub shards_carried: usize,
    /// Shards repaired in place via [`HopLabels::repair`].
    pub shards_repaired: usize,
    /// Shards rebuilt from scratch (repairs that fell back).
    pub shards_rebuilt: usize,
    /// Landmarks re-run across all repaired shards.
    pub landmarks_invalidated: usize,
    /// Wall-clock phase breakdown: `scatter` (per-shard carry / repair /
    /// rebuild) and `overlay` (cut-edge + boundary closure relabeling). The live-update layer bubbles these into its
    /// `IndexMaintenance::phases` accounting.
    pub phases: Vec<(&'static str, Duration)>,
}

/// One shard's closure rows for one layer: every ordered boundary pair
/// with a finite intra-shard distance, keyed by boundary-list positions.
fn shard_closure(
    sharded: &ShardedGraph,
    labels: &HopLabels,
    shard: usize,
    color: Color,
) -> ShardClosure {
    let locals = sharded.boundary_locals(shard);
    let mut rows = ShardClosure::new();
    for (i, &b1) in locals.iter().enumerate() {
        for (j, &b2) in locals.iter().enumerate() {
            if i == j {
                continue;
            }
            let d = DistProbe::dist(labels, b1, b2, color);
            if d != INFINITY {
                rows.push((i as u32, j as u32, d));
            }
        }
    }
    rows
}

impl DistProbe for ShardedLabels {
    fn node_count(&self) -> usize {
        self.n
    }

    fn dist(&self, from: NodeId, to: NodeId, color: Color) -> u16 {
        if from == to {
            return 0;
        }
        let (sf, lf) = self.to_local(from);
        let (st, lt) = self.to_local(to);
        let mut best = if sf == st {
            let d = DistProbe::dist(self.shard_labels[sf].as_ref(), lf, lt, color);
            if d == INFINITY {
                u32::MAX
            } else {
                d as u32
            }
        } else {
            u32::MAX
        };
        // the stitched path: u ⇝ boundary(sf) ⇝ overlay ⇝ boundary(st) ⇝ v
        let layer = self.overlay_or_panic(color);
        if layer.hubs() > 0 {
            let exits = self.exits_of(sf, lf, color);
            if !exits.is_empty() {
                let entries = self.entries_of(st, lt, color);
                if !entries.is_empty() {
                    let mut agg_out = Vec::new();
                    let mut agg_in = Vec::new();
                    layer.aggregate_out(&exits, &mut agg_out);
                    layer.aggregate_in(&entries, &mut agg_in);
                    best = best.min(OverlayLayer::combine(&agg_out, &agg_in));
                }
            }
        }
        if best == u32::MAX {
            INFINITY
        } else {
            best.min(DIST_CAP as u32) as u16
        }
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
    use rpq_graph::{DistanceMatrix, GraphBuilder, Partition, WILDCARD};

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

    #[test]
    fn parity_on_synthetic_graphs() {
        for (seed, k) in [(5u64, 2usize), (9, 3), (23, 4)] {
            let g = Arc::new(synthetic(40, 150, 2, 3, seed));
            let labels = ShardedLabels::build(&g, k);
            assert_eq!(labels.sharded_graph().k(), k);
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

    #[test]
    fn parity_with_every_edge_cut() {
        // even/odd partition of a two-color ring with chords: the local
        // graphs are edgeless, the overlay carries everything
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
            b.add_edge(nodes[i], nodes[(i + 5) % 12], r);
        }
        let g = Arc::new(b.build());
        let shard_of: Vec<u32> = (0..12).map(|v| (v % 2) as u32).collect();
        let sg = Arc::new(ShardedGraph::with_partition(
            Arc::clone(&g),
            Partition::from_shard_of(shard_of, 2),
        ));
        assert_eq!(sg.cut_edges().len(), g.edge_count(), "degenerate cut");
        let labels = ShardedLabels::build_on(Arc::clone(&sg), &ShardedConfig::default()).unwrap();
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

    #[test]
    fn per_shard_budget_is_enforced() {
        let g = Arc::new(synthetic(120, 480, 2, 3, 8));
        let tiny = ShardedConfig {
            shards: 3,
            shard_budget_bytes: 1,
        };
        assert!(matches!(
            ShardedLabels::build_with(&g, &tiny),
            Err(HopBuildError::OverBudget { budget: 1, .. })
        ));
        // a budget of exactly the largest shard's footprint fits every
        // shard; what fits is every concrete layer and no `_` layer
        let full = ShardedLabels::build(&g, 3);
        let fit = ShardedConfig {
            shards: 3,
            shard_budget_bytes: full.stats().max_shard_bytes(),
        };
        let labels = ShardedLabels::build_with(&g, &fit).expect("every shard fits");
        assert!(!labels.has_layer(WILDCARD));
        for c in g.alphabet().colors() {
            assert!(labels.has_layer(c));
        }
        let stats = labels.stats();
        for &bytes in &stats.shard_bytes {
            assert!(
                bytes <= fit.shard_budget_bytes,
                "{bytes} over per-shard budget"
            );
        }
        // concrete probes stay exact
        let m = DistanceMatrix::build(&g);
        for u in g.nodes().take(30) {
            for v in g.nodes().take(30) {
                assert_eq!(
                    DistProbe::dist(&labels, u, v, Color(0)),
                    m.dist(u, v, Color(0))
                );
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
            let r = labels
                .repair(Arc::clone(&g2), &eff, &ShardedConfig::default())
                .unwrap();
            assert_eq!(
                r.shards_carried + r.shards_repaired + r.shards_rebuilt,
                k,
                "every shard accounted for"
            );
            assert_probe_parity(&g2, &r.labels);
        }
    }

    #[test]
    fn intra_shard_change_touches_one_shard() {
        let g = Arc::new(synthetic(40, 150, 2, 2, 31));
        let k = 4;
        let labels = ShardedLabels::build(&g, k);
        let part = labels.sharded_graph().partition();
        // two distinct nodes of shard 0, as global ids
        let (u, v) = {
            let mut it = g.nodes().filter(|&v| part.to_local(v).0 == 0);
            (it.next().unwrap(), it.next().unwrap())
        };
        let c = Color(0);
        let mut b = GraphBuilder::from_graph(&g);
        let applied = b.insert_edge(u, v, c) || b.remove_edge(u, v, c);
        assert!(applied);
        let g2 = Arc::new(b.build());
        let r = labels
            .repair(Arc::clone(&g2), &[(u, v, c)], &ShardedConfig::default())
            .unwrap();
        assert_eq!(r.shards_repaired + r.shards_rebuilt, 1);
        assert_eq!(r.shards_carried, k - 1);
        assert_probe_parity(&g2, &r.labels);
    }

    #[test]
    fn cross_shard_change_carries_every_shard() {
        let g = Arc::new(synthetic(40, 150, 2, 2, 17));
        let k = 3;
        let labels = ShardedLabels::build(&g, k);
        let part = labels.sharded_graph().partition();
        let u = g.nodes().find(|&v| part.to_local(v).0 == 0).unwrap();
        let v = g.nodes().find(|&v| part.to_local(v).0 == 1).unwrap();
        let c = Color(1);
        let mut b = GraphBuilder::from_graph(&g);
        let applied = b.insert_edge(u, v, c) || b.remove_edge(u, v, c);
        assert!(applied);
        let g2 = Arc::new(b.build());
        let r = labels
            .repair(Arc::clone(&g2), &[(u, v, c)], &ShardedConfig::default())
            .unwrap();
        // only the overlay moves: every shard's labels carried by reference
        assert_eq!(r.shards_carried, k);
        assert_eq!(r.landmarks_invalidated, 0);
        assert_probe_parity(&g2, &r.labels);
    }

    #[test]
    fn repair_with_every_edge_cut_partition() {
        // degenerate partition: every edge is cut, local graphs edgeless,
        // all changes flow through the overlay relabeling
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
        }
        let g = Arc::new(b.build());
        let shard_of: Vec<u32> = (0..12).map(|v| (v % 2) as u32).collect();
        let sg = Arc::new(ShardedGraph::with_partition(
            Arc::clone(&g),
            Partition::from_shard_of(shard_of, 2),
        ));
        let labels = ShardedLabels::build_on(Arc::clone(&sg), &ShardedConfig::default()).unwrap();
        // delete one ring edge, insert a chord — both cross-shard
        let mut gb = GraphBuilder::from_graph(&g);
        assert!(gb.remove_edge(nodes[0], nodes[1], r));
        assert!(gb.insert_edge(nodes[2], nodes[9], s));
        let g2 = Arc::new(gb.build());
        let rep = labels
            .repair(
                Arc::clone(&g2),
                &[(nodes[0], nodes[1], r), (nodes[2], nodes[9], s)],
                &ShardedConfig::default(),
            )
            .unwrap();
        assert_probe_parity(&g2, &rep.labels);
    }

    /// Two shards, {n0..n3} and {n4..n7}: an `r` ring through both cut
    /// edges n3 → n4 and n7 → n0, and an `s` two-cycle in each shard.
    fn two_rings() -> (Arc<ShardedGraph>, Vec<NodeId>, [Color; 2]) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..8).map(|i| b.add_node(&format!("n{i}"), [])).collect();
        let (r, s) = (b.color("r"), b.color("s"));
        for i in 0..8 {
            b.add_edge(n[i], n[(i + 1) % 8], r);
        }
        for (u, v) in [(0, 2), (2, 0), (5, 7), (7, 5), (1, 6)] {
            b.add_edge(n[u], n[v], s);
        }
        let g = Arc::new(b.build());
        let shard_of = (0..8).map(|v| v / 4).collect();
        let part = Partition::from_shard_of(shard_of, 2);
        (Arc::new(ShardedGraph::with_partition(g, part)), n, [r, s])
    }

    #[test]
    fn sweeps_follow_the_repaired_version() {
        let (sg, n, [r, s]) = two_rings();
        let config = ShardedConfig::default();
        let labels = ShardedLabels::build_on(Arc::clone(&sg), &config).unwrap();
        // intra-shard: a self-loop on n2 and n0 → n1 gone; cross-shard:
        // n4 → n3 closes a two-cycle that leaves n3's shard
        let changes = [(n[2], n[2], r), (n[0], n[1], r), (n[4], n[3], r)];
        let mut b = GraphBuilder::from_graph(sg.graph());
        assert!(b.insert_edge(n[2], n[2], r));
        assert!(b.remove_edge(n[0], n[1], r));
        assert!(b.insert_edge(n[4], n[3], r));
        let g2 = Arc::new(b.build());
        let rep = labels.repair(Arc::clone(&g2), &changes, &config).unwrap();
        let touched = rep.shards_repaired + rep.shards_rebuilt;
        assert_eq!((rep.shards_carried, touched), (1, 1));
        let labels = rep.labels;
        // what only the new version answers
        assert!(labels.has_cycle_within(&g2, n[2], r, Some(1)), "self-loop");
        assert!(
            labels.has_cycle_within(&g2, n[3], r, Some(2)),
            "cycle via n4"
        );
        let mut reached = Vec::new();
        labels.for_each_reaching_within(&g2, n[0], r, Some(3), &mut |z| reached.push(z));
        assert!(reached.is_empty(), "n0's only r edge is gone: {reached:?}");

        let graph = GraphProbe::new(&g2);
        let scan = |p: &dyn DistProbe, from, c, max| {
            let mut out = Vec::new();
            p.for_each_reaching_within(&g2, from, c, max, &mut |z| out.push(z));
            out.sort_unstable();
            out.dedup();
            out
        };
        let nodes: Vec<NodeId> = g2.nodes().collect();
        let target_sets: Vec<Vec<NodeId>> = (nodes.iter().map(|&v| vec![v]))
            .chain([nodes.clone()])
            .collect();
        for c in [r, s] {
            for max in [Some(0), Some(1), Some(2), Some(3), None] {
                for &v in &nodes {
                    let at = format!("{v:?} {c:?} within {max:?}");
                    assert_eq!(scan(&labels, v, c, max), scan(&graph, v, c, max), "{at}");
                    assert_eq!(
                        labels.has_cycle_within(&g2, v, c, max),
                        graph.has_cycle_within(&g2, v, c, max),
                        "cycle {at}"
                    );
                }
                for targets in &target_sets {
                    assert_eq!(
                        labels.sources_reaching_within(&g2, &nodes, targets, c, max),
                        graph.sources_reaching_within(&g2, &nodes, targets, c, max),
                        "sources into {targets:?}, {c:?} within {max:?}"
                    );
                }
            }
        }
        assert_probe_parity(&g2, &labels);
    }

    #[test]
    fn single_shard_and_stats() {
        let g = Arc::new(synthetic(30, 90, 1, 2, 2));
        let labels = ShardedLabels::build(&g, 1);
        assert_probe_parity(&g, &labels);
        let stats = labels.stats();
        assert_eq!(stats.shards, 1);
        assert_eq!(stats.cut_edges, 0);
        assert_eq!(stats.boundary_nodes, 0);
        assert_eq!(
            stats.overlay_bytes + stats.shard_bytes[0],
            stats.total_bytes()
        );
        let line = labels.stats().to_string();
        assert!(line.contains("1 shards"), "{line}");
    }
}
