//! Pruned landmark (2-hop) distance labeling: [`HopLabels`].
//!
//! The dense per-color [`DistanceMatrix`](rpq_graph::DistanceMatrix) of §4
//! is the fastest RQ backend but costs O(|Σ|·|V|²) memory, which caps it at
//! a few thousand nodes. This module trades the matrix for *labels*: every
//! node `u` stores, per color layer,
//!
//! * `Lout(u)` — a set of `(hub, dist(u → hub))` entries, and
//! * `Lin(u)` — a set of `(hub, dist(hub → u))` entries,
//!
//! such that for every reachable pair `(u, v)` some shortest path `u ⇝ v`
//! passes through a hub present in both `Lout(u)` and `Lin(v)`. A distance
//! probe is then a merge of two short sorted lists:
//!
//! ```text
//! dist(u, v) = min { d(u → h) + d(h → v) : h ∈ Lout(u) ∩ Lin(v) }
//! ```
//!
//! Labels are built by **pruned BFS** in the style of Akiba, Iwata &
//! Yoshida (SIGMOD'13), adapted to directed, per-color layers: nodes are
//! ranked by (union-graph SCC size, degree) — members of a giant strongly
//! connected component cover the most shortest paths — and processed in
//! rank order; the BFS from landmark `r` prunes every node whose distance
//! is already covered by earlier (higher-ranked) hubs. On hub-heavy graphs
//! the prune fires almost immediately for late landmarks, which is what
//! keeps total label size near-linear in practice while the cover stays
//! **exact**: every node is processed as a landmark, so probes equal BFS
//! ground truth bit-for-bit.
//!
//! A finished layer also reads off its own labels, once, the length of
//! the shortest nonempty cycle through every node (4 bytes per node), so
//! the paper's |path| ≥ 1 diagonal — [`DistProbe::has_cycle_within`], one
//! test per scanned node in RQ evaluation — is a table read rather than
//! an edge walk with a label merge per edge.
//!
//! One layer is built per concrete color, and none for the wildcard `_` of
//! query regexes: [`HopLabels::has_layer`]`(WILDCARD)` is false, and the
//! engine answers `_`-bearing queries over the graph itself
//! (`GraphProbe`). A layer over the union of all colors would hold most
//! of the entries (the union graph's giant SCC makes every label long),
//! take most of the build time, and — because every edge change lies in
//! that SCC's cone — invalidate nearly every landmark on each write, while
//! a bounded BFS answers the same `_` probes faster.

use crate::probe::DistProbe;
use rpq_graph::algo::condensation;
use rpq_graph::{Color, Graph, NodeId, INFINITY};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distances saturate one below [`INFINITY`], mirroring
/// [`bfs_distances`](rpq_graph::algo::bfs_distances).
const DIST_CAP: u16 = u16::MAX - 1;

/// Unset marker inside the per-landmark scratch table.
const UNSET: u16 = u16::MAX;

/// Tuning knobs for [`HopLabels::build_with`].
#[derive(Debug, Clone, Default)]
pub struct HopConfig {
    /// Abort the build once the estimated index footprint exceeds this many
    /// bytes (`0` = unlimited).
    pub budget_bytes: usize,
}

/// Why a build did not produce an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HopBuildError {
    /// The estimated footprint exceeded [`HopConfig::budget_bytes`] while a
    /// color layer was under construction.
    OverBudget {
        /// The configured budget.
        budget: usize,
        /// Estimated bytes at the moment the build gave up.
        reached: usize,
    },
    /// A [`HopLabels::repair`] would have re-run more landmarks than the
    /// caller's limit — the caller should fall back to a full rebuild,
    /// which amortizes better once most of the index is dirty anyway.
    RepairTooBroad {
        /// Landmarks whose pruned BFS trees touch the changed edges,
        /// summed across layers.
        invalidated: usize,
        /// The caller-supplied ceiling that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for HopBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HopBuildError::OverBudget { budget, reached } => {
                write!(f, "hop-label budget exceeded: {reached} > {budget} bytes")
            }
            HopBuildError::RepairTooBroad { invalidated, limit } => {
                write!(
                    f,
                    "hop-label repair would invalidate {invalidated} landmarks (limit {limit})"
                )
            }
        }
    }
}

impl std::error::Error for HopBuildError {}

/// No admitted cycle through the node, in [`Layer::cycle`].
const NO_CYCLE: u32 = u32::MAX;

/// One color layer: per-node `Lout`/`Lin` labels in CSR form (hubs stored
/// as *ranks*, ascending, so probes are sorted-merge joins) plus the
/// inverted `Lin` lists used by bounded neighborhood scans and the
/// per-node shortest-cycle table. The arrays are shared slices, so
/// cloning a layer — how [`HopLabels::repair`] carries an untouched one —
/// bumps ten reference counts and copies nothing, while probes reach the
/// data exactly as through a `Vec`.
#[derive(Debug, Clone)]
struct Layer {
    out_offsets: Arc<[u32]>,
    out_hubs: Arc<[u32]>,
    out_dists: Arc<[u16]>,
    in_offsets: Arc<[u32]>,
    in_hubs: Arc<[u32]>,
    in_dists: Arc<[u16]>,
    /// inverted `Lin`: for hub rank `h`, every `(node, dist(h → node))`
    inv_offsets: Arc<[u32]>,
    inv_nodes: Arc<[u32]>,
    inv_dists: Arc<[u16]>,
    /// per node `v`: the length of the shortest nonempty cycle through `v`
    /// in this layer's color — min over admitted out-edges `(v, u)` of 1
    /// if `u = v`, else `1 + dist(u, v)` ([`NO_CYCLE`] = none)
    cycle: Arc<[u32]>,
}

impl Layer {
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

    fn inv_list(&self, hub_rank: usize) -> (&[u32], &[u16]) {
        let lo = self.inv_offsets[hub_rank] as usize;
        let hi = self.inv_offsets[hub_rank + 1] as usize;
        (&self.inv_nodes[lo..hi], &self.inv_dists[lo..hi])
    }

    fn entries(&self) -> usize {
        self.out_hubs.len() + self.in_hubs.len()
    }

    fn bytes(&self) -> usize {
        bytes_for_entries(self.out_hubs.len(), self.in_hubs.len(), self.cycle.len())
    }
}

/// Label entries are `(u32 rank, u16 dist)`; `Lin` entries appear twice
/// (once inverted). Three offset arrays of `nodes + 1` entries and the
/// cycle table add four `u32` per node per layer.
fn bytes_for_entries(out_entries: usize, in_entries: usize, nodes: usize) -> usize {
    (out_entries + 2 * in_entries) * 6 + (3 * (nodes + 1) + nodes) * 4
}

/// Aggregate build statistics, for logs and bench reports.
#[derive(Debug, Clone)]
pub struct HopStats {
    /// Nodes the index covers.
    pub nodes: usize,
    /// Color layers built (the alphabet size).
    pub colors: usize,
    /// Landmarks processed per layer: every node.
    pub landmarks: usize,
    /// Strongly connected components of the union graph (ordering
    /// signal: big SCCs breed good hubs).
    pub scc_count: usize,
    /// Total label entries across all layers and both directions.
    pub entries: usize,
    /// Estimated resident bytes of the whole index.
    pub bytes: usize,
}

impl fmt::Display for HopStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let per_node = self.entries as f64 / (self.nodes.max(1) * 2 * self.colors.max(1)) as f64;
        write!(
            f,
            "{} nodes, {} color layers, {} sccs, {} entries (avg {:.1}/node/layer/dir), ~{} KiB",
            self.nodes,
            self.colors,
            self.scc_count,
            self.entries,
            per_node,
            self.bytes / 1024
        )
    }
}

/// Pruned 2-hop distance labels: one layer per concrete color. Implements
/// [`DistProbe`] for those colors, so RQ evaluation runs unchanged against
/// it (see `Rq::eval_with_dist` in `rpq-core`).
#[derive(Debug, Clone)]
pub struct HopLabels {
    n: usize,
    /// `layers[c]` for concrete color `c` (a layer over budget fails the
    /// whole build, so none is ever missing).
    layers: Vec<Layer>,
    scc_count: usize,
    /// The frozen landmark ranking (`order[rank] = node`). Kept so
    /// [`HopLabels::repair`] can re-run individual landmarks under the
    /// *same* ranking the original build used — any fixed ranking yields an
    /// exact cover, so repairs never need to re-rank even when degrees or
    /// SCCs shift under updates.
    order: Vec<u32>,
}

impl HopLabels {
    /// Build labels with default configuration (no budget). Cannot fail.
    pub fn build(g: &Graph) -> Self {
        Self::build_with(g, &HopConfig::default()).expect("unbudgeted build cannot fail")
    }

    /// Rank the landmarks and build every color layer under
    /// `config.budget_bytes`.
    pub fn build_with(g: &Graph, config: &HopConfig) -> Result<Self, HopBuildError> {
        let n = g.node_count();
        let m = g.alphabet().len();

        let t0 = Instant::now();
        // Landmark order: union-graph SCC size first (nodes inside a giant
        // component lie on the most shortest paths), then total degree.
        let (comp_of, comps) = condensation(n, |v| {
            g.out_edges(NodeId(v as u32)).iter().map(|e| e.node.index())
        });
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&v| {
            let vi = v as usize;
            let scc = comps[comp_of[vi]].len();
            let deg = g.out_degree(NodeId(v)) + g.in_degree(NodeId(v));
            (std::cmp::Reverse(scc), std::cmp::Reverse(deg), v)
        });

        rpq_trace::tracer().record_span(
            "index",
            "hop-rank",
            t0.elapsed(),
            &format!("nodes={n} sccs={}", comps.len()),
        );

        // maintenance from nothing: no old layer, every rank to run
        let plan = (0..m).map(|c| (Color(c as u8), None, vec![true; n]));
        let layers = LayerBuilder::run_layers(g, &order, plan, config.budget_bytes)?;
        Ok(HopLabels {
            n,
            layers,
            scc_count: comps.len(),
            order,
        })
    }

    /// Repair the labels in place of a full rebuild after `changes` were
    /// applied to the graph this index was built on, yielding `g`.
    ///
    /// An edge change `(u, v)` invalidates only the landmarks whose pruned
    /// BFS trees could have seen it: those that reached `u` or were reached
    /// by `v` in the *old* graph — decided exactly from the old labels
    /// themselves (for inserts the prefix up to the first new edge is an
    /// old-graph path; for deletes the broken path existed in the old
    /// graph; either way the landmark reached the changed tail). Entries of
    /// unaffected landmarks are carried verbatim — their distances cannot
    /// have changed and their pruning certificates transfer (a certificate
    /// hub that were affected would make the pruned landmark affected too,
    /// by reachability transitivity). Affected landmarks are stripped and
    /// their pruned BFS re-run in ascending rank order on the new graph
    /// against the mixed kept/repaired label set, under the **original**
    /// frozen ranking (any fixed ranking yields an exact cover, so no
    /// re-ranking is needed). The repaired index answers every probe
    /// identically to a from-scratch build — it may merely carry a few
    /// redundant entries where updates weakened old pruning decisions.
    ///
    /// `invalidation_limit` (`0` = unlimited) bounds the total landmark
    /// re-runs across layers; beyond it the call fails fast with
    /// [`HopBuildError::RepairTooBroad`] *before* doing any BFS work, so
    /// callers can cheaply decide "repair or rebuild". `budget_bytes`
    /// mirrors [`HopConfig::budget_bytes`]: a layer over budget fails the
    /// repair.
    ///
    /// # Panics
    ///
    /// If `g` changed the node set or alphabet (updates are edge-only).
    pub fn repair(
        &self,
        g: &Graph,
        changes: &[(NodeId, NodeId, Color)],
        budget_bytes: usize,
        invalidation_limit: usize,
    ) -> Result<HopRepair, HopBuildError> {
        assert_eq!(g.node_count(), self.n, "updates must preserve the node set");
        assert_eq!(
            g.alphabet().len(),
            self.layers.len(),
            "updates must preserve the alphabet"
        );

        // Phase 1: affected landmark set per layer, and the total up front
        // so the cost model can bail before any BFS runs.
        let t0 = Instant::now();
        let plan: Vec<LayerPlan> = (self.layers.iter().enumerate())
            .map(|(c, layer)| {
                let lc = Color(c as u8);
                let relevant: Vec<(NodeId, NodeId)> = changes
                    .iter()
                    .filter(|&&(_, _, ec)| lc.admits(ec))
                    .map(|&(u, v, _)| (u, v))
                    .collect();
                let affected = if relevant.is_empty() {
                    Vec::new()
                } else {
                    self.affected_ranks(layer, &relevant)
                };
                (lc, Some(layer), affected)
            })
            .collect();
        let invalidated: usize = plan
            .iter()
            .map(|(_, _, affected)| affected.iter().filter(|&&a| a).count())
            .sum();
        if invalidation_limit != 0 && invalidated > invalidation_limit {
            return Err(HopBuildError::RepairTooBroad {
                invalidated,
                limit: invalidation_limit,
            });
        }

        // Phase 2: per touched layer, strip the affected ranks and re-run
        // exactly those landmarks on the new graph; untouched layers are
        // carried by reference.
        let t_invalidated = Instant::now();
        let layers = LayerBuilder::run_layers(g, &self.order, plan, budget_bytes)?;

        let t_rebuilt = Instant::now();
        let phases = vec![
            ("invalidate", t_invalidated - t0),
            ("re-bfs", t_rebuilt - t_invalidated),
        ];
        let tracer = rpq_trace::tracer();
        if tracer.enabled() {
            tracer.record_span(
                "index",
                "hop-repair",
                t_rebuilt - t0,
                &format!("invalidated={invalidated}/{} landmarks", self.n),
            );
        }
        Ok(HopRepair {
            labels: HopLabels {
                n: self.n,
                layers,
                scc_count: self.scc_count,
                order: self.order.clone(),
            },
            landmarks_invalidated: invalidated,
            phases,
        })
    }

    /// Every rank that reached a changed tail or was reached by a changed
    /// head (old graph, this layer). Reachability is read off the 2-hop
    /// cover itself: `r ⇝ u` iff `Lout(r)` and `Lin(u)` share a hub, so
    /// one bitmap of the endpoints' hubs plus one sweep over all landmark
    /// labels decides every rank in O(index size).
    fn affected_ranks(&self, layer: &Layer, changes: &[(NodeId, NodeId)]) -> Vec<bool> {
        let mut fwd_mark = vec![false; self.n];
        let mut bwd_mark = vec![false; self.n];
        for &(u, v) in changes {
            let (ih, _) = layer.in_label(u.index());
            for &h in ih {
                fwd_mark[h as usize] = true;
            }
            let (oh, _) = layer.out_label(v.index());
            for &h in oh {
                bwd_mark[h as usize] = true;
            }
        }
        self.order
            .iter()
            .map(|&r| {
                let (oh, _) = layer.out_label(r as usize);
                let (ih, _) = layer.in_label(r as usize);
                oh.iter().any(|&h| fwd_mark[h as usize]) || ih.iter().any(|&h| bwd_mark[h as usize])
            })
            .collect()
    }

    /// Number of nodes the index covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Is `color` answerable from this index? True for every concrete
    /// color, false for [`WILDCARD`](rpq_graph::WILDCARD): label indices
    /// hold concrete colors, `_` is answered by the graph.
    pub fn has_layer(&self, color: Color) -> bool {
        !color.is_wildcard()
    }

    /// Estimated resident bytes of the index.
    pub fn bytes(&self) -> usize {
        self.layers.iter().map(Layer::bytes).sum()
    }

    /// Build statistics for logs and bench reports.
    pub fn stats(&self) -> HopStats {
        HopStats {
            nodes: self.n,
            colors: self.layers.len(),
            landmarks: self.n,
            scc_count: self.scc_count,
            entries: self.layers.iter().map(Layer::entries).sum(),
            bytes: self.bytes(),
        }
    }

    fn layer_or_panic(&self, color: Color) -> &Layer {
        self.layers
            .get(usize::from(color.0))
            .unwrap_or_else(|| panic!("no hop-label layer for {color:?} (check has_layer first)"))
    }

    /// Fold a target set into one per-hub minimum — the "distance into a
    /// target set" aggregation of PQ refinement: for every hub rank `h`,
    /// `best[h] = min over y of dist(h → y)`, alongside the minimizing `y`
    /// and the runner-up over a **different** `y` (what makes diagonal
    /// exclusion in [`HopLabels::dist_into`] possible). Targets must be
    /// distinct for the runner-up column to be meaningful.
    ///
    /// Cost: one pass over the targets' `Lin` labels — `O(Σ|Lin(y)|)`.
    fn in_aggregate(&self, color: Color, targets: &[NodeId]) -> InSetAgg {
        let layer = self.layer_or_panic(color);
        const NO_Y: u32 = u32::MAX;
        let mut agg = InSetAgg {
            color,
            best: vec![UNSET; self.n],
            best_y: vec![NO_Y; self.n],
            second: vec![UNSET; self.n],
        };
        for &y in targets {
            let (ih, id) = layer.in_label(y.index());
            for (&h, &d) in ih.iter().zip(id) {
                let h = h as usize;
                if d < agg.best[h] {
                    if agg.best_y[h] != y.0 {
                        agg.second[h] = agg.best[h];
                    }
                    agg.best[h] = d;
                    agg.best_y[h] = y.0;
                } else if agg.best_y[h] != y.0 && d < agg.second[h] {
                    agg.second[h] = d;
                }
            }
        }
        agg
    }

    /// The distance from `from` into an aggregated target set:
    /// `min over y of dist(from, y)`, read off one `Lout` scan
    /// against the per-hub table of [`HopLabels::in_aggregate`]. With
    /// `exclude = Some(x)` hubs whose minimum is owed to `x` fall back
    /// to the runner-up, yielding `min over y ≠ x` — the diagonal case of
    /// bulk refinement. Returns [`INFINITY`] when no target is reachable;
    /// finite results saturate at the BFS cap like every other probe.
    fn dist_into(&self, from: NodeId, agg: &InSetAgg, exclude: Option<NodeId>) -> u16 {
        let layer = self.layer_or_panic(agg.color);
        let (oh, od) = layer.out_label(from.index());
        let mut best = u32::MAX;
        for (&h, &d1) in oh.iter().zip(od) {
            let h = h as usize;
            let d2 = match exclude {
                Some(x) if agg.best_y[h] == x.0 => agg.second[h],
                _ => agg.best[h],
            };
            if d2 != UNSET {
                best = best.min(d1 as u32 + d2 as u32);
            }
        }
        if best == u32::MAX {
            INFINITY
        } else {
            best.min(DIST_CAP as u32) as u16
        }
    }
}

/// A successful [`HopLabels::repair`]: the repaired index plus how much
/// work the repair actually did, for cost models and metrics.
#[derive(Debug, Clone)]
pub struct HopRepair {
    /// The repaired index — probe-identical to a from-scratch build.
    pub labels: HopLabels,
    /// Landmarks whose pruned BFS was re-run, summed across layers. Zero
    /// means every label was carried verbatim (the changes touched no
    /// landmark tree of any built layer).
    pub landmarks_invalidated: usize,
    /// Wall-clock phase breakdown: `invalidate` (affected-landmark
    /// marking across layers, before any BFS) and `re-bfs` (stripping and
    /// re-running the affected landmarks). The live-update layer bubbles
    /// these into its `IndexMaintenance::phases` accounting.
    pub phases: Vec<(&'static str, Duration)>,
}

/// Per-hub minima over a target set — see
/// [`HopLabels::in_aggregate`]. Produced once per (set, color) and
/// consumed by any number of [`HopLabels::dist_into`] scans.
struct InSetAgg {
    color: Color,
    /// per hub rank: min over targets of `dist(h → y)` ([`UNSET`] = none).
    best: Vec<u16>,
    /// the target achieving `best`.
    best_y: Vec<u32>,
    /// min over targets other than `best_y`.
    second: Vec<u16>,
}

impl DistProbe for HopLabels {
    fn dist(&self, from: NodeId, to: NodeId, color: Color) -> u16 {
        if from == to {
            return 0;
        }
        let layer = self.layer_or_panic(color);
        let (oh, od) = layer.out_label(from.index());
        let (ih, id) = layer.in_label(to.index());
        // merge-join on hub rank (both sides ascending)
        let mut best = u32::MAX;
        let (mut i, mut j) = (0usize, 0usize);
        while i < oh.len() && j < ih.len() {
            match oh[i].cmp(&ih[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let sum = od[i] as u32 + id[j] as u32;
                    best = best.min(sum);
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

    fn for_each_within(&self, from: NodeId, color: Color, max: u16, f: &mut dyn FnMut(NodeId)) {
        let layer = self.layer_or_panic(color);
        let (oh, od) = layer.out_label(from.index());
        for (&h, &d1) in oh.iter().zip(od) {
            if d1 > max {
                continue;
            }
            let rem = max - d1;
            let (nodes, dists) = layer.inv_list(h as usize);
            for (&z, &d2) in nodes.iter().zip(dists) {
                if d2 <= rem && z != from.0 {
                    f(NodeId(z));
                }
            }
        }
    }

    /// One read of the layer's cycle table — the trait default's edge
    /// walk, precomputed when the layer was built: the shortest nonempty
    /// cycle through `from` fits `max_len` (`None` = unbounded).
    fn has_cycle_within(
        &self,
        _g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        let shortest = self.layer_or_panic(color).cycle[from.index()];
        shortest != NO_CYCLE && max_len.is_none_or(|k| shortest <= k)
    }

    /// Target-side hub aggregation: fold every target's `Lin` into a
    /// per-hub minimum (`best_in[h] = min_y d(h → y)`, with its
    /// minimizing target `best_y[h]`) *and* the runner-up over a
    /// **different** target (`second_in[h]`), then answer each source
    /// with a single `Lout` scan against those tables — two passes over
    /// labels, no per-pair hub merges (with sets like the all-of-V match
    /// sets normalization creates for dummy nodes, anything pairwise
    /// here is quadratic in `|V|`).
    ///
    /// The runner-up column is what keeps the aggregation lossless for a
    /// source `x` that is itself a target: at any hub whose minimum is
    /// achieved by `x` (in particular `x`'s own hub, where the empty
    /// path contributes 0), `second_in` restores the cheapest distance
    /// to a *different* target, so `best_excl = min_{y ≠ x} dist(x, y)`
    /// falls out of the same scan. A source in the target set
    /// additionally reads [`DistProbe::has_cycle_within`] — one lookup in
    /// the layer's cycle table — for the cycle witness.
    fn sources_reaching_within(
        &self,
        g: &Graph,
        sources: &[NodeId],
        targets: &[NodeId],
        color: Color,
        max_len: Option<u32>,
    ) -> Vec<bool> {
        let budget = max_len.unwrap_or(u32::MAX);
        let agg = self.in_aggregate(color, targets);
        let mut is_target = vec![false; self.n];
        for &y in targets {
            is_target[y.index()] = true;
        }
        sources
            .iter()
            .map(|&x| {
                if is_target[x.index()] {
                    // nonempty-path diagonal: a cycle back to x, or a
                    // path to a target other than x
                    if self.has_cycle_within(g, x, color, max_len) {
                        return true;
                    }
                    let d = self.dist_into(x, &agg, Some(x));
                    d != INFINITY && (d as u32) <= budget
                } else {
                    let d = self.dist_into(x, &agg, None);
                    d != INFINITY && (d as u32) <= budget
                }
            })
            .collect()
    }
}

/// One layer for [`LayerBuilder::run_layers`] to produce: its color, then
/// `(old, rerun)` — re-run the `rerun` ranks over `old`'s other entries
/// or, with no rank to re-run, carry `old`.
type LayerPlan<'a> = (Color, Option<&'a Layer>, Vec<bool>);

/// Shared per-build scratch: reused across layers so one build allocates
/// its working set once.
struct LayerBuilder<'a> {
    g: &'a Graph,
    order: &'a [u32],
    /// scratch: landmark's own label distances, indexed by hub rank
    tmp: Vec<u16>,
    /// scratch: BFS distances, indexed by node
    dist: Vec<u16>,
    touched: Vec<u32>,
    queue: VecDeque<NodeId>,
}

impl<'a> LayerBuilder<'a> {
    fn new(g: &'a Graph, order: &'a [u32]) -> Self {
        let n = g.node_count();
        LayerBuilder {
            g,
            order,
            tmp: vec![UNSET; n],
            dist: vec![UNSET; n],
            touched: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// The one layer loop — a fresh build is maintenance from nothing: the
    /// build plans its layers as "no old layer, every rank",
    /// [`HopLabels::repair`] as "the old layer, its affected ranks".
    /// `budget` (`0` = unlimited) bounds the running footprint, carried
    /// layers included: a layer over it fails the whole call (typical
    /// queries need every color to be coverable).
    fn run_layers<'p>(
        g: &Graph,
        order: &[u32],
        plan: impl IntoIterator<Item = LayerPlan<'p>>,
        budget: usize,
    ) -> Result<Vec<Layer>, HopBuildError> {
        let mut builder = LayerBuilder::new(g, order);
        let mut layers = Vec::new();
        let mut bytes_so_far = 0;
        for (color, old, rerun) in plan {
            let layer = match old {
                Some(old) if !rerun.contains(&true) => old.clone(),
                _ => {
                    let tl = Instant::now();
                    let layer = builder.repair_layer(color, old, &rerun, budget, bytes_so_far)?;
                    let detail = format!("color={color} bytes={}", layer.bytes());
                    rpq_trace::tracer().record_span("index", "hop-layer", tl.elapsed(), &detail);
                    layer
                }
            };
            bytes_so_far += layer.bytes();
            layers.push(layer);
        }
        Ok(layers)
    }

    /// Thaw `old` into mutable per-node lists *minus* every entry owned by
    /// a rank to re-run (no `old`: empty lists), then run exactly those
    /// landmarks (ascending rank) against the mixed kept/re-run label set
    /// — with every rank this is the canonical from-scratch pruned
    /// labeling, with some the splice step of [`HopLabels::repair`]. Kept
    /// entries stay in ascending rank order through the thaw; re-run
    /// appends land at the tail, so touched lists are re-sorted before
    /// freezing back to CSR (which also rebuilds the inverted lists
    /// wholesale). The cycle table is recomputed from the finished labels
    /// on every call — a re-run rank can shorten or break any cycle.
    fn repair_layer(
        &mut self,
        color: Color,
        old: Option<&Layer>,
        rerun: &[bool],
        budget: usize,
        bytes_before: usize,
    ) -> Result<Layer, HopBuildError> {
        let n = self.g.node_count();
        let thaw = |label: (&[u32], &[u16])| -> Vec<(u32, u16)> {
            label
                .0
                .iter()
                .zip(label.1)
                .filter(|&(&h, _)| !rerun[h as usize])
                .map(|(&h, &d)| (h, d))
                .collect()
        };
        let (mut lin, mut lout): (Vec<_>, Vec<_>) = match old {
            Some(old) => (0..n)
                .map(|v| (thaw(old.in_label(v)), thaw(old.out_label(v))))
                .unzip(),
            None => (vec![Vec::new(); n], vec![Vec::new(); n]),
        };
        let mut in_entries: usize = lin.iter().map(Vec::len).sum();
        let mut out_entries: usize = lout.iter().map(Vec::len).sum();

        for (rank, _) in rerun.iter().enumerate().filter(|&(_, &hit)| hit) {
            let r = NodeId(self.order[rank]);

            // forward pruned BFS: covers r → u through hubs of Lout(r)
            // (scratch) joined with Lin(u); survivors append (rank, d) to
            // Lin(u) — the prune side and the write side are the same side
            self.seed_tmp(&lout[r.index()], rank);
            in_entries += self.pruned_bfs(r, rank, color, true, &mut lin);
            self.clear_tmp(&lout[r.index()], rank);

            // backward pruned BFS: covers u → r, writes Lout(u)
            self.seed_tmp(&lin[r.index()], rank);
            out_entries += self.pruned_bfs(r, rank, color, false, &mut lout);
            self.clear_tmp(&lin[r.index()], rank);

            if budget != 0 {
                let so_far = bytes_before + bytes_for_entries(out_entries, in_entries, n);
                if so_far > budget {
                    return Err(HopBuildError::OverBudget {
                        budget,
                        reached: so_far,
                    });
                }
            }
        }

        for l in lin.iter_mut().chain(lout.iter_mut()) {
            if l.windows(2).any(|w| w[0].0 > w[1].0) {
                l.sort_unstable_by_key(|&(h, _)| h);
            }
        }
        let cycle = self.cycle_table(color, &lin, &lout);
        Ok(Self::freeze(lin, lout, cycle))
    }

    /// The finished layer's [`Layer::cycle`], read off its own labels: per
    /// node `v`, `Lin(v)` is spread into the rank-indexed scratch once and
    /// each admitted out-edge `(v, u)` scans `Lout(u)` against it —
    /// `dist(u, v)` as a probe's merge computes it, saturated alike.
    fn cycle_table(
        &mut self,
        color: Color,
        lin: &[Vec<(u32, u16)>],
        lout: &[Vec<(u32, u16)>],
    ) -> Vec<u32> {
        let g = self.g;
        let tmp = &mut self.tmp;
        g.nodes()
            .map(|v| {
                let mut shortest = NO_CYCLE;
                let mut seeded = false;
                for e in g.out_edges_of(v, color) {
                    if e.node == v {
                        shortest = 1;
                        continue;
                    }
                    if !seeded {
                        for &(h, d) in &lin[v.index()] {
                            tmp[h as usize] = d;
                        }
                        seeded = true;
                    }
                    let back = lout[e.node.index()]
                        .iter()
                        .filter(|&&(h, _)| tmp[h as usize] != UNSET)
                        .map(|&(h, d)| d as u32 + tmp[h as usize] as u32)
                        .min();
                    if let Some(back) = back {
                        shortest = shortest.min(1 + back.min(DIST_CAP as u32));
                    }
                }
                if seeded {
                    for &(h, _) in &lin[v.index()] {
                        tmp[h as usize] = UNSET;
                    }
                }
                shortest
            })
            .collect()
    }

    /// Seed the scratch table from `r`'s opposite-direction label. Only
    /// ranks **above** the current landmark participate in pruning — when
    /// every rank runs each entry already satisfies `h < rank`, but a
    /// repair re-runs a landmark against a label set that retains entries
    /// of *lower*-ranked (later) hubs, which must not prune it.
    fn seed_tmp(&mut self, label: &[(u32, u16)], rank: usize) {
        for &(h, d) in label {
            if (h as usize) < rank {
                self.tmp[h as usize] = d;
            }
        }
        self.tmp[rank] = 0;
    }

    fn clear_tmp(&mut self, label: &[(u32, u16)], rank: usize) {
        for &(h, _) in label {
            if (h as usize) < rank {
                self.tmp[h as usize] = UNSET;
            }
        }
        self.tmp[rank] = UNSET;
    }

    /// One pruned BFS from `r` (forward over out-edges when `forward`,
    /// else backward over in-edges). A visited node is *pruned* when the
    /// scratch `tmp` (seeded from `r`'s opposite-direction label) joined
    /// with `side[u]` already covers the BFS distance — pruned nodes are
    /// neither labeled nor expanded. Survivors append `(rank, d)` to
    /// `side[u]`. Returns the number of labels added.
    fn pruned_bfs(
        &mut self,
        r: NodeId,
        rank: usize,
        color: Color,
        forward: bool,
        side: &mut [Vec<(u32, u16)>],
    ) -> usize {
        let g = self.g;
        debug_assert!(self.queue.is_empty());
        self.dist[r.index()] = 0;
        self.touched.push(r.0);
        self.queue.push_back(r);
        let mut added = 0usize;
        while let Some(u) = self.queue.pop_front() {
            let du = self.dist[u.index()];
            // is (r ⇝ u) already covered by higher-ranked hubs? forward
            // covers r → u via hubs h: d(r→h) (tmp, from Lout(r)) +
            // d(h→u) (Lin(u) = the side being written); backward is the
            // mirror image. The first certifying hub decides: the prune
            // needs *a* cover no longer than `du`, not the shortest one.
            let covered = side[u.index()].iter().any(|&(h, dh)| {
                // `h < rank` mirrors `seed_tmp`: during a repair the side
                // being written still holds entries of lower-ranked hubs,
                // which the canonical construction must ignore
                (h as usize) < rank && {
                    let t = self.tmp[h as usize];
                    t != UNSET && t as u32 + dh as u32 <= du as u32
                }
            });
            if covered {
                continue;
            }
            side[u.index()].push((rank as u32, du));
            added += 1;
            let next = du.saturating_add(1).min(DIST_CAP);
            let adj = if forward {
                g.out_edges_of(u, color)
            } else {
                g.in_edges_of(u, color)
            };
            for e in adj {
                if self.dist[e.node.index()] == UNSET {
                    self.dist[e.node.index()] = next;
                    self.touched.push(e.node.0);
                    self.queue.push_back(e.node);
                }
            }
        }
        for &t in &self.touched {
            self.dist[t as usize] = UNSET;
        }
        self.touched.clear();
        added
    }

    fn freeze(lin: Vec<Vec<(u32, u16)>>, lout: Vec<Vec<(u32, u16)>>, cycle: Vec<u32>) -> Layer {
        let n = lin.len();
        let pack = |labels: &[Vec<(u32, u16)>]| {
            let (mut offsets, mut hubs, mut dists) =
                (Vec::with_capacity(n + 1), Vec::new(), Vec::new());
            offsets.push(0);
            for l in labels {
                for &(h, d) in l {
                    hubs.push(h);
                    dists.push(d);
                }
                offsets.push(hubs.len() as u32);
            }
            (offsets, hubs, dists)
        };
        let (out_offsets, out_hubs, out_dists) = pack(&lout);
        let (in_offsets, in_hubs, in_dists) = pack(&lin);

        // invert Lin by hub rank (counting sort: labels are already grouped
        // per node, we regroup per hub)
        let mut counts = vec![0u32; n + 1];
        for l in &lin {
            for &(h, _) in l {
                counts[h as usize + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let inv_offsets: Arc<[u32]> = counts.as_slice().into();
        let total = *counts.last().unwrap_or(&0) as usize;
        let mut inv_nodes = vec![0; total];
        let mut inv_dists = vec![0; total];
        let mut cursor = counts;
        for (v, l) in lin.iter().enumerate() {
            for &(h, d) in l {
                let slot = cursor[h as usize] as usize;
                inv_nodes[slot] = v as u32;
                inv_dists[slot] = d;
                cursor[h as usize] += 1;
            }
        }
        Layer {
            out_offsets: out_offsets.into(),
            out_hubs: out_hubs.into(),
            out_dists: out_dists.into(),
            in_offsets: in_offsets.into(),
            in_hubs: in_hubs.into(),
            in_dists: in_dists.into(),
            inv_offsets,
            inv_nodes: inv_nodes.into(),
            inv_dists: inv_dists.into(),
            cycle: cycle.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::pairwise_sources_reaching;
    use rpq_graph::gen::{essembly, synthetic};
    use rpq_graph::{DistanceMatrix, GraphBuilder, WILDCARD};

    fn all_colors(g: &Graph) -> Vec<Color> {
        g.alphabet().colors().collect()
    }

    fn assert_parity(g: &Graph) {
        assert_probe_parity(g, &HopLabels::build(g));
    }

    fn lcg(s: &mut u64) -> u64 {
        *s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *s >> 33
    }

    /// Apply `count` pseudo-random edge flips to `g`, returning the new
    /// graph and the effective change list (repair's input contract).
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

    fn assert_probe_parity(g: &Graph, h: &HopLabels) {
        let m = DistanceMatrix::build(g);
        for c in all_colors(g) {
            for u in g.nodes() {
                for v in g.nodes() {
                    assert_eq!(
                        DistProbe::dist(h, u, v, c),
                        m.dist(u, v, c),
                        "dist({u:?},{v:?},{c:?})"
                    );
                }
                let mut want = vec![false; g.node_count()];
                m.for_each_within(u, c, 3, &mut |z| want[z.index()] = true);
                let mut got = vec![false; g.node_count()];
                h.for_each_within(u, c, 3, &mut |z| got[z.index()] = true);
                assert_eq!(got, want, "scan from {u:?} color {c:?}");
                // the cycle table against the matrix's edge walk
                for k in [Some(0u32), Some(1), Some(2), Some(3), None] {
                    assert_eq!(
                        h.has_cycle_within(g, u, c, k),
                        m.has_cycle_within(g, u, c, k),
                        "cycle at {u:?} color {c:?} within {k:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn essembly_parity() {
        assert_parity(&essembly());
    }

    #[test]
    fn repair_matches_rebuild_after_updates() {
        for seed in [2u64, 11, 37] {
            let g = synthetic(40, 140, 2, 3, seed);
            let h = HopLabels::build(&g);
            let (g2, eff) = random_mutation_round(&g, 12, seed ^ 0xBEEF);
            assert!(!eff.is_empty());
            let repaired = h.repair(&g2, &eff, 0, 0).unwrap();
            assert!(repaired.landmarks_invalidated > 0);
            assert_probe_parity(&g2, &repaired.labels);
        }
    }

    #[test]
    fn chained_repairs_stay_exact() {
        let mut g = synthetic(30, 90, 2, 2, 7);
        let mut h = HopLabels::build(&g);
        for round in 0..4u64 {
            let (g2, eff) = random_mutation_round(&g, 6, 101 + round);
            h = h.repair(&g2, &eff, 0, 0).unwrap().labels;
            g = g2;
        }
        assert_probe_parity(&g, &h);
    }

    #[test]
    fn repair_with_no_changes_carries_everything() {
        let g = synthetic(25, 70, 2, 2, 3);
        let h = HopLabels::build(&g);
        let r = h.repair(&g, &[], 0, 0).unwrap();
        assert_eq!(r.landmarks_invalidated, 0);
        assert_probe_parity(&g, &r.labels);
    }

    #[test]
    fn repair_too_broad_bails_before_work() {
        let g = synthetic(40, 200, 2, 2, 9);
        let h = HopLabels::build(&g);
        let (g2, eff) = random_mutation_round(&g, 10, 0xC0FFEE);
        match h.repair(&g2, &eff, 0, 1) {
            Err(HopBuildError::RepairTooBroad { invalidated, limit }) => {
                assert!(invalidated > 1);
                assert_eq!(limit, 1);
            }
            other => panic!("expected RepairTooBroad, got {other:?}"),
        }
    }

    #[test]
    fn synthetic_parity() {
        for seed in [1u64, 9, 23] {
            assert_parity(&synthetic(40, 140, 2, 3, seed));
        }
    }

    #[test]
    fn scan_matches_matrix_row() {
        let g = synthetic(60, 240, 2, 3, 5);
        let m = DistanceMatrix::build(&g);
        let h = HopLabels::build(&g);
        for c in all_colors(&g) {
            for u in g.nodes() {
                for max in [1u16, 3, DIST_CAP] {
                    let mut want = vec![false; g.node_count()];
                    DistProbe::for_each_within(&m, u, c, max, &mut |z| want[z.index()] = true);
                    let mut got = vec![false; g.node_count()];
                    h.for_each_within(u, c, max, &mut |z| got[z.index()] = true);
                    assert_eq!(got, want, "scan from {u:?} color {c:?} max {max}");
                }
            }
        }
    }

    #[test]
    fn cycle_and_reaches_semantics() {
        let g = essembly();
        let m = DistanceMatrix::build(&g);
        let h = HopLabels::build(&g);
        for c in all_colors(&g) {
            for u in g.nodes() {
                for v in g.nodes() {
                    for k in [None, Some(0u32), Some(1), Some(2), Some(5)] {
                        assert_eq!(
                            h.reaches_within(&g, u, v, c, k),
                            m.reaches_within(&g, u, v, c, k),
                            "reaches {u:?}->{v:?} {c:?} within {k:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn budget_fails_concrete_but_degrades_wildcard() {
        // the one layer loop entered from both sides: a fresh build of
        // `g`, and a repair of the old graph's labels onto `g`
        let g_old = synthetic(200, 800, 2, 3, 8);
        let old = HopLabels::build(&g_old);
        let (g, eff) = random_mutation_round(&g_old, 12, 0xB0D6E7);
        for repair in [false, true] {
            let run = |budget_bytes: usize| {
                if repair {
                    old.repair(&g, &eff, budget_bytes, 0).map(|r| r.labels)
                } else {
                    HopLabels::build_with(&g, &HopConfig { budget_bytes })
                }
            };
            // 1 byte: even the first layer cannot fit — nothing degrades,
            // the whole call fails (the engine then pins search)
            match run(1) {
                Err(HopBuildError::OverBudget { budget: 1, .. }) => {}
                other => panic!("repair={repair}: expected OverBudget, got {other:?}"),
            }
            // the exact footprint fits, and what fits is every concrete
            // layer and no `_` layer
            let full = run(0).expect("unbudgeted");
            let h = run(full.bytes()).expect("the exact footprint fits");
            assert_eq!(h.bytes(), full.bytes());
            assert!(!h.has_layer(WILDCARD), "repair={repair}");
            for c in g.alphabet().colors() {
                assert!(h.has_layer(c));
            }
            assert_probe_parity(&g, &h);
        }
        // every layer counts against a build's budget: one byte short of
        // the whole index fails it
        let full = HopLabels::build(&g);
        let short = HopConfig {
            budget_bytes: full.bytes() - 1,
        };
        assert!(matches!(
            HopLabels::build_with(&g, &short),
            Err(HopBuildError::OverBudget { .. })
        ));
    }

    #[test]
    fn first_certifying_hub_prunes_like_the_minimum() {
        // `pruned_bfs` stops scanning at the first hub that certifies the
        // prune instead of minimizing over all of them: the decision, and
        // so every label, is the one the full minimum gave — these are
        // the counts of the build that took the minimum (its color layers'
        // label bytes, plus each layer's 4-byte-per-node cycle table)
        for (g, entries, label_bytes) in [
            (synthetic(200, 800, 2, 3, 8), 5874, 59082),
            (essembly(), 73, 1044),
        ] {
            let h = HopLabels::build(&g);
            let cycle_bytes = 4 * g.node_count() * g.alphabet().len();
            assert_eq!(
                (h.stats().entries, h.bytes()),
                (entries, label_bytes + cycle_bytes)
            );
        }
    }

    #[test]
    fn bulk_sources_reaching_matches_pairwise() {
        // the hub-aggregated bulk path must agree with pairwise matrix
        // probes on every subset shape — disjoint, overlapping, identical,
        // strided (targets that are themselves high-rank hubs exercise the
        // runner-up column: a hub inside the target set must not mask the
        // distances through it) — and saturating bounds
        for seed in [11u64, 29, 77] {
            let g = synthetic(60, 240, 2, 3, seed);
            let m = DistanceMatrix::build(&g);
            let h = HopLabels::build(&g);
            let nodes: Vec<NodeId> = g.nodes().collect();
            let every_2nd: Vec<NodeId> = nodes.iter().copied().step_by(2).collect();
            let every_3rd: Vec<NodeId> = nodes.iter().copied().step_by(3).collect();
            let subsets: [(&[NodeId], &[NodeId]); 6] = [
                (&nodes[0..20], &nodes[30..50]),
                (&nodes[10..40], &nodes[20..30]), // overlapping: diagonal cases
                (&nodes[0..60], &nodes[0..60]),   // identical sets
                (&nodes[5..6], &nodes[5..6]),     // single node vs itself
                (&every_2nd, &every_3rd),         // strided, partial overlap
                (&nodes[0..60], &every_3rd),      // all sources, hubby targets
            ];
            for c in all_colors(&g) {
                for (sources, targets) in subsets {
                    for k in [None, Some(0u32), Some(1), Some(2), Some(7)] {
                        let got = h.sources_reaching_within(&g, sources, targets, c, k);
                        let want = pairwise_sources_reaching(&m, &g, sources, targets, c, k);
                        assert_eq!(got, want, "bulk({c:?}, within {k:?}, seed {seed})");
                    }
                }
            }
        }
    }

    #[test]
    fn stats_and_bytes_report() {
        let g = synthetic(80, 320, 2, 4, 6);
        let h = HopLabels::build(&g);
        let s = h.stats();
        assert_eq!(s.nodes, 80);
        assert_eq!(s.colors, 4);
        assert_eq!(s.landmarks, 80);
        assert!(s.entries > 0);
        assert_eq!(s.bytes, h.bytes());
        assert!(s.scc_count >= 1 && s.scc_count <= 80);
        let line = s.to_string();
        assert!(line.contains("80 nodes"), "{line}");
    }

    #[test]
    fn self_loop_and_disconnected() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        let z = b.add_node("z", []);
        let r = b.color("r");
        b.add_edge(x, x, r);
        b.add_edge(x, y, r);
        let g = b.build();
        let h = HopLabels::build(&g);
        assert_eq!(DistProbe::dist(&h, x, y, r), 1);
        assert_eq!(DistProbe::dist(&h, x, z, r), INFINITY);
        assert_eq!(DistProbe::dist(&h, z, z, r), 0);
        assert!(h.reaches_within(&g, x, x, r, Some(1)), "self loop");
        assert!(!h.reaches_within(&g, y, y, r, None));
        assert_probe_parity(&g, &h);
    }
}
