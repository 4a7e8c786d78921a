//! Live-update serving: [`UpdatableEngine`], the writer side of the
//! versioned-snapshot scheme.
//!
//! §7 of the paper motivates this layer: *"data graphs are frequently
//! modified, and it is too costly to re-evaluate PQs … every time the
//! graphs are updated"*. The engine therefore separates the two roles:
//!
//! * **Writers** call [`UpdatableEngine::apply`] with a batch of
//!   [`Update`]s. Under a writer mutex the batch is applied to the
//!   [`DynamicGraph`] (one O(|V| + |E| + U) rebuild), every registered
//!   standing PQ is maintained through its
//!   [`IncrementalMatcher`](rpq_core::incremental::IncrementalMatcher)
//!   (fixpoint restart from the standing match sets — §7's insertion/
//!   deletion monotonicity), the index is repaired or rebuilt for the new
//!   graph, and a fresh [`Snapshot`] is published by swapping one `Arc`.
//! * **Readers** call [`UpdatableEngine::snapshot`] (a read-lock `Arc`
//!   clone, no contention with the writer's update work) and run batches
//!   against it. A reader holding a snapshot is never blocked by — and
//!   never observes — a concurrent apply: it sees the graph, indices and
//!   standing answers of *its* version until it asks for a newer one.
//!
//! Standing PQs registered with [`UpdatableEngine::register_pq`] are
//! evaluated once and from then on *maintained*, not re-evaluated: each
//! published snapshot carries their current answers, and the snapshot's
//! batch path serves a matching PQ from those answers with plan
//! [`Algo::Standing`](crate::Algo::Standing).

use crate::engine::{EngineConfig, Index, QueryEngine};
use crate::error::EngineError;
use crate::snapshot::{IndexState, Snapshot, StandingEntry};
use rpq_core::incremental::{DynamicGraph, EdgeChange, IncrementalMatcher, Update};
use rpq_core::pq::{Pq, PqResult};
use rpq_graph::Graph;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Handle to a registered standing query (index into every snapshot's
/// standing answers, in registration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StandingId(usize);

impl StandingId {
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// What one [`UpdatableEngine::apply`] call did.
#[derive(Debug, Clone)]
pub struct ApplyReport {
    /// Graph version after the batch (unchanged if nothing applied).
    pub version: u64,
    /// How many of the submitted updates actually changed the graph.
    pub applied: usize,
    /// What happened to the label index on this batch — repaired or
    /// rebuilt — with the work counts behind the verdict.
    pub index: IndexMaintenance,
    /// The snapshot now current — gives writers read-your-writes without a
    /// second lookup.
    pub snapshot: Arc<Snapshot>,
}

/// Index-maintenance accounting for one [`UpdatableEngine::apply`] batch:
/// how the predecessor snapshot's label index was carried into the new
/// one, observable without timing side channels.
#[derive(Debug, Clone)]
pub struct IndexMaintenance {
    /// The verdict, also published as
    /// [`Snapshot::index_state`](crate::Snapshot::index_state).
    pub state: IndexState,
    /// Landmarks whose pruned-BFS labels were invalidated by the batch,
    /// summed across layers; 0 in the sharded regime, which holds no labels.
    pub landmarks_invalidated: usize,
    /// Shards the batch touched (those holding an intra-shard change);
    /// `0` in the whole-graph regime.
    pub shards_touched: usize,
    /// Per-phase wall-clock breakdown of the whole `apply` call, in
    /// execution order: `validate` (whole-batch precondition checks),
    /// `apply` (dynamic-graph rebuild), `standing` (incremental standing
    /// matcher maintenance), `carry` (index carry/repair, or the rebuild
    /// that replaces a declined repair), `publish`
    /// (snapshot construction and the `Arc` swap) — followed by the carry
    /// step's inner repair phases when the hop index was repaired
    /// (`invalidate` / `re-bfs`). Empty for a no-op batch. The server exports these as
    /// `rpq_repair_phase_seconds_total{phase=...}`.
    pub phases: Vec<(&'static str, Duration)>,
}

impl Default for IndexMaintenance {
    fn default() -> Self {
        IndexMaintenance {
            state: IndexState::Stale,
            landmarks_invalidated: 0,
            shards_touched: 0,
            phases: Vec::new(),
        }
    }
}

/// Mutable state owned by the writer lock: the dynamic graph and one
/// incremental matcher per registered standing query, in [`StandingId`]
/// order.
struct WriterState {
    dynamic: DynamicGraph,
    matchers: Vec<IncrementalMatcher>,
}

/// A query engine over a *mutating* graph: writers apply update batches,
/// readers query immutable versioned [`Snapshot`]s, and registered
/// standing PQs are incrementally maintained instead of re-evaluated.
///
/// ```
/// use rpq_engine::{Query, UpdatableEngine};
/// use rpq_core::incremental::Update;
/// use rpq_core::pq::Pq;
/// use rpq_core::predicate::Predicate;
/// use rpq_graph::gen::essembly;
/// use rpq_regex::FRegex;
///
/// let engine = UpdatableEngine::new(essembly());
/// let g = engine.snapshot().graph().clone();
///
/// // a standing pattern: doctors reachable from biologists via fn edges
/// let mut pq = Pq::new();
/// let a = pq.add_node("a", Predicate::parse("job = \"biologist\"", g.schema()).unwrap());
/// let b = pq.add_node("b", Predicate::parse("job = \"doctor\"", g.schema()).unwrap());
/// pq.add_edge(a, b, FRegex::parse("fn+", g.alphabet()).unwrap());
/// let id = engine.register_pq(pq.clone());
///
/// // readers pin a version; writers keep publishing
/// let before = engine.snapshot();
/// let c1 = g.node_by_label("C1").unwrap();
/// let b1 = g.node_by_label("B1").unwrap();
/// let fnc = g.alphabet().get("fn").unwrap();
/// let report = engine.apply(&[Update::Insert(c1, b1, fnc)]).unwrap();
/// assert_eq!(report.applied, 1);
/// assert!(report.snapshot.version() > before.version());
///
/// // the old snapshot still answers from the old graph; the new one
/// // serves the standing query from its maintained answer
/// assert!(!before.graph().has_edge(c1, b1, fnc));
/// assert!(report.snapshot.graph().has_edge(c1, b1, fnc));
/// let out = report.snapshot.run_query(&Query::Pq(pq));
/// assert_eq!(out.as_pq().unwrap(), &*report.snapshot.standing_result(id).unwrap());
/// ```
pub struct UpdatableEngine {
    config: EngineConfig,
    writer: Mutex<WriterState>,
    current: RwLock<Arc<Snapshot>>,
}

impl UpdatableEngine {
    /// Live engine over `graph` with default configuration.
    pub fn new(graph: Graph) -> Self {
        Self::with_config(graph, EngineConfig::default())
    }

    /// Live engine over `graph` with explicit configuration (applied to
    /// every published snapshot's batch engine).
    pub fn with_config(graph: Graph, config: EngineConfig) -> Self {
        let dynamic = DynamicGraph::new(graph);
        let engine = QueryEngine::with_config(dynamic.graph_arc(), config.clone());
        let state = built_state(engine.index());
        let snapshot = Arc::new(Snapshot::new(
            dynamic.version(),
            Arc::new(engine),
            Vec::new(),
            state,
        ));
        UpdatableEngine {
            config,
            writer: Mutex::new(WriterState {
                dynamic,
                matchers: Vec::new(),
            }),
            current: RwLock::new(snapshot),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The current snapshot: a consistent view of the latest published
    /// graph version. An `Arc` clone under a read lock — readers never
    /// wait on in-flight update work.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().expect("snapshot lock poisoned"))
    }

    /// The currently published graph version.
    pub fn version(&self) -> u64 {
        self.snapshot().version()
    }

    /// Register a standing PQ: evaluated once now, incrementally maintained
    /// by every subsequent [`apply`](UpdatableEngine::apply), and served
    /// from the maintained answer whenever it appears in a batch.
    ///
    /// Every registration gets its own matcher. A batch query that
    /// respells a registered pattern (other node labels, equivalent regex
    /// spellings, the same node order) is served from the registered
    /// answer too: the snapshot matches it by shape at read time.
    pub fn register_pq(&self, pq: Pq) -> StandingId {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let matcher = IncrementalMatcher::new(pq.clone(), &writer.dynamic);
        let entry = StandingEntry::new(pq, matcher.match_sets().to_vec());
        writer.matchers.push(matcher);
        let id = StandingId(writer.matchers.len() - 1);

        // republish: same graph version, same engine — its (possibly
        // warmed) indices and memo carry over — one more standing answer
        let mut current = self.current.write().expect("snapshot lock poisoned");
        *current = Arc::new(current.with_standing(entry));
        id
    }

    /// Apply a batch of updates and publish the next snapshot.
    ///
    /// Under the writer lock: the dynamic graph rebuilds once, every
    /// standing matcher maintains its answer from the effective updates,
    /// the predecessor snapshot's label index is **carried forward
    /// through an incremental repair** where the cost model allows, and
    /// rebuilt from scratch otherwise (see [`IndexState`] and
    /// [`ApplyReport::index`]), and the new snapshot (its index complete,
    /// refreshed standing answers) replaces the current one with a single
    /// `Arc` swap. Readers keep serving the previous version, with its
    /// index, until then. A batch that changes nothing publishes nothing.
    ///
    /// # Errors
    ///
    /// The whole batch is validated before any of it is applied — an
    /// update naming a node the graph does not have
    /// ([`EngineError::NodeOutOfRange`]), a wildcard edge color
    /// ([`EngineError::WildcardEdge`]) or a color the graph's alphabet does
    /// not hold ([`EngineError::ColorOutOfRange`]) rejects the batch
    /// atomically, with the graph unchanged and no snapshot published.
    /// (The seed panicked inside the graph builder instead; a serving
    /// front-end needs the `Err`.)
    pub fn apply(&self, updates: &[Update]) -> Result<ApplyReport, EngineError> {
        let mut writer = self.writer.lock().expect("writer lock poisoned");
        let state = &mut *writer;
        let t0 = Instant::now();
        let node_count = state.dynamic.graph_arc().node_count();
        let colors = state.dynamic.graph_arc().alphabet().len();
        for update in updates {
            let (u, v, color) = match *update {
                Update::Insert(u, v, c) | Update::Delete(u, v, c) => (u, v, c),
            };
            for node in [u, v] {
                if node.index() >= node_count {
                    return Err(EngineError::NodeOutOfRange {
                        node: node.0,
                        node_count,
                    });
                }
            }
            if color.is_wildcard() {
                return Err(EngineError::WildcardEdge);
            }
            if usize::from(color.0) >= colors {
                return Err(EngineError::ColorOutOfRange {
                    color: color.0,
                    colors,
                });
            }
        }
        let t_validated = Instant::now();
        let effective = state.dynamic.apply(updates);
        if effective.is_empty() {
            let snapshot = self.snapshot();
            return Ok(ApplyReport {
                version: state.dynamic.version(),
                applied: 0,
                index: IndexMaintenance {
                    state: snapshot.index_state(),
                    ..IndexMaintenance::default()
                },
                snapshot,
            });
        }
        let t_applied = Instant::now();
        for matcher in &mut state.matchers {
            matcher.on_update(&state.dynamic, &effective);
        }
        // copy out the maintained match sets only; the full per-edge result
        // is assembled lazily by the snapshot when (and if) it is read
        let standing: Vec<StandingEntry> = state
            .matchers
            .iter()
            .map(|m| StandingEntry::new(m.pq().clone(), m.match_sets().to_vec()))
            .collect();
        let t_standing = Instant::now();
        let changes: Vec<EdgeChange> = effective
            .iter()
            .map(|u| match *u {
                Update::Insert(a, b, c) | Update::Delete(a, b, c) => (a, b, c),
            })
            .collect();
        // the new version's engine inherits the predecessor's memo cells,
        // to be patched on a miss, and its label index through a repair
        let prev = self.snapshot();
        let graph = state.dynamic.graph_arc();
        let (carried, mut index) = carry_index(prev.engine(), &graph, &self.config, &changes);
        let engine = Arc::new(
            QueryEngine::with_index(graph, self.config.clone(), carried)
                .with_memo(prev.engine().memo().carry(&changes)),
        );
        let t_carried = Instant::now();
        let snapshot = Arc::new(Snapshot::new(
            state.dynamic.version(),
            engine,
            standing,
            index.state,
        ));
        *self.current.write().expect("snapshot lock poisoned") = Arc::clone(&snapshot);
        let t_published = Instant::now();
        // the carry step's own inner phases (invalidate/re-bfs) come after
        // the five top-level ones
        let inner = std::mem::take(&mut index.phases);
        index.phases = vec![
            ("validate", t_validated - t0),
            ("apply", t_applied - t_validated),
            ("standing", t_standing - t_applied),
            ("carry", t_carried - t_standing),
            ("publish", t_published - t_carried),
        ];
        index.phases.extend(inner);
        let tracer = rpq_trace::tracer();
        if tracer.enabled() {
            tracer.record_span(
                "apply",
                "publish",
                t_published - t0,
                &format!(
                    "version={} applied={} state={:?} invalidated={} shards_touched={}",
                    snapshot.version(),
                    effective.len(),
                    index.state,
                    index.landmarks_invalidated,
                    index.shards_touched,
                ),
            );
        }
        Ok(ApplyReport {
            version: snapshot.version(),
            applied: effective.len(),
            index,
            snapshot,
        })
    }

    /// The maintained answer of standing query `id` in the current
    /// snapshot.
    pub fn standing_result(&self, id: StandingId) -> Option<Arc<PqResult>> {
        self.snapshot().standing_result(id)
    }
}

/// The state of a version whose index was built from scratch: `Built`
/// for a label index, `Stale` for the matrix or no index at all.
fn built_state(index: &Index) -> IndexState {
    if index.is_label() {
        IndexState::Built
    } else {
        IndexState::Stale
    }
}

/// Fraction of the hop index's landmarks a repair may invalidate before
/// the cost model prefers a from-scratch rebuild, inside the same write:
/// each invalidated landmark re-runs both pruned BFS directions, so past
/// a quarter of the order the repair approaches full-build cost without
/// its cache locality.
const HOP_REPAIR_LIMIT_DIVISOR: usize = 4;

/// The index of `graph` — `prev`'s graph with `changes` applied — and
/// what it took: `prev`'s label index carried through an incremental
/// repair, or, when there is none to carry or the repair declines
/// (too many landmarks invalidated for the hop index, over budget),
/// [`Index::build`] from scratch. Runs under the writer lock, so the new
/// version is published only with its index complete.
fn carry_index(
    prev: &QueryEngine,
    graph: &Arc<Graph>,
    config: &EngineConfig,
    changes: &[EdgeChange],
) -> (Index, IndexMaintenance) {
    let mut m = IndexMaintenance::default();
    let repaired = match prev.index() {
        Index::Hop(hop) => {
            let limit = (hop.node_count() / HOP_REPAIR_LIMIT_DIVISOR).max(1);
            Some(
                hop.repair(graph, changes, config.hop_label_budget, limit)
                    .map(|rep| {
                        m.landmarks_invalidated = rep.landmarks_invalidated;
                        m.phases = rep.phases;
                        Index::Hop(rep.labels)
                    }),
            )
        }
        // the partition is carried; the shards a change lands inside
        // are counted
        Index::Sharded(labels) => {
            let (labels, touched) = labels.repair(Arc::clone(graph), changes);
            m.shards_touched = touched;
            Some(Ok(Index::Sharded(labels)))
        }
        Index::Matrix(_) | Index::None => None,
    };
    let index = match repaired {
        Some(Ok(index)) => {
            m.state = IndexState::Repaired;
            index
        }
        declined => {
            if let Some(Err(e)) = declined {
                rpq_trace::tracer().event(
                    "apply",
                    "carry-fallback",
                    &format!("repair declined: {e}; rebuilding inside the write"),
                );
            }
            let index = Index::build(graph, config);
            m.state = built_state(&index);
            index
        }
    };
    (index, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Algo, Backend, Query};
    use rpq_core::predicate::Predicate;
    use rpq_core::rq::Rq;
    use rpq_graph::gen::essembly;
    use rpq_graph::{Color, NodeId};
    use rpq_regex::FRegex;

    fn fn_pq(g: &Graph) -> Pq {
        let mut pq = Pq::new();
        let a = pq.add_node(
            "a",
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        );
        let b = pq.add_node("b", Predicate::always_true());
        pq.add_edge(a, b, FRegex::parse("fn+", g.alphabet()).unwrap());
        pq
    }

    #[test]
    fn snapshots_are_isolated_from_later_updates() {
        let engine = UpdatableEngine::new(essembly());
        let g = engine.snapshot().graph().clone();
        let rq = Rq::new(
            Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap(),
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
            FRegex::parse("fa^2 fn", g.alphabet()).unwrap(),
        );
        let before = engine.snapshot();
        let before_answer = before.run_query(&Query::Rq(rq.clone()));

        // delete the C3 fan-in the q1 paths rely on
        let c3 = g.node_by_label("C3").unwrap();
        let b1 = g.node_by_label("B1").unwrap();
        let b2 = g.node_by_label("B2").unwrap();
        let fnc = g.alphabet().get("fn").unwrap();
        let report = engine
            .apply(&[Update::Delete(c3, b1, fnc), Update::Delete(c3, b2, fnc)])
            .unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.version, 1);

        // the pinned snapshot still serves the pre-update answer
        assert_eq!(before.version(), 0);
        assert_eq!(before.run_query(&Query::Rq(rq.clone())), before_answer);
        assert_eq!(
            before_answer.as_rq().unwrap().len(),
            4,
            "paper Example 2.2 ground truth"
        );
        // the new snapshot sees the deletion
        let after = engine.snapshot();
        assert!(after.run_query(&Query::Rq(rq)).as_rq().unwrap().is_empty());
    }

    #[test]
    fn standing_pq_is_served_not_reevaluated() {
        let engine = UpdatableEngine::new(essembly());
        let g = engine.snapshot().graph().clone();
        let pq = fn_pq(&g);
        let id = engine.register_pq(pq.clone());

        let snap = engine.snapshot();
        assert_eq!(snap.standing_count(), 1);
        assert_eq!(
            snap.plan_query(&Query::Pq(pq.clone())).algo(),
            Algo::Standing
        );

        let batch = snap.run_batch(&[Query::Pq(pq.clone())]);
        assert_eq!(batch.items()[0].plan.algo(), Algo::Standing);
        assert_eq!(
            batch.items()[0].output.as_pq().unwrap(),
            &*snap.standing_result(id).unwrap()
        );
        // a PQ that is NOT registered still gets an evaluation plan
        let mut other = fn_pq(&g);
        other.add_node("c", Predicate::always_true());
        assert_ne!(snap.plan_query(&Query::Pq(other)).algo(), Algo::Standing);
    }

    #[test]
    fn standing_answer_tracks_updates() {
        let engine = UpdatableEngine::new(essembly());
        let g = engine.snapshot().graph().clone();
        let pq = fn_pq(&g);
        let id = engine.register_pq(pq.clone());
        let pinned = engine.snapshot();
        let initial = engine.standing_result(id).unwrap();
        assert!(!initial.is_empty());

        // cut every fn edge out of B1: the answer must shrink accordingly
        let b1 = g.node_by_label("B1").unwrap();
        let fnc = g.alphabet().get("fn").unwrap();
        let cuts: Vec<Update> = g
            .out_edges(b1)
            .iter()
            .filter(|e| e.color == fnc)
            .map(|e| Update::Delete(b1, e.node, fnc))
            .collect();
        assert!(!cuts.is_empty());
        let report = engine.apply(&cuts).unwrap();
        let maintained = report.snapshot.standing_result(id).unwrap();

        // reference: full evaluation on the new graph
        let graph = rpq_index::GraphProbe::new(report.snapshot.graph());
        let reference = rpq_core::join_match::JoinMatch::eval(
            &pq,
            report.snapshot.graph(),
            &mut rpq_core::reach::ProbeReach::new(&graph),
        );
        assert_eq!(&*maintained, &reference);
        assert_ne!(&*maintained, &*initial, "the cut must change the answer");
        // the pinned pre-update snapshot keeps serving the old answer
        assert_eq!(&*pinned.standing_result(id).unwrap(), &*initial);
    }

    #[test]
    fn noop_apply_publishes_nothing() {
        let engine = UpdatableEngine::new(essembly());
        let g = engine.snapshot().graph().clone();
        let c1 = g.node_by_label("C1").unwrap();
        let b1 = g.node_by_label("B1").unwrap();
        let fnc = g.alphabet().get("fn").unwrap();
        assert!(!g.has_edge(c1, b1, fnc));
        let before = engine.snapshot();
        let report = engine.apply(&[Update::Delete(c1, b1, fnc)]).unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.version, 0);
        assert!(Arc::ptr_eq(&before, &engine.snapshot()), "no new snapshot");
    }

    #[test]
    fn bad_updates_are_rejected_atomically() {
        let engine = UpdatableEngine::new(essembly());
        let g = engine.snapshot().graph().clone();
        let c1 = g.node_by_label("C1").unwrap();
        let b1 = g.node_by_label("B1").unwrap();
        let fnc = g.alphabet().get("fn").unwrap();
        let n = g.node_count();
        let ghost = rpq_graph::NodeId(n as u32);
        let before = engine.snapshot();

        // a good update followed by a bad one: nothing may apply
        let err = engine
            .apply(&[Update::Insert(c1, b1, fnc), Update::Insert(c1, ghost, fnc)])
            .unwrap_err();
        assert_eq!(
            err,
            crate::EngineError::NodeOutOfRange {
                node: n as u32,
                node_count: n
            }
        );
        assert_eq!(
            engine
                .apply(&[Update::Insert(c1, b1, rpq_graph::WILDCARD)])
                .unwrap_err(),
            crate::EngineError::WildcardEdge
        );
        // graph unchanged, no snapshot published
        assert!(Arc::ptr_eq(&before, &engine.snapshot()));
        assert!(!engine.snapshot().graph().has_edge(c1, b1, fnc));
    }

    #[test]
    fn a_color_outside_the_alphabet_is_rejected_atomically() {
        let engine = UpdatableEngine::new(essembly());
        let g = engine.snapshot().graph().clone();
        let colors = g.alphabet().len();
        let x = g.node_by_label("C1").unwrap();
        let y = g.node_by_label("B1").unwrap();
        let fnc = g.alphabet().get("fn").unwrap();
        let ghost = Color(colors as u8);
        let before = engine.snapshot();
        let err = engine
            .apply(&[Update::Insert(x, y, fnc), Update::Insert(x, y, ghost)])
            .unwrap_err();
        assert_eq!(
            err,
            crate::EngineError::ColorOutOfRange {
                color: colors as u8,
                colors
            }
        );
        // the whole batch is refused: no version, no edge of either color
        assert!(Arc::ptr_eq(&before, &engine.snapshot()));
        assert_eq!(engine.snapshot().version(), 0);
        let g = engine.snapshot().graph().clone();
        assert!(!g.has_edge(x, y, ghost) && !g.has_edge(x, y, fnc));
        // the graph still prints
        rpq_graph::io::graph_to_string(&g);
    }

    fn rq(g: &Graph, from: &str, to: &str, re: &str) -> Rq {
        Rq::new(
            Predicate::parse(from, g.schema()).unwrap(),
            Predicate::parse(to, g.schema()).unwrap(),
            FRegex::parse(re, g.alphabet()).unwrap(),
        )
    }

    #[test]
    fn apply_repairs_hop_labels_across_versions() {
        // sparse on purpose: the repair cost model accepts a batch only
        // when its blast radius is a bounded fraction of the landmarks,
        // which a dense random digraph's giant reachable sets never are
        let g = rpq_graph::gen::synthetic(300, 280, 2, 3, 41);
        let engine = UpdatableEngine::with_config(
            g,
            EngineConfig::builder()
                .matrix_node_limit(0)
                .build()
                .unwrap(),
        );
        let first = engine.snapshot();
        assert_eq!(first.index_state(), crate::IndexState::Built);
        assert!(first.engine().hop().is_some(), "fits budget");
        let n = first.graph().node_count();

        // a small batch: the labels must be repaired, not rebuilt
        let g0 = first.graph().clone();
        let c0 = rpq_graph::Color(0);
        let report = engine
            .apply(&[
                Update::Insert(rpq_graph::NodeId(3), rpq_graph::NodeId(250), c0),
                Update::Delete(
                    g0.edges().next().map(|(u, _, _)| u).unwrap(),
                    g0.edges().next().map(|(_, v, _)| v).unwrap(),
                    g0.edges().next().map(|(_, _, c)| c).unwrap(),
                ),
            ])
            .unwrap();
        assert_eq!(report.index.state, crate::IndexState::Repaired);
        assert_eq!(report.snapshot.index_state(), crate::IndexState::Repaired);
        assert!(report.snapshot.engine().hop().is_some());
        assert!(report.index.landmarks_invalidated > 0);
        // one label set per landmark in each of the three color layers
        assert!(
            2 * report.index.landmarks_invalidated < n * 3,
            "a 2-edge batch must not invalidate most of the index"
        );

        // the carried index plans and answers immediately — and exactly
        let g1 = report.snapshot.graph().clone();
        let q = rq(&g1, "a0 <= 4", "a1 >= 6", "c0^2 c1");
        assert_eq!(
            report.snapshot.plan_query(&Query::Rq(q.clone())).backend(),
            Backend::Hop
        );
        assert_eq!(
            report
                .snapshot
                .run_query(&Query::Rq(q.clone()))
                .as_rq()
                .unwrap(),
            &q.eval_bfs(&g1)
        );

        // and the chain continues: the repaired index repairs again
        let report2 = engine
            .apply(&[Update::Insert(
                rpq_graph::NodeId(7),
                rpq_graph::NodeId(100),
                c0,
            )])
            .unwrap();
        assert_eq!(report2.index.state, crate::IndexState::Repaired);
        let g2 = report2.snapshot.graph().clone();
        assert_eq!(
            report2
                .snapshot
                .run_query(&Query::Rq(q.clone()))
                .as_rq()
                .unwrap(),
            &q.eval_bfs(&g2)
        );
    }

    /// The ledger's write: two inserts anywhere and two deletes of
    /// existing edges of `g`, drawn from `seed`.
    fn ledger_shaped_batch(g: &Graph, seed: &mut u64) -> Vec<Update> {
        let (n, colors) = (g.node_count(), g.alphabet().len());
        let mut next = |bound: usize| {
            *seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*seed >> 33) as usize % bound
        };
        let edges: Vec<_> = g.edges().collect();
        let mut updates = Vec::new();
        for _ in 0..2 {
            let (u, v) = (NodeId(next(n) as u32), NodeId(next(n) as u32));
            updates.push(Update::Insert(u, v, Color(next(colors) as u8)));
            let (u, v, c) = edges[next(edges.len())];
            updates.push(Update::Delete(u, v, c));
        }
        updates
    }

    #[test]
    fn ledger_shaped_writes_repair_the_hop_index() {
        // the ledger's hop-regime write, twelve times in a row. Every batch
        // is repaired in place — no write retires the index
        let g = rpq_graph::gen::youtube_like(2000, 1);
        let engine = UpdatableEngine::with_config(
            g,
            EngineConfig::builder()
                .matrix_node_limit(0)
                .build()
                .unwrap(),
        );
        assert!(engine.snapshot().engine().hop().is_some(), "fits budget");
        let n = engine.snapshot().graph().node_count();
        let mut seed = 1u64;
        for batch in 0..12 {
            let updates = ledger_shaped_batch(engine.snapshot().graph(), &mut seed);
            let report = engine.apply(&updates).unwrap();
            let m = &report.index;
            assert_eq!(m.state, crate::IndexState::Repaired, "batch {batch}");
            assert!(
                m.landmarks_invalidated < n / 4,
                "batch {batch}: {} landmarks invalidated",
                m.landmarks_invalidated
            );
            let g1 = report.snapshot.graph().clone();
            let q = rq(&g1, "cat = \"Music\"", "", "fc^2 fr");
            assert_eq!(
                report.snapshot.plan_query(&Query::Rq(q.clone())).name(),
                "hop"
            );
            assert_eq!(
                report
                    .snapshot
                    .run_query(&Query::Rq(q.clone()))
                    .as_rq()
                    .unwrap(),
                &q.eval_bfs(&g1),
                "batch {batch}"
            );
        }
    }

    /// A write rebuilds the matrix, or repairs the hop labels or the
    /// sharded regime, on its caller's stack, and the server applies
    /// writes on connection threads with 256 KiB of it: every regime has
    /// to fit half of that.
    #[test]
    fn a_write_fits_half_a_connection_threads_stack() {
        let hop = EngineConfig::builder().matrix_node_limit(0);
        let sharded = hop.clone().hop_label_budget(0).shards(4);
        let regimes = [
            (
                "matrix",
                rpq_graph::gen::youtube_like(600, 1),
                EngineConfig::builder(),
            ),
            ("hop", rpq_graph::gen::youtube_like(600, 1), hop),
            (
                "sharded",
                rpq_graph::gen::clustered(1200, 3600, 4, 2, 3, 3, 1),
                sharded,
            ),
        ];
        for (name, g, config) in regimes {
            let config = config.build().unwrap();
            std::thread::Builder::new()
                .stack_size(128 * 1024)
                .spawn(move || {
                    let engine = UpdatableEngine::with_config(g, config);
                    let index = engine.snapshot().engine().index().name();
                    assert_eq!(index, name);
                    let mut seed = 7u64;
                    for _ in 0..20 {
                        let updates = ledger_shaped_batch(engine.snapshot().graph(), &mut seed);
                        engine.apply(&updates).unwrap();
                    }
                    assert_eq!(engine.snapshot().engine().index().name(), name);
                })
                .unwrap()
                .join()
                .unwrap_or_else(|_| panic!("{name}: applied without overflowing"));
        }
    }

    #[test]
    fn too_broad_hop_repair_rebuilds_in_the_write() {
        let g = rpq_graph::gen::synthetic(300, 1200, 2, 3, 41);
        let config = EngineConfig::builder()
            .matrix_node_limit(0)
            .build()
            .unwrap();
        let engine = UpdatableEngine::with_config(g, config.clone());
        // a hub-making batch: 150 new edges out of one node invalidate
        // far more than a quarter of the landmarks
        let c0 = rpq_graph::Color(0);
        let batch: Vec<Update> = (1..150)
            .map(|v| Update::Insert(rpq_graph::NodeId(0), rpq_graph::NodeId(v), c0))
            .collect();
        let report = engine.apply(&batch).unwrap();
        assert_eq!(report.index.state, crate::IndexState::Built);
        assert_eq!(report.snapshot.index_state(), crate::IndexState::Built);
        assert_eq!(report.index.landmarks_invalidated, 0, "no repair ran");
        // the published snapshot is served from its rebuilt index at once
        let g1 = report.snapshot.graph().clone();
        let q = Query::Rq(rq(&g1, "a0 <= 4", "a1 >= 6", "c0 c1"));
        assert_eq!(report.snapshot.plan_query(&q).name(), "hop");
        let fresh = QueryEngine::with_config(Arc::clone(&g1), config);
        assert_eq!(report.snapshot.run_query(&q), fresh.run_query(&q));
    }

    #[test]
    fn a_write_touching_every_shard_is_repaired() {
        let g = rpq_graph::gen::clustered(400, 1600, 4, 2, 3, 60, 7);
        let engine = UpdatableEngine::with_config(
            g,
            EngineConfig::builder()
                .matrix_node_limit(0)
                .hop_label_budget(0)
                .shards(4)
                .build()
                .unwrap(),
        );
        let first = engine.snapshot();
        let (g0, labels) = (first.graph(), first.engine().sharded().unwrap());
        let part = labels.partition();
        // one new intra-shard edge in every shard
        let c0 = Color(0);
        let batch: Vec<Update> = (0..part.k())
            .map(|s| {
                let nodes: Vec<_> = g0.nodes().filter(|&v| part.shard_of(v) == s).collect();
                let (u, v) = (nodes.windows(2))
                    .map(|w| (w[0], w[1]))
                    .find(|&(u, v)| !g0.has_edge(u, v, c0))
                    .expect("a shard with a missing edge");
                Update::Insert(u, v, c0)
            })
            .collect();
        let report = engine.apply(&batch).unwrap();
        assert_eq!(report.index.state, crate::IndexState::Repaired);
        assert_eq!(report.index.shards_touched, part.k());
        assert_eq!(report.index.landmarks_invalidated, 0, "no label work");
        let g1 = report.snapshot.graph().clone();
        let q = rq(&g1, "a0 <= 4", "a1 >= 6", "c0^2 c1");
        let query = Query::Rq(q.clone());
        assert_eq!(report.snapshot.plan_query(&query).name(), "sharded");
        assert_eq!(
            report.snapshot.run_query(&query).as_rq().unwrap(),
            &q.eval_bfs(&g1)
        );
    }

    #[test]
    fn apply_repairs_sharded_labels_across_versions() {
        let g = rpq_graph::gen::clustered(400, 1600, 4, 2, 3, 60, 7);
        let engine = UpdatableEngine::with_config(
            g,
            EngineConfig::builder()
                .matrix_node_limit(0)
                .hop_label_budget(0) // single-index path disabled
                .shards(4)
                .build()
                .unwrap(),
        );
        let first = engine.snapshot();
        let built = first.engine().sharded().expect("builds");

        let g0 = first.graph().clone();
        let (u, v, c) = g0.edges().next().unwrap();
        let report = engine.apply(&[Update::Delete(u, v, c)]).unwrap();
        assert_eq!(report.index.state, crate::IndexState::Repaired);
        assert!(report.snapshot.engine().sharded().is_some());
        assert!(report.index.shards_touched <= 2);

        let g1 = report.snapshot.graph().clone();
        let q = rq(&g1, "a0 <= 4", "a1 >= 6", "c0^2 c1");
        assert_eq!(
            report.snapshot.plan_query(&Query::Rq(q.clone())).backend(),
            Backend::Sharded
        );
        assert_eq!(
            report
                .snapshot
                .run_query(&Query::Rq(q.clone()))
                .as_rq()
                .unwrap(),
            &q.eval_bfs(&g1)
        );

        // sustained stream: answers stay exact, index stays carried
        let mut seed = 5u64;
        for _ in 0..5 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(7);
            let a = rpq_graph::NodeId((seed % 400) as u32);
            let b = rpq_graph::NodeId(((seed >> 16) % 400) as u32);
            let r = engine
                .apply(&[Update::Insert(a, b, rpq_graph::Color(0))])
                .unwrap();
            if r.applied == 0 {
                continue;
            }
            let gi = r.snapshot.graph().clone();
            assert_eq!(
                r.snapshot.run_query(&Query::Rq(q.clone())).as_rq().unwrap(),
                &q.eval_bfs(&gi)
            );
        }
        assert_eq!(
            engine.snapshot().index_state(),
            crate::IndexState::Repaired,
            "steady-state writes keep the index carried"
        );
        // the partition is fixed for the life of the index: every repaired
        // version keeps the first build's node→shard assignment
        let last = engine.snapshot();
        let published = last.engine().sharded().unwrap();
        let (p0, p1) = (built.partition(), published.partition());
        for v in g0.nodes() {
            assert_eq!(p1.shard_of(v), p0.shard_of(v), "node {v:?} moved");
        }
    }

    #[test]
    fn matrix_regime_publishes_stale_state() {
        let engine = UpdatableEngine::new(essembly());
        assert_eq!(engine.snapshot().index_state(), crate::IndexState::Stale);
        let g = engine.snapshot().graph().clone();
        let c1 = g.node_by_label("C1").unwrap();
        let b1 = g.node_by_label("B1").unwrap();
        let fnc = g.alphabet().get("fn").unwrap();
        let report = engine.apply(&[Update::Insert(c1, b1, fnc)]).unwrap();
        assert_eq!(report.index.state, crate::IndexState::Stale);
        assert_eq!(report.index.landmarks_invalidated, 0);
        assert_eq!(report.index.shards_touched, 0);
        // noop applies echo the current state
        let noop = engine.apply(&[Update::Insert(c1, b1, fnc)]).unwrap();
        assert_eq!(noop.applied, 0);
        assert_eq!(noop.index.state, crate::IndexState::Stale);
    }

    #[test]
    fn unregistered_respelling_is_served_standing() {
        let engine = UpdatableEngine::new(essembly());
        let g = engine.snapshot().graph().clone();
        let doctor = Predicate::parse("job = \"doctor\"", g.schema()).unwrap();
        let mut a = Pq::new();
        let a0 = a.add_node("a", doctor);
        let a1 = a.add_node("b", Predicate::always_true());
        a.add_edge(a0, a1, FRegex::parse("fn fn^2", g.alphabet()).unwrap());
        engine.register_pq(a.clone());

        // the registered query with labels renamed and the regex respelled
        let mut variant = Pq::new();
        let v0 = variant.add_node("p", a.node(0).pred.clone());
        let v1 = variant.add_node("q", a.node(1).pred.clone());
        variant.add_edge(v0, v1, FRegex::parse("fn^2 fn", g.alphabet()).unwrap());
        let check = |snap: &Snapshot| {
            let g = snap.graph();
            assert_eq!(
                snap.plan_query(&Query::Pq(variant.clone())).algo(),
                Algo::Standing
            );
            assert_eq!(
                snap.run_query(&Query::Pq(variant.clone())).as_pq().unwrap(),
                &variant.eval_naive(g)
            );
        };
        check(&engine.snapshot());

        let hub = g.node_by_label("B1").unwrap();
        let fnc = g.alphabet().get("fn").unwrap();
        let cuts: Vec<Update> = g
            .out_edges(hub)
            .iter()
            .filter(|e| e.color == fnc)
            .map(|e| Update::Delete(hub, e.node, fnc))
            .collect();
        assert!(!cuts.is_empty());
        check(&engine.apply(&cuts).unwrap().snapshot);
    }

    #[test]
    fn registration_republishes_without_version_bump() {
        let engine = UpdatableEngine::new(essembly());
        let g = engine.snapshot().graph().clone();
        let v0 = engine.snapshot();
        let id = engine.register_pq(fn_pq(&g));
        let v0b = engine.snapshot();
        assert_eq!(v0b.version(), v0.version());
        assert_eq!(v0.standing_count(), 0, "pinned snapshot is immutable");
        assert_eq!(v0b.standing_count(), 1);
        assert!(v0b.standing_result(id).is_some());
        assert!(v0.standing_result(id).is_none());
    }
}
