//! [`IndexSlot`]: the one lifecycle every background-built label index
//! (hop labels, sharded labels) goes through.
//!
//! ```text
//!             stage one                        stage two
//! Absent ──claim──▶ Building ──ok──▶ Serving(k/n) ──settled──▶ Ready  (terminal)
//!    ▲                 │ │               │  ▲
//!    └────cancelled────┘ │               └──┘ cancelled: the layer stays
//!                        │                    pending, the role is free
//!                        └──over budget──▶ OverBudget  (terminal, pinned)
//! ```
//!
//! A build has two stages and the slot publishes between them. Stage one
//! produces an index that can already serve — for hop labels, every
//! concrete color layer — and *fails* over budget before anything is
//! published, so `OverBudget` stays a pinned verdict about the whole
//! index. Stage two fills the layers stage one left pending (the hop
//! index's wildcard layer, most of its bytes and build time) **into the
//! published index**: readers hold the same `Arc` throughout and see the
//! layer through [`covers`](IndexSlot::covers) the moment it lands; a
//! layer over budget is dropped there, never failed. An index with
//! nothing pending after stage one (sharded labels; an adopted index)
//! goes straight to `Ready`.
//!
//! Exactly one builder (background thread or forcing caller) runs at a
//! time, through both stages, and only while the slot's policy allows
//! the index at all. The shared `retired` flag cancels either stage
//! between landmarks and hands the builder role back: from `Building`
//! the slot is `Absent` again, from `Serving` it keeps serving what it
//! has — a retired engine's readers asked for no more — and in both a
//! deliberate [`force`](IndexSlot::force) on the still-live engine takes
//! the role and runs whatever is left. [`force`](IndexSlot::force)
//! returns only a settled outcome, never an index with a layer pending.
//! [`adopt`](IndexSlot::adopt) seeds a complete index and is a no-op
//! once anything has been published, `Serving` included. Only the
//! policy, the two stage closures, `progress` and the one-line
//! `describe` are per-backend.

use crate::batch::Query;
use rpq_graph::Color;
use rpq_index::HopBuildError;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

type BuildFn<T> = dyn Fn(Option<&AtomicBool>) -> Result<T, HopBuildError> + Send + Sync;
type FinishFn<T> = dyn Fn(&T, Option<&AtomicBool>) -> Result<(), HopBuildError> + Send + Sync;

/// A lazily-built label index of a [`QueryEngine`](crate::QueryEngine):
/// see [`QueryEngine::hop`](crate::QueryEngine::hop) and
/// [`QueryEngine::sharded`](crate::QueryEngine::sharded).
pub struct IndexSlot<T> {
    /// Unset = Absent or Building; `Some(_)` = Serving or Ready (which of
    /// the two, `progress` tells); `None` = OverBudget.
    cell: OnceLock<Option<Arc<T>>>,
    /// The builder-role claim: a stage is running, or a terminal state
    /// has been reached.
    claimed: AtomicBool,
    /// Set when the owning engine's graph version is superseded or the
    /// engine is dropped: a background build checks it between landmarks.
    retired: Arc<AtomicBool>,
    /// `hop` / `sharded`: names the build thread and its trace spans
    /// (`hop-build`, `hop-serving`, …).
    name: &'static str,
    /// Does policy allow this index right now?
    allowed: Box<dyn Fn() -> bool + Send + Sync>,
    /// Stage one: an index that can serve, or over budget.
    build: Box<BuildFn<T>>,
    /// Stage two: settle the layers stage one left pending, in place.
    /// Fails only by cancellation.
    finish: Box<FinishFn<T>>,
    /// `(answerable, planned)` layers: pending while they differ.
    progress: fn(&T) -> (usize, usize),
    describe: fn(&T) -> String,
    #[cfg(test)]
    hooks: hooks::TestHooks,
}

impl<T> fmt::Debug for IndexSlot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.cell.get() {
            Some(Some(index)) => match (self.progress)(index) {
                (built, planned) if built < planned => write!(f, "Serving({built}/{planned})"),
                _ => f.write_str("Ready"),
            },
            Some(None) => f.write_str("OverBudget"),
            None if self.claimed.load(Ordering::Acquire) => f.write_str("Building"),
            None => f.write_str("Absent"),
        }
    }
}

impl<T: Send + Sync + 'static> IndexSlot<T> {
    pub(crate) fn new(
        name: &'static str,
        retired: &Arc<AtomicBool>,
        allowed: impl Fn() -> bool + Send + Sync + 'static,
        describe: fn(&T) -> String,
        progress: fn(&T) -> (usize, usize),
        build: impl Fn(Option<&AtomicBool>) -> Result<T, HopBuildError> + Send + Sync + 'static,
        finish: impl Fn(&T, Option<&AtomicBool>) -> Result<(), HopBuildError> + Send + Sync + 'static,
    ) -> Arc<Self> {
        Arc::new(IndexSlot {
            cell: OnceLock::new(),
            claimed: AtomicBool::new(false),
            retired: Arc::clone(retired),
            name,
            allowed: Box::new(allowed),
            build: Box::new(build),
            finish: Box::new(finish),
            progress,
            describe,
            #[cfg(test)]
            hooks: hooks::TestHooks::default(),
        })
    }

    /// The index, once stage one has published it — possibly with a layer
    /// still pending (the planner asks per color, see
    /// [`HopLabels::has_layer`](rpq_index::HopLabels::has_layer)). Never
    /// blocks.
    pub fn get(&self) -> Option<&Arc<T>> {
        self.cell.get().and_then(Option::as_ref)
    }

    /// The index a plan on this backend was promised.
    pub(crate) fn ready(&self) -> &T {
        self.get()
            .unwrap_or_else(|| panic!("the plan requires a published {} index", self.name))
    }

    /// Does policy allow this index right now?
    pub(crate) fn allowed(&self) -> bool {
        (self.allowed)()
    }

    /// Did a build exceed its budget? Pinned: retrying cannot succeed.
    pub(crate) fn over_budget(&self) -> bool {
        matches!(self.cell.get(), Some(None))
    }

    fn pending(&self, index: &T) -> bool {
        let (built, planned) = (self.progress)(index);
        built < planned
    }

    /// Is the index published with a layer for every color `query` probes
    /// (the wildcard layer may be still building, or dropped on budget)?
    pub(crate) fn covers(&self, query: &Query, has_layer: fn(&T, Color) -> bool) -> bool {
        self.get()
            .is_some_and(|index| query.all_colors(|c| has_layer(index, c)))
    }

    /// Seed the slot with a **complete** index built (or repaired)
    /// elsewhere — the live-update layer's carry-forward path and
    /// [`QueryEngine::build_sharded`](crate::QueryEngine::build_sharded).
    /// It takes the builder role for good, so an index with a layer
    /// pending would never get it built. No-op once a build has published.
    pub(crate) fn adopt(&self, index: Arc<T>) {
        debug_assert!(!self.pending(&index), "adopt a complete index");
        self.claimed.store(true, Ordering::Release);
        let _ = self.cell.set(Some(index));
    }

    /// Build the index *now*, on the calling thread (benches and tests
    /// that need a deterministic index-backed plan; production traffic
    /// relies on the background build instead), and return only once no
    /// layer is pending. Ignores the `retired` flag — a force is
    /// deliberate: it runs whichever stages a cancelled background build
    /// left undone. If a build is in flight, waits for its outcome rather
    /// than building the same index twice. `None` when policy forbids the
    /// index or the build exceeded its budget.
    pub fn force(&self) -> Option<Arc<T>> {
        while self.allowed() {
            match self.cell.get() {
                Some(None) => return None,
                Some(Some(index)) if !self.pending(index) => return Some(Arc::clone(index)),
                _ => {}
            }
            // whoever holds the claim will either settle the index or
            // (cancelled) give the role back, so poll cheaply
            if !self.claimed.swap(true, Ordering::AcqRel) {
                let index = self
                    .cell
                    .get_or_init(|| (self.build)(None).ok().map(Arc::new))
                    .clone()?;
                (self.finish)(&index, None).expect("nothing cancels a forced stage two");
                return Some(index);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.get().cloned()
    }

    /// Kick off the background build if policy allows and nobody has
    /// claimed it (and the engine is not retired). Each query keeps its
    /// fallback plan until the layers it probes have landed.
    pub(crate) fn ensure_background(self: &Arc<Self>) {
        if !self.allowed()
            || self.retired.load(Ordering::Relaxed)
            || self.cell.get().is_some()
            || self.claimed.swap(true, Ordering::AcqRel)
        {
            return;
        }
        let slot = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name(format!("{}-build", self.name))
            .spawn(move || slot.run_background());
        match spawned {
            // detached: the thread owns its `Arc` of the slot and ends on
            // its own, by completion or by the `retired` flag
            #[cfg(not(test))]
            Ok(_) => {}
            #[cfg(test)]
            Ok(handle) => *self.hooks.thread.lock().unwrap() = Some(handle),
            // no thread to be had: the next batch tries again
            Err(_) => self.claimed.store(false, Ordering::Release),
        }
    }

    /// The background builder: stage one, publication, stage two.
    fn run_background(&self) {
        let t0 = Instant::now();
        let cancel = Some(&*self.retired);
        let tracer = rpq_trace::tracer();
        let built = (self.build)(cancel).and_then(|index| {
            let index = Arc::new(index);
            let _ = self.cell.set(Some(Arc::clone(&index)));
            let (built, planned) = (self.progress)(&index);
            if built < planned {
                tracer.record_span(
                    "index",
                    &format!("{}-serving", self.name),
                    t0.elapsed(),
                    &format!("layers={built}/{planned} {}", (self.describe)(&index)),
                );
                #[cfg(test)]
                self.hooks.wait_between_stages();
                (self.finish)(&index, cancel)?;
            }
            Ok(index)
        });
        let detail = match built {
            Ok(index) => format!("ok {}", (self.describe)(&index)),
            Err(HopBuildError::OverBudget { .. }) => {
                let _ = self.cell.set(None);
                "over-budget: search fallback pinned".to_owned()
            }
            Err(HopBuildError::Cancelled) => {
                self.claimed.store(false, Ordering::Release);
                "cancelled: version superseded".to_owned()
            }
            Err(HopBuildError::RepairTooBroad { .. }) => {
                unreachable!("a build never runs the repair path")
            }
        };
        tracer.record_span(
            "index",
            &format!("{}-build", self.name),
            t0.elapsed(),
            &detail,
        );
    }
}

/// Test-only handles on the background build: a latch that holds it
/// between publication and stage two, and its thread to join — so tests
/// of the `Serving` state force their interleaving instead of sleeping.
#[cfg(test)]
mod hooks {
    use super::IndexSlot;
    use std::sync::{mpsc, Mutex};
    use std::thread::JoinHandle;

    #[derive(Default)]
    pub(super) struct TestHooks {
        gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
        pub(super) thread: Mutex<Option<JoinHandle<()>>>,
    }

    impl TestHooks {
        pub(super) fn wait_between_stages(&self) {
            let gate = self.gate.lock().unwrap().take();
            if let Some((arrived, release)) = gate {
                let _ = arrived.send(());
                // returns once the test drops its `StageLatch`
                let _ = release.recv();
            }
        }
    }

    /// The test's end of the latch installed by
    /// [`IndexSlot::hold_between_stages`]; dropping it lets stage two run.
    pub(crate) struct StageLatch {
        arrived: mpsc::Receiver<()>,
        _release: mpsc::Sender<()>,
    }

    impl StageLatch {
        /// Block until the background build has published stage one and
        /// stopped at the latch.
        pub(crate) fn wait_serving(&self) {
            self.arrived
                .recv()
                .expect("the build ended before it reached the latch");
        }
    }

    impl<T> IndexSlot<T> {
        /// Make the next background build stop after publishing stage one
        /// until the returned latch is dropped.
        pub(crate) fn hold_between_stages(&self) -> StageLatch {
            let (arrived_tx, arrived) = mpsc::channel();
            let (release, release_rx) = mpsc::channel();
            *self.hooks.gate.lock().unwrap() = Some((arrived_tx, release_rx));
            StageLatch {
                arrived,
                _release: release,
            }
        }

        /// Join the background build thread, if one was started.
        pub(crate) fn join_background(&self) {
            let thread = self.hooks.thread.lock().unwrap().take();
            if let Some(handle) = thread {
                handle.join().expect("the index build thread panicked");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-stage index: nothing is ever pending.
    fn slot(
        build: impl Fn(Option<&AtomicBool>) -> Result<u32, HopBuildError> + Send + Sync + 'static,
    ) -> Arc<IndexSlot<u32>> {
        let retired = Arc::new(AtomicBool::new(false));
        IndexSlot::new(
            "test",
            &retired,
            || true,
            |n| format!("n={n}"),
            |_| (1, 1),
            build,
            |_, _| Ok(()),
        )
    }

    /// A two-stage index: stage two settles its second layer.
    struct Staged(AtomicBool);

    fn staged_slot() -> Arc<IndexSlot<Staged>> {
        let retired = Arc::new(AtomicBool::new(false));
        IndexSlot::new(
            "test",
            &retired,
            || true,
            |_| String::new(),
            |s| (1 + usize::from(s.0.load(Ordering::SeqCst)), 2),
            |_| Ok(Staged(AtomicBool::new(false))),
            |s, cancel| {
                if cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
                    return Err(HopBuildError::Cancelled);
                }
                s.0.store(true, Ordering::SeqCst);
                Ok(())
            },
        )
    }

    #[test]
    fn stage_one_is_published_while_stage_two_runs() {
        let s = staged_slot();
        let latch = s.hold_between_stages();
        s.ensure_background();
        latch.wait_serving();
        assert_eq!(format!("{s:?}"), "Serving(1/2)");
        let early = Arc::clone(s.get().expect("stage one is published"));
        assert!(!early.0.load(Ordering::SeqCst));
        drop(latch);
        s.join_background();
        assert_eq!(format!("{s:?}"), "Ready");
        // no second publication: the reader's `Arc` is the settled index
        assert!(early.0.load(Ordering::SeqCst));
        assert!(Arc::ptr_eq(&early, &s.force().expect("ready")));
    }

    #[test]
    fn force_finishes_the_stage_a_retired_build_left_pending() {
        let s = staged_slot();
        let latch = s.hold_between_stages();
        s.ensure_background();
        latch.wait_serving();
        s.retired.store(true, Ordering::Relaxed);
        drop(latch);
        s.join_background(); // cancelled: the thread is gone ...
        assert_eq!(format!("{s:?}"), "Serving(1/2)"); // ... the layer pending
        s.ensure_background();
        s.join_background();
        assert_eq!(
            format!("{s:?}"),
            "Serving(1/2)",
            "retired: no background retry"
        );
        // a force never returns an index with a layer pending: it takes
        // the role the cancelled build handed back and runs the stage
        let forced = s.force().expect("within budget");
        assert!(forced.0.load(Ordering::SeqCst));
        assert_eq!(format!("{s:?}"), "Ready");
    }

    #[test]
    fn cancelled_background_build_hands_the_role_back() {
        // background builds (cancel flag given) are cancelled; a forced
        // build (no flag) succeeds — and must get the role to do so
        let s = slot(|cancel| cancel.map_or(Ok(7), |_| Err(HopBuildError::Cancelled)));
        s.ensure_background();
        // force waits out the in-flight build, then claims the role
        assert_eq!(s.force().as_deref(), Some(&7));
        assert_eq!(s.get().map(|n| **n), Some(7));
        assert!(!s.over_budget(), "a cancel never pins a failure");
    }

    #[test]
    fn over_budget_outcome_is_pinned() {
        let (tx, rx) = std::sync::mpsc::channel();
        let tx = std::sync::Mutex::new(tx);
        let s = slot(move |_| {
            tx.lock().unwrap().send(()).unwrap();
            Err(HopBuildError::OverBudget {
                budget: 1,
                reached: 2,
            })
        });
        s.ensure_background();
        assert_eq!(s.force(), None, "force reports the in-flight outcome");
        assert!(s.over_budget());
        assert!(s.get().is_none());
        // later kicks and forces are no-ops: the builder ran exactly once
        s.ensure_background();
        assert_eq!(s.force(), None);
        rx.recv().unwrap();
        assert!(
            rx.try_recv().is_err(),
            "retrying cannot succeed: no rebuild"
        );
    }

    #[test]
    fn adopt_after_ready_is_a_noop_and_retired_slots_never_start() {
        let s = slot(|_| Ok(1));
        assert_eq!(s.force().as_deref(), Some(&1));
        s.adopt(Arc::new(2));
        assert_eq!(s.get().map(|n| **n), Some(1), "first landed index wins");

        let fresh = slot(|_| Ok(3));
        fresh.adopt(Arc::new(4));
        assert_eq!(fresh.force().as_deref(), Some(&4), "adopted, not rebuilt");

        let retired = slot(|_| panic!("a retired slot must not build in the background"));
        retired.retired.store(true, Ordering::Relaxed);
        retired.ensure_background();
        assert_eq!(format!("{retired:?}"), "Absent");

        let forbidden: Arc<IndexSlot<u32>> = IndexSlot::new(
            "test",
            &Arc::new(AtomicBool::new(false)),
            || false,
            |_| String::new(),
            |_| (1, 1),
            |_| panic!("policy forbids this index"),
            |_, _| Ok(()),
        );
        forbidden.ensure_background();
        assert_eq!(forbidden.force(), None);
        assert_eq!(format!("{forbidden:?}"), "Absent");
    }
}
