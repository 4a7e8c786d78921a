//! [`IndexSlot`]: the one lifecycle every background-built label index
//! (hop labels, sharded labels) goes through.
//!
//! ```text
//! Absent ──claim──▶ Building ──ok──────────▶ Ready       (terminal)
//!    ▲                 │ ────over budget──▶ OverBudget  (terminal, pinned)
//!    └────cancelled────┘
//! ```
//!
//! Exactly one build (background or forced) runs at a time, and only
//! while the slot's policy allows the index at all; a background build
//! cancelled through the shared `retired` flag hands the builder role
//! back, so a deliberate [`force`](IndexSlot::force) on a still-live
//! engine can build after all. Only the policy, the build closure and the
//! one-line `describe` are per-backend.

use crate::batch::Query;
use rpq_graph::Color;
use rpq_index::HopBuildError;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

type BuildFn<T> = dyn Fn(Option<&AtomicBool>) -> Result<T, HopBuildError> + Send + Sync;

/// A lazily-built label index of a [`QueryEngine`](crate::QueryEngine):
/// see [`QueryEngine::hop`](crate::QueryEngine::hop) and
/// [`QueryEngine::sharded`](crate::QueryEngine::sharded).
pub struct IndexSlot<T> {
    /// Unset = Absent or Building; `Some(_)` = Ready; `None` = OverBudget.
    cell: OnceLock<Option<Arc<T>>>,
    /// The builder-role claim (Building, or a terminal state reached).
    claimed: AtomicBool,
    /// Set when the owning engine's graph version is superseded or the
    /// engine is dropped: a background build checks it between landmarks.
    retired: Arc<AtomicBool>,
    /// Trace span name of a background build (`hop-build`, …).
    name: &'static str,
    /// Does policy allow this index right now?
    allowed: Box<dyn Fn() -> bool + Send + Sync>,
    build: Box<BuildFn<T>>,
    describe: fn(&T) -> String,
}

impl<T> fmt::Debug for IndexSlot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self.cell.get() {
            Some(Some(_)) => "Ready",
            Some(None) => "OverBudget",
            None if self.claimed.load(Ordering::Acquire) => "Building",
            None => "Absent",
        })
    }
}

impl<T: Send + Sync + 'static> IndexSlot<T> {
    pub(crate) fn new(
        name: &'static str,
        retired: &Arc<AtomicBool>,
        allowed: impl Fn() -> bool + Send + Sync + 'static,
        describe: fn(&T) -> String,
        build: impl Fn(Option<&AtomicBool>) -> Result<T, HopBuildError> + Send + Sync + 'static,
    ) -> Arc<Self> {
        Arc::new(IndexSlot {
            cell: OnceLock::new(),
            claimed: AtomicBool::new(false),
            retired: Arc::clone(retired),
            name,
            allowed: Box::new(allowed),
            build: Box::new(build),
            describe,
        })
    }

    /// The index, if its build has completed within budget. Never blocks.
    pub fn get(&self) -> Option<&Arc<T>> {
        self.cell.get().and_then(Option::as_ref)
    }

    /// The index a plan on this backend was promised.
    pub(crate) fn ready(&self) -> &T {
        self.get()
            .unwrap_or_else(|| panic!("the plan requires a finished {}", self.name))
    }

    /// Does policy allow this index right now?
    pub(crate) fn allowed(&self) -> bool {
        (self.allowed)()
    }

    /// Did a build exceed its budget? Pinned: retrying cannot succeed.
    pub(crate) fn over_budget(&self) -> bool {
        matches!(self.cell.get(), Some(None))
    }

    /// Is the index built with a layer for every color `query` probes
    /// (a wildcard layer may have been dropped on budget)?
    pub(crate) fn covers(&self, query: &Query, has_layer: fn(&T, Color) -> bool) -> bool {
        self.get()
            .is_some_and(|index| query.all_colors(|c| has_layer(index, c)))
    }

    /// Seed the slot with an index built (or repaired) elsewhere — the
    /// live-update layer's carry-forward path and
    /// [`QueryEngine::build_sharded`](crate::QueryEngine::build_sharded).
    /// No-op once a build has landed.
    pub(crate) fn adopt(&self, index: Arc<T>) {
        self.claimed.store(true, Ordering::Release);
        let _ = self.cell.set(Some(index));
    }

    /// Build the index *now*, on the calling thread (benches and tests
    /// that need a deterministic index-backed plan; production traffic
    /// relies on the background build instead). Ignores the `retired`
    /// flag — a force is deliberate. If a build is already in flight,
    /// waits for its outcome rather than building the same index twice.
    /// `None` when policy forbids the index or the build exceeded its
    /// budget.
    pub fn force(&self) -> Option<Arc<T>> {
        while self.allowed() {
            if let Some(outcome) = self.cell.get() {
                return outcome.clone();
            }
            // whoever holds the claim will either fill the cell or
            // (cancelled) give the role back, so poll cheaply
            if !self.claimed.swap(true, Ordering::AcqRel) {
                return self
                    .cell
                    .get_or_init(|| (self.build)(None).ok().map(Arc::new))
                    .clone();
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.get().cloned()
    }

    /// Kick off the background build if policy allows and nobody has
    /// claimed it (and the engine is not retired). Queries keep their
    /// fallback plans until it lands.
    pub(crate) fn ensure_background(self: &Arc<Self>) {
        if !self.allowed()
            || self.retired.load(Ordering::Relaxed)
            || self.cell.get().is_some()
            || self.claimed.swap(true, Ordering::AcqRel)
        {
            return;
        }
        let slot = Arc::clone(self);
        std::thread::spawn(move || {
            let t0 = Instant::now();
            let detail = match (slot.build)(Some(&slot.retired)) {
                Ok(index) => {
                    let detail = format!("ok {}", (slot.describe)(&index));
                    let _ = slot.cell.set(Some(Arc::new(index)));
                    detail
                }
                Err(HopBuildError::OverBudget { .. }) => {
                    let _ = slot.cell.set(None);
                    "over-budget: search fallback pinned".to_owned()
                }
                Err(HopBuildError::Cancelled) => {
                    slot.claimed.store(false, Ordering::Release);
                    "cancelled: version superseded".to_owned()
                }
                Err(HopBuildError::RepairTooBroad { .. }) => {
                    unreachable!("a build never runs the repair path")
                }
            };
            rpq_trace::tracer().record_span("index", slot.name, t0.elapsed(), &detail);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn slot(
        build: impl Fn(Option<&AtomicBool>) -> Result<u32, HopBuildError> + Send + Sync + 'static,
    ) -> Arc<IndexSlot<u32>> {
        let retired = Arc::new(AtomicBool::new(false));
        IndexSlot::new("test-build", &retired, || true, |n| format!("n={n}"), build)
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
        let (tx, rx) = mpsc::channel();
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
            "test-build",
            &Arc::new(AtomicBool::new(false)),
            || false,
            |_| String::new(),
            |_| panic!("policy forbids this index"),
        );
        forbidden.ensure_background();
        assert_eq!(forbidden.force(), None);
        assert_eq!(format!("{forbidden:?}"), "Absent");
    }
}
