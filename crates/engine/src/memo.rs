//! Concurrent semantic memo for RQ reach sets: exact sharing plus
//! containment-driven reuse.
//!
//! An RQ's reach set — every `(source, reachable)` pair — depends only on
//! the query's *source predicate* and *regex*, not on its target
//! predicate. Batches of real traffic repeat those keys constantly, and —
//! at many-users scale — repeat them in *syntactic variants* and in
//! *subsumed* forms. The [`SemanticMemo`] turns all three kinds of
//! redundancy into cache hits:
//!
//! 1. **Canonical keys.** Every regex is keyed by its run-normal form
//!    ([`rpq_regex::canon::canonicalize`]), so `a^2 a` and `a a^2` share
//!    one cell, one computation, one `Arc`.
//! 2. **Exact sharing**: an evaluation that found nothing cached
//!    ([`SemanticMemo::try_answer`]) computes the key's full pair set
//!    over its index or the graph and installs it
//!    ([`SemanticMemo::insert`]); every later lookup gets the `Arc` for
//!    free.
//! 3. **Containment answering.** On an exact miss the memo consults a
//!    candidate index — completed cells bucketed by regex *skeleton*
//!    (run-color sequence) — for a cached entry whose predicate/regex
//!    *contains* the probe (`Predicate::implies` +
//!    [`rpq_regex::canon::contains_fast`]). A hit is answered by
//!    filtering the cached pair set instead of re-traversing the graph:
//!    an equal-language donor needs only a source-predicate filter; a
//!    strictly-containing donor's surviving sources are re-evaluated
//!    under the probe's (tighter) regex by the engine's own RQ evaluator
//!    over the graph ([`Rq::eval_with_dist_from`] on a [`GraphProbe`]) —
//!    still skipping the full `matches_of` scan and every source the
//!    donor already proved unreachable, and never building an automaton,
//!    whose state count would grow with the regex's bounds. So a
//!    subsumption hit costs at most a miss over the graph. The derived
//!    set is inserted as a first-class cell, so repeats of the narrow
//!    query exact-hit from then on.
//!
//! Completed cells are bounded by an LRU byte budget; eviction removes a
//! cell from the table and the candidate index while outstanding `Arc`s
//! keep served answers alive.
//!
//! **Versions.** A memo belongs to one [`QueryEngine`](crate::QueryEngine),
//! whose graph never changes, so a completed cell is never wrong for the
//! engine that computed it. The updatable engine publishes a new engine
//! with every snapshot version, and its memo *inherits* the predecessor's
//! completed cells ([`SemanticMemo::carry`]): their `Arc` pair sets, no
//! copy, plus the batch's edge changes. An inherited cell is stale by
//! construction — it is never an exact hit and never a containment donor.
//! Only the miss path reads it ([`SemanticMemo::patch`]): the caller
//! re-evaluates the sources the logged changes can reach
//! ([`rpq_core::incremental::patch_reach_set`]) and installs the patched
//! set as a fresh cell. A cell left unread keeps appending later batches
//! to its log, and is dropped after `CARRY_VERSIONS` (four) unread versions.
//! Inherited cells are charged to the same byte budget.
//!
//! Concurrency scheme: a mutex-guarded map from key to a per-key
//! `OnceLock` cell. The map lock is held only to clone the cell's `Arc`
//! (and, on a miss, to consult the candidate index); reach-set
//! computation and donor filtering run outside it. A lookup never waits
//! on a key another worker is still filling: it declines, and the
//! caller evaluates itself — the first `insert` wins the cell, and every
//! racer gets its `Arc`.

use rpq_core::incremental::EdgeChange;
use rpq_core::predicate::Predicate;
use rpq_core::rq::Rq;
use rpq_graph::{Color, Graph, NodeId};
use rpq_index::GraphProbe;
use rpq_regex::canon::{canonicalize, contains_fast, skeleton, wildcard_skeleton};
use rpq_regex::FRegex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

type PairSet = Arc<Vec<(NodeId, NodeId)>>;
type Cell = Arc<OnceLock<PairSet>>;

/// Default byte budget for completed cells: pairs only, at the 8 bytes
/// `register_completed` charges per `(NodeId, NodeId)` — about 4 M pairs.
const DEFAULT_BYTE_BUDGET: usize = 32 << 20;

/// How many versions an inherited cell may go unread before
/// [`SemanticMemo::carry`] drops it: a cell computed at version `v` can be
/// patched at `v + 1 ..= v + CARRY_VERSIONS`, over a log of that many
/// batches. A longer window keeps more cells for the Zipf tail of the
/// traffic, and holds their pair sets longer. Seed-1 `sharded_live` (a
/// fifth of the requests write four edge changes, a read asks three RQs),
/// 15 s runs on a two-core box, alternated with the version that
/// discarded the memo on every write:
///
/// | window     | `read_qps` before → after            | `peak_rss_mb` before → after            |
/// |------------|--------------------------------------|-----------------------------------------|
/// | 1 version  | 958 / 908 / 970 → 1061 / 1057 / 1096 | 37.4 / 34.6 / 37.1 → 37.7 / 37.7 / 36.3 |
/// | 4 versions | 832 → 995 (medians of 9 pairs)       | 37.0 → 38.7                             |
/// | 16         | 931 / 842 / 875 → 1140 / 1024 / 1160 | 33.9 / 37.1 / 35.3 → 42.0 / 41.4 / 41.1 |
/// | unbounded  | 864 / 869 / 908 → 1083 / 1115 / 1165 | 34.5 / 36.7 / 34.4 → 43.2 / 47.0 / 46.6 |
///
/// Four versions take most of the throughput gain (+20 %) for +5 % of
/// memory; sixteen add a few percent more for +17 %, and an unbounded
/// log grows memory past a quarter.
const CARRY_VERSIONS: usize = 4;

/// How a semantic-memo lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheKind {
    /// The canonical key was already cached.
    Exact,
    /// Answered by filtering a containing entry's pair set.
    Subsumption,
}

impl CacheKind {
    /// Label for metrics/profiles (`"exact"` / `"subsumption"`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheKind::Exact => "exact",
            CacheKind::Subsumption => "subsumption",
        }
    }
}

/// Counters of the semantic layer, split by hit kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SemanticStats {
    /// Lookups answered by the exact canonical key.
    pub exact_hits: u64,
    /// Lookups answered by filtering a containing cached entry.
    pub subsumption_hits: u64,
    /// Lookups no cached entry could answer.
    pub misses: u64,
    /// The misses answered by patching a cell inherited from an earlier
    /// graph version instead of evaluating in full — a subset of
    /// [`misses`](Self::misses), so hit and miss rates keep their meaning.
    pub patched: u64,
    /// Time spent filtering/re-verifying cached pair sets for
    /// subsumption answers.
    pub filter_time: Duration,
}

impl SemanticStats {
    /// All hits, of either kind.
    pub fn hits(&self) -> u64 {
        self.exact_hits + self.subsumption_hits
    }

    /// Count one lookup. A caller that tallies the lookups *it* made —
    /// one batch, one explain request — gets counters that are exact
    /// however many other callers share the memo, which deltas of the
    /// memo's cumulative [`semantic_stats`](SemanticMemo::semantic_stats)
    /// taken around the work are not.
    pub fn record(&mut self, lookup: Lookup) {
        match lookup.kind {
            Some(CacheKind::Exact) => self.exact_hits += 1,
            Some(CacheKind::Subsumption) => self.subsumption_hits += 1,
            None => {
                self.misses += 1;
                self.patched += u64::from(lookup.patched);
            }
        }
        self.filter_time += lookup.filter_time;
    }
}

/// What one lookup did: the counter of [`SemanticStats`] it moved, and
/// the filter time it spent doing so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// How the lookup was answered; `None` is a miss — nothing cached
    /// could answer, or the key was still being computed elsewhere.
    pub kind: Option<CacheKind>,
    /// Time this lookup spent filtering a donor's pair set (zero unless
    /// it derived a subsumption answer itself).
    pub filter_time: Duration,
    /// A miss the caller answered by patching an inherited cell
    /// ([`SemanticMemo::patch`]).
    pub patched: bool,
}

impl Lookup {
    /// A lookup no cached entry could answer.
    pub const MISS: Lookup = Lookup {
        kind: None,
        filter_time: Duration::ZERO,
        patched: false,
    };

    /// A miss answered by patching an inherited cell.
    pub const PATCHED: Lookup = Lookup {
        patched: true,
        ..Lookup::MISS
    };

    fn hit(kind: CacheKind, filter_time: Duration) -> Self {
        Lookup {
            kind: Some(kind),
            filter_time,
            patched: false,
        }
    }
}

/// LRU bookkeeping of a completed (computed) cell.
struct Completed {
    bytes: usize,
    tick: u64,
}

/// One key's slot in the table: the cell, plus its LRU state once the
/// value has been computed and charged to the byte budget.
struct Entry {
    cell: Cell,
    completed: Option<Completed>,
}

/// A completed cell of an earlier graph version: its pair set and every
/// edge change since, with its LRU state. Never served as it is.
#[derive(Clone)]
struct Inherited {
    pairs: PairSet,
    changes: Vec<EdgeChange>,
    /// Batches in `changes`: the versions the cell has gone unread.
    versions: usize,
    bytes: usize,
    tick: u64,
}

#[derive(Default)]
struct Table {
    map: HashMap<Predicate, HashMap<FRegex, Entry>>,
    /// Candidate index over *completed* cells: regex skeleton → keys.
    index: HashMap<Vec<Color>, Vec<(Predicate, FRegex)>>,
    /// Cells inherited from earlier versions, not yet superseded by a
    /// fresh cell of the same key.
    inherited: HashMap<Predicate, HashMap<FRegex, Inherited>>,
    tick: u64,
    /// Bytes of completed and inherited cells.
    bytes: usize,
}

impl Table {
    /// Drop the inherited cell of `(from, canon)`, if any.
    fn drop_inherited(&mut self, from: &Predicate, canon: &FRegex) {
        let Some(inner) = self.inherited.get_mut(from) else {
            return;
        };
        if let Some(old) = inner.remove(canon) {
            self.bytes -= old.bytes;
        }
        if inner.is_empty() {
            self.inherited.remove(from);
        }
    }

    /// The cell of `(from, regex)`, marked most recently used.
    fn touch(&mut self, from: &Predicate, regex: &FRegex) -> Option<&Cell> {
        let entry = self.map.get_mut(from)?.get_mut(regex)?;
        self.tick += 1;
        if let Some(c) = &mut entry.completed {
            c.tick = self.tick;
        }
        Some(&entry.cell)
    }

    /// Claim `(from, regex)`: its existing cell, or a fresh one.
    fn claim(&mut self, from: &Predicate, regex: &FRegex) -> Cell {
        let entry = self
            .map
            .entry(from.clone())
            .or_default()
            .entry(regex.clone())
            .or_insert_with(|| Entry {
                cell: Arc::new(OnceLock::new()),
                completed: None,
            });
        Arc::clone(&entry.cell)
    }

    /// Find a completed cached entry containing `(from, regex)`:
    /// same-skeleton bucket first, then the all-wildcard bucket. Prefers
    /// an equal-language (regex-identical, predicate-narrowing) donor —
    /// served by a pure filter — over a strictly-containing one.
    fn find_donor(&self, from: &Predicate, regex: &FRegex) -> Option<(PairSet, bool)> {
        let probe_skel = skeleton(regex);
        let wild = wildcard_skeleton();
        let buckets = if probe_skel == wild {
            vec![&probe_skel]
        } else {
            vec![&probe_skel, &wild]
        };
        let mut fallback: Option<PairSet> = None;
        for skel in buckets {
            for (dpred, dregex) in self.index.get(skel).into_iter().flatten() {
                if !from.implies(dpred) {
                    continue;
                }
                let equal = dregex == regex;
                if !equal && !contains_fast(regex, dregex) {
                    continue;
                }
                let pairs = self
                    .map
                    .get(dpred)
                    .and_then(|inner| inner.get(dregex))
                    .and_then(|entry| entry.cell.get())
                    .cloned();
                let Some(pairs) = pairs else { continue };
                if equal {
                    return Some((pairs, true));
                }
                fallback.get_or_insert(pairs);
            }
        }
        fallback.map(|p| (p, false))
    }
}

/// Shared `(source predicate, canonical regex) → reach pairs` table with
/// containment-driven reuse. See the module docs for the full contract.
///
/// The key is split across two map levels (`predicate → regex → cell`) so
/// that lookups hash the caller's *borrowed* predicate directly; regexes
/// are canonicalized on entry so every syntactic variant of a language
/// lands on one cell.
#[derive(Default)]
pub struct SemanticMemo {
    cells: Mutex<Table>,
    exact_hits: AtomicU64,
    subsumption_hits: AtomicU64,
    misses: AtomicU64,
    patched: AtomicU64,
    filter_nanos: AtomicU64,
    byte_budget: usize,
    /// Whether cells were inherited at construction: without,
    /// [`patch`](Self::patch) returns at once without taking the lock.
    inherits: bool,
}

impl std::fmt::Debug for SemanticMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.semantic_stats();
        f.debug_struct("SemanticMemo")
            .field("len", &self.len())
            .field("stats", &s)
            .finish()
    }
}

impl SemanticMemo {
    /// Empty table with the default byte budget.
    pub fn new() -> Self {
        Self::with_byte_budget(DEFAULT_BYTE_BUDGET)
    }

    /// Empty table bounding completed pair sets to roughly
    /// `byte_budget` bytes (8 bytes per cached pair); least-recently
    /// used cells are evicted past the budget. A budget of 0 keeps at
    /// most one completed cell.
    pub fn with_byte_budget(byte_budget: usize) -> Self {
        SemanticMemo {
            byte_budget,
            ..SemanticMemo::default()
        }
    }

    /// The one lookup: a completed exact cell or a containing donor
    /// answers — and a derived answer is installed as a new cell — but a
    /// full miss returns `None` without claiming anything, leaving the
    /// caller to evaluate over its index or the graph and
    /// [`insert`](SemanticMemo::insert) the result. `None` is always a
    /// miss ([`Lookup::MISS`]): the returned [`Lookup`] is a hit's.
    pub fn try_answer(
        &self,
        g: &Graph,
        from: &Predicate,
        regex: &FRegex,
    ) -> Option<(PairSet, Lookup)> {
        let canon = canonicalize(regex);
        let derive = {
            let mut table = self.cells.lock().expect("memo poisoned");
            match table.touch(from, &canon).map(|cell| cell.get().cloned()) {
                Some(Some(pairs)) => {
                    self.exact_hits.fetch_add(1, Ordering::Relaxed);
                    return Some((pairs, Lookup::hit(CacheKind::Exact, Duration::ZERO)));
                }
                // in flight on another worker: don't wait on it, the
                // caller's own probes answer faster than an unfinished
                // evaluation hands its result over
                Some(None) => None,
                None => table
                    .find_donor(from, &canon)
                    .map(|(pairs, equal)| (table.claim(from, &canon), pairs, equal)),
            }
        };
        let Some((cell, donor, equal)) = derive else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.subsumption_hits.fetch_add(1, Ordering::Relaxed);
        let mut filter_time = Duration::ZERO;
        let pairs = self.fill(from, &canon, &cell, || {
            let started = Instant::now();
            let derived = derive_from_donor(g, from, &canon, &donor, equal);
            filter_time = started.elapsed();
            self.filter_nanos
                .fetch_add(filter_time.as_nanos() as u64, Ordering::Relaxed);
            derived
        });
        Some((pairs, Lookup::hit(CacheKind::Subsumption, filter_time)))
    }

    /// Install an externally computed reach set for `(from, regex)`.
    ///
    /// Every RQ plan but `biBFS` calls this after a declined
    /// [`try_answer`](SemanticMemo::try_answer), so the reach sets it
    /// computes through its index or the graph become donors for later
    /// exact and containment lookups. `pairs` must be the key's *complete*
    /// reach set — every `(x, y)` with `x ⊨ from`, unfiltered by any
    /// target predicate (order is established here: checked in one pass,
    /// and sorted only if the check fails — index evaluation already
    /// yields its pairs sorted). Counters are
    /// untouched: the probe that preceded the computation already
    /// recorded the miss. Returns the cached set — the caller's, or the
    /// racing winner's if another worker installed the key first.
    pub fn insert(
        &self,
        from: &Predicate,
        regex: &FRegex,
        mut pairs: Vec<(NodeId, NodeId)>,
    ) -> PairSet {
        if !pairs.is_sorted() {
            pairs.sort_unstable();
        }
        self.install(from, &canonicalize(regex), pairs)
    }

    fn install(&self, from: &Predicate, canon: &FRegex, pairs: Vec<(NodeId, NodeId)>) -> PairSet {
        let cell = self.cells.lock().expect("memo poisoned").claim(from, canon);
        self.fill(from, canon, &cell, || pairs)
    }

    /// The miss path's second chance: if this memo inherited a cell of
    /// `(from, regex)` from an earlier graph version, `patch` gets its
    /// pair set and the edge changes since, and a `Some` it returns — the
    /// key's complete, sorted reach set on this version — is installed as
    /// a fresh cell (superseding the inherited one) and counted as
    /// [`patched`](SemanticStats::patched). `None` when nothing was
    /// inherited for the key or `patch` declined: the caller evaluates in
    /// full and [`insert`](Self::insert)s. `patch` runs outside the lock.
    pub fn patch(
        &self,
        from: &Predicate,
        regex: &FRegex,
        patch: impl FnOnce(&[(NodeId, NodeId)], &[EdgeChange]) -> Option<Vec<(NodeId, NodeId)>>,
    ) -> Option<PairSet> {
        if !self.inherits {
            return None;
        }
        let canon = canonicalize(regex);
        let (old, changes) = {
            let table = self.cells.lock().expect("memo poisoned");
            let cell = table.inherited.get(from)?.get(&canon)?;
            (Arc::clone(&cell.pairs), cell.changes.clone())
        };
        let pairs = patch(&old, &changes)?;
        self.patched.fetch_add(1, Ordering::Relaxed);
        Some(self.install(from, &canon, pairs))
    }

    /// The memo of the next graph version, one batch of edge `changes`
    /// later: every completed cell of this memo, and every inherited one
    /// unread for fewer than `CARRY_VERSIONS` (four) versions, inherited with
    /// `changes` appended to its log. Pair sets are shared, not copied;
    /// LRU order and the byte budget carry over; counters start at zero.
    pub fn carry(&self, changes: &[EdgeChange]) -> SemanticMemo {
        let table = self.cells.lock().expect("memo poisoned");
        let mut next = Table {
            tick: table.tick,
            ..Table::default()
        };
        let mut keep = |from: &Predicate, canon: &FRegex, cell: Inherited| {
            next.bytes += cell.bytes;
            let inner = next.inherited.entry(from.clone()).or_default();
            if let Some(old) = inner.insert(canon.clone(), cell) {
                next.bytes -= old.bytes;
            }
        };
        for (from, inner) in &table.inherited {
            for (canon, cell) in inner {
                if cell.versions < CARRY_VERSIONS {
                    let mut cell = cell.clone();
                    cell.changes.extend_from_slice(changes);
                    cell.versions += 1;
                    keep(from, canon, cell);
                }
            }
        }
        // a fresh cell supersedes an inherited one of the same key
        for (from, inner) in &table.map {
            for (canon, entry) in inner {
                let (Some(done), Some(pairs)) = (&entry.completed, entry.cell.get()) else {
                    continue;
                };
                let cell = Inherited {
                    pairs: Arc::clone(pairs),
                    changes: changes.to_vec(),
                    versions: 1,
                    bytes: done.bytes,
                    tick: done.tick,
                };
                keep(from, canon, cell);
            }
        }
        SemanticMemo {
            inherits: !next.inherited.is_empty(),
            cells: Mutex::new(next),
            byte_budget: self.byte_budget,
            ..SemanticMemo::default()
        }
    }

    /// Fill `cell` with `compute()` unless a racer already did, then
    /// register the completed result with the candidate index and the LRU
    /// budget. Returns the cell's value, whoever computed it.
    fn fill(
        &self,
        from: &Predicate,
        canon: &FRegex,
        cell: &Cell,
        compute: impl FnOnce() -> Vec<(NodeId, NodeId)>,
    ) -> PairSet {
        let mut computed = false;
        let pairs = Arc::clone(cell.get_or_init(|| {
            computed = true;
            Arc::new(compute())
        }));
        if computed {
            self.register_completed(from, canon, pairs.len());
        }
        pairs
    }

    /// Make a freshly computed cell visible to containment lookups and
    /// charge it to the byte budget, evicting LRU cells past it.
    fn register_completed(&self, from: &Predicate, canon: &FRegex, len: usize) {
        let bytes = len * std::mem::size_of::<(NodeId, NodeId)>();
        let mut table = self.cells.lock().expect("memo poisoned");
        let table = &mut *table;
        table.tick += 1;
        let tick = table.tick;
        let Some(entry) = table
            .map
            .get_mut(from)
            .and_then(|inner| inner.get_mut(canon))
        else {
            return;
        };
        if entry.completed.is_some() {
            return; // eviction + recompute race: already registered
        }
        entry.completed = Some(Completed { bytes, tick });
        table
            .index
            .entry(skeleton(canon))
            .or_default()
            .push((from.clone(), canon.clone()));
        table.bytes += bytes;
        table.drop_inherited(from, canon);
        while table.bytes > self.byte_budget {
            // the least recently used cell, completed or inherited, other
            // than this one
            let completed = (table.map.iter())
                .flat_map(|(p, inner)| inner.iter().map(move |(r, e)| (p, r, e)))
                .filter(|&(p, r, _)| (p, r) != (from, canon))
                .filter_map(|(p, r, e)| Some((e.completed.as_ref()?.tick, p, r, false)));
            let inherited = (table.inherited.iter())
                .flat_map(|(p, inner)| inner.iter().map(move |(r, c)| (c.tick, p, r, true)));
            let Some((victim, is_inherited)) = completed
                .chain(inherited)
                .min_by_key(|&(tick, ..)| tick)
                .map(|(_, p, r, i)| ((p.clone(), r.clone()), i))
            else {
                break;
            };
            if is_inherited {
                table.drop_inherited(&victim.0, &victim.1);
                continue;
            }
            if let Some(bucket) = table.index.get_mut(&skeleton(&victim.1)) {
                bucket.retain(|k| *k != victim);
            }
            let inner = table.map.get_mut(&victim.0).expect("victim is in the map");
            let freed = inner.remove(&victim.1).and_then(|e| e.completed);
            table.bytes -= freed.map_or(0, |c| c.bytes);
            if inner.is_empty() {
                table.map.remove(&victim.0);
            }
        }
    }

    /// Per-kind counters of the semantic layer: every
    /// [`try_answer`](SemanticMemo::try_answer) counts once.
    pub fn semantic_stats(&self) -> SemanticStats {
        SemanticStats {
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            subsumption_hits: self.subsumption_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            patched: self.patched.load(Ordering::Relaxed),
            filter_time: Duration::from_nanos(self.filter_nanos.load(Ordering::Relaxed)),
        }
    }

    /// Number of distinct keys claimed so far.
    pub fn len(&self) -> usize {
        self.cells
            .lock()
            .expect("memo poisoned")
            .map
            .values()
            .map(|inner| inner.len())
            .sum()
    }

    /// True if no key has been claimed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget: completed and
    /// inherited cells.
    pub fn cached_bytes(&self) -> usize {
        self.cells.lock().expect("memo poisoned").bytes
    }
}

/// Answer `(from, regex)` from a containing donor's pair set. With an
/// equal-language donor the answer is the donor filtered to sources
/// satisfying the (narrower) probe predicate. With a strictly-containing
/// regex, the surviving donor sources are re-evaluated under `regex` by
/// [`Rq::eval_with_dist_from`] over the graph — sources the donor proved
/// unreachable are skipped, as is the full `matches_of` scan.
fn derive_from_donor(
    g: &Graph,
    from: &Predicate,
    regex: &FRegex,
    donor: &[(NodeId, NodeId)],
    equal_language: bool,
) -> Vec<(NodeId, NodeId)> {
    // the donor is sorted: each distinct source is one contiguous block,
    // and the predicate is evaluated once per block
    let surviving = donor
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|block| from.matches(g.attrs(block[0].0)));
    if equal_language {
        return surviving.flatten().copied().collect();
    }
    let sources = surviving.map(|block| block[0].0).collect();
    Rq::new(from.clone(), Predicate::always_true(), regex.clone())
        .eval_with_dist_from(g, &GraphProbe::new(g), sources)
        .into_pairs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::gen::essembly;

    /// The key's complete reach set, by the reference evaluator.
    fn reach(g: &Graph, from: &Predicate, re: &FRegex) -> Vec<(NodeId, NodeId)> {
        Rq::new(from.clone(), Predicate::always_true(), re.clone())
            .eval_bfs(g)
            .into_pairs()
    }

    /// What the engine does for an RQ: look up, and on a miss evaluate and
    /// install.
    fn answer(memo: &SemanticMemo, g: &Graph, from: &Predicate, re: &FRegex) -> PairSet {
        match memo.try_answer(g, from, re) {
            Some((pairs, _)) => pairs,
            None => memo.insert(from, re, reach(g, from, re)),
        }
    }

    #[test]
    fn memo_computes_once_and_shares() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let from = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let re = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        let a = answer(&memo, &g, &from, &re);
        let b = answer(&memo, &g, &from, &re);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one Arc");
        let s = memo.semantic_stats();
        assert_eq!((s.hits(), s.misses), (1, 1));
        assert_eq!(memo.len(), 1);

        let other = Predicate::parse("job = \"doctor\"", g.schema()).unwrap();
        let c = answer(&memo, &g, &other, &re);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(memo.len(), 2);

        // same predicate, different regex: a distinct key in the second
        // map level
        let re2 = FRegex::parse("fn", g.alphabet()).unwrap();
        let d = answer(&memo, &g, &from, &re2);
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(memo.len(), 3);
        assert!(!memo.is_empty());
    }

    #[test]
    fn memo_matches_direct_eval() {
        // every path a lookup can take — miss then insert, exact hit,
        // subsumption hit — serves exactly the direct evaluation
        let g = essembly();
        let memo = SemanticMemo::new();
        let re = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        let broad = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let narrow =
            Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap();
        for from in [&broad, &broad, &narrow] {
            assert_eq!(*answer(&memo, &g, from, &re), reach(&g, from, &re));
        }
        let s = memo.semantic_stats();
        assert_eq!((s.exact_hits, s.subsumption_hits, s.misses), (1, 1, 1));
    }

    #[test]
    fn concurrent_same_key_shares_one_cell() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let from = Predicate::always_true();
        let re = FRegex::parse("fa+", g.alphabet()).unwrap();
        let sets: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| answer(&memo, &g, &from, &re)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for w in &sets[1..] {
            assert!(Arc::ptr_eq(&sets[0], w));
        }
        let s = memo.semantic_stats();
        assert_eq!(s.hits() + s.misses, 8);
        assert_eq!(memo.len(), 1);
        assert_eq!(*sets[0], reach(&g, &from, &re));
    }

    #[test]
    fn syntactic_variants_share_one_cell() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let from = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let re = |text: &str| FRegex::parse(text, g.alphabet()).unwrap();
        let a = answer(&memo, &g, &from, &re("fa^2 fa"));
        let b = answer(&memo, &g, &from, &re("fa fa^2"));
        assert!(Arc::ptr_eq(&a, &b), "canonical keys unify variants");
        assert_eq!(memo.len(), 1);
        let s = memo.semantic_stats();
        assert_eq!((s.exact_hits, s.subsumption_hits, s.misses), (1, 0, 1));
    }

    #[test]
    fn narrower_predicate_is_served_by_subsumption() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let re = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        let broad = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let narrow =
            Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap();
        let _ = answer(&memo, &g, &broad, &re);
        let (served, lookup) = memo.try_answer(&g, &narrow, &re).expect("donor answers");
        assert_eq!(lookup.kind, Some(CacheKind::Subsumption));
        let s = memo.semantic_stats();
        assert_eq!(
            (s.subsumption_hits, s.misses),
            (1, 1),
            "filtered from the broad entry"
        );
        assert!(s.filter_time > Duration::ZERO);
        // bit-identical to direct evaluation
        assert_eq!(*served, reach(&g, &narrow, &re));
        // and now cached exactly
        let (again, lookup) = memo.try_answer(&g, &narrow, &re).expect("installed");
        assert_eq!(lookup.kind, Some(CacheKind::Exact));
        assert!(Arc::ptr_eq(&served, &again));
    }

    #[test]
    fn narrower_regex_is_reverified_not_trusted() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let from = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let broad = FRegex::parse("fa^3 fn", g.alphabet()).unwrap();
        let narrow = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        let _ = answer(&memo, &g, &from, &broad);
        let (served, _) = memo.try_answer(&g, &from, &narrow).expect("donor answers");
        assert_eq!(memo.semantic_stats().subsumption_hits, 1);
        assert_eq!(
            *served,
            reach(&g, &from, &narrow),
            "tighter regex re-verified per source"
        );
    }

    /// A narrower regex is re-checked at the cost of a miss, however
    /// large its bound: `_^k` from a cached `_+`, with `k` up to two
    /// million — a product search over an automaton with one state per
    /// unit of bound takes minutes on it.
    #[test]
    fn narrower_bound_costs_no_more_than_a_miss() {
        let g = rpq_graph::gen::youtube_like(200, 1);
        let from = Predicate::always_true();
        for k in [2, g.node_count(), 2_000_000] {
            let memo = SemanticMemo::new();
            let _ = answer(
                &memo,
                &g,
                &from,
                &FRegex::parse("_+", g.alphabet()).unwrap(),
            );
            let re = FRegex::parse(&format!("_^{k}"), g.alphabet()).unwrap();
            let started = Instant::now();
            let (served, lookup) = memo.try_answer(&g, &from, &re).expect("donor answers");
            let took = started.elapsed();
            assert_eq!(lookup.kind, Some(CacheKind::Subsumption), "_^{k}");
            let fresh = Rq::new(from.clone(), Predicate::always_true(), re)
                .eval_with_dist(&g, &GraphProbe::new(&g));
            assert_eq!(*served, fresh.into_pairs(), "_^{k}");
            assert!(took < Duration::from_secs(1), "_^{k} took {took:?}");
        }
    }

    #[test]
    fn try_answer_serves_only_cached_state() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let from = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let re = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        assert!(memo.try_answer(&g, &from, &re).is_none(), "cold cache");
        assert!(memo.is_empty(), "a declined lookup claims nothing");
        assert_eq!(memo.semantic_stats().misses, 1);
        let computed = memo.insert(&from, &re, reach(&g, &from, &re));
        let (pairs, lookup) = memo.try_answer(&g, &from, &re).expect("now cached");
        assert_eq!(lookup.kind, Some(CacheKind::Exact));
        assert!(Arc::ptr_eq(&computed, &pairs));
        // an unrelated key still declines
        let other = FRegex::parse("sn", g.alphabet()).unwrap();
        assert!(memo.try_answer(&g, &from, &other).is_none());
        assert_eq!(memo.semantic_stats().misses, 2);
    }

    #[test]
    fn insert_keeps_sorted_input_and_sorts_the_rest() {
        let g = essembly();
        let from = Predicate::always_true();
        let re = FRegex::parse("fa", g.alphabet()).unwrap();
        let sorted = reach(&g, &from, &re);
        assert!(sorted.len() > 1);
        let mut reversed = sorted.clone();
        reversed.reverse();
        for input in [sorted.clone(), reversed] {
            let memo = SemanticMemo::new();
            assert_eq!(*memo.insert(&from, &re, input), sorted);
        }
    }

    #[test]
    fn byte_budget_evicts_lru_completed_cells() {
        let g = essembly();
        // budget of one pair: every new completed cell evicts the last
        let memo = SemanticMemo::with_byte_budget(std::mem::size_of::<(NodeId, NodeId)>());
        let from = Predicate::always_true();
        let re = |text: &str| FRegex::parse(text, g.alphabet()).unwrap();
        let res = ["fa", "fn", "sa"];
        for r in res {
            let _ = answer(&memo, &g, &from, &re(r));
        }
        assert!(memo.len() < res.len(), "older cells evicted");
        assert!(memo.cached_bytes() > 0);
        // evicted keys miss again, not hit
        let before = memo.semantic_stats().misses;
        let _ = answer(&memo, &g, &from, &re("fa"));
        assert_eq!(memo.semantic_stats().misses, before + 1);
    }

    /// One logged change: the batch of one version.
    fn batch(i: u32) -> Vec<EdgeChange> {
        vec![(NodeId(i), NodeId(i + 1), Color(0))]
    }

    #[test]
    fn inherited_cells_never_answer_directly() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let re = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        let broad = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let narrow =
            Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap();
        let computed = answer(&memo, &g, &broad, &re);
        let next = memo.carry(&batch(0));
        assert_eq!(next.semantic_stats(), SemanticStats::default());
        // neither an exact hit nor a donor for the narrower key
        assert!(next.try_answer(&g, &broad, &re).is_none());
        assert!(next.try_answer(&g, &narrow, &re).is_none());
        assert_eq!(next.semantic_stats().misses, 2);
        assert!(next.is_empty(), "a declined lookup claims nothing");
        // the miss path patches it: the closure gets the shared pair set
        // and the batch's changes, and what it returns becomes a fresh cell
        let patched = next
            .patch(&broad, &re, |old, changes| {
                assert!(std::ptr::eq(old, computed.as_slice()), "shared, not copied");
                assert_eq!(changes, batch(0));
                Some(old.to_vec())
            })
            .expect("inherited");
        assert_eq!(next.semantic_stats().patched, 1);
        let (hit, lookup) = next.try_answer(&g, &broad, &re).expect("fresh now");
        assert_eq!(lookup.kind, Some(CacheKind::Exact));
        assert!(Arc::ptr_eq(&hit, &patched));
        // the fresh cell superseded the inherited one
        assert!(next.patch(&broad, &re, |_, _| unreachable!()).is_none());
        // a declined patch installs nothing
        let other = FRegex::parse("fn", g.alphabet()).unwrap();
        let _ = answer(&memo, &g, &broad, &other);
        let next = memo.carry(&batch(0));
        assert!(next.patch(&broad, &other, |_, _| None).is_none());
        assert!(next.is_empty());
        assert_eq!(next.semantic_stats().patched, 0);
        // a memo that inherited nothing never asks
        let fresh = SemanticMemo::new();
        assert!(fresh.patch(&broad, &re, |_, _| unreachable!()).is_none());
    }

    #[test]
    fn inherited_cells_are_charged_to_the_byte_budget() {
        let g = essembly();
        let pair = std::mem::size_of::<(NodeId, NodeId)>();
        let from = Predicate::always_true();
        let re = |text: &str| FRegex::parse(text, g.alphabet()).unwrap();
        let memo = SemanticMemo::new();
        let fa = answer(&memo, &g, &from, &re("fa"));
        let fnc = answer(&memo, &g, &from, &re("fn"));
        let next = memo.carry(&batch(0));
        assert_eq!(next.cached_bytes(), memo.cached_bytes());
        assert_eq!(next.cached_bytes(), (fa.len() + fnc.len()) * pair);
        // patching replaces the inherited charge with the fresh one
        let _ = next.patch(&from, &re("fa"), |old, _| Some(old.to_vec()));
        assert_eq!(next.cached_bytes(), memo.cached_bytes());

        // with room for one cell, a fresh cell evicts the inherited one
        let tight = SemanticMemo::with_byte_budget(fa.len() * pair);
        let _ = answer(&tight, &g, &from, &re("fa"));
        let next = tight.carry(&batch(0));
        assert_eq!(next.cached_bytes(), fa.len() * pair);
        let sa = answer(&next, &g, &from, &re("sa"));
        assert!(next
            .patch(&from, &re("fa"), |_, _| unreachable!())
            .is_none());
        assert_eq!(next.cached_bytes(), sa.len() * pair);
    }

    #[test]
    fn inherited_cells_expire_after_carry_versions() {
        let g = essembly();
        let from = Predicate::always_true();
        let re = FRegex::parse("fa+", g.alphabet()).unwrap();
        let memo = SemanticMemo::new();
        let _ = answer(&memo, &g, &from, &re);
        // unread for CARRY_VERSIONS versions, with every batch logged
        let mut memo = memo.carry(&batch(0));
        for v in 1..CARRY_VERSIONS as u32 {
            memo = memo.carry(&batch(v));
        }
        let mut seen = Vec::new();
        let _ = memo.patch(&from, &re, |_, changes| {
            seen = changes.to_vec();
            None
        });
        let logged: Vec<EdgeChange> = (0..CARRY_VERSIONS as u32).flat_map(batch).collect();
        assert_eq!(seen, logged);
        // one more unread version drops it, and its charge
        let memo = memo.carry(&batch(CARRY_VERSIONS as u32));
        assert!(memo.patch(&from, &re, |_, _| unreachable!()).is_none());
        assert_eq!(memo.cached_bytes(), 0);
    }
}
