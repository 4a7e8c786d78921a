//! Concurrent semantic memo for RQ reach sets: exact sharing plus
//! containment-driven reuse, behind one entry point.
//!
//! An RQ's reach set — every `(source, reachable)` pair — depends only on
//! the query's *source predicate* and *regex*, not on its target
//! predicate. Batches of real traffic repeat those keys constantly, and —
//! at many-users scale — repeat them in *syntactic variants* and in
//! *subsumed* forms. The [`SemanticMemo`] turns all three kinds of
//! redundancy into cache hits. [`SemanticMemo::answer`] is its one query
//! method: it answers an RQ, from the memo or over the caller's distance
//! probe, and returns the [`Lookup`] that says how.
//!
//! 1. **Canonical keys.** Every regex is keyed by its run-normal form
//!    ([`rpq_regex::canon::canonicalize`]), so `a^2 a` and `a a^2` share
//!    one cell, one computation, one `Arc`.
//! 2. **Exact sharing**: a lookup that finds nothing cached computes the
//!    key's full pair set over the caller's probe — the plan's index, or
//!    the graph — and installs it; every later lookup gets the `Arc` for
//!    free. Once the memo has evicted a cell, a key is installed from its
//!    *second* miss (the "doorkeeper" of TinyLFU: Einziger, Friedman and
//!    Manes, ACM ToS 2017): a first miss answers its query alone (§4's DM
//!    tests its target predicate on the last level) and installs nothing,
//!    so a key that never comes back neither pays for its wide reach set
//!    nor evicts a cell.
//! 3. **Containment answering.** On an exact miss the memo consults a
//!    candidate index — fresh cells bucketed by regex *skeleton*
//!    (run-color sequence) — for a cached entry whose predicate/regex
//!    *contains* the probe (`Predicate::implies` +
//!    [`rpq_regex::canon::contains_fast`]). A hit is answered by
//!    filtering the cached pair set instead of re-traversing the graph:
//!    an equal-language donor needs only a source-predicate filter; a
//!    strictly-containing donor's surviving sources are re-evaluated
//!    under the probe's (tighter) regex by the engine's own RQ evaluator
//!    over the graph ([`Rq::eval_with_dist_from`] on a [`GraphProbe`]) —
//!    still skipping every source the donor already proved
//!    unreachable, and never building an automaton,
//!    whose state count would grow with the regex's bounds. So a
//!    subsumption hit costs at most a miss over the graph. The derived
//!    set is inserted as a first-class cell, so repeats of the narrow
//!    query exact-hit from then on.
//!
//! 4. **Per-target answers.** A query's answer is its key's reach set
//!    filtered down to its *target* predicate. A fresh cell keeps the
//!    first answer any lookup produces for each target it is asked with,
//!    so an exact hit with a target seen before is one lock and one `Arc`
//!    clone — no filter, no copy. The answer is an [`RqResult`], whose
//!    clones share one rendering slot: a server that encodes the answer
//!    again copies the bytes it encoded before.
//!
//! Keys are `(source predicate, canonical regex)`: the entry point takes
//! its regex in run-normal form ([`rpq_regex::canon::canonicalize`]) —
//! the engine's prologue canonicalises every query once — so every
//! syntactic variant of a language lands on one cell.
//!
//! Cells are bounded by a byte budget, which also pays for the
//! per-target answers, under one policy after S3-FIFO (Yang et al., SOSP
//! 2023). A first-miss install or a derivation goes on *probation*, a FIFO
//! whose reach sets are capped at a tenth of the budget even when the
//! budget is not full, so a cell nothing reads is pushed out by later
//! installs. A read (an exact hit, a donor use) moves a cell to *main*, an
//! LRU, as does a patch or an install whose key the *ghost set* holds:
//! the 64-bit hashes of evicted and declined keys, one slot per 4 KiB of
//! budget, allocated at the first eviction. Past the budget, answers are
//! dropped first, least recently used cell first, then main's cells —
//! from the table and the candidate index, while outstanding `Arc`s keep
//! served answers alive. So which reach sets a workload keeps does not
//! depend on its answers.
//!
//! **Versions.** A memo belongs to one graph version's engine,
//! whose graph never changes, so a fresh cell is never wrong for the
//! engine that computed it. The updatable engine publishes a new engine
//! with every snapshot version, and its memo *inherits* the predecessor's
//! cells ([`SemanticMemo::carry`]): their `Arc` pair sets, no copy — reach
//! sets only, so no per-target answer, and none of its encoded bytes,
//! reaches a later version. Each memo has a version, one more than the
//! memo it was carried from, and one change log: the edge changes of the
//! last `CARRY_VERSIONS` (four) batches, each batch shared through an
//! `Arc` by the memos that log it. Each cell is stamped with the version
//! it was computed at, and is fresh while that is the memo's version. An
//! inherited cell is stale by construction — it is never an exact hit and
//! never a containment donor. Only the miss path reads it: the changes
//! logged since the cell's version name the sources whose reach they can
//! alter, which are re-evaluated over the caller's probe
//! ([`rpq_core::incremental::patch_reach_set`]), and the patched set is
//! installed in main, superseding the inherited cell. A patch that would
//! touch most sources declines, and the miss is served like any other. A
//! carry drops every cell
//! computed more than `CARRY_VERSIONS` versions before the new memo: its
//! changes have left the log. Carried cells keep their queue and share
//! the table, the eviction order and the byte budget with fresh ones, and
//! the next version shares the ghost set (through an `Arc`), so a full
//! memo stays full and a key first seen at one version is admitted on its
//! second miss at the next.
//!
//! The memo counts nothing: every answer returns its [`Lookup`], and the
//! engine tallies them ([`SemanticStats`]).
//!
//! Concurrency scheme: one mutex over the table, held to look a key up,
//! clone a cell's `Arc` and install a computed set; reach-set
//! computation, patching, donor derivation and target filtering run
//! outside it, on the calling thread. A cell enters the table complete,
//! so a lookup never waits: a key with no fresh cell is derived from a
//! donor or evaluated by its caller. When callers compute one key at
//! once, the first install wins and every later one gets its `Arc`.

use rpq_core::incremental::{patch_reach_set, EdgeChange};
use rpq_core::predicate::{selected, Predicate};
use rpq_core::rq::{Rq, RqResult};
use rpq_graph::{Color, Graph, NodeId};
use rpq_index::{DistProbe, GraphProbe};
use rpq_regex::canon::{contains_fast, is_canonical, skeleton, wildcard_skeleton};
use rpq_regex::FRegex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

type PairSet = Arc<Vec<(NodeId, NodeId)>>;

/// Default byte budget for cells: about 4 M reach-set pairs at
/// [`PAIR_BYTES`] each, fewer as per-target answers take their share.
const DEFAULT_BYTE_BUDGET: usize = 32 << 20;

/// What a reach-set pair is charged: its size.
const PAIR_BYTES: usize = std::mem::size_of::<(NodeId, NodeId)>();

/// What a pair of a kept per-target answer is charged: the pair, plus the
/// most its wire encoding can take (`[x,y],` with two ten-digit ids is
/// 24 bytes). The charge is made when the answer is kept, whether or not
/// it is ever encoded, so the bound holds without the memo seeing the
/// bytes.
const ANSWER_BYTES_PER_PAIR: usize = PAIR_BYTES + 24;

/// How many batches a memo's change log holds, and so how many versions
/// an inherited cell may go unread before [`SemanticMemo::carry`] drops
/// it: a cell computed at version `v` can be patched at
/// `v + 1 ..= v + CARRY_VERSIONS`, from the log's last `1 ..=
/// CARRY_VERSIONS` batches. A longer window keeps more cells for the
/// Zipf tail of the traffic, and holds their pair sets longer. Seed-1 `sharded_live` (a
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

/// Probation holds `byte_budget / PROBATION_SHARE` bytes of reach sets,
/// S3-FIFO's small queue: at the default 32 MiB, a `hop_unique` cell of
/// ≈ 73 KiB that nothing reads is pushed out ≈ 45 installs later.
const PROBATION_SHARE: usize = 10;

/// Bytes of byte budget per slot of the ghost set: 8 192 slots (64 KiB) at
/// the default 32 MiB. A full memo holds far fewer cells than that — on
/// `hop_unique` a wide reach set is ≈ 9 300 pairs, ≈ 73 KiB — so the set
/// remembers the keys of many cells' worth of evictions and first misses.
const BUDGET_PER_GHOST_SLOT: usize = 4 << 10;

/// The keys evicted or declined since the memo first evicted a cell: a
/// direct-mapped table of full 64-bit key hashes, 0 for an empty slot,
/// allocated by that eviction. A key hashed to a taken slot overwrites
/// it, which only makes the table forget the other key — one more first
/// miss for it, never a wrong answer — and a key is held only on a full
/// 64-bit match.
#[derive(Default)]
struct Ghost {
    slots: OnceLock<Box<[AtomicU64]>>,
}

impl Ghost {
    fn slot(&self, from: &Predicate, canon: &FRegex) -> Option<(&AtomicU64, u64)> {
        let slots = self.slots.get()?;
        let mut hasher = DefaultHasher::new();
        (from, canon).hash(&mut hasher);
        let hash = hasher.finish().max(1);
        Some((&slots[(hash % slots.len() as u64) as usize], hash))
    }

    fn holds(&self, from: &Predicate, canon: &FRegex) -> bool {
        (self.slot(from, canon)).is_some_and(|(slot, hash)| slot.load(Ordering::Relaxed) == hash)
    }

    /// Record `(from, canon)`, allocating the set for `byte_budget` on the
    /// first record: whether the key's slot already held it.
    fn record(&self, from: &Predicate, canon: &FRegex, byte_budget: usize) -> bool {
        self.slots.get_or_init(|| {
            let slots = (byte_budget / BUDGET_PER_GHOST_SLOT).max(1);
            (0..slots).map(|_| AtomicU64::new(0)).collect()
        });
        let (slot, hash) = self.slot(from, canon).expect("allocated");
        // a slot publishes nothing but its own value: versions and racing
        // misses may see each other's records late, which costs at most
        // one more first miss
        slot.swap(hash, Ordering::Relaxed) == hash
    }
}

/// A tally of memo lookups, split by how each was answered. Every
/// memo lookup returns its [`Lookup`], and a batch tallies
/// its own ([`BatchResult::semantic_stats`]), exact however many other
/// batches share the memo. The live engine adds every batch's tally to
/// one it keeps for all its versions ([`Snapshot::semantic_stats`]); the
/// memo counts nothing.
///
/// [`BatchResult::semantic_stats`]: crate::BatchResult::semantic_stats
/// [`Snapshot::semantic_stats`]: crate::Snapshot::semantic_stats
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
    /// The misses a full memo declined to install: the key's first miss
    /// since the memo filled, answered by evaluating the query alone. A
    /// subset of [`misses`](Self::misses), like [`patched`](Self::patched).
    pub declined: u64,
    /// Time spent filtering/re-verifying cached pair sets for
    /// subsumption answers.
    pub filter_time: Duration,
}

impl SemanticStats {
    /// All hits, of either kind.
    pub fn hits(&self) -> u64 {
        self.exact_hits + self.subsumption_hits
    }

    /// Count one lookup.
    pub(crate) fn record(&mut self, lookup: Lookup) {
        match lookup {
            Lookup::Exact => self.exact_hits += 1,
            Lookup::Subsumption { filter_time } => {
                self.subsumption_hits += 1;
                self.filter_time += filter_time;
            }
            Lookup::Miss => self.misses += 1,
            Lookup::Patched => {
                self.misses += 1;
                self.patched += 1;
            }
            Lookup::Declined => {
                self.misses += 1;
                self.declined += 1;
            }
        }
    }
}

/// How one lookup was answered: the counter of [`SemanticStats`] it
/// moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The canonical key was cached.
    Exact,
    /// Derived from a containing entry's pair set, in `filter_time`.
    Subsumption {
        /// Time this lookup spent filtering the donor's pair set.
        filter_time: Duration,
    },
    /// Nothing cached could answer: the key's reach set was evaluated in
    /// full over the caller's probe and installed — on a memo that has
    /// evicted a cell, only from the key's second miss.
    Miss,
    /// A miss answered by patching a cell inherited from an earlier graph
    /// version.
    Patched,
    /// A first miss on a full memo: the query alone was evaluated over
    /// the caller's probe, and nothing installed.
    Declined,
}

impl Lookup {
    /// Label for profiles: `exact_hit`, `subsumption_hit`, `miss` or
    /// `patched`. A declined miss reads `miss`: it is one, and only the
    /// [`declined`](SemanticStats::declined) counter tells it apart.
    pub fn as_str(self) -> &'static str {
        match self {
            Lookup::Exact => "exact_hit",
            Lookup::Subsumption { .. } => "subsumption_hit",
            Lookup::Miss | Lookup::Declined => "miss",
            Lookup::Patched => "patched",
        }
    }
}

/// One key's reach set, stamped with the memo version it was computed at,
/// with its tick: its install while on probation (not read since), its
/// last read in main. A fresh cell keeps the answer made for each target
/// predicate asked since its answers were last dropped, with what they
/// are charged; an inherited cell keeps none.
struct Cell {
    pairs: PairSet,
    version: u64,
    tick: u64,
    probation: bool,
    answers: HashMap<Predicate, RqResult>,
    answer_bytes: usize,
}

impl Cell {
    fn new(pairs: PairSet, version: u64, tick: u64, probation: bool) -> Cell {
        Cell {
            pairs,
            version,
            tick,
            probation,
            answers: HashMap::new(),
            answer_bytes: 0,
        }
    }

    /// What the cell's reach set is charged.
    fn reach_bytes(&self) -> usize {
        self.pairs.len() * PAIR_BYTES
    }

    /// What the cell is charged: its reach set, and its answers.
    fn bytes(&self) -> usize {
        self.reach_bytes() + self.answer_bytes
    }
}

#[derive(Default)]
struct Table {
    map: HashMap<Predicate, HashMap<FRegex, Cell>>,
    /// Candidate index over *fresh* cells: regex skeleton → keys.
    index: HashMap<Vec<Color>, Vec<(Predicate, FRegex)>>,
    /// The memo's version: 0 when new, one more per carry. A cell stamped
    /// with it is fresh; any other is inherited.
    version: u64,
    /// The edge changes of the last `CARRY_VERSIONS` batches, oldest
    /// first: the last one led to `version`. Each batch is shared with the
    /// versions before and after that log it too.
    log: Vec<Arc<[EdgeChange]>>,
    tick: u64,
    /// What every cell is charged, answers included.
    bytes: usize,
    /// The answers' share of `bytes`.
    answer_bytes: usize,
    /// The reach sets on probation: their share of `bytes`.
    probation_bytes: usize,
    budget: usize,
    ghost: Arc<Ghost>, // shared with every later version
}

impl Table {
    /// The fresh cell of `(from, regex)`.
    fn fresh(&mut self, from: &Predicate, regex: &FRegex) -> Option<&mut Cell> {
        let version = self.version;
        (self.map.get_mut(from)?.get_mut(regex)).filter(|cell| cell.version == version)
    }

    /// The fresh cell of `(from, regex)`, read: most recently used, in main.
    fn touch(&mut self, from: &Predicate, regex: &FRegex) -> Option<&mut Cell> {
        self.tick += 1;
        let version = self.version;
        let cell =
            (self.map.get_mut(from)?.get_mut(regex)).filter(|cell| cell.version == version)?;
        cell.tick = self.tick;
        if std::mem::take(&mut cell.probation) {
            self.probation_bytes -= cell.reach_bytes();
        }
        Some(cell)
    }

    /// Install `pairs` as the fresh cell of `(from, canon)` — in main if
    /// `patched` or the ghost set holds the key, else on probation —
    /// superseding an inherited one, visible to containment lookups and
    /// charged to the budget. The first install wins: with a fresh cell
    /// there already, its set is returned and `pairs` dropped.
    fn install(
        &mut self,
        from: &Predicate,
        canon: &FRegex,
        pairs: Vec<(NodeId, NodeId)>,
        patched: bool,
    ) -> PairSet {
        if let Some(cell) = self.fresh(from, canon) {
            return Arc::clone(&cell.pairs);
        }
        let main = patched || self.ghost.holds(from, canon);
        self.remove(from, canon);
        let pairs = Arc::new(pairs);
        self.tick += 1;
        let cell = Cell::new(Arc::clone(&pairs), self.version, self.tick, !main);
        self.bytes += cell.bytes();
        if !main {
            self.probation_bytes += cell.reach_bytes();
        }
        let inner = self.map.entry(from.clone()).or_default();
        inner.insert(canon.clone(), cell);
        let bucket = self.index.entry(skeleton(canon)).or_default();
        bucket.push((from.clone(), canon.clone()));
        self.make_room((from, canon));
        pairs
    }

    /// Take the cell of `(from, canon)` out of the table, the candidate
    /// index and the charged bytes.
    fn remove(&mut self, from: &Predicate, canon: &FRegex) {
        let Some(inner) = self.map.get_mut(from) else {
            return;
        };
        let Some(cell) = inner.remove(canon) else {
            return;
        };
        if inner.is_empty() {
            self.map.remove(from);
        }
        self.bytes -= cell.bytes();
        self.answer_bytes -= cell.answer_bytes;
        if cell.probation {
            self.probation_bytes -= cell.reach_bytes();
        }
        if cell.version == self.version {
            if let Some(bucket) = self.index.get_mut(&skeleton(canon)) {
                bucket.retain(|(p, r)| (p, r) != (from, canon));
            }
        }
    }

    /// Bring probation within its cap, whether or not the budget is full,
    /// then the charged bytes within the budget: kept answers go first —
    /// the next hit remakes one from its reach set — then cells. So
    /// answers live in the room reach sets leave, and never cost a reach
    /// set its place. `keep` stays.
    fn make_room(&mut self, keep: (&Predicate, &FRegex)) {
        while self.probation_bytes > self.budget / PROBATION_SHARE && self.evict(keep, true) {}
        while self.bytes > self.budget && self.drop_lru_answers() {}
        while self.bytes > self.budget && self.evict(keep, false) {}
    }

    /// Evict probation's oldest cell, or main's least recently used (else
    /// probation's), other than `keep`, into the ghost set; `false` if none.
    fn evict(&mut self, keep: (&Predicate, &FRegex), probation_only: bool) -> bool {
        let Some((from, canon)) = (self.map.iter())
            .flat_map(|(p, inner)| inner.iter().map(move |(r, cell)| (p, r, cell)))
            .filter(|&(p, r, cell)| (p, r) != keep && (cell.probation || !probation_only))
            .min_by_key(|&(.., cell)| (cell.probation, cell.tick))
            .map(|(p, r, _)| (p.clone(), r.clone()))
        else {
            return false;
        };
        self.remove(&from, &canon);
        self.ghost.record(&from, &canon, self.budget);
        true
    }

    /// Drop the answers of the least recently used cell that keeps any;
    /// `false` when none does.
    fn drop_lru_answers(&mut self) -> bool {
        if self.answer_bytes == 0 {
            return false;
        }
        let cell = (self.map.values_mut())
            .flat_map(|inner| inner.values_mut())
            .filter(|cell| cell.answer_bytes > 0)
            .min_by_key(|cell| cell.tick)
            .expect("answer bytes are kept by some cell");
        self.bytes -= cell.answer_bytes;
        self.answer_bytes -= cell.answer_bytes;
        cell.answers.clear();
        cell.answer_bytes = 0;
        true
    }

    /// Find a fresh cell containing `(from, regex)`: same-skeleton bucket
    /// first, then the all-wildcard bucket. Prefers an equal-language
    /// (regex-identical, predicate-narrowing) donor — served by a pure
    /// filter — over a strictly-containing one. Its use is a read
    /// ([`touch`](Table::touch)).
    fn find_donor(&mut self, from: &Predicate, regex: &FRegex) -> Option<(PairSet, bool)> {
        let probe_skel = skeleton(regex);
        let wild = wildcard_skeleton();
        let buckets = if probe_skel == wild {
            vec![&probe_skel]
        } else {
            vec![&probe_skel, &wild]
        };
        let mut donor = None;
        'search: for skel in buckets {
            for (dpred, dregex) in self.index.get(skel).into_iter().flatten() {
                if !from.implies(dpred) {
                    continue;
                }
                let equal = dregex == regex;
                if !equal && (donor.is_some() || !contains_fast(regex, dregex)) {
                    continue;
                }
                donor = Some((dpred.clone(), dregex.clone(), equal));
                if equal {
                    break 'search;
                }
            }
        }
        let (dpred, dregex, equal) = donor?;
        let cell = self
            .touch(&dpred, &dregex)
            .expect("the index lists fresh cells");
        Some((Arc::clone(&cell.pairs), equal))
    }
}

/// Shared `(source predicate, canonical regex) → reach pairs` table with
/// containment-driven reuse. See the module docs for the full contract.
///
/// The key is split across two map levels (`predicate → regex → cell`) so
/// that lookups hash the caller's *borrowed* predicate directly; callers
/// pass regexes in canonical form, so every syntactic variant of a
/// language lands on one cell.
#[derive(Default)]
pub(crate) struct SemanticMemo {
    cells: Mutex<Table>,
}

impl std::fmt::Debug for SemanticMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SemanticMemo")
            .field("len", &self.len())
            .field("cached_bytes", &self.cached_bytes())
            .finish()
    }
}

impl SemanticMemo {
    fn table(&self) -> MutexGuard<'_, Table> {
        self.cells.lock().expect("memo poisoned")
    }

    /// Empty table with the default byte budget.
    pub(crate) fn new() -> Self {
        Self::with_byte_budget(DEFAULT_BYTE_BUDGET)
    }

    /// Empty table bounding cached pair sets and their per-target answers
    /// to roughly `byte_budget` bytes (8 bytes per reach-set pair, 32 per
    /// answer pair), a tenth of it for the reach sets on probation; past
    /// the budget, least-recently used answers are dropped first, then
    /// cells. A budget of 0 keeps at most one cell, and no answers.
    pub(crate) fn with_byte_budget(byte_budget: usize) -> Self {
        SemanticMemo {
            cells: Mutex::new(Table {
                budget: byte_budget,
                ..Table::default()
            }),
        }
    }

    /// Answer `rq`, its regex in run-normal form, and say how. A fresh
    /// exact cell answers ([`Lookup::Exact`]) — with the answer it keeps
    /// for `rq`'s target, under the one lock the lookup takes, if it was
    /// asked with that target before — and so does a fresh cell whose key
    /// contains `rq`'s ([`Lookup::Subsumption`]), its derived reach set
    /// installed as a new cell. Neither reads `probe`. Anything else is a
    /// miss, evaluated over `probe` — the plan's index, or the graph:
    /// a cell inherited from an earlier graph version is patched
    /// ([`Lookup::Patched`]); else the key's complete reach set is
    /// computed and installed ([`Lookup::Miss`]) — on a memo that has
    /// evicted a cell, only from the key's second miss; else the query is
    /// evaluated alone and nothing is installed ([`Lookup::Declined`]).
    /// A patched or installed set's answer is kept for the next exact hit
    /// with the same target.
    pub(crate) fn answer(&self, g: &Graph, rq: &Rq, probe: &dyn DistProbe) -> (RqResult, Lookup) {
        self.try_answer(g, rq)
            .unwrap_or_else(|| self.miss(g, rq, probe))
    }

    /// The hit path of [`answer`](Self::answer): a fresh exact cell or a
    /// containing donor answers `rq`, and a derived reach set is installed
    /// as a new cell. `None` on a miss, having installed nothing.
    fn try_answer(&self, g: &Graph, rq: &Rq) -> Option<(RqResult, Lookup)> {
        let (from, canon) = (&rq.from, &rq.regex);
        debug_assert!(is_canonical(canon), "memo keys are canonical");
        let (donor, equal) = {
            let mut table = self.table();
            match table.touch(from, canon) {
                Some(cell) => {
                    if let Some(kept) = cell.answers.get(&rq.to) {
                        return Some((kept.clone(), Lookup::Exact));
                    }
                    let pairs = Arc::clone(&cell.pairs);
                    drop(table);
                    let answer = self.keep(rq, rq_targets(g, &rq.to, &pairs));
                    return Some((answer, Lookup::Exact));
                }
                None => table.find_donor(from, canon)?,
            }
        };
        let started = Instant::now();
        let derived = derive_from_donor(g, from, canon, &donor, equal);
        let filter_time = started.elapsed();
        let pairs = self.table().install(from, canon, derived, false);
        let lookup = Lookup::Subsumption { filter_time };
        Some((self.answer_from(g, rq, &pairs), lookup))
    }

    /// The miss path of [`answer`](Self::answer), over `probe`: patch the
    /// key's inherited cell ([`patch_reach_set`]); else, if the memo
    /// [`admit`](Self::admit)s the key, compute and install its *full*
    /// reach set (target widened to `true`), trading DM's backward pruning
    /// for a reusable cell; else evaluate the query alone.
    fn miss(&self, g: &Graph, rq: &Rq, probe: &dyn DistProbe) -> (RqResult, Lookup) {
        let wide = Rq::new(rq.from.clone(), Predicate::always_true(), rq.regex.clone());
        let patch = |old: &[_], changes: &[_]| patch_reach_set(g, &wide, probe, old, changes);
        let (pairs, lookup) = match self.patch(&rq.from, &rq.regex, patch) {
            Some(pairs) => (pairs, Lookup::Patched),
            None if self.admit(&rq.from, &rq.regex) => {
                let full = wide.eval_with_dist(g, probe).into_pairs();
                (self.insert(&rq.from, &rq.regex, full), Lookup::Miss)
            }
            None => return (rq.eval_with_dist(g, probe), Lookup::Declined),
        };
        (self.answer_from(g, rq, &pairs), lookup)
    }

    /// `rq`'s answer from `pairs`, the complete reach set of its key that
    /// [`insert`](Self::insert) or [`patch`](Self::patch) returned: the
    /// answer the key's cell keeps for `rq.to`, else `pairs` filtered down
    /// to `rq.to` and kept in the cell for the next query with that
    /// target. Answers are charged to the byte budget but only use the
    /// room the reach sets leave: keeping one drops least recently used
    /// answers, never a cell. An answer that does not fit beside the reach
    /// sets, or whose cell was evicted meanwhile, is served unkept.
    fn answer_from(&self, g: &Graph, rq: &Rq, pairs: &[(NodeId, NodeId)]) -> RqResult {
        let kept = (self.table().fresh(&rq.from, &rq.regex))
            .and_then(|cell| cell.answers.get(&rq.to).cloned());
        kept.unwrap_or_else(|| self.keep(rq, rq_targets(g, &rq.to, pairs)))
    }

    /// Keep `answer` as the cell's answer for `rq.to`, charged to the
    /// budget, unless a racer kept one first (that one is returned).
    fn keep(&self, rq: &Rq, answer: RqResult) -> RqResult {
        let charge = answer.len() * ANSWER_BYTES_PER_PAIR;
        let mut table = self.table();
        match (table.fresh(&rq.from, &rq.regex)).map(|cell| cell.answers.get(&rq.to)) {
            None => return answer,
            Some(Some(kept)) => return kept.clone(),
            Some(None) => {}
        }
        if table.bytes - table.answer_bytes + charge > table.budget {
            return answer;
        }
        while table.bytes + charge > table.budget && table.drop_lru_answers() {}
        table.bytes += charge;
        table.answer_bytes += charge;
        let cell = (table.fresh(&rq.from, &rq.regex)).expect("dropping answers keeps cells");
        cell.answer_bytes += charge;
        cell.answers.insert(rq.to.clone(), answer.clone());
        answer
    }

    /// Install a computed reach set for `(from, regex)`: in main when the
    /// ghost set holds the key, else on probation, so it answers later
    /// exact and containment lookups. `pairs` must be the key's *complete*
    /// reach set — every `(x, y)` with `x ⊨ from`, unfiltered by any
    /// target predicate (order is established here: checked in one pass,
    /// and sorted only if the check fails — index evaluation already
    /// yields its pairs sorted). Returns the cached set — the caller's, or
    /// the racing winner's if another caller installed the key first.
    fn insert(
        &self,
        from: &Predicate,
        regex: &FRegex,
        mut pairs: Vec<(NodeId, NodeId)>,
    ) -> PairSet {
        debug_assert!(is_canonical(regex), "memo keys are canonical");
        if !pairs.is_sorted() {
            pairs.sort_unstable();
        }
        self.table().install(from, regex, pairs, false)
    }

    /// Whether a miss on `(from, regex)` that no inherited cell patched
    /// should compute the key's complete reach set and
    /// [`insert`](Self::insert) it: always while this memo (or one it was
    /// carried from) has never evicted a cell; once one has, only if the
    /// ghost set holds the key (its cell was evicted, or its first miss
    /// declined). Any other miss is recorded in the ghost set and answered
    /// alone ([`Lookup::Declined`]): a key that never comes back pays for
    /// its answer only.
    fn admit(&self, from: &Predicate, regex: &FRegex) -> bool {
        debug_assert!(is_canonical(regex), "memo keys are canonical");
        let table = self.table();
        table.ghost.slots.get().is_none() || table.ghost.record(from, regex, table.budget)
    }

    /// The miss path's first step: if this memo inherited a cell of
    /// `(from, regex)` from an earlier graph version, `patch` gets its
    /// pair set and the edge changes of the batches logged since the
    /// cell's version, oldest first, and a `Some` it returns — the key's
    /// complete, sorted reach set on this version — is installed as a
    /// fresh cell in main (superseding the inherited one): a
    /// [`Lookup::Patched`]. `None` when nothing was inherited for the key
    /// or `patch` declined. `patch` runs outside the lock.
    fn patch(
        &self,
        from: &Predicate,
        regex: &FRegex,
        patch: impl FnOnce(&[(NodeId, NodeId)], &[EdgeChange]) -> Option<Vec<(NodeId, NodeId)>>,
    ) -> Option<PairSet> {
        let (old, changes) = {
            let table = self.table();
            let cell = table.map.get(from)?.get(regex)?;
            let since = (table.version - cell.version) as usize;
            if since == 0 {
                return None;
            }
            let batches = &table.log[table.log.len() - since..];
            (Arc::clone(&cell.pairs), batches.concat())
        };
        let pairs = patch(&old, &changes)?;
        Some(self.table().install(from, regex, pairs, true))
    }

    /// The memo of the next graph version, one batch of edge `changes`
    /// later: its log is this one's with `changes` appended (the oldest
    /// batch dropped past `CARRY_VERSIONS`), and it inherits every cell
    /// computed at most `CARRY_VERSIONS` (four) versions before it. Pair
    /// sets are shared, not copied, and per-target answers are not
    /// inherited; each cell's version stamp, queue and tick, the byte
    /// budget and the ghost set (shared, so the next version is full if
    /// this one is) carry over.
    pub(crate) fn carry(&self, changes: &[EdgeChange]) -> SemanticMemo {
        let table = self.table();
        let version = table.version + 1;
        let kept = table.log.len().min(CARRY_VERSIONS - 1);
        let mut log = table.log[table.log.len() - kept..].to_vec();
        log.push(changes.into());
        let mut next = Table {
            version,
            log,
            tick: table.tick,
            budget: table.budget,
            ghost: Arc::clone(&table.ghost),
            ..Table::default()
        };
        for (from, inner) in &table.map {
            for (canon, cell) in inner {
                if version - cell.version > CARRY_VERSIONS as u64 {
                    continue;
                }
                // the reach set alone: its answers stay with this version
                let cell = Cell::new(
                    Arc::clone(&cell.pairs),
                    cell.version,
                    cell.tick,
                    cell.probation,
                );
                next.bytes += cell.bytes();
                if cell.probation {
                    next.probation_bytes += cell.reach_bytes();
                }
                let inner = next.map.entry(from.clone()).or_default();
                inner.insert(canon.clone(), cell);
            }
        }
        SemanticMemo {
            cells: Mutex::new(next),
        }
    }

    /// Number of fresh cells: the keys computed on this version and still
    /// held (the candidate index lists each once).
    pub(crate) fn len(&self) -> usize {
        let table = self.table();
        table.index.values().map(Vec::len).sum()
    }

    /// Bytes currently charged against the budget: every cell, fresh or
    /// inherited, and the answers fresh cells keep.
    pub(crate) fn cached_bytes(&self) -> usize {
        self.table().bytes
    }

    /// [`cached_bytes`](Self::cached_bytes) by queue: the reach sets on
    /// probation, and the rest — main's cells and every kept answer.
    pub(crate) fn queue_bytes(&self) -> (usize, usize) {
        let table = self.table();
        (table.probation_bytes, table.bytes - table.probation_bytes)
    }
}

/// Answer `(from, regex)` from a containing donor's pair set. With an
/// equal-language donor the answer is the donor filtered to sources
/// satisfying the (narrower) probe predicate. With a strictly-containing
/// regex, the surviving donor sources are re-evaluated under `regex` by
/// [`Rq::eval_with_dist_from`] over the graph — sources the donor proved
/// unreachable are skipped, and each of the others is one bit test
/// against the predicate's column scan.
fn derive_from_donor(
    g: &Graph,
    from: &Predicate,
    regex: &FRegex,
    donor: &[(NodeId, NodeId)],
    equal_language: bool,
) -> Vec<(NodeId, NodeId)> {
    // the donor is sorted: each distinct source is one contiguous block,
    // tested once against the predicate's bitmap
    let sources = from.select_bits(g);
    let surviving = donor
        .chunk_by(|a, b| a.0 == b.0)
        .filter(|block| selected(&sources, block[0].0));
    if equal_language {
        return surviving.flatten().copied().collect();
    }
    let sources = surviving.map(|block| block[0].0).collect();
    Rq::new(from.clone(), Predicate::always_true(), regex.clone())
        .eval_with_dist_from(g, &GraphProbe::new(g), sources)
        .into_pairs()
}

/// `pairs` — a memoized reach set, sorted and duplicate-free — filtered
/// down to the target predicate `to`: one column scan
/// ([`Predicate::select_bits`]), then a bit test per pair; nothing at all
/// when `to` is trivially true. A filtered slice of a sorted set is still
/// sorted, so the result is checked, not re-sorted.
fn rq_targets(g: &Graph, to: &Predicate, pairs: &[(NodeId, NodeId)]) -> RqResult {
    let hits = if to.is_trivial() {
        pairs.to_vec()
    } else {
        let targets = to.select_bits(g);
        pairs
            .iter()
            .filter(|&&(_, y)| selected(&targets, y))
            .copied()
            .collect()
    };
    RqResult::from_sorted_pairs(hits).expect("memoized reach sets are sorted and duplicate-free")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::strategy::Strategy;
    use rpq_graph::gen::essembly;
    use rpq_regex::canon::canonicalize;

    /// Whether the memo has evicted a cell, and so declines first misses.
    fn full(memo: &SemanticMemo) -> bool {
        memo.table().ghost.slots.get().is_some()
    }

    /// The key's complete reach set, by the reference evaluator.
    fn reach(g: &Graph, from: &Predicate, re: &FRegex) -> Vec<(NodeId, NodeId)> {
        Rq::new(from.clone(), Predicate::always_true(), re.clone())
            .eval_bfs(g)
            .into_pairs()
    }

    /// The RQ of `(from, re)` with a trivially true target, whose answer
    /// is the key's reach set; `re` canonicalised, as the engine's
    /// prologue does.
    fn key(from: &Predicate, re: &FRegex) -> Rq {
        Rq::new(from.clone(), Predicate::always_true(), canonicalize(re))
    }

    /// What the engine does for an RQ, over the graph: the memo's one
    /// entry. Returns the answer and the lookup the engine tallies.
    fn ask(memo: &SemanticMemo, g: &Graph, rq: &Rq) -> (RqResult, Lookup) {
        memo.answer(g, rq, &GraphProbe::new(g))
    }

    fn answer(memo: &SemanticMemo, g: &Graph, from: &Predicate, re: &FRegex) -> RqResult {
        ask(memo, g, &key(from, re)).0
    }

    /// Whether two nonempty answers are one shared pair list.
    fn shared(a: &RqResult, b: &RqResult) -> bool {
        assert!(
            !a.is_empty() && !b.is_empty(),
            "an empty list has no address"
        );
        a.as_slice().as_ptr() == b.as_slice().as_ptr()
    }

    #[test]
    fn memo_computes_once_and_shares() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let from = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let re = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        let (a, first) = ask(&memo, &g, &key(&from, &re));
        let (b, second) = ask(&memo, &g, &key(&from, &re));
        assert_eq!((first, second), (Lookup::Miss, Lookup::Exact));
        assert!(shared(&a, &b), "same key must share one answer");
        assert_eq!(memo.len(), 1);

        let c = answer(&memo, &g, &Predicate::always_true(), &re);
        assert!(!shared(&a, &c));
        assert_eq!(memo.len(), 2);

        // same predicate, different regex: a distinct key in the second
        // map level
        let re2 = FRegex::parse("fn", g.alphabet()).unwrap();
        let d = answer(&memo, &g, &from, &re2);
        assert!(!shared(&a, &d));
        assert_eq!(memo.len(), 3);
        assert!(memo.len() > 0);
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
        let mut s = SemanticStats::default();
        for from in [&broad, &broad, &narrow] {
            let (served, lookup) = ask(&memo, &g, &key(from, &re));
            assert_eq!(served.as_slice(), reach(&g, from, &re));
            s.record(lookup);
        }
        assert_eq!((s.exact_hits, s.subsumption_hits, s.misses), (1, 1, 1));
    }

    #[test]
    fn concurrent_same_key_shares_one_cell() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let from = Predicate::always_true();
        let re = FRegex::parse("fa+", g.alphabet()).unwrap();
        let asked: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| ask(&memo, &g, &key(&from, &re))))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(memo.len(), 1);
        for (a, lookup) in &asked {
            assert_eq!(a.as_slice(), reach(&g, &from, &re));
            assert!(matches!(lookup, Lookup::Miss | Lookup::Exact), "{lookup:?}");
        }
        assert!(asked.iter().any(|(_, lookup)| *lookup == Lookup::Miss));
        // however the racers interleaved, one answer is kept from then on
        let kept = answer(&memo, &g, &from, &re);
        assert!(shared(&kept, &answer(&memo, &g, &from, &re)));
    }

    #[test]
    fn syntactic_variants_share_one_cell() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let from = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let re = |text: &str| FRegex::parse(text, g.alphabet()).unwrap();
        let (a, first) = ask(&memo, &g, &key(&from, &re("fa^2 fa")));
        let (b, second) = ask(&memo, &g, &key(&from, &re("fa fa^2")));
        assert_eq!((first, second), (Lookup::Miss, Lookup::Exact));
        assert!(shared(&a, &b), "canonical keys unify variants");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn narrower_predicate_is_served_by_subsumption() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let re = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        let broad = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let narrow =
            Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap();
        assert_eq!(ask(&memo, &g, &key(&broad, &re)).1, Lookup::Miss);
        let (served, lookup) = memo
            .try_answer(&g, &key(&narrow, &re))
            .expect("donor answers");
        let Lookup::Subsumption { filter_time } = lookup else {
            panic!("filtered from the broad entry, not {lookup:?}");
        };
        assert!(filter_time > Duration::ZERO);
        // bit-identical to direct evaluation
        assert_eq!(served.as_slice(), reach(&g, &narrow, &re));
        // and now cached exactly
        let (again, lookup) = memo.try_answer(&g, &key(&narrow, &re)).expect("installed");
        assert_eq!(lookup, Lookup::Exact);
        assert!(shared(&served, &again));
    }

    #[test]
    fn narrower_regex_is_reverified_not_trusted() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let from = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let broad = FRegex::parse("fa^3 fn", g.alphabet()).unwrap();
        let narrow = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        let _ = answer(&memo, &g, &from, &broad);
        let (served, lookup) = memo
            .try_answer(&g, &key(&from, &narrow))
            .expect("donor answers");
        assert!(matches!(lookup, Lookup::Subsumption { .. }));
        assert_eq!(
            served.as_slice(),
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
            let (served, lookup) = memo
                .try_answer(&g, &key(&from, &re))
                .expect("donor answers");
            let took = started.elapsed();
            assert!(matches!(lookup, Lookup::Subsumption { .. }), "_^{k}");
            let fresh = Rq::new(from.clone(), Predicate::always_true(), re)
                .eval_with_dist(&g, &GraphProbe::new(&g));
            assert_eq!(served, fresh, "_^{k}");
            assert!(took < Duration::from_secs(1), "_^{k} took {took:?}");
        }
    }

    #[test]
    fn try_answer_serves_only_cached_state() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let from = Predicate::parse("job = \"biologist\"", g.schema()).unwrap();
        let re = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        assert!(
            memo.try_answer(&g, &key(&from, &re)).is_none(),
            "cold cache"
        );
        assert_eq!(memo.len(), 0, "a declined lookup installs nothing");
        let computed = memo.insert(&from, &re, reach(&g, &from, &re));
        let (answer, lookup) = memo.try_answer(&g, &key(&from, &re)).expect("now cached");
        assert_eq!(lookup, Lookup::Exact);
        assert_eq!(answer.as_slice(), computed.as_slice());
        // an unrelated key still declines
        let other = FRegex::parse("sn", g.alphabet()).unwrap();
        assert!(memo.try_answer(&g, &key(&from, &other)).is_none());
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
        let memo = SemanticMemo::with_byte_budget(PAIR_BYTES);
        let from = Predicate::always_true();
        let re = |text: &str| FRegex::parse(text, g.alphabet()).unwrap();
        let res = ["fa", "fn", "sa"];
        for r in res {
            let _ = answer(&memo, &g, &from, &re(r));
        }
        assert!(memo.len() < res.len(), "older cells evicted");
        assert!(memo.cached_bytes() > 0);
        // evicted keys miss again, not hit
        let (_, lookup) = ask(&memo, &g, &key(&from, &re("fa")));
        assert!(
            matches!(lookup, Lookup::Miss | Lookup::Declined),
            "{lookup:?}"
        );
    }

    /// `(source predicate, regex, target predicate)` of the essembly graph.
    fn rq(g: &Graph, from: &str, re: &str, to: &str) -> Rq {
        Rq::new(
            Predicate::parse(from, g.schema()).unwrap(),
            Predicate::parse(to, g.schema()).unwrap(),
            canonicalize(&FRegex::parse(re, g.alphabet()).unwrap()),
        )
    }

    /// What one key's reach set is charged.
    fn reach_bytes(g: &Graph, rq: &Rq) -> usize {
        reach(g, &rq.from, &rq.regex).len() * PAIR_BYTES
    }

    /// What one answer is charged.
    fn answer_bytes(g: &Graph, rq: &Rq) -> usize {
        rq.eval_bfs(g).len() * ANSWER_BYTES_PER_PAIR
    }

    #[test]
    fn exact_hits_share_the_answer_kept_for_their_target() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let doctors = rq(&g, "job = \"biologist\"", "fa^2 fn", "job = \"doctor\"");
        let anyone = rq(&g, "job = \"biologist\"", "fa^2 fn", "");
        // the miss path's answer is the one kept
        let (first, lookup) = ask(&memo, &g, &doctors);
        assert_eq!((&first, lookup), (&doctors.eval_bfs(&g), Lookup::Miss));
        for _ in 0..2 {
            let (hit, lookup) = memo.try_answer(&g, &doctors).expect("cached");
            assert_eq!(lookup, Lookup::Exact);
            assert!(shared(&first, &hit), "no filter, no copy");
        }
        // another target on the same cell: its own answer, kept beside
        let (wide, _) = memo.try_answer(&g, &anyone).expect("cached");
        assert_eq!(wide, anyone.eval_bfs(&g));
        assert!(!shared(&wide, &first));
        assert!(shared(&wide, &memo.try_answer(&g, &anyone).unwrap().0));
        assert_eq!(memo.len(), 1, "one cell, two answers");
        // charged: the reach set, plus both answers at the per-pair bound
        let reach_bytes = wide.len() * PAIR_BYTES;
        let answer_bytes = (first.len() + wide.len()) * ANSWER_BYTES_PER_PAIR;
        assert_eq!(memo.cached_bytes(), reach_bytes + answer_bytes);
    }

    #[test]
    fn evicting_a_cell_drops_its_answers() {
        let g = essembly();
        let a = rq(&g, "", "fn", "");
        let b = rq(&g, "", "fa", "job = \"doctor\"");
        let wide = rq(&g, "", "_+", "");
        // room for `a` with its answer
        let budget = reach_bytes(&g, &a) + answer_bytes(&g, &a);
        assert!(reach_bytes(&g, &a) + reach_bytes(&g, &b) + answer_bytes(&g, &b) <= budget);
        assert!(reach_bytes(&g, &wide) + reach_bytes(&g, &a) > budget);
        let memo = SemanticMemo::with_byte_budget(budget);
        let (kept, _) = ask(&memo, &g, &a);
        assert!(shared(&kept, &ask(&memo, &g, &a).0));
        assert_eq!(memo.cached_bytes(), budget, "the answer is charged");
        // `b` needs room: `a`'s answer goes, with its charge, and its
        // cell stays
        let _ = ask(&memo, &g, &b);
        assert_eq!(memo.len(), 2);
        let b_total = reach_bytes(&g, &b) + answer_bytes(&g, &b);
        assert_eq!(memo.cached_bytes(), reach_bytes(&g, &a) + b_total);
        let (again, lookup) = memo.try_answer(&g, &a).expect("the cell stayed");
        assert_eq!(lookup, Lookup::Exact);
        assert_eq!(again, kept);
        assert!(!shared(&again, &kept), "remade from the reach set");
        // a reach set that needs the room evicts cells: their answers
        // leave with them, and no byte of theirs stays charged
        let _ = ask(&memo, &g, &wide);
        assert_eq!(memo.len(), 1, "`a` and `b` evicted");
        assert_eq!(memo.cached_bytes(), reach_bytes(&g, &wide));
    }

    #[test]
    fn a_carried_memo_serves_no_answer_of_the_version_before() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let doctors = rq(&g, "job = \"biologist\"", "fa^2 fn", "job = \"doctor\"");
        let (old, _) = ask(&memo, &g, &doctors);
        let reach_bytes = reach_bytes(&g, &doctors);
        let next = memo.carry(&batch(0));
        assert_eq!(next.cached_bytes(), reach_bytes, "the reach set alone");
        // the first lookup of the key misses, and its answer is made anew
        assert!(next.try_answer(&g, &doctors).is_none());
        let pairs = next
            .patch(&doctors.from, &doctors.regex, |old, _| Some(old.to_vec()))
            .expect("inherited");
        let fresh = next.answer_from(&g, &doctors, &pairs);
        assert_eq!(fresh, old);
        assert!(!shared(&fresh, &old), "not the old version's answer");
        assert!(shared(&fresh, &next.try_answer(&g, &doctors).unwrap().0));
    }

    #[test]
    fn answers_past_the_budget_never_evict_a_cell() {
        let g = essembly();
        // a trivial target: each answer is its whole reach set
        let keys = [
            rq(&g, "", "fa+", ""),
            rq(&g, "", "fn+", ""),
            rq(&g, "", "sa+", ""),
        ];
        let total = |k: &Rq| reach_bytes(&g, k) + answer_bytes(&g, k);
        // room for every reach set, and for each cell with its answer;
        // not for all the answers
        let budget = keys.iter().map(total).max().unwrap();
        assert!(keys.iter().map(|k| reach_bytes(&g, k)).sum::<usize>() <= budget);
        assert!(keys.iter().map(total).sum::<usize>() > budget);
        let memo = SemanticMemo::with_byte_budget(budget);
        let mut s = SemanticStats::default();
        for _ in 0..2 {
            for k in &keys {
                // each key is read before the next install, which would
                // push it off probation unread
                for _ in 0..2 {
                    let (served, lookup) = ask(&memo, &g, k);
                    assert_eq!(served, k.eval_bfs(&g));
                    s.record(lookup);
                    assert!(
                        memo.cached_bytes() <= budget,
                        "{} > {budget}",
                        memo.cached_bytes()
                    );
                }
            }
        }
        assert_eq!(memo.len(), keys.len());
        assert_eq!(s.misses, keys.len() as u64, "no cell evicted");
        // the one asked last keeps its answer
        let last = &keys[keys.len() - 1];
        assert!(shared(&ask(&memo, &g, last).0, &ask(&memo, &g, last).0));
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
        let computed = memo.insert(&broad, &re, reach(&g, &broad, &re));
        let next = memo.carry(&batch(0));
        // neither an exact hit nor a donor for the narrower key
        assert!(next.try_answer(&g, &key(&broad, &re)).is_none());
        assert!(next.try_answer(&g, &key(&narrow, &re)).is_none());
        assert_eq!(next.len(), 0, "a declined lookup installs nothing");
        // the miss path patches it: the closure gets the shared pair set
        // and the batch's changes, and what it returns becomes a fresh cell
        let patched = next
            .patch(&broad, &re, |old, changes| {
                assert!(std::ptr::eq(old, computed.as_slice()), "shared, not copied");
                assert_eq!(changes, batch(0));
                Some(old.to_vec())
            })
            .expect("inherited");
        let (hit, lookup) = next.try_answer(&g, &key(&broad, &re)).expect("fresh now");
        assert_eq!(lookup, Lookup::Exact);
        assert_eq!(hit.as_slice(), patched.as_slice());
        // the fresh cell superseded the inherited one
        assert!(next.patch(&broad, &re, |_, _| unreachable!()).is_none());
        // a declined patch installs nothing
        let other = FRegex::parse("fn", g.alphabet()).unwrap();
        let _ = answer(&memo, &g, &broad, &other);
        let next = memo.carry(&batch(0));
        assert!(next.patch(&broad, &other, |_, _| None).is_none());
        assert_eq!(next.len(), 0);
        // a memo that inherited nothing never asks
        let fresh = SemanticMemo::new();
        assert!(fresh.patch(&broad, &re, |_, _| unreachable!()).is_none());
    }

    #[test]
    fn inherited_cells_are_charged_to_the_byte_budget() {
        let g = essembly();
        let from = Predicate::always_true();
        let re = |text: &str| FRegex::parse(text, g.alphabet()).unwrap();
        // reach sets only, as a miss installs them
        let install =
            |memo: &SemanticMemo, r: &str| memo.insert(&from, &re(r), reach(&g, &from, &re(r)));
        let memo = SemanticMemo::new();
        let fa = install(&memo, "fa");
        let fnc = install(&memo, "fn");
        let next = memo.carry(&batch(0));
        assert_eq!(next.cached_bytes(), memo.cached_bytes());
        assert_eq!(next.cached_bytes(), (fa.len() + fnc.len()) * PAIR_BYTES);
        // patching replaces the inherited charge with the fresh one
        let _ = next.patch(&from, &re("fa"), |old, _| Some(old.to_vec()));
        assert_eq!(next.cached_bytes(), memo.cached_bytes());

        // with room for one cell, a fresh cell evicts the inherited one
        let tight = SemanticMemo::with_byte_budget(fa.len() * PAIR_BYTES);
        let _ = install(&tight, "fa");
        let next = tight.carry(&batch(0));
        assert_eq!(next.cached_bytes(), fa.len() * PAIR_BYTES);
        let sa = install(&next, "sa");
        assert!(next
            .patch(&from, &re("fa"), |_, _| unreachable!())
            .is_none());
        assert_eq!(next.cached_bytes(), sa.len() * PAIR_BYTES);
    }

    /// A cell installed at version `v` and left unread is patched at each
    /// of the next `CARRY_VERSIONS` versions from exactly the batches
    /// logged since `v`, oldest first — also once the log has dropped
    /// batches older than `v` — and the carry after them drops it.
    #[test]
    fn inherited_cells_expire_after_carry_versions() {
        let g = essembly();
        let from = Predicate::always_true();
        let re = FRegex::parse("fa+", g.alphabet()).unwrap();
        for installed in 0..=CARRY_VERSIONS as u32 {
            let mut memo = SemanticMemo::new();
            for v in 0..installed {
                memo = memo.carry(&batch(v));
            }
            let _ = answer(&memo, &g, &from, &re);
            for k in 1..=CARRY_VERSIONS as u32 {
                memo = memo.carry(&batch(installed + k - 1));
                let mut seen = Vec::new();
                let declined = memo.patch(&from, &re, |_, changes| {
                    seen = changes.to_vec();
                    None
                });
                assert!(declined.is_none());
                let since: Vec<EdgeChange> = (installed..installed + k).flat_map(batch).collect();
                assert_eq!(seen, since, "{k} batches after an install at {installed}");
            }
            // one more unread version drops it, and its charge
            let memo = memo.carry(&batch(installed + CARRY_VERSIONS as u32));
            assert!(memo.patch(&from, &re, |_, _| unreachable!()).is_none());
            assert_eq!(memo.cached_bytes(), 0);
        }
    }

    #[test]
    fn under_budget_a_first_miss_installs() {
        let g = essembly();
        let memo = SemanticMemo::new();
        let q = rq(&g, "job = \"biologist\"", "fa^2 fn", "job = \"doctor\"");
        assert_eq!(ask(&memo, &g, &q), (q.eval_bfs(&g), Lookup::Miss));
        assert_eq!(memo.len(), 1, "installed on its first miss");
        assert!(!full(&memo), "no eviction, no ghost set");
        assert_eq!(memo.try_answer(&g, &q).unwrap().1, Lookup::Exact);
    }

    /// A memo with room for one reach set, which has had to evict one:
    /// its ghost set has one slot.
    fn full_memo(g: &Graph) -> SemanticMemo {
        let memo = SemanticMemo::with_byte_budget(PAIR_BYTES);
        for re in ["fa", "fn"] {
            let (_, lookup) = ask(&memo, g, &rq(g, "", re, ""));
            assert_eq!(lookup, Lookup::Miss, "admitted while there was room");
        }
        assert_eq!(memo.len(), 1, "`fa` evicted");
        let table = memo.table();
        let slots = table.ghost.slots.get();
        let slots = slots.expect("the first eviction allocates the ghost set");
        assert_eq!(slots.len(), 1);
        drop(table);
        memo
    }

    #[test]
    fn a_full_memo_installs_a_key_on_its_second_miss() {
        let g = essembly();
        let memo = full_memo(&g);
        let q = rq(&g, "job = \"biologist\"", "fa^2 fn", "job = \"doctor\"");
        let truth = q.eval_bfs(&g);
        let bytes = memo.cached_bytes();
        // the first miss answers the query alone and installs nothing
        assert_eq!(ask(&memo, &g, &q), (truth.clone(), Lookup::Declined));
        assert_eq!(memo.cached_bytes(), bytes);
        assert!(memo
            .cells
            .lock()
            .unwrap()
            .fresh(&q.from, &q.regex)
            .is_none());
        // the second installs the key's reach set
        assert_eq!(ask(&memo, &g, &q), (truth.clone(), Lookup::Miss));
        // and the third is an exact hit
        let (hit, lookup) = memo.try_answer(&g, &q).expect("installed");
        assert_eq!(lookup, Lookup::Exact);
        assert_eq!(hit, truth);
    }

    #[test]
    fn a_carried_memo_keeps_the_full_state_and_the_seen_set() {
        let g = essembly();
        let memo = full_memo(&g);
        let q = rq(&g, "job = \"biologist\"", "fa^2 fn", "job = \"doctor\"");
        // first seen at version v ...
        assert_eq!(ask(&memo, &g, &q).1, Lookup::Declined);
        let next = memo.carry(&batch(0));
        assert!(
            Arc::ptr_eq(&next.table().ghost, &memo.table().ghost),
            "one ghost set across versions"
        );
        // ... and admitted on its second miss at v + 1
        assert_eq!(ask(&next, &g, &q), (q.eval_bfs(&g), Lookup::Miss));
        assert_eq!(next.try_answer(&g, &q).unwrap().1, Lookup::Exact);
        // the new version is full too: a key it never saw is declined
        let other = rq(&g, "", "sa", "");
        assert_eq!(
            ask(&next, &g, &other),
            (other.eval_bfs(&g), Lookup::Declined)
        );
    }

    #[test]
    fn a_slot_collision_only_forgets_a_key() {
        let g = essembly();
        let ghost = Ghost::default();
        let fa = FRegex::parse("fa", g.alphabet()).unwrap();
        ghost.record(&Predicate::always_true(), &fa, DEFAULT_BYTE_BUDGET);
        assert_eq!(ghost.slots.get().unwrap().len(), 8192);
        // one slot: every key collides with every other
        let memo = full_memo(&g);
        let a = rq(&g, "job = \"biologist\"", "fa^2 fn", "job = \"doctor\"");
        let b = rq(&g, "", "sa", "");
        // `b` is not admitted for sharing `a`'s slot, and it makes the
        // slot forget `a`: a third first miss, then an install
        let declined = Lookup::Declined;
        for (q, lookup) in [
            (&a, declined),
            (&b, declined),
            (&a, declined),
            (&a, Lookup::Miss),
        ] {
            assert_eq!(ask(&memo, &g, q), (q.eval_bfs(&g), lookup));
        }
        assert_eq!(memo.try_answer(&g, &a).unwrap().1, Lookup::Exact);
    }

    /// The queue of the fresh cell of `rq`'s key: `Some(true)` on
    /// probation, `Some(false)` in main.
    fn on_probation(memo: &SemanticMemo, rq: &Rq) -> Option<bool> {
        let mut table = memo.cells.lock().unwrap();
        table.fresh(&rq.from, &rq.regex).map(|cell| cell.probation)
    }

    /// `_^k` from every node: a distinct key for every `k`.
    fn bounded(g: &Graph, k: usize) -> Rq {
        rq(g, "", &format!("_^{k}"), "")
    }

    /// Install first-miss cells of fresh keys until probation has pushed
    /// one out: the memo is full.
    fn fill(memo: &SemanticMemo, g: &Graph, keys: &mut impl Iterator<Item = Rq>) {
        while !full(memo) {
            let k = keys.next().unwrap();
            memo.insert(&k.from, &k.regex, reach(g, &k.from, &k.regex));
        }
    }

    #[test]
    fn a_donor_use_is_a_read() {
        let g = essembly();
        let donor = rq(&g, "", "fa+", "");
        let narrow = rq(&g, "job = \"biologist\"", "fa+", "");
        let unread = rq(&g, "", "fn", "");
        let first = [&donor, &narrow, &unread].map(|k| reach_bytes(&g, k));
        let memo = SemanticMemo::with_byte_budget(10 * first.iter().sum::<usize>());
        for k in [&donor, &unread] {
            memo.insert(&k.from, &k.regex, reach(&g, &k.from, &k.regex));
        }
        // the donor is read only to answer `narrow`
        let (_, lookup) = memo.try_answer(&g, &narrow).expect("derived");
        assert!(matches!(lookup, Lookup::Subsumption { .. }));
        let mut later = (1..).map(|k| bounded(&g, k));
        while on_probation(&memo, &unread).is_some() {
            let k = later.next().unwrap();
            memo.insert(&k.from, &k.regex, reach(&g, &k.from, &k.regex));
        }
        // the cell never read is pushed out; the donor outlives it
        assert_eq!(on_probation(&memo, &donor), Some(false), "promoted");
        assert_eq!(memo.try_answer(&g, &donor).unwrap().1, Lookup::Exact);
    }

    #[test]
    fn first_misses_stay_on_probation_and_evict_no_main_cell() {
        let g = essembly();
        let cell = reach_bytes(&g, &bounded(&g, 1));
        assert!(cell > 0);
        // probation holds a few cells
        let budget = 40 * cell;
        let memo = SemanticMemo::with_byte_budget(budget);
        let mut keys = (1..).map(|k| bounded(&g, k));
        let read: Vec<Rq> = keys.by_ref().take(2).collect();
        for k in &read {
            let _ = ask(&memo, &g, k);
            assert_eq!(memo.try_answer(&g, k).unwrap().1, Lookup::Exact);
            assert_eq!(on_probation(&memo, k), Some(false), "a read promotes");
        }
        fill(&memo, &g, &mut keys);
        let main = memo.queue_bytes().1;
        for k in keys.take(200) {
            memo.insert(&k.from, &k.regex, reach(&g, &k.from, &k.regex));
            assert_eq!(on_probation(&memo, &k), Some(true), "{k:?}");
            let (probation, rest) = memo.queue_bytes();
            assert!(
                probation <= budget / PROBATION_SHARE,
                "{probation} on probation"
            );
            assert_eq!(rest, main, "main keeps its cells");
        }
        for k in &read {
            assert_eq!(memo.try_answer(&g, k).unwrap().1, Lookup::Exact);
        }
        recount(&memo);
    }

    #[test]
    fn a_derived_cell_on_a_full_memo_enters_probation() {
        let g = essembly();
        let broad = rq(&g, "", "fa+", "");
        let narrow = rq(&g, "job = \"biologist\"", "fa+", "");
        let memo = SemanticMemo::with_byte_budget(10 * reach_bytes(&g, &broad));
        let _ = ask(&memo, &g, &broad);
        assert_eq!(memo.try_answer(&g, &broad).unwrap().1, Lookup::Exact);
        fill(&memo, &g, &mut (1..).map(|k| bounded(&g, k)));
        let (derived, lookup) = memo.try_answer(&g, &narrow).expect("derived");
        assert!(matches!(lookup, Lookup::Subsumption { .. }));
        assert_eq!(on_probation(&memo, &narrow), Some(true));
        // one exact hit promotes it
        let (hit, lookup) = memo.try_answer(&g, &narrow).expect("installed");
        assert_eq!(lookup, Lookup::Exact);
        assert!(shared(&derived, &hit));
        assert_eq!(on_probation(&memo, &narrow), Some(false));
        recount(&memo);
    }

    #[test]
    fn a_patch_installs_into_main() {
        let g = essembly();
        let q = rq(&g, "job = \"biologist\"", "fa^2 fn", "");
        let memo = SemanticMemo::new();
        let _ = ask(&memo, &g, &q);
        assert_eq!(on_probation(&memo, &q), Some(true), "a first miss");
        let next = memo.carry(&batch(0));
        assert_eq!(
            next.queue_bytes(),
            (reach_bytes(&g, &q), 0),
            "carried as it was"
        );
        let pairs = next.patch(&q.from, &q.regex, |old, _| Some(old.to_vec()));
        assert!(pairs.is_some(), "inherited");
        assert_eq!(on_probation(&next, &q), Some(false));
        assert_eq!(next.queue_bytes(), (0, reach_bytes(&g, &q)));
    }

    /// The table's charges recomputed from its cells, checked against its
    /// counters; returns the bytes charged.
    fn recount(memo: &SemanticMemo) -> usize {
        let table = memo.cells.lock().unwrap();
        let (mut bytes, mut answer_bytes, mut fresh, mut probation) = (0, 0, 0, 0);
        for cell in table.map.values().flat_map(HashMap::values) {
            bytes += cell.pairs.len() * PAIR_BYTES;
            if cell.probation {
                probation += cell.pairs.len() * PAIR_BYTES;
            }
            let kept = cell
                .answers
                .values()
                .map(|a| a.len() * ANSWER_BYTES_PER_PAIR);
            assert_eq!(
                cell.answer_bytes,
                kept.sum::<usize>(),
                "a cell's answer charge"
            );
            let fresh_cell = cell.version == table.version;
            assert!(
                fresh_cell || cell.answers.is_empty(),
                "only fresh cells keep answers"
            );
            answer_bytes += cell.answer_bytes;
            fresh += usize::from(cell.version == table.version);
        }
        assert_eq!(table.answer_bytes, answer_bytes, "the answers' share");
        assert_eq!(table.probation_bytes, probation, "probation's share");
        assert_eq!(table.bytes, bytes + answer_bytes, "the charged bytes");
        let listed = table.index.values().map(Vec::len).sum::<usize>();
        assert_eq!(listed, fresh, "the candidate index lists fresh cells");
        table.bytes
    }

    /// Keys with containment between them, so that lookups derive from
    /// donors, and two targets per key.
    fn accounting_queries(g: &Graph) -> Vec<Rq> {
        let froms = [
            "",
            "job = \"biologist\"",
            "job = \"biologist\" && sp = \"cloning\"",
        ];
        let res = ["fa", "fa^2 fn", "fa^3 fn", "fa+", "_+", "fn sa"];
        let tos = ["", "job = \"doctor\""];
        let mut queries = Vec::new();
        for from in froms {
            for re in res {
                for to in tos {
                    queries.push(rq(g, from, re, to));
                }
            }
        }
        queries
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// Random asks, patches and carries under budgets from none to a
        /// few cells — so every install path runs (a first or second miss,
        /// a derivation, a patch), the memo fills, first misses are
        /// declined, and a carry can fall between a key's first and
        /// second miss: every answer is the reference evaluation's on the
        /// current graph, a declined miss installs nothing, the charged
        /// bytes (probation's share too) are what the cells hold, they
        /// stay within the budget unless one cell alone exceeds it, and
        /// probation within its cap unless it holds one cell.
        #[test]
        fn accounting_holds_over_random_asks_carries_and_patches(
            budget in proptest::prop_oneof![
                proptest::strategy::Just(0usize),
                0usize..1024,
                proptest::strategy::Just(DEFAULT_BYTE_BUDGET),
            ],
            steps in proptest::collection::vec(
                (0u8..4, 0usize..36, (0u32..7, 0u32..7, 0u8..4)),
                1..24,
            ),
        ) {
            let mut g = essembly();
            let queries = accounting_queries(&g);
            let mut memo = SemanticMemo::with_byte_budget(budget);
            for (op, i, (u, v, c)) in steps {
                let query = &queries[i];
                let before = memo.cached_bytes();
                let (served, lookup) = match op {
                    0..=2 => ask(&memo, &g, query),
                    // a logged batch: flip one edge
                    _ => {
                        let change = (NodeId(u), NodeId(v), Color(c));
                        let mut b = rpq_graph::GraphBuilder::from_graph(&g);
                        if !b.remove_edge(change.0, change.1, change.2) {
                            b.add_edge(change.0, change.1, change.2);
                        }
                        g = b.build();
                        memo = memo.carry(&[change]);
                        recount(&memo);
                        continue;
                    }
                };
                proptest::prop_assert_eq!(&served, &query.eval_bfs(&g), "{:?}", query);
                if lookup == Lookup::Declined {
                    proptest::prop_assert_eq!(
                        memo.cached_bytes(), before, "a declined miss installs nothing"
                    );
                }
                let bytes = recount(&memo);
                let table = memo.cells.lock().unwrap();
                let cells = table.map.values().map(HashMap::len).sum::<usize>();
                proptest::prop_assert!(
                    bytes <= budget || (cells == 1 && table.answer_bytes == 0),
                    "{bytes} bytes in {cells} cells over a budget of {budget}"
                );
                let on_probation = (table.map.values().flat_map(HashMap::values))
                    .filter(|cell| cell.probation)
                    .count();
                proptest::prop_assert!(
                    table.probation_bytes <= budget / PROBATION_SHARE || on_probation == 1,
                    "{} bytes in {on_probation} cells on probation", table.probation_bytes
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The hit-path filter (verdict table, checked sorted-input
        /// constructor) returns what per-pair filtering plus a sort did,
        /// for selective, unselective and trivial target predicates.
        #[test]
        fn rq_targets_matches_per_pair_filter_and_sort(
            raw in proptest::collection::vec((0u32..200, 0u32..200), 0..300),
            to in proptest::prop_oneof![
                proptest::strategy::Just(String::new()),
                (0i64..240).prop_map(|k| format!("len <= {k}")),
                (0i64..240).prop_map(|k| format!("len >= {k} && cat = \"Music\"")),
            ],
        ) {
            let g = rpq_graph::gen::youtube_like(200, 1);
            let query = rq(&g, "", "fc", &to);
            // a memoized reach set: sorted, duplicate-free
            let mut pairs: Vec<(NodeId, NodeId)> =
                raw.into_iter().map(|(x, y)| (NodeId(x), NodeId(y))).collect();
            pairs.sort_unstable();
            pairs.dedup();
            let kept = pairs
                .iter()
                .filter(|&&(_, y)| query.to.matches(g.attrs(y)))
                .copied()
                .collect();
            proptest::prop_assert_eq!(rq_targets(&g, &query.to, &pairs), RqResult::from_pairs(kept));
        }
    }
}
