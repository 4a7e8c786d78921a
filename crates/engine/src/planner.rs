//! Per-query strategy selection: [`Plan`] = [`Algo`] × [`Backend`].
//!
//! The paper describes its evaluators once and parameterises them by the
//! reachability oracle — §4's DM / biBFS / BFS for RQs, §5's `JoinMatch`
//! and `SplitMatch` "using the distance matrix or the cache" for PQs. A
//! plan is that pair, and the two halves are chosen independently:
//!
//! * the **backend** is the engine's call, from its one index alone: the
//!   index built with it — matrix, else hop labels, else the sharded
//!   regime —
//!   where it holds a layer for every color the query probes, else search
//!   (label indices hold no layer for `_`: such queries plan search, and
//!   [`Rationale`] says why).
//!   Matrix point probes are O(1) (its frontier and `Join` steps sweep
//!   the graph) but cost O(|Σ|·|V|²) memory, so the matrix exists only
//!   under the configured node limit; hop labels cost memory
//!   proportional to label size; the sharded regime is the graph plus an
//!   edge-cut partition and sweeps the graph for every question, as
//!   search does. The search backend has no index: the
//!   graph itself answers the same probes by breadth-first sweeps
//!   ([`GraphProbe`](rpq_index::GraphProbe)), which replaced §4's pairwise
//!   distance cache;
//! * the **algorithm** is the planner's, from query shape on that
//!   backend. RQs always probe, one bounded scan per level node and atom
//!   (§4 "DM" over any [`DistProbe`](rpq_index::DistProbe)); on search
//!   that plan keeps its frozen name `BFS+memo` — per-atom bounded BFS
//!   over the graph, its reach set memoized. PQs take `SplitMatch` only
//!   for cyclic patterns past the measured [`SPLIT_CROSSOVER`] **on the
//!   matrix**, and `JoinMatch` everywhere else; on search the frozen names
//!   `JoinMatch/cache` / `SplitMatch/cache` mean "no index: over the
//!   graph".
//!
//! [`Plan::ALL`] is the table of servable combinations. Some rows are
//! servable — the differential oracle and the benches drive them
//! directly — but never planned: `biBFS`, the paper's bi-directional
//! baseline, which every probe-based plan beats, and `SplitMatch` off the
//! matrix, where `JoinMatch` measured ahead on every shape.

use rpq_core::pq::Pq;
use rpq_regex::FRegex;
use std::fmt;

/// The evaluation algorithm half of a [`Plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algo {
    /// RQ by per-atom distance probes (`Rq::eval_with_dist`, §4 "DM"),
    /// its reach set memoized per `(source predicate, regex)` — over the
    /// matrix, over label indices beyond the node limit, or on the search
    /// backend over the graph itself (bounded BFS through `GraphProbe`,
    /// named `BFS+memo`).
    RqDm,
    /// RQ by bi-directional product search (`Rq::eval_bibfs`, §4 "biBFS"):
    /// the paper's baseline, servable when forced but never planned.
    RqBiBfs,
    /// PQ by `JoinMatch` (normalized, §5.1).
    Join,
    /// PQ by `SplitMatch` (§5.2).
    Split,
    /// PQ answered from a registered standing query's incrementally
    /// maintained match sets — no evaluation at all (§7, live serving).
    Standing,
}

/// The reachability-oracle half of a [`Plan`], best first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The per-color [`DistanceMatrix`](rpq_graph::DistanceMatrix).
    Matrix,
    /// Pruned 2-hop labels (`rpq_index::HopLabels`).
    Hop,
    /// The graph plus an edge-cut partition, answering every question by
    /// a graph sweep (`rpq_index::ShardedLabels`).
    Sharded,
    /// No index: the graph itself answers the probes
    /// ([`GraphProbe`](rpq_index::GraphProbe), breadth-first sweeps) — also
    /// what maintains standing match sets.
    Search,
}

/// The evaluation strategy chosen for one query: an [`Algo`] over a
/// [`Backend`]. Only the combinations in [`Plan::ALL`] exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Plan {
    pub(crate) algo: Algo,
    pub(crate) backend: Backend,
}

impl Plan {
    /// Every servable combination, in report order.
    pub const ALL: [Plan; 14] = {
        use Algo::*;
        use Backend::*;
        const fn p(algo: Algo, backend: Backend) -> Plan {
            Plan { algo, backend }
        }
        [
            p(RqDm, Matrix),
            p(RqDm, Hop),
            p(RqBiBfs, Search),
            p(RqDm, Search),
            p(Join, Matrix),
            p(Join, Hop),
            p(Join, Search),
            p(Split, Matrix),
            p(Split, Hop),
            p(Split, Search),
            p(RqDm, Sharded),
            p(Join, Sharded),
            p(Split, Sharded),
            p(Standing, Search),
        ]
    };

    /// The algorithm half.
    pub fn algo(self) -> Algo {
        self.algo
    }

    /// The backend half.
    pub fn backend(self) -> Backend {
        self.backend
    }

    /// Short label for reports and the `/metrics` `plan=` label.
    pub fn name(self) -> &'static str {
        use Backend::*;
        match (self.algo, self.backend) {
            (Algo::RqDm, Matrix) => "DM",
            (Algo::RqDm, Hop) => "hop",
            (Algo::RqDm, Sharded) => "sharded",
            (Algo::RqDm, Search) => "BFS+memo",
            (Algo::RqBiBfs, _) => "biBFS",
            (Algo::Join, Matrix) => "JoinMatch/DM",
            (Algo::Join, Hop) => "JoinMatch/hop",
            (Algo::Join, Sharded) => "JoinMatch/sharded",
            (Algo::Join, Search) => "JoinMatch/cache",
            (Algo::Split, Matrix) => "SplitMatch/DM",
            (Algo::Split, Hop) => "SplitMatch/hop",
            (Algo::Split, Sharded) => "SplitMatch/sharded",
            (Algo::Split, Search) => "SplitMatch/cache",
            (Algo::Standing, _) => "standing",
        }
    }
}

/// Why a query planned on [`Backend::Search`] found no index to probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Uncovered {
    /// The engine holds no index: none allowed, or over budget.
    NoIndex,
    /// The query probes `_`: label indices hold concrete colors only.
    Wildcard,
}

/// Why the planner chose a plan: the signal that won and the values it
/// saw at decision time. A small `Copy` value — the serving path drops it
/// unformatted; the explain surface renders it through [`fmt::Display`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rationale {
    /// An RQ decision: the plan, the atoms in the regex, and — on the
    /// search backend — why no index covers the query.
    Rq(Plan, usize, Uncovered),
    /// A PQ decision: the plan, the normalized pattern size (see
    /// [`SPLIT_CROSSOVER`]), whether the query graph is cyclic, and — on
    /// the search backend — why no index covers the query.
    Pq(Plan, usize, bool, Uncovered),
    /// The pattern equals a registered standing query.
    Standing,
    /// The caller picked the plan (test/bench surface).
    Forced(Plan),
}

impl Rationale {
    /// This decision, with the engine's reason no index covers the query
    /// (the planner itself sees only the backend, and says
    /// [`Uncovered::NoIndex`]).
    pub fn uncovered(self, why: Uncovered) -> Rationale {
        match self {
            Rationale::Rq(plan, atoms, _) => Rationale::Rq(plan, atoms, why),
            Rationale::Pq(plan, size, cyclic, _) => Rationale::Pq(plan, size, cyclic, why),
            other => other,
        }
    }
}

impl fmt::Display for Rationale {
    /// Composed like the plan itself: the backend clause (which index
    /// won, shared by RQs and PQs), then the shape clause behind the
    /// algorithm.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (plan, uncovered) = match *self {
            Rationale::Rq(plan, _, why) | Rationale::Pq(plan, .., why) => (plan, why),
            Rationale::Standing => {
                return f.write_str(
                    "pattern equals a registered standing query — answered from its \
                     incrementally maintained match sets, no evaluation",
                )
            }
            Rationale::Forced(plan) => {
                return write!(
                    f,
                    "plan {} forced by caller (test/bench surface)",
                    plan.name()
                )
            }
        };
        f.write_str(match plan.backend {
            Backend::Matrix => {
                "distance matrix available: O(1) point probes and row scans, \
                 graph sweeps answer frontier and Join steps"
            }
            Backend::Hop => "no matrix; hop labels cover every probed color",
            Backend::Sharded => {
                "no matrix or single index; the graph is partitioned into shards, \
                 graph sweeps answer every probe"
            }
            Backend::Search => match uncovered {
                Uncovered::NoIndex => "no usable index — the graph answers",
                Uncovered::Wildcard => {
                    "label indices hold concrete colours — `_` is answered by the graph"
                }
            },
        })?;
        match (*self, plan.algo) {
            (Rationale::Rq(_, atoms, _), _) if plan.backend == Backend::Search => write!(
                f,
                "; {atoms}-atom regex — one bounded BFS per level node and atom, reach set memoized"
            ),
            (Rationale::Pq(_, size, cyclic, _), algo) => write!(
                f,
                "; {} pattern, normalized size {size} vs crossover {SPLIT_CROSSOVER} — {}",
                if cyclic { "cyclic" } else { "acyclic" },
                match (algo, plan.backend) {
                    (Algo::Split, _) => "SplitMatch bounds per-round bookkeeping by blocks",
                    (_, Backend::Matrix) => "JoinMatch's reverse-topological order wins",
                    _ => "JoinMatch measured ahead of split off the matrix at every size",
                }
            ),
            _ => Ok(()),
        }
    }
}

/// Choose the algorithm for one RQ over `backend` — the best index usable
/// for this regex, per the engine. Every backend probes with the one RQ
/// algorithm: `DM` over an index, named `BFS+memo` over the graph.
pub fn plan_rq(regex: &FRegex, backend: Backend) -> (Plan, Rationale) {
    let plan = Plan {
        algo: Algo::RqDm,
        backend,
    };
    let atoms = regex.atoms().len();
    (plan, Rationale::Rq(plan, atoms, Uncovered::NoIndex))
}

/// The normalized pattern size (`|Vp| + |Ep|` after the dummy-node
/// rewrite — what the refinement loop actually iterates over) at and
/// above which a **cyclic** pattern on the **matrix** backend plans
/// `SplitMatch` instead of `JoinMatch`.
///
/// Measured, not guessed — `cargo bench --bench pq` sweeps pattern size ×
/// shape on both index backends and prints the per-shape join/split
/// ratio, each time the median of 9 alternated runs. The measurement
/// (1.5k-node youtube-like graph, ring vs chain patterns, two runs,
/// two-core box): `JoinMatch` wins on every backend and shape, by
/// join/split 0.64–0.69 on matrix rings, 0.74–0.78 on hop rings and
/// 0.52–0.87 on chains; no row moved by more than 0.10 between the two
/// runs (means of 3 runs moved by up to 0.2, and a chain row read 1.14
/// once). The
/// margin is only the partition now: `SplitMatch` refines through
/// `JoinMatch`'s own loop, so both run the same `Join` steps and the
/// same probes, and a split costs O(|rmv|). While `SplitMatch` ran its
/// own worklist and re-expanded its candidate lists from their blocks
/// every step, the ratios were 0.23–0.40 on matrix rings, 0.41–0.45 on
/// hop rings and down to 0.11 on long chains; and while the matrix
/// probed a `Join` step pair by pair, the two ran at parity (0.94–1.02).
///
/// The rule still sends cyclic patterns past this size to `SplitMatch`
/// on the matrix, whose monotonically refining partition bounds
/// per-round bookkeeping by blocks rather than nodes (the §5.2 regime):
/// the ledger's `matrix_pq` workload requires `SplitMatch/DM` among its
/// plans, so dropping it waits for that workload to change (ROADMAP).
/// Every other backend — hop, sharded, and the graph — keeps `JoinMatch`
/// for every shape.
pub const SPLIT_CROSSOVER: usize = 16;

/// The shape signals [`plan_pq`] needs from a pattern: its normalized size
/// (nodes + edges counting every regex atom, i.e. post-dummy-rewrite) and
/// whether its query graph is cyclic.
fn pattern_shape(pq: &Pq) -> (usize, bool) {
    let atoms: usize = pq.edges().iter().map(|e| e.regex.len()).sum();
    // the dummy rewrite adds one node and one edge per extra atom
    let size = pq.size() + 2 * atoms.saturating_sub(pq.edge_count());
    (size, pq.has_cycle())
}

/// Choose the algorithm for one PQ over `backend` — the best index usable
/// for every edge regex of the pattern, per the engine. Cyclic patterns
/// of normalized size ≥ the measured [`SPLIT_CROSSOVER`] take `SplitMatch`
/// (§5.2) on the matrix; every other combination measured `JoinMatch`
/// ahead.
pub fn plan_pq(pq: &Pq, backend: Backend) -> (Plan, Rationale) {
    let (size, cyclic) = pattern_shape(pq);
    let algo = if backend == Backend::Matrix && cyclic && size >= SPLIT_CROSSOVER {
        Algo::Split
    } else {
        Algo::Join
    };
    let plan = Plan { algo, backend };
    (plan, Rationale::Pq(plan, size, cyclic, Uncovered::NoIndex))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_core::predicate::Predicate;
    use rpq_graph::{Color, WILDCARD};
    use rpq_regex::{Atom, Quant};

    const BACKENDS: [Backend; 4] = [
        Backend::Matrix,
        Backend::Hop,
        Backend::Sharded,
        Backend::Search,
    ];

    fn re(n: usize) -> FRegex {
        FRegex::new(
            (0..n)
                .map(|i| Atom::new(if i % 2 == 0 { Color(0) } else { WILDCARD }, Quant::One))
                .collect(),
        )
    }

    /// Acyclic chain of `edges` single-atom edges.
    fn chain(edges: usize) -> Pq {
        let mut pq = Pq::new();
        let mut prev = pq.add_node("n0", Predicate::always_true());
        for i in 0..edges {
            let next = pq.add_node(&format!("n{}", i + 1), Predicate::always_true());
            pq.add_edge(prev, next, re(1));
            prev = next;
        }
        pq
    }

    /// Directed ring of `edges` single-atom edges (cyclic for `edges ≥ 1`).
    fn ring(edges: usize) -> Pq {
        let mut pq = Pq::new();
        let nodes: Vec<usize> = (0..edges)
            .map(|i| pq.add_node(&format!("n{i}"), Predicate::always_true()))
            .collect();
        for i in 0..edges {
            pq.add_edge(nodes[i], nodes[(i + 1) % edges], re(1));
        }
        pq
    }

    fn rq(atoms: usize, backend: Backend) -> Plan {
        plan_rq(&re(atoms), backend).0
    }

    fn pq(pq: &Pq, backend: Backend) -> Plan {
        plan_pq(pq, backend).0
    }

    #[test]
    fn plan_names_are_golden() {
        // the frozen surface: `/metrics` labels, the ledger's plan shares
        // and every report key on these strings, in this order
        let names = Plan::ALL.map(Plan::name);
        assert_eq!(
            names,
            [
                "DM",
                "hop",
                "biBFS",
                "BFS+memo",
                "JoinMatch/DM",
                "JoinMatch/hop",
                "JoinMatch/cache",
                "SplitMatch/DM",
                "SplitMatch/hop",
                "SplitMatch/cache",
                "sharded",
                "JoinMatch/sharded",
                "SplitMatch/sharded",
                "standing",
            ]
        );
        for (i, a) in names.iter().enumerate() {
            assert!(!names[..i].contains(a), "two plans share the name {a}");
        }
    }

    #[test]
    fn the_planner_only_returns_servable_plans() {
        for backend in BACKENDS {
            for atoms in 1..4 {
                assert!(Plan::ALL.contains(&rq(atoms, backend)));
            }
            for pat in [chain(2), ring(2), ring(SPLIT_CROSSOVER)] {
                let (plan, why) = plan_pq(&pat, backend);
                assert!(Plan::ALL.contains(&plan));
                assert_eq!(plan.backend(), backend, "the backend is the engine's call");
                assert!(!why.to_string().is_empty());
            }
        }
        let standing = Plan {
            algo: Algo::Standing,
            backend: Backend::Search,
        };
        assert_eq!(standing.name(), "standing");
        assert!(Plan::ALL.contains(&standing));
    }

    #[test]
    fn every_index_backend_probes_whatever_the_batch_shape() {
        // matrix, hop and sharded probes: DM, whatever the regex
        for backend in [Backend::Matrix, Backend::Hop, Backend::Sharded] {
            for atoms in 1..4 {
                let plan = rq(atoms, backend);
                assert_eq!((plan.algo(), plan.backend()), (Algo::RqDm, backend));
            }
        }
        // the sharded clause says the graph answers
        assert_eq!(
            plan_rq(&re(2), Backend::Sharded).1.to_string(),
            "no matrix or single index; the graph is partitioned into shards, \
             graph sweeps answer every probe"
        );
    }

    #[test]
    fn search_rqs_sweep_the_graph_and_bibfs_is_never_planned() {
        // search probes the graph with the same algorithm, under its
        // frozen name `BFS+memo`, whatever the regex shape; biBFS is
        // servable when forced, never planned
        for atoms in 1..4 {
            let plan = rq(atoms, Backend::Search);
            assert_eq!((plan.algo(), plan.backend()), (Algo::RqDm, Backend::Search));
        }
        for backend in BACKENDS {
            assert_ne!(rq(2, backend).algo(), Algo::RqBiBfs);
        }
        assert_eq!(rq(2, Backend::Search).name(), "BFS+memo");
        assert_eq!(pq(&chain(1), Backend::Search).name(), "JoinMatch/cache");
        let why = plan_rq(&re(2), Backend::Search).1.to_string();
        assert!(
            why.contains("2-atom regex") && why.contains("memoized"),
            "{why}"
        );
    }

    #[test]
    fn the_search_clause_names_the_graph_for_wildcards() {
        let clause = |why: Uncovered| {
            let rq = plan_rq(&re(2), Backend::Search).1.uncovered(why);
            let pq = plan_pq(&chain(1), Backend::Search).1.uncovered(why);
            let head = |r: Rationale| r.to_string().split(';').next().unwrap().to_owned();
            assert_eq!(head(rq), head(pq), "one backend clause for RQs and PQs");
            head(rq)
        };
        assert_eq!(
            clause(Uncovered::NoIndex),
            "no usable index — the graph answers"
        );
        assert_eq!(
            clause(Uncovered::Wildcard),
            "label indices hold concrete colours — `_` is answered by the graph"
        );
        // an index-backed decision has nothing uncovered to report
        let hop = plan_rq(&re(2), Backend::Hop).1;
        assert_eq!(
            hop.uncovered(Uncovered::Wildcard).to_string(),
            hop.to_string()
        );
    }

    #[test]
    fn split_takes_large_cyclic_patterns_on_the_matrix_only() {
        // a big ring is cyclic and past the crossover: split on the
        // matrix backend, where the two algorithms measured at parity
        let big_ring = ring(SPLIT_CROSSOVER); // normalized size = 2·edges
        assert!(big_ring.has_cycle());
        assert_eq!(pq(&big_ring, Backend::Matrix).algo(), Algo::Split);
        // hop, sharded and the graph measured JoinMatch ahead on every
        // cyclic size — the planner never picks their split variants
        for backend in [Backend::Hop, Backend::Sharded, Backend::Search] {
            assert_eq!(pq(&big_ring, backend).algo(), Algo::Join, "{backend:?}");
        }
        // a chain of the same size is acyclic: join keeps it
        let big_chain = chain(SPLIT_CROSSOVER);
        for backend in BACKENDS {
            assert_eq!(pq(&big_chain, backend).algo(), Algo::Join, "{backend:?}");
        }
        // a tiny cycle stays under the crossover: join again
        let small_ring = ring(2);
        assert!(small_ring.has_cycle());
        assert_eq!(pq(&small_ring, Backend::Matrix).algo(), Algo::Join);
        // multi-atom regexes count toward normalized size: a ring whose
        // edges each expand to several atoms crosses over sooner
        let mut fat_ring = ring(2);
        let a = fat_ring.add_node("a", Predicate::always_true());
        fat_ring.add_edge(0, a, re(SPLIT_CROSSOVER));
        assert_eq!(pq(&fat_ring, Backend::Matrix).algo(), Algo::Split);
    }
}
