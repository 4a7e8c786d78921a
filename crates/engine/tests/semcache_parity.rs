//! Property-based parity for the semantic subsumption cache: answers
//! served from the cache — exact canonical hits, containment-filtered
//! subsumption hits, and everything in between — must be bit-identical
//! to uncached evaluation on every backend (matrix, hop, sharded), and
//! must never survive a live-update invalidation round.
//!
//! Each case generates a random class-F regex, a *syntactic variant* of
//! it (runs respelled, language unchanged), a *containing* regex (every
//! atom's interval widened), and a narrowed source predicate — then
//! replays the workload in an order that forces the cache through its
//! population, exact-hit and subsumption paths, comparing every answer
//! against a fresh reference evaluation.

use proptest::prelude::*;
use rpq_core::incremental::Update;
use rpq_core::predicate::Predicate;
use rpq_core::rq::Rq;
use rpq_engine::{EngineConfig, Query, QueryEngine, QueryService, UpdatableEngine};
use rpq_graph::{gen, Color, Graph, NodeId};
use rpq_regex::canon::{equivalent_canonical, runs};
use rpq_regex::{Atom, FRegex, Quant};
use std::sync::{Arc, OnceLock};

const N_NODES: usize = 120;
const N_COLORS: usize = 3;

fn graph() -> &'static Arc<Graph> {
    static G: OnceLock<Arc<Graph>> = OnceLock::new();
    G.get_or_init(|| Arc::new(gen::synthetic(N_NODES, 480, 2, N_COLORS, 11)))
}

/// The three index-backed engines, built once for every case (their
/// memos stay warm across cases — one more cache state to be right in).
fn backends() -> &'static [(&'static str, QueryEngine); 3] {
    static B: OnceLock<[(&str, QueryEngine); 3]> = OnceLock::new();
    B.get_or_init(|| {
        let g = graph();
        let matrix = QueryEngine::with_config(
            Arc::clone(g),
            EngineConfig::builder()
                .workers(1)
                .matrix_node_limit(10_000)
                .build()
                .unwrap(),
        );
        let hop = QueryEngine::with_config(
            Arc::clone(g),
            EngineConfig::builder()
                .workers(1)
                .matrix_node_limit(0)
                .hop_label_budget(64 << 20)
                .build()
                .unwrap(),
        );
        hop.hop().force();
        let sharded = QueryEngine::build_sharded(
            Arc::clone(g),
            EngineConfig::builder()
                .workers(1)
                .shards(3)
                .build()
                .unwrap(),
        )
        .expect("unbudgeted sharded build");
        [("matrix", matrix), ("hop", hop), ("sharded", sharded)]
    })
}

fn arb_quant() -> impl Strategy<Value = Quant> {
    prop_oneof![
        3 => Just(Quant::One),
        2 => (2u32..5).prop_map(Quant::AtMost),
        1 => Just(Quant::Plus),
    ]
}

fn arb_fregex() -> impl Strategy<Value = FRegex> {
    prop::collection::vec(((0..N_COLORS as u8).prop_map(Color), arb_quant()), 1..4)
        .prop_map(|atoms| FRegex::new(atoms.into_iter().map(|(c, q)| Atom::new(c, q)).collect()))
}

/// A syntactic variant with the same language: each maximal same-color
/// run is respelled with its quantifier slack moved to a picked
/// position. `picks` drives the (deterministic) position choices.
fn respell(re: &FRegex, picks: &[usize]) -> FRegex {
    let mut atoms = Vec::new();
    for (i, run) in runs(re).into_iter().enumerate() {
        let n = run.min as usize;
        let pos = picks.get(i).copied().unwrap_or(0) % n;
        let tail = match run.max {
            None => Quant::Plus,
            Some(m) => {
                let slack = (m - run.min as u64) as u32;
                if slack == 0 {
                    Quant::One
                } else {
                    Quant::AtMost(slack + 1)
                }
            }
        };
        for j in 0..n {
            let q = if j == pos { tail } else { Quant::One };
            atoms.push(Atom::new(run.color, q));
        }
    }
    FRegex::new(atoms)
}

/// A regex whose language strictly contains `re`'s: every atom keeps its
/// minimum (one edge) and grows its maximum, so each run's interval
/// nests inside the widened run's.
fn widen(re: &FRegex) -> FRegex {
    FRegex::new(
        re.atoms()
            .iter()
            .map(|a| {
                let q = match a.quant {
                    Quant::One => Quant::AtMost(2),
                    Quant::AtMost(k) => Quant::AtMost(k + 1),
                    Quant::Plus => Quant::Plus,
                };
                Atom::new(a.color, q)
            })
            .collect(),
    )
}

fn rq_query(from: &Predicate, to: &Predicate, re: &FRegex) -> Query {
    Query::Rq(Rq::new(from.clone(), to.clone(), re.clone()))
}

/// Evaluate `q` on `svc` and assert it matches the reference BFS answer
/// on `g`.
fn assert_parity(svc: &dyn QueryService, g: &Graph, q: &Query, ctx: &str) {
    let out = svc.run_query(q);
    match q {
        Query::Rq(rq) => assert_eq!(
            out.as_rq().expect("rq output"),
            &rq.eval_bfs(g),
            "{ctx}: RQ diverged from reference"
        ),
        Query::Pq(pq) => assert_eq!(
            out.as_pq().expect("pq output"),
            &pq.eval_naive(g),
            "{ctx}: PQ diverged from reference"
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The full cache lifecycle — populate from the wide query, answer
    /// the contained regex by subsumption, the respelled variant by the
    /// exact canonical key, and the narrowed predicate by filtering —
    /// yields bit-identical answers on all three backends.
    #[test]
    fn cached_answers_match_uncached_on_every_backend(
        re in arb_fregex(),
        picks in prop::collection::vec(0usize..8, 4..5),
        k in 0i64..10,
    ) {
        let g = graph().as_ref();
        let schema = g.schema();
        let variant = respell(&re, &picks);
        prop_assert!(equivalent_canonical(&re, &variant), "respell must preserve language");
        let wide_re = widen(&re);

        let from = Predicate::parse("a0 <= 7", schema).unwrap();
        let narrow = Predicate::parse(&format!("a0 <= 7 && a1 >= {k}"), schema).unwrap();
        let to = Predicate::parse(&format!("a1 >= {}", k / 2), schema).unwrap();

        let workload = [
            rq_query(&from, &to, &wide_re),  // cold: populates the cache
            rq_query(&from, &to, &re),       // contained regex: subsumption
            rq_query(&from, &to, &variant),  // respelled: exact canonical hit
            rq_query(&narrow, &to, &re),     // narrowed predicate: filtered
            rq_query(&narrow, &to, &variant),// repeat as exact hit
        ];

        for (name, engine) in backends() {
            let before = engine.semantic_stats();
            for q in &workload {
                for pass in ["cold", "warm"] {
                    assert_parity(engine, g, q, &format!("{name}/{pass}"));
                }
            }
            let hits = engine.semantic_stats().hits() - before.hits();
            prop_assert!(hits > 0, "{}: workload never hit the cache", name);
        }
    }

    /// PQ parity: a pattern query and its respelled variant answer
    /// identically (and identically to naive evaluation) on every
    /// backend — minimize-before-plan must be shape-preserving.
    #[test]
    fn pq_variants_answer_identically_on_every_backend(
        re in arb_fregex(),
        picks in prop::collection::vec(0usize..8, 4..5),
        k in 0i64..10,
    ) {
        let g = graph().as_ref();
        let schema = g.schema();
        let variant = respell(&re, &picks);

        let build_pq = |edge_re: &FRegex| {
            let mut p = rpq_core::pq::Pq::new();
            let a = p.add_node(
                "a",
                Predicate::parse(&format!("a0 <= {}", 3 + k / 2), schema).unwrap(),
            );
            let b_node = p.add_node("b", Predicate::parse(&format!("a1 >= {k}"), schema).unwrap());
            p.add_edge(a, b_node, edge_re.clone());
            p
        };
        let pq = build_pq(&re);
        let pq_var = build_pq(&variant);

        for (name, svc) in backends() {
            assert_parity(svc, g, &Query::Pq(pq.clone()), name);
            assert_parity(svc, g, &Query::Pq(pq_var.clone()), name);
            prop_assert_eq!(
                svc.run_query(&Query::Pq(pq.clone())),
                svc.run_query(&Query::Pq(pq_var.clone())),
                "{}: PQ variant diverged from original", name
            );
        }
    }

    /// Live invalidation: cached answers never leak across an
    /// `UpdatableEngine::apply` — each published version's memo starts
    /// cold, and every post-update answer matches a reference
    /// evaluation of the *new* graph.
    #[test]
    fn cache_never_survives_an_update_round(
        re in arb_fregex(),
        picks in prop::collection::vec(0usize..8, 4..5),
        k in 0i64..10,
        edges in prop::collection::vec(
            (0..N_NODES as u32, 0..N_NODES as u32, 0..N_COLORS as u8, any::<bool>()),
            1..6,
        ),
    ) {
        let schema = graph().schema();
        let variant = respell(&re, &picks);
        let from = Predicate::parse("a0 <= 7", schema).unwrap();
        let narrow = Predicate::parse(&format!("a0 <= 7 && a1 >= {k}"), schema).unwrap();
        let to = Predicate::always_true();
        let workload = [
            rq_query(&from, &to, &widen(&re)),
            rq_query(&from, &to, &re),
            rq_query(&from, &to, &variant),
            rq_query(&narrow, &to, &variant),
        ];

        let live = UpdatableEngine::new(graph().as_ref().clone());
        for round in 0..2 {
            let snap = live.snapshot();
            let g = snap.graph();
            for q in &workload {
                // twice: the second run is served from the version's memo
                assert_parity(snap.as_ref(), g, q, &format!("round {round} cold"));
                assert_parity(snap.as_ref(), g, q, &format!("round {round} warm"));
            }
            let updates: Vec<Update> = edges
                .iter()
                .filter(|&&(u, v, _, _)| u != v)
                .map(|&(u, v, c, insert)| {
                    let (u, v, c) = (NodeId(u), NodeId(v), Color(c));
                    if insert ^ (round % 2 == 1) {
                        Update::Insert(u, v, c)
                    } else {
                        Update::Delete(u, v, c)
                    }
                })
                .collect();
            live.apply(&updates).expect("apply");
        }
        // after the last round, the fresh snapshot must agree with a
        // reference evaluation of the mutated graph
        let snap = live.snapshot();
        let g = snap.graph();
        for q in &workload {
            assert_parity(snap.as_ref(), g, q, "post-update");
        }
    }
}
