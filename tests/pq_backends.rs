//! Parity suite for the unified reachability-backend layer: both PQ
//! algorithms (`JoinMatch`, `SplitMatch`) over all three backends — dense
//! matrix, pruned 2-hop labels, LRU-cached product search — must answer
//! bit-identically to the `eval_naive` reference fixpoint on random graphs
//! and patterns; and an `UpdatableEngine` stream test drives the new
//! PQ-hop serving path (`JoinMatch`/`SplitMatch` over `Backend::Hop`) across 12
//! published versions.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq::prelude::*;
use std::sync::Arc;

/// Random pattern over `g`'s schema/alphabet: 2–5 nodes, a mix of
/// always-true and attribute predicates, edges drawn from a regex pool
/// that covers single atoms, chains, bounded powers, `+` and wildcards.
fn random_pq(g: &Graph, rng: &mut StdRng) -> Pq {
    let mut pq = Pq::new();
    let n_nodes = rng.gen_range(2..5usize);
    for i in 0..n_nodes {
        let pred = if rng.gen_bool(0.5) {
            Predicate::parse(&format!("a0 <= {}", rng.gen_range(3..10)), g.schema()).unwrap()
        } else {
            Predicate::always_true()
        };
        pq.add_node(&format!("u{i}"), pred);
    }
    let pool = ["c0", "c1^2", "c0+", "c0^2 c1", "_^3", "_+", "c1 _"];
    for _ in 0..rng.gen_range(1..=n_nodes + 2) {
        let u = rng.gen_range(0..n_nodes);
        let v = rng.gen_range(0..n_nodes);
        let r = pool[rng.gen_range(0..pool.len())];
        pq.add_edge(u, v, FRegex::parse(r, g.alphabet()).unwrap());
    }
    pq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Every (algorithm × backend) combination equals `eval_naive`.
    #[test]
    fn join_and_split_agree_with_naive_on_all_backends(
        n in 10usize..60,
        density in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let g = rpq::graph::gen::synthetic(n, n * density, 2, 3, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let pq = random_pq(&g, &mut rng);
        let oracle = pq.eval_naive(&g);

        let m = DistanceMatrix::build(&g);
        let labels = HopLabels::build(&g);

        prop_assert_eq!(&JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m)), &oracle, "join/matrix");
        prop_assert_eq!(&JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&labels)), &oracle, "join/hop");
        prop_assert_eq!(&JoinMatch::eval(&pq, &g, &mut CachedReach::new(4096)), &oracle, "join/cache");
        prop_assert_eq!(&SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&m)), &oracle, "split/matrix");
        prop_assert_eq!(&SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&labels)), &oracle, "split/hop");
        prop_assert_eq!(&SplitMatch::eval(&pq, &g, &mut CachedReach::new(4096)), &oracle, "split/cache");
        // multi-worker refinement must not change answers
        prop_assert_eq!(
            &JoinMatch::eval(&pq, &g, &mut ProbeReach::with_workers(&labels, 4)),
            &oracle,
            "join/hop, 4 workers"
        );
    }
}

/// The engine serves every PQ plan it can emit with identical answers:
/// matrix plans under the node limit, hop plans over it, cached plans
/// while no index is usable.
#[test]
fn engine_pq_plans_cover_all_backends_identically() {
    let g = Arc::new(rpq::graph::gen::synthetic(300, 1200, 2, 3, 77));
    let mut rng = StdRng::seed_from_u64(123);
    let pqs: Vec<Pq> = (0..6).map(|_| random_pq(&g, &mut rng)).collect();
    let queries: Vec<Query> = pqs.iter().cloned().map(Query::Pq).collect();

    let matrix_engine = QueryEngine::with_config(
        Arc::clone(&g),
        EngineConfig::builder()
            .matrix_node_limit(usize::MAX)
            .build()
            .unwrap(),
    );
    let hop_engine = QueryEngine::with_config(
        Arc::clone(&g),
        EngineConfig::builder()
            .matrix_node_limit(0)
            .build()
            .unwrap(),
    );
    hop_engine.hop().force().expect("fits default budget");
    let cached_engine = QueryEngine::with_config(
        Arc::clone(&g),
        EngineConfig::builder()
            .matrix_node_limit(0)
            .hop_label_budget(0)
            .build()
            .unwrap(),
    );

    let out_m = matrix_engine.run_batch(&queries);
    let out_h = hop_engine.run_batch(&queries);
    let out_c = cached_engine.run_batch(&queries);
    let mut seen = std::collections::HashSet::new();
    for (i, pq) in pqs.iter().enumerate() {
        let naive = pq.eval_naive(&g);
        for (name, batch) in [("matrix", &out_m), ("hop", &out_h), ("cached", &out_c)] {
            assert_eq!(
                batch.items()[i].output.as_pq().unwrap(),
                &naive,
                "{name} engine, pq {i}"
            );
            seen.insert(batch.items()[i].plan);
        }
    }
    for plan in &seen {
        assert!(
            matches!(plan.algo(), Algo::Join | Algo::Split) && plan.backend() != Backend::Sharded,
            "unexpected plan {plan:?}"
        );
    }
    assert!(
        seen.iter().any(|p| p.backend() == Backend::Hop),
        "hop engine never planned a hop backend: {seen:?}"
    );
}

/// Acceptance: a 12-batch update stream served entirely in the over-limit
/// regime. Every published version answers PQ batches identically to the
/// reference fixpoint on its own graph — through the search fallback while
/// that version's index build has not landed, and through the PQ-hop plans
/// once it has. A registered standing query keeps being served from its
/// maintained sets the whole time.
#[test]
fn pq_hop_path_tracks_update_stream() {
    const NODES: usize = 250;
    let mut rng = StdRng::seed_from_u64(4242);
    let g0 = rpq::graph::gen::synthetic(NODES, 4 * NODES, 2, 3, 5);
    let engine = UpdatableEngine::with_config(
        g0,
        EngineConfig::builder()
            .matrix_node_limit(0)
            .workers(2)
            .build()
            .unwrap(),
    );

    // a standing cyclic pattern, maintained incrementally across the stream
    let snap0 = engine.snapshot();
    let standing = {
        let g = snap0.graph();
        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::parse("a0 <= 6", g.schema()).unwrap());
        let b = pq.add_node("b", Predicate::always_true());
        pq.add_edge(a, b, FRegex::parse("c0 c1", g.alphabet()).unwrap());
        pq.add_edge(b, a, FRegex::parse("_+", g.alphabet()).unwrap());
        pq
    };
    let sid = engine.register_pq(standing.clone());

    for round in 0..12 {
        let updates: Vec<Update> = (0..25)
            .filter_map(|_| {
                let x = NodeId(rng.gen_range(0..NODES as u32));
                let y = NodeId(rng.gen_range(0..NODES as u32));
                if x == y {
                    return None;
                }
                let c = Color(rng.gen_range(0..3));
                Some(if rng.gen_bool(0.5) {
                    Update::Insert(x, y, c)
                } else {
                    Update::Delete(x, y, c)
                })
            })
            .collect();
        let snap = engine.apply(&updates).unwrap().snapshot;
        let g = snap.graph().clone();
        let mut round_rng = StdRng::seed_from_u64(round);
        let pqs: Vec<Pq> = (0..3).map(|_| random_pq(&g, &mut round_rng)).collect();
        let queries: Vec<Query> = pqs.iter().cloned().map(Query::Pq).collect();

        // before this version's index lands: cached fallback, same answers
        let stale = snap.run_batch(&queries);
        for (item, pq) in stale.items().iter().zip(&pqs) {
            assert_eq!(
                item.output.as_pq().unwrap(),
                &pq.eval_naive(&g),
                "round {round} stale"
            );
        }

        // force the per-version build: every PQ must plan a hop backend
        snap.engine().hop().force().expect("fits budget");
        let indexed = snap.run_batch(&queries);
        for (item, pq) in indexed.items().iter().zip(&pqs) {
            assert!(
                item.plan.backend() == Backend::Hop,
                "round {round}: expected a hop plan, got {:?}",
                item.plan
            );
            assert_eq!(
                item.output.as_pq().unwrap(),
                &pq.eval_naive(&g),
                "round {round} through the hop backend"
            );
        }

        // the standing query is still served from maintained sets and
        // equals full re-evaluation on the current graph
        assert_eq!(
            snap.plan_query(&Query::Pq(standing.clone())).algo(),
            Algo::Standing,
            "round {round}"
        );
        let served = snap.run_query(&Query::Pq(standing.clone()));
        assert_eq!(
            served.as_pq().unwrap(),
            &standing.eval_naive(&g),
            "round {round} standing"
        );
        assert_eq!(
            served.as_pq().unwrap(),
            &*snap.standing_result(sid).unwrap(),
            "round {round} standing handle"
        );
    }
}
