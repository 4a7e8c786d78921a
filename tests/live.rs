//! Integration tests for the live-update serving layer: snapshot
//! isolation for batches issued against pre-update versions, consistency
//! of snapshots read concurrently with writers, standing queries
//! registered mid-stream, and the cost of standing maintenance. (Standing
//! answers across an update stream are the differential oracle's,
//! `tests/oracle.rs`.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq::prelude::*;
use rpq_bench::querygen::{generate_pq, QueryParams};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NODES: usize = 60;
const COLORS: u8 = 3;

fn test_graph(seed: u64) -> Graph {
    rpq::graph::gen::synthetic(NODES, 200, 2, COLORS as usize, seed)
}

fn standing_pq(g: &Graph, bound: i64) -> Pq {
    let mut pq = Pq::new();
    let a = pq.add_node(
        "a",
        Predicate::parse(&format!("a0 <= {bound}"), g.schema()).unwrap(),
    );
    let b = pq.add_node("b", Predicate::always_true());
    pq.add_edge(a, b, FRegex::parse("c0^2 c1", g.alphabet()).unwrap());
    pq.add_edge(b, a, FRegex::parse("_+", g.alphabet()).unwrap());
    pq
}

fn random_updates(rng: &mut StdRng, count: usize) -> Vec<Update> {
    (0..count)
        .filter_map(|_| {
            let x = NodeId(rng.gen_range(0..NODES as u32));
            let y = NodeId(rng.gen_range(0..NODES as u32));
            if x == y {
                return None;
            }
            let c = Color(rng.gen_range(0..COLORS));
            Some(if rng.gen_bool(0.5) {
                Update::Insert(x, y, c)
            } else {
                Update::Delete(x, y, c)
            })
        })
        .collect()
}

fn full_eval(pq: &Pq, g: &Graph) -> PqResult {
    JoinMatch::eval(pq, g, &mut ProbeReach::new(&GraphProbe::new(g)))
}

/// Acceptance: an RQ/PQ batch issued against a snapshot taken *before* an
/// update returns the pre-update answers, while the post-update snapshot
/// returns the new ones.
#[test]
fn snapshot_isolation_for_batches() {
    let mut rng = StdRng::seed_from_u64(77);
    let g = test_graph(11);
    let engine = UpdatableEngine::new(g);

    let graph0 = engine.snapshot().graph().clone();
    let rq = Rq::new(
        Predicate::parse("a0 <= 5", graph0.schema()).unwrap(),
        Predicate::always_true(),
        FRegex::parse("c0 c1", graph0.alphabet()).unwrap(),
    );
    let pq = standing_pq(&graph0, 7);
    let queries = vec![Query::Rq(rq.clone()), Query::Pq(pq.clone())];

    for step in 0..10 {
        let before = engine.snapshot();
        let expect_rq_before = rq.eval_bfs(before.graph());
        let expect_pq_before = full_eval(&pq, before.graph());

        let report = engine.apply(&random_updates(&mut rng, 4)).unwrap();

        // the pre-update snapshot answers from the pre-update graph…
        let old = before.run_batch(&queries);
        assert_eq!(
            old.items()[0].output.as_rq().unwrap(),
            &expect_rq_before,
            "step {step}: stale RQ"
        );
        assert_eq!(
            old.items()[1].output.as_pq().unwrap(),
            &expect_pq_before,
            "step {step}: stale PQ"
        );
        // …and the post-update snapshot from the new one
        let new = report.snapshot.run_batch(&queries);
        assert_eq!(
            new.items()[0].output.as_rq().unwrap(),
            &rq.eval_bfs(report.snapshot.graph()),
            "step {step}: fresh RQ"
        );
        assert_eq!(
            new.items()[1].output.as_pq().unwrap(),
            &full_eval(&pq, report.snapshot.graph()),
            "step {step}: fresh PQ"
        );
    }
}

/// Distance-audit companion (ISSUE satellite): batches racing a writer's
/// `apply` must observe a *consistent* snapshot — every answer equals a
/// from-scratch evaluation over the graph version the reader pinned
/// (i.e. entirely the old answer or entirely the new one, never a torn
/// mix of both).
#[test]
fn concurrent_readers_see_consistent_snapshots() {
    let engine = Arc::new(UpdatableEngine::new(test_graph(23)));
    let graph0 = engine.snapshot().graph().clone();
    let rq = Rq::new(
        Predicate::parse("a0 <= 6", graph0.schema()).unwrap(),
        Predicate::always_true(),
        FRegex::parse("c0 c1", graph0.alphabet()).unwrap(),
    );

    std::thread::scope(|s| {
        // writer: a stream of update batches
        let writer_engine = Arc::clone(&engine);
        let writer = s.spawn(move || {
            let mut rng = StdRng::seed_from_u64(4242);
            for _ in 0..25 {
                writer_engine.apply(&random_updates(&mut rng, 3)).unwrap();
            }
        });

        // readers: pin a snapshot, evaluate, and verify the answer against
        // that same pinned graph version
        let mut readers = Vec::new();
        for r in 0..2 {
            let engine = Arc::clone(&engine);
            let rq = rq.clone();
            readers.push(s.spawn(move || {
                for i in 0..30 {
                    let snap = engine.snapshot();
                    let batch = snap.run_batch(&[Query::Rq(rq.clone())]);
                    let expect = rq.eval_bfs(snap.graph());
                    assert_eq!(
                        batch.items()[0].output.as_rq().unwrap(),
                        &expect,
                        "reader {r} read {i} (version {}) saw a torn snapshot",
                        snap.version()
                    );
                }
            }));
        }
        writer.join().unwrap();
        for h in readers {
            h.join().unwrap();
        }
    });
}

/// Standing queries registered mid-stream pick up the current version and
/// stay maintained from there on.
#[test]
fn late_registration_joins_the_stream() {
    let mut rng = StdRng::seed_from_u64(9);
    let engine = UpdatableEngine::new(test_graph(31));
    engine.apply(&random_updates(&mut rng, 5)).unwrap();

    let pq = standing_pq(engine.snapshot().graph(), 8);
    let id = engine.register_pq(pq.clone());
    for _ in 0..4 {
        let report = engine.apply(&random_updates(&mut rng, 3)).unwrap();
        let maintained = report.snapshot.standing_result(id).unwrap();
        assert_eq!(&*maintained, &full_eval(&pq, report.snapshot.graph()));
    }
}

/// Standing maintenance stays cheap: `on_update` re-runs the refinement
/// fixpoint over the graph probe, one backward sweep per `Join` step.
/// Two-conjunct patterns on a 4000-node clustered graph take
/// milliseconds per 4-edge batch (2–7 ms on a two-core machine); probing
/// pairwise took ≈ 25 s. The bound is generous, so only a regression of
/// that order — back to pairwise probing — fails it.
#[test]
fn standing_maintenance_takes_under_a_second_per_batch() {
    let g = rpq::graph::gen::clustered(4000, 12_000, 4, 2, 3, 3, 1);
    let params = QueryParams {
        nodes: 3,
        edges: 3,
        preds: 2,
        bound: 3,
        colors: 2,
        redundant: false,
    };
    let block = g.node_count() / 4;
    let pq = generate_pq(&g, &params, 1);
    let mut dynamic = DynamicGraph::new(g);
    let mut matcher = IncrementalMatcher::new(pq.clone(), &dynamic);
    let mut rng = StdRng::seed_from_u64(5);
    for batch in 0..6 {
        // two inserts and two deletes of existing edges, in one cluster
        let cluster = rng.gen_range(0..4);
        let inside = |v: NodeId| v.index() / block == cluster;
        let edges: Vec<_> = (dynamic.graph().edges())
            .filter(|&(u, v, _)| inside(u) && inside(v))
            .collect();
        let mut updates = Vec::new();
        for _ in 0..2 {
            let mut node = || NodeId(rng.gen_range(cluster * block..(cluster + 1) * block) as u32);
            let (u, v) = (node(), node());
            updates.push(Update::Insert(u, v, Color(rng.gen_range(0..3))));
            let (u, v, c) = edges[rng.gen_range(0..edges.len())];
            updates.push(Update::Delete(u, v, c));
        }
        let effective = dynamic.apply(&updates);
        let t = Instant::now();
        matcher.on_update(&dynamic, &effective);
        let took = t.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "batch {batch}: on_update took {took:?}"
        );
        assert_eq!(
            matcher.result(&dynamic),
            full_eval(&pq, dynamic.graph()),
            "batch {batch}"
        );
    }
}
