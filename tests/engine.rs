//! Integration tests for the batch query engine: parity with
//! sequential single-query evaluation, planning, memo sharing,
//! and engine reuse across threads.

use rpq::prelude::*;
use rpq_bench::querygen::{generate_pq, generate_rq, QueryParams};
use std::sync::Arc;

/// A 64-query RQ workload with hot keys repeating every 4th query.
fn rq_workload(g: &Graph, batch: usize) -> Vec<Rq> {
    (0..batch)
        .map(|i| {
            let seed = if i % 4 == 0 {
                (i % 8) as u64
            } else {
                500 + i as u64
            };
            generate_rq(g, 2, 4, 2, seed)
        })
        .collect()
}

/// Acceptance: a batch of ≥64 RQs on a 10k-node generated graph, run by
/// two threads at once on one engine — so they share its memo — returns
/// results identical to sequential single-query evaluation on both.
#[test]
fn batch_of_64_rqs_on_10k_graph_matches_sequential() {
    let g = Arc::new(rpq::graph::gen::youtube_like(10_000, 11));
    assert!(g.node_count() >= 10_000);
    let engine = QueryEngine::with_config(
        Arc::clone(&g),
        EngineConfig::builder()
            // this test asserts the *search* planning regime: no hop-label
            // index
            .hop_label_budget(0)
            .build()
            .unwrap(),
    );
    // 10k nodes is over the matrix limit: the engine must plan around it
    assert!(engine.matrix().is_none());

    let rqs = rq_workload(&g, 64);
    let queries: Vec<Query> = rqs.iter().cloned().map(Query::Rq).collect();
    let start = std::sync::Barrier::new(2);
    let batches: Vec<_> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    engine.run_batch(&queries)
                })
            })
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });

    // sequential reference: the seed's own single-query strategy
    let expect: Vec<_> = rqs.iter().map(|rq| rq.eval_bibfs(&g)).collect();
    for (t, batch) in batches.iter().enumerate() {
        assert_eq!(batch.len(), 64);
        for (i, want) in expect.iter().enumerate() {
            assert_eq!(
                batch.items()[i].output.as_rq().expect("RQ in, RQ out"),
                want,
                "thread {t}: query {i} diverged from sequential evaluation"
            );
        }

        // the hot keys must have been shared through the memo
        let (hits, misses) = batch.memo_stats();
        assert!(
            hits > 0,
            "thread {t}: repeated keys should hit the memo ({hits}/{misses})"
        );
        let memoized = batch
            .items()
            .iter()
            .filter(|it| (it.plan.algo(), it.plan.backend()) == (Algo::RqDm, Backend::Search))
            .count();
        assert!(
            memoized >= 16,
            "thread {t}: hot keys should plan BFS+memo, got {memoized}"
        );
    }
}

/// Mixed RQ/PQ batch on a small graph: the engine is built with the
/// matrix and every output equals the corresponding sequential strategy.
#[test]
fn mixed_batch_on_small_graph_matches_sequential() {
    let g = Arc::new(rpq::graph::gen::youtube_like(1200, 42));
    let engine = QueryEngine::new(Arc::clone(&g));
    assert!(engine.matrix().is_some());

    let params = QueryParams::defaults();
    let rqs: Vec<Rq> = (0..12).map(|i| generate_rq(&g, 2, 4, 2, i)).collect();
    let pqs: Vec<Pq> = (0..4).map(|i| generate_pq(&g, &params, i)).collect();
    let queries: Vec<Query> = rqs
        .iter()
        .cloned()
        .map(Query::Rq)
        .chain(pqs.iter().cloned().map(Query::Pq))
        .collect();

    let batch = engine.run_batch(&queries);
    assert_eq!(batch.len(), 16);

    let m = DistanceMatrix::build(&g);
    for (i, rq) in rqs.iter().enumerate() {
        assert_eq!(
            batch.items()[i].output.as_rq().unwrap(),
            &rq.eval_with_matrix(&g, &m),
            "RQ {i}"
        );
        assert_eq!(batch.items()[i].plan.name(), "DM");
    }
    for (i, pq) in pqs.iter().enumerate() {
        // either matrix-backed algorithm may be planned (shape-aware
        // join/split choice); the answer must equal JoinMatch's regardless
        assert_eq!(
            batch.items()[12 + i].output.as_pq().unwrap(),
            &JoinMatch::eval(pq, &g, &mut ProbeReach::new(&m)),
            "PQ {i}"
        );
        let plan = batch.items()[12 + i].plan;
        assert_eq!(
            plan.backend(),
            Backend::Matrix,
            "PQ {i} must run a matrix-backed plan, got {plan:?}"
        );
        assert_eq!(plan, rpq::engine::planner::plan_pq(pq, Backend::Matrix).0);
    }
}

/// The engine is Sync: many threads can push batches at one engine and
/// indices are built exactly once.
#[test]
fn engine_shared_across_threads() {
    let g = Arc::new(rpq::graph::gen::youtube_like(800, 3));
    let engine = Arc::new(QueryEngine::new(Arc::clone(&g)));
    let rqs = rq_workload(&g, 16);
    let queries: Vec<Query> = rqs.iter().cloned().map(Query::Rq).collect();

    let results: Vec<BatchResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let queries = queries.clone();
                s.spawn(move || engine.run_batch(&queries))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let m = DistanceMatrix::build(&g);
    for batch in &results {
        for (i, rq) in rqs.iter().enumerate() {
            assert_eq!(
                batch.items()[i].output.as_rq().unwrap(),
                &rq.eval_with_matrix(&g, &m)
            );
        }
    }
}

/// Per-query timing and plan labels are recorded for the bench harness.
#[test]
fn batch_result_reports_plans_and_timing() {
    let g = Arc::new(rpq::graph::gen::youtube_like(600, 9));
    let engine = QueryEngine::with_config(
        Arc::clone(&g),
        EngineConfig::builder()
            .matrix_node_limit(0) // force index-free plans…
            .hop_label_budget(0) // …and keep them index-free (no hop build)
            .build()
            .unwrap(),
    );
    let hot = generate_rq(&g, 2, 4, 2, 1);
    let queries = vec![
        Query::Rq(hot.clone()),
        Query::Rq(hot),
        Query::Rq(generate_rq(&g, 2, 4, 3, 77)),
    ];
    let batch = engine.run_batch(&queries);

    // without an index every RQ sweeps the graph, memoized — shared key
    // or not; biBFS, the paper's baseline, is never planned
    for item in batch.items() {
        assert_eq!(
            (item.plan.algo(), item.plan.backend()),
            (Algo::RqDm, Backend::Search)
        );
        assert_eq!(item.plan.name(), "BFS+memo");
    }
    assert!(batch.wall_time().as_nanos() > 0);
    assert!(batch.total_query_time() >= batch.items().iter().map(|i| i.time).max().unwrap());
    assert_eq!(batch.outputs().count(), 3);

    // single-query path agrees with the batch path
    let single = engine.run_query(&queries[2]);
    assert_eq!(&single, &batch.items()[2].output);
    // ... and so does biBFS, reached only by forcing it
    let bibfs = *Plan::ALL
        .iter()
        .find(|p| p.algo() == Algo::RqBiBfs)
        .unwrap();
    let (forced, profile) = engine.run_query_with_plan_profiled(&queries[2], bibfs);
    assert_eq!(&forced, &batch.items()[2].output);
    assert_eq!(profile.plan, "biBFS");
}
