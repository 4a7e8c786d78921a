//! Integration tests for the hop-label (`Backend::Hop`) serving path: the
//! planner picks it automatically over the matrix node limit, its answers
//! are bit-identical to search, and under a live update stream every
//! post-update query through the per-version hop index matches full
//! re-evaluation on the new graph.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq::prelude::*;
use std::sync::Arc;

const NODES: usize = 250;
const COLORS: u8 = 3;

fn test_graph(seed: u64) -> Graph {
    rpq::graph::gen::synthetic(NODES, 4 * NODES, 2, COLORS as usize, seed)
}

/// Over the matrix limit, under the label budget: the RqHop regime.
fn over_limit_config() -> EngineConfig {
    EngineConfig::builder()
        .matrix_node_limit(0)
        .workers(2)
        .build()
        .unwrap()
}

fn queries(g: &Graph) -> Vec<Query> {
    ["c0^2 c1", "c1 c2", "c0+", "_^2", "c2^3 _", "c0"]
        .iter()
        .enumerate()
        .map(|(i, re)| {
            Query::Rq(Rq::new(
                Predicate::parse(&format!("a0 <= {}", 3 + i as i64), g.schema()).unwrap(),
                Predicate::parse(&format!("a1 >= {}", 2 + i as i64), g.schema()).unwrap(),
                FRegex::parse(re, g.alphabet()).unwrap(),
            ))
        })
        .collect()
}

fn reference(q: &Query, g: &Graph) -> RqResult {
    match q {
        Query::Rq(rq) => rq.eval_bfs(g),
        Query::Pq(_) => unreachable!("RQ-only workload"),
    }
}

#[test]
fn planner_selects_hop_over_the_limit_and_answers_match_search() {
    let g = Arc::new(test_graph(77));
    let engine = QueryEngine::with_config(Arc::clone(&g), over_limit_config());
    let labels = engine.hop().force().expect("fits default budget");
    assert!(labels.bytes() < DistanceMatrix::bytes_for(&g));

    let qs = queries(&g);
    let batch = engine.run_batch(&qs);
    for (item, q) in batch.items().iter().zip(&qs) {
        assert_eq!(item.plan.name(), "hop", "automatic selection");
        assert_eq!(item.output.as_rq().unwrap(), &reference(q, &g));
    }
}

/// Acceptance: under a stream of ≥ 10 update batches, every post-update
/// query evaluated through the (per-version, rebuilt) hop-label path
/// equals full re-evaluation on the updated graph — and while a version's
/// index has not been built yet, the engine serves the same answers
/// through its search fallback.
#[test]
fn hop_path_tracks_update_stream() {
    let mut rng = StdRng::seed_from_u64(42);
    let engine = UpdatableEngine::with_config(test_graph(9), over_limit_config());

    for round in 0..12 {
        let updates: Vec<Update> = (0..30)
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
            .collect();
        let report = engine.apply(&updates).unwrap();
        let snap = report.snapshot;
        let g = snap.graph().clone();
        let qs = queries(&g);

        // before this version's index lands: fallback plans, same answers
        let stale = snap.run_batch(&qs);
        for (item, q) in stale.items().iter().zip(&qs) {
            assert_eq!(
                item.output.as_rq().unwrap(),
                &reference(q, &g),
                "round {round} stale"
            );
        }

        // force the per-version build (deterministic RqHop), re-ask
        snap.engine().hop().force().expect("fits budget");
        let indexed = snap.run_batch(&qs);
        for (item, q) in indexed.items().iter().zip(&qs) {
            assert_eq!(item.plan.name(), "hop", "round {round}");
            assert_eq!(
                item.output.as_rq().unwrap(),
                &reference(q, &g),
                "round {round} through hop labels"
            );
        }
    }
}

/// A reader pinning an old snapshot keeps its own (version-consistent)
/// index; publishing new versions neither blocks it nor changes what it
/// serves.
#[test]
fn pinned_snapshot_keeps_its_own_index_version() {
    let engine = UpdatableEngine::with_config(test_graph(3), over_limit_config());
    let pinned = engine.snapshot();
    pinned.engine().hop().force().unwrap();
    let g0 = pinned.graph().clone();
    let qs = queries(&g0);
    let before: Vec<_> = qs.iter().map(|q| pinned.run_query(q)).collect();

    // churn a few versions
    let c = Color(0);
    for i in 0..3u32 {
        engine
            .apply(&[Update::Insert(NodeId(i), NodeId(i + 50), c)])
            .unwrap();
    }
    assert!(engine.version() > pinned.version());
    for (q, want) in qs.iter().zip(&before) {
        assert_eq!(&pinned.run_query(q), want, "pinned answers drifted");
    }
    // and the current version answers against the *new* graph
    let now = engine.snapshot();
    now.engine().hop().force().unwrap();
    let g1 = now.graph().clone();
    for q in &qs {
        assert_eq!(now.run_query(q).as_rq().unwrap(), &reference(q, &g1));
    }
}
