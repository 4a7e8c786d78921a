//! Integration tests for the hop-label (`Backend::Hop`) serving path: the
//! planner picks it automatically over the matrix node limit, its answers
//! are bit-identical to search, and a pinned snapshot keeps its own index
//! version. (Answers across an update stream are the differential
//! oracle's, `tests/oracle.rs`.)

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
    let engine = UpdatableEngine::with_config(Arc::clone(&g), over_limit_config()).snapshot();
    assert_eq!(engine.backend(), Backend::Hop, "fits default budget");
    assert!(engine.index_bytes() < DistanceMatrix::bytes_for(&g) as u64);

    let qs = queries(&g);
    let batch = engine.run_batch(&qs);
    for (item, q) in batch.items().iter().zip(&qs) {
        // the labels hold concrete colors; `_` is answered by the graph
        let Query::Rq(rq) = q else {
            unreachable!("RQ-only workload")
        };
        let wildcard = rq.regex.atoms().iter().any(|a| a.color == WILDCARD);
        let want = if wildcard { "BFS+memo" } else { "hop" };
        assert_eq!(item.plan.name(), want, "automatic selection");
        assert_eq!(item.output.as_rq().unwrap(), &reference(q, &g));
    }
}

/// A reader pinning an old snapshot keeps its own (version-consistent)
/// index; publishing new versions neither blocks it nor changes what it
/// serves.
#[test]
fn pinned_snapshot_keeps_its_own_index_version() {
    let engine = UpdatableEngine::with_config(test_graph(3), over_limit_config());
    let pinned = engine.snapshot();
    assert_eq!(pinned.backend(), Backend::Hop);
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
    assert!(engine.snapshot().version() > pinned.version());
    for (q, want) in qs.iter().zip(&before) {
        assert_eq!(&pinned.run_query(q), want, "pinned answers drifted");
    }
    // and the current version answers against the *new* graph
    let now = engine.snapshot();
    assert_eq!(now.backend(), Backend::Hop);
    let g1 = now.graph().clone();
    for q in &qs {
        assert_eq!(now.run_query(q).as_rq().unwrap(), &reference(q, &g1));
    }
}
