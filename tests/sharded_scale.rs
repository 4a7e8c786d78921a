//! Scale acceptance for the sharded backend (ignored by default — run in
//! release via the CI scale job):
//!
//! ```text
//! cargo test --release --test sharded_scale -- --ignored --nocapture
//! ```
//!
//! On a 100k-node clustered graph with `shards = 4`, a mixed 64-query
//! RQ/PQ batch through an engine from [`QueryEngine::build_sharded`] must
//! return answers **identical** to the unsharded hop-label backend, with
//! every shard's label footprint within the configured per-shard memory
//! budget. Build time, edge-cut ratio and batch timings are printed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq::prelude::*;
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 100_000;
const EDGES: usize = 300_000;
const SHARDS: usize = 4;
/// Per-shard label budget, a **hard cap**: a layer exceeding it fails the
/// whole construction. Random intra-cluster topology is the worst case
/// for pruned labelings (few natural hubs), so the budget is sized for
/// the color layers with ample headroom.
const SHARD_BUDGET: usize = 64 << 20;

/// Mixed workload: selective sources, mostly bounded quantifiers (the
/// paper's regime), a sprinkle of unbounded atoms. Concrete colors
/// only — no index holds a `_` layer, so `_` queries would (correctly)
/// run over the graph rather than exercise the index under test.
fn workload(g: &Graph, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rq_pool = [
        "c0^2 c1", "c1^3", "c0 c1^2", "c2^3", "c2^2 c0", "c0+", "c1 c2^2",
    ];
    let sel = |rng: &mut StdRng| {
        format!(
            "a0 = {} && a1 >= {}",
            rng.gen_range(0..10),
            rng.gen_range(4..9)
        )
    };
    (0..count)
        .map(|i| {
            if i % 4 == 3 {
                // a small selective pattern, one cycle in half of them
                let mut pq = Pq::new();
                let a = pq.add_node("a", Predicate::parse(&sel(&mut rng), g.schema()).unwrap());
                let b = pq.add_node(
                    "b",
                    Predicate::parse(&format!("a0 <= {}", rng.gen_range(2..5)), g.schema())
                        .unwrap(),
                );
                let c = pq.add_node("c", Predicate::parse(&sel(&mut rng), g.schema()).unwrap());
                pq.add_edge(a, b, FRegex::parse("c0^2", g.alphabet()).unwrap());
                pq.add_edge(b, c, FRegex::parse("c1^2 c0", g.alphabet()).unwrap());
                if i % 8 == 7 {
                    pq.add_edge(c, a, FRegex::parse("c2^3", g.alphabet()).unwrap());
                }
                Query::Pq(pq)
            } else {
                let re = rq_pool[rng.gen_range(0..rq_pool.len())];
                Query::Rq(Rq::new(
                    Predicate::parse(&sel(&mut rng), g.schema()).unwrap(),
                    Predicate::parse(&format!("a1 <= {}", rng.gen_range(3..7)), g.schema())
                        .unwrap(),
                    FRegex::parse(re, g.alphabet()).unwrap(),
                ))
            }
        })
        .collect()
}

#[test]
#[ignore = "builds two 100k-node indices; run in release via the CI scale job"]
fn sharded_batch_matches_hop_backend_at_100k() {
    let t0 = Instant::now();
    let g = Arc::new(rpq::graph::gen::clustered(
        NODES, EDGES, SHARDS, 3, 3, 2, 42,
    ));
    println!(
        "graph: {} nodes / {} edges in {:.1?}",
        g.node_count(),
        g.edge_count(),
        t0.elapsed()
    );
    assert!(g.node_count() >= 100_000);

    // the sharded stack: partition + 4 per-shard builds + overlay
    let t1 = Instant::now();
    let sharded_engine = QueryEngine::build_sharded(
        Arc::clone(&g),
        EngineConfig::builder()
            .shards(SHARDS)
            .shard_memory_budget(SHARD_BUDGET)
            .build()
            .unwrap(),
    )
    .expect("per-shard builds fit the budget");
    let labels = sharded_engine.sharded().expect("built eagerly");
    let stats = labels.stats();
    println!("sharded build: {:.1?} — {stats}", t1.elapsed());
    println!(
        "edge-cut ratio {:.3}%, per-shard label bytes {:?}, overlay {} KiB",
        100.0 * stats.edge_cut_ratio,
        stats.shard_bytes,
        stats.overlay_bytes / 1024
    );
    assert_eq!(stats.shards, SHARDS);
    assert!(
        !labels.has_layer(WILDCARD),
        "no index holds a wildcard layer: `_` is answered by the graph"
    );
    for c in g.alphabet().colors() {
        assert!(
            labels.has_layer(c),
            "every concrete color must stay covered"
        );
    }
    for (s, &bytes) in stats.shard_bytes.iter().enumerate() {
        assert!(
            bytes <= SHARD_BUDGET,
            "shard {s}: {bytes} bytes exceeds the per-shard budget {SHARD_BUDGET}"
        );
    }

    // the unsharded reference: one hop-label index over the whole graph
    let t1 = Instant::now();
    let hop_engine = QueryEngine::with_config(
        Arc::clone(&g),
        EngineConfig::builder()
            .matrix_node_limit(0)
            // same reading as the per-shard budget: concrete layers fit
            // easily
            .hop_label_budget(64 << 20)
            .build()
            .unwrap(),
    );
    let hop = hop_engine.hop().expect("reference build fits");
    println!(
        "unsharded reference build: {:.1?}, {} KiB",
        t1.elapsed(),
        hop.bytes() / 1024
    );

    let queries = workload(&g, 64, 7);
    let n_pqs = queries.iter().filter(|q| matches!(q, Query::Pq(_))).count();
    println!("batch: {} queries ({} PQs)", queries.len(), n_pqs);

    let t2 = Instant::now();
    let hop_out = hop_engine.run_batch(&queries);
    println!("hop backend batch: {:.1?}", t2.elapsed());
    let t3 = Instant::now();
    let sharded_out = sharded_engine.run_batch(&queries);
    println!("sharded backend batch: {:.1?}", t3.elapsed());

    let mut sharded_plans = 0usize;
    for (i, (h, s)) in hop_out.items().iter().zip(sharded_out.items()).enumerate() {
        assert_eq!(h.output, s.output, "query {i} diverged across backends");
        if s.plan.backend() == Backend::Sharded {
            sharded_plans += 1;
        }
    }
    assert_eq!(
        sharded_plans,
        queries.len(),
        "every query must run a sharded plan"
    );
    println!(
        "OK: 64-query batch identical across backends ({} matches total)",
        sharded_out
            .items()
            .iter()
            .map(|i| i.output.match_count())
            .sum::<usize>()
    );
}
