//! `sharded_cluster` — the partitioned stack end to end: shard a
//! clustered graph, build per-shard labels plus the boundary overlay,
//! and serve a mixed RQ/PQ batch under `sharded` / `JoinMatch/sharded`
//! plans, cross-checked against the unsharded hop backend.
//!
//! ```text
//! cargo run --release --example sharded_cluster [nodes] [shards] [batch]
//! ```

use rpq::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn workload(g: &Graph, batch: usize) -> Vec<Query> {
    (0..batch)
        .map(|i| {
            let from =
                Predicate::parse(&format!("a0 = {} && a1 >= 6", i % 10), g.schema()).unwrap();
            let to = Predicate::parse(&format!("a1 <= {}", 3 + i % 3), g.schema()).unwrap();
            if i % 4 == 3 {
                let mut pq = Pq::new();
                let a = pq.add_node("a", from);
                let b = pq.add_node("b", to);
                pq.add_edge(a, b, FRegex::parse("c0^2 c1", g.alphabet()).unwrap());
                Query::Pq(pq)
            } else {
                let res = ["c0^2 c1", "c1^3", "_^3", "c0 c1^2"];
                Query::Rq(Rq::new(
                    from,
                    to,
                    FRegex::parse(res[i % res.len()], g.alphabet()).unwrap(),
                ))
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(30_000);
    let shards: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let batch: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(32);

    println!("generating a {nodes}-node clustered graph ({shards} communities)...");
    let g = Arc::new(rpq::graph::gen::clustered(
        nodes,
        nodes * 4,
        shards,
        2,
        3,
        3,
        42,
    ));

    let t0 = Instant::now();
    let engine = QueryEngine::build_sharded(
        Arc::clone(&g),
        EngineConfig::builder().shards(shards).build().unwrap(),
    )
    .expect("unbudgeted build cannot fail");
    let stats = engine.sharded().expect("built eagerly").stats();
    println!("sharded build in {:.2?}: {stats}", t0.elapsed());
    println!(
        "  per-shard label KiB: {:?} (total {} KiB incl. overlay)",
        stats
            .shard_bytes
            .iter()
            .map(|b| b / 1024)
            .collect::<Vec<_>>(),
        stats.total_bytes() / 1024
    );

    let queries = workload(&g, batch);
    let t1 = Instant::now();
    let out = engine.run_batch(&queries);
    println!("batch of {} in {:.2?}:", out.len(), t1.elapsed());
    let mut by_plan: std::collections::BTreeMap<&str, usize> = Default::default();
    for item in out.items() {
        *by_plan.entry(item.plan.name()).or_default() += 1;
    }
    for (plan, count) in by_plan {
        println!("  {count:3} × {plan}");
    }

    // cross-check a few answers against the unsharded hop backend
    let reference = QueryEngine::with_config(
        Arc::clone(&g),
        EngineConfig::builder()
            .matrix_node_limit(0)
            .build()
            .unwrap(),
    );
    assert!(reference.hop().is_some(), "fits default budget");
    let ref_out = reference.run_batch(&queries);
    let agree = out
        .items()
        .iter()
        .zip(ref_out.items())
        .all(|(s, h)| s.output == h.output);
    println!(
        "answers vs unsharded hop backend: {}",
        if agree {
            "identical"
        } else {
            "DIVERGED (bug!)"
        }
    );
    assert!(agree);
}
