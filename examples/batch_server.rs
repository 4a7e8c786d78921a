//! `batch_server` — demo of the parallel batch query engine as the core of
//! a query-serving process.
//!
//! Simulates a server draining a queue of mixed RQ/PQ traffic against one
//! shared graph: each "tick" collects a batch, hands it to the
//! [`QueryEngine`], and reports throughput, per-plan counts and memo
//! efficiency.
//!
//! ```text
//! cargo run --release --example batch_server [nodes] [batch] [ticks]
//! ```

use rpq::prelude::*;
use rpq_bench::querygen::{generate_pq, generate_rq, QueryParams};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3000);
    let batch_size: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let ticks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    println!("building youtube-like graph with {nodes} nodes…");
    let t0 = Instant::now();
    let g = Arc::new(rpq::graph::gen::youtube_like(nodes, 7));
    println!(
        "  {} nodes / {} edges in {:?}\n",
        g.node_count(),
        g.edge_count(),
        t0.elapsed()
    );

    let t0 = Instant::now();
    let engine = QueryEngine::new(Arc::clone(&g));
    let index = if engine.matrix().is_some() {
        "distance matrix"
    } else if engine.hop().is_some() {
        "hop labels"
    } else {
        "none"
    };
    println!(
        "engine: {} workers (0 = one per core), index: {index} (matrix limit {}), built in {:?}\n",
        engine.config().workers,
        engine.config().matrix_node_limit,
        t0.elapsed(),
    );

    let pq_params = QueryParams::defaults();
    for tick in 0..ticks {
        // drain this tick's queue: 3/4 RQs (some repeating hot keys), 1/4 PQs
        let queries: Vec<Query> = (0..batch_size)
            .map(|i| {
                let seed = (tick * batch_size + i) as u64;
                if i % 4 == 3 {
                    Query::Pq(generate_pq(&g, &pq_params, seed))
                } else if i % 4 == 0 {
                    // hot key: repeats across the batch and across ticks
                    Query::Rq(generate_rq(&g, 2, 4, 2, (i % 8) as u64))
                } else {
                    Query::Rq(generate_rq(&g, 2, 4, 2, 1000 + seed))
                }
            })
            .collect();

        let result = engine.run_batch(&queries);

        let mut per_plan: BTreeMap<&'static str, usize> = BTreeMap::new();
        for item in result.items() {
            *per_plan.entry(item.plan.name()).or_insert(0) += 1;
        }
        let (hits, misses) = result.memo_stats();
        let wall = result.wall_time();
        let qps = result.len() as f64 / wall.as_secs_f64();
        println!(
            "tick {tick}: {:3} queries on {} workers in {wall:?} ({qps:.0} q/s, {:.1}x vs sequential)",
            result.len(),
            result.workers(),
            result.total_query_time().as_secs_f64() / wall.as_secs_f64(),
        );
        println!(
            "  plans: {per_plan:?}  memo: {hits} hits / {misses} misses  matches: {}",
            result
                .items()
                .iter()
                .map(|i| i.output.match_count())
                .sum::<usize>(),
        );
    }
}
