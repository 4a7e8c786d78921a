//! `live_server` — demo of the live-update serving layer: one writer
//! mutating the graph, readers draining query batches against versioned
//! snapshots, and a standing PQ maintained incrementally throughout.
//!
//! Each "tick" the writer applies a batch of random edge updates (a new
//! snapshot version is published), then a reader drains a batch of RQs —
//! plus the registered standing PQ at every eighth slot, which is served
//! from its maintained answer (`standing` plan) instead of being
//! re-evaluated. Each tick asserts that every such slot planned
//! `standing` and carries `standing_result`.
//!
//! ```text
//! cargo run --release --example live_server [nodes] [batch] [ticks] [updates]
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq::prelude::*;
use rpq_bench::querygen::{generate_pq, generate_rq, QueryParams};
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3000);
    let batch_size: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(48);
    let ticks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let updates_per_tick: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(200);

    println!("building youtube-like graph with {nodes} nodes…");
    let t0 = Instant::now();
    let g = rpq::graph::gen::youtube_like(nodes, 7);
    let n_colors = g.alphabet().len() as u8;
    println!(
        "  {} nodes / {} edges in {:?}\n",
        g.node_count(),
        g.edge_count(),
        t0.elapsed()
    );

    let engine = UpdatableEngine::new(g);
    let snap0 = engine.snapshot();
    // scan a few generator seeds for a pattern with a non-empty answer, so
    // the maintained match sets have something to maintain
    let standing = (0..32)
        .map(|seed| generate_pq(snap0.graph(), &QueryParams::defaults(), seed))
        .find(|pq| {
            !snap0
                .run_query(&Query::Pq(pq.clone()))
                .as_pq()
                .unwrap()
                .is_empty()
        })
        .unwrap_or_else(|| generate_pq(snap0.graph(), &QueryParams::defaults(), 0));
    let standing_id = engine.register_pq(standing.clone());
    println!(
        "registered standing PQ ({} nodes / {} edges), initial answer size {}\n",
        standing.node_count(),
        standing.edge_count(),
        engine
            .snapshot()
            .standing_result(standing_id)
            .unwrap()
            .size(),
    );

    let mut rng = StdRng::seed_from_u64(99);
    for tick in 0..ticks {
        // writer: a batch of random insertions/deletions, one rebuild
        let updates: Vec<Update> = (0..updates_per_tick)
            .map(|_| {
                let x = NodeId(rng.gen_range(0..nodes as u32));
                let y = NodeId(rng.gen_range(0..nodes as u32));
                let c = Color(rng.gen_range(0..n_colors));
                if rng.gen_bool(0.5) {
                    Update::Insert(x, y, c)
                } else {
                    Update::Delete(x, y, c)
                }
            })
            .collect();
        let t = Instant::now();
        let report = engine.apply(&updates).unwrap();
        let apply_time = t.elapsed();

        // reader: drain this tick's queue against the freshly published
        // snapshot — RQ traffic with hot keys, plus the standing PQ
        let snap = report.snapshot;
        let queries: Vec<Query> = (0..batch_size)
            .map(|i| {
                if i % 8 == 7 {
                    Query::Pq(standing.clone())
                } else if i % 4 == 0 {
                    Query::Rq(generate_rq(snap.graph(), 2, 4, 2, (i % 8) as u64))
                } else {
                    Query::Rq(generate_rq(
                        snap.graph(),
                        2,
                        4,
                        2,
                        1000 + (tick * batch_size + i) as u64,
                    ))
                }
            })
            .collect();
        let result = snap.run_batch(&queries);
        // every standing slot is served from the maintained answer
        let answer = snap.standing_result(standing_id).unwrap();
        for (i, item) in result.items().iter().enumerate().skip(7).step_by(8) {
            assert_eq!(item.plan.name(), "standing", "tick {tick} slot {i}");
            assert_eq!(item.output.as_pq(), Some(&*answer), "tick {tick} slot {i}");
        }

        let mut per_plan: BTreeMap<&'static str, usize> = BTreeMap::new();
        for item in result.items() {
            *per_plan.entry(item.plan.name()).or_insert(0) += 1;
        }
        // misses on a key an earlier version computed patch its reach set
        let memo = result.semantic_stats();
        let (hits, misses, patched) = (memo.hits(), memo.misses, memo.patched);
        let wall = result.wall_time();
        println!(
            "tick {tick}: v{} ({}/{} updates applied in {apply_time:?}), {} queries in {wall:?} ({:.0} q/s)",
            snap.version(),
            report.applied,
            updates.len(),
            result.len(),
            result.len() as f64 / wall.as_secs_f64(),
        );
        println!(
            "  plans: {per_plan:?}  memo: {hits} hits / {misses} misses ({patched} patched)  standing answer: {} matches",
            answer.size(),
        );
    }
}
