//! Benchmark: the sharded backend against the single-index hop backend —
//! the build-side numbers (partition quality, parallel per-shard build
//! time, per-shard vs whole-graph label memory) and the serving-side cost
//! of stitching probes through the boundary overlay.
//!
//! Answers are asserted identical across backends — through the engines —
//! before anything is timed; the timed rows then evaluate straight over
//! each index, because an engine serves every repeat of a batch from its
//! memo and these rows compare probes, not cache hits.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_core::predicate::Predicate;
use rpq_core::rq::Rq;
use rpq_engine::{EngineConfig, Query, QueryEngine};
use rpq_graph::gen::clustered;
use rpq_graph::Graph;
use rpq_index::ShardedLabels;
use rpq_regex::FRegex;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 20_000;
const EDGES: usize = 60_000;
const SHARDS: usize = 4;

fn workload(g: &Graph, count: usize, seed: u64) -> Vec<Rq> {
    let mut rng = StdRng::seed_from_u64(seed);
    // concrete colors only: the wildcard union layer is budget-dropped
    // at bench scale on both backends (same regime as the scale test)
    let pool = ["c0^2 c1", "c1^3", "c0 c1^2", "c2^2", "c0+"];
    (0..count)
        .map(|_| {
            let from = format!(
                "a0 = {} && a1 >= {}",
                rng.gen_range(0..10),
                rng.gen_range(4..9)
            );
            let to = format!("a1 <= {}", rng.gen_range(3..7));
            Rq::new(
                Predicate::parse(&from, g.schema()).unwrap(),
                Predicate::parse(&to, g.schema()).unwrap(),
                FRegex::parse(pool[rng.gen_range(0..pool.len())], g.alphabet()).unwrap(),
            )
        })
        .collect()
}

fn bench_sharded(c: &mut Criterion) {
    let g = Arc::new(clustered(NODES, EDGES, 8, 2, 3, 3, 11));

    // reference: the single hop-label index
    let hop_engine = QueryEngine::with_config(
        Arc::clone(&g),
        EngineConfig::builder()
            .matrix_node_limit(0)
            // concrete layers fit easily; the wildcard attempt aborts at
            // the cap instead of burning minutes of build time
            .hop_label_budget(64 << 20)
            .build()
            .unwrap(),
    );
    let hop = hop_engine.hop().force().expect("fits default budget");

    // the sharded stack, with its build/shape numbers printed once
    let t0 = Instant::now();
    let sharded_engine = QueryEngine::build_sharded(
        Arc::clone(&g),
        EngineConfig::builder()
            .shards(SHARDS)
            .shard_memory_budget(64 << 20)
            .build()
            .unwrap(),
    )
    .expect("concrete layers fit the per-shard budget");
    let build_time = t0.elapsed();
    let sharded = Arc::clone(sharded_engine.sharded().get().expect("built eagerly"));
    let stats = sharded.stats();
    println!(
        "sharded build {build_time:.2?}: {stats}\n  vs single index {} KiB — max per-shard {} KiB ({:.1}% of it), edge-cut {:.2}%",
        hop.bytes() / 1024,
        stats.max_shard_bytes() / 1024,
        100.0 * stats.max_shard_bytes() as f64 / hop.bytes().max(1) as f64,
        100.0 * stats.edge_cut_ratio,
    );

    // answers must be identical before anything is timed
    let rqs = workload(&g, 64, 5);
    let queries: Vec<Query> = rqs.iter().cloned().map(Query::Rq).collect();
    let hop_out = hop_engine.run_batch(&queries);
    let sharded_out = sharded_engine.run_batch(&queries);
    for (i, (h, s)) in hop_out.items().iter().zip(sharded_out.items()).enumerate() {
        assert_eq!(h.output, s.output, "query {i} diverged across backends");
    }

    let mut group = c.benchmark_group("sharded");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("batch64_hop", NODES), &rqs, |b, rqs| {
        b.iter(|| {
            rqs.iter()
                .map(|rq| rq.eval_with_dist(&g, &*hop).len())
                .sum::<usize>()
        })
    });
    group.bench_with_input(
        BenchmarkId::new("batch64_sharded", NODES),
        &rqs,
        |b, rqs| {
            b.iter(|| {
                rqs.iter()
                    .map(|rq| rq.eval_with_dist(&g, &*sharded).len())
                    .sum::<usize>()
            })
        },
    );
    group.finish();

    // build-side: partition + parallel per-shard labels + overlay, on a
    // smaller graph so samples stay in bench time
    let small = Arc::new(clustered(5_000, 20_000, 8, 2, 3, 3, 13));
    let mut build = c.benchmark_group("sharded_build");
    build.sample_size(10);
    let shard_cfg = rpq_index::ShardedConfig {
        shards: SHARDS,
        shard_budget_bytes: 64 << 20,
        wildcard_layer: false,
        build_workers: 0,
    };
    build.bench_with_input(BenchmarkId::new("labels", 5_000), &small, |b, g| {
        b.iter(|| black_box(ShardedLabels::build_with(g, &shard_cfg, None).unwrap()))
    });
    let hop_cfg = rpq_index::HopConfig {
        wildcard_layer: false,
        ..rpq_index::HopConfig::default()
    };
    build.bench_with_input(BenchmarkId::new("single_index", 5_000), &small, |b, g| {
        b.iter(|| black_box(rpq_index::HopLabels::build_with(g, &hop_cfg, None).unwrap()))
    });
    build.finish();
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
