//! Live-update acceptance at scale (ignored by default — run in release
//! via the CI scale job):
//!
//! ```text
//! cargo test --release --test live_scale -- --ignored --nocapture
//! ```
//!
//! A long mixed read/write stream against an [`UpdatableEngine`] on a
//! 50k-node clustered graph in the sharded regime (the graph plus an
//! edge-cut partition). The contract under test is the update-aware
//! index path:
//!
//! * every write batch carries the index forward through a repair
//!   (`IndexState::Repaired` on each published snapshot) instead of
//!   rebuilding it, touching at most half the shards;
//! * steady-state query latency on the written-to engine stays within
//!   ~2x of a read-only engine serving the same graph;
//! * served answers are bit-identical to uncached BFS evaluation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq::prelude::*;
use rpq_engine::IndexState;
use std::time::{Duration, Instant};

const NODES: usize = 50_000;
const EDGES: usize = 100_000;
const SHARDS: usize = 8;
const WRITE_BATCHES: usize = 12;
const UPDATES_PER_BATCH: usize = 6;
const READS_PER_ROUND: usize = 16;

/// Concrete-color RQ workload (the planner sends these through the
/// sharded regime; wildcard atoms would plan search instead).
fn workload(g: &Graph, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = ["c0^2 c1", "c1^3", "c0 c1^2", "c2^2", "c2 c0^2"];
    (0..count)
        .map(|_| {
            let from = format!(
                "a0 = {} && a1 >= {}",
                rng.gen_range(0..10),
                rng.gen_range(4..9)
            );
            let to = format!("a1 <= {}", rng.gen_range(3..7));
            Query::Rq(Rq::new(
                Predicate::parse(&from, g.schema()).unwrap(),
                Predicate::parse(&to, g.schema()).unwrap(),
                FRegex::parse(pool[rng.gen_range(0..pool.len())], g.alphabet()).unwrap(),
            ))
        })
        .collect()
}

fn random_updates(rng: &mut StdRng, count: usize) -> Vec<Update> {
    (0..count)
        .map(|_| {
            let u = NodeId(rng.gen_range(0..NODES as u32));
            let v = NodeId(rng.gen_range(0..NODES as u32));
            let c = Color(rng.gen_range(0..3));
            if rng.gen_bool(0.5) {
                Update::Insert(u, v, c)
            } else {
                Update::Delete(u, v, c)
            }
        })
        .collect()
}

#[test]
#[ignore = "50k-node mixed read/write stream; run in release via the CI scale job"]
fn repaired_index_serves_a_mixed_stream_at_50k() {
    let t0 = Instant::now();
    let g = rpq::graph::gen::clustered(NODES, EDGES, SHARDS, 2, 3, 5, 31);
    println!(
        "graph: {} nodes / {} edges in {:.1?}",
        g.node_count(),
        g.edge_count(),
        t0.elapsed()
    );
    assert!(g.node_count() >= 50_000);

    let config = EngineConfig::builder()
        .matrix_node_limit(0) // label regime at every size
        .hop_label_budget(0) // single-index path disabled: sharded only
        .shards(SHARDS)
        .build()
        .unwrap();
    let t1 = Instant::now();
    let engine = UpdatableEngine::with_config(g.clone(), config.clone());
    let built = engine.snapshot().engine().sharded().is_some();
    assert!(built, "the sharded regime is built with the engine");
    println!("initial sharded build: {:.1?}", t1.elapsed());

    // the read-only reference: same graph, same config, no writes
    let frozen = UpdatableEngine::with_config(g, config);
    let frozen_snap = frozen.snapshot();

    let mut rng = StdRng::seed_from_u64(97);
    let mut total_repair = Duration::ZERO;
    let mut total_applied = 0usize;
    let mut live_read = Duration::ZERO;
    let mut ro_read = Duration::ZERO;
    for round in 0..WRITE_BATCHES {
        let updates = random_updates(&mut rng, UPDATES_PER_BATCH);
        let report = engine.apply(&updates).unwrap();
        assert_eq!(
            report.index.state,
            IndexState::Repaired,
            "round {round}: the write stream must never rebuild the index"
        );
        assert!(
            report.index.shards_touched <= SHARDS / 2,
            "round {round}: repair work must stay bounded ({} shards touched)",
            report.index.shards_touched
        );
        total_repair += (report.index.phases.iter())
            .filter(|&&(phase, _)| phase == "carry")
            .map(|&(_, d)| d)
            .sum::<Duration>();
        total_applied += report.applied;

        // interleaved reads on the just-published snapshot vs. read-only
        let queries = workload(
            report.snapshot.graph(),
            READS_PER_ROUND,
            1000 + round as u64,
        );
        let t = Instant::now();
        let live_out = report.snapshot.run_batch(&queries);
        live_read += t.elapsed();
        let t = Instant::now();
        let _ = frozen_snap.run_batch(&queries);
        ro_read += t.elapsed();

        // served answers are bit-identical to uncached evaluation
        if round % 4 == 0 {
            for (i, q) in queries.iter().take(4).enumerate() {
                let Query::Rq(rq) = q else { unreachable!() };
                assert_eq!(
                    live_out.items()[i].output.as_rq().unwrap(),
                    &rq.eval_bfs(report.snapshot.graph()),
                    "round {round} query {i} diverged from BFS ground truth"
                );
            }
        }
    }
    assert!(
        total_applied > 0,
        "the stream must actually change the graph"
    );

    let avg_repair = total_repair / WRITE_BATCHES as u32;
    println!(
        "{WRITE_BATCHES} write batches ({total_applied} effective updates): \
         avg repair {avg_repair:.1?}/batch"
    );

    println!("reads: live {live_read:.1?} vs read-only {ro_read:.1?} (totals)");
    // steady-state serving latency within ~2x of the write-free engine
    // (small absolute floor so near-zero denominators don't flake)
    let floor = Duration::from_millis(50);
    assert!(
        live_read <= ro_read * 2 + floor,
        "steady-state reads ({live_read:.1?}) exceed 2x the read-only baseline ({ro_read:.1?})"
    );

    let final_state = engine.snapshot().index_state();
    assert_eq!(final_state, IndexState::Repaired);
    println!("total {:.1?}", t0.elapsed());
}
