//! Parity suite for the partitioned storage→index→engine stack: RQ and
//! PQ answers through the sharded backend must be **bit-identical** to
//! the single-graph hop-label and matrix backends on random graphs ×
//! random shard counts, including the degenerate partition that cuts
//! every edge; and the engine-level flip (hop build busts its budget →
//! sharded plans) must serve the same answers end to end.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq::prelude::*;
use std::sync::Arc;

/// Random RQ over `g`'s schema/alphabet — mixed selectivity, regex pool
/// spanning single atoms, bounded powers, `+` and wildcards.
fn random_rq(g: &Graph, rng: &mut StdRng) -> Rq {
    let pred = |rng: &mut StdRng| {
        if rng.gen_bool(0.7) {
            Predicate::parse(&format!("a0 <= {}", rng.gen_range(3..10)), g.schema()).unwrap()
        } else {
            Predicate::always_true()
        }
    };
    let pool = [
        "c0", "c1^2", "c0+", "c0^2 c1", "_^3", "_+", "c1 _", "c0 c1+",
    ];
    Rq::new(
        pred(rng),
        pred(rng),
        FRegex::parse(pool[rng.gen_range(0..pool.len())], g.alphabet()).unwrap(),
    )
}

/// Random pattern: 2–5 nodes, edges from the same regex pool.
fn random_pq(g: &Graph, rng: &mut StdRng) -> Pq {
    let mut pq = Pq::new();
    let n_nodes = rng.gen_range(2..5usize);
    for i in 0..n_nodes {
        let pred = if rng.gen_bool(0.5) {
            Predicate::parse(&format!("a0 <= {}", rng.gen_range(3..10)), g.schema()).unwrap()
        } else {
            Predicate::always_true()
        };
        pq.add_node(&format!("u{i}"), pred);
    }
    let pool = ["c0", "c1^2", "c0+", "c0^2 c1", "_^3", "_+", "c1 _"];
    for _ in 0..rng.gen_range(1..=n_nodes + 2) {
        let u = rng.gen_range(0..n_nodes);
        let v = rng.gen_range(0..n_nodes);
        let r = pool[rng.gen_range(0..pool.len())];
        pq.add_edge(u, v, FRegex::parse(r, g.alphabet()).unwrap());
    }
    pq
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    /// Random graphs × k ∈ {2,3,4}: RQ and PQ answers through the sharded
    /// backend equal the matrix and single-index hop backends bit for bit.
    #[test]
    fn sharded_answers_equal_hop_and_matrix(
        n in 12usize..60,
        density in 2usize..5,
        k in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let g = Arc::new(rpq::graph::gen::synthetic(n, n * density, 2, 3, seed));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa11);
        let m = DistanceMatrix::build(&g);
        let hop = HopLabels::build(&g);
        let sharded = ShardedLabels::build(&g, k);
        prop_assert_eq!(sharded.sharded_graph().k(), k);

        // RQs: the §4 DM algorithm over all three probes
        for _ in 0..3 {
            let rq = random_rq(&g, &mut rng);
            let want = rq.eval_with_matrix(&g, &m);
            prop_assert_eq!(&rq.eval_with_dist(&g, &hop), &want, "hop, k={}", k);
            prop_assert_eq!(&rq.eval_with_dist(&g, &sharded), &want, "sharded, k={}", k);
        }

        // PQs: both §5 algorithms over the sharded probe, single- and
        // multi-worker refinement
        let pq = random_pq(&g, &mut rng);
        let oracle = pq.eval_naive(&g);
        prop_assert_eq!(
            &JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&sharded)),
            &oracle,
            "join/sharded, k={}", k
        );
        prop_assert_eq!(
            &SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&sharded)),
            &oracle,
            "split/sharded, k={}", k
        );
        prop_assert_eq!(
            &JoinMatch::eval(&pq, &g, &mut ProbeReach::with_workers(&sharded, 4)),
            &oracle,
            "join/sharded 4 workers, k={}", k
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// The degenerate partition: nodes dealt round-robin to k shards, so
    /// (nearly) every edge is cut, the local graphs are (almost) empty
    /// and the overlay carries the whole graph. Still bit-identical.
    #[test]
    fn degenerate_partitions_stay_exact(
        n in 10usize..36,
        k in 2usize..4,
        seed in 0u64..5_000,
    ) {
        let g = Arc::new(rpq::graph::gen::synthetic(n, n * 4, 2, 2, seed));
        let shard_of: Vec<u32> = (0..n).map(|v| (v % k) as u32).collect();
        let sg = Arc::new(ShardedGraph::with_partition(
            Arc::clone(&g),
            Partition::from_shard_of(shard_of, k),
        ));
        let sharded = ShardedLabels::build_on(
            Arc::clone(&sg),
            &ShardedConfig { shards: k, ..ShardedConfig::default() },
            None,
        ).unwrap();
        let m = DistanceMatrix::build(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xcafe);
        for _ in 0..3 {
            let rq = random_rq(&g, &mut rng);
            prop_assert_eq!(
                &rq.eval_with_dist(&g, &sharded),
                &rq.eval_with_matrix(&g, &m),
                "degenerate k={}", k
            );
        }
        let pq = random_pq(&g, &mut rng);
        prop_assert_eq!(
            &JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&sharded)),
            &pq.eval_naive(&g),
            "degenerate pq k={}", k
        );
    }
}

/// All edges cut, literally: a bipartite graph split along its two sides.
/// Local shards carry zero edges; every path threads the overlay.
#[test]
fn all_edges_cut_bipartite() {
    let mut b = GraphBuilder::new();
    let a0 = b.attr("a0");
    let nodes: Vec<NodeId> = (0..16)
        .map(|i| b.add_node(&format!("n{i}"), [(a0, (i % 10).into())]))
        .collect();
    let c0 = b.color("c0");
    let c1 = b.color("c1");
    // edges only between even and odd nodes, both directions
    for i in (0..16).step_by(2) {
        for j in (1..16).step_by(2) {
            if (i + j) % 3 == 0 {
                b.add_edge(nodes[i], nodes[j], c0);
            }
            if (i * j) % 5 == 1 {
                b.add_edge(nodes[j], nodes[i], c1);
            }
        }
    }
    let g = Arc::new(b.build());
    let shard_of: Vec<u32> = (0..16).map(|v| (v % 2) as u32).collect();
    let sg = Arc::new(ShardedGraph::with_partition(
        Arc::clone(&g),
        Partition::from_shard_of(shard_of, 2),
    ));
    assert_eq!(sg.cut_edges().len(), g.edge_count(), "every edge is cut");
    assert_eq!(sg.shard(0).edge_count() + sg.shard(1).edge_count(), 0);
    let sharded =
        ShardedLabels::build_on(Arc::clone(&sg), &ShardedConfig::default(), None).unwrap();
    let m = DistanceMatrix::build(&g);
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..5 {
        let rq = random_rq(&g, &mut rng);
        assert_eq!(rq.eval_with_dist(&g, &sharded), rq.eval_with_matrix(&g, &m));
        let pq = random_pq(&g, &mut rng);
        assert_eq!(
            JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&sharded)),
            pq.eval_naive(&g)
        );
    }
}

/// End to end through the serving layer: an engine built in the sharded
/// regime answers a mixed RQ/PQ batch identically to a hop-backed one over
/// the same graph, under sharded plans.
#[test]
fn sharded_engine_matches_hop_engine_on_mixed_batch() {
    let g = Arc::new(rpq::graph::gen::clustered(600, 2400, 4, 2, 3, 60, 21));
    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<Query> = (0..12)
        .map(|i| {
            if i % 3 == 2 {
                Query::Pq(random_pq(&g, &mut rng))
            } else {
                Query::Rq(random_rq(&g, &mut rng))
            }
        })
        .collect();

    let hop_engine = QueryEngine::with_config(
        Arc::clone(&g),
        EngineConfig::builder()
            .matrix_node_limit(0)
            .workers(2)
            .build()
            .unwrap(),
    );
    hop_engine.hop().force().expect("fits default budget");
    let sharded_engine = QueryEngine::build_sharded(
        Arc::clone(&g),
        EngineConfig::builder()
            .shards(4)
            .workers(2)
            .build()
            .unwrap(),
    )
    .expect("unbudgeted build");
    let labels = sharded_engine.sharded().get().expect("built eagerly");
    assert!(labels.stats().wildcard);

    let hop_out = hop_engine.run_batch(&queries);
    let sharded_out = sharded_engine.run_batch(&queries);
    for (i, (h, s)) in hop_out.items().iter().zip(sharded_out.items()).enumerate() {
        assert_eq!(h.output, s.output, "query {i}");
        assert!(
            s.plan.backend() == Backend::Sharded,
            "query {i}: expected a sharded plan, got {:?}",
            s.plan
        );
    }
}
