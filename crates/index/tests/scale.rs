//! 100k-node scale test — `#[ignore]`d because it builds a six-figure-node
//! label index; CI runs it in release mode as a dedicated job
//! (`cargo test --release -p rpq-index --test scale -- --ignored`).
//!
//! At this size the dense matrix is not an option (the estimate alone is
//! ~93 GB), which is precisely the regime the hop-label subsystem exists
//! for. The test builds the color layers — there is no wildcard layer:
//! the union graph's labels grow superlinearly on expander-like data, so
//! `_` is answered by the graph — and checks the
//! build fits a tight budget, probes agree with on-demand bidirectional
//! BFS ground truth, the per-layer cycle table agrees with a backward BFS,
//! and bounded scans agree with a fresh single-source BFS. It then flips
//! 8 edges and repairs the labels: build and repair are one layer loop
//! (`LayerBuilder::run_layers`), so the same probe and cycle parity on the
//! repaired labels covers that path from its other entrance at scale.

use rpq_graph::algo::{bfs_distances, bidirectional_distance, condensation, Direction};
use rpq_graph::gen::youtube_like;
use rpq_graph::{DistanceMatrix, Graph, GraphBuilder, NodeId, INFINITY, WILDCARD};
use rpq_index::{DistProbe, HopConfig, HopLabels};

/// Probe parity against per-pair bidirectional BFS ground truth on 2000
/// sampled pairs, cycling through every concrete color.
fn assert_pair_parity(g: &Graph, labels: &HopLabels, next: &mut impl FnMut() -> u32) {
    let colors: Vec<_> = g.alphabet().colors().collect();
    for i in 0..2_000 {
        let (u, v) = (NodeId(next()), NodeId(next()));
        let c = colors[i % colors.len()];
        let got = labels.dist(u, v, c);
        let want = match bidirectional_distance(g, u, v, c) {
            None => INFINITY,
            Some(d) => d.min(u32::from(u16::MAX - 1)) as u16,
        };
        assert_eq!(got, want, "dist({u:?}, {v:?}, {c:?})");
    }
}

/// The per-layer cycle table against ground truth on 40 sampled nodes: one
/// backward BFS to `u` gives `dist(w, u)` for every out-neighbour `w`, so
/// the shortest nonempty cycle through `u` is `1 + min dist(w, u)` over
/// its admitted out-edges (a self-loop is `w = u` at distance 0). Each
/// color alone is sparse (out-degree ≈ 0.9), so a uniform sample almost
/// never lies on a cycle: every other sample is drawn from the color's
/// strongly connected components of two or more nodes instead.
fn assert_cycle_parity(g: &Graph, labels: &HopLabels, next: &mut impl FnMut() -> u32) {
    let colors: Vec<_> = g.alphabet().colors().collect();
    let cyclic: Vec<Vec<u32>> = colors
        .iter()
        .map(|&c| {
            let (_, comps) = condensation(g.node_count(), |v| {
                g.out_edges(NodeId(v as u32))
                    .iter()
                    .filter(move |e| c.admits(e.color))
                    .map(|e| e.node.index())
            });
            let big = comps.into_iter().filter(|comp| comp.len() > 1);
            big.flatten().map(|v| v as u32).collect()
        })
        .collect();
    let mut on_cycle = 0;
    for i in 0..40 {
        let c = colors[i % colors.len()];
        let pool = &cyclic[i % colors.len()];
        let u = NodeId(if i % 2 == 0 && !pool.is_empty() {
            pool[next() as usize % pool.len()]
        } else {
            next()
        });
        let back = bfs_distances(g, u, c, Direction::Backward);
        let shortest = g
            .out_edges(u)
            .iter()
            .filter(|e| c.admits(e.color) && back[e.node.index()] != INFINITY)
            .map(|e| 1 + u32::from(back[e.node.index()]))
            .min();
        on_cycle += usize::from(shortest.is_some());
        for k in [Some(0u32), Some(1), Some(2), Some(3), Some(6), None] {
            let want = shortest.is_some_and(|s| k.is_none_or(|k| s <= k));
            assert_eq!(
                labels.has_cycle_within(g, u, c, k),
                want,
                "cycle at {u:?} {c:?} within {k:?} (shortest {shortest:?})"
            );
        }
    }
    println!("cycle table: {on_cycle}/40 sampled nodes on a cycle of their color");
    assert!(
        on_cycle > 0,
        "no sampled node lies on a cycle: vacuous check"
    );
}

#[test]
#[ignore = "builds a 100k-node label index; run in release via the CI scale job"]
fn hundred_k_nodes_probe_parity() {
    // RPQ_SCALE_NODES overrides the size for local bisection runs
    let n = std::env::var("RPQ_SCALE_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100_000usize);
    let g = youtube_like(n, 4);
    assert_eq!(g.node_count(), n);

    let t0 = std::time::Instant::now();
    let cfg = HopConfig {
        budget_bytes: 512 << 20, // far more than the color layers need
    };
    let labels = HopLabels::build_with(&g, &cfg).expect("build within budget");
    let stats = labels.stats();
    println!("built in {:?}: {stats}", t0.elapsed());
    assert!(!labels.has_layer(WILDCARD), "no wildcard layer");
    for c in g.alphabet().colors() {
        assert!(labels.has_layer(c));
    }

    // memory: orders of magnitude under the dense-matrix requirement
    let dm_bytes = DistanceMatrix::bytes_for(&g);
    println!(
        "label bytes = {} ({:.4}% of the {} GB dense matrix)",
        stats.bytes,
        100.0 * stats.bytes as f64 / dm_bytes as f64,
        dm_bytes >> 30
    );
    assert!(
        stats.bytes * 100 < dm_bytes,
        "labels must undercut DM 100x+"
    );

    // deterministic pseudo-random node sampler
    let colors: Vec<_> = g.alphabet().colors().collect();
    let mut x = 0x9E3779B97F4A7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as u32
    };
    assert_pair_parity(&g, &labels, &mut next);
    assert_cycle_parity(&g, &labels, &mut next);

    // bounded scans against a fresh BFS from a handful of sources
    for i in 0..40 {
        let u = NodeId(next());
        let c = colors[i % colors.len()];
        let truth = bfs_distances(&g, u, c, Direction::Forward);
        for max in [2u16, 6] {
            let mut got = vec![false; n];
            labels.for_each_within(u, c, max, &mut |z| got[z.index()] = true);
            for (z, &d) in truth.iter().enumerate() {
                let want = d >= 1 && d <= max;
                assert_eq!(got[z], want, "scan from {u:?} {c:?} max {max} at node {z}");
            }
        }
    }

    // the same loop from its other entrance: flip 8 edges, repair with no
    // invalidation limit, and re-check probe parity on the new graph
    let mut b = GraphBuilder::from_graph(&g);
    let mut changes = Vec::new();
    for i in 0..8 {
        let (u, v) = (NodeId(next()), NodeId(next()));
        let c = colors[i % colors.len()];
        if b.insert_edge(u, v, c) || b.remove_edge(u, v, c) {
            changes.push((u, v, c));
        }
    }
    let g2 = b.build();
    let t0 = std::time::Instant::now();
    let repaired = labels
        .repair(&g2, &changes, cfg.budget_bytes, 0)
        .expect("repair within budget");
    println!(
        "repaired {} edge changes in {:?}: {} landmarks re-run",
        changes.len(),
        t0.elapsed(),
        repaired.landmarks_invalidated
    );
    assert!(repaired.landmarks_invalidated > 0);
    assert_pair_parity(&g2, &repaired.labels, &mut next);
    assert_cycle_parity(&g2, &repaired.labels, &mut next);
}
