//! Property-based tests for the graph substrate: BFS against pairwise
//! bidirectional search, the distance matrix against fresh BFS, and
//! text-format round-trips.

use proptest::prelude::*;
use rpq_graph::algo::{bfs_distances, bidirectional_distance, Direction};
use rpq_graph::{Color, DistanceMatrix, GraphBuilder, NodeId, INFINITY, WILDCARD};

fn arb_graph() -> impl Strategy<Value = (usize, Vec<(u8, u8, u8)>)> {
    (2usize..14).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u8, 0..n as u8, 0u8..3), 0..40);
        (Just(n), edges)
    })
}

fn build(n: usize, edges: &[(u8, u8, u8)]) -> rpq_graph::Graph {
    let mut b = GraphBuilder::new();
    for i in 0..n {
        b.add_node(&format!("n{i}"), []);
    }
    for c in 0..3 {
        b.color(&format!("c{c}"));
    }
    for &(u, v, c) in edges {
        if u != v {
            b.add_edge(NodeId(u as u32), NodeId(v as u32), Color(c));
        }
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The matrix agrees with per-source BFS on every (pair, color).
    #[test]
    fn matrix_equals_bfs((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        let m = DistanceMatrix::build(&g);
        for color_idx in 0..4u8 {
            let color = if color_idx == 3 { WILDCARD } else { Color(color_idx) };
            for src in g.nodes() {
                let d = bfs_distances(&g, src, color, Direction::Forward);
                for dst in g.nodes() {
                    prop_assert_eq!(m.dist(src, dst, color), d[dst.index()]);
                }
            }
        }
    }

    /// Bidirectional single-pair distance equals the BFS distance.
    #[test]
    fn bidirectional_equals_bfs((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for color_idx in 0..3u8 {
            let color = Color(color_idx);
            for src in g.nodes() {
                let d = bfs_distances(&g, src, color, Direction::Forward);
                for dst in g.nodes() {
                    let bi = bidirectional_distance(&g, src, dst, color);
                    if d[dst.index()] == INFINITY {
                        prop_assert_eq!(bi, None);
                    } else {
                        prop_assert_eq!(bi, Some(u32::from(d[dst.index()])));
                    }
                }
            }
        }
    }

    /// Forward and backward BFS are transposes of each other.
    #[test]
    fn backward_bfs_is_transpose((n, edges) in arb_graph()) {
        let g = build(n, &edges);
        for src in g.nodes() {
            let fwd = bfs_distances(&g, src, WILDCARD, Direction::Forward);
            for dst in g.nodes() {
                let bwd = bfs_distances(&g, dst, WILDCARD, Direction::Backward);
                prop_assert_eq!(fwd[dst.index()], bwd[src.index()]);
            }
        }
    }

    /// Text serialization round-trips node attrs, labels, colors and edges.
    #[test]
    fn io_roundtrip((n, edges) in arb_graph(), vals in prop::collection::vec(any::<i64>(), 2..14)) {
        let mut b = GraphBuilder::new();
        let attr = b.attr("weight");
        for i in 0..n {
            b.add_node(&format!("n{i}"), [(attr, vals[i % vals.len()].into())]);
        }
        for c in 0..3 {
            b.color(&format!("c{c}"));
        }
        for &(u, v, c) in &edges {
            if u != v {
                b.add_edge(NodeId(u as u32), NodeId(v as u32), Color(c));
            }
        }
        let g = b.build();
        let text = rpq_graph::io::graph_to_string(&g);
        let back = rpq_graph::io::graph_from_str(&text).unwrap();
        prop_assert_eq!(g.node_count(), back.node_count());
        prop_assert_eq!(g.edge_count(), back.edge_count());
        for v in g.nodes() {
            let w = back.node_by_label(g.label(v)).unwrap();
            let wa = back.schema().get("weight").unwrap();
            prop_assert_eq!(back.attrs(w).get(wa), g.attrs(v).get(attr));
        }
    }
}

/// Distance-overflow audit: distances are stored as `u16` with
/// `u16::MAX` reserved as the INFINITY sentinel, so a real path of length
/// ≥ 65535 must saturate *below* the sentinel — a reachable node may never
/// alias "unreachable". (The `DistanceMatrix` stores exactly these BFS
/// rows, so the saturation property carries over to matrix probes.)
#[test]
fn distances_saturate_below_infinity_sentinel() {
    // chain longer than u16::MAX: node i sits at true distance i from node 0
    let n = (u16::MAX as usize) + 40;
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..n).map(|i| b.add_node(&format!("n{i}"), [])).collect();
    let c = b.color("c");
    for w in nodes.windows(2) {
        b.add_edge(w[0], w[1], c);
    }
    let g = b.build();
    let d = bfs_distances(&g, nodes[0], c, Direction::Forward);

    // exact distances up to the saturation point…
    assert_eq!(d[(u16::MAX - 1) as usize], u16::MAX - 1);
    // …then every farther node saturates at u16::MAX - 1: reachable, and
    // strictly below the INFINITY sentinel
    for (i, &di) in d.iter().enumerate().skip(u16::MAX as usize) {
        assert_eq!(di, u16::MAX - 1, "node {i} must saturate, not overflow");
        assert_ne!(di, INFINITY, "reachable node {i} aliases INFINITY");
    }
    // a genuinely unreachable node still reads INFINITY
    let back = bfs_distances(&g, nodes[1], c, Direction::Forward);
    assert_eq!(back[0], INFINITY);
}
