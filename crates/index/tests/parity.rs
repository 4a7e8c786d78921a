//! Property tests: on random graphs, the pruned 2-hop labeling answers
//! every probe *identically* to the dense distance matrix — `dist`,
//! `reaches_within` for bounded and unbounded `k`, and the bounded
//! neighborhood scans RQ evaluation is built from.

use proptest::prelude::*;
use rpq_graph::gen::synthetic;
use rpq_graph::{Color, DistanceMatrix, Graph};
use rpq_index::{DistProbe, HopLabels};

/// The colors the labels hold a layer for (`_` is answered by the graph).
fn colors_of(g: &Graph) -> Vec<Color> {
    g.alphabet().colors().collect()
}

fn assert_all_probes_equal(g: &Graph, m: &DistanceMatrix, h: &HopLabels) {
    for c in colors_of(g) {
        for u in g.nodes() {
            for v in g.nodes() {
                let want = m.dist(u, v, c);
                let got = DistProbe::dist(h, u, v, c);
                assert_eq!(got, want, "dist({u:?}, {v:?}, {c:?})");
                for k in [None, Some(1u32), Some(2), Some(7)] {
                    assert_eq!(
                        h.reaches_within(g, u, v, c, k),
                        m.reaches_within(g, u, v, c, k),
                        "reaches_within({u:?}, {v:?}, {c:?}, {k:?})"
                    );
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn probes_match_matrix_on_random_graphs(
        n in 2usize..90,
        density in 1usize..6,
        colors in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let g = synthetic(n, n * density, 2, colors, seed);
        let m = DistanceMatrix::build(&g);
        let h = HopLabels::build(&g);
        assert_all_probes_equal(&g, &m, &h);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn scans_match_matrix_on_random_graphs(
        n in 2usize..70,
        density in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let g = synthetic(n, n * density, 2, 3, seed);
        let m = DistanceMatrix::build(&g);
        let h = HopLabels::build(&g);
        for c in colors_of(&g) {
            for u in g.nodes() {
                for max in [1u16, 2, 5, u16::MAX - 1] {
                    let mut want = vec![false; g.node_count()];
                    DistProbe::for_each_within(&m, u, c, max, &mut |z| want[z.index()] = true);
                    let mut got = vec![false; g.node_count()];
                    h.for_each_within(u, c, max, &mut |z| got[z.index()] = true);
                    prop_assert_eq!(&got, &want, "scan({:?}, {:?}, {})", u, c, max);
                }
            }
        }
    }
}

/// The ISSUE's upper size bound, as a plain test (a 512-node case per
/// proptest iteration would dominate the suite): every (u, v, color, k)
/// probe on a 512-node random graph, bit-identical to the matrix.
#[test]
fn full_parity_at_512_nodes() {
    let g = synthetic(512, 2048, 2, 4, 2026);
    let m = DistanceMatrix::build(&g);
    let h = HopLabels::build(&g);
    assert_all_probes_equal(&g, &m, &h);
}
