//! Dataset generators.
//!
//! The paper evaluates on two real-life datasets (a YouTube crawl and a
//! network derived from the Global Terrorism Database) plus parameterized
//! synthetic graphs. The real datasets are not redistributable, so this
//! module generates seeded random graphs with the *same schema, size,
//! color alphabet and density*; every algorithm in `rpq-core` is driven
//! only by attributes, colors and connectivity, so these stand-ins exercise
//! identical code paths.
//!
//! [`essembly`] is different: it is a verbatim reconstruction of the Fig. 1
//! example graph, built so that the worked Examples 2.2 and 2.3 of the paper
//! hold exactly (unit-tested in `rpq-core`).

use crate::attr::AttrValue;
use crate::builder::GraphBuilder;
use crate::graph::Graph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Essembly social network fragment of Fig. 1.
///
/// Nodes: doctors `B1, B2` (against cloning), biologists `C1..C3`
/// (supporting cloning), `D1` = Alice001, and a physician `H1`. Edge colors:
/// `fa` (friends-allies), `fn` (friends-nemeses), `sa` (strangers-allies),
/// `sn` (strangers-nemeses).
///
/// The paper's query results on this graph:
/// * Q1 (RQ, `C --fa^2 fn--> B`) = {(C1,B1), (C1,B2), (C2,B1), (C2,B2)}
/// * Q2 (PQ) = the table of Example 2.3.
pub fn essembly() -> Graph {
    let mut b = GraphBuilder::new();
    let job = b.attr("job");
    let sp = b.attr("sp");
    let dsp = b.attr("dsp");
    let uid = b.attr("uid");

    let doctor = |b: &mut GraphBuilder, name: &str| {
        b.add_node(name, [(job, "doctor".into()), (dsp, "cloning".into())])
    };
    let biologist = |b: &mut GraphBuilder, name: &str| {
        b.add_node(name, [(job, "biologist".into()), (sp, "cloning".into())])
    };

    let b1 = doctor(&mut b, "B1");
    let b2 = doctor(&mut b, "B2");
    let c1 = biologist(&mut b, "C1");
    let c2 = biologist(&mut b, "C2");
    let c3 = biologist(&mut b, "C3");
    let d1 = b.add_node("D1", [(uid, "Alice001".into()), (sp, "cloning".into())]);
    let h1 = b.add_node("H1", [(job, "physician".into())]);

    let fa = b.color("fa");
    let fn_ = b.color("fn");
    let sa = b.color("sa");
    let sn = b.color("sn");

    // the biologists' friends-allies cycle
    b.add_edge(c1, c2, fa);
    b.add_edge(c2, c1, fa);
    b.add_edge(c2, c3, fa);
    b.add_edge(c3, c1, fa);
    // C3 is the biologist at odds with the doctors
    b.add_edge(c3, b1, fn_);
    b.add_edge(c3, b2, fn_);
    // and the doctors reciprocate
    b.add_edge(b1, c3, fn_);
    b.add_edge(b2, c3, fn_);
    // Alice's connections
    b.add_edge(c1, d1, sa);
    b.add_edge(b1, d1, fn_);
    b.add_edge(b2, d1, fn_);
    b.add_edge(d1, h1, sn);
    // the physician
    b.add_edge(h1, b1, fa);
    b.add_edge(h1, c1, sa);

    b.build()
}

/// Parameterized synthetic data graph `G(|V|, |E|)` (§6, "Synthetic data"):
/// `n` nodes, about `e` distinct edges with uniformly random endpoints and
/// colors, `n_attrs` integer attributes per node (`a0..`), values uniform in
/// `0..attr_domain`, and `n_colors` edge colors (`c0..`).
///
/// Deterministic in `seed`.
pub fn synthetic(n: usize, e: usize, n_attrs: usize, n_colors: usize, seed: u64) -> Graph {
    assert!(n > 1, "need at least two nodes");
    assert!(n_colors >= 1, "need at least one color");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let attr_domain = 10i64;

    let attr_ids: Vec<_> = (0..n_attrs).map(|i| b.attr(&format!("a{i}"))).collect();
    let colors: Vec<_> = (0..n_colors).map(|i| b.color(&format!("c{i}"))).collect();

    for i in 0..n {
        let pairs: Vec<_> = attr_ids
            .iter()
            .map(|&id| (id, AttrValue::Int(rng.gen_range(0..attr_domain))))
            .collect();
        b.add_node(&format!("v{i}"), pairs);
    }
    let nodes: Vec<_> = (0..n as u32).map(crate::graph::NodeId).collect();
    let mut seen = std::collections::HashSet::with_capacity(e * 2);
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < e && attempts < e * 20 {
        attempts += 1;
        let u = nodes[rng.gen_range(0..n)];
        let v = nodes[rng.gen_range(0..n)];
        if u == v {
            continue;
        }
        let c = colors[rng.gen_range(0..n_colors)];
        if seen.insert((u, v, c)) {
            b.add_edge(u, v, c);
            added += 1;
        }
    }
    b.build()
}

/// Synthetic graph with **community structure**: `n` nodes in `clusters`
/// equal contiguous blocks, about `e` edges of which roughly
/// `inter_permille`/1000 cross clusters and the rest stay inside one —
/// the regime real graphs are sharded in (social networks, web graphs and
/// road networks all partition with small edge cuts). Schema mirrors
/// [`synthetic`]: `n_attrs` integer attributes `a0..` uniform in `0..10`,
/// `n_colors` colors `c0..`.
///
/// This is the workload generator for the partitioned backend: an
/// edge-cut partitioner should recover the blocks and leave an edge-cut
/// ratio close to `inter_permille`/1000. Deterministic in `seed`.
pub fn clustered(
    n: usize,
    e: usize,
    clusters: usize,
    n_attrs: usize,
    n_colors: usize,
    inter_permille: u32,
    seed: u64,
) -> Graph {
    assert!(n > 1, "need at least two nodes");
    assert!(n_colors >= 1, "need at least one color");
    assert!((1..=n).contains(&clusters), "need 1..=n clusters");
    assert!(inter_permille <= 1000);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    let attr_domain = 10i64;

    let attr_ids: Vec<_> = (0..n_attrs).map(|i| b.attr(&format!("a{i}"))).collect();
    let colors: Vec<_> = (0..n_colors).map(|i| b.color(&format!("c{i}"))).collect();
    for i in 0..n {
        let pairs: Vec<_> = attr_ids
            .iter()
            .map(|&id| (id, AttrValue::Int(rng.gen_range(0..attr_domain))))
            .collect();
        b.add_node(&format!("v{i}"), pairs);
    }
    // contiguous blocks of (almost) equal size
    let block = n.div_ceil(clusters);
    let bounds = |c: usize| (c * block, ((c + 1) * block).min(n));
    let mut seen = std::collections::HashSet::with_capacity(e * 2);
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < e && attempts < e * 30 {
        attempts += 1;
        let (u, v) = if rng.gen_range(0..1000u32) < inter_permille {
            // cross-cluster edge: endpoints from two distinct clusters
            let cu = rng.gen_range(0..clusters);
            let cv = (cu + rng.gen_range(1..clusters.max(2))) % clusters;
            let (ul, uh) = bounds(cu);
            let (vl, vh) = bounds(cv);
            if cu == cv || ul >= uh || vl >= vh {
                continue;
            }
            (rng.gen_range(ul..uh), rng.gen_range(vl..vh))
        } else {
            let c = rng.gen_range(0..clusters);
            let (lo, hi) = bounds(c);
            if hi - lo < 2 {
                continue;
            }
            (rng.gen_range(lo..hi), rng.gen_range(lo..hi))
        };
        if u == v {
            continue;
        }
        let c = colors[rng.gen_range(0..n_colors)];
        let (un, vn) = (
            crate::graph::NodeId(u as u32),
            crate::graph::NodeId(v as u32),
        );
        if seen.insert((un, vn, c)) {
            b.add_edge(un, vn, c);
            added += 1;
        }
    }
    b.build()
}

const YT_CATEGORIES: [&str; 12] = [
    "Music",
    "Film & Animation",
    "Comedy",
    "Sports",
    "News & Politics",
    "Gaming",
    "Howto & Style",
    "Education",
    "Science & Technology",
    "Entertainment",
    "Pets & Animals",
    "Travel & Events",
];

/// YouTube-like video network (§6, "Real-life data (a)").
///
/// Schema matches the paper's description: each node is a video with
/// `uid` (uploader), `cat` (category), `len` (minutes), `com` (comment
/// count), `age` (days since upload) and `view` (view count); edge colors
/// are `fc`/`fr` (friends recommendation/reference) and `sc`/`sr`
/// (strangers recommendation/reference). At `n = 8350` the density matches
/// the paper's 30 391 edges (≈ 3.64·n). Out-degrees are skewed (a few
/// popular videos attract many references), like real recommendation data.
///
/// Deterministic in `seed`.
pub fn youtube_like(n: usize, seed: u64) -> Graph {
    assert!(n > 10);
    let e = n * 30_391 / 8_350;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();

    let uid = b.attr("uid");
    let cat = b.attr("cat");
    let len = b.attr("len");
    let com = b.attr("com");
    let age = b.attr("age");
    let view = b.attr("view");
    let colors = [b.color("fc"), b.color("fr"), b.color("sc"), b.color("sr")];

    let n_uploaders = (n / 8).max(1) as i64;
    for i in 0..n {
        let popular = rng.gen_bool(0.1);
        let views: i64 = if popular {
            rng.gen_range(100_000..2_000_000)
        } else {
            rng.gen_range(10..100_000)
        };
        b.add_node(
            &format!("video{i}"),
            [
                (uid, AttrValue::Int(rng.gen_range(0..n_uploaders))),
                (
                    cat,
                    AttrValue::Str(YT_CATEGORIES[rng.gen_range(0..YT_CATEGORIES.len())].into()),
                ),
                (len, AttrValue::Int(rng.gen_range(0..240))),
                (
                    com,
                    AttrValue::Int((views / rng.gen_range(50..500i64)).max(0)),
                ),
                (age, AttrValue::Int(rng.gen_range(0..2_000))),
                (view, AttrValue::Int(views)),
            ],
        );
    }
    let mut seen = std::collections::HashSet::with_capacity(e * 2);
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < e && attempts < e * 20 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        // quadratic skew: low-index videos act as "popular" hubs
        let t: f64 = rng.gen::<f64>();
        let v = ((t * t) * n as f64) as usize;
        if u == v || v >= n {
            continue;
        }
        let c = colors[rng.gen_range(0..4usize)];
        let (un, vn) = (
            crate::graph::NodeId(u as u32),
            crate::graph::NodeId(v as u32),
        );
        if seen.insert((un, vn, c)) {
            b.add_edge(un, vn, c);
            added += 1;
        }
    }
    b.build()
}

const COUNTRIES: usize = 40;
const TARGET_TYPES: [&str; 10] = [
    "Business",
    "Military",
    "Police",
    "Government",
    "Private Citizens & Property",
    "Transportation",
    "Utilities",
    "Religious Figures/Institutions",
    "Educational Institution",
    "Media",
];
const ATTACK_TYPES: [&str; 7] = [
    "Bombing",
    "Armed Assault",
    "Assassination",
    "Hostage Taking",
    "Facility Attack",
    "Hijacking",
    "Unarmed Assault",
];

/// Terrorist-organization collaboration network (§6, "Real-life data (b)"),
/// standing in for the network the paper derives from the Global Terrorism
/// Database: 818 organizations, 1 600 collaboration edges with colors `ic`
/// (international) and `dc` (domestic), attributes `gn` (group name),
/// `country`, `tt` (target type) and `at` (attack type).
///
/// A handful of well-known group names from the paper's Fig. 9(a) are
/// planted so the example query has named anchors. Deterministic in `seed`.
pub fn terrorism_like(seed: u64) -> Graph {
    let n = 818;
    let e = 1_600;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();

    let gn = b.attr("gn");
    let country = b.attr("country");
    let tt = b.attr("tt");
    let at = b.attr("at");
    let ic = b.color("ic");
    let dc = b.color("dc");

    let planted = [
        "Hamas",
        "Tanzim",
        "MEND",
        "Carlos the Jackal",
        "SSP",
        "Lashkar-e-Jhangvi",
    ];
    let mut countries: Vec<i64> = Vec::with_capacity(n);
    let mut by_country: Vec<Vec<usize>> = vec![Vec::new(); COUNTRIES];
    for i in 0..n {
        let name = if i < planted.len() {
            planted[i].to_owned()
        } else {
            format!("TO-{i}")
        };
        let cty = rng.gen_range(0..COUNTRIES as i64);
        countries.push(cty);
        by_country[cty as usize].push(i);
        b.add_node(
            &format!("org{i}"),
            [
                (gn, AttrValue::Str(name)),
                (country, AttrValue::Int(cty)),
                (
                    tt,
                    AttrValue::Str(TARGET_TYPES[rng.gen_range(0..TARGET_TYPES.len())].into()),
                ),
                (
                    at,
                    AttrValue::Str(ATTACK_TYPES[rng.gen_range(0..ATTACK_TYPES.len())].into()),
                ),
            ],
        );
    }
    // Edge colors carry the GTD semantics: `dc` (domestic collaboration)
    // connects organizations of the same country, `ic` (international)
    // crosses countries. This structure is what makes color-blind matching
    // (the `Match` baseline) over-report, as in the paper's Fig. 9(b).
    let mut seen = std::collections::HashSet::with_capacity(e * 2);
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < e && attempts < e * 30 {
        attempts += 1;
        // collaborations cluster: half the edges touch the first 80 groups
        let pick = |rng: &mut StdRng| -> usize {
            if rng.gen_bool(0.5) {
                rng.gen_range(0..80usize.min(n))
            } else {
                rng.gen_range(0..n)
            }
        };
        let u = pick(&mut rng);
        let (v, c) = if rng.gen_bool(0.55) {
            // domestic: same-country partner
            let peers = &by_country[countries[u] as usize];
            if peers.len() < 2 {
                continue;
            }
            (peers[rng.gen_range(0..peers.len())], dc)
        } else {
            (pick(&mut rng), ic)
        };
        if u == v || (c == ic && countries[u] == countries[v]) {
            continue;
        }
        let (un, vn) = (
            crate::graph::NodeId(u as u32),
            crate::graph::NodeId(v as u32),
        );
        if seen.insert((un, vn, c)) {
            b.add_edge(un, vn, c);
            added += 1;
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn essembly_shape() {
        let g = essembly();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 14);
        assert_eq!(g.alphabet().len(), 4);
        let c3 = g.node_by_label("C3").unwrap();
        let b1 = g.node_by_label("B1").unwrap();
        let fnc = g.alphabet().get("fn").unwrap();
        assert!(g.has_edge(c3, b1, fnc));
        let job = g.schema().get("job").unwrap();
        assert_eq!(g.attrs(b1).get(job), Some(&AttrValue::Str("doctor".into())));
    }

    #[test]
    fn synthetic_sizes_and_determinism() {
        let g1 = synthetic(100, 300, 3, 4, 42);
        let g2 = synthetic(100, 300, 3, 4, 42);
        assert_eq!(g1.node_count(), 100);
        assert_eq!(g1.edge_count(), 300);
        assert_eq!(g1.alphabet().len(), 4);
        assert_eq!(g1.schema().len(), 3);
        // determinism
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
        // different seed, different graph
        let g3 = synthetic(100, 300, 3, 4, 43);
        let e3: Vec<_> = g3.edges().collect();
        assert_ne!(e1, e3);
    }

    #[test]
    fn clustered_shape_and_determinism() {
        let g1 = clustered(200, 800, 4, 2, 3, 50, 9);
        let g2 = clustered(200, 800, 4, 2, 3, 50, 9);
        assert_eq!(g1.node_count(), 200);
        assert!(
            g1.edge_count() >= 700,
            "density too low: {}",
            g1.edge_count()
        );
        assert_eq!(g1.alphabet().len(), 3);
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2, "deterministic in seed");
        // most edges stay within a 50-node block
        let block = 50usize;
        let inter = g1
            .edges()
            .filter(|&(u, v, _)| u.index() / block != v.index() / block)
            .count();
        assert!(
            (inter as f64) < 0.15 * g1.edge_count() as f64,
            "expected ~5% cross-cluster edges, got {inter}/{}",
            g1.edge_count()
        );
    }

    #[test]
    fn youtube_like_schema() {
        let g = youtube_like(500, 7);
        assert_eq!(g.node_count(), 500);
        assert!(g.edge_count() > 1500, "density too low: {}", g.edge_count());
        for name in ["uid", "cat", "len", "com", "age", "view"] {
            assert!(g.schema().get(name).is_some(), "missing attr {name}");
        }
        for color in ["fc", "fr", "sc", "sr"] {
            assert!(g.alphabet().get(color).is_some(), "missing color {color}");
        }
    }

    #[test]
    fn terrorism_like_schema() {
        let g = terrorism_like(3);
        assert_eq!(g.node_count(), 818);
        assert!(g.edge_count() >= 1500);
        assert_eq!(g.alphabet().len(), 2);
        let gn = g.schema().get("gn").unwrap();
        let hamas = g
            .nodes()
            .find(|&v| g.attrs(v).get(gn) == Some(&AttrValue::Str("Hamas".into())));
        assert!(hamas.is_some());
    }
}
