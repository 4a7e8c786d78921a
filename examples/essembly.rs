//! The paper's running example (Fig. 1): the Essembly debate network,
//! query Q1 (an RQ) and query Q2 (a PQ), reproducing Examples 2.2 and 2.3.
//!
//! Run with: `cargo run --example essembly`

use rpq::prelude::*;

fn main() {
    let g = rpq::graph::gen::essembly();
    println!(
        "Essembly network (Fig. 1): {} people, {} relationships",
        g.node_count(),
        g.edge_count()
    );
    for v in g.nodes() {
        let attrs: Vec<String> = g
            .attrs(v)
            .iter()
            .map(|(id, val)| format!("{} = {}", g.schema().name(id), val))
            .collect();
        println!("  {}: {}", g.label(v), attrs.join(", "));
    }

    // ---- Q1: an RQ (Example 2.2) ---------------------------------------
    // biologists supporting cloning who reach, via at most two
    // friends-allies hops then one friends-nemeses edge, some doctor
    let q1 = Rq::new(
        Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap(),
        Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        FRegex::parse("fa^2 fn", g.alphabet()).unwrap(),
    );
    let matrix = DistanceMatrix::build(&g);
    let r1 = q1.eval_with_matrix(&g, &matrix);
    println!("\nQ1 = (C, B, fa^2 fn). Q1(G):");
    for (x, y) in r1.pairs() {
        println!("  ({}, {})", g.label(x), g.label(y));
    }
    // Example 2.2's table
    let n = |l: &str| g.node_by_label(l).unwrap();
    assert_eq!(
        r1.pairs(),
        vec![
            (n("C1"), n("B1")),
            (n("C1"), n("B2")),
            (n("C2"), n("B1")),
            (n("C2"), n("B2")),
        ]
    );

    // ---- Q2: a PQ (Example 2.3) ------------------------------------------
    let mut q2 = Pq::new();
    let b = q2.add_node(
        "B",
        Predicate::parse("job = \"doctor\" && dsp = \"cloning\"", g.schema()).unwrap(),
    );
    let c = q2.add_node(
        "C",
        Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap(),
    );
    let d = q2.add_node(
        "D",
        Predicate::parse("uid = \"Alice001\"", g.schema()).unwrap(),
    );
    let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
    let edges = [
        (b, c, "fn"),
        (c, b, "fn"),
        (c, c, "fa+"),
        (b, d, "fn"),
        (c, d, "fa^2 sa^2"),
    ];
    for &(u, v, r) in &edges {
        q2.add_edge(u, v, re(r));
    }

    let res = JoinMatch::eval(&q2, &g, &mut MatrixReach::new(&matrix));
    println!("\nQ2(G) per edge (Example 2.3's table):");
    for (ei, &(u, v, r)) in edges.iter().enumerate() {
        let pairs: Vec<String> = res
            .edge_matches(ei)
            .iter()
            .map(|&(x, y)| format!("({}, {})", g.label(x), g.label(y)))
            .collect();
        println!(
            "  ({}, {}) via {:<9}: {}",
            q2.node(u).label,
            q2.node(v).label,
            r,
            pairs.join(", ")
        );
    }
    // the (C,D) subtlety of Example 2.3: C1 has a qualifying path to D1 but
    // is still not a match, because it fails the (C,B) constraint
    let c1 = n("C1");
    assert!(!res.node_matches(c).contains(&c1));
    // all three evaluation routes agree
    assert_eq!(
        res,
        SplitMatch::eval(&q2, &g, &mut MatrixReach::new(&matrix))
    );
    assert_eq!(
        res,
        JoinMatch::eval(&q2, &g, &mut ProbeReach::new(&GraphProbe::new(&g)))
    );
    println!("\nJoinMatch (matrix), SplitMatch (matrix) and JoinMatch (graph, no index) agree.");
}
