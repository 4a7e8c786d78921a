//! Quickstart: build a small typed-edge graph, run a reachability query
//! (RQ) and a pattern query (PQ), and minimize a redundant pattern.
//!
//! Run with: `cargo run --example quickstart`

use rpq::prelude::*;

fn main() {
    // ---- build a data graph --------------------------------------------
    // A tiny collaboration network: researchers advise (ad) and cite (ci)
    // each other; some co-author (co).
    let mut b = GraphBuilder::new();
    let field = b.attr("field");
    let hindex = b.attr("h");
    let mk = |b: &mut GraphBuilder, name: &str, f: &str, h: i64| {
        b.add_node(name, [(field, f.into()), (hindex, h.into())])
    };
    let ada = mk(&mut b, "Ada", "databases", 60);
    let bob = mk(&mut b, "Bob", "databases", 25);
    let cat = mk(&mut b, "Cat", "systems", 40);
    let dan = mk(&mut b, "Dan", "theory", 15);
    let eve = mk(&mut b, "Eve", "databases", 8);

    let ad = b.color("ad");
    let ci = b.color("ci");
    let co = b.color("co");
    b.add_edge(ada, bob, ad); // Ada advises Bob
    b.add_edge(bob, eve, ad); // Bob advises Eve
    b.add_edge(eve, cat, ci); // Eve cites Cat
    b.add_edge(cat, dan, ci);
    b.add_edge(bob, cat, co); // Bob co-authors with Cat
    b.add_edge(cat, bob, co);
    b.add_edge(dan, ada, ci);
    let g = b.build();
    println!(
        "graph: {} nodes, {} edges, {} edge types",
        g.node_count(),
        g.edge_count(),
        g.alphabet().len()
    );

    // ---- a reachability query ------------------------------------------
    // "Which senior database researchers reach a systems person through at
    //  most two advisement hops followed by one citation?"
    let rq = Rq::new(
        Predicate::parse("field = \"databases\" && h >= 25", g.schema()).unwrap(),
        Predicate::parse("field = \"systems\"", g.schema()).unwrap(),
        FRegex::parse("ad^2 ci", g.alphabet()).unwrap(),
    );
    let matrix = DistanceMatrix::build(&g);
    let result = rq.eval_with_matrix(&g, &matrix);
    println!("\nRQ  (ad^2 ci):");
    for (x, y) in result.pairs() {
        println!("  {} -> {}", g.label(x), g.label(y));
    }
    // the three strategies agree
    assert_eq!(result, rq.eval_bfs(&g));
    assert_eq!(result, rq.eval_bibfs(&g));

    // ---- a pattern query -------------------------------------------------
    // A triangle: an advisor (databases) whose student co-authors with a
    // systems person, who in turn cites back into databases.
    let mut pq = Pq::new();
    let advisor = pq.add_node(
        "advisor",
        Predicate::parse("field = \"databases\" && h >= 25", g.schema()).unwrap(),
    );
    let student = pq.add_node(
        "student",
        Predicate::parse("field = \"databases\"", g.schema()).unwrap(),
    );
    let sys = pq.add_node(
        "sys",
        Predicate::parse("field = \"systems\"", g.schema()).unwrap(),
    );
    pq.add_edge(
        advisor,
        student,
        FRegex::parse("ad^2", g.alphabet()).unwrap(),
    );
    pq.add_edge(student, sys, FRegex::parse("co", g.alphabet()).unwrap());
    pq.add_edge(sys, student, FRegex::parse("co", g.alphabet()).unwrap());

    let res = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&matrix));
    println!("\nPQ matches (JoinMatch, matrix backend):");
    for (u, name) in [(advisor, "advisor"), (student, "student"), (sys, "sys")] {
        let labels: Vec<&str> = res.node_matches(u).iter().map(|&v| g.label(v)).collect();
        println!("  {name}: {labels:?}");
    }
    // SplitMatch with no index (probing the graph itself) gives the same
    // answer
    let res2 = SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&GraphProbe::new(&g)));
    assert_eq!(res, res2);

    // ---- minimization ----------------------------------------------------
    // Add a redundant twin of the student node: minPQs folds it away.
    let mut fat = pq.clone();
    let twin = fat.add_node(
        "student-twin",
        Predicate::parse("field = \"databases\"", g.schema()).unwrap(),
    );
    fat.add_edge(advisor, twin, FRegex::parse("ad^2", g.alphabet()).unwrap());
    fat.add_edge(twin, sys, FRegex::parse("co", g.alphabet()).unwrap());
    fat.add_edge(sys, twin, FRegex::parse("co", g.alphabet()).unwrap());
    let slim = minimize(&fat);
    println!(
        "\nminimize: |Q| {} -> {} (equivalent: {})",
        fat.size(),
        slim.size(),
        rpq::core::pq_equivalent(&slim, &fat)
    );
    assert!(slim.size() < fat.size());
}
