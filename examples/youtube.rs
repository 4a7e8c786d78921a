//! Fig. 9(a), left side: pattern query Q1 on a YouTube-like video network
//! (a seeded stand-in for the paper's crawl — see the `rpq_graph::gen`
//! module docs), plus the minimization workflow of Exp-2.
//!
//! Run with: `cargo run --release --example youtube`

use rpq::prelude::*;
use std::time::Instant;

fn main() {
    let g = rpq::graph::gen::youtube_like(3000, 7);
    println!(
        "YouTube-like network: {} videos, {} recommendation/reference edges",
        g.node_count(),
        g.edge_count()
    );

    // Fig. 9(a)'s Q1 shape: Film & Animation videos with active comments,
    // related to videos of one uploader via friends references (fr) or
    // recommendations (fc), which in turn relate to high-view videos.
    let mut pq = Pq::new();
    let a = pq.add_node(
        "A",
        Predicate::parse(
            "cat = \"Film & Animation\" && com > 20 && age > 300",
            g.schema(),
        )
        .unwrap(),
    );
    let bnode = pq.add_node("B", Predicate::parse("uid <= 30", g.schema()).unwrap());
    let c = pq.add_node(
        "C",
        Predicate::parse("cat = \"Music\" && len > 4 && age > 600", g.schema()).unwrap(),
    );
    let d = pq.add_node("D", Predicate::parse("view > 160000", g.schema()).unwrap());
    let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
    pq.add_edge(a, bnode, re("fr^5 fc"));
    pq.add_edge(bnode, c, re("sr^6 fr"));
    pq.add_edge(bnode, d, re("_+"));
    pq.add_edge(c, d, re("sr^5 fr"));

    let t0 = Instant::now();
    let matrix = DistanceMatrix::build(&g);
    println!(
        "distance matrix built in {:.2?} ({} MB)",
        t0.elapsed(),
        DistanceMatrix::bytes_for(&g) / (1 << 20)
    );

    let t1 = Instant::now();
    let res = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&matrix));
    println!("JoinMatchM evaluated Q1 in {:.2?}", t1.elapsed());
    if res.is_empty() {
        println!("no matches — try another seed");
    } else {
        for (u, lbl) in [(a, "A"), (bnode, "B"), (c, "C"), (d, "D")] {
            println!("  {lbl}: {} matching videos", res.node_matches(u).len());
        }
        println!("  Σ|Se| = {}", res.size());
    }

    // ---- Exp-2 workflow: minimize, then evaluate the smaller query -----
    // blow the query up with equivalent duplicate branches
    let mut fat = pq.clone();
    let b2 = fat.add_node("B'", Predicate::parse("uid <= 30", g.schema()).unwrap());
    fat.add_edge(a, b2, re("fr^5 fc"));
    fat.add_edge(b2, c, re("sr^6 fr"));
    fat.add_edge(b2, d, re("_+"));
    let t2 = Instant::now();
    let slim = minimize(&fat);
    let t_min = t2.elapsed();
    println!(
        "\nminPQs: |Q| {} -> {} in {t_min:.2?} (equivalent: {})",
        fat.size(),
        slim.size(),
        rpq::core::pq_equivalent(&slim, &fat)
    );

    let t3 = Instant::now();
    let res_fat = JoinMatch::eval(&fat, &g, &mut ProbeReach::new(&matrix));
    let t_fat = t3.elapsed();
    let t4 = Instant::now();
    let res_slim = JoinMatch::eval(&slim, &g, &mut ProbeReach::new(&matrix));
    let t_slim = t4.elapsed();
    println!("evaluating the original took {t_fat:.2?}, the minimized {t_slim:.2?}");
    // the surviving A-class node has the same matches
    let slim_a = (0..slim.node_count())
        .find(|&u| slim.node(u).label.starts_with('A'))
        .expect("A-class node survives minimization");
    assert_eq!(res_fat.node_matches(a), res_slim.node_matches(slim_a));
}
