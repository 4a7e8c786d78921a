//! Fig. 9(a), right side: pattern query Q2 on the terrorist-organization
//! collaboration network (a seeded stand-in for the paper's GTD-derived
//! graph — see the `rpq_graph::gen` module docs).
//!
//! The query anchors on the planted "Hamas" organization and looks for
//! collaboration triangles through international (`ic`) and domestic
//! (`dc`) collaboration chains.
//!
//! Run with: `cargo run --release --example terrorism`

use rpq::prelude::*;

fn main() {
    let g = rpq::graph::gen::terrorism_like(42);
    println!(
        "terrorist-organization network: {} orgs, {} collaboration edges",
        g.node_count(),
        g.edge_count()
    );

    // Fig. 9(a)'s Q2 shape: a named anchor plus organizations related via
    // ic^2 dc+ / ic^2 / dc+ chains, with target/attack-type conditions.
    let mut pq = Pq::new();
    let a = pq.add_node("A", Predicate::parse("gn = \"Hamas\"", g.schema()).unwrap());
    let bnode = pq.add_node(
        "B",
        Predicate::parse("tt = \"Business\"", g.schema()).unwrap(),
    );
    let c = pq.add_node(
        "C",
        Predicate::parse("tt = \"Military\"", g.schema()).unwrap(),
    );
    let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
    pq.add_edge(bnode, a, re("ic^2 dc+"));
    pq.add_edge(c, a, re("ic+"));
    pq.add_edge(bnode, c, re("_^3"));

    let matrix = DistanceMatrix::build(&g);
    let res = JoinMatch::eval(&pq, &g, &ProbeReach::new(&matrix));
    let gn = g.schema().get("gn").unwrap();
    let name = |v: rpq::graph::NodeId| match g.attrs(v).get(gn) {
        Some(rpq::graph::AttrValue::Str(s)) => s.clone(),
        _ => g.label(v).to_owned(),
    };

    if res.is_empty() {
        println!("no matches — try another seed");
        return;
    }
    println!("\nmatches:");
    for (u, lbl) in [
        (a, "A (anchor)"),
        (bnode, "B (armed assault/business)"),
        (c, "C (bombing/military)"),
    ] {
        let names: Vec<String> = res
            .node_matches(u)
            .iter()
            .take(8)
            .map(|&v| name(v))
            .collect();
        println!(
            "  {lbl}: {} orgs, e.g. {}",
            res.node_matches(u).len(),
            names.join(", ")
        );
    }
    println!("\nedge match counts (Σ|Se| = {}):", res.size());
    for (ei, e) in pq.edges().iter().enumerate() {
        println!(
            "  ({} -> {} via {}): {}",
            pq.node(e.from).label,
            pq.node(e.to).label,
            e.regex.display(g.alphabet()),
            res.edge_matches(ei).len()
        );
    }

    // contrast with the color-blind bounded-simulation baseline
    let relaxed = rpq::core::baseline::bounded_sim_match(&pq, &g, &ProbeReach::new(&matrix));
    println!(
        "\nbounded simulation (Match, colors ignored) finds {} edge matches — {}x the PQ's, most of them spurious",
        relaxed.size(),
        if res.size() > 0 { relaxed.size() / res.size().max(1) } else { 0 }
    );
}
