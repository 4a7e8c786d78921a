//! `big_graph` — serving RQs *and PQs* on a graph far beyond the matrix
//! node limit.
//!
//! Demonstrates the hop-label subsystem end to end: generate (or load) a
//! large 4-color graph, watch the first batch fall back to search while
//! the label index builds in the background, then watch later batches
//! switch to `hop` / `JoinMatch/hop` plans and report the speedup. One
//! query in eight is a pattern query, so the tick lines show both query
//! classes flipping off their fallbacks at once.
//!
//! ```text
//! cargo run --release --example big_graph [nodes] [batch] [ticks]
//! cargo run --release --example big_graph --edge-list FILE [batch] [ticks]
//! ```
//!
//! With `--edge-list`, FILE is a SNAP-style `FROM TO [COLOR]` text file
//! (see `Graph::from_edge_list`), so public datasets drop straight in.

use rpq::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn workload(g: &Graph, batch: usize, tick: usize) -> Vec<Query> {
    let names: Vec<String> = g
        .alphabet()
        .colors()
        .map(|c| g.alphabet().name(c).to_owned())
        .collect();
    let attrs: Vec<String> = (0..g.schema().len())
        .map(|i| g.schema().name(AttrId(i as u16)).to_owned())
        .collect();
    (0..batch)
        .map(|i| {
            let k = tick * batch + i;
            let a = &names[k % names.len()];
            let b = &names[(k / names.len() + 1) % names.len()];
            let re = format!("{a}^2 {b}");
            let (from, to) = if attrs.is_empty() {
                (Predicate::always_true(), Predicate::always_true())
            } else {
                (
                    Predicate::parse(
                        &format!("{} >= {}", attrs[k % attrs.len()], (k % 40) as i64),
                        g.schema(),
                    )
                    .unwrap(),
                    Predicate::always_true(),
                )
            };
            if i % 8 == 7 && !attrs.is_empty() {
                // every 8th query: a 2-node pattern — the PQ side of the
                // fallback→hop flip. Endpoints are *selective* (equality on
                // a sampled node's first attribute): while this tick still
                // serves the cached fallback, refinement cost scales with
                // the candidate sets, and an unselective pattern on a big
                // graph would stall the demo before the index ever landed.
                let sample = |j: usize| {
                    let v = NodeId(((j * 7919) % g.node_count()) as u32);
                    let attr = AttrId(0);
                    match g.attrs(v).get(attr) {
                        Some(AttrValue::Int(n)) => {
                            Predicate::parse(&format!("{} = {n}", attrs[0]), g.schema()).unwrap()
                        }
                        _ => Predicate::always_true(),
                    }
                };
                let mut pq = Pq::new();
                let x = pq.add_node("x", sample(k));
                let y = pq.add_node("y", sample(k + 1));
                pq.add_edge(x, y, FRegex::parse(&re, g.alphabet()).unwrap());
                Query::Pq(pq)
            } else {
                Query::Rq(Rq::new(from, to, FRegex::parse(&re, g.alphabet()).unwrap()))
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (g, rest) = if args.first().map(String::as_str) == Some("--edge-list") {
        let path = args.get(1).expect("--edge-list needs a FILE");
        let text = std::fs::read_to_string(path).expect("readable edge list");
        let g = Graph::from_edge_list(&text).expect("parsable edge list");
        println!(
            "loaded {} nodes / {} edges from {path}",
            g.node_count(),
            g.edge_count()
        );
        (g, &args[2..])
    } else {
        let nodes: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(50_000);
        println!("generating youtube-like graph with {nodes} nodes…");
        (rpq::graph::gen::youtube_like(nodes, 42), &args[1..])
    };
    let batch: usize = rest.first().and_then(|a| a.parse().ok()).unwrap_or(64);
    let ticks: usize = rest.get(1).and_then(|a| a.parse().ok()).unwrap_or(6);
    let g = Arc::new(g);

    let engine = QueryEngine::new(Arc::clone(&g));
    println!(
        "matrix: {} (limit {}, would need {:.1} GiB); hop-label budget {} MiB\n",
        if engine.matrix_available() {
            "available"
        } else {
            "over limit"
        },
        engine.config().matrix_node_limit,
        DistanceMatrix::bytes_for(&g) as f64 / (1 << 30) as f64,
        engine.config().hop_label_budget >> 20,
    );

    for tick in 0..ticks {
        let queries = workload(&g, batch, tick);
        let t0 = Instant::now();
        let result = engine.run_batch(&queries);
        let wall = t0.elapsed();
        let mut per_plan: BTreeMap<&'static str, usize> = BTreeMap::new();
        for item in result.items() {
            *per_plan.entry(item.plan.name()).or_insert(0) += 1;
        }
        println!(
            "tick {tick}: {} queries in {wall:?} ({:.0} q/s)  plans: {per_plan:?}  matches: {}",
            result.len(),
            result.len() as f64 / wall.as_secs_f64(),
            result
                .items()
                .iter()
                .map(|i| i.output.match_count())
                .sum::<usize>(),
        );
        if let Some(labels) = engine.hop().get() {
            if tick == 0 || per_plan.contains_key("hop") {
                println!("  index: {:?}, {}", engine.hop(), labels.stats());
            }
        } else if !engine.matrix_available() {
            println!("  index: {:?}, serving search fallback", engine.hop());
            // give the background build a moment before the next tick, so
            // the demo visibly flips from fallback to hop plans
            std::thread::sleep(Duration::from_millis(500));
        }
    }
}
