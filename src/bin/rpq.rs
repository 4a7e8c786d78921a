//! `rpq` — command-line front end.
//!
//! ```text
//! rpq <GRAPH-FILE> pq  <QUERY-FILE> [--algo join|split] [--backend matrix|cache]
//! rpq <GRAPH-FILE> rq  "<from-pred>" "<to-pred>" "<F-regex>"
//! rpq <GRAPH-FILE> grq "<from-pred>" "<to-pred>" "<general-regex>"
//! rpq <GRAPH-FILE> min <QUERY-FILE>
//! rpq <GRAPH-FILE> stats
//! ```
//!
//! Graph files use the `rpq-graph` text format (see `rpq_graph::io`);
//! pattern-query files use the `rpq-core` query language (see
//! `rpq_core::lang`). `pq --backend matrix` probes the per-color distance
//! matrix; `--backend cache` (the name the engine's `JoinMatch/cache` /
//! `SplitMatch/cache` plans share) builds no index and probes the graph
//! itself, one breadth-first sweep per refinement step.

use rpq::core::lang::{format_pq, parse_pq};
use rpq::core::reach::ProbeReach;
use rpq::core::{minimize, GRq, JoinMatch, MatrixReach, Rq, SplitMatch};
use rpq::graph::io::read_graph;
use rpq::graph::{DistanceMatrix, Graph};
use rpq::index::GraphProbe;
use rpq::prelude::{FRegex, Predicate};
use rpq_regex::GRegex;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        return Err(USAGE.into());
    }
    let graph_path = &args[0];
    let file = File::open(graph_path).map_err(|e| format!("cannot open {graph_path}: {e}"))?;
    let g = read_graph(&mut BufReader::new(file)).map_err(|e| e.to_string())?;

    match args[1].as_str() {
        "stats" => stats(&g),
        "rq" => rq(&g, &args[2..], false),
        "grq" => rq(&g, &args[2..], true),
        "pq" => pq(&g, &args[2..]),
        "min" => min(&g, &args[2..]),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

const USAGE: &str = "usage: rpq <GRAPH-FILE> <stats | rq FROM TO REGEX | grq FROM TO REGEX | pq QUERY-FILE [--algo join|split] [--backend matrix|cache] | min QUERY-FILE>
  pq --backend matrix: probe the per-color distance matrix (built first)
  pq --backend cache:  no index, probe the graph itself by breadth-first sweeps";

fn stats(g: &Graph) -> Result<(), String> {
    println!("nodes:  {}", g.node_count());
    println!("edges:  {}", g.edge_count());
    println!("colors: {}", g.alphabet().len());
    for c in g.alphabet().colors() {
        let count = g.edges().filter(|&(_, _, ec)| ec == c).count();
        println!("  {:<12} {count}", g.alphabet().name(c));
    }
    println!("attrs:  {}", g.schema().len());
    println!(
        "distance matrix would need {} MiB",
        DistanceMatrix::bytes_for(g) / (1 << 20)
    );
    Ok(())
}

fn rq(g: &Graph, rest: &[String], general: bool) -> Result<(), String> {
    let [from_src, to_src, regex_src] = rest else {
        return Err(format!("rq needs FROM TO REGEX\n{USAGE}"));
    };
    let from = Predicate::parse(from_src, g.schema()).map_err(|e| e.to_string())?;
    let to = Predicate::parse(to_src, g.schema()).map_err(|e| e.to_string())?;
    let result = if general {
        GRq::new(
            from,
            to,
            GRegex::parse(regex_src, g.alphabet()).map_err(|e| e.to_string())?,
        )
        .eval(g)
    } else {
        Rq::new(
            from,
            to,
            FRegex::parse(regex_src, g.alphabet()).map_err(|e| e.to_string())?,
        )
        .eval_bfs(g)
    };
    println!("{} pairs", result.len());
    for &(x, y) in result.as_slice() {
        println!("{} -> {}", g.label(x), g.label(y));
    }
    Ok(())
}

fn pq(g: &Graph, rest: &[String]) -> Result<(), String> {
    let Some(query_path) = rest.first() else {
        return Err(format!("pq needs a QUERY-FILE\n{USAGE}"));
    };
    let mut algo = "join";
    let mut backend = "matrix";
    let mut it = rest[1..].iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--algo" => algo = it.next().ok_or("--algo needs a value")?,
            "--backend" => backend = it.next().ok_or("--backend needs a value")?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let text = std::fs::read_to_string(query_path)
        .map_err(|e| format!("cannot read {query_path}: {e}"))?;
    let query = parse_pq(&text, g.schema(), g.alphabet()).map_err(|e| e.to_string())?;

    let graph = GraphProbe::new(g);
    let res = match (algo, backend) {
        ("join", "matrix") => {
            let m = DistanceMatrix::build(g);
            JoinMatch::eval(&query, g, &mut MatrixReach::new(&m))
        }
        ("join", "cache") => JoinMatch::eval(&query, g, &mut ProbeReach::new(&graph)),
        ("split", "matrix") => {
            let m = DistanceMatrix::build(g);
            SplitMatch::eval(&query, g, &mut MatrixReach::new(&m))
        }
        ("split", "cache") => SplitMatch::eval(&query, g, &mut ProbeReach::new(&graph)),
        _ => return Err(format!("unknown algo/backend {algo:?}/{backend:?}")),
    };

    if res.is_empty() {
        println!("no match");
        return Ok(());
    }
    for u in 0..query.node_count() {
        let labels: Vec<&str> = res.node_matches(u).iter().map(|&v| g.label(v)).collect();
        println!("{}: {}", query.node(u).label, labels.join(", "));
    }
    for (ei, e) in query.edges().iter().enumerate() {
        println!(
            "edge {} -> {} ({} pairs)",
            query.node(e.from).label,
            query.node(e.to).label,
            res.edge_matches(ei).len()
        );
    }
    Ok(())
}

fn min(g: &Graph, rest: &[String]) -> Result<(), String> {
    let Some(query_path) = rest.first() else {
        return Err(format!("min needs a QUERY-FILE\n{USAGE}"));
    };
    let text = std::fs::read_to_string(query_path)
        .map_err(|e| format!("cannot read {query_path}: {e}"))?;
    let query = parse_pq(&text, g.schema(), g.alphabet()).map_err(|e| e.to_string())?;
    let slim = minimize(&query);
    eprintln!("|Q| {} -> {}", query.size(), slim.size());
    print!("{}", format_pq(&slim, g.schema(), g.alphabet()));
    Ok(())
}
