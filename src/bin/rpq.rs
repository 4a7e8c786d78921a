//! `rpq` — command-line front end.
//!
//! ```text
//! rpq <GRAPH-FILE> rq  "<from-pred>" "<to-pred>" "<F-regex>"
//! rpq <GRAPH-FILE> pq  <QUERY-FILE>
//! rpq <GRAPH-FILE> grq "<from-pred>" "<to-pred>" "<general-regex>"
//! rpq <GRAPH-FILE> min <QUERY-FILE>
//! rpq <GRAPH-FILE> stats
//! ```
//!
//! Graph files use the `rpq-graph` text format (see `rpq_graph::io`);
//! pattern-query files use the `rpq-core` query language (see
//! `rpq_core::lang`). `rq` and `pq` run through the query engine, which
//! builds the index its default configuration calls for, and print the
//! plan it chose before the answer. `grq` evaluates a §7 general
//! expression by product-automaton search (`GRq::eval`, the one evaluator
//! of that class). Exit status: 0 on success; 2 on any error — usage, an
//! unreadable file, a bad predicate, regex or query — after printing
//! `error: …`.

use rpq::core::lang::{format_pq, parse_pq};
use rpq::core::{minimize, GRq};
use rpq::engine::{Query, QueryOutput, UpdatableEngine};
use rpq::graph::io::read_graph;
use rpq::graph::{DistanceMatrix, Graph, NodeId};
use rpq::prelude::Predicate;
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

    let rest = &args[2..];
    match args[1].as_str() {
        "stats" => stats(&g),
        "rq" => {
            let [from, to, regex] = rest else {
                return Err(format!("rq needs FROM TO REGEX\n{USAGE}"));
            };
            let query = Query::parse_rq(from, to, regex, &g).map_err(|e| e.to_string())?;
            serve(g, query)
        }
        "pq" => {
            let query = Query::parse_pq(&query_file("pq", rest)?, &g).map_err(|e| e.to_string())?;
            serve(g, query)
        }
        "grq" => grq(&g, rest),
        "min" => min(&g, rest),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

const USAGE: &str = "usage: rpq <GRAPH-FILE> <stats | rq FROM TO REGEX | pq QUERY-FILE | grq FROM TO REGEX | min QUERY-FILE>";

/// The text of the one QUERY-FILE argument `cmd` takes.
fn query_file(cmd: &str, rest: &[String]) -> Result<String, String> {
    let [path] = rest else {
        return Err(format!("{cmd} needs one QUERY-FILE\n{USAGE}"));
    };
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

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

/// Plan and answer `query` on an engine over `g`.
fn serve(g: Graph, query: Query) -> Result<(), String> {
    let engine = UpdatableEngine::new(g).snapshot();
    let g = engine.graph();
    println!("plan: {}", engine.plan_query(&query).name());
    match (engine.run_query(&query), &query) {
        (QueryOutput::Rq(result), _) => print_pairs(g, result.as_slice()),
        (QueryOutput::Pq(res), Query::Pq(query)) => {
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
        }
        (QueryOutput::Pq(_), Query::Rq(_)) => unreachable!("an RQ has an RQ answer"),
    }
    Ok(())
}

fn grq(g: &Graph, rest: &[String]) -> Result<(), String> {
    let [from, to, regex] = rest else {
        return Err(format!("grq needs FROM TO REGEX\n{USAGE}"));
    };
    let result = GRq::new(
        Predicate::parse(from, g.schema()).map_err(|e| e.to_string())?,
        Predicate::parse(to, g.schema()).map_err(|e| e.to_string())?,
        GRegex::parse(regex, g.alphabet()).map_err(|e| e.to_string())?,
    )
    .eval(g);
    print_pairs(g, result.as_slice());
    Ok(())
}

fn print_pairs(g: &Graph, pairs: &[(NodeId, NodeId)]) {
    println!("{} pairs", pairs.len());
    for &(x, y) in pairs {
        println!("{} -> {}", g.label(x), g.label(y));
    }
}

fn min(g: &Graph, rest: &[String]) -> Result<(), String> {
    let query =
        parse_pq(&query_file("min", rest)?, g.schema(), g.alphabet()).map_err(|e| e.to_string())?;
    let slim = minimize(&query);
    eprintln!("|Q| {} -> {}", query.size(), slim.size());
    print!("{}", format_pq(&slim, g.schema(), g.alphabet()));
    Ok(())
}
