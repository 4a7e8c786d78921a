//! Benchmark: the `JoinMatch` vs `SplitMatch` crossover sweep.
//!
//! A one-shot table, not a timed criterion group: both algorithms on ring
//! (cyclic) and chain (acyclic) patterns of growing normalized size, over
//! the matrix and the hop-label backend — the measurement behind the
//! planner's `SPLIT_CROSSOVER` shape rule, printed next to the constant so
//! drift is visible in bench output; join and split answer sizes are
//! asserted equal on every row. It is the one measurement the ledger
//! (`bench/`, `BENCHMARK.json`) does not carry, and stays only until the
//! planner audit (ROADMAP item 5(a)) replaces it.

use criterion::{criterion_group, criterion_main, Criterion};
use rpq_core::pq::Pq;
use rpq_core::predicate::Predicate;
use rpq_core::reach::ProbeReach;
use rpq_core::{join_match::JoinMatch, split_match::SplitMatch};
use rpq_engine::planner::SPLIT_CROSSOVER;
use rpq_graph::gen::youtube_like;
use rpq_graph::DistanceMatrix;
use rpq_regex::FRegex;
use std::time::Instant;

/// Ring patterns (one SCC spanning the whole pattern) and chain patterns
/// (acyclic) of growing edge count, timed on both index backends.
fn crossover_sweep(_c: &mut Criterion) {
    let g = youtube_like(1_500, 7);
    let m = DistanceMatrix::build(&g);
    let labels = rpq_index::HopLabels::build(&g);
    let pred = |s: &str| Predicate::parse(s, g.schema()).unwrap();
    let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();

    let pattern = |edges: usize, ring: bool| -> Pq {
        let mut pq = Pq::new();
        let colors = ["fc", "fr", "sc", "sr"];
        let nodes: Vec<usize> = (0..edges)
            .map(|i| {
                pq.add_node(
                    &format!("n{i}"),
                    // loose alternating predicates keep match sets large
                    // enough that refinement cost dominates bookkeeping
                    pred(if i % 2 == 0 {
                        "len >= 30"
                    } else {
                        "age <= 1500"
                    }),
                )
            })
            .collect();
        for i in 0..edges {
            let from = nodes[i];
            let to = if i + 1 == edges {
                if ring {
                    nodes[0]
                } else {
                    pq.add_node("tail", pred("view >= 1000"))
                }
            } else {
                nodes[i + 1]
            };
            pq.add_edge(from, to, re(colors[i % colors.len()]));
        }
        pq
    };

    fn timed(mut f: impl FnMut() -> usize) -> (f64, usize) {
        let mut size = 0;
        let t0 = Instant::now();
        for _ in 0..3 {
            size = f();
        }
        (t0.elapsed().as_secs_f64() / 3.0, size)
    }

    println!("crossover sweep (1.5k nodes): join vs split, ring & chain patterns");
    println!("planner constant: SPLIT_CROSSOVER = {SPLIT_CROSSOVER} (normalized |Vp|+|Ep|)");
    println!("size | shape | backend |   join (s) |  split (s) | join/split");
    for edges in [2usize, 4, 8, 12, 16, 24] {
        for ring in [true, false] {
            let pq = pattern(edges, ring);
            let norm_size = pq.size(); // single-atom edges: already normal
            type Timing = (f64, usize);
            let runs: [(&str, Timing, Timing); 2] = [
                (
                    "dm",
                    timed(|| JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m)).size()),
                    timed(|| SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&m)).size()),
                ),
                (
                    "hop",
                    timed(|| JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&labels)).size()),
                    timed(|| SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&labels)).size()),
                ),
            ];
            for (backend, (tj, sj), (ts, ss)) in runs {
                assert_eq!(sj, ss, "join and split disagree at size {norm_size}");
                println!(
                    "{norm_size:4} | {} | {backend:>7} | {tj:10.4} | {ts:10.4} | {:10.2}",
                    if ring { "ring " } else { "chain" },
                    tj / ts.max(1e-9)
                );
            }
        }
    }
}

criterion_group!(benches, crossover_sweep);
criterion_main!(benches);
