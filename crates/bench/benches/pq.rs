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

    /// Timed runs per row and algorithm, after one untimed warm-up each:
    /// the ratio compares medians, and the min–max beside each median
    /// shows how far one run strays.
    const RUNS: usize = 9;

    /// Times join and split in alternation, so both meet the same
    /// machine: each one's median, min and max milliseconds, and its
    /// answer size (from the warm-up).
    fn race(algos: [&dyn Fn() -> usize; 2]) -> [([f64; 3], usize); 2] {
        let sizes = algos.map(|f| f());
        let mut ms = [Vec::new(), Vec::new()];
        for _ in 0..RUNS {
            for (f, ms) in algos.iter().zip(&mut ms) {
                let t0 = Instant::now();
                f();
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        [0, 1].map(|i| {
            ms[i].sort_by(f64::total_cmp);
            ([ms[i][RUNS / 2], ms[i][0], ms[i][RUNS - 1]], sizes[i])
        })
    }

    println!("crossover sweep (1.5k nodes): join vs split, ring & chain patterns");
    println!("planner constant: SPLIT_CROSSOVER = {SPLIT_CROSSOVER} (normalized |Vp|+|Ep|)");
    println!("each time is the median of {RUNS} alternated runs, min-max in brackets");
    println!(
        "size | shape | backend |  join (ms) [   min-max   ] | split (ms) [   min-max   ] | join/split"
    );
    for edges in [2usize, 4, 8, 12, 16, 24] {
        for ring in [true, false] {
            let pq = pattern(edges, ring);
            let norm_size = pq.size(); // single-atom edges: already normal
            let dm = race([
                &|| JoinMatch::eval(&pq, &g, &ProbeReach::new(&m)).size(),
                &|| SplitMatch::eval(&pq, &g, &ProbeReach::new(&m)).size(),
            ]);
            let hop = race([
                &|| JoinMatch::eval(&pq, &g, &ProbeReach::new(&labels)).size(),
                &|| SplitMatch::eval(&pq, &g, &ProbeReach::new(&labels)).size(),
            ]);
            for (backend, [([tj, jlo, jhi], sj), ([ts, slo, shi], ss)]) in
                [("dm", dm), ("hop", hop)]
            {
                assert_eq!(sj, ss, "join and split disagree at size {norm_size}");
                println!(
                    "{norm_size:4} | {} | {backend:>7} | {tj:10.3} [{jlo:5.3}-{jhi:5.3}] | {ts:10.3} [{slo:5.3}-{shi:5.3}] | {:10.2}",
                    if ring { "ring " } else { "chain" },
                    tj / ts.max(1e-9)
                );
            }
        }
    }
}

criterion_group!(benches, crossover_sweep);
criterion_main!(benches);
