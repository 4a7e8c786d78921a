//! Benchmark: PQ evaluation across the unified reachability-backend layer.
//!
//! Three measurements:
//!
//! * **small** (1.5k nodes, under the matrix limit): a mixed PQ batch on
//!   the matrix, hop-label and cached backends — the matrix regimes win,
//!   the labels sit close behind, the cached product search trails.
//! * **crossover sweep** (one-shot table): `JoinMatch` vs `SplitMatch` on
//!   ring (cyclic) and chain (acyclic) patterns of growing normalized
//!   size, over both index backends — the measurement behind the
//!   planner's `SPLIT_CROSSOVER` shape rule, printed next to the constant
//!   so drift is visible in bench output.
//! * **large** (50k nodes, 4 colors — far beyond any affordable matrix):
//!   the acceptance comparison. The same PQ batch runs through the
//!   planner's hop plans (`JoinMatch/hop`, `SplitMatch/hop`) and through a
//!   *forced* `JoinMatch/cache` engine (label budget 0); answers are
//!   asserted identical and the speedup line must carry the ≥ 10x bar.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_core::pq::Pq;
use rpq_core::predicate::Predicate;
use rpq_core::reach::ProbeReach;
use rpq_core::{join_match::JoinMatch, split_match::SplitMatch};
use rpq_engine::planner::SPLIT_CROSSOVER;
use rpq_engine::{Backend, EngineConfig, Query, QueryEngine};
use rpq_graph::gen::youtube_like;
use rpq_graph::{DistanceMatrix, Graph};
use rpq_regex::FRegex;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// A mixed 8-query PQ workload with selective endpoints: acyclic chains,
/// 2-cycles and a larger ring, over concrete colors (every color layer of
/// the hop index is exercised; no wildcard dependence, so a budget that
/// drops the wildcard layer still plans hop).
fn workload(g: &Graph, batch: usize) -> Vec<Query> {
    let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
    let pred = |s: &str| Predicate::parse(s, g.schema()).unwrap();
    let n_uploaders = (g.node_count() / 8) as i64;
    (0..batch)
        .map(|i| {
            let mut pq = Pq::new();
            // selective endpoints: a band of uploaders and long videos
            let lo = (i as i64 * 37) % n_uploaders.max(1);
            let a = pq.add_node("a", pred(&format!("uid <= {}", 40 + lo % 400)));
            let b = pq.add_node("b", pred(&format!("len >= {}", 180 + (i as i64 % 40))));
            match i % 4 {
                0 => {
                    // acyclic chain: a → b → c
                    let c = pq.add_node("c", pred("view >= 100000"));
                    pq.add_edge(a, b, re("fc^2 fr"));
                    pq.add_edge(b, c, re("sc^3"));
                }
                1 => {
                    // 2-cycle (small cyclic: stays JoinMatch)
                    pq.add_edge(a, b, re("fr sc"));
                    pq.add_edge(b, a, re("sr^2"));
                }
                2 => {
                    // diamond, acyclic
                    let c = pq.add_node("c", pred("com >= 1000"));
                    let d = pq.add_node("d", pred("age <= 500"));
                    pq.add_edge(a, b, re("fc^2"));
                    pq.add_edge(a, c, re("fr^2 sc"));
                    pq.add_edge(b, d, re("sc sr"));
                    pq.add_edge(c, d, re("sr^2"));
                }
                _ => {
                    // large ring past the split crossover
                    let c = pq.add_node("c", pred("view >= 50000"));
                    let d = pq.add_node("d", pred("age <= 1000"));
                    pq.add_edge(a, b, re("fc fr"));
                    pq.add_edge(b, c, re("sc^2 sr"));
                    pq.add_edge(c, d, re("fr^2"));
                    pq.add_edge(d, a, re("sr sc^2"));
                }
            }
            Query::Pq(pq)
        })
        .collect()
}

fn engine(g: &Arc<Graph>, matrix_limit: usize, hop_budget: usize) -> QueryEngine {
    QueryEngine::with_config(
        Arc::clone(g),
        EngineConfig::builder()
            .matrix_node_limit(matrix_limit)
            .hop_label_budget(hop_budget)
            .build()
            .unwrap(),
    )
}

fn bench_small_three_way(c: &mut Criterion) {
    let g = Arc::new(youtube_like(1_500, 11));
    let queries = workload(&g, 8);

    let dm = engine(&g, usize::MAX, 0);
    dm.force_matrix();
    let hop = engine(&g, 0, 256 << 20);
    hop.hop().force().expect("labels fit");
    let cached = engine(&g, 0, 0);
    for (e, want) in [
        (&dm, Backend::Matrix),
        (&hop, Backend::Hop),
        (&cached, Backend::Search),
    ] {
        for q in &queries {
            assert_eq!(e.plan_query(q).backend(), want, "regime mix-up");
        }
    }

    let mut group = c.benchmark_group("pq_backends_small_1500n");
    group.sample_size(10);
    for (name, e) in [("dm", &dm), ("hop", &hop), ("cached", &cached)] {
        group.bench_with_input(BenchmarkId::new(name, 8), &queries, |b, qs| {
            b.iter(|| black_box(e.run_batch(qs)))
        });
    }
    group.finish();
}

/// One-shot join-vs-split sweep: the measurement behind the planner's
/// `SPLIT_CROSSOVER`. Ring patterns (one SCC spanning the whole pattern)
/// and chain patterns (acyclic) of growing edge count, timed on both
/// index backends.
fn crossover_sweep(_c: &mut Criterion) {
    let g = Arc::new(youtube_like(1_500, 7));
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

fn bench_large_hop_vs_cached(c: &mut Criterion) {
    // 50k nodes, 4 colors: the dense matrix would need ~23 GiB, so the
    // matrix regime is unreachable and the planner's PQ choices are the
    // hop-label backends vs the cached product search.
    //
    // In CI smoke (`cargo bench -- --test`, one iteration per bench) a
    // cached PQ batch at this size runs minutes; 2 queries still prove
    // hop == cached at 50k and keep the smoke step cheap, while real
    // bench runs measure the full 8.
    let smoke = std::env::args().any(|a| a == "--test");
    let g = Arc::new(youtube_like(50_000, 42));
    let queries = workload(&g, if smoke { 2 } else { 8 });

    let hop = engine(&g, 2048, 256 << 20);
    let t0 = Instant::now();
    let labels = hop.hop().force().expect("labels fit the budget");
    println!("hop-label build: {:?} — {}", t0.elapsed(), labels.stats());
    let cached = engine(&g, 2048, 0);
    for q in &queries {
        let p = hop.plan_query(q);
        assert_eq!(
            p.backend(),
            Backend::Hop,
            "hop engine must exercise the hop PQ plans, got {p:?}"
        );
        let p = cached.plan_query(q);
        assert_eq!(
            p.backend(),
            Backend::Search,
            "fallback engine must exercise the cached plans, got {p:?}"
        );
    }

    // acceptance line: identical answers, ≥10x wall-clock gap
    let t_hop = Instant::now();
    let out_hop = hop.run_batch(&queries);
    let t_hop = t_hop.elapsed();
    let t_cached = Instant::now();
    let out_cached = cached.run_batch(&queries);
    let t_cached = t_cached.elapsed();
    for (a, b) in out_hop.items().iter().zip(out_cached.items()) {
        assert_eq!(a.output, b.output, "hop answers must equal cached answers");
    }
    println!(
        "{}-query PQ batch @50k nodes: hop {t_hop:?} vs cached {t_cached:?} — {:.1}x speedup",
        queries.len(),
        t_cached.as_secs_f64() / t_hop.as_secs_f64().max(1e-9)
    );

    // criterion samples only the hop side: one cached batch at this scale
    // runs ~15 minutes wall (a single 4-edge ring costs ~5.5 minutes of
    // product search), so the cached cost is carried entirely by the
    // single one-shot comparison above
    let mut group = c.benchmark_group("pq_backends_large_50000n");
    group.sample_size(2);
    group.bench_with_input(BenchmarkId::new("hop", queries.len()), &queries, |b, qs| {
        b.iter(|| black_box(hop.run_batch(qs)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_small_three_way,
    crossover_sweep,
    bench_large_hop_vs_cached
);
criterion_main!(benches);
