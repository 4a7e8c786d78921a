//! Leaf microbenches: each layer's hot public functions, timed alone on
//! inputs sampled from the workload — the numbers a change to one layer
//! should move first. The index probed here is the ledger's own copy of
//! the workload's regime (matrix, hop labels or sharded labels), built
//! through the index crates' public constructors; the serving engine's
//! copy is never reached into.

use crate::inputs::{mix, selective_pq, Inputs, Kind, Request, CLUSTERS, DATASET_SEED, SMALL_PQ};
use crate::report::RunReport;
use crate::stats::median;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_bench::querygen::{generate_pq, generate_rq};
use rpq_core::incremental::{DynamicGraph, IncrementalMatcher};
use rpq_core::reach::ProbeReach;
use rpq_core::{canonical_pq, canonical_rq, JoinMatch, SplitMatch};
use rpq_engine::Query;
use rpq_graph::algo::{bfs_distances, Direction};
use rpq_graph::{Color, DistanceMatrix, Graph, NodeId};
use rpq_index::{DistProbe, HopLabels, ShardedLabels};
use rpq_regex::canon::{canonicalize, contains_fast};
use rpq_regex::FRegex;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// RNG stream of the microbench samples (the request streams use 1–5).
const S_MICRO: u64 = 6;
/// Where the microbenches read the update stream, clear of the write block.
const UPDATES_FROM: u64 = 1000;
/// Requests of the stream whose regexes are the regex-layer sample.
const REGEXES_FROM: u64 = 128;
/// Timed microbenches sharing the budget.
const SLICES: u32 = 15;
/// Hop bound of the sampled scans — the bound the workloads' regexes use.
const SCAN_BOUND: u16 = 3;

enum OwnIndex {
    Matrix(DistanceMatrix),
    Hop(HopLabels),
    Sharded(ShardedLabels),
}

impl OwnIndex {
    fn build(kind: Kind, graph: &Arc<Graph>) -> OwnIndex {
        match kind {
            Kind::MatrixPq => OwnIndex::Matrix(DistanceMatrix::build(graph)),
            Kind::HopUnique | Kind::HopZipf => OwnIndex::Hop(HopLabels::build(graph)),
            Kind::ShardedLive => OwnIndex::Sharded(ShardedLabels::build(graph, CLUSTERS)),
        }
    }

    fn probe(&self) -> &(dyn DistProbe + Sync) {
        match self {
            OwnIndex::Matrix(m) => m,
            OwnIndex::Hop(h) => h,
            OwnIndex::Sharded(s) => s,
        }
    }

    fn bytes(&self, graph: &Graph) -> usize {
        match self {
            OwnIndex::Matrix(_) => DistanceMatrix::bytes_for(graph),
            OwnIndex::Hop(h) => h.bytes(),
            OwnIndex::Sharded(s) => s.stats().total_bytes(),
        }
    }
}

/// Call `f` on every input, pass after pass, until `slice` is spent (at
/// least two passes when the first one leaves room). One sample per pass:
/// seconds per call. Returns the median and the number of passes.
fn bench<I>(slice: Duration, inputs: &[I], mut f: impl FnMut(&I)) -> (f64, usize) {
    let started = Instant::now();
    let mut samples = Vec::new();
    while !inputs.is_empty() && samples.len() < 10_000 {
        let t = Instant::now();
        for input in inputs {
            f(input);
        }
        samples.push(t.elapsed().as_secs_f64() / inputs.len() as f64);
        if started.elapsed() >= slice && samples.len() >= 2 {
            break;
        }
        if started.elapsed() >= slice * 4 {
            break;
        }
    }
    (median(&samples).unwrap_or(f64::NAN), samples.len())
}

pub fn run(inputs: &Inputs, budget: Duration, report: &mut RunReport) {
    // samples are drawn with the dataset's seed, not the traffic's: the
    // same leaf inputs on every run, so a leaf number moves only when its
    // layer does
    let inputs = &Inputs::over(inputs.kind, DATASET_SEED, Arc::clone(&inputs.graph));
    let g = &*inputs.graph;
    let seed = DATASET_SEED;
    let slice = (budget / SLICES).max(Duration::from_millis(5));

    // samples
    let mut regexes: Vec<FRegex> = Vec::new();
    for index in REGEXES_FROM..REGEXES_FROM + 32 {
        if let Request::Read { queries, .. } = inputs.request(index) {
            for q in queries {
                match q {
                    Query::Rq(rq) => regexes.push(rq.regex),
                    Query::Pq(pq) => regexes.extend(pq.edges().iter().map(|e| e.regex.clone())),
                }
            }
        }
    }
    let texts: Vec<String> = regexes
        .iter()
        .map(|re| re.display(g.alphabet()).to_string())
        .collect();
    let rqs: Vec<_> = (0..8)
        .map(|i| generate_rq(g, 2, 3, 2, mix(seed, S_MICRO, i)))
        .collect();
    let pqs: Vec<_> = (0..4)
        .map(|i| generate_pq(g, &SMALL_PQ, mix(seed, S_MICRO, 100 + i)))
        .collect();
    let mut rng = StdRng::seed_from_u64(mix(seed, S_MICRO, 200));
    let colors: Vec<Color> = g.alphabet().colors().collect();
    let n = g.node_count() as u32;
    let triples: Vec<(NodeId, NodeId, Color)> = (0..256)
        .map(|_| {
            (
                NodeId(rng.gen_range(0..n)),
                NodeId(rng.gen_range(0..n)),
                colors[rng.gen_range(0..colors.len())],
            )
        })
        .collect();
    let sources: Vec<NodeId> = triples.iter().map(|t| t.0).collect();
    let targets: Vec<NodeId> = triples.iter().map(|t| t.1).collect();

    // regex
    let (s, k) = bench(slice, &texts, |t| {
        black_box(FRegex::parse(black_box(t), g.alphabet()).ok());
    });
    report.timing("regex.parse_ns", s * 1e9, k);
    let (s, k) = bench(slice, &regexes, |re| {
        black_box(canonicalize(black_box(re)));
    });
    report.timing("regex.canonicalize_ns", s * 1e9, k);
    let pairs: Vec<(&FRegex, &FRegex)> = regexes.iter().zip(regexes.iter().skip(1)).collect();
    let (s, k) = bench(slice, &pairs, |(a, b)| {
        black_box(contains_fast(black_box(a), black_box(b)));
    });
    report.timing("regex.contains_fast_ns", s * 1e9, k);

    // graph
    let (s, k) = bench(slice, &triples[..16], |(u, _, c)| {
        black_box(bfs_distances(g, *u, *c, Direction::Forward));
    });
    report.timing("graph.bfs_us", s * 1e6, k);

    // index: the ledger's own copy of the workload's regime
    let t = Instant::now();
    let index = OwnIndex::build(inputs.kind, &inputs.graph);
    report.timing("index.build_s", t.elapsed().as_secs_f64(), 1);
    report.count("index.mb", index.bytes(g) as f64 / (1 << 20) as f64, 1);
    let probe = index.probe();
    let (s, k) = bench(slice, &triples, |(u, v, c)| {
        black_box(probe.dist(*u, *v, *c));
    });
    report.timing("index.dist_ns", s * 1e9, k);
    let (s, k) = bench(slice, &triples, |(u, _, c)| {
        let mut seen = 0u32;
        probe.for_each_within(*u, *c, SCAN_BOUND, &mut |_| seen += 1);
        black_box(seen);
    });
    report.timing("index.scan_us", s * 1e6, k);
    let (s, k) = bench(slice, &colors, |c| {
        black_box(probe.sources_reaching_within(
            g,
            &sources,
            &targets,
            *c,
            Some(u32::from(SCAN_BOUND)),
        ));
    });
    report.timing("index.sources_reaching_us", s * 1e6, k);

    // core
    let (s, k) = bench(slice, &rqs, |rq| {
        black_box(canonical_rq(black_box(rq)));
    });
    let (s2, _) = bench(slice, &pqs, |pq| {
        black_box(canonical_pq(black_box(pq)));
    });
    // RQs and PQs arrive 3:1 on the mixed workloads
    report.timing("core.canonical_query_ns", (3.0 * s + s2) / 4.0 * 1e9, k);
    let (s, k) = bench(slice, &rqs, |rq| {
        black_box(rq.eval_with_dist(g, probe));
    });
    report.timing("core.rq_eval_us", s * 1e6, k);
    let (s, k) = bench(slice, &rqs, |rq| {
        black_box(rq.eval_bibfs(g));
    });
    report.timing("core.rq_search_us", s * 1e6, k);
    let (s, k) = bench(slice, &pqs, |pq| {
        black_box(JoinMatch::eval(pq, g, &mut ProbeReach::new(probe)));
    });
    report.timing("core.join_match_us", s * 1e6, k);
    let (s, k) = bench(slice, &pqs, |pq| {
        black_box(SplitMatch::eval(pq, g, &mut ProbeReach::new(probe)));
    });
    report.timing("core.split_match_us", s * 1e6, k);

    // write path leaves: the dynamic graph and one standing matcher
    let mut dynamic = DynamicGraph::from_arc(Arc::clone(&inputs.graph));
    let standing = selective_pq(g, mix(seed, S_MICRO, 300));
    let mut matcher = IncrementalMatcher::new(standing, &dynamic);
    let (mut apply_us, mut update_us) = (Vec::new(), Vec::new());
    let started = Instant::now();
    for index in UPDATES_FROM.. {
        let Request::Write { updates, .. } = inputs.write_request(index) else {
            continue;
        };
        let t = Instant::now();
        let effective = dynamic.apply(&updates);
        apply_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        matcher.on_update(&dynamic, &effective);
        update_us.push(t.elapsed().as_secs_f64() * 1e6);
        if started.elapsed() >= slice * 2 && apply_us.len() >= 2 {
            break;
        }
    }
    report.timing(
        "graph.apply_us",
        median(&apply_us).unwrap_or(f64::NAN),
        apply_us.len(),
    );
    report.timing(
        "core.incremental_update_us",
        median(&update_us).unwrap_or(f64::NAN),
        update_us.len(),
    );
}
