//! The differential oracle: one generator, one assertion, one sweep.
//!
//! The paper defines RQ and PQ answers declaratively (§2); every §4–§5
//! evaluator, backend, plan, memo state, graph version and transport must
//! return exactly those answers. The reference is `Rq::eval_bfs` /
//! `Pq::eval_naive` ([`Truth::check`] is the one assertion), and one seeded
//! [`Case`] — a graph, a shard count, an update stream and a mix of RQs
//! and PQs — is swept over
//!
//! * **engines**: the matrix, hop, sharded and search-only regimes, each
//!   answering `run_batch` cold and warm under the plans it picks — every
//!   `Plan::ALL` row is earned by planning alone — then every query once
//!   more on a fresh engine whose profiles name the memo path taken
//!   (miss, exact or subsumption hit).
//!   Label indices hold concrete colors only: on the hop and sharded
//!   regimes a `_`-bearing query plans search, and says so;
//! * **core**: `eval_with_dist`, `JoinMatch` and `SplitMatch` over the
//!   matrix, hop, sharded and graph probes (the label indices and the
//!   sharded regime on the queries they cover), and `eval_bibfs`;
//! * **versions**: an `UpdatableEngine` per regime with a standing PQ,
//!   queried after every update round as published — every version with
//!   its index built or repaired, the regime's backend serving what it
//!   covers — plus the standing answer and plan;
//! * **wire**: an `rpq_server::Server` on loopback over that engine; each
//!   version's body must spell the checked answers of the snapshot named
//!   by `X-Rpq-Version`.
//!
//! A coverage ledger counts what was checked and fails the run if a
//! dimension never came up; `cargo test -q --test oracle -- --nocapture`
//! prints it. A failing random case prints `oracle::random_cases failed at
//! case i/N`; the case RNG is deterministic, so a re-run replays it.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rpq::prelude::*;
use rpq_regex::canon::runs;
use rpq_regex::{Atom, Quant};
use rpq_server::{wire, Client, Server, ServerConfig};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::{Arc, Mutex};

// ---- the generator -------------------------------------------------------

/// The strings the mixed-domain attribute `a2` holds: every other
/// letter, so a constant drawn from `a`..`g` may lie on, between, below or
/// above them.
const A2_HELD: [&str; 3] = ["b", "d", "f"];

/// Node `v`'s `a2`: a string on every third node, an integer on the next,
/// missing on the rest — the column scan's three cases under one name.
fn a2_of(v: usize) -> Option<AttrValue> {
    match v % 3 {
        0 => Some(A2_HELD[v / 3 % 3].into()),
        1 => Some(AttrValue::Int((v / 3 % 5) as i64)),
        _ => None,
    }
}

#[derive(Debug, Clone)]
enum GraphSpec {
    /// `synthetic(nodes, edges)` over attributes `a0`, `a1`, plus the
    /// mixed-domain `a2` ([`a2_of`]) and one self-loop.
    Synthetic {
        nodes: usize,
        edges: usize,
        colors: usize,
        seed: u64,
    },
    /// 16 nodes, edges only between even and odd ones: every path
    /// alternates parity.
    Bipartite,
    /// Six nodes holding a self-loop, a 2-cycle and a 3-cycle.
    Loops,
}

impl GraphSpec {
    /// `(nodes, colors)`.
    fn size(&self) -> (usize, usize) {
        match *self {
            GraphSpec::Synthetic { nodes, colors, .. } => (nodes, colors),
            GraphSpec::Bipartite => (16, 2),
            GraphSpec::Loops => (6, 2),
        }
    }

    fn build(&self) -> Graph {
        let edges: Vec<(usize, usize, usize)> = match *self {
            GraphSpec::Synthetic {
                nodes,
                edges,
                colors,
                seed,
            } => {
                let g = rpq::graph::gen::synthetic(nodes, edges, 2, colors, seed);
                let mut b = GraphBuilder::with_vocabulary(g.schema().clone(), g.alphabet().clone());
                let a2 = b.attr("a2");
                for v in g.nodes() {
                    let row = g.attrs(v).iter().map(|(a, x)| (a, x.clone()));
                    b.add_node(g.label(v), row.chain(a2_of(v.index()).map(|x| (a2, x))));
                }
                for (u, v, c) in g.edges() {
                    b.add_edge(u, v, c);
                }
                // `synthetic` never draws a self-loop; one is added so the
                // |path| ≥ 1 diagonal's shortest case is always present
                let v = NodeId((seed % nodes as u64) as u32);
                b.insert_edge(v, v, Color((seed % colors as u64) as u8));
                return b.build();
            }
            GraphSpec::Bipartite => (0..16)
                .step_by(2)
                .flat_map(|i| (1..16).step_by(2).map(move |j| (i, j)))
                .flat_map(|(i, j)| {
                    let there = ((i + j) % 3 == 0).then_some((i, j, 0));
                    let back = ((i * j) % 5 == 1).then_some((j, i, 1));
                    there.into_iter().chain(back)
                })
                .collect(),
            GraphSpec::Loops => vec![
                (0, 0, 0),
                (0, 1, 0),
                (1, 2, 1),
                (2, 1, 1),
                (2, 3, 1),
                (3, 4, 0),
                (4, 5, 0),
                (5, 3, 0),
                (5, 0, 1),
            ],
        };
        let (n, colors) = self.size();
        let mut b = GraphBuilder::new();
        let (a0, a1, a2) = (b.attr("a0"), b.attr("a1"), b.attr("a2"));
        let nodes: Vec<NodeId> = (0..n as i64)
            .map(|i| {
                let row = [(a0, (i % 10).into()), (a1, (i * 7 % 10).into())];
                let mixed = a2_of(i as usize).map(|x| (a2, x));
                b.add_node(&format!("n{i}"), row.into_iter().chain(mixed))
            })
            .collect();
        let c: Vec<Color> = (0..colors).map(|i| b.color(&format!("c{i}"))).collect();
        for (u, v, k) in edges {
            b.add_edge(nodes[u], nodes[v], c[k]);
        }
        b.build()
    }
}

#[derive(Debug, Clone)]
enum UpdateSpec {
    /// Sometimes of an edge already there.
    Insert(u32, u32, u8),
    /// Usually a no-op: the edge is rarely there.
    Delete(u32, u32, u8),
    /// Delete the graph's `i mod |E|`-th edge.
    DeleteExisting(usize),
    /// Re-insert what the previous round deleted: answers a deletion
    /// shrank grow back.
    Restore,
}

impl UpdateSpec {
    /// The updates this stands for on `g`, after a round that issued the
    /// deletes `deleted`.
    fn on(&self, g: &Graph, deleted: &[Update]) -> Vec<Update> {
        let (u, v, c) = match *self {
            UpdateSpec::Insert(u, v, c) => {
                return vec![Update::Insert(NodeId(u), NodeId(v), Color(c))]
            }
            UpdateSpec::Delete(u, v, c) => (NodeId(u), NodeId(v), Color(c)),
            UpdateSpec::DeleteExisting(i) => (g.edges().nth(i % g.edge_count().max(1)))
                .unwrap_or((NodeId(0), NodeId(0), Color(0))),
            UpdateSpec::Restore => {
                let insert = |u: &Update| match *u {
                    Update::Delete(x, y, c) => Update::Insert(x, y, c),
                    other => other,
                };
                return deleted.iter().map(insert).collect();
            }
        };
        vec![Update::Delete(u, v, c)]
    }
}

#[derive(Debug, Clone)]
struct RqSpec {
    from: String,
    to: String,
    regex: FRegex,
    /// Where [`respell`] moves each run's slack.
    picks: Vec<usize>,
    /// The narrowed variant adds `a1 >= narrow` to the source predicate.
    narrow: i64,
}

#[derive(Debug, Clone)]
struct PqSpec {
    preds: Vec<String>,
    edges: Vec<(usize, usize, FRegex)>,
}

impl PqSpec {
    fn build(&self, g: &Graph) -> Pq {
        let mut pq = Pq::new();
        for (i, p) in self.preds.iter().enumerate() {
            pq.add_node(&format!("u{i}"), pred(p, g));
        }
        for (u, v, re) in &self.edges {
            pq.add_edge(*u, *v, re.clone());
        }
        pq
    }
}

#[derive(Debug, Clone)]
struct Case {
    graph: GraphSpec,
    shards: usize,
    rounds: Vec<Vec<UpdateSpec>>,
    rqs: Vec<RqSpec>,
    /// The first one is also registered as the standing PQ.
    pqs: Vec<PqSpec>,
}

fn pred(text: &str, g: &Graph) -> Predicate {
    Predicate::parse(text, g.schema()).unwrap()
}

impl Case {
    /// Each RQ in the four versions that drive every memo path — a
    /// widened containing RQ, the RQ, a respelling, a predicate-narrowed
    /// variant — then each PQ as drawn and respelled.
    fn queries(&self, g: &Graph) -> Vec<Query> {
        let mut out = Vec::new();
        for q in &self.rqs {
            let (from, to) = (pred(&q.from, g), pred(&q.to, g));
            let narrowed = match q.from.as_str() {
                "" => format!("a1 >= {}", q.narrow),
                from => format!("{from} && a1 >= {}", q.narrow),
            };
            let rq = |from: &Predicate, re| Query::Rq(Rq::new(from.clone(), to.clone(), re));
            out.push(rq(&from, widen(&q.regex)));
            out.push(rq(&from, q.regex.clone()));
            out.push(rq(&from, respell(&q.regex, &q.picks)));
            out.push(rq(&pred(&narrowed, g), q.regex.clone()));
            // the same memo key with another target: a cell keeps one
            // answer per target, and an exact hit must take its own
            let retarget = pred(&narrowed, g);
            out.push(Query::Rq(Rq::new(from.clone(), retarget, q.regex.clone())));
        }
        for p in &self.pqs {
            let respelled = PqSpec {
                edges: (p.edges.iter().enumerate())
                    .map(|(i, (u, v, re))| (*u, *v, respell(re, &[i, i + 1, i + 2])))
                    .collect(),
                ..p.clone()
            };
            out.extend([p, &respelled].map(|p| Query::Pq(p.build(g))));
        }
        out
    }
}

fn random_regex(colors: usize) -> impl Strategy<Value = FRegex> {
    let color = prop_oneof![
        3 => (0..colors as u8).prop_map(Color),
        1 => Just(WILDCARD),
    ];
    let quant = prop_oneof![
        2 => Just(Quant::One),
        2 => (2u32..4).prop_map(Quant::AtMost),
        1 => Just(Quant::Plus),
    ];
    prop::collection::vec((color, quant), 1..4)
        .prop_map(|atoms| FRegex::new(atoms.into_iter().map(|(c, q)| Atom::new(c, q)).collect()))
}

fn random_pred() -> impl Strategy<Value = String> {
    prop_oneof![
        2 => Just(String::new()),
        4 => (2i64..10).prop_map(|v| format!("a0 <= {v}")),
        2 => (0i64..5, 0i64..10).prop_map(|(lo, v)| format!("a0 >= {lo} && a1 != {v}")),
        1 => mixed_atom(),
        1 => (mixed_atom(), 2i64..10).prop_map(|(m, v)| format!("{m} && a0 <= {v}")),
    ]
}

/// A conjunct on the mixed-domain `a2`: any operator, against an integer
/// around the held ones or a string from `a`..`g`, most of which no node
/// holds.
fn mixed_atom() -> impl Strategy<Value = String> {
    const OPS: [&str; 6] = ["<", "<=", "=", "!=", ">", ">="];
    let constant = prop_oneof![
        (-1i64..6).prop_map(|k| k.to_string()),
        (b'a'..b'h').prop_map(|c| format!("\"{}\"", c as char)),
    ];
    (0..OPS.len(), constant).prop_map(|(op, c)| format!("a2 {} {c}", OPS[op]))
}

fn random_rq(colors: usize) -> impl Strategy<Value = RqSpec> {
    (
        random_pred(),
        random_pred(),
        random_regex(colors),
        prop::collection::vec(0usize..8, 3..4),
        0i64..10,
    )
        .prop_map(|(from, to, regex, picks, narrow)| RqSpec {
            from,
            to,
            regex,
            picks,
            narrow,
        })
}

/// 2–5 pattern nodes; half of the patterns close a cycle over their
/// first edge (the others may hold one anyway).
fn random_pq(colors: usize) -> impl Strategy<Value = PqSpec> {
    (2usize..6).prop_flat_map(move |n| {
        (
            prop::collection::vec(random_pred(), n..n + 1),
            prop::collection::vec((0..n, 0..n, random_regex(colors)), 1..n + 2),
            any::<bool>(),
        )
            .prop_map(|(preds, mut edges, close)| {
                if close {
                    let (u, v, re) = edges[0].clone();
                    edges.push((v, u, re));
                }
                PqSpec { preds, edges }
            })
    })
}

/// One round of updates: inserts, deletes of present edges, no-op
/// deletes and re-inserts of the previous round's deletes — sometimes the
/// first one twice.
fn random_round(nodes: usize, colors: usize) -> impl Strategy<Value = Vec<UpdateSpec>> {
    let (n, k) = (nodes as u32, colors as u8);
    let update = prop_oneof![
        2 => (0..n, 0..n, 0..k).prop_map(|(u, v, c)| UpdateSpec::Insert(u, v, c)),
        1 => (0..n, 0..n, 0..k).prop_map(|(u, v, c)| UpdateSpec::Delete(u, v, c)),
        2 => any::<usize>().prop_map(UpdateSpec::DeleteExisting),
        1 => Just(UpdateSpec::Restore),
    ];
    (prop::collection::vec(update, 1..5), any::<bool>()).prop_map(|(mut round, twice)| {
        if twice {
            round.push(round[0].clone());
        }
        round
    })
}

/// Everything of a case but its graph.
fn workload(graph: GraphSpec) -> impl Strategy<Value = Case> {
    let (nodes, colors) = graph.size();
    (
        2usize..5,
        prop::collection::vec(random_round(nodes, colors), 1..5),
        prop::collection::vec(random_rq(colors), 1..3),
        prop::collection::vec(random_pq(colors), 1..3),
    )
        .prop_map(move |(shards, rounds, rqs, pqs)| Case {
            graph: graph.clone(),
            shards,
            rounds,
            rqs,
            pqs,
        })
}

fn random_case() -> impl Strategy<Value = Case> {
    (12usize..81, 2usize..4, 1usize..7, any::<u64>()).prop_flat_map(
        |(nodes, colors, half_degree, seed)| {
            workload(GraphSpec::Synthetic {
                nodes,
                edges: nodes * half_degree / 2,
                colors,
                seed,
            })
        },
    )
}

/// The fixed cases beside the random ones: the bipartite graph in two
/// shards, and the cycle graph.
fn fixed_cases() -> Vec<Case> {
    let draw = |graph, name| workload(graph).generate(&mut TestRng::for_case(name, 0));
    vec![
        Case {
            shards: 2,
            ..draw(GraphSpec::Bipartite, "bipartite")
        },
        draw(GraphSpec::Loops, "loops"),
    ]
}

/// A syntactic variant with the same language: each maximal same-color
/// run is respelled with its quantifier slack moved to a picked
/// position. `picks` drives the (deterministic) position choices.
fn respell(re: &FRegex, picks: &[usize]) -> FRegex {
    let mut atoms = Vec::new();
    for (i, run) in runs(re).into_iter().enumerate() {
        let n = run.min as usize;
        let pos = picks.get(i).copied().unwrap_or(0) % n;
        let tail = match run.max {
            None => Quant::Plus,
            Some(m) => {
                let slack = (m - run.min as u64) as u32;
                if slack == 0 {
                    Quant::One
                } else {
                    Quant::AtMost(slack + 1)
                }
            }
        };
        for j in 0..n {
            let q = if j == pos { tail } else { Quant::One };
            atoms.push(Atom::new(run.color, q));
        }
    }
    FRegex::new(atoms)
}

/// A regex whose language strictly contains `re`'s: every atom keeps its
/// minimum (one edge) and grows its maximum, so each run's interval
/// nests inside the widened run's.
fn widen(re: &FRegex) -> FRegex {
    FRegex::new(
        re.atoms()
            .iter()
            .map(|a| {
                let q = match a.quant {
                    Quant::One => Quant::AtMost(2),
                    Quant::AtMost(k) => Quant::AtMost(k + 1),
                    Quant::Plus => Quant::Plus,
                };
                Atom::new(a.color, q)
            })
            .collect(),
    )
}

// ---- the assertion -------------------------------------------------------

/// The paper's §2 answers on one graph version, each computed once.
struct Truth {
    g: Arc<Graph>,
    answers: RefCell<Vec<(Query, QueryOutput)>>,
}

impl Truth {
    fn of(g: &Arc<Graph>) -> Self {
        Truth {
            g: Arc::clone(g),
            answers: RefCell::default(),
        }
    }

    /// The one assertion: `output` is bit-identical to `Rq::eval_bfs` /
    /// `Pq::eval_naive` of `query` on this graph version.
    fn check(&self, query: &Query, output: &QueryOutput, at: &str) {
        let mut answers = self.answers.borrow_mut();
        let i = match answers.iter().position(|(q, _)| q == query) {
            Some(i) => i,
            None => {
                let want = match query {
                    Query::Rq(rq) => QueryOutput::Rq(rq.eval_bfs(&self.g)),
                    Query::Pq(pq) => QueryOutput::Pq(Arc::new(pq.eval_naive(&self.g))),
                };
                answers.push((query.clone(), want));
                answers.len() - 1
            }
        };
        assert_eq!(output, &answers[i].1, "{at}: {query:?}");
    }
}

// ---- the coverage ledger -------------------------------------------------

static LEDGER: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

fn tally(key: String) {
    *LEDGER.lock().unwrap().entry(key).or_default() += 1;
}

/// Fail unless every dimension the sweep must cover was checked.
fn assert_covered(ledger: &BTreeMap<String, u64>) {
    let count = |key: &str| ledger.get(key).copied().unwrap_or(0);
    let mut required: Vec<String> = Plan::ALL
        .iter()
        .map(|p| format!("plan {}", p.name()))
        .collect();
    for backend in ["matrix", "hop", "sharded", "search"] {
        for kind in ["miss", "exact_hit", "subsumption_hit"] {
            required.push(format!("memo {backend} {kind}"));
        }
    }
    for probe in ["matrix", "hop", "graph"] {
        required.push(format!("core {probe}"));
    }
    // `_` plans search on the label regimes, and is still checked there
    required.push("wildcard search".to_owned());
    for regime in ["matrix", "hop", "sharded"] {
        required.push(format!("wire {regime}"));
        required.push(format!("wire cached {regime}"));
    }
    for regime in ["hop", "sharded"] {
        for state in ["Built", "Repaired"] {
            required.push(format!("state {regime} {state}"));
            required.push(format!("served {regime} {state}"));
        }
    }
    // a write carries the memo: a version's misses patch what the
    // previous ones computed, also over a log of two batches or more
    for regime in ["matrix", "hop", "sharded"] {
        required.push(format!("memo patched {regime}"));
        required.push(format!("memo patched {regime} over 2+ batches"));
    }
    // the column scan met an attribute held as a string, an integer or not at all
    required.push("predicate mixed-domain".to_owned());
    let missing: Vec<&String> = required.iter().filter(|k| count(k) == 0).collect();
    assert!(missing.is_empty(), "never checked: {missing:?}");
    for regime in ["matrix", "hop", "sharded"] {
        let versions = count(&format!("versions {regime}"));
        assert!(versions > 0, "no {regime} version checked");
        assert_eq!(
            count(&format!("standing {regime}")),
            versions,
            "{regime}: a version's standing answer went unchecked"
        );
    }
}

// ---- the sweep -----------------------------------------------------------

/// The search clause of a `_`-bearing query's rationale on a label regime.
const WILDCARD_CLAUSE: &str = "label indices hold concrete colours — `_` is answered by the graph";

/// Does `q` mention `_`?
fn mentions_wildcard(q: &Query) -> bool {
    let regexes: Vec<&FRegex> = match q {
        Query::Rq(rq) => vec![&rq.regex],
        Query::Pq(pq) => pq.edges().iter().map(|e| &e.regex).collect(),
    };
    (regexes.iter()).any(|re| re.atoms().iter().any(|a| a.color == WILDCARD))
}

/// The backend regime `b` plans `q` on once its index is built: label
/// indices hold concrete colors only, so `_` is answered by the graph.
fn planned_backend(b: Backend, q: &Query) -> Backend {
    match b {
        Backend::Hop | Backend::Sharded if mentions_wildcard(q) => Backend::Search,
        b => b,
    }
}

/// The engine configuration of the regime whose best backend is `b`.
fn config(b: Backend, shards: usize) -> EngineConfig {
    let c = EngineConfig::builder();
    match b {
        Backend::Matrix => c,
        Backend::Hop => c.matrix_node_limit(0),
        Backend::Sharded => c.matrix_node_limit(0).hop_label_budget(0).shards(shards),
        Backend::Search => c.matrix_node_limit(0).hop_label_budget(0),
    }
    .build()
    .unwrap()
}

/// A fresh engine of that regime, built with its index, over `g`
/// itself: its one snapshot.
fn fresh_engine(b: Backend, g: &Arc<Graph>, shards: usize) -> Arc<Snapshot> {
    UpdatableEngine::with_config(Arc::clone(g), config(b, shards)).snapshot()
}

/// Every engine regime: batches cold and warm under the plans it picks,
/// and the memo path of each query read off its profile.
fn sweep_engines(case: &Case, g: &Arc<Graph>, queries: &[Query], truth: &Truth) {
    for b in [
        Backend::Matrix,
        Backend::Hop,
        Backend::Sharded,
        Backend::Search,
    ] {
        let r = format!("{b:?}").to_lowercase();
        let engine = fresh_engine(b, g, case.shards);
        for pass in ["cold", "warm"] {
            let batch = engine.run_batch(queries);
            for (q, item) in queries.iter().zip(batch.items()) {
                truth.check(q, &item.output, &format!("{r} batch {pass}"));
                assert_eq!(
                    item.plan.backend(),
                    planned_backend(b, q),
                    "{r} batch {pass}: the regime's backend plans"
                );
                tally(format!("plan {}", item.plan.name()));
            }
        }
        let fresh = fresh_engine(b, g, case.shards);
        for q in queries {
            let (out, profile) = fresh.run_query_profiled(q);
            truth.check(q, &out, &format!("{r} profiled {}", profile.plan));
            let on = planned_backend(b, q);
            if on != b {
                let why = &profile.rationale;
                assert!(why.starts_with(WILDCARD_CLAUSE), "{r}: {why}");
                tally("wildcard search".to_owned());
            }
            if !profile.semcache.is_empty() {
                let on = format!("{on:?}").to_lowercase();
                tally(format!("memo {on} {}", profile.semcache));
            }
        }
    }
}

/// The evaluators below the engine, over every probe type.
fn sweep_core(case: &Case, g: &Arc<Graph>, queries: &[Query], truth: &Truth) {
    let m = DistanceMatrix::build(g);
    let hop = HopLabels::build(g);
    let sharded = ShardedLabels::build(g, case.shards);
    let graph = GraphProbe::new(g);
    let all: [(&str, &dyn DistProbe); 4] = [
        ("matrix", &m),
        ("graph", &graph),
        ("hop", &hop),
        ("sharded", &sharded),
    ];
    let pq_out = |r: PqResult| QueryOutput::Pq(Arc::new(r));
    for q in queries {
        // the label indices run only on the queries they cover
        let probes = &all[..if mentions_wildcard(q) { 2 } else { 4 }];
        match q {
            Query::Rq(rq) => {
                for &(name, probe) in probes {
                    let out = QueryOutput::Rq(rq.eval_with_dist(g, probe));
                    truth.check(q, &out, &format!("eval_with_dist over {name}"));
                    tally(format!("core {name}"));
                }
                truth.check(q, &QueryOutput::Rq(rq.eval_bibfs(g)), "eval_bibfs");
            }
            Query::Pq(pq) => {
                for &(name, probe) in probes {
                    let reach = ProbeReach::new(probe);
                    let join = JoinMatch::eval(pq, g, &reach);
                    truth.check(q, &pq_out(join), &format!("JoinMatch over {name}"));
                    let split = SplitMatch::eval(pq, g, &reach);
                    truth.check(q, &pq_out(split), &format!("SplitMatch over {name}"));
                    tally(format!("core {name}"));
                }
            }
        }
    }
}

/// The `/v1/query` body of `items`, spelled with `format!` from the
/// answers themselves — independent of the server's encoder.
fn render(items: &[BatchItem]) -> String {
    let join = |parts: Vec<String>| parts.join(",");
    let pairs = pair_list;
    let mut body = String::new();
    for item in items {
        let plan = item.plan.name();
        body += &match &item.output {
            QueryOutput::Rq(r) => format!(
                "{{\"kind\":\"rq\",\"plan\":\"{plan}\",\"pairs\":[{}]}}\n",
                pairs(r.as_slice())
            ),
            QueryOutput::Pq(r) => {
                let node = |u| join(r.node_matches(u).iter().map(|x| x.0.to_string()).collect());
                let nodes = join(
                    (0..r.node_count())
                        .map(|u| format!("[{}]", node(u)))
                        .collect(),
                );
                let edge = |e| format!("[{}]", pairs(r.edge_matches(e)));
                let edges = join((0..r.edge_count()).map(edge).collect());
                format!("{{\"kind\":\"pq\",\"plan\":\"{plan}\",\"nodes\":[{nodes}],\"edges\":[{edges}]}}\n")
            }
        };
    }
    body
}

/// `[x,y],…`: a pair list as a `/v1/query` body spells it.
fn pair_list(pairs: &[(NodeId, NodeId)]) -> String {
    let pairs: Vec<String> = pairs
        .iter()
        .map(|(x, y)| format!("[{},{}]", x.0, y.0))
        .collect();
    pairs.join(",")
}

/// `pq` with its node order reversed: the same query, numbered apart.
fn reversed(pq: &Pq) -> Pq {
    let n = pq.node_count();
    let mut out = Pq::new();
    for u in (0..n).rev() {
        out.add_node(&pq.node(u).label, pq.node(u).pred.clone());
    }
    for e in pq.edges() {
        out.add_edge(n - 1 - e.from, n - 1 - e.to, e.regex.clone());
    }
    out
}

/// The update stream through an `UpdatableEngine` per regime, with a
/// standing PQ and its node-permuted twin registered (one matcher each)
/// and a server on loopback over the same engine.
///
/// Each version's memo inherits the cells of the one before, so the
/// first batch on a version patches what the last one computed. The
/// first RQ's four queries rest on odd rounds: when they are asked again,
/// their cells carry the change log of two batches or more.
fn sweep_versions(case: &Case, g: &Arc<Graph>, queries: &[Query]) {
    const RESTING: usize = 4;
    for b in [Backend::Matrix, Backend::Hop, Backend::Sharded] {
        let r = format!("{b:?}").to_lowercase();
        let live = Arc::new(UpdatableEngine::with_config(
            Arc::clone(g),
            config(b, case.shards),
        ));
        let id = live.register_pq(case.pqs[0].build(g));
        let twin = reversed(&case.pqs[0].build(g));
        let twin_id = live.register_pq(twin.clone());
        let twin = Query::Pq(twin);
        // the standing PQ comes last in every batch
        let mut batch = queries.to_vec();
        batch.push(Query::Pq(case.pqs[0].build(g)));
        let server = Server::start(Arc::clone(&live), ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        // the answers this leg asked for their rendered pairs
        let mut asked: Vec<RqResult> = Vec::new();
        // every published version with the answers it is held to
        let mut pinned: HashMap<u64, Rc<(Arc<Snapshot>, Truth)>> = HashMap::new();
        let mut current = live.snapshot();
        // the first version's index was built with the engine
        tally(format!("state {r} {:?}", current.index_state()));
        let mut deleted = Vec::new();
        // the version the resting queries were last asked on
        let mut rested_at = current.version();
        for round in 0..=case.rounds.len() {
            if round > 0 {
                let graph = current.graph();
                let updates: Vec<Update> = (case.rounds[round - 1].iter())
                    .flat_map(|u| u.on(graph, &deleted))
                    .collect();
                deleted = (updates.iter())
                    .filter(|u| matches!(u, Update::Delete(..)))
                    .copied()
                    .collect();
                let report = live.apply(&updates).unwrap();
                let bumped = u64::from(report.applied > 0);
                assert_eq!(report.version, current.version() + bumped);
                if report.applied > 0 {
                    tally(format!("state {r} {:?}", report.index.state));
                }
                current = report.snapshot;
            }
            let version =
                Rc::clone(pinned.entry(current.version()).or_insert_with(|| {
                    Rc::new((Arc::clone(&current), Truth::of(current.graph())))
                }));
            let (snap, truth) = &*version;
            tally(format!("versions {r}"));
            let at = |what: &str| format!("{r} v{} round {round}: {what}", snap.version());
            let rests = round % 2 == 1;
            let batch = &batch[if rests { RESTING } else { 0 }..];
            let standing = batch.last().unwrap();
            let check_batch = |qs: &[Query], out: &BatchResult, at: &str| {
                for (q, item) in qs.iter().zip(out.items()) {
                    truth.check(q, &item.output, at);
                    tally(format!("plan {}", item.plan.name()));
                }
                if qs.last() == Some(standing) {
                    assert_eq!(
                        out.items().last().unwrap().plan.algo(),
                        Algo::Standing,
                        "{at}"
                    );
                }
                if out.semantic_stats().patched > 0 {
                    tally(format!("memo patched {r}"));
                }
            };
            if !rests {
                // the resting queries first, on their own: what they patch
                // was logged over every version since they were last asked
                let woke = snap.run_batch(&batch[..RESTING]);
                check_batch(&batch[..RESTING], &woke, &at("woken"));
                if woke.semantic_stats().patched > 0 && snap.version() >= rested_at + 2 {
                    tally(format!("memo patched {r} over 2+ batches"));
                }
                rested_at = snap.version();
            }
            let published = snap.run_batch(batch);
            check_batch(batch, &published, &at("as published"));
            // every version is published with its index: the regime's
            // backend serves every query it covers, and the graph every
            // `_`-bearing one
            for (q, item) in batch.iter().zip(published.items()) {
                if item.plan.algo() == Algo::Standing {
                    continue;
                }
                let on = planned_backend(b, q);
                assert_eq!(item.plan.backend(), on, "{}", at("as published"));
                if on != b {
                    let (out, profile) = snap.run_query_profiled(q);
                    truth.check(q, &out, &at("profiled"));
                    let why = &profile.rationale;
                    assert!(
                        why.starts_with(WILDCARD_CLAUSE),
                        "{}: {why}",
                        at("as published")
                    );
                    tally("wildcard search".to_owned());
                }
            }
            // a built or repaired index served what it covers: its probes
            // (the sharded sweeps included) read this version's graph
            let on_index = published.items().iter().any(|i| i.plan.backend() == b);
            if snap.index_state() != IndexState::Stale && on_index {
                tally(format!("served {r} {:?}", snap.index_state()));
            }
            let kept = QueryOutput::Pq(snap.standing_result(id).unwrap());
            truth.check(standing, &kept, &at("standing answer"));
            assert_eq!(snap.plan_query(standing).algo(), Algo::Standing);
            let kept = QueryOutput::Pq(snap.standing_result(twin_id).unwrap());
            truth.check(&twin, &kept, &at("twin standing answer"));
            assert_eq!(snap.plan_query(&twin).algo(), Algo::Standing);
            tally(format!("standing {r}"));

            let resp = client.query(batch, snap.graph()).unwrap();
            assert!(resp.is_ok(), "{}: {}", at("wire"), resp.body);
            let version = resp.version.expect("X-Rpq-Version");
            let served = &pinned[&version];
            let items = served.0.run_batch(batch);
            check_batch(batch, &items, &at("wire"));
            assert_eq!(
                resp.body,
                wire::encode_items(items.items()),
                "{}",
                at("wire")
            );
            assert_eq!(resp.body, render(items.items()), "{}", at("wire"));
            tally(format!("wire {r}"));
            // the same batch again: its RQ answers are the memo's kept
            // ones, encoded twice by now, so the body copies their
            // rendered pair lists
            let again = client.query(batch, snap.graph()).unwrap();
            assert!(again.is_ok(), "{}: {}", at("wire again"), again.body);
            assert_eq!(again.version, Some(version), "{}", at("wire again"));
            assert_eq!(again.body, resp.body, "{}", at("wire again"));
            assert_eq!(again.body, render(items.items()), "{}", at("wire again"));
            let mut from_slot = false;
            for item in items.items() {
                if let QueryOutput::Rq(r) = &item.output {
                    // ask each answer once: a second ask of this leg's own
                    // would fill the slot itself
                    let first = r.as_slice().as_ptr();
                    if r.is_empty() || asked.iter().any(|a| a.as_slice().as_ptr() == first) {
                        continue;
                    }
                    asked.push(r.clone());
                    let mut now = false;
                    let slot = r.rendered(|pairs| {
                        now = true;
                        pair_list(pairs).into_bytes()
                    });
                    if let Some(bytes) = slot {
                        assert_eq!(bytes, pair_list(r.as_slice()).as_bytes(), "{}", at("slot"));
                        from_slot |= !now;
                    }
                }
            }
            if from_slot {
                tally(format!("wire cached {r}"));
            }
        }
        drop(client);
        server.shutdown();
    }
}

/// Every predicate of `queries` selects by column scan
/// ([`Predicate::select`]) exactly the nodes it matches row by row.
fn check_selections(g: &Graph, queries: &[Query]) {
    let a2 = g.schema().get("a2").expect("every case holds a2");
    for q in queries {
        let preds: Vec<&Predicate> = match q {
            Query::Rq(rq) => vec![&rq.from, &rq.to],
            Query::Pq(pq) => (0..pq.node_count()).map(|u| &pq.node(u).pred).collect(),
        };
        for p in preds {
            let rows: Vec<NodeId> = g.nodes().filter(|&v| p.matches(g.attrs(v))).collect();
            assert_eq!(p.select(g), rows, "{}", p.display(g.schema()));
            if p.atoms().iter().any(|a| a.attr == a2) {
                tally("predicate mixed-domain".to_owned());
            }
        }
    }
}

fn sweep(case: &Case) {
    let g = Arc::new(case.graph.build());
    let queries = case.queries(&g);
    check_selections(&g, &queries);
    let truth = Truth::of(&g);
    sweep_engines(case, &g, &queries, &truth);
    sweep_core(case, &g, &queries, &truth);
    sweep_versions(case, &g, &queries);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    fn random_cases(case in random_case()) {
        sweep(&case);
    }
}

#[test]
fn oracle() {
    for case in fixed_cases() {
        sweep(&case);
    }
    random_cases();
    let ledger = LEDGER.lock().unwrap();
    for (key, n) in ledger.iter() {
        println!("{key:<44} {n:>6}");
    }
    assert_covered(&ledger);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// `minPQs` on the oracle's patterns: equivalent, never larger, and
    /// with an answer on a graph exactly when the original has one.
    #[test]
    fn minimized_patterns_evaluate_equivalently(case in random_case()) {
        let g = case.graph.build();
        for spec in &case.pqs {
            let pq = spec.build(&g);
            let slim = minimize(&pq);
            prop_assert!(rpq::core::pq_equivalent(&slim, &pq), "{:?}", pq);
            prop_assert!(slim.size() <= pq.size());
            prop_assert_eq!(slim.eval_naive(&g).is_empty(), pq.eval_naive(&g).is_empty());
            // the printed minimum is a query: it parses back to itself,
            // and answers like the input
            let printed = format_pq(&slim, g.schema(), g.alphabet());
            let back = parse_pq(&printed, g.schema(), g.alphabet());
            prop_assert_eq!(back.as_ref(), Ok(&slim), "{}", printed);
            let back = back.unwrap();
            prop_assert!(rpq::core::pq_equivalent(&back, &pq), "{}", printed);
            prop_assert_eq!(back.eval_naive(&g).is_empty(), pq.eval_naive(&g).is_empty());
        }
    }
}

// ---- the reference itself ------------------------------------------------

/// The pairs `(x, y)` joined by a walk of at most `max_len` edges whose
/// color word `re` accepts: §2's path semantics, by enumeration.
fn walks(g: &Graph, re: &FRegex, max_len: usize) -> BTreeSet<(NodeId, NodeId)> {
    let mut out = BTreeSet::new();
    let mut stack: Vec<(NodeId, NodeId, Vec<Color>)> = g.nodes().map(|x| (x, x, vec![])).collect();
    while let Some((x, u, word)) = stack.pop() {
        if !word.is_empty() && re.matches(&word) {
            out.insert((x, u));
        }
        if word.len() < max_len {
            for e in g.out_edges(u) {
                let mut w = word.clone();
                w.push(e.color);
                stack.push((x, e.node, w));
            }
        }
    }
    out
}

/// The longest walk an answer can need: each atom's bound, and |V| for a
/// `+` atom (a shortest nonempty one-color walk never takes more).
fn walk_bound(g: &Graph, re: &FRegex) -> usize {
    let atom = |q| match q {
        Quant::One => 1,
        Quant::AtMost(k) => k as usize,
        Quant::Plus => g.node_count(),
    };
    re.atoms().iter().map(|a| atom(a.quant)).sum()
}

/// The reference against §2 itself, on a graph sparse enough to
/// enumerate every walk an answer can need: `eval_bfs` reports exactly
/// the pairs an accepted walk joins (sound and complete), and
/// `eval_naive` on a 2-node cyclic pattern is the greatest fixpoint over
/// those pair sets.
#[test]
fn reference_equals_path_semantics() {
    let g = rpq::graph::gen::synthetic(10, 14, 2, 2, 99);
    let parse = |re: &str| FRegex::parse(re, g.alphabet()).unwrap();
    let reach = |re: &FRegex| walks(&g, re, walk_bound(&g, re));
    for text in ["c0^2 c1", "_ c1", "c1 _^2", "_^3", "c0+", "_+ c0", "c1 c0+"] {
        let re = parse(text);
        let rq = Rq::new(
            Predicate::always_true(),
            Predicate::always_true(),
            re.clone(),
        );
        let want: Vec<_> = reach(&re).into_iter().collect();
        assert!(
            !want.is_empty(),
            "{text}: no accepted walk to compare against"
        );
        assert_eq!(rq.eval_bfs(&g).pairs(), want, "{text}");
    }
    for (there, back) in [("c0^2", "_+"), ("_ c1", "c0"), ("c1+", "_^2")] {
        let mut pq = Pq::new();
        let a = pq.add_node("a", pred("a0 <= 6", &g));
        let b = pq.add_node("b", Predicate::always_true());
        pq.add_edge(a, b, parse(there));
        pq.add_edge(b, a, parse(back));
        let sets = [reach(&parse(there)), reach(&parse(back))];
        let mut mats: [Vec<NodeId>; 2] = [
            g.nodes()
                .filter(|&v| pq.node(a).pred.matches(g.attrs(v)))
                .collect(),
            g.nodes().collect(),
        ];
        loop {
            let before = mats.clone();
            for (e, (u, v)) in [(a, b), (b, a)].into_iter().enumerate() {
                let targets = mats[v].clone();
                mats[u].retain(|&x| targets.iter().any(|&y| sets[e].contains(&(x, y))));
            }
            if mats == before {
                break;
            }
        }
        let got = pq.eval_naive(&g);
        let at = format!("{there} / {back}");
        if mats.iter().any(Vec::is_empty) {
            assert!(got.is_empty(), "{at}");
            continue;
        }
        for (e, (u, v)) in [(a, b), (b, a)].into_iter().enumerate() {
            assert_eq!(got.node_matches(u), &mats[u][..], "{at}");
            let edge: Vec<_> = (sets[e].iter())
                .filter(|(x, y)| mats[u].contains(x) && mats[v].contains(y))
                .copied()
                .collect();
            assert_eq!(got.edge_matches(e), &edge[..], "{at}");
        }
    }
}
