//! `JoinMatch` — the join-based PQ evaluation algorithm (§5.1, Fig. 7).
//!
//! The algorithm:
//! 1. **Normalize** the query: split every multi-atom edge into
//!    single-atom edges through dummy nodes, so each refinement step is
//!    one bulk atom probe.
//! 2. Initialize each query node's match set `mat(u)` from its predicate.
//! 3. Compute the SCC DAG of the (normalized) query with Tarjan's
//!    algorithm and process components in **reversed topological order**,
//!    repeatedly joining each match set with its children's and pruning
//!    nodes that violate an edge constraint (procedure `Join`), until a
//!    fixpoint is reached per component.
//! 4. If any match set empties, the result is ∅; otherwise assemble the
//!    per-edge match sets `Se` of the *original* query.
//!
//! With the matrix backend this runs in O(|E'p|·|V|²) refinement time as
//! the paper shows; over the graph itself (no index) each `Join` step is
//! one backward sweep, O(|V| + |E|).

use crate::pq::{Pq, PqResult};
use crate::reach::ProbeReach;
use rpq_graph::algo::condensation;
use rpq_graph::{Graph, NodeId};
use rpq_index::GraphProbe;
use std::collections::VecDeque;

/// Marker type for the join-based algorithm.
pub struct JoinMatch;

impl JoinMatch {
    /// Evaluate `pq` on `g` using `engine` for reachability probes.
    pub fn eval(pq: &Pq, g: &Graph, engine: &mut ProbeReach<'_>) -> PqResult {
        let mats = match refine(&pq.normalize(), g, engine) {
            Some(mats) => mats,
            None => return PqResult::empty(pq),
        };
        assemble_with(pq, g, &mats, engine)
    }
}

/// From-scratch refinement: [`refine_from`] seeded with every
/// predicate-eligible node.
pub(crate) fn refine(
    work: &Pq,
    g: &Graph,
    engine: &mut ProbeReach<'_>,
) -> Option<Vec<Vec<NodeId>>> {
    let seed = (0..work.node_count())
        .map(|u| work.node(u).pred.select(g))
        .collect();
    refine_from(work, g, engine, seed)
}

/// [`refine_pruned`] with `JoinMatch`'s step: a source without a witness
/// leaves its match set. `JoinMatch`, the baselines and the standing
/// matcher all refine through it; `SplitMatch` passes its own step.
pub(crate) fn refine_from(
    work: &Pq,
    g: &Graph,
    engine: &mut ProbeReach<'_>,
    mats: Vec<Vec<NodeId>>,
) -> Option<Vec<Vec<NodeId>>> {
    refine_pruned(work, g, engine, mats, |mats, u, ok| {
        let mut ok = ok.iter();
        mats[u].retain(|_| *ok.next().unwrap());
    })
}

/// The one refinement loop over a pattern of single-atom edges (a
/// normalized one): shrinks the seed `mats` to the greatest
/// simulation-style fixpoint of match sets over `work`'s nodes, or `None`
/// if some set empties. The fixpoint is a *greatest* one, so any seed that
/// contains the answer converges to it — a fresh evaluation seeds with the
/// predicate matches ([`refine`]), maintenance after a delete-only batch
/// with the standing sets.
///
/// Each `Join` step tests `mats[u]` against one out-edge of `u`; when
/// some source lost its witness, `prune(mats, u, ok)` must drop exactly
/// the sources whose `ok[i]` is false from `mats[u]` (keeping the others
/// in order) and may touch nothing else of `mats`. The step is where the
/// algorithms differ: [`refine_from`] filters the set, `SplitMatch` splits
/// its partition and reads the set back from it.
pub(crate) fn refine_pruned(
    work: &Pq,
    g: &Graph,
    engine: &mut ProbeReach<'_>,
    mut mats: Vec<Vec<NodeId>>,
    mut prune: impl FnMut(&mut [Vec<NodeId>], usize, &[bool]),
) -> Option<Vec<Vec<NodeId>>> {
    let n = work.node_count();
    if mats.iter().any(|m| m.is_empty()) {
        return None;
    }

    // SCC DAG of the query, components already in reversed topological
    // order (Tarjan's emission order).
    let (_, comps) = condensation(n, |u| {
        work.out_edges(u)
            .iter()
            .map(|&e| work.edge(e).to)
            .collect::<Vec<_>>()
            .into_iter()
    });

    let mut queued = vec![false; work.edge_count()];
    for comp in &comps {
        let in_comp = {
            let mut mask = vec![false; n];
            for &u in comp {
                mask[u] = true;
            }
            mask
        };
        // seed: every edge whose head lies in this component (Fig. 7 line 8)
        let mut worklist: VecDeque<usize> = VecDeque::new();
        for e in 0..work.edge_count() {
            if in_comp[work.edge(e).to] {
                worklist.push_back(e);
                queued[e] = true;
            }
        }
        while let Some(ei) = worklist.pop_front() {
            queued[ei] = false;
            let edge = work.edge(ei);
            let (u_from, u_to) = (edge.from, edge.to);
            // procedure Join: prune sources with no surviving witness, as
            // ONE bulk backend call so index backends answer the whole step
            // from label/row scans.
            let ok = survivors(g, engine, &mats[u_from], &mats[u_to], &edge.regex);
            if ok.iter().all(|&o| o) {
                continue;
            }
            prune(&mut mats, u_from, &ok);
            debug_assert_eq!(
                mats[u_from].len(),
                ok.iter().filter(|&&o| o).count(),
                "a step drops exactly the unwitnessed sources"
            );
            if mats[u_from].is_empty() {
                return None; // Fig. 7 line 11
            }
            // lines 12-13: predecessors of u_from must be re-checked
            for &e2 in work.in_edges(u_from) {
                if !queued[e2] {
                    queued[e2] = true;
                    worklist.push_back(e2);
                }
            }
        }
    }
    Some(mats)
}

/// One refinement step's witness test in [`refine_pruned`]: `out[i]` =
/// does `sources[i]` reach some target through `regex`? The edges they
/// refine are single-atom, so this is one bulk
/// [`DistProbe::sources_reaching_within`](rpq_index::DistProbe::sources_reaching_within)
/// call (answered from aggregated label scans or one graph sweep).
fn survivors(
    g: &Graph,
    engine: &ProbeReach<'_>,
    sources: &[NodeId],
    targets: &[NodeId],
    regex: &rpq_regex::FRegex,
) -> Vec<bool> {
    let [atom] = regex.atoms() else {
        panic!("refinement runs on single-atom edges (normalize the pattern first)");
    };
    engine
        .probe()
        .sources_reaching_within(g, sources, targets, atom.color, atom.quant.max())
}

/// Result assembly (Fig. 7 lines 15-16) over the *original* edges: for each
/// surviving source, enumerate its regex-reachable targets and intersect
/// with the target match set.
///
/// Public because serving layers that carry raw match sets (e.g. a
/// snapshot holding a standing query's maintained sets) assemble the full
/// per-edge result lazily, on first read, instead of on every update.
/// `mats[u]` must be the match set of query node `u` at a fixpoint of the
/// refinement on `g` (entries past `pq`'s nodes, e.g. the dummies of a
/// normalized refinement, are ignored) — anything else yields garbage
/// pairs, not an error. Enumerates over the graph itself ([`GraphProbe`]).
pub fn assemble(pq: &Pq, g: &Graph, mats: &[Vec<NodeId>]) -> PqResult {
    assemble_with(pq, g, mats, &mut ProbeReach::new(&GraphProbe::new(g)))
}

/// [`assemble`] through a [`ProbeReach`]: per-source enumeration goes
/// through [`ProbeReach::reach_set`], so index backends assemble from
/// bounded neighborhood scans instead of product-space searches — on large
/// graphs the assembly step would otherwise dominate the whole hop-backed
/// evaluation. Identical output by construction.
pub fn assemble_with(
    pq: &Pq,
    g: &Graph,
    mats: &[Vec<NodeId>],
    engine: &mut ProbeReach<'_>,
) -> PqResult {
    let mut edge_matches = Vec::with_capacity(pq.edge_count());
    for e in pq.edges() {
        let mut target_mask = vec![false; g.node_count()];
        for &y in &mats[e.to] {
            target_mask[y.index()] = true;
        }
        let mut pairs = Vec::new();
        for &x in &mats[e.from] {
            pairs.extend(
                engine
                    .reach_set(g, x, &e.regex)
                    .into_iter()
                    .filter(|y| target_mask[y.index()])
                    .map(|y| (x, y)),
            );
        }
        pairs.sort_unstable();
        edge_matches.push(pairs);
    }
    finish_assembly(pq, mats, edge_matches)
}

fn finish_assembly(
    pq: &Pq,
    mats: &[Vec<NodeId>],
    edge_matches: Vec<Vec<(NodeId, NodeId)>>,
) -> PqResult {
    let mut node_matches: Vec<Vec<NodeId>> = mats[..pq.node_count()].to_vec();
    for m in &mut node_matches {
        m.sort_unstable();
    }
    PqResult {
        node_matches,
        edge_matches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::reach::ProbeReach;
    use rpq_graph::gen::{essembly, synthetic};
    use rpq_graph::DistanceMatrix;
    use rpq_regex::FRegex;

    fn q2(g: &Graph) -> Pq {
        let mut pq = Pq::new();
        let b = pq.add_node(
            "B",
            Predicate::parse("job = \"doctor\" && dsp = \"cloning\"", g.schema()).unwrap(),
        );
        let c = pq.add_node(
            "C",
            Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap(),
        );
        let d = pq.add_node(
            "D",
            Predicate::parse("uid = \"Alice001\"", g.schema()).unwrap(),
        );
        let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
        pq.add_edge(b, c, re("fn"));
        pq.add_edge(c, b, re("fn"));
        pq.add_edge(c, c, re("fa+"));
        pq.add_edge(b, d, re("fn"));
        pq.add_edge(c, d, re("fa^2 sa^2"));
        pq
    }

    #[test]
    fn example_2_3_matrix_and_cache() {
        let g = essembly();
        let pq = q2(&g);
        let oracle = pq.eval_naive(&g);
        let m = DistanceMatrix::build(&g);
        let with_matrix = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m));
        assert_eq!(with_matrix, oracle, "JoinMatchM");
        // "cache": the no-index backend's frozen name — over the graph
        let graph = GraphProbe::new(&g);
        let with_graph = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&graph));
        assert_eq!(with_graph, oracle, "JoinMatch over the graph");
        assert_eq!(with_matrix.size(), 8);
    }

    #[test]
    fn example_5_1_pruning_story() {
        // Example 5.1 narrates which candidates JoinMatch prunes: C1 falls
        // to the (C,D) edge, C2 to the (C,B) edge; B keeps {B1,B2}.
        let g = essembly();
        let pq = q2(&g);
        let m = DistanceMatrix::build(&g);
        let res = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m));
        let n = |l: &str| g.node_by_label(l).unwrap();
        assert_eq!(res.node_matches(0), &[n("B1"), n("B2")]);
        assert_eq!(res.node_matches(1), &[n("C3")]);
        assert_eq!(res.node_matches(2), &[n("D1")]);
    }

    #[test]
    fn cyclic_pattern_on_cycle_graph() {
        // pattern: a 2-cycle of wildcard edges; data: a 3-cycle → matches
        let g = synthetic(30, 60, 1, 2, 5);
        let mut pq = Pq::new();
        let a = pq.add_node("a", Predicate::always_true());
        let b = pq.add_node("b", Predicate::always_true());
        let re = FRegex::parse("_+", g.alphabet()).unwrap();
        pq.add_edge(a, b, re.clone());
        pq.add_edge(b, a, re);
        let oracle = pq.eval_naive(&g);
        let m = DistanceMatrix::build(&g);
        assert_eq!(JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m)), oracle);
        let graph = GraphProbe::new(&g);
        assert_eq!(
            JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&graph)),
            oracle
        );
    }

    #[test]
    fn agrees_with_naive_on_random_patterns() {
        // randomized cross-validation on small synthetic graphs
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..12 {
            let g = synthetic(40, 140, 2, 3, 1000 + trial);
            let mut pq = Pq::new();
            let n_nodes = rng.gen_range(2..5usize);
            for i in 0..n_nodes {
                let pred = if rng.gen_bool(0.5) {
                    Predicate::parse(&format!("a0 <= {}", rng.gen_range(3..10)), g.schema())
                        .unwrap()
                } else {
                    Predicate::always_true()
                };
                pq.add_node(&format!("u{i}"), pred);
            }
            let n_edges = rng.gen_range(1..=n_nodes + 2);
            let regex_pool = ["c0", "c1^2", "c0+", "c0^2 c1", "_^3", "_+"];
            for _ in 0..n_edges {
                let u = rng.gen_range(0..n_nodes);
                let v = rng.gen_range(0..n_nodes);
                let r = regex_pool[rng.gen_range(0..regex_pool.len())];
                pq.add_edge(u, v, FRegex::parse(r, g.alphabet()).unwrap());
            }
            let oracle = pq.eval_naive(&g);
            let m = DistanceMatrix::build(&g);
            let a = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m));
            let b = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&GraphProbe::new(&g)));
            assert_eq!(a, oracle, "matrix vs naive, trial {trial}");
            assert_eq!(b, oracle, "graph vs naive, trial {trial}");
        }
    }

    #[test]
    fn empty_when_predicate_unsatisfied() {
        let g = essembly();
        let mut pq = Pq::new();
        let a = pq.add_node(
            "X",
            Predicate::parse("job = \"astronaut\"", g.schema()).unwrap(),
        );
        let b = pq.add_node("Y", Predicate::always_true());
        pq.add_edge(a, b, FRegex::parse("fa", g.alphabet()).unwrap());
        let m = DistanceMatrix::build(&g);
        let res = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m));
        assert!(res.is_empty());
        assert_eq!(res, pq.eval_naive(&g));
    }
}
