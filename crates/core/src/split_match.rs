//! `SplitMatch` — the split-based PQ evaluation algorithm (§5.2, Fig. 8).
//!
//! Where `JoinMatch` refines one query node's match set at a time,
//! `SplitMatch` maintains a **partition** of the data nodes into blocks
//! together with a *partition–relation pair* ⟨par, rel⟩: `rel(u)` is the
//! set of blocks whose members are still candidate matches of query node
//! `u`. Refinement repeatedly computes, for an edge `e = (u', u)`, the set
//! `rmv(e)` of candidates of `u'` with no surviving witness, **splits**
//! every block of the partition against `rmv(e)` (procedure `Split`), and
//! drops the `⊆ rmv` blocks from `rel(u')` — the idea the paper adapts
//! from labeled-transition-system simulation algorithms \[Ranzato–Tapparo\].
//!
//! The initial partition groups data nodes by their *signature*: the set of
//! query nodes whose predicate they satisfy. All candidate bookkeeping then
//! happens at block granularity, and blocks only ever shrink by splitting —
//! the partition refines monotonically, which bounds the total number of
//! blocks by `O(|V|·|V'p|)` as in the paper's analysis.

use crate::pq::{Pq, PqResult};
use crate::predicate::selected;
use crate::reach::ProbeReach;
use rpq_graph::{Graph, NodeId};
use rpq_index::DistProbe;
use std::collections::{HashMap, HashSet, VecDeque};

/// Marker type for the split-based algorithm.
pub struct SplitMatch;

struct Partition {
    /// members of each block (dead blocks become empty)
    blocks: Vec<Vec<NodeId>>,
    /// block id per data node
    block_of: Vec<u32>,
}

impl Partition {
    /// Split every block against `rmv` (a set of data nodes, given as a
    /// mask). Returns `(old, new)` block-id pairs: `new` is the `∩ rmv`
    /// piece carved out of `old`. Blocks entirely inside or outside `rmv`
    /// are untouched (their id is reported in `fully_inside` if inside).
    fn split(&mut self, rmv_mask: &[bool], rmv_list: &[NodeId]) -> SplitOutcome {
        // group the removed nodes by their current block
        let mut touched: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for &x in rmv_list {
            touched.entry(self.block_of[x.index()]).or_default().push(x);
        }
        let mut carved: Vec<(u32, u32)> = Vec::new();
        let mut fully_inside: Vec<u32> = Vec::new();
        for (b, inside) in touched {
            if inside.len() == self.blocks[b as usize].len() {
                fully_inside.push(b);
                continue;
            }
            // carve B1 = B ∩ rmv out of B; B keeps B \ rmv
            let new_id = self.blocks.len() as u32;
            let members = &mut self.blocks[b as usize];
            members.retain(|x| !rmv_mask[x.index()]);
            for &x in &inside {
                self.block_of[x.index()] = new_id;
            }
            self.blocks.push(inside);
            carved.push((b, new_id));
        }
        SplitOutcome {
            carved,
            fully_inside,
        }
    }
}

struct SplitOutcome {
    /// (original block, new block holding the `∩ rmv` members)
    carved: Vec<(u32, u32)>,
    /// blocks that were entirely inside `rmv`
    fully_inside: Vec<u32>,
}

impl SplitMatch {
    /// Evaluate `pq` on `g` using `engine` for reachability probes.
    pub fn eval<P: DistProbe + ?Sized>(
        pq: &Pq,
        g: &Graph,
        engine: &mut ProbeReach<'_, P>,
    ) -> PqResult {
        let work = pq.normalize();
        let nq = work.node_count();

        // --- initial ⟨par, rel⟩: signature-grouped blocks -------------
        let mut sig_to_block: HashMap<Vec<u64>, u32> = HashMap::new();
        let words = nq.div_ceil(64).max(1);
        let mut partition = Partition {
            blocks: Vec::new(),
            block_of: vec![0; g.node_count()],
        };
        let mut rel: Vec<HashSet<u32>> = vec![HashSet::new(); nq];
        // a node's signature: the pattern nodes whose predicate selects it
        let selects: Vec<Vec<u64>> = (0..nq).map(|u| work.node(u).pred.select_bits(g)).collect();
        let mut sig = vec![0u64; words];
        for v in g.nodes() {
            sig.fill(0);
            for (u, bits) in selects.iter().enumerate() {
                if selected(bits, v) {
                    sig[u / 64] |= 1 << (u % 64);
                }
            }
            let b = match sig_to_block.get(&sig) {
                Some(&b) => b,
                None => {
                    let b = partition.blocks.len() as u32;
                    partition.blocks.push(Vec::new());
                    for (u, rel_u) in rel.iter_mut().enumerate() {
                        if sig[u / 64] & (1 << (u % 64)) != 0 {
                            rel_u.insert(b);
                        }
                    }
                    sig_to_block.insert(sig.clone(), b);
                    b
                }
            };
            partition.blocks[b as usize].push(v);
            partition.block_of[v.index()] = b;
        }
        if rel.iter().any(|r| r.is_empty()) {
            return PqResult::empty(pq);
        }

        // --- refinement loop (Fig. 8 lines 8-14) ----------------------
        let cand = |rel_u: &HashSet<u32>, partition: &Partition| -> Vec<NodeId> {
            let mut v: Vec<NodeId> = rel_u
                .iter()
                .flat_map(|&b| partition.blocks[b as usize].iter().copied())
                .collect();
            v.sort_unstable();
            v
        };

        let mut queued = vec![false; work.edge_count()];
        let mut worklist: VecDeque<usize> = (0..work.edge_count()).collect();
        for q in queued.iter_mut() {
            *q = true;
        }
        while let Some(ei) = worklist.pop_front() {
            queued[ei] = false;
            let edge = work.edge(ei);
            let (u_from, u_to) = (edge.from, edge.to);
            let sources = cand(&rel[u_from], &partition);
            let targets = cand(&rel[u_to], &partition);
            // rmv(e): candidates of u_from without a witness in cand(u_to)
            // — one bulk backend call per step (see join_match::survivors)
            let ok = crate::join_match::survivors(g, engine, &sources, &targets, &edge.regex);
            let rmv_list: Vec<NodeId> = sources
                .iter()
                .zip(&ok)
                .filter(|(_, &o)| !o)
                .map(|(&x, _)| x)
                .collect();
            if rmv_list.is_empty() {
                continue;
            }
            let mut rmv_mask = vec![false; g.node_count()];
            for &x in &rmv_list {
                rmv_mask[x.index()] = true;
            }
            // procedure Split: refine the partition against rmv
            let outcome = partition.split(&rmv_mask, &rmv_list);
            // every rel set that referenced a carved block now references
            // both pieces — except u_from, which sheds the ⊆ rmv piece
            for (u, rel_u) in rel.iter_mut().enumerate() {
                for &(old, new) in &outcome.carved {
                    if rel_u.contains(&old) && u != u_from {
                        rel_u.insert(new);
                    }
                }
            }
            // Fig. 8 line 11: drop blocks entirely inside rmv from rel(u')
            for &b in &outcome.fully_inside {
                rel[u_from].remove(&b);
            }
            if rel[u_from].is_empty()
                || rel[u_from]
                    .iter()
                    .all(|&b| partition.blocks[b as usize].is_empty())
            {
                return PqResult::empty(pq);
            }
            // lines 12-14: re-examine edges entering u_from
            for &e2 in work.in_edges(u_from) {
                if !queued[e2] {
                    queued[e2] = true;
                    worklist.push_back(e2);
                }
            }
        }

        // --- result collection (Fig. 8 lines 15-18) -------------------
        let mats: Vec<Vec<NodeId>> = (0..nq).map(|u| cand(&rel[u], &partition)).collect();
        if mats[..pq.node_count()].iter().any(|m| m.is_empty()) {
            return PqResult::empty(pq);
        }
        crate::join_match::assemble_with(pq, g, &mats, engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_match::JoinMatch;
    use crate::predicate::Predicate;
    use crate::reach::{MatrixReach, ProbeReach};
    use rpq_graph::gen::{essembly, synthetic};
    use rpq_graph::DistanceMatrix;
    use rpq_index::GraphProbe;
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
    fn example_5_2() {
        // SplitMatch on Q2 "identifies the same result as Example 2.3"
        let g = essembly();
        let pq = q2(&g);
        let oracle = pq.eval_naive(&g);
        let m = DistanceMatrix::build(&g);
        assert_eq!(SplitMatch::eval(&pq, &g, &mut MatrixReach::new(&m)), oracle);
        let graph = GraphProbe::new(&g);
        assert_eq!(
            SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&graph)),
            oracle
        );
    }

    #[test]
    fn split_agrees_with_join_on_random_patterns() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..12 {
            let g = synthetic(40, 150, 2, 3, 2000 + trial);
            let m = DistanceMatrix::build(&g);
            let mut pq = Pq::new();
            let n_nodes = rng.gen_range(2..5usize);
            for i in 0..n_nodes {
                let pred = if rng.gen_bool(0.6) {
                    Predicate::parse(&format!("a1 >= {}", rng.gen_range(0..6)), g.schema()).unwrap()
                } else {
                    Predicate::always_true()
                };
                pq.add_node(&format!("u{i}"), pred);
            }
            for _ in 0..rng.gen_range(1..=n_nodes + 2) {
                let u = rng.gen_range(0..n_nodes);
                let v = rng.gen_range(0..n_nodes);
                let pool = ["c0", "c2^2", "c1+", "c0 c1", "_^2", "_+"];
                let r = pool[rng.gen_range(0..pool.len())];
                pq.add_edge(u, v, FRegex::parse(r, g.alphabet()).unwrap());
            }
            let join = JoinMatch::eval(&pq, &g, &mut MatrixReach::new(&m));
            let split_m = SplitMatch::eval(&pq, &g, &mut MatrixReach::new(&m));
            let split_c = SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&GraphProbe::new(&g)));
            let naive = pq.eval_naive(&g);
            assert_eq!(split_m, naive, "splitM vs naive, trial {trial}");
            assert_eq!(
                split_c, naive,
                "split over the graph vs naive, trial {trial}"
            );
            assert_eq!(join, naive, "join vs naive, trial {trial}");
        }
    }

    #[test]
    fn empty_pattern_result() {
        let g = essembly();
        let mut pq = Pq::new();
        let a = pq.add_node(
            "X",
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        );
        // doctors have no sa out-edges at all
        let b = pq.add_node("Y", Predicate::always_true());
        pq.add_edge(a, b, FRegex::parse("sa", g.alphabet()).unwrap());
        let m = DistanceMatrix::build(&g);
        let res = SplitMatch::eval(&pq, &g, &mut MatrixReach::new(&m));
        assert!(res.is_empty());
        assert_eq!(res, pq.eval_naive(&g));
    }

    #[test]
    fn overlapping_predicates_share_blocks() {
        // two query nodes whose candidate sets overlap: block bookkeeping
        // must keep both rels correct through splits
        let g = essembly();
        let mut pq = Pq::new();
        let a = pq.add_node(
            "any-cloning",
            Predicate::parse("sp = \"cloning\"", g.schema()).unwrap(),
        );
        let b = pq.add_node(
            "biologist",
            Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
        );
        let re = FRegex::parse("fa", g.alphabet()).unwrap();
        pq.add_edge(a, b, re);
        let naive = pq.eval_naive(&g);
        let m = DistanceMatrix::build(&g);
        assert_eq!(SplitMatch::eval(&pq, &g, &mut MatrixReach::new(&m)), naive);
    }
}
