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
//! predicate-bearing query nodes whose predicate they satisfy (a dummy of
//! the normalized pattern, like any trivial predicate, holds every block).
//! It is built by splitting one all-nodes block against each predicate's
//! selection, so blocks only ever shrink by splitting — the partition
//! refines monotonically, which bounds the number of blocks by `|V|`.
//!
//! Refinement is `JoinMatch`'s loop (`join_match::refine_pruned`): the
//! same SCC-ordered worklist, the same bulk `Join` step per edge, so
//! SplitMatch issues exactly JoinMatch's probes. What it passes in is the step taken
//! when a step finds `rmv(e)` nonempty: split the partition, update `rel`,
//! and refresh the one candidate list that changed, `cand(u')`, by keeping
//! its members whose block `rel(u')` still holds. Each `cand(u)` is kept
//! as a sorted list between steps rather than re-expanded from its
//! blocks, and `rel(u)` is a bitset over block ids; debug builds check
//! after every split that `cand(u)` lists exactly the members of `rel(u)`.
//!
//! The blocks are ranges of one permutation of `V`, so a split costs
//! O(|rmv|): each removed node moves to the front of its block, and the
//! front of a block it does not fill becomes a new block. SplitMatch thus
//! pays JoinMatch's refinement plus work linear in the removals — on the
//! ledger's cyclic 6×8 patterns over `youtube_like(600, 1)` and the
//! matrix, 1.2× JoinMatch's time (two-core box).

use crate::join_match::{assemble, refine_pruned};
use crate::pq::{Pq, PqResult};
use crate::predicate::{listed, selected};
use crate::reach::ProbeReach;
use rpq_graph::{Graph, NodeId};

/// Marker type for the split-based algorithm.
pub struct SplitMatch;

/// A set of block ids, one bit per block; bits past the end are clear.
#[derive(Debug, Default)]
struct BlockSet(Vec<u64>);

impl BlockSet {
    fn contains(&self, b: u32) -> bool {
        (self.0.get(b as usize / 64)).is_some_and(|w| w >> (b % 64) & 1 == 1)
    }

    fn insert(&mut self, b: u32) {
        let i = b as usize / 64;
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        self.0[i] |= 1 << (b % 64);
    }

    fn remove(&mut self, b: u32) {
        if let Some(w) = self.0.get_mut(b as usize / 64) {
            *w &= !(1 << (b % 64));
        }
    }
}

struct Partition {
    /// the data nodes, each block's members contiguous
    order: Vec<NodeId>,
    /// each data node's position in `order`
    pos: Vec<u32>,
    /// each block's members: a range of `order`, never empty unless
    /// `|V| = 0`
    range: Vec<(u32, u32)>,
    /// block id per data node
    block_of: Vec<u32>,
    /// per block, the members of the set being split against (all zero
    /// between splits)
    hits: Vec<u32>,
    /// the blocks the set being split against touches
    touched: Vec<u32>,
}

/// What one [`Partition::split`] did.
#[derive(Default)]
struct Split {
    /// (original block, new block holding its members inside the set)
    carved: Vec<(u32, u32)>,
    /// blocks entirely inside the set
    inside: Vec<u32>,
}

impl Partition {
    /// One block holding all `n` data nodes.
    fn new(n: usize) -> Self {
        Partition {
            order: (0..n as u32).map(NodeId).collect(),
            pos: (0..n as u32).collect(),
            range: vec![(0, n as u32)],
            block_of: vec![0; n],
            hits: vec![0],
            touched: Vec::new(),
        }
    }

    fn members(&self, b: u32) -> &[NodeId] {
        let (start, end) = self.range[b as usize];
        &self.order[start as usize..end as usize]
    }

    /// Procedure `Split`: split every block against a set of distinct
    /// data nodes and record in `out` what happened. A block partly inside
    /// the set keeps its id for the members outside and hands the members
    /// inside to a new block; blocks entirely inside or outside are
    /// untouched. O(|set|): each member moves to the front of its block,
    /// and a carved block's front becomes the new block.
    fn split(&mut self, set: &[NodeId], out: &mut Split) {
        out.carved.clear();
        out.inside.clear();
        for &x in set {
            let b = self.block_of[x.index()] as usize;
            if self.hits[b] == 0 {
                self.touched.push(b as u32);
            }
            let (from, to) = (self.pos[x.index()], self.range[b].0 + self.hits[b]);
            let y = self.order[to as usize];
            self.order.swap(from as usize, to as usize);
            self.pos[x.index()] = to;
            self.pos[y.index()] = from;
            self.hits[b] += 1;
        }
        for b in self.touched.drain(..) {
            let hits = std::mem::take(&mut self.hits[b as usize]);
            let (start, end) = self.range[b as usize];
            if hits == end - start {
                out.inside.push(b);
                continue;
            }
            let new = self.range.len() as u32;
            self.range[b as usize].0 = start + hits;
            self.range.push((start, start + hits));
            for &x in &self.order[start as usize..(start + hits) as usize] {
                self.block_of[x.index()] = new;
            }
            self.hits.push(0);
            out.carved.push((b, new));
        }
    }

    /// The members of `rel`'s blocks, ascending.
    fn expand(&self, rel: &BlockSet) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = (0..self.range.len() as u32)
            .filter(|&b| rel.contains(b))
            .flat_map(|b| self.members(b).iter().copied())
            .collect();
        nodes.sort_unstable();
        nodes
    }
}

impl SplitMatch {
    /// Evaluate `pq` on `g`, refining through `engine`'s probe.
    pub fn eval(pq: &Pq, g: &Graph, engine: &ProbeReach<'_>) -> PqResult {
        let work = pq.normalize();
        let nq = work.node_count();
        let n = g.node_count();

        // --- initial ⟨par, rel⟩ ------------------------------------
        // the candidates are the predicate selections; splitting one block
        // against each groups the nodes by signature
        let mut partition = Partition::new(n);
        let mut split = Split::default();
        let mut cand: Vec<Vec<NodeId>> = Vec::with_capacity(nq);
        let mut selections: Vec<Option<Vec<u64>>> = Vec::with_capacity(nq);
        for u in 0..nq {
            let pred = &work.node(u).pred;
            if pred.is_trivial() {
                cand.push(g.nodes().collect());
                selections.push(None);
            } else {
                let bits = pred.select_bits(g);
                let members = listed(&bits);
                partition.split(&members, &mut split);
                cand.push(members);
                selections.push(Some(bits));
            }
        }
        let mut rel: Vec<BlockSet> = selections
            .iter()
            .map(|bits| {
                let mut rel_u = BlockSet::default();
                // every selection holds a block whole or not at all, so
                // its first member speaks for it
                for b in 0..partition.range.len() as u32 {
                    let first = partition.members(b).first();
                    if first.is_some_and(|&v| bits.as_ref().is_none_or(|bits| selected(bits, v))) {
                        rel_u.insert(b);
                    }
                }
                rel_u
            })
            .collect();
        debug_assert!(cand_is_rel(&cand, &rel, &partition));

        // --- refinement (Fig. 8 lines 8-14): JoinMatch's loop, splitting
        // the partition against rmv(e) wherever a step removes candidates
        let mut rmv: Vec<NodeId> = Vec::new();
        let refined = refine_pruned(&work, g, engine.probe(), cand, |cand, u, ok| {
            rmv.clear();
            rmv.extend(cand[u].iter().zip(ok).filter(|(_, &o)| !o).map(|(&x, _)| x));
            partition.split(&rmv, &mut split);
            // a carved block's ∩ rmv piece stays in every rel that held the
            // block — except rel(u), whose candidates it no longer holds
            for &(old, new) in &split.carved {
                for (w, rel_w) in rel.iter_mut().enumerate() {
                    if w != u && rel_w.contains(old) {
                        rel_w.insert(new);
                    }
                }
            }
            // line 11: blocks entirely inside rmv leave rel(u)
            for &b in &split.inside {
                rel[u].remove(b);
            }
            // only cand(u) changed: read it back from ⟨par, rel⟩
            let (rel_u, block_of) = (&rel[u], &partition.block_of);
            cand[u].retain(|x| rel_u.contains(block_of[x.index()]));
            debug_assert!(cand_is_rel(cand, &rel, &partition));
        });

        // --- result collection (Fig. 8 lines 15-18) -------------------
        match refined {
            Some(mats) => assemble(pq, g, &mats),
            None => PqResult::empty(pq),
        }
    }
}

/// Does every `cand(u)` list exactly the members of `rel(u)`'s blocks?
fn cand_is_rel(cand: &[Vec<NodeId>], rel: &[BlockSet], partition: &Partition) -> bool {
    cand.iter()
        .zip(rel)
        .all(|(cand_u, rel_u)| *cand_u == partition.expand(rel_u))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join_match::JoinMatch;
    use crate::predicate::Predicate;
    use crate::reach::ProbeReach;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rpq_graph::gen::{essembly, synthetic};
    use rpq_graph::DistanceMatrix;
    use rpq_index::{CountingProbe, DistProbe, GraphProbe};
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
        assert_eq!(SplitMatch::eval(&pq, &g, &ProbeReach::new(&m)), oracle);
        let graph = GraphProbe::new(&g);
        assert_eq!(SplitMatch::eval(&pq, &g, &ProbeReach::new(&graph)), oracle);
    }

    /// Run JoinMatch and SplitMatch over `probe`, each through its own
    /// [`CountingProbe`], and check that they agree on the answer and on
    /// the number of probes; returns the answer.
    fn split_as_join(pq: &Pq, g: &Graph, probe: &dyn DistProbe, what: &str) -> PqResult {
        let (join_probe, split_probe) = (CountingProbe::new(probe), CountingProbe::new(probe));
        let join = JoinMatch::eval(pq, g, &ProbeReach::new(&join_probe));
        let split = SplitMatch::eval(pq, g, &ProbeReach::new(&split_probe));
        assert_eq!(split, join, "{what}: SplitMatch's answer");
        assert_eq!(
            split_probe.probes(),
            join_probe.probes(),
            "{what}: SplitMatch's probe count"
        );
        split
    }

    /// A pattern of `nodes` query nodes on `g` (attributes `a0`, `a1`),
    /// each with an `a0`/`a1` bound with probability `pred_p`, and
    /// random edges; acyclic patterns only point from lower to higher
    /// node ids, cyclic ones close a ring besides.
    fn pattern_on(g: &Graph, rng: &mut StdRng, nodes: usize, pred_p: f64, cyclic: bool) -> Pq {
        let mut pq = Pq::new();
        for i in 0..nodes {
            let pred = if rng.gen_bool(pred_p) {
                let text = format!(
                    "a{} >= {} && a{} <= {}",
                    rng.gen_range(0..2),
                    rng.gen_range(0..5),
                    rng.gen_range(0..2),
                    rng.gen_range(4..10)
                );
                Predicate::parse(&text, g.schema()).unwrap()
            } else {
                Predicate::always_true()
            };
            pq.add_node(&format!("u{i}"), pred);
        }
        let pool = ["c0", "c2^2", "c1+", "c0 c1", "_^2", "_+", "c1^3 c0"];
        let regex = |rng: &mut StdRng| {
            FRegex::parse(pool[rng.gen_range(0..pool.len())], g.alphabet()).unwrap()
        };
        for _ in 0..rng.gen_range(1..=nodes + 2) {
            let u = rng.gen_range(0..nodes);
            let v = rng.gen_range(0..nodes);
            let (u, v) = if cyclic { (u, v) } else { (u.min(v), u.max(v)) };
            if cyclic || u != v {
                pq.add_edge(u, v, regex(rng));
            }
        }
        if cyclic {
            for u in 0..nodes {
                pq.add_edge(u, (u + 1) % nodes, regex(rng));
            }
        }
        pq
    }

    #[test]
    fn split_agrees_with_join_on_random_patterns() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut nonempty = 0;
        for trial in 0..200u64 {
            let g = synthetic(40, 150, 2, 3, 2000 + trial % 20);
            let m = DistanceMatrix::build(&g);
            let cyclic = trial % 2 == 0;
            let nodes = rng.gen_range(2..6);
            let pq = pattern_on(&g, &mut rng, nodes, 0.6, cyclic);
            let what = format!("trial {trial} (cyclic: {cyclic})");
            let res = split_as_join(&pq, &g, &m, &format!("{what}, matrix"));
            split_as_join(&pq, &g, &GraphProbe::new(&g), &format!("{what}, graph"));
            if trial % 8 == 0 {
                assert_eq!(res, pq.eval_naive(&g), "{what}: against the naive fixpoint");
            }
            nonempty += usize::from(!res.is_empty());
        }
        assert!(
            nonempty >= 20,
            "only {nonempty} of 200 answers are nonempty"
        );
    }

    #[test]
    fn more_than_64_predicate_bearing_nodes() {
        // 70 distinct two-attribute predicates over 150 nodes: signatures
        // span two words and the initial partition holds 143 blocks
        let g = synthetic(150, 900, 3, 2, 11);
        let mut pq = Pq::new();
        for i in 0..70 {
            let text = format!(
                "a{} = {} && a{} >= {}",
                i % 3,
                i / 3 % 10,
                (i + 1) % 3,
                i / 30
            );
            pq.add_node(
                &format!("u{i}"),
                Predicate::parse(&text, g.schema()).unwrap(),
            );
        }
        let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
        for u in 0..70 {
            pq.add_edge(u, (u + 1) % 70, re("_+"));
            if u % 5 == 0 {
                pq.add_edge(u, (u + 7) % 70, re("_^2"));
            }
        }
        assert!(pq.normalize().node_count() > 64);
        let m = DistanceMatrix::build(&g);
        let res = split_as_join(&pq, &g, &m, "70 predicate-bearing nodes");
        assert!(!res.is_empty(), "the pattern matches");
        assert!(
            (0..70).any(|u| res.node_matches(u).len() < pq.node(u).pred.select(&g).len()),
            "refinement removed candidates"
        );
        assert_eq!(res, pq.eval_naive(&g));
    }

    #[test]
    fn only_trivial_predicates() {
        // one block throughout the initial partition: every candidate
        // list starts as V, and splits alone tell the nodes apart
        let g = synthetic(60, 200, 1, 3, 5);
        let mut pq = Pq::new();
        let u: Vec<usize> = (0..4)
            .map(|i| pq.add_node(&format!("u{i}"), Predicate::always_true()))
            .collect();
        let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
        pq.add_edge(u[0], u[1], re("c0 c1"));
        pq.add_edge(u[1], u[2], re("c2^2"));
        pq.add_edge(u[2], u[0], re("c1"));
        pq.add_edge(u[3], u[3], re("_^2 c0"));
        let m = DistanceMatrix::build(&g);
        let res = split_as_join(&pq, &g, &m, "trivial predicates");
        assert!(!res.is_empty());
        assert!(
            res.node_matches(0).len() < g.node_count(),
            "refinement removed nodes"
        );
        assert_eq!(res, pq.eval_naive(&g));
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
        // every candidate list starts nonempty: a refinement step empties X
        assert!((0..2).all(|u| !pq.node(u).pred.select(&g).is_empty()));
        let m = DistanceMatrix::build(&g);
        let res = split_as_join(&pq, &g, &m, "doctors without sa");
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
        assert_eq!(SplitMatch::eval(&pq, &g, &ProbeReach::new(&m)), naive);
    }
}
