//! Reachability queries (RQs) and their three evaluation strategies (§2, §4).
//!
//! An RQ `(u1, u2, f_{u1}, f_{u2}, fe)` asks for all node pairs `(v1, v2)`
//! such that `v1 ∼ u1`, `v2 ∼ u2`, and some **nonempty** path `v1 ⇝ v2`
//! spells a word of `L(fe)`.
//!
//! Evaluation strategies, named as in Fig. 10(b):
//!
//! * **DM** ([`Rq::eval_with_matrix`]) — decompose `fe` into single-color
//!   atoms via dummy nodes, evaluate right-to-left with O(1) matrix probes,
//!   then compose the partial results (§4, "Matrix-based method").
//! * **biBFS** ([`Rq::eval_bibfs`]) — no index: expand from candidate
//!   sources and (backward) from candidate targets, meeting in the middle
//!   of the expression (§4, "Bi-directional search").
//! * **BFS** ([`Rq::eval_bfs`]) — plain forward product-automaton search
//!   from every candidate source; the uncached baseline.

use crate::predicate::{listed, selected, Predicate};
use crate::reach::product_reach_set;
use rpq_graph::{DistanceMatrix, Graph, NodeId};
use rpq_index::DistProbe;
use rpq_regex::{FRegex, Nfa};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// A reachability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rq {
    /// Search condition on the source node (`f_{u1}`).
    pub from: Predicate,
    /// Search condition on the target node (`f_{u2}`).
    pub to: Predicate,
    /// The edge constraint `fe ∈ F`.
    pub regex: FRegex,
}

/// Result of an RQ: the sorted set of matching `(source, target)` pairs.
///
/// A clone shares the pairs — one `Arc`, no copy — and one rendering slot
/// ([`rendered`](Self::rendered)). Equality and `Debug` look at the pairs
/// only.
#[derive(Clone)]
pub struct RqResult {
    shared: Arc<Shared>,
}

/// What every clone of one [`RqResult`] shares.
struct Shared {
    pairs: Vec<(NodeId, NodeId)>,
    /// Whether [`RqResult::rendered`] was asked before: a hint that
    /// publishes nothing (`rendered` publishes the bytes), so `Relaxed`.
    asked: AtomicBool,
    rendered: OnceLock<Box<[u8]>>,
}

impl PartialEq for RqResult {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared) || self.shared.pairs == other.shared.pairs
    }
}

impl Eq for RqResult {}

impl fmt::Debug for RqResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RqResult")
            .field("pairs", &self.shared.pairs)
            .finish()
    }
}

impl RqResult {
    fn new(pairs: Vec<(NodeId, NodeId)>) -> Self {
        Self::from_pairs(pairs)
    }

    fn of(pairs: Vec<(NodeId, NodeId)>) -> Self {
        RqResult {
            shared: Arc::new(Shared {
                pairs,
                asked: AtomicBool::new(false),
                rendered: OnceLock::new(),
            }),
        }
    }

    /// Build a result from raw pairs (sorted and deduplicated here).
    pub fn from_pairs(mut pairs: Vec<(NodeId, NodeId)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        Self::of(pairs)
    }

    /// Build a result from pairs that are already strictly increasing —
    /// sorted and duplicate-free, like a filtered slice of another result
    /// or of a memoized reach set. One linear check instead of a sort;
    /// `None` if the input is not what the caller claimed.
    pub fn from_sorted_pairs(pairs: Vec<(NodeId, NodeId)>) -> Option<Self> {
        pairs
            .windows(2)
            .all(|w| w[0] < w[1])
            .then(|| Self::of(pairs))
    }

    /// The matching pairs, sorted.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.shared.pairs.clone()
    }

    /// The matching pairs, sorted, without the copy [`pairs`](Self::pairs)
    /// makes — for a caller that is done with the result (a result other
    /// clones still share is copied).
    pub fn into_pairs(self) -> Vec<(NodeId, NodeId)> {
        Arc::try_unwrap(self.shared).map_or_else(|shared| shared.pairs.clone(), |own| own.pairs)
    }

    /// The pairs as `render` lays them out, made at most once and shared
    /// by every clone — for a caller that writes one answer out many
    /// times, such as a server answering repeated queries from a cache.
    /// The first call only notes the request and returns `None`: most
    /// results are written once, and that caller lays the pairs out
    /// straight into its own output. The second call renders into the
    /// shared slot; it and every later call return those bytes. `render`
    /// must depend on the pairs alone, the same function on every call.
    pub fn rendered(&self, render: impl FnOnce(&[(NodeId, NodeId)]) -> Vec<u8>) -> Option<&[u8]> {
        let shared = &*self.shared;
        if let Some(bytes) = shared.rendered.get() {
            return Some(bytes);
        }
        if !shared.asked.swap(true, Ordering::Relaxed) {
            return None;
        }
        Some(
            shared
                .rendered
                .get_or_init(|| render(&shared.pairs).into_boxed_slice()),
        )
    }

    /// Borrowed view of the matching pairs.
    pub fn as_slice(&self) -> &[(NodeId, NodeId)] {
        &self.shared.pairs
    }

    /// Number of matching pairs.
    pub fn len(&self) -> usize {
        self.shared.pairs.len()
    }

    /// True if no pair matched.
    pub fn is_empty(&self) -> bool {
        self.shared.pairs.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, x: NodeId, y: NodeId) -> bool {
        self.shared.pairs.binary_search(&(x, y)).is_ok()
    }
}

impl Rq {
    /// Build an RQ.
    pub fn new(from: Predicate, to: Predicate, regex: FRegex) -> Self {
        Rq { from, to, regex }
    }

    /// **BFS** strategy: forward product-automaton search from every
    /// candidate source. O(|mat(u1)| · |F-states| · (|V| + |E|)).
    pub fn eval_bfs(&self, g: &Graph) -> RqResult {
        product_search(g, &Nfa::from_regex(&self.regex), &self.from, &self.to)
    }

    /// **DM** strategy (§4): decompose `fe` into single-color atoms (the
    /// dummy-node rewrite) and evaluate with matrix probes:
    /// [`eval_with_dist`](Rq::eval_with_dist) over the dense matrix, under
    /// the name Fig. 10(b) gives the strategy.
    pub fn eval_with_matrix(&self, g: &Graph, m: &DistanceMatrix) -> RqResult {
        self.eval_with_dist(g, m)
    }

    /// Index-generic strategy: the DM algorithm of §4 over **any**
    /// [`DistProbe`] backend — the dense [`DistanceMatrix`] under its node
    /// limit, or pruned 2-hop labels (`rpq_index::HopLabels`, the engine's
    /// `hop` plan) beyond it. Results are identical across backends;
    /// only the probe cost differs.
    ///
    /// Implementation notes — one recorded pass, rows only for live nodes.
    /// Level 0 is the sorted sources; level `i + 1` is the sorted set of
    /// distinct nodes the scans of atom `i` hit from level `i`. Each level
    /// node is scanned once ([`DistProbe::for_each_reaching_within`] —
    /// contiguous row scans for the matrix, inverted hub lists for labels,
    /// with the |path| ≥ 1 diagonal folded in), and its hits are recorded,
    /// deduplicated per row, as a CSR row into the next level. The target
    /// predicate's bitmap ([`Predicate::select_bits`]) is tested on the
    /// last level only. The paper's
    /// "compose these partial results" then runs backward over the
    /// recorded rows: a level node's bitset over the kept targets is the
    /// OR of its successors' — one `|level| × ⌈targets / 64⌉` word table
    /// per level, never one per graph node, and no second scan. Sources
    /// come out ascending and each row's bits in target order, so the
    /// pairs are sorted as produced.
    pub fn eval_with_dist(&self, g: &Graph, m: &dyn DistProbe) -> RqResult {
        self.eval_with_dist_from(g, m, self.from.select(g))
    }

    /// [`eval_with_dist`](Rq::eval_with_dist)'s recorded pass from the
    /// given `sources` only — ascending, each a candidate source — so the
    /// answer holds exactly the pairs of those sources. The live layer's
    /// memo re-runs it over the sources an update batch can reach
    /// ([`patch_reach_set`](crate::incremental::patch_reach_set)).
    pub fn eval_with_dist_from(
        &self,
        g: &Graph,
        m: &dyn DistProbe,
        sources: Vec<NodeId>,
    ) -> RqResult {
        const NONE: u32 = u32::MAX;
        let n = g.node_count();
        let mut levels: Vec<Vec<NodeId>> = vec![sources];
        let mut steps: Vec<Step> = Vec::with_capacity(self.regex.len());
        // stamp[z]: the last row whose scan hit z (per-row deduplication);
        // slot[z]: z's position in the level being built (NONE = absent)
        let (mut stamp, mut slot) = (vec![NONE; n], vec![NONE; n]);
        let mut row_id = 0u32;
        for atom in self.regex.atoms() {
            let level = levels.last().expect("level 0 is the sources");
            if level.is_empty() {
                return RqResult::new(Vec::new());
            }
            let mut step = Step {
                offsets: Vec::with_capacity(level.len() + 1),
                hits: Vec::new(),
            };
            step.offsets.push(0);
            for &w in level {
                m.for_each_reaching_within(g, w, atom.color, atom.quant.max(), &mut |z| {
                    let zi = z.index();
                    if stamp[zi] != row_id {
                        stamp[zi] = row_id;
                        slot[zi] = 0;
                        step.hits.push(z.0);
                    }
                });
                row_id += 1;
                step.offsets.push(step.hits.len());
            }
            let mut next = Vec::new();
            for (z, s) in slot.iter_mut().enumerate() {
                if *s != NONE {
                    *s = next.len() as u32;
                    next.push(NodeId(z as u32));
                }
            }
            for hit in &mut step.hits {
                *hit = slot[*hit as usize];
            }
            for z in &next {
                slot[z.index()] = NONE;
            }
            steps.push(step);
            levels.push(next);
        }

        // kept targets: the last level's nodes that match `to`, ascending;
        // bit_of[p] = the bit of last-level position p (NONE = not kept)
        let targets = self.to.select_bits(g);
        let mut kept: Vec<NodeId> = Vec::new();
        let bit_of: Vec<u32> = levels[levels.len() - 1]
            .iter()
            .map(|&y| {
                if !selected(&targets, y) {
                    return NONE;
                }
                kept.push(y);
                kept.len() as u32 - 1
            })
            .collect();
        if kept.is_empty() {
            return RqResult::new(Vec::new());
        }
        let words = kept.len().div_ceil(64);
        let last = steps.pop().expect("F expressions are nonempty");
        let mut rows = last.compose(words, |p, row| {
            let b = bit_of[p as usize];
            if b != NONE {
                row[b as usize / 64] |= 1 << (b % 64);
            }
        });
        while let Some(step) = steps.pop() {
            rows = step.compose(words, |p, row| {
                let succ = &rows[p as usize * words..(p as usize + 1) * words];
                for (a, &s) in row.iter_mut().zip(succ) {
                    *a |= s;
                }
            });
        }

        let mut pairs = Vec::new();
        for (&x, bits) in levels[0].iter().zip(rows.chunks_exact(words)) {
            for (w, &word) in bits.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    pairs.push((x, kept[w * 64 + b]));
                }
            }
        }
        RqResult::from_sorted_pairs(pairs).expect("ascending sources, ascending targets per source")
    }

    /// **biBFS** strategy (§4): split the expression in the middle; expand
    /// candidate sources forward through the prefix and candidate targets
    /// backward through the suffix, then join on the meeting nodes.
    pub fn eval_bibfs(&self, g: &Graph) -> RqResult {
        let atoms = self.regex.atoms();
        let sources = self.from.select(g);
        let to_bits = self.to.select_bits(g);
        let targets = listed(&to_bits);
        if sources.is_empty() || targets.is_empty() {
            return RqResult::new(Vec::new());
        }
        // expand the smaller candidate set through the longer half
        let mid = if sources.len() <= targets.len() {
            atoms.len().div_ceil(2)
        } else {
            atoms.len() / 2
        };
        let (front, back) = atoms.split_at(mid);

        // forward: x -> set of middle nodes
        let mut mid_to_sources: HashMap<NodeId, Vec<NodeId>> = HashMap::new();
        if front.is_empty() {
            for &x in &sources {
                mid_to_sources.entry(x).or_default().push(x);
            }
        } else {
            let f_re = FRegex::new(front.to_vec());
            let f_nfa = Nfa::from_regex(&f_re);
            for &x in &sources {
                for mnode in product_reach_set(g, &f_nfa, x) {
                    mid_to_sources.entry(mnode).or_default().push(x);
                }
            }
        }

        let mut pairs = Vec::new();
        if back.is_empty() {
            for (&mnode, xs) in &mid_to_sources {
                if selected(&to_bits, mnode) {
                    pairs.extend(xs.iter().map(|&x| (x, mnode)));
                }
            }
        } else {
            let b_re = FRegex::new(back.to_vec());
            for &y in &targets {
                for mnode in backward_reach_set(g, &b_re, y) {
                    if let Some(xs) = mid_to_sources.get(&mnode) {
                        pairs.extend(xs.iter().map(|&x| (x, y)));
                    }
                }
            }
        }
        RqResult::new(pairs)
    }
}

/// One atom's recorded scans in [`Rq::eval_with_dist`]: row `r` (the
/// `r`-th node of a level) hit the next level's positions
/// `hits[offsets[r]..offsets[r + 1]]`, each once — so the record grows
/// with the scans' own distinct output, 4 bytes per (row, hit).
struct Step {
    offsets: Vec<usize>,
    hits: Vec<u32>,
}

impl Step {
    /// This level's bitset rows (`words` per row), each the fold of
    /// `or_succ(p, row)` over the row's recorded hits `p`.
    fn compose(&self, words: usize, mut or_succ: impl FnMut(u32, &mut [u64])) -> Vec<u64> {
        let mut rows = vec![0u64; (self.offsets.len() - 1) * words];
        for (row, span) in rows.chunks_exact_mut(words).zip(self.offsets.windows(2)) {
            for &p in &self.hits[span[0]..span[1]] {
                or_succ(p, row);
            }
        }
        rows
    }
}

/// The BFS strategy over any automaton — an F expression's
/// ([`Rq::eval_bfs`]) or a general one's
/// ([`GRq::eval`](crate::grq::GRq::eval)): every candidate source's
/// product reach set, kept where `to` holds. Being the reference answer,
/// it tests predicates row by row ([`Predicate::matches`]), independently
/// of the column scans ([`Predicate::select`]) the evaluators use.
pub(crate) fn product_search(g: &Graph, nfa: &Nfa, from: &Predicate, to: &Predicate) -> RqResult {
    let is_target: Vec<bool> = g.nodes().map(|y| to.matches(g.attrs(y))).collect();
    let mut pairs = Vec::new();
    for x in g.nodes().filter(|&x| from.matches(g.attrs(x))) {
        for y in product_reach_set(g, nfa, x) {
            if is_target[y.index()] {
                pairs.push((x, y));
            }
        }
    }
    RqResult::new(pairs)
}

/// All nodes `x` such that `(x, y) ⊨ re`, by *backward* product search from
/// `y` (the mirror of [`product_reach_set`]).
pub fn backward_reach_set(g: &Graph, re: &FRegex, y: NodeId) -> Vec<NodeId> {
    let nfa = Nfa::from_regex(re);
    let states = nfa.state_count();
    let mut visited = vec![false; g.node_count() * states];
    let mut queue = std::collections::VecDeque::new();
    for a in nfa.accepting_states() {
        visited[y.index() * states + a as usize] = true;
        queue.push_back((y, a));
    }
    let mut hit = vec![false; g.node_count()];
    while let Some((v, t)) = queue.pop_front() {
        for e in g.in_edges(v) {
            for s in nfa.predecessors(t, e.color) {
                let slot = e.node.index() * states + s as usize;
                if !visited[slot] {
                    visited[slot] = true;
                    if s == nfa.start() {
                        hit[e.node.index()] = true;
                    }
                    queue.push_back((e.node, s));
                }
            }
        }
    }
    hit.iter()
        .enumerate()
        .filter(|(_, &h)| h)
        .map(|(i, _)| NodeId(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::gen::essembly;

    fn q1(g: &Graph) -> Rq {
        Rq::new(
            Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap(),
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
            FRegex::parse("fa^2 fn", g.alphabet()).unwrap(),
        )
    }

    #[test]
    fn sorted_input_constructor_checks_its_input() {
        let p = |x, y| (NodeId(x), NodeId(y));
        let sorted = vec![p(0, 3), p(0, 7), p(2, 1)];
        assert_eq!(
            RqResult::from_sorted_pairs(sorted.clone()),
            Some(RqResult::from_pairs(sorted))
        );
        assert_eq!(
            RqResult::from_sorted_pairs(Vec::new()),
            Some(RqResult::from_pairs(Vec::new()))
        );
        assert_eq!(RqResult::from_sorted_pairs(vec![p(2, 1), p(0, 3)]), None);
        assert_eq!(RqResult::from_sorted_pairs(vec![p(0, 7), p(0, 3)]), None);
        assert_eq!(RqResult::from_sorted_pairs(vec![p(0, 3), p(0, 3)]), None);
    }

    #[test]
    fn clones_share_pairs_and_one_rendering() {
        let r = RqResult::from_pairs(vec![(NodeId(2), NodeId(1)), (NodeId(0), NodeId(3))]);
        let twin = r.clone();
        assert_eq!(r.as_slice().as_ptr(), twin.as_slice().as_ptr());
        let mut renders = 0;
        let mut render = |pairs: &[(NodeId, NodeId)]| {
            renders += 1;
            format!("{pairs:?}").into_bytes()
        };
        // the first ask only notes it; the second renders, once for all clones
        assert_eq!(r.rendered(&mut render), None);
        let bytes = twin.rendered(&mut render).expect("asked before").as_ptr();
        assert_eq!(r.rendered(&mut render).unwrap().as_ptr(), bytes);
        assert_eq!(renders, 1);
        assert_eq!(
            twin.rendered(|_| unreachable!()).unwrap(),
            b"[(NodeId(0), NodeId(3)), (NodeId(2), NodeId(1))]"
        );
        // the rendering is not part of the value
        assert_eq!(r, RqResult::from_pairs(r.pairs()));
        assert_eq!(
            format!("{r:?}"),
            format!("{:?}", RqResult::from_pairs(r.pairs()))
        );
        assert_eq!(r.into_pairs(), twin.pairs());
    }

    /// Example 2.2: Q1(G) = {(C1,B1), (C1,B2), (C2,B1), (C2,B2)}.
    #[test]
    fn example_2_2_all_strategies() {
        let g = essembly();
        let rq = q1(&g);
        let expect: Vec<(NodeId, NodeId)> = {
            let n = |l: &str| g.node_by_label(l).unwrap();
            let mut v = vec![
                (n("C1"), n("B1")),
                (n("C1"), n("B2")),
                (n("C2"), n("B1")),
                (n("C2"), n("B2")),
            ];
            v.sort_unstable();
            v
        };
        let m = DistanceMatrix::build(&g);
        assert_eq!(rq.eval_bfs(&g).pairs(), expect, "BFS");
        assert_eq!(rq.eval_with_matrix(&g, &m).pairs(), expect, "DM");
        assert_eq!(rq.eval_bibfs(&g).pairs(), expect, "biBFS");
    }

    #[test]
    fn strategies_agree_on_many_regexes() {
        let g = essembly();
        let m = DistanceMatrix::build(&g);
        let preds = [
            Predicate::always_true(),
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
            Predicate::parse("sp = \"cloning\"", g.schema()).unwrap(),
        ];
        let regexes = [
            "fa", "fn", "fa^2", "fa+", "fa^2 fn", "fn _+", "sa sn", "_^2 _",
        ];
        for from in &preds {
            for to in &preds {
                for r in &regexes {
                    let rq = Rq::new(
                        from.clone(),
                        to.clone(),
                        FRegex::parse(r, g.alphabet()).unwrap(),
                    );
                    let a = rq.eval_bfs(&g);
                    let b = rq.eval_with_matrix(&g, &m);
                    let c = rq.eval_bibfs(&g);
                    assert_eq!(a, b, "DM vs BFS on {r}");
                    assert_eq!(a, c, "biBFS vs BFS on {r}");
                }
            }
        }
    }

    #[test]
    fn empty_results() {
        let g = essembly();
        let m = DistanceMatrix::build(&g);
        // no physicians reach doctors via sn edges
        let rq = Rq::new(
            Predicate::parse("job = \"physician\"", g.schema()).unwrap(),
            Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
            FRegex::parse("sn+", g.alphabet()).unwrap(),
        );
        assert!(rq.eval_bfs(&g).is_empty());
        assert!(rq.eval_with_matrix(&g, &m).is_empty());
        assert!(rq.eval_bibfs(&g).is_empty());
        // unsatisfiable predicate
        let rq2 = Rq::new(
            Predicate::parse("job = \"astronaut\"", g.schema()).unwrap(),
            Predicate::always_true(),
            FRegex::parse("fa", g.alphabet()).unwrap(),
        );
        assert!(rq2.eval_bfs(&g).is_empty());
        assert!(rq2.eval_with_matrix(&g, &m).is_empty());
        assert!(rq2.eval_bibfs(&g).is_empty());
    }

    #[test]
    fn result_api() {
        let g = essembly();
        let rq = q1(&g);
        let res = rq.eval_bfs(&g);
        assert_eq!(res.len(), 4);
        assert!(!res.is_empty());
        let c1 = g.node_by_label("C1").unwrap();
        let b1 = g.node_by_label("B1").unwrap();
        let c3 = g.node_by_label("C3").unwrap();
        assert!(res.contains(c1, b1));
        assert!(!res.contains(c3, b1));
        assert_eq!(res.as_slice().len(), 4);
    }

    #[test]
    fn backward_set_mirrors_forward() {
        let g = essembly();
        let re = FRegex::parse("fa^2 fn", g.alphabet()).unwrap();
        let nfa = Nfa::from_regex(&re);
        for y in g.nodes() {
            let back = backward_reach_set(&g, &re, y);
            for x in g.nodes() {
                let fwd_hit = product_reach_set(&g, &nfa, x).contains(&y);
                assert_eq!(back.contains(&x), fwd_hit, "{x:?} -> {y:?}");
            }
        }
    }
}
