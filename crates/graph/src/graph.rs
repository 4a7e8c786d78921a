//! The data graph `G = (V, E, f_A, f_C)` in CSR form.
//!
//! Nodes are dense `u32` ids. Both forward (out-edge) and reverse (in-edge)
//! adjacency are stored as offset/entry arrays so that BFS in either
//! direction — the bi-directional search of §4 needs both — is a linear scan.
//!
//! Rows are **colour-major**: each row is sorted by (colour, neighbour), so
//! one colour's edges are one contiguous run. §4 measures every distance
//! inside one colour's subgraph, and a sweep over colour `c` reads exactly
//! [`Graph::out_edges_of`]`(v, c)` / [`Graph::in_edges_of`]`(v, c)` instead
//! of the whole row through a colour filter. Beside its `n + 1` row starts,
//! each direction keeps a run table: with an alphabet of `k ≤`
//! [`DENSE_COLORS`] colours it holds `n·k + 1` entries, entry `v·k + c`
//! being where colour `c` starts in row `v` (at most 64 B per node per
//! direction). Past the bound there is no run table, and a colour's run is
//! found by binary search inside its row. [`Graph::edges`] still yields
//! (source, target, colour) order.

use crate::attr::{Attrs, Columns, NodeAttrs, Schema};
use crate::color::{Alphabet, Color};
use std::sync::Arc;

/// Identifier of a node in a [`Graph`]: a dense index in `0..graph.node_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One (neighbor, color) adjacency entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeRef {
    /// The other endpoint (target for out-edges, source for in-edges).
    pub node: NodeId,
    /// The edge color `f_C(e)`.
    pub color: Color,
}

/// An immutable attributed, edge-colored directed graph.
///
/// Construct one with [`crate::GraphBuilder`]. Parallel edges with different
/// colors are allowed (and required: the paper's data graphs relate the same
/// pair of people through several relationship types); exact duplicate edges
/// are deduplicated at build time.
#[derive(Debug, Clone)]
pub struct Graph {
    pub(crate) schema: Schema,
    pub(crate) alphabet: Alphabet,
    pub(crate) labels: Vec<String>,
    /// Rows and columns: shared, not copied, by a graph derived through
    /// edge updates ([`crate::GraphBuilder::from_graph`]).
    pub(crate) attrs: Arc<NodeAttrs>,
    /// `k`, the run tables' entries per node; 0 when the alphabet is past
    /// [`DENSE_COLORS`] and there are no run tables.
    pub(crate) stride: usize,
    /// `n + 1` row starts into `out_adj`. Every `stride`-th run start,
    /// kept apart so a whole-row sweep (`_`, the matrix's wildcard layer)
    /// reads 4 B per node, not one run table entry per colour.
    pub(crate) out_offsets: Vec<u32>,
    /// `n·stride + 1` colour-run starts into `out_adj` (see the module
    /// docs); empty when `stride` is 0.
    pub(crate) out_runs: Vec<u32>,
    pub(crate) out_adj: Vec<EdgeRef>,
    /// `n + 1` row starts into `in_adj`.
    pub(crate) in_offsets: Vec<u32>,
    /// `n·stride + 1` colour-run starts into `in_adj`.
    pub(crate) in_runs: Vec<u32>,
    pub(crate) in_adj: Vec<EdgeRef>,
}

/// The largest alphabet whose rows keep one start per colour in a run
/// table: 16 colours cost 64 B per node per direction, where the 255 an
/// [`Alphabet`] admits would cost 1 KiB. Past it, a colour's run is found
/// by binary search inside the colour-sorted row.
pub const DENSE_COLORS: usize = 16;

impl Graph {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges `|E|` (counting parallel edges of distinct colors).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Iterate over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Out-edges of `v` as `(target, color)` entries, sorted by
    /// (color, target).
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeRef] {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        &self.out_adj[lo..hi]
    }

    /// In-edges of `v` as `(source, color)` entries, sorted by
    /// (color, source).
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeRef] {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_adj[lo..hi]
    }

    /// The out-edges of `v` that color `c` admits, sorted by target: the
    /// whole row for the wildcard, and empty for a color the alphabet
    /// does not hold.
    #[inline(always)]
    pub fn out_edges_of(&self, v: NodeId, c: Color) -> &[EdgeRef] {
        let ci = usize::from(c.0);
        if ci < self.stride {
            let slot = v.index() * self.stride + ci;
            &self.out_adj[self.out_runs[slot] as usize..self.out_runs[slot + 1] as usize]
        } else if c.is_wildcard() {
            self.out_edges(v)
        } else {
            run_in_row(self.out_edges(v), c)
        }
    }

    /// The in-edges of `v` that color `c` admits, sorted by source (the
    /// whole row for the wildcard, empty for a color outside the
    /// alphabet).
    #[inline(always)]
    pub fn in_edges_of(&self, v: NodeId, c: Color) -> &[EdgeRef] {
        let ci = usize::from(c.0);
        if ci < self.stride {
            let slot = v.index() * self.stride + ci;
            &self.in_adj[self.in_runs[slot] as usize..self.in_runs[slot + 1] as usize]
        } else if c.is_wildcard() {
            self.in_edges(v)
        } else {
            run_in_row(self.in_edges(v), c)
        }
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_edges(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_edges(v).len()
    }

    /// The attribute tuple `f_A(v)`.
    #[inline]
    pub fn attrs(&self, v: NodeId) -> &Attrs {
        &self.attrs.rows[v.index()]
    }

    /// Every node's attributes by column: what predicate selection scans.
    #[inline]
    pub fn columns(&self) -> &Columns {
        &self.attrs.columns
    }

    /// Human-readable node label (may be empty). Labels carry no semantics;
    /// they exist for examples, tests and debug output.
    pub fn label(&self, v: NodeId) -> &str {
        &self.labels[v.index()]
    }

    /// Find the (first) node with the given label. Linear scan — intended
    /// for tests and examples only.
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.labels
            .iter()
            .position(|l| l == label)
            .map(|i| NodeId(i as u32))
    }

    /// The attribute-name schema shared with queries.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The color alphabet Σ.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Iterate over every edge as `(source, target, color)`, in that
    /// order: each colour-major row is re-sorted by (target, color) as the
    /// iterator reaches it, so input fingerprints hash what they always
    /// did.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Color)> + '_ {
        Edges {
            g: self,
            next: 0,
            src: NodeId(0),
            row: Vec::new(),
            at: 0,
        }
    }

    /// True if there is an edge `u → v` of exactly color `c`.
    ///
    /// O(log deg(u)): a binary search by target inside color `c`'s run of
    /// `u`'s row (hub nodes in skewed graphs make the difference from a
    /// degree-linear scan). False for the wildcard, which no data edge
    /// carries.
    pub fn has_edge(&self, u: NodeId, v: NodeId, c: Color) -> bool {
        !c.is_wildcard()
            && (self.out_edges_of(u, c))
                .binary_search_by_key(&v, |e| e.node)
                .is_ok()
    }

    /// True if there is an edge `u → v` whose color is admitted by the
    /// (possibly wildcard) query color `c`.
    pub fn has_edge_admitting(&self, u: NodeId, v: NodeId, c: Color) -> bool {
        self.out_edges_of(u, c).iter().any(|e| e.node == v)
    }
}

/// Color `c`'s run of a colour-major `row`, by binary search: how a graph
/// without run tables finds it, and empty for a color past the alphabet.
/// Kept out of line, so the run-table path inlines into sweep loops.
#[inline(never)]
fn run_in_row(row: &[EdgeRef], c: Color) -> &[EdgeRef] {
    let lo = row.partition_point(|e| e.color < c);
    let len = row[lo..].partition_point(|e| e.color == c);
    &row[lo..lo + len]
}

/// [`Graph::edges`]: one row at a time, copied into `row` and sorted by
/// (target, color).
struct Edges<'g> {
    g: &'g Graph,
    next: u32,
    src: NodeId,
    row: Vec<EdgeRef>,
    at: usize,
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId, Color);

    fn next(&mut self) -> Option<Self::Item> {
        while self.at == self.row.len() {
            if self.next as usize == self.g.node_count() {
                return None;
            }
            self.src = NodeId(self.next);
            self.next += 1;
            self.row.clear();
            self.row.extend_from_slice(self.g.out_edges(self.src));
            self.row.sort_unstable_by_key(|e| (e.node, e.color));
            self.at = 0;
        }
        let e = self.row[self.at];
        self.at += 1;
        Some((self.src, e.node, e.color))
    }
}

#[cfg(test)]
mod tests {
    use super::{EdgeRef, Graph, NodeId, DENSE_COLORS};
    use crate::builder::GraphBuilder;
    use crate::color::{Color, WILDCARD};
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn csr_roundtrip() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("a", []);
        let c = b.add_node("c", []);
        let d = b.add_node("d", []);
        let red = b.color("red");
        let blue = b.color("blue");
        b.add_edge(a, c, red);
        b.add_edge(a, d, blue);
        b.add_edge(c, d, red);
        let g = b.build();

        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_degree(a), 2);
        assert_eq!(g.in_degree(d), 2);
        assert!(g.has_edge(a, c, red));
        assert!(!g.has_edge(c, a, red));
        assert!(g.has_edge_admitting(a, d, WILDCARD));
        assert!(!g.has_edge_admitting(d, a, WILDCARD));
        assert_eq!(g.edges().count(), 3);
        assert_eq!(g.node_by_label("c"), Some(c));
        assert_eq!(g.node_by_label("zzz"), None);
    }

    #[test]
    fn parallel_edges_kept_duplicates_dropped() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        let r = b.color("r");
        let s = b.color("s");
        b.add_edge(x, y, r);
        b.add_edge(x, y, s); // parallel, different color: kept
        b.add_edge(x, y, r); // exact duplicate: dropped
        let g = b.build();
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(x, y, r));
        assert!(g.has_edge(x, y, s));
    }

    /// A row is sorted by (color, target), so a binary search by target
    /// over the whole row would miss; `has_edge` searches the color's run.
    #[test]
    fn has_edge_searches_the_colors_run() {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.add_node(&format!("v{i}"), [])).collect();
        let r = b.color("r");
        let s = b.color("s");
        b.add_edge(v[0], v[3], r);
        b.add_edge(v[0], v[1], s);
        b.add_edge(v[0], v[2], s);
        b.add_edge(v[0], v[0], r);
        let g = b.build();
        let row: Vec<_> = g
            .out_edges(v[0])
            .iter()
            .map(|e| (e.color, e.node))
            .collect();
        assert_eq!(row, [(r, v[0]), (r, v[3]), (s, v[1]), (s, v[2])]);
        for (w, c) in [(v[0], r), (v[3], r), (v[1], s), (v[2], s)] {
            assert!(g.has_edge(v[0], w, c));
        }
        for (w, c) in [(v[1], r), (v[3], s), (v[0], s)] {
            assert!(!g.has_edge(v[0], w, c));
        }
        assert!(
            !g.has_edge(v[0], v[1], WILDCARD),
            "no data edge carries `_`"
        );
        assert!(g.has_edge_admitting(v[0], v[1], WILDCARD));
        assert!(
            !g.has_edge(v[0], v[1], Color(2)),
            "a color outside the alphabet"
        );
    }

    type Tables<'g> = (
        usize,
        &'g [u32],
        &'g [u32],
        &'g [EdgeRef],
        &'g [u32],
        &'g [u32],
        &'g [EdgeRef],
    );

    /// Every table of `g`, for comparing two builds.
    fn tables(g: &Graph) -> Tables<'_> {
        (
            g.stride,
            &g.out_offsets,
            &g.out_runs,
            &g.out_adj,
            &g.in_offsets,
            &g.in_runs,
            &g.in_adj,
        )
    }

    /// `edges` as sorted (color, neighbor) keys: a multiset.
    fn keys<'a>(edges: impl IntoIterator<Item = &'a EdgeRef>) -> Vec<(Color, NodeId)> {
        let mut keys: Vec<_> = edges.into_iter().map(|e| (e.color, e.node)).collect();
        keys.sort_unstable();
        keys
    }

    /// A graph of `n` nodes over `k` colors holding `edges` (endpoints and
    /// colors taken modulo `n` and `k`), with one self-loop and one
    /// parallel pair always present.
    fn graph(k: usize, n: usize, edges: &[(usize, usize, usize)]) -> Graph {
        let mut b = GraphBuilder::new();
        let colors: Vec<_> = (0..k).map(|i| b.color(&format!("c{i}"))).collect();
        let nodes: Vec<_> = (0..n).map(|i| b.add_node(&format!("v{i}"), [])).collect();
        for &(u, v, c) in edges {
            b.add_edge(nodes[u % n], nodes[v % n], colors[c % k]);
        }
        b.add_edge(nodes[0], nodes[0], colors[k - 1]);
        b.add_edge(nodes[0], nodes[n - 1], colors[0]);
        b.add_edge(nodes[0], nodes[n - 1], colors[k / 2]);
        b.build()
    }

    /// The alphabet sizes on either side of the table's bound.
    fn alphabet_size() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(1usize),
            Just(4),
            Just(DENSE_COLORS),
            Just(DENSE_COLORS + 1),
            Just(255),
        ]
    }

    fn edge_list() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
        prop::collection::vec((0usize..64, 0usize..64, 0usize..255), 0..80)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `{out,in}_edges_of(v, c)` is the row filtered by `c` — for every
        /// color, `_` and a color past the alphabet — sorted by neighbor;
        /// rows are colour-major; `edges()` is strictly ascending in
        /// (source, target, color) and lists exactly the edges built;
        /// `has_edge` agrees with that list.
        #[test]
        fn color_runs_are_the_filtered_rows(
            k in alphabet_size(),
            n in 1usize..12,
            edges in edge_list(),
        ) {
            let g = graph(k, n, &edges);
            prop_assert_eq!(g.stride, if k <= DENSE_COLORS { k } else { 0 });
            let mut probes: Vec<Color> = (0..k).map(|c| Color(c as u8)).collect();
            probes.push(WILDCARD);
            if k < 255 {
                probes.push(Color(k as u8));
            }
            for v in g.nodes() {
                for backward in [false, true] {
                    let row = if backward { g.in_edges(v) } else { g.out_edges(v) };
                    let key = |e: &EdgeRef| (e.color, e.node);
                    prop_assert!(row.windows(2).all(|w| key(&w[0]) < key(&w[1])));
                    for &c in &probes {
                        let run = if backward { g.in_edges_of(v, c) } else { g.out_edges_of(v, c) };
                        prop_assert_eq!(keys(run), keys(row.iter().filter(|e| c.admits(e.color))));
                        if !c.is_wildcard() {
                            prop_assert!(run.windows(2).all(|w| w[0].node < w[1].node));
                        }
                    }
                }
            }

            let listed: Vec<_> = g.edges().collect();
            prop_assert!(listed.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(listed.len(), g.edge_count());
            let set: HashSet<_> = listed.iter().copied().collect();
            for u in g.nodes() {
                for v in g.nodes() {
                    for &c in &probes {
                        prop_assert_eq!(g.has_edge(u, v, c), set.contains(&(u, v, c)));
                    }
                }
            }
        }

        /// `from_graph(&g).build()` reproduces every row and table of `g`,
        /// and a delta rebuild equals a fresh build of the same edge set.
        #[test]
        fn rebuilds_reproduce_every_table(
            k in alphabet_size(),
            n in 1usize..12,
            edges in edge_list(),
            removed in prop::collection::vec(0usize..80, 0..8),
            added in edge_list(),
        ) {
            let g = graph(k, n, &edges);
            let same = GraphBuilder::from_graph(&g).build();
            prop_assert_eq!(tables(&same), tables(&g));

            let listed: Vec<_> = g.edges().collect();
            let mut delta = GraphBuilder::from_graph(&g);
            let mut kept: HashSet<_> = listed.iter().copied().collect();
            for &i in &removed {
                if let Some(&(u, v, c)) = listed.get(i % listed.len().max(1)) {
                    delta.remove_edge(u, v, c);
                    kept.remove(&(u, v, c));
                }
            }
            for &(u, v, c) in added.iter().take(8) {
                let e = (NodeId((u % n) as u32), NodeId((v % n) as u32), Color((c % k) as u8));
                delta.insert_edge(e.0, e.1, e.2);
                kept.insert(e);
            }
            let mut fresh = GraphBuilder::with_vocabulary(g.schema().clone(), g.alphabet().clone());
            for v in g.nodes() {
                fresh.add_node(g.label(v), []);
            }
            for &(u, v, c) in &kept {
                fresh.add_edge(u, v, c);
            }
            prop_assert_eq!(tables(&delta.build()), tables(&fresh.build()));
        }
    }
}
