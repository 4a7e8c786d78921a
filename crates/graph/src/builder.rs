//! Mutable construction of [`Graph`]s.

use crate::attr::{AttrValue, Attrs, NodeAttrs, Schema};
use crate::color::{Alphabet, Color};
use crate::graph::{EdgeRef, Graph, NodeId, DENSE_COLORS};
use std::collections::HashSet;
use std::sync::Arc;

/// Accumulates nodes and edges, then freezes them into the CSR [`Graph`].
///
/// Edges are kept in a hash set, so membership tests, insertions and
/// removals are O(1) — [`GraphBuilder::from_graph`] plus a handful of
/// [`insert_edge`](GraphBuilder::insert_edge) /
/// [`remove_edge`](GraphBuilder::remove_edge) calls is the cheap way to
/// derive an updated graph from an existing one (the rebuild itself stays
/// O(|V| + |E|)).
///
/// ```
/// use rpq_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let job = b.attr("job");
/// let alice = b.add_node("Alice", [(job, "doctor".into())]);
/// let bob = b.add_node("Bob", [(job, "biologist".into())]);
/// let fa = b.color("fa");
/// b.add_edge(alice, bob, fa);
/// let g = b.build();
/// assert_eq!(g.node_count(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    schema: Schema,
    alphabet: Alphabet,
    labels: Vec<String>,
    /// Rows of the nodes; empty while `shared` holds them.
    attrs: Vec<Attrs>,
    /// The parent graph's attribute store, until a node is added.
    shared: Option<Arc<NodeAttrs>>,
    edges: HashSet<(NodeId, NodeId, Color)>,
}

impl GraphBuilder {
    /// Fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder whose alphabet and schema are pre-seeded (useful when queries
    /// are authored against a fixed vocabulary before data exists).
    pub fn with_vocabulary(schema: Schema, alphabet: Alphabet) -> Self {
        GraphBuilder {
            schema,
            alphabet,
            ..Default::default()
        }
    }

    /// Builder pre-loaded with `g`'s nodes (labels, attributes), vocabulary
    /// and edges — the starting point for *derived* graphs. Applying a
    /// small set of edge insertions/deletions and calling
    /// [`build`](GraphBuilder::build) costs O(|V| + |E| + updates) total,
    /// instead of re-adding every node and scanning the edge list per
    /// update. The builder shares `g`'s attribute rows and columns until a
    /// node is added, so an edge-only rebuild neither copies nor
    /// re-encodes them. The edges are read off `g`'s rows as they lie:
    /// [`build`](GraphBuilder::build) sorts them anyway.
    pub fn from_graph(g: &Graph) -> Self {
        let edges = g
            .nodes()
            .flat_map(|u| (g.out_edges(u).iter()).map(move |e| (u, e.node, e.color)));
        GraphBuilder {
            schema: g.schema.clone(),
            alphabet: g.alphabet.clone(),
            labels: g.labels.clone(),
            attrs: Vec::new(),
            shared: Some(Arc::clone(&g.attrs)),
            edges: edges.collect(),
        }
    }

    /// Intern an attribute name.
    pub fn attr(&mut self, name: &str) -> crate::attr::AttrId {
        self.schema.intern(name)
    }

    /// Intern an attribute name, or `None` if the schema is full
    /// ([`Schema::try_intern`]).
    pub fn try_attr(&mut self, name: &str) -> Option<crate::attr::AttrId> {
        self.schema.try_intern(name)
    }

    /// Intern an edge color.
    pub fn color(&mut self, name: &str) -> Color {
        self.alphabet.intern(name)
    }

    /// Intern an edge color, or `None` if the alphabet is full
    /// ([`Alphabet::try_intern`]).
    pub fn try_color(&mut self, name: &str) -> Option<Color> {
        self.alphabet.try_intern(name)
    }

    /// Add a node with a label and attribute pairs; returns its id.
    pub fn add_node(
        &mut self,
        label: &str,
        attrs: impl IntoIterator<Item = (crate::attr::AttrId, AttrValue)>,
    ) -> NodeId {
        let id = NodeId(u32::try_from(self.labels.len()).expect("more than u32::MAX nodes"));
        if let Some(shared) = self.shared.take() {
            self.attrs = shared.rows.clone();
        }
        self.labels.push(label.to_owned());
        self.attrs.push(Attrs::from_pairs(attrs));
        id
    }

    /// Convenience: add a node whose attributes are given by name.
    pub fn add_node_named(
        &mut self,
        label: &str,
        attrs: impl IntoIterator<Item = (&'static str, AttrValue)>,
    ) -> NodeId {
        let pairs: Vec<_> = attrs
            .into_iter()
            .map(|(name, v)| (self.schema.intern(name), v))
            .collect();
        self.add_node(label, pairs)
    }

    /// Add a directed edge `u → v` of color `c` (duplicates are dropped).
    ///
    /// # Panics
    /// If `u` or `v` was not returned by `add_node`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, c: Color) {
        self.insert_edge(u, v, c);
    }

    /// Add a directed edge `u → v` of color `c`; returns `true` iff the
    /// edge was not already present. O(1).
    ///
    /// # Panics
    /// If `u` or `v` was not returned by `add_node`, or `c` is not a color
    /// of the alphabet.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, c: Color) -> bool {
        assert!(u.index() < self.labels.len(), "unknown source node");
        assert!(v.index() < self.labels.len(), "unknown target node");
        assert!(!c.is_wildcard(), "data edges must carry a concrete color");
        assert!(
            usize::from(c.0) < self.alphabet.len(),
            "edge color {c} is not in the alphabet"
        );
        self.edges.insert((u, v, c))
    }

    /// Remove the edge `u → v` of color `c`; returns `true` iff it was
    /// present. O(1).
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId, c: Color) -> bool {
        self.edges.remove(&(u, v, c))
    }

    /// True if the edge `u → v` of color `c` has been added. O(1).
    pub fn has_edge(&self, u: NodeId, v: NodeId, c: Color) -> bool {
        self.edges.contains(&(u, v, c))
    }

    /// Convenience: add an edge by color name (interning it if new).
    pub fn add_edge_named(&mut self, u: NodeId, v: NodeId, color: &str) {
        let c = self.alphabet.intern(color);
        self.add_edge(u, v, c);
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of distinct edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Freeze into an immutable CSR [`Graph`] with colour-major rows (see
    /// [`crate::graph`]). There is no global sort: the out-rows are a
    /// counting sort of the edges by (source, color) entry of the out-run
    /// table, each run then sorted by target — [`Graph::has_edge`]
    /// binary-searches a color's run by target. The in-rows are filled by
    /// walking the out-rows in (source, color, target) order with one
    /// cursor per (node, color) entry of the in-run table, so each in-run
    /// is sorted by source as it is filled. Past
    /// [`DENSE_COLORS`](crate::graph::DENSE_COLORS) colors there are no run
    /// tables: an entry is a whole row, and each row is sorted by (color,
    /// neighbor) in place.
    pub fn build(self) -> Graph {
        let n = self.labels.len();
        let k = self.alphabet.len();
        let stride = if k <= DENSE_COLORS { k } else { 0 };
        let per = stride.max(1);
        // the run-table entry of (v, c); v's row without run tables
        let slot = |v: NodeId, c: Color| match stride {
            0 => v.index(),
            s => v.index() * s + usize::from(c.0),
        };
        let blank = EdgeRef {
            node: NodeId(0),
            color: Color(0),
        };
        let edges: Vec<(NodeId, NodeId, Color)> = self.edges.into_iter().collect();

        let sort_runs = |runs: &[u32], adj: &mut [EdgeRef]| {
            for w in runs.windows(2).filter(|w| w[1] - w[0] > 1) {
                adj[w[0] as usize..w[1] as usize].sort_unstable_by_key(|e| (e.color, e.node));
            }
        };

        let mut out_runs = vec![0u32; n * per + 1];
        for &(u, _, c) in &edges {
            out_runs[slot(u, c) + 1] += 1;
        }
        running_sum(&mut out_runs);
        let mut out_adj = vec![blank; edges.len()];
        let mut cursor = out_runs.clone();
        for &(u, v, c) in &edges {
            let at = &mut cursor[slot(u, c)];
            out_adj[*at as usize] = EdgeRef { node: v, color: c };
            *at += 1;
        }
        sort_runs(&out_runs, &mut out_adj);

        let mut in_runs = vec![0u32; n * per + 1];
        for e in &out_adj {
            in_runs[slot(e.node, e.color) + 1] += 1;
        }
        running_sum(&mut in_runs);
        let mut in_adj = vec![blank; edges.len()];
        let mut cursor = in_runs.clone();
        for u in 0..n {
            let row = out_runs[u * per] as usize..out_runs[(u + 1) * per] as usize;
            for e in &out_adj[row] {
                let at = &mut cursor[slot(e.node, e.color)];
                in_adj[*at as usize] = EdgeRef {
                    node: NodeId(u as u32),
                    color: e.color,
                };
                *at += 1;
            }
        }

        // row starts: every `stride`-th run start, or the entries themselves
        let (out_offsets, out_runs, in_offsets, in_runs) = if stride == 0 {
            sort_runs(&in_runs, &mut in_adj);
            (out_runs, Vec::new(), in_runs, Vec::new())
        } else {
            let rows = |runs: &[u32]| runs.iter().step_by(stride).copied().collect();
            (rows(&out_runs), out_runs, rows(&in_runs), in_runs)
        };

        Graph {
            schema: self.schema,
            alphabet: self.alphabet,
            labels: self.labels,
            attrs: self
                .shared
                .unwrap_or_else(|| Arc::new(NodeAttrs::new(self.attrs))),
            stride,
            out_offsets,
            out_runs,
            out_adj,
            in_offsets,
            in_runs,
            in_adj,
        }
    }
}

/// Per-entry counts (each at its entry's successor) into starts.
fn running_sum(starts: &mut [u32]) {
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn in_and_out_adjacency_agree() {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..6).map(|i| b.add_node(&format!("n{i}"), [])).collect();
        let c = b.color("c");
        let d = b.color("d");
        let edge_list = [
            (0, 1, c),
            (0, 2, d),
            (1, 3, c),
            (2, 3, d),
            (3, 0, c),
            (4, 5, d),
            (5, 4, c),
        ];
        for &(u, v, col) in &edge_list {
            b.add_edge(nodes[u], nodes[v], col);
        }
        let g = b.build();
        // every out edge appears as an in edge at its target and vice versa
        for (u, v, col) in g.edges() {
            assert!(g.in_edges(v).iter().any(|e| e.node == u && e.color == col));
        }
        let total_in: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        assert_eq!(total_in, g.edge_count());
    }

    #[test]
    #[should_panic(expected = "concrete color")]
    fn wildcard_data_edge_rejected() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        b.add_edge(x, y, crate::color::WILDCARD);
    }

    #[test]
    fn edge_index_insert_remove() {
        let mut b = GraphBuilder::new();
        let x = b.add_node("x", []);
        let y = b.add_node("y", []);
        let c = b.color("c");
        assert!(b.insert_edge(x, y, c), "new edge");
        assert!(!b.insert_edge(x, y, c), "duplicate dropped");
        assert!(b.has_edge(x, y, c));
        assert_eq!(b.edge_count(), 1);
        assert!(b.remove_edge(x, y, c));
        assert!(!b.remove_edge(x, y, c), "already gone");
        assert!(!b.has_edge(x, y, c));
        assert_eq!(b.build().edge_count(), 0);
    }

    #[test]
    fn from_graph_round_trips_and_applies_deltas() {
        let mut b = GraphBuilder::new();
        let age = b.attr("age");
        let x = b.add_node("x", [(age, 3.into())]);
        let y = b.add_node("y", []);
        let z = b.add_node("z", []);
        let c = b.color("c");
        let d = b.color("d");
        b.add_edge(x, y, c);
        b.add_edge(y, z, d);
        let g = b.build();

        // identity rebuild preserves nodes, attributes and edges
        let same = GraphBuilder::from_graph(&g).build();
        assert_eq!(same.node_count(), g.node_count());
        assert_eq!(same.edge_count(), g.edge_count());
        assert_eq!(same.label(x), "x");
        assert_eq!(same.attrs(x).get(age), Some(&AttrValue::Int(3)));
        assert!(same.has_edge(x, y, c));

        // delta rebuild: one removal, one insertion
        let mut delta = GraphBuilder::from_graph(&g);
        assert!(delta.remove_edge(x, y, c));
        assert!(delta.insert_edge(z, x, c));
        let g2 = delta.build();
        assert!(!g2.has_edge(x, y, c));
        assert!(g2.has_edge(z, x, c));
        assert!(g2.has_edge(y, z, d));
    }

    #[test]
    fn edge_only_rebuilds_share_the_attributes_and_add_node_rebuilds_them() {
        let mut b = GraphBuilder::new();
        let age = b.attr("age");
        let x = b.add_node("x", [(age, 3.into())]);
        let y = b.add_node("y", [(age, 5.into())]);
        let c = b.color("c");
        b.add_edge(x, y, c);
        let g = b.build();

        let mut edges_only = GraphBuilder::from_graph(&g);
        edges_only.remove_edge(x, y, c);
        edges_only.insert_edge(y, x, c);
        let g2 = edges_only.build();
        assert!(std::ptr::eq(g.columns(), g2.columns()), "columns shared");
        assert!(std::ptr::eq(g.attrs(x), g2.attrs(x)), "rows shared");

        let mut grown = GraphBuilder::from_graph(&g2);
        let z = grown.add_node("z", [(age, 8.into())]);
        let g3 = grown.build();
        assert!(!std::ptr::eq(g2.columns(), g3.columns()), "columns rebuilt");
        assert_eq!(g3.columns().ints(age).unwrap().values(), &[3, 5, 8]);
        assert_eq!(g3.attrs(z).get(age), Some(&AttrValue::Int(8)));
        let parent = g2.columns().ints(age).unwrap().values();
        assert_eq!(parent, &[3, 5], "the parent is untouched");
    }

    #[test]
    fn named_helpers() {
        let mut b = GraphBuilder::new();
        let x = b.add_node_named("x", [("age", 3.into())]);
        let y = b.add_node_named("y", [("age", 4.into())]);
        b.add_edge_named(x, y, "likes");
        let g = b.build();
        let age = g.schema().get("age").unwrap();
        assert_eq!(g.attrs(x).get(age), Some(&crate::attr::AttrValue::Int(3)));
        assert!(g.alphabet().get("likes").is_some());
    }
}
