//! The data graph `G = (V, E, f_A, f_C)` in CSR form.
//!
//! Nodes are dense `u32` ids. Both forward (out-edge) and reverse (in-edge)
//! adjacency are stored as offset/target arrays so that BFS in either
//! direction — the bi-directional search of §4 needs both — is a linear scan.

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
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_adj: Vec<EdgeRef>,
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_adj: Vec<EdgeRef>,
}

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

    /// Out-edges of `v` as `(target, color)` entries.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeRef] {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        &self.out_adj[lo..hi]
    }

    /// In-edges of `v` as `(source, color)` entries.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeRef] {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_adj[lo..hi]
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

    /// Iterate over every edge as `(source, target, color)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Color)> + '_ {
        self.nodes()
            .flat_map(move |u| self.out_edges(u).iter().map(move |e| (u, e.node, e.color)))
    }

    /// True if there is an edge `u → v` of exactly color `c`.
    ///
    /// O(log deg(u)): the builder emits each node's out-adjacency sorted by
    /// `(target, color)`, so the probe is a binary search instead of a
    /// degree-linear scan (hub nodes in skewed graphs make the difference).
    pub fn has_edge(&self, u: NodeId, v: NodeId, c: Color) -> bool {
        self.out_edges(u)
            .binary_search_by_key(&(v, c), |e| (e.node, e.color))
            .is_ok()
    }

    /// True if there is an edge `u → v` whose color is admitted by the
    /// (possibly wildcard) query color `c`.
    pub fn has_edge_admitting(&self, u: NodeId, v: NodeId, c: Color) -> bool {
        self.out_edges(u)
            .iter()
            .any(|e| e.node == v && c.admits(e.color))
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::color::WILDCARD;

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
}
