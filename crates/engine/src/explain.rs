//! Profiling support for the explain surface: a probe-counting
//! [`DistProbe`] wrapper and compact query rendering.

use crate::batch::Query;
use rpq_graph::{Color, Graph, NodeId};
use rpq_index::DistProbe;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`DistProbe`] decorator that counts probe calls while delegating
/// every method to the wrapped backend — so the profiled path exercises
/// the backend's own optimized implementations (e.g. the hop-label bulk
/// `sources_reaching_within`, the graph's one-sweep frontier step), not
/// the trait defaults. A call counts once, whatever it fans out to, except
/// `sources_reaching_within`, which counts its sources.
pub(crate) struct CountingProbe<'a, P: DistProbe + ?Sized> {
    inner: &'a P,
    probes: AtomicU64,
}

impl<'a, P: DistProbe + ?Sized> CountingProbe<'a, P> {
    pub(crate) fn new(inner: &'a P) -> Self {
        CountingProbe {
            inner,
            probes: AtomicU64::new(0),
        }
    }

    /// Probes issued so far.
    pub(crate) fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }
}

impl<P: DistProbe + ?Sized> DistProbe for CountingProbe<'_, P> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn dist(&self, from: NodeId, to: NodeId, color: Color) -> u16 {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner.dist(from, to, color)
    }

    fn for_each_within(&self, from: NodeId, color: Color, max: u16, f: &mut dyn FnMut(NodeId)) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner.for_each_within(from, color, max, f)
    }

    fn for_each_reaching_within(
        &self,
        g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
        f: &mut dyn FnMut(NodeId),
    ) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner
            .for_each_reaching_within(g, from, color, max_len, f)
    }

    fn for_each_reaching_from(
        &self,
        g: &Graph,
        frontier: &[NodeId],
        color: Color,
        max_len: Option<u32>,
        f: &mut dyn FnMut(NodeId),
    ) {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner
            .for_each_reaching_from(g, frontier, color, max_len, f)
    }

    fn has_cycle_within(
        &self,
        g: &Graph,
        from: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner.has_cycle_within(g, from, color, max_len)
    }

    fn reaches_within(
        &self,
        g: &Graph,
        from: NodeId,
        to: NodeId,
        color: Color,
        max_len: Option<u32>,
    ) -> bool {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner.reaches_within(g, from, to, color, max_len)
    }

    fn sources_reaching_within(
        &self,
        g: &Graph,
        sources: &[NodeId],
        targets: &[NodeId],
        color: Color,
        max_len: Option<u32>,
    ) -> Vec<bool> {
        self.probes
            .fetch_add(sources.len() as u64, Ordering::Relaxed);
        self.inner
            .sources_reaching_within(g, sources, targets, color, max_len)
    }
}

/// Compact, human-readable one-line rendering of a query for profiles
/// and the slow-query log.
pub(crate) fn query_summary(query: &Query, g: &Graph) -> String {
    match query {
        Query::Rq(rq) => format!(
            "rq: {} -[{}]-> {}",
            rq.from.display(g.schema()),
            rq.regex.display(g.alphabet()),
            rq.to.display(g.schema()),
        ),
        Query::Pq(pq) => {
            let text = rpq_core::lang::format_pq(pq, g.schema(), g.alphabet());
            format!("pq: {}", text.replace('\n', " "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::GraphBuilder;

    /// A backend whose scans exist only as the reaching overrides: the
    /// trait defaults, which go through `for_each_within`, panic.
    struct OverridesOnly;

    impl DistProbe for OverridesOnly {
        fn node_count(&self) -> usize {
            2
        }

        fn dist(&self, _: NodeId, _: NodeId, _: Color) -> u16 {
            unreachable!("dist")
        }

        fn for_each_within(&self, _: NodeId, _: Color, _: u16, _: &mut dyn FnMut(NodeId)) {
            panic!("the trait default ran instead of the backend's override");
        }

        fn for_each_reaching_within(
            &self,
            _: &Graph,
            from: NodeId,
            _: Color,
            _: Option<u32>,
            f: &mut dyn FnMut(NodeId),
        ) {
            f(from);
        }

        fn for_each_reaching_from(
            &self,
            _: &Graph,
            frontier: &[NodeId],
            _: Color,
            _: Option<u32>,
            f: &mut dyn FnMut(NodeId),
        ) {
            frontier.iter().for_each(|&w| f(w));
        }

        fn sources_reaching_within(
            &self,
            _: &Graph,
            sources: &[NodeId],
            targets: &[NodeId],
            _: Color,
            _: Option<u32>,
        ) -> Vec<bool> {
            sources.iter().map(|x| targets.contains(x)).collect()
        }
    }

    #[test]
    fn counting_forwards_the_reaching_overrides_once_per_call() {
        let mut b = GraphBuilder::new();
        let (x, y) = (b.add_node("x", []), b.add_node("y", []));
        let r = b.color("r");
        b.add_edge(x, y, r);
        let g = b.build();
        let probe = CountingProbe::new(&OverridesOnly);
        let mut seen = Vec::new();
        probe.for_each_reaching_within(&g, x, r, Some(2), &mut |z| seen.push(z));
        probe.for_each_reaching_from(&g, &[x, y], r, None, &mut |z| seen.push(z));
        assert_eq!(seen, [x, x, y]);
        assert_eq!(probe.probes(), 2);
        // a Join step counts its sources
        let joined = probe.sources_reaching_within(&g, &[x, y], &[y], r, None);
        assert_eq!(joined, [false, true]);
        assert_eq!(probe.probes(), 4);
    }
}
