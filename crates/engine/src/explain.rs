//! Profiling support for the explain surface: compact query rendering.
//! Probes are counted by [`rpq_index::CountingProbe`].

use crate::batch::Query;
use rpq_graph::Graph;

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
