//! `minPQs` — cubic-time PQ minimization (§3.2, Fig. 6, Thm. 3.4).
//!
//! Three phases:
//!
//! 1. **Preprocessing**: compute the maximum revised self-similarity of the
//!    query and the simulation-equivalence classes `EQ` it induces.
//! 2. **Equivalent-query construction**: collapse each class to one node;
//!    between two classes keep only the *non-redundant* edge constraints
//!    (drop language-duplicates and any constraint strictly between two
//!    others); if a class needs `r` parallel constraints, materialize
//!    `N(eq) = max_{eq'} |NR(eq', eq)|` copies of the class so the result
//!    stays a simple graph.
//! 3. **Minimum construction**: on the rebuilt query, repeatedly delete
//!    *redundant edges* — an edge `e` is redundant when two other edges
//!    `e1, e2` exist whose endpoints simulate/are simulated by `e`'s and
//!    with `L(f_{e1}) ⊆ L(f_e) ⊆ L(f_{e2})` — then delete nodes this
//!    isolates.
//!
//! Unlike the paper's batch edge removal, redundant edges are removed one
//! at a time with the similarity recomputed in between, and each removal is
//! validated against query equivalence before it is committed. Batch
//! removal can delete two edges that each justified the other, and even a
//! single removal by the literal step-3 rule can be unsound: with two
//! equivalent copies `C_0, C_1` each carrying one `d`-edge to `B`, the rule
//! deems `C_0`'s edge redundant (witnessed by `C_1`'s), yet deleting it
//! frees `C_0`'s matches from the `d` constraint and the queries diverge.
//! The validation keeps the algorithm sound; its cost is another cubic
//! check per removal, and queries are tiny.

use crate::pq::{Pq, PqEdge};
use crate::simulation::{equivalence_classes, revised_similarity};
use rpq_regex::canon::{contains_fast, equivalent_canonical};
use rpq_regex::FRegex;
use std::collections::{HashMap, HashSet};

/// Compute a minimum equivalent PQ of `q` (Fig. 6).
///
/// The result satisfies `pq_equivalent(&minimize(q), q)` and
/// `minimize(q).size() ≤ q.size()`.
pub fn minimize(q: &Pq) -> Pq {
    if q.node_count() == 0 {
        return q.clone();
    }
    // ---- step 1: classes (lines 1-2) -------------------------------
    let (class_of, classes) = equivalence_classes(q);

    // ---- step 2: equivalent query over classes (lines 3-5) ---------
    // collect per class-pair constraint sets and drop redundant ones
    let mut pair_res: HashMap<(usize, usize), Vec<FRegex>> = HashMap::new();
    for e in q.edges() {
        let key = (class_of[e.from], class_of[e.to]);
        let set = pair_res.entry(key).or_default();
        if !set.iter().any(|r| equivalent_canonical(r, &e.regex)) {
            set.push(e.regex.clone());
        }
    }
    for set in pair_res.values_mut() {
        *set = drop_middles(std::mem::take(set));
    }

    // copies per class: N(eq) = max over predecessors of the non-redundant
    // parallel-edge count into eq (at least 1)
    let n_classes = classes.len();
    let mut copies = vec![1usize; n_classes];
    for (&(_, c2), set) in &pair_res {
        copies[c2] = copies[c2].max(set.len());
    }

    let mut qm = Pq::new();
    let mut copy_ids: Vec<Vec<usize>> = Vec::with_capacity(n_classes);
    // copy `i` of a class is `label_i`, a name the query language reads
    // back as one label; distinct labels give distinct names, and a
    // pattern that repeats a label still gets names `parse_pq` accepts
    let mut names = HashSet::new();
    for (cid, members) in classes.iter().enumerate() {
        let rep = members[0];
        let mut ids = Vec::with_capacity(copies[cid]);
        for i in 0..copies[cid] {
            let mut name = format!("{}_{i}", q.node(rep).label);
            while !names.insert(name.clone()) {
                name.push('_');
            }
            ids.push(qm.add_node(&name, q.node(rep).pred.clone()));
        }
        copy_ids.push(ids);
    }
    // wire each copy of the source class to distinct copies of the target
    // class, one per non-redundant constraint (deterministic stand-in for
    // the paper's "randomly chooses")
    for (&(c1, c2), set) in &pair_res {
        for &src in &copy_ids[c1] {
            for (j, regex) in set.iter().enumerate() {
                let tgt = copy_ids[c2][j % copy_ids[c2].len()];
                qm.add_edge(src, tgt, regex.clone());
            }
        }
    }

    // ---- step 3: remove redundant edges, then isolated nodes -------
    qm = prune_redundant(qm, q);

    // The paper's PQs are simple graphs, so step 2 materializes N(eq)
    // copies per class to host parallel constraints. This library's `Pq`
    // additionally permits parallel edges; on such multigraph inputs the
    // copies construction can exceed the input's size. Minimization must
    // never grow a query, so fall back to pruning the input directly.
    if qm.size() > q.size() {
        qm = prune_redundant(q.clone(), q);
    }
    debug_assert!(
        crate::contain::pq_equivalent(&qm, q),
        "minimize produced a non-equivalent query"
    );
    qm
}

/// Step 3 of `minPQs`: repeatedly remove redundant edges (each removal
/// validated for equivalence against `reference`), then drop nodes the
/// removals isolated.
fn prune_redundant(mut qm: Pq, reference: &Pq) -> Pq {
    let had_edges = qm.edge_count() > 0;
    loop {
        let sr = revised_similarity(&qm, &qm);
        let candidates = find_redundant_edges(&qm, &sr);
        let mut committed = false;
        for victim in candidates {
            let trimmed = remove_edge(&qm, victim);
            // soundness guard (see module docs): only commit removals that
            // provably preserve equivalence with the input query
            if crate::contain::pq_equivalent(&trimmed, reference) {
                qm = trimmed;
                committed = true;
                break;
            }
        }
        if !committed {
            break;
        }
    }
    if had_edges {
        qm = drop_isolated(&qm);
    }
    qm
}

/// Keep only the constraints that are not language-equal duplicates and not
/// strictly between two others (the step-2 redundancy rule).
fn drop_middles(set: Vec<FRegex>) -> Vec<FRegex> {
    let redundant: Vec<bool> = set
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let below = set
                .iter()
                .enumerate()
                .any(|(j, s)| j != i && contains_fast(s, r));
            let above = set
                .iter()
                .enumerate()
                .any(|(j, s)| j != i && contains_fast(r, s));
            below && above
        })
        .collect();
    set.into_iter()
        .zip(redundant)
        .filter(|(_, red)| !red)
        .map(|(r, _)| r)
        .collect()
}

/// All edges the step-3 rule deems redundant (candidates for removal).
fn find_redundant_edges(qm: &Pq, sr: &[Vec<bool>]) -> Vec<usize> {
    (0..qm.edge_count())
        .filter(|&ei| {
            let e = qm.edge(ei);
            let has_e1 = (0..qm.edge_count()).any(|j| {
                if j == ei {
                    return false;
                }
                let e1 = qm.edge(j);
                // e's endpoints are simulated by e1's, and e1 ⊨ e
                sr[e.from][e1.from] && sr[e.to][e1.to] && contains_fast(&e1.regex, &e.regex)
            });
            if !has_e1 {
                return false;
            }
            (0..qm.edge_count()).any(|j| {
                if j == ei {
                    return false;
                }
                let e2 = qm.edge(j);
                // e2's endpoints are simulated by e's, and e ⊨ e2
                sr[e2.from][e.from] && sr[e2.to][e.to] && contains_fast(&e.regex, &e2.regex)
            })
        })
        .collect()
}

fn remove_edge(q: &Pq, victim: usize) -> Pq {
    let mut out = Pq::new();
    for n in q.nodes() {
        out.add_node(&n.label, n.pred.clone());
    }
    for (i, PqEdge { from, to, regex }) in q.edges().iter().enumerate() {
        if i != victim {
            out.add_edge(*from, *to, regex.clone());
        }
    }
    out
}

fn drop_isolated(q: &Pq) -> Pq {
    let keep: Vec<bool> = (0..q.node_count())
        .map(|u| !q.out_edges(u).is_empty() || !q.in_edges(u).is_empty())
        .collect();
    if keep.iter().all(|&k| k) {
        return q.clone();
    }
    let mut remap = vec![usize::MAX; q.node_count()];
    let mut out = Pq::new();
    for (u, &k) in keep.iter().enumerate() {
        if k {
            remap[u] = out.add_node(&q.node(u).label, q.node(u).pred.clone());
        }
    }
    for e in q.edges() {
        out.add_edge(remap[e.from], remap[e.to], e.regex.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contain::pq_equivalent;
    use crate::predicate::Predicate;
    use rpq_graph::{Alphabet, Schema};

    fn vocab() -> (Schema, Alphabet) {
        let mut s = Schema::new();
        s.intern("t");
        (s, Alphabet::from_names(["c", "d"]))
    }

    fn pred(s: &Schema, v: &str) -> Predicate {
        Predicate::parse(&format!("t = \"{v}\""), s).unwrap()
    }

    /// The Fig. 3 / Example 3.1 shape: B with three parallel-constraint
    /// children collapses to the two-edge form (Q1 → Q3), shrinking from
    /// size 7 to size 5.
    #[test]
    fn fig3_q1_minimizes_to_q3_shape() {
        let (s, al) = vocab();
        let mut q1 = Pq::new();
        let b = q1.add_node("B1", pred(&s, "B"));
        let cs: Vec<_> = (0..3)
            .map(|i| q1.add_node(&format!("C{i}"), pred(&s, "C")))
            .collect();
        for (i, &c) in cs.iter().enumerate() {
            let r = FRegex::parse(&format!("c^{}", i + 1), &al).unwrap();
            q1.add_edge(b, c, r);
        }
        let m = minimize(&q1);
        assert!(
            pq_equivalent(&m, &q1),
            "minimized query must stay equivalent"
        );
        // Q3 shape: one B, two C's, edges c (=c^1) and c^3
        assert_eq!(m.node_count(), 3);
        assert_eq!(m.edge_count(), 2);
        assert!(m.size() < q1.size());
        let mut langs: Vec<String> = m
            .edges()
            .iter()
            .map(|e| e.regex.display(&al).to_string())
            .collect();
        langs.sort();
        assert_eq!(langs, vec!["c", "c^3"]);
    }

    #[test]
    fn already_minimal_is_untouched_in_size() {
        let (s, al) = vocab();
        let mut q = Pq::new();
        let a = q.add_node("a", pred(&s, "A"));
        let b = q.add_node("b", pred(&s, "B"));
        q.add_edge(a, b, FRegex::parse("c^2", &al).unwrap());
        let m = minimize(&q);
        assert!(pq_equivalent(&m, &q));
        assert_eq!(m.size(), q.size());
    }

    #[test]
    fn duplicate_branches_collapse() {
        // two structurally identical children of a root merge into one
        let (s, al) = vocab();
        let mut q = Pq::new();
        let r = q.add_node("r", pred(&s, "R"));
        let x1 = q.add_node("x1", pred(&s, "X"));
        let x2 = q.add_node("x2", pred(&s, "X"));
        let c = FRegex::parse("c", &al).unwrap();
        q.add_edge(r, x1, c.clone());
        q.add_edge(r, x2, c.clone());
        let m = minimize(&q);
        assert!(pq_equivalent(&m, &q));
        assert_eq!(m.node_count(), 2);
        assert_eq!(m.edge_count(), 1);
    }

    #[test]
    fn cycle_is_preserved() {
        let (s, al) = vocab();
        let mut q = Pq::new();
        let a = q.add_node("a", pred(&s, "A"));
        let b = q.add_node("b", pred(&s, "B"));
        let c = FRegex::parse("c", &al).unwrap();
        let d = FRegex::parse("d", &al).unwrap();
        q.add_edge(a, b, c);
        q.add_edge(b, a, d);
        let m = minimize(&q);
        assert!(pq_equivalent(&m, &q));
        assert_eq!(m.size(), q.size());
    }

    #[test]
    fn single_node_query_survives() {
        let (s, _) = vocab();
        let mut q = Pq::new();
        q.add_node("lonely", pred(&s, "A"));
        let m = minimize(&q);
        assert_eq!(m.node_count(), 1);
        assert!(pq_equivalent(&m, &q));
    }

    #[test]
    fn equivalent_self_loops_merge() {
        // a -c-> a self loop duplicated via an equivalent twin node
        let (s, al) = vocab();
        let mut q = Pq::new();
        let a1 = q.add_node("a1", pred(&s, "A"));
        let a2 = q.add_node("a2", pred(&s, "A"));
        let c = FRegex::parse("c+", &al).unwrap();
        q.add_edge(a1, a2, c.clone());
        q.add_edge(a2, a1, c.clone());
        q.add_edge(a1, a1, c.clone());
        q.add_edge(a2, a2, c.clone());
        let m = minimize(&q);
        assert!(pq_equivalent(&m, &q));
        assert!(
            m.size() <= 2,
            "expected a single self-looped node, got {m:?}"
        );
    }

    #[test]
    fn minimization_is_idempotent_in_size() {
        let (s, al) = vocab();
        let mut q = Pq::new();
        let b = q.add_node("B", pred(&s, "B"));
        let c1 = q.add_node("C1", pred(&s, "C"));
        let c2 = q.add_node("C2", pred(&s, "C"));
        q.add_edge(b, c1, FRegex::parse("c^2", &al).unwrap());
        q.add_edge(b, c2, FRegex::parse("c^4", &al).unwrap());
        q.add_edge(c1, b, FRegex::parse("d", &al).unwrap());
        q.add_edge(c2, b, FRegex::parse("d", &al).unwrap());
        let m1 = minimize(&q);
        let m2 = minimize(&m1);
        assert!(pq_equivalent(&m1, &q));
        assert!(pq_equivalent(&m2, &m1));
        assert_eq!(m1.size(), m2.size(), "second pass must not shrink further");
    }
}
