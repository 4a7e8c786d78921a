//! Property-based tests (proptest) on the core invariants:
//!
//! * the paper's linear containment scan is sound w.r.t. the exact decider,
//! * regex matching agrees with its NFA compilation,
//! * minimization preserves equivalence and never grows a query,
//! * PQ containment is a preorder consistent with evaluation,
//! * incremental index repair is observationally identical to a
//!   from-scratch rebuild (hop labels and sharded labels alike), and the
//!   graph probe to the distance matrix.
//!
//! Answers of the evaluators themselves are the differential oracle's
//! (`tests/oracle.rs`).

use proptest::prelude::*;
use rpq::prelude::*;
use rpq_regex::{Atom, Quant};

const NUM_COLORS: usize = 3;

fn arb_color() -> impl Strategy<Value = rpq::graph::Color> {
    prop_oneof![
        3 => (0..NUM_COLORS as u8).prop_map(rpq::graph::Color),
        1 => Just(WILDCARD),
    ]
}

fn arb_quant() -> impl Strategy<Value = Quant> {
    prop_oneof![
        2 => Just(Quant::One),
        3 => (2u32..5).prop_map(Quant::AtMost),
        1 => Just(Quant::Plus),
    ]
}

fn arb_regex() -> impl Strategy<Value = FRegex> {
    prop::collection::vec((arb_color(), arb_quant()), 1..4)
        .prop_map(|atoms| FRegex::new(atoms.into_iter().map(|(c, q)| Atom::new(c, q)).collect()))
}

fn arb_word() -> impl Strategy<Value = Vec<rpq::graph::Color>> {
    prop::collection::vec((0..NUM_COLORS as u8).prop_map(rpq::graph::Color), 0..8)
}

/// A small random data graph plus its distance matrix inputs.
fn arb_graph() -> impl Strategy<Value = (u64, usize, usize)> {
    (0u64..10_000, 3usize..26, 0usize..70)
}

/// `synthetic` never draws a self-loop; one is added (node and color from
/// the seed) so the |path| ≥ 1 diagonal's shortest case is always present.
fn build_graph(seed: u64, n: usize, e: usize) -> Graph {
    let g = rpq::graph::gen::synthetic(n, e.min(n * (n - 1) / 2), 2, NUM_COLORS, seed);
    let mut b = GraphBuilder::from_graph(&g);
    let v = NodeId((seed % n as u64) as u32);
    b.insert_edge(v, v, rpq::graph::Color((seed % NUM_COLORS as u64) as u8));
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness of the linear scan: scan-positive ⇒ exact-positive.
    #[test]
    fn scan_containment_is_sound(a in arb_regex(), b in arb_regex()) {
        if rpq_regex::contain::contains_scan(&a, &b) {
            prop_assert!(rpq_regex::contain::contains_exact(&a, &b, NUM_COLORS));
        }
    }

    /// Exact containment really is containment: any word matched by `a`
    /// is matched by `b` whenever the decider says `a ⊆ b`.
    #[test]
    fn exact_containment_respects_words(a in arb_regex(), b in arb_regex(), w in arb_word()) {
        if rpq_regex::contain::contains_exact(&a, &b, NUM_COLORS) && a.matches(&w) {
            prop_assert!(b.matches(&w), "word {w:?} separates the languages");
        }
    }

    /// The NFA accepts exactly the words the matcher accepts.
    #[test]
    fn nfa_equals_matcher(re in arb_regex(), w in arb_word()) {
        let nfa = rpq_regex::Nfa::from_regex(&re);
        prop_assert_eq!(nfa.accepts(&w), re.matches(&w));
    }

    /// Scan containment is reflexive and transitive on the regex class.
    #[test]
    fn scan_is_a_preorder(a in arb_regex(), b in arb_regex(), c in arb_regex()) {
        use rpq_regex::contain::contains_scan;
        prop_assert!(contains_scan(&a, &a));
        if contains_scan(&a, &b) && contains_scan(&b, &c) {
            prop_assert!(contains_scan(&a, &c));
        }
    }
}

proptest! {
    // graph-valued cases are costlier; fewer of them
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Minimization: equivalent, never larger, and idempotent in size.
    #[test]
    fn minimize_invariants(
        re1 in arb_regex(),
        re2 in arb_regex(),
        re3 in arb_regex(),
        dup in any::<bool>(),
    ) {
        let mut schema = Schema::new();
        schema.intern("t");
        let p = |v: i64| Predicate::parse(&format!("t = {v}"), &schema).unwrap();
        let mut q = Pq::new();
        let r = q.add_node("r", p(0));
        let x = q.add_node("x", p(1));
        let y = q.add_node("y", p(1));
        q.add_edge(r, x, re1.clone());
        q.add_edge(r, y, if dup { re1 } else { re2 });
        q.add_edge(x, r, re3.clone());
        q.add_edge(y, r, re3);
        let m1 = minimize(&q);
        prop_assert!(rpq::core::pq_equivalent(&m1, &q), "equivalence lost");
        prop_assert!(m1.size() <= q.size(), "minimization grew the query");
        let m2 = minimize(&m1);
        prop_assert!(rpq::core::pq_equivalent(&m2, &m1));
        prop_assert_eq!(m2.size(), m1.size(), "not a fixpoint");
    }

    /// PQ containment is consistent with evaluation on single-edge
    /// patterns: a ⊑ b implies Se(a) ⊆ Se(b) on every tested graph.
    #[test]
    fn pq_containment_consistent_with_eval(
        (seed, n, e) in arb_graph(),
        ra in arb_regex(),
        rb in arb_regex(),
    ) {
        let g = build_graph(seed, n, e);
        let mk = |re: &FRegex| {
            let mut q = Pq::new();
            let a = q.add_node("a", Predicate::always_true());
            let b = q.add_node("b", Predicate::always_true());
            q.add_edge(a, b, re.clone());
            q
        };
        let qa = mk(&ra);
        let qb = mk(&rb);
        if rpq::core::pq_contained_in(&qa, &qb) {
            let sa = qa.eval_naive(&g);
            let sb = qb.eval_naive(&g);
            for p in sa.edge_matches(0) {
                prop_assert!(sb.edge_matches(0).contains(p), "pair {p:?} not covered");
            }
        }
    }
}

// ---- incremental index repair ≡ from-scratch rebuild -------------------

fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Apply `count` pseudo-random edge flips to `g`, returning the new graph
/// and the effective change list (the repair input contract).
fn mutation_round(
    g: &Graph,
    count: usize,
    seed: u64,
) -> (Graph, Vec<(NodeId, NodeId, rpq::graph::Color)>) {
    let n = g.node_count() as u64;
    let m = g.alphabet().len() as u64;
    let mut b = GraphBuilder::from_graph(g);
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut eff = Vec::new();
    for _ in 0..count {
        let u = NodeId((lcg(&mut s) % n) as u32);
        let v = NodeId((lcg(&mut s) % n) as u32);
        let c = rpq::graph::Color((lcg(&mut s) % m) as u8);
        let applied = match lcg(&mut s) % 2 {
            0 => b.insert_edge(u, v, c) || b.remove_edge(u, v, c),
            _ => b.remove_edge(u, v, c) || b.insert_edge(u, v, c),
        };
        if applied {
            eff.push((u, v, c));
        }
    }
    (b.build(), eff)
}

/// Every observation the engine makes of a probe — point probes, bounded
/// scans with and without the diagonal, batched reverse reachability —
/// must be identical between `repaired` and `fresh` on `g` (every node ×
/// color, `_` included when both probes answer it: label indices hold
/// concrete colors only), and the nonempty-cycle test of both must equal
/// the distance matrix's edge walk.
fn assert_probe_equal(g: &Graph, repaired: &dyn DistProbe, fresh: &dyn DistProbe, wildcard: bool) {
    let colors: Vec<rpq::graph::Color> = (0..NUM_COLORS as u8)
        .map(rpq::graph::Color)
        .chain(wildcard.then_some(WILDCARD))
        .collect();
    let nodes: Vec<NodeId> = g.nodes().collect();
    let m = DistanceMatrix::build(g);
    let bounds = [Some(0u32), Some(1), Some(2), Some(3), None];
    for &c in &colors {
        for &u in &nodes {
            for k in bounds {
                let want = m.has_cycle_within(g, u, c, k);
                assert_eq!(
                    repaired.has_cycle_within(g, u, c, k),
                    want,
                    "repaired cycle at {u:?} {c:?} within {k:?}"
                );
                assert_eq!(
                    fresh.has_cycle_within(g, u, c, k),
                    want,
                    "fresh cycle at {u:?} {c:?} within {k:?}"
                );
                let reached = |p: &dyn DistProbe| {
                    let mut got = vec![false; g.node_count()];
                    p.for_each_reaching_within(g, u, c, k, &mut |z| got[z.index()] = true);
                    got
                };
                assert_eq!(
                    reached(repaired),
                    reached(fresh),
                    "reaching scan from {u:?} color {c:?} within {k:?}"
                );
            }
            for &v in &nodes {
                assert_eq!(
                    repaired.dist(u, v, c),
                    fresh.dist(u, v, c),
                    "dist({u:?},{v:?},{c:?})"
                );
            }
            for max in [0u16, 1, 2, 3] {
                let mut got = vec![false; g.node_count()];
                repaired.for_each_within(u, c, max, &mut |z| got[z.index()] = true);
                let mut want = vec![false; g.node_count()];
                fresh.for_each_within(u, c, max, &mut |z| want[z.index()] = true);
                assert_eq!(got, want, "scan from {u:?} color {c:?} max {max}");
            }
        }
        let targets: Vec<NodeId> = nodes.iter().copied().step_by(3).collect();
        for max_len in bounds {
            assert_eq!(
                repaired.sources_reaching_within(g, &nodes, &targets, c, max_len),
                fresh.sources_reaching_within(g, &nodes, &targets, c, max_len),
                "sources_reaching color {c:?} bound {max_len:?}"
            );
        }
    }
}

proptest! {
    // repair + rebuild + full probe comparison per case: keep cases low
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A repaired hop-label index is observationally identical to one
    /// built from scratch on the updated graph — across chained rounds.
    #[test]
    fn hop_repair_equals_rebuild(
        (seed, n, e) in arb_graph(),
        rounds in 1usize..3,
        flips in 1usize..10,
    ) {
        let mut g = build_graph(seed.wrapping_add(17), n.max(4), e);
        let mut labels = rpq::index::HopLabels::build(&g);
        for round in 0..rounds {
            let (g2, eff) = mutation_round(&g, flips, seed ^ (round as u64) << 7);
            // unlimited budget and invalidation cap: the proptest checks
            // equivalence, the cost model is exercised by the unit tests
            labels = labels
                .repair(&g2, &eff, 0, 0)
                .expect("unbudgeted repair cannot fail")
                .labels;
            g = g2;
        }
        assert_probe_equal(&g, &labels, &rpq::index::HopLabels::build(&g), false);
        assert_probe_equal(&g, &GraphProbe::new(&g), &DistanceMatrix::build(&g), true);
    }

    /// A repaired sharded index equals a from-scratch sharded build of the
    /// new graph and keeps its partition, on a clustered partition and on
    /// the degenerate one with a shard per node, where every edge but a
    /// self-loop is cut and no change touches a shard's interior.
    #[test]
    fn sharded_repair_equals_rebuild(
        (seed, n, e) in arb_graph(),
        flips in 1usize..8,
        degenerate in any::<bool>(),
    ) {
        use std::sync::Arc;
        let n = n.max(8);
        let g = Arc::new(build_graph(seed.wrapping_add(29), n, e));
        let k = if degenerate { n } else { 3 };
        let labels = ShardedLabels::build(&g, k);

        let (g2, eff) = mutation_round(&g, flips, seed ^ 0xA5A5);
        let g2 = Arc::new(g2);
        let (repaired, touched) = labels.repair(Arc::clone(&g2), &eff);
        let (before, after) = (labels.partition(), repaired.partition());
        assert_eq!(after.k(), k);
        assert!(g.nodes().all(|v| before.shard_of(v) == after.shard_of(v)));
        assert!(touched <= k);
        if degenerate {
            let loops = eff.iter().filter(|&&(u, v, _)| u == v);
            let mut looped: Vec<NodeId> = loops.map(|&(u, _, _)| u).collect();
            looped.sort_unstable();
            looped.dedup();
            assert_eq!(touched, looped.len(), "only a self-loop is intra-shard");
        }
        let fresh = ShardedLabels::build(&g2, k);
        assert_probe_equal(&g2, &repaired, &fresh, false);
    }
}
