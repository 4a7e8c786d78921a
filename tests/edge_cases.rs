//! Edge-case and degenerate-input tests across the whole stack: empty and
//! single-node graphs, self-loop-only topology, saturated alphabets,
//! unsatisfiable and trivial predicates, and adversarial patterns.

use rpq::prelude::*;

fn empty_graph() -> Graph {
    GraphBuilder::new().build()
}

#[test]
fn queries_on_the_empty_graph() {
    let mut b = GraphBuilder::new();
    b.attr("x");
    b.color("c");
    let g = b.build();
    let m = DistanceMatrix::build(&g);
    let rq = Rq::new(
        Predicate::always_true(),
        Predicate::always_true(),
        FRegex::parse("c", g.alphabet()).unwrap(),
    );
    assert!(rq.eval_bfs(&g).is_empty());
    assert!(rq.eval_with_matrix(&g, &m).is_empty());
    assert!(rq.eval_bibfs(&g).is_empty());

    let mut pq = Pq::new();
    let a = pq.add_node("a", Predicate::always_true());
    let b2 = pq.add_node("b", Predicate::always_true());
    pq.add_edge(a, b2, FRegex::parse("c", g.alphabet()).unwrap());
    assert!(JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m)).is_empty());
    assert!(SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&GraphProbe::new(&g))).is_empty());

    // the truly empty graph (no colors either) at least survives stats
    let e = empty_graph();
    assert_eq!(e.node_count(), 0);
    assert_eq!(DistanceMatrix::bytes_for(&e), 0);
}

#[test]
fn single_node_self_loop_world() {
    // one node, one self-loop: every cyclic regex matches, acyclic beyond
    // budget does not
    let mut b = GraphBuilder::new();
    let x = b.add_node("x", []);
    let c = b.color("c");
    b.add_edge(x, x, c);
    let g = b.build();
    let m = DistanceMatrix::build(&g);
    for (re, expect) in [("c", true), ("c^5", true), ("c+", true), ("c c c", true)] {
        let rq = Rq::new(
            Predicate::always_true(),
            Predicate::always_true(),
            FRegex::parse(re, g.alphabet()).unwrap(),
        );
        assert_eq!(!rq.eval_bfs(&g).is_empty(), expect, "{re} (bfs)");
        assert_eq!(!rq.eval_with_matrix(&g, &m).is_empty(), expect, "{re} (dm)");
        assert_eq!(!rq.eval_bibfs(&g).is_empty(), expect, "{re} (bibfs)");
    }

    // cyclic pattern on the self-loop world
    let mut pq = Pq::new();
    let a = pq.add_node("a", Predicate::always_true());
    pq.add_edge(a, a, FRegex::parse("c+", g.alphabet()).unwrap());
    let res = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m));
    assert_eq!(res.node_matches(0), &[x]);
}

#[test]
fn two_node_cycle_against_plus() {
    // x <-> y: both nodes lie on a c-cycle; (x,x) ⊨ c+ via the 2-cycle
    let mut b = GraphBuilder::new();
    let x = b.add_node("x", []);
    let y = b.add_node("y", []);
    let c = b.color("c");
    b.add_edge(x, y, c);
    b.add_edge(y, x, c);
    let g = b.build();
    let m = DistanceMatrix::build(&g);
    let rq = Rq::new(
        Predicate::always_true(),
        Predicate::always_true(),
        FRegex::parse("c+", g.alphabet()).unwrap(),
    );
    let res = rq.eval_with_matrix(&g, &m);
    assert_eq!(res.len(), 4, "all four ordered pairs incl. (x,x),(y,y)");
    assert_eq!(res, rq.eval_bfs(&g));
    assert_eq!(res, rq.eval_bibfs(&g));
    // but c^1 only admits the two direct edges
    let one = Rq::new(
        Predicate::always_true(),
        Predicate::always_true(),
        FRegex::parse("c", g.alphabet()).unwrap(),
    );
    assert_eq!(one.eval_with_matrix(&g, &m).len(), 2);
}

#[test]
fn unsatisfiable_predicate_combinations() {
    let g = rpq::graph::gen::essembly();
    let m = DistanceMatrix::build(&g);
    // contradictory conjunction (no node has both jobs)
    let p = Predicate::parse("job = \"doctor\" && job = \"biologist\"", g.schema()).unwrap();
    let rq = Rq::new(
        p.clone(),
        Predicate::always_true(),
        FRegex::parse("_+", g.alphabet()).unwrap(),
    );
    assert!(rq.eval_with_matrix(&g, &m).is_empty());

    // a pattern node with the contradiction empties the whole answer
    let mut pq = Pq::new();
    let a = pq.add_node("a", p);
    let b = pq.add_node("b", Predicate::always_true());
    pq.add_edge(b, a, FRegex::parse("_", g.alphabet()).unwrap());
    assert!(JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m)).is_empty());
    assert!(SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&m)).is_empty());
    assert!(pq.eval_naive(&g).is_empty());
}

#[test]
fn pattern_larger_than_graph() {
    // more pattern nodes than data nodes: simulation is fine with that
    // (several pattern nodes may share one data node), isomorphism is not
    let mut b = GraphBuilder::new();
    let x = b.add_node("x", []);
    let y = b.add_node("y", []);
    let c = b.color("c");
    b.add_edge(x, y, c);
    b.add_edge(y, x, c);
    let g = b.build();
    let m = DistanceMatrix::build(&g);
    let mut pq = Pq::new();
    let nodes: Vec<_> = (0..5)
        .map(|i| pq.add_node(&format!("u{i}"), Predicate::always_true()))
        .collect();
    let re = FRegex::parse("c", g.alphabet()).unwrap();
    for w in nodes.windows(2) {
        pq.add_edge(w[0], w[1], re.clone());
    }
    let res = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m));
    assert!(
        !res.is_empty(),
        "simulation folds the chain onto the 2-cycle"
    );
    let iso = rpq::core::baseline::subiso_match(&pq, &g, 1 << 16);
    assert!(iso.complete);
    assert_eq!(iso.embeddings, 0, "no injective embedding exists");
}

#[test]
fn bound_larger_than_graph_diameter() {
    let g = rpq::graph::gen::essembly();
    let m = DistanceMatrix::build(&g);
    // k = 1000 behaves exactly like +  on a 7-node graph
    let big = Rq::new(
        Predicate::always_true(),
        Predicate::always_true(),
        FRegex::parse("fa^1000", g.alphabet()).unwrap(),
    );
    let plus = Rq::new(
        Predicate::always_true(),
        Predicate::always_true(),
        FRegex::parse("fa+", g.alphabet()).unwrap(),
    );
    assert_eq!(
        big.eval_with_matrix(&g, &m).pairs(),
        plus.eval_with_matrix(&g, &m).pairs()
    );
    assert_eq!(big.eval_bfs(&g).pairs(), plus.eval_bfs(&g).pairs());
}

#[test]
fn parallel_multi_colored_edges_between_one_pair() {
    // u → v under every color: each single-color RQ matches via its color
    let mut b = GraphBuilder::new();
    let u = b.add_node("u", []);
    let v = b.add_node("v", []);
    let colors: Vec<_> = (0..6).map(|i| b.color(&format!("k{i}"))).collect();
    for &c in &colors {
        b.add_edge(u, v, c);
    }
    let g = b.build();
    let m = DistanceMatrix::build(&g);
    for i in 0..6 {
        let rq = Rq::new(
            Predicate::always_true(),
            Predicate::always_true(),
            FRegex::parse(&format!("k{i}"), g.alphabet()).unwrap(),
        );
        assert_eq!(rq.eval_with_matrix(&g, &m).pairs(), vec![(u, v)]);
    }
    // a 2-atom chain cannot be satisfied by parallel edges (needs 2 hops)
    let chain = Rq::new(
        Predicate::always_true(),
        Predicate::always_true(),
        FRegex::parse("k0 k1", g.alphabet()).unwrap(),
    );
    assert!(chain.eval_with_matrix(&g, &m).is_empty());
    assert!(chain.eval_bfs(&g).is_empty());
}

#[test]
fn minimize_handles_disconnected_and_isolated_patterns() {
    let mut schema = Schema::new();
    schema.intern("t");
    let al = Alphabet::from_names(["c"]);
    // two disconnected identical components: they merge
    let p = Predicate::parse("t = 1", &schema).unwrap();
    let mut q = Pq::new();
    let a1 = q.add_node("a1", p.clone());
    let b1 = q.add_node("b1", Predicate::always_true());
    let a2 = q.add_node("a2", p.clone());
    let b2 = q.add_node("b2", Predicate::always_true());
    let re = FRegex::parse("c", &al).unwrap();
    q.add_edge(a1, b1, re.clone());
    q.add_edge(a2, b2, re);
    let slim = minimize(&q);
    assert!(rpq::core::pq_equivalent(&slim, &q));
    assert!(slim.size() <= 4, "duplicate component must fold: {slim:?}");
}

#[test]
fn incremental_noop_updates() {
    let g = rpq::graph::gen::essembly();
    let c1 = g.node_by_label("C1").unwrap();
    let b1 = g.node_by_label("B1").unwrap();
    let sn = g.alphabet().get("sn").unwrap();
    let fa = g.alphabet().get("fa").unwrap();
    let mut dg = DynamicGraph::new(g);
    let mut pq = Pq::new();
    let a = pq.add_node(
        "a",
        Predicate::parse("job = \"biologist\"", dg.graph().schema()).unwrap(),
    );
    let b = pq.add_node(
        "b",
        Predicate::parse("job = \"doctor\"", dg.graph().schema()).unwrap(),
    );
    pq.add_edge(
        a,
        b,
        FRegex::parse("fa^2 fn", dg.graph().alphabet()).unwrap(),
    );
    let mut inc = IncrementalMatcher::new(pq, &dg);
    let before = inc.result(&dg);
    // deleting a non-existent edge and re-inserting an existing one are
    // both no-ops: the standing answer must not move
    let eff = dg.apply(&[Update::Delete(c1, b1, sn)]);
    assert!(eff.is_empty());
    inc.on_update(&dg, &eff);
    assert_eq!(inc.result(&dg), before);
    let c1c2 = (
        dg.graph().node_by_label("C1").unwrap(),
        dg.graph().node_by_label("C2").unwrap(),
    );
    let eff = dg.apply(&[Update::Insert(c1c2.0, c1c2.1, fa)]);
    assert!(eff.is_empty(), "edge already exists");
    inc.on_update(&dg, &eff);
    assert_eq!(inc.result(&dg), before);
}
