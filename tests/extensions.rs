//! Integration tests for the extension surface: incremental maintenance,
//! the general-regex query class, the query language, graph I/O and the
//! expressiveness ladder of baselines — all through the facade.

use rpq::prelude::*;

#[test]
fn standing_query_follows_a_stream_of_updates() {
    // maintain Q2 over the Essembly graph while friendships churn
    let g = rpq::graph::gen::essembly();
    let q2_text = r#"
        node B: job = "doctor" && dsp = "cloning";
        node C: job = "biologist" && sp = "cloning";
        node D: uid = "Alice001";
        edge B -> C: fn;
        edge C -> B: fn;
        edge C -> C: fa+;
        edge B -> D: fn;
        edge C -> D: fa^2 sa^2;
    "#;
    let pq = parse_pq(q2_text, g.schema(), g.alphabet()).unwrap();
    let fnc = g.alphabet().get("fn").unwrap();
    let c1 = g.node_by_label("C1").unwrap();
    let c2 = g.node_by_label("C2").unwrap();
    let b1 = g.node_by_label("B1").unwrap();

    let mut dg = DynamicGraph::new(g);
    let mut standing = IncrementalMatcher::new(pq, &dg);
    assert_eq!(standing.matches(1).len(), 1, "initially only C3 matches C");

    // C1 picks a fight with B1 → C1 joins; then B1 and C2 too
    let updates = [
        Update::Insert(c1, b1, fnc),
        Update::Insert(c2, b1, fnc),
        Update::Delete(c1, b1, fnc),
    ];
    for upd in updates {
        let eff = dg.apply(&[upd]);
        standing.on_update(&dg, &eff);
        assert_eq!(
            standing.result(&dg),
            standing.full_reeval(&dg),
            "incremental answer must track full re-evaluation after {upd:?}"
        );
    }
}

#[test]
fn general_regex_strictly_extends_f() {
    let g = rpq::graph::gen::essembly();
    // "(fa | sa)+ fn": mixed allies chains then one nemeses edge —
    // not expressible in F (no proper color unions)
    let grq = GRq::new(
        Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
        Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        GRegex::parse("(fa | sa)+ fn", g.alphabet()).unwrap(),
    );
    let general = grq.eval(&g);
    assert!(!general.is_empty());
    // it sits between the pure-fa F query and the wildcard relaxation
    let tight = Rq::new(
        grq.from.clone(),
        grq.to.clone(),
        FRegex::parse("fa+ fn", g.alphabet()).unwrap(),
    )
    .eval_bfs(&g);
    let loose = Rq::new(
        grq.from.clone(),
        grq.to.clone(),
        FRegex::parse("_+ fn", g.alphabet()).unwrap(),
    )
    .eval_bfs(&g);
    for &(x, y) in tight.as_slice() {
        assert!(general.contains(x, y), "general must cover the F query");
    }
    for &(x, y) in general.as_slice() {
        assert!(loose.contains(x, y), "wildcard must cover general");
    }
}

#[test]
fn graph_io_preserves_query_answers() {
    let g = rpq::graph::gen::terrorism_like(11);
    let text = rpq::graph::io::graph_to_string(&g);
    let back = rpq::graph::io::graph_from_str(&text).unwrap();
    let rq_src = |g: &Graph| {
        Rq::new(
            Predicate::parse("tt = \"Business\"", g.schema()).unwrap(),
            Predicate::parse("tt = \"Military\"", g.schema()).unwrap(),
            FRegex::parse("ic^2 dc", g.alphabet()).unwrap(),
        )
    };
    let before = rq_src(&g).eval_bfs(&g);
    let after = rq_src(&back).eval_bfs(&back);
    // labels are preserved, so compare results via labels
    let to_labels = |g: &Graph, r: &RqResult| -> Vec<(String, String)> {
        r.as_slice()
            .iter()
            .map(|&(x, y)| (g.label(x).to_owned(), g.label(y).to_owned()))
            .collect()
    };
    assert_eq!(to_labels(&g, &before), to_labels(&back, &after));
    assert!(!before.is_empty() || before.is_empty()); // result may be empty; equality is the point
}

#[test]
fn expressiveness_ladder() {
    // plain simulation ⊆ PQ matches ⊆ bounded simulation, on a pattern
    // where the three genuinely differ
    let g = rpq::graph::gen::essembly();
    let m = DistanceMatrix::build(&g);
    let mut pq = Pq::new();
    let c = pq.add_node(
        "C",
        Predicate::parse("job = \"biologist\"", g.schema()).unwrap(),
    );
    let b = pq.add_node(
        "B",
        Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
    );
    pq.add_edge(c, b, FRegex::parse("fa^2 fn", g.alphabet()).unwrap());

    let plain = plain_sim_match(&pq, &g); // one fa hop required — nobody matches
    let full = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m));
    let relaxed = bounded_sim_match(&pq, &g, &mut ProbeReach::new(&m));

    let pairs = |r: &PqResult| -> Vec<NodeId> { r.node_matches(0).to_vec() };
    for x in pairs(&plain) {
        assert!(pairs(&full).contains(&x));
    }
    for x in pairs(&full) {
        assert!(pairs(&relaxed).contains(&x));
    }
    assert!(pairs(&full).len() >= 2, "the PQ finds C1, C2");
    assert!(
        pairs(&relaxed).len() >= pairs(&full).len(),
        "color-blind relaxation over-reports"
    );
}

#[test]
fn cli_language_roundtrip_via_facade() {
    let g = rpq::graph::gen::essembly();
    let mut pq = Pq::new();
    let a = pq.add_node(
        "A",
        Predicate::parse("sp = \"cloning\"", g.schema()).unwrap(),
    );
    let b = pq.add_node("B", Predicate::always_true());
    pq.add_edge(a, b, FRegex::parse("fa^2 sn+", g.alphabet()).unwrap());
    let text = format_pq(&pq, g.schema(), g.alphabet());
    let again = parse_pq(&text, g.schema(), g.alphabet()).unwrap();
    assert_eq!(pq, again);
}
