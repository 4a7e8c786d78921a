//! End-to-end reproduction of the paper's worked examples (§2) through the
//! public facade API: the Fig. 1 graph, query Q1 (Example 2.2) and query
//! Q2 (Example 2.3), evaluated by every strategy the library ships.

use rpq::prelude::*;

fn n(g: &Graph, l: &str) -> NodeId {
    g.node_by_label(l).unwrap()
}

fn q1(g: &Graph) -> Rq {
    Rq::new(
        Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap(),
        Predicate::parse("job = \"doctor\"", g.schema()).unwrap(),
        FRegex::parse("fa^2 fn", g.alphabet()).unwrap(),
    )
}

fn q2(g: &Graph) -> Pq {
    let mut pq = Pq::new();
    let b = pq.add_node(
        "B",
        Predicate::parse("job = \"doctor\" && dsp = \"cloning\"", g.schema()).unwrap(),
    );
    let c = pq.add_node(
        "C",
        Predicate::parse("job = \"biologist\" && sp = \"cloning\"", g.schema()).unwrap(),
    );
    let d = pq.add_node(
        "D",
        Predicate::parse("uid = \"Alice001\"", g.schema()).unwrap(),
    );
    let re = |s: &str| FRegex::parse(s, g.alphabet()).unwrap();
    pq.add_edge(b, c, re("fn"));
    pq.add_edge(c, b, re("fn"));
    pq.add_edge(c, c, re("fa+"));
    pq.add_edge(b, d, re("fn"));
    pq.add_edge(c, d, re("fa^2 sa^2"));
    pq
}

#[test]
fn example_2_2_q1_result() {
    let g = rpq::graph::gen::essembly();
    let rq = q1(&g);
    let expect = vec![
        (n(&g, "C1"), n(&g, "B1")),
        (n(&g, "C1"), n(&g, "B2")),
        (n(&g, "C2"), n(&g, "B1")),
        (n(&g, "C2"), n(&g, "B2")),
    ];
    let m = DistanceMatrix::build(&g);
    assert_eq!(rq.eval_with_matrix(&g, &m).pairs(), expect);
    assert_eq!(rq.eval_bfs(&g).pairs(), expect);
    assert_eq!(rq.eval_bibfs(&g).pairs(), expect);
}

#[test]
fn example_2_3_q2_result_all_algorithms() {
    let g = rpq::graph::gen::essembly();
    let pq = q2(&g);
    let m = DistanceMatrix::build(&g);
    let oracle = pq.eval_naive(&g);

    let variants: Vec<(&str, PqResult)> = vec![
        (
            "JoinMatchM",
            JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m)),
        ),
        (
            "JoinMatchC",
            JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&GraphProbe::new(&g))),
        ),
        (
            "SplitMatchM",
            SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&m)),
        ),
        (
            "SplitMatchC",
            SplitMatch::eval(&pq, &g, &mut ProbeReach::new(&GraphProbe::new(&g))),
        ),
    ];
    for (name, res) in &variants {
        assert_eq!(res, &oracle, "{name} diverges from the semantics");
    }

    // the exact table of Example 2.3
    let t = |pairs: &[(&str, &str)]| -> Vec<(NodeId, NodeId)> {
        pairs.iter().map(|&(a, b)| (n(&g, a), n(&g, b))).collect()
    };
    assert_eq!(oracle.edge_matches(0), t(&[("B1", "C3"), ("B2", "C3")]));
    assert_eq!(oracle.edge_matches(1), t(&[("C3", "B1"), ("C3", "B2")]));
    assert_eq!(oracle.edge_matches(2), t(&[("C3", "C3")]));
    assert_eq!(oracle.edge_matches(3), t(&[("B1", "D1"), ("B2", "D1")]));
    assert_eq!(oracle.edge_matches(4), t(&[("C3", "D1")]));
}

#[test]
fn q1_as_single_edge_pq_matches_rq() {
    // "RQs are a special case of PQs" (§2 Remark 1)
    let g = rpq::graph::gen::essembly();
    let rq = q1(&g);
    let pq = Pq::from_rq(&rq);
    let m = DistanceMatrix::build(&g);
    let pq_res = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m));
    assert_eq!(
        pq_res.edge_matches(0),
        rq.eval_with_matrix(&g, &m).as_slice()
    );
}

#[test]
fn baselines_show_the_fig9b_split() {
    // PQ semantics is the ground truth; SubIso under-reports (recall < 1),
    // bounded simulation over-reports (precision < 1)
    let g = rpq::graph::gen::essembly();
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

    let m = DistanceMatrix::build(&g);
    let truth = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m));
    let truth_pairs: std::collections::HashSet<(usize, NodeId)> = (0..pq.node_count())
        .flat_map(|u| truth.node_matches(u).iter().map(move |&x| (u, x)))
        .collect();

    let sub = rpq::core::baseline::subiso_match(&pq, &g, 1 << 20);
    assert!(sub.complete);
    // SubIso maps the edge to ONE data edge of the first color (fa): it
    // cannot see the fa-fa-fn paths, missing every true match
    assert!(
        sub.match_pairs.len() < truth_pairs.len(),
        "SubIso must under-report: {} vs {}",
        sub.match_pairs.len(),
        truth_pairs.len()
    );

    let relaxed = rpq::core::baseline::bounded_sim_match(&pq, &g, &mut ProbeReach::new(&m));
    let relaxed_pairs: std::collections::HashSet<(usize, NodeId)> = (0..pq.node_count())
        .flat_map(|u| relaxed.node_matches(u).iter().map(move |&x| (u, x)))
        .collect();
    for p in &truth_pairs {
        assert!(relaxed_pairs.contains(p), "Match must have full recall");
    }
    assert!(
        relaxed_pairs.len() > truth_pairs.len(),
        "Match must over-report on multi-colored data"
    );
}

#[test]
fn minimization_preserves_q2_semantics() {
    let g = rpq::graph::gen::essembly();
    let pq = q2(&g);
    let slim = minimize(&pq);
    assert!(rpq::core::pq_equivalent(&slim, &pq));
    assert!(slim.size() <= pq.size());
    // evaluating the minimized query yields matching per-class answers:
    // total match-set size is preserved under the containment mappings
    let m = DistanceMatrix::build(&g);
    let a = JoinMatch::eval(&pq, &g, &mut ProbeReach::new(&m));
    let b = JoinMatch::eval(&slim, &g, &mut ProbeReach::new(&m));
    assert_eq!(a.is_empty(), b.is_empty());
}
