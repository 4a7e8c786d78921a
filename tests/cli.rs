//! The `rpq` binary end to end: the paper's examples over a graph file,
//! through every command, and the exit codes of the usage contract.

use rpq::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Q2 of Example 2.3 in the query language.
const Q2: &str = r#"
    node B: job = "doctor" && dsp = "cloning";
    node C: job = "biologist" && sp = "cloning";
    node D: uid = "Alice001";
    edge B -> C: fn;
    edge C -> B: fn;
    edge C -> C: fa+;
    edge B -> D: fn;
    edge C -> D: fa^2 sa^2;
"#;

/// A file of this test's own under Cargo's scratch directory for
/// integration tests.
fn temp_file(name: &str, contents: &[u8]) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}"));
    std::fs::write(&path, contents).unwrap();
    path
}

/// The Fig. 1 graph, written in the `rpq-graph` text format.
fn essembly_file(name: &str) -> PathBuf {
    let mut bytes = Vec::new();
    rpq::graph::io::write_graph(&rpq::graph::gen::essembly(), &mut bytes).unwrap();
    temp_file(name, &bytes)
}

fn rpq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rpq"))
        .args(args)
        .output()
        .expect("the rpq binary runs")
}

fn stdout(out: &Output) -> String {
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn rq_prints_the_plan_and_example_2_2() {
    let graph = essembly_file("rq.graph");
    let out = rpq(&[
        graph.to_str().unwrap(),
        "rq",
        r#"job = "biologist" && sp = "cloning""#,
        r#"job = "doctor""#,
        "fa^2 fn",
    ]);
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("plan: "), "{text}");
    assert_eq!(
        lines[1..],
        ["4 pairs", "C1 -> B1", "C1 -> B2", "C2 -> B1", "C2 -> B2"]
    );
}

#[test]
fn pq_prints_example_2_3_match_sets() {
    let graph = essembly_file("pq.graph");
    let query = temp_file("q2.pq", Q2.as_bytes());
    let out = rpq(&[graph.to_str().unwrap(), "pq", query.to_str().unwrap()]);
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].starts_with("plan: "), "{text}");
    assert_eq!(
        lines[1..],
        [
            "B: B1, B2",
            "C: C3",
            "D: D1",
            "edge B -> C (2 pairs)",
            "edge C -> B (2 pairs)",
            "edge C -> C (1 pairs)",
            "edge B -> D (2 pairs)",
            "edge C -> D (1 pairs)",
        ]
    );
}

#[test]
fn grq_agrees_with_the_library() {
    let graph = essembly_file("grq.graph");
    let (from, to, regex) = (r#"job = "biologist""#, r#"job = "doctor""#, "(fa | sa)+ fn");
    let out = rpq(&[graph.to_str().unwrap(), "grq", from, to, regex]);
    let g = rpq::graph::gen::essembly();
    let expect = GRq::new(
        Predicate::parse(from, g.schema()).unwrap(),
        Predicate::parse(to, g.schema()).unwrap(),
        GRegex::parse(regex, g.alphabet()).unwrap(),
    )
    .eval(&g);
    assert!(!expect.is_empty());
    let mut lines = vec![format!("{} pairs", expect.len())];
    lines.extend(
        (expect.as_slice().iter()).map(|&(x, y)| format!("{} -> {}", g.label(x), g.label(y))),
    );
    assert_eq!(stdout(&out), lines.join("\n") + "\n");
}

#[test]
fn min_shrinks_a_redundant_pattern() {
    let graph = essembly_file("min.graph");
    // two interchangeable doctor branches: one is redundant
    let query = temp_file(
        "redundant.pq",
        br#"
            node a: job = "biologist";
            node b1: job = "doctor";
            node b2: job = "doctor";
            edge a -> b1: fn;
            edge a -> b2: fn;
        "#,
    );
    let out = rpq(&[graph.to_str().unwrap(), "min", query.to_str().unwrap()]);
    let text = stdout(&out);
    let statements = |kind: &str| text.lines().filter(|l| l.starts_with(kind)).count();
    assert_eq!((statements("node "), statements("edge ")), (2, 1), "{text}");
    assert_eq!(String::from_utf8_lossy(&out.stderr).trim(), "|Q| 5 -> 3");
}

#[test]
fn stats_succeeds_and_errors_exit_2() {
    let graph = essembly_file("stats.graph");
    let graph = graph.to_str().unwrap();
    let text = stdout(&rpq(&[graph, "stats"]));
    assert!(text.starts_with("nodes:  "), "{text}");

    let query = temp_file("flag.pq", Q2.as_bytes());
    for args in [
        vec![graph, "pq", query.to_str().unwrap(), "--backend", "matrix"],
        vec![graph, "rq", "job = ", "", "fn"],
        vec![graph, "frobnicate"],
        vec![graph],
        vec!["/nonexistent/graph", "stats"],
    ] {
        let out = rpq(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: "), "{args:?}: {err}");
    }
}
