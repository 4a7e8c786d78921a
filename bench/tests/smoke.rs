//! Rot guard: every workload at toy size, through the real binary, must
//! emit exactly what `BENCHMARK.json` declares, keep its spans well
//! formed, and honour the driver's one-line contract.

use rpq_server::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const LEDGER: &str = env!("CARGO_BIN_EXE_rpq-ledger");
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declared(section: &str) -> Vec<(String, String)> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

fn workloads() -> Vec<String> {
    let doc = Json::parse(BENCHMARK_JSON).unwrap();
    doc.get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("ledger-smoke");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn keys(v: &Json) -> Vec<String> {
    match v {
        Json::Obj(m) => m.keys().cloned().collect(),
        _ => panic!("expected an object, got {v:?}"),
    }
}

#[test]
fn list_prints_exactly_the_declared_names_and_units() {
    let out = Command::new(LEDGER).arg("list").output().unwrap();
    assert!(out.status.success());
    let listed: Vec<(String, String)> = String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(|l| {
            let (name, unit) = l.split_once('\t').expect("name<TAB>unit");
            (name.to_owned(), unit.to_owned())
        })
        .collect();
    let mut want = declared("end_to_end");
    want.extend(declared("per_layer"));
    assert_eq!(listed, want);
}

#[test]
fn the_driver_line_has_exactly_the_contracted_keys() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = Command::new(LEDGER)
            .args(["--workload", "hop_zipf", "--seed", "7", "--seconds", "1"])
            .args(["--trace", trace, "--smoke"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let last = Json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        assert_eq!(keys(&last), ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)), "{stdout}");
        assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
        assert!(last.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let metrics = last.get("metrics").unwrap();
        let mut want: Vec<String> = declared(section).into_iter().map(|m| m.0).collect();
        want.sort();
        assert_eq!(keys(metrics), want, "--trace {trace}");
        for (name, unit) in declared(section) {
            let m = metrics.get(&name).unwrap();
            assert_eq!(keys(m), ["unit", "value"], "{name}");
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            assert!(m.get("value").and_then(Json::as_f64).unwrap().is_finite());
        }
    }
}

#[test]
fn an_unknown_workload_or_a_bad_flag_exits_non_zero_without_a_result() {
    for args in [
        vec!["--workload", "nope"],
        vec!["--workload", "hop_zipf", "--trace", "2"],
        vec!["--workload", "hop_zipf", "--seconds", "0"],
        vec!["frobnicate"],
    ] {
        let out = Command::new(LEDGER).args(&args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

#[test]
fn smoke_run_emits_every_declared_metric_with_sound_spans_and_compares_clean() {
    let result = tmp("smoke.json");
    let traces = tmp("smoke-trace");
    let out = Command::new(LEDGER)
        .args(["run", "--smoke", "--seed", "5", "--seconds", "2"])
        .arg("--out")
        .arg(&result)
        .arg("--trace-out")
        .arg(&traces)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&result).unwrap();
    assert!(
        text.trim_end().ends_with("\"claim\": null\n}"),
        "the summary ends with no claim"
    );
    let doc = Json::parse(&text).unwrap();
    assert_eq!(doc.get("claim"), Some(&Json::Null));

    for workload in workloads() {
        let w = doc
            .get("workloads")
            .and_then(|ws| ws.get(&workload))
            .expect("workload ran");
        for section in ["end_to_end", "per_layer"] {
            let half = w.get(section).unwrap();
            assert_eq!(
                half.get("correct"),
                Some(&Json::Bool(true)),
                "{workload} {section}"
            );
            let mut want: Vec<String> = declared(section).into_iter().map(|m| m.0).collect();
            want.sort();
            assert_eq!(
                keys(half.get("metrics").unwrap()),
                want,
                "{workload} {section}"
            );
            for name in &want {
                assert!(
                    name.bytes()
                        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-')),
                    "{name}"
                );
                let m = half.get("metrics").unwrap().get(name).unwrap();
                assert!(
                    m.get("samples").and_then(Json::as_u64).is_some(),
                    "{name} has a count"
                );
            }
        }

        // spans: children nest inside their parent, one after the other,
        // so self time is non-negative and self + children == parent
        let ndjson =
            std::fs::read_to_string(format!("{}.{workload}.ndjson", traces.display())).unwrap();
        let spans: Vec<Json> = ndjson.lines().map(|l| Json::parse(l).unwrap()).collect();
        assert!(!spans.is_empty());
        let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_u64).unwrap();
        let mut covered: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            assert!(num(s, "end_ns") >= num(s, "start_ns"));
            if let Some(parent) = s.get("parent").and_then(Json::as_u64) {
                let p = &spans[parent as usize];
                assert_eq!(num(p, "id"), parent);
                assert_eq!(num(p, "request"), num(s, "request"), "one id per request");
                assert!(num(s, "start_ns") >= num(p, "start_ns"));
                assert!(num(s, "end_ns") <= num(p, "end_ns"));
                *covered.entry(parent).or_insert(0) += num(s, "end_ns") - num(s, "start_ns");
            }
        }
        for (parent, children) in covered {
            let p = &spans[parent as usize];
            let dur = num(p, "end_ns") - num(p, "start_ns");
            assert!(
                children <= dur,
                "{workload}: span {parent} self time is negative"
            );
        }
        let layers: Vec<&str> = spans
            .iter()
            .map(|s| s.get("layer").and_then(Json::as_str).unwrap())
            .collect();
        for layer in ["ledger", "server", "engine"] {
            assert!(layers.contains(&layer), "{workload}: no {layer} span");
        }
    }

    // a result agrees with itself: no regression, no count drift
    let out = Command::new(LEDGER)
        .arg("compare")
        .arg(&result)
        .arg(&result)
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{table}");
    assert!(table.contains("within-bound") && !table.contains("REGRESSED"));
}
