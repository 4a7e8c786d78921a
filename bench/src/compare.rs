//! `rpq-ledger compare OLD NEW`: hold one result (or run-set) against
//! another, metric by metric, against the bounds `BENCHMARK.json` fixes.
//!
//! A side is a result file or a directory of them (a run-set, compared by
//! medians). Per workload × end-to-end metric the table shows old, new,
//! the ratio with its base, and a verdict:
//!
//! * `REGRESSED` — the new median is worse than the old by more than the
//!   metric's bound;
//! * `unresolved` — not regressed, but either side's run-to-run spread
//!   (inter-quartile distance over median) exceeds the bound, so "no
//!   change" cannot be told from noise — never reported as unchanged;
//! * `improved` / `within-bound` otherwise (a verdict, not a claim).
//!
//! The comparison fails (non-zero exit) if any metric regressed or is
//! missing, any run was incorrect or had failed operations, or any exact
//! count differs at all between any two runs — reported as a count
//! difference, never as a speed-up.

use crate::report::ParsedHalf;
use crate::spec::Spec;
use crate::stats::{median, spread};
use rpq_server::json::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// One result file: workload → (end-to-end half, per-layer half).
pub type ResultFile = BTreeMap<String, (ParsedHalf, ParsedHalf)>;

pub fn parse_result(text: &str) -> Result<ResultFile, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let Some(Json::Obj(workloads)) = doc.get("workloads") else {
        return Err("no `workloads` object".into());
    };
    workloads
        .iter()
        .map(|(name, w)| {
            let half = |key: &str| {
                w.get(key)
                    .and_then(ParsedHalf::from_json)
                    .ok_or_else(|| format!("workload {name}: malformed `{key}`"))
            };
            Ok((name.clone(), (half("end_to_end")?, half("per_layer")?)))
        })
        .collect()
}

/// Load a side: one file, or every `*.json` of a directory in name order.
pub fn load_side(path: &str) -> Result<Vec<ResultFile>, String> {
    let p = Path::new(path);
    let mut files = Vec::new();
    if p.is_dir() {
        let entries = std::fs::read_dir(p).map_err(|e| format!("{path}: {e}"))?;
        for entry in entries {
            let file = entry.map_err(|e| format!("{path}: {e}"))?.path();
            if file.extension().is_some_and(|x| x == "json") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(p.to_path_buf());
    }
    if files.is_empty() {
        return Err(format!("{path}: no result files"));
    }
    files
        .iter()
        .map(|f| {
            let text = std::fs::read_to_string(f).map_err(|e| format!("{}: {e}", f.display()))?;
            parse_result(&text).map_err(|e| format!("{}: {e}", f.display()))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Unresolved,
    Regressed,
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Missing => "MISSING",
        }
    }
}

#[derive(Debug, Default)]
pub struct Comparison {
    /// `(workload, metric, verdict)` per end-to-end pairing, table order.
    pub verdicts: Vec<(String, String, Verdict)>,
    /// Exact counts that differ between any two runs.
    pub count_drift: Vec<String>,
    /// Runs that were incorrect or had failed operations.
    pub bad_runs: Vec<String>,
    pub text: String,
}

impl Comparison {
    pub fn failed(&self) -> bool {
        !self.count_drift.is_empty()
            || !self.bad_runs.is_empty()
            || self
                .verdicts
                .iter()
                .any(|v| matches!(v.2, Verdict::Regressed | Verdict::Missing))
    }

    pub fn unresolved(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| v.2 == Verdict::Unresolved)
            .count()
    }

    #[cfg(test)]
    pub fn verdict(&self, workload: &str, metric: &str) -> Option<Verdict> {
        self.verdicts
            .iter()
            .find(|v| v.0 == workload && v.1 == metric)
            .map(|v| v.2)
    }
}

/// Values of one end-to-end metric across a side's runs; `None` if any
/// run lacks it.
fn values(side: &[ResultFile], workload: &str, metric: &str) -> Option<Vec<f64>> {
    side.iter()
        .map(|run| Some(run.get(workload)?.0.metrics.get(metric)?.0))
        .collect()
}

pub fn compare(spec: &Spec, old: &[ResultFile], new: &[ResultFile]) -> Comparison {
    let mut out = Comparison::default();
    out.text.push_str(&format!(
        "{:<14} {:<14} {:>14} {:>14}  {:<34} {}\n",
        "workload", "metric", "old", "new", "ratio (base)", "verdict"
    ));
    for (workload, _) in &spec.workloads {
        for m in &spec.end_to_end {
            let bound = m.bound.unwrap_or(0.0);
            let (verdict, line) = match (
                values(old, workload, &m.name),
                values(new, workload, &m.name),
            ) {
                (Some(o), Some(n)) => {
                    let (o_med, n_med) = (
                        median(&o).unwrap_or(f64::NAN),
                        median(&n).unwrap_or(f64::NAN),
                    );
                    let change = (n_med - o_med) / o_med;
                    let worsening = if m.higher_is_better { -change } else { change };
                    let noisy = [&o, &n]
                        .iter()
                        .any(|side| spread(side).is_some_and(|s| s > bound));
                    let verdict = if worsening > bound {
                        Verdict::Regressed
                    } else if noisy {
                        Verdict::Unresolved
                    } else if worsening < -bound {
                        Verdict::Improved
                    } else {
                        Verdict::WithinBound
                    };
                    (
                        verdict,
                        format!(
                            "{o_med:>14.4} {n_med:>14.4}  {:<34}",
                            format!("{:.3}x of old {o_med:.4} {}", n_med / o_med, m.unit)
                        ),
                    )
                }
                _ => (
                    Verdict::Missing,
                    format!("{:>14} {:>14}  {:<34}", "-", "-", "-"),
                ),
            };
            out.text.push_str(&format!(
                "{workload:<14} {:<14} {line} {}\n",
                m.name,
                verdict.label()
            ));
            out.verdicts
                .push((workload.clone(), m.name.clone(), verdict));
        }
    }

    // exact counts: identical across every run of both sides
    let runs: Vec<(&str, usize, &ResultFile)> = old
        .iter()
        .enumerate()
        .map(|(i, r)| ("old", i, r))
        .chain(new.iter().enumerate().map(|(i, r)| ("new", i, r)))
        .collect();
    for (workload, _) in &spec.workloads {
        let exact: BTreeSet<&String> = runs
            .iter()
            .filter_map(|(_, _, r)| r.get(workload))
            .flat_map(|(_, layer)| layer.metrics.iter())
            .filter(|(_, (_, exact))| *exact)
            .map(|(name, _)| name)
            .collect();
        for name in exact {
            let seen: Vec<Option<f64>> = runs
                .iter()
                .map(|(_, _, r)| Some(r.get(workload)?.1.metrics.get(name)?.0))
                .collect();
            if seen.windows(2).any(|w| w[0] != w[1]) {
                let (first, last) = (seen[0], seen[seen.len() - 1]);
                let drift = format!(
                    "{workload} {name}: count differs between runs ({} -> {}, difference {})",
                    show(first),
                    show(last),
                    match (first, last) {
                        (Some(a), Some(b)) => format!("{:+}", b - a),
                        _ => "n/a".into(),
                    }
                );
                out.text.push_str(&format!("COUNT DRIFT  {drift}\n"));
                out.count_drift.push(drift);
            }
        }
    }

    for (side, i, run) in &runs {
        for (workload, (e2e, layer)) in run.iter() {
            for (half, what) in [(e2e, "end_to_end"), (layer, "per_layer")] {
                if !half.correct || half.failed > 0 {
                    let bad = format!(
                        "{side} run {i}: {workload} {what} correct={} failed={}",
                        half.correct, half.failed
                    );
                    out.text.push_str(&format!("BAD RUN      {bad}\n"));
                    out.bad_runs.push(bad);
                }
            }
        }
    }
    out.text.push_str(&format!(
        "{} runs vs {} runs: {} regressed or missing, {} unresolved, {} count drifts, {} bad runs\n",
        old.len(),
        new.len(),
        out.verdicts
            .iter()
            .filter(|v| matches!(v.2, Verdict::Regressed | Verdict::Missing))
            .count(),
        out.unresolved(),
        out.count_drift.len(),
        out.bad_runs.len()
    ));
    out
}

fn show(v: Option<f64>) -> String {
    v.map_or("absent".into(), |x| x.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "run_seconds": 1,
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "qps", "unit": "1/s", "better": "higher", "bound": 0.1}
        ],
        "per_layer": [{"name": "core.pairs", "unit": "count", "better": "lower"}]
    }"#;

    fn run(lat: f64, qps: f64, pairs: f64) -> ResultFile {
        parse_result(&format!(
            r#"{{"workloads": {{"w": {{
                "end_to_end": {{"correct": true, "attempted": 10, "failed": 0, "metrics": {{
                    "lat_ms": {{"value": {lat}, "unit": "ms", "samples": 9, "exact": false}},
                    "qps": {{"value": {qps}, "unit": "1/s", "samples": 9, "exact": false}}}}}},
                "per_layer": {{"correct": true, "attempted": 10, "failed": 0, "metrics": {{
                    "core.pairs": {{"value": {pairs}, "unit": "count", "samples": 4, "exact": true}}}}}}
            }}}}, "claim": null}}"#
        ))
        .unwrap()
    }

    fn spec() -> Spec {
        Spec::parse(SPEC).unwrap()
    }

    #[test]
    fn improvement_is_a_verdict_and_passes() {
        let c = compare(&spec(), &[run(10.0, 100.0, 7.0)], &[run(8.0, 125.0, 7.0)]);
        assert_eq!(c.verdict("w", "lat_ms"), Some(Verdict::Improved));
        assert_eq!(c.verdict("w", "qps"), Some(Verdict::Improved));
        assert!(!c.failed(), "{}", c.text);
        assert!(c.text.contains("0.800x of old 10.0000 ms"), "{}", c.text);
    }

    #[test]
    fn a_regression_past_the_bound_fails_in_either_direction() {
        let c = compare(&spec(), &[run(10.0, 100.0, 7.0)], &[run(11.5, 100.0, 7.0)]);
        assert_eq!(c.verdict("w", "lat_ms"), Some(Verdict::Regressed));
        assert_eq!(c.verdict("w", "qps"), Some(Verdict::WithinBound));
        assert!(c.failed());
        // higher-is-better: a drop is the regression
        let c = compare(&spec(), &[run(10.0, 100.0, 7.0)], &[run(10.0, 85.0, 7.0)]);
        assert_eq!(c.verdict("w", "qps"), Some(Verdict::Regressed));
        assert!(c.failed());
    }

    #[test]
    fn a_change_inside_the_bound_passes() {
        let c = compare(&spec(), &[run(10.0, 100.0, 7.0)], &[run(10.9, 95.0, 7.0)]);
        assert_eq!(c.verdict("w", "lat_ms"), Some(Verdict::WithinBound));
        assert_eq!(c.verdict("w", "qps"), Some(Verdict::WithinBound));
        assert!(!c.failed() && c.unresolved() == 0);
    }

    #[test]
    fn any_exact_count_drift_fails_and_is_reported_as_a_difference() {
        let c = compare(&spec(), &[run(10.0, 100.0, 7.0)], &[run(9.0, 100.0, 6.0)]);
        assert!(c.failed());
        assert_eq!(c.count_drift.len(), 1);
        assert!(c.count_drift[0].contains("difference -1"), "{}", c.text);
        // drift *within* one side counts too
        let old = [run(10.0, 100.0, 7.0), run(10.0, 100.0, 8.0)];
        assert!(compare(&spec(), &old, &[run(10.0, 100.0, 7.0)]).failed());
    }

    #[test]
    fn a_missing_metric_fails() {
        let mut new = run(10.0, 100.0, 7.0);
        new.get_mut("w").unwrap().0.metrics.remove("qps");
        let c = compare(&spec(), &[run(10.0, 100.0, 7.0)], &[new]);
        assert_eq!(c.verdict("w", "qps"), Some(Verdict::Missing));
        assert!(c.failed());
    }

    #[test]
    fn run_sets_compare_medians_and_noise_is_unresolved_not_unchanged() {
        let steady = |lat: f64| {
            [
                run(lat, 100.0, 7.0),
                run(lat * 1.01, 100.0, 7.0),
                run(lat * 0.99, 100.0, 7.0),
            ]
        };
        let c = compare(&spec(), &steady(10.0), &steady(10.2));
        assert_eq!(c.verdict("w", "lat_ms"), Some(Verdict::WithinBound));
        // same medians, but one side swings by far more than the bound
        let noisy = [
            run(6.0, 100.0, 7.0),
            run(10.0, 100.0, 7.0),
            run(14.0, 100.0, 7.0),
        ];
        let c = compare(&spec(), &steady(10.0), &noisy);
        assert_eq!(c.verdict("w", "lat_ms"), Some(Verdict::Unresolved));
        assert_eq!(c.unresolved(), 1);
        assert!(!c.failed(), "unresolved alone does not fail the gate");
        // a regression stays a regression however noisy
        let worse = [
            run(12.0, 100.0, 7.0),
            run(20.0, 100.0, 7.0),
            run(28.0, 100.0, 7.0),
        ];
        let c = compare(&spec(), &steady(10.0), &worse);
        assert_eq!(c.verdict("w", "lat_ms"), Some(Verdict::Regressed));
    }

    #[test]
    fn an_incorrect_or_failing_run_fails_the_comparison() {
        let mut bad = run(10.0, 100.0, 7.0);
        bad.get_mut("w").unwrap().0.failed = 3;
        let c = compare(&spec(), &[run(10.0, 100.0, 7.0)], &[bad]);
        assert!(c.failed());
        assert_eq!(c.bad_runs.len(), 1);
    }
}
