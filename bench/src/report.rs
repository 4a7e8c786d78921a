//! What one workload run reports, and its two renderings: the strict
//! one-line result the acceptance driver reads, and the fuller per-run
//! document `run` collects (sample counts, plan tallies, count flags).

use crate::spec::{MetricSpec, Spec};
use rpq_server::json::{escape, Json};
use std::collections::BTreeMap;

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    /// Samples behind the value (1 for a single measurement).
    pub samples: u64,
    /// A count made by the single-threaded replay: repeats exactly for a
    /// seed, and `compare` requires it to.
    pub exact: bool,
}

/// The result of one `(workload, trace mode)` run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    pub workload: String,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Queries planned per `Plan::name()`.
    pub plans: BTreeMap<String, u64>,
    /// Reasons `correct` is false.
    pub problems: Vec<String>,
}

impl RunReport {
    pub fn timing(&mut self, name: &str, value: f64, samples: usize) {
        self.push(name, value, samples as u64, false);
    }

    pub fn count(&mut self, name: &str, value: f64, samples: usize) {
        self.push(name, value, samples as u64, true);
    }

    fn push(&mut self, name: &str, value: f64, samples: u64, exact: bool) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            samples,
            exact,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("rpq-ledger: {}: {what}", self.workload);
        self.problems.push(what);
        self.correct = false;
    }

    /// The metrics this run must emit: every declared end-to-end metric
    /// with the tracer off, every declared per-layer metric with it on.
    pub fn declared<'a>(&self, spec: &'a Spec) -> &'a [MetricSpec] {
        if self.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        }
    }

    /// Hold the run against its declaration: every declared metric
    /// emitted once, finite, and nothing undeclared.
    pub fn check_declared(&mut self, spec: &Spec) {
        let declared: Vec<String> = self.declared(spec).iter().map(|m| m.name.clone()).collect();
        for name in &declared {
            match self.metrics.iter().filter(|m| &m.name == name).count() {
                1 => {}
                0 => self.problem(format!("declared metric {name} was not emitted")),
                n => self.problem(format!("metric {name} emitted {n} times")),
            }
        }
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !declared.contains(&m.name) || !m.value.is_finite())
            .map(|m| format!("{}={}", m.name, m.value))
            .collect();
        for m in bad {
            self.problem(format!("undeclared or non-finite metric {m}"));
        }
    }

    /// The declared unit of metric `name` (empty if undeclared).
    fn unit_of<'a>(&self, spec: &'a Spec, name: &str) -> &'a str {
        self.declared(spec)
            .iter()
            .find(|s| s.name == name)
            .map_or("", |s| s.unit.as_str())
    }

    /// Every metric by name with its unit and sample count, one per line.
    pub fn table(&self, spec: &Spec) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let unit = self.unit_of(spec, &m.name);
            out.push_str(&format!(
                "{:<14} {:<34} {:>16.6} {:<10} n={}{}\n",
                self.workload,
                m.name,
                m.value,
                unit,
                m.samples,
                if m.exact { " (count)" } else { "" }
            ));
        }
        out
    }

    /// The driver's contract: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn driver_line(&self, spec: &Spec) -> String {
        let metrics: Vec<String> = self
            .declared(spec)
            .iter()
            .filter_map(|s| {
                let m = self.get(&s.name)?;
                Some(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(&s.name),
                    number(m.value),
                    escape(&s.unit)
                ))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The fuller document `run` merges into its result file.
    pub fn to_json(&self, spec: &Spec) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let unit = self.unit_of(spec, &m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}, \"exact\": {}}}",
                    escape(&m.name),
                    number(m.value),
                    escape(unit),
                    m.samples,
                    m.exact
                )
            })
            .collect();
        let plans: Vec<String> = self
            .plans
            .iter()
            .map(|(p, n)| format!("\"{}\": {n}", escape(p)))
            .collect();
        let problems: Vec<String> = self
            .problems
            .iter()
            .map(|p| format!("\"{}\"", escape(p)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
             \"plans\": {{{}}}, \"problems\": [{}]}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", "),
            plans.join(", "),
            problems.join(", ")
        )
    }
}

/// A JSON number with all its digits; non-finite values have no JSON
/// spelling and are caught by `check_declared` first.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// One workload's half (tracer off or on) of a result file, read back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedHalf {
    pub correct: bool,
    pub failed: u64,
    /// name → (value, exact)
    pub metrics: BTreeMap<String, (f64, bool)>,
}

impl ParsedHalf {
    pub fn from_json(v: &Json) -> Option<ParsedHalf> {
        let Json::Obj(metrics) = v.get("metrics")? else {
            return None;
        };
        Some(ParsedHalf {
            correct: matches!(v.get("correct")?, Json::Bool(true)),
            failed: v.get("failed")?.as_u64()?,
            metrics: metrics
                .iter()
                .filter_map(|(name, m)| {
                    let exact = matches!(m.get("exact"), Some(Json::Bool(true)));
                    Some((name.clone(), (m.get("value")?.as_f64()?, exact)))
                })
                .collect(),
        })
    }
}
