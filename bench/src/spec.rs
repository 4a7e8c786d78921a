//! The declared benchmark: `BENCHMARK.json` at the repository root,
//! compiled into the binary so `list`, `compare` and the self-checks read
//! the same names, units and bounds the acceptance driver does.

use rpq_server::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the old median by which the metric may worsen; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is compiled in and well-formed")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let array = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not an array"))
        };
        let text_of = |v: &Json, key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: entry without `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            array(key)?
                .iter()
                .map(|m| {
                    Ok(MetricSpec {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        higher_is_better: text_of(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: array("workloads")?
                .iter()
                .map(|w| Ok((text_of(w, "name")?, text_of(w, "why")?)))
                .collect::<Result<_, String>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// `list`: one line per declared metric, `name<TAB>unit`, end-to-end
    /// first, in declaration order.
    pub fn list(&self) -> String {
        let mut out = String::new();
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            out.push_str(&format!("{}\t{}\n", m.name, m.unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Kind;
    use std::collections::BTreeSet;

    /// Metric and workload names the driver accepts: `[A-Za-z0-9_.-]+`,
    /// leading letter or digit, at most 64 characters.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn declared_names_are_valid_and_unique() {
        let spec = Spec::load();
        let mut seen = BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name.clone()), "duplicate {:?}", m.name);
        }
        assert!(!valid_name("no spaces") && !valid_name("") && !valid_name(".lead"));
    }

    #[test]
    fn end_to_end_metrics_carry_bounds_and_setup_s_is_declared() {
        let spec = Spec::load();
        for m in &spec.end_to_end {
            let b = m.bound.expect("every end-to-end metric has a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn declared_workloads_are_the_ones_the_binary_runs() {
        let spec = Spec::load();
        let declared: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let built: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(declared, built);
    }
}
