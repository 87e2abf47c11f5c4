//! `BENCHMARK.json` as the harness reads it: the single list of metric
//! names, units, directions and regression bounds.

use crate::json::Json;

pub const SPEC_PATH: &str = "BENCHMARK.json";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen; only
    /// end-to-end metrics carry one.
    pub bound: Option<f64>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads `BENCHMARK.json` from the working directory (the checkout
    /// root).
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string(SPEC_PATH)
            .map_err(|e| format!("cannot read {SPEC_PATH}: {e}"))?;
        Spec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let json = Json::parse(text).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            json.get(key)
                .ok_or(format!("{SPEC_PATH}: no '{key}'"))?
                .as_arr()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .ok_or(format!("{SPEC_PATH}: metric without '{f}'"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        better: match field("better")? {
                            "lower" => Better::Lower,
                            "higher" => Better::Higher,
                            other => return Err(format!("{SPEC_PATH}: better='{other}'")),
                        },
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or(format!("{SPEC_PATH}: no 'run_seconds'"))?,
            workloads: json
                .get("workloads")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_contract_shape() {
        let spec = Spec::parse(
            r#"{"command": ["x"], "paths": ["benchmark"], "run_seconds": 10,
                "workloads": [{"name": "hit", "why": "w"}, {"name": "miss", "why": "w"}],
                "end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
                "per_layer": [{"name": "cache_hits", "unit": "count", "better": "higher"}]}"#,
        )
        .unwrap();
        assert_eq!(spec.run_seconds, 10.0);
        assert_eq!(spec.workloads, ["hit", "miss"]);
        assert_eq!(spec.metric("latency_ms").unwrap().bound, Some(0.1));
        assert_eq!(spec.metric("cache_hits").unwrap().better, Better::Higher);
        assert_eq!(spec.metric("cache_hits").unwrap().bound, None);
        assert!(spec.metric("nope").is_none());
    }

    #[test]
    fn rejects_a_spec_without_metrics() {
        assert!(Spec::parse(r#"{"run_seconds": 10}"#).is_err());
        assert!(Spec::parse(
            r#"{"run_seconds": 10, "end_to_end": [{"name": "a"}], "per_layer": []}"#
        )
        .is_err());
    }
}
