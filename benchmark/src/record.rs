//! What one child process reports, and how it is printed.

use crate::names::{self, Clock};
use crate::stats::Summary;
use obs::Json;

/// The outcome of one workload in one phase (`--trace 0` or `1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    /// The timed samples behind `setup_s` (end-to-end phase) or `host_s`
    /// (per-layer phase).
    pub timed_runs: Option<Summary>,
    /// Context a reader needs beside the numbers.
    pub notes: Vec<String>,
}

fn summary_json(s: &Summary) -> Json {
    Json::obj(vec![
        ("n", Json::UInt(s.n as u64)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
    ])
}

fn summary_from(j: &Json) -> Option<Summary> {
    let f = |k: &str| j.get(k).and_then(Json::as_f64);
    Some(Summary {
        n: j.get("n")?.as_u64()? as usize,
        min: f("min")?,
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        max: f("max")?,
    })
}

fn strings(items: &[String]) -> Json {
    Json::Arr(items.iter().cloned().map(Json::Str).collect())
}

impl Record {
    /// A record for a child that died or printed nothing usable: every
    /// operation it would have made failed.
    pub fn lost(workload: &str, seed: u64, traced: bool, why: String) -> Record {
        Record {
            workload: workload.into(),
            seed,
            traced,
            attempted: 1,
            failed: 1,
            failures: vec![why],
            metrics: Vec::new(),
            timed_runs: None,
            notes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, value)| {
                    let unit = names::metric(name).map_or("", |m| m.unit);
                    (
                        name.clone(),
                        Json::obj(vec![
                            // A value that is no number fails a check in
                            // the child; 0 keeps the line valid JSON.
                            (
                                "value",
                                Json::Num(if value.is_finite() { *value } else { 0.0 }),
                            ),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The one line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", self.metrics_json()),
        ])
        .to_compact()
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::UInt(self.seed)),
            ("trace", Json::UInt(u64::from(self.traced))),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("failures", strings(&self.failures)),
            ("metrics", self.metrics_json()),
            (
                "timed_runs",
                self.timed_runs.as_ref().map_or(Json::Null, summary_json),
            ),
            ("notes", strings(&self.notes)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Record, String> {
        let need = |k: &str| j.get(k).ok_or_else(|| format!("record lacks `{k}`"));
        let text_list = |k: &str| -> Result<Vec<String>, String> {
            Ok(need(k)?
                .as_array()
                .ok_or_else(|| format!("`{k}` is not a list"))?
                .iter()
                .filter_map(|s| s.as_str().map(String::from))
                .collect())
        };
        let Json::Obj(metrics) = need("metrics")? else {
            return Err("`metrics` is not an object".into());
        };
        Ok(Record {
            workload: need("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .into(),
            seed: need("seed")?.as_u64().ok_or("`seed` is not a number")?,
            traced: need("trace")?.as_u64() == Some(1),
            attempted: need("attempted")?.as_u64().ok_or("`attempted`")?,
            failed: need("failed")?.as_u64().ok_or("`failed`")?,
            failures: text_list("failures")?,
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    m.get("value")
                        .and_then(Json::as_f64)
                        .map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("metric `{name}` has no numeric value"))
                })
                .collect::<Result<_, _>>()?,
            timed_runs: j.get("timed_runs").and_then(summary_from),
            notes: text_list("notes")?,
        })
    }

    /// Every metric by name with its unit and clock, then the checks.
    pub fn print(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        writeln!(
            out,
            "== {} · seed {} · {} ==",
            self.workload,
            self.seed,
            if self.traced {
                "per-layer (traced run, counters, layer drives)"
            } else {
                "end-to-end (tracing off)"
            }
        )?;
        for (name, value) in &self.metrics {
            let (unit, clock) =
                names::metric(name).map_or(("", Clock::Host), |m| (m.unit, m.clock));
            write!(
                out,
                "  {name:<32} {value:>18.6} {unit:<6} [{}]",
                clock.label()
            )?;
            if name == "setup_s" || name == "host_s" {
                if let Some(s) = &self.timed_runs {
                    write!(
                        out,
                        "  n={} min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
                        s.n, s.min, s.q1, s.median, s.q3, s.max
                    )?;
                }
            }
            writeln!(out)?;
        }
        let rate = self.failed as f64 / self.attempted.max(1) as f64;
        writeln!(
            out,
            "  {:<32} {rate:>18.6} {:<6} ({} failed of {} attempted)",
            "error_rate", "", self.failed, self.attempted
        )?;
        for f in &self.failures {
            writeln!(out, "  FAILED {f}")?;
        }
        for n in &self.notes {
            writeln!(out, "  note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Record {
        Record {
            workload: "ml_scan".into(),
            seed: 7,
            traced: false,
            attempted: 9,
            failed: 0,
            failures: vec![],
            metrics: vec![("host_s".into(), 1.25), ("sim_elapsed_s".into(), 0.5)],
            timed_runs: Some(Summary {
                n: 7,
                min: 1.0,
                q1: 1.2,
                median: 1.25,
                q3: 1.3,
                max: 1.5,
            }),
            notes: vec!["host_threads 2".into()],
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let r = sample();
        let back = Record::from_json(&Json::parse(&r.to_json().to_compact()).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = sample().result_line();
        let Json::Obj(pairs) = Json::parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<_> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(!line.contains('\n'));
        let host = pairs[3].1.get("host_s").unwrap();
        assert_eq!(host.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(host.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn a_lost_child_fails_all_its_operations() {
        let r = Record::lost("graph_minor", 7, true, "panicked".into());
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (1, 1));
        assert!(r.result_line().contains("\"correct\":false"));
    }
}
