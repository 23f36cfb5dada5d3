//! `benchmark compare A.json B.json`: hold one results file (B, the
//! change) against another (A, the parent), one row per metric and
//! workload, each workload in its own rows.
//!
//! * Virtual-clock metrics and counters repeat exactly for one seed, so
//!   they are compared exactly. A simulated end-to-end metric that got
//!   worse by more than [`SIM_TOLERANCE`] is a regression; any other
//!   difference is reported as `changed`. Counters are counts, never
//!   speed-ups.
//! * Host end-to-end metrics are compared against their fixed bound,
//!   using the spread between the repeats each file holds
//!   (`run.sh --repeat N`): a row whose spread exceeds its bound is
//!   `unresolved`, not `unchanged`, unless every run of B reads better
//!   than every run of A; a change beyond the bound is called only when
//!   the two files' runs do not overlap. With one repeat per file no
//!   spread is known and nothing outside the bound can be called either
//!   way.
//! * Host per-layer metrics carry no bound; their change is shown.

use crate::names::{self, Clock, MetricName};
use crate::record::Record;
use crate::stats::summarize;
use obs::Json;
use std::collections::BTreeMap;
use std::io::Write;

/// How far a simulated end-to-end metric may worsen, same seed on both
/// sides, before it is a regression (the issue's 0.1 %).
pub const SIM_TOLERANCE: f64 = 0.001;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Identical,
    /// Exact metric differs; not (or not boundedly) worse.
    Changed,
    /// One side's repeats disagree on a value that must repeat exactly.
    Nondeterministic,
    Unchanged,
    Improved,
    Unresolved,
    Regression,
    /// Host per-layer metric: no bound, change shown only.
    Shown,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Identical => "identical",
            Verdict::Changed => "changed",
            Verdict::Nondeterministic => "NONDETERMINISTIC",
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
            Verdict::Shown => "-",
        }
    }

    pub fn fails(self) -> bool {
        matches!(self, Verdict::Regression | Verdict::Nondeterministic)
    }
}

/// How much worse B's median is than A's, as a share of A's (negative
/// when better), in the metric's own direction.
fn worsening(m: &MetricName, a: f64, b: f64) -> f64 {
    let rel = if a == 0.0 {
        if b == a {
            0.0
        } else {
            f64::INFINITY.copysign(b - a)
        }
    } else {
        (b - a) / a.abs()
    };
    if m.higher_is_better {
        -rel
    } else {
        rel
    }
}

pub fn verdict(m: &MetricName, a: &[f64], b: &[f64]) -> Verdict {
    let (sa, sb) = (summarize(a), summarize(b));
    let worse = worsening(m, sa.median, sb.median);
    if m.clock != Clock::Host {
        let exact = |v: &[f64]| v.iter().all(|x| x.to_bits() == v[0].to_bits());
        return if !exact(a) || !exact(b) {
            Verdict::Nondeterministic
        } else if a[0].to_bits() == b[0].to_bits() {
            Verdict::Identical
        } else if m.bound > 0.0 && worse > SIM_TOLERANCE {
            Verdict::Regression
        } else {
            Verdict::Changed
        };
    }
    if m.bound == 0.0 {
        return Verdict::Shown;
    }
    let repeated = sa.n >= 2 && sb.n >= 2;
    let resolved = repeated && sa.spread().max(sb.spread()) <= m.bound;
    // Every run of B on one side of every run of A.
    let (b_all_better, b_all_worse) = if m.higher_is_better {
        (sb.min > sa.max, sb.max < sa.min)
    } else {
        (sb.max < sa.min, sb.min > sa.max)
    };
    if worse > m.bound {
        // On a box whose speed wanders, three repeats can sit within the
        // bound of each other and still overlap the other side's: a
        // regression is called only when the runs also separate.
        if resolved && b_all_worse {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse < -m.bound {
        if (resolved || repeated) && b_all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if resolved || sa.n < 2 || sb.n < 2 {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    }
}

/// One results file: each metric's values across the file's repeats.
pub struct Side {
    pub seeds: Vec<u64>,
    pub failed: u64,
    /// `(workload, metric)` → one value per repeat.
    pub values: BTreeMap<(String, String), Vec<f64>>,
}

pub fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let records = json
        .get("records")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no `records` list (is this a run.sh results file?)"))?;
    let mut side = Side {
        seeds: Vec::new(),
        failed: 0,
        values: BTreeMap::new(),
    };
    for r in records {
        let r = Record::from_json(r).map_err(|e| format!("{path}: {e}"))?;
        if !side.seeds.contains(&r.seed) {
            side.seeds.push(r.seed);
        }
        side.failed += r.failed;
        for (metric, v) in r.metrics {
            side.values
                .entry((r.workload.clone(), metric))
                .or_default()
                .push(v);
        }
    }
    Ok(side)
}

/// Print the comparison; returns how many rows fail it.
pub fn compare(a: &Side, b: &Side, out: &mut dyn Write) -> std::io::Result<usize> {
    let mut failing = 0;
    if a.seeds != b.seeds {
        writeln!(
            out,
            "seeds differ (A {:?}, B {:?}): simulated values cannot be compared exactly",
            a.seeds, b.seeds
        )?;
        failing += 1;
    }
    if b.failed > 0 {
        writeln!(out, "B has {} failed operations", b.failed)?;
        failing += 1;
    }
    writeln!(
        out,
        "{:<16} {:<32} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse %", "bound %", "spread%"
    )?;
    let ordered = names::WORKLOADS.iter().flat_map(|w| {
        names::END_TO_END
            .iter()
            .chain(names::PER_LAYER.iter())
            .map(move |m| (w.name, m))
    });
    for (workload, m) in ordered {
        let key = (workload.to_string(), m.name.to_string());
        let (Some(va), Some(vb)) = (a.values.get(&key), b.values.get(&key)) else {
            if a.values.contains_key(&key) != b.values.contains_key(&key) {
                writeln!(
                    out,
                    "{workload:<16} {:<32} present on one side only",
                    m.name
                )?;
                failing += 1;
            }
            continue;
        };
        let v = verdict(m, va, vb);
        let (sa, sb) = (summarize(va), summarize(vb));
        // Exact rows that agree are the expected bulk, and a host drive
        // that does not apply to the workload reads 0 on both sides.
        let inapplicable = v == Verdict::Shown && sa.max == 0.0 && sb.max == 0.0;
        if (v == Verdict::Identical && m.bound == 0.0) || inapplicable {
            continue;
        }
        failing += usize::from(v.fails());
        writeln!(
            out,
            "{workload:<16} {:<32} {:>14.6} {:>14.6} {:>9.2} {:>7} {:>7.2}  {}",
            m.name,
            sa.median,
            sb.median,
            100.0 * worsening(m, sa.median, sb.median),
            if m.bound > 0.0 && m.clock == Clock::Host {
                format!("{:.1}", 100.0 * m.bound)
            } else if m.bound > 0.0 {
                format!("{:.1}", 100.0 * SIM_TOLERANCE)
            } else {
                "-".into()
            },
            100.0 * sa.spread().max(sb.spread()),
            v.label()
        )?;
    }
    writeln!(
        out,
        "(not listed: identical counters and per-layer virtual-clock rows, host rows that read 0)"
    )?;
    Ok(failing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(name: &str) -> &'static MetricName {
        names::metric(name).unwrap()
    }

    #[test]
    fn exact_metrics_compare_by_bits() {
        let sim = m("sim_elapsed_s");
        assert_eq!(verdict(sim, &[0.5, 0.5], &[0.5, 0.5]), Verdict::Identical);
        assert_eq!(verdict(sim, &[0.5], &[0.5004]), Verdict::Changed);
        assert_eq!(verdict(sim, &[0.5], &[0.501]), Verdict::Regression);
        assert_eq!(verdict(sim, &[0.5], &[0.4]), Verdict::Changed);
        assert_eq!(
            verdict(sim, &[0.5, 0.6], &[0.5, 0.5]),
            Verdict::Nondeterministic
        );
        // A counter never regresses; it is identical or changed.
        let count = m("gc.minor_count");
        assert_eq!(verdict(count, &[30.0], &[31.0]), Verdict::Changed);
        assert_eq!(verdict(count, &[30.0], &[30.0]), Verdict::Identical);
    }

    #[test]
    fn host_metrics_use_the_bound_and_the_spread() {
        let host = m("host_s"); // bound 25 %
        let tight_a = [1.00, 1.01, 0.99];
        assert_eq!(
            verdict(host, &tight_a, &[1.02, 1.00, 1.01]),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(host, &tight_a, &[1.40, 1.41, 1.39]),
            Verdict::Regression
        );
        assert_eq!(
            verdict(host, &tight_a, &[0.60, 0.61, 0.59]),
            Verdict::Improved
        );
        // Spread wider than the bound: unresolved, not unchanged ...
        let noisy = [0.7, 1.0, 1.4];
        assert_eq!(
            verdict(host, &noisy, &[1.0, 0.75, 1.35]),
            Verdict::Unresolved
        );
        assert_eq!(verdict(host, &noisy, &[1.2, 1.5, 1.9]), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(verdict(host, &noisy, &[0.5, 0.6, 0.65]), Verdict::Improved);
    }

    #[test]
    fn one_repeat_per_side_cannot_call_a_change() {
        let host = m("host_s");
        assert_eq!(verdict(host, &[1.0], &[1.05]), Verdict::Unchanged);
        assert_eq!(verdict(host, &[1.0], &[1.5]), Verdict::Unresolved);
        assert_eq!(verdict(host, &[1.0], &[0.5]), Verdict::Unresolved);
    }

    #[test]
    fn per_layer_host_metrics_are_shown_only_and_direction_is_respected() {
        assert_eq!(
            verdict(m("gc.minor_host_s"), &[1.0], &[9.0]),
            Verdict::Shown
        );
        let up = m("cluster.ht_speedup");
        assert!(worsening(up, 2.0, 1.0) > 0.0);
        assert!(worsening(m("host_s"), 2.0, 1.0) < 0.0);
        assert_eq!(worsening(m("host_s"), 0.0, 0.0), 0.0);
    }
}
