//! Streaming run reports: per-batch latencies, window-output digests,
//! and the regret comparison across re-tagging policies.

use mheap::Fnv;
use panthera::RunReport;
use sparklet::ActionResult;

/// Fold one payload into the digest, structurally.
fn digest_payload(h: &mut Fnv, p: &mheap::Payload) {
    use mheap::Payload::*;
    match p {
        Unit => h.write_u64(0),
        Long(v) => {
            h.write_u64(1);
            h.write_u64(*v as u64);
        }
        Double(v) => {
            h.write_u64(2);
            h.write_u64(v.to_bits());
        }
        Text { sym, len } => {
            h.write_u64(3);
            h.write_u64(*sym);
            h.write_u64(u64::from(*len));
        }
        Pair(p) => {
            h.write_u64(4);
            digest_payload(h, &p.0);
            digest_payload(h, &p.1);
        }
        Longs(vs) => {
            h.write_u64(5);
            for v in vs.iter() {
                h.write_u64(*v as u64);
            }
        }
        other => {
            // Remaining shapes (float vectors, ...) never appear in the
            // stream pipeline; hash their debug form so nothing is silent.
            h.write_u64(6);
            h.write(format!("{other:?}").as_bytes());
        }
    }
}

/// A deterministic 64-bit digest of one action result.
pub fn digest_result(r: &ActionResult) -> u64 {
    let mut h = Fnv::new();
    match r {
        ActionResult::Count(n) => {
            h.write_u64(10);
            h.write_u64(*n);
        }
        ActionResult::Collected(vs) => {
            h.write_u64(11);
            for v in vs {
                digest_payload(&mut h, v);
            }
        }
        ActionResult::Reduced(v) => {
            h.write_u64(12);
            if let Some(v) = v {
                digest_payload(&mut h, v);
            }
        }
    }
    h.finish()
}

/// Everything one streaming run produced: per-batch latencies, the
/// policy's re-tag activity, and digests of every action result.
///
/// With a fixed [`crate::StreamSpec`] seed the report is **bit-identical**
/// across host-thread budgets and across crash/replay runs — the
/// simulated clock is the only clock in here.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Workload name from the spec.
    pub workload: String,
    /// Policy label (`"static"`, `"online"`, `"oracle"`).
    pub policy: String,
    /// Batches driven.
    pub batches: u32,
    /// Virtual latency of each batch, in nanoseconds: barrier-to-barrier
    /// mutator + GC time, excluding the inter-batch policy work.
    pub batch_latency_ns: Vec<f64>,
    /// Total virtual time of the run, including inter-batch re-tag
    /// migrations — the quantity regret is computed on.
    pub elapsed_ns: f64,
    /// Watermarks emitted.
    pub watermarks: u32,
    /// Re-tag decisions the policy applied.
    pub retags: u32,
    /// RDD arrays the collector migrated across devices.
    pub migrations: u64,
    /// Fraction of device traffic served by DRAM (the DRAM hit ratio).
    pub dram_byte_frac: f64,
    /// `(action variable, digest)` for every action, in program order.
    /// Counts digest their value; collects digest their full contents.
    pub outputs: Vec<(String, u64)>,
    /// Digest over all `outputs` — the one-word answer identity.
    pub outputs_digest: u64,
    /// The underlying end-of-run report.
    pub run: RunReport,
}

impl StreamReport {
    /// The q-quantile (0..=1) of the per-batch latencies, by nearest rank
    /// ([`obs::nearest_rank`]; not the rounded rank of `obs::PauseStats`).
    pub fn latency_quantile_ns(&self, q: f64) -> f64 {
        obs::nearest_rank(&mut self.batch_latency_ns.clone(), q)
    }

    /// Digests of the window aggregation outputs only (names starting
    /// with `win`), in emission order.
    pub fn window_outputs(&self) -> Vec<(String, u64)> {
        self.outputs
            .iter()
            .filter(|(name, _)| name.starts_with("win"))
            .cloned()
            .collect()
    }

    /// Deterministic JSON for files and cross-run comparison.
    pub fn to_json(&self) -> obs::Json {
        use obs::Json;
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("policy", Json::Str(self.policy.clone())),
            ("batches", Json::UInt(u64::from(self.batches))),
            ("elapsed_ns", Json::Num(self.elapsed_ns)),
            (
                "latency_ns",
                Json::obj(vec![
                    ("p50", Json::Num(self.latency_quantile_ns(0.50))),
                    ("p90", Json::Num(self.latency_quantile_ns(0.90))),
                    ("p99", Json::Num(self.latency_quantile_ns(0.99))),
                ]),
            ),
            (
                "batch_latency_ns",
                Json::Arr(
                    self.batch_latency_ns
                        .iter()
                        .map(|l| Json::Num(*l))
                        .collect(),
                ),
            ),
            ("watermarks", Json::UInt(u64::from(self.watermarks))),
            ("retags", Json::UInt(u64::from(self.retags))),
            ("migrations", Json::UInt(self.migrations)),
            ("dram_byte_frac", Json::Num(self.dram_byte_frac)),
            (
                "outputs",
                Json::Obj(
                    self.outputs
                        .iter()
                        .map(|(name, digest)| (name.clone(), Json::UInt(*digest)))
                        .collect(),
                ),
            ),
            ("outputs_digest", Json::UInt(self.outputs_digest)),
            ("run", self.run.to_json()),
        ])
    }
}

/// The three policies run over the same spec, for regret analysis.
///
/// Regret is each policy's total virtual time minus the oracle's — the
/// cost of not knowing the future. The oracle re-tags with perfect
/// foresight (a two-pass replay), so it lower-bounds what any re-tagging
/// policy can achieve on this stream; `online` closing most of the
/// static policy's regret is the tentpole claim of DESIGN.md §14.
#[derive(Debug, Clone)]
pub struct StreamComparison {
    /// Static tags only (the analysis prior, never revised).
    pub static_run: StreamReport,
    /// Online re-tagging from observed per-batch access deltas.
    pub online: StreamReport,
    /// Perfect-foresight re-tagging from a recorded first pass.
    pub oracle: StreamReport,
}

impl StreamComparison {
    /// The static policy's regret over the oracle, in nanoseconds.
    pub fn static_regret_ns(&self) -> f64 {
        self.static_run.elapsed_ns - self.oracle.elapsed_ns
    }

    /// The online policy's regret over the oracle, in nanoseconds.
    pub fn online_regret_ns(&self) -> f64 {
        self.online.elapsed_ns - self.oracle.elapsed_ns
    }

    /// Whether all three policies produced byte-identical action outputs
    /// — the policy transparency invariant (placement moves bytes, never
    /// answers).
    pub fn outputs_identical(&self) -> bool {
        self.static_run.outputs == self.online.outputs
            && self.static_run.outputs == self.oracle.outputs
    }

    /// Deterministic JSON: the three reports plus the regret summary.
    pub fn to_json(&self) -> obs::Json {
        use obs::Json;
        Json::obj(vec![
            ("static", self.static_run.to_json()),
            ("online", self.online.to_json()),
            ("oracle", self.oracle.to_json()),
            (
                "regret_ns",
                Json::obj(vec![
                    ("static", Json::Num(self.static_regret_ns())),
                    ("online", Json::Num(self.online_regret_ns())),
                ]),
            ),
            ("outputs_identical", Json::Bool(self.outputs_identical())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mheap::Payload;

    #[test]
    fn digests_distinguish_results() {
        let a = digest_result(&ActionResult::Count(3));
        let b = digest_result(&ActionResult::Count(4));
        assert_ne!(a, b);
        let c = digest_result(&ActionResult::Collected(vec![Payload::keyed(
            1,
            Payload::Long(2),
        )]));
        let d = digest_result(&ActionResult::Collected(vec![Payload::keyed(
            1,
            Payload::Long(3),
        )]));
        assert_ne!(c, d);
        assert_eq!(
            c,
            digest_result(&ActionResult::Collected(vec![Payload::keyed(
                1,
                Payload::Long(2),
            )]))
        );
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v = [4.0, 2.0, 1.0, 3.0];
        assert_eq!(obs::nearest_rank(&mut v, 0.5), 2.0);
        assert_eq!(obs::nearest_rank(&mut v, 0.99), 4.0);
        assert_eq!(obs::nearest_rank(&mut v, 0.0), 1.0);
        assert_eq!(obs::nearest_rank(&mut [], 0.5), 0.0);
    }
}
