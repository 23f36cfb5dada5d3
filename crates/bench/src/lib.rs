//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (Section 5) and the extension results built on it.
//!
//! One binary, `simarms`, renders every arm of [`simarms::ARMS`]
//! (`simarms fig4` prints Figure 4; `simarms --quick --out DIR` writes
//! what `ci/golden/` pins):
//!
//! | Arm | Artifact |
//! |-----|----------|
//! | `fig2c` | Figure 2(c): PageRank under 120 GB DRAM vs 32 GB DRAM vs hybrid |
//! | `table1` | Table 1: allocation policies |
//! | `table2` | Table 2: device parameters |
//! | `table4` | Table 4: programs and datasets |
//! | `fig4` | Figure 4: time & energy, 7 workloads, 64 GB heap, 1/3 DRAM |
//! | `fig5` | Figure 5: computation vs GC time breakdown |
//! | `fig6` | Figure 6: time across {64,120} GB × {1/4,1/3} DRAM |
//! | `fig7` | Figure 7: energy across the same sweep |
//! | `fig8` | Figure 8: GraphX-CC bandwidth over time |
//! | `table5` | Table 5: monitored calls and migrated RDDs |
//! | `baselines` | Section 5.2: Kingsguard-N/W comparison |
//! | `nursery` | Section 5.2: nursery-size sensitivity |
//! | `ablation` | Section 5.3/5.5: eager promotion, card padding, migration |
//! | `hashjoin` | Section 4.3: API-driven HashJoin across memory modes |
//! | `nvmtech` | Extension: the headline comparison per NVM technology |
//! | `matrix` | Every workload × every memory mode on one screen |
//! | `default`, `faults_42`, `faults-anywhere_42`, `shuffle`, `regions`, `service`, `stream` | The seven extension arms behind `ci/golden/*.sim` |
//!
//! The two other binaries are `fuzz` (deterministic GC fuzzer: heap
//! verifier on, differential observer/fusion/cluster checks) and
//! `trace_summary` (record with `--record`, and summarise, a JSONL event
//! trace).

pub mod paperarms;
pub mod simarms;

/// Shared deterministic seed for all experiments.
pub const SEED: u64 = 7;

/// Format a normalized value column.
pub fn norm(x: f64) -> String {
    format!("{x:>6.2}")
}

#[cfg(test)]
mod tests {
    #[test]
    fn norm_formats_fixed_width() {
        assert_eq!(super::norm(1.0), "  1.00");
        assert_eq!(super::norm(12.345), " 12.35");
    }
}
