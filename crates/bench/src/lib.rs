//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (Section 5).
//!
//! Each `src/bin/*` binary reproduces one artifact:
//!
//! | Binary | Artifact |
//! |--------|----------|
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
//! | `ablation` | Section 5.3/5.5: eager promotion, card padding, migration |
//! | `simarms` | The seven deterministic simulated-result arms ([`simarms`]) behind `ci/golden/*.sim` |
//! | `fuzz` | Deterministic GC fuzzer: heap verifier on, differential observer/fusion/cluster checks |
//! | `trace_summary` | Record (`--record`) and summarise a JSONL event trace |
//!
//! Set `PANTHERA_SCALE` (default `1.0`) to shrink or grow every dataset of
//! the paper binaries, e.g. `PANTHERA_SCALE=0.2` for a quick pass.

pub mod simarms;

use panthera::{MemoryMode, RunBuilder, RunReport, SystemConfig, SIM_GB};
use workloads::{build_workload, WorkloadId};

/// Shared deterministic seed for all experiments.
pub const SEED: u64 = 7;

/// Dataset scale from `PANTHERA_SCALE` (default 1.0). A value that is set
/// but is not a finite number above zero ends the process with status 2:
/// falling back to 1.0 would turn a typo in a quick pass into the
/// minutes-long full evaluation.
pub fn scale() -> f64 {
    let var = std::env::var_os("PANTHERA_SCALE").map(|v| v.to_string_lossy().into_owned());
    parse_scale(var.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// The scale a `PANTHERA_SCALE` value asks for: 1.0 when unset.
pub fn parse_scale(var: Option<&str>) -> Result<f64, String> {
    let Some(text) = var else {
        return Ok(1.0);
    };
    match text.trim().parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(s),
        _ => Err(format!(
            "PANTHERA_SCALE={text:?} is not a finite number above zero"
        )),
    }
}

/// Run one workload under one mode on a heap of `heap_gb` simulated GB
/// with the given DRAM ratio.
pub fn run(id: WorkloadId, mode: MemoryMode, heap_gb: u64, dram_ratio: f64) -> RunReport {
    run_with(id, SystemConfig::new(mode, heap_gb * SIM_GB, dram_ratio))
}

/// Run one workload under an explicit configuration.
pub fn run_with(id: WorkloadId, config: SystemConfig) -> RunReport {
    let w = build_workload(id, scale(), SEED);
    RunBuilder::new(&w.program, w.fns, w.data)
        .config(config)
        .run()
        .unwrap_or_else(|e| panic!("{e}"))
        .report
}

/// The paper's main setup: 64 GB heap, 1/3 DRAM.
pub fn run_main(id: WorkloadId, mode: MemoryMode) -> RunReport {
    run(id, mode, 64, 1.0 / 3.0)
}

/// Print a standard figure header.
pub fn header(title: &str, paper: &str) {
    println!("================================================================");
    println!("{title}");
    println!("(paper reference: {paper}; scale {})", scale());
    println!("================================================================");
}

/// Format a normalized value column.
pub fn norm(x: f64) -> String {
    format!("{x:>6.2}")
}

/// If `PANTHERA_CSV_DIR` is set, append the reports to
/// `<dir>/<experiment>.csv` (with a header when the file is new) for
/// plotting pipelines. Silently does nothing otherwise.
pub fn maybe_csv(experiment: &str, reports: &[&RunReport]) {
    let Ok(dir) = std::env::var("PANTHERA_CSV_DIR") else {
        return;
    };
    let path = std::path::Path::new(&dir).join(format!("{experiment}.csv"));
    let fresh = !path.exists();
    let _ = std::fs::create_dir_all(&dir);
    let mut body = String::new();
    if fresh {
        body.push_str(RunReport::csv_header());
        body.push('\n');
    }
    for r in reports {
        body.push_str(&r.csv_row());
        body.push('\n');
    }
    use std::io::Write;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = f.write_all(body.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn parse_scale_defaults_parses_and_rejects() {
        use super::parse_scale;
        assert_eq!(parse_scale(None), Ok(1.0));
        assert_eq!(parse_scale(Some("0.2")), Ok(0.2));
        for bad in ["0,2", "abc", "-1", "0"] {
            let err = parse_scale(Some(bad)).unwrap_err();
            assert!(err.contains(bad), "{err} names the value");
        }
    }

    #[test]
    fn norm_formats_fixed_width() {
        assert_eq!(super::norm(1.0), "  1.00");
        assert_eq!(super::norm(12.345), " 12.35");
    }
}
