#![deny(missing_docs)]

//! The seven Spark workloads of the paper's evaluation (Table 4),
//! expressed as [`sparklang`] programs over synthetic datasets.
//!
//! | Id | Program | Paper dataset | Our substitute |
//! |----|---------|---------------|----------------|
//! | PR | PageRank | Wikipedia German dump, 1.2 GB | power-law web graph |
//! | KM | K-Means | Wikipedia English dump, 5.7 GB | clustered points |
//! | LR | Logistic Regression | Wikipedia English dump, 5.7 GB | labeled points |
//! | TC | Transitive Closure | Notre Dame web graph, 21 MB | small power-law graph |
//! | CC | GraphX Connected Components | Wikipedia English dump | symmetric power-law graph |
//! | SSSP | GraphX Shortest Paths | Wikipedia English dump | weighted power-law graph |
//! | BC | MLlib Naive Bayes | KDD 2012, 10.1 GB | labeled sparse documents |
//!
//! Dataset sizes are scaled ~1000x down to match the simulator's
//! 1 simulated-MB-per-paper-GB convention (see `panthera::SIM_GB`); the
//! `scale` knob of [`build_workload`] shrinks or grows them further.
//!
//! ```
//! use workloads::{build_workload, WorkloadId};
//! use panthera::{MemoryMode, RunBuilder, SystemConfig, SIM_GB};
//!
//! let w = build_workload(WorkloadId::Tc, 0.3, 42);
//! let config = SystemConfig::new(MemoryMode::Panthera, 4 * SIM_GB, 1.0 / 3.0);
//! let run = RunBuilder::new(&w.program, w.fns, w.data)
//!     .config(config)
//!     .run()
//!     .expect("valid configuration");
//! assert!(!run.results.is_empty());
//! assert!(run.report.elapsed_s > 0.0);
//! ```

mod bayes;
mod data;
mod graphx;
mod hashjoin;
mod kmeans;
mod logreg;
mod pagerank;
mod transitive_closure;
mod wordcount;

pub use bayes::naive_bayes;
pub use data::{
    clustered_points, labeled_documents, labeled_points, power_law_edges, power_law_edges_text,
    symmetric_edges, weighted_edges,
};
pub use graphx::{connected_components, sssp};
pub use hashjoin::{hashjoin_input, run_hashjoin, HashJoinInput, HashJoinOutcome};
pub use kmeans::kmeans;
pub use logreg::logistic_regression;
pub use pagerank::pagerank;
pub use transitive_closure::transitive_closure;
pub use wordcount::wordcount;

use sparklang::{FnTable, Program};
use sparklet::DataRegistry;

/// A program plus everything needed to run it.
#[derive(Debug)]
pub struct BuiltWorkload {
    /// The driver program.
    pub program: Program,
    /// Its user closures.
    pub fns: FnTable,
    /// Its input datasets, each generated on its first read — except
    /// K-Means' points, which its initial centres are read from.
    pub data: DataRegistry,
}

/// The seven evaluation workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadId {
    /// PageRank.
    Pr,
    /// K-Means.
    Km,
    /// Logistic Regression.
    Lr,
    /// Transitive Closure.
    Tc,
    /// GraphX Connected Components.
    Cc,
    /// GraphX Single-Source Shortest Paths.
    Sssp,
    /// MLlib Naive Bayes Classifiers.
    Bc,
}

impl WorkloadId {
    /// All workloads in Table 4 order.
    pub const ALL: [WorkloadId; 7] = [
        WorkloadId::Pr,
        WorkloadId::Km,
        WorkloadId::Lr,
        WorkloadId::Tc,
        WorkloadId::Cc,
        WorkloadId::Sssp,
        WorkloadId::Bc,
    ];

    /// The paper's abbreviation.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Pr => "PR",
            WorkloadId::Km => "KM",
            WorkloadId::Lr => "LR",
            WorkloadId::Tc => "TC",
            WorkloadId::Cc => "GraphX-CC",
            WorkloadId::Sssp => "GraphX-SSSP",
            WorkloadId::Bc => "MLlib-BC",
        }
    }

    /// The paper's dataset description (Table 4).
    pub fn paper_dataset(self) -> &'static str {
        match self {
            WorkloadId::Pr => "Wikipedia Full Dump, German (1.2GB)",
            WorkloadId::Km | WorkloadId::Lr | WorkloadId::Cc | WorkloadId::Sssp => {
                "Wikipedia Full Dump, English (5.7GB)"
            }
            WorkloadId::Tc => "Notre Dame Webgraph (21MB)",
            WorkloadId::Bc => "KDD 2012 (10.1GB)",
        }
    }

    /// Parse an abbreviation (case-insensitive).
    pub fn parse(s: &str) -> Option<WorkloadId> {
        match s.to_ascii_uppercase().as_str() {
            "PR" => Some(WorkloadId::Pr),
            "KM" => Some(WorkloadId::Km),
            "LR" => Some(WorkloadId::Lr),
            "TC" => Some(WorkloadId::Tc),
            "CC" | "GRAPHX-CC" => Some(WorkloadId::Cc),
            "SSSP" | "GRAPHX-SSSP" => Some(WorkloadId::Sssp),
            "BC" | "MLLIB-BC" => Some(WorkloadId::Bc),
            _ => None,
        }
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Build a workload at `scale` (1.0 = the default scaled-down sizes;
/// smaller values shrink the datasets proportionally, for quick runs).
pub fn build_workload(id: WorkloadId, scale: f64, seed: u64) -> BuiltWorkload {
    assert!(scale > 0.0, "scale must be positive");
    let s = |n: usize| ((n as f64 * scale) as usize).max(8);
    match id {
        WorkloadId::Pr => pagerank(s(4_500), s(24_000), 8, seed),
        WorkloadId::Km => kmeans(s(12_000), 8, 8, 8, seed),
        WorkloadId::Lr => logistic_regression(s(12_000), 8, 8, seed),
        WorkloadId::Tc => transitive_closure(s(160).min(320), s(640), 3, seed),
        WorkloadId::Cc => connected_components(s(4_000), s(14_000), 8, seed),
        WorkloadId::Sssp => sssp(s(4_000), s(14_000), 8, seed),
        WorkloadId::Bc => naive_bayes(s(6_000), 800, 4, 12, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build() {
        for id in WorkloadId::ALL {
            let w = build_workload(id, 0.05, 1);
            assert!(!w.program.stmts.is_empty(), "{id}");
            assert!(w.program.n_vars() > 0, "{id}");
        }
    }

    #[test]
    fn parse_roundtrip() {
        for id in WorkloadId::ALL {
            assert_eq!(WorkloadId::parse(id.name()), Some(id));
        }
        assert_eq!(WorkloadId::parse("nope"), None);
    }
}
