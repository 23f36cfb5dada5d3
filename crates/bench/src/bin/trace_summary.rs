//! trace_summary: replay a JSONL event trace (any [`obs::JsonlSink`]
//! output) through the metrics aggregator and print the derived
//! aggregates — pause histograms, per-stage NVM-write ratios, migration
//! churn — followed by the full aggregate JSON.
//!
//! ```sh
//! cargo run -p panthera-bench --bin trace_summary -- --record trace.jsonl
//! cargo run -p panthera-bench --bin trace_summary -- trace.jsonl
//! ```
//!
//! `--record PATH` first writes the trace it then summarises: PageRank
//! under Panthera on a heap tight enough to force dynamic migration.
//!
//! Exits non-zero if the file is missing, malformed, or contains no
//! events, so CI can use it as a trace-integrity check.

use obs::{replay_path, JsonlSink, MetricsAggregator, Observer};
use panthera::{MemoryMode, RunBuilder, SystemConfig, SIM_GB};
use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use workloads::{build_workload, WorkloadId};

/// The recorded run: PageRank at scale 0.2 on 8 GB — the configuration the
/// observability tests pin down — with a JSONL sink attached. Events
/// observe, never charge, so the run's simulated results are identical to
/// an untraced run of the same config.
fn record(path: &str) {
    let jsonl = match JsonlSink::create(Path::new(path)) {
        Ok(sink) => Rc::new(RefCell::new(sink)),
        Err(e) => {
            eprintln!("trace_summary: cannot create {path}: {e}");
            std::process::exit(1);
        }
    };
    let w = build_workload(WorkloadId::Pr, 0.2, 3);
    let mut cfg = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
    cfg.observer = Observer::with_sink(jsonl.clone());
    let report = RunBuilder::new(&w.program, w.fns, w.data)
        .config(cfg)
        .run()
        .unwrap_or_else(|e| panic!("trace config invalid: {e}"))
        .report;
    jsonl.borrow_mut().flush().expect("flush trace");
    assert!(
        report.gc.rdds_migrated >= 1,
        "the recorded run must exercise dynamic migration"
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = match (args.next(), args.next(), args.next()) {
        (Some(flag), Some(path), None) if flag == "--record" => {
            record(&path);
            path
        }
        (Some(path), None, None) if path != "--record" => path,
        _ => {
            eprintln!("usage: trace_summary [--record] TRACE.jsonl");
            std::process::exit(2);
        }
    };

    let mut metrics = MetricsAggregator::new();
    let n = match replay_path(Path::new(&path), &mut metrics) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("trace_summary: {path}: {e}");
            std::process::exit(1);
        }
    };
    if n == 0 {
        eprintln!("trace_summary: {path}: trace is empty");
        std::process::exit(1);
    }

    println!("{path}: {n} events");
    print!("{}", metrics.summary_table());
    println!();
    println!("{}", metrics.to_json().to_pretty());
}
