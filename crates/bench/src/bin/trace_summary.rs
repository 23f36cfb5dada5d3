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
//! under Panthera on a heap tight enough to force dynamic migration. It
//! then replays the file into a fresh [`JsonlSink`] and requires the
//! re-printed bytes to equal the written ones, so every change to the
//! event table is checked against ≈ 25 k real events.
//!
//! Exits non-zero if the file is missing, malformed, contains no events,
//! or (under `--record`) does not re-print identically, so CI can use it
//! as a trace-integrity check.

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
    check_reprint(path);
}

/// Parse every line of the trace at `path` and print it again; exit 1,
/// naming the first differing line, unless the bytes are identical.
fn check_reprint(path: &str) {
    let fail = |msg: String| -> ! {
        eprintln!("trace_summary: {path}: {msg}");
        std::process::exit(1);
    };
    let written = std::fs::read_to_string(path).unwrap_or_else(|e| fail(format!("read: {e}")));
    let mut sink = JsonlSink::new(Vec::new());
    replay_path(Path::new(path), &mut sink).unwrap_or_else(|e| fail(e));
    let reprinted = String::from_utf8(sink.into_inner()).expect("JSONL is UTF-8");
    if reprinted != written {
        let line = written
            .lines()
            .zip(reprinted.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| written.lines().count().min(reprinted.lines().count()));
        fail(format!("line {} does not re-print identically", line + 1));
    }
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
