//! The repository's benchmark: two clocks (host time and virtual time),
//! per-layer attribution, six named workloads. See `README.md` beside
//! this crate for the glossary and how to run, bless and compare.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one phase; the last
//!                                                           stdout line is the result object
//! benchmark [--seed N] [--repeat R] [--quick] [--out PATH]   every workload, both phases; prints
//!                                                           every metric and writes a results file
//! benchmark --bless [--workload W]                           regenerate golden answers (seed 7)
//! benchmark compare A.json B.json                            hold results B against results A
//! benchmark manifest                                         print BENCHMARK.json
//! ```
//!
//! Every workload runs in a child process (this binary re-executed with
//! `--child`), so peak memory is per workload and a panic in the program
//! under test becomes failed operations and a non-zero exit instead of a
//! lost benchmark.

mod check;
mod compare;
mod e2e;
mod layers;
mod names;
mod procstat;
mod record;
mod stats;
mod trace;
mod workload;

use check::GOLDEN_SEED;
use obs::Json;
use record::Record;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use workload::{Kind, RunOpts};

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1`; absent when every workload runs in both phases.
    trace: Option<bool>,
    quick: bool,
    repeat: usize,
    out: Option<String>,
    bless: bool,
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: GOLDEN_SEED,
        seconds: names::RUN_SECONDS as f64,
        trace: None,
        quick: false,
        repeat: 1,
        out: None,
        bless: false,
        child: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(Kind::parse(name).ok_or_else(|| {
                    let known: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload `{name}` (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                });
            }
            "--repeat" => {
                a.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if !(1..=32).contains(&a.repeat) {
                    return Err("--repeat must be in 1..=32".into());
                }
            }
            "--out" => a.out = Some(value("a path")?.to_string()),
            "--quick" => a.quick = true,
            "--bless" => a.bless = true,
            "--child" => a.child = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn paper_note(kind: Kind, rec: &Record) -> String {
    let ours = |name: &str| rec.metric(name).unwrap_or(0.0);
    let (time, energy) = (
        ours("sim_time_vs_dram_only"),
        ours("sim_energy_vs_dram_only"),
    );
    match kind.paper_ref() {
        None => format!(
            "sim_time_vs_dram_only {time:.3}, sim_energy_vs_dram_only {energy:.3}: \
             no reference — unvalidated"
        ),
        Some(p) => format!(
            "paper Fig. 4 {} — time {:.2} (ours {time:.3}, error {:+.3}), \
             energy {:.2} (ours {energy:.3}, error {:+.3}){}",
            p.program,
            p.time_vs_dram_only,
            time - p.time_vs_dram_only,
            p.energy_vs_dram_only,
            energy - p.energy_vs_dram_only,
            if p.informational {
                " — informational: the paper ran one executor"
            } else {
                ""
            }
        ),
    }
}

/// What a child process does: one workload, one phase, one record.
fn child(args: &Args) -> Record {
    let kind = args.workload.expect("the parent names the workload");
    let traced = args.trace.expect("the parent names the phase");
    let (size_name, size) = kind.size();
    let mut notes = vec![format!(
        "{size_name} = {size}, nproc {}, host_threads {}",
        workload::nproc(),
        workload::host_threads()
    )];
    let (metrics, checks, timed_runs) = if traced {
        let l = layers::layers(kind, args.seed);
        if !l.trace.host {
            notes.push(
                "executor events are buffered until the run ends: spans carry virtual time \
                 only and every host-span metric reads 0 (see the D metrics)"
                    .into(),
            );
        }
        let path = check::home()
            .join("out")
            .join(format!("trace-{}.json", kind.name()));
        let run_id = format!("{}-seed{}", kind.name(), args.seed);
        let written = std::fs::create_dir_all(path.parent().expect("out/ has a parent"))
            .and_then(|()| std::fs::write(&path, l.trace.to_json(&run_id).to_compact() + "\n"));
        notes.push(match written {
            Ok(()) => format!(
                "trace ({} spans, traced wall {:.4} s) written to {}",
                l.trace.spans.len(),
                l.traced_wall_s,
                path.display()
            ),
            Err(e) => format!("trace not written to {}: {e}", path.display()),
        });
        if l.cpu_is_wall {
            notes.push("no CPU reading in /proc/self/stat: host_cpu_s is wall time".into());
        }
        (l.metrics, l.checks, Some(l.host))
    } else {
        let e = e2e::end_to_end(kind, args.seed, args.seconds, args.quick);
        (e.metrics, e.checks, Some(e.setups))
    };
    let mut rec = Record {
        workload: kind.name().into(),
        seed: args.seed,
        traced,
        attempted: checks.attempted,
        failed: checks.failed(),
        failures: checks.failures,
        metrics: metrics
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect(),
        timed_runs,
        notes,
    };
    if !traced {
        let paper = paper_note(kind, &rec);
        rec.notes.push(paper);
    }
    rec
}

/// `--bless`: one fault-free run per workload at the golden seed; its
/// answers become `golden/<workload>.json`.
fn bless_child(kind: Kind) -> Result<String, String> {
    let out = workload::run(
        kind,
        GOLDEN_SEED,
        workload::generate(kind, GOLDEN_SEED),
        RunOpts::plain(),
    );
    let path = check::bless(kind, &out.answers).map_err(|e| e.to_string())?;
    Ok(format!(
        "{}: {} answers -> {}",
        kind.name(),
        out.answers.len(),
        path.display()
    ))
}

/// Re-execute this binary as a child for one workload, wait for it, and
/// return the last line of its standard output.
fn spawn_child(args: &Args, kind: Kind, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    // `output` waits for the child to end and reaps it.
    let output = Command::new(exe)
        .arg("--child")
        .args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "child {} (a panic in the program under test fails every operation)",
            output.status
        ));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .map(String::from)
        .ok_or_else(|| "child printed nothing".into())
}

/// One workload, one phase, in a child process; a child that dies or
/// prints no record fails all its operations.
fn spawn(args: &Args, kind: Kind, traced: bool) -> Record {
    let mut extra = vec!["--trace", if traced { "1" } else { "0" }];
    if args.quick {
        extra.push("--quick");
    }
    spawn_child(args, kind, &extra)
        .and_then(|line| Json::parse(&line).and_then(|j| Record::from_json(&j)))
        .unwrap_or_else(|why| Record::lost(kind.name(), args.seed, traced, why))
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn results_json(args: &Args, records: &[Record]) -> Json {
    let sizes = Kind::ALL
        .iter()
        .map(|k| {
            let (name, value) = k.size();
            (k.name(), Json::obj(vec![(name, Json::Num(value))]))
        })
        .collect();
    let bounds = names::END_TO_END
        .iter()
        .map(|m| (m.name, Json::Num(m.bound)))
        .collect();
    // Spread of each end-to-end metric across this file's repeats, as
    // the share of the median the driver computes.
    let mut spreads = Vec::new();
    if args.repeat >= 2 {
        for w in &names::WORKLOADS {
            let per_metric = names::END_TO_END
                .iter()
                .map(|m| {
                    let values: Vec<f64> = records
                        .iter()
                        .filter(|r| r.workload == w.name && !r.traced)
                        .filter_map(|r| r.metric(m.name))
                        .collect();
                    (m.name, Json::Num(stats::summarize(&values).spread()))
                })
                .collect();
            spreads.push((w.name, Json::obj(per_metric)));
        }
    }
    Json::obj(vec![
        (
            "env",
            Json::obj(vec![
                ("seed", Json::UInt(args.seed)),
                ("repeat", Json::UInt(args.repeat as u64)),
                ("quick", Json::Bool(args.quick)),
                ("seconds_per_run", Json::Num(args.seconds)),
                ("nproc", Json::UInt(workload::nproc() as u64)),
                ("host_threads", Json::UInt(workload::host_threads() as u64)),
                ("rustc", Json::Str(rustc_version())),
                ("size_constants", Json::obj(sizes)),
                ("bounds", Json::obj(bounds)),
            ]),
        ),
        ("observed_spread", Json::obj(spreads)),
        (
            "records",
            Json::Arr(records.iter().map(Record::to_json).collect()),
        ),
    ])
}

/// One object per line inside `records`, so the file stays diffable
/// without being a megabyte of indentation.
fn render_results(j: &Json) -> String {
    let Json::Obj(top) = j else {
        return j.to_compact();
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in top.iter().enumerate() {
        out.push_str(&format!("{}: ", Json::Str(key.clone()).to_compact()));
        match (key.as_str(), value) {
            ("records", Json::Arr(items)) => {
                out.push_str("[\n");
                for (k, item) in items.iter().enumerate() {
                    out.push_str(&item.to_compact());
                    out.push_str(if k + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push(']');
            }
            _ => out.push_str(&value.to_pretty()),
        }
        out.push_str(if i + 1 < top.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

fn run_all(args: &Args) -> ExitCode {
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let stdout = std::io::stdout();
    let mut records = Vec::new();
    for repeat in 0..args.repeat {
        for &kind in &kinds {
            for traced in [false, true] {
                let rec = spawn(args, kind, traced);
                if args.repeat > 1 {
                    println!("-- repeat {} of {} --", repeat + 1, args.repeat);
                }
                rec.print(&mut stdout.lock()).expect("stdout is writable");
                records.push(rec);
            }
        }
    }
    let failed: u64 = records.iter().map(|r| r.failed).sum();
    let attempted: u64 = records.iter().map(|r| r.attempted).sum();
    println!(
        "error_rate {:.6} ({failed} failed of {attempted} attempted) over {} workloads",
        failed as f64 / attempted.max(1) as f64,
        kinds.len()
    );
    // `--quick` is a smoke run: one set-up per workload, nothing kept.
    if !args.quick || args.out.is_some() {
        let path = args.out.clone().unwrap_or_else(|| {
            check::home()
                .join("out")
                .join(format!("results-seed{}.json", args.seed))
                .display()
                .to_string()
        });
        if let Some(dir) = std::path::Path::new(&path).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, render_results(&results_json(args, &records))) {
            Ok(()) => println!("results written to {path}"),
            Err(e) => {
                eprintln!("benchmark: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("manifest") => {
            println!("{}", names::manifest().to_pretty());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, a, b] = argv.as_slice() else {
                eprintln!("usage: benchmark compare A.json B.json");
                return ExitCode::from(2);
            };
            return match (compare::load(a), compare::load(b)) {
                (Ok(a), Ok(b)) => {
                    let failing = compare::compare(&a, &b, &mut std::io::stdout().lock())
                        .expect("stdout is writable");
                    if failing == 0 {
                        println!("no regression");
                        ExitCode::SUCCESS
                    } else {
                        println!("{failing} failing row(s)");
                        ExitCode::FAILURE
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("benchmark compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        let kind = args.workload.expect("the parent names the workload");
        if args.bless {
            return match bless_child(kind) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("benchmark --bless: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        println!("{}", child(&args).to_json().to_compact());
        return ExitCode::SUCCESS;
    }
    if args.bless {
        let mut code = ExitCode::SUCCESS;
        for kind in args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]) {
            match spawn_child(&args, kind, &["--bless"]) {
                Ok(line) => println!("{line}"),
                Err(why) => {
                    eprintln!("benchmark --bless: {}: {why}", kind.name());
                    code = ExitCode::FAILURE;
                }
            }
        }
        return code;
    }
    // One workload and one phase, as the driver asks: the record for
    // people first, the result object as the last line.
    if let (Some(kind), Some(traced)) = (args.workload, args.trace) {
        let rec = spawn(&args, kind, traced);
        let mut out = std::io::stdout().lock();
        rec.print(&mut out).expect("stdout is writable");
        writeln!(out, "{}", rec.result_line()).expect("stdout is writable");
        return if rec.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    run_all(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_args(&argv("--workload ml_scan --seed 11 --seconds 14 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Kind::MlScan));
        assert_eq!((a.seed, a.seconds, a.trace), (11, 14.0, Some(true)));
        assert!(!a.quick && !a.child && !a.bless);
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.seed, d.repeat, d.workload), (GOLDEN_SEED, 1, None));
        assert_eq!(d.trace, None);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--repeat 0",
            "--frobnicate",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn results_render_as_json_with_one_record_per_line() {
        let args = parse_args(&[]).unwrap();
        let rec = Record::lost("ml_scan", 7, false, "x".into());
        let text = render_results(&results_json(&args, &[rec.clone(), rec]));
        let back = Json::parse(&text).expect("rendered results parse");
        assert_eq!(back.get("records").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            back.get("env").unwrap().get("seed").unwrap().as_u64(),
            Some(7)
        );
        assert!(text.lines().count() > 10);
    }
}
