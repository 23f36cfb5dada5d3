//! simarms: render the deterministic simulated-result arms
//! ([`panthera_bench::simarms`]) — the paper's evaluation and the seven
//! extension arms — to stdout, or with `--out` to `DIR/<arm>.{txt,sim}`.
//!
//! ```sh
//! cargo run --release -p panthera-bench --bin simarms -- fig4     # Figure 4, full size
//! cargo run --release -p panthera-bench --bin simarms -- --quick --out /tmp/sim
//! diff -r /tmp/sim ci/golden        # what ci/sim_determinism.sh does
//! ```
//!
//! With no arm named, every arm renders. Without `--quick` the arms run at
//! evaluation size (the numbers EXPERIMENTS.md and DESIGN.md §9–§14
//! quote). Arms rendered by one invocation share their engine runs. The
//! host-thread budget is `PANTHERA_HOST_THREADS`, else the host's
//! parallelism; it cannot change an output byte (`tests/simarms.rs` pins
//! that).

use panthera::cluster::host_threads_from_env;
use panthera_bench::paperarms::Runs;
use panthera_bench::simarms::{Size, ARMS};
use std::path::PathBuf;

fn usage() -> ! {
    let names: Vec<&str> = ARMS.iter().map(|a| a.name).collect();
    eprintln!("usage: simarms [--quick] [--out DIR] [ARM...]");
    eprintln!("arms: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut size = Size::Full;
    let mut out = None;
    let mut picked = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => size = Size::Quick,
            "--out" => out = Some(args.next().map(PathBuf::from).unwrap_or_else(|| usage())),
            name => match ARMS.iter().find(|a| a.name == name) {
                Some(arm) => picked.push(arm),
                None => {
                    eprintln!("simarms: unknown argument `{name}`");
                    usage();
                }
            },
        }
    }
    if picked.is_empty() {
        picked.extend(&ARMS);
    }
    let host_threads =
        host_threads_from_env(std::thread::available_parallelism().map_or(1, usize::from));
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    let mut runs = Runs::new(size);
    for arm in picked {
        let doc = arm.render(&mut runs, host_threads);
        match &out {
            Some(dir) => {
                let path = dir.join(arm.file_name());
                std::fs::write(&path, doc)
                    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
                println!("wrote {}", path.display());
            }
            None => print!("{doc}"),
        }
    }
}
