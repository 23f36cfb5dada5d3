//! The cross-commit pin on simulated output: every arm's quick rendering
//! is byte-identical to its committed golden — at 1 and at 4 host
//! threads, so also across host-thread budgets. A change that means to
//! move a simulated value refreshes the goldens with
//! `ci/sim_determinism.sh --bless` and commits the diff.

use panthera_bench::simarms::{Size, ARMS};

fn every_arm_matches_its_golden(host_threads: usize) {
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/golden");
    for arm in &ARMS {
        let path = format!("{golden_dir}/{}.sim", arm.name);
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let rendered = (arm.render)(Size::Quick, host_threads).to_pretty() + "\n";
        assert!(
            rendered == golden,
            "{} at {host_threads} host thread(s) differs from {path}",
            arm.name
        );
    }
}

// Two tests, not one loop, so the harness renders both budgets in parallel.
#[test]
fn goldens_at_1_host_thread() {
    every_arm_matches_its_golden(1);
}

#[test]
fn goldens_at_4_host_threads() {
    every_arm_matches_its_golden(4);
}
