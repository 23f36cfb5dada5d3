//! The cross-commit pin on simulated output: every arm's quick rendering
//! is byte-identical to its committed golden — the extension arms at 1
//! and at 4 host threads, so also across host-thread budgets; the paper's
//! experiments once (they run one executor, so no budget reaches them).
//! A change that means to move a simulated value refreshes the goldens
//! with `ci/sim_determinism.sh --bless` and commits the diff.

use panthera_bench::paperarms::Runs;
use panthera_bench::simarms::{Arm, Size, ARMS};

/// Render the arms `pick` selects and return the cache they drew from.
fn arms_match_their_goldens(pick: fn(&Arm) -> bool, host_threads: usize) -> Runs {
    let golden_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../ci/golden");
    let mut runs = Runs::new(Size::Quick);
    let mut differing = Vec::new();
    for arm in ARMS.iter().filter(|a| pick(a)) {
        let path = format!("{golden_dir}/{}", arm.file_name());
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        if arm.render(&mut runs, host_threads) != golden {
            differing.push(arm.name);
        }
    }
    assert!(
        differing.is_empty(),
        "at {host_threads} host thread(s) these arms differ from {golden_dir}: {differing:?}"
    );
    runs
}

// Separate tests, not one loop, so the harness renders them in parallel.
#[test]
fn goldens_at_1_host_thread() {
    arms_match_their_goldens(|a| !a.is_paper(), 1);
}

#[test]
fn goldens_at_4_host_threads() {
    arms_match_their_goldens(|a| !a.is_paper(), 4);
}

#[test]
fn paper_goldens() {
    let runs = arms_match_their_goldens(Arm::is_paper, 1);
    // The sixteen binaries this table replaced executed 273 engine runs;
    // the count moves only when an experiment adds a configuration or
    // two experiments stop sharing one.
    assert_eq!(runs.executed(), 119, "distinct engine runs");
}
