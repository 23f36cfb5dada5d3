//! Every workload's action results, with a `collect()` of every variable
//! appended, equal the sparklang reference interpreter's: on one executor
//! run by a lone `RunBuilder::new`, and on three executors with off-heap
//! storage, region arenas and three crashes. So do a stream program's.

use panthera::cluster::{CrashPoint, FaultPlan};
use panthera::{MemoryMode, RunBuilder, RunSummary, SystemConfig, SIM_GB};
use panthera_bench::{every_transform, oracle};
use panthera_stream::{build_stream_program, StreamSpec};
use sparklang::{FnTable, Program};
use sparklet::DataRegistry;
use workloads::{build_workload, WorkloadId};

const SCALE: f64 = 0.02;
const SEED: u64 = 3;

type Build<'a> = &'a (dyn Fn() -> (Program, FnTable, DataRegistry) + Sync);

fn config() -> SystemConfig {
    SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0)
}

/// Run each of the seven workloads and the program of every transform,
/// with their appended collects, through `run`, and hold the results to
/// the oracle's.
fn every_program_equals_the_oracle(run: impl Fn(Build) -> RunSummary) {
    for pick in WorkloadId::ALL.map(Some).into_iter().chain([None]) {
        let source = move || match pick {
            Some(id) => {
                let w = build_workload(id, SCALE, SEED);
                (w.program, w.fns, w.data)
            }
            None => every_transform(64, SEED),
        };
        let (program, _) = oracle::with_collects(&source);
        let build = || {
            let (_, fns, data) = source();
            (program.clone(), fns, data)
        };
        let got = run(&build);
        let (_, fns, data) = source();
        let want = oracle::run(&program, &fns, &data);
        if let Some(diff) = oracle::first_difference(&got.results, &want) {
            panic!("{}: {diff}", program.name);
        }
    }
}

#[test]
fn lone_runs_equal_the_oracle() {
    every_program_equals_the_oracle(|build| {
        let (program, fns, data) = build();
        let run = RunBuilder::new(&program, fns, data).config(config());
        run.run().unwrap()
    });
}

#[test]
fn crashed_cluster_runs_with_offheap_and_arenas_equal_the_oracle() {
    let mut plan = FaultPlan::none();
    plan.crashes = (0..3)
        .map(|exec| CrashPoint {
            exec,
            barrier: 2 + 2 * u64::from(exec),
        })
        .collect();
    let mut cfg = config();
    (cfg.executors, cfg.offheap_cache, cfg.region_alloc) = (3, true, true);
    every_program_equals_the_oracle(|build| {
        let run = RunBuilder::from_build(build)
            .config(cfg.clone())
            .faults(&plan);
        let run = run.run().unwrap();
        assert_eq!(run.report.recovery.executor_crashes, 3, "every crash fires");
        run
    });
}

#[test]
fn a_stream_program_equals_the_oracle() {
    let stream = build_stream_program(&StreamSpec::small(SEED));
    let want = oracle::run(&stream.program, &stream.fns, &stream.data);
    let run = RunBuilder::new(&stream.program, stream.fns, stream.data)
        .config(config())
        .run()
        .unwrap();
    if let Some(diff) = oracle::first_difference(&run.results, &want) {
        panic!("stream: {diff}");
    }
}
