//! The paper's Section 4.3 applicability story: using Panthera's two
//! public runtime APIs *directly* — without Spark or the static analysis —
//! to manage a Hadoop-style HashJoin's memory.
//!
//! The build-side table is long-lived and probed constantly: pretenure it
//! in DRAM (API 1). A second, rarely-touched archive table has an
//! unpredictable access pattern: leave it to dynamic monitoring and let
//! the major GC migrate it (API 2).
//!
//! ```sh
//! cargo run -p panthera-examples --bin hashjoin_api
//! ```

use mheap::{MemTag, RootSet, SpaceId};
use panthera::prelude::*;

fn main() {
    let config = SystemConfig::new(MemoryMode::Panthera, 8 * SIM_GB, 1.0 / 3.0);
    let mut rt = config.runtime().expect("valid config");
    let mut roots = RootSet::new();

    // --- API 1: pretenure the hash-join build side in DRAM -------------
    const BUILD_TABLE: u32 = 1;
    let build = rt.api_pretenure(&roots, BUILD_TABLE, 4_096, MemTag::Dram);
    roots.push(build);
    for key in 0..4_096i64 {
        let record = Payload::keyed(key, Payload::Long(key * 31));
        let row = rt.alloc_record(&roots, record.model_bytes());
        rt.heap_mut().push_ref(build, row);
    }
    println!(
        "build table array lives in {:?} (old-gen DRAM = {:?})",
        rt.heap().obj(build).space,
        rt.heap().old_dram().map(SpaceId::Old),
    );

    // --- API 2: monitor a structure with an unpredictable pattern ------
    const ARCHIVE: u32 = 2;
    let archive = rt.api_pretenure(&roots, ARCHIVE, 4_096, MemTag::Dram);
    roots.push(archive);

    // The probe phase hammers the build table...
    for _ in 0..32 {
        rt.api_monitor(BUILD_TABLE);
    }
    // ...while the archive is never touched. A major GC re-assesses both.
    rt.force_major(&roots);

    let build_space = rt.heap().obj(build).space;
    let archive_space = rt.heap().obj(archive).space;
    println!("after the major GC's re-assessment:");
    println!("  build table ({:>2} calls): {build_space:?}", 32);
    println!("  archive     ({:>2} calls): {archive_space:?}", 0);
    assert_eq!(build_space, SpaceId::Old(rt.heap().old_dram().unwrap()));
    assert_eq!(archive_space, SpaceId::Old(rt.heap().old_nvm().unwrap()));
    println!(
        "the hot table stayed in DRAM; the cold archive was migrated to NVM \
         with every object reachable from it."
    );
    println!();
    println!("heap after the run:");
    print!("{}", rt.heap().describe());
}
