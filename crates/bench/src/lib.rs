//! Shared harness for regenerating every table and figure of the paper's
//! evaluation (Section 5) and the extension results built on it.
//!
//! One binary, `simarms`, renders every arm of [`simarms::ARMS`]
//! (`simarms fig4` prints Figure 4; `simarms --quick --out DIR` writes
//! what `ci/golden/` pins):
//!
//! | Arm | Artifact |
//! |-----|----------|
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
//! | `nursery` | Section 5.2: nursery-size sensitivity |
//! | `ablation` | Section 5.3/5.5: eager promotion, card padding, migration |
//! | `hashjoin` | Section 4.3: API-driven HashJoin across memory modes |
//! | `nvmtech` | Extension: the headline comparison per NVM technology |
//! | `matrix` | Every workload × every memory mode on one screen |
//! | `default`, `faults_42`, `faults-anywhere_42`, `shuffle`, `regions`, `service`, `stream` | The seven extension arms behind `ci/golden/*.sim` |
//!
//! The two other binaries are `fuzz` (deterministic heap schedules with
//! the verifier on, and one seeded matrix of runs checked against the
//! [`oracle`]) and `trace_summary` (record with `--record`, and
//! summarise, a JSONL event trace).

use mheap::Payload;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder, StorageLevel};
use sparklet::DataRegistry;

pub mod oracle;
pub mod paperarms;
pub mod simarms;

/// Shared deterministic seed for all experiments.
pub const SEED: u64 = 7;

/// Format a normalized value column.
pub fn norm(x: f64) -> String {
    format!("{x:>6.2}")
}

/// A program that applies every transformation, action and storage
/// statement of sparklang to `n` seeded keyed records: what the seven
/// workloads leave out (`filter`, `sample`, `sortByKey`, `keys`, a flat
/// map by a map function, `reduce`, `unpersist`, `checkpoint`, and the
/// serialized, disk and off-heap levels) included.
pub fn every_transform(n: usize, seed: u64) -> (Program, FnTable, DataRegistry) {
    // A pair's value, or a scalar record, as an integer.
    fn long(p: &Payload) -> i64 {
        p.as_pair()
            .map_or(p, |(_, v)| v)
            .as_long()
            .expect("a long value")
    }
    let mut b = ProgramBuilder::new("every-transform");
    let odd = b.filter_fn(|r| long(r) % 2 != 0);
    let rekey = b.map_fn(|r| {
        let k = r
            .as_pair()
            .and_then(|(k, _)| k.as_long())
            .expect("a long key");
        Payload::keyed(k % 7, Payload::Long(long(r) + 1))
    });
    let half = b.map_fn(|v| Payload::Long(long(v) / 2));
    let add = b.reduce_fn(|a, c| Payload::Long(long(&a).wrapping_add(long(c))));
    let spread = b.flat_map_fn(|k| vec![k.clone(), Payload::Long(long(k) * 2)]);
    let inc = b.map_fn(|k| Payload::Long(long(k) + 1));

    let src = b.source("pairs");
    let x = b.bind("x", src.clone().filter(odd).map(rekey));
    let y = b.bind("y", b.var(x).map_values(half).sample(0.6, seed));
    let z = b.bind("z", b.var(y).union(src).reduce_by_key(add));
    b.persist(z, StorageLevel::MemoryOnlySer);
    let joined = b.var(z).join(b.var(x)).values();
    let w = b.bind("w", joined.distinct().sort_by_key());
    b.persist(w, StorageLevel::DiskOnly);
    b.checkpoint(w);
    let g = b.bind(
        "g",
        b.var(w)
            .group_by_key()
            .keys()
            .flat_map(spread)
            .flat_map(inc),
    );
    b.persist(g, StorageLevel::OffHeap);
    b.loop_n(2, |b| {
        let grown = b.var(z).union(b.var(x)).reduce_by_key(add);
        b.rebind(z, grown);
        b.persist(z, StorageLevel::MemoryOnly);
        b.action(z, ActionKind::Count);
    });
    b.action(w, ActionKind::Collect);
    b.action(g, ActionKind::Reduce(add));
    b.unpersist(z);
    let (program, fns) = b.finish();

    let mut rng = StdRng::seed_from_u64(seed);
    let keys = (n as i64 / 4).max(1);
    let pairs = (0..n)
        .map(|_| {
            Payload::keyed(
                rng.random_range(0..keys),
                Payload::Long(rng.random_range(0i64..1000)),
            )
        })
        .collect();
    let mut data = DataRegistry::new();
    data.register("pairs", pairs);
    (program, fns, data)
}

#[cfg(test)]
mod tests {
    #[test]
    fn norm_formats_fixed_width() {
        assert_eq!(super::norm(1.0), "  1.00");
        assert_eq!(super::norm(12.345), " 12.35");
    }
}
