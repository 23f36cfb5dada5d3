//! paperarms: the paper's evaluation (Section 5) as arms of
//! [`crate::simarms::ARMS`] — every table, figure, baseline and ablation is
//! a function from the shared [`Runs`] to the text `simarms <id>` prints.
//!
//! An engine run is a pure function of (workload, [`Size`],
//! [`SystemConfig`]), and the experiments overlap heavily — Figure 5,
//! Table 5, Figure 8, `baselines`, `matrix` and the `full` column of
//! `ablation` all read the 7 × 5 main grid Figure 4 reads three columns
//! of; Figures 6 and 7 are one sweep on two metrics — so they draw their
//! runs from one cache, and each distinct run executes once per process.
//!
//! `ci/paper/<id>.txt` is the full-size text (the source of every "ours"
//! number in EXPERIMENTS.md); `ci/golden/<id>.txt` the quick one
//! `tests/simarms.rs` pins.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use gc::GcCoordinator;
use hybridmem::{AccessKind, DeviceKind, DeviceSpec, MemorySystemConfig};
use mheap::{Heap, HeapConfig, MemTag, ObjKind, Payload, RootSet, SpaceId};
use panthera::{MemoryMode, RunBuilder, RunReport, SystemConfig, SIM_GB};
use workloads::{build_workload, hashjoin_input, run_hashjoin, WorkloadId};

use crate::simarms::Size;
use crate::{norm, SEED};

/// An experiment's text under construction. `writeln!(out, ..)` needs no
/// `Result` handling: the inherent `write_fmt` it resolves to cannot fail.
struct Text(String);

impl Text {
    fn write_fmt(&mut self, args: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(&mut self.0, args).expect("writing to a String");
    }
}

/// The evaluation's engine runs at one [`Size`], each distinct
/// (workload, configuration) executed once and shared by every experiment
/// that reads it.
pub struct Runs {
    size: Size,
    // Keyed by the `Debug` text of (workload, configuration): derived, so
    // it names every field, and `f64` prints round-trip exactly.
    reports: HashMap<String, Rc<RunReport>>,
}

impl Runs {
    /// An empty cache: nothing runs until an arm asks for it.
    pub fn new(size: Size) -> Self {
        Runs {
            size,
            reports: HashMap::new(),
        }
    }

    /// The size every arm drawn from this cache renders at.
    pub(crate) fn size(&self) -> Size {
        self.size
    }

    /// Engine runs executed so far.
    pub fn executed(&self) -> usize {
        self.reports.len()
    }

    /// Dataset scale: 1.0 at full size. Quick shrinks datasets *and*
    /// heaps by the same factor — on full-size heaps the shrunken
    /// workloads never collect, and there is no GC split, padding effect
    /// or migration left to pin.
    fn scale(&self) -> f64 {
        1.0 / self.size.paper_shrink() as f64
    }

    /// `mode` on a heap of `heap_gb` paper GB (shrunk with the datasets).
    fn cfg(&self, mode: MemoryMode, heap_gb: u64, dram_ratio: f64) -> SystemConfig {
        SystemConfig::new(
            mode,
            heap_gb * SIM_GB / self.size.paper_shrink(),
            dram_ratio,
        )
    }

    /// The paper's main setup: 64 GB heap, 1/3 DRAM.
    fn main_cfg(&self, mode: MemoryMode) -> SystemConfig {
        self.cfg(mode, 64, 1.0 / 3.0)
    }

    /// One workload under one configuration.
    fn run(&mut self, id: WorkloadId, config: SystemConfig) -> Rc<RunReport> {
        let scale = self.scale();
        let report = self
            .reports
            .entry(format!("{id:?} {config:?}"))
            .or_insert_with(|| {
                let w = build_workload(id, scale, SEED);
                let run = RunBuilder::new(&w.program, w.fns, w.data)
                    .config(config)
                    .run()
                    .unwrap_or_else(|e| panic!("{e}"));
                Rc::new(run.report)
            });
        Rc::clone(report)
    }

    /// One workload under one mode at the main setup.
    fn main(&mut self, id: WorkloadId, mode: MemoryMode) -> Rc<RunReport> {
        self.run(id, self.main_cfg(mode))
    }

    /// One row of the 7 × 5 main grid, in [`MemoryMode::ALL`] order
    /// (DRAM-only, unmanaged, KN, KW, Panthera).
    fn main_row(&mut self, id: WorkloadId) -> [Rc<RunReport>; 5] {
        MemoryMode::ALL.map(|mode| self.main(id, mode))
    }

    /// The standard figure header, opening an experiment's text.
    fn header(&self, title: &str, paper: &str) -> Text {
        let rule = "=".repeat(64);
        Text(format!(
            "{rule}\n{title}\n(paper reference: {paper}; scale {})\n{rule}\n",
            self.scale()
        ))
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The table body four experiments share: one `line` per workload with its
/// four value columns, a rule of `rule` dashes (none if 0), then the
/// column-wise average laid out like any other row.
fn rows_then_average(
    out: &mut Text,
    rows: &[(&str, [f64; 4])],
    rule: usize,
    line: impl Fn(&str, [f64; 4]) -> String,
) {
    let mut sums = [0.0f64; 4];
    for (name, cols) in rows {
        writeln!(out, "{}", line(name, *cols));
        for (s, c) in sums.iter_mut().zip(cols) {
            *s += c;
        }
    }
    if rule > 0 {
        writeln!(out, "{}", "-".repeat(rule));
    }
    let n = rows.len() as f64;
    writeln!(out, "{}", line("average", sums.map(|s| s / n)));
}

/// Figure 2(c): the motivating PageRank experiment — a 32 GB DRAM system,
/// the same system with 88 GB of unmanaged NVM added, and with Panthera
/// managing the hybrid, all normalized to a 120 GB DRAM-only system.
pub fn fig2c(runs: &mut Runs) -> String {
    let mut out = runs.header(
        "Figure 2(c): PageRank, 32GB DRAM vs 32GB+88GB hybrid, normalized to 120GB DRAM",
        "Fig. 2(c); paper: 32GB-DRAM 1.42/0.55, unmanaged 1.23/0.81, panthera 1.00/0.60",
    );
    // 32 GB DRAM + 88 GB NVM = 120 GB hybrid, DRAM ratio 32/120. The
    // 32 GB DRAM-only heap no longer fits the workload comfortably,
    // forcing evictions and recomputation.
    let ratio = 32.0 / 120.0;
    let configs = [
        ("120GB DRAM (baseline)", MemoryMode::DramOnly, 120, 1.0),
        ("32GB DRAM", MemoryMode::DramOnly, 32, 1.0),
        (
            "32GB DRAM + 88GB NVM, unmanaged",
            MemoryMode::Unmanaged,
            120,
            ratio,
        ),
        (
            "32GB DRAM + 88GB NVM, panthera",
            MemoryMode::Panthera,
            120,
            ratio,
        ),
    ];
    let reports = configs.map(|(label, mode, heap_gb, ratio)| {
        (
            label,
            runs.run(WorkloadId::Pr, runs.cfg(mode, heap_gb, ratio)),
        )
    });
    let baseline = &reports[0].1;

    writeln!(
        out,
        "{:<34} {:>12} {:>12}",
        "configuration", "time", "energy"
    );
    writeln!(out, "{}", "-".repeat(60));
    for (label, r) in &reports {
        writeln!(
            out,
            "{:<34} {:>12} {:>12}",
            label,
            norm(r.time_vs(baseline)),
            norm(r.energy_vs(baseline))
        );
    }
    writeln!(out);
    writeln!(
        out,
        "expected shape: the small-DRAM system is slowest but cheapest; \
         adding NVM unmanaged recovers some time at an energy cost; \
         panthera approaches 120GB-DRAM performance at a fraction of its energy."
    );
    out.0
}

/// Table 1: Panthera's allocation policies — initial and final space for
/// each combination of tag and object type, demonstrated live on a heap.
pub fn table1(runs: &mut Runs) -> String {
    fn space_name(heap: &Heap, s: SpaceId) -> &'static str {
        match s {
            SpaceId::Eden | SpaceId::Survivor0 | SpaceId::Survivor1 => "Young Gen.",
            SpaceId::Old(o) if Some(o) == heap.old_dram() => "DRAM of Old Gen.",
            SpaceId::Old(o) if Some(o) == heap.old_nvm() => "NVM of Old Gen.",
            SpaceId::Old(_) => "Old Gen.",
        }
    }

    let mut out = runs.header("Table 1: Panthera's allocation policies", "Table 1");
    writeln!(
        out,
        "{:<6} {:<10} {:>18} {:>20}",
        "Tag", "Obj Type", "Initial Space", "Final Space"
    );
    writeln!(out, "{}", "-".repeat(58));

    for tag in [MemTag::Dram, MemTag::Nvm, MemTag::None] {
        let mut heap = Heap::new(
            HeapConfig::panthera(4 << 20, 1.0 / 3.0),
            MemorySystemConfig::with_capacities(4 << 20, 8 << 20),
        )
        .expect("valid config");
        let mut gc = GcCoordinator::new(MemoryMode::Panthera.into());
        let mut roots = RootSet::new();

        // RDD array: pretenured if tagged, young otherwise.
        let array = gc.alloc_rdd_array(&mut heap, &roots, 1, 512, tag);
        // RDD top object and a data tuple: always young first.
        let top = gc.alloc_young_sized(
            &mut heap,
            &roots,
            ObjKind::RddTop { rdd_id: 1 },
            tag,
            vec![array],
            0,
        );
        let tuple = gc.alloc_young(
            &mut heap,
            &roots,
            ObjKind::Tuple,
            MemTag::None,
            vec![],
            Payload::Long(1),
        );
        heap.push_ref(array, tuple);
        roots.push(top);

        let objs = [("RDD Top", top), ("RDD Array", array), ("Data Objs", tuple)];
        let spaces = |heap: &Heap| objs.map(|(_, o)| space_name(heap, heap.obj(o).space));
        let initial = spaces(&heap);
        // Age everything to its final home.
        for _ in 0..4 {
            gc.minor_gc(&mut heap, &roots);
        }
        let final_ = spaces(&heap);
        for (i, (kind, _)) in objs.iter().enumerate() {
            writeln!(
                out,
                "{:<6} {:<10} {:>18} {:>20}",
                tag.to_string(),
                kind,
                initial[i],
                final_[i]
            );
        }
        writeln!(out);
    }
    writeln!(
        out,
        "paper's Table 1: DRAM/NVM-tagged arrays pretenure into their old-gen \
         component; tops and data objects start young and are moved to the \
         tagged space by the GC; untagged objects end in young or NVM."
    );
    out.0
}

/// Table 2: the DRAM and NVM device parameters the simulator uses.
pub fn table2(runs: &mut Runs) -> String {
    let mut out = runs.header("Table 2: DRAM vs NVM device model", "Table 2 + Section 5.1");
    let d = DeviceSpec::dram();
    let n = DeviceSpec::nvm();
    writeln!(out, "{:<34} {:>14} {:>16}", "", "DRAM", "NVM");
    writeln!(out, "{}", "-".repeat(66));
    writeln!(
        out,
        "{:<34} {:>14} {:>16}",
        "Read latency (ns)",
        d.read_latency_ns,
        format!("{} (one-hop)", n.read_latency_ns)
    );
    for (what, dram, nvm) in [
        (
            "Bandwidth (GB/s)",
            d.read_bandwidth_bpns,
            n.read_bandwidth_bpns,
        ),
        (
            "Static power (W/GB)",
            d.static_power_w_per_gb,
            n.static_power_w_per_gb,
        ),
        (
            "Read energy (pJ/cache line)",
            d.read_energy_pj_per_line,
            n.read_energy_pj_per_line,
        ),
        (
            "Write energy (pJ/cache line)",
            d.write_energy_pj_per_line,
            n.write_energy_pj_per_line,
        ),
    ] {
        writeln!(out, "{:<34} {:>14} {:>16}", what, dram, nvm);
    }
    writeln!(out);
    writeln!(
        out,
        "paper values: NVM reads 300ns (2.5x DRAM's 120ns); NVM bandwidth \
         capped at 10 GB/s vs DRAM's 30 GB/s; NVM writes 31200 pJ/line \
         (Section 5.1's row-buffer-miss accounting); NVM static power \
         negligible vs DRAM."
    );
    out.0
}

/// Table 4: the seven programs and their (scaled, synthetic) datasets.
pub fn table4(runs: &mut Runs) -> String {
    let mut out = runs.header("Table 4: programs and datasets", "Table 4");
    writeln!(
        out,
        "{:<12} {:<40} {:>9} {:>12}",
        "Program", "Paper dataset", "records", "bytes"
    );
    writeln!(out, "{}", "-".repeat(78));
    for id in WorkloadId::ALL {
        let w = build_workload(id, runs.scale(), SEED);
        let names = w.data.names();
        let (records, bytes): (usize, u64) = names
            .iter()
            .map(|n| (w.data.records(n).len(), w.data.bytes(n)))
            .fold((0, 0), |(r, b), (r2, b2)| (r + r2, b + b2));
        writeln!(
            out,
            "{:<12} {:<40} {:>9} {:>10}KB",
            id.name(),
            id.paper_dataset(),
            records,
            bytes / 1024
        );
    }
    writeln!(out);
    writeln!(
        out,
        "the synthetic datasets are ~1000x scaled-down stand-ins for the \
         paper's inputs (1 simulated MB per paper GB); Section 5.2 notes \
         that intermediate data dwarfs the input sizes, which the engine \
         reproduces."
    );
    out.0
}

/// Figure 4: overall performance and energy, 64 GB heap, 1/3 DRAM,
/// normalized to the 64 GB DRAM-only baseline.
pub fn fig4(runs: &mut Runs) -> String {
    let mut out = runs.header(
        "Figure 4: elapsed time / energy normalized to 64GB DRAM-only",
        "Fig. 4; paper averages: unmanaged 1.214 / 0.690, panthera 1.043 / 0.626",
    );
    writeln!(
        out,
        "{:<12} | {:>9} {:>9} | {:>9} {:>9}",
        "workload", "unmanaged", "panthera", "unmanaged", "panthera"
    );
    writeln!(
        out,
        "{:<12} | {:^19} | {:^19}",
        "", "elapsed time", "energy"
    );
    writeln!(out, "{}", "-".repeat(58));
    let rows = WorkloadId::ALL.map(|id| {
        let base = runs.main(id, MemoryMode::DramOnly);
        let unmanaged = runs.main(id, MemoryMode::Unmanaged);
        let panthera = runs.main(id, MemoryMode::Panthera);
        let cols = [
            unmanaged.time_vs(&base),
            panthera.time_vs(&base),
            unmanaged.energy_vs(&base),
            panthera.energy_vs(&base),
        ];
        (id.name(), cols)
    });
    rows_then_average(&mut out, &rows, 58, |name, cols| {
        let [tu, tp, eu, ep] = cols.map(norm);
        format!("{name:<12} | {tu} {tp} | {eu} {ep}")
    });
    writeln!(out);
    writeln!(
        out,
        "expected shape: panthera time ~= DRAM-only (paper: +4.3%) with a \
         large energy reduction (paper: -37.4%); unmanaged pays ~+21% time."
    );
    out.0
}

/// Figure 5: elapsed time broken into computation and GC time per
/// workload, for DRAM-only / Panthera / Unmanaged (64 GB heap).
pub fn fig5(runs: &mut Runs) -> String {
    fn row(r: &RunReport) -> String {
        format!(
            "{:<20} computation {:>9.4}s   gc {:>9.4}s  (minor {:>8.4}s / major {:>8.4}s,          {} minor + {} major GCs, worst pause {:.2}ms)",
            r.mode,
            r.mutator_s,
            r.gc_s(),
            r.minor_gc_s,
            r.major_gc_s,
            r.gc.minor_count,
            r.gc.major_count,
            r.max_pause_ms(),
        )
    }

    let mut out = runs.header(
        "Figure 5: computation vs GC time (64GB heap, 1/3 DRAM)",
        "Fig. 5; paper: unmanaged GC overhead 60.4%, panthera 4.7% vs DRAM-only",
    );
    let mut gc_overhead_unmanaged = Vec::new();
    let mut gc_overhead_panthera = Vec::new();
    let mut comp_overhead_unmanaged = Vec::new();
    let mut comp_overhead_panthera = Vec::new();
    for id in WorkloadId::ALL {
        writeln!(out, "{}", id.name());
        let base = runs.main(id, MemoryMode::DramOnly);
        let pan = runs.main(id, MemoryMode::Panthera);
        let unm = runs.main(id, MemoryMode::Unmanaged);
        writeln!(out, "  {}", row(&base));
        writeln!(out, "  {}", row(&pan));
        writeln!(out, "  {}", row(&unm));
        gc_overhead_unmanaged.push(unm.gc_s() / base.gc_s() - 1.0);
        gc_overhead_panthera.push(pan.gc_s() / base.gc_s() - 1.0);
        comp_overhead_unmanaged.push(unm.mutator_s / base.mutator_s - 1.0);
        comp_overhead_panthera.push(pan.mutator_s / base.mutator_s - 1.0);
    }
    let avg = |v: &[f64]| mean(v) * 100.0;
    writeln!(out);
    writeln!(
        out,
        "average GC overhead vs DRAM-only:      unmanaged {:+.1}%  panthera {:+.1}%  (paper: +60.4% / +4.7%)",
        avg(&gc_overhead_unmanaged),
        avg(&gc_overhead_panthera)
    );
    writeln!(
        out,
        "average computation overhead:          unmanaged {:+.1}%  panthera {:+.1}%  (paper: +6.9% / +4.5%)",
        avg(&comp_overhead_unmanaged),
        avg(&comp_overhead_panthera)
    );
    out.0
}

/// What differs between Figures 6 and 7: the captions and which ratio to
/// the same-size DRAM-only baseline is read off each run.
struct SweepView {
    title: &'static str,
    paper: &'static str,
    metric: fn(&RunReport, &RunReport) -> f64,
    shape: &'static str,
}

/// The sweep Figures 6 and 7 share: two heaps (64/120 GB) × two DRAM
/// ratios (1/4, 1/3) on PR, LR, GraphX-CC, MLlib-BC, normalized to the
/// same-size DRAM-only baseline.
fn heap_ratio_sweep(runs: &mut Runs, view: SweepView) -> String {
    const WORKLOADS: [WorkloadId; 4] = [
        WorkloadId::Pr,
        WorkloadId::Lr,
        WorkloadId::Cc,
        WorkloadId::Bc,
    ];
    let mut out = runs.header(view.title, view.paper);
    for heap_gb in [120u64, 64] {
        writeln!(
            out,
            "--- {heap_gb} GB heap (normalized to {heap_gb} GB DRAM-only) ---"
        );
        writeln!(
            out,
            "{:<12} | {:>10} {:>10} | {:>10} {:>10}",
            "workload", "unm 1/4", "pan 1/4", "unm 1/3", "pan 1/3"
        );
        let rows = WORKLOADS.map(|id| {
            let base = runs.run(id, runs.cfg(MemoryMode::DramOnly, heap_gb, 1.0));
            let columns = [
                (MemoryMode::Unmanaged, 0.25),
                (MemoryMode::Panthera, 0.25),
                (MemoryMode::Unmanaged, 1.0 / 3.0),
                (MemoryMode::Panthera, 1.0 / 3.0),
            ];
            let cols = columns.map(|(mode, ratio)| {
                let r = runs.run(id, runs.cfg(mode, heap_gb, ratio));
                (view.metric)(&r, &base)
            });
            (id.name(), cols)
        });
        rows_then_average(&mut out, &rows, 0, |name, cols| {
            let [u4, p4, u3, p3] = cols.map(norm);
            format!("{name:<12} | {u4:>10} {p4:>10} | {u3:>10} {p3:>10}")
        });
        writeln!(out);
    }
    writeln!(out, "{}", view.shape);
    out.0
}

/// Figure 6: elapsed time across heaps and DRAM ratios.
pub fn fig6(runs: &mut Runs) -> String {
    heap_ratio_sweep(
        runs,
        SweepView {
            title: "Figure 6: normalized elapsed time across heaps and DRAM ratios",
            paper: "Fig. 6; paper panthera averages: (64GB,1/4) 1.095, (64GB,1/3) 1.034, \
                    (120GB,1/4) 1.021, (120GB,1/3) 1.000",
            metric: RunReport::time_vs,
            shape: "expected shape: panthera improves with more DRAM (sensitive to the \
                    ratio), unmanaged barely moves (paper Section 5.3).",
        },
    )
}

/// Figure 7: energy across the same sweep.
pub fn fig7(runs: &mut Runs) -> String {
    heap_ratio_sweep(
        runs,
        SweepView {
            title: "Figure 7: normalized energy across heaps and DRAM ratios",
            paper: "Fig. 7; paper panthera averages: (64GB,1/4) 0.583, (64GB,1/3) 0.620, \
                    (120GB,1/4) 0.430, (120GB,1/3) 0.483",
            metric: RunReport::energy_vs,
            shape: "expected shape: smaller DRAM ratios and bigger heaps save more \
                    energy; panthera beats unmanaged at equal ratios (paper Section 5.3).",
        },
    )
}

/// Figure 8: GraphX-CC's DRAM and NVM read/write bandwidth over elapsed
/// time, under the unmanaged baseline and Panthera (1/3 DRAM): four
/// series per mode sampled per traffic window, plus the peaks the paper's
/// commentary keys on — Panthera migrates most traffic from NVM to DRAM
/// and flattens the NVM peaks.
pub fn fig8(runs: &mut Runs) -> String {
    fn series(out: &mut Text, r: &RunReport) {
        writeln!(out, "--- {} ---", r.mode);
        writeln!(
            out,
            "{:>9} {:>12} {:>12} {:>12} {:>12}",
            "t(ms)", "dram-R GB/s", "dram-W GB/s", "nvm-R GB/s", "nvm-W GB/s"
        );
        let dr = r.traffic.series(DeviceKind::Dram, AccessKind::Read);
        let dw = r.traffic.series(DeviceKind::Dram, AccessKind::Write);
        let nr = r.traffic.series(DeviceKind::Nvm, AccessKind::Read);
        let nw = r.traffic.series(DeviceKind::Nvm, AccessKind::Write);
        // Downsample to at most 40 rows for readability.
        let n = dr.len().max(1);
        let step = n.div_ceil(40);
        for i in (0..n).step_by(step) {
            writeln!(
                out,
                "{:>9.2} {:>12.2} {:>12.2} {:>12.2} {:>12.2}",
                dr[i].t_ns / 1e6,
                dr[i].gbps,
                dw[i].gbps,
                nr.get(i).map_or(0.0, |s| s.gbps),
                nw.get(i).map_or(0.0, |s| s.gbps),
            );
        }
        writeln!(
            out,
            "peaks: dram-R {:.2}  dram-W {:.2}  nvm-R {:.2}  nvm-W {:.2} GB/s; \
             totals: dram {:.1} MB, nvm {:.1} MB",
            r.traffic.peak_gbps(DeviceKind::Dram, AccessKind::Read),
            r.traffic.peak_gbps(DeviceKind::Dram, AccessKind::Write),
            r.traffic.peak_gbps(DeviceKind::Nvm, AccessKind::Read),
            r.traffic.peak_gbps(DeviceKind::Nvm, AccessKind::Write),
            r.device_bytes[0] as f64 / 1e6,
            r.device_bytes[1] as f64 / 1e6,
        );
        writeln!(out);
    }

    let mut out = runs.header(
        "Figure 8: GraphX-CC memory bandwidth over time (1/3 DRAM)",
        "Fig. 8; panthera shifts read/write traffic from NVM to DRAM and \
         eliminates high instantaneous NVM bandwidth peaks",
    );
    let unm = runs.main(WorkloadId::Cc, MemoryMode::Unmanaged);
    let pan = runs.main(WorkloadId::Cc, MemoryMode::Panthera);
    series(&mut out, &unm);
    series(&mut out, &pan);

    let unm_nvm = unm.device_bytes[1] as f64;
    let pan_nvm = pan.device_bytes[1] as f64;
    writeln!(
        out,
        "NVM traffic reduced by {:.0}% under panthera; NVM read peak {:.2} -> {:.2} GB/s",
        (1.0 - pan_nvm / unm_nvm) * 100.0,
        unm.peak_nvm_read_gbps(),
        pan.peak_nvm_read_gbps(),
    );
    out.0
}

/// Table 5: dynamic monitoring and migration under Panthera — monitored
/// RDD method calls and dynamically migrated RDDs per workload.
pub fn table5(runs: &mut Runs) -> String {
    let mut out = runs.header(
        "Table 5: dynamic monitoring and migration (Panthera, 64GB, 1/3 DRAM)",
        "Table 5; paper: PR 328/0, KM 550/0, LR 333/0, TC 217/0, CC 2945/1, \
         SSSP 3632/1, BC 336/0",
    );
    writeln!(
        out,
        "{:<12} {:>18} {:>16}",
        "Program", "# Calls monitored", "# RDDs migrated"
    );
    writeln!(out, "{}", "-".repeat(48));
    for id in WorkloadId::ALL {
        let r = runs.main(id, MemoryMode::Panthera);
        writeln!(
            out,
            "{:<12} {:>18} {:>16}",
            id.name(),
            r.monitored_calls,
            r.gc.rdds_migrated
        );
    }
    writeln!(out);
    writeln!(
        out,
        "expected shape: monitoring counts are small everywhere (overhead \
         < 1%); only the GraphX workloads — whose per-superstep graph RDDs \
         the analysis over-tags as hot — see dynamic migrations."
    );
    out.0
}

/// Section 5.2's baseline comparison: Kingsguard-Nursery and
/// Kingsguard-Writes (the Write Rationing GC) against unmanaged and
/// Panthera.
pub fn baselines(runs: &mut Runs) -> String {
    let mut out = runs.header(
        "Section 5.2 baselines: time normalized to 64GB DRAM-only",
        "paper: KW averaged +41% time; unmanaged outperformed both KN and KW",
    );
    writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>9} {:>9}",
        "workload", "unmanaged", "kn", "kw", "panthera"
    );
    writeln!(out, "{}", "-".repeat(54));
    let rows = WorkloadId::ALL.map(|id| {
        let [base, others @ ..] = runs.main_row(id);
        (id.name(), others.map(|r| r.time_vs(&base)))
    });
    rows_then_average(&mut out, &rows, 54, |name, cols| {
        let [unm, kn, kw, pan] = cols.map(norm);
        format!("{name:<12} {unm:>9} {kn:>9} {kw:>9} {pan:>9}")
    });
    writeln!(out);
    writeln!(
        out,
        "expected shape: panthera < unmanaged < Kingsguard. Write rationing \
         settles read-mostly persisted RDDs in NVM and pays write-barrier \
         and migration costs on top."
    );
    out.0
}

/// Ablations of Panthera's optimizations (Sections 4.2.2, 4.2.3, 5.3,
/// 5.5): eager promotion, card padding, and dynamic monitoring/migration.
pub fn ablation(runs: &mut Runs) -> String {
    let mut out = runs.header(
        "Ablation: Panthera without each optimization (64GB, 1/3 DRAM)",
        "Section 5.3: -card padding => GC time +60%; eager promotion ~9% of \
         the GC win. Section 5.5: disabling monitoring+migration is not \
         noticeable on average",
    );
    writeln!(
        out,
        "{:<12} | {:>10} {:>10} {:>10} {:>10} | {:>11} {:>11}",
        "workload", "full", "-eager", "-padding", "-migration", "gc -eager", "gc -padding"
    );
    writeln!(out, "{}", "-".repeat(86));
    let mut gc_pad_ratios = Vec::new();
    let mut gc_eager_ratios = Vec::new();
    for id in WorkloadId::ALL {
        let mut without = |disable: fn(&mut SystemConfig)| {
            let mut cfg = runs.main_cfg(MemoryMode::Panthera);
            disable(&mut cfg);
            runs.run(id, cfg)
        };
        let full = without(|_| {});
        let no_eager = without(|c| c.eager_promotion = false);
        let no_pad = without(|c| c.card_padding = false);
        let no_migration = without(|c| c.dynamic_migration = false);
        writeln!(
            out,
            "{:<12} | {:>9.4}s {:>9.4}s {:>9.4}s {:>9.4}s | {:>10.2}x {:>10.2}x",
            id.name(),
            full.elapsed_s,
            no_eager.elapsed_s,
            no_pad.elapsed_s,
            no_migration.elapsed_s,
            no_eager.gc_s() / full.gc_s(),
            no_pad.gc_s() / full.gc_s(),
        );
        gc_eager_ratios.push(no_eager.gc_s() / full.gc_s());
        gc_pad_ratios.push(no_pad.gc_s() / full.gc_s());
    }
    writeln!(out, "{}", "-".repeat(86));
    writeln!(
        out,
        "average GC-time blowup: without eager promotion {:.2}x, without card \
         padding {:.2}x (paper: padding off => GC +60%)",
        mean(&gc_eager_ratios),
        mean(&gc_pad_ratios)
    );
    out.0
}

/// Section 5.2's nursery sensitivity study: the paper tried young
/// generations of 1/4, 1/5, 1/6, and 1/7 of the heap, found 1/4-1/6
/// marginal and 1/7 worse, and settled on 1/6 to leave more DRAM to the
/// old generation.
pub fn nursery(runs: &mut Runs) -> String {
    let mut out = runs.header(
        "Section 5.2: nursery-size sensitivity (Panthera, 64GB, 1/3 DRAM)",
        "paper: 1/4, 1/5, 1/6 within noise; 1/7 worse; 1/6 chosen",
    );
    let fractions = [0.25, 0.2, 1.0 / 6.0, 1.0 / 7.0];
    writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>10}",
        "workload", "young=1/4", "young=1/5", "young=1/6", "young=1/7"
    );
    writeln!(out, "{}", "-".repeat(56));
    let workloads = [
        WorkloadId::Pr,
        WorkloadId::Km,
        WorkloadId::Cc,
        WorkloadId::Bc,
    ];
    let rows = workloads.map(|id| {
        let elapsed = fractions.map(|frac| {
            let mut cfg = runs.main_cfg(MemoryMode::Panthera);
            cfg.nursery_fraction = frac;
            runs.run(id, cfg).elapsed_s
        });
        // Normalize to the paper's chosen 1/6.
        (id.name(), elapsed.map(|s| s / elapsed[2]))
    });
    rows_then_average(&mut out, &rows, 56, |name, [a, b, c, d]| {
        format!("{name:<12} {a:>10.3} {b:>10.3} {c:>10.3} {d:>10.3}")
    });
    writeln!(out);
    writeln!(
        out,
        "expected shape: the curve is flat near the paper's choice; large \
         nurseries steal old-generation DRAM, which is why the paper picks \
         1/6 over 1/4."
    );
    out.0
}

/// Section 4.3 applicability experiment: the Hadoop-style HashJoin driven
/// by Panthera's public runtime APIs (no Spark, no static analysis),
/// across every memory mode.
pub fn hashjoin(runs: &mut Runs) -> String {
    let mut out = runs.header(
        "Section 4.3: API-driven HashJoin across memory modes",
        "the build table is pretenured in DRAM (API 1) and its scans are \
         monitored (API 2); probe partitions die in the young generation",
    );
    let scale = runs.scale();
    let input = hashjoin_input(
        (4_096.0 * scale) as usize,
        8,
        (8_192.0 * scale) as usize,
        SEED,
    );
    writeln!(
        out,
        "{:<20} {:>10} {:>10} {:>12} {:>10} {:>10}",
        "mode", "time(ms)", "gc(ms)", "energy(mJ)", "dram MB", "nvm MB"
    );
    writeln!(out, "{}", "-".repeat(78));
    let outs = MemoryMode::ALL.map(|mode| run_hashjoin(&input, &runs.cfg(mode, 16, 1.0 / 3.0)));
    for o in &outs {
        let r = &o.report;
        writeln!(
            out,
            "{:<20} {:>10.3} {:>10.3} {:>12.3} {:>10.2} {:>10.2}",
            r.mode,
            r.elapsed_s * 1e3,
            r.gc_s() * 1e3,
            r.energy_j() * 1e3,
            r.device_bytes[0] as f64 / 1e6,
            r.device_bytes[1] as f64 / 1e6,
        );
    }
    // `MemoryMode::ALL` opens with DRAM-only and closes with Panthera.
    let [base, .., pan] = &outs;
    for o in &outs {
        assert_eq!(
            o.matches, base.matches,
            "{}: join output must not depend on mode",
            o.report.mode
        );
    }
    writeln!(out);
    writeln!(
        out,
        "{} matched rows in every mode; panthera: {:.2}x time, {:.2}x energy \
         vs DRAM-only",
        pan.matches,
        pan.report.time_vs(&base.report),
        pan.report.energy_vs(&base.report)
    );
    writeln!(
        out,
        "expected shape: panthera probes the DRAM-resident build table at \
         DRAM-only speed; KN/KW leave it in NVM and pay per-probe latency."
    );
    out.0
}

/// Extension experiment: how does Panthera's benefit change with the NVM
/// technology? The paper's introduction motivates hybrid memories with
/// PCM, STT-MRAM, RRAM, and 3D XPoint; the evaluation models PCM
/// (Table 2). This sweep re-runs the headline comparison for each
/// technology's device parameters.
pub fn nvmtech(runs: &mut Runs) -> String {
    type SpecFn = fn() -> DeviceSpec;

    let mut out = runs.header(
        "Extension: Panthera across NVM technologies (PR + GraphX-CC, 64GB, 1/3 DRAM)",
        "the paper evaluates PCM-like parameters (Table 2); the intro cites \
         STT-MRAM, RRAM, and 3D XPoint as alternative NVMs",
    );
    let techs: [(&str, SpecFn); 4] = [
        ("PCM (paper)", DeviceSpec::pcm),
        ("STT-MRAM", DeviceSpec::stt_mram),
        ("RRAM", DeviceSpec::rram),
        ("3D XPoint", DeviceSpec::xpoint),
    ];
    writeln!(
        out,
        "{:<12} {:<12} | {:>9} {:>9} | {:>9} {:>9}",
        "tech", "workload", "unm time", "pan time", "unm enrg", "pan enrg"
    );
    writeln!(out, "{}", "-".repeat(72));
    for (name, spec) in techs {
        for id in [WorkloadId::Pr, WorkloadId::Cc] {
            let base = runs.run(id, runs.cfg(MemoryMode::DramOnly, 64, 1.0));
            let mut on_tech = |mode| {
                let mut cfg = runs.main_cfg(mode);
                cfg.nvm_spec = Some(spec());
                runs.run(id, cfg)
            };
            let unm = on_tech(MemoryMode::Unmanaged);
            let pan = on_tech(MemoryMode::Panthera);
            writeln!(
                out,
                "{:<12} {:<12} | {} {} | {} {}",
                name,
                id.name(),
                norm(unm.time_vs(&base)),
                norm(pan.time_vs(&base)),
                norm(unm.energy_vs(&base)),
                norm(pan.energy_vs(&base)),
            );
        }
    }
    writeln!(out);
    writeln!(
        out,
        "expected shape: the faster the NVM (STT-MRAM), the smaller the gap \
         between unmanaged and Panthera — semantics-aware placement matters \
         most for slow NVMs (RRAM, XPoint), where unmanaged placement is \
         costliest."
    );
    out.0
}

/// The whole 7 × 5 main grid on one screen: time and energy of every
/// workload under every mode against DRAM-only, plus Panthera's migration
/// and monitoring counts.
pub fn matrix(runs: &mut Runs) -> String {
    let mut out = Text(String::new());
    writeln!(
        out,
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>9}   | energy ratios",
        "workload", "dram", "unmgd", "panthera", "kn", "kw"
    );
    for id in WorkloadId::ALL {
        let [base, unm, kn, kw, pan] = runs.main_row(id);
        let columns = [&base, &unm, &pan, &kn, &kw];
        let times: String = (columns.iter())
            .map(|r| format!(" {:>9.3}", r.time_vs(&base)))
            .collect();
        let energies: String = (columns.iter())
            .map(|r| format!(" {:>5.2}", r.energy_vs(&base)))
            .collect();
        writeln!(
            out,
            "{:<12}{times}   |{energies}  (migr {} mon {})",
            id.name(),
            pan.gc.rdds_migrated,
            pan.monitored_calls
        );
    }
    out.0
}
