//! System configuration: heap geometry, DRAM ratio, mode, and ablations.
//!
//! # Scale
//!
//! The simulator runs the paper's setups at 1/1000 scale: one simulated
//! megabyte stands for one of the paper's gigabytes, and the workloads'
//! datasets are scaled to match. All *ratios* — DRAM fraction, nursery
//! fraction, occupancies — are preserved, which is what the evaluation's
//! normalized figures depend on.

use gc::{GcCoordinator, MemoryMode, Policy};
use hybridmem::{DeviceSpec, MemorySystemConfig};
use mheap::{Heap, HeapConfig};
use sparklet::{EngineConfig, PantheraRuntime};
use std::fmt;

/// A configuration constraint violation, reported by
/// [`SystemConfig::validate`] and the `try_*` run entry points instead
/// of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    /// Wrap a constraint-violation message.
    pub fn new(msg: impl Into<String>) -> Self {
        ConfigError(msg.into())
    }

    /// The violated constraint, as text.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// One simulated "gigabyte" (scaled to a megabyte).
pub const SIM_GB: u64 = 1 << 20;

/// Timebase correction for static power: the 1/1000 scale compresses
/// elapsed time more than traffic volume, so background power is scaled up
/// to restore the real system's static/dynamic energy balance (in which
/// DRAM background power dominates, per the paper's Section 5.1 model).
pub const STATIC_POWER_TIMEBASE_SCALE: f64 = 40.0;

/// Full configuration of one simulated run.
///
/// # Examples
///
/// ```
/// use panthera::{MemoryMode, SystemConfig, SIM_GB};
///
/// // The paper's main setup: a 64 GB heap, one third of it DRAM.
/// let cfg = SystemConfig::new(MemoryMode::Panthera, 64 * SIM_GB, 1.0 / 3.0);
/// assert!(cfg.validate().is_ok());
/// assert_eq!(cfg.dram_capacity() + cfg.nvm_capacity(), 64 * SIM_GB);
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Which memory-management mode to run.
    pub mode: MemoryMode,
    /// Heap size in simulated bytes (use [`SIM_GB`] multiples to mirror
    /// the paper's 64 GB / 120 GB heaps).
    pub heap_bytes: u64,
    /// DRAM as a fraction of total memory (1/4 or 1/3 in the paper).
    pub dram_ratio: f64,
    /// Young-generation fraction (the paper settles on 1/6).
    pub nursery_fraction: f64,
    /// Interleaving chunk size for the unmanaged mode (the paper's 1 GB,
    /// scaled).
    pub chunk_bytes: u64,
    /// Ablation: eager promotion (Section 4.2.2).
    pub eager_promotion: bool,
    /// Ablation: card padding (Section 4.2.3).
    pub card_padding: bool,
    /// Ablation: dynamic monitoring + migration (Section 5.5).
    pub dynamic_migration: bool,
    /// Arrays with at least this many elements trigger the `rdd_alloc`
    /// wait-state match (the paper uses a million; scaled down here).
    pub large_array_elems: usize,
    /// Managed-runtime representation bloat added to every data tuple —
    /// the reason gigabyte-scale inputs occupy 10-30 GB of JVM heap.
    pub tuple_bloat_bytes: u64,
    /// Override the NVM device model (defaults to the paper's PCM-like
    /// Table 2 parameters; see [`DeviceSpec::stt_mram`] etc. for other
    /// technologies from the paper's introduction).
    pub nvm_spec: Option<DeviceSpec>,
    /// Seed for the interleaved chunk map.
    pub seed: u64,
    /// Event-observer handle: sinks attached here receive the structured
    /// event stream ([`obs::Event`]) from every layer. Disabled by
    /// default; events observe, never charge, so attaching sinks changes
    /// no simulated quantity.
    pub observer: obs::Observer,
    /// Verify every heap invariant at collection entry and exit
    /// (HotSpot's `VerifyBeforeGC`/`VerifyAfterGC`; DESIGN.md §7).
    /// Defaults to the `PANTHERA_VERIFY` environment variable. The
    /// verifier observes, never charges: enabling it changes no simulated
    /// quantity, and a violation aborts the run.
    pub verify_heap: bool,
    /// Executors in the simulated cluster (DESIGN.md §8). Each executor
    /// gets its own private heap of `heap_bytes` and runs the partitions
    /// `i % executors` of every stage. `1` (the default) is the classic
    /// single-JVM run; values above 1 need a
    /// [`crate::RunBuilder::from_build`] source, and [`crate::start`]
    /// (whose cursor drives exactly one executor) reports them as a
    /// [`ConfigError`].
    pub executors: u16,
    /// How the cluster driver recovers a crashed executor's partitions
    /// (DESIGN.md §9). Ignored by single-runtime entry points.
    pub recovery: RecoveryPolicy,
    /// Data-movement charges (disk, network, serde, shared memory) — the
    /// single source of truth the engine and the cluster exchange charge
    /// from (DESIGN.md §10).
    pub costs: sparklet::CostModel,
    /// How shuffle data crosses executors: `Serde` (the distributed
    /// default: serialize + network both ways) or `SharedRegion` (the
    /// colocated zero-copy fast path: memory bandwidth, no serde).
    /// Consulted only in cluster mode.
    pub transport: sparklet::ShuffleTransport,
    /// Store heap-level persisted RDDs as off-heap H2 blocks: the GC
    /// neither traces nor card-marks them, they are never serialized, and
    /// they are released on the analysis crate's lifetime schedule.
    /// Counted in `exec.offheap_*`; takes precedence over `region_alloc`
    /// for persists (DESIGN.md §11).
    pub offheap_cache: bool,
    /// Lifetime-based region allocation (DESIGN.md §11): streamed
    /// temporaries bump a stage-scoped scratch arena reset wholesale at
    /// stage end, and — unless `offheap_cache` is also set — heap-level
    /// persists become RDD-lifetime arenas, counted in `exec.region_*`.
    /// H2 blocks and arenas share one block table and one lifetime
    /// schedule. Region data is never traced, card-marked, or promoted;
    /// action results are bit-identical with the flag on or off.
    pub region_alloc: bool,
    /// Partitions per materialized RDD, each its own backbone array —
    /// why shared cards "exist pervasively" (Section 4.2.3).
    pub partitions: usize,
    /// Fuse chains of narrow transformations into one host-side pass
    /// (`false`: the stage-at-a-time reference); every simulated
    /// quantity is bit-identical either way.
    pub fuse_narrow: bool,
}

/// How lost RDD partitions are rebuilt after an executor crash.
///
/// Either way recovery is deterministic: a replacement executor replays
/// the driver program against the surviving exchange state; the policy
/// only decides how much of the lineage the replay must re-execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Pure lineage: recompute every lost partition from its sources
    /// (Spark's default story — cheap in fault-free runs, the full
    /// lineage depth when a crash hits).
    Recompute,
    /// Snapshot every `n`-th shuffle (plus every explicitly
    /// `checkpoint()`-marked RDD) into durable NVM storage, bounding
    /// replay recomputation to fewer than `n` shuffle stages at the cost
    /// of charged NVM checkpoint writes. `n` must be at least 1.
    CheckpointEvery(u32),
}

impl SystemConfig {
    /// A configuration in `mode` with the given heap size and DRAM ratio.
    pub fn new(mode: MemoryMode, heap_bytes: u64, dram_ratio: f64) -> Self {
        SystemConfig {
            mode,
            heap_bytes,
            dram_ratio,
            nursery_fraction: 1.0 / 6.0,
            chunk_bytes: SIM_GB,
            eager_promotion: true,
            card_padding: true,
            dynamic_migration: true,
            large_array_elems: 64,
            tuple_bloat_bytes: 240,
            nvm_spec: None,
            seed: 0x9a77,
            observer: obs::Observer::disabled(),
            verify_heap: gc::verify_env_enabled(),
            executors: 1,
            recovery: RecoveryPolicy::Recompute,
            costs: sparklet::CostModel::default(),
            transport: sparklet::ShuffleTransport::Serde,
            offheap_cache: false,
            region_alloc: false,
            partitions: 8,
            fuse_narrow: true,
        }
    }

    /// The paper's main configuration: a "64 GB" heap with 1/3 DRAM.
    pub fn paper_default(mode: MemoryMode) -> Self {
        Self::new(mode, 64 * SIM_GB, 1.0 / 3.0)
    }

    /// Installed DRAM capacity (for static power).
    pub fn dram_capacity(&self) -> u64 {
        match self.mode {
            MemoryMode::DramOnly => self.heap_bytes,
            _ => (self.heap_bytes as f64 * self.dram_ratio) as u64,
        }
    }

    /// Installed NVM capacity (for static power).
    pub fn nvm_capacity(&self) -> u64 {
        self.heap_bytes - self.dram_capacity()
    }

    /// The heap configuration this system uses.
    pub fn heap_config(&self) -> HeapConfig {
        let mut cfg = HeapConfig::panthera(self.heap_bytes, self.dram_ratio);
        cfg.nursery_fraction = self.nursery_fraction;
        cfg.seed = self.seed;
        cfg.tuple_bloat_bytes = self.tuple_bloat_bytes;
        // Card padding is Panthera's optimization (Section 4.2.3), and only
        // Kingsguard-Writes' migration reads per-object write counts.
        cfg.card_padding = self.mode == MemoryMode::Panthera && self.card_padding;
        cfg.track_writes = self.policy().write_migration();
        cfg.old_layout = self.mode.old_layout(self.chunk_bytes);
        if !self.mode.uses_nvm() {
            cfg.dram_ratio = 1.0;
        }
        cfg
    }

    /// The memory-system configuration (device capacities and specs).
    pub fn mem_config(&self) -> MemorySystemConfig {
        let mut cfg =
            MemorySystemConfig::with_capacities(self.dram_capacity(), self.nvm_capacity());
        cfg.static_power_scale = STATIC_POWER_TIMEBASE_SCALE;
        if let Some(spec) = &self.nvm_spec {
            cfg.nvm = spec.clone();
        }
        cfg
    }

    /// The placement policy for this mode.
    pub fn policy(&self) -> Policy {
        Policy {
            mode: self.mode,
            eager_promotion: self.eager_promotion,
            dynamic_migration: self.dynamic_migration,
        }
    }

    /// A fresh runtime for this system: its heap with the observer
    /// attached, the collector under [`SystemConfig::policy`], and the
    /// `rdd_alloc` wait-state threshold.
    ///
    /// # Errors
    ///
    /// A heap geometry the heap refuses to build.
    pub fn runtime(&self) -> Result<PantheraRuntime, ConfigError> {
        let mut heap =
            Heap::new(self.heap_config(), self.mem_config()).map_err(ConfigError::new)?;
        heap.set_observer(self.observer.clone());
        let gc = GcCoordinator::with_verify(self.policy(), self.verify_heap);
        Ok(PantheraRuntime::new(heap, gc, self.large_array_elems))
    }

    /// The engine's knobs for this system: the data-movement costs,
    /// shuffle transport, off-heap/region stores, partition count and
    /// fusion switch.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            costs: self.costs,
            partitions: self.partitions,
            fuse_narrow: self.fuse_narrow,
            transport: self.transport,
            offheap_cache: self.offheap_cache,
            region_alloc: self.region_alloc,
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.executors == 0 {
            return Err(ConfigError::new("executors must be at least 1"));
        }
        if self.recovery == RecoveryPolicy::CheckpointEvery(0) {
            return Err(ConfigError::new(
                "recovery: CheckpointEvery interval must be at least 1",
            ));
        }
        if !self.costs.is_valid() {
            return Err(ConfigError::new(
                "costs: every per-byte / per-record charge must be finite and non-negative",
            ));
        }
        self.heap_config().validate().map_err(ConfigError::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RunBuilder, RunError, RunSummary};
    use hybridmem::DeviceKind;
    use mheap::OldGenLayout;
    use sparklang::{ActionKind, ProgramBuilder};

    #[test]
    fn paper_default_validates_for_all_modes() {
        for mode in MemoryMode::ALL {
            SystemConfig::paper_default(mode)
                .validate()
                .unwrap_or_else(|e| {
                    panic!("{mode}: {e}");
                });
        }
    }

    #[test]
    fn capacities_split_by_ratio() {
        let c = SystemConfig::new(MemoryMode::Panthera, 120 * SIM_GB, 0.25);
        assert_eq!(c.dram_capacity(), 30 * SIM_GB);
        assert_eq!(c.nvm_capacity(), 90 * SIM_GB);
        let d = SystemConfig::new(MemoryMode::DramOnly, 120 * SIM_GB, 0.25);
        assert_eq!(d.dram_capacity(), 120 * SIM_GB);
        assert_eq!(d.nvm_capacity(), 0);
    }

    #[test]
    fn mode_layouts() {
        let layouts: Vec<OldGenLayout> = MemoryMode::ALL
            .iter()
            .map(|m| SystemConfig::paper_default(*m).heap_config().old_layout)
            .collect();
        assert_eq!(layouts[0], OldGenLayout::Unified(DeviceKind::Dram));
        assert!(matches!(layouts[1], OldGenLayout::Interleaved { .. }));
        assert_eq!(layouts[2], OldGenLayout::Unified(DeviceKind::Nvm));
        assert_eq!(layouts[3], OldGenLayout::SplitDramNvm);
        assert_eq!(layouts[4], OldGenLayout::SplitDramNvm);
    }

    /// A one-count run of a one-record source under `cfg`.
    fn count_run(cfg: SystemConfig) -> Result<RunSummary, RunError> {
        let mut b = ProgramBuilder::new("count");
        let src = b.source("nums");
        let xs = b.bind("xs", src);
        b.action(xs, ActionKind::Count);
        let (program, fns) = b.finish();
        let mut data = sparklet::DataRegistry::new();
        data.register("nums", vec![mheap::Payload::Long(1)]);
        RunBuilder::new(&program, fns, data).config(cfg).run()
    }

    #[test]
    fn configs_whose_heap_would_have_an_empty_region_are_rejected() {
        let mut unmanaged = SystemConfig::new(MemoryMode::Unmanaged, 2 * SIM_GB, 1.0 / 3.0);
        unmanaged.chunk_bytes = 0;
        let all_dram = |mode| SystemConfig::new(mode, 2 * SIM_GB, 1.0);
        let tiny = SystemConfig::new(MemoryMode::Panthera, 50, 1.0 / 3.0);
        for cfg in [
            unmanaged,
            all_dram(MemoryMode::Panthera),
            all_dram(MemoryMode::KingsguardWrites),
            tiny,
        ] {
            let what = format!("{} over {} bytes", cfg.mode, cfg.heap_bytes);
            assert!(cfg.validate().is_err(), "{what} validates");
            assert!(matches!(count_run(cfg), Err(RunError::Config(_))), "{what}");
        }
    }

    #[test]
    fn infinite_or_nan_costs_are_config_errors() {
        let fields: [fn(&mut sparklet::CostModel) -> &mut f64; 4] = [
            |c| &mut c.disk_ns_per_byte,
            |c| &mut c.net_ns_per_byte,
            |c| &mut c.serde_cpu_ns,
            |c| &mut c.mem_ns_per_byte,
        ];
        for (i, field) in fields.into_iter().enumerate() {
            for bad in [f64::INFINITY, f64::NAN] {
                let mut cfg = SystemConfig::new(MemoryMode::Panthera, 2 * SIM_GB, 1.0 / 3.0);
                *field(&mut cfg.costs) = bad;
                assert!(
                    matches!(count_run(cfg), Err(RunError::Config(_))),
                    "cost field {i} = {bad} must be rejected"
                );
            }
        }
    }

    #[test]
    fn nvm_spec_override_reaches_the_memory_system() {
        let mut c = SystemConfig::paper_default(MemoryMode::Panthera);
        c.nvm_spec = Some(DeviceSpec::stt_mram());
        assert_eq!(c.mem_config().nvm.read_latency_ns, 150.0);
        assert_eq!(
            SystemConfig::paper_default(MemoryMode::Panthera)
                .mem_config()
                .nvm
                .read_latency_ns,
            300.0,
            "default stays PCM-like"
        );
    }

    #[test]
    fn only_panthera_pads_cards_and_kw_tracks_writes() {
        for mode in MemoryMode::ALL {
            let cfg = SystemConfig::paper_default(mode).heap_config();
            assert_eq!(cfg.card_padding, mode == MemoryMode::Panthera, "{mode}");
            assert_eq!(
                cfg.track_writes,
                mode == MemoryMode::KingsguardWrites,
                "{mode}"
            );
        }
    }
}
