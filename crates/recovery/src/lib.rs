//! What to inject into a Panthera cluster run: deterministic fault plans.
//!
//! Everything here is deterministic: a [`FaultPlan`] is a *pure function
//! of a seed* and is keyed entirely to simulation structure — barrier
//! indices, virtual time, gather ordinals, materialization sequence
//! numbers — never to wall-clock time or host scheduling. Replaying the
//! same plan against the same program therefore injects the same faults
//! at the same virtual instants on every run and under every host-thread
//! budget, which is what lets the test suite demand *bit-identical*
//! reports from fault-injected runs.
//!
//! Four kinds of fault point are modeled (DESIGN.md §9, §12). The plan is
//! data: [`FaultPlan::for_executor`] slices it into one executor's
//! [`ExecFaults`], and the engine's own probes fire every point —
//! nothing in the exchange does.
//!
//! - **Barrier crashes** ([`CrashPoint`]): an executor stops on arrival
//!   at a statement barrier, before depositing its clock. Barriers are
//!   perfect cut points — every collective before the barrier has
//!   completed, and none after it has been entered — so a restarted
//!   executor can replay the program from the top, re-reading completed
//!   collectives from the exchange cache.
//! - **Virtual-time crashes** ([`VCrashPoint`]): an executor stops at
//!   the first engine probe whose clock has reached a planned instant —
//!   mid-stage, mid-deposit, mid-checkpoint or mid-replay.
//! - **Exchange message loss** ([`LossPoint`]): just before a gather, the
//!   contribution is "lost" and retransmitted; the sender's deposit clock
//!   is charged a retransmit penalty. Values are never corrupted — loss
//!   costs time, not correctness.
//! - **Transient allocation failures** ([`AllocFaultPoint`]): a
//!   materialization's first allocation attempt fails and is retried
//!   after a fixed virtual-time backoff.
//!
//! What recovers from them — the NVM checkpoint store and deposit
//! journal, replay bookkeeping — lives in `sparklet`
//! ([`sparklet::NvmCheckpointStore`]) and the cluster driver.

#![deny(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
pub use sparklet::GatherKind;
use sparklet::{ps_of, ExecFaults};

/// An injected executor crash: executor `exec` stops when it arrives
/// at statement barrier `barrier` (before depositing its clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CrashPoint {
    /// The executor that crashes.
    pub exec: u16,
    /// The statement-barrier index at which it crashes.
    pub barrier: u64,
}

/// An injected executor crash keyed to *virtual time* rather than a
/// barrier ordinal: executor `exec` stops at the first engine-side
/// fault probe whose simulated clock has reached `at_ns`. Probes sit at
/// every interruptible point — partition materializations, barrier
/// entries, either side of a gather deposit, and inside a checkpoint
/// save — so a virtual-time crash can land mid-stage, mid-deposit,
/// mid-checkpoint, or during a prior recovery's replay.
///
/// Because each executor's clock sequence is a pure function of the
/// program (the cluster is a Kahn network), "first probe at or after
/// `at_ns`" is a deterministic point: the same plan fires at the same
/// probe on every run and under every host-thread budget.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct VCrashPoint {
    /// The executor that crashes.
    pub exec: u16,
    /// The virtual time at (or after) which the crash fires.
    pub at_ns: f64,
}

/// An injected message loss: executor `exec`'s `ordinal`-th gather of
/// kind `kind` (counting per executor per kind, from zero, across
/// restarts) loses its contribution once and pays a retransmit penalty.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LossPoint {
    /// The executor whose contribution is lost.
    pub exec: u16,
    /// Which collective family the loss hits.
    pub kind: GatherKind,
    /// Zero-based per-executor, per-kind gather ordinal.
    pub ordinal: u64,
}

/// An injected transient allocation failure: executor `exec`'s
/// `materialization`-th partition materialization (a monotone sequence
/// spanning restarts) fails its first allocation attempt and retries
/// after a fixed virtual-time backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocFaultPoint {
    /// The executor that experiences the fault.
    pub exec: u16,
    /// Zero-based materialization sequence number on that executor.
    pub materialization: u64,
}

/// Bounds for [`FaultPlan::generate`]: how much of each fault class a
/// randomly drawn plan may contain, plus the (deterministic) virtual-time
/// penalties each fault charges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Exact number of executor crashes to inject (deduplicated crash
    /// points may make the realized count smaller).
    pub crashes: u32,
    /// Lowest barrier index eligible for a crash (inclusive).
    pub barrier_lo: u64,
    /// Highest barrier index eligible for a crash (inclusive).
    pub barrier_hi: u64,
    /// Maximum number of message-loss points to draw.
    pub max_losses: u32,
    /// Maximum number of transient allocation faults to draw.
    pub max_alloc_faults: u32,
    /// Exact number of virtual-time crash points to draw (0 — the
    /// default — keeps the plan barrier-only, so pre-existing seeds
    /// reproduce the exact plans they always did).
    pub vcrashes: u32,
    /// Lowest virtual time eligible for a [`VCrashPoint`] (inclusive).
    pub vtime_lo_ns: f64,
    /// Highest virtual time eligible for a [`VCrashPoint`] (exclusive).
    pub vtime_hi_ns: f64,
    /// Virtual time to bring a replacement executor up (charged once per
    /// crash, on top of replaying at the crash-time clock offset).
    pub restart_penalty_ns: f64,
    /// Virtual time one retransmitted gather contribution costs.
    pub retransmit_penalty_ns: f64,
    /// Virtual-time backoff before a failed allocation is retried.
    pub alloc_retry_ns: f64,
    /// Whether the driver restarts crashed executors. `false` turns an
    /// injected crash into a run-fatal error (used to test the poisoned
    /// exchange path).
    pub recover: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            crashes: 1,
            barrier_lo: 1,
            barrier_hi: 8,
            max_losses: 2,
            max_alloc_faults: 2,
            vcrashes: 0,
            vtime_lo_ns: 0.0,
            vtime_hi_ns: 0.0,
            restart_penalty_ns: 5.0e6,
            retransmit_penalty_ns: 2.0e5,
            alloc_retry_ns: 1.0e5,
            recover: true,
        }
    }
}

/// A complete, deterministic fault schedule for one cluster run.
///
/// The plan is data, not behavior: the driver hands each executor its
/// [`FaultPlan::for_executor`] slice, and the engine's probes inject
/// exactly the listed faults at well-defined simulation points (barrier
/// arrivals, gather entries, materializations, virtual instants). Two
/// runs of the same program with the same plan fault — and recover —
/// identically.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Executor crashes, fired at barrier arrival.
    pub crashes: Vec<CrashPoint>,
    /// Executor crashes keyed to virtual time, fired at the first engine
    /// fault probe whose clock reaches the point (DESIGN.md §12).
    pub vcrashes: Vec<VCrashPoint>,
    /// Gather-contribution losses, each charged a retransmit penalty.
    pub losses: Vec<LossPoint>,
    /// Transient allocation failures, each charged a retry backoff.
    pub alloc_faults: Vec<AllocFaultPoint>,
    /// Virtual time charged to bring a restarted executor up.
    pub restart_penalty_ns: f64,
    /// Virtual time charged per lost gather contribution.
    pub retransmit_penalty_ns: f64,
    /// Virtual time charged per failed allocation attempt.
    pub alloc_retry_ns: f64,
    /// Whether crashed executors are restarted (vs. failing the run).
    pub recover: bool,
}

impl FaultPlan {
    /// The empty plan: no faults, recovery enabled. A run under the empty
    /// plan is bit-identical to a run without fault machinery at all.
    pub fn none() -> Self {
        FaultPlan {
            crashes: Vec::new(),
            vcrashes: Vec::new(),
            losses: Vec::new(),
            alloc_faults: Vec::new(),
            restart_penalty_ns: 0.0,
            retransmit_penalty_ns: 0.0,
            alloc_retry_ns: 0.0,
            recover: true,
        }
    }

    /// A plan with exactly one crash and nothing else, with default
    /// penalties. The workhorse for targeted tests.
    pub fn single_crash(exec: u16, barrier: u64) -> Self {
        let spec = FaultSpec::default();
        FaultPlan {
            crashes: vec![CrashPoint { exec, barrier }],
            ..FaultPlan::with_defaults(spec)
        }
    }

    /// A plan with exactly one virtual-time crash and nothing else, with
    /// default penalties. The workhorse for crash-anywhere tests.
    pub fn crash_at(exec: u16, at_ns: f64) -> Self {
        FaultPlan {
            vcrashes: vec![VCrashPoint { exec, at_ns }],
            ..FaultPlan::with_defaults(FaultSpec::default())
        }
    }

    /// An empty plan carrying `spec`'s penalties and recovery switch.
    fn with_defaults(spec: FaultSpec) -> Self {
        FaultPlan {
            restart_penalty_ns: spec.restart_penalty_ns,
            retransmit_penalty_ns: spec.retransmit_penalty_ns,
            alloc_retry_ns: spec.alloc_retry_ns,
            recover: spec.recover,
            ..FaultPlan::none()
        }
    }

    /// Draw a random plan within `spec`'s bounds, fully determined by
    /// `seed` and `n_exec`. Crash points are deduplicated (two crashes of
    /// the same executor at the same barrier would be one crash) and
    /// sorted, so the plan is canonical: equal seeds give equal plans.
    pub fn generate(seed: u64, n_exec: u16, spec: FaultSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = u64::from(n_exec.max(1));
        let mut crashes = Vec::new();
        for _ in 0..spec.crashes {
            let exec = rng.random_range(0..n) as u16;
            let barrier = rng.random_range(spec.barrier_lo..spec.barrier_hi + 1);
            let p = CrashPoint { exec, barrier };
            if !crashes.contains(&p) {
                crashes.push(p);
            }
        }
        crashes.sort();
        let n_losses = rng.random_range(0..u64::from(spec.max_losses) + 1);
        let mut losses = Vec::new();
        for _ in 0..n_losses {
            let exec = rng.random_range(0..n) as u16;
            let kind = if rng.random::<bool>() {
                GatherKind::Shuffle
            } else {
                GatherKind::Action
            };
            let ordinal = rng.random_range(0..6u64);
            let p = LossPoint {
                exec,
                kind,
                ordinal,
            };
            if !losses.contains(&p) {
                losses.push(p);
            }
        }
        losses.sort();
        let n_alloc = rng.random_range(0..u64::from(spec.max_alloc_faults) + 1);
        let mut alloc_faults = Vec::new();
        for _ in 0..n_alloc {
            let exec = rng.random_range(0..n) as u16;
            let materialization = rng.random_range(0..12u64);
            let p = AllocFaultPoint {
                exec,
                materialization,
            };
            if !alloc_faults.contains(&p) {
                alloc_faults.push(p);
            }
        }
        alloc_faults.sort();
        // Virtual-time crash points are drawn *after* every legacy draw,
        // so plans generated by pre-crash-anywhere seeds (vcrashes == 0)
        // consume the identical random stream and reproduce bit-for-bit.
        let mut vcrashes = Vec::new();
        if spec.vcrashes > 0 && spec.vtime_hi_ns > spec.vtime_lo_ns {
            for _ in 0..spec.vcrashes {
                let exec = rng.random_range(0..n) as u16;
                let at_ns = rng.random_range(spec.vtime_lo_ns..spec.vtime_hi_ns);
                vcrashes.push(VCrashPoint { exec, at_ns });
            }
            vcrashes.sort_by(|a, b| {
                (a.exec, a.at_ns)
                    .partial_cmp(&(b.exec, b.at_ns))
                    .expect("crash times are finite")
            });
        }
        FaultPlan {
            crashes,
            vcrashes,
            losses,
            alloc_faults,
            restart_penalty_ns: spec.restart_penalty_ns,
            retransmit_penalty_ns: spec.retransmit_penalty_ns,
            alloc_retry_ns: spec.alloc_retry_ns,
            recover: spec.recover,
        }
    }

    /// True if the plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.vcrashes.is_empty()
            && self.losses.is_empty()
            && self.alloc_faults.is_empty()
    }

    /// Check the plan against a cluster of `n_exec` executors: every
    /// point names one of them, every crash time is finite (the slices
    /// sort by it), and every penalty is finite and non-negative (each
    /// moves a virtual clock, which never runs backwards).
    ///
    /// # Errors
    ///
    /// The first violation, as text.
    pub fn validate(&self, n_exec: u16) -> Result<(), String> {
        let execs = self
            .crashes
            .iter()
            .map(|p| p.exec)
            .chain(self.vcrashes.iter().map(|p| p.exec))
            .chain(self.losses.iter().map(|p| p.exec))
            .chain(self.alloc_faults.iter().map(|p| p.exec));
        if let Some(exec) = execs.max().filter(|&e| e >= n_exec) {
            return Err(format!(
                "fault plan names executor {exec} of a {n_exec}-executor cluster"
            ));
        }
        if let Some(p) = self.vcrashes.iter().find(|p| !p.at_ns.is_finite()) {
            return Err(format!(
                "fault plan crashes executor {} at t={}ns",
                p.exec, p.at_ns
            ));
        }
        let penalties = [
            ("restart_penalty_ns", self.restart_penalty_ns),
            ("retransmit_penalty_ns", self.retransmit_penalty_ns),
            ("alloc_retry_ns", self.alloc_retry_ns),
        ];
        match penalties
            .iter()
            .find(|(_, ns)| !(ns.is_finite() && *ns >= 0.0))
        {
            Some((name, ns)) => Err(format!("fault plan {name} is {ns}")),
            None => Ok(()),
        }
    }

    /// Executor `exec`'s slice of the plan, every list sorted ascending
    /// (so a literal plan may list its points in any order). A barrier
    /// crash listed twice stays twice: the executor crashes there again
    /// on replay.
    pub fn for_executor(&self, exec: u16) -> ExecFaults {
        /// The keys `key` picks out of `points`, ascending.
        fn sorted<P, T: Ord>(points: &[P], key: impl Fn(&P) -> Option<T>) -> Vec<T> {
            let mut v: Vec<T> = points.iter().filter_map(key).collect();
            v.sort_unstable();
            v
        }
        let losses = |kind| {
            sorted(&self.losses, |p| {
                (p.exec == exec && p.kind == kind).then_some(p.ordinal)
            })
        };
        ExecFaults {
            barrier_crashes: sorted(&self.crashes, |p| (p.exec == exec).then_some(p.barrier)),
            vcrashes: sorted(&self.vcrashes, |p| (p.exec == exec).then(|| ps_of(p.at_ns))),
            shuffle_losses: losses(GatherKind::Shuffle),
            action_losses: losses(GatherKind::Action),
            alloc_faults: sorted(&self.alloc_faults, |p| {
                (p.exec == exec).then_some(p.materialization)
            }),
            retransmit_ps: ps_of(self.retransmit_penalty_ns),
            alloc_retry_ns: self.alloc_retry_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let spec = FaultSpec {
            crashes: 2,
            max_losses: 3,
            max_alloc_faults: 3,
            ..FaultSpec::default()
        };
        let a = FaultPlan::generate(42, 4, spec);
        let b = FaultPlan::generate(42, 4, spec);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 4, spec);
        // Different seeds almost surely differ somewhere; at minimum the
        // plan must stay within spec bounds.
        for p in &c.crashes {
            assert!(p.exec < 4);
            assert!((spec.barrier_lo..=spec.barrier_hi).contains(&p.barrier));
        }
        assert!(c.losses.len() <= spec.max_losses as usize);
        assert!(c.alloc_faults.len() <= spec.max_alloc_faults as usize);
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::single_crash(0, 1).is_empty());
        assert!(!FaultPlan::crash_at(0, 1.0e6).is_empty());
    }

    #[test]
    fn vcrash_draws_do_not_perturb_legacy_plans() {
        let legacy = FaultSpec {
            crashes: 2,
            max_losses: 3,
            max_alloc_faults: 3,
            ..FaultSpec::default()
        };
        let extended = FaultSpec {
            vcrashes: 2,
            vtime_lo_ns: 0.0,
            vtime_hi_ns: 1.0e9,
            ..legacy
        };
        let a = FaultPlan::generate(0xC0FFEE, 4, legacy);
        let b = FaultPlan::generate(0xC0FFEE, 4, extended);
        // The virtual-time draws happen after every legacy draw, so the
        // legacy portion of the plan is identical.
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.losses, b.losses);
        assert_eq!(a.alloc_faults, b.alloc_faults);
        assert!(a.vcrashes.is_empty());
        assert_eq!(b.vcrashes.len(), 2);
        for p in &b.vcrashes {
            assert!(p.exec < 4);
            assert!((0.0..1.0e9).contains(&p.at_ns));
        }
    }
}
