//! Fault injection and recovery for the Panthera cluster runtime.
//!
//! Everything here is deterministic: a [`FaultPlan`] is a *pure function
//! of a seed* and is keyed entirely to simulation structure — barrier
//! indices, gather ordinals, materialization sequence numbers — never to
//! wall-clock time or host scheduling. Replaying the same plan against
//! the same program therefore injects the same faults at the same virtual
//! instants on every run and under every host-thread budget, which is
//! what lets the test suite demand *bit-identical* reports from
//! fault-injected runs.
//!
//! Three fault classes are modeled (DESIGN.md §9):
//!
//! - **Executor crashes** ([`CrashPoint`]): an executor unwinds at a
//!   statement-barrier arrival. Barriers are perfect cut points — every
//!   collective before the barrier has completed, and none after it has
//!   been entered — so a restarted executor can replay the program from
//!   the top, re-reading completed collectives from the exchange cache.
//! - **Exchange message loss** ([`LossPoint`]): a gather contribution is
//!   "lost" and retransmitted; the sender's virtual clock is charged a
//!   retransmit penalty. Values are never corrupted — loss costs time,
//!   not correctness.
//! - **Transient allocation failures** ([`AllocFaultPoint`]): a
//!   materialization's first allocation attempt fails and is retried
//!   after a fixed virtual-time backoff.
//!
//! The crate also provides [`NvmCheckpointStore`], the NVM-resident
//! durable partition store behind `RecoveryPolicy::CheckpointEvery(n)`:
//! it survives executor heap teardown, so a restarted executor restores
//! checkpointed partitions instead of recomputing their lineage.

#![deny(missing_docs)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sparklet::{BeginOutcome, CheckpointEntry, CheckpointStore, DepositJournal, JournalOp};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Which collective a [`LossPoint`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GatherKind {
    /// A shuffle all-gather (keyed by the shuffled RDD's id).
    Shuffle,
    /// An action all-gather (keyed by the action sequence number).
    Action,
}

/// An injected executor crash: executor `exec` unwinds when it arrives
/// at statement barrier `barrier` (before depositing its clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CrashPoint {
    /// The executor that crashes.
    pub exec: u16,
    /// The statement-barrier index at which it crashes.
    pub barrier: u64,
}

/// An injected executor crash keyed to *virtual time* rather than a
/// barrier ordinal: executor `exec` unwinds at the first engine-side
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
/// The plan is data, not behavior: the cluster runtime consults it at
/// well-defined simulation points (barrier arrivals, gather entries,
/// materializations) and injects exactly the listed faults. Two runs of
/// the same program with the same plan fault — and recover — identically.
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
}

/// The NVM-resident checkpoint store.
///
/// Checkpointed partitions live *outside* any executor heap, modeling a
/// durable region of non-volatile memory: they survive executor crashes
/// and heap teardown, and a restarted executor restores from them
/// instead of recomputing lineage. Entries are keyed by
/// `(rdd id, executor)` so each executor reads back exactly the
/// partitions it owns — restores never race across executors, keeping
/// host-order out of the simulation.
///
/// `save` is idempotent with first-write-wins semantics: a replaying
/// executor re-materializing an already-checkpointed RDD does not write
/// (or get charged) twice, and the stored bytes are the ones the
/// pre-crash attempt produced — which the equivalence tests then prove
/// are bit-identical to a fault-free run's.
#[derive(Debug, Default)]
pub struct NvmCheckpointStore {
    inner: Mutex<HashMap<(u32, u16), Arc<CheckpointEntry>>>,
    journal: Mutex<HashMap<(u16, JournalOp, u64), JournalRecord>>,
}

/// One durable intent record in the store's deposit journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JournalRecord {
    /// `false` between `begin` and `commit` — the torn window.
    committed: bool,
    /// Structural digest of the guarded operation's payload.
    digest: u64,
    /// Modelled bytes of the guarded payload.
    bytes: u64,
}

impl NvmCheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of `(rdd, executor)` entries currently resident.
    pub fn entries(&self) -> usize {
        self.inner.lock().expect("checkpoint store lock").len()
    }

    /// Number of journal intent records (committed or pending).
    pub fn journal_entries(&self) -> usize {
        self.journal.lock().expect("journal lock").len()
    }

    /// Number of journal records currently *pending* — left between
    /// `begin` and `commit`. Non-zero after a run only if an executor
    /// died inside a torn window and was never restarted.
    pub fn journal_pending(&self) -> usize {
        self.journal
            .lock()
            .expect("journal lock")
            .values()
            .filter(|r| !r.committed)
            .count()
    }
}

impl DepositJournal for NvmCheckpointStore {
    fn begin(&self, exec: u16, op: JournalOp, key: u64, digest: u64, bytes: u64) -> BeginOutcome {
        let mut journal = self.journal.lock().expect("journal lock");
        match journal.get(&(exec, op, key)) {
            None => {
                journal.insert(
                    (exec, op, key),
                    JournalRecord {
                        committed: false,
                        digest,
                        bytes,
                    },
                );
                BeginOutcome::Fresh
            }
            Some(rec) if rec.digest != digest => BeginOutcome::Diverged { landed: rec.digest },
            Some(rec) => {
                if rec.committed {
                    BeginOutcome::Replay
                } else {
                    BeginOutcome::Torn
                }
            }
        }
    }

    fn commit(&self, exec: u16, op: JournalOp, key: u64) {
        let mut journal = self.journal.lock().expect("journal lock");
        let rec = journal
            .get_mut(&(exec, op, key))
            .expect("commit without begin");
        rec.committed = true;
    }
}

impl CheckpointStore for NvmCheckpointStore {
    fn save(&self, rdd: u32, exec: u16, entry: CheckpointEntry) -> bool {
        let mut map = self.inner.lock().expect("checkpoint store lock");
        if map.contains_key(&(rdd, exec)) {
            return false;
        }
        map.insert((rdd, exec), Arc::new(entry));
        true
    }

    fn load(&self, rdd: u32, exec: u16) -> Option<Arc<CheckpointEntry>> {
        self.inner
            .lock()
            .expect("checkpoint store lock")
            .get(&(rdd, exec))
            .cloned()
    }

    fn resident_bytes(&self) -> u64 {
        self.inner
            .lock()
            .expect("checkpoint store lock")
            .values()
            .map(|e| e.bytes)
            .sum()
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

    #[test]
    fn journal_begin_commit_replay_torn() {
        let store = NvmCheckpointStore::new();
        // First issue: fresh, then committed.
        assert_eq!(
            store.begin(0, JournalOp::ShuffleDeposit, 7, 0xABCD, 64),
            BeginOutcome::Fresh
        );
        assert_eq!(store.journal_pending(), 1);
        store.commit(0, JournalOp::ShuffleDeposit, 7);
        assert_eq!(store.journal_pending(), 0);
        // Replay with the same digest is a validated no-op.
        assert_eq!(
            store.begin(0, JournalOp::ShuffleDeposit, 7, 0xABCD, 64),
            BeginOutcome::Replay
        );
        // A crash between begin and commit leaves a torn entry the next
        // incarnation detects and rolls forward.
        assert_eq!(
            store.begin(1, JournalOp::CheckpointSave, 3, 0x1111, 32),
            BeginOutcome::Fresh
        );
        assert_eq!(
            store.begin(1, JournalOp::CheckpointSave, 3, 0x1111, 32),
            BeginOutcome::Torn
        );
        store.commit(1, JournalOp::CheckpointSave, 3);
        assert_eq!(
            store.begin(1, JournalOp::CheckpointSave, 3, 0x1111, 32),
            BeginOutcome::Replay
        );
        // Keys are independent across executors and operations.
        assert_eq!(
            store.begin(1, JournalOp::ShuffleDeposit, 7, 0x9999, 64),
            BeginOutcome::Fresh
        );
        assert_eq!(store.journal_entries(), 3);
    }

    /// A mismatch is reported, not asserted under the journal lock (a
    /// panic there poisoned the mutex for every other executor), and
    /// leaves the entry — committed or pending — as it was.
    #[test]
    fn journal_digest_mismatch_is_reported() {
        let store = NvmCheckpointStore::new();
        store.begin(0, JournalOp::ActionDeposit, 1, 0xAAAA, 8);
        let diverged = BeginOutcome::Diverged { landed: 0xAAAA };
        assert_eq!(
            store.begin(0, JournalOp::ActionDeposit, 1, 0xBBBB, 8),
            diverged
        );
        assert_eq!(store.journal_pending(), 1);
        store.commit(0, JournalOp::ActionDeposit, 1);
        assert_eq!(
            store.begin(0, JournalOp::ActionDeposit, 1, 0xBBBB, 8),
            diverged
        );
        assert_eq!(
            store.begin(0, JournalOp::ActionDeposit, 1, 0xAAAA, 8),
            BeginOutcome::Replay
        );
    }

    #[test]
    fn store_is_first_write_wins() {
        let store = NvmCheckpointStore::new();
        let entry = CheckpointEntry {
            parts: Vec::new(),
            global_parts: 4,
            bytes: 128,
            tag: None,
        };
        assert!(store.save(7, 0, entry.clone()));
        assert!(!store.save(
            7,
            0,
            CheckpointEntry {
                bytes: 999,
                ..entry.clone()
            }
        ));
        assert_eq!(store.load(7, 0).unwrap().bytes, 128);
        assert!(store.load(7, 1).is_none());
        assert_eq!(store.resident_bytes(), 128);
        assert_eq!(store.entries(), 1);
    }
}
