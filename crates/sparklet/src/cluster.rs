//! Cluster-mode plumbing: the contract between an executor-resident
//! [`crate::Engine`] and the driver's shuffle exchange.
//!
//! In cluster mode every executor runs the *same* driver program over its
//! own private heap, keeping only the source partitions assigned to it
//! (partition `i` belongs to executor `i % E`), which it decodes out of
//! the cluster's one packed [`SharedInput`]. Narrow stages proceed
//! independently; wide transformations and actions rendezvous through an
//! [`ExchangeClient`]: each executor contributes its local partitions
//! (one packed, pointer-free [`WireBatch`] per partition) plus its virtual
//! clock, and receives every executor's contribution plus the barrier
//! time — the maximum arrival clock, modelling straggler skew. Because
//! each rendezvous is a deterministic all-gather over structurally-aligned
//! contributions, the whole cluster is a Kahn process network: results
//! and simulated clocks are independent of host-thread scheduling.
//!
//! Everything that leaves an executor's thread — a shuffle deposit, an
//! action partial, a checkpoint snapshot — does so in that one form, and
//! is kept in it: the exchange holds every completed gather for the whole
//! run as replay state, so what a record costs there is five words for a
//! `(Text, Double)` pair, not a heap node per component. A batch is
//! encoded in one pass that also yields its modelled bytes and its
//! digest, so a [`Deposit`] is assembled from per-partition figures
//! without walking a record again.

use crate::data::SharedInput;
use crate::engine::partition_sizes;
use crate::shuffle::KeyIndex;
use mheap::WireBatch;
use sparklang::ast::MemoryTag;
use sparklang::Transform;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

/// A typed cluster failure, delivered to every executor blocked on (or
/// about to enter) a collective instead of letting them deadlock on a
/// peer that will never arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The exchange was poisoned: executor `exec` died mid-run (a real
    /// panic, or an injected crash with recovery disabled). Every waiter
    /// and every later rendezvous attempt observes this same error.
    Poisoned {
        /// The executor that failed first.
        exec: u16,
        /// Human-readable cause (panic message or injected-fault label).
        reason: String,
    },
    /// A *planned* fault from a deterministic fault plan: executor `exec`
    /// crashes on arrival at statement barrier `barrier`, at virtual time
    /// `at_ns`. With recovery enabled the driver restarts the executor;
    /// otherwise this degenerates into a poisoned exchange.
    InjectedCrash {
        /// The crashing executor.
        exec: u16,
        /// The statement barrier the crash fires at.
        barrier: u64,
        /// Virtual time of the crash (the executor's arrival clock).
        at_ns: f64,
    },
    /// Executor `exec` re-issued a journaled operation — a gather deposit
    /// or a checkpoint save — whose structural digest differs from the
    /// one that landed: replay did not reproduce the original timeline,
    /// so determinism is broken. Both detectors report it, the journal's
    /// `begin` and the exchange's duplicate-deposit check; the exchange
    /// is poisoned with this value, so every peer observes it too.
    DivergentDeposit {
        /// The executor whose replay diverged.
        exec: u16,
        /// Digest of the operation that landed first.
        landed: u64,
        /// Digest of the re-issued operation.
        replayed: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Poisoned { exec, reason } => {
                write!(f, "exchange poisoned by executor {exec}: {reason}")
            }
            ClusterError::InjectedCrash {
                exec,
                barrier,
                at_ns,
            } => write!(
                f,
                "injected crash: executor {exec} at barrier {barrier} (t={at_ns}ns)"
            ),
            ClusterError::DivergentDeposit {
                exec,
                landed,
                replayed,
            } => write!(
                f,
                "executor {exec} re-deposited a divergent payload into a gather \
                 (digest {landed:#x} landed, replay produced {replayed:#x})"
            ),
        }
    }
}

impl std::error::Error for ClusterError {}

/// Where an RDD's *local* records sit inside the global partition space.
///
/// An executor's flattened record vector is the concatenation of the
/// global partitions it owns, in ascending global-partition-id order;
/// `gids[i]` names the `i`-th owned partition and `lens[i]` its record
/// count. `global_parts` is the total partition count across the cluster,
/// so a `union` can renumber its second input past its first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartMeta {
    /// Global ids of the partitions this executor holds, ascending.
    pub gids: Vec<u64>,
    /// Record count of each held partition, parallel to `gids`.
    pub lens: Vec<usize>,
    /// Total partitions of this RDD across all executors.
    pub global_parts: u64,
}

/// An executor's place in the ownership rule: which of an RDD's global
/// partitions it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Owner {
    /// This executor's id, `0..n_exec`.
    pub exec: u16,
    /// Total executors in the cluster.
    pub n_exec: u16,
    /// The engine's partition count ([`crate::EngineConfig::partitions`]).
    pub partitions: usize,
}

impl Owner {
    /// The ownership rule shared by source scans and shuffle outputs:
    /// chunk `n` records with [`partition_sizes`] and keep the partitions
    /// with `gid % n_exec == exec`. Returns their layout and the record
    /// positions they cover (ascending, disjoint, parallel to `gids`).
    pub fn parts(self, n: usize) -> (PartMeta, Vec<Range<usize>>) {
        let sizes = partition_sizes(n, self.partitions.clamp(1, n.max(1)));
        let mut meta = PartMeta {
            gids: Vec::new(),
            lens: Vec::new(),
            global_parts: sizes.len() as u64,
        };
        let mut owned = Vec::new();
        let mut off = 0usize;
        for (gid, &len) in sizes.iter().enumerate() {
            if gid as u64 % u64::from(self.n_exec) == u64::from(self.exec) {
                meta.gids.push(gid as u64);
                meta.lens.push(len);
                owned.push(off..off + len);
            }
            off += len;
        }
        (meta, owned)
    }
}

/// One executor's map-side output for a shuffle: its local partitions of
/// each parent, keyed by global partition id.
#[derive(Debug, Clone)]
pub struct ShuffleContrib {
    /// `(global partition id, records)` for the first parent.
    pub left: WireParts,
    /// Partitions of the second parent, for two-input shuffles (join).
    pub right: Option<WireParts>,
}

/// An executor's local partitions of one RDD in wire form: `(global
/// partition id, records)`, ascending.
pub type WireParts = Vec<(u64, WireBatch)>;

/// FNV-1a over a stream of `u64` words — the structural-digest mixer
/// shared by every journaled operation. Digests are stable across
/// executors and restarts (they depend only on simulated values, never on
/// host pointers or timing).
fn fnv_words<I: IntoIterator<Item = u64>>(tag: u64, words: I) -> u64 {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = BASIS ^ tag.wrapping_mul(PRIME);
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
    h
}

/// What `parts` contributes to a digest: two words per partition — the
/// records themselves (and their count) were hashed once, as they were
/// packed.
fn part_words(parts: &[(u64, WireBatch)]) -> impl Iterator<Item = u64> + '_ {
    let each = |(gid, records): &(u64, WireBatch)| [*gid, records.digest()];
    std::iter::once(parts.len() as u64).chain(parts.iter().flat_map(each))
}

fn parts_model_bytes(parts: &[(u64, WireBatch)]) -> u64 {
    parts.iter().map(|(_, records)| records.model_bytes()).sum()
}

impl ShuffleContrib {
    /// Modelled footprint of this contribution in bytes — what the
    /// deposit occupies in a shared shuffle region (or would cost to
    /// serialize under the wire transport).
    pub fn model_bytes(&self) -> u64 {
        parts_model_bytes(&self.left) + self.right.as_deref().map_or(0, parts_model_bytes)
    }

    /// Structural digest of this contribution: partition ids and every
    /// partition's [`WireBatch::digest`] (which covers its record count). Two
    /// contributions digest equal iff they carry the same simulated
    /// values, so a replayed deposit can be *validated* as a no-op.
    pub fn digest(&self) -> u64 {
        let right = self.right.iter().flat_map(|r| part_words(r));
        let words = part_words(&self.left)
            .chain([u64::from(self.right.is_some())])
            .chain(right);
        fnv_words(1, words)
    }
}

/// A contribution on its way into a gather, with the two things every
/// layer it passes asks of it — computed once, by the depositor.
#[derive(Debug, Clone)]
pub struct Deposit<T> {
    /// The contribution itself.
    pub contrib: T,
    /// Its structural digest: what the journal and the exchange validate
    /// a replayed deposit against.
    pub digest: u64,
    /// Its modelled footprint in a shared shuffle region (0 for action
    /// partials, which never live there).
    pub bytes: u64,
}

impl From<ShuffleContrib> for Deposit<ShuffleContrib> {
    fn from(contrib: ShuffleContrib) -> Self {
        Deposit {
            digest: contrib.digest(),
            bytes: contrib.model_bytes(),
            contrib,
        }
    }
}

impl From<ActionContrib> for Deposit<ActionContrib> {
    fn from(contrib: ActionContrib) -> Self {
        Deposit {
            digest: contrib.digest(),
            bytes: 0,
            contrib,
        }
    }
}

/// One side of a gathered map output: `(origin executor, records)` per
/// map-side partition, ascending by global partition id.
type GatheredSide = Vec<(u16, WireBatch)>;

/// A completed shuffle gather: the whole map output in the order a lone
/// executor would scan it, plus the shuffle's [`KeyIndex`], built by
/// whichever executor asks first and shared by all of them (and by any
/// incarnation that replays the gather later).
#[derive(Debug)]
pub struct ShuffleGather {
    left: GatheredSide,
    right: Option<GatheredSide>,
    n_exec: u16,
    index: OnceLock<KeyIndex>,
}

impl From<Vec<ShuffleContrib>> for ShuffleGather {
    /// Merge the `E` contributions (indexed by executor id). Moves the
    /// batches; no record is touched.
    fn from(contribs: Vec<ShuffleContrib>) -> Self {
        let n_exec = contribs.len() as u16;
        let two_sided = contribs.iter().any(|c| c.right.is_some());
        let mut left = Vec::new();
        let mut right = Vec::new();
        for (origin, contrib) in contribs.into_iter().enumerate() {
            let tag = |(gid, records)| (gid, origin as u16, records);
            left.extend(contrib.left.into_iter().map(tag));
            right.extend(contrib.right.into_iter().flatten().map(tag));
        }
        let scan_order = |mut parts: Vec<(u64, u16, WireBatch)>| -> GatheredSide {
            parts.sort_by_key(|(gid, _, _)| *gid);
            let untag = |(_, origin, records)| (origin, records);
            parts.into_iter().map(untag).collect()
        };
        ShuffleGather {
            left: scan_order(left),
            right: two_sided.then(|| scan_order(right)),
            n_exec,
            index: OnceLock::new(),
        }
    }
}

impl ShuffleGather {
    /// The first parent's map output, in scan order.
    pub fn left(&self) -> Vec<(u16, &WireBatch)> {
        self.left.iter().map(|(o, recs)| (*o, recs)).collect()
    }

    /// The second parent's map output (two-input shuffles), in scan order.
    pub fn right(&self) -> Option<Vec<(u16, &WireBatch)>> {
        let right = self.right.as_ref()?;
        Some(right.iter().map(|(o, recs)| (*o, recs)).collect())
    }

    /// The shuffle's key index, built on first use. It is a pure function
    /// of the deposits and of `transform` — which every executor derives
    /// from the same program — so it does not matter who builds it, and a
    /// caller that loses the race blocks until the winner is done.
    pub fn key_index(&self, transform: &Transform) -> &KeyIndex {
        self.index.get_or_init(|| {
            let (left, right) = (self.left(), self.right());
            KeyIndex::build(transform, self.n_exec, &left, right.as_deref())
        })
    }

    /// Host bytes of packed records this gather holds on to (diagnostic;
    /// a sum of buffer lengths, so deterministic).
    pub fn host_bytes(&self) -> u64 {
        let side = |s: &GatheredSide| s.iter().map(|(_, b)| b.host_bytes()).sum::<u64>();
        side(&self.left) + self.right.as_ref().map_or(0, side)
    }

    /// Has any reader asked for the key index yet (diagnostic)?
    pub fn is_indexed(&self) -> bool {
        self.index.get().is_some()
    }
}

/// One executor's partial result for a global action.
#[derive(Debug, Clone)]
pub enum ActionContrib {
    /// Local record count (`count()`).
    Count(u64),
    /// Local partitions in `(global partition id, records)` form
    /// (`collect()`).
    Collect(WireParts),
    /// Locally-folded partial: one record, none for an empty local RDD
    /// (`reduce(f)`).
    Reduce(WireBatch),
}

impl ActionContrib {
    /// Structural digest of this partial result (see
    /// [`ShuffleContrib::digest`] for the validation contract).
    pub fn digest(&self) -> u64 {
        match self {
            ActionContrib::Count(n) => fnv_words(2, [*n]),
            ActionContrib::Collect(parts) => fnv_words(3, part_words(parts)),
            ActionContrib::Reduce(partial) => fnv_words(4, [partial.digest()]),
        }
    }

    /// Host bytes of packed records this partial holds on to (see
    /// [`ShuffleGather::host_bytes`]).
    pub fn host_bytes(&self) -> u64 {
        match self {
            ActionContrib::Count(_) => 0,
            ActionContrib::Collect(parts) => parts.iter().map(|(_, b)| b.host_bytes()).sum(),
            ActionContrib::Reduce(partial) => partial.host_bytes(),
        }
    }
}

/// The rendezvous endpoints an executor engine calls. Implementations
/// must be safe to share across executor threads; every method blocks the
/// calling executor until all `E` executors have contributed, then hands
/// each of them the full contribution vector (indexed by executor id) and
/// the barrier clock `t_bar = max` over the contributed clocks.
///
/// Re-requests are idempotent: once a shuffle, action, or barrier
/// rendezvous has completed, later calls with the same id (an evicted RDD
/// being recomputed, or a restarted executor replaying its program) are
/// served from the completed result without blocking and without
/// depositing the new contribution.
///
/// Every method returns `Err` instead of blocking forever when the
/// exchange has been poisoned by a failed peer, may return
/// [`ClusterError::InjectedCrash`] to fire a planned fault against the
/// calling executor, and returns [`ClusterError::DivergentDeposit`] (to
/// the caller and, through the poisoned exchange, to every peer) when a
/// re-issued deposit does not digest like the one that landed.
pub trait ExchangeClient: Send + Sync {
    /// Contribute to (or re-read) the gather for shuffle node `rdd`.
    fn gather_shuffle(
        &self,
        exec: u16,
        rdd: u32,
        deposit: Deposit<ShuffleContrib>,
        clock_ns: f64,
    ) -> Result<(Arc<ShuffleGather>, f64), ClusterError>;

    /// Contribute to (or re-read) the gather for the `seq`-th action.
    fn gather_action(
        &self,
        exec: u16,
        seq: u64,
        deposit: Deposit<ActionContrib>,
        clock_ns: f64,
    ) -> Result<(Arc<Vec<ActionContrib>>, f64), ClusterError>;

    /// Statement barrier `index`: block until every executor arrives,
    /// return the barrier clock.
    fn barrier(&self, exec: u16, index: u64, clock_ns: f64) -> Result<f64, ClusterError>;
}

/// A durable partition snapshot: one executor's share of a checkpointed
/// RDD, in packed wire form. Snapshots model data living in the NVM
/// component of the old generation — they survive the owning executor's
/// heap teardown, which is exactly what recovery needs.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// `(global partition id, records)` for each owned partition.
    pub parts: WireParts,
    /// Total partitions of the RDD across all executors.
    pub global_parts: u64,
    /// Modelled bytes of the snapshot (what the NVM writes cost).
    pub bytes: u64,
    /// The RDD's memory tag at snapshot time, restored verbatim.
    pub tag: Option<MemoryTag>,
}

impl CheckpointEntry {
    /// Structural digest of this snapshot (see
    /// [`ShuffleContrib::digest`] for the validation contract).
    pub fn digest(&self) -> u64 {
        // `tag` is deliberately excluded: placement tags merge over an
        // incarnation's lifetime, so a legitimate re-save after eviction
        // may carry a drifted tag for the *same* records. The digest
        // covers simulated values only.
        fnv_words(
            5,
            part_words(&self.parts).chain([self.global_parts, self.bytes]),
        )
    }
}

/// Durable checkpoint storage keyed by `(rdd id, executor id)`. The store
/// outlives every executor heap; `save` is idempotent (the first write
/// wins, so a replaying executor never double-charges a snapshot), and a
/// stored snapshot is shared, never copied, with whoever reads it back.
pub trait CheckpointStore: Send + Sync {
    /// Persist a snapshot. Returns `false` (and drops the entry) if one
    /// already exists for this key.
    fn save(&self, rdd: u32, exec: u16, entry: CheckpointEntry) -> bool;
    /// Read back a snapshot, if one was saved.
    fn load(&self, rdd: u32, exec: u16) -> Option<Arc<CheckpointEntry>>;
    /// Total modelled bytes currently resident in the store.
    fn resident_bytes(&self) -> u64;
}

/// Which durable side effect a journal entry guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JournalOp {
    /// A shuffle-gather deposit, keyed by the shuffle RDD's id.
    ShuffleDeposit,
    /// An action-gather deposit, keyed by the action sequence number.
    ActionDeposit,
    /// A checkpoint save, keyed by the checkpointed RDD's id.
    CheckpointSave,
}

/// What [`DepositJournal::begin`] found for an `(exec, op, key)` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginOutcome {
    /// No journal entry existed: this is the operation's first issue. The
    /// entry is now pending; the caller must perform the effect and then
    /// [`DepositJournal::commit`].
    Fresh,
    /// A committed entry with a matching digest existed: the operation
    /// already happened in a previous incarnation and this re-issue is a
    /// validated no-op. The caller must still re-read the result (gathers
    /// are idempotent re-reads) but must not re-charge the effect.
    Replay,
    /// A *pending* entry existed: the previous incarnation crashed after
    /// `begin` but before `commit` — a torn operation. The entry has been
    /// re-armed; the caller rolls forward by performing the effect again
    /// and committing.
    Torn,
    /// An entry existed with a *different* digest: replay re-issued
    /// something other than the operation it journaled, so determinism
    /// is broken. The entry is left as it was; the caller must fail the
    /// run ([`ClusterError::DivergentDeposit`]).
    Diverged {
        /// The digest the journal holds.
        landed: u64,
    },
}

/// The durable intent journal for exchange deposits and checkpoint saves,
/// living in the NVM store so it survives executor heap teardown.
///
/// Protocol (write → persist → validate, after Metall's crash-consistent
/// discipline): `begin` persists the intent record `(op, key, digest,
/// bytes)` *before* the effect; the effect happens; `commit` marks the
/// record durable. A crash between `begin` and `commit` leaves a *torn*
/// entry that replay detects and rolls forward; a replayed operation
/// whose entry is already committed is digest-validated and skipped — a
/// provable no-op. A digest mismatch means replay diverged from the
/// original timeline (determinism is broken): `begin` reports
/// [`BeginOutcome::Diverged`] and the run fails with a typed error.
///
/// Journal bookkeeping charges **no** virtual time: the intent record
/// piggybacks on the NVM writes the guarded effect already pays for, so
/// fault-free runs are bit-identical with or without journaling.
pub trait DepositJournal: Send + Sync {
    /// Persist (or re-validate) the intent record for one operation.
    /// [`BeginOutcome::Diverged`] if an existing entry's digest differs
    /// from `digest` — the replay is not re-issuing the same operation it
    /// journaled.
    fn begin(&self, exec: u16, op: JournalOp, key: u64, digest: u64, bytes: u64) -> BeginOutcome;

    /// Mark the pending entry committed. A no-op if the entry was already
    /// committed (the `Replay` path never re-pends it).
    fn commit(&self, exec: u16, op: JournalOp, key: u64);
}

/// A timeline mark kept across executor restarts so the surviving attempt
/// can re-synthesize crash/recovery events for the merged trace (each
/// crashed attempt's event buffer dies with it).
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryMark {
    /// The executor crashed on arrival at `barrier`.
    Crash {
        /// Barrier index the crash fired at.
        barrier: u64,
    },
    /// Restart `attempt` began replaying the program.
    Start {
        /// 1-based restart attempt.
        attempt: u32,
    },
    /// Replay re-reached the crash barrier; recovery is complete.
    End {
        /// Barrier index the recovery caught up to.
        barrier: u64,
        /// Virtual time spent recovering (crash → caught up).
        recovery_ns: f64,
    },
}

obs::counters! {
    /// Fault-tolerance counters for one run (or one executor of a cluster
    /// run): what was injected, what was lost, and what recovery cost in
    /// virtual time and NVM traffic. All zeros in a fault-free run without
    /// checkpointing.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct RecoveryStats {
        /// Injected executor crashes that fired.
        pub executor_crashes: u64,
        /// Injected exchange message losses (charged as retransmit latency).
        pub messages_lost: u64,
        /// Injected transient allocation failures (charged as retries).
        pub alloc_faults: u64,
        /// Materialized partitions lost when an executor's heap died.
        pub partitions_lost: u64,
        /// Partitions rebuilt by lineage recomputation during replay.
        pub partitions_recomputed: u64,
        /// Partitions restored from NVM checkpoints instead of recomputed.
        pub partitions_restored: u64,
        /// Shuffle stages re-executed during replay.
        pub stages_recomputed: u64,
        /// Checkpoint snapshots written to the durable NVM store
        /// (first-write only).
        pub checkpoint_writes: u64,
        /// Modelled bytes written to NVM checkpoints.
        pub checkpoint_bytes: u64,
        /// Modelled bytes read back from NVM checkpoints.
        pub restore_bytes: u64,
        /// Journaled operations (exchange deposits, checkpoint saves) that a
        /// replay re-issued and the journal validated as no-ops.
        pub journal_noops: u64,
        /// Torn journal entries (crash between `begin` and `commit`) found
        /// and rolled forward during replay.
        pub journal_torn: u64,
        /// Virtual time spent recovering (crash → replay caught up), seconds.
        pub recovery_s: f64,
    }
}

/// Mutable per-executor recovery bookkeeping, shared between the driver's
/// restart loop, the fault-injecting exchange wrapper, and the engine's
/// checkpoint/replay hooks. All counters are driven by virtual-time events
/// on one executor's (serialized) timeline, so values are deterministic
/// regardless of host threading.
#[derive(Debug, Clone, Default)]
pub struct RecoveryCounters {
    /// Completed restart attempts (0 while the first incarnation runs).
    pub attempt: u32,
    /// True from restart until replay re-reaches the crash barrier.
    pub in_replay: bool,
    /// The barrier index replay must reach to complete recovery. Under
    /// nested faults (a crash during replay) this only ever grows: it
    /// tracks the *furthest* barrier any enclosing recovery must reach.
    pub replay_until: Option<u64>,
    /// How many crashes the current recovery window encloses (0 when not
    /// replaying). A crash during replay deepens the window instead of
    /// opening a second one, so window-scoped stats count once.
    pub replay_depth: u32,
    /// Virtual time the *outermost* open recovery window began (the first
    /// crash's time). Not overwritten by nested crashes, so `recovery_ns`
    /// spans the whole window exactly once.
    pub recovery_started_ns: f64,
    /// Virtual time of the most recent crash — where the next incarnation
    /// resumes its clock from (plus the restart penalty).
    pub last_crash_ns: f64,
    /// The report's counters, ticked as recovery events happen. Its
    /// `recovery_s` stays 0 here: the driver fills it from `recovery_ns`.
    pub stats: RecoveryStats,
    /// Total virtual time spent recovering, summed over crashes.
    pub recovery_ns: f64,
    /// Partitions currently materialized in this incarnation's heap
    /// (what a crash right now would lose).
    pub live_partitions: u64,
    /// Heap materializations performed so far, across attempts — the
    /// deterministic sequence alloc-fault points key on.
    pub materialize_seq: u64,
    /// Virtual-time crash points already consumed (index into the
    /// executor's sorted crash-point list; survives restarts so each
    /// point fires exactly once).
    pub vcrash_next: usize,
    /// Timeline marks surviving restarts, for event re-synthesis.
    pub marks: Vec<(f64, RecoveryMark)>,
}

/// Shared handle to one executor's [`RecoveryCounters`].
#[derive(Debug, Default)]
pub struct RecoverySlot {
    inner: Mutex<RecoveryCounters>,
}

impl RecoverySlot {
    /// A fresh slot with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` under the slot lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut RecoveryCounters) -> R) -> R {
        let mut guard = self.inner.lock().expect("recovery slot lock");
        f(&mut guard)
    }
}

/// The engine-facing recovery configuration for one executor: where
/// checkpoints go, how often to take them, and which planned allocation
/// faults to fire.
#[derive(Clone)]
pub struct RecoveryCtx {
    /// Durable checkpoint storage shared by the whole cluster.
    pub store: Arc<dyn CheckpointStore>,
    /// Auto-checkpoint every `n`-th wide (shuffle) RDD; `0` checkpoints
    /// only explicitly `checkpoint()`-marked RDDs.
    pub checkpoint_every: u32,
    /// This executor's shared recovery bookkeeping.
    pub slot: Arc<RecoverySlot>,
    /// Materialization ordinals at which a transient allocation failure
    /// fires (sorted, each fires at most once — ordinals never repeat).
    pub alloc_faults: Arc<Vec<u64>>,
    /// Virtual-time cost charged per allocation-failure retry.
    pub alloc_retry_ns: f64,
    /// The durable intent journal guarding exchange deposits and
    /// checkpoint saves, shared by the whole cluster.
    pub journal: Arc<dyn DepositJournal>,
    /// Virtual times at which this executor crashes (sorted ascending;
    /// each fires at the first engine probe whose clock reaches it,
    /// consumed via [`RecoveryCounters::vcrash_next`]).
    pub crash_points: Arc<Vec<f64>>,
}

impl fmt::Debug for RecoveryCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RecoveryCtx")
            .field("checkpoint_every", &self.checkpoint_every)
            .field("alloc_faults", &self.alloc_faults)
            .field("alloc_retry_ns", &self.alloc_retry_ns)
            .finish_non_exhaustive()
    }
}

/// An executor's view of the cluster it runs in.
#[derive(Clone)]
pub struct ClusterCtx {
    /// This executor's id, `0..n_exec`.
    pub exec: u16,
    /// Total executors in the cluster.
    pub n_exec: u16,
    /// The shared exchange all executors rendezvous through.
    pub exchange: Arc<dyn ExchangeClient>,
    /// The cluster's one packed copy of the input: a member reads every
    /// source scan from here, never from a [`crate::DataRegistry`].
    pub input: Arc<SharedInput>,
    /// Recovery wiring (checkpoints, fault points, counters), when the
    /// cluster runs under a recovery policy or fault plan.
    pub recovery: Option<RecoveryCtx>,
}

impl fmt::Debug for ClusterCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterCtx")
            .field("exec", &self.exec)
            .field("n_exec", &self.n_exec)
            .finish_non_exhaustive()
    }
}
