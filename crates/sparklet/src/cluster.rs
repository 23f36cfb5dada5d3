//! Cluster-mode plumbing: what an executor-resident [`crate::Engine`]
//! hands the driver's [`Exchange`] and gets back from it.
//!
//! In cluster mode every executor runs the *same* driver program over its
//! own private heap, keeping only the source partitions assigned to it
//! (partition `i` belongs to executor `i % E`), which it decodes out of
//! the cluster's one packed [`SharedInput`]. Narrow stages proceed
//! independently; wide transformations and actions rendezvous through the
//! [`Exchange`]: each executor contributes its local partitions
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
use crate::shuffle::{KeyIndex, KeylessRecord};
use hybridmem::{ns_of, ps_of};
use mheap::{Fnv, WireBatch};
use sparklang::ast::MemoryTag;
use sparklang::Transform;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};

// The exchange, the rendezvous behind every collective here, has a
// file of its own.
#[path = "exchange.rs"]
mod exchange;

use exchange::lock;
pub use exchange::Exchange;

/// A typed cluster failure, delivered to every executor blocked on (or
/// about to enter) a collective instead of letting them deadlock on a
/// peer that will never arrive.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The exchange was poisoned: executor `exec` stopped mid-run (a real
    /// panic, an executor that did not start, or an injected crash with
    /// recovery disabled). Every waiter and every later rendezvous
    /// attempt returns this same error.
    Poisoned {
        /// The executor that failed first.
        exec: u16,
        /// Human-readable cause (a panic, a failed start, or the injected
        /// fault).
        reason: String,
    },
    /// A *planned* fault from a deterministic fault plan, fired by one of
    /// the engine's probes: executor `exec` crashes at virtual time
    /// `at_ps`, on arrival at statement barrier `barrier` or on its way
    /// there. With recovery enabled the driver restarts the executor;
    /// otherwise this degenerates into a poisoned exchange.
    InjectedCrash {
        /// The crashing executor.
        exec: u16,
        /// The statement barrier the executor was at or heading for.
        barrier: u64,
        /// Virtual time of the crash in picoseconds (the executor's clock
        /// at the probe).
        at_ps: u64,
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
    /// Executor `exec` asked for a host run permit it already holds — an
    /// incarnation acquired twice, which would deadlock a single-permit
    /// pool. The exchange is poisoned with this value.
    PermitHeld {
        /// The executor that acquired twice.
        exec: u16,
    },
    /// A shuffle of `rdd` met a map-side record with no shuffle key
    /// ([`crate::KeylessRecord`]): the program is at fault, and the run
    /// stops. A cluster reports the first such record of the gathered
    /// map output in scan order, as a lone executor does of its own.
    KeylessRecord {
        /// The shuffled RDD.
        rdd: u32,
        /// The record, as `{:?}` prints it.
        record: String,
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
                at_ps,
            } => write!(
                f,
                "injected crash: executor {exec} at barrier {barrier} (t={}ns)",
                ns_of(*at_ps)
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
            ClusterError::PermitHeld { exec } => {
                write!(f, "executor {exec} acquired a run permit it already holds")
            }
            ClusterError::KeylessRecord { rdd, record } => {
                write!(
                    f,
                    "shuffle of rdd[{rdd}]: payload {record} has no shuffle key"
                )
            }
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
    let mut h = Fnv::tagged(tag);
    for w in words {
        h.write_u64(w);
    }
    h.finish()
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
/// executor would scan it, plus the shuffle's [`KeyIndex`] (or the
/// keyless record that stops it being built), built by whichever executor
/// asks first and shared by all of them (and by any incarnation that
/// replays the gather later).
#[derive(Debug)]
pub struct ShuffleGather {
    left: GatheredSide,
    right: Option<GatheredSide>,
    n_exec: u16,
    index: OnceLock<Result<KeyIndex, KeylessRecord>>,
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
    ///
    /// # Errors
    ///
    /// [`KeylessRecord`] for the first record without a shuffle key, in
    /// scan order — every caller gets the same one.
    pub fn key_index(&self, transform: &Transform) -> Result<&KeyIndex, KeylessRecord> {
        let index = self.index.get_or_init(|| {
            let (left, right) = (self.left(), self.right());
            KeyIndex::build(transform, self.n_exec, &left, right.as_deref())
        });
        index.as_ref().map_err(Clone::clone)
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

/// The NVM-resident checkpoint store and deposit journal, shared by every
/// executor of a cluster run.
///
/// Checkpointed partitions live *outside* any executor heap, modeling a
/// durable region of non-volatile memory: they survive executor crashes
/// and heap teardown, and a restarted executor restores from them
/// instead of recomputing lineage. Entries are keyed by
/// `(rdd id, executor)` so each executor reads back exactly the
/// partitions it owns — restores never race across executors, keeping
/// host-order out of the simulation.
///
/// [`save`](Self::save) is idempotent with first-write-wins semantics: a
/// replaying executor re-materializing an already-checkpointed RDD does
/// not write (or get charged) twice, and the stored bytes are the ones
/// the pre-crash attempt produced. A stored snapshot is shared, never
/// copied, with whoever reads it back.
///
/// The journal guards exchange deposits and checkpoint saves after
/// Metall's crash-consistent write → persist → validate discipline:
/// [`begin`](Self::begin) persists the intent record `(op, key, digest,
/// bytes)` *before* the effect; the effect happens;
/// [`commit`](Self::commit) marks the record durable. A crash between
/// the two leaves a *torn* entry that replay detects and rolls forward; a
/// replayed operation whose entry is already committed is digest-validated
/// and skipped — a provable no-op. A digest mismatch means replay diverged
/// from the original timeline (determinism is broken): `begin` reports
/// [`BeginOutcome::Diverged`] and the run fails with a typed error.
/// Journal bookkeeping charges **no** virtual time: the intent record
/// piggybacks on the NVM writes the guarded effect already pays for, so
/// fault-free runs are bit-identical with or without journaling.
#[derive(Debug, Default)]
pub struct NvmCheckpointStore {
    snapshots: Mutex<HashMap<(u32, u16), Arc<CheckpointEntry>>>,
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

    /// Persist a snapshot. Returns `false` (and drops the entry) if one
    /// already exists for this key.
    pub fn save(&self, rdd: u32, exec: u16, entry: CheckpointEntry) -> bool {
        let mut map = lock(&self.snapshots);
        if map.contains_key(&(rdd, exec)) {
            return false;
        }
        map.insert((rdd, exec), Arc::new(entry));
        true
    }

    /// Read back a snapshot, if one was saved.
    pub fn load(&self, rdd: u32, exec: u16) -> Option<Arc<CheckpointEntry>> {
        lock(&self.snapshots).get(&(rdd, exec)).cloned()
    }

    /// Number of `(rdd, executor)` snapshots currently resident.
    pub fn entries(&self) -> usize {
        lock(&self.snapshots).len()
    }

    /// Persist (or re-validate) the intent record for one operation.
    /// [`BeginOutcome::Diverged`] if an existing entry's digest differs
    /// from `digest` — the replay is not re-issuing the same operation it
    /// journaled; the entry is then left as it was.
    pub fn begin(
        &self,
        exec: u16,
        op: JournalOp,
        key: u64,
        digest: u64,
        bytes: u64,
    ) -> BeginOutcome {
        let mut journal = lock(&self.journal);
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
            Some(rec) if rec.committed => BeginOutcome::Replay,
            Some(_) => BeginOutcome::Torn,
        }
    }

    /// Mark the pending entry committed. A no-op if the entry was already
    /// committed (the `Replay` path never re-pends it).
    pub fn commit(&self, exec: u16, op: JournalOp, key: u64) {
        let mut journal = lock(&self.journal);
        let rec = journal
            .get_mut(&(exec, op, key))
            .expect("commit without begin");
        rec.committed = true;
    }

    /// Number of journal intent records (committed or pending).
    pub fn journal_entries(&self) -> usize {
        lock(&self.journal).len()
    }

    /// Number of journal records currently *pending* — left between
    /// `begin` and `commit`. Non-zero after a run only if an executor
    /// died inside a torn window and was never restarted.
    pub fn journal_pending(&self) -> usize {
        lock(&self.journal)
            .values()
            .filter(|r| !r.committed)
            .count()
    }
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

/// What [`NvmCheckpointStore::begin`] found for an `(exec, op, key)`
/// triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BeginOutcome {
    /// No journal entry existed: this is the operation's first issue. The
    /// entry is now pending; the caller must perform the effect and then
    /// [`NvmCheckpointStore::commit`].
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

/// One executor's recovery bookkeeping, kept across its restarts. It has
/// one owner at a time: the engine of the running incarnation holds it
/// as a plain field and ticks it from its fault probes and
/// checkpoint/replay hooks, and the driver's restart loop takes it back
/// when that incarnation crashes and hands it to the next one. Every
/// counter is driven by virtual-time events on the executor's one
/// timeline, so values are deterministic regardless of host threading.
///
/// The recovery window is the state machine of two methods:
/// [`RecoveryCounters::crashed`] opens (or, under a nested crash, widens)
/// it, and the engine's barrier closes it through `reached_barrier`.
#[derive(Debug, Default)]
pub struct RecoveryCounters {
    /// The barrier replay must reach to close the open recovery window;
    /// `None` while no window is open. Under nested faults (a crash
    /// during replay) this only ever grows: it tracks the *furthest*
    /// barrier any enclosing recovery must reach.
    replay_until: Option<u64>,
    /// Virtual time the open window began, in ps: its first crash's time,
    /// not overwritten by nested crashes, so the window is charged once.
    recovery_started_ps: u64,
    /// Virtual time the next incarnation resumes its clock at, in ps —
    /// the most recent crash (a nested one happened later, and time never
    /// rewinds) plus the restart penalty. `None` before the first crash.
    resume_ps: Option<u64>,
    /// Total virtual time spent recovering, summed over windows, in ps.
    recovery_ps: u64,
    /// The crash/recovery timeline so far, as the events the merged trace
    /// carries: each crashed incarnation's own event buffer dies with it.
    marks: Vec<(f64, obs::Event)>,
    /// The report's counters, ticked as recovery events happen. Its
    /// `recovery_s` stays 0 here: [`RecoveryCounters::report`] fills it.
    pub stats: RecoveryStats,
    /// Partitions currently materialized in this incarnation's heap
    /// (what a crash right now would lose).
    pub live_partitions: u64,
    /// Heap materializations performed so far, across attempts — the
    /// deterministic sequence alloc-fault points key on.
    pub materialize_seq: u64,
    /// Virtual-time crash points already consumed (index into
    /// [`ExecFaults::vcrashes`]; survives restarts so each point fires
    /// exactly once).
    pub vcrash_next: usize,
    /// Barrier crash points already consumed (index into
    /// [`ExecFaults::barrier_crashes`], surviving restarts the same way).
    pub barrier_crash_next: usize,
    /// Shuffle gathers entered so far, across attempts — the ordinal
    /// shuffle loss points key on.
    pub shuffle_gathers: u64,
    /// Action gathers entered so far, across attempts — the ordinal
    /// action loss points key on.
    pub action_gathers: u64,
}

impl RecoveryCounters {
    /// A crash at `barrier` and virtual time `at_ps` that the driver
    /// recovers from by a restart `restart_penalty_ns` later.
    /// Physical-event counters tick once per crash; the window only
    /// *extends* under a nested crash, so it stays open until the
    /// furthest crash barrier and its span is charged exactly once.
    pub fn crashed(&mut self, barrier: u64, at_ps: u64, restart_penalty_ns: f64) {
        self.stats.executor_crashes += 1;
        self.stats.partitions_lost += self.live_partitions;
        self.live_partitions = 0;
        if self.replay_until.is_none() {
            self.recovery_started_ps = at_ps;
        }
        self.replay_until = Some(self.replay_until.map_or(barrier, |b| b.max(barrier)));
        let resume_ps = at_ps.saturating_add(ps_of(restart_penalty_ns));
        self.resume_ps = Some(resume_ps);
        let attempt = u32::try_from(self.stats.executor_crashes).unwrap_or(u32::MAX);
        self.marks
            .push((ns_of(at_ps), obs::Event::ExecutorCrash { barrier }));
        self.marks
            .push((ns_of(resume_ps), obs::Event::RecoveryStart { attempt }));
    }

    /// An incarnation arrived at barrier `index` at virtual time `now` (ps).
    /// If that is the barrier the open window waits for, replay has
    /// caught up: close the window (charging nothing — the clock already
    /// carries the replay cost) and return the `RecoveryEnd` event to
    /// emit.
    pub(crate) fn reached_barrier(&mut self, index: u64, now: u64) -> Option<obs::Event> {
        if self.replay_until != Some(index) {
            return None;
        }
        self.replay_until = None;
        let recovery_ps = now - self.recovery_started_ps;
        self.recovery_ps = self.recovery_ps.saturating_add(recovery_ps);
        let end = obs::Event::RecoveryEnd {
            barrier: index,
            recovery_ns: ns_of(recovery_ps),
        };
        self.marks.push((ns_of(now), end.clone()));
        Some(end)
    }

    /// Whether a recovery window is open: a restarted incarnation is
    /// replaying toward the barrier its predecessor crashed at.
    pub(crate) fn replaying(&self) -> bool {
        self.replay_until.is_some()
    }

    /// Where the next incarnation's clock resumes, in ps; `None` before
    /// the first crash.
    pub fn resume_ps(&self) -> Option<u64> {
        self.resume_ps
    }

    /// The crash/recovery timeline so far, time-ordered (an executor's
    /// virtual clock is monotone).
    pub fn marks(&self) -> &[(f64, obs::Event)] {
        &self.marks
    }

    /// The report's recovery counters, `recovery_s` included.
    pub fn report(&self) -> RecoveryStats {
        RecoveryStats {
            recovery_s: ns_of(self.recovery_ps) / 1e9,
            ..self.stats
        }
    }
}

/// Which collective a planned message loss hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GatherKind {
    /// A shuffle all-gather (keyed by the shuffled RDD's id).
    Shuffle,
    /// An action all-gather (keyed by the action sequence number).
    Action,
}

/// One executor's slice of a fault plan: every fault to inject into it,
/// each list ascending. The engine's probes fire them; the cursors that
/// consume them across restarts live in [`RecoveryCounters`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecFaults {
    /// Statement barriers at whose arrival the executor crashes, before
    /// it deposits its clock. A barrier listed twice crashes the restarted
    /// incarnation again when its replay re-reaches it.
    pub barrier_crashes: Vec<u64>,
    /// Virtual times at which the executor crashes, in picoseconds, each
    /// at the first probe whose clock has reached it.
    pub vcrashes: Vec<u64>,
    /// Shuffle-gather ordinals whose contribution is lost once and
    /// retransmitted.
    pub shuffle_losses: Vec<u64>,
    /// Action-gather ordinals whose contribution is lost once and
    /// retransmitted.
    pub action_losses: Vec<u64>,
    /// Materialization ordinals whose first allocation attempt fails.
    pub alloc_faults: Vec<u64>,
    /// Virtual time one retransmitted contribution costs, in picoseconds.
    pub retransmit_ps: u64,
    /// Virtual-time back-off before a failed allocation is retried.
    pub alloc_retry_ns: f64,
}

/// An executor's view of the cluster it runs in.
#[derive(Clone)]
pub struct ClusterCtx {
    /// This executor's id, `0..n_exec`.
    pub exec: u16,
    /// Total executors in the cluster.
    pub n_exec: u16,
    /// The shared exchange all executors rendezvous through.
    pub exchange: Arc<Exchange>,
    /// The cluster's one packed copy of the input: a member reads every
    /// source scan from here, never from a [`crate::DataRegistry`].
    pub input: Arc<SharedInput>,
    /// Durable checkpoint storage and deposit journal, shared by the
    /// whole cluster.
    pub store: Arc<NvmCheckpointStore>,
    /// Auto-checkpoint every `n`-th wide (shuffle) RDD; `0` checkpoints
    /// only explicitly `checkpoint()`-marked RDDs.
    pub checkpoint_every: u32,
    /// This executor's slice of the fault plan.
    pub faults: Arc<ExecFaults>,
}

impl fmt::Debug for ClusterCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterCtx")
            .field("exec", &self.exec)
            .field("n_exec", &self.n_exec)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A panic under the journal lock poisons the `std` mutex but not the
    /// store: `begin`, `commit` and the counters recover the guard.
    #[test]
    fn a_panic_under_the_journal_lock_leaves_the_store_usable() {
        let store = NvmCheckpointStore::new();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _journal = lock(&store.journal);
                panic!("a thread panicked under the journal lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(store.journal.is_poisoned());
        assert_eq!(
            store.begin(0, JournalOp::ActionDeposit, 1, 0xAAAA, 8),
            BeginOutcome::Fresh
        );
        store.commit(0, JournalOp::ActionDeposit, 1);
        assert_eq!(store.journal_entries(), 1);
        assert_eq!(store.journal_pending(), 0);
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
        assert_eq!(store.entries(), 1);
    }
}
