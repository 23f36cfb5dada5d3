//! The structured event vocabulary of the simulator.
//!
//! Events are *observations*: emitting one never charges simulated time,
//! energy, or traffic (see the crate docs for the observe-never-charge
//! rule). Each event is timestamped with the simulated clock's nanosecond
//! reading at the emit point; the timestamp travels next to the event (it
//! is passed to [`crate::EventSink::on_event`] and serialized as `"t"`),
//! not inside it, because this crate sits below the clock and must not
//! depend on it.
//!
//! The schema is stated once, in the `events!` table at the bottom of
//! this file: each variant with its docs, its wire label and its typed
//! fields. The enum, [`Event::label`], [`Event::to_json`] and
//! [`Event::from_json`] are generated from it, so adding an event is one
//! table entry, and it is serialized and parsed by construction.

use crate::json::Json;

/// A typed event field: how it is written to, and read back from, JSON.
trait Field: Sized {
    /// What a well-formed value is, for parse errors.
    const EXPECTED: &'static str;
    /// The field as its JSON value.
    fn to_json(&self) -> Json;
    /// The field from its JSON value; `None` if mistyped or out of range.
    fn from_json(v: &Json) -> Option<Self>;
}

impl Field for u64 {
    const EXPECTED: &'static str = "a u64";
    fn to_json(&self) -> Json {
        Json::UInt(*self)
    }
    fn from_json(v: &Json) -> Option<u64> {
        v.as_u64()
    }
}

impl Field for u32 {
    const EXPECTED: &'static str = "a u32";
    fn to_json(&self) -> Json {
        Json::UInt(u64::from(*self))
    }
    fn from_json(v: &Json) -> Option<u32> {
        v.as_u64().and_then(|n| u32::try_from(n).ok())
    }
}

impl Field for f64 {
    const EXPECTED: &'static str = "a number";
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(v: &Json) -> Option<f64> {
        v.as_f64()
    }
}

impl Field for String {
    const EXPECTED: &'static str = "a string";
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(v: &Json) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

/// Field `key` of event `label`'s JSON object `obj`.
fn field<T: Field>(obj: &Json, label: &str, key: &str) -> Result<T, String> {
    let v = obj
        .get(key)
        .ok_or_else(|| format!("{label} missing {key:?}"))?;
    T::from_json(v).ok_or_else(|| {
        format!(
            "{label} field {key:?} is {}, expected {}",
            v.to_compact(),
            T::EXPECTED
        )
    })
}

/// A fieldless enum serialized as one string label per variant.
macro_rules! labelled {
    ($(#[$doc:meta])* $name:ident { $($(#[$vdoc:meta])* $variant:ident = $label:literal,)* }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)*
        }

        impl Field for $name {
            const EXPECTED: &'static str = concat!("one of" $(, " ", $label)*);
            fn to_json(&self) -> Json {
                Json::Str(match self { $($name::$variant => $label,)* }.to_string())
            }
            fn from_json(v: &Json) -> Option<$name> {
                match v.as_str()? {
                    $($label => Some($name::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

labelled! {
    /// Which memory device an object lives on.
    Mem {
        /// Fast, expensive, volatile DRAM.
        Dram = "dram",
        /// Slow, capacious non-volatile memory.
        Nvm = "nvm",
    }
}

labelled! {
    /// Which heap space refused an allocation.
    AllocSpace {
        /// The young generation's eden space.
        Eden = "eden",
        /// The DRAM part of a split old generation.
        OldDram = "old_dram",
        /// The NVM part of a split old generation.
        OldNvm = "old_nvm",
        /// A unified or interleaved old space.
        Old = "old",
    }
}

labelled! {
    /// Which durable operation a journal entry guards.
    JournalKind {
        /// A shuffle-gather deposit into the exchange.
        Shuffle = "shuffle",
        /// An action-gather deposit into the exchange.
        Action = "action",
        /// A checkpoint save into the NVM store.
        Checkpoint = "checkpoint",
    }
}

/// Generates [`Event`] and its codec from the one table below. Each
/// entry is `Variant = "label"` with an optional braced list of typed
/// fields; JSON keys are the field names, in declaration order, after
/// `"t"` and `"ev"`.
macro_rules! events {
    ($(
        $(#[$doc:meta])*
        $variant:ident = $label:literal $({
            $($(#[$fdoc:meta])* $field:ident: $ty:ty,)*
        })?,
    )*) => {
        /// One structured observation of the simulated runtime.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Event {
            $($(#[$doc])* $variant $({ $($(#[$fdoc])* $field: $ty,)* })?,)*
        }

        impl Event {
            /// Every label the table declares, in table order.
            #[cfg(test)]
            const LABELS: &'static [&'static str] = &[$($label),*];

            /// The event's type label, as serialized in the `"ev"` field.
            pub fn label(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $label,)*
                }
            }

            /// Serialize as one JSON object: `{"t": <ns>, "ev": <label>, ...}`.
            pub fn to_json(&self, t_ns: f64) -> Json {
                let mut pairs = vec![
                    ("t".to_string(), Json::Num(t_ns)),
                    ("ev".to_string(), Json::Str(self.label().to_string())),
                ];
                match self {
                    $(Event::$variant $({ $($field,)* })? => {
                        $($(pairs.push((stringify!($field).to_string(), Field::to_json($field)));)*)?
                    })*
                }
                Json::Obj(pairs)
            }

            /// Deserialize a `(timestamp, event)` pair produced by
            /// [`Event::to_json`]. Unknown fields are ignored.
            ///
            /// # Errors
            ///
            /// Names the event label and the missing, mistyped, or
            /// out-of-range field (a `u32` field holding 2^32 is an error,
            /// not a wrapped value).
            pub fn from_json(v: &Json) -> Result<(f64, Event), String> {
                let t = v
                    .get("t")
                    .and_then(Json::as_f64)
                    .ok_or("event missing \"t\"")?;
                let label = v
                    .get("ev")
                    .and_then(Json::as_str)
                    .ok_or("event missing \"ev\"")?;
                let event = match label {
                    $($label => Event::$variant $({
                        $($field: field(v, label, stringify!($field))?,)*
                    })?,)*
                    other => return Err(format!("unknown event type {other:?}")),
                };
                Ok((t, event))
            }
        }
    };
}

impl Event {
    /// Serialize like [`Event::to_json`], additionally tagging the
    /// emitting executor. Executor 0 (the single-runtime default) writes
    /// no `"exec"` field, so traces from non-cluster runs are byte-for-
    /// byte what they were before the cluster runtime existed, and old
    /// readers — [`Event::from_json`] ignores unknown fields — still
    /// parse cluster traces.
    pub fn to_json_exec(&self, t_ns: f64, exec: u16) -> Json {
        let mut json = self.to_json(t_ns);
        if exec != 0 {
            if let Json::Obj(pairs) = &mut json {
                pairs.push(("exec".to_string(), Json::UInt(u64::from(exec))));
            }
        }
        json
    }

    /// The executor id a serialized event carries (`"exec"` field), with
    /// 0 — the single-runtime executor — as the default for traces that
    /// predate the cluster runtime.
    ///
    /// # Errors
    ///
    /// An `"exec"` field that is not a `u16` (it is never narrowed).
    pub fn exec_of_json(v: &Json) -> Result<u16, String> {
        match v.get("exec") {
            None => Ok(0),
            Some(x) => x
                .as_u64()
                .and_then(|n| u16::try_from(n).ok())
                .ok_or_else(|| format!("field \"exec\" is {}, expected a u16", x.to_compact())),
        }
    }
}

events! {
    /// A minor (young-generation) collection began.
    MinorGcStart = "minor_gc_start",
    /// A minor collection finished.
    MinorGcEnd = "minor_gc_end" {
        /// Pause duration in simulated nanoseconds.
        pause_ns: f64,
        /// Objects copied to survivors or promoted this cycle.
        moved: u64,
        /// Young objects reclaimed this cycle.
        freed: u64,
    },
    /// A major (full-heap) collection began.
    MajorGcStart = "major_gc_start",
    /// A major collection finished.
    MajorGcEnd = "major_gc_end" {
        /// Pause duration in simulated nanoseconds.
        pause_ns: f64,
        /// RDD arrays migrated between DRAM and NVM this cycle.
        migrated: u64,
        /// Old objects reclaimed this cycle.
        freed: u64,
    },
    /// A young object was promoted into the old generation.
    Promotion = "promotion" {
        /// Object size in bytes.
        bytes: u64,
        /// Device of the old space it landed on.
        to: Mem,
    },
    /// Dynamic re-assessment migrated an RDD array between devices
    /// (Section 5.5's "# RDDs migrated").
    Migration = "migration" {
        /// The RDD whose backbone array moved.
        rdd: u32,
        /// Source device.
        from: Mem,
        /// Destination device.
        to: Mem,
        /// Array size in bytes.
        bytes: u64,
    },
    /// An engine evaluation (persist materialization or action) began.
    StageStart = "stage_start" {
        /// Monotonically increasing evaluation sequence number.
        stage: u32,
        /// Cumulative DRAM write bytes at stage start.
        dram_write_bytes: u64,
        /// Cumulative NVM write bytes at stage start.
        nvm_write_bytes: u64,
    },
    /// An engine evaluation finished; paired with the matching
    /// [`Event::StageStart`] by `stage`. The cumulative write counters
    /// let an aggregator derive the per-stage NVM-write ratio.
    StageEnd = "stage_end" {
        /// Sequence number of the evaluation that finished.
        stage: u32,
        /// Cumulative DRAM write bytes at stage end.
        dram_write_bytes: u64,
        /// Cumulative NVM write bytes at stage end.
        nvm_write_bytes: u64,
    },
    /// A shuffle wrote (and re-read) records through simulated disk files.
    ShuffleSpill = "shuffle_spill" {
        /// Record bytes spilled.
        bytes: u64,
    },
    /// One minor GC's dirty-card sweep, summarized.
    CardScan = "card_scan" {
        /// Dirty cards scanned.
        cards: u64,
        /// Bytes read while scanning.
        bytes: u64,
        /// Full-array rescans forced by stuck (shared) cards.
        stuck: u64,
    },
    /// A space refused an allocation (the caller will collect and retry,
    /// fall back, or declare the experiment mis-sized).
    AllocFail = "alloc_fail" {
        /// The space that was full.
        space: AllocSpace,
        /// Bytes requested.
        need: u64,
    },
    /// A heap verification pass found an invariant violation. Emitted
    /// just before the verifier aborts the run, so the trace records what
    /// was violated and where.
    VerifyFailure = "verify_failure" {
        /// Verification point label (`before_minor`, `after_major`, ...).
        point: String,
        /// Violated invariant label (`card_coverage`, `accounting`, ...).
        invariant: String,
        /// Full rendered violation, including object and space.
        detail: String,
    },
    /// An executor crashed (an injected fault fired at a statement
    /// barrier); its heap and un-checkpointed partitions are lost.
    ExecutorCrash = "executor_crash" {
        /// The statement barrier the crash fired at.
        barrier: u64,
    },
    /// A replacement executor began replaying the program to recover the
    /// crashed incarnation's partitions.
    RecoveryStart = "recovery_start" {
        /// 1-based restart attempt for this executor slot.
        attempt: u32,
    },
    /// Replay re-reached the crash barrier: the executor has rejoined the
    /// cluster with all of its partitions rebuilt.
    RecoveryEnd = "recovery_end" {
        /// The barrier index replay caught up to.
        barrier: u64,
        /// Virtual time spent recovering (crash → caught up).
        recovery_ns: f64,
    },
    /// An RDD's local partitions were snapshotted to durable NVM
    /// checkpoint storage (writes charged to the NVM device).
    CheckpointWrite = "checkpoint_write" {
        /// The checkpointed RDD instance.
        rdd: u32,
        /// Modelled snapshot bytes.
        bytes: u64,
    },
    /// A materialization was served from a durable NVM checkpoint instead
    /// of recomputing the RDD's lineage (reads charged to the NVM device).
    CheckpointRestore = "checkpoint_restore" {
        /// The restored RDD instance.
        rdd: u32,
        /// Modelled snapshot bytes read back.
        bytes: u64,
    },
    /// A replayed executor re-issued a journaled durable operation whose
    /// entry was already committed: the digest matched the committed
    /// record and the operation was validated as a no-op.
    JournalNoop = "journal_noop" {
        /// Which durable operation was replayed.
        kind: JournalKind,
        /// The operation's journal key (rdd id, action seq, or
        /// checkpoint ordinal, per `kind`).
        key: u64,
    },
    /// Recovery found a journal entry left pending by a crash between
    /// `begin` and `commit` — a torn operation. The replay rolls it
    /// forward by performing the operation again.
    JournalTorn = "journal_torn" {
        /// Which durable operation was torn.
        kind: JournalKind,
        /// The operation's journal key.
        key: u64,
    },
    /// A cross-executor shuffle transfer took the colocated shared-region
    /// fast path: the bytes moved at memory bandwidth with zero serde
    /// (they are exactly the serde bytes avoided). Never emitted at
    /// `E=1`, where nothing crosses executors.
    ShuffleFastPath = "shuffle_fastpath" {
        /// Bytes that crossed executors through the shared region.
        bytes: u64,
    },
    /// A persisted RDD was stored into the off-heap H2 region (the GC
    /// neither traces nor card-marks it; writes charged to the tagged
    /// device).
    OffHeapAlloc = "offheap_alloc" {
        /// The persisted RDD instance.
        rdd: u32,
        /// Modelled block bytes.
        bytes: u64,
    },
    /// An off-heap block was released — its lineage-scheduled refcount
    /// reached zero (or an unpersist / end-of-run sweep reclaimed it).
    OffHeapFree = "offheap_free" {
        /// The freed RDD instance.
        rdd: u32,
        /// Modelled block bytes returned.
        bytes: u64,
    },
    /// A persisted RDD was stored into a lifetime-region bump arena (the
    /// GC neither traces, card-marks, nor promotes it; writes charged to
    /// the tagged device). The arena is freed wholesale when the lifetime
    /// schedule's refcount reaches zero.
    RegionAlloc = "region_alloc" {
        /// The persisted RDD instance.
        rdd: u32,
        /// Modelled arena bytes.
        bytes: u64,
    },
    /// An RDD-lifetime region arena was freed wholesale — its scheduled
    /// refcount reached zero (or an unpersist / end-of-run sweep
    /// reclaimed it).
    RegionFree = "region_free" {
        /// The freed RDD instance.
        rdd: u32,
        /// Modelled arena bytes returned.
        bytes: u64,
    },
    /// A stage-scratch region arena was reset wholesale at the end of its
    /// evaluation, releasing every streamed temporary bumped into it.
    RegionStageFree = "region_stage_free" {
        /// Arena bytes released by the reset.
        bytes: u64,
    },
    /// A traffic-meter window closed (bandwidth watermark; Figure 8's
    /// series, live). Emitted when the first access of a *later* window
    /// arrives.
    TrafficWindow = "traffic_window" {
        /// Index of the completed window.
        window: u64,
        /// DRAM read bytes in the window.
        dram_read: u64,
        /// DRAM write bytes in the window.
        dram_write: u64,
        /// NVM read bytes in the window.
        nvm_read: u64,
        /// NVM write bytes in the window.
        nvm_write: u64,
    },
    /// A job entered a `panthera-jobs` service queue.
    JobSubmitted = "job_submitted" {
        /// Service-assigned job id (submission order).
        job: u32,
        /// The submitting tenant.
        tenant: u32,
    },
    /// A queued job was admitted and dispatched its first stage.
    JobStarted = "job_started" {
        /// The starting job.
        job: u32,
        /// Service-time nanoseconds the job waited in the queue.
        queued_ns: f64,
        /// DRAM budget bytes arbitrated to the job at start.
        dram_share: u64,
    },
    /// A runnable job was paused at a stage barrier because the fair-share
    /// scheduler dispatched another tenant's stage instead.
    JobPreempted = "job_preempted" {
        /// The paused job.
        job: u32,
        /// The stage index the job had just completed.
        stage: u32,
    },
    /// A job ran its last stage and left the service.
    JobFinished = "job_finished" {
        /// The finished job.
        job: u32,
        /// Service-time nanoseconds from submission to finish.
        elapsed_ns: f64,
    },
    /// The runtime monitor observed one access to a persisted RDD (the
    /// Section 5.5 access-frequency counter ticking). This is the
    /// frequency export the online re-tagging policy consumes: unlike the
    /// GC-internal table, which resets at every major collection, an
    /// aggregator accumulating these events holds *cumulative* per-RDD
    /// counts, so batch-boundary deltas are well defined.
    RddCall = "rdd_call" {
        /// The accessed RDD instance.
        rdd: u32,
    },
    /// A streaming micro-batch began executing.
    BatchStart = "batch_start" {
        /// 0-based batch sequence number.
        batch: u32,
    },
    /// A streaming micro-batch finished; paired with the matching
    /// [`Event::BatchStart`] by `batch`.
    BatchEnd = "batch_end" {
        /// Sequence number of the batch that finished.
        batch: u32,
        /// Virtual time the batch took, start barrier to end barrier.
        latency_ns: f64,
    },
    /// The watermark advanced at a batch boundary: every window whose end
    /// falls at or before `event_time` is closed and its aggregate final.
    /// Batch boundaries are statement/stage barriers, so the watermark is
    /// a virtual-time barrier — no late data can exist behind it.
    Watermark = "watermark" {
        /// The batch whose boundary advanced the watermark.
        batch: u32,
        /// Exclusive upper bound of closed event-time (source ticks).
        event_time: u64,
    },
    /// A re-tagging policy overrode an RDD's memory tag at a batch
    /// boundary, because observed access frequencies disagreed with the
    /// static analysis prior. The migration itself (if the bytes actually
    /// move) is reported separately by [`Event::Migration`].
    Retag = "retag" {
        /// The re-tagged RDD instance.
        rdd: u32,
        /// Device the tag pointed at before the override.
        from: Mem,
        /// Device the tag points at now.
        to: Mem,
    },
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One of every event kind, in table order.
    pub(crate) fn all_events() -> Vec<Event> {
        vec![
            Event::MinorGcStart,
            Event::MinorGcEnd {
                pause_ns: 1234.5,
                moved: 10,
                freed: 20,
            },
            Event::MajorGcStart,
            Event::MajorGcEnd {
                pause_ns: 1e6,
                migrated: 3,
                freed: 400,
            },
            Event::Promotion {
                bytes: 64,
                to: Mem::Nvm,
            },
            Event::Migration {
                rdd: 7,
                from: Mem::Nvm,
                to: Mem::Dram,
                bytes: 4096,
            },
            Event::StageStart {
                stage: 0,
                dram_write_bytes: 0,
                nvm_write_bytes: 0,
            },
            Event::StageEnd {
                stage: 0,
                dram_write_bytes: 1024,
                nvm_write_bytes: 2048,
            },
            Event::ShuffleSpill { bytes: 9000 },
            Event::CardScan {
                cards: 12,
                bytes: 6144,
                stuck: 1,
            },
            Event::AllocFail {
                space: AllocSpace::OldDram,
                need: 1 << 20,
            },
            Event::VerifyFailure {
                point: "after_major".to_string(),
                invariant: "card_coverage".to_string(),
                detail: "obj#7 slot 3 on clean card".to_string(),
            },
            Event::ExecutorCrash { barrier: 9 },
            Event::RecoveryStart { attempt: 1 },
            Event::RecoveryEnd {
                barrier: 9,
                recovery_ns: 2.5e9,
            },
            Event::CheckpointWrite {
                rdd: 11,
                bytes: 8192,
            },
            Event::CheckpointRestore {
                rdd: 11,
                bytes: 8192,
            },
            Event::JournalNoop {
                kind: JournalKind::Shuffle,
                key: 11,
            },
            Event::JournalTorn {
                kind: JournalKind::Checkpoint,
                key: 3,
            },
            Event::ShuffleFastPath { bytes: 4096 },
            Event::OffHeapAlloc {
                rdd: 13,
                bytes: 65536,
            },
            Event::OffHeapFree {
                rdd: 13,
                bytes: 65536,
            },
            Event::RegionAlloc {
                rdd: 14,
                bytes: 32768,
            },
            Event::RegionFree {
                rdd: 14,
                bytes: 32768,
            },
            Event::RegionStageFree { bytes: 1024 },
            Event::TrafficWindow {
                window: 4,
                dram_read: 1,
                dram_write: 2,
                nvm_read: 3,
                nvm_write: 4,
            },
            Event::JobSubmitted { job: 3, tenant: 1 },
            Event::JobStarted {
                job: 3,
                queued_ns: 1.5e9,
                dram_share: 1 << 28,
            },
            Event::JobPreempted { job: 3, stage: 7 },
            Event::JobFinished {
                job: 3,
                elapsed_ns: 9.5e9,
            },
            Event::RddCall { rdd: 5 },
            Event::BatchStart { batch: 2 },
            Event::BatchEnd {
                batch: 2,
                latency_ns: 3.25e8,
            },
            Event::Watermark {
                batch: 2,
                event_time: 96,
            },
            Event::Retag {
                rdd: 5,
                from: Mem::Nvm,
                to: Mem::Dram,
            },
        ]
    }

    /// `all_events()[i].to_json(17.25 * (i + 1))`, as the hand-written
    /// codec printed it before the schema became a table.
    const WIRE: [&str; 35] = [
        r#"{"t":17.25,"ev":"minor_gc_start"}"#,
        r#"{"t":34.5,"ev":"minor_gc_end","pause_ns":1234.5,"moved":10,"freed":20}"#,
        r#"{"t":51.75,"ev":"major_gc_start"}"#,
        r#"{"t":69.0,"ev":"major_gc_end","pause_ns":1000000.0,"migrated":3,"freed":400}"#,
        r#"{"t":86.25,"ev":"promotion","bytes":64,"to":"nvm"}"#,
        r#"{"t":103.5,"ev":"migration","rdd":7,"from":"nvm","to":"dram","bytes":4096}"#,
        r#"{"t":120.75,"ev":"stage_start","stage":0,"dram_write_bytes":0,"nvm_write_bytes":0}"#,
        r#"{"t":138.0,"ev":"stage_end","stage":0,"dram_write_bytes":1024,"nvm_write_bytes":2048}"#,
        r#"{"t":155.25,"ev":"shuffle_spill","bytes":9000}"#,
        r#"{"t":172.5,"ev":"card_scan","cards":12,"bytes":6144,"stuck":1}"#,
        r#"{"t":189.75,"ev":"alloc_fail","space":"old_dram","need":1048576}"#,
        r#"{"t":207.0,"ev":"verify_failure","point":"after_major","invariant":"card_coverage","detail":"obj#7 slot 3 on clean card"}"#,
        r#"{"t":224.25,"ev":"executor_crash","barrier":9}"#,
        r#"{"t":241.5,"ev":"recovery_start","attempt":1}"#,
        r#"{"t":258.75,"ev":"recovery_end","barrier":9,"recovery_ns":2500000000.0}"#,
        r#"{"t":276.0,"ev":"checkpoint_write","rdd":11,"bytes":8192}"#,
        r#"{"t":293.25,"ev":"checkpoint_restore","rdd":11,"bytes":8192}"#,
        r#"{"t":310.5,"ev":"journal_noop","kind":"shuffle","key":11}"#,
        r#"{"t":327.75,"ev":"journal_torn","kind":"checkpoint","key":3}"#,
        r#"{"t":345.0,"ev":"shuffle_fastpath","bytes":4096}"#,
        r#"{"t":362.25,"ev":"offheap_alloc","rdd":13,"bytes":65536}"#,
        r#"{"t":379.5,"ev":"offheap_free","rdd":13,"bytes":65536}"#,
        r#"{"t":396.75,"ev":"region_alloc","rdd":14,"bytes":32768}"#,
        r#"{"t":414.0,"ev":"region_free","rdd":14,"bytes":32768}"#,
        r#"{"t":431.25,"ev":"region_stage_free","bytes":1024}"#,
        r#"{"t":448.5,"ev":"traffic_window","window":4,"dram_read":1,"dram_write":2,"nvm_read":3,"nvm_write":4}"#,
        r#"{"t":465.75,"ev":"job_submitted","job":3,"tenant":1}"#,
        r#"{"t":483.0,"ev":"job_started","job":3,"queued_ns":1500000000.0,"dram_share":268435456}"#,
        r#"{"t":500.25,"ev":"job_preempted","job":3,"stage":7}"#,
        r#"{"t":517.5,"ev":"job_finished","job":3,"elapsed_ns":9500000000.0}"#,
        r#"{"t":534.75,"ev":"rdd_call","rdd":5}"#,
        r#"{"t":552.0,"ev":"batch_start","batch":2}"#,
        r#"{"t":569.25,"ev":"batch_end","batch":2,"latency_ns":325000000.0}"#,
        r#"{"t":586.5,"ev":"watermark","batch":2,"event_time":96}"#,
        r#"{"t":603.75,"ev":"retag","rdd":5,"from":"nvm","to":"dram"}"#,
    ];

    #[test]
    fn wire_format_is_pinned() {
        let events = all_events();
        assert_eq!(events.len(), WIRE.len());
        for (i, (e, line)) in events.iter().zip(WIRE).enumerate() {
            let t = 17.25 * (i as f64 + 1.0);
            assert_eq!(e.to_json(t).to_compact(), line, "{e:?}");
        }
    }

    #[test]
    fn all_events_covers_every_label_in_the_table() {
        let labels: Vec<&str> = all_events().iter().map(Event::label).collect();
        assert_eq!(labels, Event::LABELS);
    }

    #[test]
    fn every_event_round_trips_through_json() {
        for (i, e) in all_events().into_iter().enumerate() {
            let t = 17.25 * (i as f64 + 1.0);
            let line = e.to_json(t).to_compact();
            let (t2, e2) = Event::from_json(&Json::parse(&line).unwrap()).unwrap();
            assert_eq!(t2.to_bits(), t.to_bits(), "{e:?}");
            assert_eq!(e2, e);
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> = Event::LABELS.iter().copied().collect();
        assert_eq!(labels.len(), Event::LABELS.len());
    }

    #[test]
    fn executor_zero_serializes_without_exec_field() {
        let e = Event::ShuffleSpill { bytes: 5 };
        assert_eq!(
            e.to_json_exec(1.0, 0).to_compact(),
            e.to_json(1.0).to_compact()
        );
        let tagged = e.to_json_exec(1.0, 3).to_compact();
        assert!(tagged.contains("\"exec\":3"), "{tagged}");
        let parsed = Json::parse(&tagged).unwrap();
        assert_eq!(Event::exec_of_json(&parsed), Ok(3));
        // Old readers ignore the extra field.
        let (t, e2) = Event::from_json(&parsed).unwrap();
        assert_eq!(t, 1.0);
        assert_eq!(e2, e);
        // Old traces default to executor 0.
        let legacy = Json::parse(&e.to_json(1.0).to_compact()).unwrap();
        assert_eq!(Event::exec_of_json(&legacy), Ok(0));
    }

    #[test]
    fn out_of_range_u32_fields_and_exec_ids_are_rejected() {
        let wide = Json::parse(r#"{"t":1,"ev":"rdd_call","rdd":4294967297}"#).unwrap();
        let err = Event::from_json(&wide).unwrap_err();
        assert!(err.contains("rdd_call") && err.contains("\"rdd\""), "{err}");
        let max = Json::parse(r#"{"t":1,"ev":"rdd_call","rdd":4294967295}"#).unwrap();
        assert_eq!(
            Event::from_json(&max).unwrap().1,
            Event::RddCall { rdd: u32::MAX }
        );
        let exec = Json::parse(r#"{"t":1,"ev":"minor_gc_start","exec":65536}"#).unwrap();
        let err = Event::exec_of_json(&exec).unwrap_err();
        assert!(err.contains("exec"), "{err}");
        let exec = Json::parse(r#"{"t":1,"ev":"minor_gc_start","exec":65535}"#).unwrap();
        assert_eq!(Event::exec_of_json(&exec), Ok(u16::MAX));
    }

    #[test]
    fn rejects_unknown_and_incomplete_events() {
        let bad = Json::parse("{\"t\":1.0,\"ev\":\"warp_core_breach\"}").unwrap();
        assert!(Event::from_json(&bad).is_err());
        let missing = Json::parse("{\"t\":1.0,\"ev\":\"promotion\",\"bytes\":1}").unwrap();
        assert!(Event::from_json(&missing).is_err());
        let no_t = Json::parse("{\"ev\":\"minor_gc_start\"}").unwrap();
        assert!(Event::from_json(&no_t).is_err());
    }
}
