//! The micro-batch driver: step a [`StageCursor`] batch by batch,
//! observe access frequencies between batches, and close the migration
//! policy loop.
//!
//! The driver never touches the simulated clock directly. Batches run
//! through the engine's ordinary statement stages; at each batch barrier
//! the driver reads the collector's never-reset per-RDD call totals
//! (`AccessFreqTable::lifetime_calls`, through
//! [`panthera::PantheraRuntime::gc`]), computes the per-RDD call
//! delta for the batch, and — under the online or oracle policy — pins
//! tag overrides on the collector and forces a major collection so the
//! migration happens *between* batches. The forced collection is the only
//! way a policy affects virtual time. The driver turns no observer on: an
//! untraced run emits nothing, and a caller's own observer receives every
//! event, the driver's batch events included.

use crate::program::{build_stream_program, StreamProgram};
use crate::report::{digest_result, StreamComparison, StreamReport};
use crate::spec::StreamSpec;
use mheap::{Fnv, MemTag};
use obs::{Event, Mem};
use panthera::{
    static_plan, to_mem_tag, ConfigError, MemoryMode, RunReport, StageCursor, SystemConfig, SIM_GB,
};
use sparklang::ast::MemoryTag;
use sparklet::{ns_of, ActionResult};

/// How the driver revises RDD placement between batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetagPolicy {
    /// Trust the static analysis tags for the whole stream; the collector
    /// still migrates on its own hot/cold thresholds, but nothing feeds
    /// observed frequencies back.
    Static,
    /// Re-tag from observed per-batch access deltas: a dataset whose
    /// delta crosses [`StreamSpec::hot_threshold`] wants DRAM, others
    /// want NVM. A change is applied only after `hysteresis` consecutive
    /// boundaries agree, so one noisy batch cannot thrash placements.
    Online {
        /// Consecutive disagreeing boundaries required before a re-tag.
        hysteresis: u32,
    },
    /// Perfect foresight: replay a recorded first pass and re-tag for the
    /// *next* batch's observed hot set at every boundary (and pre-tag the
    /// initial placement). The regret lower bound.
    Oracle,
}

impl RetagPolicy {
    /// The report label.
    pub fn label(&self) -> &'static str {
        match self {
            RetagPolicy::Static => "static",
            RetagPolicy::Online { .. } => "online",
            RetagPolicy::Oracle => "oracle",
        }
    }
}

impl Default for RetagPolicy {
    fn default() -> Self {
        RetagPolicy::Online { hysteresis: 1 }
    }
}

/// Internal drive mode: the oracle carries its precomputed schedule.
enum Mode<'a> {
    Static,
    Online { hysteresis: u32 },
    Oracle { schedule: &'a [Vec<MemTag>] },
}

/// Raw output of one drive.
struct DriveOutput {
    latencies: Vec<f64>,
    watermarks: u32,
    retags: u32,
    /// Per batch, per dataset index: monitored-call delta for the batch.
    deltas: Vec<Vec<u64>>,
    /// Present only when the stream ran to completion.
    finished: Option<(RunReport, Vec<(String, ActionResult)>)>,
}

/// Builder for streaming runs — the streaming sibling of
/// [`panthera::RunBuilder`].
///
/// ```
/// use panthera_stream::{RetagPolicy, StreamBuilder, StreamSpec};
///
/// let report = StreamBuilder::new(StreamSpec::small(7))
///     .policy(RetagPolicy::Online { hysteresis: 1 })
///     .run()
///     .expect("valid spec and config");
/// assert_eq!(report.batches, 8);
/// ```
#[derive(Debug, Clone)]
pub struct StreamBuilder {
    spec: StreamSpec,
    config: SystemConfig,
    policy: RetagPolicy,
}

impl StreamBuilder {
    /// A builder over `spec` with the default Panthera configuration: a
    /// heap small enough that the resident datasets contend for DRAM.
    pub fn new(spec: StreamSpec) -> StreamBuilder {
        StreamBuilder {
            spec,
            config: SystemConfig::new(MemoryMode::Panthera, 4 * SIM_GB, 1.0 / 3.0),
            policy: RetagPolicy::default(),
        }
    }

    /// Replace the system configuration. Its observer, if any, receives
    /// every event of the run; the driver attaches nothing to it.
    pub fn config(mut self, config: SystemConfig) -> StreamBuilder {
        self.config = config;
        self
    }

    /// Select the re-tagging policy.
    pub fn policy(mut self, policy: RetagPolicy) -> StreamBuilder {
        self.policy = policy;
        self
    }

    /// Run the stream to completion under the selected policy.
    ///
    /// # Errors
    ///
    /// Spec or configuration constraint violations; the online and oracle
    /// policies additionally require a semantic (Panthera) memory mode,
    /// since re-tagging is meaningless without tagged spaces.
    pub fn run(&self) -> Result<StreamReport, ConfigError> {
        let out = self.drive_policy(None)?;
        Ok(self.make_report(self.policy.label(), out))
    }

    /// Drive only the first `batches` batches, then abandon the run — a
    /// driver crash at a batch boundary. Returns the per-batch latencies
    /// observed before the crash.
    ///
    /// Recovery is a pure replay: rebuild the same [`StreamSpec`] and
    /// [`StreamBuilder::run`] again — sources are seeded, so the replay's
    /// latency prefix is bit-identical to the crashed run's (pinned by
    /// this crate's tests).
    ///
    /// # Errors
    ///
    /// Same constraints as [`StreamBuilder::run`].
    pub fn run_prefix(&self, batches: u32) -> Result<Vec<f64>, ConfigError> {
        Ok(self.drive_policy(Some(batches))?.latencies)
    }

    /// Run all three policies over the same spec and configuration for
    /// regret analysis. The static pass doubles as the oracle's recording
    /// pass, so this costs three runs, not four.
    ///
    /// # Errors
    ///
    /// Same constraints as [`StreamBuilder::run`].
    pub fn compare(&self) -> Result<StreamComparison, ConfigError> {
        let static_out = self.drive(Mode::Static, None)?;
        let schedule = schedule_from_deltas(&static_out.deltas, self.spec.hot_threshold);
        let online_out = self.drive(
            Mode::Online {
                hysteresis: match self.policy {
                    RetagPolicy::Online { hysteresis } => hysteresis,
                    _ => 1,
                },
            },
            None,
        )?;
        let oracle_out = self.drive(
            Mode::Oracle {
                schedule: &schedule,
            },
            None,
        )?;
        Ok(StreamComparison {
            static_run: self.make_report("static", static_out),
            online: self.make_report("online", online_out),
            oracle: self.make_report("oracle", oracle_out),
        })
    }

    /// Drive under the selected policy; the oracle records its schedule
    /// first.
    fn drive_policy(&self, stop_after: Option<u32>) -> Result<DriveOutput, ConfigError> {
        match self.policy {
            RetagPolicy::Static => self.drive(Mode::Static, stop_after),
            RetagPolicy::Online { hysteresis } => {
                self.drive(Mode::Online { hysteresis }, stop_after)
            }
            RetagPolicy::Oracle => {
                let schedule = self.oracle_schedule()?;
                let mode = Mode::Oracle {
                    schedule: &schedule,
                };
                self.drive(mode, stop_after)
            }
        }
    }

    /// The oracle's desired-tag schedule: record a static pass, then map
    /// each batch's observed deltas through the hot threshold.
    fn oracle_schedule(&self) -> Result<Vec<Vec<MemTag>>, ConfigError> {
        let pass1 = self.drive(Mode::Static, None)?;
        Ok(schedule_from_deltas(&pass1.deltas, self.spec.hot_threshold))
    }

    fn make_report(&self, policy: &str, out: DriveOutput) -> StreamReport {
        let (run, results) = out
            .finished
            .expect("make_report is only called on completed runs");
        let outputs: Vec<(String, u64)> = results
            .iter()
            .map(|(name, r)| (name.clone(), digest_result(r)))
            .collect();
        let mut h = Fnv::new();
        for (name, digest) in &outputs {
            h.write(name.as_bytes());
            h.write_u64(*digest);
        }
        let dram = run.device_bytes[0] as f64;
        let nvm = run.device_bytes[1] as f64;
        StreamReport {
            workload: self.spec.name.clone(),
            policy: policy.to_string(),
            batches: self.spec.batches,
            batch_latency_ns: out.latencies,
            elapsed_ns: run.elapsed_s * 1e9,
            watermarks: out.watermarks,
            retags: out.retags,
            migrations: run.gc.rdds_migrated,
            dram_byte_frac: if dram + nvm > 0.0 {
                dram / (dram + nvm)
            } else {
                0.0
            },
            outputs_digest: h.finish(),
            outputs,
            run,
        }
    }

    /// The batch loop. `stop_after` simulates a driver crash: drive that
    /// many batches, then abandon the cursor without finishing.
    fn drive(&self, mode: Mode<'_>, stop_after: Option<u32>) -> Result<DriveOutput, ConfigError> {
        self.spec.validate().map_err(ConfigError::new)?;
        if !self.config.mode.is_semantic() && !matches!(mode, Mode::Static) {
            return Err(ConfigError::new(format!(
                "the {} memory mode has no tagged spaces; online/oracle re-tagging needs \
                 MemoryMode::Panthera",
                self.config.mode.label()
            )));
        }

        let StreamProgram {
            program,
            fns,
            data,
            boundaries,
            datasets,
            windows: _,
            hot: _,
        } = build_stream_program(&self.spec);

        let config = &self.config;
        let mut plan = static_plan(&program, config);
        // Each policy starts from the static priors.
        let mut belief: Vec<MemTag> = datasets
            .iter()
            .map(|var| {
                to_mem_tag(
                    plan.sites
                        .values()
                        .find(|s| s.var == *var)
                        .and_then(|s| s.tag),
                )
            })
            .collect();
        // The oracle's foresight edge at batch 0: promote the initial hot
        // set in the plan so it materializes straight into DRAM. Cold
        // datasets keep their prior — being *born* in NVM means paying
        // slow writes for the whole prologue, which costs more than one
        // demotion at the first boundary (measured, not guessed).
        if let Mode::Oracle { schedule } = &mode {
            for (i, var) in datasets.iter().enumerate() {
                if schedule[0][i] == MemTag::Dram && belief[i] != MemTag::Dram {
                    plan.override_tag(*var, Some(memory_tag(MemTag::Dram)));
                    belief[i] = MemTag::Dram;
                }
            }
        }

        let mut cursor = panthera::start_with_plan(program, fns, data, config, plan)?;

        let end = stop_after
            .unwrap_or(self.spec.batches)
            .min(self.spec.batches);
        let mut out = DriveOutput {
            latencies: Vec::with_capacity(end as usize),
            watermarks: 0,
            retags: 0,
            deltas: Vec::with_capacity(end as usize),
            finished: None,
        };
        let mut pending = vec![0u32; datasets.len()];
        // Per dataset: its lifetime monitored calls at the last barrier.
        let mut seen = vec![0u64; datasets.len()];
        let mut dataset_ids: Vec<u32> = Vec::new();
        let mut taken = 0usize;
        let mut t_start = cursor.now_ps();
        emit(&cursor, &Event::BatchStart { batch: 0 });

        for b in 0..end {
            while taken < boundaries[b as usize] {
                let stepped = cursor
                    .step()
                    .expect("a stream run is one executor with no peers and no fault plan");
                assert!(stepped, "boundary table exceeds the schedule");
                taken += 1;
            }

            // --- batch barrier ------------------------------------------
            let latency_ns = ns_of(cursor.now_ps() - t_start);
            out.latencies.push(latency_ns);
            emit(
                &cursor,
                &Event::BatchEnd {
                    batch: b,
                    latency_ns,
                },
            );
            if self.spec.window.closes_at(b) {
                out.watermarks += 1;
                emit(
                    &cursor,
                    &Event::Watermark {
                        batch: b,
                        event_time: u64::from(b + 1) * self.spec.event_time_per_batch,
                    },
                );
            }

            // Resolve the resident datasets' runtime RDD ids once (their
            // bind statements all sit in batch 0's prologue).
            if dataset_ids.is_empty() {
                dataset_ids = resolve_dataset_ids(&cursor, datasets.len());
            }

            // Observed per-batch access deltas, from the collector's
            // never-reset per-RDD totals.
            let calls = cursor.engine().runtime().gc().freq().lifetime_calls();
            let batch_delta: Vec<u64> = dataset_ids
                .iter()
                .zip(&mut seen)
                .map(|(id, seen)| {
                    let now = calls.get(id).copied().unwrap_or(0);
                    now - std::mem::replace(seen, now)
                })
                .collect();
            out.deltas.push(batch_delta.clone());

            // --- policy: revise placement for the batches ahead ---------
            if b + 1 < end {
                let mut changed = false;
                match &mode {
                    Mode::Static => {}
                    Mode::Online { hysteresis } => {
                        for i in 0..datasets.len() {
                            let desired = if batch_delta[i] >= self.spec.hot_threshold {
                                MemTag::Dram
                            } else {
                                MemTag::Nvm
                            };
                            if desired == belief[i] {
                                pending[i] = 0;
                                continue;
                            }
                            pending[i] += 1;
                            if pending[i] >= *hysteresis {
                                retag(&mut cursor, dataset_ids[i], belief[i], desired);
                                belief[i] = desired;
                                pending[i] = 0;
                                out.retags += 1;
                                changed = true;
                            }
                        }
                    }
                    Mode::Oracle { schedule } => {
                        let next = &schedule[b as usize + 1];
                        for i in 0..datasets.len() {
                            if next[i] != belief[i] {
                                retag(&mut cursor, dataset_ids[i], belief[i], next[i]);
                                belief[i] = next[i];
                                out.retags += 1;
                                changed = true;
                            }
                        }
                    }
                }
                if changed {
                    // Apply the new placement now, between batches, so the
                    // next batch's reads hit the right device.
                    cursor.engine_mut().force_major();
                }
                t_start = cursor.now_ps();
                emit(&cursor, &Event::BatchStart { batch: b + 1 });
            }
        }

        if end == self.spec.batches {
            assert!(
                cursor.is_done(),
                "the last batch boundary must be the end of the schedule"
            );
            let (report, outcome) = RunReport::finish(cursor);
            out.finished = Some((report, outcome.results));
        }
        Ok(out)
    }
}

/// Emit one driver event at the cursor's current virtual time.
fn emit(cursor: &StageCursor, event: &Event) {
    let observer = cursor.engine().runtime().heap().observer();
    if observer.enabled() {
        observer.emit(ns_of(cursor.now_ps()), event);
    }
}

/// Pin a tag override on the collector and surface it as a `Retag` event.
fn retag(cursor: &mut StageCursor, rdd_id: u32, from: MemTag, to: MemTag) {
    emit(
        cursor,
        &Event::Retag {
            rdd: rdd_id,
            from: mem_of(from),
            to: mem_of(to),
        },
    );
    cursor
        .engine_mut()
        .runtime_mut()
        .gc_mut()
        .set_tag_override(rdd_id, to);
}

/// The device a tag resolves to (untagged objects promote to NVM).
fn mem_of(tag: MemTag) -> Mem {
    match tag {
        MemTag::Dram => Mem::Dram,
        MemTag::Nvm | MemTag::None => Mem::Nvm,
    }
}

fn memory_tag(tag: MemTag) -> MemoryTag {
    match tag {
        MemTag::Dram => MemoryTag::Dram,
        MemTag::Nvm | MemTag::None => MemoryTag::Nvm,
    }
}

/// Map a pass's per-batch deltas to the tags a clairvoyant policy wants.
fn schedule_from_deltas(deltas: &[Vec<u64>], hot_threshold: u64) -> Vec<Vec<MemTag>> {
    deltas
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|d| {
                    if *d >= hot_threshold {
                        MemTag::Dram
                    } else {
                        MemTag::Nvm
                    }
                })
                .collect()
        })
        .collect()
}

/// Find the runtime RDD id of each resident dataset by its bind label.
fn resolve_dataset_ids(cursor: &StageCursor, k: usize) -> Vec<u32> {
    let rdds = cursor.engine().rdds();
    (0..k)
        .map(|i| {
            let name = format!("d{i}");
            rdds.iter()
                .position(|n| n.label.as_deref() == Some(name.as_str()))
                .unwrap_or_else(|| panic!("resident dataset {name} has no runtime RDD"))
                as u32
        })
        .collect()
}
