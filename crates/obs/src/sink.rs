//! Event sinks and the [`Observer`] handle that fans events out to them.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

use crate::event::Event;
use crate::json::Json;

/// A consumer of structured events.
///
/// Sinks receive every event exactly once, in emission order, together
/// with the simulated-clock timestamp (nanoseconds) at the emit point.
/// Sinks must not feed anything back into the simulation: events
/// observe, never charge.
pub trait EventSink {
    /// Handle one event. `t_ns` is the simulated time of the emit point.
    fn on_event(&mut self, t_ns: f64, event: &Event);

    /// Handle one event with its emitting executor's id (0 is the
    /// single-runtime executor). The default forwards to
    /// [`EventSink::on_event`], dropping the id, so sinks that predate
    /// the cluster runtime keep working unchanged; executor-aware sinks
    /// override this.
    fn on_event_from(&mut self, t_ns: f64, exec: u16, event: &Event) {
        let _ = exec;
        self.on_event(t_ns, event);
    }
}

type SharedSink = Rc<RefCell<dyn EventSink>>;

/// A cheap, cloneable handle through which the runtime emits events.
///
/// The default handle is *disabled*: [`Observer::emit`] is a single
/// branch on an `Option` and returns immediately, so threading the
/// handle through hot paths costs nothing measurable when no sink is
/// attached. Cloning a handle shares its sink list, which is how one
/// observer installed in `SystemConfig` reaches every crate layer.
#[derive(Clone, Default)]
pub struct Observer {
    sinks: Option<Rc<RefCell<Vec<SharedSink>>>>,
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.sinks {
            None => write!(f, "Observer(disabled)"),
            Some(s) => write!(f, "Observer({} sinks)", s.borrow().len()),
        }
    }
}

impl Observer {
    /// A disabled handle (same as `Observer::default()`): emits are no-ops.
    pub fn disabled() -> Observer {
        Observer::default()
    }

    /// An enabled handle with an empty sink list.
    pub fn enabled_empty() -> Observer {
        Observer {
            sinks: Some(Rc::new(RefCell::new(Vec::new()))),
        }
    }

    /// Build an enabled handle with one sink attached. Keep your own
    /// clone of the `Rc` to read the sink's contents after the run.
    pub fn with_sink(sink: Rc<RefCell<dyn EventSink>>) -> Observer {
        let obs = Observer::enabled_empty();
        obs.attach(sink);
        obs
    }

    /// Attach another sink. No-op on a disabled handle.
    pub fn attach(&self, sink: Rc<RefCell<dyn EventSink>>) {
        if let Some(sinks) = &self.sinks {
            sinks.borrow_mut().push(sink);
        }
    }

    /// Whether any sink could receive events. Emit sites use this to
    /// skip argument construction that is itself nontrivial.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sinks.is_some()
    }

    /// Deliver one event to every attached sink. A single branch when
    /// disabled. Equivalent to [`Observer::emit_from`] with executor 0.
    #[inline]
    pub fn emit(&self, t_ns: f64, event: &Event) {
        self.emit_from(t_ns, 0, event);
    }

    /// Deliver one event tagged with its emitting executor's id (the
    /// cluster runtime re-emits each executor's buffered events through
    /// this; everything else uses [`Observer::emit`], i.e. executor 0).
    #[inline]
    pub fn emit_from(&self, t_ns: f64, exec: u16, event: &Event) {
        if let Some(sinks) = &self.sinks {
            for sink in sinks.borrow().iter() {
                sink.borrow_mut().on_event_from(t_ns, exec, event);
            }
        }
    }
}

/// A bounded in-memory sink for tests: keeps the most recent
/// `capacity` events.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    events: VecDeque<(f64, Event)>,
    seen: u64,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events (oldest evicted first).
    pub fn new(capacity: usize) -> RingBufferSink {
        RingBufferSink {
            capacity: capacity.max(1),
            events: VecDeque::new(),
            seen: 0,
        }
    }

    /// The retained `(timestamp, event)` pairs, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(f64, Event)> {
        self.events.iter()
    }

    /// Total events observed, including any evicted from the ring.
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl EventSink for RingBufferSink {
    fn on_event(&mut self, t_ns: f64, event: &Event) {
        self.seen += 1;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back((t_ns, event.clone()));
    }
}

/// A sink that writes one JSON object per event, one per line (JSONL).
///
/// The stream is replayable with [`replay`] / [`replay_path`]; a
/// written-then-replayed trace reproduces the exact event sequence,
/// timestamps bit-identical (floats are printed with shortest
/// round-trip formatting).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<std::fs::File>> {
    /// Create (truncate) `path` and write events to it, buffered.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation failure.
    pub fn create(path: &Path) -> io::Result<JsonlSink<BufWriter<std::fs::File>>> {
        Ok(JsonlSink::new(BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wrap any writer.
    pub fn new(out: W) -> JsonlSink<W> {
        JsonlSink {
            out,
            lines: 0,
            error: None,
        }
    }

    /// Lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// Flush the underlying writer and surface the first write error,
    /// if any occurred during the run (the `on_event` path cannot
    /// return errors, so they are deferred to here).
    ///
    /// # Errors
    ///
    /// The first deferred write error, or the flush failure.
    pub fn flush(&mut self) -> io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()
    }

    /// Consume the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.out
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn on_event(&mut self, t_ns: f64, event: &Event) {
        self.on_event_from(t_ns, 0, event);
    }

    fn on_event_from(&mut self, t_ns: f64, exec: u16, event: &Event) {
        if self.error.is_some() {
            return;
        }
        // Executor 0 writes no "exec" field, so non-cluster traces are
        // byte-identical to the pre-cluster format.
        let line = event.to_json_exec(t_ns, exec).to_compact();
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        } else {
            self.lines += 1;
        }
    }
}

/// Replay a JSONL stream into a sink, returning the number of events
/// delivered.
///
/// # Errors
///
/// Reports the first I/O failure, unparsable line, or structurally
/// valid JSON that is not a known event (with its 1-based line number).
pub fn replay<R: BufRead>(reader: R, sink: &mut dyn EventSink) -> Result<u64, String> {
    let mut count = 0u64;
    for (idx, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("line {}: read error: {e}", idx + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let at_line = |e: String| format!("line {}: {e}", idx + 1);
        let json = Json::parse(&line).map_err(at_line)?;
        let (t, event) = Event::from_json(&json).map_err(at_line)?;
        // Cluster traces tag events with their executor; pre-cluster
        // traces carry no "exec" field and replay as executor 0.
        let exec = Event::exec_of_json(&json).map_err(at_line)?;
        sink.on_event_from(t, exec, &event);
        count += 1;
    }
    Ok(count)
}

/// [`replay`] from a file path.
///
/// # Errors
///
/// Reports open failures and everything [`replay`] reports.
pub fn replay_path(path: &Path, sink: &mut dyn EventSink) -> Result<u64, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    replay(io::BufReader::new(file), sink)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CollectSink(Vec<(f64, Event)>);
    impl EventSink for CollectSink {
        fn on_event(&mut self, t_ns: f64, event: &Event) {
            self.0.push((t_ns, event.clone()));
        }
    }

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        assert!(!obs.enabled());
        obs.emit(1.0, &Event::MinorGcStart); // must not panic
        let sink = Rc::new(RefCell::new(RingBufferSink::new(4)));
        obs.attach(sink.clone());
        obs.emit(2.0, &Event::MinorGcStart);
        assert_eq!(sink.borrow().total_seen(), 0);
    }

    #[test]
    fn observer_fans_out_to_all_sinks_and_clones_share_them() {
        let a = Rc::new(RefCell::new(RingBufferSink::new(8)));
        let b = Rc::new(RefCell::new(RingBufferSink::new(8)));
        let obs = Observer::with_sink(a.clone());
        let clone = obs.clone();
        clone.attach(b.clone());
        obs.emit(5.0, &Event::ShuffleSpill { bytes: 1 });
        assert_eq!(a.borrow().total_seen(), 1);
        assert_eq!(b.borrow().total_seen(), 1);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut ring = RingBufferSink::new(2);
        for i in 0..5u64 {
            ring.on_event(i as f64, &Event::ShuffleSpill { bytes: i });
        }
        assert_eq!(ring.total_seen(), 5);
        let kept: Vec<u64> = ring
            .events()
            .map(|(_, e)| match e {
                Event::ShuffleSpill { bytes } => *bytes,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn jsonl_round_trip_reproduces_events_exactly() {
        let events = vec![
            (0.5, Event::MinorGcStart),
            (
                100.25,
                Event::Migration {
                    rdd: 3,
                    from: crate::event::Mem::Nvm,
                    to: crate::event::Mem::Dram,
                    bytes: 777,
                },
            ),
            (
                1e9 + 0.125,
                Event::MinorGcEnd {
                    pause_ns: 42.5,
                    moved: 1,
                    freed: 2,
                },
            ),
        ];
        let mut jsonl = JsonlSink::new(Vec::new());
        for (t, e) in &events {
            jsonl.on_event(*t, e);
        }
        assert_eq!(jsonl.lines_written(), 3);
        let bytes = jsonl.into_inner();
        let mut collected = CollectSink(Vec::new());
        let n = replay(io::Cursor::new(bytes), &mut collected).unwrap();
        assert_eq!(n, 3);
        assert_eq!(collected.0.len(), events.len());
        for ((t1, e1), (t2, e2)) in events.iter().zip(collected.0.iter()) {
            assert_eq!(t1.to_bits(), t2.to_bits());
            assert_eq!(e1, e2);
        }
    }

    #[test]
    fn executor_ids_survive_a_jsonl_round_trip() {
        struct ExecSink(Vec<(u16, Event)>);
        impl EventSink for ExecSink {
            fn on_event(&mut self, t_ns: f64, event: &Event) {
                self.on_event_from(t_ns, 0, event);
            }
            fn on_event_from(&mut self, _t_ns: f64, exec: u16, event: &Event) {
                self.0.push((exec, event.clone()));
            }
        }
        let mut jsonl = JsonlSink::new(Vec::new());
        jsonl.on_event_from(1.0, 0, &Event::MinorGcStart);
        jsonl.on_event_from(2.0, 3, &Event::ShuffleSpill { bytes: 7 });
        let bytes = jsonl.into_inner();
        let text = String::from_utf8(bytes.clone()).unwrap();
        // Executor 0's line is the pre-cluster format.
        assert!(!text.lines().next().unwrap().contains("exec"), "{text}");
        let mut sink = ExecSink(Vec::new());
        replay(io::Cursor::new(bytes), &mut sink).unwrap();
        assert_eq!(sink.0[0].0, 0);
        assert_eq!(sink.0[1].0, 3);
        assert_eq!(sink.0[1].1, Event::ShuffleSpill { bytes: 7 });
    }

    #[test]
    fn replay_rejects_malformed_lines() {
        let mut sink = CollectSink(Vec::new());
        let err = replay(io::Cursor::new(b"not json\n".to_vec()), &mut sink).unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = replay(
            io::Cursor::new(b"{\"t\":1.0,\"ev\":\"nope\"}\n".to_vec()),
            &mut sink,
        )
        .unwrap_err();
        assert!(err.contains("unknown event"), "{err}");
    }

    #[test]
    fn replay_reports_the_offending_line_number() {
        // Two good lines, then garbage: the error must name line 3, so a
        // user can jump straight to the bad record in a long trace.
        let trace = b"{\"t\":1.0,\"ev\":\"minor_gc_start\"}\n\
                      {\"t\":2.0,\"ev\":\"major_gc_start\"}\n\
                      {broken\n"
            .to_vec();
        let mut sink = CollectSink(Vec::new());
        let err = replay(io::Cursor::new(trace), &mut sink).unwrap_err();
        assert!(err.starts_with("line 3:"), "{err}");
        // Parseable JSON that is not a known event also carries its line.
        let trace = b"{\"t\":1.0,\"ev\":\"minor_gc_start\"}\n\
                      {\"t\":2.0,\"ev\":\"warp_core_breach\"}\n"
            .to_vec();
        let err = replay(io::Cursor::new(trace), &mut CollectSink(Vec::new())).unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("unknown event"), "{err}");
    }

    #[test]
    fn replay_rejects_out_of_range_ids_with_their_line() {
        let trace = b"{\"t\":1.0,\"ev\":\"rdd_call\",\"rdd\":4}\n\
                      {\"t\":2.0,\"ev\":\"rdd_call\",\"rdd\":4294967297}\n"
            .to_vec();
        let err = replay(io::Cursor::new(trace), &mut CollectSink(Vec::new())).unwrap_err();
        assert!(
            err.starts_with("line 2:") && err.contains("\"rdd\""),
            "{err}"
        );
        let trace = b"{\"t\":1.0,\"ev\":\"minor_gc_start\",\"exec\":65536}\n".to_vec();
        let err = replay(io::Cursor::new(trace), &mut CollectSink(Vec::new())).unwrap_err();
        assert!(
            err.starts_with("line 1:") && err.contains("\"exec\""),
            "{err}"
        );
    }
}
