//! Unrolled micro-batch program construction.
//!
//! A streaming run is one ordinary [`sparklang`] program: the resident
//! datasets bind and persist up front, then every micro-batch contributes
//! a fixed block of statements (ingest pane, stream-static join, state
//! update, window emission). Because the program contains no loops, a
//! [`panthera::StageCursor`] takes one step per statement, and the
//! cumulative statement count at the end of each batch's block *is* the
//! batch boundary — the virtual-time barrier at which the driver emits
//! watermarks and the policy re-tags.

use crate::spec::{StreamSpec, WindowSpec};
use mheap::Payload;
use sparklang::{ActionKind, FnTable, Program, ProgramBuilder, StorageLevel, VarId};
use sparklet::DataRegistry;
use std::collections::VecDeque;

/// A built stream: the unrolled program plus the bookkeeping the driver
/// needs to find batch boundaries and the policy's re-tag targets.
pub struct StreamProgram {
    /// The unrolled program (no loops: one cursor step per statement).
    pub program: Program,
    /// The user functions (ingest map, sum reduce).
    pub fns: FnTable,
    /// Source data for the resident datasets and every batch pane.
    pub data: DataRegistry,
    /// Cumulative statement count at the end of each batch's block;
    /// `boundaries[b]` is the cursor position of batch `b`'s barrier and
    /// `boundaries.last()` equals the program's statement count.
    pub boundaries: Vec<usize>,
    /// The resident dataset variables `d0..dK-1`, in index order — the
    /// only RDDs a re-tagging policy considers.
    pub datasets: Vec<VarId>,
    /// Variable names of the window aggregation outputs, in emission
    /// order (`win{b}` for each closing batch `b`).
    pub windows: Vec<String>,
    /// The hot dataset index per batch (from [`StreamSpec::hot_schedule`]).
    pub hot: Vec<u32>,
}

/// SplitMix64 — the repo's standard dependency-free generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deterministic keyed records: uniform keys over the spec's key space,
/// small integer values.
fn keyed_records(n: usize, key_space: i64, seed: u64) -> Vec<Payload> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            let k = (splitmix(&mut x) % key_space as u64) as i64;
            let v = (splitmix(&mut x) & 0xff) as i64;
            Payload::keyed(k, Payload::Long(v))
        })
        .collect()
}

/// Build the unrolled program, its data, and the boundary table for
/// `spec`. Pure: the same spec always yields byte-identical data and an
/// identical statement sequence.
pub fn build_stream_program(spec: &StreamSpec) -> StreamProgram {
    let hot = spec.hot_schedule();
    let mut b = ProgramBuilder::new(&spec.name);
    let ingest = b.map_fn(|r| r.clone());
    let add = b.reduce_fn(|a, c| {
        Payload::Long(
            a.as_long()
                .unwrap_or(0)
                .wrapping_add(c.as_long().unwrap_or(0)),
        )
    });

    // Statement counter: every bind / persist / unpersist / action below
    // is exactly one statement (and, with no loops, one cursor step).
    let mut stmts = 0usize;
    let mut boundaries = Vec::with_capacity(spec.batches as usize);
    let mut data = DataRegistry::new();

    // --- prologue: resident cached datasets (part of batch 0) ----------
    let mut datasets = Vec::with_capacity(spec.datasets as usize);
    for i in 0..spec.datasets {
        let name = format!("d{i}");
        let src = b.source(&name);
        let v = b.bind(&name, src);
        b.persist(v, StorageLevel::MemoryOnly);
        stmts += 2;
        data.register(
            &name,
            keyed_records(
                spec.dataset_records,
                spec.key_space,
                spec.seed ^ (0xd5 + u64::from(i)),
            ),
        );
        datasets.push(v);
    }

    // --- per-batch blocks ----------------------------------------------
    let width = spec.window.width() as usize;
    let mut panes: VecDeque<VarId> = VecDeque::new();
    let mut state: Option<VarId> = None;
    let mut windows = Vec::new();
    for batch in 0..spec.batches {
        let hot_var = datasets[hot[batch as usize] as usize];
        let src_name = format!("batch{batch}");
        data.register(
            &src_name,
            keyed_records(
                spec.pane_records,
                spec.key_space,
                spec.seed ^ (0xbeef + u64::from(batch) * 0x9e37),
            ),
        );

        // Ingest the pane; it is window state, resident until its window
        // has closed.
        let src = b.source(&src_name);
        let pane = b.bind(&format!("pane{batch}"), src.map(ingest));
        b.persist(pane, StorageLevel::MemoryOnly);
        stmts += 2;

        // Stream-static join against the batch's hot dataset, plus the
        // remaining monitored accesses. The join result is per-batch
        // transient: materialized for the count, then dead.
        let join = b.bind(&format!("join{batch}"), b.var(pane).join(b.var(hot_var)));
        b.action(join, ActionKind::Count);
        stmts += 2;
        for _ in 1..spec.accesses_per_batch {
            b.action(hot_var, ActionKind::Count);
            stmts += 1;
        }

        // Running reduceByKey state: cross-batch lineage, bounded by the
        // key space. The previous state RDD unpersists once folded in.
        let next_state = match state {
            Some(prev) => {
                let s = b.bind(
                    &format!("state{batch}"),
                    b.var(prev).union(b.var(pane)).reduce_by_key(add),
                );
                b.persist(s, StorageLevel::MemoryOnly);
                b.action(s, ActionKind::Count);
                b.unpersist(prev);
                stmts += 4;
                s
            }
            None => {
                let s = b.bind(&format!("state{batch}"), b.var(pane).reduce_by_key(add));
                b.persist(s, StorageLevel::MemoryOnly);
                b.action(s, ActionKind::Count);
                stmts += 3;
                s
            }
        };
        state = Some(next_state);

        // Window emission.
        panes.push_back(pane);
        match spec.window {
            WindowSpec::Tumbling(w) => {
                if (batch + 1).is_multiple_of(w) {
                    let mut it = panes.iter();
                    let mut expr = b.var(*it.next().expect("window has panes"));
                    for p in it {
                        expr = expr.union(b.var(*p));
                    }
                    let name = format!("win{batch}");
                    let win = b.bind(&name, expr.reduce_by_key(add));
                    b.action(win, ActionKind::Collect);
                    stmts += 2;
                    windows.push(name);
                    for p in panes.drain(..) {
                        b.unpersist(p);
                        stmts += 1;
                    }
                }
            }
            WindowSpec::Sliding(_) => {
                if panes.len() > width {
                    let out = panes.pop_front().expect("pane slides out");
                    b.unpersist(out);
                    stmts += 1;
                }
                let mut it = panes.iter();
                let mut expr = b.var(*it.next().expect("window has panes"));
                for p in it {
                    expr = expr.union(b.var(*p));
                }
                let name = format!("win{batch}");
                let win = b.bind(&name, expr.reduce_by_key(add));
                b.action(win, ActionKind::Collect);
                stmts += 2;
                windows.push(name);
            }
        }
        boundaries.push(stmts);
    }

    let (program, fns) = b.finish();
    StreamProgram {
        program,
        fns,
        data,
        boundaries,
        datasets,
        windows,
        hot,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_monotone_and_cover_the_program() {
        for window in [WindowSpec::Tumbling(3), WindowSpec::Sliding(2)] {
            let mut spec = StreamSpec::small(5);
            spec.window = window;
            let sp = build_stream_program(&spec);
            assert_eq!(sp.boundaries.len(), spec.batches as usize);
            assert!(sp.boundaries.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(
                *sp.boundaries.last().unwrap(),
                sp.program.stmts.len(),
                "{window:?}: the last boundary must be the end of the program"
            );
        }
    }

    #[test]
    fn window_emissions_match_the_shape() {
        let mut spec = StreamSpec::small(5);
        spec.batches = 9;
        spec.window = WindowSpec::Tumbling(3);
        assert_eq!(build_stream_program(&spec).windows.len(), 3);
        spec.window = WindowSpec::Sliding(4);
        assert_eq!(build_stream_program(&spec).windows.len(), 9);
    }

    #[test]
    fn data_is_seed_deterministic() {
        let a = keyed_records(64, 32, 9);
        let b = keyed_records(64, 32, 9);
        let c = keyed_records(64, 32, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.iter().all(|p| {
            let (k, _) = p.as_pair().expect("keyed");
            (0..32).contains(&k.as_long().expect("long key"))
        }));
    }
}
