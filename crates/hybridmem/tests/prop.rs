//! Property tests for the memory substrate: layout coverage, interleaving
//! quotas, traffic conservation, and clock-phase accounting.

use hybridmem::{
    AccessKind, AccessProfile, DeviceKind, MemorySystem, MemorySystemConfig, Phase, PhysicalLayout,
    TrafficMeter,
};
use proptest::prelude::*;

proptest! {
    /// Every address of every registered region resolves to a device, and
    /// fixed regions resolve to the device they were pinned to.
    #[test]
    fn fixed_regions_cover_their_range(sizes in prop::collection::vec(1u64..10_000, 1..8)) {
        let mut l = PhysicalLayout::new();
        let mut bases = Vec::new();
        for (i, s) in sizes.iter().enumerate() {
            let d = if i % 2 == 0 { DeviceKind::Dram } else { DeviceKind::Nvm };
            bases.push((l.add_fixed(&format!("r{i}"), *s, d), *s, d));
        }
        for (base, size, d) in bases {
            prop_assert_eq!(l.device_of(base), d);
            prop_assert_eq!(l.device_of(base.offset(size - 1)), d);
            prop_assert_eq!(l.region_of(base).unwrap().bytes_on(d), size);
        }
    }

    /// Interleaved regions honour the DRAM quota exactly (rounded to whole
    /// chunks) for any ratio and seed.
    #[test]
    fn interleaving_meets_quota(
        chunks in 1u64..256,
        ratio in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let chunk_bytes = 512u64;
        let size = chunks * chunk_bytes;
        let mut l = PhysicalLayout::new();
        l.add_interleaved("old", size, chunk_bytes, ratio, seed);
        let want = (ratio * chunks as f64).round() as u64 * chunk_bytes;
        prop_assert_eq!(l.bytes_on(DeviceKind::Dram), want);
        prop_assert_eq!(l.bytes_on(DeviceKind::Nvm), size - want);
    }

    /// The traffic meter conserves bytes: the sum over windows equals the
    /// sum of recorded accesses, per device and kind.
    #[test]
    fn traffic_is_conserved(
        events in prop::collection::vec(
            (0.0f64..1e6, any::<bool>(), any::<bool>(), 1u64..10_000),
            0..64,
        )
    ) {
        let mut m = TrafficMeter::new(1_000.0);
        let mut expect = [[0u64; 2]; 2];
        for (t, dram, read, bytes) in events {
            let d = if dram { DeviceKind::Dram } else { DeviceKind::Nvm };
            let k = if read { AccessKind::Read } else { AccessKind::Write };
            m.record(t, d, k, bytes);
            expect[d.index()][k.index()] += bytes;
        }
        for d in DeviceKind::ALL {
            for k in AccessKind::ALL {
                prop_assert_eq!(m.total_bytes(d, k), expect[d.index()][k.index()]);
            }
        }
    }

    /// Phase times always sum to total elapsed time, whatever the access
    /// pattern, and stats bytes match what was charged.
    #[test]
    fn phases_partition_time(
        ops in prop::collection::vec((0u8..3, 1u64..100_000), 1..64)
    ) {
        let mut sys = MemorySystem::new(MemorySystemConfig::with_capacities(1 << 30, 1 << 30));
        let dram = sys.layout_mut().add_fixed("d", 1 << 20, DeviceKind::Dram);
        let nvm = sys.layout_mut().add_fixed("n", 1 << 20, DeviceKind::Nvm);
        let mut total_bytes = 0u64;
        for (phase, bytes) in ops {
            let p = [Phase::Mutator, Phase::MinorGc, Phase::MajorGc][phase as usize];
            sys.enter_phase(p);
            let addr = if bytes % 2 == 0 { dram } else { nvm };
            sys.access(addr, AccessKind::Read, bytes % 4096 + 1, AccessProfile::mutator());
            total_bytes += bytes % 4096 + 1;
        }
        let c = sys.clock();
        let sum: f64 = Phase::ALL.iter().map(|p| c.phase_ns(*p)).sum();
        prop_assert!((sum - c.now_ns()).abs() < 1e-6);
        prop_assert_eq!(sys.stats().total_bytes(), total_bytes);
    }

    /// Energy is monotone in traffic: more NVM writes never reduce total
    /// energy.
    #[test]
    fn energy_monotone_in_writes(n1 in 0u64..50, extra in 1u64..50) {
        let charge = |writes: u64| {
            let mut sys =
                MemorySystem::new(MemorySystemConfig::with_capacities(1 << 30, 1 << 30));
            let nvm = sys.layout_mut().add_fixed("n", 1 << 20, DeviceKind::Nvm);
            for _ in 0..writes {
                sys.access(nvm, AccessKind::Write, 64, AccessProfile::mutator());
            }
            sys.energy().total_j()
        };
        prop_assert!(charge(n1 + extra) > charge(n1));
    }
}

/// `TrafficMeter::record`, `coarsen` and `merge` as they were before the
/// meter cached its current window's interval: the reference the cached
/// meter must match window for window.
#[derive(Clone)]
struct RefMeter {
    window_ns: f64,
    windows: Vec<[[u64; 2]; 2]>,
}

impl RefMeter {
    fn new(window_ns: f64) -> Self {
        RefMeter {
            window_ns,
            windows: Vec::new(),
        }
    }

    fn record(&mut self, now_ns: f64, device: DeviceKind, kind: AccessKind, bytes: u64) {
        if bytes == 0 {
            return;
        }
        debug_assert!(
            now_ns.is_finite() && now_ns >= 0.0,
            "non-finite or negative traffic timestamp: {now_ns}"
        );
        let (d, k) = (device.index(), kind.index());
        if !now_ns.is_finite() || now_ns < 0.0 {
            let idx = if now_ns == f64::INFINITY {
                self.windows.len().saturating_sub(1)
            } else {
                0
            };
            if self.windows.is_empty() {
                self.windows.push([[0; 2]; 2]);
            }
            self.windows[idx][d][k] += bytes;
            return;
        }
        let mut idx = (now_ns / self.window_ns) as usize;
        while idx >= TrafficMeter::MAX_WINDOWS {
            self.coarsen();
            idx = (now_ns / self.window_ns) as usize;
        }
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, [[0; 2]; 2]);
        }
        self.windows[idx][d][k] += bytes;
    }

    fn coarsen(&mut self) {
        self.window_ns *= 2.0;
        self.windows = self
            .windows
            .chunks(2)
            .map(|pair| {
                let mut w = pair[0];
                if let Some(second) = pair.get(1) {
                    add(&mut w, second);
                }
                w
            })
            .collect();
    }

    fn merge(&mut self, other: &RefMeter) {
        while self.window_ns < other.window_ns {
            self.coarsen();
        }
        let ratio = ((self.window_ns / other.window_ns).round() as usize).max(1);
        for (i, w) in other.windows.iter().enumerate() {
            let idx = i / ratio;
            if idx >= self.windows.len() {
                self.windows.resize(idx + 1, [[0; 2]; 2]);
            }
            add(&mut self.windows[idx], w);
        }
        while self.windows.len() > TrafficMeter::MAX_WINDOWS {
            self.coarsen();
        }
    }
}

fn add(into: &mut [[u64; 2]; 2], from: &[[u64; 2]; 2]) {
    for (row, o) in into.iter_mut().zip(from) {
        for (b, ob) in row.iter_mut().zip(o) {
            *b += ob;
        }
    }
}

/// Record into both meters; both must panic (debug builds reject
/// non-finite and negative times) or neither, and end up identical.
fn record_both(m: &mut TrafficMeter, r: &mut RefMeter, t: f64, op: (u8, u64, u8, u8, u64)) {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let (_, _, dev, kind, bytes) = op;
    let d = [DeviceKind::Dram, DeviceKind::Nvm][dev as usize];
    let k = [AccessKind::Read, AccessKind::Write][kind as usize];
    let got = catch_unwind(AssertUnwindSafe(|| m.record(t, d, k, bytes)));
    let want = catch_unwind(AssertUnwindSafe(|| r.record(t, d, k, bytes)));
    assert_eq!(got.is_err(), want.is_err(), "panics differ at t = {t:e}");
    assert_same(m, r);
}

fn assert_same(m: &TrafficMeter, r: &RefMeter) {
    assert_eq!(
        m.window_ns().to_bits(),
        r.window_ns.to_bits(),
        "window widths differ"
    );
    assert_eq!(m.windows().len(), r.windows.len(), "window counts differ");
    for (i, (w, rw)) in m.windows().iter().zip(&r.windows).enumerate() {
        for d in DeviceKind::ALL {
            for k in AccessKind::ALL {
                assert_eq!(
                    w.bytes(d, k),
                    rw[d.index()][k.index()],
                    "window {i} differs"
                );
            }
        }
    }
}

/// The next timestamp of a generated sequence: `code` picks monotone
/// steps, the boundaries `k·w` of the current and next windows and the
/// floats either side of them, backward jumps, NaN and ±∞, and either
/// jumps past the window cap that force coarsening (`far`) or boundaries
/// anywhere in the first 64 windows.
fn next_time(prev: f64, w: f64, code: u8, r: u64, far: bool) -> f64 {
    let frac = (r % 3_000) as f64 / 1_000.0;
    let near_edge = |k: u64| {
        let edge = k as f64 * w;
        match (r >> 8) % 3 {
            0 => edge,
            1 => edge.next_up(),
            _ => edge.next_down(),
        }
    };
    match code {
        0..=2 => prev + frac * w,
        3 => near_edge((prev / w) as u64 + r % 3),
        4 => prev - frac * w,
        5 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(r % 3) as usize],
        _ if far => {
            let cap = TrafficMeter::MAX_WINDOWS as u64;
            (cap + r % cap) as f64 * w * f64::from(1u32 << ((r >> 20) % 3))
        }
        _ => near_edge(r % 64),
    }
}

/// Window widths with exact and inexact products `k·w`; with the inexact
/// ones, some boundaries' neighbours divide into the far window.
const WIDTHS: [f64; 8] = [1.0, 10.0, 0.1, 3.0, 1e7, 0.7, 1.1, 123.456];

proptest! {
    /// The meter's cached window interval changes nothing: over monotone
    /// runs, boundaries and their neighbours, backward jumps, NaN and ±∞,
    /// every record leaves `windows()` and `window_ns()` equal to the
    /// uncached reference's.
    #[test]
    fn cached_window_matches_reference(
        width in 0usize..8,
        ops in prop::collection::vec((0u8..8, any::<u64>(), 0u8..2, 0u8..2, 0u64..5), 1..200),
    ) {
        let w = WIDTHS[width];
        let (mut m, mut r) = (TrafficMeter::new(w), RefMeter::new(w));
        let mut prev = 0.0;
        for op in ops {
            let t = next_time(prev, w, op.0, op.1, false);
            record_both(&mut m, &mut r, t, op);
            if t.is_finite() && t >= 0.0 {
                prev = t;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The same through coarsening and a merge: one meter records past
    /// the window cap, the other merges it (coarsening to match) and
    /// records on from its last time — the cache must be dropped
    /// whenever the width or the windows change.
    #[test]
    fn cached_window_survives_coarsen_and_merge(
        width in 0usize..8,
        ops in prop::collection::vec((0u8..8, any::<u64>(), 0u8..2, 0u8..2, 1u64..5), 12..24),
    ) {
        let w = WIDTHS[width];
        let (mut a, mut ra) = (TrafficMeter::new(w), RefMeter::new(w));
        let (mut b, mut rb) = (TrafficMeter::new(w), RefMeter::new(w));
        let (mut prev_a, mut prev_b) = (0.0, 0.0);
        let half = ops.len() / 2;
        for (i, op) in ops[..half].iter().enumerate() {
            // Only `b` jumps past the cap, so the merge coarsens `a`.
            let far = i % 2 == 1;
            let (m, r, prev) = if far {
                (&mut b, &mut rb, &mut prev_b)
            } else {
                (&mut a, &mut ra, &mut prev_a)
            };
            let t = next_time(*prev, w, op.0, op.1, far);
            record_both(m, r, t, *op);
            if t.is_finite() && t >= 0.0 {
                *prev = t;
            }
        }
        a.merge(&b);
        ra.merge(&rb);
        assert_same(&a, &ra);
        // First at the last time `a` recorded: a stale cached window
        // would claim it.
        record_both(&mut a, &mut ra, prev_a, ops[0]);
        for op in &ops[half..] {
            let t = next_time(prev_a, a.window_ns(), op.0, op.1, true);
            record_both(&mut a, &mut ra, t, *op);
            if t.is_finite() && t >= 0.0 {
                prev_a = t;
            }
        }
    }
}
