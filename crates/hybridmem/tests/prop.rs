//! Property tests for the memory substrate: layout coverage, interleaving
//! quotas, traffic conservation, and clock-phase accounting.

use hybridmem::{
    AccessKind, AccessProfile, DeviceKind, MemorySystem, MemorySystemConfig, Phase, PhysicalLayout,
    SimClock, TrafficMeter,
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
            (0u64..1_000_000_000, any::<bool>(), any::<bool>(), 1u64..10_000),
            0..64,
        )
    ) {
        let mut m = TrafficMeter::new(1_000_000);
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

    /// Phase times always sum exactly to total elapsed time, whatever the
    /// access pattern, and stats bytes match what was charged.
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
        let sum: u64 = Phase::ALL.iter().map(|p| c.phase_ps(*p)).sum();
        prop_assert_eq!(sum, c.now_ps());
        prop_assert_eq!(sys.stats().total_bytes(), total_bytes);
    }

    /// The clock's sums do not depend on the order of the charges: any
    /// permutation of one multiset of `(phase, ns)` charges reaches the
    /// same time with the same per-phase split, to the picosecond.
    #[test]
    fn charge_order_does_not_move_time(
        charges in prop::collection::vec((0usize..3, 0.0f64..1e7), 1..64),
        seed in any::<u64>(),
    ) {
        let run = |charges: &[(usize, f64)]| {
            let mut c = SimClock::new();
            for &(phase, ns) in charges {
                c.enter_phase(Phase::ALL[phase]);
                c.advance(ns);
            }
            (c.now_ps(), Phase::ALL.map(|p| c.phase_ps(p)))
        };
        let mut shuffled = charges.clone();
        // Fisher-Yates with a splitmix64 stream.
        let mut x = seed;
        for i in (1..shuffled.len()).rev() {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            shuffled.swap(i, ((z ^ (z >> 31)) % (i as u64 + 1)) as usize);
        }
        prop_assert_eq!(run(&charges), run(&shuffled));
        shuffled.reverse();
        prop_assert_eq!(run(&charges), run(&shuffled));
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

/// `TrafficMeter::record`, `coarsen` and `merge` without the cached
/// window interval: the reference the cached meter must match window for
/// window.
#[derive(Clone)]
struct RefMeter {
    window_ps: u64,
    windows: Vec<[[u64; 2]; 2]>,
}

impl RefMeter {
    fn new(window_ps: u64) -> Self {
        RefMeter {
            window_ps,
            windows: Vec::new(),
        }
    }

    fn record(&mut self, now_ps: u64, device: DeviceKind, kind: AccessKind, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let mut idx = now_ps / self.window_ps;
        while idx >= TrafficMeter::MAX_WINDOWS as u64 {
            self.coarsen();
            idx = now_ps / self.window_ps;
        }
        let idx = idx as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, [[0; 2]; 2]);
        }
        self.windows[idx][device.index()][kind.index()] += bytes;
    }

    fn coarsen(&mut self) {
        self.window_ps *= 2;
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
        while self.window_ps < other.window_ps {
            self.coarsen();
        }
        let ratio = (self.window_ps / other.window_ps) as usize;
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

/// Record into both meters; they must end up identical.
fn record_both(m: &mut TrafficMeter, r: &mut RefMeter, t: u64, op: (u8, u64, u8, u8, u64)) {
    let (_, _, dev, kind, bytes) = op;
    let d = [DeviceKind::Dram, DeviceKind::Nvm][dev as usize];
    let k = [AccessKind::Read, AccessKind::Write][kind as usize];
    m.record(t, d, k, bytes);
    r.record(t, d, k, bytes);
    assert_same(m, r);
}

fn assert_same(m: &TrafficMeter, r: &RefMeter) {
    assert_eq!(
        m.window_ns().to_bits(),
        (r.window_ps as f64 / 1000.0).to_bits(),
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

/// The next timestamp of a generated sequence, in picoseconds: `code`
/// picks monotone steps, the boundaries `k·w` of the current and next
/// windows and the times either side of them, backward jumps, and either
/// jumps past the window cap that force coarsening (`far`, up to the
/// clock's saturated `u64::MAX`) or boundaries anywhere in the first 64
/// windows.
fn next_time(prev: u64, w: u64, code: u8, r: u64, far: bool) -> u64 {
    let frac = (r % 3_000).saturating_mul(w) / 1_000;
    let near_edge = |k: u64| {
        let edge = k.saturating_mul(w);
        match (r >> 8) % 3 {
            0 => edge,
            1 => edge.saturating_add(1),
            _ => edge.saturating_sub(1),
        }
    };
    match code {
        0..=2 => prev.saturating_add(frac),
        3 => near_edge(prev / w + r % 3),
        4 => prev.saturating_sub(frac),
        _ if far => {
            let cap = TrafficMeter::MAX_WINDOWS as u64;
            (cap + r % cap).saturating_mul(w << ((r >> 20) % 3))
        }
        _ => near_edge(r % 64),
    }
}

/// Window widths in picoseconds: one, odd and even, and the memory
/// system's own 10 ms.
const WIDTHS: [u64; 8] = [1, 2, 3, 7, 1_000, 1_100, 123_456, 10_000_000_000];

proptest! {
    /// The meter's cached window interval changes nothing: over monotone
    /// runs, boundaries and their neighbours, and backward jumps, every
    /// record leaves `windows()` and `window_ns()` equal to the uncached
    /// reference's.
    #[test]
    fn cached_window_matches_reference(
        width in 0usize..8,
        ops in prop::collection::vec((0u8..7, any::<u64>(), 0u8..2, 0u8..2, 0u64..5), 1..200),
    ) {
        let w = WIDTHS[width];
        let (mut m, mut r) = (TrafficMeter::new(w), RefMeter::new(w));
        let mut prev = 0;
        for op in ops {
            prev = next_time(prev, w, op.0, op.1, false);
            record_both(&mut m, &mut r, prev, op);
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
        ops in prop::collection::vec((0u8..7, any::<u64>(), 0u8..2, 0u8..2, 1u64..5), 12..24),
    ) {
        let w = WIDTHS[width];
        let (mut a, mut ra) = (TrafficMeter::new(w), RefMeter::new(w));
        let (mut b, mut rb) = (TrafficMeter::new(w), RefMeter::new(w));
        let (mut prev_a, mut prev_b) = (0, 0);
        let half = ops.len() / 2;
        for (i, op) in ops[..half].iter().enumerate() {
            // Only `b` jumps past the cap, so the merge coarsens `a`.
            let far = i % 2 == 1;
            let (m, r, prev) = if far {
                (&mut b, &mut rb, &mut prev_b)
            } else {
                (&mut a, &mut ra, &mut prev_a)
            };
            *prev = next_time(*prev, w, op.0, op.1, far);
            record_both(m, r, *prev, *op);
        }
        a.merge(&b);
        ra.merge(&rb);
        assert_same(&a, &ra);
        // First at the last time `a` recorded: a stale cached window
        // would claim it.
        record_both(&mut a, &mut ra, prev_a, ops[0]);
        for op in &ops[half..] {
            prev_a = next_time(prev_a, ra.window_ps, op.0, op.1, true);
            record_both(&mut a, &mut ra, prev_a, *op);
        }
    }
}
