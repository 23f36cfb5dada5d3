//! Windowed memory-traffic metering for bandwidth time series.
//!
//! Figure 8 of the paper plots DRAM and NVM read/write bandwidth over the
//! elapsed time of GraphX-CC under the unmanaged baseline and Panthera. The
//! [`TrafficMeter`] buckets every access into fixed-width time windows so a
//! bench harness can print the same four series.

use crate::clock::ns_of;
use crate::device::{AccessKind, DeviceKind};

/// Traffic accumulated in one time window, in bytes, indexed by
/// `[device][access-kind]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowTraffic {
    bytes: [[u64; 2]; 2],
}

impl WindowTraffic {
    /// Bytes moved for the given device and access kind.
    #[inline]
    pub fn bytes(&self, device: DeviceKind, kind: AccessKind) -> u64 {
        self.bytes[device.index()][kind.index()]
    }

    /// Total bytes moved in the window.
    pub fn total(&self) -> u64 {
        self.bytes.iter().flatten().sum()
    }

    #[inline]
    fn add(&mut self, device: DeviceKind, kind: AccessKind, bytes: u64) {
        self.bytes[device.index()][kind.index()] += bytes;
    }

    fn merge(&mut self, other: &WindowTraffic) {
        for (row, o) in self.bytes.iter_mut().zip(other.bytes.iter()) {
            for (b, ob) in row.iter_mut().zip(o.iter()) {
                *b += ob;
            }
        }
    }
}

/// One sample of a bandwidth time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthSample {
    /// Start of the window, in nanoseconds of simulated time.
    pub t_ns: f64,
    /// Average bandwidth over the window, in bytes/ns (= GB/s).
    pub gbps: f64,
}

/// Buckets memory traffic into fixed-width windows of simulated time.
///
/// The meter is safe under *unbounded* runs (streaming): it never holds
/// more than [`TrafficMeter::MAX_WINDOWS`] windows. When simulated time
/// marches past the current span — whether in one huge jump or by the
/// steady accumulation of micro-batches — the window width doubles and
/// adjacent windows fold together (totals preserved) until the new
/// timestamp fits, so memory use is bounded by the cap while the series
/// keeps covering the whole run at progressively coarser resolution.
///
/// # Examples
///
/// ```
/// use hybridmem::{AccessKind, DeviceKind, TrafficMeter};
///
/// let mut meter = TrafficMeter::new(1_000_000); // 1 µs windows, in ps
/// meter.record(100_000, DeviceKind::Nvm, AccessKind::Read, 5_000);
/// meter.record(1_500_000, DeviceKind::Nvm, AccessKind::Read, 2_000);
/// let series = meter.series(DeviceKind::Nvm, AccessKind::Read);
/// assert_eq!(series.len(), 2);
/// assert_eq!(meter.peak_gbps(DeviceKind::Nvm, AccessKind::Read), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct TrafficMeter {
    window_ps: u64,
    windows: Vec<WindowTraffic>,
    /// The window the last timestamp resolved to, as the times `[lo, hi)`
    /// that all resolve to window `cur`, so a run of accesses inside one
    /// window costs two comparisons instead of a division. Empty
    /// (`lo > hi`) when unset.
    lo: u64,
    hi: u64,
    cur: usize,
}

impl TrafficMeter {
    /// A meter with the given window width in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_ps` is zero.
    pub fn new(window_ps: u64) -> Self {
        assert!(window_ps > 0, "window width must be positive");
        TrafficMeter {
            window_ps,
            windows: Vec::new(),
            lo: u64::MAX,
            hi: 0,
            cur: 0,
        }
    }

    /// Window width in nanoseconds.
    pub fn window_ns(&self) -> f64 {
        ns_of(self.window_ps)
    }

    /// Record `bytes` moved at simulated time `now_ps` (picoseconds).
    ///
    /// Timestamps that would need more than [`TrafficMeter::MAX_WINDOWS`]
    /// windows trigger coarsening: the window width doubles and adjacent
    /// windows fold together (totals preserved) until the timestamp fits,
    /// so the vector never grows unboundedly.
    #[inline]
    pub fn record(&mut self, now_ps: u64, device: DeviceKind, kind: AccessKind, bytes: u64) {
        if bytes == 0 {
            return;
        }
        if now_ps >= self.lo && now_ps < self.hi {
            self.windows[self.cur].add(device, kind, bytes);
            return;
        }
        self.record_uncached(now_ps, device, kind, bytes);
    }

    /// [`TrafficMeter::record`] at a time outside the cached window.
    fn record_uncached(&mut self, now_ps: u64, device: DeviceKind, kind: AccessKind, bytes: u64) {
        while now_ps / self.window_ps >= Self::MAX_WINDOWS as u64 {
            self.coarsen();
        }
        let idx = (now_ps / self.window_ps) as usize;
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, WindowTraffic::default());
        }
        self.windows[idx].add(device, kind, bytes);
        self.lo = idx as u64 * self.window_ps;
        self.hi = self.lo.saturating_add(self.window_ps);
        self.cur = idx;
    }

    /// Hard cap on the number of windows; recording past it coarsens the
    /// meter instead of growing the vector.
    pub const MAX_WINDOWS: usize = 1 << 16;

    /// Double the window width and fold adjacent windows together,
    /// preserving per-device/kind totals.
    #[cold]
    fn coarsen(&mut self) {
        // The cached window's interval no longer names one window.
        (self.lo, self.hi) = (u64::MAX, 0);
        self.window_ps *= 2;
        self.windows = self
            .windows
            .chunks(2)
            .map(|pair| {
                let mut w = pair[0];
                if let Some(second) = pair.get(1) {
                    w.merge(second);
                }
                w
            })
            .collect();
    }

    /// Fold another meter's traffic into this one (cluster report
    /// aggregation across per-executor memory systems).
    ///
    /// The meters may have coarsened to different window widths; the
    /// merge first coarsens `self` up to the wider of the two (widths are
    /// the base width times a power of two, so they always align), then
    /// folds `other`'s windows in groups. Merging in executor-id order is
    /// deterministic.
    pub fn merge(&mut self, other: &TrafficMeter) {
        while self.window_ps < other.window_ps {
            self.coarsen();
        }
        let ratio = (self.window_ps / other.window_ps) as usize;
        for (i, w) in other.windows.iter().enumerate() {
            let idx = i / ratio;
            if idx >= self.windows.len() {
                self.windows.resize(idx + 1, WindowTraffic::default());
            }
            self.windows[idx].merge(w);
        }
        while self.windows.len() > Self::MAX_WINDOWS {
            self.coarsen();
        }
    }

    /// Raw per-window traffic, in chronological order.
    #[inline]
    pub fn windows(&self) -> &[WindowTraffic] {
        &self.windows
    }

    /// Bandwidth series for one device and access kind (Figure 8 format).
    pub fn series(&self, device: DeviceKind, kind: AccessKind) -> Vec<BandwidthSample> {
        self.windows
            .iter()
            .enumerate()
            .map(|(i, w)| BandwidthSample {
                t_ns: i as f64 * self.window_ns(),
                gbps: w.bytes(device, kind) as f64 / self.window_ns(),
            })
            .collect()
    }

    /// Peak bandwidth in bytes/ns for one device and access kind.
    pub fn peak_gbps(&self, device: DeviceKind, kind: AccessKind) -> f64 {
        self.series(device, kind)
            .iter()
            .map(|s| s.gbps)
            .fold(0.0, f64::max)
    }

    /// Total bytes moved for one device and access kind.
    pub fn total_bytes(&self, device: DeviceKind, kind: AccessKind) -> u64 {
        self.windows.iter().map(|w| w.bytes(device, kind)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_window() {
        let mut m = TrafficMeter::new(100_000);
        m.record(10_000, DeviceKind::Dram, AccessKind::Read, 64);
        m.record(150_000, DeviceKind::Nvm, AccessKind::Write, 128);
        assert_eq!(m.windows().len(), 2);
        assert_eq!(m.windows()[0].bytes(DeviceKind::Dram, AccessKind::Read), 64);
        assert_eq!(
            m.windows()[1].bytes(DeviceKind::Nvm, AccessKind::Write),
            128
        );
        assert_eq!(m.windows()[1].bytes(DeviceKind::Dram, AccessKind::Read), 0);
    }

    #[test]
    fn series_reports_bandwidth() {
        let mut m = TrafficMeter::new(10_000);
        m.record(0, DeviceKind::Dram, AccessKind::Read, 100);
        let s = m.series(DeviceKind::Dram, AccessKind::Read);
        assert_eq!(s.len(), 1);
        assert!((s[0].gbps - 10.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_records_are_ignored() {
        let mut m = TrafficMeter::new(10_000);
        m.record(5_000, DeviceKind::Dram, AccessKind::Read, 0);
        assert!(m.windows().is_empty());
    }

    #[test]
    fn huge_timestamps_coarsen_instead_of_allocating() {
        let mut m = TrafficMeter::new(10_000);
        m.record(5_000, DeviceKind::Dram, AccessKind::Read, 64);
        m.record(15_000, DeviceKind::Dram, AccessKind::Write, 32);
        // Needs ~1e14 windows at the original width: must coarsen, not
        // resize.
        m.record(
            1_000_000_000_000_000_000,
            DeviceKind::Nvm,
            AccessKind::Write,
            128,
        );
        assert!(m.windows().len() <= TrafficMeter::MAX_WINDOWS);
        assert!(m.window_ns() > 10.0);
        // Totals survive the folding.
        assert_eq!(m.total_bytes(DeviceKind::Dram, AccessKind::Read), 64);
        assert_eq!(m.total_bytes(DeviceKind::Dram, AccessKind::Write), 32);
        assert_eq!(m.total_bytes(DeviceKind::Nvm, AccessKind::Write), 128);
        // The two early records folded into the first window.
        assert_eq!(m.windows()[0].bytes(DeviceKind::Dram, AccessKind::Read), 64);
        assert_eq!(
            m.windows()[0].bytes(DeviceKind::Dram, AccessKind::Write),
            32
        );
    }

    #[test]
    fn unbounded_streaming_run_rolls_instead_of_growing() {
        // A long streaming run: virtual time advances steadily batch after
        // batch, far past the cap's worth of base-width windows. The meter
        // must coarsen (roll windows together) rather than grow without
        // bound, and must stay within the cap after *every* record, not
        // just at the end.
        let mut m = TrafficMeter::new(1_000);
        let mut recorded = 0u64;
        for batch in 0..4_000u64 {
            // Each batch lands traffic 100 base windows past the previous
            // one: 400_000 base windows in total, ~6x the cap.
            let t = batch * 100_000;
            m.record(t, DeviceKind::Dram, AccessKind::Write, 8);
            m.record(t + 1_000, DeviceKind::Nvm, AccessKind::Read, 4);
            recorded += 12;
            assert!(
                m.windows().len() <= TrafficMeter::MAX_WINDOWS,
                "cap violated at batch {batch}: {} windows",
                m.windows().len()
            );
        }
        // Coarsening happened (the width is the base times a power of two)
        // and conserved every byte.
        assert!(m.window_ns() > 1.0);
        assert_eq!(m.window_ns().log2().fract(), 0.0);
        assert_eq!(
            m.total_bytes(DeviceKind::Dram, AccessKind::Write),
            8 * 4_000
        );
        assert_eq!(m.total_bytes(DeviceKind::Nvm, AccessKind::Read), 4 * 4_000);
        assert_eq!(
            m.total_bytes(DeviceKind::Dram, AccessKind::Write)
                + m.total_bytes(DeviceKind::Nvm, AccessKind::Read),
            recorded
        );
        // Merging two long-run meters also stays within the cap.
        let other = m.clone();
        m.merge(&other);
        assert!(m.windows().len() <= TrafficMeter::MAX_WINDOWS);
        assert_eq!(
            m.total_bytes(DeviceKind::Dram, AccessKind::Write),
            2 * 8 * 4_000
        );
    }

    #[test]
    fn merge_aligns_window_widths_and_preserves_totals() {
        let mut a = TrafficMeter::new(10_000);
        a.record(5_000, DeviceKind::Dram, AccessKind::Read, 64);
        a.record(25_000, DeviceKind::Nvm, AccessKind::Write, 32);
        let mut b = TrafficMeter::new(10_000);
        b.record(5_000, DeviceKind::Dram, AccessKind::Read, 100);
        b.record(
            1_000_000_000_000_000_000,
            DeviceKind::Nvm,
            AccessKind::Read,
            1,
        ); // forces b to coarsen
        assert!(b.window_ns() > a.window_ns());
        a.merge(&b);
        assert_eq!(a.window_ns(), b.window_ns());
        assert_eq!(a.total_bytes(DeviceKind::Dram, AccessKind::Read), 164);
        assert_eq!(a.total_bytes(DeviceKind::Nvm, AccessKind::Write), 32);
        assert_eq!(a.total_bytes(DeviceKind::Nvm, AccessKind::Read), 1);
        assert!(a.windows().len() <= TrafficMeter::MAX_WINDOWS);
        // Merging a finer meter into a coarser one folds in groups.
        let mut fine = TrafficMeter::new(10_000);
        fine.record(15_000, DeviceKind::Dram, AccessKind::Write, 8);
        let before = a.window_ns();
        a.merge(&fine);
        assert_eq!(a.window_ns(), before);
        assert_eq!(a.total_bytes(DeviceKind::Dram, AccessKind::Write), 8);
    }

    #[test]
    fn peak_and_totals() {
        let mut m = TrafficMeter::new(10_000);
        m.record(1_000, DeviceKind::Nvm, AccessKind::Read, 10);
        m.record(11_000, DeviceKind::Nvm, AccessKind::Read, 50);
        m.record(21_000, DeviceKind::Nvm, AccessKind::Read, 20);
        assert_eq!(m.total_bytes(DeviceKind::Nvm, AccessKind::Read), 80);
        assert!((m.peak_gbps(DeviceKind::Nvm, AccessKind::Read) - 5.0).abs() < 1e-9);
    }
}
