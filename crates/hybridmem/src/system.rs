//! The [`MemorySystem`] facade: one object charging every simulated memory
//! access to the right device, phase, clock, energy counter, and traffic
//! window.
//!
//! # Time model
//!
//! Each access batch of `bytes` bytes on a device costs
//!
//! ```text
//! time = max(latency_term, bandwidth_term)
//! latency_term   = lines * latency / (threads * mlp)
//! bandwidth_term = bytes / device_bandwidth
//! ```
//!
//! a roofline: small random accesses are latency-bound, attenuated by
//! memory-level parallelism and (for GC) by the 16 parallel GC threads the
//! paper's Parallel Scavenge uses, while bulk scans and copies saturate the
//! device's bandwidth. This is exactly the effect Section 5.3 reports: NVM's
//! reduced bandwidth cripples 16-thread parallel tracing, and its higher
//! latency penalizes pointer chasing.

use crate::clock::{Phase, SimClock};
use crate::device::{cache_lines, AccessKind, DeviceKind, DeviceSpec};
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::layout::{Addr, PhysicalLayout};
use crate::stats::MemoryStats;
use crate::traffic::TrafficMeter;

/// Concurrency available to hide access latency in one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessProfile {
    /// Parallel worker threads issuing accesses (16 GC threads in the paper).
    pub threads: f64,
    /// Memory-level parallelism per thread (outstanding misses).
    pub mlp: f64,
}

impl AccessProfile {
    /// Single-threaded mutator with moderate MLP.
    pub fn mutator() -> Self {
        AccessProfile {
            threads: 1.0,
            mlp: 4.0,
        }
    }

    /// The paper's 16 parallel GC threads.
    pub fn parallel_gc() -> Self {
        AccessProfile {
            threads: 16.0,
            mlp: 4.0,
        }
    }

    /// Sequential bulk scans (reading a materialized RDD): hardware
    /// prefetching gives deep memory-level parallelism, so throughput is
    /// bandwidth-bound rather than latency-bound.
    pub fn streaming() -> Self {
        AccessProfile {
            threads: 1.0,
            mlp: 16.0,
        }
    }

    /// Effective latency divisor.
    #[inline]
    fn overlap(&self) -> f64 {
        (self.threads * self.mlp).max(1.0)
    }
}

/// Traffic-meter window width in picoseconds (10 ms).
const TRAFFIC_WINDOW_PS: u64 = 10_000_000_000;

/// Configuration of a [`MemorySystem`].
#[derive(Debug, Clone)]
pub struct MemorySystemConfig {
    /// DRAM device parameters.
    pub dram: DeviceSpec,
    /// NVM device parameters.
    pub nvm: DeviceSpec,
    /// Installed DRAM capacity in (simulated) bytes, for static power.
    pub dram_capacity_bytes: u64,
    /// Installed NVM capacity in (simulated) bytes, for static power.
    pub nvm_capacity_bytes: u64,
    /// Timebase correction multiplying static power (see
    /// [`EnergyModel::with_static_scale`]).
    pub static_power_scale: f64,
}

impl MemorySystemConfig {
    /// A config with Table 2 device parameters and the given capacities.
    pub fn with_capacities(dram_capacity_bytes: u64, nvm_capacity_bytes: u64) -> Self {
        MemorySystemConfig {
            dram: DeviceSpec::dram(),
            nvm: DeviceSpec::nvm(),
            dram_capacity_bytes,
            nvm_capacity_bytes,
            static_power_scale: 1.0,
        }
    }
}

/// The simulated hybrid memory system.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    dram: DeviceSpec,
    nvm: DeviceSpec,
    layout: PhysicalLayout,
    clock: SimClock,
    stats: MemoryStats,
    meter: TrafficMeter,
    energy: EnergyModel,
    observer: obs::Observer,
}

impl MemorySystem {
    /// A new system with the given configuration and an empty layout.
    pub fn new(config: MemorySystemConfig) -> Self {
        let energy = EnergyModel::with_static_scale(
            config.dram.clone(),
            config.nvm.clone(),
            config.dram_capacity_bytes,
            config.nvm_capacity_bytes,
            config.static_power_scale,
        );
        MemorySystem {
            dram: config.dram,
            nvm: config.nvm,
            layout: PhysicalLayout::new(),
            clock: SimClock::new(),
            stats: MemoryStats::new(),
            meter: TrafficMeter::new(TRAFFIC_WINDOW_PS),
            energy,
            observer: obs::Observer::disabled(),
        }
    }

    /// Install the event-observer handle. Events observe, never charge:
    /// attaching sinks changes no simulated quantity.
    pub fn set_observer(&mut self, observer: obs::Observer) {
        self.observer = observer;
    }

    /// The event-observer handle (disabled by default).
    pub fn observer(&self) -> &obs::Observer {
        &self.observer
    }

    /// Mutable access to the layout, for registering heap regions.
    pub fn layout_mut(&mut self) -> &mut PhysicalLayout {
        &mut self.layout
    }

    /// The address-space layout.
    pub fn layout(&self) -> &PhysicalLayout {
        &self.layout
    }

    /// The simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Switch phases (mutator / minor GC / major GC); returns the old phase.
    pub fn enter_phase(&mut self, phase: Phase) -> Phase {
        self.clock.enter_phase(phase)
    }

    /// Spec for the given device kind.
    #[inline]
    pub fn spec(&self, device: DeviceKind) -> &DeviceSpec {
        match device {
            DeviceKind::Dram => &self.dram,
            DeviceKind::Nvm => &self.nvm,
        }
    }

    /// Device backing `addr` per the current layout.
    pub fn device_of(&self, addr: Addr) -> DeviceKind {
        self.layout.device_of(addr)
    }

    /// Charge an access of `bytes` bytes at `addr`, advancing the clock.
    /// Returns the device that was touched.
    #[inline]
    pub fn access(
        &mut self,
        addr: Addr,
        kind: AccessKind,
        bytes: u64,
        profile: AccessProfile,
    ) -> DeviceKind {
        let device = self.layout.device_of(addr);
        self.access_device(device, kind, bytes, profile);
        device
    }

    /// Charge an access on an explicit device (for off-heap traffic that has
    /// no simulated address).
    #[inline]
    pub fn access_device(
        &mut self,
        device: DeviceKind,
        kind: AccessKind,
        bytes: u64,
        profile: AccessProfile,
    ) {
        if bytes == 0 {
            return;
        }
        let spec = self.spec(device);
        let lines = cache_lines(bytes);
        let latency_term = lines as f64 * spec.latency_ns(kind) / profile.overlap();
        let bandwidth_term = bytes as f64 / spec.bandwidth_bpns(kind);
        let t = latency_term.max(bandwidth_term);
        self.stats
            .record(self.clock.phase(), device, kind, bytes, lines);
        let prev_windows = self.meter.windows().len();
        self.meter.record(self.clock.now_ps(), device, kind, bytes);
        if self.observer.enabled() && prev_windows > 0 && self.meter.windows().len() > prev_windows
        {
            // A later window just opened, so window `prev_windows - 1` is
            // final: publish its watermark. The clock is monotone, hence no
            // earlier window can receive traffic after this point.
            self.emit_window(prev_windows - 1);
        }
        self.clock.advance(t);
    }

    /// Publish the watermark of the closed traffic window `closed`.
    #[cold]
    fn emit_window(&self, closed: usize) {
        let w = self.meter.windows()[closed];
        self.observer.emit(
            self.clock.now_ns(),
            &obs::Event::TrafficWindow {
                window: closed as u64,
                dram_read: w.bytes(DeviceKind::Dram, AccessKind::Read),
                dram_write: w.bytes(DeviceKind::Dram, AccessKind::Write),
                nvm_read: w.bytes(DeviceKind::Nvm, AccessKind::Read),
                nvm_write: w.bytes(DeviceKind::Nvm, AccessKind::Write),
            },
        );
    }

    /// Charge pure CPU time (no memory traffic), e.g. per-record compute.
    #[inline]
    pub fn compute(&mut self, ns: f64) {
        self.clock.advance(ns);
    }

    /// Idle until simulated time `t_ps` (see [`SimClock::advance_to`]).
    pub fn advance_to(&mut self, t_ps: u64) {
        self.clock.advance_to(t_ps);
    }

    /// Access counters.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Windowed traffic meter (Figure 8 series).
    pub fn meter(&self) -> &TrafficMeter {
        &self.meter
    }

    /// Energy consumed so far.
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy.breakdown(self.clock.now_ns(), &self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemorySystem {
        let mut s = MemorySystem::new(MemorySystemConfig::with_capacities(1e9 as u64, 1e9 as u64));
        s.layout_mut()
            .add_fixed("dram-region", 1 << 20, DeviceKind::Dram);
        s.layout_mut()
            .add_fixed("nvm-region", 1 << 20, DeviceKind::Nvm);
        s
    }

    #[test]
    fn access_routes_by_address() {
        let mut s = sys();
        let dram_base = s.layout().regions()[0].base;
        let nvm_base = s.layout().regions()[1].base;
        assert_eq!(
            s.access(dram_base, AccessKind::Read, 64, AccessProfile::mutator()),
            DeviceKind::Dram
        );
        assert_eq!(
            s.access(nvm_base, AccessKind::Read, 64, AccessProfile::mutator()),
            DeviceKind::Nvm
        );
        assert_eq!(s.stats().total_device_bytes(DeviceKind::Dram), 64);
        assert_eq!(s.stats().total_device_bytes(DeviceKind::Nvm), 64);
    }

    #[test]
    fn nvm_access_is_slower() {
        let profile = AccessProfile::mutator();
        let mut s1 = sys();
        let dram_base = s1.layout().regions()[0].base;
        s1.access(dram_base, AccessKind::Read, 64, profile);
        let dram_t = s1.clock().now_ns();

        let mut s2 = sys();
        let nvm_base = s2.layout().regions()[1].base;
        s2.access(nvm_base, AccessKind::Read, 64, profile);
        let nvm_t = s2.clock().now_ns();
        assert!((nvm_t / dram_t - 2.5).abs() < 1e-9, "Table 2 latency ratio");
    }

    #[test]
    fn bulk_transfers_are_bandwidth_bound() {
        let mut s = sys();
        let nvm_base = s.layout().regions()[1].base;
        // 1 MB on NVM at 10 B/ns => 104 857.6 ns, far above the latency term
        // with 16 threads.
        s.enter_phase(Phase::MinorGc);
        s.access(
            nvm_base,
            AccessKind::Read,
            1 << 20,
            AccessProfile::parallel_gc(),
        );
        let t = s.clock().phase_ns(Phase::MinorGc);
        assert!((t - (1u64 << 20) as f64 / 10.0).abs() < 1e-6);
    }

    #[test]
    fn parallel_gc_hides_latency() {
        let mut a = sys();
        let base = a.layout().regions()[0].base;
        a.access(base, AccessKind::Read, 64, AccessProfile::mutator());
        let single = a.clock().now_ns();

        let mut b = sys();
        let base = b.layout().regions()[0].base;
        b.access(base, AccessKind::Read, 64, AccessProfile::parallel_gc());
        let parallel = b.clock().now_ns();
        assert!(parallel < single);
    }

    #[test]
    fn compute_advances_without_traffic() {
        let mut s = sys();
        s.compute(100.0);
        assert_eq!(s.clock().now_ns(), 100.0);
        assert_eq!(s.stats().total_bytes(), 0);
    }

    #[test]
    fn energy_reflects_traffic_and_time() {
        let mut s = sys();
        let nvm_base = s.layout().regions()[1].base;
        s.access(nvm_base, AccessKind::Write, 64, AccessProfile::mutator());
        let e = s.energy();
        assert!(e.nvm_dynamic_j > 0.0);
        assert!(
            e.dram_static_j > 0.0,
            "time passed, so static energy accrued"
        );
    }
}
