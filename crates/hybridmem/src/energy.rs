//! Energy accounting following Section 5.1 of the paper.
//!
//! Total memory energy = static energy + dynamic energy:
//!
//! * *static* — background power proportional to installed capacity,
//!   integrated over elapsed time (negligible for NVM, dominant for DRAM);
//! * *dynamic* — a per-cache-line cost for every read and write, with NVM
//!   writes by far the most expensive (31 200 pJ per line).

use crate::device::{AccessKind, DeviceKind, DeviceSpec};
use crate::stats::MemoryStats;

/// Energy broken down by source, in joules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// DRAM background energy (refresh etc.).
    pub dram_static_j: f64,
    /// NVM background energy.
    pub nvm_static_j: f64,
    /// DRAM dynamic (read + write) energy.
    pub dram_dynamic_j: f64,
    /// NVM dynamic (read + write) energy.
    pub nvm_dynamic_j: f64,
}

impl EnergyBreakdown {
    /// Total memory energy in joules.
    pub fn total_j(&self) -> f64 {
        self.dram_static_j + self.nvm_static_j + self.dram_dynamic_j + self.nvm_dynamic_j
    }

    /// Static share of total energy, in `[0, 1]`.
    pub fn static_fraction(&self) -> f64 {
        let t = self.total_j();
        if t == 0.0 {
            0.0
        } else {
            (self.dram_static_j + self.nvm_static_j) / t
        }
    }

    /// Add `other`'s terms into this breakdown, field by field.
    pub fn merge(&mut self, other: &EnergyBreakdown) {
        self.dram_static_j += other.dram_static_j;
        self.nvm_static_j += other.nvm_static_j;
        self.dram_dynamic_j += other.dram_dynamic_j;
        self.nvm_dynamic_j += other.nvm_dynamic_j;
    }

    /// Serialize the breakdown (plus the derived total) as a JSON object.
    pub fn to_json(&self) -> obs::Json {
        use obs::Json;
        Json::obj(vec![
            ("dram_static_j", Json::Num(self.dram_static_j)),
            ("nvm_static_j", Json::Num(self.nvm_static_j)),
            ("dram_dynamic_j", Json::Num(self.dram_dynamic_j)),
            ("nvm_dynamic_j", Json::Num(self.nvm_dynamic_j)),
            ("total_j", Json::Num(self.total_j())),
        ])
    }
}

/// Computes energy from device specs, installed capacities, elapsed time,
/// and access counters.
#[derive(Debug, Clone)]
pub struct EnergyModel {
    dram: DeviceSpec,
    nvm: DeviceSpec,
    dram_capacity_bytes: u64,
    nvm_capacity_bytes: u64,
    static_power_scale: f64,
}

const BYTES_PER_GB: f64 = 1e9;
const PJ_PER_J: f64 = 1e12;
const NS_PER_S: f64 = 1e9;

impl EnergyModel {
    /// A model over the given device specs and installed capacities.
    pub fn new(
        dram: DeviceSpec,
        nvm: DeviceSpec,
        dram_capacity_bytes: u64,
        nvm_capacity_bytes: u64,
    ) -> Self {
        Self::with_static_scale(dram, nvm, dram_capacity_bytes, nvm_capacity_bytes, 1.0)
    }

    /// Like [`EnergyModel::new`] with a *timebase correction* applied to
    /// static power. Down-scaled simulations compress elapsed time more
    /// than traffic volume (records are few but processed fast), which
    /// would understate background energy relative to dynamic energy; the
    /// scale restores the real system's static/dynamic balance.
    pub fn with_static_scale(
        dram: DeviceSpec,
        nvm: DeviceSpec,
        dram_capacity_bytes: u64,
        nvm_capacity_bytes: u64,
        static_power_scale: f64,
    ) -> Self {
        assert!(static_power_scale > 0.0, "scale must be positive");
        EnergyModel {
            dram,
            nvm,
            dram_capacity_bytes,
            nvm_capacity_bytes,
            static_power_scale,
        }
    }

    /// Installed DRAM capacity in bytes.
    pub fn dram_capacity_bytes(&self) -> u64 {
        self.dram_capacity_bytes
    }

    /// Installed NVM capacity in bytes.
    pub fn nvm_capacity_bytes(&self) -> u64 {
        self.nvm_capacity_bytes
    }

    /// Static power of the whole memory system in watts (after the
    /// timebase correction).
    pub fn static_power_w(&self) -> f64 {
        (self.dram.static_power_w_per_gb * (self.dram_capacity_bytes as f64 / BYTES_PER_GB)
            + self.nvm.static_power_w_per_gb * (self.nvm_capacity_bytes as f64 / BYTES_PER_GB))
            * self.static_power_scale
    }

    /// Energy consumed over `elapsed_ns` with the access counts in `stats`.
    pub fn breakdown(&self, elapsed_ns: f64, stats: &MemoryStats) -> EnergyBreakdown {
        let secs = elapsed_ns / NS_PER_S;
        let dyn_j = |spec: &DeviceSpec, dev: DeviceKind| {
            AccessKind::ALL
                .iter()
                .map(|k| stats.total_lines(dev, *k) as f64 * spec.energy_pj_per_line(*k))
                .sum::<f64>()
                / PJ_PER_J
        };
        EnergyBreakdown {
            dram_static_j: self.dram.static_power_w_per_gb
                * (self.dram_capacity_bytes as f64 / BYTES_PER_GB)
                * self.static_power_scale
                * secs,
            nvm_static_j: self.nvm.static_power_w_per_gb
                * (self.nvm_capacity_bytes as f64 / BYTES_PER_GB)
                * self.static_power_scale
                * secs,
            dram_dynamic_j: dyn_j(&self.dram, DeviceKind::Dram),
            nvm_dynamic_j: dyn_j(&self.nvm, DeviceKind::Nvm),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Phase;

    fn gb(n: u64) -> u64 {
        n * 1_000_000_000
    }

    #[test]
    fn static_power_scales_with_capacity() {
        let m120 = EnergyModel::new(DeviceSpec::dram(), DeviceSpec::nvm(), gb(120), 0);
        let m32 = EnergyModel::new(DeviceSpec::dram(), DeviceSpec::nvm(), gb(32), gb(88));
        // 120 GB of DRAM burns far more background power than 32 GB DRAM +
        // 88 GB NVM — the premise of the paper's energy savings.
        assert!(m120.static_power_w() > 3.0 * m32.static_power_w());
    }

    #[test]
    fn dynamic_energy_counts_lines() {
        let m = EnergyModel::new(DeviceSpec::dram(), DeviceSpec::nvm(), gb(1), gb(1));
        let mut stats = MemoryStats::new();
        stats.record(Phase::Mutator, DeviceKind::Nvm, AccessKind::Write, 64, 1);
        let b = m.breakdown(0.0, &stats);
        assert!((b.nvm_dynamic_j - 31_200.0 / 1e12).abs() < 1e-18);
        assert_eq!(b.dram_dynamic_j, 0.0);
    }

    #[test]
    fn static_energy_integrates_time() {
        let m = EnergyModel::new(DeviceSpec::dram(), DeviceSpec::nvm(), gb(8), 0);
        let stats = MemoryStats::new();
        let one_sec = m.breakdown(1e9, &stats);
        let two_sec = m.breakdown(2e9, &stats);
        assert!((two_sec.dram_static_j - 2.0 * one_sec.dram_static_j).abs() < 1e-9);
        assert!(
            (one_sec.dram_static_j - 3.0).abs() < 1e-9,
            "8 GB * 0.375 W/GB * 1 s"
        );
    }

    #[test]
    fn breakdown_total_and_fraction() {
        let m = EnergyModel::new(DeviceSpec::dram(), DeviceSpec::nvm(), gb(1), gb(1));
        let mut stats = MemoryStats::new();
        stats.record(Phase::MinorGc, DeviceKind::Dram, AccessKind::Read, 128, 2);
        let b = m.breakdown(1e9, &stats);
        assert!(b.total_j() > 0.0);
        assert!(b.static_fraction() > 0.0 && b.static_fraction() < 1.0);
    }
}
