//! Aggregate access counters per phase, device, and access kind.

use crate::clock::Phase;
use crate::device::{AccessKind, DeviceKind};

/// Counts of accesses and bytes moved, split by phase × device × kind.
#[derive(Debug, Clone, Default)]
pub struct MemoryStats {
    // [phase][device][kind]
    accesses: [[[u64; 2]; 2]; 3],
    bytes: [[[u64; 2]; 2]; 3],
    lines: [[[u64; 2]; 2]; 3],
}

impl MemoryStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one access batch.
    #[inline]
    pub fn record(
        &mut self,
        phase: Phase,
        device: DeviceKind,
        kind: AccessKind,
        bytes: u64,
        lines: u64,
    ) {
        let (p, d, k) = (phase.index(), device.index(), kind.index());
        self.accesses[p][d][k] += 1;
        self.bytes[p][d][k] += bytes;
        self.lines[p][d][k] += lines;
    }

    /// Add every counter of `other` into `self` (cluster report
    /// aggregation across per-executor memory systems).
    pub fn merge(&mut self, other: &MemoryStats) {
        for p in 0..3 {
            for d in 0..2 {
                for k in 0..2 {
                    self.accesses[p][d][k] += other.accesses[p][d][k];
                    self.bytes[p][d][k] += other.bytes[p][d][k];
                    self.lines[p][d][k] += other.lines[p][d][k];
                }
            }
        }
    }

    /// Bytes moved for a given phase/device/kind.
    pub fn bytes(&self, phase: Phase, device: DeviceKind, kind: AccessKind) -> u64 {
        self.bytes[phase.index()][device.index()][kind.index()]
    }

    /// Cache lines moved for a given phase/device/kind.
    pub fn lines(&self, phase: Phase, device: DeviceKind, kind: AccessKind) -> u64 {
        self.lines[phase.index()][device.index()][kind.index()]
    }

    /// Access batches recorded for a given phase/device/kind.
    pub fn accesses(&self, phase: Phase, device: DeviceKind, kind: AccessKind) -> u64 {
        self.accesses[phase.index()][device.index()][kind.index()]
    }

    /// Total cache lines moved on `device` with `kind`, across all phases.
    pub fn total_lines(&self, device: DeviceKind, kind: AccessKind) -> u64 {
        Phase::ALL
            .iter()
            .map(|p| self.lines(*p, device, kind))
            .sum()
    }

    /// Total bytes moved on `device` across all phases and kinds.
    pub fn total_device_bytes(&self, device: DeviceKind) -> u64 {
        Phase::ALL
            .iter()
            .flat_map(|p| {
                AccessKind::ALL
                    .iter()
                    .map(move |k| self.bytes(*p, device, *k))
            })
            .sum()
    }

    /// Total bytes moved on `device` with `kind`, across all phases.
    pub fn total_kind_bytes(&self, device: DeviceKind, kind: AccessKind) -> u64 {
        Phase::ALL
            .iter()
            .map(|p| self.bytes(*p, device, kind))
            .sum()
    }

    /// Total bytes moved everywhere.
    pub fn total_bytes(&self) -> u64 {
        DeviceKind::ALL
            .iter()
            .map(|d| self.total_device_bytes(*d))
            .sum()
    }

    /// Serialize as nested `{phase: {device: {kind: {accesses, bytes,
    /// lines}}}}` objects with stable key order.
    pub fn to_json(&self) -> obs::Json {
        use obs::Json;
        let phase_key = |p: Phase| match p {
            Phase::Mutator => "mutator",
            Phase::MinorGc => "minor_gc",
            Phase::MajorGc => "major_gc",
        };
        let device_key = |d: DeviceKind| match d {
            DeviceKind::Dram => "dram",
            DeviceKind::Nvm => "nvm",
        };
        let kind_key = |k: AccessKind| match k {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        Json::Obj(
            Phase::ALL
                .iter()
                .map(|&p| {
                    (
                        phase_key(p).to_string(),
                        Json::Obj(
                            DeviceKind::ALL
                                .iter()
                                .map(|&d| {
                                    (
                                        device_key(d).to_string(),
                                        Json::Obj(
                                            AccessKind::ALL
                                                .iter()
                                                .map(|&k| {
                                                    (
                                                        kind_key(k).to_string(),
                                                        Json::obj(vec![
                                                            (
                                                                "accesses",
                                                                Json::UInt(self.accesses(p, d, k)),
                                                            ),
                                                            (
                                                                "bytes",
                                                                Json::UInt(self.bytes(p, d, k)),
                                                            ),
                                                            (
                                                                "lines",
                                                                Json::UInt(self.lines(p, d, k)),
                                                            ),
                                                        ]),
                                                    )
                                                })
                                                .collect(),
                                        ),
                                    )
                                })
                                .collect(),
                        ),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut s = MemoryStats::new();
        s.record(Phase::Mutator, DeviceKind::Dram, AccessKind::Read, 64, 1);
        s.record(Phase::Mutator, DeviceKind::Dram, AccessKind::Read, 128, 2);
        s.record(Phase::MinorGc, DeviceKind::Nvm, AccessKind::Write, 64, 1);
        assert_eq!(
            s.bytes(Phase::Mutator, DeviceKind::Dram, AccessKind::Read),
            192
        );
        assert_eq!(
            s.lines(Phase::Mutator, DeviceKind::Dram, AccessKind::Read),
            3
        );
        assert_eq!(
            s.accesses(Phase::Mutator, DeviceKind::Dram, AccessKind::Read),
            2
        );
        assert_eq!(s.total_device_bytes(DeviceKind::Nvm), 64);
        assert_eq!(s.total_bytes(), 256);
        assert_eq!(s.total_lines(DeviceKind::Nvm, AccessKind::Write), 1);
    }

    #[test]
    fn independent_cells() {
        let mut s = MemoryStats::new();
        s.record(Phase::MajorGc, DeviceKind::Nvm, AccessKind::Read, 100, 2);
        assert_eq!(
            s.bytes(Phase::MajorGc, DeviceKind::Nvm, AccessKind::Read),
            100
        );
        assert_eq!(
            s.bytes(Phase::MajorGc, DeviceKind::Nvm, AccessKind::Write),
            0
        );
        assert_eq!(
            s.bytes(Phase::MinorGc, DeviceKind::Nvm, AccessKind::Read),
            0
        );
        assert_eq!(
            s.bytes(Phase::MajorGc, DeviceKind::Dram, AccessKind::Read),
            0
        );
    }
}
