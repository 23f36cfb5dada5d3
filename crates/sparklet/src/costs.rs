//! The consolidated cost model: every per-byte / per-record charge the
//! engine and exchange apply for data movement, in one struct, next to
//! the two fixed CPU prices of the engine's own work.
//!
//! The engine, the cluster exchange, and the bench suite all charge from
//! this one source of truth: a run's `SystemConfig.costs` reaches the
//! engine through `SystemConfig::engine_config`, the one place an
//! [`crate::EngineConfig`] is derived.

/// How shuffle data crosses executors in a cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShuffleTransport {
    /// The distributed default: map-side output is serialized, shipped
    /// over the network, and deserialized on the reduce side. Charged at
    /// `serde_cpu_ns` per crossing record plus `net_ns_per_byte` per
    /// crossing byte.
    #[default]
    Serde,
    /// Colocated executors on one large-memory machine: map-side buckets
    /// are deposited as packed `mheap::WireBatch`es (texts as intern-table
    /// symbols) into a shared simulated memory region and the reducer
    /// reads them in place.
    /// No serialization on either side — transfer is charged at
    /// `mem_ns_per_byte` (memory bandwidth) per crossing byte only.
    SharedRegion,
}

impl ShuffleTransport {
    /// Stable label for reports and bench output.
    pub fn label(self) -> &'static str {
        match self {
            ShuffleTransport::Serde => "serde",
            ShuffleTransport::SharedRegion => "shared_region",
        }
    }
}

/// CPU cost of one user-closure application, in virtual nanoseconds.
pub(crate) const RECORD_CPU_NS: f64 = 80.0;

/// CPU cost of interpreting one driver statement, in virtual nanoseconds.
pub(crate) const DRIVER_CPU_NS: f64 = 1_000.0;

/// Per-byte and per-record charges for simulated data movement.
///
/// All values are virtual nanoseconds; a zero disables the charge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Simulated disk bandwidth (shuffle spill files, `DISK_ONLY`
    /// persists), ns per byte.
    pub disk_ns_per_byte: f64,
    /// Cross-executor network bandwidth for the serde transport, ns per
    /// byte.
    pub net_ns_per_byte: f64,
    /// Serialization + deserialization CPU cost per record (charged on
    /// serialized persists, serialized reads, and every record crossing
    /// executors under the serde transport).
    pub serde_cpu_ns: f64,
    /// Shared-memory bandwidth for the `SharedRegion` transport, ns per
    /// byte. An order of magnitude cheaper than the network and with no
    /// per-record serde term — that is the whole fast path.
    pub mem_ns_per_byte: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            disk_ns_per_byte: 0.5,
            net_ns_per_byte: 1.0,
            serde_cpu_ns: 60.0,
            mem_ns_per_byte: 0.1,
        }
    }
}

impl CostModel {
    /// Charge for moving `bytes` through the simulated disk.
    pub fn disk_ns(&self, bytes: u64) -> f64 {
        self.disk_ns_per_byte * bytes as f64
    }

    /// Serde CPU charge for `records` records.
    pub fn serde_ns(&self, records: u64) -> f64 {
        self.serde_cpu_ns * records as f64
    }

    /// Full serde-transport charge for a cross-executor transfer:
    /// serialize every crossing record and push every byte over the
    /// network.
    pub fn serde_transfer_ns(&self, records: u64, bytes: u64) -> f64 {
        self.serde_cpu_ns * records as f64 + self.net_ns_per_byte * bytes as f64
    }

    /// Shared-region transport charge: memory bandwidth only, zero serde.
    pub fn shared_region_ns(&self, bytes: u64) -> f64 {
        self.mem_ns_per_byte * bytes as f64
    }

    /// Charge for a cross-executor transfer under `transport`.
    pub fn transfer_ns(&self, transport: ShuffleTransport, records: u64, bytes: u64) -> f64 {
        match transport {
            ShuffleTransport::Serde => self.serde_transfer_ns(records, bytes),
            ShuffleTransport::SharedRegion => self.shared_region_ns(bytes),
        }
    }

    /// True if every charge is finite and non-negative (a negative cost
    /// would run the simulated clock backwards, an infinite or NaN one
    /// would leave it nowhere).
    pub fn is_valid(&self) -> bool {
        [
            self.disk_ns_per_byte,
            self.net_ns_per_byte,
            self.serde_cpu_ns,
            self.mem_ns_per_byte,
        ]
        .iter()
        .all(|c| c.is_finite() && *c >= 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_fast_path_is_cheaper() {
        let c = CostModel::default();
        assert!(c.is_valid());
        // 1000 records / 64 KiB: the fast path must beat serde + net.
        let bytes = 64 * 1024;
        let serde = c.transfer_ns(ShuffleTransport::Serde, 1000, bytes);
        let shared = c.transfer_ns(ShuffleTransport::SharedRegion, 1000, bytes);
        assert!(shared < serde, "{shared} >= {serde}");
        assert_eq!(shared, c.mem_ns_per_byte * bytes as f64);
    }

    #[test]
    fn zero_bytes_costs_nothing_on_either_transport() {
        let c = CostModel::default();
        assert_eq!(c.transfer_ns(ShuffleTransport::Serde, 0, 0), 0.0);
        assert_eq!(c.transfer_ns(ShuffleTransport::SharedRegion, 0, 0), 0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ShuffleTransport::Serde.label(), "serde");
        assert_eq!(ShuffleTransport::SharedRegion.label(), "shared_region");
        assert_eq!(ShuffleTransport::default(), ShuffleTransport::Serde);
    }

    #[test]
    fn negative_cost_is_invalid() {
        let c = CostModel {
            net_ns_per_byte: -1.0,
            ..CostModel::default()
        };
        assert!(!c.is_valid());
    }
}
