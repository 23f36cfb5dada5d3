//! Mapping from simulated addresses to physical devices.
//!
//! Heap spaces register address *regions* with the layout. A region is either
//! pinned to one device (Panthera's split old generation, the DRAM-resident
//! young generation) or *interleaved*: its virtual address range is divided
//! into fixed-size chunks, each mapped to DRAM with a given probability —
//! the paper's "unmanaged" baseline (Section 5.2) which maps each 1 GB chunk
//! of the old generation to DRAM with probability equal to the DRAM ratio.

use crate::device::DeviceKind;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// A simulated physical address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The address `bytes` past `self`.
    #[inline]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0 + bytes)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// How a region's addresses map to devices.
#[derive(Debug, Clone)]
pub enum RegionMapping {
    /// Every address in the region lives on one device.
    Fixed(DeviceKind),
    /// The region is split into `chunk_bytes`-sized chunks, each mapped to a
    /// device by the `chunks` table (index = offset / chunk_bytes).
    Interleaved {
        /// Chunk granularity in bytes.
        chunk_bytes: u64,
        /// Device per chunk, in offset order.
        chunks: Vec<DeviceKind>,
    },
}

/// One registered address region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Human-readable name ("eden", "old-nvm", ...).
    pub name: String,
    /// First address of the region.
    pub base: Addr,
    /// Size in bytes.
    pub size: u64,
    /// Device mapping for the region.
    pub mapping: RegionMapping,
}

impl Region {
    /// True if `addr` falls inside this region.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.size
    }

    /// Device backing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the region.
    #[inline]
    pub fn device_of(&self, addr: Addr) -> DeviceKind {
        if !self.contains(addr) {
            self.outside(addr);
        }
        match &self.mapping {
            RegionMapping::Fixed(d) => *d,
            RegionMapping::Interleaved {
                chunk_bytes,
                chunks,
            } => {
                let idx = ((addr.0 - self.base.0) / chunk_bytes) as usize;
                chunks[idx.min(chunks.len() - 1)]
            }
        }
    }

    #[cold]
    fn outside(&self, addr: Addr) -> ! {
        panic!("address {addr} outside region {}", self.name)
    }

    /// Bytes of this region backed by the given device.
    pub fn bytes_on(&self, device: DeviceKind) -> u64 {
        match &self.mapping {
            RegionMapping::Fixed(d) => {
                if *d == device {
                    self.size
                } else {
                    0
                }
            }
            RegionMapping::Interleaved {
                chunk_bytes,
                chunks,
            } => {
                let mut total = 0u64;
                let mut remaining = self.size;
                for d in chunks {
                    let take = remaining.min(*chunk_bytes);
                    if *d == device {
                        total += take;
                    }
                    remaining -= take;
                    if remaining == 0 {
                        break;
                    }
                }
                total
            }
        }
    }
}

/// The full address-space layout: a set of non-overlapping regions.
#[derive(Debug, Clone, Default)]
pub struct PhysicalLayout {
    regions: Vec<Region>,
    next_base: u64,
}

impl PhysicalLayout {
    /// An empty layout; regions are placed consecutively from address 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a region of `size` bytes pinned to `device`; returns its base.
    pub fn add_fixed(&mut self, name: &str, size: u64, device: DeviceKind) -> Addr {
        self.add_region(name, size, RegionMapping::Fixed(device))
    }

    /// Register a region whose chunks are mapped to DRAM with probability
    /// `dram_ratio` (the paper's unmanaged interleaving), using a
    /// deterministic RNG seeded with `seed`. Returns the region base.
    pub fn add_interleaved(
        &mut self,
        name: &str,
        size: u64,
        chunk_bytes: u64,
        dram_ratio: f64,
        seed: u64,
    ) -> Addr {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        assert!((0.0..=1.0).contains(&dram_ratio), "ratio must be in [0,1]");
        let n_chunks = size.div_ceil(chunk_bytes).max(1) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        // Deterministic quota-based assignment: exactly round(ratio * n)
        // chunks land on DRAM, in a seeded random arrangement. This mirrors
        // the expectation of the paper's per-chunk coin flips while keeping
        // small simulated heaps from being skewed by sampling noise.
        let n_dram = ((dram_ratio * n_chunks as f64).round() as usize).min(n_chunks);
        let mut chunks = vec![DeviceKind::Nvm; n_chunks];
        let mut placed = 0usize;
        while placed < n_dram {
            let i = rng.random_range(0..n_chunks);
            if chunks[i] == DeviceKind::Nvm {
                chunks[i] = DeviceKind::Dram;
                placed += 1;
            }
        }
        self.add_region(
            name,
            size,
            RegionMapping::Interleaved {
                chunk_bytes,
                chunks,
            },
        )
    }

    fn add_region(&mut self, name: &str, size: u64, mapping: RegionMapping) -> Addr {
        assert!(size > 0, "region {name} must have positive size");
        let base = Addr(self.next_base);
        // Leave a guard gap between regions to catch stray offsets.
        self.next_base += size + 4096;
        self.regions.push(Region {
            name: name.to_string(),
            base,
            size,
            mapping,
        });
        base
    }

    /// The region containing `addr`, if any.
    #[inline]
    pub fn region_of(&self, addr: Addr) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// Device backing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if no region contains `addr`.
    #[inline]
    pub fn device_of(&self, addr: Addr) -> DeviceKind {
        match self.region_of(addr) {
            Some(region) => region.device_of(addr),
            None => unmapped(addr),
        }
    }

    /// All registered regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total bytes mapped to `device` across all regions.
    pub fn bytes_on(&self, device: DeviceKind) -> u64 {
        self.regions.iter().map(|r| r.bytes_on(device)).sum()
    }
}

#[cold]
fn unmapped(addr: Addr) -> ! {
    panic!("unmapped address {addr}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_region_lookup() {
        let mut l = PhysicalLayout::new();
        let base = l.add_fixed("eden", 1024, DeviceKind::Dram);
        assert_eq!(l.device_of(base), DeviceKind::Dram);
        assert_eq!(l.device_of(base.offset(1023)), DeviceKind::Dram);
        assert_eq!(l.bytes_on(DeviceKind::Dram), 1024);
        assert_eq!(l.bytes_on(DeviceKind::Nvm), 0);
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut l = PhysicalLayout::new();
        let a = l.add_fixed("a", 100, DeviceKind::Dram);
        let b = l.add_fixed("b", 100, DeviceKind::Nvm);
        assert!(b.0 >= a.0 + 100);
        assert_eq!(l.device_of(b), DeviceKind::Nvm);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn unmapped_address_panics() {
        let mut l = PhysicalLayout::new();
        l.add_fixed("a", 100, DeviceKind::Dram);
        l.device_of(Addr(u64::MAX));
    }

    #[test]
    fn interleaved_respects_ratio() {
        let mut l = PhysicalLayout::new();
        let size = 64 * 1024u64;
        let chunk = 1024u64;
        l.add_interleaved("old", size, chunk, 0.25, 42);
        let dram = l.bytes_on(DeviceKind::Dram);
        assert_eq!(dram, size / 4, "quota assignment is exact");
    }

    #[test]
    fn interleaved_is_deterministic() {
        let build = || {
            let mut l = PhysicalLayout::new();
            let base = l.add_interleaved("old", 8192, 512, 0.5, 7);
            (0..16)
                .map(|i| l.device_of(base.offset(i * 512)))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn interleaved_mixes_devices() {
        let mut l = PhysicalLayout::new();
        let base = l.add_interleaved("old", 16 * 1024, 1024, 0.5, 3);
        let devices: Vec<_> = (0..16)
            .map(|i| l.device_of(base.offset(i * 1024)))
            .collect();
        assert!(devices.contains(&DeviceKind::Dram));
        assert!(devices.contains(&DeviceKind::Nvm));
    }
}
