//! FNV-1a over little-endian bytes: the one 64-bit hash behind payload
//! fingerprints, journal digests and stream answer digests. Its values
//! are pinned — fingerprints pick shuffle partitions and `distinct`
//! buckets, and stream answer digests are checked against goldens — so
//! the basis, the prime and the byte order never change.

const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// An FNV-1a hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    /// A hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Fnv {
        Fnv(BASIS)
    }

    /// A hasher whose start is the basis mixed with `tag`, so equal word
    /// streams under different tags hash apart.
    #[inline]
    pub fn tagged(tag: u64) -> Fnv {
        Fnv(BASIS ^ tag.wrapping_mul(PRIME))
    }

    /// Fold `bytes` in, one at a time.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Fold one word in, little-endian.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything folded in.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}
