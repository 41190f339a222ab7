//! Stable content hashing.
//!
//! [`Fnv64`] is a minimal FNV-1a 64-bit hasher whose output depends only
//! on the byte stream fed to it — unlike `std::hash`, it is stable across
//! processes, platforms and compiler versions, so it can key and
//! checksum on-disk entries. It lives here, in the lowest crate that
//! hashes: the store format's section checksums, every `stable_digest`
//! (machine configurations, scenarios, cache keys) and the `.stats`
//! checksum are this one function.

/// FNV-1a 64-bit streaming hasher with a stable, process-independent
/// output.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv64 {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds a `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Feeds a `usize` widened to 64 bits.
    pub fn write_usize(&mut self, v: usize) -> &mut Self {
        self.write_u64(v as u64)
    }

    /// Feeds an `f64` by its exact bit pattern.
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// Feeds a string (length-prefixed so `"ab","c"` ≠ `"a","bc"`).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes())
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            Fnv64::new().write_bytes(b"a").finish(),
            0xaf63_dc4c_8601_ec8c
        );
        assert_eq!(
            Fnv64::new().write_bytes(b"foobar").finish(),
            0x85944171f73967e8
        );
    }

    #[test]
    fn length_prefix_disambiguates_strings() {
        let ab_c = Fnv64::new().write_str("ab").write_str("c").finish();
        let a_bc = Fnv64::new().write_str("a").write_str("bc").finish();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn f64_bits_distinguish_negative_zero() {
        let pos = Fnv64::new().write_f64(0.0).finish();
        let neg = Fnv64::new().write_f64(-0.0).finish();
        assert_ne!(pos, neg);
    }
}
