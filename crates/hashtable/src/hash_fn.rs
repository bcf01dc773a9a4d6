//! Hash functions over `u32` keys.
//!
//! The choice of hash function is a *molecule*-level DQO decision (Table 1).
//! The paper's hash-based grouping uses "the Murmur3 finaliser as hash
//! function" (§4.1); we provide it plus two alternatives with different
//! speed/quality trade-offs for the molecule ablation (E9).

/// A stateless hash function from `u32` keys to `u64` hashes.
///
/// Implementations must be pure: equal keys hash equally across calls.
pub trait HashFn: Copy + Default + Send + Sync + 'static {
    /// Hash a key.
    fn hash(self, key: u32) -> u64;

    /// The slot of `key` in a power-of-two table whose index mask is
    /// `mask`: by default the low bits of the hash.
    #[inline(always)]
    fn slot(self, key: u32, mask: usize) -> usize {
        (self.hash(key) as usize) & mask
    }

    /// Human-readable name for plan rendering and benchmarks.
    fn name(self) -> &'static str;
}

/// The 64-bit Murmur3 finaliser (a.k.a. `fmix64`) applied to the
/// zero-extended key — exactly the function the paper's HG uses.
///
/// High quality: every input bit affects every output bit (full avalanche).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Murmur3Finalizer;

impl HashFn for Murmur3Finalizer {
    #[inline(always)]
    fn hash(self, key: u32) -> u64 {
        let mut h = u64::from(key);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        h
    }

    fn name(self) -> &'static str {
        "murmur3-finalizer"
    }
}

/// Fibonacci (multiplicative) hashing: multiply by 2^64/φ and rely on the
/// high bits. Cheaper than Murmur3 but weaker on structured keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fibonacci;

impl HashFn for Fibonacci {
    #[inline(always)]
    fn hash(self, key: u32) -> u64 {
        // 2^64 / golden ratio, odd.
        u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Slots come from the high half of the hash. The multiply mixes
    /// upwards only: keys that share low zero bits (`i << 12`) share
    /// their low hash bits too and would pile into a few slots.
    #[inline(always)]
    fn slot(self, key: u32, mask: usize) -> usize {
        (self.hash(key) >> 32) as usize & mask
    }

    fn name(self) -> &'static str {
        "fibonacci"
    }
}

/// The identity function. Pathological for clustered keys in tables that use
/// low bits for bucketing, but optimal when keys are already uniform — the
/// degenerate end of the molecule spectrum (and, combined with a dense
/// domain, what SPH exploits structurally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl HashFn for Identity {
    #[inline(always)]
    fn hash(self, key: u32) -> u64 {
        u64::from(key)
    }

    fn name(self) -> &'static str {
        "identity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn murmur3_known_vectors() {
        // fmix64 reference values (computed from the canonical C code).
        let h = Murmur3Finalizer;
        assert_eq!(h.hash(0), 0);
        assert_ne!(h.hash(1), 1);
        // Determinism.
        assert_eq!(h.hash(123_456), h.hash(123_456));
        // Distinct inputs produce distinct outputs in practice.
        assert_ne!(h.hash(1), h.hash(2));
    }

    #[test]
    fn murmur3_avalanche() {
        // Flipping one input bit should flip ~half the output bits.
        let h = Murmur3Finalizer;
        let a = h.hash(0xDEAD_BEEF);
        let b = h.hash(0xDEAD_BEEE); // one bit flipped
        let flipped = (a ^ b).count_ones();
        assert!(
            (16..=48).contains(&flipped),
            "weak avalanche: {flipped} bits"
        );
    }

    #[test]
    fn fibonacci_spreads_consecutive_keys() {
        let h = Fibonacci;
        // Consecutive keys must land far apart in the high bits.
        let a = h.hash(1) >> 48;
        let b = h.hash(2) >> 48;
        assert_ne!(a, b);
    }

    #[test]
    fn slots_spread_keys_that_share_low_zero_bits() {
        // Mean linear-probing displacement of 8,192 keys `i << shift` in
        // 16,384 slots. A random spread gives about 0.5. The low bits of
        // the Fibonacci hash give 511 at shift 11 and worse beyond.
        fn displacement(h: impl HashFn, shift: u32) -> f64 {
            let mask = (1 << 14) - 1;
            let mut taken = vec![false; mask + 1];
            let mut moves = 0u32;
            for i in 0..8_192u32 {
                let mut at = h.slot(i << shift, mask);
                while taken[at] {
                    at = (at + 1) & mask;
                    moves += 1;
                }
                taken[at] = true;
            }
            f64::from(moves) / 8_192.0
        }
        for shift in 0..=19 {
            for d in [
                displacement(Fibonacci, shift),
                displacement(Murmur3Finalizer, shift),
            ] {
                assert!(d < 1.0, "shift {shift}: mean displacement {d}");
            }
        }
        // Identity keeps its designed behaviour: the key's own low bits.
        assert_eq!(Identity.slot(77, 1023), 77);
    }

    #[test]
    fn identity_is_identity() {
        assert_eq!(Identity.hash(42), 42);
        assert_eq!(Identity.hash(u32::MAX), u64::from(u32::MAX));
    }

    #[test]
    fn names_are_distinct() {
        let names = [Murmur3Finalizer.name(), Fibonacci.name(), Identity.name()];
        assert_eq!(
            names.len(),
            names.iter().collect::<std::collections::HashSet<_>>().len()
        );
    }
}
