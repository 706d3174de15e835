//! The seeded generator every workload draws from.
//!
//! A splitmix64 stream: same seed, same stream, on every platform and
//! in every process, which is what makes an op stream byte-identical
//! across the two sides of a comparison. Nothing in the database ever
//! sees the generator — only the inputs it produced.

/// A splitmix64 pseudo-random stream.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for
    /// every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform index into a non-empty slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// An independent stream for sub-generator `stream` (one per desk,
    /// thread or phase), so adding draws to one never shifts another.
    pub fn fork(&self, stream: u64) -> SplitMix64 {
        let mut mixer = SplitMix64(self.0 ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        SplitMix64(mixer.next_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_matches_the_reference_vector() {
        // splitmix64 reference output for seed 1234567
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn forks_are_independent_of_later_parent_draws() {
        let parent = SplitMix64::new(42);
        let mut a = parent.fork(1);
        let mut advanced = parent.clone();
        advanced.next_u64();
        let mut b = parent.fork(1);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(parent.fork(1).next_u64(), parent.fork(2).next_u64());
    }
}
