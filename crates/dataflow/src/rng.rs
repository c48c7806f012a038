//! A tiny deterministic xorshift64* generator.
//!
//! The workspace builds offline, so the `rand` crate is unavailable;
//! randomized tests and probes that don't need cryptographic quality use
//! this instead. Deterministic by construction: the same seed always
//! yields the same sequence on every platform.

/// xorshift64* pseudo-random generator (Vigna, 2016).
#[derive(Debug, Clone)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a generator; a zero seed is remapped (xorshift state must
    /// be non-zero).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9e37_79b9_7f4a_7c15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound` (`bound` must be positive).
    pub fn next_below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = XorShift64::new(42);
        let mut b = XorShift64::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut r = XorShift64::new(0);
        assert_ne!(r.next_u64(), 0);
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut r = XorShift64::new(7);
        for _ in 0..256 {
            assert!(r.next_below(10) < 10);
        }
    }
}
