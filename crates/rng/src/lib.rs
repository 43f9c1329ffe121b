//! Deterministic pseudo-random number generation and discrete sampling.
//!
//! FlashMob's edge sampling is dominated by two costs: drawing random bits
//! and turning them into a discrete choice over a vertex's out-edges.  The
//! paper (Section 5.2) notes that replacing the Mersenne Twister used by
//! KnightKing with the much cheaper xorshift* generator cuts RNG compute
//! time by more than 5x, while only shaving 4-9% off KnightKing's total
//! run time because the baseline is memory-bound.  To reproduce that
//! ablation faithfully this crate provides both generators behind a common
//! [`Rng64`] trait, plus the classical discrete samplers used by random
//! walk engines:
//!
//! * [`alias::AliasTable`] — Walker's alias method, O(1) per draw,
//!   O(n) construction (used for static weighted transition probabilities).
//! * [`its::InverseTransform`] — inverse transform sampling over a
//!   cumulative weight array, O(log n) per draw.
//! * [`rejection::RejectionSampler`] — rejection sampling against a known
//!   weight upper bound, the technique KnightKing applies to dynamic
//!   (second-order) transition probabilities.
//! * [`reservoir`] — reservoir sampling for subgraph/neighborhood sampling.
//!
//! Everything here is deterministic under a fixed seed; parallel engines
//! derive independent per-task streams with [`split_stream`].

pub mod alias;
pub mod gof;
pub mod its;
pub mod mt19937;
pub mod rejection;
pub mod reservoir;
pub mod xorshift;

pub use alias::AliasTable;
pub use its::InverseTransform;
pub use mt19937::Mt19937;
pub use rejection::RejectionSampler;
pub use xorshift::{skip_kernel, SplitMix64, Xorshift64Star};

/// A minimal 64-bit pseudo-random generator interface.
///
/// All engines in the workspace are generic over this trait so the RNG
/// ablation (xorshift* vs Mersenne Twister) can be run on any engine.
pub trait Rng64 {
    /// Returns the next 64 pseudo-random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 high-quality mantissa bits; standard u64 -> f64 construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which avoids the
    /// modulo bias of naive `next_u64() % bound` while staying branch-light
    /// on the common path.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            // Threshold for rejecting the biased low region.
            let t = bound.wrapping_neg() % bound;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Advances past `n` draws of [`Rng64::gen_range`]`(bound)` without
    /// producing them, and returns the state they start from: handing
    /// that state to [`Rng64::index_from`] `n` times yields the `n`
    /// values in order, and the generator is left exactly where the `n`
    /// draws would have left it.
    ///
    /// Declines with `None`, the generator untouched, when it cannot
    /// jump or when any of the `n` draws would enter `gen_range`'s
    /// `lo < bound` branch (the only place a draw can take a second
    /// `next_u64`), so a caller that falls back to drawing loses
    /// nothing.  The default declines.
    #[inline]
    fn reserve_range(&mut self, _bound: u64, _n: usize) -> Option<u64> {
        None
    }

    /// The next `gen_range(bound)` value of a state handed out by
    /// [`Rng64::reserve_range`], stepping the state past it.  Only a
    /// generator that reserves is ever asked; the default has no state
    /// to read.
    #[inline]
    fn index_from(_state: &mut u64, _bound: u64) -> u64
    where
        Self: Sized,
    {
        debug_assert!(false, "a generator that never reserves hands out no state");
        0
    }
}

/// Derives a statistically independent child seed for task `index`.
///
/// Engines that process partitions in parallel give each task its own
/// generator seeded with `split_stream(seed, task_index)`; results are then
/// independent of the execution schedule, which keeps multi-threaded runs
/// bit-reproducible.
#[inline]
pub fn split_stream(seed: u64, index: u64) -> u64 {
    // Two rounds of splitmix64 over a golden-ratio-offset stream index.
    let mut s = SplitMix64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    s.next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_range_respects_bound() {
        let mut r = Xorshift64Star::new(42);
        for bound in [1u64, 2, 3, 7, 100, 1 << 33] {
            for _ in 0..200 {
                assert!(r.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = Xorshift64Star::new(7);
        let bound = 10u64;
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.gen_range(bound) as usize] += 1;
        }
        let expected = n as f64 / bound as f64;
        for &c in &counts {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket deviates {dev:.3} from uniform");
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn gen_range_zero_bound_panics() {
        let mut r = Xorshift64Star::new(1);
        let _ = r.gen_range(0);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut r = Xorshift64Star::new(3);
        for _ in 0..10_000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn split_stream_children_differ() {
        let a = split_stream(99, 0);
        let b = split_stream(99, 1);
        let c = split_stream(100, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn split_stream_is_deterministic() {
        assert_eq!(split_stream(5, 17), split_stream(5, 17));
    }
}
