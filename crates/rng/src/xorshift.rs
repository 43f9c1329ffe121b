//! The xorshift64* and splitmix64 generators.
//!
//! FlashMob adopts xorshift* (Marsaglia 2003, Vigna's `*` output scrambler)
//! because its three shifts and one multiply are far cheaper than the
//! Mersenne Twister's tempered state array, and random walk sampling does
//! not need MT-grade equidistribution.

use crate::Rng64;

/// Vigna's output scrambler: `next_u64` is the stepped state times this.
const SCRAMBLE: u64 = 0x2545_F491_4F6C_DD1D;

/// One xorshift64 state transition: three shift-xors, so a linear map
/// over GF(2) — which is what lets [`Jump`] tabulate its powers.
#[inline]
const fn step(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// A power of [`step`], sliced by input byte: the map is linear, so the
/// image of a state is the XOR of the images of its eight bytes, each a
/// table lookup.  16 KiB of `.rodata` per power.
struct Jump([[u64; 256]; 8]);

impl Jump {
    /// The table of the linear map that sends bit `i` to `basis[i]`.
    const fn from_basis(basis: &[u64; 64]) -> Self {
        let mut table = [[0u64; 256]; 8];
        let mut byte = 0;
        while byte < 8 {
            let mut b = 1;
            while b < 256 {
                // `b` without its lowest set bit is already filled in.
                let low = b & (b - 1);
                table[byte][b] =
                    table[byte][low] ^ basis[8 * byte + (b ^ low).trailing_zeros() as usize];
                b += 1;
            }
            byte += 1;
        }
        Self(table)
    }

    /// One step, tabulated from [`step`] itself.
    const fn single() -> Self {
        let mut basis = [0u64; 64];
        let mut i = 0;
        while i < 64 {
            basis[i] = step(1 << i);
            i += 1;
        }
        Self::from_basis(&basis)
    }

    /// This map applied `times` times over: every longer jump is built
    /// from a shorter one, so constant evaluation stays short however
    /// long the jump is.
    const fn repeated(&self, times: usize) -> Self {
        let mut basis = [0u64; 64];
        let mut i = 0;
        while i < 64 {
            let mut x = 1u64 << i;
            let mut k = 0;
            while k < times {
                x = self.leap(x);
                k += 1;
            }
            basis[i] = x;
            i += 1;
        }
        Self::from_basis(&basis)
    }

    /// The image of state `s`.  (Not named `apply`: `fm-audit` resolves
    /// method calls by name, and this one is called from the sample
    /// loops.)
    #[inline]
    const fn leap(&self, s: u64) -> u64 {
        let t = &self.0;
        t[0][(s & 0xFF) as usize]
            ^ t[1][((s >> 8) & 0xFF) as usize]
            ^ t[2][((s >> 16) & 0xFF) as usize]
            ^ t[3][((s >> 24) & 0xFF) as usize]
            ^ t[4][((s >> 32) & 0xFF) as usize]
            ^ t[5][((s >> 40) & 0xFF) as usize]
            ^ t[6][((s >> 48) & 0xFF) as usize]
            ^ t[7][(s >> 56) as usize]
    }
}

/// Lanes [`Xorshift64Star::reserve_range`] steps side by side: one
/// step is a six-operation dependent chain, so a single chain leaves
/// most of the core idle; four independent ones fill it.
const LANES: usize = 4;

/// Lane lengths of the checked skip, longest first, each with the jump
/// that starts the next lane.  A run of `LANES * len` draws is split
/// into `LANES` consecutive chains of `len`; what is left over falls to
/// the next length, and the last few draws to a single chain.  Evaluated
/// at compile time: 48 KiB of `.rodata`, nothing initialised at run time.
static BLOCKS: [(usize, Jump); 3] = {
    let short = Jump::single().repeated(8);
    let mid = short.repeated(8);
    let long = mid.repeated(8);
    [(512, long), (64, mid), (8, short)]
};

/// Marsaglia's xorshift64 generator with Vigna's multiplicative scrambler.
///
/// Period `2^64 - 1`; state must be nonzero (the constructor guarantees
/// this by remapping a zero seed through splitmix64).
#[derive(Debug, Clone)]
pub struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    /// Creates a generator from an arbitrary seed (zero is permitted).
    #[inline]
    pub fn new(seed: u64) -> Self {
        // Xorshift state must never be zero; run the seed through one
        // splitmix64 round and fall back to a fixed odd constant.
        let mut sm = SplitMix64::new(seed);
        let mut state = sm.next_u64();
        if state == 0 {
            state = 0x9E37_79B9_7F4A_7C15;
        }
        Self { state }
    }

    /// Returns the raw internal state (useful for checkpointing a walk).
    #[inline]
    pub fn state(&self) -> u64 {
        self.state
    }
}

impl Rng64 for Xorshift64Star {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = step(self.state);
        self.state.wrapping_mul(SCRAMBLE)
    }

    /// The checked skip.  A draw's `lo` is `state · (SCRAMBLE · bound)
    /// mod 2⁶⁴`, so proving that one draw stays out of the `lo < bound`
    /// branch costs a multiply and a compare on top of its step, and
    /// nothing is read or written.
    fn reserve_range(&mut self, bound: u64, n: usize) -> Option<u64> {
        if bound == 0 {
            return None;
        }
        let lo_factor = SCRAMBLE.wrapping_mul(bound);
        let first = self.state;
        // The smallest `lo` of any draw so far, per lane.
        let (mut s, mut left, mut least) = (first, n, [u64::MAX; LANES]);
        for (len, jump) in &BLOCKS {
            while left >= LANES * len {
                let mut lane = [s; LANES];
                for l in 1..LANES {
                    lane[l] = jump.leap(lane[l - 1]);
                }
                let starts = lane;
                for _ in 0..*len {
                    for (x, least) in lane.iter_mut().zip(&mut least) {
                        *x = step(*x);
                        *least = (*least).min(x.wrapping_mul(lo_factor));
                    }
                }
                // Each chain ends where the next one started: the jump
                // table agrees with the steps it stands for.
                debug_assert_eq!(lane[..LANES - 1], starts[1..]);
                s = lane[LANES - 1];
                left -= LANES * len;
            }
        }
        for _ in 0..left {
            s = step(s);
            least[0] = least[0].min(s.wrapping_mul(lo_factor));
        }
        if least.iter().any(|&lo| lo < bound) {
            return None;
        }
        self.state = s;
        Some(first)
    }

    #[inline]
    fn index_from(state: &mut u64, bound: u64) -> u64 {
        *state = step(*state);
        ((state.wrapping_mul(SCRAMBLE) as u128 * bound as u128) >> 64) as u64
    }
}

/// The splitmix64 generator, used for seeding and stream splitting.
///
/// Every output of splitmix64 is a bijection of its counter state, so it
/// is ideal for deriving independent seeds from a task index.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from any 64-bit seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64 implementation by Sebastiano Vigna.
        let mut s = SplitMix64::new(1234567);
        assert_eq!(s.next_u64(), 6457827717110365317);
        assert_eq!(s.next_u64(), 3203168211198807973);
        assert_eq!(s.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xorshift_zero_seed_is_usable() {
        let mut r = Xorshift64Star::new(0);
        let a = r.next_u64();
        let b = r.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = Xorshift64Star::new(31337);
        let mut b = Xorshift64Star::new(31337);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_distinct_seeds_diverge() {
        let mut a = Xorshift64Star::new(1);
        let mut b = Xorshift64Star::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    /// Whether the `n` draws of `gen_range(bound)` ahead of `r` all stay
    /// out of the `lo < bound` branch, read off the raw outputs.
    fn none_enters_the_slow_branch(r: &Xorshift64Star, bound: u64, n: usize) -> bool {
        let mut probe = r.clone();
        (0..n).all(|_| probe.next_u64().wrapping_mul(bound) >= bound)
    }

    #[test]
    fn reserve_range_equals_the_draws_it_skips() {
        // Around every lane-block boundary (4 lanes of 8, 64, 512), two
        // degrees the TW analog has, and one long run.
        let counts = [
            0, 1, 2, 31, 32, 33, 63, 64, 255, 256, 257, 288, 740, 2047, 2048, 2049, 2400, 24_576,
            1_000_000,
        ];
        let bounds = [
            1u64,
            2,
            3,
            15,
            16,
            17,
            (1 << 20) - 1,
            1 << 20,
            (1 << 20) + 1,
            (1 << 31) - 1,
            1 << 31,
            (1 << 31) + 1,
            24_576,
        ];
        let mut reserved = 0;
        for (i, &n) in counts.iter().enumerate() {
            for (j, &bound) in bounds.iter().enumerate() {
                let mut r = Xorshift64Star::new((i * 100 + j) as u64);
                let before = r.clone();
                let clean = none_enters_the_slow_branch(&r, bound, n);
                let got = r.reserve_range(bound, n);
                if !clean {
                    assert_eq!(got, None, "n {n} bound {bound}");
                    assert_eq!(r.state(), before.state(), "a decline moves nothing");
                    continue;
                }
                reserved += 1;
                let mut saved = got.expect("no draw needs a second output");
                assert_eq!(saved, before.state());
                let mut drawn = before.clone();
                // The long run is compared in state only.
                for _ in 0..n.min(30_000) {
                    let want = drawn.gen_range(bound);
                    assert_eq!(Xorshift64Star::index_from(&mut saved, bound), want);
                    assert_eq!(saved, drawn.state());
                }
                for _ in 30_000..n {
                    drawn.gen_range(bound);
                }
                assert_eq!(r.state(), drawn.state(), "n {n} bound {bound}");
            }
        }
        // 2³¹ over a million draws is the one pair with a fair chance
        // (~10⁻⁴ a cell elsewhere) of meeting the branch.
        assert!(reserved >= counts.len() * bounds.len() - 3, "{reserved}");
    }

    #[test]
    fn reserve_range_declines_where_a_draw_may_redraw() {
        // At bound ≥ 2⁶³ every other draw has `lo < bound`.
        for bound in [1u64 << 63, (1 << 63) + 1, u64::MAX] {
            for n in [8usize, 64, 740] {
                let mut r = Xorshift64Star::new(n as u64);
                let before = r.state();
                assert!(!none_enters_the_slow_branch(&r, bound, n));
                assert_eq!(r.reserve_range(bound, n), None, "bound {bound} n {n}");
                assert_eq!(r.state(), before);
            }
        }
        // A zero bound is `gen_range`'s panic, not a reservation.
        let mut r = Xorshift64Star::new(1);
        assert_eq!(r.reserve_range(0, 4), None);
        // Nothing to skip is no decline.
        assert_eq!(r.reserve_range(1 << 63, 0), Some(r.state()));
    }

    #[test]
    fn jump_tables_equal_their_single_steps() {
        let mut seeds = SplitMix64::new(0xA11CE);
        for (len, jump) in &BLOCKS {
            for _ in 0..1_000 {
                let s = seeds.next_u64();
                let stepped = (0..*len).fold(s, |x, _| step(x));
                assert_eq!(jump.leap(s), stepped, "{len} steps from {s:#x}");
            }
        }
    }

    #[test]
    fn generators_that_cannot_jump_decline() {
        let mut mt = crate::Mt19937::new(5);
        let mut twin = crate::Mt19937::new(5);
        assert_eq!(mt.reserve_range(740, 740), None);
        assert_eq!(mt.next_u64(), twin.next_u64(), "a decline draws nothing");
        let mut sm = SplitMix64::new(5);
        assert_eq!(sm.reserve_range(740, 740), None);
        assert_eq!(sm.next_u64(), SplitMix64::new(5).next_u64());
    }

    #[test]
    fn xorshift_bit_balance() {
        // Population count over many outputs should hover near 32.
        let mut r = Xorshift64Star::new(9);
        let total: u32 = (0..4096).map(|_| r.next_u64().count_ones()).sum();
        let mean = total as f64 / 4096.0;
        assert!((mean - 32.0).abs() < 0.5, "mean popcount {mean}");
    }
}
