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

/// Lanes the scalar passes of [`Xorshift64Star::reserve_range`] step
/// side by side: one step is a six-operation dependent chain, so a
/// single chain leaves most of the core idle; four independent ones
/// fill it.
const LANES: usize = 4;

/// Lane lengths of the checked skip, longest first, each with the jump
/// that starts the next lane.  A run of `L * len` draws is split into
/// `L` consecutive chains of `len`; what is left over falls to the next
/// length, and the last few draws to a single chain.  Evaluated at
/// compile time: 48 KiB of `.rodata`, nothing initialised at run time.
static BLOCKS: [(usize, Jump); 3] = {
    let short = Jump::single().repeated(8);
    let mid = short.repeated(8);
    let long = mid.repeated(8);
    [(512, long), (64, mid), (8, short)]
};

/// The checked-skip kernel this host runs, by name: `16/8-lane avx512`
/// where the CPU has AVX-512 F/DQ/VL, `4-lane scalar` elsewhere.
pub fn skip_kernel() -> &'static str {
    if wide_lanes() {
        "16/8-lane avx512"
    } else {
        "4-lane scalar"
    }
}

/// Whether [`checked_chain`] takes the wide kernel, probed on first use.
fn wide_lanes() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static WIDE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *WIDE.get_or_init(|| {
            is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512dq")
                && is_x86_feature_detected!("avx512vl")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `L` consecutive chains of `len` steps from `s`, side by side, for as
/// long as `left` holds `L * len` draws; each chain starts where the one
/// before it ends (`starts` leaps `len` steps).  Moves `s` and `left`
/// past the draws taken and returns the least `lo = state · lo_factor`
/// of any of them.
#[inline(always)]
fn pass<const L: usize>(
    s: &mut u64,
    left: &mut usize,
    len: usize,
    lo_factor: u64,
    starts: impl Fn(u64) -> [u64; L],
) -> u64 {
    let mut least = [u64::MAX; L];
    while *left >= L * len {
        let first = starts(*s);
        let mut lane = first;
        for _ in 0..len {
            for (x, least) in lane.iter_mut().zip(&mut least) {
                *x = step(*x);
                *least = (*least).min(x.wrapping_mul(lo_factor));
            }
        }
        // Each chain ends where the next one started: the jump table
        // agrees with the steps it stands for.
        debug_assert_eq!(lane[..L - 1], first[1..]);
        *s = lane[L - 1];
        *left -= L * len;
    }
    least.iter().fold(u64::MAX, |a, &b| a.min(b))
}

/// `s` and the `L - 1` states after it, each `jump` on from the one
/// before.
#[inline(always)]
fn lane_starts<const L: usize>(s: u64, jump: &Jump) -> [u64; L] {
    let mut lane = [s; L];
    for l in 1..L {
        lane[l] = jump.leap(lane[l - 1]);
    }
    lane
}

/// [`lane_starts`] out of line, for [`wide_chain`]: inlined there, a
/// leap's eight table lookups become one gather, which takes longer
/// than the eight loads.
#[inline(never)]
fn lane_starts_outlined<const L: usize>(s: u64, jump: &Jump) -> [u64; L] {
    lane_starts(s, jump)
}

/// The checked chain of `n` draws from `s` on [`LANES`] lanes: the state
/// after them and the least `lo` among them.  Out of line so that it
/// stays in general-purpose registers when [`wide_chain`] falls through
/// to it: vectorised there, its short passes ran slower.
#[inline(never)]
fn scalar_chain(mut s: u64, n: usize, lo_factor: u64) -> (u64, u64) {
    let (mut left, mut least) = (n, u64::MAX);
    for (len, jump) in &BLOCKS {
        let starts = |s| lane_starts(s, jump);
        least = least.min(pass::<LANES>(&mut s, &mut left, *len, lo_factor, starts));
    }
    for _ in 0..left {
        s = step(s);
        least = least.min(s.wrapping_mul(lo_factor));
    }
    (s, least)
}

/// [`scalar_chain`] with 16 and then 8 lanes of 512, and of 64, in
/// front.  The lanes are plain arrays, which this function's features
/// let the compiler keep in two, then one, 512-bit registers (`vpmullq`
/// is the DQ multiply, `vpminuq` the F minimum); no intrinsic is named.
/// What is left, under 8 · 64 draws, falls through to the scalar passes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn wide_chain(mut s: u64, n: usize, lo_factor: u64) -> (u64, u64) {
    let (mut left, mut least) = (n, u64::MAX);
    for (len, jump) in &BLOCKS[..2] {
        let wide = pass::<16>(&mut s, &mut left, *len, lo_factor, |s| {
            lane_starts_outlined(s, jump)
        });
        let half = pass::<8>(&mut s, &mut left, *len, lo_factor, |s| {
            lane_starts_outlined(s, jump)
        });
        least = least.min(wide).min(half);
    }
    let (s, rest) = scalar_chain(s, left, lo_factor);
    (s, least.min(rest))
}

/// The checked chain on the widest kernel this host has; a run too
/// short for the wide lanes goes straight to the scalar passes.
fn checked_chain(s: u64, n: usize, lo_factor: u64) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    if n >= 8 * 64 && wide_lanes() {
        // SAFETY: `wide_lanes` saw avx512f, avx512dq and avx512vl on this
        // CPU, the three features `wide_chain` is compiled for.
        return unsafe { wide_chain(s, n, lo_factor) };
    }
    scalar_chain(s, n, lo_factor)
}

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

    /// [`Rng64::reserve_range`] with `chain` as the checked chain.
    #[inline(always)]
    fn reserve_on(
        &mut self,
        bound: u64,
        n: usize,
        chain: impl FnOnce(u64, usize, u64) -> (u64, u64),
    ) -> Option<u64> {
        if bound == 0 {
            return None;
        }
        let first = self.state;
        let (s, least) = chain(first, n, SCRAMBLE.wrapping_mul(bound));
        if least < bound {
            return None;
        }
        self.state = s;
        Some(first)
    }

    /// [`Rng64::reserve_range`] on the scalar passes whatever the host
    /// has, for the tests that hold the two kernels equal.
    #[cfg(test)]
    fn reserve_range_scalar(&mut self, bound: u64, n: usize) -> Option<u64> {
        self.reserve_on(bound, n, scalar_chain)
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
    /// nothing is read or written.  The chains run on the widest lanes
    /// the host has ([`skip_kernel`]); every kernel checks every draw
    /// and ends in the same state.
    fn reserve_range(&mut self, bound: u64, n: usize) -> Option<u64> {
        self.reserve_on(bound, n, checked_chain)
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
        // Around every lane-block boundary (4 lanes of 8, 64, 512; 8 and
        // 16 lanes of 64 and 512), two degrees the TW analog has, its
        // largest hub, and one long run.
        let counts = [
            0, 1, 2, 31, 32, 33, 63, 64, 255, 256, 257, 288, 511, 512, 513, 740, 1023, 1024, 1025,
            2047, 2048, 2049, 2400, 4095, 4096, 4097, 8191, 8192, 8193, 24_576, 1_000_000,
        ];
        // The dispatched kernel is the wide one only where the host has
        // the features; the scalar passes run everywhere.
        eprintln!("dispatched checked-skip kernel: {}", skip_kernel());
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
                let mut scalar = r.clone();
                let got = r.reserve_range(bound, n);
                assert_eq!(
                    scalar.reserve_range_scalar(bound, n),
                    got,
                    "kernels disagree: n {n} bound {bound}"
                );
                assert_eq!(scalar.state(), r.state(), "n {n} bound {bound}");
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
            for n in [8usize, 64, 512, 740, 1024, 4096, 8192] {
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
