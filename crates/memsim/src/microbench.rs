//! Real timed load-latency microbenchmarks (re-measuring Table 1).
//!
//! Three access patterns over a working set sized to a target memory
//! level, timed with `std::time::Instant`:
//!
//! * sequential read — unit-stride sum over a `u64` array;
//! * random read — index-array-driven gathers (indices precomputed so the
//!   loads themselves are independent);
//! * pointer chasing — a random-cycle permutation walked serially, the
//!   classic dependent-load latency benchmark.
//!
//! These run on the *host* machine, so absolute numbers differ from the
//! paper's Xeon; the harness prints them side by side with the
//! [`crate::latency::LatencyModel`] defaults.

use std::time::Instant;

use crate::AccessKind;

/// Result of one microbenchmark run.
#[derive(Debug, Clone, Copy)]
pub struct MicrobenchResult {
    /// The measured pattern.
    pub kind: AccessKind,
    /// Working-set size in bytes.
    pub working_set_bytes: usize,
    /// Average nanoseconds per load.
    pub ns_per_load: f64,
}

/// A deliberately simple xorshift for index generation, local so this
/// module stays dependency-free.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Measures average load latency for `kind` over a working set of
/// `bytes` bytes, performing at least `min_loads` loads.
///
/// Returns the measurement together with a checksum-derived `u64` that
/// callers should consume (e.g. `std::hint::black_box`) — it already
/// passed through `black_box` internally, so the loads cannot be
/// optimized away.
pub fn measure(kind: AccessKind, bytes: usize, min_loads: usize) -> MicrobenchResult {
    let n = (bytes / 8).max(64);
    match kind {
        AccessKind::Sequential => {
            let data = vec![1u64; n];
            let rounds = min_loads.div_ceil(n).max(1);
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..rounds {
                for &x in &data {
                    acc = acc.wrapping_add(x);
                }
            }
            let elapsed = start.elapsed();
            std::hint::black_box(acc);
            MicrobenchResult {
                kind,
                working_set_bytes: bytes,
                ns_per_load: elapsed.as_nanos() as f64 / (rounds * n) as f64,
            }
        }
        AccessKind::Random => {
            let data = vec![1u64; n];
            let mut seed = 0x12345u64;
            let idx: Vec<u32> = (0..min_loads.max(1))
                .map(|_| (xorshift(&mut seed) % n as u64) as u32)
                .collect();
            let start = Instant::now();
            let mut acc = 0u64;
            for &i in &idx {
                acc = acc.wrapping_add(data[i as usize]);
            }
            let elapsed = start.elapsed();
            std::hint::black_box(acc);
            MicrobenchResult {
                kind,
                working_set_bytes: bytes,
                ns_per_load: elapsed.as_nanos() as f64 / idx.len() as f64,
            }
        }
        AccessKind::PointerChase => {
            // Build one random cycle visiting every slot (Sattolo).
            let mut perm: Vec<u32> = (0..n as u32).collect();
            let mut seed = 0xABCDEFu64;
            for i in (1..n).rev() {
                let j = (xorshift(&mut seed) % i as u64) as usize;
                perm.swap(i, j);
            }
            let mut next = vec![0u32; n];
            for i in 0..n {
                next[perm[i] as usize] = perm[(i + 1) % n];
            }
            let loads = min_loads.max(1);
            let start = Instant::now();
            let mut cur = perm[0];
            for _ in 0..loads {
                cur = next[cur as usize];
            }
            let elapsed = start.elapsed();
            std::hint::black_box(cur);
            MicrobenchResult {
                kind,
                working_set_bytes: bytes,
                ns_per_load: elapsed.as_nanos() as f64 / loads as f64,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurements_are_positive() {
        for kind in AccessKind::ALL {
            let r = measure(kind, 16 << 10, 10_000);
            assert!(r.ns_per_load > 0.0, "{kind:?}");
            assert!(r.ns_per_load < 10_000.0, "{kind:?} absurd latency");
        }
    }

    #[test]
    fn pointer_chase_slower_than_sequential_at_dram_scale() {
        // 64 MiB working set vs cache-resident: chasing must be clearly
        // slower than streaming.  Generous factor keeps this stable on
        // noisy CI machines.
        let seq = measure(AccessKind::Sequential, 32 << 20, 4_000_000);
        let chase = measure(AccessKind::PointerChase, 32 << 20, 400_000);
        assert!(
            chase.ns_per_load > seq.ns_per_load * 2.0,
            "chase {} vs seq {}",
            chase.ns_per_load,
            seq.ns_per_load
        );
    }
}
