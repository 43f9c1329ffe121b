//! The calibration kernels: frozen miniatures of the two kinds of work
//! the workloads do, written here from scratch.
//!
//! Every timed sample is followed by a calibration sample, and dividing
//! by it turns a raw time into a host-relative one: when a neighbour on
//! the shared host slows the machine down for a while, the sample and
//! the calibration beside it slow down together.  That only works when
//! the two are slowed by the same things, so each workload is calibrated
//! by the kernel that does its kind of work:
//!
//! * `walk`, a walker-at-a-time uniform random walk over the workload's
//!   own in-memory CSR, for the workloads that load a binary CSR and
//!   walk it (bound by memory latency);
//! * `parse_build`, which parses a prefix of the workload's own text edge
//!   list and counting-sorts the edges into a CSR, for the workload that
//!   parses text, builds arrays and allocates paths (bound by the CPU and
//!   by streaming).  Over three four-minute stretches of `txt_dw_yt`
//!   set-ups, one of them under a noisy neighbour, the quotient by this
//!   kernel spread 6.7 %, 5.8 % and 4.3 % (IQR over median, sample by
//!   sample); by `walk` 11.2 %, 17.8 % and 16.7 %; undivided 28.2 %,
//!   5.4 % and 3.5 %.
//!
//! FROZEN: this file must not change and must call no engine or baseline
//! code -- an "optimisation" here would move every metric of every
//! workload.  Changing it means re-pinning every `calib_ref_s`.

use fm_graph::Csr;

/// Walks `total_steps` walker-steps, 64 per walker, and returns a
/// checksum of the end positions for the caller to `black_box`.
pub fn walk(graph: &Csr, total_steps: u64) -> u64 {
    const STEPS_PER_WALKER: u64 = 64;
    let offsets = graph.offsets();
    let targets = graph.targets();
    let n = graph.vertex_count() as u64;
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut sum = 0u64;
    for walker in 0..total_steps.div_ceil(STEPS_PER_WALKER) {
        // Start vertices stride through the whole vertex range.
        let mut v = (walker.wrapping_mul(0x2545_F491_4F6C_DD1D) % n) as usize;
        for _ in 0..STEPS_PER_WALKER {
            rng ^= rng >> 12;
            rng ^= rng << 25;
            rng ^= rng >> 27;
            let (lo, hi) = (offsets[v], offsets[v + 1]);
            if hi > lo {
                let pick = (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % (hi - lo) as u64;
                v = targets[lo + pick as usize] as usize;
            }
        }
        sum = sum.wrapping_add(v as u64);
    }
    sum
}

/// Parses `text` as lines of two decimal vertex ids, counting-sorts the
/// edges by source into offsets and targets, and returns a checksum of
/// the arrays for the caller to `black_box`.  Bytes that are neither a
/// digit nor a newline separate the two ids of a line.
pub fn parse_build(text: &[u8]) -> u64 {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let (mut source, mut id, mut max_id) = (0u32, 0u32, 0u32);
    for &byte in text {
        match byte {
            b'0'..=b'9' => id = id.wrapping_mul(10).wrapping_add(u32::from(byte - b'0')),
            b'\n' => {
                edges.push((source, id));
                max_id = max_id.max(source).max(id);
                id = 0;
            }
            _ => {
                source = id;
                id = 0;
            }
        }
    }
    let n = max_id as usize + 1;
    let mut offsets = vec![0usize; n + 1];
    for &(u, _) in &edges {
        offsets[u as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut next = offsets.clone();
    let mut targets = vec![0u32; edges.len()];
    for &(u, v) in &edges {
        targets[next[u as usize]] = v;
        next[u as usize] += 1;
    }
    let middle = targets.get(edges.len() / 2).copied().unwrap_or(0);
    offsets[n / 2] as u64 + u64::from(middle) + edges.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_is_deterministic_and_scales_with_steps() {
        let g = fm_graph::synth::power_law(2000, 2.0, 1, 50, 7);
        assert_eq!(walk(&g, 64_000), walk(&g, 64_000));
        assert_ne!(walk(&g, 64_000), walk(&g, 128_000));
    }

    #[test]
    fn parse_build_reads_every_line() {
        // Edges 0->2, 0->1, 3->0: offsets [0, 2, 2, 2, 3], targets [2, 1, 0].
        let text = b"0 2\n0\t1\n3 0\n";
        assert_eq!(parse_build(text), 2 + 1 + 3);
        assert_eq!(parse_build(text), parse_build(text));
        assert_ne!(parse_build(b"0 2\n0 1\n"), parse_build(text));
        assert_eq!(parse_build(b""), 0);
    }
}
