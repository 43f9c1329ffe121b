//! Figure 6: per-step sample time for PS/DS across VP sizes and degrees.
//!
//! Measures the *real* sample kernel on synthetic uniform-degree VPs,
//! exactly like the paper's offline profiling: policies PS and DS, VP
//! working sets sized to fit L1/L2/L3/DRAM, degrees 16..1024, at walker
//! densities 1.0 (Fig 6a) and 0.25 (Fig 6b).

use flashmob::partition::SamplePolicy;
use fm_bench::micro::measure_point;
use fm_bench::HarnessOpts;
use fm_memsim::HierarchyConfig;

/// Edge cap per synthetic VP so even the DRAM-class PS cells (whose
/// vertex count is per-vertex-footprint-driven) stay within laptop RAM.
const MAX_EDGES_PER_CELL: usize = 8_000_000;

fn main() {
    let opts = HarnessOpts::from_args();
    // A scaled hierarchy keeps the "does not fit L3" class reachable
    // with bounded synthetic VPs (the full 19 MiB L3 would need
    // multi-gigabyte VPs at degree 1024).
    let h = HierarchyConfig::scaled(64);
    let degrees = [16usize, 64, 256, 1024];
    // VP sizes chosen so the *DS* working set (s*d*4 bytes) fits each
    // level at the largest degree — and correspondingly smaller targets
    // for PS whose footprint is per-vertex (line + cursor).
    let levels: [(&str, usize); 4] = [
        ("L1", h.l1.size_bytes / 2),
        ("L2", h.l2.size_bytes / 2),
        ("L3", h.l3.size_bytes / 2),
        ("DRAM", h.l3.size_bytes * 8),
    ];
    let min_steps = if opts.steps >= 80 { 400_000 } else { 100_000 };

    for density in [1.0f64, 0.25] {
        println!(
            "Figure 6{} — per-step sample time (ns), density = {density} walkers/edge",
            if density == 1.0 { "a" } else { "b" }
        );
        let header = format!(
            "{:<14}{:>10}{:>10}{:>10}{:>10}",
            "Policy-Level", "deg 16", "deg 64", "deg 256", "deg 1024"
        );
        println!("{header}");
        fm_bench::rule(&header);
        for policy in [SamplePolicy::PreSample, SamplePolicy::Direct] {
            for (level, bytes) in levels {
                print!("{:<14}", format!("{}-{}", policy.tag(), level));
                for &d in &degrees {
                    // Size the VP so the policy's own working set fills
                    // the target level.
                    let s = match policy {
                        SamplePolicy::Direct => (bytes / (d * 4)).max(1),
                        SamplePolicy::PreSample => (bytes / (h.line_bytes + 4)).max(1),
                    };
                    let s = s.min(MAX_EDGES_PER_CELL / d).max(1);
                    // Best of three: shared machines jitter 2-3x.
                    let ns = (0..3)
                        .map(|_| measure_point(s, d, density, policy, false, min_steps))
                        .fold(f64::INFINITY, f64::min);
                    print!("{ns:>10.1}");
                }
                println!();
            }
        }
        println!();
    }
    println!("Expected shape (paper observations):");
    println!(" 1. both policies get faster in faster caches;");
    println!(" 2. PS improves with degree, DS is degree-insensitive;");
    println!(" 3. density helps only while the working set is cache-resident;");
    println!(" 4. DS-L1 is best overall, PS-L1 close behind at high degree,");
    println!("    PS-DRAM is clearly the worst combination.");
}
