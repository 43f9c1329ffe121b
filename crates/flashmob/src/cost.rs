//! The sampling-cost model feeding the MCKP planner.
//!
//! The paper drives its planner with *offline profiling*: measured
//! per-step sampling cost as a function of (VP size, average degree,
//! walker density, policy), collected once per machine and reused across
//! graphs (Section 4.4).  The planner here prices every item with one
//! *analytic* model derived from the Table 1 latencies instead, so a plan
//! is deterministic for a hierarchy and the same on every host.  Two
//! measured profiles of one host planned differently from each other,
//! and neither walked the YH analog's DeepWalk faster than this model's
//! plan (EXPERIMENTS.md, "Analytic vs profiled planning"); the
//! real-kernel timer survives in `fm-bench` as the Figure 6 reproducer
//! and the model's cross-check.

use fm_memsim::hierarchy::HierarchyConfig;
use fm_memsim::{AccessKind, Level};

use crate::partition::SamplePolicy;

/// Closed-form cost model from cache geometry and Table 1 latencies.
///
/// The model accounts for exactly the access patterns of the paper's
/// Table 3: streaming walker-state IO, random edge/offset fetches whose
/// latency depends on which cache level the VP working set fits, PS
/// production (in-cache random reads + a sequential write stream), PS
/// consumption (an amortized seek plus sequential buffer reads), and the
/// amortized cost of cold-streaming a cache-resident working set in from
/// DRAM once per task.
#[derive(Debug, Clone)]
pub struct AnalyticCostModel {
    config: HierarchyConfig,
    /// Fraction of each cache level the planner may budget for graph
    /// data (the rest serves walker chunks and incidental state).
    occupancy: f64,
}

impl AnalyticCostModel {
    /// Builds the model for a hierarchy.
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            config,
            occupancy: 0.8,
        }
    }

    /// The hierarchy this model describes.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Smallest level whose budgeted capacity holds `bytes`.
    pub fn fit(&self, bytes: usize) -> Level {
        let b = bytes as f64;
        if b <= self.config.l1.size_bytes as f64 * self.occupancy {
            Level::L1
        } else if b <= self.config.l2.size_bytes as f64 * self.occupancy {
            Level::L2
        } else if b <= self.config.l3.size_bytes as f64 * self.occupancy {
            Level::L3
        } else {
            Level::LocalMem
        }
    }

    /// Latency-hiding ring depth for a partition whose sample working
    /// set is `ws_bytes`.
    ///
    /// Partitions that exceed the LLC budget stall on DRAM for every
    /// random edge/offset fetch, so they get
    /// [`DEFAULT_RING_DEPTH`](crate::sample::ring::DEFAULT_RING_DEPTH)
    /// in-flight walkers with software prefetch.  Cache-*sized*
    /// partitions get depth 1 (ring off) — not because they are
    /// cache-*resident* when their task starts (they are not: a whole
    /// sweep has been through the cache since their last visit), but
    /// because what hides their first-touch misses is the partition
    /// stream one task ahead (`sample::hint_partition`), and the ring's
    /// per-walker hints on top of it only cost instructions (measured:
    /// EXPERIMENTS.md, PR 21 ledger).
    ///
    /// The node2vec stage, which no stream runs ahead of, asks
    /// once for the probe chain's working set: the bloom filter plus the
    /// CSR.
    pub fn ring_depth(&self, ws_bytes: usize) -> usize {
        if self.fit(ws_bytes) == Level::LocalMem {
            crate::sample::ring::DEFAULT_RING_DEPTH
        } else {
            1
        }
    }

    #[inline]
    fn rand(&self, level: Level) -> f64 {
        self.config.latency.ns(AccessKind::Random, level)
    }

    /// Sequential-stream cost per byte (DRAM streaming with prefetch).
    #[inline]
    fn seq_byte(&self) -> f64 {
        self.config
            .latency
            .ns(AccessKind::Sequential, Level::LocalMem)
            / 8.0
    }

    /// Streaming read+write of one 4-byte walker position.
    #[inline]
    fn walker_io(&self) -> f64 {
        2.0 * 4.0 * self.seq_byte()
    }

    /// Estimated nanoseconds per walker-step spent sampling in a VP with
    /// `vp_vertices` vertices of average degree `avg_degree`, at
    /// `density` walkers per edge, under `policy`.  `uniform` marks
    /// fixed-degree partitions eligible for offset-free storage.
    pub fn sample_cost_ns(
        &self,
        vp_vertices: usize,
        avg_degree: f64,
        density: f64,
        policy: SamplePolicy,
        uniform: bool,
    ) -> f64 {
        let s = vp_vertices.max(1) as f64;
        let d = avg_degree.max(1.0);
        let density = density.max(1e-6);
        let line = self.config.line_bytes as f64;
        let vid = 4.0f64;

        match policy {
            SamplePolicy::Direct => {
                let offsets = if uniform { 0.0 } else { s * 8.0 };
                let ws = s * d * vid + offsets;
                let level = self.fit(ws as usize);
                let edge_fetch = self.rand(level);
                let offset_fetch = if uniform { 0.0 } else { self.rand(level) };
                // Cold-streaming the working set in once per task,
                // amortized over every walker-step the task serves.
                let cold = if level == Level::LocalMem {
                    0.0
                } else {
                    ws * self.seq_byte() / (density * s * d)
                };
                self.walker_io() + edge_fetch + offset_fetch + cold
            }
            SamplePolicy::PreSample => {
                // Consumption working set: one active buffer line plus a
                // cursor per vertex.
                let ws_c = s * (line + 4.0);
                let level_c = self.fit(ws_c as usize);
                // Production reads stay within one adjacency list.  One
                // production is charged per walker-step, which holds
                // where every slot is read (the paper's |V| × 80
                // walker-steps); where most are not, the engine reserves
                // the generation instead of producing it
                // (`sample::reserves`), which this model does not price.
                let level_p = self.fit((d * vid) as usize);
                let production = self.rand(level_p) + vid * self.seq_byte();
                // Samples consumed from one buffer line before moving on;
                // utilization grows with walker pressure (density * d
                // walkers visit a degree-d vertex per iteration).
                let samples_per_line = line / vid;
                let u = (density * d).clamp(1.0, samples_per_line);
                let consumption = if level_c == Level::LocalMem {
                    // The active line is evicted between visits: every
                    // consumption is a DRAM-latency seek, and the
                    // production stream also round-trips through DRAM.
                    self.rand(Level::LocalMem) + vid * self.seq_byte()
                } else {
                    self.rand(level_c) / u
                        + self.config.latency.ns(AccessKind::Sequential, Level::L1)
                };
                let cold = if level_c == Level::LocalMem {
                    0.0
                } else {
                    ws_c * self.seq_byte() / (density * s * d)
                };
                self.walker_io() + production + consumption + cold
            }
        }
    }

    /// Estimated nanoseconds per walker per level of shuffle.
    pub fn shuffle_cost_ns(&self) -> f64 {
        // Priced as five streaming 4-byte touches per walker per shuffle
        // level plus the in-L1 bin lookup and index arithmetic.  The
        // passes now make eight (count: read `w`, write the bin lane;
        // scatter: read `w` and the lane, write `SW`; gather: read the
        // lane and `SNext`, overwrite the lane) and look a bin up once
        // rather than three times, with the scatter and gather streams
        // hinted (DESIGN.md §22).  The value stays: it prices the MCKP's
        // internal-shuffle items, so a new one re-plans and moves golden
        // digests (ROADMAP item 10).
        5.0 * 4.0 * self.seq_byte() + 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AnalyticCostModel {
        AnalyticCostModel::new(HierarchyConfig::skylake_server())
    }

    /// Vertices for a DS working set that lands exactly in `level`.
    fn vp_for_level(m: &AnalyticCostModel, level: Level, degree: usize) -> usize {
        let bytes = match level {
            Level::L1 => m.config().l1.size_bytes / 2,
            Level::L2 => m.config().l2.size_bytes / 2,
            Level::L3 => m.config().l3.size_bytes / 2,
            _ => m.config().l3.size_bytes * 8,
        };
        (bytes / (degree * 4)).max(1)
    }

    #[test]
    fn fit_boundaries() {
        let m = model();
        assert_eq!(m.fit(1024), Level::L1);
        assert_eq!(m.fit(512 << 10), Level::L2);
        assert_eq!(m.fit(10 << 20), Level::L3);
        assert_eq!(m.fit(100 << 20), Level::LocalMem);
    }

    #[test]
    fn faster_caches_mean_cheaper_sampling() {
        // Figure 6 observation 1: both policies benefit from fitting the
        // working set into faster caches.
        let m = model();
        for policy in [SamplePolicy::Direct, SamplePolicy::PreSample] {
            let mut prev = 0.0;
            for level in [Level::L1, Level::L2, Level::L3, Level::LocalMem] {
                let s = vp_for_level(&m, level, 64);
                let c = m.sample_cost_ns(s, 64.0, 1.0, policy, false);
                assert!(c >= prev, "{policy:?} at {level:?}: {c} < previous {prev}");
                prev = c;
            }
        }
    }

    #[test]
    fn ps_improves_with_degree_ds_does_not() {
        // Figure 6 observation 2.
        let m = model();
        // Same L2-resident consumption working set, increasing degree.
        let s = (m.config().l2.size_bytes / 2) / 68;
        let ps_16 = m.sample_cost_ns(s, 16.0, 1.0, SamplePolicy::PreSample, false);
        let ps_1024 = m.sample_cost_ns(s, 1024.0, 1.0, SamplePolicy::PreSample, false);
        assert!(ps_1024 < ps_16, "PS: {ps_1024} should beat {ps_16}");

        // DS with working set pinned to L2 as degree varies.
        let ds_16 = m.sample_cost_ns(
            vp_for_level(&m, Level::L2, 16),
            16.0,
            1.0,
            SamplePolicy::Direct,
            false,
        );
        let ds_1024 = m.sample_cost_ns(
            vp_for_level(&m, Level::L2, 1024),
            1024.0,
            1.0,
            SamplePolicy::Direct,
            false,
        );
        assert!(
            (ds_16 - ds_1024).abs() / ds_16 < 0.15,
            "DS should be degree-insensitive: {ds_16} vs {ds_1024}"
        );
    }

    #[test]
    fn density_helps_only_in_cache() {
        // Figure 6 observation 3.
        let m = model();
        let s_l2 = vp_for_level(&m, Level::L2, 64);
        let cached_lo = m.sample_cost_ns(s_l2, 64.0, 0.25, SamplePolicy::Direct, false);
        let cached_hi = m.sample_cost_ns(s_l2, 64.0, 4.0, SamplePolicy::Direct, false);
        assert!(cached_hi < cached_lo);

        let s_dram = vp_for_level(&m, Level::LocalMem, 64);
        let dram_lo = m.sample_cost_ns(s_dram, 64.0, 0.25, SamplePolicy::Direct, false);
        let dram_hi = m.sample_cost_ns(s_dram, 64.0, 4.0, SamplePolicy::Direct, false);
        assert!(
            (dram_lo - dram_hi).abs() < 1e-9,
            "DRAM DS density-insensitive"
        );
    }

    #[test]
    fn ps_dram_is_the_worst_combination() {
        // Figure 6 observation 4.
        let m = model();
        let d = 256.0;
        let ps_dram = m.sample_cost_ns(
            (m.config().l3.size_bytes * 8) / 68,
            d,
            1.0,
            SamplePolicy::PreSample,
            false,
        );
        for level in [Level::L1, Level::L2, Level::L3] {
            let s_ps = match level {
                Level::L1 => m.config().l1.size_bytes / 2 / 68,
                Level::L2 => m.config().l2.size_bytes / 2 / 68,
                _ => m.config().l3.size_bytes / 2 / 68,
            };
            let ps = m.sample_cost_ns(s_ps.max(1), d, 1.0, SamplePolicy::PreSample, false);
            let ds = m.sample_cost_ns(
                vp_for_level(&m, level, 256),
                d,
                1.0,
                SamplePolicy::Direct,
                false,
            );
            assert!(ps_dram > ps, "PS-DRAM {ps_dram} vs PS-{level:?} {ps}");
            assert!(ps_dram > ds, "PS-DRAM {ps_dram} vs DS-{level:?} {ds}");
        }
    }

    #[test]
    fn uniform_layout_is_cheaper_than_csr() {
        let m = model();
        let s = vp_for_level(&m, Level::L2, 2);
        let csr = m.sample_cost_ns(s, 2.0, 1.0, SamplePolicy::Direct, false);
        let slab = m.sample_cost_ns(s, 2.0, 1.0, SamplePolicy::Direct, true);
        assert!(slab < csr);
    }

    #[test]
    fn shuffle_cost_is_small_and_positive() {
        let m = model();
        let c = m.shuffle_cost_ns();
        assert!(c > 0.0 && c < 20.0);
    }
}
