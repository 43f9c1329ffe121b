//! The three-level cache hierarchy plus NUMA DRAM model.

use crate::cache::SetAssocCache;
use crate::latency::LatencyModel;
use crate::{AccessKind, Level, Probe};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

/// How the last-level cache relates to the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LlcPolicy {
    /// Broadwell-style: fills propagate into both L2 and L3; L3 is a
    /// superset of L2.
    Inclusive,
    /// Skylake-style victim cache: fills go straight to L2; the L3 only
    /// receives lines evicted from L2 and forgets lines promoted back.
    Exclusive,
}

/// Full hierarchy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyConfig {
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// L1 data cache geometry.
    pub l1: CacheGeometry,
    /// L2 geometry.
    pub l2: CacheGeometry,
    /// L3 (LLC) geometry; under multi-core runs pass the per-core slice.
    pub l3: CacheGeometry,
    /// LLC management policy.
    pub llc_policy: LlcPolicy,
    /// Load latencies.
    pub latency: LatencyModel,
    /// Simulated-address boundary: addresses at or above it live on the
    /// remote socket.  `u64::MAX` disables NUMA (everything local).
    pub remote_boundary: u64,
}

impl HierarchyConfig {
    /// The paper's test platform: Xeon Gold 6126 (Skylake-SP) — 32 KiB
    /// 8-way L1, 1 MiB 16-way L2, 19.25 MiB 11-way shared exclusive L3.
    pub fn skylake_server() -> Self {
        Self {
            line_bytes: 64,
            l1: CacheGeometry {
                size_bytes: 32 << 10,
                ways: 8,
            },
            l2: CacheGeometry {
                size_bytes: 1 << 20,
                ways: 16,
            },
            l3: CacheGeometry {
                size_bytes: 19 << 20,
                ways: 11,
            },
            llc_policy: LlcPolicy::Exclusive,
            latency: LatencyModel::table1(),
            remote_boundary: u64::MAX,
        }
    }

    /// The prior-generation Broadwell design the paper contrasts against:
    /// small 256 KiB L2, large inclusive L3.
    pub fn broadwell_server() -> Self {
        Self {
            line_bytes: 64,
            l1: CacheGeometry {
                size_bytes: 32 << 10,
                ways: 8,
            },
            l2: CacheGeometry {
                size_bytes: 256 << 10,
                ways: 8,
            },
            l3: CacheGeometry {
                size_bytes: 30 << 20,
                ways: 20,
            },
            llc_policy: LlcPolicy::Inclusive,
            latency: LatencyModel::table1(),
            remote_boundary: u64::MAX,
        }
    }

    /// A scaled-down hierarchy matched to the repository's scaled-down
    /// analog graphs, so cache-residency crossovers appear at the same
    /// *relative* working-set sizes as on the paper's server.
    pub fn scaled(divisor: usize) -> Self {
        let mut c = Self::skylake_server();
        let d = divisor.max(1);
        c.l1.size_bytes = (c.l1.size_bytes / d).max(c.line_bytes * c.l1.ways);
        c.l2.size_bytes = (c.l2.size_bytes / d).max(c.line_bytes * c.l2.ways);
        c.l3.size_bytes = (c.l3.size_bytes / d).max(c.line_bytes * c.l3.ways);
        c
    }

    /// Enables the NUMA split at the given simulated-address boundary.
    pub fn with_remote_boundary(mut self, boundary: u64) -> Self {
        self.remote_boundary = boundary;
        self
    }
}

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Accesses satisfied at this level.
    pub hits: u64,
    /// Accesses that had to continue past this level.
    pub misses: u64,
}

/// Aggregated counters for a simulated run.
#[derive(Debug, Clone, Default)]
pub struct MemoryStats {
    /// Per-level hit/miss counts (L1, L2, L3).
    pub l1: LevelStats,
    /// L2 counters.
    pub l2: LevelStats,
    /// L3 counters.
    pub l3: LevelStats,
    /// Lines transferred from DRAM (fills).
    pub dram_fill_lines: u64,
    /// Lines written back toward DRAM (dirty evictions are approximated
    /// as all stores that leave the hierarchy).
    pub dram_writeback_lines: u64,
    /// Loads satisfied from local vs remote DRAM.
    pub local_mem_loads: u64,
    /// Remote-socket DRAM loads.
    pub remote_mem_loads: u64,
    /// Estimated data-bound time in nanoseconds, per level.
    pub bound_ns: BoundNs,
    /// Total simulated accesses.
    pub accesses: u64,
    /// Walker-steps recorded via [`Probe::step`].
    pub steps: u64,
    /// Lines hinted via [`Probe::prefetch`] (already-cached hints
    /// included).  Prefetches are not demand accesses: they are counted
    /// here only and never in `accesses` or the per-level hit/miss
    /// counters, so hit rates stay comparable across ring depths.
    pub prefetch_lines: u64,
    /// Prefetched lines that were absent from every level and had to be
    /// filled from DRAM.  Tracked separately from `dram_fill_lines` so
    /// demand traffic remains attributable on its own.
    pub prefetch_dram_fills: u64,
}

/// Estimated stall attribution, VTune-style.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundNs {
    /// Time attributed to L1 hits.
    pub l1: f64,
    /// Time attributed to L2 hits.
    pub l2: f64,
    /// Time attributed to L3 hits.
    pub l3: f64,
    /// Time attributed to DRAM (local + remote).
    pub dram: f64,
}

impl MemoryStats {
    /// DRAM traffic in bytes (fills + writebacks) per walker-step.
    pub fn dram_bytes_per_step(&self, line_bytes: usize) -> f64 {
        if self.steps == 0 {
            return 0.0;
        }
        ((self.dram_fill_lines + self.dram_writeback_lines) * line_bytes as u64) as f64
            / self.steps as f64
    }

    /// Total estimated data-bound nanoseconds.
    pub fn total_bound_ns(&self) -> f64 {
        self.bound_ns.l1 + self.bound_ns.l2 + self.bound_ns.l3 + self.bound_ns.dram
    }

    /// Per-step counter helper.
    pub fn per_step(&self, count: u64) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            count as f64 / self.steps as f64
        }
    }
}

/// A simulated L1/L2/L3 + DRAM memory system implementing [`Probe`].
///
/// # Examples
///
/// ```
/// use fm_memsim::{AccessKind, HierarchyConfig, MemorySystem, Probe};
///
/// let mut mem = MemorySystem::new(HierarchyConfig::skylake_server());
/// mem.touch(0x1000, 8, AccessKind::Random); // cold: DRAM
/// mem.touch(0x1000, 8, AccessKind::Random); // warm: L1
/// assert_eq!(mem.stats().l1.hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MemorySystem {
    config: HierarchyConfig,
    l1: SetAssocCache,
    l2: SetAssocCache,
    l3: SetAssocCache,
    stats: MemoryStats,
    line_shift: u32,
}

impl MemorySystem {
    /// Builds the hierarchy from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.line_bytes.is_power_of_two());
        let lb = config.line_bytes;
        Self {
            l1: SetAssocCache::new(config.l1.size_bytes, lb, config.l1.ways),
            l2: SetAssocCache::new(config.l2.size_bytes, lb, config.l2.ways),
            l3: SetAssocCache::new(config.l3.size_bytes, lb, config.l3.ways),
            line_shift: lb.trailing_zeros(),
            stats: MemoryStats::default(),
            config,
        }
    }

    /// Read-only view of the accumulated counters.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Clears counters but keeps cache contents (for warm-up phases).
    pub fn reset_stats(&mut self) {
        self.stats = MemoryStats::default();
    }

    fn dram_level(&self, addr: u64) -> Level {
        if addr >= self.config.remote_boundary {
            Level::RemoteMem
        } else {
            Level::LocalMem
        }
    }

    /// Simulates one line-granular access; returns the satisfying level.
    fn access_line(&mut self, line: u64, addr: u64, is_write: bool) -> Level {
        if self.l1.access(line) {
            self.stats.l1.hits += 1;
            return Level::L1;
        }
        self.stats.l1.misses += 1;

        if self.l2.access(line) {
            self.stats.l2.hits += 1;
            self.fill_l1(line);
            return Level::L2;
        }
        self.stats.l2.misses += 1;

        if self.l3.access(line) {
            self.stats.l3.hits += 1;
            if self.config.llc_policy == LlcPolicy::Exclusive {
                // Promote to L2; the line leaves the victim L3.
                self.l3.invalidate(line);
            }
            self.fill_l2(line);
            self.fill_l1(line);
            return Level::L3;
        }
        self.stats.l3.misses += 1;

        // DRAM fill.
        self.stats.dram_fill_lines += 1;
        if is_write {
            // Write-allocate; the line will eventually be written back.
            self.stats.dram_writeback_lines += 1;
        }
        let level = self.dram_level(addr);
        match level {
            Level::RemoteMem => self.stats.remote_mem_loads += 1,
            _ => self.stats.local_mem_loads += 1,
        }
        match self.config.llc_policy {
            LlcPolicy::Inclusive => {
                self.fill_l3(line);
                self.fill_l2_inclusive(line);
                self.fill_l1(line);
            }
            LlcPolicy::Exclusive => {
                // Skylake: fills bypass the L3 entirely.
                self.fill_l2(line);
                self.fill_l1(line);
            }
        }
        level
    }

    #[inline]
    fn fill_l1(&mut self, line: u64) {
        // L1 victims fall into L2 under both policies (L2 is inclusive of
        // nothing in particular; we approximate by inserting the victim).
        if let Some(victim) = self.l1.insert(line) {
            self.l2.insert(victim);
        }
    }

    #[inline]
    fn fill_l2(&mut self, line: u64) {
        if let Some(victim) = self.l2.insert(line) {
            // Exclusive LLC: L2 victims land in the L3 victim cache.
            self.l3.insert(victim);
        }
    }

    #[inline]
    fn fill_l2_inclusive(&mut self, line: u64) {
        // Inclusive LLC: L2 victims are already in L3; drop them.
        let _ = self.l2.insert(line);
    }

    #[inline]
    fn fill_l3(&mut self, line: u64) {
        let _ = self.l3.insert(line);
    }

    /// Installs one line in response to a software-prefetch hint.
    ///
    /// The line is placed exactly where a demand fill would put it, but
    /// no demand counters (hits, misses, `accesses`, latency) move: a
    /// prefetch overlaps with execution instead of stalling it, so its
    /// cost shows up only as `prefetch_dram_fills` traffic.  A later
    /// demand load of the same line then scores an honest L1 hit —
    /// which is precisely the attribution the ring experiments need.
    fn prefetch_line(&mut self, line: u64) {
        self.stats.prefetch_lines += 1;
        if self.l1.contains(line) || self.l2.contains(line) || self.l3.contains(line) {
            return;
        }
        self.stats.prefetch_dram_fills += 1;
        match self.config.llc_policy {
            LlcPolicy::Inclusive => {
                self.fill_l3(line);
                self.fill_l2_inclusive(line);
                self.fill_l1(line);
            }
            LlcPolicy::Exclusive => {
                self.fill_l2(line);
                self.fill_l1(line);
            }
        }
    }

    fn record(&mut self, addr: u64, bytes: u32, kind: AccessKind, is_write: bool) {
        // Split the access into its covered cache lines (usually one).
        let first = addr >> self.line_shift;
        let last = (addr + bytes.max(1) as u64 - 1) >> self.line_shift;
        for line in first..=last {
            self.stats.accesses += 1;
            let level = self.access_line(line, addr, is_write);
            let ns = self.config.latency.ns(kind, level);
            match level {
                Level::L1 => self.stats.bound_ns.l1 += ns,
                Level::L2 => self.stats.bound_ns.l2 += ns,
                Level::L3 => self.stats.bound_ns.l3 += ns,
                Level::LocalMem | Level::RemoteMem => self.stats.bound_ns.dram += ns,
            }
        }
    }
}

impl Probe for MemorySystem {
    #[inline]
    fn touch(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        self.record(addr, bytes, kind, false);
    }

    #[inline]
    fn touch_write(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        self.record(addr, bytes, kind, true);
    }

    #[inline]
    fn step(&mut self) {
        self.stats.steps += 1;
    }

    #[inline]
    fn prefetch(&mut self, addr: u64, bytes: u32) {
        let first = addr >> self.line_shift;
        let last = (addr + bytes.max(1) as u64 - 1) >> self.line_shift;
        for line in first..=last {
            self.prefetch_line(line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(policy: LlcPolicy) -> MemorySystem {
        let mut cfg = HierarchyConfig::skylake_server();
        cfg.l1 = CacheGeometry {
            size_bytes: 4 * 64,
            ways: 2,
        };
        cfg.l2 = CacheGeometry {
            size_bytes: 16 * 64,
            ways: 4,
        };
        cfg.l3 = CacheGeometry {
            size_bytes: 64 * 64,
            ways: 8,
        };
        cfg.llc_policy = policy;
        MemorySystem::new(cfg)
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits_l1() {
        let mut m = tiny(LlcPolicy::Exclusive);
        m.touch(0x1000, 8, AccessKind::Random);
        assert_eq!(m.stats().dram_fill_lines, 1);
        m.touch(0x1000, 8, AccessKind::Random);
        assert_eq!(m.stats().l1.hits, 1);
    }

    #[test]
    fn exclusive_llc_holds_only_l2_victims() {
        let mut m = tiny(LlcPolicy::Exclusive);
        // First touch of a line fills L1+L2 but NOT L3 (Skylake).
        m.touch(0x1000, 8, AccessKind::Random);
        let line = 0x1000u64 >> 6;
        assert!(!m.l3.contains(line));
        assert!(m.l2.contains(line));
    }

    #[test]
    fn inclusive_llc_holds_all_fills() {
        let mut m = tiny(LlcPolicy::Inclusive);
        m.touch(0x1000, 8, AccessKind::Random);
        let line = 0x1000u64 >> 6;
        assert!(m.l3.contains(line));
        assert!(m.l2.contains(line));
    }

    #[test]
    fn exclusive_l3_hit_promotes_and_removes() {
        let mut m = tiny(LlcPolicy::Exclusive);
        let line = 0x2000u64 >> 6;
        m.l3.insert(line);
        m.touch(0x2000, 8, AccessKind::Random);
        assert_eq!(m.stats().l3.hits, 1);
        assert!(!m.l3.contains(line), "exclusive hit must leave L3");
        assert!(m.l1.contains(line));
    }

    #[test]
    fn working_set_fitting_l2_hits_l2_after_warmup() {
        let mut m = tiny(LlcPolicy::Exclusive);
        // Working set of 12 lines: > L1 (4 lines), <= L2 (16 lines).
        let addrs: Vec<u64> = (0..12).map(|i| 0x10_0000 + i * 64).collect();
        for &a in &addrs {
            m.touch(a, 8, AccessKind::Random);
        }
        m.reset_stats();
        for _ in 0..10 {
            for &a in &addrs {
                m.touch(a, 8, AccessKind::Random);
            }
        }
        let s = m.stats();
        assert_eq!(s.dram_fill_lines, 0, "steady state should not touch DRAM");
        assert!(s.l1.hits + s.l2.hits + s.l3.hits == s.accesses);
    }

    #[test]
    fn remote_boundary_classifies_numa() {
        let cfg = HierarchyConfig::skylake_server().with_remote_boundary(0x8000_0000);
        let mut m = MemorySystem::new(cfg);
        m.touch(0x1000, 8, AccessKind::Random);
        m.touch(0x9000_0000, 8, AccessKind::Random);
        assert_eq!(m.stats().local_mem_loads, 1);
        assert_eq!(m.stats().remote_mem_loads, 1);
    }

    #[test]
    fn sequential_dram_time_is_cheap() {
        let mut m = tiny(LlcPolicy::Exclusive);
        m.touch(0x40_0000, 8, AccessKind::Sequential);
        let seq_ns = m.stats().bound_ns.dram;
        let mut m = tiny(LlcPolicy::Exclusive);
        m.touch(0x40_0000, 8, AccessKind::Random);
        let rand_ns = m.stats().bound_ns.dram;
        assert!(seq_ns < rand_ns / 10.0, "{seq_ns} vs {rand_ns}");
    }

    #[test]
    fn multi_line_access_touches_every_line() {
        let mut m = tiny(LlcPolicy::Exclusive);
        m.touch(0x1000, 256, AccessKind::Sequential); // 4 lines
        assert_eq!(m.stats().accesses, 4);
        assert_eq!(m.stats().dram_fill_lines, 4);
    }

    #[test]
    fn writes_count_writeback_traffic() {
        let mut m = tiny(LlcPolicy::Exclusive);
        m.touch_write(0x1000, 8, AccessKind::Sequential);
        assert_eq!(m.stats().dram_writeback_lines, 1);
    }

    #[test]
    fn steps_normalize_counters() {
        let mut m = tiny(LlcPolicy::Exclusive);
        m.touch(0x1000, 8, AccessKind::Random);
        m.step();
        m.step();
        assert_eq!(m.stats().per_step(m.stats().accesses), 0.5);
        assert_eq!(m.stats().dram_bytes_per_step(64), 32.0);
    }

    #[test]
    fn prefetch_installs_line_without_demand_counters() {
        let mut m = tiny(LlcPolicy::Exclusive);
        m.prefetch(0x1000, 8);
        let s = m.stats();
        assert_eq!(s.prefetch_lines, 1);
        assert_eq!(s.prefetch_dram_fills, 1);
        assert_eq!(s.accesses, 0, "prefetch is not a demand access");
        assert_eq!(s.dram_fill_lines, 0, "prefetch traffic is separate");
        assert_eq!(s.l1.hits + s.l1.misses, 0);

        // The next demand load of the same line is an L1 hit.
        m.touch(0x1000, 8, AccessKind::Random);
        assert_eq!(m.stats().l1.hits, 1);
        assert_eq!(m.stats().dram_fill_lines, 0);
    }

    #[test]
    fn prefetch_of_cached_line_fills_nothing() {
        let mut m = tiny(LlcPolicy::Exclusive);
        m.touch(0x1000, 8, AccessKind::Random);
        m.prefetch(0x1000, 8);
        assert_eq!(m.stats().prefetch_lines, 1);
        assert_eq!(m.stats().prefetch_dram_fills, 0);
    }

    #[test]
    fn prefetch_spans_every_covered_line() {
        let mut m = tiny(LlcPolicy::Exclusive);
        m.prefetch(0x1000, 256); // 4 lines
        assert_eq!(m.stats().prefetch_lines, 4);
        assert_eq!(m.stats().prefetch_dram_fills, 4);
    }

    #[test]
    fn stats_reset_preserves_cache_contents() {
        let mut m = tiny(LlcPolicy::Exclusive);
        m.touch(0x1000, 8, AccessKind::Random);
        m.reset_stats();
        m.touch(0x1000, 8, AccessKind::Random);
        assert_eq!(m.stats().l1.hits, 1);
        assert_eq!(m.stats().dram_fill_lines, 0);
    }
}
