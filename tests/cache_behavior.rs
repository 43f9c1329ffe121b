//! The paper's central claims, as executable tests over the simulated
//! memory hierarchy: FlashMob's partitioned, batched design produces
//! far fewer deep-cache misses than walker-at-a-time processing.

use flashmob_repro::baseline::{Baseline, BaselineConfig, BaselineKind};
use flashmob_repro::flashmob::PlannerParams;
use flashmob_repro::flashmob::{FlashMob, WalkConfig};
use flashmob_repro::graph::synth;
use flashmob_repro::memsim::{HierarchyConfig, LlcPolicy, MemoryStats, MemorySystem};

fn hierarchy() -> HierarchyConfig {
    // Scaled-down Skylake so the test graph (too big for "L3", far too
    // big for "L2") exercises the same crossovers as the paper's server.
    HierarchyConfig::scaled(64)
}

fn planner() -> PlannerParams {
    PlannerParams {
        hierarchy: hierarchy(),
        target_groups: 32,
        max_partitions: 512,
        min_vp_vertices: 32,
    }
}

fn probe_flashmob(walkers: usize, steps: usize) -> MemoryStats {
    let g = synth::power_law(30_000, 1.9, 1, 2_000, 13);
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(walkers)
            .steps(steps)
            .seed(1)
            .record_paths(false)
            .planner(planner()),
    )
    .expect("engine");
    let mut probe = MemorySystem::new(hierarchy());
    engine.run_probed(&mut probe).expect("run");
    probe.stats().clone()
}

fn probe_baseline(walkers: usize, steps: usize) -> MemoryStats {
    let g = synth::power_law(30_000, 1.9, 1, 2_000, 13);
    let walk = WalkConfig::deepwalk()
        .walkers(walkers)
        .steps(steps)
        .seed(1)
        .record_paths(false);
    let kind = BaselineKind::KnightKing;
    let engine = Baseline::new(&g, BaselineConfig { kind, walk }).expect("engine");
    let mut probe = MemorySystem::new(hierarchy());
    engine.run_probed(&mut probe).expect("run");
    probe.stats().clone()
}

#[test]
fn flashmob_has_far_fewer_llc_misses_per_step() {
    // The Figure 1b claim.
    let fm = probe_flashmob(30_000, 8);
    let bl = probe_baseline(30_000, 8);
    let fm_miss = fm.per_step(fm.l3.misses);
    let bl_miss = bl.per_step(bl.l3.misses);
    // The baseline performs only ~2 memory touches per step, so its miss
    // ceiling is ~2/step; FlashMob's floor is its walker-array streaming
    // (~0.5/step).  A >=1.5x reduction at this scale corresponds to the
    // paper's much larger absolute gap on billion-edge graphs.
    assert!(
        fm_miss < bl_miss / 1.5,
        "L3 misses/step: flashmob {fm_miss:.3} vs baseline {bl_miss:.3}"
    );
}

#[test]
fn flashmob_l2_catches_most_l1_misses() {
    // Table 5's observation: the baseline's misses fall straight
    // through to DRAM, FlashMob's are caught by L2.
    let fm = probe_flashmob(30_000, 8);
    let caught = fm.l2.hits as f64 / fm.l1.misses.max(1) as f64;
    assert!(caught > 0.5, "L2 catch rate {caught:.2}");

    let bl = probe_baseline(30_000, 8);
    let caught_bl = bl.l2.hits as f64 / bl.l1.misses.max(1) as f64;
    assert!(
        caught_bl < caught,
        "baseline should catch less in L2: {caught_bl:.2} vs {caught:.2}"
    );
}

#[test]
fn flashmob_dram_bound_time_is_lower() {
    let fm = probe_flashmob(30_000, 8);
    let bl = probe_baseline(30_000, 8);
    let fm_dram = fm.bound_ns.dram / fm.steps.max(1) as f64;
    let bl_dram = bl.bound_ns.dram / bl.steps.max(1) as f64;
    assert!(
        fm_dram < bl_dram / 2.0,
        "DRAM-bound ns/step: flashmob {fm_dram:.2} vs baseline {bl_dram:.2}"
    );
}

#[test]
fn higher_density_improves_flashmob_cache_hits() {
    // Figure 11b's mechanism: more walkers per edge = better reuse of
    // cached partition data.  A line fetched from DRAM is counted
    // whether a demand miss or a hint of the partition stream brought
    // it in: the stream turns the one into the other, and at low
    // density fetches lines no walker then reads.
    let lo = probe_flashmob(10_000, 8);
    let hi = probe_flashmob(80_000, 8);
    let fetch_rate =
        |s: &MemoryStats| (s.l3.misses + s.prefetch_dram_fills) as f64 / s.accesses.max(1) as f64;
    assert!(
        fetch_rate(&hi) < fetch_rate(&lo),
        "density should cut DRAM fetches per access: {:.4} vs {:.4}",
        fetch_rate(&hi),
        fetch_rate(&lo)
    );
}

#[test]
fn sparse_walk_reads_rows_not_refills() {
    // A hundredth of |V| walkers: a PS refill produced in full is d(v)
    // row reads and d(v) buffer writes for the one or two samples a
    // walker then takes — 110 touches and 6.5 DRAM fills per step
    // before generations could be reserved.  Reserved, a sample is drawn
    // when it is read: the cursor, the saved state, the offset pair and
    // one row entry.
    let fm = probe_flashmob(300, 8);
    let touches = fm.per_step(fm.accesses);
    let fills = fm.per_step(fm.dram_fill_lines);
    assert!(touches < 15.0, "touches per step {touches:.1}");
    assert!(fills < 2.0, "DRAM fills per step {fills:.2}");
}

#[test]
fn exclusive_llc_outperforms_inclusive_for_flashmob() {
    // Section 2.3: the Skylake exclusive-L3 design rewards FlashMob's
    // L2-resident working sets (no duplicated lines).
    let g = synth::power_law(30_000, 1.9, 1, 2_000, 13);
    let engine = FlashMob::new(
        &g,
        WalkConfig::deepwalk()
            .walkers(30_000)
            .steps(6)
            .seed(1)
            .record_paths(false)
            .planner(planner()),
    )
    .expect("engine");

    let mut exclusive = MemorySystem::new(hierarchy());
    engine.run_probed(&mut exclusive).expect("run");

    let mut incl_cfg = hierarchy();
    incl_cfg.llc_policy = LlcPolicy::Inclusive;
    let mut inclusive = MemorySystem::new(incl_cfg);
    engine.run_probed(&mut inclusive).expect("run");

    // With exclusive management the combined L2+L3 holds more distinct
    // lines, so fewer accesses fall through to DRAM.
    let ex = exclusive.stats().dram_fill_lines;
    let inc = inclusive.stats().dram_fill_lines;
    assert!(
        ex <= inc,
        "exclusive LLC should not increase DRAM fills: {ex} vs {inc}"
    );
}

#[test]
fn ring_prefetch_raises_simulated_hit_rate() {
    // The latency-hiding claim behind DESIGN.md's ring: on partitions
    // whose working set exceeds the (scaled) LLC, issuing the sample
    // loop's reads a few walkers ahead turns demand misses into hits.
    // The ring never changes the walk, so the demand-access stream is
    // identical; only the hit/miss split may move.
    let run = |depth: usize| {
        let g = synth::power_law(30_000, 1.9, 1, 2_000, 13);
        let engine = FlashMob::new(
            &g,
            WalkConfig::deepwalk()
                .walkers(30_000)
                .steps(8)
                .seed(1)
                .record_paths(false)
                .ring_depth(depth)
                .planner(planner()),
        )
        .expect("engine");
        let mut probe = MemorySystem::new(hierarchy());
        let (_, stats) = engine.run_probed(&mut probe).expect("run");
        (probe.stats().clone(), stats.prefetch_totals())
    };
    let (base, (base_ring, base_stream)) = run(1);
    let (ring, (ring_ring, ring_stream)) = run(8);
    assert_eq!(base.steps, ring.steps, "ring must not change the walk");
    assert_eq!(base.accesses, ring.accesses, "demand stream must match");
    // The partition stream hints the same lines at either depth; the
    // ring's hints come on top of them.
    assert_eq!(base_ring, 0, "depth 1 is the ring off");
    assert_eq!(
        base_stream, ring_stream,
        "the stream does not depend on the ring"
    );
    assert!(ring_ring > 0, "depth 8 must issue hints");
    assert!(ring.prefetch_lines > base.prefetch_lines);
    let hit_rate = |s: &MemoryStats| 1.0 - s.l3.misses as f64 / s.accesses.max(1) as f64;
    assert!(
        hit_rate(&ring) > hit_rate(&base),
        "prefetch must raise the simulated hit rate: ring {:.4} vs base {:.4}",
        hit_rate(&ring),
        hit_rate(&base)
    );
}

#[test]
fn node2vec_ring_raises_simulated_hit_rate() {
    // The same claim for node2vec's one sample stage: its proposal and
    // resolve rounds ring the probe chain (bloom line, offset pair, the
    // exact search's first levels over the previous vertex's adjacency,
    // up to degree 2000 here), which the demand stream reads far outside
    // the walker's partition.
    let run = |depth: usize| {
        let g = synth::power_law(30_000, 1.9, 1, 2_000, 13);
        let engine = FlashMob::new(
            &g,
            WalkConfig::node2vec(2.0, 0.5)
                .walkers(30_000)
                .steps(3)
                .seed(1)
                .record_paths(false)
                .ring_depth(depth)
                .planner(planner()),
        )
        .expect("engine");
        let mut probe = MemorySystem::new(hierarchy());
        let (_, stats) = engine.run_probed(&mut probe).expect("run");
        (probe.stats().clone(), stats.prefetch_totals().0)
    };
    let (base, base_hints) = run(1);
    let (ring, ring_hints) = run(8);
    assert_eq!(base.steps, ring.steps, "ring must not change the walk");
    assert_eq!(base.accesses, ring.accesses, "demand stream must match");
    assert!(ring_hints > base_hints, "depth 8 must issue ring hints");
    let hit_rate = |s: &MemoryStats| 1.0 - s.l3.misses as f64 / s.accesses.max(1) as f64;
    assert!(
        hit_rate(&ring) > hit_rate(&base),
        "prefetch must raise the simulated hit rate: ring {:.4} vs base {:.4}",
        hit_rate(&ring),
        hit_rate(&base)
    );
}

#[test]
fn probe_steps_match_engine_steps() {
    let fm = probe_flashmob(5_000, 4);
    assert_eq!(fm.steps, 5_000 * 4);
}
