//! Figure 12: cross-socket modes — graph partitioning vs replication.
//!
//! Compares FlashMob-P and FlashMob-R on every analog under a fixed
//! per-socket DRAM budget.  The paper finds the two modes perform
//! similarly (12a) while P-mode nearly doubles walker density (12b),
//! and VTune shows P-mode's remote accesses are vanishingly rare
//! (0.0011-0.0023 per step) because they are streaming-only.

use flashmob::numa::{run_numa_with, walker_capacity, NumaMachine, NumaMode};
use flashmob::{FlashMob, RunOptions, WalkConfig, WalkError};
use fm_bench::{analog, scaled_planner, HarnessOpts};
use fm_graph::presets::PaperGraph;
use fm_graph::Csr;
use fm_memsim::{HierarchyConfig, MemorySystem};
use fm_telemetry::Telemetry;

/// Prints one analog's row.  Walker counts come from the DRAM budget,
/// as the paper configures episodes at run time; each mode runs
/// single-threaded and is credited with ideal per-socket parallelism,
/// so the comparison is fair on hosts with fewer cores than the
/// simulated sockets.  P-mode's remote loads come from an instrumented
/// run with the walker arrays beyond a remote boundary covering half the
/// address space, which shows its remote traffic is streaming-only;
/// R-mode has none by construction.
fn print_row(which: PaperGraph, g: &Csr, base: &WalkConfig) -> Result<(), WalkError> {
    let machine = NumaMachine {
        sockets: 2,
        dram_per_socket: g.footprint_bytes() * 3,
    };
    let second_order = base.algorithm.is_second_order();
    let capacity = |mode| walker_capacity(g, &machine, mode, second_order).max(machine.sockets);
    // ns per step and walker density of a mode run as `instances` equal
    // engines: one spanning engine for P, one per socket for R.
    let mode_row = |mode, instances: usize| -> Result<(f64, f64), WalkError> {
        let per_instance = capacity(mode) / instances;
        let config = base.clone().walkers(per_instance * instances);
        let (opts, mut off) = (RunOptions::default(), Telemetry::off());
        let (_, stats) = run_numa_with(g, config, mode, machine.sockets, &opts, &mut off)?;
        let ns = stats.per_step_ns() / machine.sockets as f64;
        Ok((ns, per_instance as f64 / g.edge_count() as f64))
    };
    let (p_ns, p_density) = mode_row(NumaMode::Partitioned, 1)?;
    let (r_ns, r_density) = mode_row(NumaMode::Replicated, machine.sockets)?;
    let probe_config = base
        .clone()
        .walkers(capacity(NumaMode::Partitioned).min(10_000));
    let boundary = g.footprint_bytes() as u64 / machine.sockets as u64;
    let mut probe =
        MemorySystem::new(HierarchyConfig::skylake_server().with_remote_boundary(boundary));
    FlashMob::new(g, probe_config)?.run_probed(&mut probe)?;
    println!(
        "{:<8}{:>12.1}{:>12.1}{:>12.3}{:>12.3}{:>16.4}",
        which.tag(),
        p_ns,
        r_ns,
        p_density,
        r_density,
        probe.stats().per_step(probe.stats().remote_mem_loads)
    );
    Ok(())
}

fn main() {
    let opts = HarnessOpts::from_args();
    println!("Figure 12 — NUMA modes: FlashMob-P vs FlashMob-R");
    let header = format!(
        "{:<8}{:>12}{:>12}{:>12}{:>12}{:>16}",
        "Graph", "P ns/step", "R ns/step", "P density", "R density", "P remote/step"
    );
    println!("{header}");
    fm_bench::rule(&header);

    for which in PaperGraph::ALL {
        let g = analog(which, opts.scale);
        let base = WalkConfig::deepwalk()
            .steps(opts.steps.min(16))
            .seed(5)
            .planner(scaled_planner(opts.scale))
            .record_paths(false);
        print_row(which, &g, &base).expect("NUMA row");
    }
    println!();
    println!("Expected shape: P ~= R in speed; P density ~1.5-2x R; remote");
    println!("loads per step tiny (paper: 0.0011-0.0023).");
}
