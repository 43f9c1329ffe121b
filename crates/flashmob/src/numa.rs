//! Cross-socket execution modes (paper Section 4.5, Figure 12).
//!
//! * **FlashMob-P** ("P" for partitioning): the graph, its vertex
//!   partitions, and the walker arrays are split across sockets.  The
//!   only remote accesses are streaming reads in the sample stage, which
//!   Table 1 shows cost barely more than local streams — so P-mode keeps
//!   the whole DRAM of the machine available for walker arrays and
//!   nearly doubles walker density.
//! * **FlashMob-R** ("R" for replication): each socket holds a full copy
//!   of the graph and runs an independent walk.  No remote accesses at
//!   all, but the duplicated graph leaves less DRAM for walkers, halving
//!   density and hence cache reuse.
//!
//! A single-image OS process cannot pin real NUMA nodes portably, so the
//! reproduction models the trade-off exactly as the paper describes it:
//! the memory *budget* determines how many walkers each mode can hold,
//! both modes are then executed for real, and an instrumented run with a
//! remote-address boundary verifies that P-mode's remote traffic is
//! streaming-only and rare.

use std::path::Path;

use fm_graph::Csr;
use fm_recover::{CheckpointSpec, MANIFEST_NAME};
use fm_telemetry::Telemetry;

use crate::engine::{FlashMob, RunOptions, RunStats};
use crate::output::WalkOutput;
use crate::{WalkConfig, WalkError};

/// Which cross-socket mode to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumaMode {
    /// FlashMob-P: one graph copy, walker arrays spanning all sockets.
    Partitioned,
    /// FlashMob-R: one graph copy *per socket*, independent walks.
    Replicated,
}

impl NumaMode {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            NumaMode::Partitioned => "FlashMob-P",
            NumaMode::Replicated => "FlashMob-R",
        }
    }
}

/// Machine description for NUMA-mode sizing.
#[derive(Debug, Clone, Copy)]
pub struct NumaMachine {
    /// Number of sockets.
    pub sockets: usize,
    /// DRAM bytes available per socket for graph + walker arrays.
    pub dram_per_socket: usize,
}

/// A per-socket recorder matching the parent's enablement: socket `s`
/// records under trace pid `s` and is later merged into the parent with
/// [`Telemetry::absorb`], which keeps span attribution per socket while
/// summing counters exactly once.
fn socket_recorder(parent: &Telemetry, s: usize) -> Telemetry {
    if parent.is_on() {
        Telemetry::new().with_pid(s as u32)
    } else {
        Telemetry::off()
    }
}

/// Bytes of walker-array state per walker (W, SW, Snext, Wnext, plus
/// prev arrays for second-order walks).
fn bytes_per_walker(second_order: bool) -> usize {
    if second_order {
        7 * 4
    } else {
        4 * 4
    }
}

/// Computes how many walkers each mode can hold within the machine's
/// DRAM, following the paper's analysis.
pub fn walker_capacity(
    graph: &Csr,
    machine: &NumaMachine,
    mode: NumaMode,
    second_order: bool,
) -> usize {
    let graph_bytes = graph.footprint_bytes();
    let per_walker = bytes_per_walker(second_order);
    match mode {
        NumaMode::Partitioned => {
            // One graph copy spread over all sockets; the rest is walkers.
            let total = machine.sockets * machine.dram_per_socket;
            total.saturating_sub(graph_bytes) / per_walker
        }
        NumaMode::Replicated => {
            // A full graph copy per socket.
            let per_socket = machine.dram_per_socket.saturating_sub(graph_bytes) / per_walker;
            per_socket * machine.sockets
        }
    }
}

/// Runs one cross-socket mode with an explicit walker count
/// (`base.walkers` across all sockets), returning the per-instance
/// outputs and the instances' [`RunStats`], summed with
/// [`RunStats::absorb`]: one output for P-mode (a single engine spans
/// all sockets), `sockets` outputs for R-mode (independent per-socket
/// instances, socket `s` seeded with `seed + s`).  Paths are recorded
/// as `base.record_paths` says.
///
/// This is the NUMA family's one run entry.  Sizing walkers from a DRAM
/// budget is [`walker_capacity`]'s; the remote-load check is an
/// instrumented [`FlashMob::run_probed`] under a remote-boundary
/// hierarchy (`fig12_numa` composes the two).
///
/// P-mode hands `opts` to the spanning engine as they are.  R-mode gives
/// every socket its own subdirectory (`<dir>/socket-<s>`) of the
/// checkpoint and resume directories, so the independent instances never
/// race on a manifest; sockets run serially, so a `halt_after` kill stops
/// the whole mode at the first socket that reaches it.  On resume the
/// sockets then recover independently: one whose subdirectory holds a
/// checkpoint resumes from it (one that had already finished resumes from
/// its final checkpoint and completes in zero iterations); one the kill
/// never reached starts fresh.  Either way the outputs are bit-identical
/// to the uninterrupted run's.
///
/// Each R-mode socket records into its own recorder (tagged with the
/// socket index as the trace pid) which is then merged into `tel` —
/// spans keep per-socket attribution and the partition counters sum
/// exactly once, so the merged `partition_steps_total` equals the total
/// steps across sockets.
pub fn run_numa_with(
    graph: &Csr,
    base: WalkConfig,
    mode: NumaMode,
    sockets: usize,
    opts: &RunOptions,
    tel: &mut Telemetry,
) -> Result<(Vec<WalkOutput>, RunStats), WalkError> {
    if sockets == 0 {
        return Err(WalkError::Planning("need at least one socket".into()));
    }
    if mode == NumaMode::Partitioned {
        let (output, stats) = FlashMob::new(graph, base)?.run_with(opts, tel)?;
        return Ok((vec![output], stats));
    }
    // R-mode: `sockets` independent instances, one after another.
    // Socket `s` gets its share of the walkers (the first socket absorbs
    // the remainder so every walker is accounted for), seed `seed + s`,
    // the `socket-<s>` subdirectory of `opts`' directories — resuming
    // only if that subdirectory holds a manifest — and a recorder of its
    // own (see [`socket_recorder`]), merged into `tel` whether or not
    // the run succeeded.  The first socket that fails stops the mode.
    let total = base.walkers;
    if total < sockets {
        return Err(WalkError::NoWalkers);
    }
    let share = total / sockets;
    let mut outputs = Vec::with_capacity(sockets);
    let mut stats = RunStats::default();
    for s in 0..sockets {
        let walkers = if s == 0 { total - share * (sockets - 1) } else { share };
        let config = base
            .clone()
            .walkers(walkers)
            .seed(base.seed.wrapping_add(s as u64));
        let engine = FlashMob::new(graph, config)?;
        let socket_dir = |root: &Path| root.join(format!("socket-{s}"));
        let socket_opts = RunOptions {
            checkpoint: opts.checkpoint.as_ref().map(|spec| CheckpointSpec {
                dir: socket_dir(&spec.dir),
                ..spec.clone()
            }),
            resume_from: opts
                .resume_from
                .as_deref()
                .map(socket_dir)
                .filter(|dir| dir.join(MANIFEST_NAME).is_file()),
            fault: opts.fault,
        };
        let mut socket_tel = socket_recorder(tel, s);
        let result = engine.run_with(&socket_opts, &mut socket_tel);
        tel.absorb(socket_tel);
        let (output, socket_stats) = result?;
        outputs.push(output);
        stats.absorb(&socket_stats);
    }
    Ok((outputs, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlannerParams;
    use fm_graph::synth;

    fn machine(graph: &Csr) -> NumaMachine {
        NumaMachine {
            sockets: 2,
            dram_per_socket: graph.footprint_bytes() * 4,
        }
    }

    #[test]
    fn partitioned_holds_more_walkers_than_replicated() {
        let g = synth::power_law(2000, 2.0, 1, 60, 3);
        let m = machine(&g);
        let p = walker_capacity(&g, &m, NumaMode::Partitioned, false);
        let r = walker_capacity(&g, &m, NumaMode::Replicated, false);
        assert!(p > r, "P capacity {p} must exceed R capacity {r}");
        // With a graph occupying 1/4 of each socket, P ≈ (8-1)/(2*(4-1)) R.
        let ratio = p as f64 / r as f64;
        assert!(ratio > 1.1 && ratio < 1.4, "ratio {ratio}");
    }

    #[test]
    fn second_order_reduces_capacity() {
        let g = synth::power_law(1000, 2.0, 1, 30, 3);
        let m = machine(&g);
        let first = walker_capacity(&g, &m, NumaMode::Partitioned, false);
        let second = walker_capacity(&g, &m, NumaMode::Partitioned, true);
        assert!(second < first);
    }

    #[test]
    fn traced_numa_paths_merge_without_double_counting() {
        let g = synth::power_law(400, 2.0, 1, 40, 2);
        let base = crate::WalkConfig::deepwalk()
            .walkers(120)
            .steps(4)
            .seed(5)
            .planner(PlannerParams {
                target_groups: 8,
                max_partitions: 64,
                min_vp_vertices: 8,
                ..PlannerParams::default()
            });
        let (opts, mut tel) = (RunOptions::default(), Telemetry::new());
        let (outputs, _) =
            run_numa_with(&g, base.clone(), NumaMode::Replicated, 3, &opts, &mut tel).unwrap();
        assert_eq!(outputs.len(), 3);
        // 120 walkers × 4 steps across all sockets, counted exactly once
        // in the merged recorder.
        assert_eq!(tel.partition_steps_total(), 120 * 4);
        // Sockets 1 and 2 keep their own span lanes (pid tag in the
        // thread lane's high bits); socket 0 shares the parent's pid.
        for s in 1..3u32 {
            assert!(
                tel.events().iter().any(|e| e.thread >> 16 == s + 1),
                "socket {s} spans must survive the merge with attribution"
            );
        }
        // Tracing must not perturb the sampled paths.
        let (plain, _) = run_numa_with(
            &g,
            base,
            NumaMode::Replicated,
            3,
            &opts,
            &mut Telemetry::off(),
        )
        .unwrap();
        for (a, b) in plain.iter().zip(&outputs) {
            assert_eq!(a.paths(), b.paths());
        }
    }

    #[test]
    fn traced_numa_partitioned_counts_exactly() {
        let g = synth::power_law(300, 2.0, 1, 30, 4);
        let base = crate::WalkConfig::deepwalk().walkers(90).steps(3).seed(2);
        let (opts, mut tel) = (RunOptions::default(), Telemetry::new());
        let (outputs, stats) =
            run_numa_with(&g, base, NumaMode::Partitioned, 2, &opts, &mut tel).unwrap();
        assert_eq!(outputs.len(), 1, "P-mode is a single spanning instance");
        assert_eq!(tel.partition_steps_total(), 90 * 3);
        assert_eq!(stats.steps_taken, 90 * 3);
    }

    #[test]
    fn replicated_stats_count_the_steps_in_the_paths() {
        let g = synth::power_law(300, 2.0, 1, 30, 4);
        let mut base = crate::WalkConfig::deepwalk().walkers(100).seed(3);
        base.stop = crate::StopRule::Geometric {
            exit_prob: 0.2,
            max_steps: 6,
        };
        let run = |config: WalkConfig, mode| {
            run_numa_with(
                &g,
                config,
                mode,
                3,
                &RunOptions::default(),
                &mut Telemetry::off(),
            )
            .unwrap()
        };
        let (outputs, stats) = run(base.clone(), NumaMode::Replicated);
        // A walker the stop rule ended took one step more, the fatal
        // one, than its path shows.
        let hops: Vec<usize> = outputs
            .iter()
            .flat_map(|o| o.paths())
            .map(|p| p.len() - 1)
            .collect();
        let ended = hops.iter().filter(|&&h| h < 6).count();
        assert!(ended > 0, "the geometric stop cut some walks short");
        let in_paths = hops.iter().sum::<usize>() + ended;
        assert_eq!(stats.steps_taken, in_paths as u64);
        assert_eq!(stats.walkers, 100);
        // With paths off, neither mode records a path row: each output
        // holds the final positions alone, and the steps still count.
        for mode in [NumaMode::Partitioned, NumaMode::Replicated] {
            let (outputs, stats) = run(base.clone().record_paths(false), mode);
            assert!(outputs.iter().all(|o| o.step_count() == 0), "{mode:?}");
            assert!(stats.steps_taken > 0, "{mode:?}");
        }
    }

    #[test]
    fn both_modes_run_and_report() {
        // The row `fig12_numa` composes: walkers from the DRAM budget,
        // one paths-off run per mode, and each mode's remote loads from
        // a probed run (P-mode's walker arrays beyond a remote boundary,
        // R-mode's sockets each on a local graph copy).
        use fm_memsim::{HierarchyConfig, MemorySystem};
        let g = synth::power_law(800, 2.0, 1, 40, 5);
        let m = NumaMachine {
            sockets: 2,
            dram_per_socket: g.footprint_bytes() * 2,
        };
        let base = crate::WalkConfig::deepwalk()
            .steps(3)
            .seed(1)
            .record_paths(false)
            .planner(PlannerParams {
                target_groups: 8,
                max_partitions: 64,
                min_vp_vertices: 8,
                ..PlannerParams::default()
            });
        let row = |mode, hierarchy: HierarchyConfig| {
            let walkers = walker_capacity(&g, &m, mode, false).max(m.sockets);
            let (total, per_instance) = match mode {
                NumaMode::Partitioned => (walkers, walkers),
                NumaMode::Replicated => (walkers / m.sockets * m.sockets, walkers / m.sockets),
            };
            let config = base.clone().walkers(total);
            let (_, stats) = run_numa_with(
                &g,
                config,
                mode,
                m.sockets,
                &RunOptions::default(),
                &mut Telemetry::off(),
            )
            .unwrap();
            assert!(stats.per_step_ns() > 0.0, "{mode:?}");
            let probe_engine =
                FlashMob::new(&g, base.clone().walkers(per_instance.min(10_000))).unwrap();
            let mut probe = MemorySystem::new(hierarchy);
            probe_engine.run_probed(&mut probe).unwrap();
            let remote = probe.stats().per_step(probe.stats().remote_mem_loads);
            (per_instance as f64 / g.edge_count() as f64, remote)
        };
        let remote = HierarchyConfig::skylake_server()
            .with_remote_boundary(g.footprint_bytes() as u64 / m.sockets as u64);
        let (p_density, p_remote) = row(NumaMode::Partitioned, remote);
        let (r_density, r_remote) = row(NumaMode::Replicated, HierarchyConfig::skylake_server());
        assert!(p_density > r_density * 1.05, "P density should exceed R");
        assert_eq!(r_remote, 0.0);
        // Remote accesses in P-mode stay rare (streaming-only).
        assert!(p_remote.is_finite());
    }
}
