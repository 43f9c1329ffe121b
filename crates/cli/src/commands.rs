//! Implementations of the `fmwalk` subcommands.

use std::io::Write;
use std::path::{Path, PathBuf};

use flashmob::{
    oocore::{run_ooc_with, DiskGraph, OocStats},
    CheckpointSpec, FaultPolicy, FlashMob, RunOptions, WalkConfig, WalkOutput,
};
use fm_baseline::{Baseline, BaselineConfig, BaselineKind};
use fm_graph::{io, stats, synth, Csr, VertexId};
use fm_telemetry::{export, tef, Telemetry};

use crate::args::{Command, EngineChoice, SynthKind, SynthParams, WalkerCount};

/// Process exit-code class of a command failure.
///
/// Scripted callers can dispatch on the code: retry on transient IO,
/// discard the checkpoint directory on corruption, fix the invocation
/// on a plan error.  Usage errors (bad flags) exit with the
/// conventional `EX_USAGE` 64, assigned in `main` before a command
/// ever runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitKind {
    /// The environment failed us: missing files, permission errors,
    /// exhausted retries on transient IO.
    Io,
    /// A checkpoint failed CRC/structure validation; the snapshot is
    /// unusable and should be discarded.
    CorruptSnapshot,
    /// The invocation is semantically invalid for this graph or
    /// configuration (planning errors, sink vertices, missing weights,
    /// config/checkpoint mismatches).
    Plan,
    /// Anything else.
    Other,
}

impl ExitKind {
    /// The process exit code for this class.
    pub fn code(self) -> i32 {
        match self {
            ExitKind::Io => 2,
            ExitKind::CorruptSnapshot => 3,
            ExitKind::Plan => 4,
            ExitKind::Other => 1,
        }
    }
}

/// A command-execution failure with a user-facing message and an
/// exit-code class.
#[derive(Debug)]
pub struct CmdError(pub String, pub ExitKind);

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CmdError {}

fn fail(e: impl std::fmt::Display) -> CmdError {
    CmdError(e.to_string(), ExitKind::Other)
}

fn fail_io(e: impl std::fmt::Display) -> CmdError {
    CmdError(e.to_string(), ExitKind::Io)
}

fn fail_plan(e: impl std::fmt::Display) -> CmdError {
    CmdError(e.to_string(), ExitKind::Plan)
}

/// Classifies a graph-storage error: anything carrying an underlying
/// `std::io::Error` is an environment failure, the rest (format,
/// validation) are generic.
fn fail_graph(e: fm_graph::GraphError) -> CmdError {
    let kind = if e.io_source().is_some() {
        ExitKind::Io
    } else {
        ExitKind::Other
    };
    CmdError(e.to_string(), kind)
}

/// Classifies an engine error into its exit class: checkpoint
/// corruption → [`ExitKind::CorruptSnapshot`], IO (including recovery
/// IO and missing snapshots) → [`ExitKind::Io`], config mismatches and
/// planning failures → [`ExitKind::Plan`].
fn fail_walk(e: flashmob::WalkError) -> CmdError {
    use flashmob::{RecoverError, WalkError};
    let kind = match &e {
        WalkError::Graph(g) => {
            if g.io_source().is_some() {
                ExitKind::Io
            } else {
                ExitKind::Other
            }
        }
        WalkError::Recover(r) => {
            if r.is_corrupt() {
                ExitKind::CorruptSnapshot
            } else if matches!(r, RecoverError::Mismatch { .. }) {
                ExitKind::Plan
            } else {
                ExitKind::Io
            }
        }
        _ => ExitKind::Plan,
    };
    CmdError(e.to_string(), kind)
}

/// Classifies a *disk-graph* storage error: a malformed `FMDISK1`
/// header or torn file is corrupt input (exit 3, like a corrupt
/// snapshot), not a generic failure; IO errors stay environment
/// failures (exit 2).
fn fail_disk(e: fm_graph::GraphError) -> CmdError {
    let kind = if e.io_source().is_some() {
        ExitKind::Io
    } else if matches!(e, fm_graph::GraphError::Format(_)) {
        ExitKind::CorruptSnapshot
    } else {
        ExitKind::Other
    };
    CmdError(e.to_string(), kind)
}

/// The first `len` bytes of `path`, fewer when the file is shorter.
fn file_head(path: &Path, len: u64) -> std::io::Result<Vec<u8>> {
    use std::io::Read;
    let mut head = Vec::new();
    std::fs::File::open(path)?.take(len).read_to_end(&mut head)?;
    Ok(head)
}

/// Whether `path` holds an out-of-core disk graph (`FMDISK1` magic).
fn is_disk_graph(path: &Path) -> bool {
    file_head(path, 8).is_ok_and(|head| head == b"FMDISK1\0")
}

/// Loads a graph: binary when the FMG1 magic is present, else text.
pub fn load_graph(path: &Path) -> Result<Csr, CmdError> {
    ingest(path, io::ParseOptions::default()).map(|(graph, _)| graph)
}

/// Loads a graph through the library's file readers, so nothing but the
/// magic is read before the decoder runs; says whether it was binary (in
/// which case `opts` did not apply).
fn ingest(path: &Path, opts: io::ParseOptions) -> Result<(Csr, bool), CmdError> {
    let head = file_head(path, 4)
        .map_err(|e| fail_io(format!("cannot read {}: {e}", path.display())))?;
    let binary = head == b"FMG1";
    let graph = if binary {
        io::load_binary(path)
    } else {
        io::read_edge_list_file(path, opts)
    };
    Ok((graph.map_err(fail_graph)?, binary))
}

/// Executes a parsed command, writing human output to `out`.
pub fn run<W: Write>(cmd: Command, out: &mut W) -> Result<(), CmdError> {
    match cmd {
        Command::Help => {
            write!(out, "{}", crate::USAGE).map_err(fail)?;
            Ok(())
        }
        Command::Convert {
            input,
            output,
            opts,
        } => {
            let (mut graph, binary) = ingest(&input, opts)?;
            if binary {
                // Binary input: apply clean-up passes via the builder.
                let mut b = fm_graph::GraphBuilder::new();
                b.add_edges(graph.edges());
                graph = b
                    .symmetric(opts.symmetric)
                    .dedup(opts.dedup)
                    .drop_self_loops(opts.drop_self_loops)
                    .compact(opts.compact)
                    .build()
                    .map_err(fail)?;
            }
            io::save_binary(&graph, &output).map_err(fail_graph)?;
            writeln!(
                out,
                "wrote {}: |V| = {}, |E| = {}",
                output.display(),
                graph.vertex_count(),
                graph.edge_count()
            )
            .map_err(fail)?;
            Ok(())
        }
        Command::Stats(a) => {
            let g = load_graph(&a.graph)?;
            writeln!(out, "vertices        {}", g.vertex_count()).map_err(fail)?;
            writeln!(out, "edges           {}", g.edge_count()).map_err(fail)?;
            writeln!(out, "avg degree      {:.2}", stats::avg_degree(&g)).map_err(fail)?;
            writeln!(out, "max degree      {}", g.max_degree()).map_err(fail)?;
            writeln!(out, "csr bytes       {}", g.footprint_bytes()).map_err(fail)?;
            writeln!(out, "sinks           {}", !g.has_no_sinks()).map_err(fail)?;
            writeln!(out, "weak components {}", stats::weak_components(&g)).map_err(fail)?;
            writeln!(
                out,
                "est. diameter   {}",
                stats::estimate_diameter(&g, a.diameter_samples, 1)
            )
            .map_err(fail)?;
            writeln!(out, "\ndegree buckets (Table 2 style):").map_err(fail)?;
            for b in stats::degree_group_stats(&g, None, &stats::TABLE2_BUCKETS) {
                writeln!(
                    out,
                    "  top {:>5.1}%: avg degree {:>9.1}, edge share {:>5.1}%",
                    b.upper_fraction * 100.0,
                    b.avg_degree,
                    b.edge_share * 100.0
                )
                .map_err(fail)?;
            }
            Ok(())
        }
        Command::Plan(a) => {
            let g = load_graph(&a.graph)?;
            let cfg = WalkConfig::deepwalk()
                .walkers(walker_count(a.walkers, g.vertex_count())?)
                .strategy(a.strategy)
                .record_paths(false);
            let engine = FlashMob::new(&g, cfg).map_err(fail_walk)?;
            let plan = engine.plan();
            writeln!(out, "strategy          {:?}", a.strategy).map_err(fail)?;
            writeln!(out, "partitions        {}", plan.partitions.len()).map_err(fail)?;
            writeln!(out, "groups            {}", plan.groups.len()).map_err(fail)?;
            writeln!(out, "shuffle levels    {}", plan.shuffle_levels()).map_err(fail)?;
            writeln!(out, "outer bins        {}", plan.outer_bins).map_err(fail)?;
            writeln!(out, "walker density    {:.4}", plan.density).map_err(fail)?;
            writeln!(
                out,
                "PS edge share     {:.1}%",
                plan.ps_edge_share() * 100.0
            )
            .map_err(fail)?;
            writeln!(
                out,
                "predicted sample  {:.1} ns/step",
                plan.predicted_sample_ns
            )
            .map_err(fail)?;
            Ok(())
        }
        Command::Walk(a) => {
            if a.checkpoint_every > 0 && a.checkpoint_dir.is_none() {
                return Err(fail_plan("--checkpoint-every requires --checkpoint-dir"));
            }
            let every = match a.checkpoint_every {
                0 => 8,
                every => every,
            };
            if a.halt_after > 0 && a.checkpoint_dir.is_none() {
                return Err(fail_plan("--halt-after requires --checkpoint-dir"));
            }
            // One set of run options for either kind of graph; a halt
            // after generation `--halt-after` is the crash drill's
            // success, not an error.
            let opts = RunOptions {
                checkpoint: a.checkpoint_dir.map(|dir| CheckpointSpec {
                    halt_after: (a.halt_after > 0).then_some(a.halt_after),
                    ..CheckpointSpec::new(dir, every)
                }),
                resume_from: a.resume_from.clone(),
                fault: (a.fault_rate > 0.0)
                    .then(|| FaultPolicy::transient(a.fault_seed, a.fault_rate)),
            };
            let telemetry =
                || make_telemetry(a.trace.is_some() || a.metrics.is_some(), a.progress, a.stats);
            let (tel, ran) = if is_disk_graph(&a.graph) {
                // DeepWalk, node2vec and PPR all go through the
                // triangular bi-block scheduler, and `--checkpoint-every`
                // counts its pair slots.
                if a.engine != EngineChoice::FlashMob {
                    return Err(fail_plan("disk graphs run on --engine flashmob only"));
                }
                if a.labels > 0 {
                    return Err(fail_plan("disk graphs carry no edge labels"));
                }
                if a.config.threads > 1 {
                    return Err(fail_plan("out-of-core walking is single-threaded"));
                }
                let disk = DiskGraph::open(&a.graph).map_err(fail_disk)?;
                let mut config = a.config.walkers(walker_count(a.walkers, disk.vertex_count())?);
                // Out of core, visit counts are read off the paths.
                config.record_paths |= config.record_visits;
                let budget = match a.oocore_budget {
                    0 => 64 << 20,
                    budget => budget,
                };
                let mut tel = telemetry();
                let ran =
                    run_ooc_with(&disk, &config, budget, &opts, &mut tel).map(|(o, s)| RunReport {
                        steps_taken: s.steps_taken,
                        per_step_ns: s.per_step_ns(),
                        visits_vec: a.visits.is_some().then(|| o.visit_counts(disk.vertex_count())),
                        stats_report: a.stats.then(|| ooc_summary(&s)),
                        walk_output: o,
                    });
                (tel, ran)
            } else {
                if a.oocore_budget > 0 {
                    return Err(fail_plan(
                        "--oocore-budget applies to FMDISK1 disk graphs only (create one with `fmwalk disk`)",
                    ));
                }
                let g = with_derived_labels(load_graph(&a.graph)?, a.labels)?;
                let config = a.config.walkers(walker_count(a.walkers, g.vertex_count())?);
                let mut tel = telemetry();
                let ran = match a.engine {
                    EngineChoice::FlashMob => {
                        FlashMob::new(&g, config).and_then(|e| e.run_with(&opts, &mut tel))
                    }
                    EngineChoice::KnightKing | EngineChoice::GraphVite => {
                        let kind = if a.engine == EngineChoice::KnightKing {
                            BaselineKind::KnightKing
                        } else {
                            BaselineKind::GraphVite
                        };
                        Baseline::new(&g, BaselineConfig { kind, walk: config })
                            .and_then(|e| e.run_with(&opts, &mut tel))
                    }
                }
                .map(|(o, s)| RunReport {
                    steps_taken: s.steps_taken,
                    per_step_ns: s.per_step_ns(),
                    visits_vec: s.visits_original(o.relabeling()),
                    stats_report: a.stats.then(|| s.human_summary()),
                    walk_output: o,
                });
                (tel, ran)
            };
            let ran = match ran {
                Ok(ran) => ran,
                Err(flashmob::WalkError::Halted { generation }) => {
                    let halted = "halted deliberately after checkpoint generation";
                    return writeln!(out, "{halted} {generation}").map_err(fail);
                }
                Err(e) => return Err(fail_walk(e)),
            };
            if let Some(dir) = &a.resume_from {
                writeln!(out, "resumed from {}", dir.display()).map_err(fail)?;
            }
            report_run(out, &tel, ran, a.output, a.visits, a.trace, a.metrics)
        }
        Command::Disk { input, output } => {
            let g = load_graph(&input)?;
            let disk = DiskGraph::create(&g, &output).map_err(fail_disk)?;
            writeln!(
                out,
                "wrote {}: |V| = {}, |E| = {} (FMDISK1, degree-sorted)",
                output.display(),
                disk.vertex_count(),
                disk.edge_count(),
            )
            .map_err(fail)?;
            Ok(())
        }
        Command::Synth {
            kind,
            output,
            params,
        } => {
            let g = generate(kind, &params);
            io::save_binary(&g, &output).map_err(fail_graph)?;
            writeln!(
                out,
                "wrote {}: |V| = {}, |E| = {}, avg degree {:.1}",
                output.display(),
                g.vertex_count(),
                g.edge_count(),
                stats::avg_degree(&g)
            )
            .map_err(fail)?;
            Ok(())
        }
        Command::Conform(a) => {
            use fm_conformance::runner::{self, AlgoKind, EngineKind, LatticeConfig, Outcome};

            if a.emit_golden {
                // Golden digests cover the *full* thread lattice so the
                // quick tier's cells are always a committed subset.
                writeln!(
                    out,
                    "// Paste into crates/conformance/src/golden.rs (GOLDEN table):"
                )
                .map_err(fail)?;
                for engine in EngineKind::ALL {
                    for algo in AlgoKind::ALL {
                        for threads in LatticeConfig::full().threads {
                            if let Some(d) = runner::cell_digest(engine, algo, threads) {
                                writeln!(
                                    out,
                                    "    (\"{}\", \"{}\", {}, {:#018x}),",
                                    engine.label(),
                                    algo.label(),
                                    threads,
                                    d
                                )
                                .map_err(fail)?;
                            }
                        }
                    }
                }
                return Ok(());
            }

            let mut config = if a.full {
                LatticeConfig::full()
            } else {
                LatticeConfig::quick()
            };
            config.ring_depth = a.ring_depth;
            let report = runner::run_lattice(&config);
            writeln!(
                out,
                "conformance lattice ({} tier): {} cells, per-test alpha {:.2e}",
                if a.full { "full" } else { "quick" },
                report.cells.len(),
                report.per_test_alpha
            )
            .map_err(fail)?;
            writeln!(
                out,
                "{:<14} {:<10} {:>7}  {:<7} detail",
                "engine", "walk", "threads", "result"
            )
            .map_err(fail)?;
            for cell in &report.cells {
                let (result, detail) = match &cell.outcome {
                    Outcome::Pass {
                        p_values,
                        digest,
                        golden_checked,
                    } => {
                        let ps: Vec<String> = p_values.iter().map(|p| format!("{p:.3}")).collect();
                        (
                            "pass",
                            format!(
                                "p {}, digest {digest:#018x}{}",
                                ps.join("/"),
                                if *golden_checked { " (golden ok)" } else { "" }
                            ),
                        )
                    }
                    Outcome::Skipped { reason } => ("skip", (*reason).to_string()),
                    Outcome::Fail { reason } => ("FAIL", reason.clone()),
                };
                writeln!(
                    out,
                    "{:<14} {:<10} {:>7}  {:<7} {}",
                    cell.engine.label(),
                    cell.algo.label(),
                    cell.threads,
                    result,
                    detail
                )
                .map_err(fail)?;
            }
            let (passed, skipped, failed) = report.tally();
            writeln!(out, "{passed} passed, {skipped} skipped, {failed} failed").map_err(fail)?;
            // Whether the lattice ran the sample stage's hint-only
            // stage at all (ci.sh's ring tier insists that it did).
            let hinted = report.cells.iter().filter(|c| c.stream_hints > 0);
            writeln!(
                out,
                "partition stream: {} cells hinted, {} hints",
                hinted.clone().count(),
                hinted.map(|c| c.stream_hints).sum::<u64>()
            )
            .map_err(fail)?;
            // And whether any cell took a PS refill in reserved form.
            let reserved = report.cells.iter().filter(|c| c.reserved_draws > 0);
            writeln!(
                out,
                "reserved generations: {} cells, {} draws reserved",
                reserved.clone().count(),
                reserved.map(|c| c.reserved_draws).sum::<u64>()
            )
            .map_err(fail)?;
            if failed > 0 {
                return Err(CmdError(
                    format!("{failed} conformance cell(s) failed; see table above"),
                    ExitKind::Other,
                ));
            }
            Ok(())
        }
        Command::TraceCheck { file } => {
            let text = std::fs::read_to_string(&file)
                .map_err(|e| fail_io(format!("cannot read {}: {e}", file.display())))?;
            let report = tef::validate(&text)
                .map_err(|e| fail(format!("{}: invalid trace: {e}", file.display())))?;
            writeln!(
                out,
                "{}: valid Chrome trace, {} events ({} complete spans) across {} lanes",
                file.display(),
                report.events,
                report.complete_events,
                report.lanes
            )
            .map_err(fail)?;
            Ok(())
        }
        Command::Audit(a) => {
            let root = a.root.unwrap_or_else(|| std::path::PathBuf::from("."));
            // IO/config problems (unreadable tree, bad allow.toml) exit
            // 2; lint findings exit 1.  Scripted callers rely on the
            // distinction, as with the other subcommands.
            let opts = fm_audit::RunOptions {
                update_ratchet: a.update_ratchet,
            };
            let report =
                fm_audit::scan::run(&root, opts).map_err(|e| fail_io(format!("audit: {e}")))?;
            if let Some(query) = &a.why {
                write!(out, "{}", fm_audit::report::why(&report, query)).map_err(fail)?;
            } else if a.json {
                let text = fm_audit::report::json(&report);
                // The emitted document must conform to the report
                // schema; a mismatch is an internal error (exit 2), so
                // scripted consumers never see malformed JSON on exit
                // 0/1.
                fm_audit::report::validate_json(&text)
                    .map_err(|e| fail_io(format!("audit: json schema: {e}")))?;
                write!(out, "{text}").map_err(fail)?;
            } else {
                write!(out, "{}", fm_audit::report::human(&report)).map_err(fail)?;
            }
            if !report.clean() {
                return Err(CmdError(
                    format!("audit: {} finding(s)", report.findings.len()),
                    ExitKind::Other,
                ));
            }
            Ok(())
        }
    }
}

/// The walker count of `walkers` on a graph of `vertices` vertices, at
/// least one; a `--walkers-mult` whose product with |V| overflows is a
/// plan error.
fn walker_count(walkers: WalkerCount, vertices: usize) -> Result<usize, CmdError> {
    let n = walkers.resolve(vertices).ok_or_else(|| {
        fail_plan(format!(
            "--walkers-mult times {vertices} vertices overflows the walker count"
        ))
    })?;
    Ok(n.max(1))
}

/// Applies `--labels K`: attaches `slot % K` edge-type labels over the
/// loaded graph's adjacency (the same deterministic labeling the
/// conformance suite uses), so metapath walks can run on graphs whose
/// storage format carries no type information.  `k == 0` leaves the
/// graph unlabeled.
fn with_derived_labels(g: Csr, k: usize) -> Result<Csr, CmdError> {
    if k == 0 {
        return Ok(g);
    }
    if k > 256 {
        return Err(fail_plan("--labels supports at most 256 edge types"));
    }
    let mut labels = Vec::with_capacity(g.edge_count());
    for u in 0..g.vertex_count() {
        let d = g.degree(u as VertexId);
        for slot in 0..d {
            labels.push((slot % k) as u8);
        }
    }
    g.with_edge_labels(labels).map_err(fail_graph)
}

/// Formats a steps/s rate compactly for the heartbeat line.
fn fmt_rate(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.0}")
    }
}

/// Human `--stats` block for an out-of-core run: streaming volume,
/// bi-block scheduling activity, boundary-buffer occupancy, and the
/// transient IO retries the fault layer absorbed.
fn ooc_summary(s: &OocStats) -> String {
    use std::fmt::Write as _;
    let mut t = String::new();
    let _ = writeln!(
        t,
        "oocore: {} block loads performed, {:.1} MiB read in {:.1} ms",
        s.blocks_streamed,
        s.bytes_read as f64 / (1 << 20) as f64,
        s.read_time.as_secs_f64() * 1e3,
    );
    let _ = writeln!(
        t,
        "oocore: {} block pairs scheduled, {} empty slots skipped",
        s.pairs_scheduled, s.pairs_skipped,
    );
    let _ = writeln!(
        t,
        "oocore: {} walker parkings, peak boundary-buffer occupancy {}",
        s.walkers_parked, s.peak_parked,
    );
    let _ = writeln!(
        t,
        "oocore: {} connectivity scans ({} adjacency words read), {} ring prefetch hints",
        s.probes, s.scan_words, s.prefetches,
    );
    let _ = writeln!(t, "oocore: {} transient io retries absorbed", s.io_retries);
    t
}

/// Telemetry is recorded whenever any consumer asked for it; otherwise
/// the recorder stays disabled and the engines take their untraced
/// path.
fn make_telemetry(exporting: bool, progress: bool, show_stats: bool) -> Telemetry {
    let mut tel = if exporting || progress || show_stats {
        Telemetry::new()
    } else {
        Telemetry::off()
    };
    if progress {
        // Live throughput from the step counters, plus an ETA scaled
        // from the per-generation pace so far (unknowable before the
        // first generation completes).
        tel.set_heartbeat(std::time::Duration::from_secs(1), |p| {
            let secs = p.elapsed.as_secs_f64();
            let rate = if secs > 0.0 {
                p.steps_taken as f64 / secs
            } else {
                0.0
            };
            let eta = if p.step > 0 && p.total_steps > p.step {
                let remaining = (p.total_steps - p.step) as f64;
                format!("{:.0}s", secs / p.step as f64 * remaining)
            } else {
                "--".to_string()
            };
            eprintln!(
                "[fmwalk] step {}/{} | {} walker-steps | {} steps/s | ETA {eta}",
                p.step,
                p.total_steps,
                p.steps_taken,
                fmt_rate(rate)
            );
        });
    }
    tel
}

/// What a `walk`/`resume` run produced, in memory or out of core.
struct RunReport {
    walk_output: WalkOutput,
    steps_taken: u64,
    per_step_ns: f64,
    visits_vec: Option<Vec<u64>>,
    stats_report: Option<String>,
}

/// Prints the run summary and writes the requested artifact files
/// (shared by `walk` and `resume`).
fn report_run<W: Write>(
    out: &mut W,
    tel: &Telemetry,
    r: RunReport,
    output: Option<PathBuf>,
    visits: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
) -> Result<(), CmdError> {
    writeln!(
        out,
        "walked {} walker-steps at {:.1} ns/step",
        r.steps_taken, r.per_step_ns
    )
    .map_err(fail)?;
    if let Some(report) = r.stats_report {
        write!(out, "{report}").map_err(fail)?;
        if tel.is_on() {
            write!(out, "{}", export::human_summary(tel)).map_err(fail)?;
        }
    }
    if let Some(path) = trace {
        let f = std::fs::File::create(&path).map_err(fail_io)?;
        let mut w = std::io::BufWriter::new(f);
        export::write_chrome_trace(&mut w, tel).map_err(fail_io)?;
        w.flush().map_err(fail_io)?;
        writeln!(out, "trace written to {}", path.display()).map_err(fail)?;
    }
    if let Some(path) = metrics {
        let f = std::fs::File::create(&path).map_err(fail_io)?;
        let mut w = std::io::BufWriter::new(f);
        export::write_metrics_jsonl(&mut w, tel).map_err(fail_io)?;
        w.flush().map_err(fail_io)?;
        writeln!(out, "metrics written to {}", path.display()).map_err(fail)?;
    }
    if let Some(path) = output {
        let f = std::fs::File::create(&path).map_err(fail_io)?;
        let mut w = std::io::BufWriter::new(f);
        write_paths(&mut w, &r.walk_output.paths()).map_err(fail_io)?;
        w.flush().map_err(fail_io)?;
        writeln!(out, "paths written to {}", path.display()).map_err(fail)?;
    }
    if let (Some(path), Some(v)) = (visits, r.visits_vec) {
        let f = std::fs::File::create(&path).map_err(fail_io)?;
        let mut w = std::io::BufWriter::new(f);
        for (vertex, count) in v.iter().enumerate() {
            writeln!(w, "{vertex} {count}").map_err(fail_io)?;
        }
        w.flush().map_err(fail_io)?;
        writeln!(out, "visit counts written to {}", path.display()).map_err(fail)?;
    }
    Ok(())
}

/// Writes one line per path: its vertex IDs in decimal, separated by
/// single spaces.  Each line is formatted into one reused buffer.
fn write_paths<W: Write>(w: &mut W, paths: &[Vec<VertexId>]) -> std::io::Result<()> {
    let mut line = Vec::new();
    for path in paths {
        line.clear();
        for (k, &v) in path.iter().enumerate() {
            if k > 0 {
                line.push(b' ');
            }
            push_decimal(&mut line, v);
        }
        line.push(b'\n');
        w.write_all(&line)?;
    }
    Ok(())
}

/// Appends `v` to `buf` in decimal, as `v.to_string()` spells it.
fn push_decimal(buf: &mut Vec<u8>, mut v: VertexId) {
    let mut digits = [0u8; VertexId::MAX.ilog10() as usize + 1];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

fn generate(kind: SynthKind, p: &SynthParams) -> Csr {
    match kind {
        SynthKind::PowerLaw => synth::power_law(p.n, p.alpha, p.min_degree, p.max_degree, p.seed),
        SynthKind::Rmat => synth::rmat(p.scale, p.edge_factor, 0.57, 0.19, 0.19, p.seed),
        SynthKind::BarabasiAlbert => synth::barabasi_albert(p.n, p.m, p.seed),
        SynthKind::WattsStrogatz => synth::watts_strogatz(p.n, p.degree, p.beta, p.seed),
        SynthKind::Ring => synth::regular_ring(p.n, p.degree),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{parse, WalkArgs};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fmwalk_cmd_tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn exec(line: &str) -> Result<String, CmdError> {
        let cmd = parse(line.split_whitespace().map(String::from)).expect("parse");
        let mut out = Vec::new();
        run(cmd, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn synth_stats_plan_walk_pipeline() {
        let bin = tmp("pipeline.bin");
        let paths = tmp("pipeline_paths.txt");
        let bins = bin.display().to_string();
        let pathss = paths.display().to_string();

        let msg = exec(&format!("synth power-law {bins} --n 2000 --max-degree 100")).unwrap();
        assert!(msg.contains("|V| = 2000"), "{msg}");

        let msg = exec(&format!("stats {bins}")).unwrap();
        assert!(msg.contains("vertices        2000"), "{msg}");
        assert!(msg.contains("degree buckets"), "{msg}");

        let msg = exec(&format!("plan {bins} --strategy dp")).unwrap();
        assert!(msg.contains("partitions"), "{msg}");

        let msg = exec(&format!(
            "walk {bins} --steps 4 --walkers 500 --output {pathss}"
        ))
        .unwrap();
        assert!(msg.contains("ns/step"), "{msg}");
        let dumped = std::fs::read_to_string(&paths).unwrap();
        assert_eq!(dumped.lines().count(), 500);
        assert_eq!(dumped.lines().next().unwrap().split(' ').count(), 5);

        std::fs::remove_file(bin).ok();
        std::fs::remove_file(paths).ok();
    }

    /// The path writer as it was: a `String` per vertex, joined per line.
    fn write_paths_by_join<W: Write>(w: &mut W, paths: &[Vec<VertexId>]) -> std::io::Result<()> {
        for walk in paths {
            let line: Vec<String> = walk.iter().map(|v| v.to_string()).collect();
            writeln!(w, "{}", line.join(" "))?;
        }
        Ok(())
    }

    /// The paths of `config`'s walk on `g`, run in process.
    fn config_paths(g: &Csr, config: WalkConfig) -> Vec<Vec<VertexId>> {
        let engine = FlashMob::new(g, config).unwrap();
        let (out, _) = engine
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .unwrap();
        out.paths()
    }

    /// The paths of a `walk` command line, run in process.
    fn walk_paths(g: &Csr, line: &str) -> Vec<Vec<VertexId>> {
        let Command::Walk(WalkArgs {
            config, walkers, ..
        }) = parse(line.split_whitespace().map(String::from)).expect("parse")
        else {
            panic!("not a walk: {line}");
        };
        let walkers = walker_count(walkers, g.vertex_count()).unwrap();
        config_paths(g, config.walkers(walkers))
    }

    #[test]
    fn path_file_bytes_match_the_join_model() {
        let bin = tmp("path_bytes.bin");
        let paths = tmp("path_bytes.txt");
        exec(&format!(
            "synth power-law {} --n 3000 --min-degree 2 --max-degree 150 --seed 7",
            bin.display()
        ))
        .unwrap();
        let g = load_graph(&bin).unwrap();
        // Fixed-length paths, and early-exit ones that stop short.
        for program in ["deepwalk", "early-exit"] {
            let line = format!(
                "walk {} --program {program} --steps 12 --walkers 2000 --seed 11 --output {}",
                bin.display(),
                paths.display()
            );
            exec(&line).unwrap();
            let mut model = Vec::new();
            write_paths_by_join(&mut model, &walk_paths(&g, &line)).unwrap();
            assert_eq!(std::str::from_utf8(&model).unwrap().lines().count(), 2000);
            assert!(
                std::fs::read(&paths).unwrap() == model,
                "{program}: file bytes moved"
            );
        }
        // Geometric stop: lines of every length up to 13 IDs.
        let config = WalkConfig {
            stop: flashmob::StopRule::Geometric {
                exit_prob: 0.25,
                max_steps: 12,
            },
            ..WalkConfig::deepwalk().walkers(2000).seed(11)
        };
        let geometric = config_paths(&g, config);
        assert!(geometric.iter().any(|p| p.len() == 1) && geometric.iter().any(|p| p.len() == 13));
        // Each digit count's edges, an empty line, the largest ID.
        let edges = vec![
            vec![],
            vec![0],
            vec![9, 10, 99, 100, 999_999_999, 1_000_000_000],
            vec![VertexId::MAX - 1],
        ];
        for paths in [geometric, edges] {
            let (mut bytes, mut model) = (Vec::new(), Vec::new());
            write_paths(&mut bytes, &paths).unwrap();
            write_paths_by_join(&mut model, &paths).unwrap();
            assert!(bytes == model);
        }
        std::fs::remove_file(bin).ok();
        std::fs::remove_file(paths).ok();
    }

    #[test]
    fn failed_output_writes_exit_2() {
        // Writes to /dev/full fail with ENOSPC; a short file fits in the
        // writer's buffer, so only its flush can report it.
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let bin = tmp("dev_full.bin");
        exec(&format!("synth ring {} --n 64 --degree 4", bin.display())).unwrap();
        for flag in ["--output", "--visits"] {
            let err = exec(&format!(
                "walk {} --walkers 10 --steps 3 {flag} /dev/full",
                bin.display()
            ))
            .unwrap_err();
            assert_eq!(err.1, ExitKind::Io, "{flag}: {}", err.0);
        }
        std::fs::remove_file(bin).ok();
    }

    #[test]
    fn audit_without_flags_passes_on_the_workspace() {
        // One mode: the flow lints always run, so every item-scoped
        // allow.toml entry finds its finding and none reports stale.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let msg = exec(&format!("audit --root {}", root.display())).unwrap();
        assert!(msg.contains("audit: call graph: "), "{msg}");
        assert!(msg.ends_with(" 0 finding(s)\n"), "{msg}");
    }

    #[test]
    fn convert_text_to_binary() {
        let txt = tmp("edges.txt");
        let bin = tmp("edges.bin");
        std::fs::write(&txt, "0 1\n1 2\n2 0\n").unwrap();
        let msg = exec(&format!(
            "convert {} {} --symmetric --dedup",
            txt.display(),
            bin.display()
        ))
        .unwrap();
        assert!(msg.contains("|E| = 6"), "{msg}");
        let g = load_graph(&bin).unwrap();
        assert_eq!(g.vertex_count(), 3);
        std::fs::remove_file(txt).ok();
        std::fs::remove_file(bin).ok();
    }

    #[test]
    fn walk_with_baseline_engine_and_visits() {
        let bin = tmp("baseline.bin");
        let visits = tmp("visits.txt");
        exec(&format!("synth ring {} --n 64 --degree 4", bin.display())).unwrap();
        let msg = exec(&format!(
            "walk {} --engine knightking --steps 3 --walkers 32 --visits {}",
            bin.display(),
            visits.display()
        ))
        .unwrap();
        assert!(msg.contains("96 walker-steps"), "{msg}");
        let dumped = std::fs::read_to_string(&visits).unwrap();
        assert_eq!(dumped.lines().count(), 64);
        std::fs::remove_file(bin).ok();
        std::fs::remove_file(visits).ok();
    }

    #[test]
    fn walk_stats_reports_pool() {
        let bin = tmp("stats_pool.bin");
        exec(&format!("synth ring {} --n 128 --degree 4", bin.display())).unwrap();
        let msg = exec(&format!(
            "walk {} --steps 4 --walkers 64 --threads 2 --stats",
            bin.display()
        ))
        .unwrap();
        assert!(msg.contains("stages (ns/step)"), "{msg}");
        assert!(msg.contains("pool: 2 threads spawned"), "{msg}");
        let msg = exec(&format!(
            "walk {} --engine knightking --steps 4 --walkers 64 --threads 2 --stats",
            bin.display()
        ))
        .unwrap();
        assert!(msg.contains("pool: 2 threads spawned"), "{msg}");
        std::fs::remove_file(bin).ok();
    }

    #[test]
    fn walk_trace_and_metrics_round_trip() {
        let bin = tmp("trace_walk.bin");
        let trace = tmp("trace_walk.json");
        let metrics = tmp("trace_walk.jsonl");
        exec(&format!("synth ring {} --n 128 --degree 4", bin.display())).unwrap();
        let msg = exec(&format!(
            "walk {} --steps 5 --walkers 64 --threads 2 --trace {} --metrics {}",
            bin.display(),
            trace.display(),
            metrics.display()
        ))
        .unwrap();
        assert!(msg.contains("trace written to"), "{msg}");
        assert!(msg.contains("metrics written to"), "{msg}");

        // The emitted trace passes the in-tree TEF checker via the
        // trace-check subcommand.
        let msg = exec(&format!("trace-check {}", trace.display())).unwrap();
        assert!(msg.contains("valid Chrome trace"), "{msg}");

        // Every metrics line parses as JSON, and the partition counters
        // sum exactly to the walked steps (5 steps x 64 walkers on a
        // sink-free ring).
        let dumped = std::fs::read_to_string(&metrics).unwrap();
        let mut partition_steps = 0u64;
        for line in dumped.lines() {
            let v = fm_telemetry::json::parse(line).expect("metrics line is JSON");
            if v.get("kind").and_then(fm_telemetry::json::Value::as_str) == Some("partition") {
                partition_steps +=
                    v.get("steps").and_then(fm_telemetry::json::Value::as_num).unwrap() as u64;
            }
        }
        assert_eq!(partition_steps, 320);

        std::fs::remove_file(bin).ok();
        std::fs::remove_file(trace).ok();
        std::fs::remove_file(metrics).ok();
    }

    #[test]
    fn trace_check_rejects_garbage() {
        let bad = tmp("bad_trace.json");
        std::fs::write(&bad, "{\"traceEvents\": [{\"ph\": \"X\"}]}").unwrap();
        let err = exec(&format!("trace-check {}", bad.display())).unwrap_err();
        assert!(err.0.contains("invalid trace"), "{}", err.0);
        let err = exec("trace-check /definitely/not/here.json").unwrap_err();
        assert!(err.0.contains("cannot read"), "{}", err.0);
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn walk_stats_is_nan_free_at_zero_steps() {
        // A 1-vertex self-loop ring is degenerate; force zero steps via
        // --steps 0 and make sure the summary stays finite.
        let bin = tmp("zero_steps.bin");
        exec(&format!("synth ring {} --n 32 --degree 2", bin.display())).unwrap();
        for engine in ["flashmob", "knightking", "graphvite"] {
            let msg = exec(&format!(
                "walk {} --steps 0 --walkers 16 --stats --engine {engine}",
                bin.display()
            ))
            .unwrap();
            assert!(msg.contains("walked 0 walker-steps"), "{engine}: {msg}");
            assert!(msg.contains("stage share"), "{engine}: {msg}");
            assert!(
                !msg.contains("NaN") && !msg.contains("inf"),
                "{engine}: {msg}"
            );
        }
        std::fs::remove_file(bin).ok();
    }

    #[test]
    fn help_prints_usage() {
        let msg = exec("help").unwrap();
        assert!(msg.contains("USAGE"));
    }

    #[test]
    fn missing_graph_is_a_clean_error() {
        let err = exec("stats /definitely/not/here.bin").unwrap_err();
        assert!(err.0.contains("cannot read"), "{}", err.0);
        assert_eq!(err.1, ExitKind::Io);
        assert_eq!(err.1.code(), 2);
    }

    #[test]
    fn exit_kind_codes_are_stable() {
        assert_eq!(ExitKind::Other.code(), 1);
        assert_eq!(ExitKind::Io.code(), 2);
        assert_eq!(ExitKind::CorruptSnapshot.code(), 3);
        assert_eq!(ExitKind::Plan.code(), 4);
    }

    #[test]
    fn plan_errors_exit_as_plan() {
        let bin = tmp("plan_err.bin");
        exec(&format!("synth ring {} --n 64 --degree 4", bin.display())).unwrap();
        // Weighted walk on an unweighted graph is a configuration error.
        let err = exec(&format!("walk {} --algo weighted --steps 2", bin.display())).unwrap_err();
        assert_eq!(err.1, ExitKind::Plan, "{}", err.0);
        // Checkpoint flag misuse is caught before any engine runs.
        let err = exec(&format!("walk {} --checkpoint-every 4", bin.display())).unwrap_err();
        assert!(err.0.contains("--checkpoint-dir"), "{}", err.0);
        assert_eq!(err.1, ExitKind::Plan);
        let err = exec(&format!(
            "walk {} --engine knightking --checkpoint-dir d",
            bin.display()
        ))
        .unwrap_err();
        // The engine refuses it, not the CLI: a baseline has no checkpoints.
        assert!(err.0.contains("writes no checkpoints"), "{}", err.0);
        assert_eq!(err.1, ExitKind::Plan);
        // In memory, faults reach only checkpoint writes and a halt
        // only follows one: without a checkpoint directory there is
        // nothing to fault or halt after.
        for flags in [
            "--fault-rate 0.15",
            "--halt-after 2",
            "--engine knightking --fault-rate 0.15",
            "--oocore-budget 4096",
        ] {
            let err = exec(&format!("walk {} {flags} --steps 2", bin.display())).unwrap_err();
            assert_eq!(err.1, ExitKind::Plan, "{flags}: {}", err.0);
        }
        // Flags the chosen engine never reads are refused, not ignored:
        // the baselines take no plan knobs, a disk graph no strategy.
        let fmdisk = tmp("plan_err.fmdisk");
        exec(&format!("disk {} {}", bin.display(), fmdisk.display())).unwrap();
        let (b, d) = (bin.display().to_string(), fmdisk.display().to_string());
        for (graph, flags, knob) in [
            (&b, "--engine knightking --ring-depth 4", "ring_depth"),
            (&b, "--engine graphvite --ring-depth 1", "ring_depth"),
            (&b, "--engine knightking --strategy ups", "strategy"),
            (&b, "--engine graphvite --strategy manual", "strategy"),
            (&d, "--strategy ups", "strategy"),
        ] {
            let err = exec(&format!("walk {graph} {flags}")).unwrap_err();
            assert_eq!(err.1, ExitKind::Plan, "{flags}: {}", err.0);
            assert!(err.0.contains(knob), "{flags}: {}", err.0);
        }
        // `dp` is the one strategy every engine runs: it stays accepted.
        for (graph, flags) in [
            (&b, "--engine knightking --strategy dp"),
            (&d, "--strategy dp"),
        ] {
            exec(&format!("walk {graph} {flags} --steps 2")).unwrap();
        }
        std::fs::remove_file(bin).ok();
        std::fs::remove_file(fmdisk).ok();
    }

    #[test]
    fn walkers_mult_overflow_is_a_plan_error() {
        let bin = tmp("overflow.bin");
        let fmdisk = tmp("overflow.fmdisk");
        exec(&format!("synth ring {} --n 64 --degree 4", bin.display())).unwrap();
        exec(&format!("disk {} {}", bin.display(), fmdisk.display())).unwrap();
        // Times 64 vertices, this multiple overflows a usize.
        let mult = usize::MAX / 32;
        for line in [
            format!("plan {} --walkers-mult {mult}", bin.display()),
            format!("walk {} --walkers-mult {mult} --steps 2", bin.display()),
            format!("walk {} --walkers-mult {mult} --steps 2", fmdisk.display()),
        ] {
            let err = exec(&line).unwrap_err();
            assert_eq!(err.1, ExitKind::Plan, "{line}: {}", err.0);
            assert!(err.0.contains("--walkers-mult"), "{line}: {}", err.0);
        }
        std::fs::remove_file(bin).ok();
        std::fs::remove_file(fmdisk).ok();
    }

    #[test]
    fn walk_programs_end_to_end() {
        let bin = tmp("programs.bin");
        let paths = tmp("programs_paths.txt");
        exec(&format!("synth ring {} --n 64 --degree 4", bin.display())).unwrap();

        // PPR: full-length paths (restarts never kill walkers).
        let msg = exec(&format!(
            "walk {} --program ppr --alpha 0.3 --steps 4 --walkers 32 --output {}",
            bin.display(),
            paths.display()
        ))
        .unwrap();
        assert!(msg.contains("128 walker-steps"), "{msg}");
        let dumped = std::fs::read_to_string(&paths).unwrap();
        assert_eq!(dumped.lines().count(), 32);
        assert!(dumped.lines().all(|l| l.split(' ').count() == 5));

        // Early-exit: walkers may die early, so paths can be shorter
        // but the run still completes.
        let msg = exec(&format!(
            "walk {} --program early-exit --steps 4 --walkers 32",
            bin.display()
        ))
        .unwrap();
        assert!(msg.contains("ns/step"), "{msg}");

        // Metapath with derived labels walks typed edges end to end.
        let msg = exec(&format!(
            "walk {} --program metapath --pattern 0,1 --labels 2 --steps 4 --walkers 32",
            bin.display()
        ))
        .unwrap();
        assert!(msg.contains("ns/step"), "{msg}");

        // Metapath on an unlabeled graph is a configuration error.
        let err = exec(&format!(
            "walk {} --program metapath --steps 2",
            bin.display()
        ))
        .unwrap_err();
        assert_eq!(err.1, ExitKind::Plan, "{}", err.0);

        // More edge types than a u8 can name is rejected up front.
        let err = exec(&format!(
            "walk {} --labels 257 --steps 2",
            bin.display()
        ))
        .unwrap_err();
        assert_eq!(err.1, ExitKind::Plan, "{}", err.0);
        assert!(err.0.contains("--labels"), "{}", err.0);

        // Programs are FlashMob-only; the baselines reject them.
        let err = exec(&format!(
            "walk {} --engine knightking --program ppr --steps 2",
            bin.display()
        ))
        .unwrap_err();
        assert_eq!(err.1, ExitKind::Plan, "{}", err.0);

        std::fs::remove_file(bin).ok();
        std::fs::remove_file(paths).ok();
    }

    #[test]
    fn program_checkpoint_resume_round_trip() {
        // Per-walker program state (the PPR origin) must survive the
        // checkpoint wire format: a resumed run reproduces the
        // uninterrupted paths bit for bit.
        let bin = tmp("prog_ckpt.bin");
        let dir = tmp("prog_ckpt_dir");
        let full = tmp("prog_ckpt_full.txt");
        let resumed = tmp("prog_ckpt_resumed.txt");
        std::fs::remove_dir_all(&dir).ok();
        exec(&format!("synth ring {} --n 64 --degree 4", bin.display())).unwrap();
        let flags = "--program ppr --alpha 0.2 --steps 6 --walkers 32 --seed 13";
        exec(&format!(
            "walk {} {flags} --output {} --checkpoint-dir {} --checkpoint-every 2",
            bin.display(),
            full.display(),
            dir.display()
        ))
        .unwrap();
        let msg = exec(&format!(
            "resume {} {} {flags} --output {}",
            bin.display(),
            dir.display(),
            resumed.display()
        ))
        .unwrap();
        assert!(msg.contains("resumed from"), "{msg}");
        let a = std::fs::read(&full).unwrap();
        let b = std::fs::read(&resumed).unwrap();
        assert!(!a.is_empty() && a == b);
        std::fs::remove_file(bin).ok();
        std::fs::remove_file(full).ok();
        std::fs::remove_file(resumed).ok();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn walk_checkpoint_resume_round_trip() {
        let bin = tmp("ckpt_walk.bin");
        let dir = tmp("ckpt_walk_dir");
        let full = tmp("ckpt_full.txt");
        let resumed = tmp("ckpt_resumed.txt");
        std::fs::remove_dir_all(&dir).ok();
        exec(&format!("synth ring {} --n 64 --degree 4", bin.display())).unwrap();
        let walk_flags = "--steps 6 --walkers 32 --seed 11";

        // Checkpointed run completes and leaves snapshots behind.
        let msg = exec(&format!(
            "walk {} {walk_flags} --output {} --checkpoint-dir {} --checkpoint-every 2",
            bin.display(),
            full.display(),
            dir.display()
        ))
        .unwrap();
        assert!(msg.contains("ns/step"), "{msg}");
        assert!(dir.join("MANIFEST").is_file());

        // Resuming from the final checkpoint reproduces the paths file
        // bit for bit (here the walk is already complete, so resume
        // executes zero iterations — the hardest edge case).
        let msg = exec(&format!(
            "resume {} {} {walk_flags} --output {}",
            bin.display(),
            dir.display(),
            resumed.display()
        ))
        .unwrap();
        assert!(msg.contains("resumed from"), "{msg}");
        let a = std::fs::read(&full).unwrap();
        let b = std::fs::read(&resumed).unwrap();
        assert!(!a.is_empty() && a == b);

        // The crash drill in memory: halt deliberately under injected
        // checkpoint-write faults (exit 0), then resume under the same
        // faults, checkpointing on, to the uninterrupted paths.
        let drill = tmp("ckpt_walk_drill");
        std::fs::remove_dir_all(&drill).ok();
        let faults = "--fault-rate 0.15 --fault-seed 7";
        let msg = exec(&format!(
            "walk {} {walk_flags} --checkpoint-dir {} --checkpoint-every 4 --halt-after 1 {faults} \
             --output {}",
            bin.display(),
            drill.display(),
            resumed.display()
        ))
        .unwrap();
        assert!(msg.contains("halted deliberately"), "{msg}");
        exec(&format!(
            "resume {} {d} {walk_flags} --checkpoint-dir {d} --checkpoint-every 4 {faults} \
             --output {}",
            bin.display(),
            resumed.display(),
            d = drill.display()
        ))
        .unwrap();
        assert_eq!(std::fs::read(&resumed).unwrap(), a);
        std::fs::remove_dir_all(&drill).ok();

        // A mismatched configuration is rejected as a plan error.
        let err = exec(&format!(
            "resume {} {} --steps 6 --walkers 32 --seed 999 --output {}",
            bin.display(),
            dir.display(),
            resumed.display()
        ))
        .unwrap_err();
        assert_eq!(err.1, ExitKind::Plan, "{}", err.0);

        // A flipped byte in the snapshot is detected and classified as
        // corruption (exit 3).
        // All generations stay on disk but the manifest references the
        // newest, so corrupt the highest-numbered snapshot file.
        let snap = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "fmck"))
            .max()
            .expect("snapshot file");
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();
        let err = exec(&format!(
            "resume {} {} {walk_flags} --output {}",
            bin.display(),
            dir.display(),
            resumed.display()
        ))
        .unwrap_err();
        assert_eq!(err.1, ExitKind::CorruptSnapshot, "{}", err.0);
        assert_eq!(err.1.code(), 3);

        // An empty checkpoint directory is an IO-class failure (exit 2).
        let empty = tmp("ckpt_empty_dir");
        std::fs::create_dir_all(&empty).unwrap();
        let err = exec(&format!(
            "resume {} {} {walk_flags}",
            bin.display(),
            empty.display()
        ))
        .unwrap_err();
        assert_eq!(err.1, ExitKind::Io, "{}", err.0);

        std::fs::remove_file(bin).ok();
        std::fs::remove_file(full).ok();
        std::fs::remove_file(resumed).ok();
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(empty).ok();
    }

    #[test]
    fn disk_walk_halt_resume_round_trip_under_faults() {
        let bin = tmp("ooc.bin");
        let fmdisk = tmp("ooc.fmdisk");
        let full = tmp("ooc_full.txt");
        let resumed = tmp("ooc_resumed.txt");
        let dir = tmp("ooc_ckpt");
        std::fs::remove_dir_all(&dir).ok();

        exec(&format!(
            "synth power-law {} --n 400 --max-degree 40",
            bin.display()
        ))
        .unwrap();
        let msg = exec(&format!("disk {} {}", bin.display(), fmdisk.display())).unwrap();
        assert!(msg.contains("FMDISK1"), "{msg}");

        // Second-order walk streamed off disk, with injected faults:
        // the bi-block scheduler and retry layer must keep the output
        // identical to a fault-free run.
        let walk_flags = "--algo node2vec --p 0.25 --q 4.0 --walkers 200 \
                          --steps 6 --seed 9 --oocore-budget 4096";
        let msg = exec(&format!(
            "walk {} {walk_flags} --stats --output {}",
            fmdisk.display(),
            full.display()
        ))
        .unwrap();
        assert!(msg.contains("block pairs scheduled"), "{msg}");
        let clean = std::fs::read_to_string(&full).unwrap();
        assert_eq!(clean.lines().count(), 200);

        let msg = exec(&format!(
            "walk {} {walk_flags} --fault-rate 0.15 --fault-seed 7 --stats --output {}",
            fmdisk.display(),
            full.display()
        ))
        .unwrap();
        assert!(!msg.contains("0 transient io retries"), "{msg}");
        assert_eq!(std::fs::read_to_string(&full).unwrap(), clean);

        // Deliberate halt after generation 2, then a faulty resume:
        // bit-exact against the uninterrupted output.
        // Paths recording is part of the config fingerprint, so the
        // halted run must also record them for the resume to match.
        let msg = exec(&format!(
            "walk {} {walk_flags} --checkpoint-dir {} --checkpoint-every 3 --halt-after 2 \
             --output {}",
            fmdisk.display(),
            dir.display(),
            resumed.display()
        ))
        .unwrap();
        assert!(msg.contains("halted deliberately"), "{msg}");
        let msg = exec(&format!(
            "resume {} {} {walk_flags} --fault-rate 0.15 --fault-seed 7 --output {}",
            fmdisk.display(),
            dir.display(),
            resumed.display()
        ))
        .unwrap();
        assert!(msg.contains("resumed from"), "{msg}");
        assert_eq!(std::fs::read_to_string(&resumed).unwrap(), clean);

        // A mismatched budget is a config mismatch (exit 4).
        let err = exec(&format!(
            "resume {} {} --algo node2vec --p 0.25 --q 4.0 --walkers 200 \
             --steps 6 --seed 9 --oocore-budget 8192 --output {}",
            fmdisk.display(),
            dir.display(),
            resumed.display()
        ))
        .unwrap_err();
        assert_eq!(err.1, ExitKind::Plan, "{}", err.0);

        // Persistent faults exhaust the retry budget: IO class (exit 2).
        let err = exec(&format!(
            "walk {} {walk_flags} --fault-rate 1.0",
            fmdisk.display()
        ))
        .unwrap_err();
        assert_eq!(err.1, ExitKind::Io, "{}", err.0);
        assert_eq!(err.1.code(), 2);

        // A truncated disk graph is corrupt input (exit 3), not a panic.
        let bytes = std::fs::read(&fmdisk).unwrap();
        std::fs::write(&fmdisk, &bytes[..bytes.len() - 7]).unwrap();
        let err = exec(&format!("walk {} {walk_flags}", fmdisk.display())).unwrap_err();
        assert_eq!(err.1, ExitKind::CorruptSnapshot, "{}", err.0);
        assert_eq!(err.1.code(), 3);

        std::fs::remove_file(bin).ok();
        std::fs::remove_file(fmdisk).ok();
        std::fs::remove_file(full).ok();
        std::fs::remove_file(resumed).ok();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn disk_walk_takes_ring_depth_and_refuses_orphan_checkpoint_cadence() {
        let bin = tmp("ooc_ring.bin");
        let fmdisk = tmp("ooc_ring.fmdisk");
        exec(&format!(
            "synth power-law {} --n 400 --max-degree 40",
            bin.display()
        ))
        .unwrap();
        exec(&format!("disk {} {}", bin.display(), fmdisk.display())).unwrap();
        let walk_flags = "--walkers 200 --steps 6 --seed 9 --oocore-budget 4096";

        // `--ring-depth` reaches the bi-block loop: hints at depth 16,
        // none at depth 1, and the same paths either way.
        for algo in ["node2vec --p 0.25 --q 4.0", "deepwalk"] {
            let walk = |depth: usize| {
                let paths = tmp(&format!("ooc_ring_{depth}.txt"));
                let msg = exec(&format!(
                    "walk {} --algo {algo} {walk_flags} --ring-depth {depth} --stats --output {}",
                    fmdisk.display(),
                    paths.display()
                ))
                .unwrap();
                let hints: u64 = msg
                    .lines()
                    .find_map(|l| l.strip_suffix(" ring prefetch hints"))
                    .and_then(|l| l.rsplit(' ').next())
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| panic!("no ring hint count in {msg}"));
                let bytes = std::fs::read(&paths).unwrap();
                std::fs::remove_file(paths).ok();
                (hints, bytes)
            };
            let (shallow, deep) = (walk(1), walk(16));
            assert_eq!(shallow.0, 0, "{algo} at depth 1");
            assert!(deep.0 > 0, "{algo} at depth 16 issued no ring hints");
            assert!(
                !shallow.1.is_empty() && shallow.1 == deep.1,
                "{algo} paths moved"
            );
        }

        // A checkpoint cadence with nowhere to write is refused, as in
        // memory (exit 4), instead of walking without checkpoints.
        let err = exec(&format!(
            "walk {} {walk_flags} --checkpoint-every 4",
            fmdisk.display()
        ))
        .unwrap_err();
        assert!(err.0.contains("--checkpoint-dir"), "{}", err.0);
        assert_eq!(err.1, ExitKind::Plan);

        std::fs::remove_file(bin).ok();
        std::fs::remove_file(fmdisk).ok();
    }
}
