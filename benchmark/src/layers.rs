//! The traced run: per-layer metrics, measured from outside.
//!
//! Each layer is a module of the repository; its numbers come from
//! timing calls into its public functions (a span around each, see
//! `spans`) and from the statistics those functions already return.
//! Every probe runs on the workload's own graph with the workload's own
//! algorithm, walker count and step count, whichever engine the workload
//! itself uses: the in-memory engine's rows of `ooc_n2v_yh` say what the
//! in-memory engine would do on that input, and the `flashmob.oocore.*`
//! rows of an in-memory workload say what walking its graph out of core
//! the way `ooc_n2v_yh` does would cost.
//!
//! End-to-end metrics are never taken from a traced run.

use std::borrow::Cow;
use std::hint::black_box;

use flashmob::oocore::{self, DiskGraph};
use flashmob::sample::{sample_partition, AddrMap, AlgoCtx, PsBuffers, TaskIo};
use flashmob::shuffle::{ShuffleAddrs, ShuffleScratch, Shuffler};
use flashmob::walker::{self, WalkerInit};
use flashmob::{
    FlashMob, Partition, Planner, RunStats, SamplePolicy, StopRule, WalkAlgorithm, WalkOutput,
};
use fm_baseline::{Baseline, BaselineConfig};
use fm_graph::bloom::EdgeBloom;
use fm_graph::relabel::sort_by_degree;
use fm_graph::{Csr, VertexId};
use fm_memsim::microbench;
use fm_memsim::{AccessKind, NullProbe};
use fm_rng::{Rng64, Xorshift64Star};
use fm_telemetry::{Stage, Telemetry};

use crate::check::{self, Tally};
use crate::estimator;
use crate::host::HostRecord;
use crate::inputs;
use crate::metrics::*;
use crate::protocol::{self, Calibrator, RunOpts, RunReport, TempFile};
use crate::spans::{self, Recorder, Tiling};
use crate::workloads::{self, Scale, Workload};

/// How far a tiling may be off, as a share of the tiled span.
const TILING_TOLERANCE: f64 = 0.02;

/// How many untraced warm episodes may be walked in search of one whose
/// stages tile it, before the episode tiling fails the run.
const TILING_EPISODES: usize = 20;

/// How far the replayed sort + bloom + plan may be from the clock the
/// build kept of the same stages (`Stage::Plan`), as a share of that
/// clock.  The two ran seconds apart on a shared host: single samples
/// of this length spread up to 10 % (IQR) there, the faster of two
/// replays is taken, and 25 % is what is left for a burst that hits
/// one side only.  A replay that is not the build's work -- a stage
/// missing, another sort, a plan for other walkers -- is further off.
const REPLAY_TOLERANCE: f64 = 0.25;

/// How many times build and replay are measured again before their
/// disagreement fails the run.
const REPLAY_RETRIES: usize = 4;

/// Sizes of the probes that do not follow from the workload.
struct ProbeSizes {
    /// Walkers handed to one `sample_partition` call.
    sample_walkers: usize,
    /// `(u, v)` pairs probed against the bloom filter and the CSR.
    edge_probes: usize,
    /// Working set of the host's pointer chase and stream, in bytes.
    host_bytes: usize,
    host_loads: usize,
}

fn probe_sizes(scale: Scale) -> ProbeSizes {
    match scale {
        Scale::Bench => ProbeSizes {
            sample_walkers: 1 << 20,
            edge_probes: 1 << 20,
            host_bytes: 128 << 20,
            host_loads: 4 << 20,
        },
        Scale::Test => ProbeSizes {
            sample_walkers: 1 << 14,
            edge_probes: 1 << 14,
            host_bytes: 4 << 20,
            host_loads: 1 << 18,
        },
    }
}

/// Sources of `count` edges drawn uniformly from the edge range of
/// vertices `[start, end)`: degree-proportional placement, as the
/// engine's walkers have.
fn edge_sources(graph: &Csr, start: usize, end: usize, count: usize, seed: u64) -> Vec<VertexId> {
    let offsets = graph.offsets();
    let (lo, hi) = (offsets[start], offsets[end]);
    let mut rng = Xorshift64Star::new(seed);
    (0..count)
        .map(|_| {
            let edge = lo + rng.gen_index(hi - lo);
            (offsets.partition_point(|&o| o <= edge) - 1) as VertexId
        })
        .collect()
}

pub fn run(w: &Workload, opts: &RunOpts, host: &HostRecord) -> RunReport {
    let mut tally = Tally::default();
    let mut rec = Recorder::new();
    let metrics = match measure(w, opts, host, &mut tally, &mut rec) {
        Ok(metrics) => metrics,
        Err(e) => {
            tally.record("traced run", Err(e));
            PER_LAYER.iter().map(|d| d.with(0.0)).collect()
        }
    };
    let out_dir = inputs::bench_dir().join("out");
    let stem = format!("trace-{}-{}-seed{}", w.name, opts.scale.tag(), opts.seed);
    match rec.write(&out_dir, &stem) {
        Ok(()) => println!(
            "{} spans written to {}/{stem}.jsonl and .trace.json",
            rec.spans().len(),
            out_dir.display()
        ),
        Err(e) => {
            tally.record("write spans", Err(e.to_string()));
        }
    }
    RunReport { tally, metrics }
}

/// `RunStats`' own clock of an episode, stage by stage.
fn stage_seconds(stats: &RunStats) -> [f64; 3] {
    [
        stats.stages.sample,
        stats.stages.shuffle,
        stats.stages.other,
    ]
    .map(|d| d.as_secs_f64())
}

/// One engine episode inside a span; returns output, statistics and the
/// seconds measured from outside.
fn episode_span(
    rec: &mut Recorder,
    name: &'static str,
    engine: &FlashMob,
    tel: Option<&mut Telemetry>,
) -> Result<(WalkOutput, RunStats, f64), String> {
    rec.next_pass();
    let (result, id) = rec.span(name, |_| match tel {
        Some(tel) => engine.run_traced(tel),
        None => engine.run_with_stats(),
    });
    let (output, stats) = result.map_err(|e| format!("{name}: {e}"))?;
    Ok((output, stats, rec.seconds(id)))
}

fn measure(
    w: &Workload,
    opts: &RunOpts,
    host: &HostRecord,
    tally: &mut Tally,
    rec: &mut Recorder,
) -> Result<Vec<Metric>, String> {
    let sizes = probe_sizes(opts.scale);
    let input = inputs::ensure(w, opts.scale, &opts.cache_dir)?;
    inputs::verify_file(&input, w.fingerprint(opts.scale))?;
    let input_bytes = std::fs::metadata(&input).map_err(|e| e.to_string())?.len();
    let mut out: Vec<Metric> = Vec::with_capacity(PER_LAYER.len());

    // Set-up, as the in-memory engine does it: load, then build.
    rec.next_pass();
    let ((graph, engine, load_id, build_id), setup_id) = rec.span("setup", |rec| {
        let (graph, load_id) = rec.span("graph.io.load", |_| protocol::load_input(w, &input));
        let (engine, build_id) = rec.span("flashmob.engine.build", |_| {
            graph
                .as_ref()
                .ok()
                .map(|g| FlashMob::new(g, protocol::walk_config(w, g.vertex_count(), opts.seed)))
        });
        (graph, engine, load_id, build_id)
    });
    let graph = graph.map_err(|e| format!("load: {e}"))?;
    let engine = engine
        .expect("built when the load succeeded")
        .map_err(|e| format!("build: {e}"))?;
    let config = engine.config().clone();
    let (walkers, steps) = (config.walkers, w.steps);
    let second_order = config.algorithm.is_second_order();
    let (load_s, build_s) = (rec.seconds(load_id), rec.seconds(build_id));
    out.push(IO_LOAD_S.with(load_s));
    out.push(IO_LOAD_MB_PER_S.with(input_bytes as f64 / 1e6 / load_s));

    // The build's own stages, replayed one by one on the same input,
    // twice: the faster replay of each stage is the stage's time.
    let model = Planner::analytic_model(&config.planner);
    let replay = |rec: &mut Recorder| {
        rec.next_pass();
        let ((sorted, _relabel), sort_id) = rec.span("graph.relabel.sort", |_| {
            let (mut sorted, relabel) = sort_by_degree(&graph);
            if second_order {
                sorted.sort_adjacency_lists();
            }
            (sorted, relabel)
        });
        // The connectivity probes need sorted adjacency lists, which a
        // first-order build does not make.
        let probe_graph = if second_order {
            None
        } else {
            let mut g = sorted.clone();
            g.sort_adjacency_lists();
            Some(g)
        };
        let (bloom, bloom_id) = rec.span("graph.bloom.build", |_| {
            EdgeBloom::from_graph(probe_graph.as_ref().unwrap_or(&sorted), 8)
        });
        let (plan, plan_id) = rec.span("flashmob.plan.plan", |_| {
            Planner::plan(&sorted, walkers, &config.planner, config.strategy, &model)
        });
        let times = [sort_id, bloom_id, plan_id].map(|id| rec.seconds(id));
        (sorted, probe_graph, bloom, plan, times)
    };
    let (.., first_times) = replay(rec);
    let (sorted, probe_graph, bloom, plan, times) = replay(rec);
    let probe_graph: Cow<'_, Csr> = probe_graph.map_or(Cow::Borrowed(&sorted), Cow::Owned);
    let plan = plan.map_err(|e| format!("plan: {e}"))?;
    let [sort_s, bloom_s, plan_s] = [0, 1, 2].map(|i| first_times[i].min(times[i]));
    tally.record(
        "replayed plan is the engine's",
        if plan.partitions == engine.plan().partitions {
            Ok(())
        } else {
            Err("the replay planned something else than the build did".into())
        },
    );
    out.push(RELABEL_SORT_S.with(sort_s));
    out.push(RELABEL_NS_PER_EDGE.with(sort_s * 1e9 / graph.edge_count() as f64));
    out.push(BLOOM_BUILD_S.with(bloom_s));

    // Connectivity probes: hub-weighted sources, uniform candidates.
    let n = probe_graph.vertex_count();
    let sources = edge_sources(&probe_graph, 0, n, sizes.edge_probes, opts.seed);
    let mut rng = Xorshift64Star::new(opts.seed.wrapping_add(0x5EED));
    let pairs: Vec<(VertexId, VertexId)> = sources
        .iter()
        .map(|&u| (u, rng.gen_index(n) as VertexId))
        .collect();
    let (maybe, probe_id) = rec.span("graph.bloom.probe", |_| {
        pairs
            .iter()
            .filter(|&&(u, v)| bloom.may_contain(u, v))
            .count()
    });
    let (edges, has_edge_id) = rec.span("graph.csr.has_edge", |_| {
        pairs
            .iter()
            .filter(|&&(u, v)| probe_graph.has_edge(u, v))
            .count()
    });
    black_box((maybe, edges));
    let non_edges = pairs.len() - edges;
    let rejected = pairs
        .iter()
        .filter(|&&(u, v)| !bloom.may_contain(u, v))
        .count();
    out.push(BLOOM_PROBE_NS.with(rec.seconds(probe_id) * 1e9 / pairs.len() as f64));
    out.push(BLOOM_REJECT_FRAC.with(rejected as f64 / non_edges.max(1) as f64));
    out.push(CSR_HAS_EDGE_NS.with(rec.seconds(has_edge_id) * 1e9 / pairs.len() as f64));
    drop(bloom);
    drop(probe_graph);
    drop(sorted);

    let ring_depths = plan.ring_depths(&model);
    out.push(PLAN_S.with(plan_s));
    out.push(PLAN_PARTITIONS.with(plan.partitions.len() as f64));
    out.push(PLAN_PS_EDGE_SHARE.with(plan.ps_edge_share()));
    out.push(PLAN_RING_PARTITIONS.with(ring_depths.iter().filter(|&&d| d > 1).count() as f64));
    out.push(ENGINE_BUILD_S.with(build_s));

    // Episodes: the cold one, then untraced and traced ones alternating.
    let (first, first_stats, cold_s) = episode_span(rec, "episode.cold", &engine, None)?;
    let expected = check::digest(&first);
    if tally.record(
        "output shape",
        check::shape(&first, first_stats.steps_taken, walkers, steps),
    ) {
        tally.record("hops are input edges", check::hops(&graph, &first, None));
    }
    if let Some(golden) = opts.golden.filter(|_| !w.out_of_core) {
        tally.record(
            "golden digest",
            check::same_digest(expected, golden, "pinned"),
        );
    }
    let mut warm: Option<(RunStats, f64)> = None;
    let mut traced_s = f64::MAX;
    // What the build's own clock gave its sort + bloom + plan (the Plan
    // span every traced episode carries).
    let mut in_build_s = 0.0;
    let mut last_output = first;
    // An untraced warm episode: its digest is checked, its tiling
    // judged, and the fastest one is kept for the stage rows.
    let episode_tolerance = TILING_TOLERANCE + w.episode_untimed_share;
    let mut tiling = Tiling::default();
    let warm_episode = |rec: &mut Recorder,
                        tally: &mut Tally,
                        tiling: &mut Tiling,
                        warm: &mut Option<(RunStats, f64)>|
     -> Result<(), String> {
        let (output, stats, secs) = episode_span(rec, "episode.warm", &engine, None)?;
        tally.record(
            "warm episode digest",
            check::same_digest(check::digest(&output), expected, "the first episode had"),
        );
        tiling.judge(secs, &stage_seconds(&stats), episode_tolerance);
        if warm.as_ref().is_none_or(|(_, best)| secs < *best) {
            *warm = Some((stats, secs));
        }
        Ok(())
    };
    for _ in 0..2 {
        warm_episode(rec, tally, &mut tiling, &mut warm)?;
        let mut tel = Telemetry::new();
        let (output, _, secs) = episode_span(rec, "episode.traced", &engine, Some(&mut tel))?;
        in_build_s = tel.stage(Stage::Plan).total_ns as f64 / 1e9;
        tally.record(
            "traced episode digest",
            check::same_digest(check::digest(&output), expected, "the first episode had"),
        );
        traced_s = traced_s.min(secs);
        last_output = output;
    }
    // What `RunStats`' clock leaves out (allocating and returning the
    // output) is page faults, which a neighbour's burst slows many times
    // over while the timed stages barely move: the gap only ever grows
    // with noise.  So a tiling that is off has to stay off: more
    // episodes are walked until one tiles, and only none in
    // `TILING_EPISODES` fails the run.
    while !tiling.holds() && tiling.judged < TILING_EPISODES {
        warm_episode(rec, tally, &mut tiling, &mut warm)?;
    }
    // Set-up: load and build tile the set-up span; inside the build, its
    // own clock of sort + bloom + plan and the rest (`build_other_s`,
    // which must not come out negative); and the replayed stages, which
    // say how that clock divides, must add up to it.
    let build_other_s = build_s - in_build_s;
    // A first-order build makes no bloom filter.
    let stage_sum =
        |[sort, bloom, plan]: [f64; 3]| sort + plan + if second_order { bloom } else { 0.0 };
    let replayed_s = stage_sum([sort_s, bloom_s, plan_s]);
    println!(
        "set-up: load {load_s:.4} s + build {build_s:.4} s (its sort/bloom/plan {in_build_s:.4} s, replayed {replayed_s:.4} s)"
    );
    tally.record(
        "set-up tiling",
        spans::tiles(
            rec.seconds(setup_id),
            &[load_s, in_build_s, build_other_s],
            TILING_TOLERANCE,
        ),
    );
    // A burst on the shared host can hit the build or the replay alone,
    // and it only ever slows what it hits.  So a disagreement has to
    // survive the fastest of several: build and replay are measured
    // again, back to back, up to `REPLAY_RETRIES` times, and the
    // fastest build clock is held against the fastest of each stage.
    let (mut clock_s, mut fastest) = (in_build_s, [sort_s, bloom_s, plan_s]);
    let mut agreement = spans::tiles(clock_s, &[replayed_s], REPLAY_TOLERANCE);
    for _ in 0..REPLAY_RETRIES {
        let Err(why) = &agreement else { break };
        println!("replay against the build's clock: {why}; measuring both again");
        let again =
            FlashMob::new(&graph, config.clone()).map_err(|e| format!("second build: {e}"))?;
        let mut tel = Telemetry::new();
        again
            .run_traced(&mut tel)
            .map_err(|e| format!("second build's episode: {e}"))?;
        clock_s = clock_s.min(tel.stage(Stage::Plan).total_ns as f64 / 1e9);
        let (.., times) = replay(rec);
        fastest = [0, 1, 2].map(|i| fastest[i].min(times[i]));
        agreement = spans::tiles(clock_s, &[stage_sum(fastest)], REPLAY_TOLERANCE);
    }
    tally.record("replayed stages add up to the build's own clock", agreement);
    out.push(ENGINE_BUILD_OTHER_S.with(build_other_s));
    let (stats, warm_s) = warm.expect("two warm episodes ran");
    let steps_taken = stats.steps_taken as f64;
    let [sample_s, shuffle_s, other_s] = stage_seconds(&stats);
    println!(
        "episode tiling: sample + shuffle + other leave {:.2} % of the episode outside (smallest of {} episodes, {:.1} % allowed)",
        100.0 * tiling.smallest_gap,
        tiling.judged,
        100.0 * episode_tolerance
    );
    tally.record("episode tiling", tiling.verdict());
    let warm_ns_per_step = warm_s * 1e9 / steps_taken;
    out.push(ENGINE_SAMPLE_NS.with(sample_s * 1e9 / steps_taken));
    out.push(ENGINE_SHUFFLE_NS.with(shuffle_s * 1e9 / steps_taken));
    out.push(ENGINE_OTHER_NS.with(other_s * 1e9 / steps_taken));
    out.push(ENGINE_COLD_OVER_WARM.with(cold_s / warm_s));
    let prefetches: u64 = stats.per_partition_prefetches.iter().sum();
    println!(
        "counts: steps {}, partitions {}, prefetches {prefetches}",
        stats.steps_taken,
        plan.partitions.len()
    );

    // Walker init, on the engine's own sorted graph.
    let sorted = engine.sorted_graph();
    let (positions, init_id) = rec.span("flashmob.walker.init", |_| {
        walker::initialize(sorted, &WalkerInit::UniformEdge, walkers, opts.seed)
    });
    out.push(WALKER_INIT_NS.with(rec.seconds(init_id) * 1e9 / walkers as f64));

    // Shuffle passes on the engine's own partition map; a second-order
    // walk carries the `prev` lane along.
    let shuffler = Shuffler::single_level(&engine.plan().map);
    let reps = (20_000_000 / walkers).clamp(3, 200);
    let aux = second_order.then(|| positions.clone());
    let mut shuffled = vec![0 as VertexId; walkers];
    let mut shuffled_aux = second_order.then(|| vec![0 as VertexId; walkers]);
    let mut gathered = vec![0 as VertexId; walkers];
    let mut gathered_aux = second_order.then(|| vec![0 as VertexId; walkers]);
    let mut scratch = ShuffleScratch::default();
    let (mut count_s, mut scatter_s, mut gather_s) = (0.0, 0.0, 0.0);
    rec.next_pass();
    for _ in 0..reps {
        let ((), id) = rec.span("flashmob.shuffle.count", |_| {
            shuffler.count(
                &positions,
                &mut scratch,
                ShuffleAddrs::default(),
                &mut NullProbe,
            )
        });
        count_s += rec.seconds(id);
        let ((), id) = rec.span("flashmob.shuffle.scatter", |_| {
            shuffler.scatter(
                &positions,
                aux.as_deref(),
                &mut shuffled,
                shuffled_aux.as_deref_mut(),
                &mut scratch,
                ShuffleAddrs::default(),
                &mut NullProbe,
            )
        });
        scatter_s += rec.seconds(id);
        let ((), id) = rec.span("flashmob.shuffle.gather", |_| {
            shuffler.gather(
                &positions,
                &shuffled,
                &mut gathered,
                shuffled_aux.as_deref(),
                gathered_aux.as_deref_mut(),
                &mut scratch,
                ShuffleAddrs::default(),
                &mut NullProbe,
            )
        });
        gather_s += rec.seconds(id);
    }
    black_box(&gathered);
    let per_walker = 1e9 / (reps * walkers) as f64;
    out.push(SHUFFLE_COUNT_NS.with(count_s * per_walker));
    out.push(SHUFFLE_SCATTER_NS.with(scatter_s * per_walker));
    out.push(SHUFFLE_GATHER_NS.with(gather_s * per_walker));
    drop((
        positions,
        aux,
        shuffled,
        shuffled_aux,
        gathered,
        gathered_aux,
    ));

    // One sample task per policy, first-order, on the plan's largest
    // partition of that policy.
    rec.next_pass();
    for (policy, def, name) in [
        (SamplePolicy::PreSample, SAMPLE_PS_NS, "flashmob.sample.ps"),
        (SamplePolicy::Direct, SAMPLE_DS_NS, "flashmob.sample.ds"),
    ] {
        let ns = sample_probe(
            rec,
            name,
            engine.plan().partitions.as_slice(),
            &ring_depths,
            policy,
            sorted,
            w,
            &sizes,
            opts.seed,
        );
        out.push(def.with(ns));
    }
    out.push(SAMPLE_RING_PREFETCHES.with(prefetches as f64 / steps_taken));

    // Host kernels: what the sample stage is chasing.
    rec.next_pass();
    let (chase, _) = rec.span("host.chase", |_| {
        microbench::measure(AccessKind::PointerChase, sizes.host_bytes, sizes.host_loads)
    });
    let (stream, _) = rec.span("host.stream", |_| {
        microbench::measure(
            AccessKind::Sequential,
            sizes.host_bytes,
            sizes.host_loads * 16,
        )
    });
    out.push(SAMPLE_OVER_DRAM.with(sample_s * 1e9 / steps_taken / chase.ns_per_load));

    // Output: per-walker paths from the step rows.
    rec.next_pass();
    let (paths, paths_id) = rec.span("flashmob.output.paths", |_| last_output.paths());
    tally.record("paths shape", check::paths_shape(&paths, walkers, steps));
    out.push(OUTPUT_PATHS_NS.with(rec.seconds(paths_id) * 1e9 / (walkers * steps) as f64));
    drop((paths, last_output));

    // Out of core: this graph written as FMDISK1 and walked the way
    // `ooc_n2v_yh` walks YH.
    let ooc = workloads::find("ooc_n2v_yh").expect("the out-of-core workload exists");
    let ooc_config = protocol::walk_config(ooc, graph.vertex_count(), opts.seed);
    let file = TempFile(opts.cache_dir.join(format!(
        "{}-traced-{}.fmdisk",
        w.name,
        std::process::id()
    )));
    rec.next_pass();
    let (created, create_id) = rec.span("flashmob.oocore.create", |_| {
        DiskGraph::create(&graph, &file.0)
    });
    let created = created.map_err(|e| format!("oocore create: {e}"))?;
    let (disk, open_id) = rec.span("flashmob.oocore.open", |_| DiskGraph::open(&file.0));
    let disk = disk.map_err(|e| format!("oocore open: {e}"))?;
    let file_bytes = std::fs::metadata(&file.0).map_err(|e| e.to_string())?.len();
    let budget = protocol::ooc_budget(file_bytes);
    let (walked, _) = rec.span("flashmob.oocore.episode", |_| {
        oocore::run_ooc(&disk, &ooc_config, budget)
    });
    let (ooc_out, ooc_stats) = walked.map_err(|e| format!("oocore episode: {e}"))?;
    tally.record(
        "out-of-core hops are input edges",
        check::hops(&graph, &ooc_out, Some(created.relabeling())),
    );
    if let Some(golden) = opts.golden.filter(|_| w.out_of_core) {
        tally.record(
            "golden digest",
            check::same_digest(check::digest(&ooc_out), golden, "pinned"),
        );
    }
    let ooc_steps = ooc_stats.steps_taken.max(1) as f64;
    println!(
        "counts: out-of-core steps {}, blocks {}, pairs {} scheduled {} skipped",
        ooc_stats.steps_taken,
        ooc_stats.blocks_streamed,
        ooc_stats.pairs_scheduled,
        ooc_stats.pairs_skipped
    );
    out.push(OOC_CREATE_MB_PER_S.with(file_bytes as f64 / 1e6 / rec.seconds(create_id)));
    out.push(OOC_OPEN_S.with(rec.seconds(open_id)));
    out.push(OOC_READ_FRAC.with(ooc_stats.read_time.as_secs_f64() / ooc_stats.wall.as_secs_f64()));
    out.push(OOC_BYTES_PER_STEP.with(ooc_stats.bytes_per_step()));
    out.push(OOC_BLOCKS_STREAMED.with(ooc_stats.blocks_streamed as f64));
    out.push(OOC_PAIRS_SCHEDULED.with(ooc_stats.pairs_scheduled as f64));
    out.push(OOC_PAIRS_SKIPPED.with(ooc_stats.pairs_skipped as f64));
    out.push(OOC_PARKED_PER_STEP.with(ooc_stats.walkers_parked as f64 / ooc_steps));
    out.push(OOC_PEAK_PARKED.with(ooc_stats.peak_parked as f64));
    out.push(OOC_IO_RETRIES.with(ooc_stats.io_retries as f64));
    drop((ooc_out, disk, created, file));

    // The informational two-thread pass: the only place the host guard
    // is waived, and no end-to-end metric comes from it.
    if let Err(e) = host.admits(2) {
        println!("note: {e}; the two-thread pass is informational only");
    }
    rec.next_pass();
    let (pool_engine, _) = rec.span("flashmob.pool.build", |_| {
        FlashMob::new(&graph, config.clone().threads(2))
    });
    let pool_engine = pool_engine.map_err(|e| format!("two-thread build: {e}"))?;
    let (_, pool_stats, pool_s) = episode_span(rec, "flashmob.pool.episode", &pool_engine, None)?;
    out.push(POOL_IDLE_FRAC.with(pool_stats.pool_idle_ratio()));
    out.push(POOL_EPOCHS.with(pool_stats.pool.epochs as f64));
    out.push(POOL_T2_SPEEDUP.with(warm_s / pool_s));
    drop(pool_engine);

    // The walker-at-a-time baseline on the same walk (Fig. 8's ratio).
    let algorithm = config.algorithm;
    rec.next_pass();
    let (baseline, _) = rec.span("baseline.knightking", |_| {
        Baseline::new(
            &graph,
            BaselineConfig::knightking_deepwalk()
                .algorithm(algorithm)
                .walkers(walkers)
                .steps(steps)
                .seed(opts.seed),
        )
        .and_then(|b| b.run_with_stats())
    });
    let (_, baseline_stats) = baseline.map_err(|e| format!("baseline: {e}"))?;
    out.push(KNIGHTKING_NS.with(baseline_stats.per_step_ns()));
    out.push(SPEEDUP_VS_KNIGHTKING.with(baseline_stats.per_step_ns() / warm_ns_per_step));

    out.push(TELEMETRY_OVERHEAD.with(traced_s / warm_s - 1.0));

    // The host factor the end-to-end runs divide by, and how steady it is.
    rec.next_pass();
    let calibrator = Calibrator::new(w, opts.scale, &input, graph)
        .map_err(|e| format!("calibration input: {e}"))?;
    let calibs: Vec<f64> = (0..5)
        .map(|_| rec.span("calibration", |_| calibrator.sample()).0)
        .collect();
    out.push(HOST_CHASE_NS.with(chase.ns_per_load));
    out.push(HOST_STREAM_GB_PER_S.with(8.0 / stream.ns_per_load));
    out.push(
        HOST_FACTOR.with(estimator::median(&calibs).unwrap_or(0.0) / w.calib_ref_s(opts.scale)),
    );
    out.push(HOST_FACTOR_IQR.with(estimator::iqr_over_median(&calibs).unwrap_or(0.0)));

    // Report in the declared order, whatever order the probes ran in.
    Ok(PER_LAYER
        .iter()
        .map(|d| {
            *out.iter()
                .find(|m| m.def == *d)
                .unwrap_or_else(|| panic!("{} was not measured", d.name))
        })
        .collect())
}

/// Times `sample_partition` (first-order) on the largest partition the
/// plan gave `policy`; when the plan gave it none, on the plan's largest
/// partition with the policy forced.  Returns ns per walker-step.
#[allow(clippy::too_many_arguments)]
fn sample_probe(
    rec: &mut Recorder,
    name: &'static str,
    partitions: &[Partition],
    ring_depths: &[usize],
    policy: SamplePolicy,
    sorted: &Csr,
    w: &Workload,
    sizes: &ProbeSizes,
    seed: u64,
) -> f64 {
    let largest = |of: &dyn Fn(&Partition) -> bool| {
        (0..partitions.len())
            .filter(|&i| of(&partitions[i]))
            .max_by_key(|&i| partitions[i].edges)
    };
    let pi = largest(&|p| p.policy == policy)
        .or_else(|| largest(&|_| true))
        .expect("a plan has partitions");
    let mut part = partitions[pi].clone();
    part.policy = policy;
    let slab = (policy == SamplePolicy::Direct)
        .then(|| part.slab(sorted))
        .flatten();
    let mut ps = (policy == SamplePolicy::PreSample).then(|| PsBuffers::new(sorted, &part));
    let scur = edge_sources(
        sorted,
        part.start as usize,
        part.end as usize,
        sizes.sample_walkers,
        seed,
    );
    let mut snext = vec![0 as VertexId; scur.len()];
    let ctx = AlgoCtx::new(WalkAlgorithm::DeepWalk, StopRule::FixedSteps(w.steps), None);
    let mut rng = Xorshift64Star::new(seed);
    let mut round = |rec: &mut Recorder, name: &'static str| {
        let (stats, id) = rec.span(name, |_| {
            sample_partition(
                sorted,
                &part,
                slab.as_ref(),
                ps.as_mut(),
                &ctx,
                TaskIo {
                    scur: &scur,
                    sprev: None,
                    snext: &mut snext,
                    slice_base: 0,
                    visits: None,
                },
                &mut rng,
                &mut NullProbe,
                &AddrMap::default(),
                ring_depths[pi],
            )
        });
        rec.seconds(id) * 1e9 / stats.steps.max(1) as f64
    };
    // The first round fills the pre-sample buffers and the caches.
    round(rec, "flashmob.sample.warmup");
    let rounds: Vec<f64> = (0..3).map(|_| round(rec, name)).collect();
    black_box(&snext);
    estimator::median(&rounds).expect("three rounds ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{DEFAULT_SEED, WORKLOADS};

    #[test]
    fn a_traced_run_reports_every_layer_metric_and_repeats_its_counts() {
        let w = &WORKLOADS[1];
        let cache_dir =
            inputs::default_cache_dir().join(format!("test-traced-{}", std::process::id()));
        inputs::generate(w, Scale::Test, &cache_dir).unwrap();
        let opts = RunOpts {
            scale: Scale::Test,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            cache_dir,
            golden: Some(w.golden(Scale::Test)),
        };
        let host = HostRecord::read();
        let first = run(w, &opts, &host);
        let second = run(w, &opts, &host);
        assert_eq!(first.tally.failed, 0, "a check or a tiling failed");
        let defs: Vec<_> = first.metrics.iter().map(|m| m.def).collect();
        assert_eq!(defs, PER_LAYER);
        // Counts are exact for a seed: they repeat bit for bit.
        for (a, b) in first.metrics.iter().zip(&second.metrics) {
            if a.def.unit == "count" {
                assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.def.name);
            }
        }
        std::fs::remove_dir_all(&opts.cache_dir).unwrap();
    }
}
