//! The walker-at-a-time baseline execution loop.

use std::sync::Arc;
use std::time::Instant;

use fm_graph::relabel::Relabeling;
use fm_graph::{Csr, VertexId};
use fm_memsim::{AccessKind, AddressSpace, NullProbe, Probe};
use fm_rng::{split_stream, Mt19937, Rng64};
use fm_telemetry::{SpanEvent, Stage, Telemetry, NO_STEP};

use flashmob::pool::{DisjointSlice, WorkerPool};

use flashmob::algorithm::Node2VecRule;
use flashmob::output::WalkOutput;
use flashmob::walker::initialize;
use flashmob::{PlanStrategy, RunOptions, RunStats, StopRule, WalkAlgorithm, WalkError, DEAD};

use crate::sampler::{BaselineAddrs, SamplerKind};
use crate::{BaselineConfig, BaselineKind};

/// A prepared baseline engine.
///
/// Unlike FlashMob, baselines keep the graph in its original vertex
/// order (no locality pre-processing) — we only *store* a relabeling so
/// walk output uses the same API.
#[derive(Debug)]
pub struct Baseline {
    graph: Csr,
    config: BaselineConfig,
    sampler: SamplerKind,
    addrs: BaselineAddrs,
    /// Identity mapping (baselines do not reorder vertices).
    relabel: Arc<Relabeling>,
}

impl Baseline {
    /// Prepares a baseline engine.
    pub fn new(graph: &Csr, config: BaselineConfig) -> Result<Self, WalkError> {
        if graph.vertex_count() == 0 {
            return Err(WalkError::EmptyGraph);
        }
        let walk = &config.walk;
        if walk.walkers == 0 {
            return Err(WalkError::NoWalkers);
        }
        for v in 0..graph.vertex_count() {
            if graph.degree(v as VertexId) == 0 {
                return Err(WalkError::SinkVertex(v as VertexId));
            }
        }
        if matches!(walk.algorithm, WalkAlgorithm::Weighted) && !graph.is_weighted() {
            return Err(WalkError::MissingWeights);
        }
        // The plan knobs are FlashMob's: refused rather than ignored.
        if walk.ring_depth.is_some() {
            return Err(WalkError::Planning(format!(
                "{} steps one walker at a time and has no walker ring; ring_depth must be unset",
                config.kind.label()
            )));
        }
        if walk.strategy != PlanStrategy::DynamicProgramming {
            return Err(WalkError::Planning(format!(
                "{} takes no partition plan; strategy {:?} is FlashMob's",
                config.kind.label(),
                walk.strategy
            )));
        }
        if walk.algorithm.is_stateful() || walk.algorithm.uses_edge_labels() {
            return Err(WalkError::Planning(format!(
                "the walker-at-a-time baselines do not implement the {} program",
                walk.algorithm.name()
            )));
        }
        let mut graph = graph.clone();
        if walk.algorithm.is_second_order() {
            if graph.is_weighted() {
                return Err(WalkError::Planning(
                    "node2vec on weighted graphs is not supported".into(),
                ));
            }
            graph.sort_adjacency_lists();
        }
        let sampler = match (config.kind, &walk.algorithm) {
            (BaselineKind::GraphVite, _) => SamplerKind::alias_for(&graph),
            (BaselineKind::KnightKing, WalkAlgorithm::Weighted) => {
                SamplerKind::cumulative_for(&graph)
            }
            (BaselineKind::KnightKing, _) => SamplerKind::Uniform,
        };
        let mut space = AddressSpace::new();
        let n = graph.vertex_count() as u64;
        let e = graph.edge_count() as u64;
        let addrs = BaselineAddrs {
            offsets: space.alloc((n + 1) * 8),
            targets: space.alloc(e * 4),
            alias_prob: space.alloc(e * 8),
            alias_idx: space.alloc(e * 4),
            cum_weights: space.alloc(e * 4),
        };
        let relabel = Arc::new(Relabeling::identity(graph.vertex_count()));
        Ok(Self {
            graph,
            config,
            sampler,
            addrs,
            relabel,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// [`Baseline::run_with`] under default options, untraced.  Kept
    /// for `benchmark/`, which calls it by name; nothing else may.
    pub fn run_with_stats(&self) -> Result<(WalkOutput, RunStats), WalkError> {
        self.run_with(&RunOptions::default(), &mut Telemetry::off())
    }

    /// Runs the walk, recording telemetry into `tel`: the engine's one
    /// run entry, called as [`flashmob::FlashMob::run_with`] is.  A
    /// baseline writes no checkpoints and reads no disk, so it refuses a
    /// set `checkpoint`, `resume_from` or `fault` with
    /// [`WalkError::Planning`] rather than ignore it.
    ///
    /// The record is FlashMob's: `walkers`, `steps_taken`, `wall` and
    /// `pool`, `init` (walker placement plus row set-up), the walk loop
    /// as `stages.sample` and the rest of the wall as `stages.other`
    /// (there is no shuffle), and the visit counts in `visits_sorted` —
    /// already original order under the identity relabeling.  The
    /// per-partition lanes stay empty: a baseline has no partitions.
    ///
    /// For the same reason the telemetry's partition axis maps to the
    /// *worker chunk* index: chunk `t`'s spans and step counters land on
    /// partition `t`, and the counter totals still sum exactly to
    /// [`RunStats::steps_taken`].  Recording does not touch the walk's
    /// RNG streams, so traced output is bit-identical.
    pub fn run_with(
        &self,
        opts: &RunOptions,
        tel: &mut Telemetry,
    ) -> Result<(WalkOutput, RunStats), WalkError> {
        if opts.checkpoint.is_some() || opts.resume_from.is_some() || opts.fault.is_some() {
            return Err(WalkError::Planning(format!(
                "{} writes no checkpoints and reads no disk; checkpoint, resume and fault must be unset",
                self.config.kind.label()
            )));
        }
        self.run_loop(&mut NullProbe, true, tel)
    }

    /// Runs the walk feeding every memory access into `probe`.
    ///
    /// Instrumented runs execute sequentially regardless of the
    /// configured thread count so counter attribution is exact and
    /// identical to the historical single-threaded baseline trace.
    pub fn run_probed<P: Probe>(&self, probe: &mut P) -> Result<(WalkOutput, RunStats), WalkError> {
        self.run_loop(probe, false, &mut Telemetry::off())
    }

    /// The one run path.  `allow_parallel` is off for instrumented runs
    /// only.
    fn run_loop<P: Probe>(
        &self,
        probe: &mut P,
        allow_parallel: bool,
        tel: &mut Telemetry,
    ) -> Result<(WalkOutput, RunStats), WalkError> {
        let start = Instant::now();
        let walk = &self.config.walk;
        let walkers = walk.walkers;
        let steps = walk.max_steps();

        let w0 = initialize(&self.graph, &walk.init, walkers, walk.seed);
        let mut rows: Vec<Vec<VertexId>> = if walk.record_paths {
            vec![vec![DEAD; walkers]; steps + 1]
        } else {
            vec![vec![DEAD; walkers]] // only final positions
        };
        let mut visits = walk
            .record_visits
            .then(|| vec![0u64; self.graph.vertex_count()]);
        let mut stats = RunStats {
            walkers,
            init: start.elapsed(),
            ..RunStats::default()
        };

        let threads = walk.threads.max(1).min(walkers.max(1));
        if allow_parallel && threads > 1 {
            // Walker-chunk loop over the persistent pool: contiguous
            // walker ranges, one per worker, each with its own RNG
            // stream — the real systems' per-thread-generator design, so
            // results are deterministic per `(seed, threads)` but not
            // across thread counts.
            let pool = WorkerPool::new(threads);
            let chunk = walkers.div_ceil(threads);
            let bounds: Vec<(usize, usize)> = (0..threads)
                .map(|t| ((t * chunk).min(walkers), ((t + 1) * chunk).min(walkers)))
                .collect();
            let row_ptrs: Vec<DisjointSlice<VertexId>> =
                rows.iter_mut().map(|r| DisjointSlice::new(r)).collect();
            let mut shards: Vec<Vec<u64>> = if visits.is_some() {
                (0..threads)
                    .map(|_| vec![0u64; self.graph.vertex_count()])
                    .collect()
            } else {
                Vec::new()
            };
            let record_visits = visits.is_some();
            let shard_ptr = DisjointSlice::new(&mut shards);
            // Per-worker telemetry lanes (spans) and step slots
            // (counters), both single-writer during the dispatch and
            // read back by the coordinator after it returns.
            let traced = tel.is_on();
            let origin = tel.origin();
            let mut chunk_steps = vec![0u64; threads];
            let chunk_ptr = DisjointSlice::new(&mut chunk_steps);
            let lanes = tel.worker_lanes(if traced { threads } else { 0 });
            let lanes_ptr = DisjointSlice::new(lanes);
            let sample_start = Instant::now();
            pool.run_labeled("baseline-sample", &|t| {
                let (lo, hi) = bounds[t];
                if lo >= hi {
                    return;
                }
                let span_start = traced.then(|| origin.elapsed().as_nanos() as u64);
                // SAFETY: every worker takes column range `[lo, hi)` of
                // each row, and the ranges are pairwise disjoint.
                let mut cols: Vec<&mut [VertexId]> = row_ptrs
                    .iter()
                    .map(|r| unsafe { r.slice_mut(lo, hi - lo) })
                    .collect();
                // SAFETY: visit shard `t` belongs to worker `t` alone.
                let shard = record_visits.then(|| unsafe { &mut shard_ptr.slice_mut(t, 1)[0] });
                let mut rng = Mt19937::new(split_stream(walk.seed, t as u64) as u32);
                let local = self.walk_chunk(
                    &w0[lo..hi],
                    &mut cols,
                    shard.map(Vec::as_mut_slice),
                    &mut rng,
                    &mut NullProbe,
                );
                if let Some(start_ns) = span_start {
                    let now = origin.elapsed().as_nanos() as u64;
                    // SAFETY: lane `t` belongs to this worker alone.
                    let lane = unsafe { lanes_ptr.slice_mut(t, 1) };
                    lane[0].record(SpanEvent {
                        stage: Stage::Sample,
                        start_ns,
                        dur_ns: now.saturating_sub(start_ns),
                        thread: t as u32 + 1,
                        step: NO_STEP,
                        partition: t as u32,
                    });
                }
                // SAFETY: step slot `t` belongs to this worker alone.
                unsafe { chunk_ptr.slice_mut(t, 1)[0] = local };
            });
            stats.stages.sample = sample_start.elapsed();
            tel.drain_workers();
            if traced {
                for (t, &steps) in chunk_steps.iter().enumerate() {
                    tel.record_partition_step(t, steps, false);
                }
            }
            stats.steps_taken = chunk_steps.iter().sum();
            if let Some(vis) = visits.as_deref_mut() {
                for shard in &shards {
                    for (a, b) in vis.iter_mut().zip(shard) {
                        *a += b;
                    }
                }
            }
            stats.pool = pool.stats();
        } else {
            // One generator for the whole (single-threaded) walk,
            // matching the real systems' per-thread RNG; constructing
            // MT19937's 2.5 KiB state per walker would dominate short
            // walks.
            let mut rng = Mt19937::new(walk.seed as u32);
            let mut cols: Vec<&mut [VertexId]> = rows.iter_mut().map(Vec::as_mut_slice).collect();
            let span_start = tel.is_on().then(|| tel.now_ns());
            let sample_start = Instant::now();
            stats.steps_taken =
                self.walk_chunk(&w0, &mut cols, visits.as_deref_mut(), &mut rng, probe);
            stats.stages.sample = sample_start.elapsed();
            if let Some(s) = span_start {
                tel.span_since(Stage::Sample, s, NO_STEP, 0);
                tel.record_partition_step(0, stats.steps_taken, false);
            }
        }

        stats.visits_sorted = visits;
        stats.wall = start.elapsed();
        stats.stages.other = stats.wall.saturating_sub(stats.stages.sample);
        let output = WalkOutput::new(rows, walkers, Arc::clone(&self.relabel));
        Ok((output, stats))
    }

    /// Walks one contiguous chunk of walkers to completion.
    ///
    /// `rows` holds this chunk's column slice of every recorded row.
    /// The defining baseline behavior: each walker runs to completion
    /// before the next starts (GraphVite: per-path; KnightKing: "moves a
    /// walker as much as possible" — identical on one node).
    fn walk_chunk<R: Rng64, P: Probe>(
        &self,
        w0: &[VertexId],
        rows: &mut [&mut [VertexId]],
        mut visits: Option<&mut [u64]>,
        rng: &mut R,
        probe: &mut P,
    ) -> u64 {
        let walk = &self.config.walk;
        let steps = walk.max_steps();
        let exit_prob = match walk.stop {
            StopRule::Geometric { exit_prob, .. } => exit_prob,
            StopRule::FixedSteps(_) => 0.0,
        };
        let rule = walk.algorithm.node2vec_rule();
        let mut steps_taken = 0u64;
        for (j, &start_v) in w0.iter().enumerate() {
            let mut v = start_v;
            let mut prev: Option<VertexId> = None;
            if walk.record_paths {
                rows[0][j] = v;
            }
            for i in 0..steps {
                if let Some(vis) = visits.as_deref_mut() {
                    vis[v as usize] += 1;
                }
                let next = self.step(v, prev, &rule, rng, probe);
                steps_taken += 1;
                probe.step();
                prev = Some(v);
                v = next;
                let died = exit_prob > 0.0 && rng.next_f64() < exit_prob;
                if walk.record_paths {
                    rows[i + 1][j] = if died { DEAD } else { v };
                }
                if died {
                    v = DEAD;
                    break;
                }
            }
            if !walk.record_paths {
                rows[0][j] = v;
            }
        }
        steps_taken
    }

    /// One walker-step: pick a slot via the configured sampler, read the
    /// target, applying the second-order bias by rejection when needed.
    fn step<R: Rng64, P: Probe>(
        &self,
        v: VertexId,
        prev: Option<VertexId>,
        rule: &Node2VecRule,
        rng: &mut R,
        probe: &mut P,
    ) -> VertexId {
        let off = self.graph.adjacency_start(v);
        match self.config.walk.algorithm {
            WalkAlgorithm::DeepWalk | WalkAlgorithm::Weighted => {
                let k = self.sampler.pick(&self.graph, v, rng, probe, &self.addrs);
                probe.touch(
                    self.addrs.targets + 4 * (off + k) as u64,
                    4,
                    AccessKind::Random,
                );
                self.graph.targets()[off + k]
            }
            WalkAlgorithm::Node2Vec { .. } => {
                let t = match prev {
                    Some(t) => t,
                    // First step has no history: uniform.
                    None => {
                        let k = self.sampler.pick(&self.graph, v, rng, probe, &self.addrs);
                        probe.touch(
                            self.addrs.targets + 4 * (off + k) as u64,
                            4,
                            AccessKind::Random,
                        );
                        return self.graph.targets()[off + k];
                    }
                };
                let mut attempts = 0;
                loop {
                    let k = self.sampler.pick(&self.graph, v, rng, probe, &self.addrs);
                    probe.touch(
                        self.addrs.targets + 4 * (off + k) as u64,
                        4,
                        AccessKind::Random,
                    );
                    let cand = self.graph.targets()[off + k];
                    attempts += 1;
                    let x = rng.next_f64() * rule.bound;
                    // The attempt cap accepts unchecked (termination
                    // backstop); otherwise the shared rule decides, and
                    // only a `Probe` verdict pays for the connectivity
                    // check.
                    let keep = attempts >= 64
                        || rule.keeps(x, cand == t, || {
                            probe.touch(self.addrs.offsets + 8 * t as u64, 8, AccessKind::Random);
                            probe.touch(
                                self.addrs.targets + 4 * self.graph.adjacency_start(t) as u64,
                                4,
                                AccessKind::Random,
                            );
                            self.graph.has_edge(t, cand)
                        });
                    if keep {
                        return cand;
                    }
                }
            }
            // Programs beyond the paper's three algorithms are rejected
            // at construction (`Baseline::new`).
            _ => unreachable!("baseline engines run the paper's algorithms only"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmob::WalkConfig;
    use fm_graph::synth;
    use std::time::Duration;

    fn walk(walkers: usize, steps: usize) -> WalkConfig {
        WalkConfig::deepwalk()
            .walkers(walkers)
            .steps(steps)
            .seed(11)
    }

    fn kk(walk: WalkConfig) -> BaselineConfig {
        BaselineConfig {
            kind: BaselineKind::KnightKing,
            walk,
        }
    }

    fn config(walkers: usize, steps: usize) -> BaselineConfig {
        kk(walk(walkers, steps))
    }

    /// The walk under default options, untraced.
    fn run_default(engine: &Baseline) -> Result<(WalkOutput, RunStats), WalkError> {
        engine.run_with(&RunOptions::default(), &mut Telemetry::off())
    }

    #[test]
    fn paths_follow_edges() {
        let g = synth::power_law(300, 2.0, 1, 30, 2);
        let engine = Baseline::new(&g, config(100, 6)).unwrap();
        let out = run_default(&engine).unwrap().0;
        for path in out.paths() {
            assert_eq!(path.len(), 7);
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
    }

    #[test]
    fn graphvite_paths_follow_edges() {
        let g = synth::power_law(300, 2.0, 1, 30, 2);
        let cfg = BaselineConfig {
            kind: BaselineKind::GraphVite,
            ..config(50, 5)
        };
        let engine = Baseline::new(&g, cfg).unwrap();
        for path in run_default(&engine).unwrap().0.paths() {
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = synth::power_law(200, 2.0, 1, 20, 3);
        let engine = Baseline::new(&g, config(50, 4)).unwrap();
        let paths = || run_default(&engine).unwrap().0.paths();
        assert_eq!(paths(), paths());
    }

    #[test]
    fn node2vec_runs() {
        let g = synth::power_law(200, 2.0, 2, 30, 7);
        let cfg = config(40, 5).algorithm(WalkAlgorithm::Node2Vec { p: 0.5, q: 2.0 });
        let engine = Baseline::new(&g, cfg).unwrap();
        for path in run_default(&engine).unwrap().0.paths() {
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
    }

    #[test]
    fn geometric_stop_truncates() {
        let g = synth::cycle(16);
        let mut cfg = config(1000, 50);
        cfg.walk.stop = StopRule::Geometric {
            exit_prob: 0.5,
            max_steps: 50,
        };
        let engine = Baseline::new(&g, cfg).unwrap();
        let (out, stats) = run_default(&engine).unwrap();
        assert!(stats.steps_taken < 1000 * 10);
        assert!(out.paths().iter().any(|p| p.len() < 5));
    }

    #[test]
    fn visits_are_departure_counts() {
        let g = synth::cycle(8);
        let engine = Baseline::new(&g, kk(walk(10, 3).record_visits(true))).unwrap();
        let (out, stats) = run_default(&engine).unwrap();
        let visits = stats.visits_sorted.unwrap();
        assert_eq!(visits.iter().sum::<u64>(), 30);
        assert_eq!(visits, out.visit_counts(8));
    }

    #[test]
    fn parallel_walk_is_deterministic_and_valid() {
        let g = synth::power_law(300, 2.0, 1, 30, 2);
        let engine = Baseline::new(&g, kk(walk(100, 6).threads(4))).unwrap();
        let (out1, s1) = run_default(&engine).unwrap();
        let (out2, _) = run_default(&engine).unwrap();
        assert_eq!(out1.paths(), out2.paths(), "same (seed, threads) repeats");
        assert_eq!(s1.pool.spawned, 4, "one spawn per configured thread");
        assert_eq!(s1.pool.epochs, 1, "the whole walk is one dispatch");
        for path in out1.paths() {
            for hop in path.windows(2) {
                assert!(g.neighbors(hop[0]).contains(&hop[1]));
            }
        }
    }

    #[test]
    fn plan_knobs_are_refused() {
        use flashmob::{CheckpointSpec, FaultPolicy, PlanStrategy};
        let g = synth::cycle(8);
        for kind in [BaselineKind::KnightKing, BaselineKind::GraphVite] {
            for walk in [
                walk(4, 2).ring_depth(4),
                walk(4, 2).strategy(PlanStrategy::UniformPs),
                walk(4, 2).strategy(PlanStrategy::ManualHeuristic),
            ] {
                let err = Baseline::new(&g, BaselineConfig { kind, walk }).err();
                assert!(matches!(err, Some(WalkError::Planning(_))), "{kind:?}");
            }
            let dp = walk(4, 2).strategy(PlanStrategy::DynamicProgramming);
            let engine = Baseline::new(&g, BaselineConfig { kind, walk: dp }).unwrap();
            // So are run options: a baseline writes no checkpoints and
            // reads no disk.
            let dir =
                std::env::temp_dir().join(format!("fm_baseline_refused_{}", std::process::id()));
            for opts in [
                RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 2)),
                RunOptions::default().resume_from(&dir),
                RunOptions::default().fault(FaultPolicy::transient(1, 0.5)),
            ] {
                let err = engine.run_with(&opts, &mut Telemetry::off()).err();
                assert!(
                    matches!(err, Some(WalkError::Planning(_))),
                    "{kind:?} {opts:?}"
                );
            }
            assert!(!dir.exists(), "a refused run writes nothing");
            assert!(run_default(&engine).is_ok());
        }
    }

    #[test]
    fn parallel_visits_merge_correctly() {
        let g = synth::cycle(8);
        let engine = Baseline::new(&g, kk(walk(10, 3).record_visits(true).threads(3))).unwrap();
        let (out, stats) = run_default(&engine).unwrap();
        let visits = stats.visits_sorted.unwrap();
        assert_eq!(visits.iter().sum::<u64>(), 30);
        assert_eq!(visits, out.visit_counts(8));
    }

    #[test]
    fn probed_runs_stay_sequential() {
        use fm_memsim::{HierarchyConfig, MemorySystem};
        let g = synth::power_law(500, 2.0, 1, 30, 4);
        let par = Baseline::new(&g, kk(walk(100, 5).record_paths(false).threads(4))).unwrap();
        let seq = Baseline::new(&g, kk(walk(100, 5).record_paths(false))).unwrap();
        let mut pp = MemorySystem::new(HierarchyConfig::skylake_server());
        let mut sp = MemorySystem::new(HierarchyConfig::skylake_server());
        let (po, ps) = par.run_probed(&mut pp).unwrap();
        let (so, ss) = seq.run_probed(&mut sp).unwrap();
        assert_eq!(po.paths(), so.paths(), "probed runs ignore thread count");
        assert_eq!(pp.stats().accesses, sp.stats().accesses);
        assert_eq!(ps.pool.spawned, 0, "no pool in instrumented runs");
        assert_eq!(ss.steps_taken, ps.steps_taken);
    }

    #[test]
    fn traced_run_is_bit_identical_and_counts_exactly() {
        let g = synth::power_law(300, 2.0, 1, 30, 2);
        for threads in [1, 4] {
            let engine = Baseline::new(&g, kk(walk(100, 6).threads(threads))).unwrap();
            let (plain, ps) = run_default(&engine).unwrap();
            let mut tel = fm_telemetry::Telemetry::new();
            let (traced, ts) = engine.run_with(&RunOptions::default(), &mut tel).unwrap();
            assert_eq!(
                plain.paths(),
                traced.paths(),
                "tracing must not perturb RNG"
            );
            assert_eq!(ps.steps_taken, ts.steps_taken);
            assert_eq!(
                tel.partition_steps_total(),
                ts.steps_taken,
                "chunk counters sum to steps_taken at {threads} threads"
            );
            let sample_spans = tel
                .events()
                .iter()
                .filter(|e| e.stage == Stage::Sample)
                .count();
            assert!(sample_spans >= 1, "at least one Sample span per run");
            if threads > 1 {
                // Worker spans carry the chunk index as partition.
                assert!(tel
                    .events()
                    .iter()
                    .any(|e| e.thread > 0 && e.partition < threads as u32));
            }
        }
    }

    #[test]
    fn stats_tile_the_wall_and_summarise() {
        let g = synth::power_law(300, 2.0, 1, 30, 2);
        for threads in [1, 3] {
            let engine = Baseline::new(&g, kk(walk(200, 8).threads(threads))).unwrap();
            let (_, stats) = run_default(&engine).unwrap();
            let stages = stats.stages;
            assert_eq!(stats.walkers, 200);
            assert_eq!(stats.steps_taken, 200 * 8);
            assert_eq!(stages.shuffle, Duration::ZERO, "a baseline has no shuffle");
            assert_eq!(stages.sample + stages.shuffle + stages.other, stats.wall);
            assert!(stats.init <= stages.other, "{stats:?}");
            assert!(stats.per_partition_steps.is_empty());
            let text = stats.human_summary();
            assert!(text.contains("per-step"), "{text}");
            assert_eq!(text.contains("idle ratio"), threads > 1, "{text}");
        }
    }

    #[test]
    fn zero_step_stats_are_nan_free() {
        let g = synth::cycle(8);
        let engine = Baseline::new(&g, config(10, 0)).unwrap();
        let (_, stats) = run_default(&engine).unwrap();
        assert_eq!(stats.steps_taken, 0);
        assert_eq!(stats.per_step_ns(), 0.0);
        assert_eq!(stats.pool_idle_ratio(), 0.0);
        let text = stats.human_summary();
        assert!(!text.contains("NaN") && !text.contains("inf"));
    }

    #[test]
    fn rejects_bad_inputs() {
        let empty = Csr::from_edges(0, &[]).unwrap();
        assert!(matches!(
            Baseline::new(&empty, config(1, 1)),
            Err(WalkError::EmptyGraph)
        ));
        let sink = Csr::from_edges(2, &[(0, 1)]).unwrap();
        assert!(matches!(
            Baseline::new(&sink, config(1, 1)),
            Err(WalkError::SinkVertex(1))
        ));
    }

    #[test]
    fn stationary_distribution_matches_flashmob() {
        // Both engines walk the same undirected graph; visit frequencies
        // must converge to the same degree-proportional stationary
        // distribution.
        let g = synth::power_law(200, 2.0, 1, 20, 9);
        let walkers = 2000;
        let steps = 20;

        let b = Baseline::new(&g, kk(walk(walkers, steps).record_visits(true))).unwrap();
        let (_, bs) = run_default(&b).unwrap();
        let bv = bs.visits_sorted.unwrap();

        let f = flashmob::FlashMob::new(
            &g,
            flashmob::WalkConfig::deepwalk()
                .walkers(walkers)
                .steps(steps)
                .seed(11)
                .record_visits(true),
        )
        .unwrap();
        let (_, fs) = f
            .run_with(&RunOptions::default(), &mut Telemetry::off())
            .unwrap();
        let fv = fs.visits_original(f.relabeling()).unwrap();

        let total_b: u64 = bv.iter().sum();
        let total_f: u64 = fv.iter().sum();
        // Compare the top-20 hubs' visit shares.
        let mut hubs: Vec<usize> = (0..g.vertex_count()).collect();
        hubs.sort_by_key(|&v| std::cmp::Reverse(g.degree(v as u32)));
        for &v in hubs.iter().take(20) {
            let pb = bv[v] as f64 / total_b as f64;
            let pf = fv[v] as f64 / total_f as f64;
            assert!(
                (pb - pf).abs() < 0.02 + pb * 0.35,
                "vertex {v}: baseline {pb:.4} vs flashmob {pf:.4}"
            );
        }
    }

    #[test]
    fn probe_shows_pointer_chase_offsets() {
        use fm_memsim::{HierarchyConfig, MemorySystem};
        let g = synth::power_law(2000, 2.0, 1, 50, 4);
        let engine = Baseline::new(&g, kk(walk(200, 10).record_paths(false))).unwrap();
        let mut probe = MemorySystem::new(HierarchyConfig::skylake_server());
        let (_, stats) = engine.run_probed(&mut probe).unwrap();
        assert_eq!(probe.stats().steps, stats.steps_taken);
        // Two touches per uniform step: offsets (chase) + target (random).
        assert_eq!(probe.stats().accesses, 2 * stats.steps_taken);
    }
}
