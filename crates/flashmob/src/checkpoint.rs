//! The one checkpoint protocol of both engines (DESIGN §8).
//!
//! An engine counts its progress in units it can resume at — iterations
//! in memory, pair slots out of core; the snapshot's `iter_next` — and
//! reports each unit to a [`Checkpointer`] with a closure that takes the
//! snapshot, borrowing the run's arrays.  The checkpointer owns the
//! rest: generation numbering (`progress / every`, so a resumed run
//! continues the numbering), the completion generation, the encode into
//! its one reused buffer, the background write, the halt, and the retry
//! count; [`resume`] owns the load and the header gate.

use std::thread::JoinHandle;

use fm_recover::{
    le_bytes, load_latest, CheckpointSink, CheckpointSpec, Fingerprint, RecoverError, RunHeader,
    WalkSnapshot,
};
use fm_telemetry::{Stage, Telemetry, NO_PARTITION, NO_STEP};

use crate::engine::RunOptions;
use crate::WalkError;

/// The graph tag of both engines: a fingerprint of the graph's shape,
/// not its weights — `vertices`, `edges` and the CSR `offsets`, which
/// pin the degree sequence (and so the relabeling).
pub(crate) fn graph_tag(vertices: usize, edges: usize, offsets: &[usize]) -> u64 {
    Fingerprint::new()
        .fold_u64(vertices as u64)
        .fold_u64(edges as u64)
        .fold_bytes(&le_bytes(offsets))
        .value()
}

/// The header of a run under `opts`.  The tags, which may cost a pass
/// over the graph, are taken only if the run writes or reads a snapshot.
pub(crate) fn run_header(
    opts: &RunOptions,
    seed: u64,
    walkers: usize,
    steps_total: usize,
    tags: impl FnOnce() -> (u64, u64),
) -> RunHeader {
    let snapshots = opts.checkpoint.is_some() || opts.resume_from.is_some();
    let (config_tag, graph_tag) = if snapshots { tags() } else { (0, 0) };
    RunHeader {
        seed,
        walkers: walkers as u64,
        steps_total: steps_total as u64,
        config_tag,
        graph_tag,
    }
}

/// The snapshot to resume from, when `opts` names a directory: its
/// latest generation, loaded under a Recovery span and gated by `header`.
pub(crate) fn resume(
    opts: &RunOptions,
    header: &RunHeader,
    tel: &mut Telemetry,
) -> Result<Option<WalkSnapshot<'static>>, WalkError> {
    let Some(dir) = &opts.resume_from else {
        return Ok(None);
    };
    let span = tel.is_on().then(|| tel.now_ns());
    let (_generation, snap) = load_latest(dir)?;
    header.gate(&snap.header)?;
    if let Some(s) = span {
        tel.span_since(Stage::Recovery, s, NO_STEP, NO_PARTITION);
    }
    Ok(Some(snap))
}

/// A checkpointing run's writer: the cadence, and the sink with the
/// encode buffer, at rest or owned by the background write of the
/// previous generation.
pub(crate) struct Checkpointer<'a> {
    spec: &'a CheckpointSpec,
    sink: Sink,
}

/// The sink and the buffer between generations, or the write in flight
/// that owns both and hands them back with its result.
enum Sink {
    Idle(CheckpointSink, Vec<u8>),
    Writing(JoinHandle<(CheckpointSink, Vec<u8>, Result<(), RecoverError>)>),
}

impl Sink {
    /// The sink and the buffer, once the write in flight has finished;
    /// surfaces its deferred error.
    fn reclaim(self) -> Result<(CheckpointSink, Vec<u8>), RecoverError> {
        match self {
            Sink::Idle(sink, bytes) => Ok((sink, bytes)),
            Sink::Writing(handle) => {
                let (sink, bytes, result) = handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                result.map(|()| (sink, bytes))
            }
        }
    }
}

impl<'a> Checkpointer<'a> {
    /// The writer of `opts`' checkpoints, faults included; `None` when
    /// the run writes none.
    pub(crate) fn new(opts: &'a RunOptions) -> Option<Self> {
        let spec = opts.checkpoint.as_ref().filter(|ck| ck.every > 0)?;
        Some(Self {
            spec,
            sink: Sink::Idle(CheckpointSink::new(&spec.dir, opts.fault), Vec::new()),
        })
    }

    /// After each unit of progress: writes generation `progress / every`
    /// when the cadence lands on `progress`.  `step` labels the span.
    pub(crate) fn tick<'s>(
        self,
        progress: u64,
        step: u32,
        tel: &mut Telemetry,
        snapshot: impl FnOnce() -> WalkSnapshot<'s>,
    ) -> Result<Self, WalkError> {
        let every = self.spec.every as u64;
        if !progress.is_multiple_of(every) {
            return Ok(self);
        }
        self.write(progress / every, step, tel, snapshot)
    }

    /// Once the walk is over: unless the cadence landed on `progress`,
    /// writes the generation after the last, which holds the finished
    /// walk.  Returns the transient retries the writes absorbed.
    pub(crate) fn finish<'s>(
        self,
        progress: u64,
        step: u32,
        tel: &mut Telemetry,
        snapshot: impl FnOnce() -> WalkSnapshot<'s>,
    ) -> Result<u64, WalkError> {
        let every = self.spec.every as u64;
        let last = if progress.is_multiple_of(every) {
            self
        } else {
            self.write(progress / every + 1, step, tel, snapshot)?
        };
        Ok(last.sink.reclaim()?.0.retries)
    }

    /// Publishes `snapshot()` as `generation` under a Checkpoint span,
    /// once the previous write is done: the walk thread encodes it into
    /// the buffer the previous write handed back, its one copy of the
    /// run's arrays, and a background thread fingerprints, writes and
    /// fsyncs those bytes, overlapped with the progress up to the next
    /// generation — except for the generation the run halts at, which
    /// is durable before `Halted` returns.
    fn write<'s>(
        self,
        generation: u64,
        step: u32,
        tel: &mut Telemetry,
        snapshot: impl FnOnce() -> WalkSnapshot<'s>,
    ) -> Result<Self, WalkError> {
        let span = tel.is_on().then(|| tel.now_ns());
        let (mut sink, mut bytes) = self.sink.reclaim()?;
        snapshot().encode_into(&mut bytes);
        let halt = self.spec.halt_after == Some(generation);
        let sink = if halt {
            sink.save(generation, &bytes)?;
            Sink::Idle(sink, bytes)
        } else {
            Sink::Writing(std::thread::spawn(move || {
                let result = sink.save(generation, &bytes);
                (sink, bytes, result)
            }))
        };
        if let Some(s) = span {
            tel.span_since(Stage::Checkpoint, s, step, NO_PARTITION);
        }
        if halt {
            return Err(WalkError::Halted { generation });
        }
        Ok(Self { sink, ..self })
    }
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use super::*;
    use crate::oocore::{run_ooc_with, DiskGraph};
    use crate::{FlashMob, WalkConfig};
    use fm_graph::synth;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fm_checkpoint_{}_{name}", std::process::id()))
    }

    /// A run of one engine under the given options.
    type Run<'r> = Box<dyn Fn(&RunOptions) -> Result<(), WalkError> + 'r>;
    /// One header field of a snapshot, changed.
    type Perturb = fn(&mut RunHeader);

    /// A checkpoint changes nothing a run computes: checkpointed at every
    /// unit of progress, a run leaves the paths, visits, step counts and
    /// pre-sample counts of the same run without checkpoints, in memory
    /// at one and two threads, with reserved generations put in produced
    /// form at each generation, and out of core.
    #[test]
    fn checkpoints_do_not_change_the_walk() {
        let g = synth::power_law(2000, 2.0, 2, 64, 11);
        let every_unit = |name: &str| {
            let dir = temp(name);
            std::fs::remove_dir_all(&dir).ok();
            (RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 1)), dir)
        };
        for cfg in [WalkConfig::deepwalk(), WalkConfig::node2vec(2.0, 0.5)] {
            for threads in [1, 2] {
                let cfg = cfg.clone().walkers(64).steps(12).seed(5).threads(threads);
                let engine = FlashMob::new(&g, cfg.record_visits(true)).unwrap();
                let what = format!("{} at {threads} threads", engine.config().algorithm.name());
                let run = |opts: &RunOptions| engine.run_with(opts, &mut Telemetry::off()).unwrap();
                let (plain, want) = run(&RunOptions::default());
                let (opts, dir) = every_unit(&format!("same_walk_{threads}"));
                let (out, got) = run(&opts);
                std::fs::remove_dir_all(&dir).ok();
                assert!(got.pre_sample_totals().1 > 0, "{what}: nothing reserved");
                assert_eq!(out.raw_steps(), plain.raw_steps(), "{what}");
                assert_eq!(got.visits_sorted, want.visits_sorted, "{what}");
                assert_eq!(got.steps_taken, want.steps_taken, "{what}");
                assert_eq!(got.per_partition_steps, want.per_partition_steps, "{what}");
                assert_eq!(got.per_partition_ps_produced, want.per_partition_ps_produced);
                assert_eq!(got.per_partition_ps_reserved, want.per_partition_ps_reserved);
                assert_eq!(got.per_partition_ps_consumed, want.per_partition_ps_consumed);
            }
        }
        let disk_path = temp("same_walk.fmdisk");
        let disk = DiskGraph::create(&g, &disk_path).unwrap();
        let cfg = WalkConfig::node2vec(2.0, 0.5).walkers(200).steps(8).seed(5);
        let run = |opts: &RunOptions| {
            run_ooc_with(&disk, &cfg, disk.edge_count(), opts, &mut Telemetry::off()).unwrap()
        };
        let (plain, want) = run(&RunOptions::default());
        let (opts, dir) = every_unit("same_walk_ooc");
        let (out, got) = run(&opts);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_file(&disk_path).ok();
        assert_eq!(out.raw_steps(), plain.raw_steps());
        assert_eq!(got.steps_taken, want.steps_taken);
    }

    #[test]
    fn one_gate_refuses_each_header_field_from_both_engines() {
        let g = synth::power_law(300, 2.0, 2, 30, 5);
        let cfg = WalkConfig::node2vec(0.5, 2.0).walkers(80).steps(6).seed(3);
        let engine = FlashMob::new(&g, cfg.clone()).unwrap();
        let disk_path = temp("gate.fmdisk");
        let disk = DiskGraph::create(&g, &disk_path).unwrap();
        let in_memory: Run =
            Box::new(|opts| engine.run_with(opts, &mut Telemetry::off()).map(drop));
        let out_of_core: Run = Box::new(|opts| {
            run_ooc_with(&disk, &cfg, 4 << 10, opts, &mut Telemetry::off()).map(drop)
        });
        let refused = |run: &Run, dir: &Path| {
            matches!(
                run(&RunOptions::default().resume_from(dir)),
                Err(WalkError::Recover(RecoverError::Mismatch { .. }))
            )
        };
        let perturbations: [(&str, Perturb); 5] = [
            ("seed", |h| h.seed += 1),
            ("walkers", |h| h.walkers += 1),
            ("steps_total", |h| h.steps_total += 1),
            ("config_tag", |h| h.config_tag ^= 1),
            ("graph_tag", |h| h.graph_tag ^= 1),
        ];
        for (what, run, other) in [
            ("in_memory", &in_memory, &out_of_core),
            ("out_of_core", &out_of_core, &in_memory),
        ] {
            let dir = temp(&format!("gate_{what}"));
            std::fs::remove_dir_all(&dir).ok();
            let halt = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 2).halt_after(1));
            assert!(
                matches!(run(&halt), Err(WalkError::Halted { generation: 1 })),
                "{what}"
            );
            // The snapshot as written resumes, so its shape fits: what
            // refuses a perturbed copy is the header gate.
            assert!(
                run(&RunOptions::default().resume_from(&dir)).is_ok(),
                "{what}"
            );
            assert!(refused(other, &dir), "{what}: the other engine resumed it");
            let (_, snap) = load_latest(&dir).unwrap();
            for (field, perturb) in perturbations {
                let bad = temp(&format!("gate_{what}_{field}"));
                std::fs::remove_dir_all(&bad).ok();
                let mut snap = snap.clone();
                perturb(&mut snap.header);
                CheckpointSink::new(&bad, None)
                    .save(1, &snap.encode())
                    .unwrap();
                assert!(refused(run, &bad), "{what}: {field}");
                std::fs::remove_dir_all(&bad).ok();
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_file(&disk_path).ok();
    }
}
