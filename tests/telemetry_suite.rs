//! Cross-engine telemetry guarantees, as executable tests (the
//! overhead gate has a binary of its own, `tests/telemetry_overhead.rs`):
//!
//! 1. **Exactness**: per-partition step counters sum to `steps_taken`
//!    exactly, for every engine and thread count — telemetry is an
//!    accounting system, not a sampling profiler.
//! 2. **Merging**: the NUMA per-socket merge protocol preserves
//!    counters without double-counting.
//! 3. **Export**: the emitted Chrome trace passes the in-tree TEF
//!    validator with one complete span per recorded event.

use flashmob_repro::baseline::{Baseline, BaselineConfig, BaselineKind};
use flashmob_repro::flashmob::numa::{run_numa_with, NumaMode};
use flashmob_repro::flashmob::oocore::{run_ooc_with, DiskGraph};
use flashmob_repro::flashmob::{CheckpointSpec, FlashMob, RunOptions, WalkConfig, WalkError};
use flashmob_repro::graph::synth;
use flashmob_repro::telemetry::{export, json, tef, ProcStat, Stage, Telemetry};

fn walk_config(walkers: usize, steps: usize, threads: usize) -> WalkConfig {
    WalkConfig::deepwalk()
        .walkers(walkers)
        .steps(steps)
        .seed(23)
        .threads(threads)
        .record_paths(false)
}

#[test]
fn partition_step_counters_sum_exactly_across_engines_and_threads() {
    let g = synth::power_law(600, 2.0, 1, 40, 11);
    for threads in [1usize, 2, 3, 8] {
        let engine = FlashMob::new(&g, walk_config(300, 7, threads)).expect("engine");
        let mut tel = Telemetry::new();
        let (_, stats) = engine
            .run_with(&RunOptions::default(), &mut tel)
            .expect("run");
        assert_eq!(
            tel.partition_steps_total(),
            stats.steps_taken,
            "flashmob at {threads} threads"
        );

        for kind in [BaselineKind::KnightKing, BaselineKind::GraphVite] {
            let walk = WalkConfig::deepwalk()
                .walkers(300)
                .steps(7)
                .seed(23)
                .threads(threads)
                .record_paths(false);
            let engine = Baseline::new(&g, BaselineConfig { kind, walk }).expect("baseline");
            let mut tel = Telemetry::new();
            let (_, stats) = engine
                .run_with(&RunOptions::default(), &mut tel)
                .expect("run");
            assert_eq!(
                tel.partition_steps_total(),
                stats.steps_taken,
                "{kind:?} at {threads} threads"
            );
        }
    }

    // The out-of-core engine is single-threaded but streams blocks
    // through a bounded buffer; counters must still be exact and its
    // Io spans must cover real bytes.
    let path = std::env::temp_dir().join(format!("fm-telsuite-{}.fmdisk", std::process::id()));
    let disk = DiskGraph::create(&g, &path).expect("disk graph");
    let mut tel = Telemetry::new();
    let config = walk_config(300, 7, 1);
    let result = run_ooc_with(&disk, &config, 16 * 1024, &RunOptions::default(), &mut tel);
    let (_, stats) = result.expect("ooc run");
    assert_eq!(tel.partition_steps_total(), stats.steps_taken, "oocore");
    assert!(
        tel.events().iter().any(|e| e.stage == Stage::Io),
        "streaming runs must record Io spans"
    );

    // A second-order walk uses the off-diagonal pairs of the same
    // bi-block schedule; its block loads and per-pair step counters obey
    // the same exact-sum contract, with one Io span per block actually
    // read from disk.
    let mut tel = Telemetry::new();
    let config = WalkConfig::node2vec(2.0, 0.5)
        .walkers(300)
        .steps(7)
        .seed(23)
        .threads(1)
        .record_paths(false);
    let result = run_ooc_with(&disk, &config, 4 * 1024, &RunOptions::default(), &mut tel);
    std::fs::remove_file(&path).ok();
    let (_, stats) = result.expect("bi-block run");
    assert_eq!(tel.partition_steps_total(), stats.steps_taken, "bi-block");
    assert_eq!(
        tel.stage(Stage::Io).spans,
        stats.blocks_streamed,
        "one Io span per streamed block"
    );
    assert!(
        stats.blocks_streamed > stats.pairs_scheduled.max(1) / 2,
        "a 4 KiB budget must split the graph into multiple blocks"
    );
    let counted: u64 = tel.partition_counters().iter().map(|c| c.edge_bytes).sum();
    assert!(
        counted >= stats.bytes_read,
        "partition byte counters must cover the streamed adjacency bytes"
    );
}

#[test]
fn numa_merge_does_not_double_count() {
    let g = synth::power_law(400, 2.0, 1, 30, 5);
    for mode in [NumaMode::Partitioned, NumaMode::Replicated] {
        let mut tel = Telemetry::new();
        let (config, opts) = (walk_config(240, 5, 2), RunOptions::default());
        let (outputs, stats) = run_numa_with(&g, config, mode, 3, &opts, &mut tel).expect("numa");
        let walkers: usize = outputs.iter().map(|o| o.paths().len()).sum();
        assert_eq!(walkers, 240);
        // A sink-free power-law graph never kills walkers, so the merged
        // counters must equal walkers x steps exactly once.
        assert_eq!(tel.partition_steps_total(), 240 * 5, "{mode:?}");
        assert_eq!(stats.steps_taken, 240 * 5, "{mode:?}");
    }
}

#[test]
fn checkpointed_and_resumed_runs_trace_what_a_plain_run_traces() {
    // 3. **One run path**: checkpointing and resuming are options of the
    //    one traced run, so they report every stage family a plain traced
    //    run reports (the plan span included) plus their own, and size
    //    the partition table the same.
    let g = synth::power_law(600, 2.0, 1, 40, 11);
    let engine = FlashMob::new(&g, walk_config(300, 6, 2).record_paths(true)).expect("engine");
    let families = |tel: &Telemetry| -> Vec<&'static str> {
        Stage::ALL
            .into_iter()
            .filter(|&stage| tel.stage(stage).spans > 0)
            .map(Stage::label)
            .collect()
    };
    let with = |extra: &'static str, plain: &[&'static str]| {
        let mut want = [plain, &[extra]].concat();
        want.sort_by_key(|label| Stage::ALL.iter().position(|s| s.label() == *label));
        want
    };
    let mut plain = Telemetry::new();
    engine
        .run_with(&RunOptions::default(), &mut plain)
        .expect("plain");
    assert!(families(&plain).contains(&"plan"));

    let dir = std::env::temp_dir().join(format!("fm-telsuite-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let halt = RunOptions::default().checkpoint(CheckpointSpec::new(&dir, 2).halt_after(2));
    let mut checkpointed = Telemetry::new();
    let halted = engine.run_with(&halt, &mut checkpointed);
    assert!(matches!(halted, Err(WalkError::Halted { generation: 2 })));
    let mut resumed = Telemetry::new();
    let resume = RunOptions::default().resume_from(&dir);
    engine.run_with(&resume, &mut resumed).expect("resumed");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(families(&checkpointed), with("checkpoint", &families(&plain)));
    assert_eq!(families(&resumed), with("recovery", &families(&plain)));
    for tel in [&checkpointed, &resumed] {
        assert_eq!(tel.partition_counters().len(), plain.partition_counters().len());
    }
}

#[test]
fn emitted_chrome_trace_validates_with_exact_span_coverage() {
    let g = synth::power_law(500, 2.0, 1, 40, 3);
    let steps = 6;
    let engine = FlashMob::new(&g, walk_config(400, steps, 2)).expect("engine");
    let mut tel = Telemetry::new();
    engine
        .run_with(&RunOptions::default(), &mut tel)
        .expect("run");

    let mut buf = Vec::new();
    export::write_chrome_trace(&mut buf, &tel).expect("export");
    let text = String::from_utf8(buf).expect("utf8");
    let report = tef::validate(&text).expect("trace validates");
    assert_eq!(report.events, tel.events().len());
    assert_eq!(report.complete_events, tel.events().len());
    assert!(report.lanes >= 2, "coordinator plus worker lanes");

    // Every step contributes coordinator spans for both pipeline
    // stages: sample and shuffle (count/scatter + gather) per step.
    let sample = tel
        .events()
        .iter()
        .filter(|e| e.stage == Stage::Sample && e.thread == 0)
        .count();
    let shuffle = tel
        .events()
        .iter()
        .filter(|e| e.stage == Stage::Shuffle)
        .count();
    assert!(sample >= steps, "one coordinator sample span per step");
    assert!(shuffle >= 2 * steps, "two shuffle spans per step");
    assert_eq!(
        tel.events()
            .iter()
            .filter(|e| e.stage == Stage::Plan)
            .count(),
        1,
        "exactly one plan span"
    );
}

/// The `run` and `stage` lines of a metrics export, parsed.
fn metrics_lines(tel: &Telemetry) -> Vec<json::Value> {
    let mut buf = Vec::new();
    export::write_metrics_jsonl(&mut buf, tel).expect("jsonl");
    String::from_utf8(buf)
        .expect("utf8")
        .lines()
        .map(|l| json::parse(l).expect("every line is standalone JSON"))
        .filter(|v| {
            matches!(
                v.get("kind").and_then(|k| k.as_str()),
                Some("run" | "stage")
            )
        })
        .collect()
}

const FAULT_FIELDS: [&str; 3] = ["minor_faults", "major_faults", "rss_kib_max"];

#[test]
fn fault_counters_off_leave_no_state_and_no_output() {
    // 5. **Fault counters**: an enabled recorder attributes the
    //    process's faults to stages, and the stages' deltas sum to the
    //    run line's total; a disabled one never reads /proc, so it
    //    holds no fault sample and exports no fault field.  The traced
    //    run goes first: the engine parks its PS buffers between runs,
    //    so only a first run's sample stage touches them fresh.  The
    //    graph makes them megabytes, more than this process's heap
    //    keeps free and already resident.
    let g = synth::power_law(1 << 17, 2.0, 2, 1000, 3);
    let engine = FlashMob::new(&g, walk_config(1 << 16, 6, 1)).expect("engine");

    if ProcStat::open(std::path::Path::new("/proc/self")).is_some() {
        let mut tel = Telemetry::new();
        engine
            .run_with(&RunOptions::default(), &mut tel)
            .expect("traced run");
        let sample = tel
            .stage(Stage::Sample)
            .faults
            .expect("sample stage read its faults");
        assert!(sample.minor_faults > 0, "{sample:?}");
        assert!(sample.rss_kib_max > 0, "{sample:?}");
        let lines = metrics_lines(&tel);
        let field = |v: &json::Value, name: &str| v.get(name).and_then(|x| x.as_num()).expect(name);
        let run = lines
            .iter()
            .find(|v| v.get("kind").unwrap().as_str() == Some("run"))
            .unwrap();
        let stages: Vec<_> = lines.iter().filter(|v| v.get("stage").is_some()).collect();
        for name in ["minor_faults", "major_faults"] {
            let sum: f64 = stages.iter().map(|v| field(v, name)).sum();
            assert_eq!(
                sum,
                field(run, name),
                "{name}: stage deltas must sum to the run total"
            );
        }
        let peak = stages
            .iter()
            .map(|v| field(v, "rss_kib_max"))
            .fold(0.0, f64::max);
        assert_eq!(peak, field(run, "rss_kib_max"));
        assert!(export::human_summary(&tel).contains("sample   faults"));
    }

    let mut off = Telemetry::off();
    engine
        .run_with(&RunOptions::default(), &mut off)
        .expect("off run");
    assert!(off.fault_total().is_none());
    assert!(Stage::ALL.iter().all(|&s| off.stage(s).faults.is_none()));
    for v in metrics_lines(&off) {
        for field in FAULT_FIELDS {
            assert!(v.get(field).is_none(), "an off recorder exported {field}");
        }
    }
    assert!(!export::human_summary(&off).contains("faults"));
}

#[test]
fn an_unreadable_proc_leaves_the_fault_fields_out_and_the_walk_alone() {
    let g = synth::power_law(2_000, 2.0, 1, 60, 5);
    let engine = FlashMob::new(&g, walk_config(2_000, 8, 1).record_paths(true)).expect("engine");
    let plain = engine
        .run_with(&RunOptions::default(), &mut Telemetry::off())
        .expect("untraced")
        .0;
    let mut tel = Telemetry::new().with_proc_dir(std::path::Path::new("/nonexistent/proc"));
    let (traced, _) = engine
        .run_with(&RunOptions::default(), &mut tel)
        .expect("traced");
    assert_eq!(plain.paths(), traced.paths());
    assert!(tel.fault_total().is_none());
    let lines = metrics_lines(&tel);
    assert!(lines.len() > 1, "run and stage lines are still written");
    for v in &lines {
        for field in FAULT_FIELDS {
            assert!(v.get(field).is_none(), "{field} without a readable /proc");
        }
    }
}
