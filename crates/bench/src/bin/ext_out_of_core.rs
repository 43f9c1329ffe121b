//! Extension experiment: walking a disk-resident graph (paper §4.5/§5.4
//! future work, implemented in `flashmob::oocore`).
//!
//! Compares the in-memory engine against the out-of-core bi-block walk
//! on the same analog, first for DeepWalk — whose walkers read one list
//! a step and keep to the schedule's diagonal — then for node2vec across
//! block budgets.  The first table reports per-step time, disk bytes
//! streamed per step, and block loads against pair slots skipped because
//! no walker waited in them (the schedule's sparse-access dividend).
//! The paper's budget: streaming at ~5 GB/s would sustain an 80-step
//! walk over a graph larger than DRAM.

use flashmob::oocore::{run_ooc, DiskGraph};
use flashmob::{FlashMob, WalkConfig};
use fm_bench::{analog, fmt_bytes, scaled_planner, HarnessOpts};
use fm_graph::presets::PaperGraph;

/// Unwraps a harness-setup result or exits with a readable message —
/// a bench binary has no caller to propagate to, and the unwrap
/// ratchet keeps panicking call sites out of new code.
fn require<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> T {
    match r {
        Ok(v) => v,
        Err(e) => {
            eprintln!("ext_out_of_core: {what}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let opts = HarnessOpts::from_args();
    println!("Extension — out-of-core walk vs in-memory (DeepWalk)");
    let header = format!(
        "{:<8}{:>10}{:>12}{:>12}{:>12}{:>22}{:>12}",
        "Graph", "file", "mem ns/st", "ooc ns/st", "B/step", "blocks:pairs-skipped", "read MB/s"
    );
    println!("{header}");
    fm_bench::rule(&header);

    // Anchored to the workspace like `fm_bench::analog`'s cache, so a run
    // from another directory leaves no `target/` tree of its own behind.
    let dir = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../target/fm-oocore"
    ));
    std::fs::create_dir_all(dir).expect("scratch dir");
    for which in PaperGraph::ALL {
        let g = analog(which, opts.scale);
        let walkers = g.vertex_count();
        let steps = opts.steps.min(24);

        let mem_cfg = WalkConfig::deepwalk()
            .walkers(walkers)
            .steps(steps)
            .seed(3)
            .record_paths(false)
            .planner(scaled_planner(opts.scale));
        let engine = FlashMob::new(&g, mem_cfg.clone()).expect("engine");
        let (_, mem) = engine.run_with_stats().expect("mem run");

        let path = dir.join(format!("{}.fmdisk", which.tag()));
        let disk = DiskGraph::create(&g, &path).expect("disk graph");
        let budget = scaled_planner(opts.scale).hierarchy.l3.size_bytes;
        let (_, ooc) = run_ooc(&disk, &mem_cfg, budget).expect("ooc run");

        let mb_s = if ooc.read_time.as_secs_f64() > 0.0 {
            ooc.bytes_read as f64 / ooc.read_time.as_secs_f64() / 1e6
        } else {
            f64::INFINITY
        };
        println!(
            "{:<8}{:>10}{:>12.1}{:>12.1}{:>12.1}{:>22}{:>12.0}",
            which.tag(),
            fmt_bytes(disk.edge_count() * 4),
            mem.per_step_ns(),
            ooc.per_step_ns(),
            ooc.bytes_per_step(),
            format!("{}:{}", ooc.blocks_streamed, ooc.pairs_skipped),
            mb_s,
        );
        std::fs::remove_file(&path).ok();
    }
    println!();
    println!("Extension — bi-block second-order walk (node2vec p=2 q=0.5)");
    let header = format!(
        "{:<8}{:>8}{:>10}{:>12}{:>12}{:>9}{:>10}{:>9}",
        "Graph", "engine", "budget", "threads", "ns/step", "blocks", "parkings", "retries"
    );
    println!("{header}");
    fm_bench::rule(&header);

    // Thread sweep for the in-memory reference; the bi-block scheduler
    // itself is single-threaded, so its axis is the block budget.
    let mut threads: Vec<usize> = vec![1, opts.threads.max(1)];
    threads.dedup();
    let l3 = scaled_planner(opts.scale).hierarchy.l3.size_bytes;
    let budgets = [l3 / 4, l3, l3 * 4];

    for which in PaperGraph::ALL {
        let g = analog(which, opts.scale);
        let walkers = g.vertex_count();
        let steps = opts.steps.min(16);

        for &t in &threads {
            let cfg = WalkConfig::node2vec(2.0, 0.5)
                .walkers(walkers)
                .steps(steps)
                .seed(3)
                .threads(t)
                .record_paths(false)
                .planner(scaled_planner(opts.scale));
            let engine = require(FlashMob::new(&g, cfg), "engine");
            let (_, mem) = require(engine.run_with_stats(), "mem run");
            println!(
                "{:<8}{:>8}{:>10}{:>12}{:>12.1}{:>9}{:>10}{:>9}",
                which.tag(),
                "mem",
                "--",
                t,
                mem.per_step_ns(),
                "--",
                "--",
                "--",
            );
        }

        let path = dir.join(format!("{}-n2v.fmdisk", which.tag()));
        let disk = require(DiskGraph::create(&g, &path), "disk graph");
        let ooc_cfg = WalkConfig::node2vec(2.0, 0.5)
            .walkers(walkers)
            .steps(steps)
            .seed(3)
            .record_paths(false);
        for &budget in &budgets {
            let (_, ooc) = require(run_ooc(&disk, &ooc_cfg, budget), "bi-block run");
            println!(
                "{:<8}{:>8}{:>10}{:>12}{:>12.1}{:>9}{:>10}{:>9}",
                which.tag(),
                "ooc",
                fmt_bytes(budget),
                1,
                ooc.per_step_ns(),
                ooc.blocks_streamed,
                ooc.walkers_parked,
                ooc.io_retries,
            );
        }
        std::fs::remove_file(&path).ok();
    }

    println!();
    println!("Expected shape: out-of-core stays within a small factor of in-memory");
    println!("(page cache serves re-reads), and bytes/step stays bounded as walkers");
    println!("concentrate on hot blocks.  The node2vec sweep should show");
    println!("ns/step falling as the block budget grows (fewer, larger pairs);");
    println!("parked-walker counts rise as blocks shrink.");
}
