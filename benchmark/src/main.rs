//! `fmbench`: the repository's benchmark.  See `README.md` beside this
//! package for what is measured and why, and `/BENCHMARK.json` for the
//! contract the driver holds it to.

mod aa;
mod calib;
mod check;
mod estimator;
mod host;
mod inputs;
mod layers;
mod metrics;
mod protocol;
mod spans;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use host::HostRecord;
use protocol::RunOpts;
use workloads::{Scale, Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "\
usage: fmbench <command> [options]

  run <workload>      end-to-end metrics of one workload
  traced <workload>   per-layer metrics of one workload (spans under benchmark/out/)
  aa <workload|all>   two interleaved sets of --runs N runs, gaps against the bounds
  smoke               every workload, run and traced, at test scale
  fingerprints        pinned and cached input fingerprints
  --workload <name> --trace <0|1>    the driver's spelling of run / traced

options: --seed N (default 1), --seconds N (default 27), --scale bench|test,
         --runs N (aa, default 5), --cache-dir DIR

workloads:";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    scale: Scale,
    runs: usize,
    cache_dir: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 27.0,
        scale: Scale::Bench,
        runs: 5,
        cache_dir: inputs::default_cache_dir(),
    };
    let mut trace = None;
    let mut positional = Vec::new();
    let mut it = raw.iter();
    while let Some(a) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{what} expects a value"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds expects a non-negative number")?
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => "run",
                    "1" => "traced",
                    other => return Err(format!("--trace expects 0 or 1, got {other}")),
                })
            }
            "--scale" => {
                args.scale = match value("--scale")?.as_str() {
                    "bench" => Scale::Bench,
                    "test" => Scale::Test,
                    other => return Err(format!("--scale expects bench or test, got {other}")),
                }
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 2)
                    .ok_or("--runs expects a number >= 2")?
            }
            "--cache-dir" => args.cache_dir = PathBuf::from(value("--cache-dir")?),
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => positional.push(a.clone()),
        }
    }
    let mut positional = positional.into_iter();
    args.command = match (positional.next(), trace) {
        (Some(c), None) => c,
        (None, Some(t)) => t.to_string(),
        (None, None) if args.workload.is_some() => "run".to_string(),
        (Some(_), Some(_)) => return Err("--trace replaces the command".into()),
        (None, None) => return Err("no command".into()),
    };
    if args.workload.is_none() {
        args.workload = positional.next();
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument {extra}"));
    }
    Ok(args)
}

fn workload(args: &Args) -> Result<&'static Workload, String> {
    let name = args.workload.as_deref().ok_or("which workload?")?;
    workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))
}

fn run_opts(w: &Workload, args: &Args, scale: Scale, seconds: f64) -> RunOpts {
    RunOpts {
        scale,
        seed: args.seed,
        seconds,
        cache_dir: args.cache_dir.clone(),
        golden: (args.seed == DEFAULT_SEED).then(|| w.golden(scale)),
    }
}

/// One measured run of either kind; `true` when everything checked out.
fn measure(w: &Workload, opts: &RunOpts, traced: bool) -> bool {
    println!(
        "fmbench {} {} (scale {}, seed {})",
        if traced { "traced" } else { "run" },
        w.name,
        opts.scale.tag(),
        opts.seed
    );
    let host = HostRecord::read();
    host.print();
    let mut report = match host.admits(1) {
        Err(e) => {
            let mut tally = check::Tally::default();
            tally.record("host guard", Err(e));
            protocol::RunReport {
                tally,
                metrics: Vec::new(),
            }
        }
        Ok(()) if traced => layers::run(w, opts, &host),
        Ok(()) => protocol::run(w, opts),
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        let broken = format!("{} is {}", m.def.name, m.value);
        report.tally.record("finite metrics", Err(broken));
    }
    metrics::print_result(report.tally.attempted, report.tally.failed, &report.metrics);
    report.tally.correct()
}

fn smoke(args: &Args) -> bool {
    let mut ok = true;
    for w in &WORKLOADS {
        let opts = run_opts(w, args, Scale::Test, 0.0);
        for traced in [false, true] {
            ok &= measure(w, &opts, traced);
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    ok
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.command.as_str() {
        "run" | "traced" => {
            let w = workload(args)?;
            let opts = run_opts(w, args, args.scale, args.seconds);
            Ok(measure(w, &opts, args.command == "traced"))
        }
        "smoke" => Ok(smoke(args)),
        "fingerprints" => Ok(inputs::print_fingerprints(&args.cache_dir)),
        "aa" => {
            let forward = [
                "--seconds".to_string(),
                args.seconds.to_string(),
                "--scale".to_string(),
                args.scale.tag().to_string(),
                "--cache-dir".to_string(),
                args.cache_dir.display().to_string(),
            ];
            aa::run(
                args.workload.as_deref().ok_or("aa <workload|all>")?,
                args.runs,
                &forward,
            )
        }
        "gen-input" => {
            inputs::generate(workload(args)?, args.scale, &args.cache_dir)?;
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&raw).and_then(|args| dispatch(&args)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fmbench: {e}\n\n{USAGE}");
            for w in &WORKLOADS {
                eprintln!("  {:<12} {}", w.name, w.why);
            }
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_drivers_spelling_and_ours_agree() {
        let theirs = parse("--workload dw_yh --seed 7 --seconds 12 --trace 1").unwrap();
        let ours = parse("traced dw_yh --seed 7 --seconds 12").unwrap();
        for a in [&theirs, &ours] {
            assert_eq!(a.command, "traced");
            assert_eq!(a.workload.as_deref(), Some("dw_yh"));
            assert_eq!((a.seed, a.seconds), (7, 12.0));
        }
        assert_eq!(parse("--workload n2v_tw --trace 0").unwrap().command, "run");
        assert!(parse("run dw_yh --trace 1").is_err());
        assert!(parse("--trace 2 --workload dw_yh").is_err());
        assert!(parse("run dw_yh extra").is_err());
        assert!(parse("").is_err());
    }
}
