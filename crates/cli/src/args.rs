//! The `fmwalk` argument grammar.

use std::path::PathBuf;

use flashmob::{MetapathPattern, PlanStrategy, WalkAlgorithm, WalkConfig, MAX_METAPATH_LEN};
use fm_graph::VertexId;

/// A fully parsed invocation.
// One is parsed per process: `Walk`'s inline `WalkConfig` costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `fmwalk convert`.
    Convert {
        /// Input edge list (text) or binary graph.
        input: PathBuf,
        /// Output binary path.
        output: PathBuf,
        /// Mirror edges.
        symmetric: bool,
        /// Deduplicate edges.
        dedup: bool,
        /// Remove self loops.
        drop_self_loops: bool,
        /// Densely renumber vertices.
        compact: bool,
    },
    /// `fmwalk stats`.
    Stats {
        /// Graph path.
        graph: PathBuf,
        /// BFS sources for the diameter estimate.
        diameter_samples: usize,
    },
    /// `fmwalk plan`.
    Plan {
        /// Graph path.
        graph: PathBuf,
        /// Walker specification.
        walkers: WalkerCount,
        /// Partitioning strategy.
        strategy: PlanStrategy,
    },
    /// `fmwalk walk`, and `fmwalk resume`: the same walk continued from
    /// the latest checkpoint in a directory.
    Walk {
        /// Graph path.
        graph: PathBuf,
        /// `resume` only: the checkpoint directory an interrupted `walk
        /// --checkpoint-dir` wrote.  The configuration flags must match
        /// that run (mismatches are rejected by the checkpoint's embedded
        /// config fingerprint); ring depth and thread count may differ,
        /// since neither changes the walk.
        resume_from: Option<PathBuf>,
        /// Engine selection.
        engine: EngineChoice,
        /// The walk: algorithm, steps, seed, threads, ring depth, plan
        /// strategy, and whether paths and visits are recorded.  Its
        /// walker count is set once the graph's |V| is known.
        config: WalkConfig,
        /// Walker specification.
        walkers: WalkerCount,
        /// Optional path-output file.
        output: Option<PathBuf>,
        /// Optional visit-counts file.
        visits: Option<PathBuf>,
        /// Print execution statistics (stage times, pool accounting).
        stats: bool,
        /// Optional Chrome Trace Event Format output file.
        trace: Option<PathBuf>,
        /// Optional JSONL metrics output file.
        metrics: Option<PathBuf>,
        /// Print a periodic progress heartbeat to stderr.
        progress: bool,
        /// Checkpoint directory (enables crash-safe checkpointing;
        /// FlashMob engine only; a resumed run keeps checkpointing).
        checkpoint_dir: Option<PathBuf>,
        /// Checkpoint cadence in iterations (0 = default of 8 when a
        /// directory is given).
        checkpoint_every: usize,
        /// Derive `slot % K` edge-type labels at load (`--labels K`;
        /// 0 = leave the graph unlabeled).  Metapath programs need a
        /// labeled graph.
        labels: usize,
        /// Out-of-core streaming-buffer budget in bytes (used when the
        /// graph is an `FMDISK1` disk graph; 0 = 64 MiB default).
        oocore_budget: usize,
        /// Transient-fault injection rate for every IO of the run: its
        /// checkpoint writes, and a disk graph's block reads (chaos
        /// testing; 0 = off).  An in-memory walk's only IO is its
        /// checkpoints, so there it needs `--checkpoint-dir`.
        fault_rate: f64,
        /// Seed of the injected fault stream.
        fault_seed: u64,
        /// Stop deliberately, exit 0, right after writing this checkpoint
        /// generation (crash drill, on any graph the FlashMob engine
        /// walks; needs `--checkpoint-dir`; 0 = run to completion).
        halt_after: u64,
    },
    /// `fmwalk disk`: convert an in-memory graph (binary or edge list)
    /// into the out-of-core `FMDISK1` disk-graph layout, degree-sorted
    /// for cache-budgeted streaming.
    Disk {
        /// Input graph (binary or edge list).
        input: PathBuf,
        /// Output `.fmdisk` path.
        output: PathBuf,
    },
    /// `fmwalk synth`.
    Synth {
        /// Generator family.
        kind: SynthKind,
        /// Output binary path.
        output: PathBuf,
        /// Generator parameters.
        params: SynthParams,
    },
    /// `fmwalk conform`.
    Conform {
        /// Run the full {1, 2, 3, 8}-thread lattice instead of the CI
        /// quick tier's {1, 8}.
        full: bool,
        /// Print golden-table rows for every cell instead of checking.
        emit_golden: bool,
        /// Force this walker-ring depth in every FlashMob cell; the
        /// committed digests must hold at any depth.
        ring_depth: Option<usize>,
    },
    /// `fmwalk trace-check`.
    TraceCheck {
        /// Chrome-trace JSON file to validate.
        file: PathBuf,
    },
    /// `fmwalk audit`.
    Audit {
        /// Workspace root to scan (current directory when absent).
        root: Option<PathBuf>,
        /// Emit the machine-readable report instead of human lines.
        json: bool,
        /// Rewrite audit/ratchet.toml from measured unwrap counts.
        update_ratchet: bool,
        /// Print the offending call path for findings matching this
        /// query (substring of path/item, or an exact lint name).
        why: Option<String>,
    },
    /// `fmwalk help`.
    Help,
}

/// Walkers either as an absolute count or a multiple of |V|.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WalkerCount {
    /// Absolute number of walkers.
    Absolute(usize),
    /// `mult * |V|` walkers.
    PerVertex(usize),
}

impl WalkerCount {
    /// Resolves against a vertex count; `None` when `mult * |V|`
    /// overflows.
    pub fn resolve(self, vertices: usize) -> Option<usize> {
        match self {
            WalkerCount::Absolute(n) => Some(n),
            WalkerCount::PerVertex(m) => m.checked_mul(vertices),
        }
    }
}

/// Which engine executes the walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The FlashMob engine.
    FlashMob,
    /// KnightKing-style baseline.
    KnightKing,
    /// GraphVite-style baseline.
    GraphVite,
}

/// Synthetic generator families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthKind {
    /// Configuration-model power law.
    PowerLaw,
    /// Recursive-matrix.
    Rmat,
    /// Barabási–Albert.
    BarabasiAlbert,
    /// Watts–Strogatz.
    WattsStrogatz,
    /// Regular ring lattice.
    Ring,
}

/// Generator parameters (superset across families; defaults sensible).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthParams {
    /// Vertex count (power-law/BA/WS/ring).
    pub n: usize,
    /// Power-law exponent.
    pub alpha: f64,
    /// Minimum degree.
    pub min_degree: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// R-MAT scale (`|V| = 2^scale`).
    pub scale: u32,
    /// R-MAT edges per vertex.
    pub edge_factor: usize,
    /// BA attachment count.
    pub m: usize,
    /// WS rewiring probability.
    pub beta: f64,
    /// Ring/WS degree.
    pub degree: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthParams {
    fn default() -> Self {
        Self {
            n: 100_000,
            alpha: 1.9,
            min_degree: 1,
            max_degree: 2_000,
            scale: 16,
            edge_factor: 16,
            m: 4,
            beta: 0.05,
            degree: 16,
            seed: 42,
        }
    }
}

/// Refuses parameters outside a generator's domain as a usage error,
/// naming the bound, rather than leaving them to the generator's asserts
/// or, for rmat, to a vertex count `2^scale` that does not fit
/// [`VertexId`].
fn check_synth(kind: SynthKind, p: &SynthParams) -> Result<(), ParseError> {
    let bound = match kind {
        SynthKind::PowerLaw if p.min_degree == 0 => "--min-degree must be at least 1".into(),
        SynthKind::PowerLaw if p.min_degree > p.max_degree => format!(
            "--min-degree {} must not exceed --max-degree {}",
            p.min_degree, p.max_degree
        ),
        SynthKind::Rmat if p.scale >= VertexId::BITS => format!(
            "--scale {} must be below {}: the vertex count 2^scale must fit a {}-bit vertex id",
            p.scale,
            VertexId::BITS,
            VertexId::BITS
        ),
        SynthKind::BarabasiAlbert if p.m == 0 || p.m >= p.n => {
            format!("--m {} must be at least 1 and below --n {}", p.m, p.n)
        }
        SynthKind::WattsStrogatz | SynthKind::Ring
            if p.degree == 0 || !p.degree.is_multiple_of(2) || p.degree >= p.n =>
        {
            format!(
                "--degree {} must be even, at least 2 and below --n {}",
                p.degree, p.n
            )
        }
        SynthKind::WattsStrogatz if !(0.0..=1.0).contains(&p.beta) => {
            format!("--beta {} must be in [0, 1]", p.beta)
        }
        _ => return Ok(()),
    };
    Err(err(format!("synth: {bound}")))
}

/// A parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

struct Cursor {
    args: Vec<String>,
    pos: usize,
}

impl Cursor {
    fn next(&mut self) -> Option<String> {
        let a = self.args.get(self.pos).cloned();
        self.pos += a.is_some() as usize;
        a
    }

    fn demand(&mut self, what: &str) -> Result<String, ParseError> {
        self.next().ok_or_else(|| err(format!("missing {what}")))
    }

    fn value<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, ParseError> {
        let raw = self.demand(&format!("value for {flag}"))?;
        raw.parse()
            .map_err(|_| err(format!("bad value {raw:?} for {flag}")))
    }
}

/// Parses an argument vector (without the program name).
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseError> {
    let mut c = Cursor {
        args: args.into_iter().collect(),
        pos: 0,
    };
    let cmd = match c.next().as_deref() {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some(other) => other.to_string(),
    };
    match cmd.as_str() {
        "convert" => {
            let input = PathBuf::from(c.demand("input path")?);
            let output = PathBuf::from(c.demand("output path")?);
            let (mut symmetric, mut dedup, mut drop_self_loops, mut compact) =
                (false, false, false, false);
            while let Some(flag) = c.next() {
                match flag.as_str() {
                    "--symmetric" => symmetric = true,
                    "--dedup" => dedup = true,
                    "--drop-self-loops" => drop_self_loops = true,
                    "--compact" => compact = true,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Convert {
                input,
                output,
                symmetric,
                dedup,
                drop_self_loops,
                compact,
            })
        }
        "stats" => {
            let graph = PathBuf::from(c.demand("graph path")?);
            let mut diameter_samples = 4usize;
            while let Some(flag) = c.next() {
                match flag.as_str() {
                    "--diameter-samples" => diameter_samples = c.value("--diameter-samples")?,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Stats {
                graph,
                diameter_samples,
            })
        }
        "plan" => {
            let graph = PathBuf::from(c.demand("graph path")?);
            let mut walkers = WalkerCount::PerVertex(1);
            let mut strategy = PlanStrategy::DynamicProgramming;
            while let Some(flag) = c.next() {
                match flag.as_str() {
                    "--walkers" => walkers = WalkerCount::Absolute(c.value("--walkers")?),
                    "--walkers-mult" => {
                        walkers = WalkerCount::PerVertex(c.value("--walkers-mult")?)
                    }
                    "--strategy" => strategy = parse_strategy(&c.demand("strategy")?)?,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Plan {
                graph,
                walkers,
                strategy,
            })
        }
        "walk" | "resume" => {
            let graph = PathBuf::from(c.demand("graph path")?);
            let resume_from = match cmd.as_str() {
                "resume" => Some(PathBuf::from(c.demand("checkpoint directory")?)),
                _ => None,
            };
            let mut engine = EngineChoice::FlashMob;
            let mut config = WalkConfig::deepwalk();
            let mut algo_name = "deepwalk".to_string();
            // Parameter flags unset keep the walk's own defaults.
            let (mut p, mut q, mut alpha, mut pattern) = (None, None, None, None);
            let mut labels = 0usize;
            let mut walkers = WalkerCount::PerVertex(1);
            let mut ring_depth = 0usize;
            let mut output = None;
            let mut visits = None;
            let mut stats = false;
            let mut trace = None;
            let mut metrics = None;
            let mut progress = false;
            let mut checkpoint_dir = None;
            let mut checkpoint_every = 0usize;
            let mut oocore_budget = 0usize;
            let mut fault_rate = 0.0f64;
            let mut fault_seed = 1u64;
            let mut halt_after = 0u64;
            // `resume` replays an interrupted `walk` under that run's
            // configuration flags; it does not choose an engine.  It may
            // keep checkpointing, whose generations continue the
            // interrupted run's numbering.
            while let Some(flag) = c.next() {
                if resume_from.is_some() && flag == "--engine" {
                    return Err(err(format!("unknown flag {flag}")));
                }
                match flag.as_str() {
                    "--checkpoint-dir" => {
                        checkpoint_dir = Some(PathBuf::from(c.demand("checkpoint directory")?))
                    }
                    "--checkpoint-every" => checkpoint_every = c.value("--checkpoint-every")?,
                    "--oocore-budget" => oocore_budget = c.value("--oocore-budget")?,
                    "--fault-rate" => fault_rate = c.value("--fault-rate")?,
                    "--fault-seed" => fault_seed = c.value("--fault-seed")?,
                    "--halt-after" => halt_after = c.value("--halt-after")?,
                    "--engine" => {
                        engine = match c.demand("engine")?.as_str() {
                            "flashmob" => EngineChoice::FlashMob,
                            "knightking" => EngineChoice::KnightKing,
                            "graphvite" => EngineChoice::GraphVite,
                            other => return Err(err(format!("unknown engine {other}"))),
                        }
                    }
                    "--algo" | "--program" => algo_name = c.demand("algorithm")?,
                    "--p" => p = Some(c.value("--p")?),
                    "--q" => q = Some(c.value("--q")?),
                    "--alpha" => alpha = Some(c.value("--alpha")?),
                    "--pattern" => pattern = Some(parse_pattern(&c.value::<String>("pattern")?)?),
                    "--labels" => labels = c.value("--labels")?,
                    "--walkers" => walkers = WalkerCount::Absolute(c.value("--walkers")?),
                    "--walkers-mult" => {
                        walkers = WalkerCount::PerVertex(c.value("--walkers-mult")?)
                    }
                    "--steps" => config = config.steps(c.value("--steps")?),
                    "--seed" => config.seed = c.value("--seed")?,
                    "--threads" => config = config.threads(c.value("--threads")?),
                    "--ring-depth" => ring_depth = c.value("--ring-depth")?,
                    "--strategy" => config.strategy = parse_strategy(&c.demand("strategy")?)?,
                    "--output" => output = Some(PathBuf::from(c.demand("output path")?)),
                    "--visits" => visits = Some(PathBuf::from(c.demand("visits path")?)),
                    "--stats" => stats = true,
                    "--trace" => trace = Some(PathBuf::from(c.demand("trace path")?)),
                    "--metrics" => metrics = Some(PathBuf::from(c.demand("metrics path")?)),
                    "--progress" => progress = true,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            config.algorithm = resolve_algo(&algo_name, p, q, alpha, pattern)?;
            if ring_depth > 0 {
                config = config.ring_depth(ring_depth);
            }
            config = config
                .record_paths(output.is_some())
                .record_visits(visits.is_some());
            Ok(Command::Walk {
                graph,
                resume_from,
                engine,
                config,
                walkers,
                output,
                visits,
                stats,
                trace,
                metrics,
                progress,
                checkpoint_dir,
                checkpoint_every,
                labels,
                oocore_budget,
                fault_rate,
                fault_seed,
                halt_after,
            })
        }
        "disk" => {
            let input = match c.next() {
                Some(p) => PathBuf::from(p),
                None => return Err(err("missing input path")),
            };
            let output = match c.next() {
                Some(p) => PathBuf::from(p),
                None => return Err(err("missing output path")),
            };
            if let Some(flag) = c.next() {
                return Err(err(format!("unknown flag {flag}")));
            }
            Ok(Command::Disk { input, output })
        }
        "synth" => {
            let kind = match c.demand("generator kind")?.as_str() {
                "power-law" => SynthKind::PowerLaw,
                "rmat" => SynthKind::Rmat,
                "ba" => SynthKind::BarabasiAlbert,
                "ws" => SynthKind::WattsStrogatz,
                "ring" => SynthKind::Ring,
                other => return Err(err(format!("unknown generator {other}"))),
            };
            let output = PathBuf::from(c.demand("output path")?);
            let mut params = SynthParams::default();
            while let Some(flag) = c.next() {
                match flag.as_str() {
                    "--n" => params.n = c.value("--n")?,
                    "--alpha" => params.alpha = c.value("--alpha")?,
                    "--min-degree" => params.min_degree = c.value("--min-degree")?,
                    "--max-degree" => params.max_degree = c.value("--max-degree")?,
                    "--scale" => params.scale = c.value("--scale")?,
                    "--edge-factor" => params.edge_factor = c.value("--edge-factor")?,
                    "--m" => params.m = c.value("--m")?,
                    "--beta" => params.beta = c.value("--beta")?,
                    "--degree" => params.degree = c.value("--degree")?,
                    "--seed" => params.seed = c.value("--seed")?,
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            check_synth(kind, &params)?;
            Ok(Command::Synth {
                kind,
                output,
                params,
            })
        }
        "conform" => {
            let mut full = false;
            let mut emit_golden = false;
            let mut ring_depth = None;
            while let Some(flag) = c.next() {
                match flag.as_str() {
                    "--quick" => full = false,
                    "--full" => full = true,
                    "--emit-golden" => emit_golden = true,
                    "--ring-depth" => ring_depth = Some(c.value("--ring-depth")?),
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Conform {
                full,
                emit_golden,
                ring_depth,
            })
        }
        "trace-check" => {
            let file = PathBuf::from(c.demand("trace file")?);
            if let Some(flag) = c.next() {
                return Err(err(format!("unknown flag {flag}")));
            }
            Ok(Command::TraceCheck { file })
        }
        "audit" => {
            let mut root = None;
            let mut json = false;
            let mut update_ratchet = false;
            let mut why = None;
            while let Some(flag) = c.next() {
                match flag.as_str() {
                    "--root" => root = Some(PathBuf::from(c.demand("workspace root")?)),
                    "--json" => json = true,
                    "--update-ratchet" => update_ratchet = true,
                    "--why" => why = Some(c.demand("finding query")?),
                    other => return Err(err(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Audit {
                root,
                json,
                update_ratchet,
                why,
            })
        }
        other => Err(err(format!("unknown command {other}; try `fmwalk help`"))),
    }
}

/// Resolves an `--algo`/`--program` name plus its parameter flags; a
/// flag left unset keeps the walk's default ([`WalkAlgorithm::ALL`]).
fn resolve_algo(
    name: &str,
    p: Option<f64>,
    q: Option<f64>,
    alpha: Option<f64>,
    pattern: Option<MetapathPattern>,
) -> Result<WalkAlgorithm, ParseError> {
    let mut walk = WalkAlgorithm::from_name(name).ok_or_else(|| {
        let names = WalkAlgorithm::ALL.map(|w| w.name());
        err(format!(
            "unknown algorithm or program {name} ({})",
            names.join("|")
        ))
    })?;
    match &mut walk {
        WalkAlgorithm::Node2Vec { p: wp, q: wq } => {
            *wp = p.unwrap_or(*wp);
            *wq = q.unwrap_or(*wq);
        }
        WalkAlgorithm::Ppr { alpha: wa } => *wa = alpha.unwrap_or(*wa),
        WalkAlgorithm::Metapath { pattern: wp } => *wp = pattern.unwrap_or(*wp),
        _ => {}
    }
    Ok(walk)
}

/// Parses a `--pattern` value: comma-separated edge-type labels.
fn parse_pattern(raw: &str) -> Result<MetapathPattern, ParseError> {
    let mut labels = Vec::new();
    for part in raw.split(',') {
        let label: u8 = part.trim().parse().map_err(|_| {
            err(format!(
                "bad label {part:?} in --pattern (want comma-separated integers 0-255)"
            ))
        })?;
        labels.push(label);
    }
    MetapathPattern::new(&labels)
        .ok_or_else(|| err(format!("--pattern needs 1..={MAX_METAPATH_LEN} labels")))
}

fn parse_strategy(raw: &str) -> Result<PlanStrategy, ParseError> {
    match raw {
        "dp" => Ok(PlanStrategy::DynamicProgramming),
        "ups" => Ok(PlanStrategy::UniformPs),
        "uds" => Ok(PlanStrategy::UniformDs),
        "manual" => Ok(PlanStrategy::ManualHeuristic),
        other => Err(err(format!("unknown strategy {other} (dp|ups|uds|manual)"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(line: &str) -> Result<Command, ParseError> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn help_variants() {
        assert_eq!(p("").unwrap(), Command::Help);
        assert_eq!(p("help").unwrap(), Command::Help);
        assert_eq!(p("--help").unwrap(), Command::Help);
    }

    #[test]
    fn convert_full() {
        let cmd = p("convert in.txt out.bin --symmetric --dedup --compact").unwrap();
        match cmd {
            Command::Convert {
                input,
                output,
                symmetric,
                dedup,
                drop_self_loops,
                compact,
            } => {
                assert_eq!(input, PathBuf::from("in.txt"));
                assert_eq!(output, PathBuf::from("out.bin"));
                assert!(symmetric && dedup && compact && !drop_self_loops);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walk_defaults() {
        match p("walk g.bin").unwrap() {
            Command::Walk {
                engine,
                config,
                walkers,
                ..
            } => {
                assert_eq!(engine, EngineChoice::FlashMob);
                // DeepWalk, 80 steps, seed 1, one thread, auto ring, DP
                // plan; nothing recorded without --output / --visits.
                assert_eq!(config, WalkConfig::deepwalk().record_paths(false));
                assert_eq!(walkers, WalkerCount::PerVertex(1));
            }
            other => panic!("{other:?}"),
        }
        match p("walk g.bin --output o.txt --visits v.txt").unwrap() {
            Command::Walk { config, .. } => {
                assert!(config.record_paths && config.record_visits);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walk_stats_flag() {
        match p("walk g.bin --threads 4 --stats").unwrap() {
            Command::Walk { config, stats, .. } => {
                assert_eq!(config.threads, 4);
                assert!(stats);
            }
            other => panic!("{other:?}"),
        }
        match p("walk g.bin").unwrap() {
            Command::Walk { stats, .. } => assert!(!stats),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walk_ring_depth_flag() {
        let depth = |line: &str| match p(line).unwrap() {
            Command::Walk { config, .. } => config.ring_depth,
            other => panic!("{other:?}"),
        };
        assert_eq!(depth("walk g.bin --ring-depth 8"), Some(8));
        // Default, and 0: planner auto.
        assert_eq!(depth("walk g.bin"), None);
        assert_eq!(depth("walk g.bin --ring-depth 8 --ring-depth 0"), None);
        assert_eq!(depth("resume g.bin ck --ring-depth 4"), Some(4));
        assert!(p("walk g.bin --ring-depth nope").is_err());
    }

    #[test]
    fn walk_node2vec_with_params() {
        match p("walk g.bin --algo node2vec --p 0.25 --q 4 --steps 40 --engine knightking").unwrap()
        {
            Command::Walk { engine, config, .. } => {
                assert_eq!(engine, EngineChoice::KnightKing);
                assert_eq!(
                    config.algorithm,
                    WalkAlgorithm::Node2Vec { p: 0.25, q: 4.0 }
                );
                assert_eq!(config.max_steps(), 40);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synth_power_law() {
        match p("synth power-law g.bin --n 5000 --alpha 2.1 --seed 9").unwrap() {
            Command::Synth { kind, params, .. } => {
                assert_eq!(kind, SynthKind::PowerLaw);
                assert_eq!(params.n, 5000);
                assert_eq!(params.alpha, 2.1);
                assert_eq!(params.seed, 9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn synth_refuses_parameters_outside_the_generator_domain() {
        // Each of these crashed the generator (an assert, an index out of
        // bounds, or a terabyte allocation); parsing alone refuses them.
        for (line, bound) in [
            (
                "power-law g.bin --min-degree 50 --max-degree 10",
                "--max-degree 10",
            ),
            (
                "power-law g.bin --min-degree 0",
                "--min-degree must be at least 1",
            ),
            ("ws g.bin --n 100 --degree 3", "must be even"),
            ("ws g.bin --n 10 --degree 10", "below --n 10"),
            (
                "ws g.bin --n 100 --degree 4 --beta 2",
                "--beta 2 must be in [0, 1]",
            ),
            ("ring g.bin --n 100 --degree 7", "must be even"),
            ("ring g.bin --n 8 --degree 8", "below --n 8"),
            ("ba g.bin --n 10 --m 10", "below --n 10"),
            ("ba g.bin --m 0", "--m 0 must be at least 1"),
            ("rmat g.bin --scale 64", "--scale 64 must be below 32"),
            ("rmat g.bin --scale 40", "--scale 40 must be below 32"),
            ("rmat g.bin --scale 32", "--scale 32 must be below 32"),
        ] {
            let msg = p(&format!("synth {line}")).unwrap_err().0;
            assert!(msg.contains(bound), "{line}: {msg}");
        }
        for line in [
            "power-law g.bin --min-degree 10 --max-degree 10",
            "ws g.bin --n 100 --degree 98 --beta 1",
            "ring g.bin --n 3 --degree 2",
            "ba g.bin --n 5 --m 4",
            "rmat g.bin --scale 31",
        ] {
            assert!(p(&format!("synth {line}")).is_ok(), "{line}");
        }
    }

    #[test]
    fn plan_strategies() {
        for (raw, want) in [
            ("dp", PlanStrategy::DynamicProgramming),
            ("ups", PlanStrategy::UniformPs),
            ("uds", PlanStrategy::UniformDs),
            ("manual", PlanStrategy::ManualHeuristic),
        ] {
            match p(&format!("plan g.bin --strategy {raw}")).unwrap() {
                Command::Plan { strategy, .. } => assert_eq!(strategy, want),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn errors_are_informative() {
        assert!(p("walk").unwrap_err().0.contains("graph path"));
        assert!(p("walk g.bin --engine spark")
            .unwrap_err()
            .0
            .contains("unknown engine"));
        assert!(p("walk g.bin --steps abc")
            .unwrap_err()
            .0
            .contains("bad value"));
        assert!(p("frobnicate").unwrap_err().0.contains("unknown command"));
        assert!(p("synth ring").unwrap_err().0.contains("output path"));
    }

    #[test]
    fn conform_flags() {
        assert_eq!(
            p("conform").unwrap(),
            Command::Conform {
                full: false,
                emit_golden: false,
                ring_depth: None,
            }
        );
        assert_eq!(
            p("conform --quick").unwrap(),
            Command::Conform {
                full: false,
                emit_golden: false,
                ring_depth: None,
            }
        );
        assert_eq!(
            p("conform --full").unwrap(),
            Command::Conform {
                full: true,
                emit_golden: false,
                ring_depth: None,
            }
        );
        assert_eq!(
            p("conform --full --emit-golden").unwrap(),
            Command::Conform {
                full: true,
                emit_golden: true,
                ring_depth: None,
            }
        );
        assert_eq!(
            p("conform --ring-depth 16").unwrap(),
            Command::Conform {
                full: false,
                emit_golden: false,
                ring_depth: Some(16),
            }
        );
        assert!(p("conform --fast").unwrap_err().0.contains("unknown flag"));
    }

    #[test]
    fn walk_program_flags() {
        // `--program` is an alias for `--algo`, covering the walk
        // programs; `--alpha` parameterizes PPR (default 0.15).
        let algo = |line: &str| match p(line).unwrap() {
            Command::Walk { config, .. } => config.algorithm,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            algo("walk g.bin --program ppr"),
            WalkAlgorithm::Ppr { alpha: 0.15 }
        );
        assert_eq!(
            algo("walk g.bin --alpha 0.4 --program ppr"),
            WalkAlgorithm::Ppr { alpha: 0.4 }
        );
        assert_eq!(
            algo("walk g.bin --algo early-exit"),
            WalkAlgorithm::EarlyExit
        );
        // Classical algorithms remain reachable through the alias.
        assert_eq!(
            algo("walk g.bin --program node2vec --p 0.5"),
            WalkAlgorithm::Node2Vec { p: 0.5, q: 1.0 }
        );
        // An unknown name is an error that lists every walk.
        let e = p("walk g.bin --program frobwalk").unwrap_err().0;
        assert!(e.contains("unknown algorithm or program frobwalk"), "{e}");
        for walk in WalkAlgorithm::ALL {
            assert!(e.contains(walk.name()), "{e}");
        }
    }

    #[test]
    fn walk_metapath_pattern_and_labels() {
        match p("walk g.bin --program metapath --pattern 2,0,1 --labels 3").unwrap() {
            Command::Walk { config, labels, .. } => {
                assert_eq!(
                    config.algorithm,
                    WalkAlgorithm::Metapath {
                        pattern: MetapathPattern::new(&[2, 0, 1]).expect("pattern")
                    }
                );
                assert_eq!(labels, 3);
            }
            other => panic!("{other:?}"),
        }
        // Default pattern is the two-phase 0,1 cycle; default labels 0.
        match p("walk g.bin --program metapath").unwrap() {
            Command::Walk { config, labels, .. } => {
                assert_eq!(
                    config.algorithm,
                    WalkAlgorithm::Metapath {
                        pattern: MetapathPattern::new(&[0, 1]).expect("pattern")
                    }
                );
                assert_eq!(labels, 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(p("walk g.bin --pattern 1,x")
            .unwrap_err()
            .0
            .contains("bad label"));
        assert!(p("walk g.bin --pattern 1,2,3,4,5,6,7,8,9")
            .unwrap_err()
            .0
            .contains("--pattern needs"));
        // Resume accepts the same program flags (it must rebuild the
        // interrupted run's configuration exactly).
        match p("resume g.bin ck --program ppr --alpha 0.25 --labels 2").unwrap() {
            Command::Walk { config, labels, .. } => {
                assert_eq!(config.algorithm, WalkAlgorithm::Ppr { alpha: 0.25 });
                assert_eq!(labels, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walk_telemetry_flags() {
        match p("walk g.bin --trace t.json --metrics m.jsonl --progress").unwrap() {
            Command::Walk {
                trace,
                metrics,
                progress,
                ..
            } => {
                assert_eq!(trace, Some(PathBuf::from("t.json")));
                assert_eq!(metrics, Some(PathBuf::from("m.jsonl")));
                assert!(progress);
            }
            other => panic!("{other:?}"),
        }
        match p("walk g.bin").unwrap() {
            Command::Walk {
                trace,
                metrics,
                progress,
                ..
            } => {
                assert!(trace.is_none() && metrics.is_none() && !progress);
            }
            other => panic!("{other:?}"),
        }
        assert!(p("walk g.bin --trace").unwrap_err().0.contains("trace path"));
    }

    #[test]
    fn audit_command() {
        assert_eq!(
            p("audit").unwrap(),
            Command::Audit {
                root: None,
                json: false,
                update_ratchet: false,
                why: None
            }
        );
        assert_eq!(
            p("audit --root /tmp/ws --json --update-ratchet").unwrap(),
            Command::Audit {
                root: Some(PathBuf::from("/tmp/ws")),
                json: true,
                update_ratchet: true,
                why: None
            }
        );
        assert_eq!(
            p("audit --why sample.rs").unwrap(),
            Command::Audit {
                root: None,
                json: false,
                update_ratchet: false,
                why: Some("sample.rs".to_string())
            }
        );
        // Every audit runs the flow lints: the mode flag is gone, with no
        // alias.
        assert!(p("audit --graph").unwrap_err().0.contains("unknown flag"));
        assert!(p("audit --bogus").unwrap_err().0.contains("unknown flag"));
        assert!(p("audit --root").unwrap_err().0.contains("workspace root"));
        assert!(p("audit --why").unwrap_err().0.contains("finding query"));
    }

    #[test]
    fn walk_hw_counters_flag() {
        // The PMU path is gone with no alias: the flag is unknown to
        // both walk and resume.
        for line in ["walk g.bin --hw-counters", "resume g.bin ck --hw-counters"] {
            assert!(p(line).unwrap_err().0.contains("unknown flag"), "{line}");
        }
    }

    #[test]
    fn cachecheck_command() {
        assert!(p("cachecheck --quick")
            .unwrap_err()
            .0
            .contains("unknown command"));
    }

    #[test]
    fn usage_and_parser_agree() {
        // Every `fmwalk <word>` line of USAGE names a command the
        // parser knows (it may still demand arguments), and a retired
        // command is unknown rather than silently aliased.
        let unknown = |word: &str| match p(word) {
            Err(e) => e.0.contains("unknown command"),
            Ok(_) => false,
        };
        let words: Vec<&str> = crate::USAGE
            .lines()
            .filter_map(|l| l.strip_prefix("  fmwalk "))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        assert_eq!(words.len(), 11, "{words:?}");
        for word in words {
            assert!(
                !unknown(word),
                "USAGE lists `{word}`, the parser rejects it"
            );
        }
        assert!(unknown("bench-diff"));
        assert!(unknown("profile"));

        // USAGE's `--algo|--program` list names every walk, and each
        // name parses, under either spelling, to the walk it names.
        let (_, list) = crate::USAGE
            .split_once("[--algo|--program ")
            .expect("USAGE lists the walks");
        let (list, _) = list.split_once(']').expect("the list closes");
        let mut listed: Vec<&str> = list.split('|').map(str::trim).collect();
        let mut names = WalkAlgorithm::ALL.map(|w| w.name()).to_vec();
        listed.sort_unstable();
        names.sort_unstable();
        assert_eq!(listed, names);
        for name in names {
            for flag in ["--algo", "--program"] {
                match p(&format!("walk g {flag} {name}")).unwrap() {
                    Command::Walk { config, .. } => assert_eq!(config.algorithm.name(), name),
                    other => panic!("{other:?}"),
                }
            }
        }
    }

    #[test]
    fn trace_check_command() {
        assert_eq!(
            p("trace-check out.json").unwrap(),
            Command::TraceCheck {
                file: PathBuf::from("out.json")
            }
        );
        assert!(p("trace-check").unwrap_err().0.contains("trace file"));
        assert!(p("trace-check a.json --x")
            .unwrap_err()
            .0
            .contains("unknown flag"));
    }

    #[test]
    fn walk_checkpoint_flags() {
        match p("walk g.bin --checkpoint-dir ck --checkpoint-every 16").unwrap() {
            Command::Walk {
                checkpoint_dir,
                checkpoint_every,
                ..
            } => {
                assert_eq!(checkpoint_dir, Some(PathBuf::from("ck")));
                assert_eq!(checkpoint_every, 16);
            }
            other => panic!("{other:?}"),
        }
        match p("walk g.bin").unwrap() {
            Command::Walk {
                checkpoint_dir,
                checkpoint_every,
                ..
            } => {
                assert!(checkpoint_dir.is_none());
                assert_eq!(checkpoint_every, 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(p("walk g.bin --checkpoint-dir")
            .unwrap_err()
            .0
            .contains("checkpoint directory"));
    }

    #[test]
    fn resume_command() {
        match p("resume g.bin ck --steps 40 --seed 7 --threads 4 --output o.txt").unwrap() {
            Command::Walk {
                graph,
                resume_from,
                config,
                output,
                ..
            } => {
                assert_eq!(graph, PathBuf::from("g.bin"));
                assert_eq!(resume_from, Some(PathBuf::from("ck")));
                assert_eq!(config.max_steps(), 40);
                assert_eq!(config.seed, 7);
                assert_eq!(config.threads, 4);
                assert_eq!(output, Some(PathBuf::from("o.txt")));
            }
            other => panic!("{other:?}"),
        }
        assert!(p("resume g.bin").unwrap_err().0.contains("checkpoint directory"));
        assert!(p("resume g.bin ck --engine knightking")
            .unwrap_err()
            .0
            .contains("unknown flag"));
        // A resumed run may keep checkpointing, into the directory it
        // resumed from or another.
        let line = "resume g.bin ck --checkpoint-dir ck --checkpoint-every 4 --halt-after 3";
        match p(line).unwrap() {
            Command::Walk {
                resume_from,
                checkpoint_dir,
                checkpoint_every,
                halt_after,
                ..
            } => {
                assert_eq!(resume_from, checkpoint_dir);
                assert_eq!((checkpoint_every, halt_after), (4, 3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walker_count_resolution() {
        assert_eq!(WalkerCount::Absolute(5).resolve(100), Some(5));
        assert_eq!(WalkerCount::PerVertex(3).resolve(100), Some(300));
        assert_eq!(WalkerCount::PerVertex(usize::MAX / 64).resolve(65), None);
    }
}
