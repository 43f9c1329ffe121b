//! The `fmwalk` argument grammar: each command's flags fill one struct
//! with defaults, through a table of (spelling, setter) pairs that one
//! loop ([`flags`]) applies in order.

use std::path::PathBuf;

use flashmob::{MetapathPattern, PlanStrategy, WalkAlgorithm, WalkConfig, MAX_METAPATH_LEN};
use fm_graph::io::ParseOptions;
use fm_graph::VertexId;

/// A fully parsed invocation.
// One is parsed per process: `Walk`'s inline `WalkArgs` costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `fmwalk convert`.
    Convert {
        /// Input edge list (text) or binary graph.
        input: PathBuf,
        /// Output binary path.
        output: PathBuf,
        /// Clean-up passes: mirror, deduplicate, drop self loops, compact.
        opts: ParseOptions,
    },
    /// `fmwalk stats`.
    Stats(StatsArgs),
    /// `fmwalk plan`.
    Plan(PlanArgs),
    /// `fmwalk walk`, and `fmwalk resume`: the same walk continued from
    /// the latest checkpoint in a directory.
    Walk(WalkArgs),
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
    Conform(ConformArgs),
    /// `fmwalk trace-check`.
    TraceCheck {
        /// Chrome-trace JSON file to validate.
        file: PathBuf,
    },
    /// `fmwalk audit`.
    Audit(AuditArgs),
    /// `fmwalk help`.
    Help,
}

/// `fmwalk stats <graph>`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsArgs {
    /// Graph path.
    pub graph: PathBuf,
    /// BFS sources for the diameter estimate.
    pub diameter_samples: usize,
}

impl Default for StatsArgs {
    fn default() -> Self {
        Self {
            graph: PathBuf::new(),
            diameter_samples: 4,
        }
    }
}

/// `fmwalk plan <graph>`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanArgs {
    /// Graph path.
    pub graph: PathBuf,
    /// Walker specification.
    pub walkers: WalkerCount,
    /// Partitioning strategy.
    pub strategy: PlanStrategy,
}

impl Default for PlanArgs {
    fn default() -> Self {
        Self {
            graph: PathBuf::new(),
            walkers: WalkerCount::PerVertex(1),
            strategy: PlanStrategy::DynamicProgramming,
        }
    }
}

/// `fmwalk walk <graph>` and `fmwalk resume <graph> <dir>`.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkArgs {
    /// Graph path.
    pub graph: PathBuf,
    /// `resume` only: the checkpoint directory an interrupted `walk
    /// --checkpoint-dir` wrote.  The configuration flags must match
    /// that run (mismatches are rejected by the checkpoint's embedded
    /// config fingerprint); ring depth and thread count may differ,
    /// since neither changes the walk.
    pub resume_from: Option<PathBuf>,
    /// Engine selection.
    pub engine: EngineChoice,
    /// The walk: algorithm, steps, seed, threads, ring depth, plan
    /// strategy, and whether paths and visits are recorded.  Its
    /// walker count is set once the graph's |V| is known.
    pub config: WalkConfig,
    /// Walker specification.
    pub walkers: WalkerCount,
    /// Optional path-output file.
    pub output: Option<PathBuf>,
    /// Optional visit-counts file.
    pub visits: Option<PathBuf>,
    /// Print execution statistics (stage times, pool accounting).
    pub stats: bool,
    /// Optional Chrome Trace Event Format output file.
    pub trace: Option<PathBuf>,
    /// Optional JSONL metrics output file.
    pub metrics: Option<PathBuf>,
    /// Print a periodic progress heartbeat to stderr.
    pub progress: bool,
    /// Checkpoint directory (enables crash-safe checkpointing;
    /// FlashMob engine only; a resumed run keeps checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in iterations (0 = default of 8 when a
    /// directory is given).
    pub checkpoint_every: usize,
    /// Derive `slot % K` edge-type labels at load (`--labels K`;
    /// 0 = leave the graph unlabeled).  Metapath programs need a
    /// labeled graph.
    pub labels: usize,
    /// Out-of-core streaming-buffer budget in bytes (used when the
    /// graph is an `FMDISK1` disk graph; 0 = 64 MiB default).
    pub oocore_budget: usize,
    /// Transient-fault injection rate for every IO of the run: its
    /// checkpoint writes, and a disk graph's block reads (chaos
    /// testing; 0 = off).  An in-memory walk's only IO is its
    /// checkpoints, so there it needs `--checkpoint-dir`.
    pub fault_rate: f64,
    /// Seed of the injected fault stream.
    pub fault_seed: u64,
    /// Stop deliberately, exit 0, right after writing this checkpoint
    /// generation (crash drill, on any graph the FlashMob engine
    /// walks; needs `--checkpoint-dir`; 0 = run to completion).
    pub halt_after: u64,
}

impl Default for WalkArgs {
    /// DeepWalk, 80 steps, seed 1, one thread, auto ring, DP plan, one
    /// walker per vertex; nothing recorded, checkpointed or injected.
    fn default() -> Self {
        Self {
            graph: PathBuf::new(),
            resume_from: None,
            engine: EngineChoice::FlashMob,
            config: WalkConfig::deepwalk().record_paths(false),
            walkers: WalkerCount::PerVertex(1),
            output: None,
            visits: None,
            stats: false,
            trace: None,
            metrics: None,
            progress: false,
            checkpoint_dir: None,
            checkpoint_every: 0,
            labels: 0,
            oocore_budget: 0,
            fault_rate: 0.0,
            fault_seed: 1,
            halt_after: 0,
        }
    }
}

/// `fmwalk conform`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConformArgs {
    /// Run the full {1, 2, 3, 8}-thread lattice instead of the CI
    /// quick tier's {1, 8}.
    pub full: bool,
    /// Print golden-table rows for every cell instead of checking.
    pub emit_golden: bool,
    /// Force this walker-ring depth in every FlashMob cell; the
    /// committed digests must hold at any depth.
    pub ring_depth: Option<usize>,
}

/// `fmwalk audit`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditArgs {
    /// Workspace root to scan (current directory when absent).
    pub root: Option<PathBuf>,
    /// Emit the machine-readable report instead of human lines.
    pub json: bool,
    /// Rewrite audit/ratchet.toml from measured unwrap counts.
    pub update_ratchet: bool,
    /// Print the offending call path for findings matching this
    /// query (substring of path/item, or an exact lint name).
    pub why: Option<String>,
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
    /// The flag being applied, for its value's error messages.
    flag: String,
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

    fn path(&mut self, what: &str) -> Result<PathBuf, ParseError> {
        self.demand(what).map(PathBuf::from)
    }

    /// The current flag's value.
    fn value<T: std::str::FromStr>(&mut self) -> Result<T, ParseError> {
        let flag = self.flag.clone();
        let raw = self.demand(&format!("value for {flag}"))?;
        raw.parse()
            .map_err(|_| err(format!("bad value {raw:?} for {flag}")))
    }
}

/// How a flag sets its command's arguments, reading its value (if it
/// takes one) off the cursor.
type Setter<A> = fn(&mut A, &mut Cursor) -> Result<(), ParseError>;

/// A command's flags: each spelling and its setter.
type Flags<A> = [(&'static str, Setter<A>)];

/// Sets a switch flag.
fn on(switch: &mut bool) -> Result<(), ParseError> {
    *switch = true;
    Ok(())
}

const CONVERT_FLAGS: &Flags<ParseOptions> = &[
    ("--symmetric", |o, _| on(&mut o.symmetric)),
    ("--dedup", |o, _| on(&mut o.dedup)),
    ("--drop-self-loops", |o, _| on(&mut o.drop_self_loops)),
    ("--compact", |o, _| on(&mut o.compact)),
];

const STATS_FLAGS: &Flags<StatsArgs> = &[("--diameter-samples", |a, c| {
    c.value().map(|n| a.diameter_samples = n)
})];

const PLAN_FLAGS: &Flags<PlanArgs> = &[
    ("--walkers", |a, c| c.value().map(|n| a.walkers = WalkerCount::Absolute(n))),
    ("--walkers-mult", |a, c| c.value().map(|m| a.walkers = WalkerCount::PerVertex(m))),
    ("--strategy", |a, c| strategy(c).map(|s| a.strategy = s)),
];

/// `walk`'s flags; `resume` takes all but the first, `--engine` (it
/// continues the interrupted run's engine).
const WALK_FLAGS: &Flags<WalkFlags> = &[
    ("--engine", |f, c| engine(c).map(|e| f.args.engine = e)),
    ("--algo", |f, c| c.demand("algorithm").map(|n| f.algo = Some(n))),
    ("--program", |f, c| c.demand("algorithm").map(|n| f.algo = Some(n))),
    ("--p", |f, c| c.value().map(|v| f.p = Some(v))),
    ("--q", |f, c| c.value().map(|v| f.q = Some(v))),
    ("--alpha", |f, c| c.value().map(|v| f.alpha = Some(v))),
    ("--pattern", |f, c| pattern(c).map(|p| f.pattern = Some(p))),
    ("--labels", |f, c| c.value().map(|k| f.args.labels = k)),
    ("--walkers", |f, c| c.value().map(|n| f.args.walkers = WalkerCount::Absolute(n))),
    ("--walkers-mult", |f, c| c.value().map(|m| f.args.walkers = WalkerCount::PerVertex(m))),
    ("--steps", |f, c| c.value().map(|n| f.args.config = f.args.config.clone().steps(n))),
    ("--seed", |f, c| c.value().map(|s| f.args.config.seed = s)),
    ("--threads", |f, c| c.value().map(|t| f.args.config = f.args.config.clone().threads(t))),
    ("--ring-depth", |f, c| c.value().map(|d| f.ring_depth = d)),
    ("--strategy", |f, c| strategy(c).map(|s| f.args.config.strategy = s)),
    ("--output", |f, c| c.path("output path").map(|p| f.args.output = Some(p))),
    ("--visits", |f, c| c.path("visits path").map(|p| f.args.visits = Some(p))),
    ("--stats", |f, _| on(&mut f.args.stats)),
    ("--trace", |f, c| c.path("trace path").map(|p| f.args.trace = Some(p))),
    ("--metrics", |f, c| c.path("metrics path").map(|p| f.args.metrics = Some(p))),
    ("--progress", |f, _| on(&mut f.args.progress)),
    ("--checkpoint-dir", |f, c| {
        c.path("checkpoint directory").map(|d| f.args.checkpoint_dir = Some(d))
    }),
    ("--checkpoint-every", |f, c| c.value().map(|n| f.args.checkpoint_every = n)),
    ("--oocore-budget", |f, c| c.value().map(|b| f.args.oocore_budget = b)),
    ("--fault-rate", |f, c| c.value().map(|r| f.args.fault_rate = r)),
    ("--fault-seed", |f, c| c.value().map(|s| f.args.fault_seed = s)),
    ("--halt-after", |f, c| c.value().map(|g| f.args.halt_after = g)),
];

const SYNTH_FLAGS: &Flags<SynthParams> = &[
    ("--n", |p, c| c.value().map(|v| p.n = v)),
    ("--alpha", |p, c| c.value().map(|v| p.alpha = v)),
    ("--min-degree", |p, c| c.value().map(|v| p.min_degree = v)),
    ("--max-degree", |p, c| c.value().map(|v| p.max_degree = v)),
    ("--scale", |p, c| c.value().map(|v| p.scale = v)),
    ("--edge-factor", |p, c| c.value().map(|v| p.edge_factor = v)),
    ("--m", |p, c| c.value().map(|v| p.m = v)),
    ("--beta", |p, c| c.value().map(|v| p.beta = v)),
    ("--degree", |p, c| c.value().map(|v| p.degree = v)),
    ("--seed", |p, c| c.value().map(|v| p.seed = v)),
];

const CONFORM_FLAGS: &Flags<ConformArgs> = &[
    ("--quick", |a, _| {
        a.full = false;
        Ok(())
    }),
    ("--full", |a, _| on(&mut a.full)),
    ("--emit-golden", |a, _| on(&mut a.emit_golden)),
    ("--ring-depth", |a, c| c.value().map(|d| a.ring_depth = Some(d))),
];

const AUDIT_FLAGS: &Flags<AuditArgs> = &[
    ("--root", |a, c| c.path("workspace root").map(|r| a.root = Some(r))),
    ("--json", |a, _| on(&mut a.json)),
    ("--update-ratchet", |a, _| on(&mut a.update_ratchet)),
    ("--why", |a, c| c.demand("finding query").map(|q| a.why = Some(q))),
];

/// Applies the remaining arguments to `args`, each through its entry in
/// `table`; a flag the table does not name is an error.
fn flags<A>(c: &mut Cursor, table: &Flags<A>, mut args: A) -> Result<A, ParseError> {
    while let Some(flag) = c.next() {
        let Some((_, set)) = table.iter().find(|(name, _)| *name == flag) else {
            return Err(err(format!("unknown flag {flag}")));
        };
        c.flag = flag;
        set(&mut args, c)?;
    }
    Ok(args)
}

/// `walk`'s flags as given: the walk is named and parameterised by
/// separate flags, in any order, and resolved once all are read.
#[derive(Default)]
struct WalkFlags {
    args: WalkArgs,
    algo: Option<String>,
    p: Option<f64>,
    q: Option<f64>,
    alpha: Option<f64>,
    pattern: Option<MetapathPattern>,
    ring_depth: usize,
}

impl WalkFlags {
    /// The walk: `--algo`/`--program` (default deepwalk) with each
    /// parameter flag set over the walk's default
    /// ([`WalkAlgorithm::ALL`]), the ring depth (0 = planner auto), and
    /// paths and visits recorded when they have a file to go to.
    fn resolve(self) -> Result<WalkArgs, ParseError> {
        let name = self.algo.as_deref().unwrap_or("deepwalk");
        let mut walk = WalkAlgorithm::from_name(name).ok_or_else(|| {
            let names = WalkAlgorithm::ALL.map(|w| w.name());
            err(format!(
                "unknown algorithm or program {name} ({})",
                names.join("|")
            ))
        })?;
        match &mut walk {
            WalkAlgorithm::Node2Vec { p, q } => {
                *p = self.p.unwrap_or(*p);
                *q = self.q.unwrap_or(*q);
            }
            WalkAlgorithm::Ppr { alpha } => *alpha = self.alpha.unwrap_or(*alpha),
            WalkAlgorithm::Metapath { pattern } => *pattern = self.pattern.unwrap_or(*pattern),
            _ => {}
        }
        let mut args = self.args;
        args.config.algorithm = walk;
        if self.ring_depth > 0 {
            args.config = args.config.ring_depth(self.ring_depth);
        }
        args.config = args
            .config
            .record_paths(args.output.is_some())
            .record_visits(args.visits.is_some());
        Ok(args)
    }
}

/// Parses an argument vector (without the program name).
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, ParseError> {
    let mut c = Cursor {
        args: args.into_iter().collect(),
        pos: 0,
        flag: String::new(),
    };
    let cmd = match c.next() {
        None => return Ok(Command::Help),
        Some(cmd) => cmd,
    };
    Ok(match cmd.as_str() {
        "help" | "--help" | "-h" => Command::Help,
        "convert" => {
            let (input, output) = (c.path("input path")?, c.path("output path")?);
            let opts = flags(&mut c, CONVERT_FLAGS, ParseOptions::default())?;
            Command::Convert {
                input,
                output,
                opts,
            }
        }
        "stats" => {
            let graph = c.path("graph path")?;
            let args = StatsArgs {
                graph,
                ..StatsArgs::default()
            };
            Command::Stats(flags(&mut c, STATS_FLAGS, args)?)
        }
        "plan" => {
            let graph = c.path("graph path")?;
            let args = PlanArgs {
                graph,
                ..PlanArgs::default()
            };
            Command::Plan(flags(&mut c, PLAN_FLAGS, args)?)
        }
        "walk" | "resume" => {
            let graph = c.path("graph path")?;
            let (resume_from, table) = match cmd.as_str() {
                "resume" => (Some(c.path("checkpoint directory")?), &WALK_FLAGS[1..]),
                _ => (None, WALK_FLAGS),
            };
            let args = WalkArgs {
                graph,
                resume_from,
                ..WalkArgs::default()
            };
            let walk = WalkFlags {
                args,
                ..WalkFlags::default()
            };
            Command::Walk(flags(&mut c, table, walk)?.resolve()?)
        }
        "disk" => {
            let (input, output) = (c.path("input path")?, c.path("output path")?);
            flags(&mut c, &[], ())?;
            Command::Disk { input, output }
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
            let output = c.path("output path")?;
            let params = flags(&mut c, SYNTH_FLAGS, SynthParams::default())?;
            check_synth(kind, &params)?;
            Command::Synth {
                kind,
                output,
                params,
            }
        }
        "conform" => Command::Conform(flags(&mut c, CONFORM_FLAGS, ConformArgs::default())?),
        "trace-check" => {
            let file = c.path("trace file")?;
            flags(&mut c, &[], ())?;
            Command::TraceCheck { file }
        }
        "audit" => Command::Audit(flags(&mut c, AUDIT_FLAGS, AuditArgs::default())?),
        other => return Err(err(format!("unknown command {other}; try `fmwalk help`"))),
    })
}

fn engine(c: &mut Cursor) -> Result<EngineChoice, ParseError> {
    match c.demand("engine")?.as_str() {
        "flashmob" => Ok(EngineChoice::FlashMob),
        "knightking" => Ok(EngineChoice::KnightKing),
        "graphvite" => Ok(EngineChoice::GraphVite),
        other => Err(err(format!("unknown engine {other}"))),
    }
}

/// A `--pattern` value: comma-separated edge-type labels.
fn pattern(c: &mut Cursor) -> Result<MetapathPattern, ParseError> {
    let raw = c.value::<String>()?;
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

fn strategy(c: &mut Cursor) -> Result<PlanStrategy, ParseError> {
    match c.demand("strategy")?.as_str() {
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
                opts,
            } => {
                assert_eq!(input, PathBuf::from("in.txt"));
                assert_eq!(output, PathBuf::from("out.bin"));
                assert!(opts.symmetric && opts.dedup && opts.compact && !opts.drop_self_loops);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walk_defaults() {
        match p("walk g.bin").unwrap() {
            Command::Walk(WalkArgs {
                engine,
                config,
                walkers,
                ..
            }) => {
                assert_eq!(engine, EngineChoice::FlashMob);
                // DeepWalk, 80 steps, seed 1, one thread, auto ring, DP
                // plan; nothing recorded without --output / --visits.
                assert_eq!(config, WalkConfig::deepwalk().record_paths(false));
                assert_eq!(walkers, WalkerCount::PerVertex(1));
            }
            other => panic!("{other:?}"),
        }
        match p("walk g.bin --output o.txt --visits v.txt").unwrap() {
            Command::Walk(WalkArgs { config, .. }) => {
                assert!(config.record_paths && config.record_visits);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walk_stats_flag() {
        match p("walk g.bin --threads 4 --stats").unwrap() {
            Command::Walk(WalkArgs { config, stats, .. }) => {
                assert_eq!(config.threads, 4);
                assert!(stats);
            }
            other => panic!("{other:?}"),
        }
        match p("walk g.bin").unwrap() {
            Command::Walk(WalkArgs { stats, .. }) => assert!(!stats),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walk_ring_depth_flag() {
        let depth = |line: &str| match p(line).unwrap() {
            Command::Walk(WalkArgs { config, .. }) => config.ring_depth,
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
            Command::Walk(WalkArgs { engine, config, .. }) => {
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
                Command::Plan(PlanArgs { strategy, .. }) => assert_eq!(strategy, want),
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
            Command::Conform(ConformArgs {
                full: false,
                emit_golden: false,
                ring_depth: None,
            })
        );
        assert_eq!(
            p("conform --quick").unwrap(),
            Command::Conform(ConformArgs {
                full: false,
                emit_golden: false,
                ring_depth: None,
            })
        );
        assert_eq!(
            p("conform --full").unwrap(),
            Command::Conform(ConformArgs {
                full: true,
                emit_golden: false,
                ring_depth: None,
            })
        );
        assert_eq!(
            p("conform --full --emit-golden").unwrap(),
            Command::Conform(ConformArgs {
                full: true,
                emit_golden: true,
                ring_depth: None,
            })
        );
        assert_eq!(
            p("conform --ring-depth 16").unwrap(),
            Command::Conform(ConformArgs {
                full: false,
                emit_golden: false,
                ring_depth: Some(16),
            })
        );
        assert!(p("conform --fast").unwrap_err().0.contains("unknown flag"));
    }

    #[test]
    fn walk_program_flags() {
        // `--program` is an alias for `--algo`, covering the walk
        // programs; `--alpha` parameterizes PPR (default 0.15).
        let algo = |line: &str| match p(line).unwrap() {
            Command::Walk(WalkArgs { config, .. }) => config.algorithm,
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
            Command::Walk(WalkArgs { config, labels, .. }) => {
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
            Command::Walk(WalkArgs { config, labels, .. }) => {
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
            Command::Walk(WalkArgs { config, labels, .. }) => {
                assert_eq!(config.algorithm, WalkAlgorithm::Ppr { alpha: 0.25 });
                assert_eq!(labels, 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn walk_telemetry_flags() {
        match p("walk g.bin --trace t.json --metrics m.jsonl --progress").unwrap() {
            Command::Walk(WalkArgs {
                trace,
                metrics,
                progress,
                ..
            }) => {
                assert_eq!(trace, Some(PathBuf::from("t.json")));
                assert_eq!(metrics, Some(PathBuf::from("m.jsonl")));
                assert!(progress);
            }
            other => panic!("{other:?}"),
        }
        match p("walk g.bin").unwrap() {
            Command::Walk(WalkArgs {
                trace,
                metrics,
                progress,
                ..
            }) => {
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
            Command::Audit(AuditArgs {
                root: None,
                json: false,
                update_ratchet: false,
                why: None
            })
        );
        assert_eq!(
            p("audit --root /tmp/ws --json --update-ratchet").unwrap(),
            Command::Audit(AuditArgs {
                root: Some(PathBuf::from("/tmp/ws")),
                json: true,
                update_ratchet: true,
                why: None
            })
        );
        assert_eq!(
            p("audit --why sample.rs").unwrap(),
            Command::Audit(AuditArgs {
                root: None,
                json: false,
                update_ratchet: false,
                why: Some("sample.rs".to_string())
            })
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

        // Each command's USAGE entry (its `fmwalk` line and the lines
        // continuing it) lists exactly the flags its table accepts;
        // `resume` takes walk's, minus `--engine`.
        fn names<A>(table: &Flags<A>) -> Vec<&'static str> {
            table.iter().map(|&(n, _)| n).collect()
        }
        let tables: [(&str, &str, Vec<&str>); 11] = [
            ("convert", "a b", names(CONVERT_FLAGS)),
            ("stats", "g", names(STATS_FLAGS)),
            ("plan", "g", names(PLAN_FLAGS)),
            ("walk", "g", names(WALK_FLAGS)),
            ("resume", "g ck", names(&WALK_FLAGS[1..])),
            ("disk", "a b", Vec::new()),
            ("synth", "ring g", names(SYNTH_FLAGS)),
            ("conform", "", names(CONFORM_FLAGS)),
            ("trace-check", "t", Vec::new()),
            ("audit", "", names(AUDIT_FLAGS)),
            ("help", "", Vec::new()),
        ];
        let usage = |word: &str| -> Vec<String> {
            let start = format!("  fmwalk {word} ");
            let mut lines = crate::USAGE.lines().skip_while(|l| !l.starts_with(&start) && *l != start.trim_end());
            let first = lines.next().expect("a USAGE line");
            let rest = lines.take_while(|l| l.starts_with("    "));
            let text: String = std::iter::once(first).chain(rest).collect::<Vec<_>>().join(" ");
            let mut flags: Vec<String> = text
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--"))
                .map(String::from)
                .collect();
            flags.sort();
            flags.dedup();
            flags
        };
        let walk_usage = usage("walk");
        for (word, positional, table) in tables {
            let mut listed = usage(word);
            if word == "resume" {
                assert_eq!(listed, ["--engine"], "resume reads `same flags as walk, minus --engine`");
                listed = walk_usage.iter().filter(|f| *f != "--engine").cloned().collect();
            }
            for flag in &listed {
                if let Err(e) = p(&format!("{word} {positional} {flag}")) {
                    assert!(!e.0.contains("unknown flag"), "USAGE lists `{word} {flag}`: {}", e.0);
                }
            }
            let mut accepted: Vec<String> = table.iter().map(|n| n.to_string()).collect();
            accepted.sort();
            assert_eq!(accepted, listed, "`{word}` accepts flags its USAGE entry does not list");
        }

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
                    Command::Walk(WalkArgs { config, .. }) => assert_eq!(config.algorithm.name(), name),
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
            Command::Walk(WalkArgs {
                checkpoint_dir,
                checkpoint_every,
                ..
            }) => {
                assert_eq!(checkpoint_dir, Some(PathBuf::from("ck")));
                assert_eq!(checkpoint_every, 16);
            }
            other => panic!("{other:?}"),
        }
        match p("walk g.bin").unwrap() {
            Command::Walk(WalkArgs {
                checkpoint_dir,
                checkpoint_every,
                ..
            }) => {
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
            Command::Walk(WalkArgs {
                graph,
                resume_from,
                config,
                output,
                ..
            }) => {
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
            Command::Walk(WalkArgs {
                resume_from,
                checkpoint_dir,
                checkpoint_every,
                halt_after,
                ..
            }) => {
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
