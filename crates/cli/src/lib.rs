//! Argument parsing and command implementations for `fmwalk`.
//!
//! The parser is hand-rolled (the workspace's dependency policy admits
//! no CLI crates) but fully unit-tested; `main.rs` is a thin shim.

pub mod args;
pub mod commands;

pub use args::{parse, Command, ParseError};

/// Usage text printed by `fmwalk help` and on parse errors.
pub const USAGE: &str = "\
fmwalk — cache-efficient graph random walks (FlashMob-RS)

USAGE:
  fmwalk convert <in> <out.bin> [--symmetric] [--dedup] [--drop-self-loops] [--compact]
  fmwalk stats <graph> [--diameter-samples N]
  fmwalk plan <graph> [--walkers N | --walkers-mult M] [--strategy dp|ups|uds|manual]
  fmwalk walk <graph> [--engine flashmob|knightking|graphvite]
                      [--algo|--program deepwalk|node2vec|weighted|
                                        ppr|early-exit|metapath]
                      [--p X] [--q X] [--alpha X] [--pattern L,L,...]
                      [--labels K]
                      [--walkers N | --walkers-mult M] [--steps N] [--seed N]
                      [--threads N] [--ring-depth N]
                      [--strategy dp|ups|uds|manual]
                      [--output <paths.txt>] [--visits <visits.txt>] [--stats]
                      [--trace <out.json>] [--metrics <out.jsonl>] [--progress]
                      [--checkpoint-dir <dir>] [--checkpoint-every N]
                      [--oocore-budget BYTES] [--fault-rate X]
                      [--fault-seed N] [--halt-after G]
  fmwalk resume <graph> <ckpt-dir> [same flags as walk, minus --engine]
  fmwalk disk <graph> <out.fmdisk>
  fmwalk synth <power-law|rmat|ba|ws|ring> <out.bin>
                      [--n N] [--alpha X] [--min-degree N] [--max-degree N]
                      [--scale N] [--edge-factor N] [--m N] [--beta X]
                      [--degree N] [--seed N]
  fmwalk profile [--out <profile.txt>] [--quick]
  fmwalk conform [--quick | --full] [--emit-golden] [--ring-depth N]
  fmwalk trace-check <trace.json>
  fmwalk audit [--root <dir>] [--json] [--update-ratchet] [--why <query>]
  fmwalk help

Graphs are loaded as the binary format when the file starts with the
FMG1 magic, as a whitespace edge list otherwise.

`walk --trace` writes a Chrome Trace Event Format file (open in
chrome://tracing or Perfetto); `--metrics` writes per-stage and
per-partition counters as JSON Lines; `trace-check` validates a trace
file against the in-tree TEF checker.  A traced run (`--stats`,
`--trace`, `--metrics`, `--progress`) also counts the process's
minor/major page faults and peak resident set per stage, read from
/proc at each stage boundary: `--stats` prints them and `--metrics`
adds them to the `run` and `stage` lines (left out where /proc is
unreadable).

`walk --program` (alias of `--algo`) selects a walk program: `ppr`
restarts at the walker's origin with probability `--alpha` (default
0.15); `early-exit` terminates a walker one step after it returns
home; `metapath` follows the cyclic edge-type pattern `--pattern`
(default `0,1`) and needs a labeled graph — `--labels K` derives
`slot % K` edge types at load for graphs without type information.
Programs run on the FlashMob engines, and ppr out of core too (the
walker-at-a-time baselines reject them).

`conform` checks every engine × walk × thread-count cell an engine
accepts (every walk above, programs included) against its walk's
analytic oracle and committed golden digest; a refused cell is listed
as skipped, with the engine's reason.
`--emit-golden` prints the digest rows instead.  `--ring-depth N`
forces the walker ring to depth N in every FlashMob and out-of-core
cell; the same digests must hold at every depth.

`walk --checkpoint-dir` writes a crash-consistent checkpoint every
`--checkpoint-every` iterations (default 8; out of core, pair slots)
and one holding the finished walk; `resume` continues from the latest,
bit-identically, and with `--checkpoint-dir` keeps checkpointing.  Its
configuration flags must match the interrupted run's, except
`--threads` and `--ring-depth`, which change no walk.  `--fault-rate`/
`--fault-seed` inject seeded transient faults into every IO of the run
(checkpoint writes, block reads), absorbed by bounded retries and
counted in `--stats`/`--metrics`; in memory they need
`--checkpoint-dir`.  `--halt-after G` stops deliberately — exit 0 —
after checkpoint generation G, the scripted crash drill.

`disk` converts a graph to the out-of-core FMDISK1 layout; `walk` and
`resume` detect the magic and stream it instead of loading it, with
the adjacency buffer capped by `--oocore-budget` (default 64 MiB).
deepwalk, node2vec and ppr all run the triangular bi-block pair
schedule: a (prev, cur) node2vec step always finds both adjacency
lists resident, and deepwalk and ppr, which read one list a step,
keep to the diagonal's single blocks.  Checkpoints cover the
parked-walker boundary buffers and the pair-schedule cursor, so a
mid-schedule resume is bit-exact.  A corrupt or truncated disk graph
exits 3.

`audit` runs the fm-audit source scanner over the workspace: SAFETY
comments on every unsafe site, thread/file-IO discipline, cast-free
snapshot codecs, the unwrap ratchet, and the flow-aware passes — an
in-tree item parser builds a workspace call graph and runs
determinism-taint (clock/entropy/env/hash-order sources must not
reach the deterministic crates), panic-reachability (no panicking
site reachable from the sample loops), rng-purity (RNG seeds flow
from seed + structured indices), and fingerprint-completeness (every
config field the run path reads is folded into the checkpoint
fingerprint).  `--why <query>` prints the offending call path for
findings matching a path/item substring or lint name.  Exemptions
live in audit/allow.toml (optionally scoped to one item); the ratchet
baseline in audit/ratchet.toml only moves down (`--update-ratchet`
refreshes it after removing call sites).  Clean exits 0, findings
exit 1, IO or config errors exit 2.

Exit codes: 0 success, 1 generic failure, 2 IO error, 3 corrupt
checkpoint, 4 invalid plan or configuration, 64 usage error.
";
