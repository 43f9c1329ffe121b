//! The four flow-aware lints, built on [`crate::callgraph`]:
//!
//! * **determinism-taint** — wall-clock (`SystemTime`/`UNIX_EPOCH`),
//!   ambient entropy (`thread_rng`/`from_entropy`/`rand::random`/
//!   `RandomState`), environment reads (`env::var`/`env::temp_dir`/…)
//!   and `HashMap`/`HashSet` iteration-order sources must not reach any
//!   function in the deterministic crates, transitively.  `Instant`
//!   stays allowed — elapsed-time telemetry never feeds walk results.
//! * **panic-reachability** — no `panic!` / `unwrap` / `expect` /
//!   `unreachable!` / `assert!` reachable from the PS/DS/ring/oocore
//!   sample loops, except through a reason-carrying allow entry.
//! * **rng-purity** — every RNG construction site in a deterministic
//!   crate must flow from the seed plus structured indices
//!   (seed/epoch/partition/slot/…), never from an ambient source.
//! * **fingerprint-completeness** — every `WalkConfig` field read on an
//!   engine's run path must be folded into that engine's checkpoint
//!   config fingerprint (`config_tag` / `biblock_config_tag`), so a
//!   wrong-alpha or wrong-budget resume is caught at audit time rather
//!   than as exit-4 at runtime.
//!
//! Taint findings are reported at the *frontier*: the deterministic
//! function whose body contains the source directly, or whose direct
//! callee outside the deterministic crates is tainted.  Deeper
//! deterministic callers are implied and not repeated.  Every finding
//! carries its call path (`Finding::why`), printable via
//! `fmwalk audit --why <query>`.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{self, CallGraph};
use crate::lints::{Finding, Lint, DETERMINISTIC_CRATES};
use crate::parse::{FileAst, Tok};

/// Source kind bitmask for determinism taint.
const CLOCK: u32 = 1;
const ENTROPY: u32 = 2;
const ENV: u32 = 4;
const HASH_ORDER: u32 = 8;

const KINDS: [(u32, &str); 4] = [
    (CLOCK, "wall-clock"),
    (ENTROPY, "ambient entropy"),
    (ENV, "environment read"),
    (HASH_ORDER, "hash iteration order"),
];

/// Idents that are clock sources on their own.
const CLOCK_IDENTS: [&str; 2] = ["SystemTime", "UNIX_EPOCH"];
/// Idents that are entropy sources on their own.
const ENTROPY_IDENTS: [&str; 3] = ["thread_rng", "from_entropy", "RandomState"];
/// `env::<name>` calls that read ambient process environment.
const ENV_FNS: [&str; 5] = ["var", "var_os", "vars", "vars_os", "temp_dir"];
/// Hash-ordered std collections (iteration order is nondeterministic).
const HASH_IDENTS: [&str; 2] = ["HashMap", "HashSet"];

/// Sink tokens for panic-reachability: `name!` macros…
const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];
/// …and `.name(` method calls.
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];

/// The release-critical sample loops: panic-freedom roots as
/// (file suffix, fn-name prefix); an empty prefix = every fn in file.
const PANIC_ROOTS: [(&str, &str); 5] = [
    ("flashmob/src/sample.rs", "sample_partition"),
    ("flashmob/src/sample/ring.rs", ""),
    ("flashmob/src/oocore.rs", "run_ooc"),
    ("flashmob/src/engine.rs", "sample_range"),
    ("flashmob/src/engine.rs", "node2vec_range"),
];

/// Deterministic RNG types whose `::new` constructors are checked.
const RNG_CTORS: [&str; 3] = ["Xorshift64Star", "SplitMix64", "Mt19937"];

/// Identifiers that prove an RNG seed flows from structured state.
const STRUCTURED_IDENTS: [&str; 14] = [
    "epoch",
    "partition",
    "slot",
    "iter",
    "stream",
    "index",
    "idx",
    "task",
    "pair",
    "walker",
    "lane",
    "worker",
    "generation",
    "gen",
];

/// Engine fingerprint contracts: run-path entry points (file suffix,
/// fn-name prefix) and the fingerprint functions, anywhere in that
/// file's crate, that must fold every config field the run path reads.
const ENGINES: [(&str, &str, &[&str]); 2] = [
    ("flashmob/src/engine.rs", "run", &["config_tag", "fold_init"]),
    (
        "flashmob/src/oocore.rs",
        "run_ooc",
        &["biblock_config_tag", "fold_init"],
    ),
];

/// Runs all four flow lints over the parsed workspace; returns their
/// findings and the call graph they ran on.
pub fn analyze(files: &[FileAst]) -> (Vec<Finding>, CallGraph) {
    let graph = callgraph::build(files);
    let mut findings = Vec::new();
    determinism_taint(&graph, &mut findings);
    panic_reachability(&graph, &mut findings);
    rng_purity(&graph, &mut findings);
    fingerprint_completeness(files, &graph, &mut findings);
    (findings, graph)
}

/// The panic-reachability roots in `graph`: the sample loops' fns.
pub fn panic_roots(graph: &CallGraph) -> Vec<usize> {
    let roots = PANIC_ROOTS.iter();
    roots.flat_map(|(file, prefix)| graph.roots(file, prefix)).collect()
}

fn in_deterministic_crate(file: &str) -> bool {
    // Suffix-match so fixture workspaces rooted elsewhere behave like
    // the real tree; lib sources only (tests/ trees are not hot paths).
    DETERMINISTIC_CRATES
        .iter()
        .any(|c| file.starts_with(&format!("{c}/src")))
}

/// Does `body[i..]` start with exactly these token strings?
fn seq_at(body: &[Tok], i: usize, seq: &[&str]) -> bool {
    seq.iter()
        .enumerate()
        .all(|(k, s)| body.get(i + k).is_some_and(|t| t.s == *s))
}

/// Scans one body for determinism sources; returns (mask, sites).
fn source_sites(body: &[Tok]) -> (u32, Vec<(u32, String, usize)>) {
    let mut mask = 0;
    let mut sites = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if !t.is_ident() {
            continue;
        }
        let s = t.s.as_str();
        if CLOCK_IDENTS.contains(&s) {
            mask |= CLOCK;
            sites.push((CLOCK, s.to_string(), t.line));
        } else if ENTROPY_IDENTS.contains(&s) {
            mask |= ENTROPY;
            sites.push((ENTROPY, s.to_string(), t.line));
        } else if s == "rand" && seq_at(body, i, &["rand", "::", "random"]) {
            mask |= ENTROPY;
            sites.push((ENTROPY, "rand::random".to_string(), t.line));
        } else if s == "env"
            && body.get(i + 1).is_some_and(|t| t.s == "::")
            && body
                .get(i + 2)
                .is_some_and(|t| ENV_FNS.contains(&t.s.as_str()))
        {
            let f = &body[i + 2].s;
            mask |= ENV;
            sites.push((ENV, format!("env::{f}"), t.line));
        } else if HASH_IDENTS.contains(&s) {
            mask |= HASH_ORDER;
            sites.push((HASH_ORDER, s.to_string(), t.line));
        }
    }
    (mask, sites)
}

fn kind_names(mask: u32) -> String {
    let names: Vec<&str> = KINDS
        .iter()
        .filter(|(b, _)| mask & b != 0)
        .map(|&(_, n)| n)
        .collect();
    names.join(" + ")
}

/// Formats one call-path frame for `--why`.
fn frame(graph: &CallGraph, i: usize, call_line: usize) -> String {
    let f = &graph.fns[i];
    if call_line > 0 {
        format!("{}:{} fn {} (call at line {})", f.file, f.line, f.qual(), call_line)
    } else {
        format!("{}:{} fn {}", f.file, f.line, f.qual())
    }
}

fn determinism_taint(graph: &CallGraph, findings: &mut Vec<Finding>) {
    let own: Vec<u32> = graph
        .fns
        .iter()
        .map(|f| {
            if f.is_test {
                0
            } else {
                source_sites(&f.body).0
            }
        })
        .collect();
    let taint = graph.propagate_up(&own);
    for (i, f) in graph.fns.iter().enumerate() {
        if f.is_test || taint[i] == 0 || !in_deterministic_crate(&f.file) {
            continue;
        }
        // Frontier only: a direct source, or a direct tainted callee
        // outside the deterministic crates.  Tainted deterministic
        // callees produce their own findings.
        let direct = own[i] != 0;
        let crossing: Vec<&(usize, usize)> = graph.edges[i]
            .iter()
            .filter(|&&(j, _)| taint[j] != 0 && !in_deterministic_crate(&graph.fns[j].file))
            .collect();
        if !direct && crossing.is_empty() {
            continue;
        }
        let mask = if direct {
            own[i]
        } else {
            crossing.iter().fold(0, |m, &&(j, _)| m | taint[j])
        };
        // Build the why path: walk the graph to a fn with its own
        // source, then name the source site.
        let mut why = Vec::new();
        if let Some(path) = graph.path_to(i, |j| own[j] != 0) {
            for &(fi, call_line) in &path {
                why.push(frame(graph, fi, call_line));
            }
            let (leaf, _) = *path.last().unwrap_or(&(i, 0));
            let (_, sites) = source_sites(&graph.fns[leaf].body);
            if let Some((kind, name, line)) = sites.first() {
                why.push(format!(
                    "source `{}` ({}) at {}:{}",
                    name,
                    kind_names(*kind),
                    graph.fns[leaf].file,
                    line
                ));
            }
        }
        let mut finding = Finding::new(
            Lint::DeterminismTaint,
            f.file.clone(),
            f.line,
            format!(
                "`{}` in a deterministic crate reaches a {} source; walks \
                 must be reproducible from the seed alone (--why for the path)",
                f.qual(),
                kind_names(mask)
            ),
        );
        finding.item = Some(f.qual());
        finding.why = why;
        findings.push(finding);
    }
}

/// Scans one body for panic sinks; returns (token, line) of each.
fn panic_sites(body: &[Tok]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if PANIC_MACROS.contains(&t.s.as_str()) && body.get(i + 1).is_some_and(|n| n.s == "!") {
            out.push((format!("{}!", t.s), t.line));
        }
        if t.s == "."
            && body
                .get(i + 1)
                .is_some_and(|n| PANIC_METHODS.contains(&n.s.as_str()))
            && body.get(i + 2).is_some_and(|n| n.s == "(")
        {
            out.push((format!(".{}()", body[i + 1].s), body[i + 1].line));
        }
    }
    out
}

fn panic_reachability(graph: &CallGraph, findings: &mut Vec<Finding>) {
    let roots = panic_roots(graph);
    if roots.is_empty() {
        return; // nothing to protect in this workspace
    }
    let reachable = graph.reachable(&roots, |_| true);
    for (i, f) in graph.fns.iter().enumerate() {
        if !reachable[i] || f.is_test {
            continue;
        }
        let sites = panic_sites(&f.body);
        let Some((tok, line)) = sites.first() else {
            continue;
        };
        // Path from the nearest root down to this fn, for --why.
        let mut why = Vec::new();
        for &r in &roots {
            if let Some(path) = graph.path_to(r, |j| j == i) {
                for &(fi, call_line) in &path {
                    why.push(frame(graph, fi, call_line));
                }
                break;
            }
        }
        why.push(format!(
            "panic site `{}` at {}:{} ({} site(s) in this fn)",
            tok,
            f.file,
            line,
            sites.len()
        ));
        let mut finding = Finding::new(
            Lint::PanicReachability,
            f.file.clone(),
            *line,
            format!(
                "`{}` in `{}` is reachable from the sample loops; hot paths \
                 must be panic-free (fix it or add a reason-carrying allow \
                 entry)",
                tok,
                f.qual()
            ),
        );
        finding.item = Some(f.qual());
        finding.why = why;
        findings.push(finding);
    }
}

fn rng_purity(graph: &CallGraph, findings: &mut Vec<Finding>) {
    for f in &graph.fns {
        if f.is_test || !in_deterministic_crate(&f.file) {
            continue;
        }
        let body = &f.body;
        for (i, t) in body.iter().enumerate() {
            if !RNG_CTORS.contains(&t.s.as_str()) || !seq_at(body, i + 1, &["::", "new", "("]) {
                continue;
            }
            // Argument token span: from the `(` to its match.
            let open = i + 3;
            let mut depth = 0usize;
            let mut end = open;
            for (k, a) in body.iter().enumerate().skip(open) {
                match a.s.as_str() {
                    "(" => depth += 1,
                    ")" => {
                        depth -= 1;
                        if depth == 0 {
                            end = k;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let args = &body[open + 1..end];
            let (ambient_mask, sites) = source_sites(args);
            let structured = args.iter().any(|a| {
                a.is_ident()
                    && (a.s.contains("seed")
                        || a.s == "split_stream"
                        || STRUCTURED_IDENTS.contains(&a.s.as_str())
                        || a.s.chars().next().is_some_and(|c| c.is_ascii_digit()))
            });
            let problem = if ambient_mask != 0 {
                let (kind, name, _) = &sites[0];
                Some(format!(
                    "is seeded from ambient `{}` ({})",
                    name,
                    kind_names(*kind)
                ))
            } else if !structured {
                Some(
                    "has no visible seed/epoch/partition/slot lineage; derive \
                     it from the run seed via split_stream"
                        .to_string(),
                )
            } else {
                None
            };
            if let Some(p) = problem {
                let mut finding = Finding::new(
                    Lint::RngPurity,
                    f.file.clone(),
                    t.line,
                    format!(
                        "RNG construction `{}::new` in `{}` {}; every stream \
                         must be a pure function of (seed, structured indices)",
                        t.s,
                        f.qual(),
                        p
                    ),
                );
                finding.item = Some(f.qual());
                finding.why = vec![
                    frame_raw(&f.file, f.line, &f.qual()),
                    format!("RNG constructed at {}:{}", f.file, t.line),
                ];
                findings.push(finding);
            }
        }
    }
}

fn frame_raw(file: &str, line: usize, qual: &str) -> String {
    format!("{file}:{line} fn {qual}")
}

/// Collects config-field reads in one body: `config.FIELD`, through
/// whole-config aliases (`let c = &self.config;`), and `self.config.F`.
fn config_reads(body: &[Tok], fields: &BTreeSet<String>) -> Vec<(String, usize)> {
    // Identifiers that denote the whole config.
    let mut roots: BTreeSet<&str> = BTreeSet::from(["config"]);
    for (i, t) in body.iter().enumerate() {
        if t.s != "config" {
            continue;
        }
        // `X = &self.config` / `X = &config` not followed by a field
        // projection aliases the whole config.
        let next_is_dot = body.get(i + 1).is_some_and(|n| n.s == ".");
        if next_is_dot {
            continue;
        }
        let alias = if i >= 4 && seq_at(body, i - 3, &["&", "self", "."]) && body[i - 4].s == "=" {
            (i >= 5).then(|| body[i - 5].s.as_str())
        } else if i >= 2 && body[i - 1].s == "&" && body[i - 2].s == "=" {
            (i >= 3).then(|| body[i - 3].s.as_str())
        } else {
            None
        };
        if let Some(a) = alias {
            if !a.is_empty() && a.chars().next().is_some_and(|c| c.is_alphabetic()) {
                roots.insert(a);
            }
        }
    }
    let mut reads = Vec::new();
    for (i, t) in body.iter().enumerate() {
        if !t.is_ident() || !roots.contains(t.s.as_str()) {
            continue;
        }
        if body.get(i + 1).is_some_and(|n| n.s == ".") {
            if let Some(fld) = body.get(i + 2) {
                if fields.contains(&fld.s) {
                    reads.push((fld.s.clone(), fld.line));
                }
            }
        }
    }
    reads
}

fn fingerprint_completeness(files: &[FileAst], graph: &CallGraph, findings: &mut Vec<Finding>) {
    // The WalkConfig field set, preferring the engine crate's definition.
    let config = files
        .iter()
        .flat_map(|f| f.structs.iter().map(move |s| (f, s)))
        .filter(|(_, s)| s.name == "WalkConfig" && !s.fields.is_empty())
        .max_by_key(|(f, _)| f.path.ends_with("flashmob/src/lib.rs"));
    let Some((_, config)) = config else {
        return;
    };
    let fields: BTreeSet<String> = config.fields.iter().cloned().collect();

    for (file_suffix, entry_prefix, fp_names) in ENGINES {
        let Some(engine_file) = graph.fns.iter().find(|f| f.file.ends_with(file_suffix)) else {
            continue; // engine not present in this workspace
        };
        let engine_crate = engine_file.crate_dir().to_string();
        let fp_idxs: Vec<usize> = graph
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.crate_dir() == engine_crate && fp_names.contains(&f.name.as_str()))
            .map(|(i, _)| i)
            .collect();
        if fp_idxs.is_empty() {
            continue;
        }
        let entries: Vec<usize> = graph
            .roots(file_suffix, entry_prefix)
            .into_iter()
            .filter(|i| !fp_idxs.contains(i))
            .collect();
        if entries.is_empty() {
            continue;
        }
        // The run path within the engine crate.
        let reach = graph.reachable(&entries, |j| graph.fns[j].crate_dir() == engine_crate);
        // Fields folded by the fingerprint fns.
        let mut folded: BTreeSet<String> = BTreeSet::new();
        for &i in &fp_idxs {
            for (fld, _) in config_reads(&graph.fns[i].body, &fields) {
                folded.insert(fld);
            }
        }
        // Fields read anywhere on the run path.
        let mut read_sites: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for (i, f) in graph.fns.iter().enumerate() {
            if !reach[i] || f.is_test || fp_idxs.contains(&i) {
                continue;
            }
            for (fld, line) in config_reads(&f.body, &fields) {
                read_sites.entry(fld).or_insert((i, line));
            }
        }
        let fp_main = fp_idxs[0];
        for (fld, (reader, line)) in &read_sites {
            if folded.contains(fld) {
                continue;
            }
            let rf = &graph.fns[*reader];
            let fpf = &graph.fns[fp_main];
            let mut finding = Finding::new(
                Lint::FingerprintCompleteness,
                fpf.file.clone(),
                fpf.line,
                format!(
                    "config field `{}` is read on the run path (fn `{}` at \
                     {}:{}) but never folded into `{}`; a resume under a \
                     different `{}` would pass validation and diverge",
                    fld,
                    rf.qual(),
                    rf.file,
                    line,
                    fpf.name,
                    fld
                ),
            );
            finding.item = Some(fld.clone());
            finding.why = vec![
                format!("config field `{fld}` read at {}:{} in fn {}", rf.file, line, rf.qual()),
                format!(
                    "fingerprint fn `{}` at {}:{} folds: {}",
                    fpf.name,
                    fpf.file,
                    fpf.line,
                    folded
                        .iter()
                        .map(String::as_str)
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ];
            findings.push(finding);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::strip_lines;
    use crate::parse::parse_file;

    fn analyze_files(files: &[(&str, &str)]) -> Vec<Finding> {
        let asts: Vec<FileAst> = files
            .iter()
            .map(|(p, s)| parse_file(p, &strip_lines(s)))
            .collect();
        analyze(&asts).0
    }

    fn lint_items(fs: &[Finding], lint: Lint) -> Vec<&str> {
        fs.iter()
            .filter(|f| f.lint == lint)
            .filter_map(|f| f.item.as_deref())
            .collect()
    }

    #[test]
    fn clock_two_calls_away_reaches_deterministic_crate() {
        let fs = analyze_files(&[
            (
                "crates/flashmob/src/lib.rs",
                "fn walk() { helper() }\n",
            ),
            (
                "crates/telemetry/src/lib.rs",
                "pub fn helper() { inner() }\npub fn inner() { let _ = std::time::SystemTime::now(); }\n",
            ),
        ]);
        let items = lint_items(&fs, Lint::DeterminismTaint);
        // Frontier: only `walk` (det crate) is reported, not the
        // telemetry helpers.
        assert_eq!(items, ["walk"]);
        let f = fs.iter().find(|f| f.lint == Lint::DeterminismTaint).unwrap();
        assert!(f.why.iter().any(|w| w.contains("SystemTime")), "{:?}", f.why);
    }

    #[test]
    fn deterministic_callers_above_the_frontier_are_not_repeated() {
        let fs = analyze_files(&[(
            "crates/rng/src/lib.rs",
            "pub fn top() { mid() }\npub fn mid() { let _ = std::time::SystemTime::now(); }\n",
        )]);
        let items = lint_items(&fs, Lint::DeterminismTaint);
        assert_eq!(items, ["mid"]);
    }

    #[test]
    fn hash_iteration_and_env_are_sources() {
        let fs = analyze_files(&[(
            "crates/graph/src/lib.rs",
            "use std::collections::HashMap;\nfn a() { let m: HashMap<u32, u32> = HashMap::new(); for _ in m.iter() {} }\nfn b() { let _ = std::env::var(\"X\"); }\n",
        )]);
        let items = lint_items(&fs, Lint::DeterminismTaint);
        assert!(items.contains(&"a") && items.contains(&"b"), "{items:?}");
    }

    #[test]
    fn non_deterministic_crates_may_use_clock() {
        let fs = analyze_files(&[(
            "crates/telemetry/src/lib.rs",
            "pub fn now() -> u64 { let _ = std::time::SystemTime::now(); 0 }\n",
        )]);
        assert!(fs.iter().all(|f| f.lint != Lint::DeterminismTaint));
    }

    #[test]
    fn unwrap_reachable_from_sample_loop_is_flagged() {
        let fs = analyze_files(&[(
            "crates/flashmob/src/sample.rs",
            "pub fn sample_partition() { step() }\nfn step() { helper().unwrap() }\nfn helper() -> Option<u32> { None }\n",
        )]);
        let items = lint_items(&fs, Lint::PanicReachability);
        assert_eq!(items, ["step"]);
        let f = fs.iter().find(|f| f.lint == Lint::PanicReachability).unwrap();
        assert!(f.why.iter().any(|w| w.contains("sample_partition")), "{:?}", f.why);
    }

    #[test]
    fn unreachable_panics_are_not_flagged() {
        let fs = analyze_files(&[(
            "crates/flashmob/src/sample.rs",
            "pub fn sample_partition() {}\nfn cold_path() { panic!(\"not reachable\") }\n",
        )]);
        assert!(fs.iter().all(|f| f.lint != Lint::PanicReachability));
    }

    #[test]
    fn rng_from_clock_is_impure() {
        let fs = analyze_files(&[(
            "crates/rng/src/lib.rs",
            "pub fn bad() { let _ = Xorshift64Star::new(std::time::SystemTime::now() as u64); }\n",
        )]);
        assert_eq!(lint_items(&fs, Lint::RngPurity), ["bad"]);
    }

    #[test]
    fn rng_from_seed_and_split_stream_is_pure() {
        let fs = analyze_files(&[(
            "crates/rng/src/lib.rs",
            "pub fn good(seed: u64, part: u64) { let _ = Xorshift64Star::new(split_stream(seed, part)); }\npub fn split_stream(seed: u64, index: u64) -> u64 { seed ^ index }\n",
        )]);
        assert!(fs.iter().all(|f| f.lint != Lint::RngPurity));
    }

    #[test]
    fn rng_without_lineage_is_unprovable() {
        let fs = analyze_files(&[(
            "crates/rng/src/lib.rs",
            "pub fn sus(mystery: u64) { let _ = SplitMix64::new(mystery); }\n",
        )]);
        let f = fs.iter().find(|f| f.lint == Lint::RngPurity).unwrap();
        assert!(f.msg.contains("no visible seed"));
    }

    #[test]
    fn missing_fingerprint_field_is_flagged() {
        let fs = analyze_files(&[(
            "crates/flashmob/src/engine.rs",
            "struct WalkConfig { alpha: f64, budget: usize }\n\
             struct E { config: WalkConfig }\n\
             impl E {\n\
                 fn run(&self) { let _ = self.config.alpha; let _ = self.config.budget; }\n\
                 fn config_tag(&self) -> u64 { let c = &self.config; c.alpha as u64 }\n\
             }\n",
        )]);
        assert_eq!(lint_items(&fs, Lint::FingerprintCompleteness), ["budget"]);
    }

    #[test]
    fn folded_fields_are_clean() {
        let fs = analyze_files(&[(
            "crates/flashmob/src/engine.rs",
            "struct WalkConfig { alpha: f64 }\n\
             struct E { config: WalkConfig }\n\
             impl E {\n\
                 fn run(&self) { let _ = self.config.alpha; }\n\
                 fn config_tag(&self) -> u64 { self.config.alpha as u64 }\n\
             }\n",
        )]);
        assert!(fs.iter().all(|f| f.lint != Lint::FingerprintCompleteness));
    }
}
