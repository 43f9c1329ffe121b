//! The project lint catalogue, applied per file on the lexer's output.
//!
//! Every lint is a token-level rule over [`crate::lex::Line`] records.
//! The catalogue (see DESIGN.md §9 for rationale):
//!
//! * `unsafe-needs-safety` — every `unsafe` block / `unsafe impl` must
//!   carry a `SAFETY:` comment within the four preceding lines (or on
//!   the same line); every `unsafe fn` must carry either a `# Safety`
//!   doc section or a `SAFETY:` comment.  Applies everywhere, including
//!   tests and benches — unsound test code is still unsound.
//! * `thread-discipline` — `thread::spawn` / `thread::scope` /
//!   `thread::Builder` are forbidden outside the worker pool and the
//!   checkpoint writer (allowlisted), so all parallelism flows through
//!   the pool the disjointness checker instruments.
//! * `raw-file-io` — `File::open` / `File::create` / `OpenOptions` are
//!   forbidden outside the graph IO layer and the recover retry layer
//!   (allowlisted), so data-path IO cannot bypass fault injection.
//! * `determinism-taint` / `panic-reachability` / `rng-purity` /
//!   `fingerprint-completeness` — the flow-aware lints, defined in
//!   [`crate::taint`] over the call graph ([`crate::callgraph`]) rather
//!   than per line.  `determinism-taint`: clock / entropy / env-var /
//!   hash-order sources must not *reach* a deterministic crate, not
//!   merely appear in one.
//! * `narrowing-cast` — narrowing `as` casts are forbidden in
//!   `recover/src/wire.rs` and `crc.rs`: snapshot decoding must use
//!   checked conversions so corrupt length fields cannot wrap.
//! * `unwrap-ratchet` — library `.unwrap()` / `.expect(` counts per
//!   crate are held by `audit/ratchet.toml` and may only decrease
//!   (checked in [`crate::ratchet`], counted here).
//! * `prefetch-intrinsic` — architectural prefetch intrinsics
//!   (`core::arch` / `std::arch` / `_mm_prefetch`) are confined to the
//!   graph crate's prefetch module (`graph/src/prefetch.rs`); everything
//!   else must call its `prefetch_read` wrapper (the sample ring
//!   re-exports it) so hint behavior stays auditable in one place.
//!
//! Lint checks other than `unsafe-needs-safety` skip the lines the item
//! parser classifies as test code ([`FileAst::test_lines`]): files under
//! `tests/`, `benches/`, `examples/`, and `#[test]` / `#[cfg(test)]`
//! items.

use crate::lex::{has_token, strip_lines, Line};
use crate::parse::{parse_file, FileAst};

/// Stable lint identifiers (kebab-case, used in reports and allowlists).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    UnsafeNeedsSafety,
    ThreadDiscipline,
    RawFileIo,
    NarrowingCast,
    UnwrapRatchet,
    StaleAllow,
    PrefetchIntrinsic,
    /// Flow-aware: wall-clock / entropy / env-var /
    /// hash-iteration-order sources must not reach the deterministic
    /// crates, transitively.
    DeterminismTaint,
    /// Flow-aware: no panic/unwrap/expect reachable from the PS/DS/
    /// ring/oocore sample loops without an allow-listed exemption.
    PanicReachability,
    /// Flow-aware: RNG construction sites must flow from the seed plus
    /// structured indices, never from an ambient source.
    RngPurity,
    /// Flow-aware: every `WalkConfig` field the engine run path reads
    /// must be folded into the checkpoint config fingerprint.
    FingerprintCompleteness,
}

impl Lint {
    pub const ALL: [Lint; 11] = [
        Lint::UnsafeNeedsSafety,
        Lint::ThreadDiscipline,
        Lint::RawFileIo,
        Lint::NarrowingCast,
        Lint::UnwrapRatchet,
        Lint::StaleAllow,
        Lint::PrefetchIntrinsic,
        Lint::DeterminismTaint,
        Lint::PanicReachability,
        Lint::RngPurity,
        Lint::FingerprintCompleteness,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Lint::UnsafeNeedsSafety => "unsafe-needs-safety",
            Lint::ThreadDiscipline => "thread-discipline",
            Lint::RawFileIo => "raw-file-io",
            Lint::NarrowingCast => "narrowing-cast",
            Lint::UnwrapRatchet => "unwrap-ratchet",
            Lint::StaleAllow => "stale-allow",
            Lint::PrefetchIntrinsic => "prefetch-intrinsic",
            Lint::DeterminismTaint => "determinism-taint",
            Lint::PanicReachability => "panic-reachability",
            Lint::RngPurity => "rng-purity",
            Lint::FingerprintCompleteness => "fingerprint-completeness",
        }
    }

    pub fn from_name(s: &str) -> Option<Lint> {
        Lint::ALL.into_iter().find(|l| l.name() == s)
    }
}

/// One scanner finding, pointing at a source line.
#[derive(Debug, Clone)]
pub struct Finding {
    pub lint: Lint,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    pub msg: String,
    /// Item-level anchor for flow findings (function or field name),
    /// used by `item`-scoped allow entries and `--why` queries.
    pub item: Option<String>,
    /// The offending call path, one human-readable frame per entry
    /// (flow-aware lints only; printed by `fmwalk audit --why`).
    pub why: Vec<String>,
}

impl Finding {
    pub fn new(lint: Lint, path: impl Into<String>, line: usize, msg: impl Into<String>) -> Self {
        Finding {
            lint,
            path: path.into(),
            line,
            msg: msg.into(),
            item: None,
            why: Vec::new(),
        }
    }
}

/// Scanner output for a single file.
#[derive(Debug, Default)]
pub struct FileScan {
    pub findings: Vec<Finding>,
    /// `.unwrap()` / `.expect(` sites in library (non-test) code.
    pub unwrap_count: usize,
    /// Total `unsafe` keyword sites seen (inventory, not findings).
    pub unsafe_sites: usize,
    /// The file's item skeleton, for the flow passes.
    pub ast: FileAst,
}

/// Crates whose walk results must be bit-reproducible from a seed.
/// Used by the flow-aware determinism-taint pass ([`crate::taint`]).
pub const DETERMINISTIC_CRATES: [&str; 8] = [
    "crates/graph",
    "crates/rng",
    "crates/mckp",
    "crates/memsim",
    "crates/flashmob",
    "crates/baseline",
    "crates/conformance",
    "crates/recover",
];

/// Files where narrowing `as` casts are forbidden outright.
const CAST_FREE_FILES: [&str; 2] = ["crates/recover/src/wire.rs", "crates/recover/src/crc.rs"];

/// The only file allowed to touch architectural prefetch intrinsics.
const PREFETCH_HOME: &str = "crates/graph/src/prefetch.rs";

const THREAD_TOKENS: [&str; 3] = ["thread::spawn", "thread::scope", "thread::Builder"];
const FILE_TOKENS: [&str; 3] = ["File::open", "File::create", "OpenOptions"];
const NARROWING_TOKENS: [&str; 8] = [
    "as u8", "as u16", "as u32", "as usize", "as i8", "as i16", "as i32", "as isize",
];
const PREFETCH_TOKENS: [&str; 3] = ["core::arch", "std::arch", "_mm_prefetch"];

/// How many lines above an `unsafe` site a `SAFETY:` comment may sit.
const SAFETY_WINDOW: usize = 4;

/// Classifies an `unsafe` token's syntactic role by what follows it.
#[derive(PartialEq)]
enum UnsafeKind {
    Fn,
    Impl,
    Block,
}

/// Finds `unsafe` sites on a code line; returns their kinds.
fn unsafe_sites_on(code: &str, next_code: &str) -> Vec<UnsafeKind> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(pos) = code[start..].find("unsafe") {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + "unsafe".len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            let rest = code[after..].trim_start();
            let rest = if rest.is_empty() {
                next_code.trim_start()
            } else {
                rest
            };
            let kind = if rest.starts_with("fn") || rest.starts_with("extern") {
                UnsafeKind::Fn
            } else if rest.starts_with("impl") || rest.starts_with("trait") {
                UnsafeKind::Impl
            } else {
                UnsafeKind::Block
            };
            out.push(kind);
        }
        start = after;
    }
    out
}

/// True if any comment in the window `[i-SAFETY_WINDOW, i]` says SAFETY.
fn safety_comment_near(lines: &[Line], i: usize) -> bool {
    let lo = i.saturating_sub(SAFETY_WINDOW);
    lines[lo..=i].iter().any(|l| l.comment.contains("SAFETY"))
}

/// True if the doc-comment block directly above line `i` has `# Safety`.
fn safety_doc_above(lines: &[Line], i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let code = l.code.trim();
        let is_attr = code.starts_with("#[") || code.starts_with("#!");
        if !code.is_empty() && !is_attr {
            return false; // hit real code before any Safety doc
        }
        if l.comment.contains("# Safety") || l.comment.contains("SAFETY") {
            return true;
        }
        if code.is_empty() && l.comment.is_empty() {
            return false; // blank line ends the doc block
        }
    }
    false
}

/// Lexes and parses one file once, then runs every lint over it.
/// `path` is workspace-relative.
pub fn scan_file(path: &str, src: &str) -> FileScan {
    let lines = strip_lines(src);
    let ast = parse_file(path, &lines);
    let cast_free = CAST_FREE_FILES.contains(&path);

    let mut scan = FileScan::default();
    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        let code = &line.code;

        // unsafe-needs-safety: applies everywhere, tests included.
        let next_code = lines.get(i + 1).map(|l| l.code.as_str()).unwrap_or("");
        for kind in unsafe_sites_on(code, next_code) {
            scan.unsafe_sites += 1;
            let ok = match kind {
                UnsafeKind::Fn => safety_doc_above(&lines, i) || safety_comment_near(&lines, i),
                UnsafeKind::Impl | UnsafeKind::Block => safety_comment_near(&lines, i),
            };
            if !ok {
                let what = match kind {
                    UnsafeKind::Fn => "unsafe fn needs a `# Safety` doc section",
                    UnsafeKind::Impl => "unsafe impl needs a `SAFETY:` comment",
                    UnsafeKind::Block => {
                        "unsafe block needs a `SAFETY:` comment naming its invariant"
                    }
                };
                scan.findings.push(Finding::new(
                    Lint::UnsafeNeedsSafety,
                    path,
                    lineno,
                    what,
                ));
            }
        }

        if ast.test_lines[i] {
            continue; // remaining lints are library-code rules
        }

        for tok in THREAD_TOKENS {
            if code.contains(tok) {
                scan.findings.push(Finding::new(
                    Lint::ThreadDiscipline,
                    path,
                    lineno,
                    format!(
                        "`{tok}` outside the worker pool / checkpoint writer; \
                         route parallelism through fm-pool so the disjointness \
                         checker sees it"
                    ),
                ));
            }
        }

        for tok in FILE_TOKENS {
            if code.contains(tok) {
                scan.findings.push(Finding::new(
                    Lint::RawFileIo,
                    path,
                    lineno,
                    format!(
                        "raw `{tok}` outside graph/io.rs and the recover retry \
                         layer; data-path IO must stay fault-injectable"
                    ),
                ));
            }
        }

        // One finding per line is enough.
        let prefetch = PREFETCH_TOKENS.into_iter().find(|tok| code.contains(tok));
        if let Some(tok) = prefetch.filter(|_| path != PREFETCH_HOME) {
            scan.findings.push(Finding::new(
                Lint::PrefetchIntrinsic,
                path,
                lineno,
                format!(
                    "`{tok}` outside the graph prefetch module; call \
                     fm_graph::prefetch::prefetch_read instead of raw \
                     architectural intrinsics"
                ),
            ));
        }

        if cast_free {
            for tok in NARROWING_TOKENS {
                if has_token(code, tok) {
                    scan.findings.push(Finding::new(
                        Lint::NarrowingCast,
                        path,
                        lineno,
                        format!(
                            "narrowing `{tok}` in a snapshot codec; use \
                             checked conversions (try_from / to_le_bytes)"
                        ),
                    ));
                }
            }
        }

        scan.unwrap_count += code.matches(".unwrap()").count() + code.matches(".expect(").count();
    }
    scan.ast = ast;
    scan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lints_of(path: &str, src: &str) -> Vec<Lint> {
        scan_file(path, src).findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn unsafe_block_without_safety_flagged() {
        let src = "fn f(p: *mut u8) {\n    let x = unsafe { *p };\n}\n";
        assert_eq!(lints_of("crates/x/src/a.rs", src), vec![Lint::UnsafeNeedsSafety]);
    }

    #[test]
    fn unsafe_block_with_safety_passes() {
        let src = "fn f(p: *mut u8) {\n    // SAFETY: p is valid for reads.\n    let x = unsafe { *p };\n}\n";
        assert!(lints_of("crates/x/src/a.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_skips_library_lints() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let f = std::fs::File::open(\"x\"); let _ = f.unwrap(); }\n}\n";
        let scan = scan_file("crates/x/src/a.rs", src);
        assert!(scan.findings.is_empty());
        assert_eq!(scan.unwrap_count, 0);
    }

    #[test]
    fn unwrap_counted_outside_tests_only() {
        let src = "fn lib() { x.unwrap(); y.expect(\"msg\"); }\n";
        assert_eq!(scan_file("crates/x/src/a.rs", src).unwrap_count, 2);
        // unwrap_or and friends do not count.
        let src2 = "fn lib() { x.unwrap_or(0); y.unwrap_or_else(f); }\n";
        assert_eq!(scan_file("crates/x/src/a.rs", src2).unwrap_count, 0);
    }

    #[test]
    fn narrowing_cast_only_in_named_files() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(
            lints_of("crates/recover/src/wire.rs", src),
            vec![Lint::NarrowingCast]
        );
        assert!(lints_of("crates/recover/src/manifest.rs", src).is_empty());
        // Widening casts are fine even in the codec files.
        let widen = "fn f(x: u8) -> u64 { x as u64 }\n";
        assert!(lints_of("crates/recover/src/crc.rs", widen).is_empty());
    }

    #[test]
    fn string_literals_do_not_trip_lints() {
        let src = "fn f() { let s = \"unsafe File::create thread::spawn\"; let _ = s; }\n";
        assert!(lints_of("crates/x/src/a.rs", src).is_empty());
    }
}
