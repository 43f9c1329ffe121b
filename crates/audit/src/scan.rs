//! Workspace walker: lexes, parses and lints every `.rs` file once, runs
//! the flow-aware graph passes over the parsed workspace, filters
//! through the allowlist, and checks the unwrap ratchet.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::allow::Allowlist;
use crate::lints::{scan_file, Finding};
use crate::ratchet::Ratchet;
use crate::taint::{self, GraphStats};

/// Knobs for one audit run.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunOptions {
    /// Rewrite `audit/ratchet.toml` from measured counts instead of
    /// checking it.
    pub update_ratchet: bool,
}

/// Everything one audit run produced.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Violations after allowlist filtering, sorted by (path, line).
    pub findings: Vec<Finding>,
    /// Findings an allow.toml entry shielded, each annotated with the
    /// entry's reason.  Not errors — kept so `--why` can explain why an
    /// exemption exists.
    pub shielded: Vec<Finding>,
    /// Library unwrap/expect sites per crate (the ratchet metric).
    pub unwrap_counts: BTreeMap<String, usize>,
    /// Total `unsafe` keyword sites inventoried across the workspace.
    pub unsafe_sites: usize,
    pub files_scanned: usize,
    /// Call-graph size counters.
    pub graph: GraphStats,
    /// Set when `--update-ratchet` rewrote the baseline.
    pub ratchet_updated: bool,
}

impl AuditReport {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs the full audit over the workspace at `root`.
///
/// Reads `audit/allow.toml` (optional) and `audit/ratchet.toml`
/// (optional; absence flags every crate with unwrap sites).  Each file
/// is lexed and parsed once ([`scan_file`]); the four flow-aware lints
/// then run over the workspace call graph.  Errors are IO/config
/// problems, not lint findings.
pub fn run(root: &Path, opts: RunOptions) -> Result<AuditReport, String> {
    if !root.join("Cargo.toml").exists() {
        return Err(format!(
            "{} does not look like a workspace root (no Cargo.toml)",
            root.display()
        ));
    }
    let files = collect_rs_files(root)?;
    let mut report = AuditReport::default();
    let mut raw_findings = Vec::new();
    let mut asts = Vec::with_capacity(files.len());
    for rel in &files {
        let text = fs::read_to_string(root.join(rel))
            .map_err(|e| format!("read {rel}: {e}"))?;
        let scan = scan_file(rel, &text);
        raw_findings.extend(scan.findings);
        report.unsafe_sites += scan.unsafe_sites;
        if scan.unwrap_count > 0 {
            *report
                .unwrap_counts
                .entry(crate_key(rel).to_string())
                .or_insert(0) += scan.unwrap_count;
        }
        report.files_scanned += 1;
        asts.push(scan.ast);
    }
    let (flow_findings, stats) = taint::analyze(&asts);
    raw_findings.extend(flow_findings);
    report.graph = stats;

    let allow_path = root.join("audit/allow.toml");
    let allowlist = if allow_path.exists() {
        let text = fs::read_to_string(&allow_path).map_err(|e| format!("read allow.toml: {e}"))?;
        Allowlist::parse(&text)?
    } else {
        Allowlist::default()
    };
    (report.findings, report.shielded) = allowlist.apply(raw_findings);

    let ratchet_path = root.join("audit/ratchet.toml");
    if opts.update_ratchet {
        let ratchet = Ratchet {
            counts: report.unwrap_counts.clone(),
        };
        fs::create_dir_all(root.join("audit"))
            .map_err(|e| format!("create audit/: {e}"))?;
        fs::write(&ratchet_path, ratchet.to_toml())
            .map_err(|e| format!("write ratchet.toml: {e}"))?;
        report.ratchet_updated = true;
    } else {
        let ratchet = if ratchet_path.exists() {
            let text =
                fs::read_to_string(&ratchet_path).map_err(|e| format!("read ratchet.toml: {e}"))?;
            Ratchet::parse(&text)?
        } else {
            Ratchet::default()
        };
        report.findings.extend(ratchet.check(&report.unwrap_counts));
    }

    report
        .findings
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

/// Crate key for ratchet grouping: `crates/<name>`, or the root package.
fn crate_key(rel: &str) -> &str {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let end = rest.find('/').unwrap_or(rest.len());
        &rel[.."crates/".len() + end]
    } else {
        "flashmob-repro"
    }
}

/// All `.rs` files under the workspace's source trees, workspace-relative
/// and sorted.  Skips `target/` and fm-audit's own lint fixtures (they
/// violate on purpose).
fn collect_rs_files(root: &Path) -> Result<Vec<String>, String> {
    let mut crate_dirs: Vec<PathBuf> = vec![root.to_path_buf()];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut subs: Vec<PathBuf> = fs::read_dir(&crates)
            .map_err(|e| format!("read_dir crates/: {e}"))?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        subs.sort();
        crate_dirs.extend(subs);
    }
    let mut files = Vec::new();
    for dir in crate_dirs {
        for sub in ["src", "tests", "benches", "examples"] {
            let d = dir.join(sub);
            if d.is_dir() {
                walk_rs(&d, &mut files)?;
            }
        }
    }
    let mut rels: Vec<String> = files
        .into_iter()
        .filter_map(|p| {
            let rel = p
                .strip_prefix(root)
                .ok()?
                .to_string_lossy()
                .replace('\\', "/");
            (!rel.contains("audit/tests/fixtures")).then_some(rel)
        })
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries.filter_map(|e| e.ok()) {
        let p = entry.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}
