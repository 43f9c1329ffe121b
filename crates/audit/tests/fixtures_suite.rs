//! Fixture-driven scanner tests: one positive + one negative fixture
//! per lint (mini-workspaces for the flow-aware lints), a seeded bad
//! workspace where every lint must fire, and a whole-repo scan that
//! must stay clean (the same gate ci.sh runs).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use fm_audit::allow::Allowlist;
use fm_audit::lints::{scan_file, Finding, Lint};
use fm_audit::ratchet::Ratchet;
use fm_audit::scan::{run, AuditReport, RunOptions};

fn fixture_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

fn fixture(rel: &str) -> String {
    let p = fixture_path(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
}

fn lints_of(path: &str, src: &str) -> Vec<Lint> {
    scan_file(path, src).findings.iter().map(|f| f.lint).collect()
}

/// (fixture dir, lint, synthetic path the lint applies at).
const RS_CASES: [(&str, Lint, &str); 5] = [
    (
        "unsafe_needs_safety",
        Lint::UnsafeNeedsSafety,
        "crates/x/src/a.rs",
    ),
    (
        "thread_discipline",
        Lint::ThreadDiscipline,
        "crates/x/src/a.rs",
    ),
    ("raw_file_io", Lint::RawFileIo, "crates/x/src/a.rs"),
    (
        "narrowing_cast",
        Lint::NarrowingCast,
        "crates/recover/src/wire.rs",
    ),
    (
        "prefetch_intrinsic",
        Lint::PrefetchIntrinsic,
        "crates/x/src/a.rs",
    ),
];

/// (fixture workspace dir, the flow lint it exercises, the items its
/// fail half must each be flagged at).
const FLOW_CASES: [(&str, Lint, &[&str]); 14] = [
    ("flow/determinism_taint", Lint::DeterminismTaint, &[]),
    ("flow/panic_reach", Lint::PanicReachability, &[]),
    ("flow/rng_purity", Lint::RngPurity, &[]),
    ("flow/fingerprint", Lint::FingerprintCompleteness, &[]),
    // One per receiver-typing rule, and turbofish calls: the fail half
    // reaches each listed panicking fn through a typed receiver (or a
    // turbofish), and the pass half reaches none of the same-named
    // panicking decoys that bare-name resolution would.
    ("flow/typed_self", Lint::PanicReachability, &["Hot::pick"]),
    ("flow/typed_field", Lint::PanicReachability, &["Buffers::pick"]),
    (
        "flow/typed_param",
        Lint::PanicReachability,
        &["ByValue::pick", "ByRef::pick", "ByMut::pick"],
    ),
    (
        "flow/typed_let",
        Lint::PanicReachability,
        &["Annotated::drain", "Literal::drain"],
    ),
    ("flow/typed_generic", Lint::PanicReachability, &["Sim::step"]),
    ("flow/turbofish", Lint::PanicReachability, &["pick", "Buffer::peek"]),
    // A binding in scope shadows workspace fns for free calls, and only
    // in scope: the fail half calls each panicking fn past its shadow.
    ("flow/local_shadow", Lint::PanicReachability, &["snapshot", "pick"]),
    // A const item's initializer is scanned, and naming the item is a
    // call: the fail half's root reaches a setter's panicking callee.
    ("flow/const_table", Lint::PanicReachability, &["halve"]),
    // A free fn named as a value (an argument, a match arm, a `let`
    // initializer) is a call: the fail half hands each panicking fn on.
    ("flow/fn_value", Lint::PanicReachability, &["halve", "third", "quarter"]),
    // `let x: T = x.m()` calls `m` on the shadowed `x`; `T` holds from
    // the statement's end.
    ("flow/let_shadow", Lint::PanicReachability, &["Raw::ready"]),
];

#[test]
fn every_fail_fixture_is_caught() {
    for (dir, lint, path) in RS_CASES {
        let found = lints_of(path, &fixture(&format!("{dir}/fail.rs")));
        assert!(
            found.contains(&lint),
            "{dir}/fail.rs must trip {}; got {found:?}",
            lint.name()
        );
    }
}

#[test]
fn every_pass_fixture_is_clean() {
    for (dir, _lint, path) in RS_CASES {
        let found = lints_of(path, &fixture(&format!("{dir}/pass.rs")));
        assert!(found.is_empty(), "{dir}/pass.rs must be clean; got {found:?}");
    }
}

#[test]
fn every_flow_fail_fixture_is_caught() {
    for (dir, lint, items) in FLOW_CASES {
        let report = run(&fixture_path(&format!("{dir}/fail")), RunOptions::default()).unwrap();
        let fired: Vec<&str> = report.findings.iter().map(|f| f.lint.name()).collect();
        assert!(
            fired.contains(&lint.name()),
            "{dir}/fail must trip {}; fired: {fired:?}",
            lint.name()
        );
        for item in items {
            assert!(
                report.findings.iter().any(|f| f.item.as_deref() == Some(item)),
                "{dir}/fail must flag {item}; got {:?}",
                report.findings
            );
        }
        // Every flow finding must carry a printable call path and an
        // item anchor for allow.toml scoping.
        for f in report.findings.iter().filter(|f| f.lint == lint) {
            assert!(!f.why.is_empty(), "{dir}: finding without why: {f:?}");
            assert!(f.item.is_some(), "{dir}: finding without item: {f:?}");
        }
    }
}

#[test]
fn every_flow_pass_fixture_is_clean() {
    for (dir, lint, _) in FLOW_CASES {
        let report = run(&fixture_path(&format!("{dir}/pass")), RunOptions::default()).unwrap();
        let fired: Vec<&str> = report.findings.iter().map(|f| f.lint.name()).collect();
        assert!(
            report.clean(),
            "{dir}/pass must be clean of {}; fired: {fired:?}",
            lint.name()
        );
        assert!(!report.graph.fns.is_empty(), "{dir}/pass parsed no functions");
    }
}

#[test]
fn type_aliases_are_not_fns() {
    // `type X = fn(…) -> …;` once parsed as a fn item named `(`.
    let ast = scan_file("crates/x/src/a.rs", &fixture("type_alias/aliases.rs")).ast;
    let names: Vec<String> = ast.fns.iter().map(|f| f.qual()).collect();
    assert_eq!(names, ["apply", "Walk::step", "u64::step", "halve"]);
    let body: Vec<&str> = ast.fns[0].body.iter().map(|t| t.s.as_str()).collect();
    assert_eq!(body, ["set", "(", "x", ",", "c", ")"]);
}

#[test]
fn unwrap_ratchet_fixtures() {
    let baseline = Ratchet::parse("[unwrap_ratchet]\n\"crates/x\" = 2\n").unwrap();
    let count = |src: &str| scan_file("crates/x/src/a.rs", src).unwrap_count;

    let mut pass = BTreeMap::new();
    pass.insert("crates/x".to_string(), count(&fixture("unwrap_ratchet/pass.rs")));
    assert!(baseline.check(&pass).is_empty(), "pass.rs matches baseline");

    let mut fail = BTreeMap::new();
    fail.insert("crates/x".to_string(), count(&fixture("unwrap_ratchet/fail.rs")));
    let findings = baseline.check(&fail);
    assert_eq!(findings.len(), 1, "fail.rs exceeds the baseline");
    assert_eq!(findings[0].lint, Lint::UnwrapRatchet);
}

#[test]
fn stale_allow_fixtures() {
    let real = Finding::new(
        Lint::RawFileIo,
        "crates/x/src/io.rs".to_string(),
        1,
        "raw io".to_string(),
    );
    // pass.toml shields the finding: nothing left, nothing stale.
    let pass = Allowlist::parse(&fixture("stale_allow/pass.toml")).unwrap();
    let (kept, shielded) = pass.apply(vec![real.clone()]);
    assert!(kept.is_empty());
    assert_eq!(shielded.len(), 1);
    // fail.toml shields nothing: the finding survives AND the entry is
    // reported stale.
    let fail = Allowlist::parse(&fixture("stale_allow/fail.toml")).unwrap();
    let (out, shielded) = fail.apply(vec![real]);
    assert!(shielded.is_empty());
    assert_eq!(out.len(), 2);
    assert!(out.iter().any(|f| f.lint == Lint::StaleAllow));
    assert!(out.iter().any(|f| f.lint == Lint::RawFileIo));
}

#[test]
fn bad_workspace_trips_every_lint() {
    let report = run(&fixture_path("bad_ws"), RunOptions::default()).unwrap();
    let fired: Vec<&str> = report.findings.iter().map(|f| f.lint.name()).collect();
    for lint in [
        Lint::UnsafeNeedsSafety,
        Lint::ThreadDiscipline,
        Lint::RawFileIo,
        Lint::NarrowingCast,
        Lint::UnwrapRatchet,
        Lint::PrefetchIntrinsic,
        Lint::DeterminismTaint,
        Lint::PanicReachability,
        Lint::RngPurity,
        Lint::FingerprintCompleteness,
    ] {
        assert!(
            fired.contains(&lint.name()),
            "bad_ws must trip {}; fired: {fired:?}",
            lint.name()
        );
    }
    assert!(!report.clean());
}

#[test]
fn bad_workspace_why_paths_reach_the_seeded_sites() {
    // `--why` must reproduce a full call path for the seeded flow
    // violations: the panic paths walk sample_partition → hot_pick,
    // sample_partition → Stage::drain (a typed receiver) and
    // sample_partition → skip_chain (a fn handed on by value), and the
    // taint path names the ambient source.
    let report = run(&fixture_path("bad_ws"), RunOptions::default()).unwrap();
    let panic = report
        .findings
        .iter()
        .find(|f| f.lint == Lint::PanicReachability)
        .expect("panic finding");
    let path = panic.why.join("\n");
    assert!(path.contains("sample_partition"), "{path}");
    assert!(path.contains("hot_pick"), "{path}");
    assert!(path.contains("panic site"), "{path}");
    let drain = report
        .findings
        .iter()
        .find(|f| f.item.as_deref() == Some("Stage::drain"))
        .expect("typed-receiver panic finding");
    let path = drain.why.join("\n");
    assert!(path.contains("fn sample_partition (call at line"), "{path}");
    let by_value = report
        .findings
        .iter()
        .find(|f| f.item.as_deref() == Some("skip_chain"))
        .expect("fn-value panic finding");
    let path = by_value.why.join("\n");
    assert!(path.contains("fn sample_partition (call at line"), "{path}");
    let taint = report
        .findings
        .iter()
        .find(|f| f.lint == Lint::DeterminismTaint)
        .expect("taint finding");
    assert!(taint.why.iter().any(|w| w.contains("SystemTime")), "{:?}", taint.why);
    let fp = report
        .findings
        .iter()
        .find(|f| f.lint == Lint::FingerprintCompleteness)
        .expect("fingerprint finding");
    assert_eq!(fp.item.as_deref(), Some("budget"));
}

#[test]
fn bad_workspace_json_conforms_to_schema() {
    let report = run(&fixture_path("bad_ws"), RunOptions::default()).unwrap();
    let json = fm_audit::report::json(&report);
    fm_audit::report::validate_json(&json).expect("bad_ws json conforms");
}

/// The whole-workspace scan, run once per test binary and timed: the
/// two tests below assert different things about the same scan.
fn workspace_scan() -> &'static (AuditReport, Duration) {
    static SCAN: OnceLock<(AuditReport, Duration)> = OnceLock::new();
    SCAN.get_or_init(|| {
        // Two levels up from crates/audit is the workspace root.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let start = Instant::now();
        let report = run(&root, RunOptions::default()).expect("scan workspace");
        (report, start.elapsed())
    })
}

#[test]
fn the_repo_itself_audits_clean() {
    // The acceptance gate ci.sh runs as `fmwalk audit`: every exemption
    // must be allowlisted with a reason and the ratchet baseline must
    // match reality.
    let (report, _) = workspace_scan();
    let rendered = fm_audit::report::human(report);
    assert!(report.clean(), "workspace audit must be clean:\n{rendered}");
    assert!(report.unsafe_sites > 0, "inventory must see the unsafe sites");
    let g = &report.graph;
    assert!(g.fns.len() > 100, "call graph too small: {} fns", g.fns.len());
    assert!(g.edge_count() > 100, "call graph too sparse: {} edges", g.edge_count());
}

#[test]
fn the_sample_loops_reach_what_they_run_and_nothing_else() {
    // Receivers resolve by type, turbofish calls are calls and a fn
    // named as a value is called, so the panic roots reach the
    // out-of-core stepping loop (a typed `stepper.drain(…)`), the
    // partition-stream hints (a turbofish call) and the reserved
    // generations' skip kernels (`checked_chain`, handed to
    // `reserve_on` by value), and not the same-named methods of other
    // types.  The
    // snapshot's pre-sample export is the in-memory checkpoint's, which
    // no sample loop takes: `run_ooc_with`'s `snapshot(…)` is a local
    // closure, not `EpochState::snapshot`.
    let g = &workspace_scan().0.graph;
    let reach = g.reachable(&fm_audit::taint::panic_roots(g), |_| true);
    let reached = |qual: &str| (0..g.fns.len()).any(|i| reach[i] && g.fns[i].qual() == qual);
    for qual in ["Stepper::drain", "hint_partition", "checked_chain", "wide_chain"] {
        assert!(reached(qual), "no sample loop reaches {qual}");
    }
    for qual in ["Baseline::step", "Shuffler::count", "EpochState::snapshot", "PsBuffers::export"] {
        assert!(!reached(qual), "a sample loop reaches {qual}");
    }
}

#[test]
fn the_cli_flag_tables_call_their_setters() {
    // The setters are called from the const flag tables, which the
    // parser names; no type alias parses as a fn.
    let g = &workspace_scan().0.graph;
    let args = |name: &str| g.roots("crates/cli/src/args.rs", name);
    for setter in ["on", "pattern", "strategy", "engine"] {
        let callee = args(setter).into_iter().find(|&i| g.fns[i].name == setter);
        let callee = callee.unwrap_or_else(|| panic!("no fn {setter} in args.rs"));
        let callers: Vec<String> = (0..g.fns.len())
            .filter(|&i| g.edges[i].iter().any(|&(j, _)| j == callee))
            .map(|i| g.fns[i].qual())
            .collect();
        assert!(callers.iter().any(|c| c.ends_with("_FLAGS")), "{setter} called by {callers:?}");
    }
    let flags = args("WALK_FLAGS");
    assert!(
        (0..g.fns.len()).any(|i| g.edges[i].iter().any(|&(j, _)| flags.contains(&j))),
        "nothing names WALK_FLAGS"
    );
    assert!(g.fns.iter().all(|f| f.name != "("), "a type alias parsed as a fn");
}

#[test]
fn full_graph_scan_fits_the_wall_budget() {
    // Lex, parse, call graph and all the lints over the whole workspace
    // must stay cheap enough for every CI tier, even unoptimized.
    let (report, elapsed) = workspace_scan();
    assert!(report.files_scanned > 50, "scan saw {} files", report.files_scanned);
    assert!(
        *elapsed < Duration::from_secs(30),
        "workspace audit took {elapsed:?}; budget is 30s (debug build)"
    );
}
