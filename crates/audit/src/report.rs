//! Report rendering: human-readable lines, a `--json` encoding, and a
//! schema check for the JSON output.
//!
//! Both JSON halves use the workspace's one JSON module,
//! [`fm_telemetry::json`]: the schema check parses the emitted document
//! with it and asserts the shape CI scripts rely on — required keys,
//! value types, and per-finding fields.  `fmwalk audit --json`
//! self-validates before printing, so a malformed report is an internal
//! error (exit 2), never something a consumer has to discover
//! downstream.

use fm_telemetry::json::{escape, parse, Value};

use crate::scan::AuditReport;

/// `path:line: [lint] message` lines plus a summary, rustc-style.
pub fn human(report: &AuditReport) -> String {
    let mut s = String::new();
    for f in &report.findings {
        if f.line > 0 {
            s.push_str(&format!("{}:{}: [{}] {}\n", f.path, f.line, f.lint.name(), f.msg));
        } else {
            s.push_str(&format!("{}: [{}] {}\n", f.path, f.lint.name(), f.msg));
        }
    }
    if report.ratchet_updated {
        s.push_str("audit: ratchet baseline rewritten from measured counts\n");
    }
    let g = &report.graph;
    s.push_str(&format!(
        "audit: call graph: {} fn(s), {} edge(s), {} open edge(s)\n",
        g.fns.len(), g.edge_count(), g.open_edges.len()
    ));
    s.push_str(&format!(
        "audit: {} file(s), {} unsafe site(s), {} finding(s)\n",
        report.files_scanned,
        report.unsafe_sites,
        report.findings.len()
    ));
    s
}

/// Renders the call paths (`--why`) for findings matching `query`:
/// a substring of the finding's path, item, or lint name.
pub fn why(report: &AuditReport, query: &str) -> String {
    let mut s = String::new();
    let mut hits = 0;
    // Live findings first, then exemptions: `--why` answers both "why
    // is this an error" and "why is this allowed".
    for f in report.findings.iter().chain(&report.shielded) {
        let hay_item = f.item.as_deref().unwrap_or("");
        if !f.path.contains(query) && !hay_item.contains(query) && f.lint.name() != query {
            continue;
        }
        hits += 1;
        s.push_str(&format!("[{}] {}:{}: {}\n", f.lint.name(), f.path, f.line, f.msg));
        if f.why.is_empty() {
            s.push_str("  (no call path: textual lint)\n");
        } else {
            for (i, frame) in f.why.iter().enumerate() {
                s.push_str(&format!("  {}{}\n", "  ".repeat(i), frame));
            }
        }
    }
    if hits == 0 {
        s.push_str(&format!("audit: no finding matches `{query}`\n"));
    }
    s
}

/// Machine-readable report for `fmwalk audit --json`.
pub fn json(report: &AuditReport) -> String {
    let mut s = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let item = match &f.item {
            Some(it) => format!("\"{}\"", escape(it)),
            None => "null".to_string(),
        };
        let why: Vec<String> = f.why.iter().map(|w| format!("\"{}\"", escape(w))).collect();
        s.push_str(&format!(
            "\n    {{\"lint\": \"{}\", \"path\": \"{}\", \"line\": {}, \"item\": {}, \"msg\": \"{}\", \"why\": [{}]}}",
            f.lint.name(),
            escape(&f.path),
            f.line,
            item,
            escape(&f.msg),
            why.join(", ")
        ));
    }
    if !report.findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"unwrap_counts\": {");
    for (i, (k, v)) in report.unwrap_counts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\n    \"{}\": {}", escape(k), v));
    }
    if !report.unwrap_counts.is_empty() {
        s.push_str("\n  ");
    }
    let g = &report.graph;
    s.push_str(&format!(
        "}},\n  \"graph\": {{\"functions\": {}, \"edges\": {}, \"open_edges\": {}}},\n",
        g.fns.len(), g.edge_count(), g.open_edges.len()
    ));
    s.push_str(&format!(
        "  \"files_scanned\": {},\n  \"unsafe_sites\": {},\n  \"clean\": {}\n}}\n",
        report.files_scanned,
        report.unsafe_sites,
        report.clean()
    ));
    s
}

/// Validates `--json` output against the report schema.  Returns the
/// first shape violation, or `Ok(())` for a conforming document.
pub fn validate_json(text: &str) -> Result<(), String> {
    let doc = parse(text)?;
    let need = |key: &str| doc.get(key).ok_or_else(|| format!("missing key `{key}`"));
    let findings = need("findings")?
        .as_arr()
        .ok_or("`findings` is not an array")?;
    for (i, f) in findings.iter().enumerate() {
        let ctx = |k: &str| format!("findings[{i}].{k}");
        for key in ["lint", "path", "msg"] {
            match f.get(key).and_then(Value::as_str) {
                Some("") => return Err(format!("{} is empty", ctx(key))),
                Some(_) => {}
                None => return Err(format!("{} missing or not a string", ctx(key))),
            }
        }
        if !is_count(f.get("line")) {
            return Err(format!(
                "{} missing or not a non-negative integer",
                ctx("line")
            ));
        }
        if !matches!(f.get("item"), Some(Value::Str(_) | Value::Null)) {
            return Err(format!("{} missing or not string|null", ctx("item")));
        }
        match f.get("why").and_then(Value::as_arr) {
            Some(ws) if ws.iter().all(|w| w.as_str().is_some()) => {}
            _ => return Err(format!("{} missing or not an array of strings", ctx("why"))),
        }
    }
    match need("unwrap_counts")? {
        Value::Obj(kvs) if kvs.iter().all(|(_, v)| v.as_num().is_some()) => {}
        _ => return Err("`unwrap_counts` is not an object of numbers".to_string()),
    }
    let graph = need("graph")?;
    if !matches!(graph, Value::Obj(_)) {
        return Err("`graph` is not an object".to_string());
    }
    for key in ["functions", "edges", "open_edges"] {
        if !is_count(graph.get(key)) {
            return Err(format!("graph.{key} missing or not an integer"));
        }
    }
    for key in ["files_scanned", "unsafe_sites"] {
        if !is_count(Some(need(key)?)) {
            return Err(format!("`{key}` is not a non-negative integer"));
        }
    }
    match need("clean")? {
        Value::Bool(c) if *c == findings.is_empty() => Ok(()),
        Value::Bool(_) => Err("`clean` contradicts the findings array".to_string()),
        _ => Err("`clean` is not a bool".to_string()),
    }
}

/// Is `v` a number holding a non-negative integer?
fn is_count(v: Option<&Value>) -> bool {
    v.and_then(Value::as_num)
        .is_some_and(|n| n >= 0.0 && n.fract() == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::{Finding, Lint};

    fn finding() -> Finding {
        let mut f = Finding::new(
            Lint::DeterminismTaint,
            "a \"b\".rs".to_string(),
            3,
            "x\ny".to_string(),
        );
        f.item = Some("walk".to_string());
        f.why = vec!["frame \"one\"".to_string(), "frame two".to_string()];
        f
    }

    #[test]
    fn json_escapes_and_reports_clean_flag() {
        let mut r = AuditReport::default();
        assert!(json(&r).contains("\"clean\": true"));
        r.findings.push(finding());
        let j = json(&r);
        assert!(j.contains("a \\\"b\\\".rs"));
        assert!(j.contains("x\\ny"));
        assert!(j.contains("\"item\": \"walk\""));
        assert!(j.contains("frame two"));
        assert!(j.contains("\"clean\": false"));
    }

    #[test]
    fn json_output_passes_schema_check() {
        let mut r = AuditReport::default();
        assert!(validate_json(&json(&r)).is_ok());
        r.findings.push(finding());
        r.unwrap_counts.insert("crates/x".to_string(), 3);
        let ast = crate::parse::parse_file("a.rs", &crate::lex::strip_lines("fn a() { b() }"));
        r.graph = crate::callgraph::build(&[ast]);
        let j = json(&r);
        validate_json(&j).unwrap();
    }

    #[test]
    fn schema_check_rejects_malformed_documents() {
        assert!(validate_json("{").is_err());
        assert!(validate_json("{}").is_err());
        assert!(validate_json(
            "{\"findings\": [{\"lint\": \"x\"}], \"unwrap_counts\": {}, \"graph\": null, \"files_scanned\": 0, \"unsafe_sites\": 0, \"clean\": true}"
        )
        .is_err());
        // line must be an integer, not a string.
        assert!(validate_json(
            "{\"findings\": [{\"lint\": \"x\", \"path\": \"p\", \"line\": \"3\", \"item\": null, \"msg\": \"m\", \"why\": []}], \"unwrap_counts\": {}, \"graph\": null, \"files_scanned\": 0, \"unsafe_sites\": 0, \"clean\": true}"
        )
        .is_err());
        // The call graph always runs, so `graph` must be an object.
        assert!(validate_json(
            "{\"findings\": [], \"unwrap_counts\": {}, \"graph\": null, \"files_scanned\": 0, \"unsafe_sites\": 0, \"clean\": true}"
        )
        .is_err());
    }

    #[test]
    fn why_renders_call_paths_for_matching_findings() {
        let mut r = AuditReport::default();
        r.findings.push(finding());
        let w = why(&r, "walk");
        assert!(w.contains("frame \"one\""));
        assert!(w.contains("frame two"));
        assert!(why(&r, "nothing-matches").contains("no finding matches"));
    }
}
