//! Workspace-wide call graph over the item parser's output.
//!
//! Name resolution is deliberately *conservative*:
//!
//! * free calls resolve within the defining file first, then the crate,
//!   then (via `use` aliases or bare-name fallback) the workspace;
//! * `Type::method(...)` calls resolve to every function of that name
//!   attached to a matching impl/trait, falling back to any function of
//!   that name in the workspace;
//! * `.method(...)` calls fan out to **every** method of that name in
//!   the workspace (trait dispatch cannot be resolved without types);
//! * macro invocations and calls that match nothing in the workspace
//!   are recorded as **open edges** — never silently dropped — so a
//!   report can say "this path ends in something we cannot see".
//!
//! Taint propagation runs callee→caller to a fixpoint (cycles are fine)
//! and the graph keeps per-edge call-site lines so `--why` can print an
//! actual offending call path.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{FileAst, Tok};

/// Keywords that look like calls when followed by `(` but are not.
const NOT_CALLS: [&str; 10] = [
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "else",
];

/// Method names shared with std types (Vec, slice, Option, Result,
/// str, Iterator, maps, io traits).  A `.name(` call with one of these
/// names almost always has a std receiver, so fanning out to every
/// same-named workspace method would wire unrelated code together
/// (e.g. `line.parse()` → a CLI argument parser).  They resolve to
/// open edges instead — recorded, never silently dropped.
const STD_METHODS: [&str; 52] = [
    "new", "clone", "fmt", "default", "expect", "unwrap", "unwrap_or", "unwrap_or_else",
    "unwrap_or_default", "map", "map_err", "and_then", "ok", "ok_or", "ok_or_else", "len",
    "is_empty", "next", "parse", "get", "get_mut", "insert", "remove", "push", "pop",
    "contains", "contains_key", "entry", "or_insert", "iter", "iter_mut", "into_iter",
    "collect", "extend", "append", "clear", "drain", "retain", "sort", "sort_by",
    "sort_by_key", "sort_unstable", "first", "last", "take", "write", "write_all", "read",
    "read_exact", "flush", "from", "into",
];

/// One function node in the workspace graph.
#[derive(Debug)]
pub struct FnNode {
    /// Workspace-relative file path.
    pub file: String,
    pub name: String,
    pub self_ty: Option<String>,
    pub has_self: bool,
    pub is_test: bool,
    pub line: usize,
    /// Body token stream (shared with the taint passes).
    pub body: Vec<Tok>,
}

impl FnNode {
    /// `crates/<name>` prefix of the defining file (or the root pkg).
    pub fn crate_dir(&self) -> &str {
        crate_dir_of(&self.file)
    }

    /// Display name: `file:line fn name` with the impl type if any.
    pub fn qual(&self) -> String {
        match &self.self_ty {
            Some(t) => format!("{}::{}", t, self.name),
            None => self.name.clone(),
        }
    }
}

pub fn crate_dir_of(file: &str) -> &str {
    if let Some(rest) = file.strip_prefix("crates/") {
        let end = rest.find('/').unwrap_or(rest.len());
        &file[.."crates/".len() + end]
    } else {
        "."
    }
}

/// A call the resolver could not bind to any workspace function.
#[derive(Debug)]
pub struct OpenEdge {
    pub caller: usize,
    /// The callee name as written (macro name for macro invocations).
    pub name: String,
    pub line: usize,
    pub is_macro: bool,
}

/// One resolved call edge: callee index + call-site line.
pub type Edge = (usize, usize);

#[derive(Debug, Default)]
pub struct CallGraph {
    pub fns: Vec<FnNode>,
    /// `edges[i]` = calls made by `fns[i]`, deduped by callee.
    pub edges: Vec<Vec<Edge>>,
    pub open_edges: Vec<OpenEdge>,
}

impl CallGraph {
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Indices of all functions matching a `(file suffix, name prefix)`
    /// root spec; an empty prefix matches every non-test fn in the file.
    pub fn roots(&self, file_suffix: &str, name_prefix: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test && f.file.ends_with(file_suffix) && f.name.starts_with(name_prefix)
            })
            .map(|(i, _)| i)
            .collect()
    }

    /// Forward reachability from `roots` (inclusive).
    pub fn reachable(&self, roots: &[usize]) -> Vec<bool> {
        let mut seen = vec![false; self.fns.len()];
        let mut stack: Vec<usize> = roots.to_vec();
        for &r in roots {
            seen[r] = true;
        }
        while let Some(i) = stack.pop() {
            for &(j, _) in &self.edges[i] {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen
    }

    /// Propagates per-function bitmasks callee→caller to a fixpoint.
    ///
    /// `own[i]` is the mask a function carries from its own body; the
    /// result additionally ORs in every transitive callee's mask.
    /// Cycles converge because masks only grow.
    pub fn propagate_up(&self, own: &[u32]) -> Vec<u32> {
        let mut taint = own.to_vec();
        // Reverse adjacency: who calls me.
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); self.fns.len()];
        for (i, es) in self.edges.iter().enumerate() {
            for &(j, _) in es {
                callers[j].push(i);
            }
        }
        let mut work: Vec<usize> = (0..self.fns.len()).filter(|&i| taint[i] != 0).collect();
        while let Some(i) = work.pop() {
            for &c in &callers[i] {
                let merged = taint[c] | taint[i];
                if merged != taint[c] {
                    taint[c] = merged;
                    work.push(c);
                }
            }
        }
        taint
    }

    /// Shortest call path from `from` to any function where `stop`
    /// holds, as `(fn index, call-site line into the next frame)`.
    pub fn path_to(&self, from: usize, stop: impl Fn(usize) -> bool) -> Option<Vec<Edge>> {
        if stop(from) {
            return Some(vec![(from, 0)]);
        }
        let mut prev: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::from([from]);
        let mut seen = vec![false; self.fns.len()];
        seen[from] = true;
        while let Some(i) = queue.pop_front() {
            for &(j, line) in &self.edges[i] {
                if seen[j] {
                    continue;
                }
                seen[j] = true;
                prev.insert(j, (i, line));
                if stop(j) {
                    // Reconstruct from j back to `from`.
                    let mut path = vec![(j, 0)];
                    let mut cur = j;
                    while let Some(&(p, line)) = prev.get(&cur) {
                        path.push((p, line));
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(j);
            }
        }
        None
    }
}

/// Builds the workspace call graph from parsed files.
pub fn build(files: &[FileAst]) -> CallGraph {
    let mut g = CallGraph::default();
    // Flatten functions and index them.
    for f in files {
        for d in &f.fns {
            g.fns.push(FnNode {
                file: f.path.clone(),
                name: d.name.clone(),
                self_ty: d.self_ty.clone(),
                has_self: d.has_self,
                is_test: d.is_test,
                line: d.line,
                body: d.body.clone(),
            });
        }
    }
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut methods: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_ty: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (i, f) in g.fns.iter().enumerate() {
        // Test-only fns are callers but never call *targets*: method
        // fan-out from lib code into a same-named test helper would
        // inject the helper's (legitimately relaxed) behaviour into
        // lib-path taint.
        if f.is_test {
            continue;
        }
        by_name.entry(&f.name).or_default().push(i);
        if f.has_self {
            methods.entry(&f.name).or_default().push(i);
        }
        if let Some(ty) = &f.self_ty {
            by_ty.entry((ty.as_str(), &f.name)).or_default().push(i);
        }
    }
    // Use-alias map per file: alias -> last path segment it names.
    let mut aliases: BTreeMap<&str, BTreeMap<&str, &str>> = BTreeMap::new();
    for f in files {
        let m = aliases.entry(f.path.as_str()).or_default();
        for u in &f.uses {
            if let Some(last) = u.segments.last() {
                m.insert(&u.alias, last);
            }
        }
    }

    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); g.fns.len()];
    let mut open = Vec::new();
    // fn index offset bookkeeping to find the defining file per fn.
    for (i, node) in g.fns.iter().enumerate() {
        let file_alias = aliases.get(node.file.as_str());
        let mut dedup: BTreeSet<usize> = BTreeSet::new();
        let body = &node.body;
        for (k, t) in body.iter().enumerate() {
            if !t.is_ident() || NOT_CALLS.contains(&t.s.as_str()) {
                continue;
            }
            let next = body.get(k + 1).map(|t| t.s.as_str());
            let prev = (k > 0).then(|| body[k - 1].s.as_str());
            // Macro invocation: `name ! (` / `name ! [` / `name ! {`.
            if next == Some("!") {
                if matches!(
                    body.get(k + 2).map(|t| t.s.as_str()),
                    Some("(") | Some("[") | Some("{")
                ) {
                    open.push(OpenEdge {
                        caller: i,
                        name: t.s.clone(),
                        line: t.line,
                        is_macro: true,
                    });
                }
                continue;
            }
            if next != Some("(") {
                continue;
            }
            // What kind of call?
            let targets: Vec<usize> = match prev {
                Some(".") => {
                    // Method call: fan out to every same-named method —
                    // except std-shadowed names, whose receivers are
                    // almost always std types (open edge below).
                    if STD_METHODS.contains(&t.s.as_str()) {
                        Vec::new()
                    } else {
                        methods.get(t.s.as_str()).cloned().unwrap_or_default()
                    }
                }
                Some("::") => {
                    // Qualified call `Qual::name(`: find the qualifier.
                    let qual = if k >= 2 { body[k - 2].s.as_str() } else { "" };
                    let qual = file_alias
                        .and_then(|m| m.get(qual).copied())
                        .unwrap_or(qual);
                    // `Self::name(` means the surrounding impl type.
                    let qual = if qual == "Self" {
                        node.self_ty.as_deref().unwrap_or(qual)
                    } else {
                        qual
                    };
                    let by_type = by_ty.get(&(qual, t.s.as_str())).cloned();
                    let type_like = qual.chars().next().is_some_and(|c| c.is_uppercase());
                    if type_like {
                        // A CamelCase qualifier names a type; if no
                        // workspace impl matches, the call targets
                        // external code (e.g. `Vec::new`) — open edge,
                        // not a fan-out to every same-named fn.
                        by_type.unwrap_or_default()
                    } else {
                        // Module-qualified path: fall back by name.
                        by_type
                            .or_else(|| by_name.get(t.s.as_str()).cloned())
                            .unwrap_or_default()
                    }
                }
                _ => {
                    // Free call: same file, then same crate, then the
                    // alias target, then any workspace fn of that name.
                    let name = file_alias
                        .and_then(|m| m.get(t.s.as_str()).copied())
                        .unwrap_or(t.s.as_str());
                    let cands = by_name.get(name).cloned().unwrap_or_default();
                    let same_file: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&j| g.fns[j].file == node.file)
                        .collect();
                    let same_crate: Vec<usize> = cands
                        .iter()
                        .copied()
                        .filter(|&j| g.fns[j].crate_dir() == node.crate_dir())
                        .collect();
                    if !same_file.is_empty() {
                        same_file
                    } else if !same_crate.is_empty() {
                        same_crate
                    } else {
                        cands
                    }
                }
            };
            if targets.is_empty() {
                open.push(OpenEdge {
                    caller: i,
                    name: t.s.clone(),
                    line: t.line,
                    is_macro: false,
                });
            } else {
                for j in targets {
                    if j != i && dedup.insert(j) {
                        edges[i].push((j, t.line));
                    }
                }
            }
        }
    }
    g.edges = edges;
    g.open_edges = open;
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::strip_lines;
    use crate::parse::parse_file;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let asts: Vec<FileAst> = files
            .iter()
            .map(|(p, s)| parse_file(p, &strip_lines(s)))
            .collect();
        build(&asts)
    }

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns.iter().position(|f| f.name == name).unwrap()
    }

    fn calls(g: &CallGraph, from: &str, to: &str) -> bool {
        let (i, j) = (idx(g, from), idx(g, to));
        g.edges[i].iter().any(|&(k, _)| k == j)
    }

    #[test]
    fn free_calls_resolve_in_file_then_crate() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "fn top() { helper() }\nfn helper() {}\n",
            ),
            ("crates/b/src/lib.rs", "fn helper() {}\n"),
        ]);
        assert!(calls(&g, "top", "helper"));
        // Only the same-file helper, not crate b's.
        let i = idx(&g, "top");
        assert_eq!(g.edges[i].len(), 1);
        assert_eq!(g.fns[g.edges[i][0].0].file, "crates/a/src/lib.rs");
    }

    #[test]
    fn cycles_converge_in_taint_propagation() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn a() { b() }\nfn b() { a(); c() }\nfn c() {}\n",
        )]);
        let mut own = vec![0u32; g.fns.len()];
        own[idx(&g, "c")] = 1;
        let t = g.propagate_up(&own);
        assert_eq!(t[idx(&g, "a")], 1);
        assert_eq!(t[idx(&g, "b")], 1);
    }

    #[test]
    fn trait_method_calls_fan_out_to_all_impls() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "trait T { fn m(&self); }\n\
             struct A; impl T for A { fn m(&self) {} }\n\
             struct B; impl T for B { fn m(&self) {} }\n\
             fn caller(x: &dyn T) { x.m() }\n",
        )]);
        let i = idx(&g, "caller");
        // The bare trait decl has no body; both impls are edges.
        let impls: Vec<&str> = g.edges[i]
            .iter()
            .map(|&(j, _)| g.fns[j].self_ty.as_deref().unwrap_or(""))
            .collect();
        assert!(impls.contains(&"A") && impls.contains(&"B"), "{impls:?}");
    }

    #[test]
    fn use_alias_resolves_renamed_calls() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "use crate::deep::original as renamed;\nfn top() { renamed() }\n",
            ),
            ("crates/b/src/deep.rs", "pub fn original() {}\n"),
        ]);
        assert!(calls(&g, "top", "original"));
    }

    #[test]
    fn qualified_calls_prefer_matching_impl_type() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "struct A; impl A { fn make() {} }\n\
             struct B; impl B { fn make() {} }\n\
             fn top() { A::make() }\n",
        )]);
        let i = idx(&g, "top");
        assert_eq!(g.edges[i].len(), 1);
        assert_eq!(g.fns[g.edges[i][0].0].self_ty.as_deref(), Some("A"));
    }

    #[test]
    fn macro_calls_become_open_edges() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn top() { mystery!(1, 2); vec![3]; }\n",
        )]);
        let names: Vec<&str> = g.open_edges.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"mystery"));
        assert!(names.contains(&"vec"));
        assert!(g.open_edges.iter().all(|e| e.is_macro));
    }

    #[test]
    fn unresolved_calls_become_open_edges_not_drops() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn top() { std::process::abort() }\n",
        )]);
        assert!(g
            .open_edges
            .iter()
            .any(|e| e.name == "abort" && !e.is_macro));
    }

    #[test]
    fn path_to_reconstructs_call_chain() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn a() {\n    b()\n}\nfn b() {\n    c()\n}\nfn c() {}\n",
        )]);
        let target = idx(&g, "c");
        let path = g.path_to(idx(&g, "a"), |i| i == target).unwrap();
        let names: Vec<&str> = path.iter().map(|&(i, _)| g.fns[i].name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        // Call-site lines point at the `b()` / `c()` calls.
        assert_eq!(path[0].1, 2);
        assert_eq!(path[1].1, 5);
    }

    #[test]
    fn test_fns_are_marked() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "fn lib() {}\n#[cfg(test)]\nmod t { fn helper() {} }\n",
        )]);
        assert!(!g.fns[idx(&g, "lib")].is_test);
        assert!(g.fns[idx(&g, "helper")].is_test);
    }
}
