//! Workspace-wide call graph over the item parser's output.
//!
//! Resolution is *conservative*: a call resolves by type where the
//! source states one, and by bare name only where it does not.
//!
//! * `.method(...)` on a typed receiver resolves to its type's fns.  A
//!   receiver is typed when it is `self` (the impl type), a binding
//!   whose type is stated (a fn or closure parameter `x: T` / `&T` /
//!   `&mut T`, `let x: T`, `let x = T { … }`), a field chain off either
//!   (`self.buffers`: the declared field type), or a dereference of one
//!   (`(**self)`).  Rebinding a name any other way untypes it.  A `let`
//!   types its names where its statement ends, so its initializer still
//!   sees the binding it shadows (`let x: T = x.m()` calls `m` on the
//!   old `x`).  A
//!   generic `P: Trait` (`<…>` or `where`, on the fn or its impl) and a
//!   `dyn`/`impl Trait` resolve to that trait's impls only;
//! * `.method(...)` on an untyped receiver — or on a type with no such
//!   fn of its own — fans out to **every** method of that name, except
//!   std-shadowed names ([`STD_METHODS`]);
//! * free calls resolve within the defining file first, then the crate,
//!   then (via `use` aliases or bare-name fallback) the workspace — but
//!   a name bound in scope (a parameter, a `let`, a closure parameter, a
//!   `for` pattern) shadows them all: `f(…)` on a local closure or fn
//!   value is an open edge, never a workspace fn of the same name.  A
//!   binding's scope ends with its brace block; a closure parameter's
//!   with the closure's braces, or the enclosing block's without them;
//! * `Type::method(...)` calls resolve to that type's fns; with none the
//!   call is external, while a module path falls back by name;
//! * a `const` / `static` item is a node whose body is its initializer,
//!   and a fn that names it has an edge to it (a flag table's setters
//!   are reached from the parser that reads the table);
//! * a free fn named as a value — a whole call argument, a match arm's
//!   result, a whole `let` initializer — has an edge from the fn that
//!   names it, which hands it to code that will call it (the skip
//!   kernel `reserve_range` passes to `reserve_on`).  A name in a
//!   pattern is not a value, and a value resolves within the caller's
//!   crate, or through a `use`, never by bare name across the
//!   workspace: outside call position a bare name is mostly a variable;
//! * a turbofish is part of the call: `name::<…>(`, `.name::<…>(` and
//!   `Type::<…>::name(` resolve as their plain forms;
//! * macro invocations and calls that match nothing in the workspace
//!   are recorded as **open edges** — never silently dropped — so a
//!   report can say "this path ends in something we cannot see".
//!
//! Taint propagation runs callee→caller to a fixpoint (cycles are fine)
//! and the graph keeps per-edge call-site lines so `--why` can print an
//! actual offending call path.

use std::collections::{BTreeMap, BTreeSet};

use crate::parse::{split_top, type_head, Bound, FileAst, FnDef, Tok};

/// Keywords that look like calls when followed by `(` but are not.
const NOT_CALLS: [&str; 11] = [
    "if", "while", "for", "match", "return", "loop", "fn", "move", "in", "else", "let",
];

/// Method names shared with std types (Vec, slice, Option, Result,
/// str, Iterator, maps, io traits).  On an untyped receiver such a call
/// almost always has a std receiver (`line.parse()`, an iterator's
/// `.count()`), so a fan-out to every same-named workspace method would
/// wire unrelated code together.  They resolve to open edges instead.
const STD_METHODS: [&str; 54] = [
    "new", "clone", "fmt", "default", "expect", "unwrap", "unwrap_or", "unwrap_or_else",
    "unwrap_or_default", "map", "map_err", "and_then", "ok", "ok_or", "ok_or_else", "len",
    "is_empty", "next", "parse", "get", "get_mut", "insert", "remove", "push", "pop",
    "contains", "contains_key", "entry", "or_insert", "iter", "iter_mut", "into_iter",
    "collect", "count", "sum", "extend", "append", "clear", "drain", "retain", "sort",
    "sort_by", "sort_by_key", "sort_unstable", "first", "last", "take", "write", "write_all",
    "read", "read_exact", "flush", "from", "into",
];

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
    /// Every parsed fn of the workspace, tests included.
    pub fns: Vec<FnDef>,
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

    /// Forward reachability from `roots` (inclusive), through the fns
    /// where `within` holds.
    pub fn reachable(&self, roots: &[usize], within: impl Fn(usize) -> bool) -> Vec<bool> {
        let mut seen = vec![false; self.fns.len()];
        let mut stack: Vec<usize> = roots.to_vec();
        for &r in roots {
            seen[r] = true;
        }
        while let Some(i) = stack.pop() {
            for &(j, _) in &self.edges[i] {
                if !seen[j] && within(j) {
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

type Targets<'a> = BTreeMap<(&'a str, &'a str), Vec<usize>>;

/// The workspace indexes a call resolves against.  Test-only fns are
/// callers but never call *targets*: fan-out from lib code into a
/// same-named test helper would inject the helper's (legitimately
/// relaxed) behaviour into lib-path taint.
#[derive(Default)]
struct Index<'a> {
    by_name: BTreeMap<&'a str, Vec<usize>>,
    /// Fns taking `self`, by name: an untyped receiver's fan-out.
    methods: BTreeMap<&'a str, Vec<usize>>,
    /// (impl type, or a trait for its own fns; name) → fns.
    by_ty: Targets<'a>,
    /// (trait, name) → the trait's own fn and every impl's.
    by_trait: Targets<'a>,
    /// (struct, field) → the head of the field's declared type.
    fields: BTreeMap<(&'a str, &'a str), &'a str>,
    /// `const` / `static` items by name: naming one is a call.
    consts: BTreeMap<&'a str, Vec<usize>>,
}

impl<'a> Index<'a> {
    fn new(files: &'a [FileAst]) -> Self {
        let mut ix = Index::default();
        let fns = files.iter().flat_map(|f| &f.fns).enumerate();
        for (i, d) in fns.filter(|(_, d)| !d.is_test) {
            let name = d.name.as_str();
            if d.is_const {
                ix.consts.entry(name).or_default().push(i);
                continue;
            }
            ix.by_name.entry(name).or_default().push(i);
            if d.has_self {
                ix.methods.entry(name).or_default().push(i);
            }
            if let Some(ty) = &d.self_ty {
                ix.by_ty.entry((ty, name)).or_default().push(i);
            }
            if let Some(tr) = &d.trait_name {
                ix.by_trait.entry((tr, name)).or_default().push(i);
            }
        }
        for s in files.iter().flat_map(|f| &f.structs) {
            let typed = s.fields.iter().zip(&s.field_types);
            ix.fields.extend(typed.filter_map(|(f, t)| Some(((&*s.name, &**f), t.as_deref()?))));
        }
        ix
    }

    /// The free fns a value named `name` in `caller` can be: those of
    /// its crate (its file's first), or the target of its `use` alias.
    fn fn_value(
        &self,
        defs: &[&FnDef],
        caller: &FnDef,
        alias: Option<&str>,
        name: &str,
    ) -> Vec<usize> {
        let free = |name| {
            let all = self.by_name.get(name).into_iter().flatten().copied();
            all.filter(|&j| defs[j].self_ty.is_none())
        };
        let cands: Vec<usize> = match alias {
            Some(target) => free(target).collect(),
            None => free(name).filter(|&j| defs[j].crate_dir() == caller.crate_dir()).collect(),
        };
        nearest(defs, caller, &cands)
    }

    /// Targets of the method call named at `body[k]`: by the receiver's
    /// type where the source states it and the type has the method,
    /// else every same-named method — except std-shadowed names.
    fn method(&self, env: &Env, body: &[Tok], k: usize) -> Vec<usize> {
        let name = body[k].s.as_str();
        let get = |map: &Targets, ty: &str| map.get(&(ty, name)).cloned().unwrap_or_default();
        let typed = k.checked_sub(2).and_then(|end| self.receiver(env, body, end));
        let bounds = |ty| env.generics.iter().find(|(p, _)| p == ty).map(|(_, b)| b);
        let targets = match typed.as_deref().map(|ty| (ty, bounds(ty))) {
            Some((_, Some(traits))) => traits.iter().flat_map(|t| get(&self.by_trait, t)).collect(),
            // A trait (`dyn T`, `impl T`) reaches its impls, a type its own fns.
            Some((ty, None)) => Some(get(&self.by_trait, ty))
                .filter(|t| !t.is_empty())
                .unwrap_or_else(|| get(&self.by_ty, ty)),
            None => Vec::new(),
        };
        if !targets.is_empty() || STD_METHODS.contains(&name) {
            return targets;
        }
        self.methods.get(name).cloned().unwrap_or_default()
    }

    /// The type head of the receiver ending at `body[end]`: `self`, a
    /// typed binding, or a field chain off either, maybe dereferenced.
    fn receiver(&self, env: &Env, body: &[Tok], mut end: usize) -> Option<String> {
        if body[end].s == ")" {
            end = end.checked_sub(1)?;
            let stars = body[..end].iter().rev().take_while(|t| t.s == "*").count();
            if stars == 0 || body[end.checked_sub(stars + 1)?].s != "(" {
                return None;
            }
        }
        let mut start = end;
        while start >= 2 && body[start - 1].s == "." && body[start - 2].is_ident() {
            start -= 2;
        }
        if !body[start].is_ident() || start > 0 && matches!(body[start - 1].s.as_str(), "." | "::") {
            return None;
        }
        let mut ty = match body[start].s.as_str() {
            "self" => env.self_ty?.to_string(),
            var => env.vars.get(var)?.clone(),
        };
        for field in body[start..=end].iter().skip(2).step_by(2) {
            ty = self.fields.get(&(ty.as_str(), field.s.as_str()))?.to_string();
        }
        Some(ty)
    }
}

/// What a fn's source states about the types of its bindings.
struct Env<'a> {
    self_ty: Option<&'a str>,
    /// Binding → type head: the parameters, then the body's bindings as
    /// they are read.
    vars: BTreeMap<&'a str, String>,
    /// Generic parameters in scope and the traits bounding them.
    generics: &'a [Bound],
    /// Every name bound in scope, typed or not: the brace depth its
    /// scope ends below, and the body token it is visible from (a `let`
    /// binding is not visible in its own initializer).
    locals: Vec<(&'a str, usize, usize)>,
    /// `let` statements read but not yet ended: the body token their
    /// statement ends at, their pattern, and the type it states.  Their
    /// names take the new type there, as they enter scope.
    lets: Vec<(usize, &'a [Tok], Option<String>)>,
    /// Brace depth of the token being read.
    depth: usize,
}

impl<'a> Env<'a> {
    /// Types `name` as `ty` (`Self` is the impl type), or untypes it.
    fn bind(&mut self, name: &'a str, ty: Option<String>) {
        let self_ty = self.self_ty.map(str::to_string);
        match ty.and_then(|t| if t == "Self" { self_ty } else { Some(t) }) {
            Some(t) => self.vars.insert(name, t),
            None => self.vars.remove(name),
        };
    }

    /// Binds each parameter `[mut] x: T`; any other name a parameter
    /// pattern binds is untyped.  Every name is local down to `depth`.
    fn bind_params(&mut self, params: &'a [Tok], depth: usize) {
        for param in split_top(params, ",") {
            self.untype(param);
            self.shadow(split_top(param, ":")[0], depth, 0);
            if let [name, colon, ty @ ..] = past_mut(param) {
                if colon.s == ":" {
                    self.bind(&name.s, type_head(ty));
                }
            }
        }
    }

    /// Records the names `pattern` binds as locals down to `depth`,
    /// visible from body token `from`: its lower-case identifiers, past
    /// `mut` / `ref` and path segments.
    fn shadow(&mut self, pattern: &'a [Tok], depth: usize, from: usize) {
        for (i, t) in pattern.iter().enumerate() {
            let path = |j: Option<usize>| {
                j.and_then(|j| pattern.get(j)).is_some_and(|n| n.s == "::")
            };
            let binds = t.s.starts_with(|c: char| c.is_lowercase() || c == '_')
                && !matches!(t.s.as_str(), "mut" | "ref" | "_")
                && !path(i.checked_sub(1))
                && !path(Some(i + 1));
            if binds {
                self.locals.push((&t.s, depth, from));
            }
        }
    }

    /// Is `name` a binding in scope at body token `k`, which a free call
    /// there cannot see past?
    fn is_local(&self, name: &str, k: usize) -> bool {
        self.locals.iter().any(|&(l, _, from)| l == name && from <= k)
    }

    /// Untypes every name in `pattern`.
    fn untype(&mut self, pattern: &[Tok]) {
        for t in pattern {
            self.vars.remove(t.s.as_str());
        }
    }

    /// Reads the binding that starts at `body[k]`, if one does: a
    /// closure's parameters, a `for` pattern, or a `let` — typed by a
    /// stated type or a struct literal, else untyping what it binds.
    fn read_binding(&mut self, body: &'a [Tok], k: usize) {
        let at = |i: usize| body.get(i).map_or("", |t| t.s.as_str());
        let until = |stop: fn(&str) -> bool| body[k + 1..].iter().position(|t| stop(&t.s));
        while let Some(i) = self.lets.iter().position(|&(from, ..)| from <= k) {
            let (_, pattern, ty) = self.lets.remove(i);
            self.untype(pattern);
            if let (Some(ty), [name, ..]) = (ty, past_mut(pattern)) {
                self.bind(&name.s, Some(ty));
            }
        }
        match at(k) {
            "{" => self.depth += 1,
            "}" => {
                self.depth = self.depth.saturating_sub(1);
                let depth = self.depth;
                self.locals.retain(|&(_, d, _)| d <= depth);
            }
            "|" if k == 0 || matches!(at(k - 1), "(" | "," | "=" | "{" | ";" | "move" | "=>") => {
                let end = until(|s| s == "|").map_or(k + 1, |p| k + 1 + p);
                // A braced closure body closes its parameters' scope.
                let braced = at(end + 1) == "{";
                self.bind_params(&body[k + 1..end], self.depth + usize::from(braced));
            }
            "for" => {
                let pattern = &body[k + 1..until(|s| s == "in").map_or(k + 1, |p| k + 1 + p)];
                self.untype(pattern);
                self.shadow(pattern, self.depth + 1, k);
            }
            "let" => {
                // The pattern (and type) end at the first `=` outside groups.
                let end = k + 1 + split_top(&body[k + 1..], "=")[0].len();
                let pattern = &body[k + 1..end];
                // Visible, and typed, once the statement ends: the
                // initializer still sees what the pattern shadows.
                let from = statement_end(body, k);
                self.shadow(split_top(pattern, ":")[0], self.depth, from);
                let ty = match past_mut(pattern) {
                    [_, colon, ty @ ..] if colon.s == ":" => type_head(ty),
                    // `let x = T { … }`: a struct literal states its type.
                    [_] if at(end + 2) == "{" && at(end + 1).starts_with(char::is_uppercase) => {
                        Some(at(end + 1).to_string())
                    }
                    _ => None,
                };
                self.lets.push((from, pattern, ty));
            }
            _ => {}
        }
    }
}

/// Index of the `;` that ends the statement at `body[k]` (the body's
/// length if none does).  Only `()`, `[]` and `{}` nest here: `<` and
/// `>` are also operators (`x >> 8`), and no `;` sits in a type.
fn statement_end(body: &[Tok], k: usize) -> usize {
    let mut depth = 0i64;
    for (i, t) in body.iter().enumerate().skip(k) {
        match t.s.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            ";" if depth == 0 => return i,
            _ => {}
        }
    }
    body.len()
}

/// A binding pattern past a leading `mut`.
fn past_mut(pat: &[Tok]) -> &[Tok] {
    match pat {
        [m, rest @ ..] if m.s == "mut" => rest,
        _ => pat,
    }
}

/// Index of the `<` or `>` that closes the angle group at `body[from]`,
/// searching forward (`step` 1) or back (`step` -1).
fn matching_angle(body: &[Tok], from: usize, step: isize) -> Option<usize> {
    let (mut depth, mut i) = (0i64, from);
    loop {
        depth += match body.get(i)?.s.as_str() {
            "<" => step as i64,
            ">" => -step as i64,
            _ => 0,
        };
        if depth == 0 {
            return Some(i);
        }
        i = i.checked_add_signed(step)?;
    }
}

/// Whether the bare name at `body[k]`, followed by `body[next]`, stands
/// as a value: a whole argument of a call, a match arm's result, or a
/// whole `let` initializer.  A name in a pattern (`let (a, b)`,
/// `Some(x) =>`, `|(a, b)|`) is none of these.
fn is_value(body: &[Tok], k: usize, next: usize) -> bool {
    let at = |i: usize| body.get(i).map_or("", |t| t.s.as_str());
    match at(k.wrapping_sub(1)) {
        "=>" => matches!(at(next), "," | "}"),
        // `let f = g;`, not `a == g;` or `a += g;`.
        "=" => at(next) == ";" && body.get(k.wrapping_sub(2)).is_some_and(Tok::is_ident),
        "(" | "," => matches!(at(next), "," | ")") && in_call_args(body, k),
        _ => false,
    }
}

/// Whether the innermost group around `body[k]` is the argument list of
/// a call: a `(` right after a lower-case callee name or a turbofish.
fn in_call_args(body: &[Tok], k: usize) -> bool {
    let mut depth = 0usize;
    for i in (0..k).rev() {
        match body[i].s.as_str() {
            ")" | "]" | "}" => depth += 1,
            "(" | "[" | "{" if depth > 0 => depth -= 1,
            "(" => {
                let callee = body.get(i.wrapping_sub(1));
                return callee.is_some_and(|c| {
                    let name = c.is_ident() && c.s.starts_with(|ch: char| ch.is_lowercase() || ch == '_');
                    c.s == ">" || name && !NOT_CALLS.contains(&c.s.as_str())
                });
            }
            "[" | "{" | ";" if depth == 0 => return false,
            _ => {}
        }
    }
    false
}

/// The qualifier of the path call named at `body[k]`: `Q` in `Q::name(`
/// and in `Q::<…>::name(`.
fn qualifier(body: &[Tok], k: usize) -> &str {
    let q = k.saturating_sub(2);
    let turbofish = (body[q].s == ">").then(|| matching_angle(body, q, -1)).flatten();
    match turbofish {
        Some(open) if open >= 2 && body[open - 1].s == "::" => &body[open - 2].s,
        _ => &body[q].s,
    }
}

/// The candidates `caller` sees first: those in its own file, else in
/// its crate, else all of them.
fn nearest(defs: &[&FnDef], caller: &FnDef, cands: &[usize]) -> Vec<usize> {
    let near = |same: &dyn Fn(&FnDef) -> bool| -> Vec<usize> {
        cands.iter().copied().filter(|&j| same(defs[j])).collect()
    };
    [near(&|d| d.file == caller.file), near(&|d| d.crate_dir() == caller.crate_dir())]
        .into_iter()
        .find(|v| !v.is_empty())
        .unwrap_or_else(|| cands.to_vec())
}

/// Builds the workspace call graph from parsed files.
pub fn build(files: &[FileAst]) -> CallGraph {
    let ix = Index::new(files);
    let defs: Vec<&FnDef> = files.iter().flat_map(|f| &f.fns).collect();
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

    let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); defs.len()];
    let mut open = Vec::new();
    for (i, node) in defs.iter().enumerate() {
        let file_alias = aliases.get(node.file.as_str());
        let (self_ty, generics) = (node.self_ty.as_deref(), &node.bounds[..]);
        let vars = BTreeMap::new();
        let (locals, lets) = (Vec::new(), Vec::new());
        let mut env = Env { self_ty, vars, generics, locals, lets, depth: 0 };
        env.bind_params(&node.params, 0);
        let mut dedup: BTreeSet<usize> = BTreeSet::new();
        let body = &node.body;
        let at = |i: usize| body.get(i).map_or("", |t| t.s.as_str());
        for (k, t) in body.iter().enumerate() {
            env.read_binding(body, k);
            if !t.is_ident() || NOT_CALLS.contains(&t.s.as_str()) {
                continue;
            }
            // A macro invocation `name!(` / `name![` / `name!{` is an
            // open edge; a call is `name(`, or `name::<…>(`.
            let is_macro = at(k + 1) == "!" && matches!(at(k + 2), "(" | "[" | "{");
            let args = match at(k + 1) {
                "::" if at(k + 2) == "<" => matching_angle(body, k + 2, 1).map_or(k, |c| c + 1),
                _ => k + 1,
            };
            let name = t.s.as_str();
            if !is_macro && at(args) != "(" {
                // Naming a `const` / `static` item (not a field of that
                // name) runs what its initializer calls; naming a free
                // fn as a value (an argument, a match arm, a `let`
                // initializer) hands it to code that will call it.
                let items = if at(k.wrapping_sub(1)) == "." || env.is_local(name, k) {
                    Vec::new()
                } else if let Some(items) = ix.consts.get(name) {
                    nearest(&defs, node, items)
                } else if is_value(body, k, args) {
                    ix.fn_value(&defs, node, file_alias.and_then(|m| m.get(name).copied()), name)
                } else {
                    Vec::new()
                };
                let fresh = items.into_iter().filter(|&j| j != i && dedup.insert(j));
                edges[i].extend(fresh.map(|j| (j, t.line)));
                continue;
            }
            let targets: Vec<usize> = match at(k.wrapping_sub(1)) {
                _ if is_macro => Vec::new(),
                "." => ix.method(&env, body, k),
                "::" => {
                    // `Qual::name(`; `Self::name(` is the impl type.
                    let qual = qualifier(body, k);
                    let qual = file_alias.and_then(|m| m.get(qual).copied()).unwrap_or(qual);
                    let qual = if qual == "Self" { node.self_ty.as_deref().unwrap_or(qual) } else { qual };
                    let by_type = ix.by_ty.get(&(qual, name)).cloned();
                    if qual.starts_with(char::is_uppercase) {
                        // A type with no such workspace fn is external
                        // (e.g. `Vec::new`): an open edge, not a fan-out
                        // to every same-named fn.
                        by_type.unwrap_or_default()
                    } else {
                        // Module-qualified path: fall back by name.
                        by_type.or_else(|| ix.by_name.get(name).cloned()).unwrap_or_default()
                    }
                }
                // A call to a closure or fn value bound in scope.
                _ if env.is_local(name, k) => Vec::new(),
                _ => {
                    // Free call: same file, then same crate, then the
                    // alias target, then any workspace fn of that name.
                    let name = file_alias.and_then(|m| m.get(name).copied()).unwrap_or(name);
                    nearest(&defs, node, ix.by_name.get(name).map_or(&[], Vec::as_slice))
                }
            };
            if targets.is_empty() {
                let (name, line) = (name.to_string(), t.line);
                open.push(OpenEdge { caller: i, name, line, is_macro });
            }
            for j in targets {
                if j != i && dedup.insert(j) {
                    edges[i].push((j, t.line));
                }
            }
        }
    }
    CallGraph {
        fns: defs.into_iter().cloned().collect(),
        edges,
        open_edges: open,
    }
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
    fn closure_params_and_derefs_keep_their_types() {
        let g = graph_of(&[(
            "crates/a/src/lib.rs",
            "trait P { fn step(&mut self); }\n\
             struct S; impl P for S { fn step(&mut self) {} }\n\
             struct B; impl B { fn step(&self) {} }\n\
             impl<Q: P> P for &mut Q { fn step(&mut self) { (**self).step() } }\n\
             fn drive<Q: P>(q: &mut Q) { run(|q: &mut Q| q.step()) }\n",
        )]);
        let targets = |from: &str| -> Vec<&str> {
            let i = g.fns.iter().position(|f| f.name == from).unwrap();
            g.edges[i].iter().map(|&(j, _)| g.fns[j].self_ty.as_deref().unwrap_or("")).collect()
        };
        assert!(!targets("drive").contains(&"B"), "{:?}", targets("drive"));
        assert!(targets("drive").contains(&"S"));
        let deref = g.fns.iter().position(|f| f.self_ty.as_deref() == Some("Q")).unwrap();
        assert!(g.edges[deref].iter().all(|&(j, _)| g.fns[j].self_ty.as_deref() != Some("B")));
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
