//! An in-tree Rust *item* parser — fn/impl/trait/struct/use/mod items
//! with bodies kept as token streams, not a full grammar.
//!
//! The flow-aware lints ([`crate::taint`]) need to know which functions
//! exist, which impl/trait they belong to, what their bodies call, and
//! which struct fields a body reads.  None of that needs expression
//! parsing: a token stream per body plus item boundaries is enough, and
//! it keeps the crate free of external deps (no `syn`).  The tokenizer
//! reads the lexer's [`Line`]s — the same ones the textual lints read, so
//! each file is lexed once — with comments and literal contents already
//! gone, so token matches can never hit a string.
//!
//! The parser is also the one test-code classifier: [`FileAst::test_lines`]
//! marks the lines of `#[test]` / `#[cfg(test)]` items (and of whole
//! tests/benches/examples files), which the textual lints skip.
//!
//! Soundness stance: the parser is a *conservative over-approximation*.
//! Anything it cannot classify (macros, `macro_rules!` bodies, stray
//! braces) is skipped structurally but surfaces later as an *open edge*
//! in the call graph rather than being silently dropped.

use crate::lex::Line;

/// One code token: an identifier/number, or a punctuation run.
///
/// Multi-character operators that matter for item parsing (`::`, `->`,
/// `=>`) are kept as single tokens; everything else is one char.
#[derive(Debug, Clone, PartialEq)]
pub struct Tok {
    pub s: String,
    /// 1-based source line.
    pub line: usize,
}

impl Tok {
    fn new(s: impl Into<String>, line: usize) -> Self {
        Tok { s: s.into(), line }
    }

    /// Is this token an identifier (or number) rather than punctuation?
    pub fn is_ident(&self) -> bool {
        self.s
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

/// Splits the code channel of `lines` into tokens with line numbers.
fn tokenize(lines: &[Line]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        let chars: Vec<char> = line.code.chars().collect();
        let mut j = 0;
        while j < chars.len() {
            let c = chars[j];
            if c.is_whitespace() {
                j += 1;
            } else if c.is_alphanumeric() || c == '_' {
                let start = j;
                while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                    j += 1;
                }
                out.push(Tok::new(chars[start..j].iter().collect::<String>(), lineno));
            } else {
                let next = chars.get(j + 1).copied();
                let two = match (c, next) {
                    (':', Some(':')) => Some("::"),
                    ('-', Some('>')) => Some("->"),
                    ('=', Some('>')) => Some("=>"),
                    _ => None,
                };
                if let Some(t) = two {
                    out.push(Tok::new(t, lineno));
                    j += 2;
                } else {
                    out.push(Tok::new(c.to_string(), lineno));
                    j += 1;
                }
            }
        }
    }
    out
}

/// One parsed function (free fn, impl method, or trait method).
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// The impl'd type (for `impl T` methods) or trait name (for
    /// default trait methods / trait declarations).
    pub self_ty: Option<String>,
    /// Trait name when inside `impl Trait for Type` or `trait Trait`.
    pub trait_name: Option<String>,
    /// Does the signature take any form of `self`?
    pub has_self: bool,
    /// Test code: `#[test]` / `#[cfg(test)]` attributes, a `#[cfg(test)]`
    /// module, or a tests/benches/examples file.
    pub is_test: bool,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameter-list tokens (between the signature parens).
    pub params: Vec<Tok>,
    /// Body token stream (empty for bodyless trait declarations).
    pub body: Vec<Tok>,
}

/// One parsed `struct` with named fields (tuple structs keep no fields).
#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    pub fields: Vec<String>,
    pub line: usize,
}

/// One `use` alias: the local name and the path segments it expands to.
#[derive(Debug, Clone)]
pub struct UseAlias {
    pub alias: String,
    pub segments: Vec<String>,
}

/// Everything the item parser extracted from one file.
#[derive(Debug, Default)]
pub struct FileAst {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    pub fns: Vec<FnDef>,
    pub structs: Vec<StructDef>,
    pub uses: Vec<UseAlias>,
    /// Per source line (index = line - 1): is it test code?  Set for the
    /// whole file on a test path, else for every item from its test
    /// attribute to its last token.
    pub test_lines: Vec<bool>,
}

/// Item-level modifier keywords that may precede `fn` / `struct` / etc.
const MODIFIERS: [&str; 7] = ["pub", "const", "async", "unsafe", "extern", "default", "crate"];

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at(&self, s: &str) -> bool {
        self.peek().is_some_and(|t| t.s == s)
    }

    /// Skips a balanced `open … close` group, assuming `open` is next.
    fn skip_group(&mut self, open: &str, close: &str) {
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            if t.s == open {
                depth += 1;
            } else if t.s == close {
                depth -= 1;
                if depth == 0 {
                    return;
                }
            }
        }
    }

    /// Collects a balanced brace group's *interior* tokens.
    fn collect_braces(&mut self) -> Vec<Tok> {
        let mut depth = 0usize;
        let mut out = Vec::new();
        while let Some(t) = self.bump() {
            if t.s == "{" {
                depth += 1;
                if depth == 1 {
                    continue;
                }
            } else if t.s == "}" {
                depth -= 1;
                if depth == 0 {
                    return out;
                }
            }
            out.push(t);
        }
        out
    }

    /// Skips generic params `<...>` if present (angle-bracket counting;
    /// item headers cannot contain shift operators).
    fn skip_generics(&mut self) {
        if !self.at("<") {
            return;
        }
        let mut depth = 0i64;
        while let Some(t) = self.bump() {
            match t.s.as_str() {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// Consumes an attribute `#[...]` / `#![...]`; returns true if it
    /// mentions `test` (covers `#[test]` and `#[cfg(test)]`).
    fn eat_attr(&mut self) -> bool {
        self.bump(); // '#'
        if self.at("!") {
            self.bump();
        }
        let mut is_test = false;
        if self.at("[") {
            let mut depth = 0usize;
            while let Some(t) = self.bump() {
                if t.s == "[" {
                    depth += 1;
                } else if t.s == "]" {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t.s == "test" {
                    is_test = true;
                }
            }
        }
        is_test
    }
}

/// Is this path test/bench/example code by location?
fn is_test_path(path: &str) -> bool {
    path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
        || path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
}

/// Parses one lexed file into its item skeleton.  A file under
/// `tests/`, `benches/` or `examples/` is test code throughout.
pub fn parse_file(path: &str, lines: &[Line]) -> FileAst {
    let path_is_test = is_test_path(path);
    let mut ast = FileAst {
        path: path.to_string(),
        test_lines: vec![path_is_test; lines.len()],
        ..FileAst::default()
    };
    let mut p = Parser {
        toks: tokenize(lines),
        pos: 0,
    };
    parse_items(&mut p, &mut ast, path_is_test, None, None);
    ast
}

/// Closes the item the parser just consumed: if a test attribute (first
/// seen on line `test_attr`) was pending, marks its lines as test code.
fn end_item(p: &Parser, ast: &mut FileAst, test_attr: &mut Option<usize>) {
    if let (Some(from), Some(last)) = (test_attr.take(), p.toks[..p.pos].last()) {
        ast.test_lines[from - 1..last.line].fill(true);
    }
}

/// Parses items until EOF or an unmatched `}` (the caller's close).
fn parse_items(
    p: &mut Parser,
    ast: &mut FileAst,
    in_test: bool,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
) {
    // Line of a pending `#[test]` / `#[cfg(test)]` attribute: the next
    // item is test code.
    let mut test_attr: Option<usize> = None;
    while let Some(t) = p.peek() {
        let (s, line) = (t.s.clone(), t.line);
        let attr_test = test_attr.is_some();
        match s.as_str() {
            "}" => {
                p.bump();
                return;
            }
            "#" => {
                if p.eat_attr() {
                    test_attr.get_or_insert(line);
                }
            }
            "use" => {
                parse_use(p, ast);
                end_item(p, ast, &mut test_attr);
            }
            "mod" => {
                p.bump();
                p.bump(); // module name
                if p.at("{") {
                    p.bump();
                    parse_items(p, ast, in_test || attr_test, None, None);
                } else {
                    p.bump(); // ';'
                }
                end_item(p, ast, &mut test_attr);
            }
            "struct" => {
                parse_struct(p, ast);
                end_item(p, ast, &mut test_attr);
            }
            "enum" | "union" => {
                p.bump();
                p.bump(); // name
                p.skip_generics();
                while let Some(t) = p.peek() {
                    match t.s.as_str() {
                        "{" => {
                            p.skip_group("{", "}");
                            break;
                        }
                        ";" => {
                            p.bump();
                            break;
                        }
                        _ => {
                            p.bump();
                        }
                    }
                }
                end_item(p, ast, &mut test_attr);
            }
            "impl" => {
                parse_impl(p, ast, in_test || attr_test);
                end_item(p, ast, &mut test_attr);
            }
            "trait" => {
                p.bump();
                let name = p.bump().map(|t| t.s).unwrap_or_default();
                // Skip generics / supertrait bounds up to the body.
                while let Some(t) = p.peek() {
                    match t.s.as_str() {
                        "{" => break,
                        ";" => {
                            p.bump();
                            break;
                        }
                        "<" => p.skip_generics(),
                        _ => {
                            p.bump();
                        }
                    }
                }
                if p.at("{") {
                    p.bump();
                    parse_items(p, ast, in_test || attr_test, Some(&name), Some(&name));
                }
                end_item(p, ast, &mut test_attr);
            }
            "fn" => {
                parse_fn(p, ast, in_test || attr_test, self_ty, trait_name);
                end_item(p, ast, &mut test_attr);
            }
            "macro_rules" => {
                // `macro_rules! name { ... }` — skip the whole body;
                // call sites of the macro become open edges instead.
                p.bump();
                if p.at("!") {
                    p.bump();
                }
                p.bump(); // macro name
                if p.at("{") {
                    p.skip_group("{", "}");
                } else if p.at("(") {
                    p.skip_group("(", ")");
                    if p.at(";") {
                        p.bump();
                    }
                }
                end_item(p, ast, &mut test_attr);
            }
            "{" => {
                // Unclassified brace group (const block, static init…).
                p.skip_group("{", "}");
            }
            _ if MODIFIERS.contains(&s.as_str()) => {
                p.bump();
                // `extern "C" { ... }` foreign blocks: treat the block
                // as an item scope so `fn` declarations inside parse.
                if s == "extern" && p.peek().is_some_and(|t| t.s == "\"") {
                    // Skip the blanked ABI string `""`.
                    p.bump();
                    if p.at("\"") {
                        p.bump();
                    }
                }
            }
            _ => {
                p.bump();
            }
        }
    }
}

/// `use a::b::{c, d as e};` — records each leaf as an alias.
fn parse_use(p: &mut Parser, ast: &mut FileAst) {
    p.bump(); // 'use'
    let mut prefix: Vec<String> = Vec::new();
    let mut cur: Vec<String> = Vec::new();
    let mut group_depth = 0usize;
    let mut pending_alias: Option<String> = None;
    let mut saw_as = false;
    let finish = |ast: &mut FileAst,
                  prefix: &[String],
                  cur: &mut Vec<String>,
                  alias: &mut Option<String>| {
        if cur.is_empty() && alias.is_none() {
            return;
        }
        let mut segs = prefix.to_vec();
        segs.append(cur);
        let name = alias
            .take()
            .or_else(|| segs.last().cloned())
            .unwrap_or_default();
        if !name.is_empty() && name != "*" {
            ast.uses.push(UseAlias {
                alias: name,
                segments: segs,
            });
        }
    };
    while let Some(t) = p.bump() {
        match t.s.as_str() {
            ";" => break,
            "::" => {}
            "{" => {
                group_depth += 1;
                prefix.append(&mut cur);
            }
            "}" => {
                finish(ast, &prefix, &mut cur, &mut pending_alias);
                saw_as = false;
                group_depth = group_depth.saturating_sub(1);
            }
            "," => {
                finish(ast, &prefix, &mut cur, &mut pending_alias);
                saw_as = false;
            }
            "as" => saw_as = true,
            other => {
                if saw_as {
                    pending_alias = Some(other.to_string());
                } else {
                    cur.push(other.to_string());
                }
            }
        }
    }
    finish(ast, &prefix, &mut cur, &mut pending_alias);
}

/// `struct Name { a: T, b: U }` — records the named fields.
fn parse_struct(p: &mut Parser, ast: &mut FileAst) {
    p.bump(); // 'struct'
    let (name, line) = match p.bump() {
        Some(t) => (t.s, t.line),
        None => return,
    };
    p.skip_generics();
    // `where` clauses before the body are skipped token-by-token.
    while let Some(t) = p.peek() {
        match t.s.as_str() {
            "{" => break,
            "(" => {
                // Tuple struct: no named fields.
                p.skip_group("(", ")");
                if p.at(";") {
                    p.bump();
                }
                ast.structs.push(StructDef {
                    name,
                    fields: Vec::new(),
                    line,
                });
                return;
            }
            ";" => {
                p.bump();
                ast.structs.push(StructDef {
                    name,
                    fields: Vec::new(),
                    line,
                });
                return;
            }
            _ => {
                p.bump();
            }
        }
    }
    let body = p.collect_braces();
    let mut fields = Vec::new();
    // Field names: identifiers at group depth 0 directly followed by
    // `:` (skipping a leading `pub` / `pub(crate)`), after start or `,`.
    let mut depth = 0i64;
    let mut at_field_start = true;
    let mut i = 0;
    while i < body.len() {
        let t = &body[i];
        match t.s.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth == 0 => at_field_start = true,
            "#" if body.get(i + 1).is_some_and(|n| n.s == "[") => {
                // Field attribute; skip its bracket group.
                let mut d = 0i64;
                i += 1;
                while i < body.len() {
                    match body[i].s.as_str() {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
            "pub" if depth == 0 => {}
            _ if depth == 0 && at_field_start && t.is_ident() => {
                if body.get(i + 1).is_some_and(|n| n.s == ":") {
                    fields.push(t.s.clone());
                }
                at_field_start = false;
            }
            _ => {}
        }
        i += 1;
    }
    ast.structs.push(StructDef { name, fields, line });
}

/// `impl [Trait for] Type { fns }` — recurses with the self type set.
fn parse_impl(p: &mut Parser, ast: &mut FileAst, in_test: bool) {
    p.bump(); // 'impl'
    p.skip_generics();
    // Collect the head up to `{`; if a `for` appears, the trait is what
    // came before it and the type is what follows.
    let mut before_for: Vec<String> = Vec::new();
    let mut after_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    while let Some(t) = p.peek() {
        match t.s.as_str() {
            "{" => break,
            ";" => {
                p.bump();
                return;
            }
            "for" => {
                saw_for = true;
                p.bump();
            }
            "<" => p.skip_generics(),
            "where" => {
                // Skip the where clause up to the body.
                while let Some(t) = p.peek() {
                    if t.s == "{" {
                        break;
                    }
                    if t.s == "<" {
                        p.skip_generics();
                    } else {
                        p.bump();
                    }
                }
            }
            other => {
                let o = other.to_string();
                p.bump();
                if o.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_') {
                    if saw_for {
                        after_for.push(o);
                    } else {
                        before_for.push(o);
                    }
                }
            }
        }
    }
    // For `impl Trait for Type`, keep the *last* path segment of each.
    let (ty, trait_name) = if saw_for {
        (after_for.last().cloned(), before_for.last().cloned())
    } else {
        (before_for.last().cloned(), None)
    };
    if p.at("{") {
        p.bump();
        parse_items(p, ast, in_test, ty.as_deref(), trait_name.as_deref());
    }
}

/// `fn name(params) -> Ret { body }` (or `;` for trait declarations).
fn parse_fn(
    p: &mut Parser,
    ast: &mut FileAst,
    is_test: bool,
    self_ty: Option<&str>,
    trait_name: Option<&str>,
) {
    p.bump(); // 'fn'
    let (name, line) = match p.bump() {
        Some(t) => (t.s, t.line),
        None => return,
    };
    p.skip_generics();
    // Parameter list.
    let mut params = Vec::new();
    if p.at("(") {
        let mut depth = 0usize;
        while let Some(t) = p.bump() {
            if t.s == "(" {
                depth += 1;
                if depth == 1 {
                    continue;
                }
            } else if t.s == ")" {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            params.push(t);
        }
    }
    let has_self = params.iter().any(|t| t.s == "self");
    // Return type / where clause up to `{` or `;`.  Generic bounds may
    // contain `<...>` groups that we skip as units so a stray `>` can't
    // desync the scan; `{` at this level starts the body.
    let mut body = Vec::new();
    loop {
        match p.peek().map(|t| t.s.clone()).as_deref() {
            None => break,
            Some(";") => {
                p.bump();
                break;
            }
            Some("{") => {
                body = p.collect_braces();
                break;
            }
            Some("<") => p.skip_generics(),
            Some(_) => {
                p.bump();
            }
        }
    }
    ast.fns.push(FnDef {
        name,
        self_ty: self_ty.map(str::to_string),
        trait_name: trait_name.map(str::to_string),
        has_self,
        is_test,
        line,
        params,
        body,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::strip_lines;

    fn parse(src: &str) -> FileAst {
        parse_file("crates/x/src/a.rs", &strip_lines(src))
    }

    #[test]
    fn free_fn_and_body_tokens() {
        let ast = parse("pub fn foo(a: u32) -> u32 { bar(a) + 1 }\nfn bar(x: u32) -> u32 { x }\n");
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].name, "foo");
        assert!(!ast.fns[0].has_self);
        let body: Vec<&str> = ast.fns[0].body.iter().map(|t| t.s.as_str()).collect();
        assert_eq!(body, ["bar", "(", "a", ")", "+", "1"]);
    }

    #[test]
    fn impl_methods_carry_self_type() {
        let src = "struct S { v: u32 }\nimpl S {\n    fn get(&self) -> u32 { self.v }\n    fn make() -> S { S { v: 0 } }\n}\n";
        let ast = parse(src);
        assert_eq!(ast.structs[0].name, "S");
        assert_eq!(ast.structs[0].fields, ["v"]);
        assert_eq!(ast.fns.len(), 2);
        assert_eq!(ast.fns[0].self_ty.as_deref(), Some("S"));
        assert!(ast.fns[0].has_self);
        assert!(!ast.fns[1].has_self);
    }

    #[test]
    fn trait_impl_records_trait_and_type() {
        let src = "trait T { fn m(&self) -> u32; fn d(&self) -> u32 { 1 } }\nimpl T for S { fn m(&self) -> u32 { 2 } }\n";
        let ast = parse(src);
        let decl = &ast.fns[0];
        assert_eq!(decl.name, "m");
        assert_eq!(decl.trait_name.as_deref(), Some("T"));
        assert!(decl.body.is_empty());
        let default = &ast.fns[1];
        assert_eq!(default.name, "d");
        assert!(!default.body.is_empty());
        let imp = &ast.fns[2];
        assert_eq!(imp.self_ty.as_deref(), Some("S"));
        assert_eq!(imp.trait_name.as_deref(), Some("T"));
    }

    #[test]
    fn use_aliases_expand_groups() {
        let src = "use a::b::{c, d as e};\nuse f::g as h;\nuse x::y::*;\n";
        let ast = parse(src);
        let find = |n: &str| ast.uses.iter().find(|u| u.alias == n);
        assert_eq!(find("c").unwrap().segments, ["a", "b", "c"]);
        assert_eq!(find("e").unwrap().segments, ["a", "b", "d"]);
        assert_eq!(find("h").unwrap().segments, ["f", "g"]);
        assert!(find("*").is_none());
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { lib() }\n}\n";
        let ast = parse(src);
        assert!(!ast.fns[0].is_test);
        assert!(ast.fns[1].is_test);
        // Lines 2-6: the attribute through the module's closing brace.
        assert_eq!(ast.test_lines, [false, true, true, true, true, true]);
    }

    #[test]
    fn cfg_test_items_mark_their_lines() {
        let src = "impl S {\n    #[cfg(test)]\n    fn t(&self) {\n        x.unwrap();\n    }\n    fn lib() {}\n}\n";
        let ast = parse(src);
        assert_eq!(
            ast.test_lines,
            [false, true, true, true, true, false, false]
        );
        let on_test_path = parse_file("crates/x/tests/a.rs", &strip_lines(src));
        assert!(on_test_path.test_lines.iter().all(|&t| t));
        assert!(on_test_path.fns.iter().all(|f| f.is_test));
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src = "macro_rules! m { ($x:expr) => { fn not_an_item() {} }; }\nfn real() { m!(1) }\n";
        let ast = parse(src);
        assert_eq!(ast.fns.len(), 1);
        assert_eq!(ast.fns[0].name, "real");
    }

    #[test]
    fn nested_generics_do_not_desync() {
        let src = "fn f<T: Into<Vec<u8>>>(x: T) -> Result<Vec<u8>, String> { Ok(x.into()) }\n";
        let ast = parse(src);
        assert_eq!(ast.fns.len(), 1);
        assert!(!ast.fns[0].body.is_empty());
    }

    #[test]
    fn token_lines_are_recorded() {
        let ast = parse("fn a() {\n    call_me();\n}\n");
        let call = ast.fns[0].body.iter().find(|t| t.s == "call_me").unwrap();
        assert_eq!(call.line, 2);
    }
}
