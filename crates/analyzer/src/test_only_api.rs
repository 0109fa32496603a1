//! HL006 — test-only public API.
//!
//! A `pub fn` (including `pub const fn`), `pub const` or `pub static` in a
//! library crate must have a caller outside test code. A caller is an
//! identifier token with the item's name, outside `#[cfg(test)]` code and
//! outside `use` declarations, in any scanned file
//! ([`crate::test_only_api_checks`] picks the trees). A re-export is not a
//! call, and neither is a definition. An item that reproduces a paper claim
//! a test checks, or that `tests/` files share as harness, carries
//! `// hpcc-lint: allow(test_only_api) — <reason>` on its line or the line
//! above, and the reason names the paper section, figure or table, or the
//! `tests/` file.
//!
//! Matching is by name: an item that shares its name with any used
//! identifier (`new`, `len`, an enum variant) is never flagged. A field
//! read (`self.count`) and a field declaration or struct-literal field
//! (`count: 0`) do not use the name.

use std::collections::HashSet;

use crate::lex::{SourceFile, TokKind};
use crate::Finding;

/// The marker scope that keeps a test-only item.
pub const SCOPE: &str = "test_only_api";

/// Words one of which a marker's reason must contain: a paper section,
/// figure or table, or a `tests/` file.
const REASON_ANCHORS: &[&str] = &["§", "Figure", "Table", "tests/"];

/// One checked public item.
#[derive(Debug)]
pub struct PubItem {
    /// The item's name.
    pub name: String,
    /// The item keyword: `fn`, `const` or `static`.
    pub kind: &'static str,
    /// Line of the item's `pub` keyword.
    pub line: u32,
}

/// The `pub fn`, `pub const` and `pub static` items of one file, outside
/// test code. `pub(crate)`, `pub(super)` and `pub(in …)` items are skipped.
pub fn items(file: &SourceFile) -> Vec<PubItem> {
    let t = &file.tokens;
    let mut out = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if file.test_mask[i] || !tok.is_ident("pub") || t.get(i + 1).is_some_and(|n| n.is('(')) {
            continue;
        }
        // Skip the qualifiers of `pub const unsafe extern "C" fn`.
        let mut j = i + 1;
        while let Some(q) = t.get(j) {
            let qualifier = match q.text.as_str() {
                "const" => t.get(j + 1).is_some_and(|n| {
                    matches!(n.text.as_str(), "fn" | "unsafe" | "async" | "extern")
                }),
                "unsafe" | "async" | "extern" => true,
                _ => q.kind == TokKind::Literal,
            };
            if !qualifier {
                break;
            }
            j += 1;
        }
        let kind = match t.get(j).map(|k| k.text.as_str()) {
            Some("fn") => "fn",
            Some("const") => "const",
            Some("static") => "static",
            _ => continue,
        };
        let mut n = j + 1;
        if t.get(n).is_some_and(|m| m.is_ident("mut")) {
            n += 1;
        }
        match t.get(n) {
            Some(name) if name.kind == TokKind::Ident && name.text != "_" => out.push(PubItem {
                name: name.text.clone(),
                kind,
                line: tok.line,
            }),
            _ => {}
        }
    }
    out
}

/// Adds to `names` every identifier in `file` that counts as a caller:
/// outside test code, outside `use` declarations, and not the name a
/// `fn`, `const` or `static` definition introduces. A name after a single
/// `.` is a method only when `(` or `::` follows (otherwise a field read),
/// and a name before a single `:` is a field declaration or a struct
/// literal's field.
pub fn add_callers(file: &SourceFile, names: &mut HashSet<String>) {
    let t = &file.tokens;
    let mut in_use = false;
    for (i, tok) in t.iter().enumerate() {
        if file.test_mask[i] {
            continue;
        }
        if in_use {
            in_use = !tok.is(';');
            continue;
        }
        if tok.is_ident("use") {
            in_use = true;
            continue;
        }
        if tok.kind != TokKind::Ident {
            continue;
        }
        let before = |k: usize| i.checked_sub(k).map(|p| t[p].text.as_str());
        let after_is = |k: usize, p: char| t.get(i + k).is_some_and(|n| n.is(p));
        let defines = matches!(before(1), Some("fn" | "const" | "static"))
            || (before(1) == Some("mut") && before(2) == Some("static"));
        // `..` (a range) is not a single `.`; `::` is not a single `:`.
        let after_single_dot = before(1) == Some(".") && before(2) != Some(".");
        let path_follows = after_is(1, ':') && after_is(2, ':');
        let field_read = after_single_dot && !after_is(1, '(') && !path_follows;
        let field_name = after_is(1, ':') && !path_follows;
        if !defines && !field_read && !field_name {
            names.insert(tok.text.clone());
        }
    }
}

/// Runs HL006: every item of `checked` needs a caller in `checked` or
/// `others`, or a marker whose reason names a paper anchor or a `tests/`
/// file.
pub fn check(checked: &[SourceFile], others: &[SourceFile]) -> Vec<Finding> {
    let mut names = HashSet::new();
    for file in checked.iter().chain(others) {
        add_callers(file, &mut names);
    }
    let mut findings = Vec::new();
    for file in checked {
        for item in items(file) {
            if names.contains(&item.name) || justified(file, item.line) {
                continue;
            }
            findings.push(Finding {
                code: "HL006",
                file: file.path.clone(),
                line: item.line,
                message: format!(
                    "`pub {} {}` has no caller outside test code: delete it, move it under \
                     `#[cfg(test)]`, or mark it `hpcc-lint: allow({SCOPE})` naming the paper \
                     section, figure or table, or the `tests/` file that needs it",
                    item.kind, item.name
                ),
                snippet: file.snippet(item.line),
            });
        }
    }
    findings
}

/// True when a marker on `line` or the line above keeps the item and its
/// reason names a paper anchor or a `tests/` file.
fn justified(file: &SourceFile, line: u32) -> bool {
    file.markers.iter().any(|m| {
        m.scope == SCOPE
            && (m.line == line || m.line + 1 == line)
            && REASON_ANCHORS.iter().any(|a| m.reason.contains(a))
    })
}

/// The modules `file` declares under `#[cfg(test)]` as `mod name;`, whose
/// files are test code as a whole.
pub fn test_modules(file: &SourceFile) -> Vec<String> {
    let t = &file.tokens;
    (0..t.len().saturating_sub(2))
        .filter(|&i| {
            file.test_mask[i]
                && t[i].is_ident("mod")
                && t[i + 1].kind == TokKind::Ident
                && t[i + 2].is(';')
        })
        .map(|i| t[i + 1].text.clone())
        .collect()
}
