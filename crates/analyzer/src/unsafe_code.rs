//! HL005 — unsafe confinement.
//!
//! Every crate root declares `#![forbid(unsafe_code)]`, except roots that
//! host an allow-listed unsafe site, which declare `#![deny(unsafe_code)]`
//! so that one item can opt back in. Anywhere else, an `unsafe` token or an
//! attribute loosening `unsafe_code` (`allow`, `warn`, `expect`) is an
//! error. At an allow-listed site — a named function — the loosening
//! attribute may sit on the function and `unsafe` may open blocks in its
//! body, each preceded by a `// SAFETY:` comment.

use crate::lex::{functions, SourceFile, Token};
use crate::Finding;

/// The `unsafe_code` level a crate root must declare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootLevel {
    /// `#![forbid(unsafe_code)]`: no item may opt back in.
    Forbid,
    /// `#![deny(unsafe_code)]`: the root hosts an allow-listed site.
    Deny,
}

impl RootLevel {
    fn attr(self) -> &'static str {
        match self {
            RootLevel::Forbid => "forbid",
            RootLevel::Deny => "deny",
        }
    }
}

/// Checks that a crate root declares `#![<level>(unsafe_code)]`.
pub fn check_root(file: &SourceFile, level: RootLevel) -> Vec<Finding> {
    let t = &file.tokens;
    let declared = (0..t.len()).any(|i| {
        t[i].is('#')
            && t.get(i + 1).is_some_and(|n| n.is('!'))
            && t.get(i + 2).is_some_and(|n| n.is('['))
            && t.get(i + 3).is_some_and(|n| n.is_ident(level.attr()))
            && t.get(i + 4).is_some_and(|n| n.is('('))
            && t.get(i + 5).is_some_and(|n| n.is_ident("unsafe_code"))
            && t.get(i + 6).is_some_and(|n| n.is(')'))
    });
    if declared {
        return Vec::new();
    }
    vec![Finding {
        code: "HL005",
        file: file.path.clone(),
        line: 1,
        message: format!(
            "crate root does not declare `#![{}(unsafe_code)]`",
            level.attr()
        ),
        snippet: String::new(),
    }]
}

/// Checks one file's `unsafe` tokens and `unsafe_code` lint attributes
/// against the allow-listed function names `sites`.
pub fn check_file(file: &SourceFile, sites: &[&str]) -> Vec<Finding> {
    let t = &file.tokens;
    let site_bodies: Vec<(usize, usize)> = functions(file)
        .into_iter()
        .filter(|f| sites.contains(&f.name.as_str()))
        .map(|f| (f.body_start, f.body_end))
        .collect();
    let in_site = |i: usize| site_bodies.iter().any(|&(s, e)| s < i && i < e);
    let mut findings = Vec::new();
    let mut report = |line: u32, message: String| {
        findings.push(Finding {
            code: "HL005",
            file: file.path.clone(),
            line,
            message,
            snippet: file.snippet(line),
        });
    };
    for (i, tok) in t.iter().enumerate() {
        if tok.is_ident("unsafe_code") {
            let Some(level) = lint_level(t, i) else {
                continue;
            };
            if matches!(level.as_str(), "allow" | "warn" | "expect") {
                match attributed_fn(t, i) {
                    Some(name) if sites.contains(&name) => {}
                    _ => report(
                        tok.line,
                        format!("`{level}(unsafe_code)` outside the allow-listed unsafe sites"),
                    ),
                }
            }
        } else if tok.is_ident("unsafe") {
            if !in_site(i) {
                report(
                    tok.line,
                    "`unsafe` outside the allow-listed unsafe sites".to_string(),
                );
            } else if !t.get(i + 1).is_some_and(|n| n.is('{')) {
                report(
                    tok.line,
                    "only `unsafe { … }` blocks are allowed at an unsafe site".to_string(),
                );
            } else if !file.safety_comment_above(tok.line) {
                report(
                    tok.line,
                    "`unsafe` block without a `// SAFETY:` comment directly above".to_string(),
                );
            }
        }
    }
    findings
}

/// The lint level naming the `unsafe_code` token at `i`: the identifier
/// before the innermost `(` enclosing it (`allow` in
/// `#[cfg_attr(x, allow(unsafe_code))]`), or `None` outside any group.
fn lint_level(t: &[Token], i: usize) -> Option<String> {
    let mut depth = 0;
    for j in (0..i).rev() {
        if t[j].is(')') {
            depth += 1;
        } else if t[j].is('(') {
            if depth == 0 {
                return j.checked_sub(1).map(|k| t[k].text.clone());
            }
            depth -= 1;
        }
    }
    None
}

/// The function an outer attribute containing token `i` is attached to:
/// the first `fn` after the attribute's `]`, provided no `{`, `}` or `;`
/// comes first (other attributes and a visibility may sit between).
fn attributed_fn(t: &[Token], i: usize) -> Option<&str> {
    let open = (0..i).rev().find(|&j| t[j].is('['))?;
    if open == 0 || !t[open - 1].is('#') {
        return None;
    }
    let mut depth = 0;
    let close = (open..t.len()).find(|&j| {
        if t[j].is('[') {
            depth += 1;
        } else if t[j].is(']') {
            depth -= 1;
        }
        depth == 0
    })?;
    for j in close + 1..t.len() {
        if t[j].is('{') || t[j].is('}') || t[j].is(';') {
            return None;
        }
        if t[j].is_ident("fn") {
            return t.get(j + 1).map(|n| n.text.as_str());
        }
    }
    None
}
