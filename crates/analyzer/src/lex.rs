//! A comment/string/raw-string-aware token stream over Rust source.
//!
//! This is not a full Rust lexer — it is exactly enough structure for the
//! workspace lints: identifiers, punctuation, literals, and lifetimes, with
//! comments and string contents stripped so that `unwrap` inside a string or
//! a doc comment can never fire a finding. Justification markers
//! (`// hpcc-lint: allow(<scope>) — <reason>`) are collected from comments as
//! they are skipped, and `#[cfg(test)]` / `#[test]` gated items are marked so
//! passes can ignore them.

/// The coarse kind of one token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident,
    /// A single punctuation character.
    Punct,
    /// A string/char/byte/numeric literal (contents stripped for strings).
    Literal,
    /// A lifetime such as `'a`.
    Lifetime,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token text (for string literals, the placeholder `""`).
    pub text: String,
    /// 1-based line number the token starts on.
    pub line: u32,
}

impl Token {
    fn ident(text: &str, line: u32) -> Token {
        Token {
            kind: TokKind::Ident,
            text: text.to_string(),
            line,
        }
    }

    /// True if this token is the given punctuation character.
    pub fn is(&self, p: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == p as u8
    }

    /// True if this token is the given identifier.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// A justification marker parsed from a `// hpcc-lint: allow(<scope>) — <reason>`
/// comment. A marker justifies findings on its own line and the line below,
/// so it can sit either trailing the offending expression or on the line
/// above it. Markers with an empty reason are ignored (and justify nothing).
#[derive(Debug, Clone)]
pub struct Marker {
    /// 1-based line the marker comment appears on.
    pub line: u32,
    /// The allow scope, e.g. `panic`, `lock_order`, `poison`.
    pub scope: String,
    /// The free-text reason after the scope (must be non-empty).
    pub reason: String,
}

/// A `//` comment's line, and whether the comment opens with `SAFETY:`.
#[derive(Debug, Clone, Copy)]
pub struct LineComment {
    /// 1-based line the comment appears on.
    pub line: u32,
    /// True for a `// SAFETY: …` justification.
    pub safety: bool,
}

/// One lexed source file: its tokens, its justification markers, its raw
/// lines (for snippets), and a per-token "inside a test item" mask.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative display path.
    pub path: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Justification markers found in comments.
    pub markers: Vec<Marker>,
    /// Every `//` comment (doc comments included), in source order.
    pub comments: Vec<LineComment>,
    /// Raw source lines, for finding snippets.
    pub lines: Vec<String>,
    /// `test_mask[i]` is true when `tokens[i]` is inside a `#[cfg(test)]` /
    /// `#[test]` gated item.
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    /// The trimmed source line for a 1-based line number.
    pub fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// True when a marker with the given scope justifies a finding on `line`
    /// (marker trailing the same line, or on the line directly above).
    pub fn justified(&self, scope: &str, line: u32) -> bool {
        self.markers
            .iter()
            .any(|m| m.scope == scope && (m.line == line || m.line + 1 == line))
    }

    /// True when the run of `//` comment lines ending directly above `line`
    /// contains a `// SAFETY:` comment.
    pub fn safety_comment_above(&self, line: u32) -> bool {
        let mut above = line.saturating_sub(1);
        while let Some(c) = self.comments.iter().find(|c| c.line == above) {
            if c.safety {
                return true;
            }
            above = above.saturating_sub(1);
        }
        false
    }
}

/// Lexes one file. `path` is only used for display.
pub fn lex(path: &str, src: &str) -> SourceFile {
    let b = src.as_bytes();
    let mut tokens = Vec::new();
    let mut markers = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                let text = &src[start..i];
                comments.push(LineComment {
                    line,
                    safety: text
                        .trim_start_matches('/')
                        .trim_start()
                        .starts_with("SAFETY:"),
                });
                if let Some(m) = parse_marker(text, line) {
                    markers.push(m);
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i = skip_string(b, i, &mut line);
                tokens.push(Token {
                    kind: TokKind::Literal,
                    text: "\"\"".to_string(),
                    line,
                });
            }
            b'r' | b'b' if starts_raw_or_byte_string(b, i) => {
                let start_line = line;
                i = skip_raw_or_byte_string(b, i, &mut line);
                tokens.push(Token {
                    kind: TokKind::Literal,
                    text: "\"\"".to_string(),
                    line: start_line,
                });
            }
            b'\'' => {
                // Char literal or lifetime. `'\...'` and `'x'` are chars;
                // `'ident` (no closing quote right after) is a lifetime.
                if i + 1 < b.len() && b[i + 1] == b'\\' {
                    // Skip the quote, the backslash and the escaped char
                    // (which may itself be `\\` or `'`), then up to the
                    // closing quote (`'\u{1F600}'`, `'\x7f'`).
                    i += 3;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                    tokens.push(Token {
                        kind: TokKind::Literal,
                        text: "''".to_string(),
                        line,
                    });
                } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                    tokens.push(Token {
                        kind: TokKind::Literal,
                        text: "''".to_string(),
                        line,
                    });
                    i += 3;
                } else {
                    let start = i;
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokKind::Lifetime,
                        text: src[start..i].to_string(),
                        line,
                    });
                }
            }
            _ if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                tokens.push(Token::ident(&src[start..i], line));
            }
            _ if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                // A fractional part: `.` followed by a digit (so `0..n`
                // stays two range dots, not a float).
                if i + 1 < b.len() && b[i] == b'.' && b[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                }
                tokens.push(Token {
                    kind: TokKind::Literal,
                    text: src[start..i].to_string(),
                    line,
                });
            }
            _ => {
                // Single punctuation char (multi-char operators arrive as
                // their component chars, which is all the passes need).
                // Non-ASCII bytes only occur inside literals and comments,
                // both handled above, so this is always one byte.
                tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    let test_mask = compute_test_mask(&tokens);
    SourceFile {
        path: path.to_string(),
        tokens,
        markers,
        comments,
        lines: src.lines().map(str::to_string).collect(),
        test_mask,
    }
}

fn starts_raw_or_byte_string(b: &[u8], i: usize) -> bool {
    // r"...", r#"..."#, b"...", br"...", br#"..."#, rb forms don't exist.
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
        if j >= b.len() {
            return false;
        }
        if b[j] == b'"' {
            return true;
        }
        if b[j] != b'r' {
            return false;
        }
    }
    if b[j] == b'r' {
        j += 1;
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
        return j < b.len() && b[j] == b'"';
    }
    false
}

fn skip_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

fn skip_raw_or_byte_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    if b[i] == b'b' {
        i += 1;
    }
    if b[i] == b'"' {
        return skip_string(b, i, line);
    }
    // raw: r#*"
    i += 1;
    let mut hashes = 0;
    while b[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    i += 1; // opening quote
    while i < b.len() {
        if b[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if b[i] == b'"' {
            let mut j = i + 1;
            let mut seen = 0;
            while j < b.len() && seen < hashes && b[j] == b'#' {
                seen += 1;
                j += 1;
            }
            if seen == hashes {
                return j;
            }
            i += 1;
        } else {
            i += 1;
        }
    }
    i
}

fn parse_marker(comment: &str, line: u32) -> Option<Marker> {
    let rest = comment.split("hpcc-lint:").nth(1)?;
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("allow(")?;
    let close = rest.find(')')?;
    let scope = rest[..close].trim().to_string();
    let mut reason = rest[close + 1..].trim_start();
    for sep in ["\u{2014}", "--", "-", ":"] {
        if let Some(r) = reason.strip_prefix(sep) {
            reason = r;
            break;
        }
    }
    let reason = reason.trim().to_string();
    if scope.is_empty() || reason.is_empty() {
        return None;
    }
    Some(Marker {
        line,
        scope,
        reason,
    })
}

/// Marks every token that sits inside a `#[cfg(test)]` / `#[test]` gated
/// item (the attribute itself, the item header, and its balanced-brace body
/// or trailing semicolon).
fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is('#') && i + 1 < tokens.len() && tokens[i + 1].is('[') {
            // Find the attribute's closing bracket.
            let mut depth = 0;
            let mut j = i + 1;
            while j < tokens.len() {
                if tokens[j].is('[') {
                    depth += 1;
                } else if tokens[j].is(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            let attr = &tokens[i + 2..j.min(tokens.len())];
            if attr_gates_tests(attr) {
                let end = skip_item(tokens, j + 1);
                for m in mask.iter_mut().take(end).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    mask
}

/// True for `#[test]` and `#[cfg(... test ...)]` (but not `#[cfg(not(test))]`).
fn attr_gates_tests(attr: &[Token]) -> bool {
    let first = match attr.first() {
        Some(t) => t,
        None => return false,
    };
    if first.is_ident("test") && attr.len() == 1 {
        return true;
    }
    if !first.is_ident("cfg") {
        return false;
    }
    let has_test = attr.iter().any(|t| t.is_ident("test"));
    let has_not = attr.iter().any(|t| t.is_ident("not"));
    has_test && !has_not
}

/// Returns the token index one past the item starting at `start`: past the
/// matching `}` of its first brace block, or past a top-level `;` if one
/// arrives first (e.g. a gated `use`). Skips any further attributes.
fn skip_item(tokens: &[Token], start: usize) -> usize {
    let mut i = start;
    let mut depth = 0;
    let mut seen_brace = false;
    while i < tokens.len() {
        let t = &tokens[i];
        if !seen_brace && t.is('#') && i + 1 < tokens.len() && tokens[i + 1].is('[') {
            // A stacked attribute before the item body: skip it whole.
            let mut d = 0;
            i += 1;
            while i < tokens.len() {
                if tokens[i].is('[') {
                    d += 1;
                } else if tokens[i].is(']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                i += 1;
            }
            i += 1;
            continue;
        }
        if t.is('{') {
            depth += 1;
            seen_brace = true;
        } else if t.is('}') {
            depth -= 1;
            if seen_brace && depth == 0 {
                return i + 1;
            }
        } else if t.is(';') && depth == 0 && !seen_brace {
            return i + 1;
        }
        i += 1;
    }
    i
}

/// A function definition found in a token stream.
#[derive(Debug)]
pub struct FnDef {
    /// Bare function name.
    pub name: String,
    /// Qualified name: `Type::name` for inherent/trait impls, else `name`.
    pub qual: String,
    /// Token index of the function's opening `{` (exclusive body start).
    pub body_start: usize,
    /// Token index of the matching `}` (exclusive body end).
    pub body_end: usize,
    /// Line of the `fn` keyword.
    pub line: u32,
}

/// Extracts every `fn` in the file (including nested and impl methods),
/// qualifying methods with their `impl` type name.
pub fn functions(file: &SourceFile) -> Vec<FnDef> {
    let tokens = &file.tokens;
    let mut fns = Vec::new();
    // Stack of (brace_depth_at_open, type_name) for impl blocks.
    let mut impls: Vec<(i32, String)> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is('{') {
            depth += 1;
        } else if t.is('}') {
            depth -= 1;
            while impls.last().is_some_and(|(d, _)| *d > depth) {
                impls.pop();
            }
        } else if t.is_ident("impl") {
            if let Some((name, open)) = impl_type_name(tokens, i) {
                impls.push((depth + 1, name));
                // Jump to the impl's opening brace; items inside are walked
                // by the main loop.
                depth += 1;
                i = open + 1;
                continue;
            }
        } else if t.is_ident("fn") {
            if let Some(name_tok) = tokens.get(i + 1) {
                if name_tok.kind == TokKind::Ident {
                    let name = name_tok.text.clone();
                    // Find the body's opening brace; a `;` first means a
                    // bodyless trait method (a `;` inside parentheses or
                    // brackets, as in `[u32; 8]`, is part of a type).
                    let mut j = i + 2;
                    let mut angle = 0i32;
                    let mut nest = 0i32;
                    let mut open = None;
                    while j < tokens.len() {
                        let u = &tokens[j];
                        if u.is('<') {
                            angle += 1;
                        } else if u.is('>') {
                            angle -= 1;
                        } else if u.is('(') || u.is('[') {
                            nest += 1;
                        } else if u.is(')') || u.is(']') {
                            nest -= 1;
                        } else if u.is(';') && angle <= 0 && nest <= 0 {
                            break;
                        } else if u.is('{') && angle <= 0 {
                            open = Some(j);
                            break;
                        }
                        j += 1;
                    }
                    if let Some(open) = open {
                        let close = match_brace(tokens, open);
                        let qual = match impls.last() {
                            Some((_, ty)) => format!("{ty}::{name}"),
                            None => name.clone(),
                        };
                        fns.push(FnDef {
                            name,
                            qual,
                            body_start: open,
                            body_end: close,
                            line: t.line,
                        });
                        // Keep walking *inside* the body too (nested fns,
                        // and the depth bookkeeping stays consistent).
                        i += 2;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    fns
}

/// The `impl` block's type name and the index of its opening `{`.
/// `impl<T> Foo<T> { .. }` → `Foo`; `impl Trait for Bar { .. }` → `Bar`.
fn impl_type_name(tokens: &[Token], impl_idx: usize) -> Option<(String, usize)> {
    let mut i = impl_idx + 1;
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut seen_for = false;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is('<') {
            angle += 1;
        } else if t.is('>') {
            angle -= 1;
        } else if angle == 0 {
            if t.is('{') {
                let name = if seen_for { after_for } else { last_ident };
                return name.map(|n| (n, i));
            }
            if t.is(';') {
                return None;
            }
            if t.is_ident("for") {
                seen_for = true;
            } else if t.kind == TokKind::Ident && !t.is_ident("where") {
                if seen_for {
                    after_for = Some(t.text.clone());
                } else {
                    last_ident = Some(t.text.clone());
                }
            }
        }
        i += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or the last token).
pub fn match_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is('{') {
            depth += 1;
        } else if tokens[i].is('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    tokens.len().saturating_sub(1)
}
