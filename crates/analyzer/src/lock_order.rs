//! HL002 — lock-order and lock-across-blocking-call analysis.
//!
//! Extracts per-function lock-acquisition sequences (`.lock()` / `.read()` /
//! `.write()` with empty argument lists, plus calls through the crate's
//! poison-recovery helpers or the shared ones it imports,
//! [`crate::poison::SHARED_HELPERS`]), tracks which guards are still held
//! at each point (let-bound guards live to the end of their block or an
//! explicit `drop(guard)`; temporaries live to the end of their statement),
//! and propagates acquisitions through an intra-crate, name-resolved call
//! graph.
//!
//! Findings:
//! * a cyclic acquisition order between lock classes (two code paths that
//!   take the same pair of locks in opposite orders can deadlock);
//! * any lock held across a blocking `.send(` / `.recv(` /
//!   `.recv_timeout(` transport call.
//!
//! A lock *class* is the receiver field the guard came from, keyed per file
//! (`state` in `transport.rs` and `state` in another file are different
//! locks). `// hpcc-lint: allow(lock_order) — <reason>` on the acquiring or
//! blocking line suppresses that site.

use std::collections::{BTreeMap, BTreeSet};

use crate::lex::{functions, SourceFile, TokKind, Token};
use crate::Finding;

/// A lock class: `(file, field-name)`.
type Class = (String, String);

#[derive(Debug)]
struct Acq {
    class: Class,
    line: u32,
    file: String,
    held: Vec<Class>,
}

#[derive(Debug)]
struct Call {
    callee: usize,
    line: u32,
    file: String,
    held: Vec<Class>,
}

#[derive(Debug)]
struct Blocking {
    what: String,
    line: u32,
    file: String,
    held: Vec<Class>,
}

#[derive(Debug, Default)]
struct FnFacts {
    acqs: Vec<Acq>,
    calls: Vec<Call>,
    blocking: Vec<Blocking>,
}

/// A recovery helper usable as an acquisition site.
struct HelperInfo {
    name: String,
    /// The class acquired inside the helper when its receiver is a field of
    /// `self` (method-style helpers); `None` means the class comes from the
    /// call-site argument (generic `fn lock_recover(&Mutex<T>)` helpers).
    intrinsic: Option<Class>,
}

/// Runs HL002 over one crate's files.
pub fn check_crate(files: &[SourceFile]) -> Vec<Finding> {
    // ---- function table ------------------------------------------------
    struct FnEntry {
        file_idx: usize,
        name: String,
        qual: String,
        body_start: usize,
        body_end: usize,
    }
    let mut fns: Vec<FnEntry> = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        for f in functions(file) {
            fns.push(FnEntry {
                file_idx,
                name: f.name,
                qual: f.qual,
                body_start: f.body_start,
                body_end: f.body_end,
            });
        }
    }
    let mut by_qual: BTreeMap<&str, usize> = BTreeMap::new();
    let mut by_free: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, f) in fns.iter().enumerate() {
        by_qual.insert(f.qual.as_str(), i);
        if f.qual == f.name {
            by_free.insert(f.name.as_str(), i);
        }
    }

    // ---- recovery helpers as acquisition sites -------------------------
    let mut helpers: Vec<HelperInfo> = Vec::new();
    for f in &fns {
        // Same name requirement as HL003's helper detection: only functions
        // that advertise lock recovery, so ordinary inline-recovering
        // methods don't turn every same-named call into an acquisition.
        if !f.name.contains("lock") && !f.name.contains("recover") {
            continue;
        }
        let file = &files[f.file_idx];
        let body = &file.tokens[f.body_start..=f.body_end.min(file.tokens.len() - 1)];
        let recovers = body
            .iter()
            .any(|t| t.is_ident("clear_poison") || t.is_ident("into_inner"));
        let acq_recv = body.windows(5).find_map(|w| {
            let recv = &w[0];
            (w[1].is('.')
                && (w[2].is_ident("lock") || w[2].is_ident("read") || w[2].is_ident("write"))
                && w[3].is('(')
                && w[4].is(')')
                && recv.kind == TokKind::Ident)
                .then(|| recv.text.clone())
        });
        if let (true, Some(recv)) = (recovers, acq_recv) {
            let params = param_names(file, f.body_start);
            let intrinsic = if params.contains(&recv) {
                None
            } else {
                Some((file.path.clone(), recv))
            };
            helpers.push(HelperInfo {
                name: f.name.clone(),
                intrinsic,
            });
        }
    }

    // The shared helpers take the lock they are handed, like a generic
    // local `fn lock_recover(&Mutex<T>)`.
    if crate::poison::uses_shared_helpers(files) {
        for shared in crate::poison::SHARED_HELPERS {
            if !helpers.iter().any(|h| h.name == shared) {
                helpers.push(HelperInfo {
                    name: shared.to_string(),
                    intrinsic: None,
                });
            }
        }
    }

    // ---- per-function facts --------------------------------------------
    let facts: Vec<FnFacts> = fns
        .iter()
        .map(|f| {
            let file = &files[f.file_idx];
            let impl_ty = f.qual.split("::").next().filter(|_| f.qual.contains("::"));
            extract_facts(
                file,
                f.body_start,
                f.body_end,
                impl_ty,
                &helpers,
                &by_qual,
                &by_free,
            )
        })
        .collect();

    // ---- transitive closure: acquires + blocks -------------------------
    let n = fns.len();
    let mut acquires: Vec<BTreeSet<Class>> = facts
        .iter()
        .map(|f| f.acqs.iter().map(|a| a.class.clone()).collect())
        .collect();
    let mut blocks: Vec<bool> = facts.iter().map(|f| !f.blocking.is_empty()).collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            for c in &facts[i].calls {
                if c.callee == i {
                    continue;
                }
                let extra: Vec<Class> = acquires[c.callee]
                    .iter()
                    .filter(|cl| !acquires[i].contains(*cl))
                    .cloned()
                    .collect();
                if !extra.is_empty() {
                    acquires[i].extend(extra);
                    changed = true;
                }
                if blocks[c.callee] && !blocks[i] {
                    blocks[i] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ---- edges + blocking findings --------------------------------------
    let mut findings = Vec::new();
    // edge (from, to) -> (file, line) evidence of first sighting
    let mut edges: BTreeMap<(Class, Class), (String, u32)> = BTreeMap::new();
    for fact in &facts {
        for a in &fact.acqs {
            for h in &a.held {
                if *h != a.class {
                    edges
                        .entry((h.clone(), a.class.clone()))
                        .or_insert((a.file.clone(), a.line));
                } else {
                    findings.push(Finding {
                        code: "HL002",
                        file: a.file.clone(),
                        line: a.line,
                        message: format!(
                            "lock class `{}` acquired again while already held (self-deadlock on the same class)",
                            a.class.1
                        ),
                        snippet: files
                            .iter()
                            .find(|f| f.path == a.file)
                            .map(|f| f.snippet(a.line))
                            .unwrap_or_default(),
                    });
                }
            }
        }
        for c in &fact.calls {
            if c.held.is_empty() {
                continue;
            }
            for cl in &acquires[c.callee] {
                for h in &c.held {
                    if h != cl {
                        edges
                            .entry((h.clone(), cl.clone()))
                            .or_insert((c.file.clone(), c.line));
                    }
                }
            }
            if blocks[c.callee] {
                findings.push(blocking_finding(
                    files,
                    &c.file,
                    c.line,
                    &format!("call into `{}`", fns[c.callee].qual),
                    &c.held,
                ));
            }
        }
        for blk in &fact.blocking {
            if !blk.held.is_empty() {
                findings.push(blocking_finding(
                    files, &blk.file, blk.line, &blk.what, &blk.held,
                ));
            }
        }
    }

    // ---- cycle detection over the class digraph -------------------------
    let mut graph: BTreeMap<&Class, Vec<&Class>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        graph.entry(from).or_default().push(to);
    }
    let mut reported: BTreeSet<Vec<Class>> = BTreeSet::new();
    let nodes: Vec<&Class> = graph.keys().cloned().collect();
    for start in nodes {
        let mut path: Vec<&Class> = Vec::new();
        find_cycles(start, &graph, &mut path, &mut |cycle: &[&Class]| {
            let mut key: Vec<Class> = cycle.iter().map(|c| (*c).clone()).collect();
            key.sort();
            if reported.insert(key) {
                let names: Vec<String> = cycle
                    .iter()
                    .chain(cycle.first())
                    .map(|c| c.1.clone())
                    .collect();
                let (evf, evl) = edges
                    .get(&((*cycle[0]).clone(), (*cycle[1 % cycle.len()]).clone()))
                    .cloned()
                    .unwrap_or_default();
                findings.push(Finding {
                    code: "HL002",
                    file: evf.clone(),
                    line: evl,
                    message: format!(
                        "cyclic lock acquisition order: {} (two paths taking these locks in opposite orders can deadlock)",
                        names.join(" -> ")
                    ),
                    snippet: files
                        .iter()
                        .find(|f| f.path == evf)
                        .map(|f| f.snippet(evl))
                        .unwrap_or_default(),
                });
            }
        });
    }
    findings
}

fn blocking_finding(
    files: &[SourceFile],
    file: &str,
    line: u32,
    what: &str,
    held: &[Class],
) -> Finding {
    let held_names: Vec<&str> = held.iter().map(|c| c.1.as_str()).collect();
    Finding {
        code: "HL002",
        file: file.to_string(),
        line,
        message: format!(
            "lock class(es) `{}` held across blocking {what} — a stalled peer wedges every other holder",
            held_names.join("`, `")
        ),
        snippet: files
            .iter()
            .find(|f| f.path == file)
            .map(|f| f.snippet(line))
            .unwrap_or_default(),
    }
}

/// Depth-first cycle enumeration (paths are short; the class graph has a
/// handful of nodes per crate).
fn find_cycles<'a>(
    node: &'a Class,
    graph: &BTreeMap<&'a Class, Vec<&'a Class>>,
    path: &mut Vec<&'a Class>,
    report: &mut impl FnMut(&[&Class]),
) {
    if let Some(pos) = path.iter().position(|c| *c == node) {
        report(&path[pos..]);
        return;
    }
    if path.len() > 16 {
        return;
    }
    path.push(node);
    if let Some(nexts) = graph.get(node) {
        for next in nexts {
            find_cycles(next, graph, path, report);
        }
    }
    path.pop();
}

/// Parameter names of the fn whose body opens at `body_start` (idents
/// followed by `:` inside the signature parens).
fn param_names(file: &SourceFile, body_start: usize) -> Vec<String> {
    let tokens = &file.tokens;
    // Walk back to the signature's opening paren.
    let mut close = None;
    let mut depth = 0i32;
    for j in (0..body_start).rev() {
        if tokens[j].is(')') {
            if close.is_none() {
                close = Some(j);
            }
            depth += 1;
        } else if tokens[j].is('(') {
            depth -= 1;
            if depth == 0 {
                let mut names = Vec::new();
                let close = close.unwrap_or(body_start);
                for k in j + 1..close {
                    if tokens[k].kind == TokKind::Ident
                        && tokens.get(k + 1).is_some_and(|t| t.is(':'))
                        && (k == j + 1
                            || tokens[k - 1].is('(')
                            || tokens[k - 1].is(',')
                            || tokens[k - 1].is_ident("mut"))
                    {
                        names.push(tokens[k].text.clone());
                    }
                }
                return names;
            }
        } else if tokens[j].is('{') || tokens[j].is('}') {
            break;
        }
    }
    Vec::new()
}

struct Guard {
    class: Class,
    var: Option<String>,
    depth: i32,
    temp: bool,
}

#[allow(clippy::too_many_arguments)]
fn extract_facts(
    file: &SourceFile,
    body_start: usize,
    body_end: usize,
    impl_ty: Option<&str>,
    helpers: &[HelperInfo],
    by_qual: &BTreeMap<&str, usize>,
    by_free: &BTreeMap<&str, usize>,
) -> FnFacts {
    let tokens = &file.tokens;
    let mut facts = FnFacts::default();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0i32;
    let mut i = body_start;
    let held = |guards: &[Guard]| -> Vec<Class> {
        let mut h: Vec<Class> = Vec::new();
        for g in guards {
            if !h.contains(&g.class) {
                h.push(g.class.clone());
            }
        }
        h
    };
    while i <= body_end.min(tokens.len() - 1) {
        let t = &tokens[i];
        if t.is('{') {
            depth += 1;
        } else if t.is('}') {
            depth -= 1;
            // A closing brace ends any statement in flight at the enclosing
            // depth (if/while bodies, match arms), so temporaries acquired
            // in a scrutinee die here too — matching real drop order
            // conservatively (we under-hold rather than invent edges).
            guards.retain(|g| g.depth <= depth && !(g.temp && g.depth == depth));
        } else if t.is(';') {
            guards.retain(|g| !(g.temp && g.depth >= depth));
        } else if t.is_ident("drop") && tokens.get(i + 1).is_some_and(|n| n.is('(')) {
            if let (Some(arg), Some(close)) = (tokens.get(i + 2), tokens.get(i + 3)) {
                if arg.kind == TokKind::Ident && close.is(')') {
                    guards.retain(|g| g.var.as_deref() != Some(arg.text.as_str()));
                }
            }
        } else if file.test_mask[i] {
            // Nested test-gated items inside a body (rare) are skipped.
        } else if t.is('.')
            && tokens
                .get(i + 1)
                .is_some_and(|n| n.is_ident("lock") || n.is_ident("read") || n.is_ident("write"))
            && tokens.get(i + 2).is_some_and(|n| n.is('('))
            && tokens.get(i + 3).is_some_and(|n| n.is(')'))
        {
            if let Some(recv) = receiver_class(tokens, i) {
                let class = (file.path.clone(), recv);
                record_acq(
                    file,
                    tokens,
                    i,
                    i + 4,
                    class,
                    depth,
                    &held(&guards),
                    &mut guards,
                    &mut facts,
                );
            }
            i += 4;
            continue;
        } else if t.is('.')
            && tokens.get(i + 1).is_some_and(|n| {
                n.is_ident("send") || n.is_ident("recv") || n.is_ident("recv_timeout")
            })
            && tokens.get(i + 2).is_some_and(|n| n.is('('))
        {
            let h = held(&guards);
            if !h.is_empty() && !file.justified("lock_order", tokens[i + 1].line) {
                facts.blocking.push(Blocking {
                    what: format!("transport `.{}(`", tokens[i + 1].text),
                    line: tokens[i + 1].line,
                    file: file.path.clone(),
                    held: h,
                });
            }
        } else if t.kind == TokKind::Ident && tokens.get(i + 1).is_some_and(|n| n.is('(')) {
            let name = t.text.as_str();
            let after_dot = i > 0 && tokens[i - 1].is('.');
            if let Some(h) = helpers.iter().find(|h| h.name == name) {
                let class = match (&h.intrinsic, after_dot) {
                    (Some(c), _) => Some(c.clone()),
                    (None, false) => arg_class(tokens, i + 1).map(|c| (file.path.clone(), c)),
                    (None, true) => None,
                };
                if let Some(class) = class {
                    // Step past the helper call's argument list so the
                    // guard-chain check starts after the closing paren.
                    let mut d = 0;
                    let mut j = i + 1;
                    while j < tokens.len() {
                        if tokens[j].is('(') {
                            d += 1;
                        } else if tokens[j].is(')') {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        j += 1;
                    }
                    record_acq(
                        file,
                        tokens,
                        i,
                        j + 1,
                        class,
                        depth,
                        &held(&guards),
                        &mut guards,
                        &mut facts,
                    );
                }
            } else {
                // Plain call: resolve `self.m(` within the impl type,
                // `free(` to a free fn, `Type::m(` to a method.
                let target = if after_dot {
                    let self_recv = i >= 2 && tokens[i - 2].is_ident("self");
                    match (self_recv, impl_ty) {
                        (true, Some(ty)) => by_qual.get(format!("{ty}::{name}").as_str()).copied(),
                        _ => None,
                    }
                } else if i >= 2 && tokens[i - 1].is(':') && tokens[i - 2].is(':') {
                    let ty = (i >= 3).then(|| tokens[i - 3].text.as_str());
                    ty.and_then(|ty| by_qual.get(format!("{ty}::{name}").as_str()).copied())
                } else {
                    by_free.get(name).copied()
                };
                if let Some(callee) = target {
                    facts.calls.push(Call {
                        callee,
                        line: t.line,
                        file: file.path.clone(),
                        held: held(&guards),
                    });
                }
            }
        }
        i += 1;
    }
    facts
}

#[allow(clippy::too_many_arguments)]
fn record_acq(
    file: &SourceFile,
    tokens: &[Token],
    site: usize,
    after: usize,
    class: Class,
    depth: i32,
    held: &[Class],
    guards: &mut Vec<Guard>,
    facts: &mut FnFacts,
) {
    let line = tokens[site].line;
    if !file.justified("lock_order", line) {
        facts.acqs.push(Acq {
            class: class.clone(),
            line,
            file: file.path.clone(),
            held: held.to_vec(),
        });
    }
    let (var, temp) = if chain_keeps_guard(tokens, after) {
        binding(tokens, site)
    } else {
        // `lock_recover(&q).admit(…)` — the guard is consumed by the chained
        // call and dropped at the end of the statement, whatever the
        // statement binds.
        (None, true)
    };
    guards.push(Guard {
        class,
        var,
        depth,
        temp,
    });
}

/// True when the method chain starting at `after` (the token just past the
/// acquisition call) preserves the guard as the expression's value:
/// nothing follows, or only `unwrap` / `expect` / `unwrap_or_else`
/// adapters do. Any other chained field or call consumes the guard within
/// the statement.
fn chain_keeps_guard(tokens: &[Token], mut i: usize) -> bool {
    while i + 1 < tokens.len() && tokens[i].is('.') {
        let m = &tokens[i + 1];
        if !(m.is_ident("unwrap") || m.is_ident("expect") || m.is_ident("unwrap_or_else")) {
            return false;
        }
        // Skip the adapter's argument list.
        let mut j = i + 2;
        if j < tokens.len() && tokens[j].is('(') {
            let mut d = 0;
            while j < tokens.len() {
                if tokens[j].is('(') {
                    d += 1;
                } else if tokens[j].is(')') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
        } else {
            return false;
        }
    }
    true
}

/// Walks back from an acquisition site to the start of its receiver chain,
/// then decides whether the guard is let-bound (`let [mut] name = …`) —
/// held to end of block — or a temporary — held to end of statement.
fn binding(tokens: &[Token], site: usize) -> (Option<String>, bool) {
    let mut j = site as i64 - 1;
    // Skip back over the receiver chain: ident, `.`, balanced () and [].
    loop {
        if j < 0 {
            return (None, true);
        }
        let t = &tokens[j as usize];
        if t.is(')') || t.is(']') {
            let (open, close) = if t.is(')') { ('(', ')') } else { ('[', ']') };
            let mut d = 0;
            while j >= 0 {
                if tokens[j as usize].is(close) {
                    d += 1;
                } else if tokens[j as usize].is(open) {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            j -= 1;
        } else if (t.kind == TokKind::Ident && !t.is_ident("mut") && !t.is_ident("let"))
            || t.is('.')
            || t.is('&')
            || t.is('*')
        {
            j -= 1;
        } else {
            break;
        }
    }
    // `j` now sits on the token before the chain.
    if j >= 0 && tokens[j as usize].is('=') {
        let k = j - 1;
        if k >= 0 && tokens[k as usize].kind == TokKind::Ident {
            let name = tokens[k as usize].text.clone();
            let mut l = k - 1;
            if l >= 0 && tokens[l as usize].is_ident("mut") {
                l -= 1;
            }
            if l >= 0 && tokens[l as usize].is_ident("let") {
                return (Some(name), false);
            }
        }
    }
    (None, true)
}

/// The receiver field for `<recv>.lock()` at the `.` token index: the
/// nearest identifier walking back over one balanced `[…]`/`(…)` group.
fn receiver_class(tokens: &[Token], dot: usize) -> Option<String> {
    let mut j = dot as i64 - 1;
    loop {
        if j < 0 {
            return None;
        }
        let t = &tokens[j as usize];
        if t.is(')') || t.is(']') {
            let (open, close) = if t.is(')') { ('(', ')') } else { ('[', ']') };
            let mut d = 0;
            while j >= 0 {
                if tokens[j as usize].is(close) {
                    d += 1;
                } else if tokens[j as usize].is(open) {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            j -= 1;
        } else if t.kind == TokKind::Ident {
            return Some(t.text.clone());
        } else {
            return None;
        }
    }
}

/// The lock class named by a helper call's first argument: the last
/// top-level identifier before the first top-level `,` or the closing `)`
/// (`lock_recover(&self.flight)` → `flight`;
/// `lock_recover(self.shard(id))` → `shard`).
fn arg_class(tokens: &[Token], open: usize) -> Option<String> {
    let mut d = 0;
    let mut last: Option<String> = None;
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is('(') || t.is('[') {
            d += 1;
        } else if t.is(')') || t.is(']') {
            d -= 1;
            if d == 0 {
                break;
            }
        } else if d == 1 {
            if t.is(',') {
                break;
            }
            if t.kind == TokKind::Ident && !t.is_ident("self") && !t.is_ident("mut") {
                last = Some(t.text.clone());
            }
        }
        i += 1;
    }
    last
}
