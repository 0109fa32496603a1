//! HL003 — poison hygiene.
//!
//! In a crate that defines a poison-recovery helper (a function whose body
//! clears poison or recovers the guard via `into_inner` after a
//! `.lock()`/`.read()`/`.write()`), or that names the workspace's shared
//! helper module [`SHARED_MODULE`], a *bare* `.lock().unwrap()`,
//! `.read().unwrap()`, `.write().unwrap()` (or the `.expect(…)` forms)
//! outside tests is an error: the site must route through the helper so a
//! panicking writer cannot wedge every later reader.

use crate::lex::{functions, SourceFile};
use crate::Finding;

/// A recovery helper found in a crate.
#[derive(Debug)]
pub struct Helper {
    /// Helper function name, e.g. `lock_recover`.
    pub name: String,
    /// File it is defined in.
    pub file: String,
}

/// Finds the crate's poison-recovery helpers: functions whose **name**
/// advertises lock recovery (contains `lock` or `recover`) and whose body
/// contains `clear_poison`, or `into_inner` together with an empty-argument
/// `.lock()` / `.read()` / `.write()` acquisition. The name requirement
/// keeps ordinary methods that happen to recover a guard inline (a `len()`
/// summing shard sizes, say) from being mistaken for the crate's designated
/// helper.
pub fn find_helpers(files: &[SourceFile]) -> Vec<Helper> {
    let mut helpers = Vec::new();
    for file in files {
        for f in functions(file) {
            if !f.name.contains("lock") && !f.name.contains("recover") {
                continue;
            }
            let body = &file.tokens[f.body_start..=f.body_end.min(file.tokens.len() - 1)];
            let has = |name: &str| body.iter().any(|t| t.is_ident(name));
            let acquires = body.windows(4).any(|w| {
                w[0].is('.')
                    && (w[1].is_ident("lock") || w[1].is_ident("read") || w[1].is_ident("write"))
                    && w[2].is('(')
                    && w[3].is(')')
            });
            if acquires && (has("clear_poison") || has("into_inner")) {
                helpers.push(Helper {
                    name: f.name,
                    file: file.path.clone(),
                });
            }
        }
    }
    helpers
}

/// The workspace's shared poison-recovery helper module. A crate that
/// names it (`use hpcc_kernel::sync::lock_recover;`) gets its
/// [`SHARED_HELPERS`] as helpers in HL002 and HL003 without defining any.
pub const SHARED_MODULE: [&str; 2] = ["hpcc_kernel", "sync"];

/// The acquiring helpers [`SHARED_MODULE`] defines.
pub const SHARED_HELPERS: [&str; 3] = ["lock_recover", "read_recover", "write_recover"];

/// Whether any of the crate's files names [`SHARED_MODULE`].
pub fn uses_shared_helpers(files: &[SourceFile]) -> bool {
    files.iter().any(|file| {
        file.tokens.windows(4).any(|w| {
            w[0].is_ident(SHARED_MODULE[0])
                && w[1].is(':')
                && w[2].is(':')
                && w[3].is_ident(SHARED_MODULE[1])
        })
    })
}

/// The names of every helper a crate can call: the ones it defines plus,
/// if it names [`SHARED_MODULE`], the shared ones.
pub fn helper_names(files: &[SourceFile]) -> Vec<String> {
    let mut names: Vec<String> = find_helpers(files).into_iter().map(|h| h.name).collect();
    if uses_shared_helpers(files) {
        for shared in SHARED_HELPERS {
            if !names.iter().any(|n| n == shared) {
                names.push(shared.to_string());
            }
        }
    }
    names
}

/// Runs HL003 over one crate's files.
pub fn check_crate(files: &[SourceFile]) -> Vec<Finding> {
    let helper_names = helper_names(files);
    if helper_names.is_empty() {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for file in files {
        // Token ranges belonging to the helpers themselves are exempt.
        let mut exempt = vec![false; file.tokens.len()];
        for f in functions(file) {
            if helper_names.contains(&f.name) {
                for e in exempt.iter_mut().take(f.body_end + 1).skip(f.body_start) {
                    *e = true;
                }
            }
        }
        let tokens = &file.tokens;
        for i in 0..tokens.len() {
            if file.test_mask[i] || exempt[i] {
                continue;
            }
            // `. lock ( ) . unwrap|expect (`
            if !tokens[i].is('.') {
                continue;
            }
            let Some(kind) = tokens.get(i + 1).map(|t| t.text.as_str()) else {
                continue;
            };
            if kind != "lock" && kind != "read" && kind != "write" {
                continue;
            }
            let empty_call = tokens.get(i + 2).is_some_and(|t| t.is('('))
                && tokens.get(i + 3).is_some_and(|t| t.is(')'));
            if !empty_call {
                continue;
            }
            let bare = tokens.get(i + 4).is_some_and(|t| t.is('.'))
                && tokens
                    .get(i + 5)
                    .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
                && tokens.get(i + 6).is_some_and(|t| t.is('('));
            if !bare {
                continue;
            }
            let line = tokens[i + 5].line;
            if file.justified("poison", line) {
                continue;
            }
            findings.push(Finding {
                code: "HL003",
                file: file.path.clone(),
                line,
                message: format!(
                    "bare `.{kind}().{}()` in a crate with a poison-recovery helper ({}) — route through it",
                    tokens[i + 5].text,
                    helper_names.join("/"),
                ),
                snippet: file.snippet(line),
            });
        }
    }
    findings
}
