//! `hpcc-analyzer`: offline, std-only, token-level static analysis for the
//! workspace's serving path and public API.
//!
//! Six passes, each with a stable finding code, run over the workspace by
//! `cargo run --release -p hpcc-analyzer -- --workspace` (CI's lint job):
//!
//! * **HL001** — no-panic serving path: in the designated fuseproto modules,
//!   `unwrap()` / `expect(` / `panic!` / `unreachable!` / `todo!` and direct
//!   slice indexing are forbidden outside `#[cfg(test)]`, unless justified
//!   with `// hpcc-lint: allow(panic) — <reason>`.
//! * **HL002** — lock order: per-function lock-acquisition sequences,
//!   propagated through an intra-crate call graph; cyclic acquisition orders
//!   between lock classes and locks held across blocking transport
//!   `.send(`/`.recv(` calls are errors.
//! * **HL003** — poison hygiene: in crates that define a poison-recovery
//!   helper, bare `.lock().unwrap()` (and `.read()`/`.write()`/`.expect`
//!   forms) outside tests must route through the helper.
//! * **HL004** — protocol exhaustiveness: every `Operation` variant must
//!   appear in the opcode table, encode/decode arms, and `reply_kind`;
//!   every kernel `Errno` variant must appear in the wire errno table.
//! * **HL005** — unsafe confinement: every crate root declares
//!   `#![forbid(unsafe_code)]` (`deny` for a root hosting an allow-listed
//!   site); `unsafe` and `allow(unsafe_code)` appear only at the
//!   [`UNSAFE_SITES`], each `unsafe` block under a `// SAFETY:` comment.
//! * **HL006** — test-only public API: a `pub fn`, `pub const` or
//!   `pub static` in a library crate needs a caller outside test code, or a
//!   `// hpcc-lint: allow(test_only_api) — <reason>` marker naming the paper
//!   claim or the `tests/` file that needs it.
//!
//! The passes work on a comment/string/raw-string-aware token stream
//! ([`lex`]) — `unwrap` inside a string literal, a doc comment, or a
//! `stringify!` token tree never fires. See `LINTS.md` at the workspace root
//! for the full contract and the justification-marker grammar.

#![forbid(unsafe_code)]

pub mod lex;
pub mod lock_order;
pub mod no_panic;
pub mod poison;
pub mod protocol;
pub mod test_only_api;
pub mod unsafe_code;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use lex::SourceFile;

/// One finding: a stable code, a location, and the offending snippet.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Stable pass code, e.g. `HL001`.
    pub code: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number (1 when the finding is file-scoped).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
    /// The trimmed offending source line (empty when file-scoped).
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "error[{}]: {}", self.code, self.message)?;
        write!(f, "  --> {}:{}", self.file, self.line)?;
        if !self.snippet.is_empty() {
            write!(f, "\n   |  {}", self.snippet)?;
        }
        Ok(())
    }
}

/// The serving-path modules HL001 applies to.
pub const NO_PANIC_MODULES: &[&str] = &[
    "crates/fuseproto/src/server.rs",
    "crates/fuseproto/src/transport.rs",
    "crates/fuseproto/src/wire.rs",
    "crates/fuseproto/src/retry.rs",
    "crates/fuseproto/src/fault.rs",
    "crates/fuseproto/src/shared.rs",
    "crates/fuseproto/src/dispatch.rs",
    "crates/fuseproto/src/session.rs",
    "crates/fuseproto/src/memfs.rs",
];

/// The functions HL005 allows to hold `unsafe` code: (file, function name).
/// The SHA-256 compress dispatch calls the SHA-NI kernel after CPUID
/// detection.
pub const UNSAFE_SITES: &[(&str, &str)] = &[("crates/image/src/sha256.rs", "compress_blocks")];

/// Reads and lexes one workspace file, keyed by its workspace-relative path.
fn load(root: &Path, rel: &str) -> io::Result<SourceFile> {
    let src = fs::read_to_string(root.join(rel))?;
    Ok(lex::lex(rel, &src))
}

/// Collects every `.rs` file under `crates/<crate>/src`, workspace-relative.
fn crate_src_files(root: &Path, krate: &str) -> io::Result<Vec<String>> {
    src_files(root, &root.join("crates").join(krate).join("src"))
}

/// Collects every `.rs` file under `dir`, workspace-relative and sorted.
fn src_files(root: &Path, dir: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    if dir.is_dir() {
        walk(dir, &mut out)?;
    }
    let mut rels: Vec<String> = out
        .iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rels.sort();
    Ok(rels)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// The crates HL002/HL003 scan (everything with a `src/` under `crates/`,
/// except the analyzer itself — its fixture corpus is *intentionally*
/// violating).
fn lintable_crates(root: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().to_string();
        if name == "analyzer" {
            continue;
        }
        if entry.path().join("src").is_dir() {
            names.push(name);
        }
    }
    names.sort();
    Ok(names)
}

/// Runs all six passes over the workspace rooted at `root`, returning every
/// finding sorted by file and line.
pub fn run_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut findings = Vec::new();

    // HL001: no-panic serving path.
    for rel in NO_PANIC_MODULES {
        let file = load(root, rel)?;
        findings.extend(no_panic::check(&file));
    }

    // HL002 + HL003: per crate.
    for krate in lintable_crates(root)? {
        let files: Vec<SourceFile> = crate_src_files(root, &krate)?
            .iter()
            .map(|rel| load(root, rel))
            .collect::<io::Result<_>>()?;
        findings.extend(lock_order::check_crate(&files));
        findings.extend(poison::check_crate(&files));
    }

    // HL004: protocol exhaustiveness.
    findings.extend(protocol_checks(root)?);

    // HL005: unsafe confinement.
    findings.extend(unsafe_checks(root)?);

    // HL006: test-only public API.
    findings.extend(test_only_api_checks(root)?);

    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
    Ok(findings)
}

/// The workspace's wire-surface cross-checks:
/// * `Operation` (fuseproto/src/op.rs) ↔ opcode consts + encode/decode arms
///   (wire.rs) + `reply_kind`/`mutates` arms (op.rs);
/// * kernel `Errno` (kernel/src/errno.rs) ↔ the wire errno table
///   (`to_kernel` in fuseproto/src/errno.rs).
pub fn protocol_checks(root: &Path) -> io::Result<Vec<Finding>> {
    use protocol::{EnumCheck, Region};
    let op = load(root, "crates/fuseproto/src/op.rs")?;
    let wire = load(root, "crates/fuseproto/src/wire.rs")?;
    let kernel_errno = load(root, "crates/kernel/src/errno.rs")?;
    let proto_errno = load(root, "crates/fuseproto/src/errno.rs")?;

    let mut findings = Vec::new();
    findings.extend(protocol::check(&EnumCheck {
        enum_file: &op,
        enum_name: "Operation",
        regions: vec![
            (&wire, Region::ConstPrefix("FUSE_")),
            (&wire, Region::FnBody("opcode_and_nodeid")),
            (&wire, Region::FnBody("encode_request")),
            (&wire, Region::FnBody("decode_request")),
            (&op, Region::FnBody("reply_kind")),
            (&op, Region::FnBody("mutates")),
        ],
    }));
    findings.extend(protocol::check(&EnumCheck {
        enum_file: &kernel_errno,
        enum_name: "Errno",
        regions: vec![
            (&kernel_errno, Region::FnBody("code")),
            (&kernel_errno, Region::FnBody("message")),
            (&proto_errno, Region::FnBody("to_kernel")),
        ],
    }));
    Ok(findings)
}

/// HL005 over every package's `src/` tree — the workspace root's and each
/// `crates/*` one's, the analyzer included. Crate roots are `lib.rs`,
/// `main.rs` and `bin/*.rs`. Tests, benches and examples are out of scope:
/// counting allocators there need `unsafe impl GlobalAlloc`.
pub fn unsafe_checks(root: &Path) -> io::Result<Vec<Finding>> {
    use unsafe_code::RootLevel;
    let mut packages = vec![String::new()];
    for entry in fs::read_dir(root.join("crates"))? {
        packages.push(format!("crates/{}/", entry?.file_name().to_string_lossy()));
    }
    packages.sort();
    let mut findings = Vec::new();
    for package in packages {
        let src = format!("{package}src/");
        for rel in src_files(root, &root.join(&src))? {
            let file = load(root, &rel)?;
            let sites: Vec<&str> = UNSAFE_SITES
                .iter()
                .filter(|(f, _)| *f == rel)
                .map(|(_, name)| *name)
                .collect();
            findings.extend(unsafe_code::check_file(&file, &sites));
            let in_src = &rel[src.len()..];
            let is_root = matches!(in_src, "lib.rs" | "main.rs")
                || in_src
                    .strip_prefix("bin/")
                    .is_some_and(|b| !b.contains('/') || b.ends_with("/main.rs"));
            if is_root {
                let hosts_site =
                    in_src == "lib.rs" && UNSAFE_SITES.iter().any(|(f, _)| f.starts_with(&src));
                let level = if hosts_site {
                    RootLevel::Deny
                } else {
                    RootLevel::Forbid
                };
                findings.extend(unsafe_code::check_root(&file, level));
            }
        }
    }
    Ok(findings)
}

/// Crates whose public items HL006 does not check: they copy crates.io
/// APIs and will be swapped for those crates whole.
pub const API_SHIMS: &[&str] = &["criterion-shim", "proptest-shim"];

/// HL006 over the workspace. Checked: every `.rs` file under
/// `crates/*/src`, except crate `main.rs` files, `src/bin/**` and the
/// [`API_SHIMS`]. Callers: those files plus the shims, the bins, the root
/// package's `src/`, `crates/*/benches`, `examples/` and `perfbench/src/`.
/// A file that its parent declares as `#[cfg(test)] mod name;` is test code
/// as a whole, so it is neither checked nor a caller.
pub fn test_only_api_checks(root: &Path) -> io::Result<Vec<Finding>> {
    let mut checked = Vec::new();
    let mut others = Vec::new();
    let mut crates = Vec::new();
    for entry in fs::read_dir(root.join("crates"))? {
        crates.push(entry?.file_name().to_string_lossy().to_string());
    }
    crates.sort();
    for krate in &crates {
        let src = format!("crates/{krate}/src/");
        for rel in src_files(root, &root.join(&src))? {
            let in_src = &rel[src.len()..];
            let library = !API_SHIMS.contains(&krate.as_str())
                && in_src != "main.rs"
                && !in_src.starts_with("bin/");
            let file = load(root, &rel)?;
            if library {
                checked.push(file);
            } else {
                others.push(file);
            }
        }
        for rel in src_files(root, &root.join("crates").join(krate).join("benches"))? {
            others.push(load(root, &rel)?);
        }
    }
    for dir in ["src", "examples", "perfbench/src"] {
        for rel in src_files(root, &root.join(dir))? {
            others.push(load(root, &rel)?);
        }
    }
    let mut test_files = Vec::new();
    for file in checked.iter().chain(&others) {
        let (dir, stem) = file.path.rsplit_once('/').unwrap_or(("", &file.path));
        let stem = stem.trim_end_matches(".rs");
        for module in test_only_api::test_modules(file) {
            if matches!(stem, "lib" | "main" | "mod") {
                test_files.push(format!("{dir}/{module}.rs"));
                test_files.push(format!("{dir}/{module}/mod.rs"));
            } else {
                test_files.push(format!("{dir}/{stem}/{module}.rs"));
            }
        }
    }
    checked.retain(|f| !test_files.contains(&f.path));
    others.retain(|f| !test_files.contains(&f.path));
    Ok(test_only_api::check(&checked, &others))
}

/// Ascends from `start` to the first directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
