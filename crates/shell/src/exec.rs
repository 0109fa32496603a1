//! Execution engine for the shell subset: builtins, the package-manager
//! front-ends (`yum`, `apt-get`), and the `fakeroot` wrapper command.
//!
//! File I/O builtins (`cat`, `touch`, `rm`, and output redirection) speak
//! the FUSE-style operation protocol (`hpcc-fuseproto`): each command runs a
//! [`Session`] over the build filesystem and drives `lookup`/`open`/`read`/
//! `write`/`release` ops with per-request credentials — the same wire a
//! mount would use — instead of poking `Filesystem` path methods directly.

use std::collections::BTreeMap;

use hpcc_distro::{apt, yum, Catalog, UserDb};
use hpcc_fakeroot::{FakerootSession, Flavor, LieDatabase};
use hpcc_fuseproto::{FsCreds, MemFs, OpenFlags, Session};
use hpcc_kernel::{Credentials, Errno, Gid, KResult, Uid, UserNamespace};
use hpcc_vfs::{Actor, FileType, Filesystem, Mode};

use crate::parse::{parse_line, Connector, Pipeline, SimpleCommand, Statement};

/// The op-session type shell builtins run over the borrowed build
/// filesystem.
type OpsSession<'b> = Session<MemFs<&'b mut Filesystem>>;

/// Splits an absolute path into (parent path, final name).
fn split_parent(path: &str) -> (&str, &str) {
    match path.rfind('/') {
        Some(0) => ("/", &path[1..]),
        Some(idx) => (&path[..idx], &path[idx + 1..]),
        None => ("/", path),
    }
}

/// `rm` through the op protocol. Non-recursive is a single `unlink`;
/// recursive mirrors `remove_tree`'s tolerance for a missing target.
fn rm_via_ops(sess: &OpsSession<'_>, cred: &FsCreds, path: &str, recursive: bool) -> KResult<()> {
    let (dir, name) = split_parent(path);
    let parent = match sess.resolve_path(cred, dir, true) {
        Ok(e) => e,
        Err(Errno::ENOENT) if recursive => return Ok(()),
        Err(e) => return Err(e),
    };
    if !recursive {
        return sess.unlink(cred, parent.ino, name);
    }
    let entry = match sess.lookup(cred, parent.ino, name) {
        Ok(e) => e,
        Err(Errno::ENOENT) => return Ok(()),
        Err(e) => return Err(e),
    };
    remove_entry_recursive(
        sess,
        cred,
        parent.ino,
        name,
        entry.ino,
        entry.attr.file_type,
    )
}

/// Depth-first removal driven entirely by ops: `opendir`/`readdir` cursors
/// to list (the reply already carries each child's ino and type, so no
/// per-child lookup is needed), `unlink`/`rmdir` per entry.
fn remove_entry_recursive(
    sess: &OpsSession<'_>,
    cred: &FsCreds,
    parent: hpcc_vfs::Ino,
    name: &str,
    ino: hpcc_vfs::Ino,
    file_type: FileType,
) -> KResult<()> {
    if file_type != FileType::Directory {
        return sess.unlink(cred, parent, name);
    }
    let dh = sess.opendir(cred, ino)?;
    let children = sess.readdir(cred, dh.fh, 0, usize::MAX)?;
    sess.releasedir(cred, dh.fh)?;
    for child in children {
        remove_entry_recursive(sess, cred, ino, &child.name, child.ino, child.file_type)?;
    }
    sess.rmdir(cred, parent, name)
}

/// Opens `path` for writing through ops, creating the file if absent. A
/// *dangling symlink* occupying the final name is replaced by a fresh
/// regular file, preserving the seed `write_file` behavior (which rewrote
/// the symlink inode in place) — without this, `create` would fail EEXIST
/// on the name.
fn open_for_write_via_ops(
    sess: &OpsSession<'_>,
    cred: &FsCreds,
    path: &str,
) -> KResult<hpcc_fuseproto::Opened> {
    match sess.resolve_path(cred, path, true) {
        Ok(entry) => sess.open(cred, entry.ino, OpenFlags::WRONLY | OpenFlags::TRUNC),
        Err(Errno::ENOENT) => {
            let (dir, name) = split_parent(path);
            let parent = sess.resolve_path(cred, dir, true)?;
            if let Ok(existing) = sess.lookup(cred, parent.ino, name) {
                if existing.attr.file_type == FileType::Symlink {
                    sess.unlink(cred, parent.ino, name)?;
                }
            }
            Ok(sess
                .create(cred, parent.ino, name, Mode::FILE_644, OpenFlags::WRONLY)?
                .1)
        }
        Err(e) => Err(e),
    }
}

/// Output redirection through the op protocol: truncate-or-create, write,
/// release.
fn redirect_via_ops(
    sess: &OpsSession<'_>,
    cred: &FsCreds,
    path: &str,
    content: &[u8],
) -> KResult<()> {
    let opened = open_for_write_via_ops(sess, cred, path)?;
    let wrote = sess.write(cred, opened.fh, 0, content).map(|_| ());
    sess.release(cred, opened.fh)?;
    wrote
}

/// Result of running a command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdResult {
    /// Output lines (stdout and stderr interleaved, as in the paper's
    /// transcripts).
    pub lines: Vec<String>,
    /// Exit status of the last command executed.
    pub status: i32,
}

impl CmdResult {
    /// Success with no output.
    pub fn ok() -> Self {
        CmdResult {
            lines: Vec::new(),
            status: 0,
        }
    }

    /// True if the status is zero.
    pub fn success(&self) -> bool {
        self.status == 0
    }
}

/// The execution environment of one container build (shared across RUN
/// instructions so that e.g. the fakeroot lie database persists).
pub struct ExecEnv<'a> {
    /// The container's root filesystem.
    pub fs: &'a mut Filesystem,
    /// Credentials of the containerized process (host IDs).
    pub creds: Credentials,
    /// User namespace the container runs in.
    pub userns: &'a UserNamespace,
    /// Package catalog of the base distribution.
    pub catalog: &'a Catalog,
    /// Container CPU architecture.
    pub arch: String,
    /// Environment variables (`ENV` instructions).
    pub env: BTreeMap<String, String>,
    /// Persisted fakeroot lie database (survives across `fakeroot`
    /// invocations and RUN instructions).
    pub fakeroot_db: LieDatabase,
    /// Wrapper active for the currently executing (sub)command.
    active_wrapper: Option<FakerootSession>,
    /// `set -x` state.
    echo_commands: bool,
    /// `set -e` state.
    exit_on_error: bool,
}

impl<'a> ExecEnv<'a> {
    /// Creates an execution environment.
    pub fn new(
        fs: &'a mut Filesystem,
        creds: Credentials,
        userns: &'a UserNamespace,
        catalog: &'a Catalog,
        arch: &str,
    ) -> Self {
        ExecEnv {
            fs,
            creds,
            userns,
            catalog,
            arch: arch.to_string(),
            env: BTreeMap::new(),
            fakeroot_db: LieDatabase::new(),
            active_wrapper: None,
            echo_commands: false,
            exit_on_error: false,
        }
    }

    /// Starts an operation session over the build filesystem with the
    /// shell's credentials as the per-request identity — the path every
    /// file-I/O builtin takes.
    fn ops_session(&mut self) -> (OpsSession<'_>, FsCreds) {
        let cred = FsCreds::from_credentials(&self.creds);
        (
            Session::new(MemFs::new(&mut *self.fs, self.userns.clone())),
            cred,
        )
    }

    /// Which `fakeroot(1)` implementation is installed in the image, if any.
    pub fn detect_fakeroot_flavor(&self) -> Option<Flavor> {
        let actor = Actor::new(&self.creds, self.userns);
        if self.fs.exists(&actor, "/usr/bin/pseudo") {
            Some(Flavor::Pseudo)
        } else if self.fs.exists(&actor, "/usr/bin/fakeroot") {
            Some(Flavor::Fakeroot)
        } else {
            None
        }
    }

    /// Runs a full command line (the body of a `RUN` instruction).
    pub fn run_command(&mut self, cmdline: &str) -> CmdResult {
        self.echo_commands = false;
        self.exit_on_error = false;
        let statements = parse_line(cmdline);
        self.run_statements(&statements)
    }

    fn run_statements(&mut self, statements: &[Statement]) -> CmdResult {
        let mut lines = Vec::new();
        let mut status = 0;
        let mut prev_connector = Connector::Seq;
        let mut prev_status = 0;
        for stmt in statements {
            let should_run = match prev_connector {
                Connector::Seq => true,
                Connector::And => prev_status == 0,
                Connector::Or => prev_status != 0,
            };
            if !should_run {
                // Still need to advance the connector chain.
                prev_connector = match stmt {
                    Statement::Pipeline(_, c) => *c,
                    Statement::If { connector, .. } => *connector,
                };
                continue;
            }
            let (result, connector) = match stmt {
                Statement::Pipeline(p, c) => (self.run_pipeline(p), *c),
                Statement::If {
                    condition,
                    body,
                    connector,
                } => {
                    let cond = self.run_statements(condition);
                    let mut out = cond.lines;
                    let st = if cond.status == 0 {
                        let b = self.run_statements(body);
                        out.extend(b.lines);
                        b.status
                    } else {
                        0
                    };
                    (
                        CmdResult {
                            lines: out,
                            status: st,
                        },
                        *connector,
                    )
                }
            };
            lines.extend(result.lines);
            status = result.status;
            prev_status = result.status;
            prev_connector = connector;
            if self.exit_on_error && status != 0 && matches!(prev_connector, Connector::Seq) {
                break;
            }
        }
        CmdResult { lines, status }
    }

    fn run_pipeline(&mut self, pipeline: &Pipeline) -> CmdResult {
        let mut stdin: Vec<String> = Vec::new();
        let mut lines = Vec::new();
        let mut status = 0;
        for (i, stage) in pipeline.stages.iter().enumerate() {
            let is_last = i + 1 == pipeline.stages.len();
            if self.echo_commands {
                lines.push(format!("+ {}", stage.argv.join(" ")));
            }
            let result = self.run_simple(stage, &stdin);
            status = result.status;
            if is_last {
                lines.extend(result.lines);
            } else {
                stdin = result.lines;
            }
        }
        if pipeline.negated {
            status = if status == 0 { 1 } else { 0 };
        }
        CmdResult { lines, status }
    }

    fn expand_globs(&self, args: &[String]) -> Vec<String> {
        let actor = Actor::new(&self.creds, self.userns);
        let mut out = Vec::new();
        for a in args {
            if !a.contains('*') || !a.starts_with('/') {
                out.push(a.clone());
                continue;
            }
            // Only the final component may contain a single `*`.
            let (dir, pattern) = match a.rfind('/') {
                Some(idx) => (&a[..idx], &a[idx + 1..]),
                None => ("/", a.as_str()),
            };
            let dir = if dir.is_empty() { "/" } else { dir };
            let mut matched = Vec::new();
            if let Ok(entries) = self.fs.readdir(&actor, dir) {
                let parts: Vec<&str> = pattern.splitn(2, '*').collect();
                let (prefix, suffix) = (parts[0], parts.get(1).copied().unwrap_or(""));
                for e in entries {
                    if e.starts_with(prefix)
                        && e.ends_with(suffix)
                        && e.len() >= prefix.len() + suffix.len()
                    {
                        matched.push(format!("{}/{}", dir, e));
                    }
                }
            }
            if matched.is_empty() {
                out.push(a.clone());
            } else {
                out.extend(matched);
            }
        }
        out
    }

    fn resolve_owner(&self, spec: &str) -> (Option<Uid>, Option<Gid>) {
        let actor = Actor::new(&self.creds, self.userns);
        let db = UserDb::load_from(self.fs, &actor);
        let mut parts = spec.splitn(2, ':');
        let user = parts.next().unwrap_or("");
        let group = parts.next();
        let uid = if user.is_empty() {
            None
        } else if let Ok(n) = user.parse::<u32>() {
            Some(Uid(n))
        } else {
            db.user_by_name(user)
                .map(|u| Uid(u.uid))
                .or(Some(Uid(65534)))
        };
        let gid = match group {
            None => None,
            Some("") => None,
            Some(g) => {
                if let Ok(n) = g.parse::<u32>() {
                    Some(Gid(n))
                } else {
                    db.groups
                        .iter()
                        .find(|e| e.name == g)
                        .map(|e| Gid(e.gid))
                        .or(Some(Gid(65534)))
                }
            }
        };
        (uid, gid)
    }

    fn run_simple(&mut self, cmd: &SimpleCommand, stdin: &[String]) -> CmdResult {
        if cmd.argv.is_empty() {
            return CmdResult::ok();
        }
        let argv = self.expand_globs(&cmd.argv);
        let name = argv[0].as_str();
        let args: Vec<&str> = argv[1..].iter().map(|s| s.as_str()).collect();
        let mut result = match name {
            "set" => {
                for a in &args {
                    if a.contains('e') && a.starts_with('-') {
                        self.exit_on_error = true;
                    }
                    if a.contains('x') && a.starts_with('-') {
                        self.echo_commands = true;
                    }
                }
                CmdResult::ok()
            }
            "true" | ":" => CmdResult::ok(),
            "false" => CmdResult {
                lines: vec![],
                status: 1,
            },
            "echo" => CmdResult {
                lines: vec![args.join(" ")],
                status: 0,
            },
            "command" => self.builtin_command_v(&args),
            "grep" | "egrep" | "fgrep" => self.builtin_grep(name, &args, stdin),
            "touch" => self.builtin_touch(&args),
            "mkdir" => self.builtin_mkdir(&args),
            "rm" => self.builtin_rm(&args),
            "chown" => self.builtin_chown(&args),
            "mknod" => self.builtin_mknod(&args),
            "ls" => self.builtin_ls(&args),
            "cat" => self.builtin_cat(&args),
            "gcc" | "g++" | "cc" | "mpicc" | "mpicxx" => self.builtin_compiler(name, &args),
            "yum" | "dnf" => self.builtin_yum(&args),
            "yum-config-manager" => self.builtin_yum_config_manager(&args),
            "apt-get" | "apt" => self.builtin_apt_get(&args),
            "apt-config" => self.builtin_apt_config(&args),
            "fakeroot" | "pseudo" => self.builtin_fakeroot(&args),
            "sh" | "/bin/sh" | "bash" | "/bin/bash" => {
                if args.first() == Some(&"-c") && args.len() >= 2 {
                    let sub = args[1].to_string();
                    self.run_command(&sub)
                } else {
                    CmdResult::ok()
                }
            }
            other => self.exec_external(other),
        };
        // Apply output redirection (through the op protocol).
        if let Some(target) = &cmd.redirect {
            if target != "/dev/null" {
                let content = if result.lines.is_empty() {
                    String::new()
                } else {
                    result.lines.join("\n") + "\n"
                };
                let path = self.abspath(target);
                let (sess, cred) = self.ops_session();
                if redirect_via_ops(&sess, &cred, &path, content.as_bytes()).is_err() {
                    return CmdResult {
                        lines: vec![format!("sh: {}: Permission denied", target)],
                        status: 1,
                    };
                }
            }
            result.lines = Vec::new();
        }
        result
    }

    fn exec_external(&mut self, name: &str) -> CmdResult {
        let actor = Actor::new(&self.creds, self.userns);
        let candidates = [
            name.to_string(),
            format!("/usr/bin/{}", name),
            format!("/bin/{}", name),
            format!("/usr/sbin/{}", name),
            format!("/sbin/{}", name),
        ];
        for c in &candidates {
            if c.starts_with('/') && self.fs.exists(&actor, c) {
                // A synthetic ELF binary "runs" successfully with no output.
                return CmdResult::ok();
            }
        }
        CmdResult {
            lines: vec![format!("/bin/sh: {}: command not found", name)],
            status: 127,
        }
    }

    fn builtin_command_v(&self, args: &[&str]) -> CmdResult {
        if args.first() != Some(&"-v") || args.len() < 2 {
            return CmdResult {
                lines: vec![],
                status: 1,
            };
        }
        let actor = Actor::new(&self.creds, self.userns);
        let name = args[1];
        for dir in ["/usr/bin", "/bin", "/usr/sbin", "/sbin"] {
            let p = format!("{}/{}", dir, name);
            if self.fs.exists(&actor, &p) {
                return CmdResult {
                    lines: vec![p],
                    status: 0,
                };
            }
        }
        CmdResult {
            lines: vec![],
            status: 1,
        }
    }

    fn builtin_grep(&self, _name: &str, args: &[&str], stdin: &[String]) -> CmdResult {
        let mut quiet = false;
        let mut pattern: Option<String> = None;
        let mut files: Vec<String> = Vec::new();
        for a in args {
            if a.starts_with('-') && pattern.is_none() {
                if a.contains('q') {
                    quiet = true;
                }
                continue;
            }
            if pattern.is_none() {
                pattern = Some(a.to_string());
            } else {
                files.push(a.to_string());
            }
        }
        let pattern = pattern.unwrap_or_default();
        // Regex-lite: strip backslash escapes and trailing whitespace, then do
        // a substring match. This covers the patterns the paper's workaround
        // commands use ('\[epel\]', fixed strings).
        let needle = pattern.replace('\\', "");
        let needle = needle.trim_end();
        let actor = Actor::new(&self.creds, self.userns);
        let mut matches = Vec::new();
        if files.is_empty() {
            for l in stdin {
                if l.contains(needle) {
                    matches.push(l.clone());
                }
            }
        } else {
            for f in &files {
                if let Ok(text) = self.fs.read_to_string(&actor, f) {
                    for l in text.lines() {
                        if l.contains(needle) {
                            matches.push(format!("{}:{}", f, l));
                        }
                    }
                }
            }
        }
        CmdResult {
            lines: if quiet { Vec::new() } else { matches.clone() },
            status: if matches.is_empty() { 1 } else { 0 },
        }
    }

    fn builtin_touch(&mut self, args: &[&str]) -> CmdResult {
        let files: Vec<(String, String)> = args
            .iter()
            .filter(|a| !a.starts_with('-'))
            .map(|a| (a.to_string(), self.abspath(a)))
            .collect();
        let (sess, cred) = self.ops_session();
        for (arg, path) in &files {
            if sess.resolve_path(&cred, path, true).is_ok() {
                continue;
            }
            let created: KResult<()> = open_for_write_via_ops(&sess, &cred, path)
                .and_then(|opened| sess.release(&cred, opened.fh));
            if let Err(e) = created {
                return CmdResult {
                    lines: vec![format!("touch: cannot touch '{}': {}", arg, e.message())],
                    status: 1,
                };
            }
        }
        CmdResult::ok()
    }

    fn builtin_mkdir(&mut self, args: &[&str]) -> CmdResult {
        let actor = Actor::new(&self.creds, self.userns);
        let recursive = args.contains(&"-p");
        for a in args {
            if a.starts_with('-') {
                continue;
            }
            let path = self.abspath(a);
            if recursive {
                let _ = self.fs.mkdir_p(&actor, &path, Mode::DIR_755, false);
            } else if let Err(e) = self.fs.mkdir(&actor, &path, Mode::DIR_755) {
                return CmdResult {
                    lines: vec![format!(
                        "mkdir: cannot create directory '{}': {}",
                        a,
                        e.message()
                    )],
                    status: 1,
                };
            }
        }
        CmdResult::ok()
    }

    fn builtin_rm(&mut self, args: &[&str]) -> CmdResult {
        let recursive = args.iter().any(|a| a.contains('r') && a.starts_with('-'));
        let force = args.iter().any(|a| a.starts_with('-') && a.contains('f'));
        let files: Vec<(String, String)> = args
            .iter()
            .filter(|a| !a.starts_with('-'))
            .map(|a| (a.to_string(), self.abspath(a)))
            .collect();
        let (sess, cred) = self.ops_session();
        for (arg, path) in &files {
            if let Err(e) = rm_via_ops(&sess, &cred, path, recursive) {
                if e != Errno::ENOENT || !force {
                    return CmdResult {
                        lines: vec![format!("rm: cannot remove '{}': {}", arg, e.message())],
                        status: 1,
                    };
                }
            }
        }
        CmdResult::ok()
    }

    fn builtin_chown(&mut self, args: &[&str]) -> CmdResult {
        let spec = match args.iter().find(|a| !a.starts_with('-')) {
            Some(s) => *s,
            None => {
                return CmdResult {
                    lines: vec![],
                    status: 1,
                }
            }
        };
        let (uid, gid) = self.resolve_owner(spec);
        let files: Vec<String> = args
            .iter()
            .filter(|a| !a.starts_with('-') && **a != spec)
            .map(|s| self.abspath(s))
            .collect();
        let ExecEnv {
            fs,
            creds,
            userns,
            active_wrapper,
            ..
        } = self;
        let actor = Actor::new(creds, userns);
        for f in &files {
            let r = match active_wrapper.as_mut() {
                Some(w) => w.chown(fs, &actor, f, uid, gid),
                None => fs.chown(&actor, f, uid, gid),
            };
            if let Err(e) = r {
                return CmdResult {
                    lines: vec![format!(
                        "chown: changing ownership of '{}': {}",
                        f,
                        e.message()
                    )],
                    status: 1,
                };
            }
        }
        CmdResult::ok()
    }

    fn builtin_mknod(&mut self, args: &[&str]) -> CmdResult {
        // mknod PATH c MAJOR MINOR
        if args.len() < 4 {
            return CmdResult {
                lines: vec!["mknod: missing operand".into()],
                status: 1,
            };
        }
        let path = self.abspath(args[0]);
        let ftype = match args[1] {
            "c" | "u" => FileType::CharDevice,
            "b" => FileType::BlockDevice,
            "p" => FileType::Fifo,
            _ => FileType::CharDevice,
        };
        let major: u32 = args[2].parse().unwrap_or(0);
        let minor: u32 = args[3].parse().unwrap_or(0);
        let ExecEnv {
            fs,
            creds,
            userns,
            active_wrapper,
            ..
        } = self;
        let actor = Actor::new(creds, userns);
        let r = match active_wrapper.as_mut() {
            Some(w) => w.mknod(fs, &actor, &path, ftype, major, minor, Mode::new(0o640)),
            None => fs
                .mknod(&actor, &path, ftype, major, minor, Mode::new(0o640))
                .map(|_| ()),
        };
        match r {
            Ok(()) => CmdResult::ok(),
            Err(e) => CmdResult {
                lines: vec![format!("mknod: {}: {}", args[0], e.message())],
                status: 1,
            },
        }
    }

    fn builtin_ls(&mut self, args: &[&str]) -> CmdResult {
        let files: Vec<String> = args
            .iter()
            .filter(|a| !a.starts_with('-'))
            .map(|s| self.abspath(s))
            .collect();
        let long = args.iter().any(|a| a.starts_with('-') && a.contains('l'));
        let actor = Actor::new(&self.creds, self.userns);
        let db = UserDb::load_from(self.fs, &actor);
        let uname = |u: Uid| db.display_uid(u);
        let gname = |g: Gid| db.display_gid(g);
        let mut lines = Vec::new();
        for f in &files {
            if !long {
                lines.push(
                    Filesystem::components(f)
                        .last()
                        .cloned()
                        .unwrap_or_else(|| "/".to_string()),
                );
                continue;
            }
            let line = match &self.active_wrapper {
                Some(w) => w.ls_line(self.fs, &actor, f, uname, gname),
                None => self.fs.ls_line(&actor, f, uname, gname),
            };
            match line {
                Ok(l) => lines.push(l),
                Err(e) => {
                    return CmdResult {
                        lines: vec![format!("ls: cannot access '{}': {}", f, e.message())],
                        status: 2,
                    }
                }
            }
        }
        CmdResult { lines, status: 0 }
    }

    fn builtin_cat(&mut self, args: &[&str]) -> CmdResult {
        let files: Vec<(String, String)> = args
            .iter()
            .filter(|a| !a.starts_with('-'))
            .map(|a| (a.to_string(), self.abspath(a)))
            .collect();
        let (sess, cred) = self.ops_session();
        let mut lines = Vec::new();
        for (arg, path) in &files {
            // lookup → open → read → release, like a process on a mount.
            let text: KResult<String> = (|| {
                let entry = sess.resolve_path(&cred, path, true)?;
                let opened = sess.open(&cred, entry.ino, OpenFlags::RDONLY)?;
                let data = sess.read(&cred, opened.fh, 0, u32::MAX)?;
                let text = std::str::from_utf8(data.as_slice())
                    .map(|s| s.to_string())
                    .map_err(|_| Errno::EINVAL);
                sess.release(&cred, opened.fh)?;
                text
            })();
            match text {
                Ok(text) => lines.extend(text.lines().map(|l| l.to_string())),
                Err(e) => {
                    return CmdResult {
                        lines: vec![format!("cat: {}: {}", arg, e.message())],
                        status: 1,
                    }
                }
            }
        }
        CmdResult { lines, status: 0 }
    }

    fn builtin_compiler(&mut self, name: &str, args: &[&str]) -> CmdResult {
        // The synthetic compilers produce an executable at the `-o` target so
        // that downstream validation stages can find the built application.
        let exists = {
            let actor = Actor::new(&self.creds, self.userns);
            ["/usr/bin", "/usr/lib64/openmpi/bin", "/bin"]
                .iter()
                .any(|d| self.fs.exists(&actor, &format!("{}/{}", d, name)))
        };
        if !exists {
            return CmdResult {
                lines: vec![format!("/bin/sh: {}: command not found", name)],
                status: 127,
            };
        }
        if let Some(pos) = args.iter().position(|a| *a == "-o") {
            if let Some(out) = args.get(pos + 1) {
                let path = self.abspath(out);
                let actor = Actor::new(&self.creds, self.userns);
                if let Err(e) =
                    self.fs
                        .write_file(&actor, &path, b"\x7fELF synthetic".to_vec(), Mode::EXEC_755)
                {
                    return CmdResult {
                        lines: vec![format!("{}: cannot write {}: {}", name, out, e.message())],
                        status: 1,
                    };
                }
            }
        }
        CmdResult::ok()
    }

    fn builtin_yum(&mut self, args: &[&str]) -> CmdResult {
        let mut enable_repos: Vec<String> = Vec::new();
        let mut subcommand = None;
        let mut packages: Vec<&str> = Vec::new();
        for a in args {
            if let Some(r) = a.strip_prefix("--enablerepo=") {
                enable_repos.push(r.to_string());
            } else if *a == "-y" || a.starts_with('-') {
                continue;
            } else if subcommand.is_none() {
                subcommand = Some(*a);
            } else {
                packages.push(*a);
            }
        }
        match subcommand {
            Some("install") => {
                let ExecEnv {
                    fs,
                    creds,
                    userns,
                    catalog,
                    arch,
                    active_wrapper,
                    ..
                } = self;
                let actor = Actor::new(creds, userns);
                let enable_refs: Vec<&str> = enable_repos.iter().map(|s| s.as_str()).collect();
                let out = yum::yum_install(
                    fs,
                    &actor,
                    active_wrapper.as_mut(),
                    catalog,
                    &packages,
                    &enable_refs,
                    arch,
                );
                CmdResult {
                    lines: out.lines,
                    status: out.status,
                }
            }
            Some("clean") | Some("makecache") | Some("repolist") => CmdResult::ok(),
            _ => CmdResult {
                lines: vec!["Usage: yum install ...".to_string()],
                status: 1,
            },
        }
    }

    fn builtin_yum_config_manager(&mut self, args: &[&str]) -> CmdResult {
        let mut enable = None;
        let mut repo = None;
        for a in args {
            match *a {
                "--disable" => enable = Some(false),
                "--enable" => enable = Some(true),
                other if !other.starts_with('-') => repo = Some(other),
                _ => {}
            }
        }
        match (enable, repo) {
            (Some(e), Some(r)) => {
                let ExecEnv {
                    fs, creds, userns, ..
                } = self;
                let actor = Actor::new(creds, userns);
                let out = yum::yum_config_manager(fs, &actor, r, e);
                CmdResult {
                    lines: out.lines,
                    status: out.status,
                }
            }
            _ => CmdResult {
                lines: vec!["usage: yum-config-manager [--enable|--disable] REPO".to_string()],
                status: 1,
            },
        }
    }

    fn builtin_apt_get(&mut self, args: &[&str]) -> CmdResult {
        let mut subcommand = None;
        let mut packages: Vec<&str> = Vec::new();
        for a in args {
            if a.starts_with('-') {
                continue;
            }
            if subcommand.is_none() {
                subcommand = Some(*a);
            } else {
                packages.push(*a);
            }
        }
        let ExecEnv {
            fs,
            creds,
            userns,
            catalog,
            arch,
            active_wrapper,
            ..
        } = self;
        let actor = Actor::new(creds, userns);
        let out = match subcommand {
            Some("update") => apt::apt_update(fs, &actor, catalog),
            Some("install") => apt::apt_install(
                fs,
                &actor,
                active_wrapper.as_mut(),
                catalog,
                &packages,
                arch,
            ),
            Some("clean") | Some("autoremove") => hpcc_distro::PmOutput::ok(vec![]),
            _ => hpcc_distro::PmOutput::fail(vec!["E: Invalid operation".to_string()], 100),
        };
        CmdResult {
            lines: out.lines,
            status: out.status,
        }
    }

    fn builtin_apt_config(&self, args: &[&str]) -> CmdResult {
        if args.first() == Some(&"dump") {
            let actor = Actor::new(&self.creds, self.userns);
            let dump = apt::apt_config_dump(self.fs, &actor);
            CmdResult {
                lines: dump.lines().map(|l| l.to_string()).collect(),
                status: 0,
            }
        } else {
            CmdResult {
                lines: vec![],
                status: 1,
            }
        }
    }

    fn builtin_fakeroot(&mut self, args: &[&str]) -> CmdResult {
        if args.is_empty() {
            return CmdResult::ok();
        }
        let flavor = match self.detect_fakeroot_flavor() {
            Some(f) => f,
            None => {
                return CmdResult {
                    lines: vec!["/bin/sh: fakeroot: command not found".to_string()],
                    status: 127,
                }
            }
        };
        // Activate a wrapper session seeded with the persisted database, run
        // the wrapped command, then persist the lies again.
        let session = FakerootSession::with_db(flavor, self.fakeroot_db.clone());
        let already_active = self.active_wrapper.is_some();
        if !already_active {
            self.active_wrapper = Some(session);
        }
        let nested = SimpleCommand {
            argv: args.iter().map(|s| s.to_string()).collect(),
            redirect: None,
        };
        let result = self.run_simple(&nested, &[]);
        if !already_active {
            if let Some(w) = self.active_wrapper.take() {
                self.fakeroot_db = w.db;
            }
        }
        result
    }

    fn abspath(&self, path: &str) -> String {
        if path.starts_with('/') {
            path.to_string()
        } else {
            format!("/{}", path)
        }
    }

    /// Runs a command wrapped in `fakeroot` programmatically (what `ch-image
    /// --force` does when it rewrites a RUN instruction).
    pub fn run_wrapped(&mut self, cmdline: &str) -> CmdResult {
        let flavor = match self.detect_fakeroot_flavor() {
            Some(f) => f,
            None => {
                return CmdResult {
                    lines: vec!["/bin/sh: fakeroot: command not found".to_string()],
                    status: 127,
                }
            }
        };
        self.active_wrapper = Some(FakerootSession::with_db(flavor, self.fakeroot_db.clone()));
        self.echo_commands = false;
        self.exit_on_error = false;
        let statements = parse_line(cmdline);
        let result = self.run_statements(&statements);
        if let Some(w) = self.active_wrapper.take() {
            self.fakeroot_db = w.db;
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_distro::{centos7, debian10};

    struct Env {
        fs: Filesystem,
        creds: Credentials,
        ns: UserNamespace,
        catalog: std::sync::Arc<Catalog>,
        arch: String,
    }

    fn centos_type3() -> Env {
        let img = centos7("x86_64");
        let mut fs = img.fs;
        fs.flatten_ownership(Uid(1000), Gid(1000));
        Env {
            fs,
            creds: Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)])
                .entered_own_namespace(),
            ns: UserNamespace::type3(Uid(1000), Gid(1000)),
            catalog: img.catalog,
            arch: "x86_64".to_string(),
        }
    }

    fn debian_type3() -> Env {
        let img = debian10("amd64");
        let mut fs = img.fs;
        fs.flatten_ownership(Uid(1000), Gid(1000));
        Env {
            fs,
            creds: Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)])
                .entered_own_namespace(),
            ns: UserNamespace::type3(Uid(1000), Gid(1000)),
            catalog: img.catalog,
            arch: "amd64".to_string(),
        }
    }

    fn exec<'a>(env: &'a mut Env) -> ExecEnv<'a> {
        ExecEnv::new(
            &mut env.fs,
            env.creds.clone(),
            &env.ns,
            &env.catalog,
            &env.arch,
        )
    }

    #[test]
    fn echo_hello() {
        let mut env = centos_type3();
        let mut sh = exec(&mut env);
        let r = sh.run_command("echo hello");
        assert_eq!(r.lines, vec!["hello"]);
        assert!(r.success());
    }

    #[test]
    fn command_not_found_is_127() {
        let mut env = centos_type3();
        let mut sh = exec(&mut env);
        let r = sh.run_command("frobnicate --now");
        assert_eq!(r.status, 127);
        assert!(r.lines[0].contains("command not found"));
    }

    #[test]
    fn figure2_run_yum_install_fails_in_type3() {
        let mut env = centos_type3();
        let mut sh = exec(&mut env);
        let r = sh.run_command("yum install -y openssh");
        assert_eq!(r.status, 1);
        assert!(r.lines.iter().any(|l| l.contains("cpio: chown")));
    }

    #[test]
    fn figure3_run_apt_get_update_fails_in_type3() {
        let mut env = debian_type3();
        let mut sh = exec(&mut env);
        let r = sh.run_command("apt-get update");
        assert_eq!(r.status, 100);
        assert!(r
            .lines
            .iter()
            .any(|l| l == "E: setgroups 65534 failed - setgroups (1: Operation not permitted)"));
    }

    #[test]
    fn figure8_manual_fakeroot_workflow_centos() {
        let mut env = centos_type3();
        let mut sh = exec(&mut env);
        assert!(sh.run_command("yum install -y epel-release").success());
        assert!(sh.run_command("yum install -y fakeroot").success());
        assert!(sh.run_command("echo hello").success());
        let r = sh.run_command("fakeroot yum install -y openssh");
        assert!(r.success(), "{:?}", r.lines);
        assert!(r.lines.iter().any(|l| l == "Complete!"));
    }

    #[test]
    fn figure9_manual_workflow_debian() {
        let mut env = debian_type3();
        let mut sh = exec(&mut env);
        let r =
            sh.run_command("echo 'APT::Sandbox::User \"root\"; ' > /etc/apt/apt.conf.d/no-sandbox");
        assert!(r.success(), "{:?}", r.lines);
        assert!(sh.run_command("echo hello").success());
        let r = sh.run_command("apt-get update");
        assert!(r.success(), "{:?}", r.lines);
        assert!(r.lines.iter().any(|l| l.contains("Fetched 8422 kB")));
        let r = sh.run_command("apt-get install -y pseudo");
        assert!(r.success(), "{:?}", r.lines);
        assert!(r
            .lines
            .iter()
            .any(|l| l.contains("W: chown to root:adm of file /var/log/apt/term.log failed")));
        let r = sh.run_command("fakeroot apt-get install -y openssh-client");
        assert!(r.success(), "{:?}", r.lines);
        assert!(r
            .lines
            .iter()
            .any(|l| l.contains("Setting up openssh-client")));
    }

    #[test]
    fn rhel7_init_step_check_and_apply() {
        let mut env = centos_type3();
        let mut sh = exec(&mut env);
        // Check: is fakeroot installed? (no)
        let r = sh.run_command("command -v fakeroot > /dev/null");
        assert_eq!(r.status, 1);
        // Apply: the rhel7 init pipeline from Figure 10 line 8.
        let apply = "set -ex; if ! grep -Eq '\\[epel\\]' /etc/yum.conf /etc/yum.repos.d/*; then yum install -y epel-release; yum-config-manager --disable epel; fi; yum --enablerepo=epel install -y fakeroot;";
        let r = sh.run_command(apply);
        assert!(r.success(), "{:?}", r.lines);
        // The echoed commands appear (set -x).
        assert!(r.lines.iter().any(|l| l.starts_with("+ grep")));
        assert!(r
            .lines
            .iter()
            .any(|l| l.starts_with("+ yum install -y epel-release")));
        // Now the check passes and re-running the apply skips the EPEL install.
        let r = sh.run_command("command -v fakeroot > /dev/null");
        assert!(r.success());
        let r = sh.run_command(apply);
        assert!(r.success());
        assert!(!r
            .lines
            .iter()
            .any(|l| l.starts_with("+ yum install -y epel-release")));
    }

    #[test]
    fn debderiv_init_step_check_and_apply() {
        let mut env = debian_type3();
        let mut sh = exec(&mut env);
        // Step 1 check (Figure 11 line 7): sandbox already disabled OR _apt missing?
        let check1 = "apt-config dump | fgrep -q 'APT::Sandbox::User \"root\"' || ! fgrep -q _apt /etc/passwd";
        let r = sh.run_command(check1);
        assert_eq!(r.status, 1, "sandbox not yet disabled: check must fail");
        // Step 1 apply.
        let r =
            sh.run_command("echo 'APT::Sandbox::User \"root\"; ' > /etc/apt/apt.conf.d/no-sandbox");
        assert!(r.success());
        let r = sh.run_command(check1);
        assert!(r.success(), "{:?}", r.lines);
        // Step 2 check: fakeroot present? (no)
        assert_eq!(sh.run_command("command -v fakeroot > /dev/null").status, 1);
        // Step 2 apply.
        let r = sh.run_command("apt-get update && apt-get install -y pseudo");
        assert!(r.success(), "{:?}", r.lines);
        assert!(sh.run_command("command -v fakeroot > /dev/null").success());
    }

    #[test]
    fn figure7_fakeroot_script() {
        let mut env = centos_type3();
        {
            let mut sh = exec(&mut env);
            sh.run_command("yum install -y epel-release");
            sh.run_command("yum install -y fakeroot");
            sh.run_command("mkdir -p /work");
            let r = sh.run_command(
                "fakeroot sh -c 'touch /work/test.file && chown nobody /work/test.file && mknod /work/test.dev c 1 1 && ls -lh /work/test.dev /work/test.file'",
            );
            assert!(r.success(), "{:?}", r.lines);
            let dev_line = r.lines.iter().find(|l| l.ends_with("test.dev")).unwrap();
            assert!(dev_line.starts_with("crw-"), "{}", dev_line);
            assert!(dev_line.contains("root root"));
            let file_line = r.lines.iter().find(|l| l.ends_with("test.file")).unwrap();
            assert!(file_line.contains("nobody"), "{}", file_line);
            // Outside the wrapper, the lies are exposed.
            let r = sh.run_command("ls -lh /work/test.dev /work/test.file");
            let outside_dev = r.lines.iter().find(|l| l.ends_with("test.dev")).unwrap();
            assert!(outside_dev.starts_with("-rw-"), "{}", outside_dev);
        }
    }

    #[test]
    fn wrapped_ls_lists_a_symlink_as_itself() {
        let mut env = centos_type3();
        let mut sh = exec(&mut env);
        assert!(sh.run_command("yum install -y epel-release").success());
        assert!(sh.run_command("yum install -y fakeroot").success());
        let plain = sh.run_command("ls -l /bin/bash");
        let wrapped = sh.run_command("fakeroot ls -l /bin/bash");
        assert!(
            plain.success() && wrapped.success(),
            "{plain:?} {wrapped:?}"
        );
        assert!(plain.lines[0].starts_with('l'), "{:?}", plain.lines);
        assert!(wrapped.lines[0].starts_with('l'), "{:?}", wrapped.lines);
    }

    #[test]
    fn wrapped_run_persists_lie_database() {
        let mut env = centos_type3();
        let mut sh = exec(&mut env);
        sh.run_command("yum install -y epel-release");
        sh.run_command("yum install -y fakeroot");
        let r = sh.run_wrapped("yum install -y openssh");
        assert!(r.success(), "{:?}", r.lines);
        assert!(!sh.fakeroot_db.is_empty());
    }

    #[test]
    fn glob_expansion_matches_repo_files() {
        let mut env = centos_type3();
        let mut sh = exec(&mut env);
        let r = sh.run_command("grep -Eq '\\[base\\]' /etc/yum.conf /etc/yum.repos.d/*");
        assert!(r.success());
        let r = sh.run_command("grep -Eq '\\[epel\\]' /etc/yum.conf /etc/yum.repos.d/*");
        assert_eq!(r.status, 1);
    }

    #[test]
    fn cat_and_mkdir_and_rm() {
        let mut env = centos_type3();
        let mut sh = exec(&mut env);
        assert!(sh.run_command("mkdir -p /opt/app/cfg").success());
        assert!(sh.run_command("echo hello > /opt/app/cfg/x.conf").success());
        let r = sh.run_command("cat /opt/app/cfg/x.conf");
        assert_eq!(r.lines, vec!["hello"]);
        assert!(sh.run_command("rm -rf /opt/app").success());
        assert_eq!(sh.run_command("cat /opt/app/cfg/x.conf").status, 1);
    }

    #[test]
    fn redirect_and_touch_replace_dangling_symlinks() {
        let mut env = centos_type3();
        {
            let actor = Actor::new(&env.creds, &env.ns);
            env.fs.mkdir(&actor, "/work", Mode::DIR_755).unwrap();
            env.fs.symlink(&actor, "missing", "/work/link").unwrap();
            env.fs.symlink(&actor, "gone", "/work/stamp").unwrap();
        }
        let mut sh = exec(&mut env);
        // The seed's write_file rewrote a dangling symlink into a file;
        // the op path must do the same, not fail EEXIST on the name.
        assert!(sh.run_command("echo hi > /work/link").success());
        assert_eq!(sh.run_command("cat /work/link").lines, vec!["hi"]);
        assert!(sh.run_command("touch /work/stamp").success());
        assert_eq!(
            sh.run_command("cat /work/stamp").lines,
            Vec::<String>::new()
        );
    }

    #[test]
    fn external_synthetic_binaries_run() {
        let mut env = centos_type3();
        let mut sh = exec(&mut env);
        sh.run_command("yum install -y gcc");
        assert!(sh.run_command("gcc -O3 -o app app.c").success());
        assert!(sh.run_command("/usr/bin/gcc --version").success());
    }
}
