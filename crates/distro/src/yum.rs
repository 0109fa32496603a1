//! A YUM/RPM-like package manager.
//!
//! Reproduces the behaviour the paper relies on: installation unpacks RPM
//! payloads with `cpio`, which `chown(2)`s every file to its recorded owner —
//! the call that fails in a basic Type III container ("Error unpacking rpm
//! package … cpio: chown", Figure 2) and succeeds under Type II maps or a
//! `fakeroot(1)` wrapper (Figures 8 and 10).

use hpcc_fakeroot::FakerootSession;
use hpcc_vfs::{Actor, Filesystem, Mode};

use crate::package::{install_package, Catalog, InstallFailure};

/// Output of a package-manager invocation: transcript lines plus an exit
/// status (0 = success; yum uses 1 on failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmOutput {
    /// Lines printed (stdout + stderr interleaved, as in the paper's
    /// transcripts).
    pub lines: Vec<String>,
    /// Process exit status.
    pub status: i32,
}

impl PmOutput {
    /// Success with lines.
    pub fn ok(lines: Vec<String>) -> Self {
        PmOutput { lines, status: 0 }
    }

    /// Failure with lines and status.
    pub fn fail(lines: Vec<String>, status: i32) -> Self {
        PmOutput { lines, status }
    }

    /// True if the command succeeded.
    pub fn success(&self) -> bool {
        self.status == 0
    }
}

/// Parses the repository ids enabled in `/etc/yum.repos.d/*.repo` and
/// `/etc/yum.conf`.
pub fn enabled_repos(fs: &Filesystem, actor: &Actor) -> Vec<String> {
    let mut enabled = Vec::new();
    let mut files = vec!["/etc/yum.conf".to_string()];
    if let Ok(entries) = fs.readdir(actor, "/etc/yum.repos.d") {
        for e in entries {
            files.push(format!("/etc/yum.repos.d/{}", e));
        }
    }
    for file in files {
        let Ok(text) = fs.read_to_string(actor, &file) else {
            continue;
        };
        let mut current: Option<String> = None;
        let mut current_enabled = true;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') && line.ends_with(']') {
                if let Some(id) = current.take() {
                    if current_enabled && id != "main" {
                        enabled.push(id);
                    }
                }
                current = Some(line[1..line.len() - 1].to_string());
                current_enabled = true;
            } else if let Some(rest) = line.strip_prefix("enabled=") {
                current_enabled = rest.trim() != "0";
            }
        }
        if let Some(id) = current {
            if current_enabled && id != "main" {
                enabled.push(id);
            }
        }
    }
    enabled
}

/// True if a repository is *defined* (enabled or not) in the image's repo
/// configuration — the check `ch-image --force` performs by grepping the repo
/// files rather than running `yum repolist` (paper §5.3.1).
pub fn repo_defined(fs: &Filesystem, actor: &Actor, repo: &str) -> bool {
    let needle = format!("[{}]", repo);
    let mut files = vec!["/etc/yum.conf".to_string()];
    if let Ok(entries) = fs.readdir(actor, "/etc/yum.repos.d") {
        for e in entries {
            files.push(format!("/etc/yum.repos.d/{}", e));
        }
    }
    files.iter().any(|f| {
        fs.read_to_string(actor, f)
            .map(|t| t.contains(&needle))
            .unwrap_or(false)
    })
}

fn installed_list(fs: &Filesystem, actor: &Actor) -> Vec<String> {
    fs.read_to_string(actor, "/var/lib/rpm/installed")
        .unwrap_or_default()
        .lines()
        .map(|s| s.to_string())
        .collect()
}

fn record_installed(fs: &mut Filesystem, actor: &Actor, name: &str) {
    let mut list = installed_list(fs, actor);
    if !list.iter().any(|n| n == name) {
        list.push(name.to_string());
    }
    let text = list.join("\n") + "\n";
    let _ = fs.write_file(
        actor,
        "/var/lib/rpm/installed",
        text.into_bytes(),
        Mode::FILE_644,
    );
}

/// True if a package is already installed in the image.
pub fn is_installed(fs: &Filesystem, actor: &Actor, name: &str) -> bool {
    installed_list(fs, actor).iter().any(|n| n == name)
}

/// `yum install -y <packages>`.
///
/// `extra_enable` corresponds to `--enablerepo=` options.
pub fn yum_install(
    fs: &mut Filesystem,
    actor: &Actor,
    mut wrapper: Option<&mut FakerootSession>,
    catalog: &Catalog,
    packages: &[&str],
    extra_enable: &[&str],
    arch: &str,
) -> PmOutput {
    let mut lines = Vec::new();
    lines.push("Loaded plugins: fastestmirror, ovl".to_string());
    lines.push("Resolving Dependencies".to_string());

    let mut enabled = enabled_repos(fs, actor);
    for e in extra_enable {
        if !enabled.iter().any(|x| x == e) {
            enabled.push(e.to_string());
        }
    }

    let to_install: Vec<&str> = packages
        .iter()
        .copied()
        .filter(|p| !is_installed(fs, actor, p))
        .collect();
    if to_install.is_empty() {
        lines.push("Nothing to do".to_string());
        return PmOutput::ok(lines);
    }

    let resolved = match catalog.resolve(&to_install, &enabled) {
        Ok(r) => r,
        Err(missing) => {
            lines.push(format!("No package {} available.", missing));
            lines.push("Error: Nothing to do".to_string());
            return PmOutput::fail(lines, 1);
        }
    };

    lines.push("Dependencies Resolved".to_string());
    lines.push("Running transaction".to_string());

    for pkg in resolved {
        if is_installed(fs, actor, &pkg.name) {
            continue;
        }
        lines.push(format!("  Installing : {}", pkg.nevra()));
        match install_package(fs, actor, wrapper.as_deref_mut(), pkg, arch) {
            Ok(()) => {
                // epel-release defines the EPEL repository (disabled state is
                // whatever the package ships; we ship it enabled, and
                // ch-image's workaround disables it afterwards).
                if pkg.name == "epel-release" {
                    let _ = fs.write_file(
                        actor,
                        "/etc/yum.repos.d/epel.repo",
                        b"[epel]\nname=Extra Packages for Enterprise Linux 7\nenabled=1\n".to_vec(),
                        Mode::FILE_644,
                    );
                }
                record_installed(fs, actor, &pkg.name);
                lines.push(format!("  Verifying  : {}", pkg.nevra()));
            }
            Err(failure) => {
                lines.push(format!("Error unpacking rpm package {}", pkg.nevra()));
                let detail = match failure {
                    InstallFailure::Chown { path, .. } => {
                        format!(
                            "error: unpacking of archive failed on file {}: cpio: chown",
                            path
                        )
                    }
                    InstallFailure::Mknod { path, .. } => {
                        format!(
                            "error: unpacking of archive failed on file {}: cpio: mknod",
                            path
                        )
                    }
                    InstallFailure::Capability { path, .. } => {
                        format!(
                            "error: unpacking of archive failed on file {}: cpio: cap_set_file",
                            path
                        )
                    }
                    InstallFailure::Write { path, errno } => {
                        format!(
                            "error: unpacking of archive failed on file {}: {}",
                            path, errno
                        )
                    }
                };
                lines.push(detail);
                lines.push(format!("{}.rpm was not installed", pkg.nevra()));
                return PmOutput::fail(lines, 1);
            }
        }
    }
    lines.push("Complete!".to_string());
    PmOutput::ok(lines)
}

/// `yum-config-manager --enable <repo>` / `--disable <repo>`: rewrites the
/// `enabled=` line of the repository's `.repo` file.
pub fn yum_config_manager(
    fs: &mut Filesystem,
    actor: &Actor,
    repo: &str,
    enable: bool,
) -> PmOutput {
    let mut lines = Vec::new();
    let files = match fs.readdir(actor, "/etc/yum.repos.d") {
        Ok(f) => f,
        Err(_) => return PmOutput::fail(vec!["No repository files found".to_string()], 1),
    };
    let mut found = false;
    for f in files {
        let path = format!("/etc/yum.repos.d/{}", f);
        let Ok(text) = fs.read_to_string(actor, &path) else {
            continue;
        };
        if !text.contains(&format!("[{}]", repo)) {
            continue;
        }
        found = true;
        let mut out = String::new();
        let mut in_section = false;
        let mut wrote_enabled = false;
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.starts_with('[') && trimmed.ends_with(']') {
                if in_section && !wrote_enabled {
                    out.push_str(&format!("enabled={}\n", if enable { 1 } else { 0 }));
                }
                in_section = trimmed == format!("[{}]", repo);
                wrote_enabled = false;
                out.push_str(line);
                out.push('\n');
            } else if in_section && trimmed.starts_with("enabled=") {
                out.push_str(&format!("enabled={}\n", if enable { 1 } else { 0 }));
                wrote_enabled = true;
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        if in_section && !wrote_enabled {
            out.push_str(&format!("enabled={}\n", if enable { 1 } else { 0 }));
        }
        let _ = fs.write_file(actor, &path, out.into_bytes(), Mode::FILE_644);
        lines.push(format!(
            "========== repo: {} ==========\nenabled = {}",
            repo,
            if enable { "True" } else { "False" }
        ));
    }
    if found {
        PmOutput::ok(lines)
    } else {
        lines.push(format!("Error: No matching repo to modify: {}.", repo));
        PmOutput::fail(lines, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseimage::centos7;
    use hpcc_fakeroot::Flavor;
    use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};
    use std::sync::Arc;

    /// A centos:7 image tree as unpacked by an unprivileged Type III builder:
    /// everything owned by the build user.
    fn type3_build_env() -> (Filesystem, Credentials, UserNamespace, Arc<Catalog>) {
        let img = centos7("x86_64");
        let mut fs = img.fs;
        fs.flatten_ownership(Uid(1000), Gid(1000));
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)])
            .entered_own_namespace();
        let ns = UserNamespace::type3(Uid(1000), Gid(1000));
        (fs, creds, ns, img.catalog)
    }

    fn type2_build_env() -> (Filesystem, Credentials, UserNamespace, Arc<Catalog>) {
        let img = centos7("x86_64");
        let mut fs = img.fs;
        // Type II unpack: container root = invoking user's host UID.
        fs.flatten_ownership(Uid(1000), Gid(1000));
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)])
            .entered_own_namespace();
        let ns = UserNamespace::type2(Uid(1000), Gid(1000), 200_000, 65_536);
        (fs, creds, ns, img.catalog)
    }

    #[test]
    fn enabled_repos_reads_base_only() {
        let (fs, creds, ns, _) = type3_build_env();
        let actor = Actor::new(&creds, &ns);
        assert_eq!(enabled_repos(&fs, &actor), vec!["base".to_string()]);
        assert!(repo_defined(&fs, &actor, "base"));
        assert!(!repo_defined(&fs, &actor, "epel"));
    }

    #[test]
    fn figure2_yum_openssh_fails_with_cpio_chown_in_type3() {
        let (mut fs, creds, ns, catalog) = type3_build_env();
        let actor = Actor::new(&creds, &ns);
        let out = yum_install(&mut fs, &actor, None, &catalog, &["openssh"], &[], "x86_64");
        assert_eq!(out.status, 1);
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("Installing : openssh-7.4p1-21.el7.x86_64")));
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("Error unpacking rpm package openssh-7.4p1-21.el7.x86_64")));
        assert!(out.lines.iter().any(|l| l.contains("cpio: chown")));
    }

    #[test]
    fn openssh_succeeds_in_type2() {
        let (mut fs, creds, ns, catalog) = type2_build_env();
        let actor = Actor::new(&creds, &ns);
        let out = yum_install(&mut fs, &actor, None, &catalog, &["openssh"], &[], "x86_64");
        assert!(out.success(), "{:?}", out.lines);
        assert!(out.lines.iter().any(|l| l == "Complete!"));
        assert!(is_installed(&fs, &actor, "openssh"));
        // The keysign helper really is owned by the subordinate GID.
        let st = fs.stat(&actor, "/usr/libexec/openssh/ssh-keysign").unwrap();
        assert_eq!(st.gid_view, Gid(999));
    }

    #[test]
    fn figure8_openssh_succeeds_under_fakeroot_in_type3() {
        let (mut fs, creds, ns, catalog) = type3_build_env();
        let actor = Actor::new(&creds, &ns);
        // Install EPEL + fakeroot first (these work without the wrapper).
        let out = yum_install(
            &mut fs,
            &actor,
            None,
            &catalog,
            &["epel-release"],
            &[],
            "x86_64",
        );
        assert!(out.success());
        let out = yum_install(
            &mut fs,
            &actor,
            None,
            &catalog,
            &["fakeroot"],
            &[],
            "x86_64",
        );
        assert!(out.success(), "{:?}", out.lines);
        // Now the wrapped install succeeds.
        let mut w = FakerootSession::new(Flavor::Fakeroot);
        let out = yum_install(
            &mut fs,
            &actor,
            Some(&mut w),
            &catalog,
            &["openssh"],
            &[],
            "x86_64",
        );
        assert!(out.success(), "{:?}", out.lines);
        assert!(out.lines.iter().any(|l| l == "Complete!"));
        assert!(!w.db.is_empty());
    }

    #[test]
    fn epel_release_defines_epel_repo() {
        let (mut fs, creds, ns, catalog) = type3_build_env();
        let actor = Actor::new(&creds, &ns);
        assert!(!repo_defined(&fs, &actor, "epel"));
        let out = yum_install(
            &mut fs,
            &actor,
            None,
            &catalog,
            &["epel-release"],
            &[],
            "x86_64",
        );
        assert!(out.success());
        assert!(repo_defined(&fs, &actor, "epel"));
        assert!(enabled_repos(&fs, &actor).contains(&"epel".to_string()));
    }

    #[test]
    fn yum_config_manager_disables_epel() {
        let (mut fs, creds, ns, catalog) = type3_build_env();
        let actor = Actor::new(&creds, &ns);
        yum_install(
            &mut fs,
            &actor,
            None,
            &catalog,
            &["epel-release"],
            &[],
            "x86_64",
        );
        let out = yum_config_manager(&mut fs, &actor, "epel", false);
        assert!(out.success());
        assert!(!enabled_repos(&fs, &actor).contains(&"epel".to_string()));
        // --enablerepo=epel still allows installing from it for one command.
        let out = yum_install(
            &mut fs,
            &actor,
            None,
            &catalog,
            &["fakeroot"],
            &["epel"],
            "x86_64",
        );
        assert!(out.success(), "{:?}", out.lines);
    }

    #[test]
    fn missing_package_reports_nothing_to_do() {
        let (mut fs, creds, ns, catalog) = type3_build_env();
        let actor = Actor::new(&creds, &ns);
        let out = yum_install(
            &mut fs,
            &actor,
            None,
            &catalog,
            &["no-such-pkg"],
            &[],
            "x86_64",
        );
        assert_eq!(out.status, 1);
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("No package no-such-pkg available")));
    }

    #[test]
    fn reinstall_is_a_noop() {
        let (mut fs, creds, ns, catalog) = type2_build_env();
        let actor = Actor::new(&creds, &ns);
        yum_install(&mut fs, &actor, None, &catalog, &["gcc"], &[], "x86_64");
        let out = yum_install(&mut fs, &actor, None, &catalog, &["gcc"], &[], "x86_64");
        assert!(out.success());
        assert!(out.lines.iter().any(|l| l == "Nothing to do"));
    }

    #[test]
    fn hpc_stack_installs_without_privilege() {
        // The ATSE-style stack is root-owned only, so even plain Type III
        // installs it fine: the paper's point that *some* packages need the
        // wrapper, not all.
        let (mut fs, creds, ns, catalog) = type3_build_env();
        let actor = Actor::new(&creds, &ns);
        let out = yum_install(
            &mut fs,
            &actor,
            None,
            &catalog,
            &["atse-env"],
            &[],
            "x86_64",
        );
        assert!(out.success(), "{:?}", out.lines);
        assert!(is_installed(&fs, &actor, "openmpi"));
        assert!(is_installed(&fs, &actor, "spack"));
    }
}
