//! An APT/dpkg-like package manager.
//!
//! APT "tries to drop privileges and change to user `_apt` (UID 100) to
//! sandbox downloading and external dependency solving" (paper §2.3). In a
//! basic Type III container this yields the failed `setgroups` / `setegid` /
//! `seteuid` calls of Figure 3; disabling the sandbox via
//! `APT::Sandbox::User "root"` and wrapping the install with `fakeroot(1)`
//! (pseudo) makes Figures 9 and 11 succeed.

use hpcc_fakeroot::FakerootSession;
use hpcc_kernel::creds::{sys_setgroups, sys_setresgid, sys_setresuid};
use hpcc_kernel::{Gid, Uid};
use hpcc_vfs::{Actor, Filesystem, Mode};

use crate::catalog::APT_UID;
use crate::package::{install_package, Catalog, InstallFailure};
use crate::passwd::UserDb;
use crate::yum::PmOutput;

/// The GID APT switches its supplementary groups to when sandboxing
/// (`nogroup`).
pub const APT_SANDBOX_GID: u32 = 65_534;

/// Reads the configured sandbox user (default `_apt`); `"root"` disables the
/// sandbox.
pub fn sandbox_user(fs: &Filesystem, actor: &Actor) -> String {
    let mut user = "_apt".to_string();
    if let Ok(entries) = fs.readdir(actor, "/etc/apt/apt.conf.d") {
        for e in entries {
            if let Ok(text) = fs.read_to_string(actor, &format!("/etc/apt/apt.conf.d/{}", e)) {
                for line in text.lines() {
                    if let Some(rest) = line.trim().strip_prefix("APT::Sandbox::User") {
                        let v: String = rest
                            .chars()
                            .filter(|c| !['"', ';', ' '].contains(c))
                            .collect();
                        if !v.is_empty() {
                            user = v;
                        }
                    }
                }
            }
        }
    }
    user
}

/// `apt-config dump`, restricted to the keys the workaround check greps for
/// (paper Figure 11 line 7).
pub fn apt_config_dump(fs: &Filesystem, actor: &Actor) -> String {
    format!("APT::Sandbox::User \"{}\";\n", sandbox_user(fs, actor))
}

/// True if the `_apt` user exists in the image's `/etc/passwd`.
pub fn apt_user_exists(fs: &Filesystem, actor: &Actor) -> bool {
    UserDb::load_from(fs, actor).user_by_name("_apt").is_some()
}

/// Attempts APT's privilege drop to the sandbox user. Returns the error lines
/// (empty on success) exactly as APT prints them (Figure 3).
fn try_sandbox_drop(fs: &Filesystem, actor: &Actor) -> Vec<String> {
    let user = sandbox_user(fs, actor);
    if user == "root" || !apt_user_exists(fs, actor) {
        return Vec::new();
    }
    let mut errors = Vec::new();
    let mut creds = actor.creds.clone();
    let ns = actor.userns;
    if let Err(e) = sys_setgroups(&mut creds, ns, &[Gid(APT_SANDBOX_GID)]) {
        errors.push(format!(
            "E: setgroups {} failed - setgroups {}",
            APT_SANDBOX_GID,
            e.transcript()
        ));
    }
    if let Err(e) = sys_setresgid(
        &mut creds,
        ns,
        Some(Gid(APT_SANDBOX_GID)),
        Some(Gid(APT_SANDBOX_GID)),
        Some(Gid(APT_SANDBOX_GID)),
    ) {
        errors.push(format!(
            "E: setegid {} failed - setegid {}",
            APT_SANDBOX_GID,
            e.transcript()
        ));
    }
    if let Err(e) = sys_setresuid(
        &mut creds,
        ns,
        Some(Uid(APT_UID)),
        Some(Uid(APT_UID)),
        Some(Uid(APT_UID)),
    ) {
        errors.push(format!(
            "E: seteuid {} failed - seteuid {}",
            APT_UID,
            e.transcript()
        ));
    }
    errors
}

fn indexes_present(fs: &Filesystem, actor: &Actor) -> bool {
    fs.readdir(actor, "/var/lib/apt/lists")
        .map(|v| !v.is_empty())
        .unwrap_or(false)
}

fn installed_list(fs: &Filesystem, actor: &Actor) -> Vec<String> {
    fs.read_to_string(actor, "/var/lib/dpkg/status")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.strip_prefix("Package: ").map(|s| s.to_string()))
        .collect()
}

/// True if a Debian package is installed in the image.
pub fn is_installed(fs: &Filesystem, actor: &Actor, name: &str) -> bool {
    installed_list(fs, actor).iter().any(|n| n == name)
}

fn record_installed(fs: &mut Filesystem, actor: &Actor, name: &str) {
    let entry = format!("Package: {}\nStatus: install ok installed\n\n", name);
    let _ = fs.append_file(
        actor,
        "/var/lib/dpkg/status",
        entry.as_bytes(),
        Mode::FILE_644,
    );
}

fn log_term(
    fs: &mut Filesystem,
    actor: &Actor,
    wrapper: Option<&mut FakerootSession>,
    lines: &mut Vec<String>,
) {
    // APT appends to /var/log/apt/term.log and chowns it root:adm. Under a
    // wrapper the chown is faked; otherwise a failure is only a warning
    // (Figure 9 line 21).
    let _ = fs.append_file(
        actor,
        "/var/log/apt/term.log",
        b"Log started\n",
        Mode::FILE_644,
    );
    let result = match wrapper {
        Some(w) => w.chown(
            fs,
            actor,
            "/var/log/apt/term.log",
            Some(Uid(0)),
            Some(Gid(4)),
        ),
        None => fs.chown(actor, "/var/log/apt/term.log", Some(Uid(0)), Some(Gid(4))),
    };
    if result.is_err() {
        lines.push(
            "W: chown to root:adm of file /var/log/apt/term.log failed - Chown (22: Invalid argument)"
                .to_string(),
        );
    }
}

/// `apt-get update`: fetches package indexes. The base image ships none, so
/// nothing can be installed before this runs (paper §5.2).
pub fn apt_update(fs: &mut Filesystem, actor: &Actor, catalog: &Catalog) -> PmOutput {
    let mut lines = Vec::new();
    let drop_errors = try_sandbox_drop(fs, actor);
    if !drop_errors.is_empty() {
        lines.extend(drop_errors);
        lines.push("E: Method gave invalid 400 URI Failure message".to_string());
        lines.push("E: Some index files failed to download. They have been ignored, or old ones used instead.".to_string());
        return PmOutput::fail(lines, 100);
    }
    lines.push("Get:1 http://deb.debian.org/debian buster InRelease [122 kB]".to_string());
    lines.push(
        "Get:2 http://deb.debian.org/debian buster/main amd64 Packages [7907 kB]".to_string(),
    );
    let names: Vec<String> = catalog
        .repos
        .iter()
        .flat_map(|r| r.packages.iter().map(|p| p.name.clone()))
        .collect();
    let _ = fs.write_file(
        actor,
        "/var/lib/apt/lists/deb.debian.org_debian_dists_buster_main_binary_Packages",
        names.join("\n").into_bytes(),
        Mode::FILE_644,
    );
    lines.push("Fetched 8422 kB in 7s (1214 kB/s)".to_string());
    lines.push("Reading package lists...".to_string());
    PmOutput::ok(lines)
}

/// `apt-get install -y <packages>`.
pub fn apt_install(
    fs: &mut Filesystem,
    actor: &Actor,
    mut wrapper: Option<&mut FakerootSession>,
    catalog: &Catalog,
    packages: &[&str],
    arch: &str,
) -> PmOutput {
    let mut lines = Vec::new();
    let drop_errors = try_sandbox_drop(fs, actor);
    if !drop_errors.is_empty() {
        lines.extend(drop_errors);
        return PmOutput::fail(lines, 100);
    }
    lines.push("Reading package lists...".to_string());
    lines.push("Building dependency tree...".to_string());
    if !indexes_present(fs, actor) {
        for p in packages {
            lines.push(format!("E: Unable to locate package {}", p));
        }
        return PmOutput::fail(lines, 100);
    }
    let to_install: Vec<&str> = packages
        .iter()
        .copied()
        .filter(|p| !is_installed(fs, actor, p))
        .collect();
    if to_install.is_empty() {
        lines.push("0 upgraded, 0 newly installed, 0 to remove and 0 not upgraded.".to_string());
        return PmOutput::ok(lines);
    }
    let enabled: Vec<String> = catalog.repos.iter().map(|r| r.id.clone()).collect();
    let resolved = match catalog.resolve(&to_install, &enabled) {
        Ok(r) => r,
        Err(missing) => {
            lines.push(format!("E: Unable to locate package {}", missing));
            return PmOutput::fail(lines, 100);
        }
    };
    let new_count = resolved
        .iter()
        .filter(|p| !is_installed(fs, actor, &p.name))
        .count();
    lines.push(format!(
        "0 upgraded, {} newly installed, 0 to remove and 0 not upgraded.",
        new_count
    ));

    // Unpack phase.
    let mut pending = Vec::new();
    for pkg in &resolved {
        if is_installed(fs, actor, &pkg.name) {
            continue;
        }
        lines.push(format!("Unpacking {} ...", pkg.deb_label()));
        pending.push(*pkg);
    }
    // Configure phase.
    for pkg in pending {
        lines.push(format!("Setting up {} ...", pkg.deb_label()));
        match install_package(fs, actor, wrapper.as_deref_mut(), pkg, arch) {
            Ok(()) => {
                record_installed(fs, actor, &pkg.name);
            }
            Err(failure) => {
                match failure {
                    InstallFailure::Chown { path, errno } => {
                        lines.push(format!(
                            "dpkg: error processing package {} (--configure):",
                            pkg.name
                        ));
                        lines.push(format!(
                            " unable to set ownership of '{}': {}",
                            path,
                            errno.message()
                        ));
                    }
                    InstallFailure::Capability { path, errno } => {
                        lines.push(format!(
                            "Failed to set capabilities on file '{}' ({})",
                            path,
                            errno.message()
                        ));
                        lines.push(format!(
                            "dpkg: error processing package {} (--configure):",
                            pkg.name
                        ));
                    }
                    InstallFailure::Mknod { path, errno } => {
                        lines.push(format!(
                            "dpkg: error creating device '{}': {}",
                            path,
                            errno.message()
                        ));
                    }
                    InstallFailure::Write { path, errno } => {
                        lines.push(format!(
                            "dpkg: error processing archive {} ({})",
                            path,
                            errno.message()
                        ));
                    }
                }
                lines.push("E: Sub-process /usr/bin/dpkg returned an error code (1)".to_string());
                return PmOutput::fail(lines, 100);
            }
        }
    }
    log_term(fs, actor, wrapper, &mut lines);
    lines.push("Processing triggers for libc-bin (2.28-10) ...".to_string());
    PmOutput::ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseimage::debian10;
    use hpcc_fakeroot::Flavor;
    use hpcc_kernel::{Credentials, UserNamespace};
    use std::sync::Arc;

    fn type3_env() -> (Filesystem, Credentials, UserNamespace, Arc<Catalog>) {
        let img = debian10("amd64");
        let mut fs = img.fs;
        fs.flatten_ownership(Uid(1000), Gid(1000));
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)])
            .entered_own_namespace();
        let ns = UserNamespace::type3(Uid(1000), Gid(1000));
        (fs, creds, ns, img.catalog)
    }

    fn type2_env() -> (Filesystem, Credentials, UserNamespace, Arc<Catalog>) {
        let img = debian10("amd64");
        let mut fs = img.fs;
        fs.flatten_ownership(Uid(1000), Gid(1000));
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)])
            .entered_own_namespace();
        let ns = UserNamespace::type2(Uid(1000), Gid(1000), 200_000, 65_536);
        (fs, creds, ns, img.catalog)
    }

    fn disable_sandbox(fs: &mut Filesystem, actor: &Actor) {
        fs.write_file(
            actor,
            "/etc/apt/apt.conf.d/no-sandbox",
            b"APT::Sandbox::User \"root\";\n".to_vec(),
            Mode::FILE_644,
        )
        .unwrap();
    }

    #[test]
    fn figure3_apt_update_fails_in_type3_with_three_errors() {
        let (mut fs, creds, ns, catalog) = type3_env();
        let actor = Actor::new(&creds, &ns);
        let out = apt_update(&mut fs, &actor, &catalog);
        assert_eq!(out.status, 100);
        assert!(out
            .lines
            .iter()
            .any(|l| l == "E: setgroups 65534 failed - setgroups (1: Operation not permitted)"));
        assert!(out
            .lines
            .iter()
            .any(|l| l == "E: setegid 65534 failed - setegid (22: Invalid argument)"));
        assert!(out
            .lines
            .iter()
            .any(|l| l == "E: seteuid 100 failed - seteuid (22: Invalid argument)"));
    }

    #[test]
    fn apt_update_succeeds_in_type2_without_changes() {
        let (mut fs, creds, ns, catalog) = type2_env();
        let actor = Actor::new(&creds, &ns);
        let out = apt_update(&mut fs, &actor, &catalog);
        assert!(out.success(), "{:?}", out.lines);
        assert!(out.lines.iter().any(|l| l.contains("Fetched 8422 kB")));
        assert!(indexes_present(&fs, &actor));
    }

    #[test]
    fn sandbox_disable_makes_update_work_in_type3() {
        let (mut fs, creds, ns, catalog) = type3_env();
        let actor = Actor::new(&creds, &ns);
        disable_sandbox(&mut fs, &actor);
        assert_eq!(sandbox_user(&fs, &actor), "root");
        let out = apt_update(&mut fs, &actor, &catalog);
        assert!(out.success(), "{:?}", out.lines);
    }

    #[test]
    fn install_without_indexes_fails() {
        let (mut fs, creds, ns, catalog) = type3_env();
        let actor = Actor::new(&creds, &ns);
        disable_sandbox(&mut fs, &actor);
        let out = apt_install(&mut fs, &actor, None, &catalog, &["pseudo"], "amd64");
        assert_eq!(out.status, 100);
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("Unable to locate package")));
    }

    #[test]
    fn figure9_pseudo_installs_plain_then_openssh_client_needs_wrapper() {
        let (mut fs, creds, ns, catalog) = type3_env();
        let actor = Actor::new(&creds, &ns);
        disable_sandbox(&mut fs, &actor);
        apt_update(&mut fs, &actor, &catalog);
        // pseudo is root-owned only: installs fine but warns about the log chown.
        let out = apt_install(&mut fs, &actor, None, &catalog, &["pseudo"], "amd64");
        assert!(out.success(), "{:?}", out.lines);
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("W: chown to root:adm of file /var/log/apt/term.log failed")));
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("Setting up pseudo (1.9.0+git20180920-1)")));
        // openssh-client without a wrapper fails at the setgid/ownership step.
        let out = apt_install(
            &mut fs,
            &actor,
            None,
            &catalog,
            &["openssh-client"],
            "amd64",
        );
        assert_eq!(out.status, 100);
        // With pseudo (xattr-capable) it succeeds.
        let mut w = FakerootSession::new(Flavor::Pseudo);
        let out = apt_install(
            &mut fs,
            &actor,
            Some(&mut w),
            &catalog,
            &["openssh-client"],
            "amd64",
        );
        assert!(out.success(), "{:?}", out.lines);
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("Setting up openssh-client (1:7.9p1-10+deb10u2)")));
        // The X dependencies were already unpacked during the failed attempt
        // (dependencies install first), so only verify they are present now.
        assert!(is_installed(&fs, &actor, "libxext6"));
        assert!(is_installed(&fs, &actor, "xauth"));
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("Processing triggers for libc-bin")));
    }

    #[test]
    fn debian_fakeroot_flavor_cannot_install_openssh_client() {
        // Paper §5.2: "the fakeroot package in Debian 10 was not able to
        // install the packages we tested".
        let (mut fs, creds, ns, catalog) = type3_env();
        let actor = Actor::new(&creds, &ns);
        disable_sandbox(&mut fs, &actor);
        apt_update(&mut fs, &actor, &catalog);
        let mut w = FakerootSession::new(Flavor::Fakeroot);
        let out = apt_install(
            &mut fs,
            &actor,
            Some(&mut w),
            &catalog,
            &["openssh-client"],
            "amd64",
        );
        assert_eq!(out.status, 100);
        assert!(out
            .lines
            .iter()
            .any(|l| l.contains("Failed to set capabilities")));
    }

    #[test]
    fn type2_installs_openssh_client_without_wrapper_except_caps() {
        // Even in Type II, setting file capabilities requires CAP_SETFCAP over
        // the inode; the privileged map provides it because the IDs are
        // mapped — we model capability xattrs as succeeding only under a
        // wrapper or host root, so Type II still warns.  The install path
        // exercised here is the ownership one, which must succeed.
        let (mut fs, creds, ns, catalog) = type2_env();
        let actor = Actor::new(&creds, &ns);
        apt_update(&mut fs, &actor, &catalog);
        let out = apt_install(
            &mut fs,
            &actor,
            None,
            &catalog,
            &["libxext6", "xauth"],
            "amd64",
        );
        assert!(out.success(), "{:?}", out.lines);
        assert!(is_installed(&fs, &actor, "xauth"));
    }

    #[test]
    fn apt_config_dump_reflects_sandbox_setting() {
        let (mut fs, creds, ns, _) = type3_env();
        let actor = Actor::new(&creds, &ns);
        assert!(apt_config_dump(&fs, &actor).contains("APT::Sandbox::User \"_apt\""));
        disable_sandbox(&mut fs, &actor);
        assert!(apt_config_dump(&fs, &actor).contains("APT::Sandbox::User \"root\""));
    }

    #[test]
    fn reinstall_is_noop() {
        let (mut fs, creds, ns, catalog) = type2_env();
        let actor = Actor::new(&creds, &ns);
        apt_update(&mut fs, &actor, &catalog);
        apt_install(&mut fs, &actor, None, &catalog, &["xauth"], "amd64");
        let out = apt_install(&mut fs, &actor, None, &catalog, &["xauth"], "amd64");
        assert!(out.success());
        assert!(out.lines.iter().any(|l| l.contains("0 newly installed")));
    }
}
