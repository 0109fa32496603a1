//! `ch-image --force`: automatic injection of `fakeroot(1)` workarounds into
//! unmodified Dockerfiles (paper §5.3).
//!
//! Design principles (paper §5.3): (1) be clear and explicit about what is
//! happening, (2) minimize changes to the build, (3) modify the build only if
//! the user requests it, but otherwise say what could be modified.

use hpcc_kernel::{Credentials, UserNamespace};
use hpcc_vfs::{Actor, Filesystem};

/// One initialization step of a force configuration: a check command (does
/// the step still need doing?) and an apply command (do it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitStep {
    /// Shell command that exits 0 if the step is already satisfied.
    pub check: String,
    /// Shell command that performs the step.
    pub apply: String,
}

/// A distribution-specific force configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForceConfig {
    /// Short name, e.g. `rhel7`.
    pub name: &'static str,
    /// Human-readable description printed in the transcript
    /// (`will use --force: rhel7: CentOS/RHEL 7`).
    pub description: &'static str,
    /// Keywords that mark a RUN instruction as modifiable.
    pub keywords: &'static [&'static str],
    /// Initialization steps executed before the first modified RUN.
    pub init_steps: Vec<InitStep>,
}

impl ForceConfig {
    /// The `rhel7` configuration (paper Figure 10): detects CentOS/RHEL 7 via
    /// `/etc/redhat-release` matching `release 7\.`, installs `fakeroot` from
    /// EPEL (installing EPEL first if needed, then disabling it so it cannot
    /// cause unexpected upgrades).
    pub fn rhel7() -> ForceConfig {
        ForceConfig {
            name: "rhel7",
            description: "CentOS/RHEL 7",
            keywords: &["yum", "rpm", "dnf"],
            init_steps: vec![InitStep {
                check: "command -v fakeroot > /dev/null".to_string(),
                apply: "set -ex; if ! grep -Eq '\\[epel\\]' /etc/yum.conf /etc/yum.repos.d/*; then yum install -y epel-release; yum-config-manager --disable epel; fi; yum --enablerepo=epel install -y fakeroot;".to_string(),
            }],
        }
    }

    /// The `debderiv` configuration (paper Figure 11): detects Debian 9/10 or
    /// Ubuntu 16/18/20 via `/etc/os-release`, disables the APT sandbox, and
    /// installs `pseudo` (Debian's own fakeroot cannot install the packages
    /// the authors tested, §5.2).
    pub fn debderiv() -> ForceConfig {
        ForceConfig {
            name: "debderiv",
            description: "Debian (9, 10) or Ubuntu (16, 18, 20)",
            keywords: &["apt-get", "apt ", "dpkg"],
            init_steps: vec![
                InitStep {
                    check: "apt-config dump | fgrep -q 'APT::Sandbox::User \"root\"' || ! fgrep -q _apt /etc/passwd".to_string(),
                    apply: "echo 'APT::Sandbox::User \"root\"; ' > /etc/apt/apt.conf.d/no-sandbox".to_string(),
                },
                InitStep {
                    check: "command -v fakeroot > /dev/null".to_string(),
                    apply: "apt-get update && apt-get install -y pseudo".to_string(),
                },
            ],
        }
    }

    /// True if the RUN command contains a keyword that triggers modification.
    pub fn run_is_modifiable(&self, command: &str) -> bool {
        self.keywords.iter().any(|k| command.contains(k.trim_end()))
            && !command.trim_start().starts_with("fakeroot ")
    }
}

/// One row of the detection table: the file whose content identifies a
/// distribution, substrings any of which must appear in it, and the
/// configuration a match selects.
struct Detector {
    file: &'static str,
    patterns: &'static [&'static str],
    config: fn() -> ForceConfig,
}

/// Known configurations in detection order. Detection reads each file
/// directly rather than executing a command in the container (paper
/// §5.3.1).
const DETECTORS: [Detector; 2] = [
    Detector {
        file: "/etc/redhat-release",
        patterns: &["release 7."],
        config: ForceConfig::rhel7,
    },
    Detector {
        file: "/etc/os-release",
        patterns: &["stretch", "buster", "xenial", "bionic", "focal"],
        config: ForceConfig::debderiv,
    },
];

/// Detects the matching configuration for an image filesystem (the test
/// `ch-image` performs right after `FROM`, paper §5.3.1). The files are
/// read in place, and only the matching configuration is built.
pub fn detect_config(
    fs: &Filesystem,
    creds: &Credentials,
    userns: &UserNamespace,
) -> Option<ForceConfig> {
    let actor = Actor::new(creds, userns);
    DETECTORS
        .iter()
        .find(|d| {
            fs.read_file(&actor, d.file)
                .ok()
                .and_then(|bytes| std::str::from_utf8(bytes).ok())
                .is_some_and(|text| d.patterns.iter().any(|p| text.contains(p)))
        })
        .map(|d| (d.config)())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_distro::{centos7, debian10};
    use hpcc_kernel::{Gid, Uid};
    use hpcc_vfs::Mode;

    fn detect_for(fs: &Filesystem) -> Option<ForceConfig> {
        let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)])
            .entered_own_namespace();
        let ns = UserNamespace::type3(Uid(1000), Gid(1000));
        detect_config(fs, &creds, &ns)
    }

    #[test]
    fn detects_rhel7_on_centos_image() {
        let mut img = centos7("x86_64");
        img.fs.flatten_ownership(Uid(1000), Gid(1000));
        let cfg = detect_for(&img.fs).unwrap();
        assert_eq!(cfg.name, "rhel7");
        assert_eq!(cfg.description, "CentOS/RHEL 7");
    }

    #[test]
    fn detects_debderiv_on_debian_image() {
        let mut img = debian10("amd64");
        img.fs.flatten_ownership(Uid(1000), Gid(1000));
        let cfg = detect_for(&img.fs).unwrap();
        assert_eq!(cfg.name, "debderiv");
        assert_eq!(cfg.init_steps.len(), 2);
    }

    #[test]
    fn no_config_for_unknown_distro() {
        let fs = Filesystem::new_local();
        assert!(detect_for(&fs).is_none());
    }

    #[test]
    fn detection_needs_a_pattern_and_follows_table_order() {
        let file = |fs: &mut Filesystem, path: &str, text: &[u8]| {
            fs.install_file(path, text.to_vec(), Uid(1000), Gid(1000), Mode::FILE_644)
                .unwrap();
        };
        // The detect file alone is not enough: RHEL 8 and Debian 11 match
        // no pattern.
        let mut fs = Filesystem::new_local();
        file(
            &mut fs,
            "/etc/redhat-release",
            b"CentOS Linux release 8.4.2105",
        );
        file(&mut fs, "/etc/os-release", b"VERSION_CODENAME=bullseye");
        assert!(detect_for(&fs).is_none());
        // Non-UTF-8 content never matches, as when detection read text.
        file(&mut fs, "/etc/os-release", b"buster\xff");
        assert!(detect_for(&fs).is_none());
        // Only the Debian row matches; then both match, and the first row
        // (rhel7) wins.
        file(&mut fs, "/etc/os-release", b"VERSION_CODENAME=buster");
        assert_eq!(detect_for(&fs).unwrap().name, "debderiv");
        file(
            &mut fs,
            "/etc/redhat-release",
            b"CentOS Linux release 7.9.2009 (Core)",
        );
        assert_eq!(detect_for(&fs).unwrap(), ForceConfig::rhel7());
    }

    #[test]
    fn keyword_triggering() {
        let rhel = ForceConfig::rhel7();
        assert!(rhel.run_is_modifiable("yum install -y openssh"));
        assert!(rhel.run_is_modifiable("rpm -ivh pkg.rpm"));
        assert!(!rhel.run_is_modifiable("echo hello"));
        // Already-wrapped commands are not modified again.
        assert!(!rhel.run_is_modifiable("fakeroot yum install -y openssh"));

        let deb = ForceConfig::debderiv();
        assert!(deb.run_is_modifiable("apt-get update"));
        assert!(deb.run_is_modifiable("dpkg -i x.deb"));
        assert!(!deb.run_is_modifiable("echo hello"));
    }

    #[test]
    fn rhel7_init_has_single_step_and_debderiv_two() {
        assert_eq!(ForceConfig::rhel7().init_steps.len(), 1);
        assert_eq!(ForceConfig::debderiv().init_steps.len(), 2);
        // The rhel7 step installs EPEL then disables it (paper §5.3.1).
        let apply = &ForceConfig::rhel7().init_steps[0].apply;
        assert!(apply.contains("yum install -y epel-release"));
        assert!(apply.contains("yum-config-manager --disable epel"));
        assert!(apply.contains("--enablerepo=epel install -y fakeroot"));
    }
}
