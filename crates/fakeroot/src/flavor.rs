//! The three `fakeroot(1)` implementations surveyed in the paper's Table 1,
//! with the properties that distinguish them: interception approach,
//! architecture support, daemon use, persistence model, and system-call
//! coverage.

use std::fmt;

/// Interception mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Approach {
    /// `LD_PRELOAD` of a shim library: architecture-independent but cannot
    /// wrap statically linked executables.
    LdPreload,
    /// `ptrace(2)`-based tracing: works on static executables but only on the
    /// architectures the tracer supports.
    Ptrace,
}

impl fmt::Display for Approach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Approach::LdPreload => f.write_str("LD_PRELOAD"),
            Approach::Ptrace => f.write_str("ptrace(2)"),
        }
    }
}

/// How told lies survive across invocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Persistency {
    /// Explicit save/restore to a state file (`fakeroot -s/-i`).
    SaveRestoreFile,
    /// A database maintained by a daemon (pseudo's SQLite database).
    Database,
}

impl fmt::Display for Persistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Persistency::SaveRestoreFile => f.write_str("save/restore from file"),
            Persistency::Database => f.write_str("database"),
        }
    }
}

/// System calls (or families) a wrapper may intercept. Coverage differences
/// are what make some packages installable under one wrapper but not another
/// (paper §5.1: "We've encountered packages that fakeroot cannot install but
/// fakeroot-ng and pseudo can").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InterceptOp {
    /// `chown(2)` / `fchown(2)` / `fchownat(2)` following symlinks.
    Chown,
    /// `lchown(2)` — ownership of symlinks themselves.
    Lchown,
    /// `chmod(2)` including setuid/setgid bits.
    Chmod,
    /// `mknod(2)` — device node creation.
    Mknod,
    /// `stat(2)` family result rewriting.
    Stat,
    /// Security/extended attribute calls (`setxattr`, `capset` emulation).
    Xattr,
}

/// A `fakeroot(1)` implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Flavor {
    /// Debian's `fakeroot` (1997, LD_PRELOAD).
    Fakeroot,
    /// `fakeroot-ng` (2008, ptrace).
    FakerootNg,
    /// Yocto's `pseudo` (2010, LD_PRELOAD + database).
    Pseudo,
}

/// Static description of a flavor — one row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlavorInfo {
    /// Which implementation.
    pub flavor: Flavor,
    /// Package/command name.
    pub name: &'static str,
    /// First public release (year-month).
    pub initial_release: &'static str,
    /// Latest release at the paper's writing.
    pub latest_version: &'static str,
    /// Interception approach.
    pub approach: Approach,
    /// Supported CPU architectures ("any" for LD_PRELOAD implementations).
    pub architectures: &'static [&'static str],
    /// Whether a helper daemon is used.
    pub daemon: bool,
    /// Persistence model.
    pub persistency: Persistency,
    /// Intercepted system calls.
    pub coverage: &'static [InterceptOp],
}

impl Flavor {
    /// All three implementations, in Table 1 order.
    pub const ALL: [Flavor; 3] = [Flavor::Fakeroot, Flavor::FakerootNg, Flavor::Pseudo];

    /// The static description (Table 1 row).
    pub fn info(self) -> FlavorInfo {
        match self {
            Flavor::Fakeroot => FlavorInfo {
                flavor: self,
                name: "fakeroot",
                initial_release: "1997-Jun",
                latest_version: "2020-Oct (1.25.3)",
                approach: Approach::LdPreload,
                architectures: &["any"],
                daemon: true,
                persistency: Persistency::SaveRestoreFile,
                // Debian buster's fakeroot could not install every package the
                // authors tested; we model that as missing lchown and xattr
                // interception.
                coverage: &[
                    InterceptOp::Chown,
                    InterceptOp::Chmod,
                    InterceptOp::Mknod,
                    InterceptOp::Stat,
                ],
            },
            Flavor::FakerootNg => FlavorInfo {
                flavor: self,
                name: "fakeroot-ng",
                initial_release: "2008-Jan",
                latest_version: "2013-Apr (0.18)",
                approach: Approach::Ptrace,
                architectures: &["PPC", "x86", "x86-64"],
                daemon: true,
                persistency: Persistency::SaveRestoreFile,
                coverage: &[
                    InterceptOp::Chown,
                    InterceptOp::Lchown,
                    InterceptOp::Chmod,
                    InterceptOp::Mknod,
                    InterceptOp::Stat,
                ],
            },
            Flavor::Pseudo => FlavorInfo {
                flavor: self,
                name: "pseudo",
                initial_release: "2010-Mar",
                latest_version: "2018-Jan (1.9.0)",
                approach: Approach::LdPreload,
                architectures: &["any"],
                daemon: true,
                persistency: Persistency::Database,
                coverage: &[
                    InterceptOp::Chown,
                    InterceptOp::Lchown,
                    InterceptOp::Chmod,
                    InterceptOp::Mknod,
                    InterceptOp::Stat,
                    InterceptOp::Xattr,
                ],
            },
        }
    }

    /// True if this wrapper can intercept the given operation.
    pub fn intercepts(self, op: InterceptOp) -> bool {
        self.info().coverage.contains(&op)
    }

    /// True if the wrapper can operate on a statically linked executable
    /// (only ptrace-based wrappers can).
    pub fn supports_static_binaries(self) -> bool {
        self.info().approach == Approach::Ptrace
    }

    /// True if the wrapper supports the given CPU architecture string
    /// (e.g. `"x86_64"`, `"aarch64"`).
    pub fn supports_architecture(self, arch: &str) -> bool {
        let info = self.info();
        if info.architectures.contains(&"any") {
            return true;
        }
        let norm = match arch {
            "x86_64" | "amd64" => "x86-64",
            "i386" | "i686" => "x86",
            "ppc64" | "ppc64le" | "powerpc" => "PPC",
            other => other,
        };
        info.architectures.contains(&norm)
    }
}

impl fmt::Display for Flavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.info().name)
    }
}

/// Renders the paper's Table 1 as fixed-width text.
pub fn render_table1() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:<15} {:<20} {:<12} {:<20} {:<8} {}\n",
        "implementation",
        "initial release",
        "latest version",
        "approach",
        "architectures",
        "daemon?",
        "persistency"
    ));
    for flavor in Flavor::ALL {
        let i = flavor.info();
        out.push_str(&format!(
            "{:<12} {:<15} {:<20} {:<12} {:<20} {:<8} {}\n",
            i.name,
            i.initial_release,
            i.latest_version,
            i.approach.to_string(),
            i.architectures.join(", "),
            if i.daemon { "yes" } else { "no" },
            i.persistency
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_release_dates() {
        assert_eq!(Flavor::Fakeroot.info().initial_release, "1997-Jun");
        assert_eq!(Flavor::FakerootNg.info().initial_release, "2008-Jan");
        assert_eq!(Flavor::Pseudo.info().initial_release, "2010-Mar");
    }

    #[test]
    fn table1_approaches() {
        assert_eq!(Flavor::Fakeroot.info().approach, Approach::LdPreload);
        assert_eq!(Flavor::FakerootNg.info().approach, Approach::Ptrace);
        assert_eq!(Flavor::Pseudo.info().approach, Approach::LdPreload);
    }

    #[test]
    fn table1_persistence() {
        assert_eq!(
            Flavor::Fakeroot.info().persistency,
            Persistency::SaveRestoreFile
        );
        assert_eq!(Flavor::Pseudo.info().persistency, Persistency::Database);
    }

    #[test]
    fn ld_preload_is_arch_independent_but_not_static() {
        assert!(Flavor::Fakeroot.supports_architecture("aarch64"));
        assert!(Flavor::Pseudo.supports_architecture("riscv64"));
        assert!(!Flavor::Fakeroot.supports_static_binaries());
        assert!(!Flavor::Pseudo.supports_static_binaries());
    }

    #[test]
    fn ptrace_is_static_capable_but_arch_limited() {
        assert!(Flavor::FakerootNg.supports_static_binaries());
        assert!(Flavor::FakerootNg.supports_architecture("x86_64"));
        assert!(Flavor::FakerootNg.supports_architecture("ppc64le"));
        assert!(!Flavor::FakerootNg.supports_architecture("aarch64"));
    }

    #[test]
    fn coverage_differences_match_section_51() {
        // pseudo installs things fakeroot cannot: strictly larger coverage.
        for op in Flavor::Fakeroot.info().coverage {
            assert!(Flavor::Pseudo.intercepts(*op));
        }
        assert!(Flavor::Pseudo.intercepts(InterceptOp::Lchown));
        assert!(!Flavor::Fakeroot.intercepts(InterceptOp::Lchown));
        assert!(!Flavor::Fakeroot.intercepts(InterceptOp::Xattr));
    }

    #[test]
    fn render_table1_contains_all_rows() {
        let t = render_table1();
        assert!(t.contains("fakeroot-ng"));
        assert!(t.contains("pseudo"));
        assert!(t.contains("LD_PRELOAD"));
        assert!(t.contains("ptrace(2)"));
        assert!(t.contains("save/restore from file"));
        assert!(t.contains("database"));
    }

    #[test]
    fn all_daemons() {
        for f in Flavor::ALL {
            assert!(f.info().daemon);
        }
    }
}
