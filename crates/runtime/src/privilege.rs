//! The paper's three-level taxonomy of container privilege (§2.2) and the
//! survey of container implementations used in HPC (§3.1).

use std::fmt;

/// The paper's proposed taxonomy (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrivilegeType {
    /// Type I: mount namespace (or chroot) but no user namespace. Privileged
    /// setup; root inside the container is root on the host.
    TypeI,
    /// Type II: mount namespace plus *privileged* user namespace. Arbitrarily
    /// many UIDs/GIDs independent from the host; root inside maps to an
    /// unprivileged host user.
    TypeII,
    /// Type III: mount namespace plus *unprivileged* user namespace. Only one
    /// UID and one GID mapped; containerized processes remain unprivileged.
    TypeIII,
}

impl PrivilegeType {
    /// All three types.
    pub const ALL: [PrivilegeType; 3] = [
        PrivilegeType::TypeI,
        PrivilegeType::TypeII,
        PrivilegeType::TypeIII,
    ];

    /// True if container setup requires host privilege (root or a privileged
    /// helper).
    pub fn requires_privileged_setup(self) -> bool {
        matches!(self, PrivilegeType::TypeI | PrivilegeType::TypeII)
    }

    /// True if root inside the container is root on the host.
    pub fn container_root_is_host_root(self) -> bool {
        self == PrivilegeType::TypeI
    }

    /// How many UIDs are visible inside the container.
    pub fn mapped_id_count(self, subordinate_range: u32) -> u64 {
        match self {
            PrivilegeType::TypeI => u32::MAX as u64,
            PrivilegeType::TypeII => 1 + subordinate_range as u64,
            PrivilegeType::TypeIII => 1,
        }
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            PrivilegeType::TypeI => "Type I",
            PrivilegeType::TypeII => "Type II",
            PrivilegeType::TypeIII => "Type III",
        }
    }
}

impl fmt::Display for PrivilegeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Build capability of an implementation (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildSupport {
    /// Can interpret Dockerfiles itself.
    Dockerfile,
    /// Builds only from its own recipe format (e.g. Singularity definition
    /// files).
    OwnFormat,
    /// No build capability; relies on converting existing images.
    ConversionOnly,
}

/// One container implementation surveyed in §3.1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Implementation {
    /// Name.
    pub name: &'static str,
    /// Year of initial public release.
    pub initial_release: u32,
    /// Privilege types the implementation can operate as.
    pub types: Vec<PrivilegeType>,
    /// Whether it uses a client–daemon execution model (undesirable for HPC,
    /// §3.1).
    pub daemon: bool,
    /// Build support.
    pub build: BuildSupport,
    /// One-line note from the paper.
    pub note: &'static str,
}

/// The implementations discussed in §3.1 and §4–5.
pub fn implementations() -> Vec<Implementation> {
    vec![
        Implementation {
            name: "Docker",
            initial_release: 2013,
            types: vec![PrivilegeType::TypeI, PrivilegeType::TypeII],
            daemon: true,
            build: BuildSupport::Dockerfile,
            note: "Type I by necessity at release; rootless (Type II) mode added 2019, not widely used",
        },
        Implementation {
            name: "Podman (rootless)",
            initial_release: 2018,
            types: vec![PrivilegeType::TypeII, PrivilegeType::TypeIII],
            daemon: false,
            build: BuildSupport::Dockerfile,
            note: "Docker-CLI-equivalent, fork-exec model, shadow-utils privileged helpers",
        },
        Implementation {
            name: "Buildah",
            initial_release: 2017,
            types: vec![PrivilegeType::TypeII, PrivilegeType::TypeIII],
            daemon: false,
            build: BuildSupport::Dockerfile,
            note: "same build code base as Podman",
        },
        Implementation {
            name: "Singularity",
            initial_release: 2016,
            types: vec![PrivilegeType::TypeI, PrivilegeType::TypeII],
            daemon: false,
            build: BuildSupport::OwnFormat,
            note: "\"fakeroot\" Type II mode; Dockerfiles need an external builder plus conversion",
        },
        Implementation {
            name: "Shifter",
            initial_release: 2015,
            types: vec![PrivilegeType::TypeI],
            daemon: false,
            build: BuildSupport::ConversionOnly,
            note: "focused on distributed launch rather than build",
        },
        Implementation {
            name: "Sarus",
            initial_release: 2019,
            types: vec![PrivilegeType::TypeI],
            daemon: false,
            build: BuildSupport::ConversionOnly,
            note: "OCI-compliant runtime (runc), launch-focused",
        },
        Implementation {
            name: "Enroot",
            initial_release: 2019,
            types: vec![PrivilegeType::TypeIII],
            daemon: false,
            build: BuildSupport::ConversionOnly,
            note: "fully unprivileged, no setuid binary, no build capability as of 3.3",
        },
        Implementation {
            name: "Charliecloud",
            initial_release: 2017,
            types: vec![PrivilegeType::TypeIII],
            daemon: false,
            build: BuildSupport::Dockerfile,
            note: "Type III from first release; ch-image builds Dockerfiles via fakeroot injection",
        },
    ]
}

/// Renders a summary table of §3.1.
pub fn render_implementation_table() -> String {
    let mut out = format!(
        "{:<20} {:<8} {:<18} {:<8} {:<16} note\n",
        "implementation", "release", "privilege types", "daemon", "build"
    );
    for i in implementations() {
        let types: Vec<&str> = i.types.iter().map(|t| t.label()).collect();
        out.push_str(&format!(
            "{:<20} {:<8} {:<18} {:<8} {:<16} {}\n",
            i.name,
            i.initial_release,
            types.join(", "),
            if i.daemon { "yes" } else { "no" },
            match i.build {
                BuildSupport::Dockerfile => "Dockerfile",
                BuildSupport::OwnFormat => "own format",
                BuildSupport::ConversionOnly => "conversion only",
            },
            i.note
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_properties_match_section_22() {
        assert!(PrivilegeType::TypeI.requires_privileged_setup());
        assert!(PrivilegeType::TypeII.requires_privileged_setup());
        assert!(!PrivilegeType::TypeIII.requires_privileged_setup());
        assert!(PrivilegeType::TypeI.container_root_is_host_root());
        assert!(!PrivilegeType::TypeII.container_root_is_host_root());
        assert_eq!(PrivilegeType::TypeIII.mapped_id_count(65_536), 1);
        assert_eq!(PrivilegeType::TypeII.mapped_id_count(65_536), 65_537);
    }

    #[test]
    fn docker_is_type1_with_daemon() {
        let impls = implementations();
        let docker = impls.iter().find(|i| i.name == "Docker").unwrap();
        assert!(docker.types.contains(&PrivilegeType::TypeI));
        assert!(docker.daemon);
    }

    #[test]
    fn paper_examples_are_type2_and_type3() {
        let impls = implementations();
        let podman = impls
            .iter()
            .find(|i| i.name == "Podman (rootless)")
            .unwrap();
        assert!(podman.types.contains(&PrivilegeType::TypeII));
        assert!(!podman.daemon);
        let ch = impls.iter().find(|i| i.name == "Charliecloud").unwrap();
        assert_eq!(ch.types, vec![PrivilegeType::TypeIII]);
        assert_eq!(ch.build, BuildSupport::Dockerfile);
    }

    #[test]
    fn only_charliecloud_builds_dockerfiles_fully_unprivileged() {
        let names: Vec<&str> = implementations()
            .into_iter()
            .filter(|i| {
                i.types.contains(&PrivilegeType::TypeIII) && i.build == BuildSupport::Dockerfile
            })
            .map(|i| i.name)
            .collect();
        assert!(names.contains(&"Charliecloud"));
        assert!(!names.contains(&"Singularity"));
        assert!(!names.contains(&"Enroot"));
    }

    #[test]
    fn enroot_and_shifter_cannot_build() {
        for name in ["Enroot", "Shifter", "Sarus"] {
            let i = implementations()
                .into_iter()
                .find(|i| i.name == name)
                .unwrap();
            assert_eq!(i.build, BuildSupport::ConversionOnly, "{}", name);
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let t = render_implementation_table();
        for i in implementations() {
            assert!(t.contains(i.name), "{} missing", i.name);
        }
        assert!(t.contains("Type III"));
    }
}
