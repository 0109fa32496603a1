//! How a build launches its base image must not show in what it builds.
//!
//! A `FROM` launches the base tree as it is, where it once packed the tree
//! into a tar and unpacked it again. The two launches give the same
//! environment under every launch flavor, and the golden digests below,
//! recorded from builds that took the round trip, pin the images pushed
//! under every privilege type, storage driver and push ownership policy.

use hpcc_repro::core::{
    centos7_dockerfile, debian10_dockerfile, default_subuid_for, BuildOptions, Builder,
    BuilderKind, PushOwnership,
};
use hpcc_repro::distro::{centos7, debian10};
use hpcc_repro::image::{Image, ImageConfig, Registry};
use hpcc_repro::kernel::{Credentials, Gid, KResult, Sysctl, Uid, UserNamespace};
use hpcc_repro::runtime::{Container, Invoker, Launch, StorageDriver};
use hpcc_repro::vfs::{Actor, Filesystem, FsBackend, InodeData, Mode};

fn alice() -> Invoker {
    Invoker::user("alice", 1000, 1000)
}

/// A build tool and the ownership policy its push applies.
#[derive(Debug, Clone, Copy)]
enum Flavor {
    TypeI,
    TypeIIVfs,
    TypeIIFuseOverlayFs,
    TypeIIIFlatten,
    TypeIIIFakerootDb,
}

impl Flavor {
    const ALL: [Flavor; 5] = [
        Flavor::TypeI,
        Flavor::TypeIIVfs,
        Flavor::TypeIIFuseOverlayFs,
        Flavor::TypeIIIFlatten,
        Flavor::TypeIIIFakerootDb,
    ];

    fn builder(self) -> Builder {
        let podman = |driver| BuilderKind::RootlessPodman {
            subuid: default_subuid_for("alice"),
            driver,
            backend: FsBackend::LocalDisk,
            sysctl: Sysctl::rhel76(),
        };
        match self {
            Flavor::TypeI => Builder::docker(),
            Flavor::TypeIIVfs => Builder::new(podman(StorageDriver::Vfs), alice()),
            Flavor::TypeIIFuseOverlayFs => {
                Builder::new(podman(StorageDriver::FuseOverlayFs), alice())
            }
            Flavor::TypeIIIFlatten | Flavor::TypeIIIFakerootDb => Builder::ch_image(alice()),
        }
    }

    fn push_ownership(self) -> PushOwnership {
        match self {
            Flavor::TypeI | Flavor::TypeIIVfs | Flavor::TypeIIFuseOverlayFs => {
                PushOwnership::Preserve
            }
            Flavor::TypeIIIFlatten => PushOwnership::Flatten,
            Flavor::TypeIIIFakerootDb => PushOwnership::FromFakerootDb,
        }
    }
}

/// The build context of the `COPY` case.
fn context() -> Filesystem {
    let mut ctx = Filesystem::new_local();
    ctx.install_file(
        "/app.c",
        b"int main(){return 0;}".to_vec(),
        Uid(0),
        Gid(0),
        Mode::FILE_644,
    )
    .unwrap();
    ctx
}

/// Builds `dockerfile` for `arch` (with `--force` under Type III, cache
/// off) and pushes it; returns the manifest digest.
fn pushed_digest(flavor: Flavor, dockerfile: &str, arch: &str) -> String {
    let mut builder = flavor.builder();
    let mut options = BuildOptions::new("img").with_arch(arch);
    if matches!(flavor, Flavor::TypeIIIFlatten | Flavor::TypeIIIFakerootDb) {
        options = options.with_force();
    }
    let report = builder.build(dockerfile, &options, Some(&context()));
    assert!(report.success, "{flavor:?}: {}", report.transcript_text());
    let mut registry = Registry::new("registry.example");
    let digest = builder
        .push("img", "hpc/img:1", &mut registry, flavor.push_ownership())
        .unwrap();
    digest.to_oci_string()
}

/// `(case, manifest digest)`, one row per flavor and Dockerfile, then the
/// CentOS aarch64 build.
const GOLDEN: &[(&str, &str)] = &[
    (
        "TypeI/figure2",
        "sha256:eb520525ad413c7731026bfd912d58ea9fb0cc112f9a6e3409c91492eea38c86",
    ),
    (
        "TypeI/figure3",
        "sha256:1c7d73d5c7225f87f3fae05f5cb24b61c19955b6daf6f27a9a6ab71c628b130f",
    ),
    (
        "TypeI/figure2+copy",
        "sha256:49f3760c5f4c2bc8ae2869b6588c4f48bc80608ef5c58edd7778b88f7f4de5ef",
    ),
    (
        "TypeIIVfs/figure2",
        "sha256:e0955795bd03e2c65b809307a2130b1b3c31974c883e2fc9290dbff51681969a",
    ),
    (
        "TypeIIVfs/figure3",
        "sha256:c8ab21a3c0518d2a59ab95a4f4202c9004dde447c2a214e1e8cd5f68aaae341b",
    ),
    (
        "TypeIIVfs/figure2+copy",
        "sha256:d64ac70876a3aa6570295a920c705fff6569ac28df96c15ef7fd6b984e578c19",
    ),
    (
        "TypeIIFuseOverlayFs/figure2",
        "sha256:e0955795bd03e2c65b809307a2130b1b3c31974c883e2fc9290dbff51681969a",
    ),
    (
        "TypeIIFuseOverlayFs/figure3",
        "sha256:c8ab21a3c0518d2a59ab95a4f4202c9004dde447c2a214e1e8cd5f68aaae341b",
    ),
    (
        "TypeIIFuseOverlayFs/figure2+copy",
        "sha256:d64ac70876a3aa6570295a920c705fff6569ac28df96c15ef7fd6b984e578c19",
    ),
    (
        "TypeIIIFlatten/figure2",
        "sha256:1641d7b10d53935dd274d91b70534c79d1124745c274dd91c54aac9519165be7",
    ),
    (
        "TypeIIIFlatten/figure3",
        "sha256:c86bc6ee692e2ac73f4e9f6e8b84ff0ab84ee24ad076c501e29628a4e744a7c4",
    ),
    (
        "TypeIIIFlatten/figure2+copy",
        "sha256:71b122135a2e117b01e98ed4d7e9f3a13d2f371902e676b7e980f1060452ae9a",
    ),
    (
        "TypeIIIFakerootDb/figure2",
        "sha256:a077c54f9b326a3ae985d94899a2b4111887a97e37c325f68daece2d6de6756e",
    ),
    (
        "TypeIIIFakerootDb/figure3",
        "sha256:a47338b20020a75aa48fa94407abfeadd0754b9558b6a06eca966c90974860f3",
    ),
    (
        "TypeIIIFakerootDb/figure2+copy",
        "sha256:f0983e5a3100232fef26e4cf3e36ccc92d16db8232ea3ef016538f6678eb1755",
    ),
    (
        "TypeIIIFlatten/figure2/aarch64",
        "sha256:4bff37076e5e11e0a3abf9d40a20609a6709955e4c791b20211002d59162b6e9",
    ),
];

#[test]
fn pushed_manifest_digests_match_the_golden_values() {
    let copy = format!("{}COPY app.c /src/app.c\n", centos7_dockerfile());
    let dockerfiles = [
        ("figure2", centos7_dockerfile(), "x86_64"),
        ("figure3", debian10_dockerfile(), "amd64"),
        ("figure2+copy", copy.as_str(), "x86_64"),
    ];
    let mut got = Vec::new();
    for flavor in Flavor::ALL {
        for (name, dockerfile, arch) in dockerfiles {
            let case = format!("{flavor:?}/{name}");
            got.push((case, pushed_digest(flavor, dockerfile, arch)));
        }
    }
    let aarch64 = pushed_digest(Flavor::TypeIIIFlatten, centos7_dockerfile(), "aarch64");
    got.push(("TypeIIIFlatten/figure2/aarch64".to_string(), aarch64));
    let rendered: Vec<String> = got
        .iter()
        .map(|(case, digest)| format!("    (\"{case}\", \"{digest}\"),"))
        .collect();
    let expected: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|(case, digest)| (case.to_string(), digest.to_string()))
        .collect();
    assert_eq!(got, expected, "pushed digests:\n{}", rendered.join("\n"));
}

/// The image launch of `launch`'s flavor.
fn launch_image(image: &Image, launch: Launch<'_>) -> KResult<Container> {
    match launch {
        Launch::TypeI => Container::launch_type1(image, None),
        Launch::TypeII {
            invoker,
            subuid,
            driver,
            backend,
            sysctl,
        } => Container::launch_type2(image, invoker, subuid, driver, backend, sysctl),
        Launch::TypeIII { invoker } => Container::launch_type3(image, invoker),
        Launch::PodmanUnprivileged {
            invoker,
            driver,
            backend,
            sysctl,
        } => Container::launch_podman_unprivileged(image, invoker, driver, backend, sysctl),
    }
}

/// Every rootfs entry, `/` first and then sorted by path: owner, mode,
/// bytes or link target, and xattrs. Inode numbers and mtimes are left out:
/// they record the order the tree was made in.
fn fingerprint(c: &Container) -> Vec<String> {
    let fs = &c.rootfs;
    let line = |path: &str, ino| {
        let inode = fs.inode(ino).unwrap();
        let data = match &inode.data {
            InodeData::Regular { content } => format!("{:?}", content.as_slice()),
            InodeData::Symlink { target } => format!("-> {target}"),
            other => format!("{:?}", other.file_type()),
        };
        let (uid, gid, mode) = (inode.uid, inode.gid, inode.mode.bits());
        format!("{path} {uid}:{gid} {mode:o} {data} {:?}", inode.xattrs)
    };
    let mut lines = vec![line("/", fs.root_ino())];
    lines.extend(fs.walk().into_iter().map(|(path, ino)| line(&path, ino)));
    lines
}

#[test]
fn a_base_tree_launches_as_its_image_does() {
    let alice = alice();
    let subuid = default_subuid_for("alice");
    let (modern, rhel76) = (Sysctl::modern(), Sysctl::rhel76());
    let type2 = |driver, sysctl| Launch::TypeII {
        invoker: &alice,
        subuid: &subuid,
        driver,
        backend: FsBackend::LocalDisk,
        sysctl,
    };
    let flavors = [
        Launch::TypeI,
        type2(StorageDriver::Vfs, &rhel76),
        type2(StorageDriver::OverlayFs, &modern),
        type2(StorageDriver::FuseOverlayFs, &rhel76),
        Launch::TypeIII { invoker: &alice },
        Launch::PodmanUnprivileged {
            invoker: &alice,
            driver: StorageDriver::Vfs,
            backend: FsBackend::Tmpfs,
            sysctl: &modern,
        },
    ];
    let (creds, ns) = (Credentials::host_root(), UserNamespace::initial());
    for base in [centos7("x86_64"), debian10("amd64")] {
        let config = ImageConfig {
            architecture: base.arch.clone(),
            ..Default::default()
        };
        let actor = Actor::new(&creds, &ns);
        let image = Image::from_fs_preserved(&base.reference, &base.fs, &actor, config).unwrap();
        for launch in flavors {
            let case = format!("{} {launch:?}", base.reference);
            let tree = Container::launch(base.fs.clone(), &base.arch, launch).unwrap();
            let unpacked = launch_image(&image, launch).unwrap();
            assert_eq!(fingerprint(&tree), fingerprint(&unpacked), "{case}");
            assert_eq!(tree.storage_cost, unpacked.storage_cost, "{case}");
            assert_eq!(tree.privilege, unpacked.privilege, "{case}");
            assert_eq!(tree.creds, unpacked.creds, "{case}");
            assert_eq!(tree.userns.uid_map, unpacked.userns.uid_map, "{case}");
            assert_eq!(tree.userns.gid_map, unpacked.userns.gid_map, "{case}");
            assert_eq!(tree.rootfs.backend, unpacked.rootfs.backend, "{case}");
            assert_eq!(tree.arch, unpacked.arch, "{case}");
        }
    }
}
