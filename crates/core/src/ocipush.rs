//! Pushing built images to an OCI distribution registry (`hpcc-oci`), with
//! single-layer or base-plus-diff layering and the §6.2.5 flatten marking.
//!
//! The paper contrasts Charliecloud's single-layer, ownership-flattened push
//! with the multi-layer pushes of Podman and Docker (§6.1 disadvantage 2) and
//! proposes an explicit image marking for ownership flattening (§6.2.5). This
//! module implements both: a built image can be exported either as one
//! squashed layer or as the base-image layer plus a diff layer, and the
//! image's `LABEL org.hpc.container.ownership.flatten=<policy>` (the
//! Dockerfile-language half of the §6.2.5 proposal) travels to the registry
//! as a manifest annotation.

use hpcc_distro::base_image;
use hpcc_image::{Digest, Image, ImageConfig, Layer, OwnershipMode};
use hpcc_kernel::{Credentials, UserNamespace};
use hpcc_oci::{ApiError, DistributionRegistry, FlattenPolicy, Platform, FLATTEN_ANNOTATION};
use hpcc_vfs::{tar, Actor, Filesystem};

use crate::builder::{Builder, BuiltImage};

/// How to slice the built filesystem into layers for push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerMode {
    /// One squashed layer, ownership flattened — the Charliecloud push (§6.1).
    SingleFlattened,
    /// Two layers — the unmodified base image plus a diff of everything the
    /// build changed — with namespace-view ownership preserved, as multi-layer
    /// builders push.
    BaseAndDiff,
}

/// The outcome of an OCI push.
#[derive(Debug, Clone)]
pub struct OciPushReport {
    /// Manifest digest in the registry.
    pub manifest_digest: Digest,
    /// Number of layers pushed.
    pub layer_count: usize,
    /// Total layer bytes offered to the registry.
    pub bytes_offered: u64,
    /// The flatten policy requested by the image's LABEL (if any).
    pub requested_policy: FlattenPolicy,
}

/// The flatten policy requested by the image itself via
/// `LABEL org.hpc.container.ownership.flatten=...` — the Dockerfile-language
/// half of the §6.2.5 proposal. Absent or unparsable labels mean "allow".
pub fn requested_flatten_policy(built: &BuiltImage) -> FlattenPolicy {
    built
        .config
        .labels
        .get(FLATTEN_ANNOTATION)
        .and_then(|v| FlattenPolicy::parse(v).ok())
        .unwrap_or_default()
}

/// Maps the builder's architecture string (`uname -m` vocabulary) to an OCI
/// platform.
pub fn platform_for_arch(arch: &str) -> Platform {
    Platform::from_uname(arch).unwrap_or_else(Platform::linux_amd64)
}

/// Computes the diff of `built` relative to `base`: every path that is new or
/// whose content, size, or *in-container* ownership/mode changed, copied into
/// a fresh filesystem.
///
/// Ownership is compared in the namespace view (`uid_view`/`gid_view`), not in
/// host IDs: a Type III build stores every file as the invoking user on the
/// host, but inside the container those files still *appear* root-owned, and
/// it is the container-visible identity that decides whether a layer needs to
/// record the file again.
fn diff_filesystem(base: &Filesystem, built: &Filesystem, built_actor: &Actor) -> Filesystem {
    let root_creds = Credentials::host_root();
    let host_ns = UserNamespace::initial();
    let base_actor = Actor::new(&root_creds, &host_ns);
    let mut diff = Filesystem::new_local();
    for (path, _) in built.walk() {
        let new_stat = match built.lstat(built_actor, &path) {
            Ok(s) => s,
            Err(_) => continue,
        };
        let changed = match base.lstat(&base_actor, &path) {
            Err(_) => true,
            Ok(old_stat) => {
                old_stat.uid_view != new_stat.uid_view
                    || old_stat.gid_view != new_stat.gid_view
                    || old_stat.mode != new_stat.mode
                    || old_stat.size != new_stat.size
                    || match (
                        base.read_file(&base_actor, &path),
                        built.read_file(built_actor, &path),
                    ) {
                        (Ok(a), Ok(b)) => a != b,
                        _ => false,
                    }
            }
        };
        if !changed || new_stat.file_type.is_device() {
            continue;
        }
        // Copy only this node: the walk visits every descendant separately, so
        // copying subtrees here would drag unchanged base files into the diff.
        if new_stat.file_type == hpcc_vfs::FileType::Directory {
            let _ = diff.install_dir(&path, new_stat.uid_host, new_stat.gid_host, new_stat.mode);
        } else {
            let _ = diff.copy_tree_from(built, &path, &path);
        }
    }
    diff
}

/// Pushes a locally built image to an OCI distribution registry.
///
/// * `repo`/`reference_tag` name the target (`repo:tag` in the registry).
/// * `layer_mode` selects single-layer flattened vs base-plus-diff preserved.
/// * The §6.2.5 annotation is attached from the image's LABEL; the registry
///   additionally enforces its own per-repository policy and may reject the
///   push with [`ApiError::Unsupported`].
/// * The image is read with the identity of the builder's containers; a
///   builder the runtime refuses one (`EPERM`) gets [`ApiError::Denied`].
pub fn push_to_oci(
    builder: &Builder,
    tag: &str,
    registry: &mut DistributionRegistry,
    repo: &str,
    reference_tag: &str,
    layer_mode: LayerMode,
) -> Result<OciPushReport, ApiError> {
    let built = builder.image(tag).ok_or(ApiError::NameUnknown)?;
    // The image is read as the builder's containers see it; a builder that
    // cannot create one (a Type II invoker with no subordinate range) is
    // denied.
    let (creds, userns) = builder.identity().map_err(|_| ApiError::Denied)?;
    let actor = Actor::new(&creds, &userns);
    let mut cfg: ImageConfig = built.config.clone();
    cfg.architecture = built.arch.clone();
    let requested = requested_flatten_policy(built);
    let reference = format!("{}/{}:{}", registry.host(), repo, reference_tag);

    let image = match layer_mode {
        LayerMode::SingleFlattened => Image::from_fs_flattened(&reference, &built.fs, &actor, cfg)
            .map_err(|_| ApiError::ManifestInvalid)?,
        LayerMode::BaseAndDiff => {
            let base =
                base_image(&built.base_reference, &built.arch).ok_or(ApiError::ManifestInvalid)?;
            let root_creds = Credentials::host_root();
            let host_ns = UserNamespace::initial();
            let root = Actor::new(&root_creds, &host_ns);
            let opts = tar::PackOptions {
                ownership: tar::OwnershipPolicy::NamespaceView,
                skip_devices: true,
                clear_setid: false,
            };
            // Layers are hashed while the tar stream is produced; file bytes
            // flow from the copy-on-write store without materializing copies.
            let base_layer = Layer::pack_from_fs(&base.fs, &root, "/", &opts)
                .map_err(|_| ApiError::ManifestInvalid)?;
            let diff_fs = diff_filesystem(&base.fs, &built.fs, &actor);
            let diff_layer = Layer::pack_from_fs(&diff_fs, &actor, "/", &opts)
                .map_err(|_| ApiError::ManifestInvalid)?;
            Image {
                reference,
                config: cfg,
                layers: vec![base_layer, diff_layer],
                ownership: OwnershipMode::Preserved,
            }
        }
    };
    requested.check(image.ownership)?;

    let platform = platform_for_arch(&built.arch);
    let bytes_offered = image.total_size() as u64;
    let layer_count = image.layers.len();
    let manifest_digest =
        registry.push_image(&builder.invoker.name, repo, reference_tag, platform, &image)?;
    Ok(OciPushReport {
        manifest_digest,
        layer_count,
        bytes_offered,
        requested_policy: requested,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BuildOptions, Builder};
    use crate::dockerfile::centos7_dockerfile;
    use hpcc_runtime::Invoker;

    fn built_builder(force: bool) -> Builder {
        let alice = Invoker::user("alice", 1000, 1000);
        let mut b = Builder::ch_image(alice);
        let mut opts = BuildOptions::new("foo");
        if force {
            opts = opts.with_force();
        }
        let report = b.build(centos7_dockerfile(), &opts, None);
        assert!(report.success, "{}", report.transcript_text());
        b
    }

    fn registry() -> DistributionRegistry {
        DistributionRegistry::new("registry.example.gov", &["alice"])
    }

    #[test]
    fn single_flattened_push_has_one_layer() {
        let b = built_builder(true);
        let mut reg = registry();
        let report = push_to_oci(
            &b,
            "foo",
            &mut reg,
            "hpc/foo",
            "1.0",
            LayerMode::SingleFlattened,
        )
        .unwrap();
        assert_eq!(report.layer_count, 1);
        assert_eq!(report.requested_policy, FlattenPolicy::Allow);
        assert_eq!(reg.tags("hpc/foo").unwrap(), vec!["1.0"]);
    }

    #[test]
    fn base_and_diff_push_has_two_layers_and_smaller_diff() {
        let b = built_builder(true);
        let mut reg = registry();
        let report = push_to_oci(
            &b,
            "foo",
            &mut reg,
            "hpc/foo",
            "2.0",
            LayerMode::BaseAndDiff,
        )
        .unwrap();
        assert_eq!(report.layer_count, 2);
        let pulled = reg
            .pull_for_platform("alice", "hpc/foo", "2.0", &Platform::linux_amd64())
            .unwrap();
        assert_eq!(pulled.image.layers.len(), 2);
        // The diff layer records only what the build changed: base-image files
        // the build never touched appear in the base layer but not the diff.
        let base_entries = tar::list(&pulled.image.layers[0].tar).unwrap();
        let diff_entries = tar::list(&pulled.image.layers[1].tar).unwrap();
        assert!(base_entries
            .iter()
            .any(|e| e.path.contains("redhat-release")));
        assert!(!diff_entries
            .iter()
            .any(|e| e.path.contains("redhat-release")));
        // And the diff is not empty — the yum install added real payload.
        assert!(!diff_entries.is_empty());
    }

    #[test]
    fn flatten_label_is_respected() {
        // A built image whose Dockerfile requested `disallow` cannot be pushed
        // flattened — the Type III builder cannot satisfy it (§6.2.5).
        let alice = Invoker::user("alice", 1000, 1000);
        let mut b = Builder::ch_image(alice);
        let df = format!(
            "FROM centos:7\nLABEL {}=disallow\nRUN echo hello\n",
            FLATTEN_ANNOTATION
        );
        let report = b.build(&df, &BuildOptions::new("marked"), None);
        assert!(report.success);
        let mut reg = registry();
        let err = push_to_oci(
            &b,
            "marked",
            &mut reg,
            "hpc/marked",
            "1.0",
            LayerMode::SingleFlattened,
        )
        .unwrap_err();
        assert_eq!(err, ApiError::Unsupported);
        // The same image pushes fine preserved (base+diff).
        push_to_oci(
            &b,
            "marked",
            &mut reg,
            "hpc/marked",
            "1.0",
            LayerMode::BaseAndDiff,
        )
        .unwrap();
    }

    #[test]
    fn unknown_tag_is_name_unknown() {
        let b = built_builder(true);
        let mut reg = registry();
        assert_eq!(
            push_to_oci(&b, "nope", &mut reg, "x/y", "1", LayerMode::SingleFlattened).unwrap_err(),
            ApiError::NameUnknown
        );
    }

    #[test]
    fn platform_mapping_covers_hpc_architectures() {
        assert_eq!(platform_for_arch("aarch64"), Platform::linux_arm64());
        assert_eq!(platform_for_arch("x86_64"), Platform::linux_amd64());
        assert_eq!(platform_for_arch("ppc64le"), Platform::linux_ppc64le());
    }
}
