//! An OCI distribution registry: repositories, tags, manifests, indexes, and
//! blob storage with token-based access control.
//!
//! This is the "OCI-compliant container registry" of the Astra workflow
//! (paper Figure 6, the GitLab Container Registry Service): the login node
//! pushes the freshly built image here, and compute nodes pull it for
//! distributed launch. The paper notes that a registry "provides persistence
//! to container images which could help in portability, debugging with old
//! versions, or general future reproducibility" — hence tag history and
//! digest-addressed pulls are both supported.

use std::collections::{BTreeMap, HashMap};

use hpcc_image::{sha256, Image, ImageConfig, Layer, OwnershipMode};

use crate::blobstore::BlobStore;
use crate::error::ApiError;
use crate::flatten::{FlattenPolicy, FLATTEN_ANNOTATION};
use crate::manifest::{ImageIndex, OciManifest};
use crate::media::{Descriptor, MediaType, Platform};

/// Per-repository access rules: who may push. Pulls are open to any
/// authenticated user (HPC centres typically gate the registry itself, not
/// individual repositories, but production pushes come from CI users only).
#[derive(Debug, Clone, Default)]
struct Repository {
    /// Tag → manifest-or-index digest.
    tags: BTreeMap<String, hpcc_image::Digest>,
    /// Digest → manifest.
    manifests: HashMap<hpcc_image::Digest, OciManifest>,
    /// Tag → multi-arch index (kept per tag because entries accrete as each
    /// architecture's CI job pushes).
    indexes: BTreeMap<String, ImageIndex>,
    /// Users allowed to push; empty means any authenticated user.
    pushers: Vec<String>,
    /// Flatten policy enforced at push time for this repository.
    flatten_policy: FlattenPolicy,
}

/// A distribution registry instance.
#[derive(Debug, Clone)]
pub struct DistributionRegistry {
    host: String,
    repos: BTreeMap<String, Repository>,
    blobs: BlobStore,
    /// Users known to the registry (token holders).
    users: Vec<String>,
    push_count: u64,
    pull_count: u64,
}

/// What a pull returns: the selected manifest plus a reconstructed [`Image`].
#[derive(Debug, Clone)]
pub struct PulledImage {
    /// The manifest that was selected (by tag + platform, or by digest).
    pub manifest: OciManifest,
    /// The reconstructed image with layer bytes fetched from the blob store.
    pub image: Image,
}

impl DistributionRegistry {
    /// Creates a registry with a set of known (token-holding) users.
    pub fn new(host: &str, users: &[&str]) -> Self {
        DistributionRegistry {
            host: host.to_string(),
            repos: BTreeMap::new(),
            blobs: BlobStore::new(),
            users: users.iter().map(|s| s.to_string()).collect(),
            push_count: 0,
            pull_count: 0,
        }
    }

    /// Registry host name (e.g. `registry.example.gov`).
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Declares a repository, optionally restricting pushers and setting the
    /// §6.2.5 flatten policy. Repositories are also auto-created on first
    /// push by any authorized user with the default (allow) policy.
    // hpcc-lint: allow(test_only_api) — §6.2.5: tests/extensions.rs declares a repository that requires flattened pushes
    pub fn create_repository(
        &mut self,
        name: &str,
        pushers: &[&str],
        flatten_policy: FlattenPolicy,
    ) {
        let repo = self.repos.entry(name.to_string()).or_default();
        repo.pushers = pushers.iter().map(|s| s.to_string()).collect();
        repo.flatten_policy = flatten_policy;
    }

    /// Repository names, sorted.
    pub fn repositories(&self) -> Vec<String> {
        self.repos.keys().cloned().collect()
    }

    /// Tags of a repository, sorted.
    pub fn tags(&self, repo: &str) -> Result<Vec<String>, ApiError> {
        let r = self.repos.get(repo).ok_or(ApiError::NameUnknown)?;
        Ok(r.tags.keys().cloned().collect())
    }

    /// Blob-store statistics (dedup savings etc.).
    pub fn blob_stats(&self) -> &BlobStore {
        &self.blobs
    }

    /// Total pushes accepted.
    pub fn push_count(&self) -> u64 {
        self.push_count
    }

    /// Total pulls served.
    pub fn pull_count(&self) -> u64 {
        self.pull_count
    }

    fn authenticate(&self, user: &str) -> Result<(), ApiError> {
        if self.users.iter().any(|u| u == user) {
            Ok(())
        } else {
            Err(ApiError::Unauthorized)
        }
    }

    fn authorize_push(&self, repo: &str, user: &str) -> Result<(), ApiError> {
        self.authenticate(user)?;
        if let Some(r) = self.repos.get(repo) {
            if !r.pushers.is_empty() && !r.pushers.iter().any(|p| p == user) {
                return Err(ApiError::Denied);
            }
        }
        Ok(())
    }

    /// Pushes an [`Image`] for a platform under `repo:tag`.
    ///
    /// Layers are uploaded blob-by-blob with a `HEAD` check first (so layers
    /// already present — the common case during iterative development — are
    /// skipped), then the manifest is PUT and the tag's multi-arch index is
    /// updated. Returns the manifest digest.
    pub fn push_image(
        &mut self,
        user: &str,
        repo: &str,
        tag: &str,
        platform: Platform,
        image: &Image,
    ) -> Result<hpcc_image::Digest, ApiError> {
        self.authorize_push(repo, user)?;
        let policy = self
            .repos
            .get(repo)
            .map(|r| r.flatten_policy)
            .unwrap_or_default();
        policy.check(image.ownership)?;

        // Upload config blob.
        let config_bytes = image.config.canonical().into_bytes();
        let config_digest = sha256(&config_bytes);
        if !self.blobs.has(&config_digest) {
            self.blobs.put(&config_digest, config_bytes.clone())?;
        }
        // Upload layer blobs, skipping ones already present. `layer.tar` is
        // a shared handle, so an upload is a refcount bump, not a copy.
        let mut layer_descs = Vec::with_capacity(image.layers.len());
        for layer in &image.layers {
            if !self.blobs.has(&layer.digest) {
                self.blobs.put(&layer.digest, layer.tar.clone())?;
            }
            layer_descs.push(Descriptor::new(
                MediaType::LayerTar,
                layer.digest,
                layer.tar.len() as u64,
            ));
        }
        let manifest = OciManifest::new(
            Descriptor::new(
                MediaType::ImageConfig,
                config_digest,
                config_bytes.len() as u64,
            ),
            layer_descs,
        )
        .with_annotation(FLATTEN_ANNOTATION, policy.as_str())
        .with_annotation(
            "org.hpc.container.ownership.mode",
            match image.ownership {
                OwnershipMode::Preserved => "preserved",
                OwnershipMode::Flattened => "flattened",
            },
        );
        manifest.validate()?;
        let digest = manifest.digest();
        let manifest_size = manifest.render().len() as u64;

        let repo_entry = self.repos.entry(repo.to_string()).or_default();
        repo_entry.manifests.insert(digest, manifest);
        repo_entry.tags.insert(tag.to_string(), digest);
        repo_entry
            .indexes
            .entry(tag.to_string())
            .or_default()
            .upsert(digest, manifest_size, platform);
        self.push_count += 1;
        Ok(digest)
    }

    /// The multi-arch index for `repo:tag`.
    pub fn index(&self, repo: &str, tag: &str) -> Result<&ImageIndex, ApiError> {
        let r = self.repos.get(repo).ok_or(ApiError::NameUnknown)?;
        r.indexes.get(tag).ok_or(ApiError::ManifestUnknown)
    }

    /// Fetches a manifest by digest.
    pub fn manifest(
        &self,
        repo: &str,
        digest: &hpcc_image::Digest,
    ) -> Result<&OciManifest, ApiError> {
        let r = self.repos.get(repo).ok_or(ApiError::NameUnknown)?;
        r.manifests.get(digest).ok_or(ApiError::ManifestUnknown)
    }

    /// Pulls `repo:tag` for a platform: selects the right manifest from the
    /// index, fetches blobs, and reconstructs an [`Image`]. This is what a
    /// compute node does before distributed launch (Figure 6 step 3).
    pub fn pull_for_platform(
        &mut self,
        user: &str,
        repo: &str,
        tag: &str,
        want: &Platform,
    ) -> Result<PulledImage, ApiError> {
        self.authenticate(user)?;
        let (manifest, reference) = {
            let r = self.repos.get(repo).ok_or(ApiError::NameUnknown)?;
            let index = r.indexes.get(tag).ok_or(ApiError::ManifestUnknown)?;
            let desc = index.select(want)?;
            let manifest = r
                .manifests
                .get(&desc.digest)
                .ok_or(ApiError::ManifestUnknown)?
                .clone();
            (manifest, format!("{}/{}:{}", self.host, repo, tag))
        };
        let mut layers = Vec::with_capacity(manifest.layers.len());
        for desc in &manifest.layers {
            // Shares the stored buffer; the digest is already known, so the
            // blob is neither copied nor re-hashed.
            layers.push(Layer {
                digest: desc.digest,
                tar: self.blobs.get_shared(&desc.digest)?,
            });
        }
        let ownership = match manifest
            .annotations
            .get("org.hpc.container.ownership.mode")
            .map(String::as_str)
        {
            Some("preserved") => OwnershipMode::Preserved,
            _ => OwnershipMode::Flattened,
        };
        let config = ImageConfig {
            architecture: want.architecture.clone(),
            ..Default::default()
        };
        self.pull_count += 1;
        Ok(PulledImage {
            manifest,
            image: Image {
                reference,
                config,
                layers,
                ownership,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_image::ImageConfig;

    fn test_image(arch: &str, payload: &[u8], ownership: OwnershipMode) -> Image {
        let config = ImageConfig {
            architecture: arch.to_string(),
            ..Default::default()
        };
        Image {
            reference: "local/atse:dev".to_string(),
            config,
            layers: vec![Layer {
                digest: sha256(payload),
                tar: payload.to_vec().into(),
            }],
            ownership,
        }
    }

    fn registry() -> DistributionRegistry {
        DistributionRegistry::new("registry.example.gov", &["alice", "bob", "ci-runner"])
    }

    #[test]
    fn push_then_pull_round_trips_layers() {
        let mut reg = registry();
        let img = test_image("arm64", b"aarch64 ATSE layer", OwnershipMode::Flattened);
        let digest = reg
            .push_image("alice", "atse/app", "1.0", Platform::linux_arm64(), &img)
            .unwrap();
        let pulled = reg
            .pull_for_platform("bob", "atse/app", "1.0", &Platform::linux_arm64())
            .unwrap();
        assert_eq!(pulled.manifest.digest(), digest);
        assert_eq!(pulled.image.layers[0].tar, b"aarch64 ATSE layer");
        assert_eq!(reg.pull_count(), 1);
    }

    #[test]
    fn unauthenticated_user_is_rejected() {
        let mut reg = registry();
        let img = test_image("amd64", b"x", OwnershipMode::Flattened);
        assert_eq!(
            reg.push_image("mallory", "atse/app", "1.0", Platform::linux_amd64(), &img)
                .unwrap_err(),
            ApiError::Unauthorized
        );
    }

    #[test]
    fn push_restricted_repository_denies_non_pushers() {
        let mut reg = registry();
        reg.create_repository("atse/prod", &["ci-runner"], FlattenPolicy::Allow);
        let img = test_image("amd64", b"x", OwnershipMode::Flattened);
        assert_eq!(
            reg.push_image("alice", "atse/prod", "1.0", Platform::linux_amd64(), &img)
                .unwrap_err(),
            ApiError::Denied
        );
        reg.push_image(
            "ci-runner",
            "atse/prod",
            "1.0",
            Platform::linux_amd64(),
            &img,
        )
        .unwrap();
    }

    #[test]
    fn multi_arch_index_accretes_and_selects() {
        let mut reg = registry();
        let amd = test_image("amd64", b"amd64 build", OwnershipMode::Flattened);
        let arm = test_image("arm64", b"arm64 build", OwnershipMode::Flattened);
        reg.push_image(
            "ci-runner",
            "atse/app",
            "2.0",
            Platform::linux_amd64(),
            &amd,
        )
        .unwrap();
        // Before the aarch64 CI job runs, Astra cannot pull — the Figure 6
        // motivation, surfaced as MANIFEST_UNKNOWN.
        assert_eq!(
            reg.pull_for_platform("alice", "atse/app", "2.0", &Platform::linux_arm64())
                .unwrap_err(),
            ApiError::ManifestUnknown
        );
        reg.push_image(
            "ci-runner",
            "atse/app",
            "2.0",
            Platform::linux_arm64(),
            &arm,
        )
        .unwrap();
        assert_eq!(reg.index("atse/app", "2.0").unwrap().len(), 2);
        let pulled = reg
            .pull_for_platform("alice", "atse/app", "2.0", &Platform::linux_arm64())
            .unwrap();
        assert_eq!(pulled.image.layers[0].tar, b"arm64 build");
    }

    #[test]
    fn flatten_policy_is_enforced_at_push() {
        let mut reg = registry();
        reg.create_repository("secure/app", &[], FlattenPolicy::Require);
        let preserved = test_image("amd64", b"multi-uid", OwnershipMode::Preserved);
        assert_eq!(
            reg.push_image(
                "alice",
                "secure/app",
                "1.0",
                Platform::linux_amd64(),
                &preserved
            )
            .unwrap_err(),
            ApiError::Unsupported
        );
        let flattened = test_image("amd64", b"flat", OwnershipMode::Flattened);
        reg.push_image(
            "alice",
            "secure/app",
            "1.0",
            Platform::linux_amd64(),
            &flattened,
        )
        .unwrap();
    }

    #[test]
    fn repeated_pushes_of_same_layer_are_deduplicated() {
        let mut reg = registry();
        let img = test_image("amd64", b"shared base layer", OwnershipMode::Flattened);
        reg.push_image("alice", "a/one", "1", Platform::linux_amd64(), &img)
            .unwrap();
        reg.push_image("alice", "a/two", "1", Platform::linux_amd64(), &img)
            .unwrap();
        // One layer blob + one config blob, not two of each.
        assert_eq!(reg.blob_stats().len(), 2);
        assert_eq!(reg.push_count(), 2);
    }

    #[test]
    fn tags_listing_and_unknown_repo() {
        let mut reg = registry();
        assert_eq!(reg.tags("nope").unwrap_err(), ApiError::NameUnknown);
        let img = test_image("amd64", b"x", OwnershipMode::Flattened);
        reg.push_image("alice", "atse/app", "1.0", Platform::linux_amd64(), &img)
            .unwrap();
        reg.push_image("alice", "atse/app", "1.1", Platform::linux_amd64(), &img)
            .unwrap();
        assert_eq!(reg.tags("atse/app").unwrap(), vec!["1.0", "1.1"]);
        assert_eq!(reg.repositories(), vec!["atse/app"]);
    }
}
