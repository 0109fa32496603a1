//! An in-memory OCI-compliant-ish container registry (e.g. the GitLab
//! Container Registry service used in the Astra workflow, paper Figure 6).
//!
//! "A container registry is important to leverage in this workflow as it
//! provides persistence to container images which could help in portability,
//! debugging with old versions, or general future reproducibility" (§4.2).

use std::collections::BTreeMap;

use crate::image::Image;
use crate::sha256::Digest;

/// Errors returned by registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The repository does not exist.
    UnknownRepository(String),
    /// The tag does not exist in the repository.
    UnknownTag(String),
    /// A blob referenced by a manifest is missing.
    MissingBlob(Digest),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownRepository(r) => write!(f, "unknown repository: {}", r),
            RegistryError::UnknownTag(t) => write!(f, "unknown tag: {}", t),
            RegistryError::MissingBlob(d) => write!(f, "missing blob: {}", d),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A stored tag: manifest digest plus the image itself.
#[derive(Debug, Clone)]
struct TagEntry {
    manifest_digest: Digest,
    image: Image,
}

/// An in-memory registry.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Registry host name (informational).
    pub host: String,
    repositories: BTreeMap<String, BTreeMap<String, TagEntry>>,
    push_count: u64,
    pull_count: u64,
}

impl Registry {
    /// Creates a registry with the given host name.
    pub fn new(host: &str) -> Self {
        Registry {
            host: host.to_string(),
            ..Default::default()
        }
    }

    /// Splits a reference `repo/name:tag` into `(repository, tag)`.
    pub fn split_reference(reference: &str) -> (String, String) {
        match reference.rsplit_once(':') {
            Some((repo, tag)) if !tag.contains('/') => (repo.to_string(), tag.to_string()),
            _ => (reference.to_string(), "latest".to_string()),
        }
    }

    /// Pushes an image under its reference. Returns the manifest digest.
    /// Every user may push: per-repository push authorization is modelled by
    /// the OCI registry (`hpcc_oci::DistributionRegistry`).
    pub fn push(&mut self, _user: &str, image: &Image) -> Result<Digest, RegistryError> {
        let (repo, tag) = Self::split_reference(&image.reference);
        let digest = image.manifest_digest();
        self.repositories.entry(repo).or_default().insert(
            tag,
            TagEntry {
                manifest_digest: digest,
                image: image.clone(),
            },
        );
        self.push_count += 1;
        Ok(digest)
    }

    /// Pulls an image by reference.
    pub fn pull(&mut self, reference: &str) -> Result<Image, RegistryError> {
        let (repo, tag) = Self::split_reference(reference);
        let r = self
            .repositories
            .get(&repo)
            .ok_or_else(|| RegistryError::UnknownRepository(repo.clone()))?;
        let entry = r
            .get(&tag)
            .ok_or_else(|| RegistryError::UnknownTag(tag.clone()))?;
        self.pull_count += 1;
        Ok(entry.image.clone())
    }

    /// Returns the manifest digest for a reference without pulling the blobs.
    pub fn head(&self, reference: &str) -> Result<Digest, RegistryError> {
        let (repo, tag) = Self::split_reference(reference);
        let r = self
            .repositories
            .get(&repo)
            .ok_or_else(|| RegistryError::UnknownRepository(repo.clone()))?;
        r.get(&tag)
            .map(|e| e.manifest_digest)
            .ok_or(RegistryError::UnknownTag(tag))
    }

    /// Lists tags in a repository.
    pub fn tags(&self, repo: &str) -> Vec<String> {
        self.repositories
            .get(repo)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Lists repositories.
    pub fn repositories(&self) -> Vec<String> {
        self.repositories.keys().cloned().collect()
    }

    /// Number of pushes served.
    pub fn push_count(&self) -> u64 {
        self.push_count
    }

    /// Number of pulls served.
    pub fn pull_count(&self) -> u64 {
        self.pull_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::{ImageConfig, Layer, OwnershipMode};
    use crate::sha256::sha256;

    fn dummy_image(reference: &str, payload: &[u8]) -> Image {
        Image {
            reference: reference.to_string(),
            config: ImageConfig::default(),
            layers: vec![Layer {
                digest: sha256(payload),
                tar: payload.to_vec().into(),
            }],
            ownership: OwnershipMode::Flattened,
        }
    }

    #[test]
    fn push_pull_roundtrip() {
        let mut reg = Registry::new("registry.example.gov");
        let img = dummy_image("atse/app:1.2", b"layer-bytes");
        let digest = reg.push("alice", &img).unwrap();
        let pulled = reg.pull("atse/app:1.2").unwrap();
        assert_eq!(pulled, img);
        assert_eq!(reg.head("atse/app:1.2").unwrap(), digest);
        assert_eq!(reg.push_count(), 1);
        assert_eq!(reg.pull_count(), 1);
    }

    #[test]
    fn unknown_references_error() {
        let mut reg = Registry::new("r");
        assert!(matches!(
            reg.pull("missing/app:1"),
            Err(RegistryError::UnknownRepository(_))
        ));
        reg.push("alice", &dummy_image("present/app:1", b"x"))
            .unwrap();
        assert!(matches!(
            reg.pull("present/app:2"),
            Err(RegistryError::UnknownTag(_))
        ));
    }

    #[test]
    fn tags_and_repositories_listing() {
        let mut reg = Registry::new("r");
        reg.push("a", &dummy_image("proj/app:1.0", b"x")).unwrap();
        reg.push("a", &dummy_image("proj/app:1.1", b"y")).unwrap();
        reg.push("a", &dummy_image("proj/base:7", b"z")).unwrap();
        assert_eq!(reg.tags("proj/app"), vec!["1.0", "1.1"]);
        assert_eq!(reg.repositories(), vec!["proj/app", "proj/base"]);
    }

    #[test]
    fn default_tag_is_latest() {
        assert_eq!(
            Registry::split_reference("proj/app"),
            ("proj/app".to_string(), "latest".to_string())
        );
        assert_eq!(
            Registry::split_reference("proj/app:v2"),
            ("proj/app".to_string(), "v2".to_string())
        );
    }

    #[test]
    fn retag_overwrites() {
        let mut reg = Registry::new("r");
        reg.push("a", &dummy_image("p/a:1", b"old")).unwrap();
        let d1 = reg.head("p/a:1").unwrap();
        reg.push("a", &dummy_image("p/a:1", b"new")).unwrap();
        assert_ne!(reg.head("p/a:1").unwrap(), d1);
    }
}
