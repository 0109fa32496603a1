//! OCI image manifests and multi-architecture image indexes.
//!
//! An image manifest references a config blob and an ordered list of layer
//! blobs by digest. An image index references one manifest per platform — the
//! structure that would have let Astra's users discover that no aarch64
//! variant of their x86-64 images existed *before* trying to run them
//! (paper §4.2), and that lets the multi-supercomputer CI/CD of §6.3 publish
//! one reference covering every node architecture.

use std::collections::BTreeMap;

use hpcc_image::{sha256, Digest};

use crate::error::ApiError;
use crate::flatten::{FlattenPolicy, FLATTEN_ANNOTATION};
use crate::media::{Descriptor, MediaType, Platform};

/// An OCI image manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OciManifest {
    /// Descriptor of the image config blob.
    pub config: Descriptor,
    /// Layer descriptors, base layer first.
    pub layers: Vec<Descriptor>,
    /// Free-form annotations; [`FLATTEN_ANNOTATION`] is the one the paper
    /// proposes.
    pub annotations: BTreeMap<String, String>,
}

impl OciManifest {
    /// Creates a manifest.
    pub fn new(config: Descriptor, layers: Vec<Descriptor>) -> Self {
        OciManifest {
            config,
            layers,
            annotations: BTreeMap::new(),
        }
    }

    /// Adds an annotation.
    pub fn with_annotation(mut self, key: &str, value: &str) -> Self {
        self.annotations.insert(key.to_string(), value.to_string());
        self
    }

    /// The flatten policy encoded in the annotations (default: allow).
    pub fn flatten_policy(&self) -> Result<FlattenPolicy, ApiError> {
        match self.annotations.get(FLATTEN_ANNOTATION) {
            Some(v) => FlattenPolicy::parse(v),
            None => Ok(FlattenPolicy::Allow),
        }
    }

    /// Canonical document rendering (stable across identical manifests, so
    /// digests are reproducible).
    pub fn render(&self) -> String {
        let mut out = String::from("{\"schemaVersion\":2,");
        out.push_str(&format!("\"mediaType\":\"{}\",", MediaType::ImageManifest));
        out.push_str(&format!("\"config\":{},", self.config.render()));
        out.push_str("\"layers\":[");
        for (i, l) in self.layers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&l.render());
        }
        out.push_str("],\"annotations\":{");
        for (i, (k, v)) in self.annotations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", k, v));
        }
        out.push_str("}}");
        out
    }

    /// The manifest digest (digest of the canonical rendering).
    pub fn digest(&self) -> Digest {
        sha256(self.render().as_bytes())
    }

    /// Validation: layer list non-empty, media types sensible.
    pub fn validate(&self) -> Result<(), ApiError> {
        if self.layers.is_empty() {
            return Err(ApiError::ManifestInvalid);
        }
        if self.config.media_type != MediaType::ImageConfig {
            return Err(ApiError::ManifestInvalid);
        }
        if self
            .layers
            .iter()
            .any(|l| !matches!(l.media_type, MediaType::LayerTar | MediaType::LayerTarGzip))
        {
            return Err(ApiError::ManifestInvalid);
        }
        // An invalid flatten annotation is a validation failure too.
        self.flatten_policy().map(|_| ())
    }
}

/// A multi-architecture image index (a "fat manifest").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImageIndex {
    /// One manifest descriptor per platform.
    pub manifests: Vec<Descriptor>,
    /// Index-level annotations.
    pub annotations: BTreeMap<String, String>,
}

impl ImageIndex {
    /// An empty index.
    pub fn new() -> Self {
        ImageIndex::default()
    }

    /// Adds (or replaces) the entry for a platform.
    pub fn upsert(&mut self, manifest_digest: Digest, size: u64, platform: Platform) {
        self.manifests
            .retain(|d| d.platform.as_ref() != Some(&platform));
        self.manifests.push(
            Descriptor::new(MediaType::ImageManifest, manifest_digest, size)
                .with_platform(platform),
        );
    }

    /// Platforms covered by this index.
    pub fn platforms(&self) -> Vec<Platform> {
        self.manifests
            .iter()
            .filter_map(|d| d.platform.clone())
            .collect()
    }

    /// Selects the manifest for a platform a node wants to run on — the pull
    /// step of Figure 6. `ManifestUnknown` is exactly the "x86-64 image on
    /// Astra" failure, surfaced at pull time instead of exec time.
    pub fn select(&self, want: &Platform) -> Result<&Descriptor, ApiError> {
        self.manifests
            .iter()
            .find(|d| {
                d.platform
                    .as_ref()
                    .map(|p| p.runs_on(want))
                    .unwrap_or(false)
            })
            .ok_or(ApiError::ManifestUnknown)
    }

    /// Canonical rendering.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"schemaVersion\":2,");
        out.push_str(&format!("\"mediaType\":\"{}\",", MediaType::ImageIndex));
        out.push_str("\"manifests\":[");
        for (i, m) in self.manifests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&m.render());
        }
        out.push_str("]}");
        out
    }

    /// The index digest.
    pub fn digest(&self) -> Digest {
        sha256(self.render().as_bytes())
    }

    /// Number of platform entries.
    pub fn len(&self) -> usize {
        self.manifests.len()
    }

    /// True if the index has no entries.
    pub fn is_empty(&self) -> bool {
        self.manifests.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_desc() -> Descriptor {
        Descriptor::new(MediaType::ImageConfig, sha256(b"config"), 6)
    }

    fn layer_desc(data: &[u8]) -> Descriptor {
        Descriptor::new(MediaType::LayerTar, sha256(data), data.len() as u64)
    }

    #[test]
    fn manifest_digest_is_stable_and_content_sensitive() {
        let m1 = OciManifest::new(config_desc(), vec![layer_desc(b"layer1")]);
        let m2 = OciManifest::new(config_desc(), vec![layer_desc(b"layer1")]);
        let m3 = OciManifest::new(config_desc(), vec![layer_desc(b"layer2")]);
        assert_eq!(m1.digest(), m2.digest());
        assert_ne!(m1.digest(), m3.digest());
    }

    #[test]
    fn manifest_validation_catches_empty_layers_and_bad_config_type() {
        let empty = OciManifest::new(config_desc(), vec![]);
        assert_eq!(empty.validate().unwrap_err(), ApiError::ManifestInvalid);
        let bad_config = OciManifest::new(layer_desc(b"x"), vec![layer_desc(b"y")]);
        assert_eq!(
            bad_config.validate().unwrap_err(),
            ApiError::ManifestInvalid
        );
        let good = OciManifest::new(config_desc(), vec![layer_desc(b"y")]);
        assert!(good.validate().is_ok());
    }

    #[test]
    fn flatten_annotation_parses_through_manifest() {
        let m = OciManifest::new(config_desc(), vec![layer_desc(b"l")])
            .with_annotation(FLATTEN_ANNOTATION, "require");
        assert_eq!(m.flatten_policy().unwrap(), FlattenPolicy::Require);
        let bad = OciManifest::new(config_desc(), vec![layer_desc(b"l")])
            .with_annotation(FLATTEN_ANNOTATION, "maybe");
        assert_eq!(bad.validate().unwrap_err(), ApiError::ManifestInvalid);
        let unannotated = OciManifest::new(config_desc(), vec![layer_desc(b"l")]);
        assert_eq!(unannotated.flatten_policy().unwrap(), FlattenPolicy::Allow);
    }

    #[test]
    fn index_selects_manifest_by_platform() {
        let mut index = ImageIndex::new();
        let amd = OciManifest::new(config_desc(), vec![layer_desc(b"amd64 layer")]);
        index.upsert(amd.digest(), 100, Platform::linux_amd64());
        // The Astra failure: no arm64 entry yet.
        assert_eq!(
            index.select(&Platform::linux_arm64()).unwrap_err(),
            ApiError::ManifestUnknown
        );
        let arm = OciManifest::new(config_desc(), vec![layer_desc(b"arm64 layer")]);
        index.upsert(arm.digest(), 120, Platform::linux_arm64());
        assert_eq!(index.len(), 2);
        let picked = index.select(&Platform::linux_arm64()).unwrap();
        assert_eq!(picked.digest, arm.digest());
    }

    #[test]
    fn index_upsert_replaces_platform_entry() {
        let mut index = ImageIndex::new();
        index.upsert(sha256(b"v1"), 10, Platform::linux_arm64());
        index.upsert(sha256(b"v2"), 12, Platform::linux_arm64());
        assert_eq!(index.len(), 1);
        assert_eq!(
            index.select(&Platform::linux_arm64()).unwrap().digest,
            sha256(b"v2")
        );
    }
}
