//! OCI media types, descriptors, and platform records.
//!
//! Podman "adheres to the OCI spec for container compatibility and
//! interoperability" (paper §4); the registry in Figure 6's workflow speaks
//! this vocabulary. Only the subset the paper's workflows exercise is
//! modelled: image manifests, image indexes (needed for the x86-64 / aarch64
//! split that motivated building on Astra in the first place), config blobs,
//! and tar layer blobs.

use hpcc_image::Digest;

/// The OCI media types used by this model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MediaType {
    /// `application/vnd.oci.image.manifest.v1+json`
    ImageManifest,
    /// `application/vnd.oci.image.index.v1+json`
    ImageIndex,
    /// `application/vnd.oci.image.config.v1+json`
    ImageConfig,
    /// `application/vnd.oci.image.layer.v1.tar`
    LayerTar,
    /// `application/vnd.oci.image.layer.v1.tar+gzip` (we store tars
    /// uncompressed but keep the media type for fidelity of manifests that
    /// declare gzip).
    LayerTarGzip,
}

impl MediaType {
    /// The canonical media-type string.
    pub fn as_str(self) -> &'static str {
        match self {
            MediaType::ImageManifest => "application/vnd.oci.image.manifest.v1+json",
            MediaType::ImageIndex => "application/vnd.oci.image.index.v1+json",
            MediaType::ImageConfig => "application/vnd.oci.image.config.v1+json",
            MediaType::LayerTar => "application/vnd.oci.image.layer.v1.tar",
            MediaType::LayerTarGzip => "application/vnd.oci.image.layer.v1.tar+gzip",
        }
    }
}

impl std::fmt::Display for MediaType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A platform record as used in an image index entry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Platform {
    /// CPU architecture in OCI/GOARCH vocabulary (`amd64`, `arm64`, `ppc64le`).
    pub architecture: String,
    /// Operating system (`linux` for everything the paper touches).
    pub os: String,
    /// Optional variant (e.g. `v8` for arm64).
    pub variant: Option<String>,
}

impl Platform {
    /// x86-64 Linux — developer workstations and CI/CD clouds (paper §2).
    pub fn linux_amd64() -> Self {
        Platform {
            architecture: "amd64".to_string(),
            os: "linux".to_string(),
            variant: None,
        }
    }

    /// aarch64 Linux — the Astra supercomputer's Marvell ThunderX2 CPUs
    /// (paper §4.2).
    pub fn linux_arm64() -> Self {
        Platform {
            architecture: "arm64".to_string(),
            os: "linux".to_string(),
            variant: Some("v8".to_string()),
        }
    }

    /// ppc64le Linux — the other non-x86 CPU family the paper names (§2).
    pub fn linux_ppc64le() -> Self {
        Platform {
            architecture: "ppc64le".to_string(),
            os: "linux".to_string(),
            variant: None,
        }
    }

    /// Translates a `uname -m` style machine name into an OCI platform.
    pub fn from_uname(machine: &str) -> Option<Self> {
        match machine {
            "x86_64" | "amd64" => Some(Platform::linux_amd64()),
            "aarch64" | "arm64" => Some(Platform::linux_arm64()),
            "ppc64le" => Some(Platform::linux_ppc64le()),
            _ => None,
        }
    }

    /// True if an image built for `self` can execute on `other` (exact
    /// architecture match; variants are ignored because all arm64 HPC parts
    /// here are v8).
    pub fn runs_on(&self, other: &Platform) -> bool {
        self.architecture == other.architecture && self.os == other.os
    }

    /// Render as `os/arch[/variant]`, the form registries display.
    pub fn render(&self) -> String {
        match &self.variant {
            Some(v) => format!("{}/{}/{}", self.os, self.architecture, v),
            None => format!("{}/{}", self.os, self.architecture),
        }
    }
}

impl std::fmt::Display for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// A content descriptor: media type, digest, and size — the unit every OCI
/// document uses to reference every other document or blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Descriptor {
    /// What the referenced content is.
    pub media_type: MediaType,
    /// Content digest.
    pub digest: Digest,
    /// Size in bytes.
    pub size: u64,
    /// Platform, present only for index entries.
    pub platform: Option<Platform>,
}

impl Descriptor {
    /// Creates a descriptor without a platform.
    pub fn new(media_type: MediaType, digest: Digest, size: u64) -> Self {
        Descriptor {
            media_type,
            digest,
            size,
            platform: None,
        }
    }

    /// Attaches a platform (for index entries).
    pub fn with_platform(mut self, platform: Platform) -> Self {
        self.platform = Some(platform);
        self
    }

    /// Canonical one-line rendering used inside manifest documents.
    pub fn render(&self) -> String {
        match &self.platform {
            Some(p) => format!(
                "{{\"mediaType\":\"{}\",\"digest\":\"{}\",\"size\":{},\"platform\":\"{}\"}}",
                self.media_type, self.digest, self.size, p
            ),
            None => format!(
                "{{\"mediaType\":\"{}\",\"digest\":\"{}\",\"size\":{}}}",
                self.media_type, self.digest, self.size
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcc_image::sha256;

    #[test]
    fn media_type_strings_are_oci() {
        assert_eq!(
            MediaType::ImageManifest.as_str(),
            "application/vnd.oci.image.manifest.v1+json"
        );
    }

    #[test]
    fn platform_compatibility_is_exact_architecture() {
        let amd = Platform::linux_amd64();
        let arm = Platform::linux_arm64();
        assert!(amd.runs_on(&Platform::linux_amd64()));
        // The Astra problem: an x86-64 image does not run on aarch64 (§4.2).
        assert!(!amd.runs_on(&arm));
        assert!(arm.runs_on(&Platform::linux_arm64()));
    }

    #[test]
    fn uname_mapping() {
        assert_eq!(
            Platform::from_uname("x86_64"),
            Some(Platform::linux_amd64())
        );
        assert_eq!(
            Platform::from_uname("aarch64"),
            Some(Platform::linux_arm64())
        );
        assert_eq!(Platform::from_uname("riscv64"), None);
    }

    #[test]
    fn descriptor_render_includes_platform_when_present() {
        let d = Descriptor::new(MediaType::ImageManifest, sha256(b"x"), 2)
            .with_platform(Platform::linux_arm64());
        let text = d.render();
        assert!(text.contains("linux/arm64/v8"));
        assert!(text.contains("sha256:"));
    }

    #[test]
    fn platform_render_without_variant() {
        assert_eq!(Platform::linux_ppc64le().render(), "linux/ppc64le");
        assert_eq!(Platform::linux_arm64().render(), "linux/arm64/v8");
    }
}
