//! `hpcc-oci`: the OCI interoperability layer of the reproduction — the
//! distribution protocol (blob store, manifests, tags), multi-architecture
//! image indexes, and the ownership-flattening annotation the paper proposes
//! as an OCI extension (§6.2.5).
//!
//! The sibling `hpcc-image` crate owns the *contents* of an image (layers,
//! tars, ownership recording); this crate owns how images are *named, stored,
//! and exchanged* between the build host, the registry, and the compute nodes
//! of the Figure 6 workflow:
//!
//! * [`media`] — media types, content descriptors, platforms;
//! * [`blobstore`] — content-addressed blob storage with deduplication;
//! * [`manifest`] — image manifests and multi-architecture indexes;
//! * [`distribution`] — the registry itself, with per-repository push
//!   authorization and flatten-policy enforcement;
//! * [`flatten`] — the disallow / allow / require ownership-flattening policy;
//! * [`error`] — the OCI distribution error codes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod blobstore;
pub mod distribution;
pub mod error;
pub mod flatten;
pub mod manifest;
pub mod media;

pub use blobstore::BlobStore;
pub use distribution::{DistributionRegistry, PulledImage};
pub use error::ApiError;
pub use flatten::{FlattenPolicy, FLATTEN_ANNOTATION};
pub use manifest::{ImageIndex, OciManifest};
pub use media::{Descriptor, MediaType, Platform};

// The property-based suite runs against the offline `proptest` drop-in in
// crates/proptest-shim (a path dev-dependency, so no registry is needed):
// `cargo test --features proptest` executes it everywhere, and CI runs that
// as a matrix leg. Swap the path dependency for crates.io `proptest = "1"`
// to regain shrinking; test sources need no changes.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use hpcc_image::sha256;
    use proptest::prelude::*;

    proptest! {
        /// Blob-store round trip: anything stored under its true digest comes
        /// back bit-identical, and duplicates never increase stored bytes.
        #[test]
        fn blobstore_roundtrip(blobs in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256), 1..20)) {
            let mut store = BlobStore::new();
            let mut expected_distinct = std::collections::HashSet::new();
            for b in &blobs {
                let d = sha256(b);
                store.put(&d, b.clone()).unwrap();
                expected_distinct.insert(d);
                prop_assert_eq!(store.get(&d).unwrap(), b.as_slice());
            }
            prop_assert_eq!(store.len(), expected_distinct.len());
            prop_assert!(store.stored_bytes() <= store.offered_bytes());
        }

        /// Manifest digests are deterministic functions of content: permuting
        /// annotations (a BTreeMap) or re-rendering never changes the digest,
        /// while changing any layer does.
        #[test]
        fn manifest_digest_deterministic(layer_a in proptest::collection::vec(any::<u8>(), 1..64),
                                         layer_b in proptest::collection::vec(any::<u8>(), 1..64)) {
            let config = Descriptor::new(MediaType::ImageConfig, sha256(b"cfg"), 3);
            let mk = |data: &[u8]| OciManifest::new(
                config.clone(),
                vec![Descriptor::new(MediaType::LayerTar, sha256(data), data.len() as u64)]);
            let m1 = mk(&layer_a);
            let m2 = mk(&layer_a);
            prop_assert_eq!(m1.digest(), m2.digest());
            if layer_a != layer_b {
                prop_assert_ne!(m1.digest(), mk(&layer_b).digest());
            }
        }

        /// Index selection never returns a manifest whose platform cannot run
        /// on the requested platform.
        #[test]
        fn index_selection_is_sound(want_arm in any::<bool>(), entries in 1usize..4) {
            let mut index = ImageIndex::new();
            let platforms = [Platform::linux_amd64(), Platform::linux_arm64(), Platform::linux_ppc64le()];
            for (i, p) in platforms.iter().take(entries).enumerate() {
                index.upsert(sha256(format!("m{i}").as_bytes()), 10, p.clone());
            }
            let want = if want_arm { Platform::linux_arm64() } else { Platform::linux_amd64() };
            match index.select(&want) {
                Ok(desc) => prop_assert!(desc.platform.as_ref().unwrap().runs_on(&want)),
                Err(e) => prop_assert_eq!(e, ApiError::ManifestUnknown),
            }
        }
    }
}
