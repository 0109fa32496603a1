//! `hpcc-image`: OCI-like container images and registries.
//!
//! Content-addressed layers (pure-Rust SHA-256), image configs and manifests,
//! ownership policies on push (flattened vs preserved vs fakeroot-database,
//! paper §6.1 / §6.2.2), and an in-memory registry used by the Astra
//! workflow (Figure 6).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod image;
pub mod registry;
pub mod sha256;

pub use image::{Image, ImageConfig, Layer, OwnershipMode};
pub use registry::{Registry, RegistryError};
pub use sha256::{sha256, sha256_str, Digest, Sha256, Sha256Writer};
// Re-exported so blob consumers (`hpcc-oci`) can share layer buffers without
// depending on the VFS crate directly.
pub use hpcc_vfs::FileBytes;
