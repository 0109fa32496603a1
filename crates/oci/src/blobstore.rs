//! Content-addressed blob storage for the OCI distribution specification's
//! monolithic blob upload.
//!
//! The registry in the Astra workflow (paper Figure 6, a GitLab Container
//! Registry) stores layer tars and config documents as content-addressed
//! blobs. Content addressing is also what makes iterative-development pushes
//! cheap for multi-layer builders: unchanged layers are already present and
//! are skipped (`HEAD` before `PUT`), which is one half of the build-cache
//! story the paper notes Charliecloud lacks (§6.1 disadvantage 3).

use std::collections::HashMap;

use hpcc_image::{sha256, Digest, FileBytes};

use crate::error::ApiError;

/// A content-addressed blob store.
///
/// Blobs are held as [`FileBytes`] handles: a push whose layer bytes already
/// live behind a handle (every [`hpcc_image::Layer`]) is stored by bumping a
/// refcount, and a pull hands the same buffer back — blob bytes are never
/// copied between the image and the store.
#[derive(Debug, Clone, Default)]
pub struct BlobStore {
    blobs: HashMap<Digest, FileBytes>,
    /// Bytes actually stored (deduplicated).
    stored_bytes: u64,
    /// Bytes offered for upload including duplicates (what a naive store
    /// would hold) — the difference is the dedup saving.
    offered_bytes: u64,
}

impl BlobStore {
    /// An empty store.
    pub fn new() -> Self {
        BlobStore::default()
    }

    /// True if a blob with this digest is present (`HEAD /v2/.../blobs/<d>`).
    pub fn has(&self, digest: &Digest) -> bool {
        self.blobs.contains_key(digest)
    }

    /// Fetches a blob (`GET /v2/.../blobs/<d>`).
    pub fn get(&self, digest: &Digest) -> Result<&[u8], ApiError> {
        self.blobs
            .get(digest)
            .map(|v| v.as_slice())
            .ok_or(ApiError::BlobUnknown)
    }

    /// Fetches a blob as a shared handle (no copy) — what a pull uses to
    /// reconstruct layers.
    pub fn get_shared(&self, digest: &Digest) -> Result<FileBytes, ApiError> {
        self.blobs.get(digest).cloned().ok_or(ApiError::BlobUnknown)
    }

    /// Stores a blob directly (monolithic upload), verifying the digest the
    /// client claims matches the content. Passing a [`FileBytes`] handle
    /// (e.g. `layer.tar.clone()`) shares the buffer instead of copying it.
    pub fn put(&mut self, claimed: &Digest, data: impl Into<FileBytes>) -> Result<(), ApiError> {
        let data = data.into();
        let actual = sha256(&data);
        if actual != *claimed {
            return Err(ApiError::DigestInvalid);
        }
        self.offered_bytes += data.len() as u64;
        if !self.blobs.contains_key(&actual) {
            self.stored_bytes += data.len() as u64;
            self.blobs.insert(actual, data);
        }
        Ok(())
    }

    /// Number of distinct blobs stored.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Bytes stored after deduplication.
    pub fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    /// Bytes that would be stored without deduplication.
    pub fn offered_bytes(&self) -> u64 {
        self.offered_bytes
    }

    /// Bytes saved by content-addressed deduplication.
    pub fn dedup_savings(&self) -> u64 {
        self.offered_bytes - self.stored_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_verifies_digest() {
        let mut store = BlobStore::new();
        let data = b"layer contents".to_vec();
        let good = sha256(&data);
        let bad = sha256(b"something else");
        assert_eq!(
            store.put(&bad, data.clone()).unwrap_err(),
            ApiError::DigestInvalid
        );
        store.put(&good, data.clone()).unwrap();
        assert!(store.has(&good));
        assert_eq!(store.get(&good).unwrap(), data.as_slice());
    }

    #[test]
    fn duplicate_puts_are_deduplicated() {
        let mut store = BlobStore::new();
        let data = vec![7u8; 1000];
        let d = sha256(&data);
        store.put(&d, data.clone()).unwrap();
        store.put(&d, data.clone()).unwrap();
        store.put(&d, data).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.stored_bytes(), 1000);
        assert_eq!(store.offered_bytes(), 3000);
        assert_eq!(store.dedup_savings(), 2000);
    }

    #[test]
    fn get_missing_blob_is_blob_unknown() {
        let store = BlobStore::new();
        assert_eq!(
            store.get(&sha256(b"nope")).unwrap_err(),
            ApiError::BlobUnknown
        );
    }
}
