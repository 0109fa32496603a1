//! Copy-on-write file contents.
//!
//! Every regular file's bytes live behind an [`FileBytes`] handle: a
//! reference-counted, immutable-until-written byte buffer. Cloning a
//! filesystem (build-cache snapshots, multi-stage `FROM`, layer diffs)
//! clones these handles, not the bytes; the first mutation through
//! [`FileBytes::to_mut`] detaches a private copy, so snapshots can never
//! observe later writes.

use std::sync::Arc;

/// Cheaply clonable, copy-on-write file content.
///
/// `Clone` is an atomic reference-count increment regardless of file size.
/// Reads borrow the shared buffer; writers call [`FileBytes::to_mut`], which
/// copies the bytes only when the buffer is actually shared.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct FileBytes(Arc<Vec<u8>>);

impl FileBytes {
    /// Wraps owned bytes.
    pub fn new(bytes: Vec<u8>) -> Self {
        FileBytes(Arc::new(bytes))
    }

    /// The content as a byte slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Mutable access, detaching a private copy first if the buffer is
    /// shared with any snapshot (the actual copy-on-write step).
    pub fn to_mut(&mut self) -> &mut Vec<u8> {
        Arc::make_mut(&mut self.0)
    }

    /// True if `self` and `other` share one underlying buffer — i.e. no copy
    /// has happened between them. Used by tests and storage accounting.
    pub fn shares_buffer_with(&self, other: &FileBytes) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::fmt::Debug for FileBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FileBytes({} bytes)", self.0.len())
    }
}

impl std::ops::Deref for FileBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for FileBytes {
    fn from(v: Vec<u8>) -> Self {
        FileBytes::new(v)
    }
}

impl From<&[u8]> for FileBytes {
    fn from(v: &[u8]) -> Self {
        FileBytes::new(v.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for FileBytes {
    fn from(v: &[u8; N]) -> Self {
        FileBytes::new(v.to_vec())
    }
}

impl From<String> for FileBytes {
    fn from(v: String) -> Self {
        FileBytes::new(v.into_bytes())
    }
}

impl From<&str> for FileBytes {
    fn from(v: &str) -> Self {
        FileBytes::new(v.as_bytes().to_vec())
    }
}

impl PartialEq<[u8]> for FileBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for FileBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for FileBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == &other[..]
    }
}

impl PartialEq<Vec<u8>> for FileBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_until_written() {
        let a = FileBytes::from(b"hello");
        let mut b = a.clone();
        assert!(a.shares_buffer_with(&b));
        b.to_mut().push(b'!');
        assert!(!a.shares_buffer_with(&b));
        assert_eq!(a, b"hello");
        assert_eq!(b, b"hello!");
    }

    #[test]
    fn unique_handle_mutates_in_place() {
        let mut a = FileBytes::from(b"x".to_vec());
        let before = a.0.as_ptr();
        a.to_mut().push(b'y');
        assert_eq!(a.0.as_ptr(), before, "no copy when unshared");
    }
}
