//! Errno values used by the simulated kernel.
//!
//! Numbers match Linux x86-64 so that transcripts such as
//! `setegid 65534 failed - setegid (22: Invalid argument)` (paper Figure 3)
//! can be reproduced verbatim. They are also the protocol's errnos: a FUSE
//! daemon answers a failed request with the same number, negated, in
//! `fuse_out_header.error`.

use std::fmt;

/// Error numbers returned by simulated system calls.
///
/// Only the values that the paper's scenarios can produce are included, plus a
/// few that naturally arise from a POSIX-like VFS (e.g. `ENOTDIR`). Each
/// variant's discriminant is its Linux number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(i32)]
pub enum Errno {
    /// Operation not permitted.
    EPERM = 1,
    /// No such file or directory.
    ENOENT = 2,
    /// No such process.
    ESRCH = 3,
    /// Input/output error.
    EIO = 5,
    /// Bad file descriptor.
    EBADF = 9,
    /// Resource temporarily unavailable.
    EAGAIN = 11,
    /// Permission denied.
    EACCES = 13,
    /// File exists.
    EEXIST = 17,
    /// Cross-device link.
    EXDEV = 18,
    /// No such device.
    ENODEV = 19,
    /// Not a directory.
    ENOTDIR = 20,
    /// Is a directory.
    EISDIR = 21,
    /// Invalid argument.
    EINVAL = 22,
    /// Too many open files in system.
    ENFILE = 23,
    /// File too large.
    EFBIG = 27,
    /// No space left on device.
    ENOSPC = 28,
    /// Read-only file system.
    EROFS = 30,
    /// Too many links.
    EMLINK = 31,
    /// Broken pipe.
    EPIPE = 32,
    /// File name too long.
    ENAMETOOLONG = 36,
    /// Function not implemented.
    ENOSYS = 38,
    /// Directory not empty.
    ENOTEMPTY = 39,
    /// Too many symbolic links encountered.
    ELOOP = 40,
    /// No data available (used for missing xattrs).
    ENODATA = 61,
    /// Too many users (used when namespace limits are exhausted).
    EUSERS = 87,
    /// Operation not supported.
    EOPNOTSUPP = 95,
    /// Quota exceeded.
    EDQUOT = 122,
}

impl Errno {
    /// The numeric value as reported by the Linux kernel on x86-64.
    pub fn code(self) -> i32 {
        self as i32
    }

    /// The variant whose number is `code`, if the kernel models one: the
    /// inverse of [`Errno::code`].
    pub fn from_code(code: i32) -> Option<Errno> {
        use Errno::*;
        [
            EPERM,
            ENOENT,
            ESRCH,
            EIO,
            EBADF,
            EAGAIN,
            EACCES,
            EEXIST,
            EXDEV,
            ENODEV,
            ENOTDIR,
            EISDIR,
            EINVAL,
            ENFILE,
            EFBIG,
            ENOSPC,
            EROFS,
            EMLINK,
            EPIPE,
            ENAMETOOLONG,
            ENOSYS,
            ENOTEMPTY,
            ELOOP,
            ENODATA,
            EUSERS,
            EOPNOTSUPP,
            EDQUOT,
        ]
        .into_iter()
        .find(|e| e.code() == code)
    }

    /// The human-readable message, matching `strerror(3)` on glibc.
    pub fn message(self) -> &'static str {
        match self {
            Errno::EPERM => "Operation not permitted",
            Errno::ENOENT => "No such file or directory",
            Errno::ESRCH => "No such process",
            Errno::EIO => "Input/output error",
            Errno::EBADF => "Bad file descriptor",
            Errno::EAGAIN => "Resource temporarily unavailable",
            Errno::EACCES => "Permission denied",
            Errno::EEXIST => "File exists",
            Errno::EXDEV => "Invalid cross-device link",
            Errno::ENODEV => "No such device",
            Errno::ENOTDIR => "Not a directory",
            Errno::EISDIR => "Is a directory",
            Errno::EINVAL => "Invalid argument",
            Errno::ENFILE => "Too many open files in system",
            Errno::EFBIG => "File too large",
            Errno::ENOSPC => "No space left on device",
            Errno::EROFS => "Read-only file system",
            Errno::EMLINK => "Too many links",
            Errno::EPIPE => "Broken pipe",
            Errno::ENAMETOOLONG => "File name too long",
            Errno::ENOSYS => "Function not implemented",
            Errno::ENOTEMPTY => "Directory not empty",
            Errno::ELOOP => "Too many levels of symbolic links",
            Errno::ENODATA => "No data available",
            Errno::EUSERS => "Too many users",
            Errno::EOPNOTSUPP => "Operation not supported",
            Errno::EDQUOT => "Disk quota exceeded",
        }
    }

    /// Formats the errno the way tools in the paper's transcripts do,
    /// e.g. `"(1: Operation not permitted)"`.
    pub fn transcript(self) -> String {
        format!("({}: {})", self.code(), self.message())
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?} ({})", self.message())
    }
}

impl std::error::Error for Errno {}

/// Result type used throughout the simulated kernel and VFS.
pub type KResult<T> = Result<T, Errno>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_match_linux() {
        assert_eq!(Errno::EPERM.code(), 1);
        assert_eq!(Errno::ENOENT.code(), 2);
        assert_eq!(Errno::EBADF.code(), 9);
        assert_eq!(Errno::EACCES.code(), 13);
        assert_eq!(Errno::EEXIST.code(), 17);
        assert_eq!(Errno::EXDEV.code(), 18);
        assert_eq!(Errno::ENOTDIR.code(), 20);
        assert_eq!(Errno::EINVAL.code(), 22);
        assert_eq!(Errno::EROFS.code(), 30);
        assert_eq!(Errno::ENOSYS.code(), 38);
        assert_eq!(Errno::ENOTEMPTY.code(), 39);
        assert_eq!(Errno::ELOOP.code(), 40);
    }

    #[test]
    fn messages_match_strerror() {
        assert_eq!(Errno::EPERM.message(), "Operation not permitted");
        assert_eq!(Errno::EINVAL.message(), "Invalid argument");
        assert_eq!(Errno::EACCES.message(), "Permission denied");
    }

    #[test]
    fn transcript_format_matches_figure3() {
        // Paper Figure 3: "setgroups (1: Operation not permitted)"
        assert_eq!(Errno::EPERM.transcript(), "(1: Operation not permitted)");
        // Paper Figure 3: "setegid (22: Invalid argument)"
        assert_eq!(Errno::EINVAL.transcript(), "(22: Invalid argument)");
    }

    #[test]
    fn display_includes_name_and_message() {
        let s = format!("{}", Errno::ENOENT);
        assert!(s.contains("ENOENT"));
        assert!(s.contains("No such file or directory"));
    }

    #[test]
    fn errno_is_error_trait() {
        fn takes_err<E: std::error::Error>(_e: E) {}
        takes_err(Errno::EIO);
    }

    /// Every variant.
    const ALL: [Errno; 27] = [
        Errno::EPERM,
        Errno::ENOENT,
        Errno::ESRCH,
        Errno::EIO,
        Errno::EBADF,
        Errno::EAGAIN,
        Errno::EACCES,
        Errno::EEXIST,
        Errno::EXDEV,
        Errno::ENODEV,
        Errno::ENOTDIR,
        Errno::EISDIR,
        Errno::EINVAL,
        Errno::ENFILE,
        Errno::EFBIG,
        Errno::ENOSPC,
        Errno::EROFS,
        Errno::EMLINK,
        Errno::EPIPE,
        Errno::ENAMETOOLONG,
        Errno::ENOSYS,
        Errno::ENOTEMPTY,
        Errno::ELOOP,
        Errno::ENODATA,
        Errno::EUSERS,
        Errno::EOPNOTSUPP,
        Errno::EDQUOT,
    ];

    #[test]
    fn all_variants_have_distinct_codes() {
        let mut codes: Vec<i32> = ALL.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), ALL.len());
    }

    #[test]
    fn from_code_inverts_code() {
        for e in ALL {
            assert_eq!(Errno::from_code(e.code()), Some(e), "{e:?}");
        }
        for unmodelled in [0, 4, 4096, -2, i32::MIN, i32::MAX] {
            assert_eq!(Errno::from_code(unmodelled), None, "{unmodelled}");
        }
    }
}
