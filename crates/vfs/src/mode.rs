//! File types and permission bits.

use std::fmt;

/// File type, as encoded in the high bits of `st_mode`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
    /// Character device.
    CharDevice,
    /// Block device.
    BlockDevice,
    /// FIFO (named pipe).
    Fifo,
    /// UNIX-domain socket.
    Socket,
}

impl FileType {
    /// The `ls -l` type character.
    pub fn ls_char(self) -> char {
        match self {
            FileType::Regular => '-',
            FileType::Directory => 'd',
            FileType::Symlink => 'l',
            FileType::CharDevice => 'c',
            FileType::BlockDevice => 'b',
            FileType::Fifo => 'p',
            FileType::Socket => 's',
        }
    }

    /// True for character and block devices — the "privileged special files"
    /// that a Type III image cannot contain (paper §6.1).
    pub fn is_device(self) -> bool {
        matches!(self, FileType::CharDevice | FileType::BlockDevice)
    }
}

/// Permission bits (the low 12 bits of `st_mode`): rwxrwxrwx plus
/// setuid/setgid/sticky.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mode(pub u16);

impl Mode {
    /// setuid bit.
    pub const SETUID: u16 = 0o4000;
    /// setgid bit.
    pub const SETGID: u16 = 0o2000;
    /// sticky bit.
    pub const STICKY: u16 = 0o1000;

    /// Standard file mode 0644.
    pub const FILE_644: Mode = Mode(0o644);
    /// Standard executable mode 0755.
    pub const EXEC_755: Mode = Mode(0o755);
    /// Standard directory mode 0755.
    pub const DIR_755: Mode = Mode(0o755);

    /// Constructs from the raw bits (masked to 12 bits).
    pub fn new(bits: u16) -> Self {
        Mode(bits & 0o7777)
    }

    /// Raw bits.
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Owner permission triplet (0..=7).
    pub fn user_bits(self) -> u16 {
        (self.0 >> 6) & 0o7
    }

    /// Group permission triplet (0..=7).
    pub fn group_bits(self) -> u16 {
        (self.0 >> 3) & 0o7
    }

    /// Other permission triplet (0..=7).
    pub fn other_bits(self) -> u16 {
        self.0 & 0o7
    }

    /// True if the setuid bit is set.
    pub fn is_setuid(self) -> bool {
        self.0 & Self::SETUID != 0
    }

    /// True if the setgid bit is set.
    pub fn is_setgid(self) -> bool {
        self.0 & Self::SETGID != 0
    }

    /// True if the sticky bit is set.
    pub fn is_sticky(self) -> bool {
        self.0 & Self::STICKY != 0
    }

    /// Returns the mode with setuid and setgid cleared — what Charliecloud
    /// does on push "to avoid leaking site IDs" (paper §6.1).
    pub fn without_setid(self) -> Mode {
        Mode(self.0 & !(Self::SETUID | Self::SETGID))
    }

    /// Renders the nine permission characters, honouring setuid/setgid/sticky
    /// display conventions (`s`, `S`, `t`, `T`).
    pub fn render(self) -> String {
        let mut s = String::with_capacity(9);
        let triplet =
            |bits: u16, special: bool, special_char_exec: char, special_char_noexec: char| {
                let mut t = String::with_capacity(3);
                t.push(if bits & 4 != 0 { 'r' } else { '-' });
                t.push(if bits & 2 != 0 { 'w' } else { '-' });
                let exec = bits & 1 != 0;
                t.push(if special {
                    if exec {
                        special_char_exec
                    } else {
                        special_char_noexec
                    }
                } else if exec {
                    'x'
                } else {
                    '-'
                });
                t
            };
        s.push_str(&triplet(self.user_bits(), self.is_setuid(), 's', 'S'));
        s.push_str(&triplet(self.group_bits(), self.is_setgid(), 's', 'S'));
        s.push_str(&triplet(self.other_bits(), self.is_sticky(), 't', 'T'));
        s
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04o}", self.0)
    }
}

/// Access request used by permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Read requested.
    pub read: bool,
    /// Write requested.
    pub write: bool,
    /// Execute / search requested.
    pub execute: bool,
}

impl Access {
    /// Read-only access.
    pub const READ: Access = Access {
        read: true,
        write: false,
        execute: false,
    };
    /// Write access.
    pub const WRITE: Access = Access {
        read: false,
        write: true,
        execute: false,
    };
    /// Execute / directory-search access.
    pub const EXECUTE: Access = Access {
        read: false,
        write: false,
        execute: true,
    };
    /// Read + write.
    #[cfg(test)]
    pub const READ_WRITE: Access = Access {
        read: true,
        write: true,
        execute: false,
    };

    /// True if the permission triplet `bits` (0..=7) satisfies this request.
    pub fn satisfied_by(self, bits: u16) -> bool {
        (!self.read || bits & 4 != 0)
            && (!self.write || bits & 2 != 0)
            && (!self.execute || bits & 1 != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_plain_modes() {
        assert_eq!(Mode::new(0o644).render(), "rw-r--r--");
        assert_eq!(Mode::new(0o755).render(), "rwxr-xr-x");
        assert_eq!(Mode::new(0o000).render(), "---------");
        assert_eq!(Mode::new(0o777).render(), "rwxrwxrwx");
    }

    #[test]
    fn render_figure7_modes() {
        // Figure 7: "crw-r-----" and "-rw-r-----": the permission part is 0640.
        assert_eq!(Mode::new(0o640).render(), "rw-r-----");
        assert_eq!(FileType::CharDevice.ls_char(), 'c');
        assert_eq!(FileType::Regular.ls_char(), '-');
    }

    #[test]
    fn render_reboot_example_mode() {
        // Paper §2.1.4: /bin/reboot with permissions rwx---r-x (0705).
        assert_eq!(Mode::new(0o705).render(), "rwx---r-x");
    }

    #[test]
    fn setuid_setgid_sticky_rendering() {
        assert_eq!(Mode::new(0o4755).render(), "rwsr-xr-x");
        assert_eq!(Mode::new(0o4644).render(), "rwSr--r--");
        assert_eq!(Mode::new(0o2755).render(), "rwxr-sr-x");
        assert_eq!(Mode::new(0o1777).render(), "rwxrwxrwt");
        assert_eq!(Mode::new(0o1776).render(), "rwxrwxrwT");
    }

    #[test]
    fn without_setid_clears_bits() {
        let m = Mode::new(0o6755);
        assert!(m.is_setuid());
        assert!(m.is_setgid());
        let c = m.without_setid();
        assert!(!c.is_setuid());
        assert!(!c.is_setgid());
        assert_eq!(c.bits(), 0o755);
    }

    #[test]
    fn triplet_extraction() {
        let m = Mode::new(0o754);
        assert_eq!(m.user_bits(), 0o7);
        assert_eq!(m.group_bits(), 0o5);
        assert_eq!(m.other_bits(), 0o4);
    }

    #[test]
    fn access_satisfaction() {
        assert!(Access::READ.satisfied_by(0o4));
        assert!(!Access::WRITE.satisfied_by(0o4));
        assert!(Access::READ_WRITE.satisfied_by(0o6));
        assert!(Access::EXECUTE.satisfied_by(0o1));
        assert!(!Access::READ_WRITE.satisfied_by(0o5));
    }

    #[test]
    fn device_types() {
        assert!(FileType::CharDevice.is_device());
        assert!(FileType::BlockDevice.is_device());
        assert!(!FileType::Regular.is_device());
        assert!(!FileType::Directory.is_device());
    }

    #[test]
    fn display_is_octal() {
        assert_eq!(Mode::new(0o4755).to_string(), "4755");
        assert_eq!(Mode::new(0o644).to_string(), "0644");
    }
}
