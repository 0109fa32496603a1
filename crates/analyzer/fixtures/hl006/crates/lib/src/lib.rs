//! HL006 fixture: a library crate. The items named `fires_*` must be
//! reported; every other item must not.

pub mod other;
#[cfg(test)]
mod gated;

/// Nothing anywhere calls this.
pub fn fires_uncalled() {}

/// Only a `#[cfg(test)]` module calls this.
pub fn fires_test_called() {}

/// Named only in a re-export, this doc comment (`FIRES_NAMED_ONLY`) and a
/// string literal.
pub const FIRES_NAMED_ONLY: u32 = 7;
pub use crate::FIRES_NAMED_ONLY as RENAMED;

// hpcc-lint: allow(test_only_api) —
pub fn fires_marker_without_reason() {}

// hpcc-lint: allow(test_only_api) — kept because it looks useful
pub fn fires_marker_without_anchor() {}

/// Called from `other.rs`.
pub fn called_elsewhere() {}

/// Called from perfbench, an example and a bench.
pub fn used_by_perfbench() {}
pub const USED_BY_EXAMPLE: u8 = 1;
pub static USED_BY_BENCH: u8 = 0;

/// Crate-visible items are not checked.
pub(crate) fn crate_visible() {}

pub struct Thing;

impl std::fmt::Display for Thing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thing")
    }
}

impl Thing {
    /// Reproduces a paper claim that a unit test checks.
    // hpcc-lint: allow(test_only_api) — §2.1: the marker names the paper section
    pub const fn marked(&self) -> u8 {
        1
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls() {
        super::fires_test_called();
        super::test_gated();
    }
}

/// Test-gated items are not checked.
#[cfg(test)]
pub fn test_gated() {}
