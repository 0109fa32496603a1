//! An API shim: not checked.

pub fn shim_only() {}
