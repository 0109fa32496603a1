//! Bins are callers, not checked.

pub fn bin_only_helper() {}

fn main() {
    lib::caller();
}
