//! Integration tests are not callers (and this tree is not scanned).

#[test]
fn calls() {
    lib::fires_uncalled();
}
