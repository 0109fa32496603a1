//! Declared `#[cfg(test)] mod gated;`: test code as a whole, so neither
//! checked nor a caller.

pub fn gated_helper() {
    crate::fires_test_called();
    crate::fires_uncalled();
}
