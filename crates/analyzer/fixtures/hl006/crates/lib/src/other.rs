//! Non-test callers, after a char literal that once swallowed the lines
//! following it.

pub fn separator() -> char {
    '\\'
}

pub fn caller() {
    crate::called_elsewhere();
    separator();
    let _ = "FIRES_NAMED_ONLY";
}
