//! Non-test callers, after a char literal that once swallowed the lines
//! following it.

pub fn separator() -> char {
    '\\'
}

pub fn caller() {
    crate::called_elsewhere();
    separator();
    let _ = "FIRES_NAMED_ONLY";
    let mut c = crate::Counter::new();
    for _ in 0..crate::RANGE_END {
        c.bump();
    }
    let reset: fn(&mut crate::Counter) = crate::Counter::reset;
    reset(&mut c);
}
