//! HL005 false-positive bait: nothing here may fire. Checked with the
//! allow-listed site `compress`, as a crate root declaring `deny`. Doc
//! prose like `unsafe { }` and `#[allow(unsafe_code)]` is a comment.

#![deny(unsafe_code)]
#![warn(missing_docs)]

/// `unsafe fn` and `allow(unsafe_code)` in a doc comment are prose.
const NOTE: &str = "unsafe { allow(unsafe_code) }";
const RAW: &str = r#"unsafe impl Send for Wrapper {}"#;

/* unsafe { block comment } */
fn unsafe_total(unsafe_count: usize) -> usize {
    unsafe_count
}

#[inline]
#[cfg_attr(target_arch = "x86_64", allow(unsafe_code))]
fn compress(h: &mut [u32; 8], block: &[u8; 64]) {
    let p = block.as_ptr();
    // SAFETY: a justification spanning several comment lines, whose
    // `SAFETY:` opener is not the line directly above the block; `p`
    // points at 64 readable bytes.
    h[0] = unsafe { u32::from(*p) };
}
