//! HL005 fixture: seeded unsafe-confinement violations. Checked with the
//! allow-listed site `dispatch`; as a crate root it must declare `forbid`,
//! but declares only `deny`.

#![deny(unsafe_code)]

fn read_raw(p: *const u8) -> u8 {
    // SAFETY: a justification does not make a site.
    unsafe { *p } // violation 1: `unsafe` outside the sites
}

#[allow(unsafe_code)] // violation 2: loosening outside the sites
fn sneaky() {}

unsafe fn raw() {} // violation 3: an `unsafe fn` outside the sites

#[allow(unsafe_code)]
fn dispatch(p: *const u8) -> u8 {
    // A comment directly above, but not a justification.
    let v = unsafe { *p }; // violation 4: no `// SAFETY:` comment
    // SAFETY: only blocks are allowed at a site.
    unsafe fn inner() {} // violation 5: an item, not a block
    v
}
