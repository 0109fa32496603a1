//! `hpcc-fakeroot`: user-space privilege faking, modelled on `fakeroot(1)`,
//! `fakeroot-ng`, and `pseudo` (paper §5.1, Table 1).
//!
//! A [`FakerootSession`] interposes on privileged and privileged-adjacent
//! system calls against the simulated VFS, lying about their results and
//! remembering the lies so later calls stay consistent. This is the mechanism
//! that lets Charliecloud build unmodified Dockerfiles in a fully
//! unprivileged (Type III) container.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coverage;
pub mod db;
pub mod flavor;
pub mod session;

pub use coverage::{
    representative_packages, CoverageMatrix, PackageNeeds, PlacementCost, Verdict, WrapperPlacement,
};
pub use db::{LieDatabase, LieRecord};
pub use flavor::{render_table1, Approach, Flavor, FlavorInfo, InterceptOp, Persistency};
pub use session::FakerootSession;

// The property-based suite runs against the offline `proptest` drop-in in
// crates/proptest-shim (a path dev-dependency, so no registry is needed):
// `cargo test --features proptest` executes it everywhere, and CI runs that
// as a matrix leg. Swap the path dependency for crates.io `proptest = "1"`
// to regain shrinking; test sources need no changes.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The lie database save/load round-trip is lossless for arbitrary
        /// ownership lies.
        #[test]
        fn db_roundtrip(entries in proptest::collection::btree_map(
            "[a-z]{1,8}", (0u32..100_000, 0u32..100_000), 0..20)) {
            let mut db = LieDatabase::new();
            for (name, (uid, gid)) in &entries {
                db.record_chown(&format!("/pkg/{}", name), *uid, *gid);
            }
            let restored = LieDatabase::load(&db.save()).unwrap();
            prop_assert_eq!(restored, db);
        }

        /// Every flavor either intercepts chown (and the lie is recorded) or
        /// passes it through; in both cases the wrapper never panics and the
        /// database never shrinks on success.
        #[test]
        fn chown_monotone(paths in proptest::collection::vec("[a-z]{1,6}", 1..10)) {
            use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};
            use hpcc_vfs::{Actor, Filesystem, Mode};
            for flavor in Flavor::ALL {
                let mut fs = Filesystem::new_local();
                let creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
                let ns = UserNamespace::initial();
                let actor = Actor::new(&creds, &ns);
                fs.install_dir("/w", Uid(1000), Gid(1000), Mode::new(0o755)).unwrap();
                let mut s = FakerootSession::new(flavor);
                let mut prev = 0;
                for p in &paths {
                    let path = format!("/w/{}", p);
                    fs.write_file(&actor, &path, b"x".to_vec(), Mode::FILE_644).unwrap();
                    let r = s.chown(&mut fs, &actor, &path, Some(Uid(0)), Some(Gid(0)));
                    if r.is_ok() && flavor.intercepts(InterceptOp::Chown) {
                        prop_assert!(s.db.len() >= prev);
                        prev = s.db.len();
                    }
                }
            }
        }
    }
}
