//! `hpcc-vfs`: an in-memory POSIX-like filesystem with full ownership,
//! permission, device-node, and xattr semantics, evaluated against the
//! simulated kernel's credentials and user namespaces.
//!
//! This is the substrate on which the paper's container builds succeed or
//! fail: `chown(2)` to unmapped IDs, `mknod(2)` of device files, setuid bits,
//! shared-filesystem xattr limitations, and ownership flattening on push are
//! all modelled here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod actor;
pub mod bytes;
pub mod frozen;
pub mod fs;
pub mod ino_ops;
pub mod inode;
pub mod mode;
pub mod overlay;
pub mod path;
pub mod sharedfs;
pub mod table;
pub mod tar;

pub use actor::Actor;
pub use bytes::FileBytes;
pub use frozen::FrozenResolver;
pub use fs::Filesystem;
pub use ino_ops::{Setattr, MAX_FILE_SIZE};
pub use inode::{Ino, Inode, InodeData, Stat};
pub use mode::{Access, FileType, Mode};
pub use overlay::{OverlayBackend, OverlayFs, OverlayStats};
pub use path::PathComponents;
pub use sharedfs::FsBackend;
pub use table::{cow_detach_nodes, InodeTable};

// The property-based suite runs against the offline `proptest` drop-in in
// crates/proptest-shim (a path dev-dependency, so no registry is needed):
// `cargo test --features proptest` executes it everywhere, and CI runs that
// as a matrix leg. Swap the path dependency for crates.io `proptest = "1"`
// to regain shrinking; test sources need no changes.
#[cfg(all(test, feature = "proptest"))]
mod proptests {
    use super::*;
    use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};
    use proptest::prelude::*;

    fn arb_path_component() -> impl Strategy<Value = String> {
        "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
    }

    proptest! {
        /// Writing then reading a file always returns the same bytes,
        /// regardless of path shape and content.
        #[test]
        fn write_read_roundtrip(dirs in proptest::collection::vec(arb_path_component(), 1..4),
                                name in arb_path_component(),
                                content in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut fs = Filesystem::new_local();
            let creds = Credentials::host_root();
            let ns = UserNamespace::initial();
            let actor = Actor::new(&creds, &ns);
            let path = format!("/{}/{}", dirs.join("/"), name);
            fs.install_file(&path, content.clone(), Uid(0), Gid(0), Mode::FILE_644).unwrap();
            prop_assert_eq!(fs.read_file(&actor, &path).unwrap(), content);
        }

        /// Tar pack/list round-trips content and ownership for arbitrary
        /// small trees.
        #[test]
        fn tar_roundtrip(files in proptest::collection::btree_map(
            arb_path_component(),
            (proptest::collection::vec(any::<u8>(), 0..128), 0u32..70000, 0u32..70000),
            1..8)) {
            let mut fs = Filesystem::new_local();
            for (name, (content, uid, gid)) in &files {
                fs.install_file(&format!("/tree/{}", name), content.clone(),
                                Uid(*uid), Gid(*gid), Mode::FILE_644).unwrap();
            }
            let creds = Credentials::host_root();
            let ns = UserNamespace::initial();
            let actor = Actor::new(&creds, &ns);
            let archive = tar::pack(&fs, &actor, "/tree", &tar::PackOptions::default()).unwrap();
            let entries = tar::list(&archive).unwrap();
            for (name, (content, uid, _gid)) in &files {
                let e = entries.iter().find(|e| e.path == *name).unwrap();
                prop_assert_eq!(&e.content, content);
                prop_assert_eq!(e.uid, *uid);
            }
        }

        /// Flattening ownership always results in exactly one owner and no
        /// setuid/setgid bits anywhere.
        #[test]
        fn flatten_is_total(files in proptest::collection::btree_map(
            arb_path_component(), (0u32..70000, 0u16..0o7777u16), 1..10)) {
            let mut fs = Filesystem::new_local();
            for (name, (uid, mode)) in &files {
                fs.install_file(&format!("/t/{}", name), b"x".to_vec(),
                                Uid(*uid), Gid(*uid), Mode::new(*mode)).unwrap();
            }
            fs.flatten_ownership(Uid(0), Gid(0));
            prop_assert_eq!(fs.distinct_owner_uids(), vec![Uid(0)]);
            let creds = Credentials::host_root();
            let ns = UserNamespace::initial();
            let actor = Actor::new(&creds, &ns);
            for (path, _) in fs.walk() {
                let st = fs.lstat(&actor, &path).unwrap();
                prop_assert!(!st.mode.is_setuid());
                prop_assert!(!st.mode.is_setgid());
            }
        }

        /// Permission evaluation is deny-by-default: a random unprivileged
        /// user can never write files owned by another user with modes that
        /// exclude group/other write.
        #[test]
        fn no_spurious_write_access(owner in 1u32..5000, caller in 5001u32..10000,
                                    mode_bits in 0u16..0o777u16) {
            let mode = mode_bits & !0o022; // ensure group/other write bits clear
            let mut fs = Filesystem::new_local();
            fs.install_file("/data/f", b"x".to_vec(), Uid(owner), Gid(owner), Mode::new(mode)).unwrap();
            let creds = Credentials::unprivileged_user(Uid(caller), Gid(caller), vec![Gid(caller)]);
            let ns = UserNamespace::initial();
            let actor = Actor::new(&creds, &ns);
            prop_assert!(fs.write_file(&actor, "/data/f", b"y".to_vec(), Mode::FILE_644).is_err());
        }

        /// The borrowed `PathComponents` normalizes byte-for-byte like the
        /// seed's owned `components()` did, across `//`, `.`, `..`, and
        /// trailing slashes (the oracle below is the seed implementation).
        #[test]
        fn path_components_match_legacy_split(bytes in proptest::collection::vec(any::<u8>(), 0..24)) {
            fn legacy(path: &str) -> Vec<String> {
                let mut out: Vec<String> = Vec::new();
                for part in path.split('/') {
                    match part {
                        "" | "." => {}
                        ".." => { out.pop(); }
                        p => out.push(p.to_string()),
                    }
                }
                out
            }
            // Build a path mixing empty, dot, dotdot, and named components,
            // absolute or relative, with or without a trailing slash.
            let mut path = String::new();
            if bytes.len() % 2 == 0 {
                path.push('/');
            }
            for &b in &bytes {
                match b % 7 {
                    0 => path.push_str("//"),
                    1 => path.push_str("./"),
                    2 => path.push_str("../"),
                    3 => path.push_str("a/"),
                    4 => path.push_str("bc/"),
                    5 => path.push_str("name7/"),
                    _ => path.push_str(".hidden/"),
                }
            }
            let byte_sum: u32 = bytes.iter().map(|&b| b as u32).sum();
            if byte_sum.is_multiple_of(3) && path.ends_with('/') && path.len() > 1 {
                path.pop(); // sometimes drop the trailing slash
            }
            let new: Vec<&str> = path::PathComponents::parse(&path).as_slice().to_vec();
            let old = legacy(&path);
            prop_assert_eq!(new, old.iter().map(String::as_str).collect::<Vec<_>>());
            // And the compatibility wrapper stays identical to the oracle.
            prop_assert_eq!(Filesystem::components(&path), old);
        }

        /// Resolve-cache coherence: random interleavings of structural
        /// mutations, metadata changes, and lookups never let a cached
        /// resolution diverge from a cold walk — for a privileged *and* an
        /// unprivileged actor (hits re-run the unprivileged access checks).
        #[test]
        fn resolve_cache_never_returns_stale_inodes(
            ops in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..48)) {
            const POOL: [&str; 10] = [
                "/a", "/a/b", "/a/b/f1", "/a/b/f2", "/c", "/c/d", "/c/d/f3",
                "/f4", "/a/link", "/c/d/e",
            ];
            let mut fs = Filesystem::new_local();
            let root_creds = Credentials::host_root();
            let ns = UserNamespace::initial();
            let root = Actor::new(&root_creds, &ns);
            let alice_creds = Credentials::unprivileged_user(Uid(1000), Gid(1000), vec![Gid(1000)]);
            let alice = Actor::new(&alice_creds, &ns);
            for (op, i, j) in ops {
                let p1 = POOL[i as usize % POOL.len()];
                let p2 = POOL[j as usize % POOL.len()];
                match op % 8 {
                    0 => { let _ = fs.write_file(&root, p1, b"x".to_vec(), Mode::FILE_644); }
                    1 => { let _ = fs.mkdir(&root, p1, Mode::DIR_755); }
                    2 => { let _ = fs.unlink(&root, p1); }
                    3 => { let _ = fs.rmdir(&root, p1); }
                    4 => { let _ = fs.rename(&root, p1, p2); }
                    5 => { let _ = fs.chmod(&root, p1, Mode::new(if op % 2 == 0 { 0o700 } else { 0o755 })); }
                    6 => { let _ = fs.symlink(&root, p2, p1); }
                    _ => { let _ = fs.install_file(p1, b"i".to_vec(), Uid(0), Gid(0), Mode::FILE_644); }
                }
                // Warm lookups (second call may be served by the cache) must
                // match a cold-cache clone's ground-truth walk exactly —
                // same inode or same errno, for both actors.
                for p in [p1, p2] {
                    let cold = fs.clone();
                    for actor in [&root, &alice] {
                        let warm1 = fs.resolve(actor, p);
                        let warm2 = fs.resolve(actor, p);
                        let truth = cold.resolve(actor, p);
                        prop_assert_eq!(warm1, truth, "path {} diverged (first)", p);
                        prop_assert_eq!(warm2, truth, "path {} diverged (second)", p);
                        let warm_nf = fs.resolve_no_follow(actor, p);
                        prop_assert_eq!(warm_nf, cold.resolve_no_follow(actor, p),
                                        "no-follow path {} diverged", p);
                    }
                }
            }
        }
    }
}
