//! `hpcc-runtime`: container runtimes for the paper's privilege taxonomy.
//!
//! Subordinate-ID databases and the `newuidmap`/`newgidmap` privileged
//! helpers (§2.1.2, §4.1), the Type I/II/III taxonomy and the survey of HPC
//! container implementations (§2.2, §3.1), storage drivers and their
//! shared-filesystem interactions (§4.1, §6.1), and container instantiation
//! for each type.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod container;
pub mod privilege;
pub mod storage;
pub mod subid;

pub use container::{check_arch, container_identity, Container, Invoker, Launch};
pub use privilege::{
    implementations, render_implementation_table, BuildSupport, Implementation, PrivilegeType,
};
pub use storage::{prepare_rootfs, IdPersistence, StorageCost, StorageDriver};
pub use subid::{newgidmap, newuidmap, HelperConfig, SubIdDb, SubIdRange};
