//! A persistent, structurally-sharing inode table.
//!
//! The seed kept the whole inode table behind one `Arc<HashMap<Ino, Inode>>`:
//! `Filesystem::clone()` was O(1), but the *first mutation* after a clone
//! paid `Arc::make_mut` on the entire map — an O(#inodes) metadata copy.
//! That is fine for one long-lived snapshot, but the build cache stores a
//! snapshot per instruction, so a cold cached build detached the full table
//! once per instruction: O(instructions × inodes) on many-tiny-RUN
//! Dockerfiles (PERF.md §5).
//!
//! [`InodeTable`] replaces the flat map with a 32-way radix trie (an
//! array-mapped trie keyed on the inode number's bits, five per level,
//! least-significant first — inode numbers are allocated sequentially, so
//! low bits spread entries evenly). Every node lives behind an `Arc`:
//!
//! * `clone()` is still O(1) — it bumps the root's refcount.
//! * A mutation after a clone **path-copies**: only the O(depth) nodes from
//!   the root to the touched leaf are duplicated (`Arc::make_mut`); every
//!   other subtree stays shared with the snapshot. Storing N snapshots over
//!   a table of M inodes costs O(N log M) instead of O(N × M).
//!
//! The number of node copies forced by copy-on-write detaches is counted in
//! a process-wide counter ([`cow_detach_nodes`]) so tests and benches can
//! assert the asymptotics (see `tests/snapshot_scaling.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::inode::{Ino, Inode};

/// Bits consumed per trie level (32-way branching).
const BITS: u32 = 5;
/// Mask for one level's child index.
const MASK: u64 = (1 << BITS) - 1;

/// Process-wide count of trie nodes copied by copy-on-write detaches.
static COW_DETACH_NODES: AtomicU64 = AtomicU64::new(0);

/// Total trie nodes copied (so far, process-wide) because a mutation touched
/// a node shared with a snapshot. With the persistent table this grows by
/// O(depth) per mutated inode; a regression to whole-table copying would make
/// it grow by O(#inodes) per mutation instead.
pub fn cow_detach_nodes() -> u64 {
    COW_DETACH_NODES.load(Ordering::Relaxed)
}

/// One trie node: an interior 32-way branch or a single-inode leaf. Leaves
/// may sit at any depth — a key stops descending as soon as it is alone in
/// its subtree, so small tables stay shallow.
#[derive(Debug, Clone)]
enum Node {
    Leaf(Ino, Inode),
    Branch(Box<[Option<Arc<Node>>; 32]>),
}

fn empty_children() -> Box<[Option<Arc<Node>>; 32]> {
    Box::new(std::array::from_fn(|_| None))
}

/// Detach-aware `Arc::make_mut`: counts the node copy when the node is
/// shared with at least one snapshot.
fn make_mut(arc: &mut Arc<Node>) -> &mut Node {
    if Arc::strong_count(arc) > 1 {
        COW_DETACH_NODES.fetch_add(1, Ordering::Relaxed);
    }
    Arc::make_mut(arc)
}

/// The persistent inode table. `Clone` is O(1) and shares all structure;
/// mutation path-copies O(depth) nodes.
#[derive(Debug, Clone, Default)]
pub struct InodeTable {
    root: Option<Arc<Node>>,
    len: usize,
}

impl InodeTable {
    /// An empty table.
    pub fn new() -> Self {
        InodeTable::default()
    }

    /// Number of inodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no inodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrows the inode numbered `ino`, if present. O(depth), no copying.
    pub fn get(&self, ino: Ino) -> Option<&Inode> {
        let mut node = self.root.as_deref()?;
        let mut shift = 0;
        loop {
            match node {
                Node::Leaf(k, v) => return (*k == ino).then_some(v),
                Node::Branch(children) => {
                    node = children[((ino >> shift) & MASK) as usize].as_deref()?;
                    shift += BITS;
                }
            }
        }
    }

    /// Mutably borrows the inode numbered `ino`, path-copying any node on
    /// the way down that is shared with a snapshot.
    pub fn get_mut(&mut self, ino: Ino) -> Option<&mut Inode> {
        fn descend(arc: &mut Arc<Node>, shift: u32, ino: Ino) -> Option<&mut Inode> {
            match make_mut(arc) {
                Node::Leaf(k, v) => (*k == ino).then_some(v),
                Node::Branch(children) => {
                    let slot = children[((ino >> shift) & MASK) as usize].as_mut()?;
                    descend(slot, shift + BITS, ino)
                }
            }
        }
        descend(self.root.as_mut()?, 0, ino)
    }

    /// Inserts (or replaces) an inode. Path-copies shared nodes; splits a
    /// leaf into a branch when two inode numbers collide on a prefix.
    pub fn insert(&mut self, ino: Ino, inode: Inode) {
        fn place(slot: &mut Option<Arc<Node>>, shift: u32, ino: Ino, inode: Inode) -> bool {
            match slot {
                None => {
                    *slot = Some(Arc::new(Node::Leaf(ino, inode)));
                    true
                }
                Some(arc) => {
                    let node = make_mut(arc);
                    match node {
                        Node::Leaf(k, v) if *k == ino => {
                            *v = inode;
                            false
                        }
                        Node::Branch(children) => {
                            let i = ((ino >> shift) & MASK) as usize;
                            place(&mut children[i], shift + BITS, ino, inode)
                        }
                        Node::Leaf(..) => {
                            // Split: push the old leaf one level down, then
                            // place the new key (which may split again if
                            // the two keys share further bits).
                            let old = std::mem::replace(node, Node::Branch(empty_children()));
                            let Node::Leaf(ok, ov) = old else {
                                unreachable!("just matched a leaf")
                            };
                            let Node::Branch(children) = node else {
                                unreachable!("just replaced with a branch")
                            };
                            let oi = ((ok >> shift) & MASK) as usize;
                            children[oi] = Some(Arc::new(Node::Leaf(ok, ov)));
                            let ni = ((ino >> shift) & MASK) as usize;
                            place(&mut children[ni], shift + BITS, ino, inode)
                        }
                    }
                }
            }
        }
        if place(&mut self.root, 0, ino, inode) {
            self.len += 1;
        }
    }

    /// Removes the inode numbered `ino`, returning whether it was present.
    /// Branches left empty are pruned so lookups on dead keys stay short.
    pub fn remove(&mut self, ino: Ino) -> bool {
        fn take(slot: &mut Option<Arc<Node>>, shift: u32, ino: Ino) -> bool {
            let Some(arc) = slot else { return false };
            match make_mut(arc) {
                Node::Leaf(k, _) => {
                    if *k == ino {
                        *slot = None;
                        true
                    } else {
                        false
                    }
                }
                Node::Branch(children) => {
                    let i = ((ino >> shift) & MASK) as usize;
                    let removed = take(&mut children[i], shift + BITS, ino);
                    if removed && children.iter().all(|c| c.is_none()) {
                        *slot = None;
                    }
                    removed
                }
            }
        }
        let removed = take(&mut self.root, 0, ino);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Visits every inode (order unspecified) without copying any node.
    pub fn for_each<F: FnMut(Ino, &Inode)>(&self, mut f: F) {
        fn walk<F: FnMut(Ino, &Inode)>(node: &Node, f: &mut F) {
            match node {
                Node::Leaf(k, v) => f(*k, v),
                Node::Branch(children) => {
                    for child in children.iter().flatten() {
                        walk(child, f);
                    }
                }
            }
        }
        if let Some(root) = self.root.as_deref() {
            walk(root, &mut f);
        }
    }

    /// Mutates every inode in place (order unspecified). This necessarily
    /// detaches the whole trie from any snapshot — it is a whole-tree
    /// operation (`flatten_ownership`, a container launch's ownership rule),
    /// not a per-instruction one. A table no snapshot shares copies nothing.
    pub fn for_each_mut<F: FnMut(&mut Inode)>(&mut self, mut f: F) {
        fn walk<F: FnMut(&mut Inode)>(arc: &mut Arc<Node>, f: &mut F) {
            match make_mut(arc) {
                Node::Leaf(_, v) => f(v),
                Node::Branch(children) => {
                    for child in children.iter_mut().flatten() {
                        walk(child, f);
                    }
                }
            }
        }
        if let Some(root) = self.root.as_mut() {
            walk(root, &mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inode::InodeData;
    use crate::mode::Mode;
    use hpcc_kernel::{Gid, Uid};
    use std::collections::BTreeMap;

    fn mk(ino: Ino) -> Inode {
        Inode {
            ino,
            data: InodeData::file(vec![ino as u8]),
            uid: Uid(0),
            gid: Gid(0),
            mode: Mode::FILE_644,
            nlink: 1,
            xattrs: BTreeMap::new(),
            mtime: 0,
        }
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = InodeTable::new();
        for i in 1..=1000u64 {
            t.insert(i, mk(i));
        }
        assert_eq!(t.len(), 1000);
        for i in 1..=1000u64 {
            assert_eq!(t.get(i).unwrap().ino, i);
        }
        assert!(t.get(1001).is_none());
        // Replacement does not grow the table.
        t.insert(500, mk(500));
        assert_eq!(t.len(), 1000);
        for i in (1..=1000u64).step_by(2) {
            assert!(t.remove(i));
        }
        assert_eq!(t.len(), 500);
        assert!(t.get(501).is_none());
        assert_eq!(t.get(502).unwrap().ino, 502);
        assert!(!t.remove(501));
    }

    #[test]
    fn clone_shares_and_mutation_path_copies() {
        let mut t = InodeTable::new();
        for i in 1..=4096u64 {
            t.insert(i, mk(i));
        }
        let snapshot = t.clone();
        t.get_mut(7).unwrap().nlink = 99;
        assert_eq!(snapshot.get(7).unwrap().nlink, 1);
        assert_eq!(t.get(7).unwrap().nlink, 99);
        // Untouched entries are still the same physical inodes.
        assert_eq!(snapshot.get(4096).unwrap().ino, 4096);

        // Path-copy cost: O(depth) nodes per mutation, nowhere near the
        // 4096 inodes a flat-table detach would have copied. The counter is
        // process-wide and sibling tests also bump it, so measure many
        // clone+mutate rounds and bound the *average* — concurrent noise is
        // one-time and amortizes away.
        const ROUNDS: u64 = 256;
        let before = cow_detach_nodes();
        for i in 0..ROUNDS {
            let _snap = t.clone();
            t.get_mut(1 + (i % 4096)).unwrap().nlink = 3;
        }
        let copied = cow_detach_nodes() - before;
        assert!(copied > 0, "mutation after clone must detach something");
        assert!(
            copied / ROUNDS <= 16,
            "path copies averaged {} nodes per mutation over {} rounds",
            copied / ROUNDS,
            ROUNDS
        );
    }

    #[test]
    fn snapshot_isolation_under_insert_and_remove() {
        let mut t = InodeTable::new();
        for i in 1..=64u64 {
            t.insert(i, mk(i));
        }
        let snapshot = t.clone();
        t.insert(65, mk(65));
        t.remove(1);
        assert!(snapshot.get(65).is_none());
        assert!(snapshot.get(1).is_some());
        assert_eq!(snapshot.len(), 64);
        assert_eq!(t.len(), 64);
        // And the other direction: mutating a clone never leaks back.
        let mut fork = snapshot.clone();
        fork.get_mut(2).unwrap().nlink = 42;
        assert_eq!(snapshot.get(2).unwrap().nlink, 1);
    }

    #[test]
    fn for_each_visits_everything_once() {
        let mut t = InodeTable::new();
        for i in 1..=333u64 {
            t.insert(i, mk(i));
        }
        let mut seen = Vec::new();
        t.for_each(|k, v| {
            assert_eq!(k, v.ino);
            seen.push(k);
        });
        seen.sort_unstable();
        assert_eq!(seen, (1..=333u64).collect::<Vec<_>>());
        t.for_each_mut(|inode| inode.nlink = 7);
        t.for_each(|_, v| assert_eq!(v.nlink, 7));
    }
}
