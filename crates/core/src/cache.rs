//! Per-instruction build cache.
//!
//! The paper lists the lack of a build cache as a Charliecloud disadvantage
//! (§6.1 item 3): "This caching can greatly accelerate repetitive builds,
//! such as during iterative development." This module provides the cache so
//! the repository can both reproduce the cache-less behaviour and quantify
//! the improvement (EXPERIMENTS.md E15).
//!
//! The cache is keyed directly on [`Digest`] (32 raw bytes, `Hash + Eq`) —
//! never on the rendered `sha256:<hex>` string — and a hit returns an
//! [`Arc`]-shared snapshot. Because [`Filesystem`] snapshots are
//! copy-on-write, a hit costs a reference-count bump plus O(metadata) on the
//! first subsequent mutation, not a deep copy of the image tree.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use hpcc_fakeroot::LieDatabase;
use hpcc_image::{Digest, ImageConfig, Sha256};
use hpcc_kernel::sync::{lock_recover, wait_recover};
use hpcc_vfs::Filesystem;

/// A build-cache chain key under construction: the parent state and every
/// bound input stream into one SHA-256, with no intermediate string.
///
/// Each field is fixed-size (a one-byte tag, a `u64`, a digest) or carries
/// its length first, and which fields follow is decided by the tags already
/// written. The byte stream therefore decodes back to exactly one input
/// sequence, so two different inputs can never share a key, whatever bytes
/// (`|`, `=`, newlines) their values contain.
pub(crate) struct StateKey(Sha256);

impl StateKey {
    /// Starts the key of an instruction executed on top of `parent` (`None`
    /// for a stage's first instruction on a base image).
    pub(crate) fn new(parent: Option<&Digest>) -> Self {
        let mut key = StateKey(Sha256::new());
        key.opt_digest(parent);
        key
    }

    /// Binds a one-byte tag: an instruction kind, a flag, or a marker.
    pub(crate) fn tag(&mut self, tag: u8) -> &mut Self {
        self.0.update(&[tag]);
        self
    }

    /// Binds a number.
    pub(crate) fn u64(&mut self, n: u64) -> &mut Self {
        self.0.update(&n.to_le_bytes());
        self
    }

    /// Binds a string, length first.
    pub(crate) fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64);
        self.0.update(s.as_bytes());
        self
    }

    /// Binds a list of strings, count first.
    pub(crate) fn strs(&mut self, items: &[String]) -> &mut Self {
        self.u64(items.len() as u64);
        for item in items {
            self.str(item);
        }
        self
    }

    /// Binds an optional string: a presence tag, then the string.
    pub(crate) fn opt_str(&mut self, s: Option<&str>) -> &mut Self {
        match s {
            Some(s) => self.tag(1).str(s),
            None => self.tag(0),
        }
    }

    /// Binds an optional digest: a presence tag, then its raw bytes.
    pub(crate) fn opt_digest(&mut self, digest: Option<&Digest>) -> &mut Self {
        match digest {
            Some(d) => {
                self.tag(1);
                self.0.update(&d.0);
                self
            }
            None => self.tag(0),
        }
    }

    /// The finished key.
    pub(crate) fn finish(self) -> Digest {
        self.0.finalize()
    }
}

/// A cached build state: the filesystem and metadata after executing an
/// instruction. Every field is shared: storing or adopting a state bumps
/// reference counts, and the executor copies the config or lie database
/// only when an instruction writes to it.
#[derive(Debug, Clone)]
pub struct CachedState {
    /// Image filesystem snapshot.
    pub fs: Filesystem,
    /// Image configuration snapshot.
    pub config: Arc<ImageConfig>,
    /// Fakeroot lie database snapshot.
    pub fakeroot_db: Arc<LieDatabase>,
    /// State identifier (chain digest).
    pub state_id: Digest,
}

/// The cache: chain-digest keyed snapshots, with optional LRU eviction.
///
/// When a capacity is set, inserting past it evicts the least-recently-used
/// entry — but never one still **pinned** by an in-flight stage: a pinned
/// entry is one whose `Arc` has an outstanding reference beyond the cache's
/// own (a stage adopted the snapshot and is still building on it). If every
/// entry is pinned the cache temporarily exceeds its capacity rather than
/// invalidating live state.
#[derive(Debug, Clone, Default)]
pub struct BuildCache {
    entries: HashMap<Digest, (Arc<CachedState>, u64)>,
    /// Monotonic recency clock; bumped on every lookup hit and store.
    tick: u64,
    /// Maximum entries to retain (`None` = unbounded).
    capacity: Option<usize>,
    /// Entries evicted so far.
    evictions: u64,
    hits: usize,
    misses: usize,
}

impl BuildCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache that evicts least-recently-used entries past `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        BuildCache {
            capacity: Some(capacity),
            ..Default::default()
        }
    }

    /// Sets (or removes) the entry cap. Shrinking evicts immediately; the
    /// evicted states are returned, as by [`Self::store`].
    pub fn set_capacity(&mut self, capacity: Option<usize>) -> Vec<Arc<CachedState>> {
        self.capacity = capacity;
        self.evict_to_capacity()
    }

    /// The configured entry cap.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a state, counting a hit or miss. A hit shares the snapshot:
    /// mutating a filesystem cloned out of it never writes back into the
    /// cache (copy-on-write).
    pub fn lookup(&mut self, id: &Digest) -> Option<Arc<CachedState>> {
        match self.probe(id) {
            Some(state) => {
                self.hits += 1;
                Some(state)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Looks up a state and refreshes its recency *without* touching the
    /// hit/miss counters — the sharded wrapper counts via atomics instead.
    pub fn probe(&mut self, id: &Digest) -> Option<Arc<CachedState>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(id).map(|slot| {
            slot.1 = tick;
            Arc::clone(&slot.0)
        })
    }

    /// Stores a state, evicting LRU entries past the capacity. Returns the
    /// evicted states, so a caller that holds a lock around the cache can
    /// free their snapshots after releasing it.
    pub fn store(&mut self, state: CachedState) -> Vec<Arc<CachedState>> {
        self.tick += 1;
        self.entries
            .insert(state.state_id, (Arc::new(state), self.tick));
        self.evict_to_capacity()
    }

    /// Evicts least-recently-used entries until within capacity, skipping
    /// entries pinned by in-flight stages (outstanding `Arc` references).
    fn evict_to_capacity(&mut self) -> Vec<Arc<CachedState>> {
        let mut evicted = Vec::new();
        let Some(cap) = self.capacity else {
            return evicted;
        };
        while self.entries.len() > cap {
            let victim = self
                .entries
                .iter()
                .filter(|(_, (state, _))| Arc::strong_count(state) == 1)
                .min_by_key(|(_, (_, tick))| *tick)
                .map(|(id, _)| *id);
            // Everything is pinned: exceed capacity rather than drop state a
            // stage is still building on.
            let Some((state, _)) = victim.and_then(|id| self.entries.remove(&id)) else {
                break;
            };
            evicted.push(state);
            self.evictions += 1;
        }
        evicted
    }

    /// Number of cached states.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Clears everything (including statistics).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }
}

/// Number of shards in a [`ShardedBuildCache`].
pub const CACHE_SHARDS: usize = 16;

/// One in-flight computation of a cache entry: the leader executes the
/// instruction while waiters block on the condvar. `done` flips exactly once,
/// when the leader stores its result (or aborts by dropping its guard).
#[derive(Debug, Default)]
struct FlightSlot {
    done: Mutex<bool>,
    cv: Condvar,
}

/// One step of [`ShardedBuildCache::lookup_or_lead`].
enum Flight<'a> {
    Hit(Arc<CachedState>),
    Lead(FlightGuard<'a>),
    /// Another caller leads the digest: wait for its slot to finish.
    Wait(Arc<FlightSlot>),
}

/// Outcome of [`ShardedBuildCache::lookup_or_lead`].
#[derive(Debug)]
pub enum CacheOutcome<'a> {
    /// The state was cached (or became cached while this caller waited on
    /// the in-flight leader computing it): adopt the shared snapshot.
    Hit(Arc<CachedState>),
    /// This caller is the *leader* for the digest: no cached entry exists
    /// and nobody else is computing one. Execute the instruction, then call
    /// [`FlightGuard::complete`]; dropping the guard without completing
    /// aborts the flight and promotes one waiter to leader.
    Lead(FlightGuard<'a>),
}

/// Leadership of one in-flight cache computation (see
/// [`ShardedBuildCache::lookup_or_lead`]). Dropping the guard without
/// calling [`FlightGuard::complete`] — the instruction failed, or the
/// executing thread panicked and is unwinding — releases the digest so a
/// waiting tenant retries instead of blocking forever.
#[derive(Debug)]
pub struct FlightGuard<'a> {
    cache: &'a ShardedBuildCache,
    id: Digest,
    finished: bool,
}

impl FlightGuard<'_> {
    /// Stores the computed state and wakes every waiter; they re-probe the
    /// cache and take the entry as a hit.
    pub fn complete(mut self, state: CachedState) {
        debug_assert_eq!(
            state.state_id, self.id,
            "flight completed with foreign state"
        );
        self.cache.store(state);
        self.finish();
    }

    /// Removes the flight slot and wakes waiters (who either hit the stored
    /// entry or race to become the next leader).
    fn finish(&mut self) {
        self.finished = true;
        let slot = lock_recover(&self.cache.flight).remove(&self.id);
        if let Some(slot) = slot {
            *lock_recover(&slot.done) = true;
            slot.cv.notify_all();
        }
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.finish();
        }
    }
}

/// A [`BuildCache`] sharded 16 ways by digest prefix.
///
/// The stage executor shares one build cache across every concurrently
/// executing stage. A single `Mutex<BuildCache>` serializes all probes and
/// stores of a wide stage graph on one lock; sharding by the first digest
/// nibble keeps contention local to the 1/16th of key space two stages
/// happen to collide on. Chain digests are SHA-256 output, so keys spread
/// uniformly across shards.
///
/// Hit/miss statistics live in `AtomicU64`s on the wrapper: reading them
/// never takes a shard lock (the old implementation summed per-shard
/// counters under all sixteen locks).
///
/// **In-flight deduplication** (multi-tenant build farm): when several
/// builds execute the same instruction prefix concurrently, a plain
/// lookup/store protocol computes the state once *per build* — every build
/// misses before the first one stores. [`ShardedBuildCache::lookup_or_lead`]
/// closes that window: exactly one caller per digest becomes the *leader*
/// (a miss) and everyone else waits on the leader's [`FlightGuard`], then
/// adopts the stored snapshot as a hit. Total misses for N concurrent
/// identical builds equal those of a single build.
///
/// Shard and flight locks recover from poisoning ([`hpcc_kernel::sync`]):
/// a build thread panicking mid-probe must not wedge the cache shared by
/// every other tenant.
#[derive(Debug, Default)]
pub struct ShardedBuildCache {
    shards: [Mutex<BuildCache>; CACHE_SHARDS],
    /// Digests currently being computed by a leader.
    flight: Mutex<HashMap<Digest, Arc<FlightSlot>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Lookups that blocked on an in-flight leader and then adopted its
    /// result — work that would have been duplicated without dedup.
    deduped: AtomicU64,
}

impl ShardedBuildCache {
    /// Empty sharded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty sharded cache whose total entry count is capped at `capacity`
    /// (split evenly across shards, rounded up).
    pub fn with_capacity(capacity: usize) -> Self {
        let cache = Self::default();
        cache.set_capacity(Some(capacity));
        cache
    }

    /// Sets (or removes) the total entry cap, splitting it across shards.
    /// Shrinking evicts LRU entries immediately; entries pinned by in-flight
    /// stages are never dropped.
    pub fn set_capacity(&self, capacity: Option<usize>) {
        let per_shard = capacity.map(|c| c.div_ceil(CACHE_SHARDS).max(1));
        for s in &self.shards {
            // The shard guard is a temporary: evicted snapshots are freed
            // after it is released.
            let evicted = lock_recover(s).set_capacity(per_shard);
            drop(evicted);
        }
    }

    /// The shard owning `id` (first nibble of the digest's leading byte).
    fn shard(&self, id: &Digest) -> &Mutex<BuildCache> {
        &self.shards[(id.0[0] & (CACHE_SHARDS as u8 - 1)) as usize]
    }

    /// Looks up a state in its shard, counting the hit or miss atomically.
    pub fn lookup(&self, id: &Digest) -> Option<Arc<CachedState>> {
        let hit = lock_recover(self.shard(id)).probe(id);
        match hit.is_some() {
            true => self.hits.fetch_add(1, Ordering::Relaxed),
            false => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        hit
    }

    /// Looks up a state with **in-flight deduplication**: a cached entry is
    /// a hit as usual; on a miss, the first caller per digest becomes the
    /// leader ([`CacheOutcome::Lead`], counted as the *only* miss) while
    /// concurrent callers for the same digest block until the leader
    /// completes, then adopt its stored snapshot as a hit. If the leader
    /// aborts (instruction failed or thread panicked), one waiter is
    /// promoted to leader and retries.
    ///
    /// Deadlock-free by construction: leadership is held only while
    /// executing a single instruction, which never waits on another digest.
    pub fn lookup_or_lead(&self, id: &Digest) -> CacheOutcome<'_> {
        let mut waited = false;
        loop {
            // Bound before the match: a guard in the scrutinee would stay
            // locked through `join_or_lead`, which takes the shard again.
            let probed = lock_recover(self.shard(id)).probe(id);
            let step = match probed {
                Some(hit) => Flight::Hit(hit),
                None => self.join_or_lead(id),
            };
            let slot = match step {
                Flight::Hit(hit) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if waited {
                        self.deduped.fetch_add(1, Ordering::Relaxed);
                    }
                    return CacheOutcome::Hit(hit);
                }
                Flight::Lead(guard) => return CacheOutcome::Lead(guard),
                Flight::Wait(slot) => slot,
            };
            // Wait for the leader, then loop: either its result is now in
            // the shard (hit) or it aborted (race for the next leadership).
            let mut done = lock_recover(&slot.done);
            while !*done {
                done = wait_recover(&slot.cv, done, &slot.done);
            }
            waited = true;
        }
    }

    /// The flight step of [`Self::lookup_or_lead`], after a shard probe
    /// missed: wait on the digest's leader, or become the leader (counted
    /// as the miss). Before leading, the shard is probed again under the
    /// flight lock. A leader stores its state before it removes its slot,
    /// so a leader that completed since the first probe shows up here as a
    /// hit; an absent slot plus a second miss means nobody has computed the
    /// digest.
    fn join_or_lead(&self, id: &Digest) -> Flight<'_> {
        let mut flight = lock_recover(&self.flight);
        if let Some(slot) = flight.get(id) {
            return Flight::Wait(Arc::clone(slot));
        }
        if let Some(hit) = lock_recover(self.shard(id)).probe(id) {
            return Flight::Hit(hit);
        }
        flight.insert(*id, Arc::new(FlightSlot::default()));
        self.misses.fetch_add(1, Ordering::Relaxed);
        Flight::Lead(FlightGuard {
            cache: self,
            id: *id,
            finished: false,
        })
    }

    /// Stores a state in its shard (evicting LRU entries past the cap).
    /// Evicted snapshots are freed after the shard lock is released, so
    /// other workers probing the shard do not wait on the deallocation.
    pub fn store(&self, state: CachedState) {
        let evicted = lock_recover(self.shard(&state.state_id)).store(state);
        drop(evicted);
    }

    /// Number of cached states across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).len()).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits so far (one relaxed atomic load; no shard locks).
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed) as usize
    }

    /// Cache misses so far (one relaxed atomic load; no shard locks).
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed) as usize
    }

    /// Lookups that blocked on an in-flight leader and adopted its result
    /// instead of recomputing (counted inside [`Self::hits`] too).
    pub fn deduped(&self) -> usize {
        self.deduped.load(Ordering::Relaxed) as usize
    }

    /// Entries evicted so far, summed across shards.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| lock_recover(s).evictions())
            .sum()
    }

    /// Clears every shard (including statistics). In-flight computations are
    /// left to complete; their stores land in the cleared cache.
    pub fn clear(&self) {
        for s in &self.shards {
            lock_recover(s).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.deduped.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_state(id: Digest) -> CachedState {
        CachedState {
            fs: Filesystem::new_local(),
            config: Arc::new(ImageConfig::default()),
            fakeroot_db: Arc::new(LieDatabase::new()),
            state_id: id,
        }
    }

    /// The key of a one-field input on top of `parent`.
    fn key(parent: Option<&Digest>, field: &str) -> Digest {
        let mut key = StateKey::new(parent);
        key.str(field);
        key.finish()
    }

    #[test]
    fn state_id_chains() {
        let a = key(None, "FROM centos:7");
        let b = key(Some(&a), "RUN echo hello");
        let b2 = key(Some(&a), "RUN echo hello");
        assert_eq!(b, b2);
        assert_ne!(a, b);
        // Different parent -> different id for the same instruction.
        let other_parent = key(None, "FROM debian:buster");
        assert_ne!(key(Some(&other_parent), "RUN echo hello"), b);
        // No parent is not the all-zero parent.
        assert_ne!(key(None, "x"), key(Some(&Digest([0; 32])), "x"));
    }

    #[test]
    fn state_key_fields_are_unambiguous() {
        fn two(first: &str, second: &str) -> Digest {
            let mut key = StateKey::new(None);
            key.str(first).str(second);
            key.finish()
        }
        // Moving bytes across a field boundary changes the key, including
        // a separator that also occurs inside a value.
        assert_ne!(two("ab", "c"), two("a", "bc"));
        assert_ne!(two("a|b", "c"), two("a", "b|c"));
        assert_ne!(two("k=v", "w"), two("k", "v=w"));
        // Lists bind their length, and an absent value is not an empty one.
        let list = |items: &[&str]| {
            let items: Vec<String> = items.iter().map(|s| s.to_string()).collect();
            let mut key = StateKey::new(None);
            key.strs(&items);
            key.finish()
        };
        assert_ne!(list(&["a", "b"]), list(&["ab"]));
        assert_ne!(list(&[]), list(&[""]));
        let opt = |s: Option<&str>| {
            let mut key = StateKey::new(None);
            key.opt_str(s);
            key.finish()
        };
        assert_ne!(opt(None), opt(Some("")));
    }

    #[test]
    fn lookup_hit_and_miss_counting() {
        let mut cache = BuildCache::new();
        let id = key(None, "FROM centos:7");
        assert!(cache.lookup(&id).is_none());
        cache.store(dummy_state(id));
        assert!(cache.lookup(&id).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let mut cache = BuildCache::new();
        let id = key(None, "x");
        cache.store(dummy_state(id));
        cache.lookup(&id);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn hit_path_shares_file_bytes_and_mutations_do_not_leak_back() {
        use hpcc_kernel::{Credentials, Gid, Uid, UserNamespace};
        use hpcc_vfs::{Actor, Mode};

        let creds = Credentials::host_root();
        let ns = UserNamespace::initial();
        let actor = Actor::new(&creds, &ns);

        let id = key(None, "FROM centos:7");
        let mut state = dummy_state(id);
        state
            .fs
            .install_file("/bin/tool", vec![9u8; 8192], Uid(0), Gid(0), Mode::EXEC_755)
            .unwrap();
        let mut cache = BuildCache::new();
        cache.store(state);

        // A hit hands out a filesystem whose file bytes are the cached ones —
        // shared, not deep-copied.
        let hit = cache.lookup(&id).unwrap();
        let mut working = hit.fs.clone();
        let cached_bytes = hit.fs.file_bytes(&actor, "/bin/tool").unwrap();
        let working_bytes = working.file_bytes(&actor, "/bin/tool").unwrap();
        assert!(cached_bytes.shares_buffer_with(&working_bytes));

        // Building on top of the snapshot never writes back into the cache.
        working
            .write_file(&actor, "/bin/tool", b"overwritten".to_vec(), Mode::EXEC_755)
            .unwrap();
        working
            .write_file(&actor, "/extra", b"x".to_vec(), Mode::FILE_644)
            .unwrap();
        let hit2 = cache.lookup(&id).unwrap();
        assert_eq!(
            hit2.fs.read_file(&actor, "/bin/tool").unwrap(),
            vec![9u8; 8192]
        );
        assert!(!hit2.fs.exists(&actor, "/extra"));
    }

    #[test]
    fn sharded_cache_spreads_keys_and_sums_stats() {
        let cache = ShardedBuildCache::new();
        let mut shard_indices = std::collections::HashSet::new();
        let mut ids = Vec::new();
        for i in 0..64 {
            let id = key(None, &format!("RUN step {}", i));
            shard_indices.insert((id.0[0] & (CACHE_SHARDS as u8 - 1)) as usize);
            cache.store(dummy_state(id));
            ids.push(id);
        }
        // SHA-256 output spreads across many shards, not one.
        assert!(
            shard_indices.len() > CACHE_SHARDS / 2,
            "{:?}",
            shard_indices
        );
        assert_eq!(cache.len(), 64);
        for id in &ids {
            assert!(cache.lookup(id).is_some());
        }
        assert!(cache.lookup(&key(None, "missing")).is_none());
        assert_eq!(cache.hits(), 64);
        assert_eq!(cache.misses(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn sharded_cache_concurrent_store_lookup() {
        use std::sync::Arc;
        let cache = Arc::new(ShardedBuildCache::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for i in 0..32 {
                        let id = key(None, &format!("t{} i{}", t, i));
                        cache.store(dummy_state(id));
                        assert!(cache.lookup(&id).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.len(), 4 * 32);
        assert_eq!(cache.hits(), 4 * 32);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recency() {
        let mut cache = BuildCache::with_capacity(3);
        let ids: Vec<Digest> = (0..4)
            .map(|i| key(None, &format!("RUN step {}", i)))
            .collect();
        for &id in &ids[..3] {
            cache.store(dummy_state(id));
        }
        // Touch id 0 so id 1 becomes the least recently used.
        assert!(cache.lookup(&ids[0]).is_some());
        cache.store(dummy_state(ids[3]));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.lookup(&ids[1]).is_none(), "LRU entry evicted");
        assert!(cache.lookup(&ids[0]).is_some());
        assert!(cache.lookup(&ids[3]).is_some());
    }

    #[test]
    fn eviction_never_drops_entries_pinned_by_in_flight_stages() {
        let mut cache = BuildCache::with_capacity(2);
        let pinned_id = key(None, "FROM centos:7");
        cache.store(dummy_state(pinned_id));
        // An in-flight stage holds the snapshot it adopted from the cache.
        let pinned = cache.lookup(&pinned_id).expect("just stored");
        // Flood the cache well past capacity.
        for i in 0..8 {
            cache.store(dummy_state(key(None, &format!("RUN flood {}", i))));
        }
        assert!(
            cache.lookup(&pinned_id).is_some(),
            "pinned entry survived eviction pressure"
        );
        assert!(cache.len() <= 3, "unpinned entries were evicted");
        assert!(cache.evictions() >= 6);
        drop(pinned);
        // Once unpinned, the entry is evictable like any other.
        cache.set_capacity(Some(1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn when_everything_is_pinned_capacity_is_exceeded_not_violated() {
        let mut cache = BuildCache::new();
        let a = key(None, "a");
        let b = key(None, "b");
        cache.store(dummy_state(a));
        cache.store(dummy_state(b));
        let pin_a = cache.lookup(&a).unwrap();
        let pin_b = cache.lookup(&b).unwrap();
        // Both entries pinned by in-flight stages: shrinking the capacity
        // finds nothing evictable and the cache exceeds the cap instead.
        cache.set_capacity(Some(1));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(&a).is_some() && cache.lookup(&b).is_some());
        drop(pin_a);
        // One entry unpinned: the next store can now evict down toward the
        // cap (the unpinned LRU entry goes first).
        let c = key(None, "c");
        cache.store(dummy_state(c));
        assert!(cache.lookup(&a).is_none(), "unpinned LRU entry evicted");
        assert!(cache.lookup(&b).is_some(), "pinned entry survived");
        drop(pin_b);
    }

    #[test]
    fn sharded_capacity_splits_across_shards_and_counts_atomically() {
        let cache = ShardedBuildCache::with_capacity(16);
        for i in 0..256 {
            cache.store(dummy_state(key(None, &format!("RUN fill {}", i))));
        }
        // Each shard holds at most ceil(16/16) = 1 entry.
        assert!(cache.len() <= CACHE_SHARDS, "len = {}", cache.len());
        assert!(cache.evictions() >= 200);
        // Atomic counters: reads do not require consistent shard locks.
        let before_hits = cache.hits();
        assert!(cache.lookup(&key(None, "definitely missing")).is_none());
        assert_eq!(cache.hits(), before_hits);
        assert!(cache.misses() >= 1);
    }

    #[test]
    fn shard_locks_survive_poisoning() {
        let cache = ShardedBuildCache::new();
        let id = key(None, "FROM centos:7");
        cache.store(dummy_state(id));
        // Poison the shard the way a panicking build thread would: die while
        // holding the shard guard.
        let shard = cache.shard(&id);
        let poison = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.lock().unwrap();
            panic!("build thread dies while holding a cache shard lock");
        }));
        assert!(poison.is_err());
        assert!(shard.is_poisoned());
        // Every operation on the shard still works for other tenants…
        assert!(cache.lookup(&id).is_some());
        cache.store(dummy_state(key(Some(&id), "RUN x")));
        assert_eq!(cache.len(), 2);
        cache.set_capacity(Some(64));
        assert_eq!(cache.evictions(), 0);
        // …and recovery cleared the flag instead of paying the recovery
        // branch on every later lock.
        assert!(!shard.is_poisoned());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn lookup_or_lead_dedups_concurrent_identical_misses() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache = Arc::new(ShardedBuildCache::new());
        let id = key(None, "RUN expensive step");
        let computed = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                scope.spawn(move || match cache.lookup_or_lead(&id) {
                    CacheOutcome::Hit(state) => assert_eq!(state.state_id, id),
                    CacheOutcome::Lead(guard) => {
                        // Simulate instruction execution while 7 tenants wait.
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        computed.fetch_add(1, Ordering::SeqCst);
                        guard.complete(dummy_state(id));
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one leader");
        assert_eq!(cache.misses(), 1, "waiters are hits, not misses");
        assert_eq!(cache.hits(), 7);
        assert!(
            cache.deduped() >= 1,
            "at least one lookup blocked and deduped"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn leader_completing_between_probe_and_flight_step_is_a_hit() {
        let cache = ShardedBuildCache::new();
        let id = key(None, "RUN racing step");
        let CacheOutcome::Lead(leader) = cache.lookup_or_lead(&id) else {
            panic!("empty cache must elect a leader");
        };
        // A second caller probes the shard while the leader computes…
        assert!(lock_recover(cache.shard(&id)).probe(&id).is_none());
        // …the leader stores its state and removes its flight slot…
        leader.complete(dummy_state(id));
        // …and only then does the caller reach the flight step. It finds no
        // slot, but must adopt the stored state instead of leading again.
        match cache.join_or_lead(&id) {
            Flight::Hit(state) => assert_eq!(state.state_id, id),
            Flight::Lead(_) => panic!("digest computed twice"),
            Flight::Wait(_) => panic!("the finished leader's slot is gone"),
        }
        assert_eq!(cache.misses(), 1);
        // An aborted leader stores nothing: the flight step then leads.
        let fresh = key(None, "RUN aborted step");
        let CacheOutcome::Lead(aborted) = cache.lookup_or_lead(&fresh) else {
            panic!("empty cache must elect a leader");
        };
        drop(aborted);
        assert!(matches!(cache.join_or_lead(&fresh), Flight::Lead(_)));
        assert_eq!(cache.misses(), 3);
    }

    #[test]
    fn evicted_states_are_returned_to_be_freed_outside_the_lock() {
        let mut cache = BuildCache::with_capacity(1);
        let a = key(None, "a");
        let b = key(None, "b");
        assert!(cache.store(dummy_state(a)).is_empty());
        let evicted = cache.store(dummy_state(b));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].state_id, a);
        // The cache no longer references the victim: the caller's handle
        // is the last one, so dropping it frees the snapshot.
        assert_eq!(Arc::strong_count(&evicted[0]), 1);
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn aborted_leader_promotes_a_waiter() {
        let cache = Arc::new(ShardedBuildCache::new());
        let id = key(None, "RUN flaky step");
        // First leader aborts by dropping its guard (failed instruction).
        let CacheOutcome::Lead(first) = cache.lookup_or_lead(&id) else {
            panic!("empty cache must elect a leader");
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || match cache.lookup_or_lead(&id) {
                CacheOutcome::Hit(_) => panic!("abort must not produce a hit"),
                CacheOutcome::Lead(guard) => {
                    guard.complete(dummy_state(id));
                    true
                }
            })
        };
        // Give the waiter time to block on the flight slot, then abort.
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(first);
        assert!(waiter.join().unwrap(), "waiter was promoted to leader");
        assert!(
            cache.lookup(&id).is_some(),
            "promoted leader stored the state"
        );
        assert_eq!(cache.misses(), 2, "both leaderships count as misses");
    }

    #[test]
    fn leader_panic_unblocks_waiters_via_guard_drop() {
        let cache = Arc::new(ShardedBuildCache::new());
        let id = key(None, "RUN panicking step");
        std::thread::scope(|scope| {
            let leader = {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    let outcome = cache.lookup_or_lead(&id);
                    if let CacheOutcome::Lead(_guard) = outcome {
                        panic!("stage executor dies mid-instruction");
                    }
                })
            };
            // The panicking leader's guard drop must wake this waiter and
            // hand it leadership instead of deadlocking the farm.
            std::thread::sleep(std::time::Duration::from_millis(10));
            match cache.lookup_or_lead(&id) {
                CacheOutcome::Hit(_) => panic!("no state was ever stored"),
                CacheOutcome::Lead(guard) => guard.complete(dummy_state(id)),
            }
            assert!(leader.join().is_err(), "leader panicked as arranged");
        });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hit_returns_shared_snapshot_without_deep_copy() {
        let mut cache = BuildCache::new();
        let id = key(None, "FROM centos:7");
        let mut state = dummy_state(id);
        state
            .fs
            .install_file(
                "/etc/os-release",
                b"CentOS 7".to_vec(),
                hpcc_kernel::Uid(0),
                hpcc_kernel::Gid(0),
                hpcc_vfs::Mode::FILE_644,
            )
            .unwrap();
        cache.store(state);
        let a = cache.lookup(&id).unwrap();
        let b = cache.lookup(&id).unwrap();
        // Both hits share one allocation of the cached state.
        assert!(Arc::ptr_eq(&a, &b));
    }
}
