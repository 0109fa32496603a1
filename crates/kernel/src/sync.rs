//! Poison-recovering lock acquisition: the one helper set every crate
//! that locks shared state routes through.
//!
//! A thread that panics while holding a `Mutex`/`RwLock` poisons it. The
//! serve loop, the build farm, the shared build cache and cluster fan-out
//! all keep running for their other clients after such a panic, and the
//! state they protect is either immutable or repaired by the next holder.
//! So every acquisition clears the poison flag and hands back the guard
//! instead of cascading the panic into every later lock. The workspace
//! analyzer's HL003 pass enforces that no bare `.lock().unwrap()` bypasses
//! these helpers in any crate that uses them.

use std::sync::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};
use std::time::Duration;

/// Locks a `Mutex`, clearing poison and recovering the guard if a previous
/// holder panicked.
pub fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

/// Read-locks a `RwLock`, clearing poison and recovering the guard if a
/// previous writer panicked.
pub fn read_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| {
        lock.clear_poison();
        poisoned.into_inner()
    })
}

/// Write-locks a `RwLock`, clearing poison and recovering the guard if a
/// previous writer panicked.
pub fn write_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|poisoned| {
        lock.clear_poison();
        poisoned.into_inner()
    })
}

/// `Condvar::wait` with the same recovery: the mutex the guard came from is
/// passed alongside so its poison flag can be cleared.
pub fn wait_recover<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    mutex: &'a Mutex<T>,
) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

/// `Condvar::wait_timeout` with poison recovery.
pub fn wait_timeout_recover<'a, T>(
    cond: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
    mutex: &'a Mutex<T>,
) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
    cond.wait_timeout(guard, dur).unwrap_or_else(|poisoned| {
        mutex.clear_poison();
        poisoned.into_inner()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_recovers_after_a_panicked_holder() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock_recover(&m), 7);
        assert!(!m.is_poisoned());
    }

    #[test]
    fn rwlock_recovers_after_a_panicked_writer() {
        let l = Arc::new(RwLock::new(1u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write().unwrap();
            panic!("poison it");
        })
        .join();
        assert!(l.is_poisoned());
        assert_eq!(*read_recover(&l), 1);
        *write_recover(&l) = 2;
        assert_eq!(*read_recover(&l), 2);
    }
}
