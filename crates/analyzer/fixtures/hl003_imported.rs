//! HL002/HL003 fixture: a crate that defines no helper of its own and
//! imports the workspace's shared one. A bare `.lock().unwrap()` still
//! bypasses it, and two locks taken through it in opposite orders still
//! form a cycle.

use std::sync::Mutex;

use hpcc_kernel::sync::lock_recover;

pub struct Pair {
    first: Mutex<u32>,
    second: Mutex<u32>,
}

impl Pair {
    pub fn forward(&self) -> u32 {
        let a = lock_recover(&self.first);
        let b = lock_recover(&self.second);
        *a + *b
    }

    pub fn backward(&self) -> u32 {
        let b = lock_recover(&self.second);
        let a = lock_recover(&self.first);
        *a - *b
    }

    pub fn bypasses(&self) -> u32 {
        *self.first.lock().unwrap() // bare: the one expected HL003 finding
    }
}
