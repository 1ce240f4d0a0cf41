//! The parallel CLOSED table's claim protocol as one `Mutex<HashMap>`: the
//! reference model the lock-free table is checked against.  Generic over the
//! key and free of workspace imports, so both the root test suites and the
//! unit tests of `crates/parallel/src/closed.rs` include this one file.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// Key → `(best g, holder)` under one lock; `g` is a path cost.
#[derive(Debug, Default)]
pub struct ClaimModel<K> {
    claims: Mutex<HashMap<K, (u64, usize)>>,
}

impl<K: Hash + Eq> ClaimModel<K> {
    pub fn new() -> ClaimModel<K> {
        ClaimModel {
            claims: Mutex::new(HashMap::new()),
        }
    }

    /// `Ok(())` when `owner` now holds `key` (a fresh claim or a strictly
    /// better `g`), `Err(holder)` when the claim is a duplicate.
    pub fn try_claim(&self, key: K, g: u64, owner: usize) -> Result<(), usize> {
        let mut claims = self.claims.lock().unwrap();
        match claims.get(&key) {
            Some(&(best, holder)) if g >= best => Err(holder),
            _ => {
                claims.insert(key, (g, owner));
                Ok(())
            }
        }
    }

    /// The best `g` claimed for `key`, if any.
    pub fn best_g(&self, key: &K) -> Option<u64> {
        self.claims.lock().unwrap().get(key).map(|&(g, _)| g)
    }

    /// Number of distinct keys claimed.
    pub fn len(&self) -> usize {
        self.claims.lock().unwrap().len()
    }
}
