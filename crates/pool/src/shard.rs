//! Sharded reader–writer hash maps for the shared memo caches.
//!
//! The checking stack's caches are read-mostly once warm: a batch of
//! formulas interns a few dozen subformulas and then hits the same memo
//! entries from every pool task. A single `RwLock<HashMap>` would make
//! every insert a stop-the-world event; [`ShardedMap`] splits the key
//! space over independent locks by hash, so writers only contend with
//! writers of the same shard and concurrent readers proceed on all other
//! shards.
//!
//! Values are handed out by clone — callers store `Arc`s, which makes a
//! lookup a reference-count bump and keeps no lock held while the caller
//! uses the value.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::RwLock;

/// Number of independent locks. Plenty for the pool sizes the runtime
/// targets; a power of two so the hash folds cheaply.
const SHARDS: usize = 16;

/// A concurrent hash map sharded over `SHARDS` reader–writer locks.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Box<[RwLock<HashMap<K, V>>]>,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        ShardedMap {
            shards: (0..SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }
}

impl<K: Eq + Hash, V> ShardedMap<K, V> {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        ShardedMap::default()
    }

    fn shard(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        &self.shards[(hasher.finish() as usize) % SHARDS]
    }

    /// Clones the value stored under `key`, if any.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.shard(key).read().unwrap().get(key).cloned()
    }

    /// Inserts `value` under `key`, returning the previous value.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.shard(&key).write().unwrap().insert(key, value)
    }

    /// Returns the value under `key`, computing and storing it first if
    /// absent. The shard's write lock is held while `make` runs, so
    /// concurrent callers with the same key compute at most once — `make`
    /// must not touch this map (same-shard re-entry would deadlock).
    pub fn get_or_insert_with<F>(&self, key: K, make: F) -> V
    where
        V: Clone,
        F: FnOnce() -> V,
    {
        let shard = self.shard(&key);
        if let Some(value) = shard.read().unwrap().get(&key) {
            return value.clone();
        }
        let mut guard = shard.write().unwrap();
        guard.entry(key).or_insert_with(make).clone()
    }

    /// Removes the value under `key`.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.shard(key).write().unwrap().remove(key)
    }

    /// Total number of entries (sums shard sizes; a snapshot, not an
    /// atomic observation).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap().len()).sum()
    }

    /// `true` when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.write().unwrap().clear();
        }
    }

    /// Calls `f` on every entry, shard by shard. The shard being visited
    /// is read-locked during the call.
    pub fn for_each<F>(&self, mut f: F)
    where
        F: FnMut(&K, &V),
    {
        for shard in self.shards.iter() {
            for (k, v) in shard.read().unwrap().iter() {
                f(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    #[test]
    fn basic_ops() {
        let map: ShardedMap<u64, Arc<String>> = ShardedMap::new();
        assert!(map.is_empty());
        assert!(map.get(&7).is_none());
        map.insert(7, Arc::new("seven".into()));
        assert_eq!(map.get(&7).unwrap().as_str(), "seven");
        assert_eq!(map.len(), 1);
        assert!(map.remove(&7).is_some());
        assert!(map.is_empty());
    }

    #[test]
    fn get_or_insert_computes_once() {
        let map: ShardedMap<u32, u32> = ShardedMap::new();
        let calls = AtomicU32::new(0);
        for _ in 0..3 {
            let v = map.get_or_insert_with(5, || {
                calls.fetch_add(1, Ordering::SeqCst);
                55
            });
            assert_eq!(v, 55);
        }
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_interning_agrees() {
        let map: Arc<ShardedMap<u32, u32>> = Arc::new(ShardedMap::new());
        let pool = crate::ThreadPool::new(8);
        let mut results = vec![0u32; 64];
        pool.scope(|s| {
            for (i, slot) in results.iter_mut().enumerate() {
                let map = &map;
                s.spawn(move || {
                    *slot = map.get_or_insert_with((i % 4) as u32, || (i % 4) as u32 * 100);
                });
            }
        });
        for (i, v) in results.iter().enumerate() {
            assert_eq!(*v, (i % 4) as u32 * 100);
        }
        assert_eq!(map.len(), 4);
    }

    #[test]
    fn for_each_and_clear() {
        let map: ShardedMap<u32, u32> = ShardedMap::new();
        for i in 0..100 {
            map.insert(i, i * 2);
        }
        let mut sum = 0u64;
        map.for_each(|_, v| sum += u64::from(*v));
        assert_eq!(sum, (0..100u64).map(|i| i * 2).sum());
        map.clear();
        assert!(map.is_empty());
    }
}
