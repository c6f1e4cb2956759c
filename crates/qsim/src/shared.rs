//! The capped memo map behind the prediction caches.
//!
//! [`CappedMap`] is an append-only hash map behind one `Mutex`, with a
//! fixed entry cap. It backs the CRN [`TraceCache`](crate::TraceCache)
//! and the sprint-core prediction memo:
//!
//! - **First value wins.** An entry is never replaced: inserting a key
//!   that is already present returns the stored value. Every key type
//!   used with the map fully determines its value (the trace key
//!   fingerprints the arrival process, service distribution and seed;
//!   the memo key holds the condition and speedup, and each memo
//!   belongs to one model, whose profile and options are fixed), so a
//!   second value for a key would be bit-identical to the first anyway.
//! - **Capped, never evicting.** Once the map holds `cap` entries an
//!   insert of a new key is dropped and the caller keeps its own
//!   value. A full cache degrades to "compute every time", never to
//!   unbounded growth.
//! - **No lock held while computing.** Callers look up, compute on a
//!   miss, then insert, so a shared map serializes only the lookups.
//!
//! The map allocates as entries arrive, so an empty cache costs
//! nothing.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// An append-only map with an entry cap (see the module docs).
pub struct CappedMap<K, V> {
    cap: usize,
    map: Mutex<HashMap<K, V>>,
}

impl<K: Hash + Eq, V: Clone> CappedMap<K, V> {
    /// Creates an empty map that holds at most `cap` entries.
    pub fn new(cap: usize) -> CappedMap<K, V> {
        CappedMap {
            cap,
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The value stored for `key`, if any.
    pub fn get(&self, key: &K) -> Option<V> {
        self.lock().get(key).cloned()
    }

    /// Stores `key → value` unless the key is already present or the
    /// map is full. Returns the stored value for the key (the first
    /// one inserted), or `value` itself when the insert was dropped.
    pub fn insert(&self, key: K, value: V) -> V {
        let mut map = self.lock();
        let full = map.len() >= self.cap;
        match map.entry(key) {
            Entry::Occupied(e) => e.get().clone(),
            Entry::Vacant(_) if full => value,
            Entry::Vacant(e) => e.insert(value).clone(),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, V>> {
        // A panic cannot leave the map half-updated (every operation
        // is one `HashMap` call), so a poisoned lock is still sound.
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<K: Hash + Eq, V: Clone> fmt::Debug for CappedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CappedMap")
            .field("len", &self.len())
            .field("cap", &self.cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_get_round_trips() {
        let m: CappedMap<u64, u64> = CappedMap::new(64);
        assert!(m.get(&7).is_none());
        assert!(m.is_empty());
        assert_eq!(m.insert(7, 700), 700);
        assert_eq!(m.get(&7), Some(700));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn the_first_value_for_a_key_wins() {
        let m: CappedMap<u64, u64> = CappedMap::new(64);
        m.insert(7, 700);
        assert_eq!(m.insert(7, 999), 700);
        assert_eq!(m.get(&7), Some(700));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn a_full_map_drops_inserts_instead_of_evicting() {
        let m: CappedMap<u64, u64> = CappedMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        // The caller keeps its own value; nothing is stored or evicted.
        assert_eq!(m.insert(3, 30), 30);
        assert!(m.get(&3).is_none());
        assert_eq!(m.get(&1), Some(10));
        assert_eq!(m.get(&2), Some(20));
        assert_eq!(m.len(), 2);
        // A key already stored still answers from the map.
        assert_eq!(m.insert(1, 11), 10);
    }
}
