//! Volatile [`Backend`] used by tests and benchmarks.
//!
//! Shares the scan/batch semantics of [`DiskStore`](crate::kv::DiskStore)
//! but keeps everything in a `BTreeMap`. Useful for measuring the *cost* of
//! durability (experiment E9) and for exercising CrowdData logic without
//! touching the filesystem.

use crate::batch::{Batch, Op};
use crate::error::Result;
use crate::kv::{scan_map_prefix, Backend, StoreStats};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// In-memory store with the same semantics as [`DiskStore`]
/// minus durability.
///
/// [`DiskStore`]: crate::kv::DiskStore
#[derive(Default)]
pub struct MemoryStore {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    map: BTreeMap<Vec<u8>, Vec<u8>>,
    writes: u64,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for MemoryStore {
    fn set(&self, key: &[u8], value: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.map.insert(key.to_vec(), value.to_vec());
        inner.writes += 1;
        Ok(())
    }

    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.inner.lock().map.get(key).cloned())
    }

    fn delete(&self, key: &[u8]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.map.remove(key);
        inner.writes += 1;
        Ok(())
    }

    fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        Ok(scan_map_prefix(&self.inner.lock().map, prefix, Vec::clone))
    }

    fn apply_batch(&self, batch: Batch) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.writes += 1;
        for op in batch.into_ops() {
            match op {
                Op::Set { key, value } => {
                    inner.map.insert(key, value);
                }
                Op::Delete { key } => {
                    inner.map.remove(&key);
                }
            }
        }
        Ok(())
    }

    fn contains(&self, key: &[u8]) -> Result<bool> {
        Ok(self.inner.lock().map.contains_key(key))
    }

    fn flush(&self) -> Result<()> {
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        StoreStats {
            live_keys: inner.map.len(),
            log_bytes: 0,
            segments: 0,
            writes: inner.writes,
            garbage_ratio: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_roundtrip() {
        let s = MemoryStore::new();
        s.set(b"k", b"v").unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v"[..]));
        s.delete(b"k").unwrap();
        assert_eq!(s.get(b"k").unwrap(), None);
    }

    #[test]
    fn scan_prefix_matches_disk_semantics() {
        let s = MemoryStore::new();
        for k in ["a/1", "a/2", "b/1"] {
            s.set(k.as_bytes(), b"").unwrap();
        }
        let hits = s.scan_prefix(b"a/").unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn batch_applies_in_order() {
        let s = MemoryStore::new();
        let mut b = Batch::new();
        b.set(b"k".to_vec(), b"1".to_vec());
        b.delete(b"k".to_vec());
        b.set(b"k".to_vec(), b"2".to_vec());
        s.apply_batch(b).unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"2"[..]));
    }

    #[test]
    fn stats_and_dump() {
        let s = MemoryStore::new();
        s.set(b"a", b"1").unwrap();
        s.set(b"b", b"2").unwrap();
        let stats = s.stats();
        assert_eq!(stats.live_keys, 2);
        assert_eq!(stats.log_bytes, 0);
    }

    #[test]
    fn flush_is_noop() {
        let s = MemoryStore::new();
        s.flush().unwrap();
    }
}
