//! Typed tables over a [`Backend`].
//!
//! CrowdData persists its `task` and `result` columns as rows of structured
//! data. A [`Table`] namespaces keys as `t/<table-name>/<row-key>` and
//! (de)serializes values as JSON — self-describing on disk, so a researcher
//! receiving a shared database file can inspect it with standard tools,
//! mirroring the examinability goal of the paper.

use crate::batch::Batch;
use crate::error::{Error, Result};
use crate::kv::Backend;
use serde::de::DeserializeOwned;
use serde::Serialize;
use std::marker::PhantomData;
use std::sync::Arc;

/// Separator between namespace components. Table names may not contain it.
const SEP: u8 = b'/';

/// A typed view over a slice of a [`Backend`]'s key space.
pub struct Table<T> {
    backend: Arc<dyn Backend>,
    prefix: Vec<u8>,
    name: String,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for Table<T> {
    fn clone(&self) -> Self {
        Table {
            backend: Arc::clone(&self.backend),
            prefix: self.prefix.clone(),
            name: self.name.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T: Serialize + DeserializeOwned> Table<T> {
    /// Binds a table named `name` onto `backend`.
    ///
    /// Returns an error if `name` contains the `/` namespace separator.
    pub fn new(backend: Arc<dyn Backend>, name: &str) -> Result<Self> {
        if name.as_bytes().contains(&SEP) {
            return Err(Error::InvalidArgument(format!(
                "table name {name:?} may not contain '/'"
            )));
        }
        let mut prefix = Vec::with_capacity(name.len() + 3);
        prefix.push(b't');
        prefix.push(SEP);
        prefix.extend_from_slice(name.as_bytes());
        prefix.push(SEP);
        Ok(Table { backend, prefix, name: name.to_string(), _marker: PhantomData })
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn full_key(&self, key: &[u8]) -> Vec<u8> {
        let mut k = Vec::with_capacity(self.prefix.len() + key.len());
        k.extend_from_slice(&self.prefix);
        k.extend_from_slice(key);
        k
    }

    /// Inserts or overwrites the row at `key`.
    pub fn put(&self, key: &[u8], row: &T) -> Result<()> {
        let value = serde_json::to_vec(row)?;
        self.backend.set(&self.full_key(key), &value)
    }

    /// Fetches the row at `key`.
    pub fn get(&self, key: &[u8]) -> Result<Option<T>> {
        match self.backend.get(&self.full_key(key))? {
            Some(bytes) => Ok(Some(serde_json::from_slice(&bytes)?)),
            None => Ok(None),
        }
    }

    /// The row at `key` as its stored bytes, undecoded.
    pub fn get_bytes(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.backend.get(&self.full_key(key))
    }

    /// True if a row exists at `key`.
    pub fn contains(&self, key: &[u8]) -> Result<bool> {
        self.backend.contains(&self.full_key(key))
    }

    /// Removes the row at `key` (no-op if absent).
    pub fn remove(&self, key: &[u8]) -> Result<()> {
        self.backend.delete(&self.full_key(key))
    }

    /// All `(row-key, row)` pairs, ascending by key.
    pub fn scan(&self) -> Result<Vec<(Vec<u8>, T)>> {
        self.scan_prefix(&[])
    }

    /// All rows whose key starts with `key_prefix`, ascending by key.
    pub fn scan_prefix(&self, key_prefix: &[u8]) -> Result<Vec<(Vec<u8>, T)>> {
        let full = self.full_key(key_prefix);
        let mut out = Vec::new();
        for (k, v) in self.backend.scan_prefix(&full)? {
            let row_key = k[self.prefix.len()..].to_vec();
            out.push((row_key, serde_json::from_slice(&v)?));
        }
        Ok(out)
    }

    /// Number of rows in the table (via a scan — intended for tests and
    /// small tables, not hot paths).
    pub fn len(&self) -> Result<usize> {
        Ok(self.backend.scan_prefix(&self.prefix)?.len())
    }

    /// True if the table holds no rows.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Inserts or overwrites many rows **atomically**: all of them are
    /// staged into one [`Batch`] and applied as a single log record, so a
    /// crash mid-write leaves either every row or none of them. This is
    /// the write path of the batched publish/collect pipeline — one
    /// durable write per platform round-trip instead of one per row.
    ///
    /// An empty iterator is a no-op that never touches the backend.
    pub fn put_many<'a, I>(&self, rows: I) -> Result<()>
    where
        T: 'a,
        I: IntoIterator<Item = (&'a [u8], &'a T)>,
    {
        let mut batch = Batch::new();
        for (key, row) in rows {
            self.stage_put(&mut batch, key, row)?;
        }
        if batch.is_empty() {
            return Ok(());
        }
        self.backend.apply_batch(batch)
    }

    /// [`put_many`](Table::put_many) for rows encoded already: each row's
    /// bytes are written as they are, in one atomic batch.
    pub fn put_many_bytes<'a>(
        &self,
        rows: impl IntoIterator<Item = (&'a [u8], &'a [u8])>,
    ) -> Result<()> {
        let mut batch = Batch::new();
        for (key, bytes) in rows {
            batch.set(self.full_key(key), bytes);
        }
        if batch.is_empty() {
            return Ok(());
        }
        self.backend.apply_batch(batch)
    }

    /// Stages a put into `batch` without touching the backend; apply with
    /// [`Backend::apply_batch`] for multi-row atomicity.
    pub fn stage_put(&self, batch: &mut Batch, key: &[u8], row: &T) -> Result<()> {
        let value = serde_json::to_vec(row)?;
        batch.set(self.full_key(key), value);
        Ok(())
    }

    /// Stages a removal into `batch`.
    pub fn stage_remove(&self, batch: &mut Batch, key: &[u8]) {
        batch.delete(self.full_key(key));
    }

    /// Stages the removal of every row whose key starts with `key_prefix`.
    /// Rows are found by key alone and never decoded, so a damaged row is
    /// removed like any other.
    pub fn stage_remove_prefix(&self, batch: &mut Batch, key_prefix: &[u8]) -> Result<()> {
        for (key, _) in self.backend.scan_prefix(&self.full_key(key_prefix))? {
            batch.delete(key);
        }
        Ok(())
    }

    /// The backend this table writes through (to apply staged batches).
    pub fn backend(&self) -> &Arc<dyn Backend> {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryStore;
    use serde::{Deserialize, Serialize};

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct TaskRow {
        id: u64,
        question: String,
        answers: Vec<String>,
    }

    fn table() -> Table<TaskRow> {
        Table::new(Arc::new(MemoryStore::new()), "tasks").unwrap()
    }

    fn row(id: u64) -> TaskRow {
        TaskRow { id, question: format!("is image {id} a cat?"), answers: vec!["Yes".into()] }
    }

    #[test]
    fn put_get_remove() {
        let t = table();
        assert_eq!(t.get(b"1").unwrap(), None);
        t.put(b"1", &row(1)).unwrap();
        assert_eq!(t.get(b"1").unwrap(), Some(row(1)));
        assert!(t.contains(b"1").unwrap());
        t.remove(b"1").unwrap();
        assert_eq!(t.get(b"1").unwrap(), None);
    }

    #[test]
    fn tables_are_isolated_namespaces() {
        let backend: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let tasks: Table<TaskRow> = Table::new(Arc::clone(&backend), "tasks").unwrap();
        let results: Table<TaskRow> = Table::new(Arc::clone(&backend), "results").unwrap();
        tasks.put(b"1", &row(1)).unwrap();
        assert_eq!(results.get(b"1").unwrap(), None);
        assert_eq!(results.len().unwrap(), 0);
        assert_eq!(tasks.len().unwrap(), 1);
    }

    #[test]
    fn name_with_separator_rejected() {
        let backend: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        assert!(Table::<TaskRow>::new(backend, "bad/name").is_err());
    }

    #[test]
    fn prefix_scan_on_row_keys() {
        let t = table();
        t.put(b"exp1/row1", &row(1)).unwrap();
        t.put(b"exp1/row2", &row(2)).unwrap();
        t.put(b"exp2/row1", &row(3)).unwrap();
        let hits = t.scan_prefix(b"exp1/").unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, b"exp1/row1".to_vec());
        assert_eq!(t.scan().unwrap().len(), 3);
    }

    #[test]
    fn staged_batch_is_atomic_unit() {
        let backend: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let t: Table<TaskRow> = Table::new(Arc::clone(&backend), "tasks").unwrap();
        let mut batch = Batch::new();
        t.stage_put(&mut batch, b"1", &row(1)).unwrap();
        t.stage_put(&mut batch, b"2", &row(2)).unwrap();
        t.stage_remove(&mut batch, b"1");
        assert_eq!(t.len().unwrap(), 0); // nothing applied yet
        backend.apply_batch(batch).unwrap();
        assert_eq!(t.get(b"1").unwrap(), None);
        assert_eq!(t.get(b"2").unwrap(), Some(row(2)));
    }

    #[test]
    fn put_many_writes_all_rows_in_one_batch() {
        let backend: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let t: Table<TaskRow> = Table::new(Arc::clone(&backend), "tasks").unwrap();
        let rows: Vec<(Vec<u8>, TaskRow)> =
            (0..5u64).map(|i| (format!("k{i}").into_bytes(), row(i))).collect();
        t.put_many(rows.iter().map(|(k, r)| (k.as_slice(), r))).unwrap();
        assert_eq!(t.len().unwrap(), 5);
        assert_eq!(t.get(b"k3").unwrap(), Some(row(3)));
        // Empty input is a no-op.
        t.put_many(std::iter::empty::<(&[u8], &TaskRow)>()).unwrap();
        assert_eq!(t.len().unwrap(), 5);
    }

    #[test]
    fn byte_rows_are_the_typed_rows_encoding() {
        let t = table();
        let bytes = serde_json::to_vec(&row(4)).unwrap();
        t.put_many_bytes([(&b"k"[..], &bytes[..])]).unwrap();
        assert_eq!(t.get(b"k").unwrap(), Some(row(4)));
        assert_eq!(t.get_bytes(b"k").unwrap(), Some(bytes));
        assert_eq!(t.get_bytes(b"missing").unwrap(), None);
        t.put_many_bytes(std::iter::empty()).unwrap();
        assert_eq!(t.len().unwrap(), 1);
    }

    #[test]
    fn corrupt_value_surfaces_codec_error() {
        let backend: Arc<dyn Backend> = Arc::new(MemoryStore::new());
        let t: Table<TaskRow> = Table::new(Arc::clone(&backend), "tasks").unwrap();
        backend.set(b"t/tasks/1", b"not json").unwrap();
        assert!(matches!(t.get(b"1"), Err(Error::Codec(_))));
    }

    #[test]
    fn is_empty_reflects_state() {
        let t = table();
        assert!(t.is_empty().unwrap());
        t.put(b"1", &row(1)).unwrap();
        assert!(!t.is_empty().unwrap());
    }
}
