//! The named-table catalogue — the embedded stand-in for the paper's MySQL
//! server.

use crate::error::StorageError;
use crate::table::{Schema, Table};
use crate::value::ValueRef;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A thread-safe catalogue of named tables.
///
/// Cloning the store is cheap and shares the underlying tables, matching
/// how every Esper engine task in the paper talks to the one MySQL server.
#[derive(Debug, Clone, Default)]
pub struct TableStore {
    inner: Arc<RwLock<HashMap<String, Table>>>,
}

impl TableStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table; fails if the name is taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<(), StorageError> {
        let mut guard = self.inner.write();
        if guard.contains_key(name) {
            return Err(StorageError::TableExists(name.to_string()));
        }
        guard.insert(name.to_string(), Table::new(name, schema));
        Ok(())
    }

    /// Creates the table if missing, otherwise verifies the schema matches.
    pub fn create_table_if_missing(&self, name: &str, schema: Schema) -> Result<(), StorageError> {
        let mut guard = self.inner.write();
        match guard.get(name) {
            Some(t) if t.schema() == &schema => Ok(()),
            Some(_) => Err(StorageError::SchemaMismatch {
                table: name.to_string(),
                reason: "existing table has a different schema".into(),
            }),
            None => {
                guard.insert(name.to_string(), Table::new(name, schema));
                Ok(())
            }
        }
    }

    /// Drops a table.
    pub fn drop_table(&self, name: &str) -> Result<(), StorageError> {
        self.inner
            .write()
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| StorageError::TableNotFound(name.to_string()))
    }

    /// Replaces a table's contents wholesale (used by the batch layer when
    /// publishing a fresh statistics snapshot).
    pub fn replace_table(&self, table: Table) {
        self.inner.write().insert(table.name().to_string(), table);
    }

    /// Whether the table exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.inner.read().contains_key(name)
    }

    /// Runs a closure with shared access to a table.
    pub fn with_table<R>(
        &self,
        name: &str,
        f: impl FnOnce(&Table) -> R,
    ) -> Result<R, StorageError> {
        let guard = self.inner.read();
        let t = guard.get(name).ok_or_else(|| StorageError::TableNotFound(name.to_string()))?;
        Ok(f(t))
    }

    /// Runs a closure with exclusive access to a table.
    pub fn with_table_mut<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> R,
    ) -> Result<R, StorageError> {
        let mut guard = self.inner.write();
        let t = guard.get_mut(name).ok_or_else(|| StorageError::TableNotFound(name.to_string()))?;
        Ok(f(t))
    }

    /// Inserts one row into the named table.
    pub fn insert(&self, table: &str, row: crate::table::Row) -> Result<(), StorageError> {
        self.with_table_mut(table, |t| t.insert(row))?
    }

    /// Inserts one row of borrowed cells into the named table (see
    /// [`Table::insert_ref`]).
    pub fn insert_ref(&self, table: &str, row: &[ValueRef<'_>]) -> Result<(), StorageError> {
        self.with_table_mut(table, |t| t.insert_ref(row))?
    }

    /// Total rows across all tables (used by tests and the monitor).
    pub fn total_rows(&self) -> usize {
        self.inner.read().values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use crate::value::{ColumnType, Value};

    fn schema() -> Schema {
        Schema::new(vec![Column::new("k", ColumnType::Str), Column::new("v", ColumnType::Float)])
            .unwrap()
    }

    #[test]
    fn create_insert_query() {
        let store = TableStore::new();
        store.create_table("stats", schema()).unwrap();
        store.insert("stats", vec![Value::from("a"), Value::Float(1.5)]).unwrap();
        let n = store.with_table("stats", |t| t.len()).unwrap();
        assert_eq!(n, 1);
    }

    #[test]
    fn duplicate_create_fails() {
        let store = TableStore::new();
        store.create_table("t", schema()).unwrap();
        assert!(matches!(store.create_table("t", schema()), Err(StorageError::TableExists(_))));
        // But the if-missing variant is idempotent for a matching schema.
        store.create_table_if_missing("t", schema()).unwrap();
        let other =
            Schema::new(vec![Column::new("x", ColumnType::Int)]).unwrap();
        assert!(store.create_table_if_missing("t", other).is_err());
    }

    #[test]
    fn missing_table_errors() {
        let store = TableStore::new();
        assert!(matches!(
            store.insert("nope", vec![Value::Null]),
            Err(StorageError::TableNotFound(_))
        ));
        assert!(store.drop_table("nope").is_err());
    }

    #[test]
    fn clones_share_state() {
        let store = TableStore::new();
        store.create_table("t", schema()).unwrap();
        let clone = store.clone();
        clone.insert("t", vec![Value::from("x"), Value::Float(2.0)]).unwrap();
        assert_eq!(store.total_rows(), 1);
    }

    #[test]
    fn replace_table_swaps_contents() {
        let store = TableStore::new();
        store.create_table("t", schema()).unwrap();
        store.insert("t", vec![Value::from("old"), Value::Float(0.0)]).unwrap();
        let mut fresh = Table::new("t", schema());
        fresh.insert(vec![Value::from("new"), Value::Float(1.0)]).unwrap();
        fresh.insert(vec![Value::from("new2"), Value::Float(2.0)]).unwrap();
        store.replace_table(fresh);
        assert_eq!(store.with_table("t", |t| t.len()).unwrap(), 2);
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let store = TableStore::new();
        store.create_table("t", schema()).unwrap();
        std::thread::scope(|s| {
            for i in 0..4 {
                let store = store.clone();
                s.spawn(move || {
                    for j in 0..100 {
                        store
                            .insert("t", vec![Value::from(format!("{i}-{j}")), Value::Float(0.0)])
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(store.total_rows(), 400);
    }
}
