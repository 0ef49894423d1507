//! A latency-charging wrapper around [`TableStore`].
//!
//! The paper's storage medium is a MySQL *server*: every query pays a
//! client↔server round trip. That round trip is exactly what makes the
//! *Join with Database* threshold-retrieval method an order of magnitude
//! slower than the *new Esper stream* method in Figure 10. Our embedded
//! store has no network, so this wrapper charges a configurable per-query
//! latency (busy-wait, so the cost lands on the calling executor thread the
//! same way a synchronous JDBC call would) and counts the queries issued.

use crate::error::StorageError;
use crate::store::TableStore;
use crate::table::Table;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A remote-database facade over a [`TableStore`].
#[derive(Debug, Clone)]
pub struct RemoteDb {
    store: TableStore,
    round_trip: Duration,
    queries: Arc<AtomicU64>,
}

impl RemoteDb {
    /// Wraps `store`, charging `round_trip` for every query.
    pub fn new(store: TableStore, round_trip: Duration) -> Self {
        RemoteDb { store, round_trip, queries: Arc::new(AtomicU64::new(0)) }
    }

    /// The configured round-trip latency.
    pub fn round_trip(&self) -> Duration {
        self.round_trip
    }

    /// Number of queries issued so far.
    pub fn query_count(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Shared access to the underlying store, *without* paying the round
    /// trip. Use for administrative work (table creation, snapshots).
    pub fn local(&self) -> &TableStore {
        &self.store
    }

    /// Executes one query against a table, charging the round trip.
    pub fn query<R>(&self, table: &str, f: impl FnOnce(&Table) -> R) -> Result<R, StorageError> {
        self.charge();
        self.store.with_table(table, f)
    }

    fn charge(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if self.round_trip.is_zero() {
            return;
        }
        // Busy-wait: sleep() rounds up to scheduler granularity (~1 ms),
        // which would distort sub-millisecond round trips.
        let start = Instant::now();
        while start.elapsed() < self.round_trip {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, Schema};
    use crate::value::{ColumnType, Value};

    fn store_with_rows(n: i64) -> TableStore {
        let store = TableStore::new();
        let schema = Schema::new(vec![Column::new("v", ColumnType::Int)]).unwrap();
        store.create_table("t", schema).unwrap();
        for i in 0..n {
            store.insert("t", vec![Value::Int(i)]).unwrap();
        }
        store
    }

    #[test]
    fn charges_round_trip_per_query() {
        let db = RemoteDb::new(store_with_rows(1), Duration::from_micros(300));
        let start = Instant::now();
        for _ in 0..10 {
            db.query("t", |t| t.len()).unwrap();
        }
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_micros(3000), "charged only {elapsed:?}");
        assert_eq!(db.query_count(), 10);
    }

    #[test]
    fn local_access_is_free() {
        let db = RemoteDb::new(store_with_rows(5), Duration::from_millis(50));
        let n = db.local().with_table("t", |t| t.len()).unwrap();
        assert_eq!(n, 5);
        assert_eq!(db.query_count(), 0);
    }

    #[test]
    fn zero_round_trip_supported() {
        let db = RemoteDb::new(store_with_rows(2), Duration::ZERO);
        assert_eq!(db.query("t", |t| t.len()).unwrap(), 2);
        assert_eq!(db.query_count(), 1);
    }

    #[test]
    fn errors_still_charge() {
        let db = RemoteDb::new(TableStore::new(), Duration::ZERO);
        assert!(db.query("missing", |t| t.len()).is_err());
        assert_eq!(db.query_count(), 1);
    }
}
