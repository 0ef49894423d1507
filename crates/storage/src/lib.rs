//! Storage medium for the traffic management system (the paper's "MySQL
//! server", Section 3.2).
//!
//! The batch layer writes per-location statistics here and the stream layer
//! reads them back as rule thresholds. The paper notes the medium is
//! replaceable (e.g. by Cassandra); this crate provides the same contract
//! as an embedded, typed, thread-safe table store:
//!
//! * [`value`] — dynamically typed cell values and column types;
//! * [`table`] — schemas, rows and in-memory tables stored by column,
//!   each string once in a per-table dictionary;
//! * [`store`] — a named-table catalogue behind a lock (the "server");
//! * [`remote`] — a wrapper charging a configurable round-trip latency per
//!   query, modelling the client↔server hop that makes the paper's
//!   *Join with Database* threshold-retrieval method slow (Figure 10);
//! * [`thresholds`] — the statistics tables and the threshold query of
//!   Listing 2: `SELECT DISTINCT attr_mean + s*attr_stdv, currentHour,
//!   dateType, areaId FROM statistics_<attribute>`;
//! * [`csv`] — CSV persistence for tables.

pub mod csv;
#[cfg(test)]
mod differential;
pub mod error;
pub mod remote;
pub mod sql;
pub mod store;
pub mod table;
pub mod thresholds;
pub mod value;

pub use error::StorageError;
pub use remote::RemoteDb;
pub use sql::{parse_select, query, QueryResult};
pub use store::TableStore;
pub use table::{Column, Row, RowRef, Schema, Table};
pub use thresholds::{DayType, StatRecord, ThresholdQuery, ThresholdRow, ThresholdStore};
pub use value::{ColumnType, Value, ValueRef};
