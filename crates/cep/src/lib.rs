//! A complex event processing engine with an EPL subset — the from-scratch
//! stand-in for Esper (Section 2.1.2 of the paper).
//!
//! The engine holds a set of *standing queries* (rules) written in an
//! SQL-like Event Processing Language. Incoming events update the windows
//! ("views") each rule monitors; whenever a rule's condition holds, the
//! newly produced rows are pushed to the rule's listener — and, for
//! `INSERT INTO` rules, fed back into the engine as fresh events so rules
//! can compose.
//!
//! The supported EPL subset covers everything the paper's generic rule
//! template (Listing 1) needs, and then some:
//!
//! ```text
//! [INSERT INTO out_stream]
//! SELECT * | expr [AS name], ...
//! FROM stream[.view]... AS alias [, stream[.view]... AS alias]...
//! [WHERE predicate]
//! [GROUP BY field, ...]
//! [HAVING predicate-with-aggregates]
//! ```
//!
//! Views: `std:lastevent()`, `std:groupwin(field)` (as a prefix to a data
//! window), `win:length(n)`, `win:length_batch(n)`, `win:time(seconds)`,
//! `win:keepall()`. Aggregations: `avg`, `sum`, `count`, `min`, `max`,
//! `stddev`. Expressions: arithmetic, comparisons, `AND`/`OR`/`NOT`.
//!
//! Module map: [`event`] (types and events) → [`lexer`]/[`parser`]/[`ast`]
//! (EPL front end) → [`plan`] (join planning: equi-key extraction so
//! multi-stream joins run as hash joins, not nested loops) → [`window`]
//! (view state) → [`expr`]/[`agg`] (evaluation) → [`engine`] (the standing
//! query runtime).

#![forbid(unsafe_code)]

pub mod agg;
pub mod ast;
pub mod engine;
pub mod error;
pub mod event;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod share;
pub mod window;

pub use engine::{
    Engine, EngineStats, Listener, PartitionState, StatementHandle, StatementId,
    StatementProfile, PROFILE_BUCKETS,
};
pub use error::CepError;
pub use event::{Event, EventType, FieldType, FieldValue};
pub use parser::parse_statement;
pub use plan::OutputRow;
pub use share::{ClusterInfo, SharingReport};
