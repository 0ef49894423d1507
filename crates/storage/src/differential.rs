//! Differential test: the columnar [`Table`] against the row store it
//! replaced, kept here as the reference. Both take the same arbitrary
//! schemas and rows (nulls in every column type, integers into float
//! columns, repeated strings, strings with commas, quotes and newlines,
//! rows that do not fit, rows given owned or borrowed), and must agree on
//! what they accept, on every value read back, on the CSV bytes and on two
//! SQL queries.

use crate::csv::write_table;
use crate::sql::{execute_rows, parse_select, query, QueryResult, RowCells};
use crate::table::{Column, Row, Schema, Table};
use crate::value::{ColumnType, Value, ValueRef};
use crate::StorageError;
use proptest::prelude::*;

/// The row store: one `Vec<Value>` per row. It widens an `Int` bound for a
/// `Float` column at insert, as the columnar table does; everything else
/// is the code the columnar table replaced.
struct RowTable {
    schema: Schema,
    rows: Vec<Row>,
}

impl RowTable {
    fn insert(&mut self, row: Row) -> Result<(), StorageError> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::SchemaMismatch {
                table: NAME.into(),
                reason: format!("expected {} values, got {}", self.schema.arity(), row.len()),
            });
        }
        for (v, c) in row.iter().zip(self.schema.columns()) {
            if !v.fits(c.ty) {
                return Err(StorageError::SchemaMismatch {
                    table: NAME.into(),
                    reason: format!("value {v:?} does not fit column {} ({})", c.name, c.ty),
                });
            }
        }
        let widened = row.into_iter().zip(self.schema.columns()).map(|(v, c)| match (v, c.ty) {
            (Value::Int(i), ColumnType::Float) => Value::Float(i as f64),
            (v, _) => v,
        });
        self.rows.push(widened.collect());
        Ok(())
    }

    /// The CSV writer as it was: one rendered field per cell, joined.
    fn csv(&self) -> Vec<u8> {
        let field = |v: &Value| match v {
            Value::Int(v) => v.to_string(),
            Value::Float(v) => format!("{v}"),
            Value::Str(v) if v.contains(',') || v.contains('"') || v.contains('\n') => {
                format!("\"{}\"", v.replace('"', "\"\""))
            }
            Value::Str(v) => v.clone(),
            Value::Bool(v) => v.to_string(),
            Value::Null => String::new(),
        };
        let header: Vec<&str> = self.schema.columns().iter().map(|c| c.name.as_str()).collect();
        let mut out = format!("{}\n", header.join(","));
        for row in &self.rows {
            let fields: Vec<String> = row.iter().map(field).collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out.into_bytes()
    }

    fn query(&self, sql: &str) -> Result<QueryResult, StorageError> {
        let stmt = parse_select(sql)?;
        execute_rows(&stmt, NAME, &self.schema, self.rows.iter().map(Vec::as_slice))
    }
}

impl<'a> RowCells<'a> for &'a [Value] {
    fn cell(&self, column: usize) -> ValueRef<'a> {
        ValueRef::from(&self[column])
    }
}

const NAME: &str = "statistics_delay";

/// Column names: Listing 2's, so the query runs verbatim whenever a
/// schema holds them, and one more.
const NAMES: [&str; 7] =
    ["areaId", "currentHour", "dateType", "attr_mean", "attr_stdv", "sample_count", "note"];

/// Strings drawn again and again, so the dictionary sees repeats; some
/// need CSV quoting.
const POOL: [&str; 8] = ["", "R1", "S42", "weekday", "a,b", "say \"hi\"", "two\nlines", "R1 "];

const FLOATS: [f64; 6] = [0.0, -0.0, f64::NAN, f64::INFINITY, 1.0e300, -2.5];

const TYPES: [ColumnType; 4] =
    [ColumnType::Int, ColumnType::Float, ColumnType::Str, ColumnType::Bool];

/// Every generated cell: a selector tag and one raw value of each kind.
type RawCell = (u8, i64, f64, usize, String);

/// A schema: Listing 2's columns with their statistics types, or random
/// names and types (a repeated name is dropped).
fn schema_of(statistics: bool, columns: &[(usize, usize)]) -> Schema {
    if statistics {
        return crate::thresholds::statistics_schema();
    }
    let mut out: Vec<Column> = Vec::new();
    for &(name, ty) in columns {
        if out.iter().all(|c| c.name != NAMES[name]) {
            out.push(Column::new(NAMES[name], TYPES[ty]));
        }
    }
    Schema::new(out).expect("names are distinct and at least one column is drawn")
}

/// One cell for a column of type `ty`: mostly a fitting value, sometimes
/// an integer widening into a float column, `Null` (a tag below `nulls`,
/// so a case with `nulls` 0 has none) or a value that does not fit (tag 3).
fn cell_of(ty: ColumnType, nulls: u8, (tag, i, f, s, text): &RawCell) -> Value {
    match (tag, ty) {
        (t, _) if *t < nulls => Value::Null,
        (3, ColumnType::Int) => Value::Bool(true),
        (3, ColumnType::Float) => Value::from("x"),
        (3, ColumnType::Str) => Value::Int(*i),
        (3, ColumnType::Bool) => Value::Float(*f),
        (_, ColumnType::Int) => Value::Int(*i),
        (4..=9, ColumnType::Float) => Value::Int(*i),
        (10..=13, ColumnType::Float) => Value::Float(FLOATS[*s % FLOATS.len()]),
        (_, ColumnType::Float) => Value::Float(*f),
        (4..=25, ColumnType::Str) => Value::from(POOL[*s]),
        (_, ColumnType::Str) => Value::from(text.as_str()),
        (_, ColumnType::Bool) => Value::Bool(i % 2 == 0),
    }
}

/// A value compared by its bits (NaN equals itself, −0 differs from 0).
fn key(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("Float({:016x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn result_key(r: &Result<QueryResult, StorageError>) -> String {
    match r {
        Ok(r) => {
            let rows: Vec<Vec<String>> =
                r.rows.iter().map(|row| row.iter().map(key).collect()).collect();
            format!("{:?} {rows:?}", r.columns)
        }
        Err(e) => format!("error {e:?}"),
    }
}

/// A `WHERE` query on one column, its literal typed by that column.
fn where_query(schema: &Schema, column: usize, op: usize, lit: &RawCell) -> String {
    let c = &schema.columns()[column % schema.arity()];
    let op = ["=", "!=", "<>", "<", "<=", ">", ">="][op];
    let lit = match c.ty {
        // The SQL lexer takes no quote inside a literal.
        ColumnType::Str => format!("'{}'", POOL[lit.3].replace('"', "")),
        ColumnType::Int => lit.1.unsigned_abs().to_string(),
        ColumnType::Float | ColumnType::Bool => format!("{}", lit.2.abs()),
    };
    format!("SELECT * FROM {NAME} WHERE {} {op} {lit} AND {} = {}", c.name, c.name, c.name)
}

const LISTING_2: &str = "SELECT DISTINCT attr_mean + 1.5*attr_stdv as thresholdLocation, \
                         currentHour, dateType, areaId FROM statistics_delay";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn the_column_store_agrees_with_the_row_store(
        statistics in any::<bool>(),
        nulls in 0u8..4,
        columns in prop::collection::vec((0usize..NAMES.len(), 0usize..TYPES.len()), 1..=6),
        rows in prop::collection::vec(
            prop::collection::vec(
                (0u8..40, -1_000i64..1_000, -1.0e6f64..1.0e6, 0usize..POOL.len(), ".{0,4}"),
                7,
            ),
            0..40,
        ),
        sql in (
            0usize..7,
            0usize..7,
            (0u8..40, -1_000i64..1_000, 0.0f64..100.0, 0usize..POOL.len(), ".{0,1}"),
        ),
    ) {
        let schema = schema_of(statistics, &columns);
        let mut columnar = Table::new(NAME, schema.clone());
        let mut reference = RowTable { schema: schema.clone(), rows: Vec::new() };
        for (i, raw) in rows.iter().enumerate() {
            // Tag 39 in the first cell drops a cell: a row of the wrong arity.
            let arity = if raw[0].0 == 39 { schema.arity() - 1 } else { schema.arity() };
            let row: Row = schema.columns()[..arity]
                .iter()
                .zip(raw)
                .map(|(c, cell)| cell_of(c.ty, nulls, cell))
                .collect();
            // Every other row goes in as borrowed cells.
            let a = if i % 2 == 0 {
                columnar.insert(row.clone())
            } else {
                columnar.insert_ref(&row.iter().map(ValueRef::from).collect::<Vec<_>>())
            };
            let b = reference.insert(row);
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }

        prop_assert_eq!(columnar.len(), reference.rows.len());
        let read: Vec<Vec<String>> =
            columnar.scan().map(|r| r.iter().map(|v| key(&v.to_value())).collect()).collect();
        let expected: Vec<Vec<String>> =
            reference.rows.iter().map(|r| r.iter().map(key).collect()).collect();
        prop_assert_eq!(read, expected);

        let mut bytes = Vec::new();
        write_table(&columnar, &mut bytes).unwrap();
        let expected = reference.csv();
        prop_assert_eq!(String::from_utf8_lossy(&bytes), String::from_utf8_lossy(&expected));

        let (column, op, lit) = sql;
        for sql in [LISTING_2.to_string(), where_query(&schema, column, op, &lit)] {
            prop_assert_eq!(
                result_key(&query(&columnar, &sql)),
                result_key(&reference.query(&sql)),
                "{}", sql
            );
        }
    }
}
