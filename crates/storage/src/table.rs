//! Schemas, rows and in-memory tables.
//!
//! A table is stored by column: one typed vector per column (`i64`, `f64`,
//! `bool`, or `u32` codes into the table's string dictionary, which holds
//! each distinct string once) plus a null mask. A stored row costs its
//! fixed-width cells and nothing else; readers see it through a
//! [`RowRef`], whose cells borrow the dictionary's strings.

use crate::error::StorageError;
use crate::value::{ColumnType, Value, ValueRef};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: ColumnType) -> Self {
        Column { name: name.into(), ty }
    }
}

/// An ordered set of columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    columns: Vec<Column>,
    by_name: HashMap<String, usize>,
}

impl Schema {
    /// Builds a schema, rejecting empty or duplicated column lists.
    pub fn new(columns: Vec<Column>) -> Result<Self, StorageError> {
        if columns.is_empty() {
            return Err(StorageError::InvalidSchema { reason: "no columns".into() });
        }
        let mut by_name = HashMap::with_capacity(columns.len());
        for (i, c) in columns.iter().enumerate() {
            if by_name.insert(c.name.clone(), i).is_some() {
                return Err(StorageError::InvalidSchema {
                    reason: format!("duplicate column name {:?}", c.name),
                });
            }
        }
        Ok(Schema { columns, by_name })
    }

    /// The columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.by_name.get(name).copied()
    }
}

/// A row of values; validated against the schema at insert time.
pub type Row = Vec<Value>;

/// An in-memory table, stored by column.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// One per schema column, in order; each holds `len` cells.
    columns: Vec<ColumnData>,
    dictionary: Dictionary,
    len: usize,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let columns = schema.columns().iter().map(|c| ColumnData::new(c.ty)).collect();
        Table { name: name.into(), schema, columns, dictionary: Dictionary::default(), len: 0 }
    }

    /// The table's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a row after validating it against the schema.
    pub fn insert(&mut self, row: Row) -> Result<(), StorageError> {
        self.insert_cells(row.iter().map(ValueRef::from))
    }

    /// As [`Self::insert`], with the row's strings borrowed: a string the
    /// dictionary already holds is stored as its code, so such a row
    /// allocates nothing beyond its columns' amortised growth.
    pub fn insert_ref(&mut self, row: &[ValueRef<'_>]) -> Result<(), StorageError> {
        self.insert_cells(row.iter().copied())
    }

    /// Validates every cell before storing any, so a rejected row leaves
    /// the table as it was. An `Int` bound for a `Float` column is stored
    /// widened.
    fn insert_cells<'v, I>(&mut self, row: I) -> Result<(), StorageError>
    where
        I: ExactSizeIterator<Item = ValueRef<'v>> + Clone,
    {
        if row.len() != self.schema.arity() {
            return Err(StorageError::SchemaMismatch {
                table: self.name.clone(),
                reason: format!("expected {} values, got {}", self.schema.arity(), row.len()),
            });
        }
        for (v, c) in row.clone().zip(self.schema.columns()) {
            if !v.fits(c.ty) {
                return Err(StorageError::SchemaMismatch {
                    table: self.name.clone(),
                    reason: format!("value {v:?} does not fit column {} ({})", c.name, c.ty),
                });
            }
        }
        for (v, column) in row.zip(&mut self.columns) {
            column.push(self.len, v, &mut self.dictionary);
        }
        self.len += 1;
        Ok(())
    }

    /// Iterates all rows, in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.len).map(move |row| RowRef { table: self, row })
    }
}

/// One row of a [`Table`], read in place.
#[derive(Clone, Copy)]
pub struct RowRef<'a> {
    table: &'a Table,
    row: usize,
}

impl<'a> RowRef<'a> {
    /// The cell in column `column` (a schema index).
    ///
    /// # Panics
    /// If `column` is not below the schema's arity.
    pub fn get(&self, column: usize) -> ValueRef<'a> {
        self.table.columns[column].get(self.row, &self.table.dictionary)
    }

    /// The row's cells, in schema order.
    pub fn iter(&self) -> impl Iterator<Item = ValueRef<'a>> + 'a {
        let row = *self;
        (0..self.table.columns.len()).map(move |c| row.get(c))
    }
}

/// A table's strings, each held once and named by a dense code.
#[derive(Debug, Clone, Default)]
struct Dictionary {
    strings: Vec<Arc<str>>,
    codes: HashMap<Arc<str>, u32>,
}

impl Dictionary {
    /// The code of `s`, adding it on first sight.
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.codes.get(s) {
            return code;
        }
        let code = u32::try_from(self.strings.len()).expect("fewer than 2^32 distinct strings");
        let s: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&s));
        self.codes.insert(s, code);
        code
    }
}

/// One column's cells.
#[derive(Debug, Clone)]
enum Cells {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    /// Dictionary codes.
    Str(Vec<u32>),
}

/// A column: its typed cells and its null mask.
#[derive(Debug, Clone)]
struct ColumnData {
    /// A null row holds a zero placeholder here, so row `r` is cell `r`.
    cells: Cells,
    /// Bit `r % 64` of word `r / 64` is set when row `r` is null. Words
    /// past the end read as zero: a column that never held a null keeps
    /// no mask at all.
    nulls: Vec<u64>,
}

impl ColumnData {
    fn new(ty: ColumnType) -> Self {
        let cells = match ty {
            ColumnType::Int => Cells::Int(Vec::new()),
            ColumnType::Float => Cells::Float(Vec::new()),
            ColumnType::Bool => Cells::Bool(Vec::new()),
            ColumnType::Str => Cells::Str(Vec::new()),
        };
        ColumnData { cells, nulls: Vec::new() }
    }

    /// Appends row `row`'s cell, which the caller has checked fits.
    fn push(&mut self, row: usize, v: ValueRef<'_>, dictionary: &mut Dictionary) {
        match (&mut self.cells, v) {
            (Cells::Int(c), ValueRef::Int(x)) => c.push(x),
            (Cells::Float(c), ValueRef::Float(x)) => c.push(x),
            (Cells::Float(c), ValueRef::Int(x)) => c.push(x as f64),
            (Cells::Bool(c), ValueRef::Bool(x)) => c.push(x),
            (Cells::Str(c), ValueRef::Str(s)) => c.push(dictionary.intern(s)),
            (cells, ValueRef::Null) => {
                match cells {
                    Cells::Int(c) => c.push(0),
                    Cells::Float(c) => c.push(0.0),
                    Cells::Bool(c) => c.push(false),
                    Cells::Str(c) => c.push(0),
                }
                let word = row / 64;
                if self.nulls.len() <= word {
                    self.nulls.resize(word + 1, 0);
                }
                self.nulls[word] |= 1 << (row % 64);
            }
            (_, v) => unreachable!("insert checked that {v:?} fits its column"),
        }
    }

    fn get<'a>(&self, row: usize, dictionary: &'a Dictionary) -> ValueRef<'a> {
        if self.nulls.get(row / 64).is_some_and(|w| (w >> (row % 64)) & 1 == 1) {
            return ValueRef::Null;
        }
        match &self.cells {
            Cells::Int(c) => ValueRef::Int(c[row]),
            Cells::Float(c) => ValueRef::Float(c[row]),
            Cells::Bool(c) => ValueRef::Bool(c[row]),
            Cells::Str(c) => ValueRef::Str(&dictionary.strings[c[row] as usize]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("mean", ColumnType::Float),
            Column::new("area", ColumnType::Str),
        ])
        .unwrap()
    }

    #[test]
    fn schema_rejects_duplicates_and_empty() {
        assert!(Schema::new(vec![]).is_err());
        assert!(Schema::new(vec![
            Column::new("a", ColumnType::Int),
            Column::new("a", ColumnType::Float),
        ])
        .is_err());
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut t = Table::new("t", schema());
        assert!(t.insert(vec![Value::Int(1), Value::Float(2.0), Value::from("x")]).is_ok());
        // Int widens into the float column.
        assert!(t.insert(vec![Value::Int(1), Value::Int(2), Value::from("x")]).is_ok());
        // Wrong arity.
        assert!(t.insert(vec![Value::Int(1)]).is_err());
        // Wrong type, after a cell that fits: nothing of the row is kept.
        assert!(t
            .insert(vec![Value::Int(7), Value::Float(2.0), Value::Bool(true)])
            .is_err());
        assert!(t
            .insert(vec![Value::from("oops"), Value::Float(2.0), Value::from("x")])
            .is_err());
        assert_eq!(t.len(), 2);
        let rows: Vec<Row> = t.scan().map(|r| r.iter().map(ValueRef::to_value).collect()).collect();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Float(2.0), Value::from("x")],
                vec![Value::Int(1), Value::Float(2.0), Value::from("x")],
            ],
            "the widened cell reads back as a float"
        );
    }

    #[test]
    fn nulls_fit_any_column() {
        let mut t = Table::new("t", schema());
        t.insert(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn nulls_read_back_where_they_were_stored() {
        let mut t = Table::new("t", schema());
        for i in 0..200 {
            let area = if i % 3 == 0 { Value::Null } else { Value::from("a") };
            let mean = if i == 130 { Value::Null } else { Value::Float(f64::from(i)) };
            t.insert(vec![Value::Int(i64::from(i)), mean, area]).unwrap();
        }
        for (i, row) in t.scan().enumerate() {
            assert_eq!(row.get(0), ValueRef::Int(i as i64));
            assert_eq!(row.get(1).as_float().is_err(), i == 130, "row {i}");
            assert_eq!(row.get(2) == ValueRef::Null, i % 3 == 0, "row {i}");
        }
    }

    #[test]
    fn the_dictionary_holds_each_string_once() {
        let mut t = Table::new("t", schema());
        for i in 0..100 {
            let area = ["north", "south", ""][i % 3];
            t.insert_ref(&[ValueRef::Int(i as i64), ValueRef::Float(0.5), ValueRef::Str(area)])
                .unwrap();
        }
        assert_eq!(t.dictionary.strings.len(), 3);
        let areas: Vec<&str> = t.scan().take(4).map(|r| r.get(2).as_str().unwrap()).collect();
        assert_eq!(areas, ["north", "south", "", "north"]);
    }
}
