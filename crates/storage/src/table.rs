//! Schemas, rows and in-memory tables.

use crate::error::StorageError;
use crate::value::{ColumnType, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

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

/// An in-memory table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Row>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table { name: name.into(), schema, rows: Vec::new() }
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
        self.rows.len()
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a row after validating it against the schema.
    pub fn insert(&mut self, row: Row) -> Result<(), StorageError> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::SchemaMismatch {
                table: self.name.clone(),
                reason: format!("expected {} values, got {}", self.schema.arity(), row.len()),
            });
        }
        for (v, c) in row.iter().zip(self.schema.columns()) {
            if !v.fits(c.ty) {
                return Err(StorageError::SchemaMismatch {
                    table: self.name.clone(),
                    reason: format!("value {v:?} does not fit column {} ({})", c.name, c.ty),
                });
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Iterates all rows.
    pub fn scan(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// Rows matching the predicate.
    pub fn select<'a>(
        &'a self,
        mut predicate: impl FnMut(&Row) -> bool + 'a,
    ) -> impl Iterator<Item = &'a Row> + 'a {
        self.rows.iter().filter(move |r| predicate(r))
    }

    /// Value of `column` in each row matching an equality filter on
    /// `key_column`. A tiny convenience used by point lookups.
    pub fn lookup(
        &self,
        key_column: &str,
        key: &Value,
        column: &str,
    ) -> Result<Vec<Value>, StorageError> {
        let ki = self.schema.index_of(key_column).ok_or_else(|| StorageError::ColumnNotFound {
            table: self.name.clone(),
            column: key_column.to_string(),
        })?;
        let ci = self.schema.index_of(column).ok_or_else(|| StorageError::ColumnNotFound {
            table: self.name.clone(),
            column: column.to_string(),
        })?;
        Ok(self
            .rows
            .iter()
            .filter(|r| &r[ki] == key)
            .map(|r| r[ci].clone())
            .collect())
    }

    /// Deletes rows matching the predicate, returning how many went away.
    pub fn delete(&mut self, mut predicate: impl FnMut(&Row) -> bool) -> usize {
        let before = self.rows.len();
        self.rows.retain(|r| !predicate(r));
        before - self.rows.len()
    }

    /// Removes all rows.
    pub fn truncate(&mut self) {
        self.rows.clear();
    }

    /// Direct row access (used by the CSV writer).
    pub fn rows(&self) -> &[Row] {
        &self.rows
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
        // Wrong type.
        assert!(t
            .insert(vec![Value::from("oops"), Value::Float(2.0), Value::from("x")])
            .is_err());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn nulls_fit_any_column() {
        let mut t = Table::new("t", schema());
        t.insert(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn select_and_lookup() {
        let mut t = Table::new("t", schema());
        for i in 0..10 {
            t.insert(vec![
                Value::Int(i),
                Value::Float(i as f64 * 0.5),
                Value::from(if i % 2 == 0 { "even" } else { "odd" }),
            ])
            .unwrap();
        }
        let evens: Vec<_> = t.select(|r| r[2] == Value::from("even")).collect();
        assert_eq!(evens.len(), 5);
        let means = t.lookup("id", &Value::Int(4), "mean").unwrap();
        assert_eq!(means, vec![Value::Float(2.0)]);
        assert!(t.lookup("nope", &Value::Int(1), "mean").is_err());
    }

    #[test]
    fn delete_and_truncate() {
        let mut t = Table::new("t", schema());
        for i in 0..6 {
            t.insert(vec![Value::Int(i), Value::Float(0.0), Value::from("a")]).unwrap();
        }
        let removed = t.delete(|r| r[0].as_int().unwrap() < 3);
        assert_eq!(removed, 3);
        assert_eq!(t.len(), 3);
        t.truncate();
        assert!(t.is_empty());
    }
}
