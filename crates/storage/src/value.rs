//! Dynamically typed cell values.

use crate::error::StorageError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Type of a table column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (integer values widen in).
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl fmt::Display for ColumnType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Str => "STR",
            ColumnType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

/// A dynamically typed cell value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// An integer cell.
    Int(i64),
    /// A float cell.
    Float(f64),
    /// A string cell.
    Str(String),
    /// A boolean cell.
    Bool(bool),
    /// An absent value (fits any column).
    Null,
}

impl Value {
    /// The column type this value belongs to, `None` for `Null`.
    pub fn column_type(&self) -> Option<ColumnType> {
        ValueRef::from(self).column_type()
    }

    /// Whether this value may be stored in a column of the given type.
    /// `Null` is storable anywhere; `Int` widens into `Float` columns.
    pub fn fits(&self, ty: ColumnType) -> bool {
        ValueRef::from(self).fits(ty)
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Result<i64, StorageError> {
        ValueRef::from(self).as_int()
    }

    /// Float accessor; integers widen.
    pub fn as_float(&self) -> Result<f64, StorageError> {
        ValueRef::from(self).as_float()
    }

    /// String accessor.
    pub fn as_str(&self) -> Result<&str, StorageError> {
        ValueRef::from(self).as_str()
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Result<bool, StorageError> {
        ValueRef::from(self).as_bool()
    }

    /// Renders the value for CSV output. Strings are quoted only when they
    /// contain separators; `Null` renders as the empty field.
    pub fn to_csv_field(&self) -> String {
        ValueRef::from(self).csv().to_string()
    }

    /// Parses a CSV field into a value of the given column type. Empty
    /// fields parse to `Null`.
    pub fn parse_csv_field(field: &str, ty: ColumnType) -> Result<Value, StorageError> {
        if field.is_empty() {
            return Ok(Value::Null);
        }
        match ty {
            ColumnType::Int => field.parse::<i64>().map(Value::Int).map_err(|e| {
                StorageError::TypeError { expected: "Int", got: format!("{field:?} ({e})") }
            }),
            ColumnType::Float => field.parse::<f64>().map(Value::Float).map_err(|e| {
                StorageError::TypeError { expected: "Float", got: format!("{field:?} ({e})") }
            }),
            ColumnType::Str => Ok(Value::Str(field.to_string())),
            ColumnType::Bool => match field {
                "true" | "1" => Ok(Value::Bool(true)),
                "false" | "0" => Ok(Value::Bool(false)),
                other => Err(StorageError::TypeError {
                    expected: "Bool",
                    got: format!("{other:?}"),
                }),
            },
        }
    }
}

/// A cell as a table reads it: a [`Value`] whose string is borrowed (from
/// the table's dictionary, or from the caller at insert), so reading or
/// storing a row copies no text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// An integer cell.
    Int(i64),
    /// A float cell.
    Float(f64),
    /// A string cell.
    Str(&'a str),
    /// A boolean cell.
    Bool(bool),
    /// An absent value (fits any column).
    Null,
}

impl<'a> ValueRef<'a> {
    /// The column type this value belongs to, `None` for `Null`.
    pub fn column_type(self) -> Option<ColumnType> {
        match self {
            ValueRef::Int(_) => Some(ColumnType::Int),
            ValueRef::Float(_) => Some(ColumnType::Float),
            ValueRef::Str(_) => Some(ColumnType::Str),
            ValueRef::Bool(_) => Some(ColumnType::Bool),
            ValueRef::Null => None,
        }
    }

    /// Whether this value may be stored in a column of the given type.
    /// `Null` is storable anywhere; `Int` widens into `Float` columns.
    pub fn fits(self, ty: ColumnType) -> bool {
        match (self, ty) {
            (ValueRef::Null, _) => true,
            (ValueRef::Int(_), ColumnType::Float) => true,
            (v, t) => v.column_type() == Some(t),
        }
    }

    /// Integer accessor.
    pub fn as_int(self) -> Result<i64, StorageError> {
        match self {
            ValueRef::Int(v) => Ok(v),
            other => Err(StorageError::TypeError { expected: "Int", got: format!("{other:?}") }),
        }
    }

    /// Float accessor; integers widen.
    pub fn as_float(self) -> Result<f64, StorageError> {
        match self {
            ValueRef::Float(v) => Ok(v),
            ValueRef::Int(v) => Ok(v as f64),
            other => Err(StorageError::TypeError { expected: "Float", got: format!("{other:?}") }),
        }
    }

    /// String accessor.
    pub fn as_str(self) -> Result<&'a str, StorageError> {
        match self {
            ValueRef::Str(v) => Ok(v),
            other => Err(StorageError::TypeError { expected: "Str", got: format!("{other:?}") }),
        }
    }

    /// Boolean accessor.
    pub fn as_bool(self) -> Result<bool, StorageError> {
        match self {
            ValueRef::Bool(v) => Ok(v),
            other => Err(StorageError::TypeError { expected: "Bool", got: format!("{other:?}") }),
        }
    }

    /// The owned value (copies a string).
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Str(v) => Value::Str(v.to_string()),
            ValueRef::Bool(v) => Value::Bool(v),
            ValueRef::Null => Value::Null,
        }
    }

    /// The value's CSV field, rendered as it is written (see
    /// [`Value::to_csv_field`]).
    pub fn csv(self) -> impl fmt::Display + 'a {
        CsvField(self)
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Int(v) => ValueRef::Int(*v),
            Value::Float(v) => ValueRef::Float(*v),
            Value::Str(v) => ValueRef::Str(v),
            Value::Bool(v) => ValueRef::Bool(*v),
            Value::Null => ValueRef::Null,
        }
    }
}

/// A value rendered as a CSV field.
struct CsvField<'a>(ValueRef<'a>);

impl fmt::Display for CsvField<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            ValueRef::Str(v) if v.contains([',', '"', '\n']) => {
                f.write_str("\"")?;
                for (i, part) in v.split('"').enumerate() {
                    if i > 0 {
                        f.write_str("\"\"")?;
                    }
                    f.write_str(part)?;
                }
                f.write_str("\"")
            }
            ValueRef::Null => Ok(()),
            // Full round-trip precision for floats.
            v => fmt::Display::fmt(&v, f),
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Int(v) => write!(f, "{v}"),
            ValueRef::Float(v) => write!(f, "{v}"),
            ValueRef::Str(v) => write!(f, "{v}"),
            ValueRef::Bool(v) => write!(f, "{v}"),
            ValueRef::Null => write!(f, "NULL"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&ValueRef::from(self), f)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_matrix() {
        assert!(Value::Int(1).fits(ColumnType::Int));
        assert!(Value::Int(1).fits(ColumnType::Float), "ints widen to float");
        assert!(!Value::Float(1.0).fits(ColumnType::Int));
        assert!(Value::Null.fits(ColumnType::Str));
        assert!(!Value::Bool(true).fits(ColumnType::Str));
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(3).as_int().unwrap(), 3);
        assert_eq!(Value::Int(3).as_float().unwrap(), 3.0);
        assert_eq!(Value::Float(2.5).as_float().unwrap(), 2.5);
        assert!(Value::Str("x".into()).as_int().is_err());
        assert!(Value::Null.as_bool().is_err());
    }

    #[test]
    fn csv_round_trip() {
        let cases = [
            (Value::Int(-42), ColumnType::Int),
            (Value::Float(3.25), ColumnType::Float),
            (Value::Str("hello".into()), ColumnType::Str),
            (Value::Bool(true), ColumnType::Bool),
            (Value::Null, ColumnType::Float),
        ];
        for (v, ty) in cases {
            let field = v.to_csv_field();
            let parsed = Value::parse_csv_field(&field, ty).unwrap();
            assert_eq!(parsed, v);
        }
    }

    #[test]
    fn csv_quoting_for_commas() {
        let v = Value::Str("a,b \"c\"".into());
        assert_eq!(v.to_csv_field(), "\"a,b \"\"c\"\"\"");
    }

    #[test]
    fn csv_parse_rejects_garbage() {
        assert!(Value::parse_csv_field("abc", ColumnType::Int).is_err());
        assert!(Value::parse_csv_field("maybe", ColumnType::Bool).is_err());
    }
}
