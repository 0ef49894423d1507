//! CSV persistence for tables.
//!
//! The paper's spout reads bus traces from CSV files and the batch results
//! are exchanged through the storage medium; a minimal CSV codec (RFC-4180
//! quoting subset: `"` quotes, `""` escapes, no embedded newlines in our
//! data) keeps the whole pipeline dependency-free.

use crate::error::StorageError;
use crate::table::{Row, Schema, Table};
use crate::value::Value;
use std::io::{BufRead, Write};

/// Splits one CSV line into fields, honouring quotes.
pub fn split_csv_line(line: &str, line_no: usize) -> Result<Vec<String>, StorageError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            }
            '"' if cur.is_empty() => in_quotes = true,
            '"' => {
                return Err(StorageError::CsvParse {
                    line: line_no,
                    reason: "quote in the middle of an unquoted field".into(),
                })
            }
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    if in_quotes {
        return Err(StorageError::CsvParse { line: line_no, reason: "unterminated quote".into() });
    }
    fields.push(cur);
    Ok(fields)
}

/// Writes a table as CSV with a header row.
pub fn write_table(table: &Table, w: &mut impl Write) -> Result<(), StorageError> {
    let header: Vec<&str> = table.schema().columns().iter().map(|c| c.name.as_str()).collect();
    writeln!(w, "{}", header.join(","))?;
    for row in table.scan() {
        for (i, v) in row.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(w, "{}", v.csv())?;
        }
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Reads a table from CSV. The header must match the schema's column names
/// in order; each field parses according to the schema's column type.
pub fn read_table(
    name: &str,
    schema: Schema,
    r: &mut impl BufRead,
) -> Result<Table, StorageError> {
    let mut table = Table::new(name, schema);
    let mut line = String::new();
    // Header.
    line.clear();
    if r.read_line(&mut line)? == 0 {
        return Err(StorageError::CsvParse { line: 1, reason: "missing header".into() });
    }
    let header = split_csv_line(line.trim_end_matches(['\r', '\n']), 1)?;
    let expected: Vec<&str> =
        table.schema().columns().iter().map(|c| c.name.as_str()).collect();
    if header != expected {
        return Err(StorageError::CsvParse {
            line: 1,
            reason: format!("header {header:?} does not match schema {expected:?}"),
        });
    }
    let types: Vec<_> = table.schema().columns().iter().map(|c| c.ty).collect();
    let mut line_no = 1;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            break;
        }
        line_no += 1;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            continue;
        }
        let fields = split_csv_line(trimmed, line_no)?;
        if fields.len() != types.len() {
            return Err(StorageError::CsvParse {
                line: line_no,
                reason: format!("expected {} fields, got {}", types.len(), fields.len()),
            });
        }
        let row: Row = fields
            .iter()
            .zip(&types)
            .map(|(f, &ty)| Value::parse_csv_field(f, ty))
            .collect::<Result<_, _>>()
            .map_err(|e| StorageError::CsvParse { line: line_no, reason: e.to_string() })?;
        table.insert(row)?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Column;
    use crate::value::{ColumnType, ValueRef};
    use std::io::Cursor;

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("id", ColumnType::Int),
            Column::new("name", ColumnType::Str),
            Column::new("score", ColumnType::Float),
            Column::new("ok", ColumnType::Bool),
        ])
        .unwrap();
        let mut t = Table::new("sample", schema);
        t.insert(vec![Value::Int(1), Value::from("plain"), Value::Float(0.5), Value::Bool(true)])
            .unwrap();
        t.insert(vec![
            Value::Int(2),
            Value::from("with, comma and \"quotes\""),
            Value::Float(-1.25),
            Value::Bool(false),
        ])
        .unwrap();
        t.insert(vec![Value::Int(3), Value::Null, Value::Null, Value::Null]).unwrap();
        t
    }

    #[test]
    fn round_trip_preserves_rows() {
        let t = sample_table();
        let mut buf = Vec::new();
        write_table(&t, &mut buf).unwrap();
        let read =
            read_table("sample", t.schema().clone(), &mut Cursor::new(&buf)).unwrap();
        let rows = |t: &Table| -> Vec<Row> {
            t.scan().map(|r| r.iter().map(ValueRef::to_value).collect()).collect()
        };
        assert_eq!(rows(&read), rows(&t));
        let mut again = Vec::new();
        write_table(&read, &mut again).unwrap();
        assert_eq!(again, buf);
    }

    #[test]
    fn header_mismatch_rejected() {
        let t = sample_table();
        let schema = Schema::new(vec![Column::new("other", ColumnType::Int)]).unwrap();
        let mut buf = Vec::new();
        write_table(&t, &mut buf).unwrap();
        let err = read_table("x", schema, &mut Cursor::new(&buf));
        assert!(matches!(err, Err(StorageError::CsvParse { line: 1, .. })));
    }

    #[test]
    fn field_count_mismatch_rejected() {
        let schema = Schema::new(vec![
            Column::new("a", ColumnType::Int),
            Column::new("b", ColumnType::Int),
        ])
        .unwrap();
        let data = "a,b\n1,2\n3\n";
        let err = read_table("x", schema, &mut Cursor::new(data));
        assert!(matches!(err, Err(StorageError::CsvParse { line: 3, .. })));
    }

    #[test]
    fn bad_value_reports_line() {
        let schema = Schema::new(vec![Column::new("a", ColumnType::Int)]).unwrap();
        let data = "a\n1\nnot_a_number\n";
        let err = read_table("x", schema, &mut Cursor::new(data));
        assert!(matches!(err, Err(StorageError::CsvParse { line: 3, .. })));
    }

    #[test]
    fn split_handles_quotes() {
        assert_eq!(
            split_csv_line("a,\"b,c\",\"d\"\"e\"", 1).unwrap(),
            vec!["a", "b,c", "d\"e"]
        );
        assert!(split_csv_line("a\"b", 1).is_err());
        assert!(split_csv_line("\"unterminated", 1).is_err());
    }

    #[test]
    fn empty_lines_skipped_and_empty_file_rejected() {
        let schema = Schema::new(vec![Column::new("a", ColumnType::Int)]).unwrap();
        let data = "a\n1\n\n2\n";
        let t = read_table("x", schema.clone(), &mut Cursor::new(data)).unwrap();
        assert_eq!(t.len(), 2);
        assert!(read_table("x", schema, &mut Cursor::new("")).is_err());
    }
}
