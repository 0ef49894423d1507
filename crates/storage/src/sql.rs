//! A minimal SQL `SELECT` front end for the storage medium.
//!
//! The paper's storage medium is a MySQL server queried with SQL — its
//! Listing 2 reads:
//!
//! ```sql
//! SELECT DISTINCT attr_mean + s*attr_stdv AS thresholdLocation,
//!        currentHour, dateType, areaId
//! FROM statistics_attribute
//! ```
//!
//! This module implements the subset needed to run such statements
//! against [`Table`]s directly:
//!
//! ```text
//! SELECT [DISTINCT] item (',' item)* FROM ident [WHERE cond (AND cond)*]
//! item   := expr [AS ident] | '*'
//! expr   := term (('+'|'-') term)*
//! term   := factor (('*'|'/') factor)*
//! factor := ident | number | string | '(' expr ')'
//! cond   := expr op expr,  op ∈ { =, !=, <>, <, <=, >, >= }
//! ```
//!
//! It is intentionally *not* a general SQL engine — joins, GROUP BY and
//! subqueries belong to the CEP layer (`tms-cep`), which is where the
//! paper does its joining too.

use crate::error::StorageError;
use crate::table::{RowRef, Schema, Table};
use crate::value::{Value, ValueRef};

/// The result of a query: named columns plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names, in SELECT order.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Str(String),
    Star,
    Comma,
    LParen,
    RParen,
    Plus,
    Minus,
    Slash,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
}

fn lex(src: &str) -> Result<Vec<Tok>, StorageError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    let err = |i: usize, reason: String| StorageError::CsvParse { line: i, reason };
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_whitespace() => i += 1,
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Neq);
                i += 2;
            }
            '<' => match bytes.get(i + 1) {
                Some(&b'=') => {
                    out.push(Tok::Le);
                    i += 2;
                }
                Some(&b'>') => {
                    out.push(Tok::Neq);
                    i += 2;
                }
                _ => {
                    out.push(Tok::Lt);
                    i += 1;
                }
            },
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Ge);
                    i += 2;
                } else {
                    out.push(Tok::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(err(i, "unterminated string literal".into()));
                }
                out.push(Tok::Str(src[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_digit() || bytes[i] == b'.')
                {
                    i += 1;
                }
                let text = &src[start..i];
                out.push(Tok::Number(text.parse().map_err(|e| {
                    err(start, format!("bad number {text:?}: {e}"))
                })?));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let b = bytes[i] as char;
                    if b.is_ascii_alphanumeric() || b == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Tok::Ident(src[start..i].to_string()));
            }
            other => return Err(err(i, format!("unexpected character {other:?}"))),
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Parser + AST
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum SqlExpr {
    Column(String),
    Number(f64),
    Str(String),
    Bin(char, Box<SqlExpr>, Box<SqlExpr>),
}

#[derive(Debug, Clone, PartialEq)]
struct Cond {
    lhs: SqlExpr,
    op: Tok,
    rhs: SqlExpr,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStatement {
    distinct: bool,
    /// `None` = `SELECT *`.
    items: Option<Vec<(SqlExpr, Option<String>)>>,
    table: String,
    conditions: Vec<Cond>,
}

impl SelectStatement {
    /// The table this statement reads.
    pub fn table(&self) -> &str {
        &self.table
    }
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
}

impl P {
    fn err(&self, reason: String) -> StorageError {
        StorageError::CsvParse { line: self.pos, reason }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), StorageError> {
        if self.keyword(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, StorageError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn expr(&mut self) -> Result<SqlExpr, StorageError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => '+',
                Some(Tok::Minus) => '-',
                _ => break,
            };
            self.pos += 1;
            let rhs = self.term()?;
            lhs = SqlExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<SqlExpr, StorageError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => '*',
                Some(Tok::Slash) => '/',
                _ => break,
            };
            self.pos += 1;
            let rhs = self.factor()?;
            lhs = SqlExpr::Bin(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<SqlExpr, StorageError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(SqlExpr::Column(s)),
            Some(Tok::Number(v)) => Ok(SqlExpr::Number(v)),
            Some(Tok::Str(s)) => Ok(SqlExpr::Str(s)),
            Some(Tok::Minus) => {
                let inner = self.factor()?;
                Ok(SqlExpr::Bin('-', Box::new(SqlExpr::Number(0.0)), Box::new(inner)))
            }
            Some(Tok::LParen) => {
                let e = self.expr()?;
                match self.bump() {
                    Some(Tok::RParen) => Ok(e),
                    other => Err(self.err(format!("expected ')', found {other:?}"))),
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }
}

/// Parses a SELECT statement.
pub fn parse_select(src: &str) -> Result<SelectStatement, StorageError> {
    let mut p = P { toks: lex(src)?, pos: 0 };
    p.expect_keyword("SELECT")?;
    let distinct = p.keyword("DISTINCT");
    let items = if p.peek() == Some(&Tok::Star) {
        p.pos += 1;
        None
    } else {
        let mut items = Vec::new();
        loop {
            let e = p.expr()?;
            let alias = if p.keyword("AS") { Some(p.ident()?) } else { None };
            items.push((e, alias));
            if p.peek() == Some(&Tok::Comma) {
                p.pos += 1;
            } else {
                break;
            }
        }
        Some(items)
    };
    p.expect_keyword("FROM")?;
    let table = p.ident()?;
    let mut conditions = Vec::new();
    if p.keyword("WHERE") {
        loop {
            let lhs = p.expr()?;
            let op = match p.bump() {
                Some(t @ (Tok::Eq | Tok::Neq | Tok::Lt | Tok::Le | Tok::Gt | Tok::Ge)) => t,
                other => {
                    return Err(p.err(format!("expected comparison operator, found {other:?}")))
                }
            };
            let rhs = p.expr()?;
            conditions.push(Cond { lhs, op, rhs });
            if !p.keyword("AND") {
                break;
            }
        }
    }
    if p.pos != p.toks.len() {
        return Err(p.err(format!("trailing input at token {:?}", p.peek())));
    }
    Ok(SelectStatement { distinct, items, table, conditions })
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// One row's cells by schema index, as the executor reads them.
pub(crate) trait RowCells<'a> {
    fn cell(&self, column: usize) -> ValueRef<'a>;
}

impl<'a, 't: 'a> RowCells<'a> for RowRef<'t> {
    fn cell(&self, column: usize) -> ValueRef<'a> {
        self.get(column)
    }
}

/// What a statement reads a row against: the table's name (for errors)
/// and its schema.
struct Source<'s> {
    name: &'s str,
    schema: &'s Schema,
}

fn eval_expr<'a>(
    e: &'a SqlExpr,
    source: &Source<'_>,
    row: &impl RowCells<'a>,
) -> Result<ValueRef<'a>, StorageError> {
    match e {
        SqlExpr::Number(v) => Ok(ValueRef::Float(*v)),
        SqlExpr::Str(s) => Ok(ValueRef::Str(s)),
        SqlExpr::Column(name) => {
            let idx = source.schema.index_of(name).ok_or_else(|| StorageError::ColumnNotFound {
                table: source.name.to_string(),
                column: name.clone(),
            })?;
            Ok(row.cell(idx))
        }
        SqlExpr::Bin(op, lhs, rhs) => {
            let l = eval_expr(lhs, source, row)?.as_float()?;
            let r = eval_expr(rhs, source, row)?.as_float()?;
            Ok(ValueRef::Float(match op {
                '+' => l + r,
                '-' => l - r,
                '*' => l * r,
                '/' => l / r,
                _ => unreachable!("parser only emits + - * /"),
            }))
        }
    }
}

fn eval_cond<'a>(
    c: &'a Cond,
    source: &Source<'_>,
    row: &impl RowCells<'a>,
) -> Result<bool, StorageError> {
    let l = eval_expr(&c.lhs, source, row)?;
    let r = eval_expr(&c.rhs, source, row)?;
    // Strings compare as strings; everything else numerically.
    let cmp = match (l, r) {
        (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
        _ => l.as_float()?.total_cmp(&r.as_float()?),
    };
    Ok(match c.op {
        Tok::Eq => cmp == std::cmp::Ordering::Equal,
        Tok::Neq => cmp != std::cmp::Ordering::Equal,
        Tok::Lt => cmp == std::cmp::Ordering::Less,
        Tok::Le => cmp != std::cmp::Ordering::Greater,
        Tok::Gt => cmp == std::cmp::Ordering::Greater,
        Tok::Ge => cmp != std::cmp::Ordering::Less,
        _ => unreachable!("parser only emits comparison operators here"),
    })
}

fn default_name(e: &SqlExpr, i: usize) -> String {
    match e {
        SqlExpr::Column(c) => c.clone(),
        _ => format!("col{i}"),
    }
}

/// Executes a parsed statement against a table.
pub fn execute(stmt: &SelectStatement, table: &Table) -> Result<QueryResult, StorageError> {
    execute_rows(stmt, table.name(), table.schema(), table.scan())
}

/// [`execute`] over any source of rows laid out by `schema`.
pub(crate) fn execute_rows<'a, R: RowCells<'a>>(
    stmt: &'a SelectStatement,
    name: &str,
    schema: &Schema,
    rows: impl Iterator<Item = R>,
) -> Result<QueryResult, StorageError> {
    let source = Source { name, schema };
    let columns: Vec<String> = match &stmt.items {
        None => schema.columns().iter().map(|c| c.name.clone()).collect(),
        Some(items) => items
            .iter()
            .enumerate()
            .map(|(i, (e, alias))| alias.clone().unwrap_or_else(|| default_name(e, i)))
            .collect(),
    };
    let mut out_rows = Vec::new();
    'rows: for row in rows {
        for c in &stmt.conditions {
            if !eval_cond(c, &source, &row)? {
                continue 'rows;
            }
        }
        let out = match &stmt.items {
            None => (0..schema.arity()).map(|i| row.cell(i).to_value()).collect(),
            Some(items) => items
                .iter()
                .map(|(e, _)| eval_expr(e, &source, &row).map(ValueRef::to_value))
                .collect::<Result<Vec<_>, _>>()?,
        };
        out_rows.push(out);
    }
    if stmt.distinct {
        // DISTINCT by rendered form: Value is not Hash (floats), and the
        // rendered form is exactly what a client would compare.
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|r| {
            let key = r.iter().map(Value::to_csv_field).collect::<Vec<_>>().join("\u{1}");
            seen.insert(key)
        });
    }
    Ok(QueryResult { columns, rows: out_rows })
}

/// Parses and executes a statement against a table in one call.
pub fn query(table: &Table, sql: &str) -> Result<QueryResult, StorageError> {
    let stmt = parse_select(sql)?;
    if stmt.table != table.name() {
        return Err(StorageError::TableNotFound(stmt.table));
    }
    execute(&stmt, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Column, Schema};
    use crate::value::ColumnType;

    fn statistics_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("areaId", ColumnType::Str),
            Column::new("currentHour", ColumnType::Int),
            Column::new("dateType", ColumnType::Str),
            Column::new("attr_mean", ColumnType::Float),
            Column::new("attr_stdv", ColumnType::Float),
        ])
        .unwrap();
        let mut t = Table::new("statistics_delay", schema);
        for (area, hour, day, mean, stdv) in [
            ("R1", 8, "weekday", 60.0, 20.0),
            ("R1", 9, "weekday", 80.0, 25.0),
            ("R2", 8, "weekday", 90.0, 30.0),
            ("R2", 8, "weekend", 30.0, 10.0),
            // A duplicate row, to exercise DISTINCT.
            ("R2", 8, "weekend", 30.0, 10.0),
        ] {
            t.insert(vec![
                Value::from(area),
                Value::Int(hour),
                Value::from(day),
                Value::Float(mean),
                Value::Float(stdv),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn listing2_runs_verbatim() {
        // The paper's Listing 2 with s = 1 substituted.
        let t = statistics_table();
        let result = query(
            &t,
            "SELECT DISTINCT attr_mean + 1*attr_stdv as thresholdLocation, \
             currentHour, dateType, areaId FROM statistics_delay",
        )
        .unwrap();
        assert_eq!(
            result.columns,
            vec!["thresholdLocation", "currentHour", "dateType", "areaId"]
        );
        // 5 rows minus the duplicate.
        assert_eq!(result.rows.len(), 4);
        let r1 = result
            .rows
            .iter()
            .find(|r| r[3] == Value::from("R1") && r[1] == Value::Int(8))
            .unwrap();
        assert_eq!(r1[0], Value::Float(80.0)); // 60 + 1·20
    }

    #[test]
    fn select_star_and_where() {
        let t = statistics_table();
        let result = query(
            &t,
            "SELECT * FROM statistics_delay WHERE dateType = 'weekday' AND currentHour = 8",
        )
        .unwrap();
        assert_eq!(result.columns.len(), 5);
        assert_eq!(result.rows.len(), 2);
        for r in &result.rows {
            assert_eq!(r[2], Value::from("weekday"));
        }
    }

    #[test]
    fn arithmetic_and_comparisons() {
        let t = statistics_table();
        let result = query(
            &t,
            "SELECT areaId, attr_mean * 2 - 10 AS doubled FROM statistics_delay \
             WHERE attr_mean >= 80",
        )
        .unwrap();
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.columns[1], "doubled");
        for r in &result.rows {
            assert!(r[1].as_float().unwrap() >= 150.0);
        }
    }

    #[test]
    fn parenthesized_precedence() {
        let t = statistics_table();
        let a = query(&t, "SELECT attr_mean + 2 * attr_stdv FROM statistics_delay WHERE areaId = 'R1' AND currentHour = 8").unwrap();
        assert_eq!(a.rows[0][0], Value::Float(100.0)); // 60 + (2·20)
        let b = query(&t, "SELECT (attr_mean + 2) * attr_stdv FROM statistics_delay WHERE areaId = 'R1' AND currentHour = 8").unwrap();
        assert_eq!(b.rows[0][0], Value::Float(1240.0)); // (60+2)·20
    }

    #[test]
    fn negative_literals() {
        let t = statistics_table();
        let r = query(&t, "SELECT areaId FROM statistics_delay WHERE attr_mean > -100").unwrap();
        assert_eq!(r.rows.len(), t.len());
    }

    #[test]
    fn errors_are_reported() {
        let t = statistics_table();
        assert!(query(&t, "SELECT nope FROM statistics_delay").is_err());
        assert!(query(&t, "SELECT * FROM other_table").is_err());
        assert!(query(&t, "SELECT FROM statistics_delay").is_err());
        assert!(query(&t, "SELECT * FROM statistics_delay WHERE").is_err());
        assert!(query(&t, "SELECT * FROM statistics_delay trailing").is_err());
        assert!(query(&t, "SELECT * FROM statistics_delay WHERE areaId ~ 3").is_err());
        // String/number comparison is a type error.
        assert!(query(&t, "SELECT * FROM statistics_delay WHERE areaId > 3").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        let t = statistics_table();
        let r = query(&t, "select distinct areaId from statistics_delay").unwrap();
        assert_eq!(r.rows.len(), 2);
    }
}
