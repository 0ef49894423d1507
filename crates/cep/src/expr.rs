//! Evaluation of compiled scalar expressions.

use crate::ast::BinOp;
use crate::error::CepError;
use crate::event::FieldValue;
use crate::plan::CExpr;

/// Evaluates a compiled expression against a joined row.
///
/// `row[i]` holds the values of the row bound at source `i` (an event, or
/// a pane's values); `agg_values[k]` is the finalized value of the
/// statement's `k`-th aggregate call (only present when evaluating HAVING /
/// aggregated SELECT items).
pub fn eval<R: AsRef<[FieldValue]>>(
    expr: &CExpr,
    row: &[R],
    agg_values: Option<&[f64]>,
) -> Result<FieldValue, CepError> {
    match expr {
        CExpr::Const(v) => Ok(v.clone()),
        CExpr::Field { source, field } => row
            .get(*source)
            .and_then(|e| e.as_ref().get(*field))
            .cloned()
            .ok_or_else(|| CepError::TypeError {
                reason: format!("unbound field reference ({source}, {field})"),
            }),
        CExpr::Agg { idx } => {
            let values = agg_values.ok_or_else(|| CepError::TypeError {
                reason: "aggregate referenced outside an aggregated context".into(),
            })?;
            values.get(*idx).map(|v| FieldValue::Float(*v)).ok_or_else(|| {
                CepError::TypeError { reason: format!("aggregate index {idx} out of range") }
            })
        }
        CExpr::Not(inner) => Ok(FieldValue::Bool(!eval(inner, row, agg_values)?.as_bool()?)),
        CExpr::Neg(inner) => {
            let v = eval(inner, row, agg_values)?;
            match v {
                FieldValue::Int(i) => Ok(FieldValue::Int(-i)),
                FieldValue::Float(f) => Ok(FieldValue::Float(-f)),
                other => Err(CepError::TypeError {
                    reason: format!("cannot negate non-numeric value {other:?}"),
                }),
            }
        }
        CExpr::Bin { op, lhs, rhs } => {
            // Short-circuit AND / OR.
            match op {
                BinOp::And => {
                    if !eval(lhs, row, agg_values)?.as_bool()? {
                        return Ok(FieldValue::Bool(false));
                    }
                    return Ok(FieldValue::Bool(eval(rhs, row, agg_values)?.as_bool()?));
                }
                BinOp::Or => {
                    if eval(lhs, row, agg_values)?.as_bool()? {
                        return Ok(FieldValue::Bool(true));
                    }
                    return Ok(FieldValue::Bool(eval(rhs, row, agg_values)?.as_bool()?));
                }
                _ => {}
            }
            let l = eval(lhs, row, agg_values)?;
            let r = eval(rhs, row, agg_values)?;
            apply_binop(*op, &l, &r)
        }
    }
}

fn apply_binop(op: BinOp, l: &FieldValue, r: &FieldValue) -> Result<FieldValue, CepError> {
    use FieldValue::*;
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            // Integer arithmetic stays integral except for division, which
            // always yields a float (EPL-style numeric division would
            // truncate ints; we document and test the float choice, which
            // is what threshold formulas want).
            match (l, r, op) {
                (Int(a), Int(b), BinOp::Add) => Ok(Int(a.wrapping_add(*b))),
                (Int(a), Int(b), BinOp::Sub) => Ok(Int(a.wrapping_sub(*b))),
                (Int(a), Int(b), BinOp::Mul) => Ok(Int(a.wrapping_mul(*b))),
                _ => {
                    let a = l.as_f64()?;
                    let b = r.as_f64()?;
                    Ok(Float(match op {
                        BinOp::Add => a + b,
                        BinOp::Sub => a - b,
                        BinOp::Mul => a * b,
                        BinOp::Div => a / b,
                        _ => unreachable!("arithmetic op"),
                    }))
                }
            }
        }
        BinOp::Eq => Ok(Bool(l.loose_eq(r))),
        BinOp::Neq => Ok(Bool(!l.loose_eq(r))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = compare(l, r)?;
            Ok(Bool(match op {
                BinOp::Lt => ord == std::cmp::Ordering::Less,
                BinOp::Le => ord != std::cmp::Ordering::Greater,
                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                BinOp::Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!("comparison op"),
            }))
        }
        BinOp::And | BinOp::Or => unreachable!("handled with short-circuiting"),
    }
}

fn compare(l: &FieldValue, r: &FieldValue) -> Result<std::cmp::Ordering, CepError> {
    use FieldValue::*;
    match (l, r) {
        (Str(a), Str(b)) => Ok(a.cmp(b)),
        (Bool(_), _) | (_, Bool(_)) | (Str(_), _) | (_, Str(_)) => Err(CepError::TypeError {
            reason: format!("cannot order {l:?} against {r:?}"),
        }),
        _ => Ok(l.as_f64()?.total_cmp(&r.as_f64()?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventType, FieldType};

    fn ty() -> EventType {
        EventType::with_fields(
            "t",
            &[("i", FieldType::Int), ("f", FieldType::Float), ("s", FieldType::Str), ("b", FieldType::Bool)],
        )
        .unwrap()
    }

    fn row_event() -> Event {
        Event::new(&ty(), 0, vec![7i64.into(), 2.5.into(), "abc".into(), true.into()]).unwrap()
    }

    fn f(idx: usize) -> CExpr {
        CExpr::Field { source: 0, field: idx }
    }

    fn bin(op: BinOp, l: CExpr, r: CExpr) -> CExpr {
        CExpr::Bin { op, lhs: Box::new(l), rhs: Box::new(r) }
    }

    #[test]
    fn arithmetic() {
        let row = vec![row_event()];
        // 7 + 1 = 8 (stays Int)
        assert_eq!(
            eval(&bin(BinOp::Add, f(0), CExpr::Const(1i64.into())), &row, None).unwrap(),
            FieldValue::Int(8)
        );
        // 7 / 2 = 3.5 (division always floats)
        assert_eq!(
            eval(&bin(BinOp::Div, f(0), CExpr::Const(2i64.into())), &row, None).unwrap(),
            FieldValue::Float(3.5)
        );
        // 7 * 2.5 = 17.5 (mixed widens)
        assert_eq!(
            eval(&bin(BinOp::Mul, f(0), f(1)), &row, None).unwrap(),
            FieldValue::Float(17.5)
        );
        // -f = -2.5
        assert_eq!(eval(&CExpr::Neg(Box::new(f(1))), &row, None).unwrap(), FieldValue::Float(-2.5));
    }

    #[test]
    fn comparisons() {
        let row = vec![row_event()];
        assert_eq!(
            eval(&bin(BinOp::Gt, f(0), CExpr::Const(5i64.into())), &row, None).unwrap(),
            FieldValue::Bool(true)
        );
        assert_eq!(
            eval(&bin(BinOp::Le, f(1), CExpr::Const(2.5.into())), &row, None).unwrap(),
            FieldValue::Bool(true)
        );
        // String ordering.
        assert_eq!(
            eval(&bin(BinOp::Lt, f(2), CExpr::Const("abd".into())), &row, None).unwrap(),
            FieldValue::Bool(true)
        );
        // Cross-type ordering is a type error.
        assert!(eval(&bin(BinOp::Lt, f(2), f(0)), &row, None).is_err());
        // Loose equality across Int/Float.
        assert_eq!(
            eval(&bin(BinOp::Eq, f(0), CExpr::Const(7.0.into())), &row, None).unwrap(),
            FieldValue::Bool(true)
        );
    }

    #[test]
    fn boolean_logic_short_circuits() {
        let row = vec![row_event()];
        // (false AND <type error>) must not evaluate the rhs.
        let bad = bin(BinOp::Lt, f(2), f(0));
        let expr = bin(BinOp::And, CExpr::Const(false.into()), bad.clone());
        assert_eq!(eval(&expr, &row, None).unwrap(), FieldValue::Bool(false));
        let expr = bin(BinOp::Or, CExpr::Const(true.into()), bad);
        assert_eq!(eval(&expr, &row, None).unwrap(), FieldValue::Bool(true));
        // NOT.
        assert_eq!(
            eval(&CExpr::Not(Box::new(f(3))), &row, None).unwrap(),
            FieldValue::Bool(false)
        );
    }

    #[test]
    fn aggregates_need_context() {
        let row = vec![row_event()];
        let agg = CExpr::Agg { idx: 0 };
        assert!(eval(&agg, &row, None).is_err());
        assert_eq!(eval(&agg, &row, Some(&[4.5])).unwrap(), FieldValue::Float(4.5));
        assert!(eval(&CExpr::Agg { idx: 3 }, &row, Some(&[4.5])).is_err());
    }

    #[test]
    fn type_errors_reported() {
        let row = vec![row_event()];
        // Negating a string.
        assert!(eval(&CExpr::Neg(Box::new(f(2))), &row, None).is_err());
        // Arithmetic on a bool.
        assert!(eval(&bin(BinOp::Add, f(3), f(0)), &row, None).is_err());
        // NOT of a number.
        assert!(eval(&CExpr::Not(Box::new(f(0))), &row, None).is_err());
    }
}
