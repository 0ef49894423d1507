//! Abstract syntax tree of the EPL subset.

/// A full EPL statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// `INSERT INTO <stream>` target, if any.
    pub insert_into: Option<String>,
    /// The projection.
    pub select: SelectList,
    /// Stream sources in FROM order.
    pub from: Vec<StreamSource>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY fields.
    pub group_by: Vec<FieldRef>,
    /// HAVING predicate (may contain aggregates).
    pub having: Option<Expr>,
    /// ORDER BY keys applied to the output rows of one evaluation.
    pub order_by: Vec<OrderKey>,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Sort expression (may contain aggregates for aggregated statements).
    pub expr: Expr,
    /// `true` for descending order.
    pub descending: bool,
}

/// The SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectList {
    /// `SELECT *`
    Wildcard,
    /// Explicit items.
    Items(Vec<SelectItem>),
}

/// One SELECT item: an expression with an optional output name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The projected expression.
    pub expr: Expr,
    /// Output column name (`AS name`).
    pub alias: Option<String>,
}

/// One FROM source: `stream[.view]... AS alias`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSource {
    /// Stream (event type) name.
    pub stream: String,
    /// View chain applied to the stream, in order.
    pub views: Vec<ViewSpec>,
    /// Alias; defaults to the stream name when omitted.
    pub alias: String,
}

/// One view in a chain, e.g. `std:groupwin(location)` or `win:length(10)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewSpec {
    /// Namespace (`std` or `win`).
    pub namespace: String,
    /// View name (`lastevent`, `groupwin`, `length`, `length_batch`,
    /// `time`, `keepall`).
    pub name: String,
    /// Arguments.
    pub args: Vec<ViewArg>,
}

/// A view argument: a field name or a number.
#[derive(Debug, Clone, PartialEq)]
pub enum ViewArg {
    /// A field name argument (e.g. `groupwin(location)`).
    Field(String),
    /// An integer argument (e.g. `length(10)`).
    Int(i64),
    /// A float argument (e.g. `time(30.5)`).
    Float(f64),
}

/// A (possibly qualified) field reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// Source alias; `None` means "resolve by unique field name".
    pub alias: Option<String>,
    /// Field name.
    pub field: String,
}

impl std::fmt::Display for FieldRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{a}.{}", self.field),
            None => write!(f, "{}", self.field),
        }
    }
}

/// Aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// Arithmetic mean.
    Avg,
    /// Sum.
    Sum,
    /// Row count (`count(*)` or `count(field)`).
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Sample standard deviation (n−1), as in Esper.
    Stddev,
}

impl AggFunc {
    /// Parses a function name (already lower-cased).
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name {
            "avg" => Some(AggFunc::Avg),
            "sum" => Some(AggFunc::Sum),
            "count" => Some(AggFunc::Count),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "stddev" => Some(AggFunc::Stddev),
            _ => None,
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (always yields a float)
    Div,
    /// `=`
    Eq,
    /// `!=` / `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND` (short-circuiting)
    And,
    /// `OR` (short-circuiting)
    Or,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal.
    Str(String),
    /// Boolean literal.
    Bool(bool),
    /// Field reference.
    Field(FieldRef),
    /// Aggregate call over a field (or `count(*)` with `None`).
    Agg {
        /// The aggregation function.
        func: AggFunc,
        /// The aggregated field; `None` for `count(*)`.
        arg: Option<FieldRef>,
    },
    /// Binary operation.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
}

impl Expr {
    /// Whether the expression (transitively) contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Bin { lhs, rhs, .. } => lhs.has_aggregate() || rhs.has_aggregate(),
            Expr::Not(e) | Expr::Neg(e) => e.has_aggregate(),
            _ => false,
        }
    }

    /// Collects every field reference in the expression.
    pub fn collect_fields<'a>(&'a self, out: &mut Vec<&'a FieldRef>) {
        match self {
            Expr::Field(f) => out.push(f),
            Expr::Agg { arg: Some(f), .. } => out.push(f),
            Expr::Bin { lhs, rhs, .. } => {
                lhs.collect_fields(out);
                rhs.collect_fields(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_fields(out),
            _ => {}
        }
    }

    /// Collects every aggregate call in the expression.
    pub fn collect_aggregates<'a>(&'a self, out: &mut Vec<(&'a AggFunc, Option<&'a FieldRef>)>) {
        match self {
            Expr::Agg { func, arg } => out.push((func, arg.as_ref())),
            Expr::Bin { lhs, rhs, .. } => {
                lhs.collect_aggregates(out);
                rhs.collect_aggregates(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_aggregates(out),
            _ => {}
        }
    }

    /// Splits a predicate into its top-level AND conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            if let Expr::Bin { op: BinOp::And, lhs, rhs } = e {
                walk(lhs, out);
                walk(rhs, out);
            } else {
                out.push(e);
            }
        }
        walk(self, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(name: &str) -> Expr {
        Expr::Field(FieldRef { alias: None, field: name.into() })
    }

    #[test]
    fn conjunct_splitting() {
        let e = Expr::Bin {
            op: BinOp::And,
            lhs: Box::new(Expr::Bin {
                op: BinOp::And,
                lhs: Box::new(field("a")),
                rhs: Box::new(field("b")),
            }),
            rhs: Box::new(Expr::Bin {
                op: BinOp::Or,
                lhs: Box::new(field("c")),
                rhs: Box::new(field("d")),
            }),
        };
        let cs = e.conjuncts();
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0], &field("a"));
        assert_eq!(cs[1], &field("b"));
        // The OR stays whole.
        assert!(matches!(cs[2], Expr::Bin { op: BinOp::Or, .. }));
    }

    #[test]
    fn aggregate_detection() {
        let agg = Expr::Agg { func: AggFunc::Avg, arg: None };
        let nested = Expr::Bin {
            op: BinOp::Gt,
            lhs: Box::new(agg.clone()),
            rhs: Box::new(Expr::Float(1.0)),
        };
        assert!(nested.has_aggregate());
        assert!(!field("x").has_aggregate());
        let mut aggs = Vec::new();
        nested.collect_aggregates(&mut aggs);
        assert_eq!(aggs.len(), 1);
    }

    #[test]
    fn field_collection() {
        let e = Expr::Bin {
            op: BinOp::Add,
            lhs: Box::new(field("x")),
            rhs: Box::new(Expr::Neg(Box::new(field("y")))),
        };
        let mut fs = Vec::new();
        e.collect_fields(&mut fs);
        assert_eq!(fs.len(), 2);
    }
}
