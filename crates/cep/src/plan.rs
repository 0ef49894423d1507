//! Statement compilation and execution.
//!
//! Compilation resolves every field reference to a `(source, field-index)`
//! pair, extracts equi-join keys from the WHERE conjuncts (so multi-stream
//! joins run as hash joins in FROM order, not nested loops), and validates
//! views against the registered event types.
//!
//! Execution is *push-based*: when an event arrives, the engine inserts it
//! into the statement's windows and calls [`CompiledStatement::evaluate`]
//! with the arriving event as the *anchor*. The join runs over the full
//! window state; output is then restricted to rows (or, for aggregated
//! statements, groups) in which the anchor participates — this is the
//! "istream" behaviour: a standing query only reports what the new event
//! changed.

use crate::agg::Accumulator;
use crate::ast::{
    AggFunc, BinOp, Expr, FieldRef, SelectItem, SelectList, Statement, ViewArg, ViewSpec,
};
use crate::error::CepError;
use crate::event::{Event, EventType, FieldValue, JoinKey};
use crate::expr::eval;
use crate::window::{SourceWindow, WindowSpec, WindowView};
use std::collections::HashMap;
use std::sync::Arc;

/// A compiled scalar expression: all field references resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum CExpr {
    /// A literal value.
    Const(FieldValue),
    /// Field of the event bound at `source`.
    Field {
        /// FROM-source index.
        source: usize,
        /// Field index within that source's event type.
        field: usize,
    },
    /// Reference to the `idx`-th aggregate call of the statement.
    Agg {
        /// Index into [`CompiledStatement::agg_calls`].
        idx: usize,
    },
    /// Binary operation.
    Bin {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CExpr>,
        /// Right operand.
        rhs: Box<CExpr>,
    },
    /// Logical negation.
    Not(Box<CExpr>),
    /// Arithmetic negation.
    Neg(Box<CExpr>),
}

/// One compiled FROM source.
#[derive(Debug, Clone)]
pub struct CompiledSource {
    /// Stream (event type) name.
    pub stream: String,
    /// Alias used in the statement.
    pub alias: String,
    /// The source's event type.
    pub event_type: Arc<EventType>,
    /// Data window at the end of the view chain.
    pub window: WindowSpec,
    /// `std:groupwin` field index, if present.
    pub group_field: Option<usize>,
}

impl CompiledSource {
    /// Creates the runtime window for this source.
    pub fn make_window(&self) -> Result<SourceWindow, CepError> {
        SourceWindow::new(self.window, self.group_field)
    }
}

/// Hash-join step for source `i`: equi keys pairing an already-bound
/// source's field with a field of source `i`.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// `(left_source, left_field)` — the probe side, already bound.
    pub left_keys: Vec<(usize, usize)>,
    /// Field indices within source `i` — the build side.
    pub right_keys: Vec<usize>,
    /// Residual predicates evaluable once sources `0..=i` are bound.
    pub residual: Vec<CExpr>,
    /// True when the single join key is the window's `groupwin` field:
    /// the window's group panes *are* the hash index, no build needed.
    pub group_fast_path: bool,
}

/// One distinct aggregate call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggCall {
    /// The aggregation function.
    pub func: AggFunc,
    /// `(source, field)` argument; `None` for `count(*)`.
    pub arg: Option<(usize, usize)>,
}

/// The projection.
#[derive(Debug, Clone)]
pub enum CSelect {
    /// `SELECT *`: every field of every source, columns named
    /// `alias.field` (or bare `field` for single-source statements).
    Wildcard,
    /// Explicit expressions.
    Items(Vec<CExpr>),
}

/// One output row pushed to a listener.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputRow {
    columns: Arc<Vec<String>>,
    values: Vec<FieldValue>,
}

impl OutputRow {
    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Values, parallel to [`Self::columns`].
    pub fn values(&self) -> &[FieldValue] {
        &self.values
    }

    /// Value of a named column.
    pub fn get(&self, column: &str) -> Option<&FieldValue> {
        let idx = self.columns.iter().position(|c| c == column)?;
        self.values.get(idx)
    }
}

/// A fully compiled statement.
#[derive(Debug, Clone)]
pub struct CompiledStatement {
    /// Original EPL text (for diagnostics and re-registration).
    pub epl: String,
    /// `INSERT INTO` target stream.
    pub insert_into: Option<String>,
    /// FROM sources in order.
    pub sources: Vec<CompiledSource>,
    /// Join steps for sources `1..`.
    pub join_steps: Vec<JoinStep>,
    /// Predicates on source 0 alone.
    pub first_filter: Vec<CExpr>,
    /// GROUP BY keys as `(source, field)`.
    pub group_by: Vec<(usize, usize)>,
    /// HAVING predicate.
    pub having: Option<CExpr>,
    /// Distinct aggregate calls (referenced by `CExpr::Agg`).
    pub agg_calls: Vec<AggCall>,
    /// Projection.
    pub select: CSelect,
    /// ORDER BY keys: compiled expression + descending flag.
    pub order_by: Vec<(CExpr, bool)>,
    /// Output column names.
    pub columns: Arc<Vec<String>>,
}

impl CompiledStatement {
    /// Whether the statement aggregates (explicitly or via GROUP BY).
    pub fn is_aggregated(&self) -> bool {
        !self.agg_calls.is_empty() || !self.group_by.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Compiles a parsed statement against the registered event types,
/// looked up by stream name through `type_of`.
pub fn compile<'t>(
    stmt: &Statement,
    epl: &str,
    type_of: impl Fn(&str) -> Option<&'t Arc<EventType>>,
) -> Result<CompiledStatement, CepError> {
    if stmt.from.is_empty() {
        return Err(CepError::Semantic { reason: "FROM clause is empty".into() });
    }

    // Resolve sources and their views.
    let mut sources = Vec::with_capacity(stmt.from.len());
    let mut alias_to_source: HashMap<&str, usize> = HashMap::new();
    for (i, src) in stmt.from.iter().enumerate() {
        let event_type = type_of(&src.stream)
            .ok_or_else(|| CepError::UnknownStream(src.stream.clone()))?
            .clone();
        if alias_to_source.insert(src.alias.as_str(), i).is_some() {
            return Err(CepError::BadAlias {
                alias: src.alias.clone(),
                reason: "declared more than once".into(),
            });
        }
        let (window, group_field) = compile_views(&src.views, &event_type)?;
        sources.push(CompiledSource {
            stream: src.stream.clone(),
            alias: src.alias.clone(),
            event_type,
            window,
            group_field,
        });
    }

    let resolver = Resolver { sources: &sources, alias_to_source: &alias_to_source };

    // Aggregate calls are collected globally (SELECT + HAVING) and deduped.
    let mut agg_calls: Vec<AggCall> = Vec::new();

    // WHERE: split into conjuncts; pure equi-joins become hash-join keys,
    // everything else becomes a residual filter at the latest source it
    // mentions.
    let mut equi: Vec<((usize, usize), (usize, usize))> = Vec::new();
    let mut residuals: Vec<(usize, CExpr)> = Vec::new();
    if let Some(wc) = &stmt.where_clause {
        if wc.has_aggregate() {
            return Err(CepError::Semantic {
                reason: "aggregates are not allowed in WHERE; use HAVING".into(),
            });
        }
        for conj in wc.conjuncts() {
            if let Some(pair) = as_equi_join(conj, &resolver)? {
                equi.push(pair);
                continue;
            }
            let compiled = resolver.compile_expr(conj, &mut agg_calls)?;
            residuals.push((max_source(&compiled), compiled));
        }
    }

    // Join steps per source.
    let mut join_steps = Vec::with_capacity(sources.len().saturating_sub(1));
    let mut first_filter = Vec::new();
    for (at, compiled) in residuals {
        if at == 0 {
            first_filter.push(compiled);
        }
    }
    #[allow(clippy::needless_range_loop)] // i is the join-step/source index
    for i in 1..sources.len() {
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        for &((ls, lf), (rs, rf)) in &equi {
            // Keys usable at step i: one side is source i, the other is
            // earlier.
            if rs == i && ls < i {
                left_keys.push((ls, lf));
                right_keys.push(rf);
            } else if ls == i && rs < i {
                left_keys.push((rs, rf));
                right_keys.push(lf);
            }
        }
        let group_fast_path =
            right_keys.len() == 1 && sources[i].group_field == Some(right_keys[0]);
        join_steps.push(JoinStep { left_keys, right_keys, residual: Vec::new(), group_fast_path });
    }
    // Equi pairs not usable as keys at any step (both sides the same
    // source, e.g. `bd.a = bd.b`) become residuals.
    for &((ls, lf), (rs, rf)) in &equi {
        if ls == rs {
            let e = CExpr::Bin {
                op: BinOp::Eq,
                lhs: Box::new(CExpr::Field { source: ls, field: lf }),
                rhs: Box::new(CExpr::Field { source: rs, field: rf }),
            };
            if ls == 0 {
                first_filter.push(e);
            } else {
                join_steps[ls - 1].residual.push(e);
            }
        }
    }
    // Re-attach non-equi residuals at their steps (recompute here to keep
    // ordering stable: first_filter handled above for at == 0).
    if let Some(wc) = &stmt.where_clause {
        for conj in wc.conjuncts() {
            if as_equi_join(conj, &resolver)?.is_some() {
                continue;
            }
            let compiled = resolver.compile_expr(conj, &mut agg_calls)?;
            let at = max_source(&compiled);
            if at > 0 {
                join_steps[at - 1].residual.push(compiled);
            }
        }
    }
    if !agg_calls.is_empty() {
        return Err(CepError::Semantic {
            reason: "aggregates are not allowed in WHERE; use HAVING".into(),
        });
    }

    // GROUP BY keys.
    let group_by = stmt
        .group_by
        .iter()
        .map(|f| resolver.resolve_field(f))
        .collect::<Result<Vec<_>, _>>()?;

    // HAVING.
    let having = match &stmt.having {
        Some(h) => Some(resolver.compile_expr(h, &mut agg_calls)?),
        None => None,
    };

    // ORDER BY.
    let order_by = stmt
        .order_by
        .iter()
        .map(|k| Ok((resolver.compile_expr(&k.expr, &mut agg_calls)?, k.descending)))
        .collect::<Result<Vec<_>, CepError>>()?;

    // SELECT.
    let (select, columns) = match &stmt.select {
        SelectList::Wildcard => {
            let mut cols = Vec::new();
            let single = sources.len() == 1;
            for s in &sources {
                for (fname, _) in s.event_type.fields() {
                    if single {
                        cols.push(fname.clone());
                    } else {
                        cols.push(format!("{}.{}", s.alias, fname));
                    }
                }
            }
            (CSelect::Wildcard, cols)
        }
        SelectList::Items(items) => {
            let mut exprs = Vec::with_capacity(items.len());
            let mut cols = Vec::with_capacity(items.len());
            for (i, SelectItem { expr, alias }) in items.iter().enumerate() {
                exprs.push(resolver.compile_expr(expr, &mut agg_calls)?);
                cols.push(match alias {
                    Some(a) => a.clone(),
                    None => default_column_name(expr, i),
                });
            }
            (CSelect::Items(exprs), cols)
        }
    };

    // Aggregated statements may not mix non-grouped bare fields in the
    // projection *validation* is relaxed (Esper resolves them to the last
    // event per group); nothing to check here.

    if !agg_calls.is_empty() && stmt.having.is_none() && stmt.group_by.is_empty() {
        // Fine: plain `SELECT avg(x) FROM ...` — single implicit group.
    }

    Ok(CompiledStatement {
        epl: epl.to_string(),
        insert_into: stmt.insert_into.clone(),
        sources,
        join_steps,
        first_filter,
        group_by,
        having,
        agg_calls,
        select,
        order_by,
        columns: Arc::new(columns),
    })
}

fn default_column_name(expr: &Expr, idx: usize) -> String {
    match expr {
        Expr::Field(f) => f.field.clone(),
        Expr::Agg { func, arg } => {
            let f = format!("{func:?}").to_lowercase();
            match arg {
                Some(a) => format!("{f}({})", a.field),
                None => format!("{f}(*)"),
            }
        }
        _ => format!("col{idx}"),
    }
}

/// Compiles a view chain into (data window, groupwin field).
fn compile_views(
    views: &[ViewSpec],
    event_type: &EventType,
) -> Result<(WindowSpec, Option<usize>), CepError> {
    let mut group_field = None;
    let mut window = None;
    for v in views {
        let full = format!("{}:{}", v.namespace, v.name);
        match (v.namespace.as_str(), v.name.as_str()) {
            ("std", "groupwin") => {
                if group_field.is_some() {
                    return Err(CepError::BadView {
                        view: full,
                        reason: "groupwin specified twice".into(),
                    });
                }
                if window.is_some() {
                    return Err(CepError::BadView {
                        view: full,
                        reason: "groupwin must precede the data window".into(),
                    });
                }
                let [ViewArg::Field(fname)] = v.args.as_slice() else {
                    return Err(CepError::BadView {
                        view: full,
                        reason: "groupwin takes exactly one field argument".into(),
                    });
                };
                let idx = event_type.index_of(fname).ok_or_else(|| CepError::UnknownField {
                    field: fname.clone(),
                    context: format!("groupwin on stream {}", event_type.name()),
                })?;
                group_field = Some(idx);
            }
            ("std", "lastevent") | ("win", "keepall") => {
                if !v.args.is_empty() {
                    return Err(CepError::BadView {
                        view: full,
                        reason: "view takes no arguments".into(),
                    });
                }
                let spec =
                    if v.name == "lastevent" { WindowSpec::Length(1) } else { WindowSpec::KeepAll };
                set_window(&mut window, spec, &full)?;
            }
            ("std", "unique") => {
                // `std:unique(f)`: most recent event per distinct value of
                // f — a grouped length-1 window.
                let [ViewArg::Field(fname)] = v.args.as_slice() else {
                    return Err(CepError::BadView {
                        view: full,
                        reason: "unique takes exactly one field argument".into(),
                    });
                };
                let idx = event_type.index_of(fname).ok_or_else(|| CepError::UnknownField {
                    field: fname.clone(),
                    context: format!("unique on stream {}", event_type.name()),
                })?;
                if group_field.is_some() {
                    return Err(CepError::BadView {
                        view: full,
                        reason: "unique cannot combine with groupwin".into(),
                    });
                }
                group_field = Some(idx);
                if window.is_some() {
                    return Err(CepError::BadView {
                        view: full,
                        reason: "more than one data window in the chain".into(),
                    });
                }
                window = Some(WindowSpec::Length(1));
            }
            ("win", "length") => {
                let n = int_arg(v, &full)?;
                set_window(&mut window, WindowSpec::Length(n), &full)?;
            }
            ("win", "length_batch") => {
                let n = int_arg(v, &full)?;
                set_window(&mut window, WindowSpec::LengthBatch(n), &full)?;
            }
            ("win", "time") | ("win", "time_batch") => {
                let secs = match v.args.as_slice() {
                    [ViewArg::Int(n)] if *n > 0 => *n as f64,
                    [ViewArg::Float(x)] if *x > 0.0 => *x,
                    _ => {
                        return Err(CepError::BadView {
                            view: full,
                            reason: "time takes one positive numeric argument (seconds)".into(),
                        })
                    }
                };
                let ms = (secs * 1000.0) as u64;
                let spec = if v.name == "time" {
                    WindowSpec::TimeMs(ms)
                } else {
                    WindowSpec::TimeBatchMs(ms)
                };
                set_window(&mut window, spec, &full)?;
            }
            _ => {
                return Err(CepError::BadView {
                    view: full,
                    reason: "unknown view".into(),
                })
            }
        }
    }
    // A bare stream (no data window) behaves as lastevent, length 1: each
    // arriving event is visible until the next one — Esper's default for a
    // stream without a view is "all events" (keepall-ish istream); we pick
    // lastevent, which is what plain `FROM stream` means in push mode.
    Ok((window.unwrap_or(WindowSpec::Length(1)), group_field))
}

fn set_window(slot: &mut Option<WindowSpec>, spec: WindowSpec, full: &str) -> Result<(), CepError> {
    if slot.is_some() {
        return Err(CepError::BadView {
            view: full.to_string(),
            reason: "more than one data window in the chain".into(),
        });
    }
    *slot = Some(spec);
    Ok(())
}

fn int_arg(v: &ViewSpec, full: &str) -> Result<usize, CepError> {
    match v.args.as_slice() {
        [ViewArg::Int(n)] if *n > 0 => Ok(*n as usize),
        _ => Err(CepError::BadView {
            view: full.to_string(),
            reason: "expected one positive integer argument".into(),
        }),
    }
}

struct Resolver<'a> {
    sources: &'a [CompiledSource],
    alias_to_source: &'a HashMap<&'a str, usize>,
}

impl Resolver<'_> {
    fn resolve_field(&self, f: &FieldRef) -> Result<(usize, usize), CepError> {
        match &f.alias {
            Some(alias) => {
                let &src = self.alias_to_source.get(alias.as_str()).ok_or_else(|| {
                    CepError::BadAlias {
                        alias: alias.clone(),
                        reason: "not declared in FROM".into(),
                    }
                })?;
                let idx = self.sources[src].event_type.index_of(&f.field).ok_or_else(|| {
                    CepError::UnknownField {
                        field: f.field.clone(),
                        context: format!("stream {} (alias {alias})", self.sources[src].stream),
                    }
                })?;
                Ok((src, idx))
            }
            None => {
                // Resolve by unique field name across sources.
                let mut hit = None;
                for (si, s) in self.sources.iter().enumerate() {
                    if let Some(fi) = s.event_type.index_of(&f.field) {
                        if hit.is_some() {
                            return Err(CepError::Semantic {
                                reason: format!(
                                    "field {} is ambiguous; qualify it with an alias",
                                    f.field
                                ),
                            });
                        }
                        hit = Some((si, fi));
                    }
                }
                hit.ok_or_else(|| CepError::UnknownField {
                    field: f.field.clone(),
                    context: "any FROM source".into(),
                })
            }
        }
    }

    fn compile_expr(&self, e: &Expr, agg_calls: &mut Vec<AggCall>) -> Result<CExpr, CepError> {
        Ok(match e {
            Expr::Int(v) => CExpr::Const(FieldValue::Int(*v)),
            Expr::Float(v) => CExpr::Const(FieldValue::Float(*v)),
            Expr::Str(s) => CExpr::Const(FieldValue::from(s.as_str())),
            Expr::Bool(b) => CExpr::Const(FieldValue::Bool(*b)),
            Expr::Field(f) => {
                let (source, field) = self.resolve_field(f)?;
                CExpr::Field { source, field }
            }
            Expr::Agg { func, arg } => {
                let arg = match arg {
                    Some(f) => Some(self.resolve_field(f)?),
                    None => None,
                };
                let call = AggCall { func: *func, arg };
                let idx = match agg_calls.iter().position(|c| *c == call) {
                    Some(i) => i,
                    None => {
                        agg_calls.push(call);
                        agg_calls.len() - 1
                    }
                };
                CExpr::Agg { idx }
            }
            Expr::Bin { op, lhs, rhs } => CExpr::Bin {
                op: *op,
                lhs: Box::new(self.compile_expr(lhs, agg_calls)?),
                rhs: Box::new(self.compile_expr(rhs, agg_calls)?),
            },
            Expr::Not(inner) => CExpr::Not(Box::new(self.compile_expr(inner, agg_calls)?)),
            Expr::Neg(inner) => CExpr::Neg(Box::new(self.compile_expr(inner, agg_calls)?)),
        })
    }
}

/// A resolved `(source, field)` pair.
type FieldSlot = (usize, usize);

/// Recognizes `a.x = b.y` between two *different* sources (or the same —
/// handled by the caller).
fn as_equi_join(
    e: &Expr,
    resolver: &Resolver<'_>,
) -> Result<Option<(FieldSlot, FieldSlot)>, CepError> {
    let Expr::Bin { op: BinOp::Eq, lhs, rhs } = e else { return Ok(None) };
    let (Expr::Field(lf), Expr::Field(rf)) = (lhs.as_ref(), rhs.as_ref()) else {
        return Ok(None);
    };
    let l = resolver.resolve_field(lf)?;
    let r = resolver.resolve_field(rf)?;
    Ok(Some((l, r)))
}

/// Total order over field values for ORDER BY: numerics by value,
/// strings lexicographically, booleans false < true; across kinds, the
/// order is numeric < string < bool (arbitrary but total).
fn order_values(a: &FieldValue, b: &FieldValue) -> std::cmp::Ordering {
    use FieldValue::*;
    fn rank(v: &FieldValue) -> u8 {
        match v {
            Int(_) | Float(_) => 0,
            Str(_) => 1,
            Bool(_) => 2,
        }
    }
    match (a, b) {
        (Str(x), Str(y)) => x.cmp(y),
        (Bool(x), Bool(y)) => x.cmp(y),
        _ => match (a.as_f64(), b.as_f64()) {
            (Ok(x), Ok(y)) => x.total_cmp(&y),
            _ => rank(a).cmp(&rank(b)),
        },
    }
}

/// Highest source index referenced by a compiled expression (0 if none).
fn max_source(e: &CExpr) -> usize {
    match e {
        CExpr::Field { source, .. } => *source,
        CExpr::Bin { lhs, rhs, .. } => max_source(lhs).max(max_source(rhs)),
        CExpr::Not(inner) | CExpr::Neg(inner) => max_source(inner),
        _ => 0,
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// A partial joined row: one bound event per source, filled left to right
/// (events are `Arc`-backed, so these are reference bumps).
type Binding = Vec<Event>;

/// A hash index from composite join key to the matching window events.
type KeyIndex = HashMap<Vec<JoinKey>, Vec<Event>>;

/// Cached hash index over one source's window, keyed by that source's
/// join-step keys. Valid while the window's version is unchanged — the
/// point is the threshold `keepall` stream, which is written once at
/// start-up and then joined by every tuple. Single-key joins (by far the
/// common case in the paper's rules) index by the bare [`JoinKey`],
/// skipping a `Vec` allocation per indexed event and per probe.
#[derive(Debug, Default)]
pub struct SourceIndexCache {
    version: Option<u64>,
    index: KeyIndex,
    single: HashMap<JoinKey, Vec<Event>>,
}

/// Per-statement cache: one slot per FROM source, plus a reusable probe
/// key buffer for composite-key joins.
#[derive(Debug, Default)]
pub struct JoinCache {
    per_source: Vec<SourceIndexCache>,
    scratch: Vec<JoinKey>,
}

impl JoinCache {
    /// A cache sized for a statement.
    pub fn for_statement(stmt: &CompiledStatement) -> JoinCache {
        JoinCache {
            per_source: (0..stmt.sources.len()).map(|_| SourceIndexCache::default()).collect(),
            scratch: Vec::new(),
        }
    }
}

impl CompiledStatement {
    /// Evaluates the statement against the given window state.
    ///
    /// `anchor` is the event whose arrival triggered the evaluation; when
    /// `Some`, output is restricted to rows/groups in which that exact
    /// event instance participates. `None` (used for `length_batch`
    /// releases) emits everything. `cache` memoizes per-source hash
    /// indexes across calls (invalidated by window versions).
    #[allow(clippy::type_complexity)] // the signature is the public contract
    pub fn evaluate(
        &self,
        windows: &[WindowView<'_>],
        anchor: Option<&Event>,
        cache: &mut JoinCache,
    ) -> Result<Vec<OutputRow>, CepError> {
        debug_assert_eq!(windows.len(), self.sources.len());
        debug_assert_eq!(cache.per_source.len(), self.sources.len());

        // ---- Join pipeline (hash joins in FROM order) --------------------
        let mut rows: Vec<Binding> = Vec::new();
        'first: for e in windows[0].iter() {
            for f in &self.first_filter {
                if !eval(f, std::slice::from_ref(e), None)?.as_bool()? {
                    continue 'first;
                }
            }
            rows.push(vec![e.clone()]);
        }

        for (i, step) in self.join_steps.iter().enumerate() {
            let src = i + 1;
            if rows.is_empty() {
                return Ok(Vec::new());
            }
            let mut next: Vec<Binding> = Vec::new();
            if step.group_fast_path {
                // The groupwin panes are the index: probe them directly.
                for row in &rows {
                    let (ls, lf) = step.left_keys[0];
                    let key = row[ls].value_at(lf).expect("validated index").join_key();
                    'group: for e in windows[src].iter_group(&key) {
                        let mut candidate = row.clone();
                        candidate.push(e.clone());
                        for r in &step.residual {
                            if !eval(r, &candidate, None)?.as_bool()? {
                                continue 'group;
                            }
                        }
                        next.push(candidate);
                    }
                }
            } else if step.right_keys.is_empty() {
                // Cross join (rare; e.g. a keepall side with residual-only
                // predicates).
                for row in &rows {
                    'cross: for e in windows[src].iter() {
                        let mut candidate = row.clone();
                        candidate.push(e.clone());
                        for r in &step.residual {
                            if !eval(r, &candidate, None)?.as_bool()? {
                                continue 'cross;
                            }
                        }
                        next.push(candidate);
                    }
                }
            } else {
                // (Re)build the hash index only when the window changed.
                let single_key = step.right_keys.len() == 1;
                let slot = &mut cache.per_source[src];
                if slot.version != Some(windows[src].version()) {
                    slot.index.clear();
                    slot.single.clear();
                    if single_key {
                        let fi = step.right_keys[0];
                        for e in windows[src].iter() {
                            let key = e.value_at(fi).expect("validated index").join_key();
                            slot.single.entry(key).or_default().push(e.clone());
                        }
                    } else {
                        for e in windows[src].iter() {
                            let key: Vec<JoinKey> = step
                                .right_keys
                                .iter()
                                .map(|&fi| e.value_at(fi).expect("validated index").join_key())
                                .collect();
                            slot.index.entry(key).or_default().push(e.clone());
                        }
                    }
                    slot.version = Some(windows[src].version());
                }
                // Probe without allocating a fresh key per row: single-key
                // joins hash the bare key, composite joins reuse the cache's
                // scratch buffer (`Vec<JoinKey>: Borrow<[JoinKey]>`).
                let JoinCache { per_source, scratch } = &mut *cache;
                let slot = &per_source[src];
                for row in &rows {
                    let matches = if single_key {
                        let (ls, lf) = step.left_keys[0];
                        let key = row[ls].value_at(lf).expect("validated index").join_key();
                        slot.single.get(&key)
                    } else {
                        scratch.clear();
                        for &(ls, lf) in &step.left_keys {
                            scratch.push(row[ls].value_at(lf).expect("validated index").join_key());
                        }
                        slot.index.get(scratch.as_slice())
                    };
                    let Some(matches) = matches else { continue };
                    'probe: for e in matches {
                        let mut candidate = row.clone();
                        candidate.push(e.clone());
                        for r in &step.residual {
                            if !eval(r, &candidate, None)?.as_bool()? {
                                continue 'probe;
                            }
                        }
                        next.push(candidate);
                    }
                }
            }
            rows = next;
        }

        // Anchor restriction for non-aggregated statements.
        if !self.is_aggregated() {
            let mut out = Vec::new();
            for row in &rows {
                if let Some(a) = anchor {
                    if !row.iter().any(|e| e.same_instance(a)) {
                        continue;
                    }
                }
                let keys = self.order_keys(row, None)?;
                out.push((self.project(row, None)?, keys));
            }
            return Ok(self.sorted(out));
        }

        // ---- Grouping + aggregation ---------------------------------------
        struct Group {
            aggs: Vec<Accumulator>,
            /// Latest row of the group: bare field refs in SELECT/HAVING
            /// resolve against it (Esper's last-event-per-group rule).
            last_row: Binding,
            has_anchor: bool,
        }
        let mut groups: HashMap<Vec<JoinKey>, Group> = HashMap::new();
        for row in &rows {
            let key: Vec<JoinKey> = self
                .group_by
                .iter()
                .map(|&(s, f)| row[s].value_at(f).expect("validated index").join_key())
                .collect();
            let group = groups.entry(key).or_insert_with(|| Group {
                aggs: vec![Accumulator::new(); self.agg_calls.len()],
                last_row: row.clone(),
                has_anchor: false,
            });
            for (acc, call) in group.aggs.iter_mut().zip(&self.agg_calls) {
                match call.arg {
                    Some((s, f)) => {
                        acc.add(row[s].value_at(f).expect("validated index").as_f64()?)
                    }
                    None => acc.add_row(),
                }
            }
            group.last_row = row.clone();
            if let Some(a) = anchor {
                if row.iter().any(|e| e.same_instance(a)) {
                    group.has_anchor = true;
                }
            } else {
                group.has_anchor = true;
            }
        }

        // Emit groups in sorted-key order, so the output is deterministic.
        let mut keyed: Vec<(&Vec<JoinKey>, &Group)> = groups.iter().collect();
        keyed.sort_by(|a, b| a.0.cmp(b.0));
        let mut out = Vec::new();
        for (_, group) in keyed {
            if !group.has_anchor {
                continue;
            }
            // Finalize aggregates; an empty-aggregate means "does not fire".
            let mut agg_values = Vec::with_capacity(self.agg_calls.len());
            let mut skip = false;
            for (acc, call) in group.aggs.iter().zip(&self.agg_calls) {
                match acc.finish(call.func) {
                    Ok(v) => agg_values.push(v),
                    Err(CepError::EmptyAggregate { .. }) => {
                        skip = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if skip || !self.having_holds(&group.last_row, &agg_values)? {
                continue;
            }
            let keys = self.order_keys(&group.last_row, Some(&agg_values))?;
            out.push((self.project(&group.last_row, Some(&agg_values))?, keys));
        }
        Ok(self.sorted(out))
    }

    /// Whether the anchor restriction's source-0 filter passes for one
    /// row's values (the predicates of the WHERE clause that mention only
    /// source 0).
    pub fn passes_first_filter(&self, e: &[FieldValue]) -> Result<bool, CepError> {
        for f in &self.first_filter {
            if !eval(f, &[e], None)?.as_bool()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether one group passes HAVING (a statement without one passes
    /// every group). `binding` is the group's last joined row; it may be
    /// empty when [`Self::having_reads_fields`] is false.
    pub(crate) fn having_holds<R: AsRef<[FieldValue]>>(
        &self,
        binding: &[R],
        agg_values: &[f64],
    ) -> Result<bool, CepError> {
        let Some(h) = &self.having else { return Ok(true) };
        match eval(h, binding, Some(agg_values)) {
            Ok(v) => v.as_bool(),
            Err(CepError::EmptyAggregate { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Whether HAVING reads a field of the joined row, not only aggregates
    /// and constants.
    pub(crate) fn having_reads_fields(&self) -> bool {
        fn reads(e: &CExpr) -> bool {
            match e {
                CExpr::Field { .. } => true,
                CExpr::Bin { lhs, rhs, .. } => reads(lhs) || reads(rhs),
                CExpr::Not(inner) | CExpr::Neg(inner) => reads(inner),
                CExpr::Const(_) | CExpr::Agg { .. } => false,
            }
        }
        self.having.as_ref().is_some_and(reads)
    }

    /// Emits one group that passed HAVING, from externally maintained
    /// aggregate values — the tail of [`evaluate`] (ORDER BY, projection)
    /// factored out so the engine's pane-served path, which computes
    /// `agg_values` from pane accumulators instead of a window scan, emits
    /// through the identical code.
    ///
    /// [`evaluate`]: CompiledStatement::evaluate
    pub(crate) fn emit_group<R: AsRef<[FieldValue]>>(
        &self,
        binding: &[R],
        agg_values: &[f64],
    ) -> Result<Vec<OutputRow>, CepError> {
        let keys = self.order_keys(binding, Some(agg_values))?;
        Ok(self.sorted(vec![(self.project(binding, Some(agg_values))?, keys)]))
    }

    /// Whether the anchor fast path applies: a single-source statement
    /// without aggregation emits, per arrival, exactly the anchor row (if
    /// it passes the filters) — the window contents are irrelevant to the
    /// output, so evaluation needs no window scan at all.
    pub fn anchor_fast_eligible(&self) -> bool {
        self.sources.len() == 1 && !self.is_aggregated()
    }

    /// Anchor fast path (see [`anchor_fast_eligible`]): evaluates the
    /// statement for one arrival by testing the filters against the
    /// anchor alone. Byte-identical to [`evaluate`] with `Some(anchor)`
    /// for eligible statements.
    ///
    /// [`anchor_fast_eligible`]: CompiledStatement::anchor_fast_eligible
    /// [`evaluate`]: CompiledStatement::evaluate
    pub fn evaluate_anchor(&self, anchor: &[FieldValue]) -> Result<Vec<OutputRow>, CepError> {
        debug_assert!(self.anchor_fast_eligible());
        let row = std::slice::from_ref(&anchor);
        for f in &self.first_filter {
            if !eval(f, row, None)?.as_bool()? {
                return Ok(Vec::new());
            }
        }
        Ok(vec![self.project(row, None)?])
    }

    /// Evaluates the ORDER BY keys for one row.
    fn order_keys<R: AsRef<[FieldValue]>>(
        &self,
        row: &[R],
        agg_values: Option<&[f64]>,
    ) -> Result<Vec<FieldValue>, CepError> {
        self.order_by
            .iter()
            .map(|(e, _)| eval(e, row, agg_values))
            .collect()
    }

    /// Applies the statement's ORDER BY to the produced rows (honouring
    /// each key's ASC/DESC). Without an ORDER BY clause the evaluation
    /// order is kept as computed.
    fn sorted(&self, mut rows: Vec<(OutputRow, Vec<FieldValue>)>) -> Vec<OutputRow> {
        if !self.order_by.is_empty() {
            rows.sort_by(|(_, ka), (_, kb)| {
                for ((a, b), (_, descending)) in ka.iter().zip(kb).zip(&self.order_by) {
                    let mut ord = order_values(a, b);
                    if *descending {
                        ord = ord.reverse();
                    }
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        rows.into_iter().map(|(r, _)| r).collect()
    }

    fn project<R: AsRef<[FieldValue]>>(
        &self,
        row: &[R],
        agg_values: Option<&[f64]>,
    ) -> Result<OutputRow, CepError> {
        let values = match &self.select {
            CSelect::Wildcard => {
                let mut vs = Vec::new();
                for (si, _) in self.sources.iter().enumerate() {
                    vs.extend(row[si].as_ref().iter().cloned());
                }
                vs
            }
            CSelect::Items(items) => items
                .iter()
                .map(|e| eval(e, row, agg_values))
                .collect::<Result<Vec<_>, _>>()?,
        };
        Ok(OutputRow { columns: self.columns.clone(), values })
    }
}
