//! Multi-statement shared evaluation.
//!
//! The paper's Table-6 rule set installs many near-clone statements of
//! the Listing-1 shape on one engine; evaluated independently, every
//! arrival re-windows, re-groups, re-aggregates and re-probes the same
//! bus stream per rule. This module holds the pieces the engine's
//! sharing planner composes at statement-install time:
//!
//! * [`WindowKey`] — the fingerprint under which two FROM sources may
//!   share one [`SourceWindow`]: stream, groupwin field, and the spec of
//!   any window but a length window. Every `win:length(L)` over one stream
//!   and groupwin field is a view of one ring; sources of one length read
//!   one view. A source joins a window only while that window has seen no
//!   event, which makes sharing semantically invisible: every statement
//!   observes exactly the window state it would have owned privately.
//! * [`SharedJoinShape`] — recognition of the Listing-1 family
//!   (`lastevent` anchor × grouped pane, optionally × `keepall`
//!   threshold stream) that covers every rule form the paper generates,
//!   and of the single-source aggregates whose groups are their panes.
//! * The pane bank and [`ThresholdIndex`] — per-group running aggregates
//!   over a shared pane view (a superset of the cluster's aggregate
//!   fields; they live with the panes, see
//!   [`SourceWindow::track_field`]) and one keyed hash index over a
//!   threshold stream, both maintained as events arrive. With these,
//!   evaluating one arrival is O(groups touched): a pane lookup, an index
//!   probe and a per-statement HAVING/projection fan-out — instead of
//!   O(rules × window × probe). A lone statement is a cluster of one on
//!   the same state.
//! * [`ArrivalMemo`] — what one arrival has already been asked. Every
//!   statement anchored on it reads the same group key and, per threshold
//!   index, the same probe result.
//!
//! Exactness: a pane accumulator is finalized under the join multiplicity
//! via [`Accumulator::scaled`]; for integer-valued samples the result is
//! bit-identical to the rescan path (enforced by the differential suite). On
//! non-integer samples subtract-on-evict drifts; each view of a pane bounds
//! that by recomputing from its own rows once its evictions since the last
//! recompute reach its row count.
//!
//! [`SourceWindow`]: crate::window::SourceWindow
//! [`SourceWindow::track_field`]: crate::window::SourceWindow::track_field

use crate::agg::Accumulator;
use crate::error::CepError;
use crate::event::{Event, FieldValue, JoinKey};
use crate::plan::{CompiledStatement, OutputRow};
use crate::window::{WindowSpec, WindowView};
use std::collections::HashMap;

/// Fingerprint under which two FROM sources are window-compatible.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowKey {
    /// Stream (event type) name.
    pub stream: String,
    /// Data window spec; `None` for a length window, whose views read any
    /// length.
    pub spec: Option<WindowSpec>,
    /// `std:groupwin` field, if grouped.
    pub group_field: Option<usize>,
}

impl WindowKey {
    /// The fingerprint of one compiled source.
    pub fn of(source: &crate::plan::CompiledSource) -> WindowKey {
        let spec = Some(source.window).filter(|s| !matches!(s, WindowSpec::Length(_)));
        WindowKey { stream: source.stream.clone(), spec, group_field: source.group_field }
    }
}

/// The recognized pane shapes. The Listing-1 family:
///
/// ```text
/// FROM A.std:lastevent()                    AS anchor,   -- source 0 (length 1)
///      A.std:groupwin(g).<non-batch window> AS pane      -- source 1
///   [, B.win:keepall()                      AS thresholds -- source 2]
/// WHERE anchor.k0 = pane.g  [AND  anchor.t* = thresholds.t*]
/// GROUP BY pane.g
/// ```
///
/// For one arrival, every joined row lands in a single group (the
/// anchor's), with multiplicity pane-rows × matching-threshold-rows —
/// which is exactly what a pane lookup plus an index probe reconstructs.
/// Without a threshold source (the static, per-location-literal and
/// database-attached forms of the rule) the multiplicity is 1 and there
/// is no probe.
///
/// And a single-source aggregate whose groups are its window's panes:
/// `A.std:groupwin(g).<non-batch window> GROUP BY g`, or the same window
/// ungrouped without GROUP BY, and no WHERE. The arrival is the newest row
/// of its pane, so its group is that pane, whole, with multiplicity 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedJoinShape {
    /// FROM index of the pane: 1 behind a `lastevent` anchor, 0 for a
    /// single-source aggregate.
    pub pane: usize,
    /// Source-0 field whose value names the arrival's pane; `None` for an
    /// ungrouped single-source window, whose one pane is the group.
    pub group_key_field: Option<usize>,
    /// Distinct pane fields the statement aggregates.
    pub pane_agg_fields: Vec<usize>,
    /// The threshold side of a three-source statement.
    pub threshold: Option<ThresholdJoin>,
    /// Whether `group_key_field` is the pane's `groupwin` field, so that
    /// the arrival's group is the pane it just entered.
    pub own_pane: bool,
    /// Whether HAVING reads a field, so the group's binding is built
    /// before it runs; otherwise only a group that passes gets one.
    pub having_binds: bool,
}

/// How a shared-join statement joins its threshold stream (source 2).
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdJoin {
    /// Source-0 fields forming the threshold probe key, in join order.
    pub left_fields: Vec<usize>,
    /// Source-2 fields forming the threshold index key, in join order.
    pub right_fields: Vec<usize>,
    /// Distinct threshold (source 2) fields the statement aggregates.
    pub agg_fields: Vec<usize>,
}

/// Where each of a statement's aggregate calls is served from on the
/// shared path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggSrc {
    /// `count(*)`: pane-rows × threshold-rows, no accumulator needed.
    CountStar,
    /// Pane field accumulator at this position in the pane window's
    /// tracked fields.
    Pane(usize),
    /// Threshold field accumulator at this position in the index's
    /// value-field list.
    Threshold(usize),
}

/// Detects a pane shape. `None` means the statement is served by the
/// anchor path or the rescan.
pub fn shared_join_shape(stmt: &CompiledStatement) -> Option<SharedJoinShape> {
    if !stmt.is_aggregated() {
        return None;
    }
    let (pane_at, thresholds) = match &stmt.sources[..] {
        [_] => (0, None),
        [_, _] => (1, None),
        [_, _, thresholds] => (1, Some(thresholds)),
        _ => return None,
    };
    let (anchor, pane) = (&stmt.sources[0], &stmt.sources[pane_at]);
    // Pane: a non-batch FIFO window (batch windows change the
    // anchor-participation story).
    if !matches!(pane.window, WindowSpec::Length(_) | WindowSpec::TimeMs(_) | WindowSpec::KeepAll) {
        return None;
    }
    let group_key_field = if pane_at == 0 {
        // Every row counts and the groups are the panes, so the arrival's
        // group is the pane it entered.
        let panes = pane.group_field.map(|g| (0, g));
        if !stmt.first_filter.is_empty() || !stmt.group_by.iter().copied().eq(panes) {
            return None;
        }
        pane.group_field
    } else {
        // Anchor: ungrouped length 1 (`lastevent`) over the pane's stream.
        let pane_group_field = pane.group_field?;
        if anchor.window != WindowSpec::Length(1)
            || anchor.group_field.is_some()
            || anchor.stream != pane.stream
        {
            return None;
        }
        // Join step 1: the pane joined purely through its groupwin panes on
        // a single anchor field.
        let step1 = &stmt.join_steps[0];
        if !step1.group_fast_path || !step1.residual.is_empty() || step1.left_keys.len() != 1 {
            return None;
        }
        let (ls, group_key_field) = step1.left_keys[0];
        // Grouping must be exactly the pane's groupwin field, so every
        // joined row of one arrival falls in the anchor's group.
        if ls != 0 || stmt.group_by != [(1, pane_group_field)] {
            return None;
        }
        Some(group_key_field)
    };
    let mut threshold = match thresholds {
        None => None,
        Some(thresholds) => {
            // Thresholds: ungrouped keepall over a *different* stream
            // (insert-only, so the index never needs eviction handling).
            if thresholds.window != WindowSpec::KeepAll
                || thresholds.group_field.is_some()
                || thresholds.stream == anchor.stream
            {
                return None;
            }
            // Join step 2: pure equi keys, all probing source-0 fields.
            let step2 = &stmt.join_steps[1];
            if step2.right_keys.is_empty() || !step2.residual.is_empty() {
                return None;
            }
            let mut left_fields = Vec::with_capacity(step2.left_keys.len());
            for &(s, f) in &step2.left_keys {
                if s != 0 {
                    return None;
                }
                left_fields.push(f);
            }
            Some(ThresholdJoin {
                left_fields,
                right_fields: step2.right_keys.clone(),
                agg_fields: Vec::new(),
            })
        }
    };
    // Aggregate arguments must live on the pane or the threshold stream.
    let mut pane_agg_fields = Vec::new();
    for call in &stmt.agg_calls {
        let Some((source, f)) = call.arg else { continue };
        let fields = match (source, &mut threshold) {
            (s, _) if s == pane_at => &mut pane_agg_fields,
            (2, Some(t)) => &mut t.agg_fields,
            _ => return None,
        };
        if !fields.contains(&f) {
            fields.push(f);
        }
    }
    Some(SharedJoinShape {
        pane: pane_at,
        own_pane: group_key_field == pane.group_field,
        group_key_field,
        pane_agg_fields,
        threshold,
        having_binds: stmt.having_reads_fields(),
    })
}

/// One keyed entry of a [`ThresholdIndex`].
#[derive(Debug, Clone)]
pub struct ThresholdEntry {
    /// Accumulators parallel to [`ThresholdIndex::value_fields`].
    pub accs: Vec<Accumulator>,
    /// Matching threshold rows under this key.
    pub rows: u64,
    /// Latest inserted matching row — the binding for bare field
    /// references (last-row semantics of the rescan path).
    pub last: Event,
}

/// Hash index over a threshold `keepall` stream, keyed by the join key
/// fields and carrying running accumulators over the cluster's threshold
/// aggregate fields. Insert-only: `keepall` never evicts and ignores
/// time advances, so maintenance is one entry update per threshold row.
///
/// One index serves the statements that join the same threshold fields
/// to the same anchor fields, so all of them probe it with one key per
/// arrival.
#[derive(Debug)]
pub struct ThresholdIndex {
    /// Key fields within the threshold event type, in join order.
    pub key_fields: Vec<usize>,
    /// The anchor (source 0) fields joined to `key_fields`, in join order.
    pub probe_fields: Vec<usize>,
    /// Aggregated value fields; append-only (stable member positions).
    pub value_fields: Vec<usize>,
    entries: HashMap<Vec<JoinKey>, ThresholdEntry>,
}

impl ThresholdIndex {
    /// An empty index joining `key_fields` to the anchor's `probe_fields`.
    pub fn new(key_fields: Vec<usize>, probe_fields: Vec<usize>) -> ThresholdIndex {
        ThresholdIndex {
            key_fields,
            probe_fields,
            value_fields: Vec::new(),
            entries: HashMap::new(),
        }
    }

    /// Ensures a value field is tracked, returning its stable position
    /// and whether the index widened (caller rebuilds if non-empty).
    pub fn ensure_field(&mut self, field: usize) -> (usize, bool) {
        match self.value_fields.iter().position(|&f| f == field) {
            Some(pos) => (pos, false),
            None => {
                self.value_fields.push(field);
                (self.value_fields.len() - 1, true)
            }
        }
    }

    /// The entry an anchor row joins; `key` is scratch space.
    pub fn probe(&self, anchor: &[FieldValue], key: &mut Vec<JoinKey>) -> Option<&ThresholdEntry> {
        key.clear();
        key.extend(self.probe_fields.iter().map(|&f| anchor[f].join_key()));
        self.entries.get(key.as_slice())
    }

    /// Whether a threshold row joins an anchor row.
    fn joins(&self, threshold: &[FieldValue], anchor: &[FieldValue]) -> bool {
        (self.key_fields.iter().zip(&self.probe_fields))
            .all(|(&k, &p)| threshold[k].join_key() == anchor[p].join_key())
    }

    /// Number of distinct keys.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Rebuilds from a window's full contents (in insertion order, so
    /// `last` matches the rescan path's last-row binding).
    pub fn rebuild(&mut self, window: WindowView<'_>) -> Result<(), CepError> {
        self.entries.clear();
        for e in window.iter() {
            self.insert(e)?;
        }
        Ok(())
    }

    /// Indexes one inserted threshold row.
    pub fn insert(&mut self, e: &Event) -> Result<(), CepError> {
        let key: Vec<JoinKey> = self
            .key_fields
            .iter()
            .map(|&f| e.value_at(f).expect("validated index").join_key())
            .collect();
        let nfields = self.value_fields.len();
        let entry = self.entries.entry(key).or_insert_with(|| ThresholdEntry {
            accs: vec![Accumulator::new(); nfields],
            rows: 0,
            last: e.clone(),
        });
        for (acc, &f) in entry.accs.iter_mut().zip(&self.value_fields) {
            acc.add(e.value_at(f).expect("validated index").as_f64()?);
        }
        entry.rows += 1;
        entry.last = e.clone();
        Ok(())
    }
}

/// The vectors an [`ArrivalMemo`] fills, kept by the engine between
/// arrivals so that filling them allocates nothing.
#[derive(Debug, Default)]
pub struct ArrivalScratch {
    /// The arrival's join key per field asked for so far.
    field_keys: Vec<(usize, JoinKey)>,
    /// The latest threshold probe key.
    probe_key: Vec<JoinKey>,
    /// The aggregate values of the statement being evaluated.
    agg_values: Vec<f64>,
}

impl ArrivalScratch {
    /// Forgets the previous arrival.
    pub fn reset(&mut self) {
        self.field_keys.clear();
    }

    /// The join key of an arrival's field, derived on first request.
    /// Every call between two [`Self::reset`]s must pass the same values.
    pub fn field_key(&mut self, values: &[FieldValue], field: usize) -> &JoinKey {
        let at = match self.field_keys.iter().position(|(f, _)| *f == field) {
            Some(at) => at,
            None => {
                let key = values[field].join_key();
                self.field_keys.push((field, key));
                self.field_keys.len() - 1
            }
        };
        &self.field_keys[at].1
    }
}

/// Threshold indexes whose probe an [`ArrivalMemo`] remembers. An arrival
/// on an attribute stream probes one index per threshold key shape, and
/// the rule engine's statements share one shape.
const MEMO_PROBES: usize = 4;

/// What one arrival has already been asked while its subscribers are
/// evaluated: its group key per field (in the engine's [`ArrivalScratch`])
/// and what each threshold index holds for it, in a fixed array on the
/// stack: filling the memo allocates nothing. An arrival probing more
/// indexes than it holds probes the rest once per statement.
pub struct ArrivalMemo<'s, 'e> {
    /// The arrival's values.
    arrival: &'e [FieldValue],
    scratch: &'e mut ArrivalScratch,
    probes: [Option<(&'s ThresholdIndex, Option<&'s ThresholdEntry>)>; MEMO_PROBES],
}

impl<'s, 'e> ArrivalMemo<'s, 'e> {
    /// A memo for the arrival of `values`; `scratch` must hold nothing of
    /// another arrival.
    pub fn new(arrival: &'e [FieldValue], scratch: &'e mut ArrivalScratch) -> Self {
        ArrivalMemo { arrival, scratch, probes: [None; MEMO_PROBES] }
    }

    /// What `index` holds for the arrival as anchor: probed once.
    fn probe(&mut self, index: &'s ThresholdIndex) -> Option<&'s ThresholdEntry> {
        let memo = self.probes.iter().flatten().find(|(i, _)| std::ptr::eq(*i, index));
        if let Some((_, found)) = memo {
            return *found;
        }
        let found = index.probe(self.arrival, &mut self.scratch.probe_key);
        if let Some(free) = self.probes.iter_mut().find(|p| p.is_none()) {
            *free = Some((index, found));
        }
        found
    }
}

/// Evaluates one pane-shaped statement for one arrival in O(1): the pane
/// the arrival entered (or a lookup), an index probe (three-source
/// statements only), the aggregates and HAVING; the binding and the output
/// row are built for a group that fires. Byte-identical to
/// [`CompiledStatement::evaluate`] for eligible statements under
/// integer-valued samples. `pane` is the view of source `shape.pane`;
/// `tindex` is `Some` exactly when the shape has a threshold side;
/// `on_threshold` says the arrival came in on it.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_shared_join<'s>(
    stmt: &CompiledStatement,
    shape: &SharedJoinShape,
    aggs: &[AggSrc],
    source0: WindowView<'_>,
    pane: WindowView<'s>,
    tindex: Option<&'s ThresholdIndex>,
    on_threshold: bool,
    memo: &mut ArrivalMemo<'s, '_>,
) -> Result<Vec<OutputRow>, CepError> {
    let (a, group, entry) = if on_threshold {
        // The source-0 binding is whatever the length-1 anchor holds.
        let Some(a) = source0.group(None).map(|g| g.last) else { return Ok(Vec::new()) };
        if !stmt.passes_first_filter(a)? {
            return Ok(Vec::new());
        }
        let gkey = shape.group_key_field.map(|f| a[f].join_key());
        let Some(group) = pane.group(gkey.as_ref()) else { return Ok(Vec::new()) };
        let index = tindex.expect("a threshold arrival reaches three-source statements only");
        // istream restriction: a threshold arrival only emits when it
        // itself participates in the joined group, i.e. its key matches
        // the probe key of the standing anchor event.
        if !index.joins(memo.arrival, a) {
            return Ok(Vec::new());
        }
        let Some(entry) = index.probe(a, &mut memo.scratch.probe_key) else {
            return Ok(Vec::new());
        };
        (a, group, Some(entry))
    } else {
        let a = memo.arrival;
        if !stmt.passes_first_filter(a)? {
            return Ok(Vec::new());
        }
        let group = if shape.own_pane {
            pane.entered()
        } else {
            pane.group(shape.group_key_field.map(|f| memo.scratch.field_key(a, f)))
        };
        let Some(group) = group else { return Ok(Vec::new()) };
        let entry = match tindex {
            Some(index) => match memo.probe(index) {
                Some(entry) => Some(entry),
                None => return Ok(Vec::new()),
            },
            None => None,
        };
        (a, group, entry)
    };
    // Join multiplicity of each pane row, and of each threshold row.
    let (n, m) = (group.rows, entry.map_or(1, |en| en.rows));
    let agg_values = &mut memo.scratch.agg_values;
    agg_values.clear();
    for (src, call) in aggs.iter().zip(&stmt.agg_calls) {
        let v = match (src, entry) {
            (AggSrc::CountStar, _) => Ok((n * m) as f64),
            (AggSrc::Pane(pos), _) => group.accs[*pos].scaled(m).finish(call.func),
            (AggSrc::Threshold(pos), Some(en)) => en.accs[*pos].scaled(n).finish(call.func),
            (AggSrc::Threshold(_), None) => {
                unreachable!("shape detection rejects threshold aggregates without a threshold")
            }
        };
        match v {
            Ok(v) => agg_values.push(v),
            Err(CepError::EmptyAggregate { .. }) => return Ok(Vec::new()),
            Err(e) => return Err(e),
        }
    }
    if !shape.having_binds && !stmt.having_holds::<&[FieldValue]>(&[], agg_values)? {
        return Ok(Vec::new());
    }
    // The group's last joined row: (anchor, newest pane row[, latest
    // matching threshold]), or the newest pane row alone for a single
    // source — the binding bare fields resolve against, read in place.
    let emit = |binding: &[&[FieldValue]]| {
        if shape.having_binds && !stmt.having_holds(binding, agg_values)? {
            return Ok(Vec::new());
        }
        stmt.emit_group(binding, agg_values)
    };
    let last = group.last;
    match (shape.pane, entry) {
        (0, _) => emit(&[last]),
        (_, Some(en)) => emit(&[a, last, en.last.values()]),
        (_, None) => emit(&[a, last]),
    }
}

/// One cluster in the chosen plan: the statements (one or more) fanned
/// out from one pane view's aggregates and, for three-source rules, one
/// threshold index.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterInfo {
    /// Member statements, in registration order.
    pub statements: Vec<crate::engine::StatementId>,
    /// Width of the cluster's bank field union.
    pub bank_fields: usize,
    /// Distinct keys currently in the cluster's threshold index (0 for a
    /// cluster of two-source statements, which has none).
    pub threshold_entries: usize,
    /// Live groups in the cluster's accumulator bank.
    pub bank_groups: usize,
}

/// The sharing plan the engine chose — exposed via
/// `Engine::sharing_report` so benchmarks and operators can see which
/// statements are bank-served. How many evaluations each path served is
/// in the per-statement profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingReport {
    /// Window slots referenced by more than one statement source (through
    /// one view or several).
    pub shared_windows: usize,
    /// Window slots referenced by exactly one statement source.
    pub private_windows: usize,
    /// Anchored statements served from a pane bank (a cluster of any size,
    /// one included).
    pub shared_statements: usize,
    /// The clusters of the chosen plan.
    pub clusters: Vec<ClusterInfo>,
}
