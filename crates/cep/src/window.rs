//! View (window) state for one FROM source.
//!
//! A [`WindowSpec`] is the *data window* at the end of a view chain;
//! `std:groupwin(field)` is modelled as an optional grouping key in front
//! of it, so `bus.std:groupwin(location).win:length(10)` keeps the last 10
//! events **per location** — exactly the Listing 1 semantics.
//!
//! One [`SourceWindow`] can serve several *views*. Every `win:length(L)`
//! over one stream and `groupwin` field is a view of one length window:
//! each pane keeps one ring of the newest rows, as many as its longest
//! view holds, and each view reads its own newest L with its own running
//! aggregates. An arrival is hashed to its pane and stored once, however
//! many lengths read it. Time, batch and keepall windows have one view.
//!
//! A pane keeps what its views fold, evict and recompute from: one `f64`
//! ring per aggregated field, in pane order, each row's timestamp, and its
//! newest row by value (the pane's `last` row). A window that *keeps rows*
//! also keeps each retained event, for a reader that scans rows (the
//! rescan, a threshold index, a batch release). A length window keeps
//! none only where an older row is rebuilt exactly on every field a
//! reader looks at: see [`SourceWindow::set_rows`].

use crate::agg::Accumulator;
use crate::error::CepError;
use crate::event::{Event, FieldValue, JoinKey};
use std::collections::{vec_deque, HashMap, VecDeque};
use std::ops::Range;

/// The data window of a view chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowSpec {
    /// `win:length(n)` — sliding window of the last `n` events.
    /// `std:lastevent()` is `Length(1)`.
    Length(usize),
    /// `win:length_batch(n)` — tumbling batches of `n` events: the window
    /// releases all `n` at once, then empties.
    LengthBatch(usize),
    /// `win:time(seconds)` — sliding window over event time.
    TimeMs(u64),
    /// `win:time_batch(seconds)` — tumbling batches over event time: the
    /// window releases everything accumulated in one interval at once.
    TimeBatchMs(u64),
    /// `win:keepall()` — unbounded retention.
    KeepAll,
}

impl WindowSpec {
    /// Whether the window releases tumbling batches instead of sliding.
    pub fn is_batch(self) -> bool {
        matches!(self, WindowSpec::LengthBatch(_) | WindowSpec::TimeBatchMs(_))
    }
}

/// Outcome of inserting an event into a window; the same for every view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Whether statement evaluation should run now. Always true except for
    /// a `length_batch` window still accumulating its batch.
    pub evaluate: bool,
}

/// One arrival as a window reads it: its timestamp and values in schema
/// order, and the event itself when one exists. A window that keeps rows
/// needs the event; a length window that keeps none reads the values.
#[derive(Debug, Clone, Copy)]
pub struct Arrival<'a> {
    /// Event time in milliseconds.
    pub timestamp_ms: u64,
    /// Field values in schema order.
    pub values: &'a [FieldValue],
    /// The arrival as an event, if it was materialised.
    pub event: Option<&'a Event>,
}

impl<'a> Arrival<'a> {
    /// An event's arrival.
    pub fn of(event: &'a Event) -> Self {
        Arrival { timestamp_ms: event.timestamp_ms(), values: event.values(), event: Some(event) }
    }
}

/// One view of a window: its data window, the window fields its panes keep
/// running aggregates over, and its part of each pane.
#[derive(Debug)]
struct View {
    spec: WindowSpec,
    /// Positions in the window's `fields` of what the statements served
    /// from this view aggregate. Append-only so member positions stay
    /// stable when a later install widens it.
    tracked: Vec<usize>,
    /// Parallel to the window's panes.
    suffixes: Vec<Suffix>,
}

/// One view's part of one pane: the pane's newest `rows` rows, and the
/// running aggregates over them.
#[derive(Debug, Clone, Default)]
struct Suffix {
    rows: usize,
    /// Parallel to the view's tracked fields; empty while the suffix is (an
    /// empty suffix folds nothing).
    accs: Vec<Accumulator>,
    /// Rows subtracted from `accs` since they were last computed from the
    /// rings themselves.
    evicted: u64,
}

impl Suffix {
    /// Folds one mutation into the rows and accumulators: the ring
    /// positions `out` leave, then the positions `inp` enter (a sliding
    /// window evicts before the arrival is visible). `cols` is the pane's
    /// rings while both are in them; their newest `rows` are this view's
    /// once the mutation is counted.
    ///
    /// Subtract-on-evict leaves rounding residue in `sum`/`sum_sq` on
    /// non-integer samples, and cannot repair an evicted `min`/`max`. Both
    /// are handled by recomputing from the view's own rows, in pane order
    /// (the rescan's summation order): when an evicted value sat at an
    /// extremum, and once the evictions since the last recompute reach the
    /// row count. The second rule costs one extra row visit per eviction,
    /// amortised, and means the accumulators of a `win:length(L)` view only
    /// ever carry the rounding of its last 2L samples.
    fn fold(&mut self, tracked: &[usize], cols: &[VecDeque<f64>], out: Range<usize>, inp: Range<usize>) {
        let mut due = false;
        for i in out {
            self.rows -= 1;
            if tracked.is_empty() {
                continue;
            }
            if self.rows == 0 {
                // Emptied: whatever comes next starts from clean state.
                self.accs.clear();
                self.evicted = 0;
                continue;
            }
            let mut stale_extremum = false;
            for (acc, &c) in self.accs.iter_mut().zip(tracked) {
                stale_extremum |= acc.remove(cols[c][i]);
            }
            self.evicted += 1;
            due |= stale_extremum || self.evicted >= self.rows as u64;
        }
        for i in inp {
            self.rows += 1;
            if tracked.is_empty() {
                continue;
            }
            self.accs.resize(tracked.len(), Accumulator::new());
            for (acc, &c) in self.accs.iter_mut().zip(tracked) {
                acc.add(cols[c][i]);
            }
        }
        if due && self.evicted > 0 {
            self.recompute(tracked, cols);
        }
    }

    /// Replaces the accumulators by a fresh pass over the newest `rows` of
    /// the rings.
    fn recompute(&mut self, tracked: &[usize], cols: &[VecDeque<f64>]) {
        self.accs.clear();
        self.evicted = 0;
        if tracked.is_empty() || self.rows == 0 {
            return;
        }
        self.accs.resize(tracked.len(), Accumulator::new());
        for (acc, &c) in self.accs.iter_mut().zip(tracked) {
            let col = &cols[c];
            col.range(col.len() - self.rows..).for_each(|&v| acc.add(v));
        }
    }
}

/// A field's value as a sample.
fn sample(values: &[FieldValue], field: usize) -> Result<f64, CepError> {
    values.get(field).expect("validated index").as_f64()
}

/// One group's rows, which every view reads a suffix of.
#[derive(Debug, Default)]
struct Pane {
    /// Retained rows, oldest first: one ring per window field. A length
    /// window's rings hold as many rows as its longest view reads.
    cols: Vec<VecDeque<f64>>,
    /// Retained rows.
    len: usize,
    /// Each retained row's timestamp.
    stamps: VecDeque<u64>,
    /// The newest retained row's values (empty while the pane is).
    last: Vec<FieldValue>,
    /// The retained rows as events, in a window that keeps rows.
    events: VecDeque<Event>,
    /// For `LengthBatch`/`TimeBatchMs`: events accumulating towards the
    /// next release.
    pending: VecDeque<Event>,
    /// For `TimeBatchMs`: timestamp starting the current batch interval.
    batch_start: Option<u64>,
}

impl Pane {
    /// Appends one row: its samples of `fields`, its timestamp and values,
    /// and the event too if `rows`. A sample that is not a number leaves
    /// the pane as it was.
    fn push(&mut self, fields: &[usize], arrival: Arrival<'_>, rows: bool) -> Result<(), CepError> {
        (self.cols.iter_mut().zip(fields))
            .try_for_each(|(col, &f)| sample(arrival.values, f).map(|v| col.push_back(v)))
            .inspect_err(|_| self.cols.iter_mut().for_each(|col| col.truncate(self.len)))?;
        self.stamps.push_back(arrival.timestamp_ms);
        // Overwritten in place: the newest row costs no allocation.
        if self.last.len() == arrival.values.len() {
            self.last.clone_from_slice(arrival.values);
        } else {
            self.last = arrival.values.to_vec();
        }
        if rows {
            self.events.push_back(arrival.event.expect("a window keeping rows gets events").clone());
        }
        self.len += 1;
        Ok(())
    }

    /// Drops the `n` oldest rows.
    fn drop_oldest(&mut self, n: usize) {
        for col in &mut self.cols {
            col.drain(..n);
        }
        self.stamps.drain(..n);
        self.events.drain(..n.min(self.events.len()));
        self.len -= n;
        if self.len == 0 {
            self.last.clear();
        }
    }

    /// Replaces the rows by the events of a released batch.
    fn release(&mut self, batch: VecDeque<Event>, fields: &[usize]) -> Result<(), CepError> {
        for (col, &f) in self.cols.iter_mut().zip(fields) {
            *col = batch.iter().map(|e| sample(e.values(), f)).collect::<Result<_, _>>()?;
        }
        self.stamps = batch.iter().map(Event::timestamp_ms).collect();
        self.last = batch.back().map_or_else(Vec::new, |e| e.values().to_vec());
        self.len = batch.len();
        self.events = batch;
        Ok(())
    }

    /// Row `i` (oldest first) as `(timestamp, values)`. A pane without
    /// events rebuilds it from the newest row, its tracked fields replaced
    /// by the row's own samples: exact on those and on the group field,
    /// which is all a reader of an older row of such a pane looks at (see
    /// [`SourceWindow::set_rows`]).
    fn row(&self, fields: &[usize], i: usize) -> (u64, Vec<FieldValue>) {
        if let Some(e) = self.events.get(i) {
            return (e.timestamp_ms(), e.values().to_vec());
        }
        let mut values = self.last.clone();
        for (col, &f) in self.cols.iter().zip(fields) {
            // An integer field's samples are integers; a float field takes
            // either (integers widen into it).
            values[f] = match values[f] {
                FieldValue::Int(_) if col[i].fract() == 0.0 => FieldValue::Int(col[i] as i64),
                _ => FieldValue::Float(col[i]),
            };
        }
        (self.stamps[i], values)
    }
}

/// One non-empty pane as a pane-served statement reads it: one lookup
/// answers how many rows, which is newest, and what they add up to.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    /// Retained rows (at least one).
    pub rows: u64,
    /// Values of the most recently retained row.
    pub last: &'a [FieldValue],
    /// Running aggregates, one per tracked field ([`WindowView::tracked_count`]).
    pub accs: &'a [Accumulator],
}

/// Window state: ungrouped, or one pane per `groupwin` key, read through
/// one or more views.
#[derive(Debug)]
pub struct SourceWindow {
    views: Vec<View>,
    /// Field index of the `std:groupwin` key within the source's event
    /// type, if grouped.
    group_field: Option<usize>,
    /// The fields every pane keeps a ring of; append-only, so positions
    /// stay stable while views stop and start tracking them.
    fields: Vec<usize>,
    /// Whether panes keep their rows as events.
    rows: bool,
    /// The ungrouped pane, then the `groupwin` panes in first-seen key
    /// order, so [`WindowView::iter`] walks them deterministically (a
    /// rescan emits the same rows every run).
    panes: Vec<Pane>,
    /// Positions in `panes` by `groupwin` key.
    index: HashMap<JoinKey, usize>,
    /// Position in `panes` of the pane the latest insert entered.
    entered: usize,
    /// Bumped on every mutation; lets the engine cache join indexes over
    /// windows that rarely change (e.g. the threshold `keepall` stream).
    version: u64,
}

impl SourceWindow {
    /// Creates a window with one view, `spec`, keeping its rows.
    pub fn new(spec: WindowSpec, group_field: Option<usize>) -> Result<Self, CepError> {
        check(spec)?;
        Ok(SourceWindow {
            views: vec![View { spec, tracked: Vec::new(), suffixes: vec![Suffix::default()] }],
            group_field,
            fields: Vec::new(),
            rows: true,
            panes: vec![Pane::default()],
            index: HashMap::new(),
            entered: 0,
            version: 0,
        })
    }

    /// Sets whether the panes keep their rows as events, while the window
    /// holds nothing (see [`Self::version`]). Only a length window can do
    /// without, and only where an older row's rebuilt values (see
    /// `Pane::row`) are exact on every field read off it: a grouped
    /// window, whose rows in one pane share the group field a migration
    /// picks them by (it refuses another field, [`Self::exact_on`]), or
    /// one whose views all hold a single row, the newest. A view added
    /// later re-checks.
    pub fn set_rows(&mut self, rows: bool) {
        debug_assert_eq!(self.version, 0, "a window changes what it keeps while pristine");
        let one_row = |v: &View| v.spec == WindowSpec::Length(1);
        let rebuilt = matches!(self.views[0].spec, WindowSpec::Length(_))
            && (self.group_field.is_some() || self.views.iter().all(one_row));
        self.rows = rows || !rebuilt;
    }

    /// Whether every retained row's `field` is its arrival's: always in a
    /// window keeping rows; in one keeping values, for the group field, or
    /// while no pane holds an older row.
    pub fn exact_on(&self, field: usize) -> bool {
        self.rows || self.group_field == Some(field) || self.panes.iter().all(|p| p.len <= 1)
    }

    /// Whether the panes keep their rows as events.
    pub fn keeps_rows(&self) -> bool {
        self.rows
    }

    /// The view reading `spec`, added if this is a length window and the
    /// length is new. A view added after the first insert would start
    /// from a history it never saw, so the caller adds views to pristine
    /// windows only (see [`Self::version`]).
    pub fn view_of(&mut self, spec: WindowSpec) -> Result<usize, CepError> {
        check(spec)?;
        if let Some(at) = self.views.iter().position(|v| v.spec == spec) {
            return Ok(at);
        }
        let ring = |s| matches!(s, WindowSpec::Length(_));
        if !ring(spec) || !ring(self.views[0].spec) {
            return Err(CepError::Semantic {
                reason: format!("{spec:?} cannot read a {:?} window", self.views[0].spec),
            });
        }
        let suffixes = vec![Suffix::default(); self.panes.len()];
        self.views.push(View { spec, tracked: Vec::new(), suffixes });
        self.set_rows(self.rows);
        Ok(self.views.len() - 1)
    }

    /// Removes a view of a length window; each ring keeps what the other
    /// views read. Later views move down one position.
    pub fn remove_view(&mut self, view: usize) {
        self.views.remove(view);
        for (at, pane) in self.panes.iter_mut().enumerate() {
            let longest = self.views.iter().map(|v| v.suffixes[at].rows).max().unwrap_or(0);
            pane.drop_oldest(pane.len - longest);
        }
    }

    /// One view, for reading.
    pub fn view(&self, view: usize) -> WindowView<'_> {
        WindowView { window: self, view }
    }

    /// Monotone change counter; any mutation bumps it. Zero means the
    /// window never held an event.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Inserts an event, evicting per each view's spec.
    pub fn insert(&mut self, event: &Event) -> Result<InsertOutcome, CepError> {
        let key = self.group_field.map(|idx| {
            event.value_at(idx).expect("group field index validated at compile time").join_key()
        });
        self.insert_keyed(Arrival::of(event), key.as_ref())
    }

    /// [`Self::insert`] for a caller that already holds the join key of
    /// the arrival's `groupwin` field (`None` for an ungrouped window):
    /// one arrival enters several windows grouped by the same field. The
    /// pane is found once; every view's running aggregates are folded in
    /// the same visit.
    pub fn insert_keyed(
        &mut self,
        arrival: Arrival<'_>,
        key: Option<&JoinKey>,
    ) -> Result<InsertOutcome, CepError> {
        self.version += 1;
        let ts = arrival.timestamp_ms;
        let SourceWindow { views, fields, rows, panes, index, entered, .. } = self;
        let at = match key {
            None => 0,
            Some(key) => match index.get(key) {
                Some(&at) => at,
                None => {
                    panes.push(Pane { cols: vec![VecDeque::new(); fields.len()], ..Pane::default() });
                    for view in views.iter_mut() {
                        view.suffixes.push(Suffix::default());
                    }
                    index.insert(key.clone(), panes.len() - 1);
                    panes.len() - 1
                }
            },
        };
        *entered = at;
        let pane = &mut panes[at];
        let spec = views[0].spec;
        // Any window but a length window has this one view.
        let View { tracked, suffixes, .. } = &mut views[0];
        let mut evaluate = true;
        match spec {
            WindowSpec::Length(_) => {
                pane.push(fields, arrival, *rows)?;
                let last = pane.len - 1;
                let mut longest = 0;
                for view in views.iter_mut() {
                    let WindowSpec::Length(n) = view.spec else { unreachable!("a ring") };
                    let suffix = &mut view.suffixes[at];
                    // Full: the view's oldest row, n back, leaves it.
                    let out = if suffix.rows == n { last - n..last - n + 1 } else { 0..0 };
                    suffix.fold(&view.tracked, &pane.cols, out, last..last + 1);
                    longest = longest.max(suffix.rows);
                }
                if pane.len > longest {
                    pane.drop_oldest(1);
                }
            }
            WindowSpec::LengthBatch(n) => {
                pane.pending.push_back(arrival.event.expect("a batch window keeps rows").clone());
                if pane.pending.len() >= n {
                    // The released batch replaces the old one whole.
                    let batch = std::mem::take(&mut pane.pending);
                    pane.release(batch, fields)?;
                    suffixes[at] = Suffix::default();
                    suffixes[at].fold(tracked, &pane.cols, 0..0, 0..pane.len);
                } else {
                    evaluate = false;
                }
            }
            WindowSpec::TimeMs(w) => {
                pane.push(fields, arrival, true)?;
                let cutoff = ts.saturating_sub(w);
                let expired = pane.stamps.iter().take_while(|&&t| t < cutoff).count();
                suffixes[at].fold(tracked, &pane.cols, 0..expired, pane.len - 1..pane.len);
                pane.drop_oldest(expired);
            }
            WindowSpec::TimeBatchMs(w) => {
                let event = arrival.event.expect("a batch window keeps rows").clone();
                let start = *pane.batch_start.get_or_insert(ts);
                if ts.saturating_sub(start) >= w {
                    // The arriving event opens a new interval; everything
                    // accumulated in the previous one releases now.
                    let batch = std::mem::take(&mut pane.pending);
                    pane.batch_start = Some(ts);
                    pane.pending.push_back(event);
                    pane.release(batch, fields)?;
                    suffixes[at] = Suffix::default();
                    suffixes[at].fold(tracked, &pane.cols, 0..0, 0..pane.len);
                } else {
                    pane.pending.push_back(event);
                    evaluate = false;
                }
            }
            WindowSpec::KeepAll => {
                pane.push(fields, arrival, true)?;
                suffixes[at].fold(tracked, &pane.cols, 0..0, pane.len - 1..pane.len);
            }
        }
        Ok(InsertOutcome { evaluate })
    }

    /// Advances event time without an arrival, evicting expired events
    /// from a time window; other specs are unaffected.
    pub fn advance_time(&mut self, now_ms: u64) {
        let WindowSpec::TimeMs(w) = self.views[0].spec else { return };
        let cutoff = now_ms.saturating_sub(w);
        let View { tracked, suffixes, .. } = &mut self.views[0];
        for (pane, suffix) in self.panes.iter_mut().zip(suffixes) {
            let expired = pane.stamps.iter().take_while(|&&t| t < cutoff).count();
            if expired == 0 {
                continue;
            }
            suffix.fold(tracked, &pane.cols, 0..expired, 0..0);
            pane.drop_oldest(expired);
            self.version += 1;
        }
    }

    /// Visits *everything* the window holds as `(timestamp, values)`: the
    /// rings (the longest view's rows) plus the pending accumulation of
    /// batch windows, pane by pane (ungrouped first, then first-seen key
    /// order). Within one pane the visible rows precede the pending ones,
    /// which is arrival order — batch windows accumulate strictly after
    /// their last release. This is the migration view: a state handoff
    /// ships each row once, however many views read it, and the events a
    /// batch window has absorbed but not yet released. A pane that keeps
    /// no events ships its rings' samples on its newest row
    /// ([`Self::exact_on`] says which fields are the arrival's).
    pub fn for_each_row(&self, mut visit: impl FnMut(u64, &[FieldValue])) {
        for pane in &self.panes {
            for i in 0..pane.len {
                let (ts, values) = pane.row(&self.fields, i);
                visit(ts, &values);
            }
            for e in &pane.pending {
                visit(e.timestamp_ms(), e.values());
            }
        }
    }

    /// Removes every row whose values match `pred` from the window —
    /// visible and batch-pending alike — returning how many were removed.
    /// Each view keeps its own surviving rows (the newest survivors of the
    /// ring), and a view that lost rows recomputes its aggregates. Emptied
    /// `groupwin` panes are dropped entirely. Any removal bumps the
    /// version, invalidating cached indexes over this window. This is the
    /// destructive half of a partition migration; the engine replans its
    /// statements afterwards.
    pub fn remove_matching(&mut self, pred: impl Fn(&[FieldValue]) -> bool) -> usize {
        let mut removed = 0usize;
        let SourceWindow { views, fields, panes, index, entered, .. } = self;
        for (at, pane) in panes.iter_mut().enumerate() {
            let keep: Vec<bool> = (0..pane.len).map(|i| !pred(&pane.row(fields, i).1)).collect();
            let before = pane.len + pane.pending.len();
            pane.pending.retain(|e| !pred(e.values()));
            if keep.contains(&false) {
                pane.last = match keep.iter().rposition(|&k| k) {
                    Some(newest_kept) => pane.row(fields, newest_kept).1,
                    None => Vec::new(),
                };
                pane.cols.iter_mut().for_each(|col| col.retain(flagged(&keep)));
                pane.events.retain(flagged(&keep));
                pane.stamps.retain(flagged(&keep));
                pane.len = keep.iter().filter(|&&k| k).count();
            }
            removed += before - pane.len - pane.pending.len();
            for View { tracked, suffixes, .. } in views.iter_mut() {
                let suffix = &mut suffixes[at];
                let kept = keep[keep.len() - suffix.rows..].iter().filter(|&&k| k).count();
                if kept != suffix.rows {
                    suffix.rows = kept;
                    suffix.recompute(tracked, &pane.cols);
                }
            }
        }
        // Keeps the ungrouped pane, and every pane still holding rows.
        let keep: Vec<bool> = (panes.iter().enumerate())
            .map(|(at, p)| at == 0 || p.len > 0 || !p.pending.is_empty())
            .collect();
        if keep.contains(&false) {
            panes.retain(flagged(&keep));
            views.iter_mut().for_each(|view| view.suffixes.retain(flagged(&keep)));
            // A kept pane's new position: the kept panes up to it, less one.
            let moved_to: Vec<usize> = (keep.iter())
                .scan(0, |kept, &k| {
                    *kept += k as usize;
                    Some(*kept - 1)
                })
                .collect();
            index.retain(|_, at| keep[*at]);
            for at in index.values_mut() {
                *at = moved_to[*at];
            }
            *entered = 0;
        }
        if removed > 0 {
            self.version += 1;
        }
        removed
    }

    /// The group field index, if this window is grouped.
    pub fn group_field(&self) -> Option<usize> {
        self.group_field
    }

    /// Ensures `view`'s panes aggregate `field`, returning its stable
    /// position and whether it is new. A new field over a non-empty view
    /// needs [`Self::recompute_aggregates`] before the next read. A window
    /// keeping no rows can start a ring only while it holds none.
    pub fn track_field(&mut self, view: usize, field: usize) -> Result<(usize, bool), CepError> {
        let c = match self.fields.iter().position(|&f| f == field) {
            Some(c) => c,
            None => {
                if !self.rows && self.panes.iter().any(|p| p.len > 0) {
                    return Err(CepError::Semantic {
                        reason: format!("field {field} was not kept by the window's rings"),
                    });
                }
                for pane in &mut self.panes {
                    let col: Result<VecDeque<f64>, CepError> =
                        pane.events.iter().map(|e| sample(e.values(), field)).collect();
                    pane.cols.push(col?);
                }
                self.fields.push(field);
                self.fields.len() - 1
            }
        };
        let tracked = &mut self.views[view].tracked;
        Ok(match tracked.iter().position(|&t| t == c) {
            Some(pos) => (pos, false),
            None => {
                tracked.push(c);
                (tracked.len() - 1, true)
            }
        })
    }

    /// Stops aggregating in every view: no tracked fields, no accumulators.
    /// The rings stay, for the fields to be tracked again.
    pub fn untrack(&mut self) {
        for view in &mut self.views {
            view.tracked.clear();
            for suffix in &mut view.suffixes {
                suffix.accs.clear();
                suffix.evicted = 0;
            }
        }
    }

    /// Recomputes `view`'s aggregates in every pane from its rows
    /// (install-time widening and replans).
    pub fn recompute_aggregates(&mut self, view: usize) {
        let View { tracked, suffixes, .. } = &mut self.views[view];
        for (suffix, pane) in suffixes.iter_mut().zip(&self.panes) {
            suffix.recompute(tracked, &pane.cols);
        }
    }
}

/// Rejects a zero-sized window.
fn check(spec: WindowSpec) -> Result<(), CepError> {
    let (view, reason) = match spec {
        WindowSpec::Length(0) | WindowSpec::LengthBatch(0) => {
            ("win:length", "window length must be at least 1")
        }
        WindowSpec::TimeMs(0) | WindowSpec::TimeBatchMs(0) => {
            ("win:time", "time window must be positive")
        }
        _ => return Ok(()),
    };
    Err(CepError::BadView { view: view.into(), reason: reason.into() })
}

/// A `retain` predicate keeping the elements whose `keep` flag is set (a
/// ring the window does not keep is empty, and stays so).
fn flagged<T>(keep: &[bool]) -> impl FnMut(&T) -> bool + '_ {
    let mut flags = keep.iter();
    move |_| *flags.next().expect("one flag per item")
}

/// One view of a window: what one statement source reads.
#[derive(Debug, Clone, Copy)]
pub struct WindowView<'a> {
    window: &'a SourceWindow,
    view: usize,
}

impl<'a> WindowView<'a> {
    /// The view's data window.
    pub fn spec(self) -> WindowSpec {
        self.window.views[self.view].spec
    }

    /// The view's rows of the pane at `at`, oldest first. Only a window
    /// that keeps rows has them.
    fn rows(self, at: usize) -> vec_deque::Iter<'a, Event> {
        debug_assert!(self.window.rows, "a rescan reads a window that keeps rows");
        let events = &self.window.panes[at].events;
        events.range(events.len() - self.window.views[self.view].suffixes[at].rows..)
    }

    /// Iterates the view's events: the ungrouped pane first, then each
    /// `groupwin` pane in first-seen key order (insertion order within a
    /// pane) — the order a rescan sums in, which is also the order a view
    /// recomputes its aggregates in. Only a window that keeps rows has
    /// events.
    pub fn iter(self) -> impl Iterator<Item = &'a Event> {
        (0..self.window.panes.len()).flat_map(move |at| self.rows(at))
    }

    /// Fast path: the view's events of one `groupwin` pane. Only valid
    /// when the window is grouped and `key` is the group key.
    pub fn iter_group(self, key: &JoinKey) -> impl Iterator<Item = &'a Event> {
        self.window.index.get(key).into_iter().flat_map(move |&at| self.rows(at))
    }

    /// Number of rows the view holds across panes.
    pub fn len(self) -> usize {
        self.window.views[self.view].suffixes.iter().map(|s| s.rows).sum()
    }

    /// Whether the view holds nothing.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The window's change counter.
    pub fn version(self) -> u64 {
        self.window.version
    }

    /// One pane's occupancy, newest row and running aggregates: the
    /// `groupwin` pane of `key`, or the ungrouped pane for `None`; `None`
    /// for an unseen pane or one this view holds none of. O(1) — a
    /// pane-served statement reads this instead of scanning.
    pub fn group(self, key: Option<&JoinKey>) -> Option<GroupView<'a>> {
        let at = match key {
            Some(key) => *self.window.index.get(key)?,
            None => 0,
        };
        self.group_at(at)
    }

    /// [`Self::group`] of the pane the latest insert entered — the
    /// arrival's own pane, found without hashing its key again.
    pub(crate) fn entered(self) -> Option<GroupView<'a>> {
        self.group_at(self.window.entered)
    }

    fn group_at(self, at: usize) -> Option<GroupView<'a>> {
        let Suffix { rows, accs, .. } = &self.window.views[self.view].suffixes[at];
        let last = &self.window.panes[at].last;
        (*rows > 0).then_some(GroupView { rows: *rows as u64, last, accs })
    }

    /// Number of `groupwin` panes the view holds rows of.
    pub fn group_count(self) -> usize {
        self.window.views[self.view].suffixes[1..].iter().filter(|s| s.rows > 0).count()
    }

    /// How many fields the view's panes keep running aggregates over.
    pub fn tracked_count(self) -> usize {
        self.window.views[self.view].tracked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventType, FieldType, FieldValue};

    fn ty() -> EventType {
        EventType::with_fields(
            "bus",
            &[("location", FieldType::Str), ("delay", FieldType::Float)],
        )
        .unwrap()
    }

    fn ev(ty: &EventType, ts: u64, loc: &str, delay: f64) -> Event {
        Event::new(ty, ts, vec![loc.into(), delay.into()]).unwrap()
    }

    fn dvals<'a>(events: impl Iterator<Item = &'a Event>) -> Vec<f64> {
        events.map(|e| e.value_at(1).unwrap().as_f64().unwrap()).collect()
    }

    /// Every row the window would ship, as `(timestamp, values)`.
    fn all_rows(w: &SourceWindow) -> Vec<(u64, Vec<FieldValue>)> {
        let mut rows = Vec::new();
        w.for_each_row(|ts, values| rows.push((ts, values.to_vec())));
        rows
    }

    fn all_delays(w: &SourceWindow) -> Vec<f64> {
        all_rows(w).iter().map(|(_, v)| v[1].as_f64().unwrap()).collect()
    }

    fn delays(w: &SourceWindow) -> Vec<f64> {
        let mut v = dvals(w.view(0).iter());
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn last_event_keeps_one() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(1), None).unwrap();
        for i in 0..5 {
            assert!(w.insert(&ev(&t, i, "R1", i as f64)).unwrap().evaluate);
        }
        assert_eq!(w.view(0).len(), 1);
        assert_eq!(delays(&w), vec![4.0]);
    }

    #[test]
    fn length_window_slides() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(3), None).unwrap();
        for i in 0..5 {
            w.insert(&ev(&t, i, "R1", i as f64)).unwrap();
        }
        assert_eq!(w.view(0).len(), 3);
        assert_eq!(delays(&w), vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn grouped_length_window_is_per_key() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(2), Some(0)).unwrap();
        for i in 0..4 {
            w.insert(&ev(&t, i, "R1", i as f64)).unwrap();
            w.insert(&ev(&t, i, "R2", 100.0 + i as f64)).unwrap();
        }
        assert_eq!(w.view(0).len(), 4);
        let k1 = FieldValue::from("R1").join_key();
        assert_eq!(dvals(w.view(0).iter_group(&k1)), vec![2.0, 3.0]);
        let k3 = FieldValue::from("R3").join_key();
        assert_eq!(w.view(0).iter_group(&k3).count(), 0);
    }

    #[test]
    fn length_batch_releases_in_batches() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::LengthBatch(3), None).unwrap();
        assert!(!w.insert(&ev(&t, 0, "R1", 0.0)).unwrap().evaluate);
        assert!(!w.insert(&ev(&t, 1, "R1", 1.0)).unwrap().evaluate);
        assert_eq!(w.view(0).len(), 0, "nothing released yet");
        assert!(w.insert(&ev(&t, 2, "R1", 2.0)).unwrap().evaluate);
        assert_eq!(delays(&w), vec![0.0, 1.0, 2.0]);
        // The next batch replaces the previous one on release.
        for i in 3..6 {
            w.insert(&ev(&t, i, "R1", i as f64)).unwrap();
        }
        assert_eq!(delays(&w), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn time_window_evicts_by_timestamp() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::TimeMs(1000), None).unwrap();
        w.insert(&ev(&t, 0, "R1", 0.0)).unwrap();
        w.insert(&ev(&t, 500, "R1", 1.0)).unwrap();
        w.insert(&ev(&t, 1400, "R1", 2.0)).unwrap();
        // ts=0 is now older than 1400-1000.
        assert_eq!(delays(&w), vec![1.0, 2.0]);
        w.advance_time(3000);
        assert!(w.view(0).is_empty());
    }

    #[test]
    fn keepall_never_evicts() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::KeepAll, None).unwrap();
        for i in 0..100 {
            w.insert(&ev(&t, i, "R1", i as f64)).unwrap();
        }
        assert_eq!(w.view(0).len(), 100);
    }

    #[test]
    fn zero_sized_windows_rejected() {
        assert!(SourceWindow::new(WindowSpec::Length(0), None).is_err());
        assert!(SourceWindow::new(WindowSpec::LengthBatch(0), None).is_err());
        assert!(SourceWindow::new(WindowSpec::TimeMs(0), None).is_err());
        let mut ring = SourceWindow::new(WindowSpec::Length(3), None).unwrap();
        assert!(ring.view_of(WindowSpec::Length(0)).is_err());
        assert!(ring.view_of(WindowSpec::KeepAll).is_err(), "only lengths share a ring");
        assert_eq!(ring.view_of(WindowSpec::Length(3)).unwrap(), 0, "and no view was added");
    }

    #[test]
    fn grouped_last_event() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(1), Some(0)).unwrap();
        w.insert(&ev(&t, 0, "R1", 1.0)).unwrap();
        w.insert(&ev(&t, 1, "R1", 2.0)).unwrap();
        w.insert(&ev(&t, 2, "R2", 3.0)).unwrap();
        assert_eq!(w.view(0).len(), 2, "one per group");
        assert_eq!(delays(&w), vec![2.0, 3.0]);
    }

    #[test]
    fn length_delta_reports_inserted_and_evicted() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(2), None).unwrap();
        w.insert(&ev(&t, 0, "R1", 0.0)).unwrap();
        w.insert(&ev(&t, 1, "R1", 1.0)).unwrap();
        assert_eq!(dvals(w.view(0).iter()), vec![0.0, 1.0]);
        w.insert(&ev(&t, 2, "R1", 2.0)).unwrap();
        assert_eq!(dvals(w.view(0).iter()), vec![1.0, 2.0], "window of 2 pushed out the oldest");
        assert_eq!(all_rows(&w).len(), 2, "the ring keeps nothing no view reads");
    }

    #[test]
    fn last_event_delta_swaps_previous() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(1), None).unwrap();
        w.insert(&ev(&t, 0, "R1", 1.0)).unwrap();
        w.insert(&ev(&t, 1, "R1", 2.0)).unwrap();
        assert_eq!(dvals(w.view(0).iter()), vec![2.0]);
        assert_eq!(all_delays(&w), vec![2.0]);
    }

    #[test]
    fn length_batch_delta_is_empty_while_accumulating() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::LengthBatch(3), None).unwrap();
        let v0 = w.version();
        assert!(!w.insert(&ev(&t, 0, "R1", 0.0)).unwrap().evaluate);
        assert!(w.view(0).is_empty(), "visible window unchanged while accumulating");
        assert!(w.version() > v0, "the pending event is still a mutation");
        w.insert(&ev(&t, 1, "R1", 1.0)).unwrap();
        assert!(w.insert(&ev(&t, 2, "R1", 2.0)).unwrap().evaluate);
        assert_eq!(dvals(w.view(0).iter()), vec![0.0, 1.0, 2.0], "whole batch enters at once");
        // Next release replaces the previous batch.
        for i in 3..5 {
            w.insert(&ev(&t, i, "R1", i as f64)).unwrap();
        }
        assert_eq!(dvals(w.view(0).iter()), vec![0.0, 1.0, 2.0]);
        w.insert(&ev(&t, 5, "R1", 5.0)).unwrap();
        assert_eq!(dvals(w.view(0).iter()), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn time_delta_and_advance_time_delta() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::TimeMs(1000), None).unwrap();
        w.insert(&ev(&t, 0, "R1", 0.0)).unwrap();
        w.insert(&ev(&t, 500, "R1", 1.0)).unwrap();
        w.insert(&ev(&t, 1400, "R1", 2.0)).unwrap();
        assert_eq!(dvals(w.view(0).iter()), vec![1.0, 2.0], "expired on arrival");
        let v = w.version();
        w.advance_time(1600);
        assert_eq!(dvals(w.view(0).iter()), vec![2.0]);
        assert!(w.version() > v);
        w.advance_time(3000);
        assert!(w.view(0).is_empty());
        // No further evictions: the version stays.
        let v = w.version();
        w.advance_time(4000);
        assert_eq!(w.version(), v);
    }

    #[test]
    fn remove_matching_filters_panes_and_updates_len() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(3), Some(0)).unwrap();
        for i in 0..3 {
            w.insert(&ev(&t, i, "R1", i as f64)).unwrap();
            w.insert(&ev(&t, i, "R2", 100.0 + i as f64)).unwrap();
        }
        let v0 = w.version();
        let is_r1 = |row: &[FieldValue]| row[0] == FieldValue::from("R1");
        assert_eq!(w.remove_matching(is_r1), 3);
        assert_eq!(w.view(0).len(), 3, "R2's pane is untouched");
        assert!(w.version() > v0, "removal bumps the version");
        assert!(w.view(0).iter().all(|e| !is_r1(e.values())));
        // The emptied pane is gone: re-removal finds nothing.
        assert_eq!(w.remove_matching(is_r1), 0);
        let k1 = FieldValue::from("R1").join_key();
        assert!(w.view(0).group(Some(&k1)).is_none());
    }

    #[test]
    fn every_row_and_remove_matching_cover_batch_pending() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::LengthBatch(3), None).unwrap();
        w.insert(&ev(&t, 0, "R1", 0.0)).unwrap();
        w.insert(&ev(&t, 1, "R2", 1.0)).unwrap();
        assert_eq!(w.view(0).iter().count(), 0, "nothing released yet");
        assert_eq!(all_rows(&w).len(), 2, "pending events are migration state");
        let removed =
            w.remove_matching(|row| row[0] == FieldValue::from("R2"));
        assert_eq!(removed, 1);
        assert_eq!(w.view(0).len(), 0, "pending events never counted in len");
        assert_eq!(all_rows(&w).len(), 1);
    }

    #[test]
    fn tracked_aggregates_follow_each_pane_through_evictions() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(3), Some(0)).unwrap();
        w.insert(&ev(&t, 0, "R1", 7.0)).unwrap();
        // Tracking starts over a non-empty window: recompute, then follow.
        assert_eq!(w.track_field(0, 1).unwrap(), (0, true));
        assert_eq!(w.track_field(0, 1).unwrap(), (0, false));
        w.recompute_aggregates(0);
        let k1 = FieldValue::from("R1").join_key();
        let k2 = FieldValue::from("R2").join_key();
        let sum = |w: &SourceWindow, k: &JoinKey| {
            let g = w.view(0).group(Some(k)).unwrap();
            assert_eq!(g.rows, g.accs[0].count());
            (g.rows, g.accs[0].finish(crate::ast::AggFunc::Sum).unwrap())
        };
        assert_eq!(sum(&w, &k1), (1, 7.0));
        assert!(w.view(0).group(Some(&k2)).is_none());
        for (i, d) in [1.0, 2.0, 4.0, 8.0].into_iter().enumerate() {
            w.insert(&ev(&t, 1 + i as u64, "R1", d)).unwrap();
            w.insert(&ev(&t, 1 + i as u64, "R2", 10.0 * d)).unwrap();
        }
        assert_eq!(sum(&w, &k1), (3, 14.0), "7 and 1 slid out of R1's pane");
        assert_eq!(sum(&w, &k2), (3, 140.0));
        let last = w.view(0).group(Some(&k1)).unwrap().last;
        assert_eq!(last[1], FieldValue::Float(8.0));
        // A caller-supplied key reaches the same pane.
        w.insert_keyed(Arrival::of(&ev(&t, 9, "R2", 1.0)), Some(&k2)).unwrap();
        assert_eq!(dvals(w.view(0).iter_group(&k2)), vec![40.0, 80.0, 1.0], "20 slid out");
        assert_eq!(sum(&w, &k2), (3, 121.0));
        // The pane an insert entered is the arrival's group, read unkeyed.
        let entered = w.view(0).entered().unwrap();
        assert!(std::ptr::eq(entered.last, w.view(0).group(Some(&k2)).unwrap().last));
        assert_eq!((entered.rows, &entered.last[1]), (3, &FieldValue::Float(1.0)));
        // Removal and untracking leave nothing behind.
        w.remove_matching(|row| row[1] == FieldValue::Float(1.0));
        assert_eq!(sum(&w, &k2), (2, 120.0));
        w.untrack();
        assert_eq!(w.view(0).tracked_count(), 0);
        assert!(w.view(0).group(Some(&k2)).unwrap().accs.is_empty());
    }

    #[test]
    fn tracked_aggregates_restart_when_a_time_pane_empties() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::TimeMs(1000), Some(0)).unwrap();
        w.track_field(0, 1).unwrap();
        w.insert(&ev(&t, 0, "R1", 0.1)).unwrap();
        w.insert(&ev(&t, 10, "R1", 0.2)).unwrap();
        let k1 = FieldValue::from("R1").join_key();
        w.advance_time(5000);
        assert!(w.view(0).group(Some(&k1)).is_none(), "an emptied pane is no group");
        assert_eq!(w.view(0).group_count(), 0);
        // The next arrival sees none of the evicted samples' rounding.
        w.insert(&ev(&t, 6000, "R1", 0.3)).unwrap();
        let g = w.view(0).group(Some(&k1)).unwrap();
        assert_eq!(g.accs[0].raw_parts(), (1, 0.3, 0.3 * 0.3, 0.3, 0.3));
    }

    #[test]
    fn a_length_window_keeps_values_only_where_a_pane_rebuilds_its_rows() {
        let t = ty();
        let values = |spec, group| {
            let mut w = SourceWindow::new(spec, group).unwrap();
            w.set_rows(false);
            w
        };
        assert!(values(WindowSpec::Length(5), None).keeps_rows(), "one pane holds every key");
        assert!(values(WindowSpec::TimeMs(5), Some(0)).keeps_rows(), "expiry scans rows");
        let mut anchor = values(WindowSpec::Length(1), None);
        assert!(!anchor.keeps_rows(), "its one row is the newest");
        anchor.view_of(WindowSpec::Length(3)).unwrap();
        assert!(anchor.keeps_rows(), "a longer view re-checks");
        let mut grouped = values(WindowSpec::Length(5), Some(0));
        assert!(!grouped.keeps_rows());
        grouped.insert(&ev(&t, 0, "R1", 1.0)).unwrap();
        assert!(grouped.exact_on(1), "no pane holds an older row yet");
        grouped.insert(&ev(&t, 1, "R1", 2.0)).unwrap();
        assert!(grouped.exact_on(0) && !grouped.exact_on(1), "an older row knows its group");
    }

    #[test]
    fn iter_order_is_first_seen_pane_order() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(2), Some(0)).unwrap();
        w.insert(&ev(&t, 0, "B", 1.0)).unwrap();
        w.insert(&ev(&t, 1, "A", 2.0)).unwrap();
        w.insert(&ev(&t, 2, "B", 3.0)).unwrap();
        let order = dvals(w.view(0).iter());
        assert_eq!(order, vec![1.0, 3.0, 2.0], "pane B (seen first) before pane A");
    }

    /// Every view's row count, newest row and accumulator bits, per pane.
    type PaneState = Option<(u64, Vec<FieldValue>, Vec<u64>)>;
    fn state(w: &SourceWindow, view: usize, keys: &[JoinKey]) -> Vec<PaneState> {
        let v = w.view(view);
        let of = |g: GroupView<'_>| {
            let (n, s, q, lo, hi) = g.accs[0].raw_parts();
            (g.rows, g.last.to_vec(), vec![n, s.to_bits(), q.to_bits(), lo.to_bits(), hi.to_bits()])
        };
        keys.iter().map(|k| v.group(Some(k)).map(of)).collect()
    }

    #[test]
    fn views_of_one_ring_match_private_windows_bit_for_bit() {
        // Lengths 1, 3 and 10 over one ring that keeps values only, against
        // one private window of rows each, on non-integer samples with
        // spikes, through a mid-stream partial removal and the removal of
        // the middle view.
        let t = ty();
        let lengths = [1, 3, 10];
        let mut ring = SourceWindow::new(WindowSpec::Length(lengths[0]), Some(0)).unwrap();
        ring.set_rows(false);
        assert!(!ring.keeps_rows());
        let mut private = Vec::new();
        for (v, &n) in lengths.iter().enumerate() {
            assert_eq!(ring.view_of(WindowSpec::Length(n)).unwrap(), v);
            ring.track_field(v, 1).unwrap();
            let mut w = SourceWindow::new(WindowSpec::Length(n), Some(0)).unwrap();
            w.track_field(0, 1).unwrap();
            private.push(w);
        }
        let keys: Vec<JoinKey> = ["R1", "R2"].map(|k| FieldValue::from(k).join_key()).to_vec();
        let check = |ring: &SourceWindow, private: &[SourceWindow], views: &[usize]| {
            for (v, &p) in views.iter().enumerate() {
                assert_eq!(state(ring, v, &keys), state(&private[p], 0, &keys), "view {v}");
            }
            let longest = views.iter().map(|&p| private[p].view(0).len()).max().unwrap();
            let ring_rows = all_rows(ring);
            assert_eq!(ring_rows.len(), longest, "the ring holds the longest view");
            // The shipped rows carry every sample of the longest view.
            let longest = views.iter().max_by_key(|&&p| private[p].view(0).len()).unwrap();
            let samples = |rows: Vec<(u64, Vec<FieldValue>)>| -> Vec<(String, u64)> {
                let mut s: Vec<_> =
                    rows.iter().map(|(_, v)| (v[0].to_string(), v[1].as_f64().unwrap().to_bits())).collect();
                s.sort();
                s
            };
            assert_eq!(samples(ring_rows), samples(all_rows(&private[*longest])));
        };
        let spike = |i: u64| if i.is_multiple_of(11) { 1e9 } else { 1.0 };
        let sample = |i: u64| (i * 7919 % 1013) as f64 / 7.3 * spike(i);
        for i in 0..60u64 {
            let e = ev(&t, i, ["R1", "R2"][(i % 3 == 0) as usize], sample(i));
            ring.insert(&e).unwrap();
            for w in &mut private {
                w.insert(&e).unwrap();
            }
            check(&ring, &private, &[0, 1, 2]);
        }
        // High samples leave: each view keeps the survivors of its rows.
        let high = |row: &[FieldValue]| row[1].as_f64().unwrap() > 80.0;
        ring.remove_matching(high);
        for w in &mut private {
            w.remove_matching(high);
        }
        check(&ring, &private, &[0, 1, 2]);
        ring.remove_view(1);
        private.remove(1);
        for i in 60..90u64 {
            let e = ev(&t, i, ["R1", "R2"][(i % 4 == 0) as usize], sample(i));
            ring.insert(&e).unwrap();
            for w in &mut private {
                w.insert(&e).unwrap();
            }
            check(&ring, &private, &[0, 1]);
        }
        // Dropping the longest view trims the ring to the next one.
        ring.remove_view(1);
        private.remove(1);
        check(&ring, &private, &[0]);
    }
}
