//! View (window) state for one FROM source.
//!
//! A [`WindowSpec`] is the *data window* at the end of a view chain;
//! `std:groupwin(field)` is modelled as an optional grouping key in front
//! of it, so `bus.std:groupwin(location).win:length(10)` keeps the last 10
//! events **per location** — exactly the Listing 1 semantics.
//!
//! One [`SourceWindow`] can serve several *views*. Every `win:length(L)`
//! over one stream and `groupwin` field is a view of one length window:
//! each pane keeps one ring of the newest events, as many as its longest
//! view holds, and each view reads its own newest L with its own running
//! aggregates. An arrival is hashed to its pane and stored once, however
//! many lengths read it. Time, batch and keepall windows have one view.

use crate::agg::Accumulator;
use crate::error::CepError;
use crate::event::{Event, JoinKey};
use std::collections::{vec_deque, HashMap, VecDeque};

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

/// One view of a window: its data window, the fields its panes keep
/// running aggregates over, and its part of each pane.
#[derive(Debug)]
struct View {
    spec: WindowSpec,
    /// The union of what the statements served from this view aggregate.
    /// Append-only so member positions stay stable when a later install
    /// widens it.
    tracked: Vec<usize>,
    /// Parallel to the window's panes.
    suffixes: Vec<Suffix>,
}

/// One view's part of one pane: the pane's newest `rows` events, and the
/// running aggregates over them.
#[derive(Debug, Clone, Default)]
struct Suffix {
    rows: usize,
    /// Parallel to the view's tracked fields; empty while the suffix is (an
    /// empty suffix folds nothing).
    accs: Vec<Accumulator>,
    /// Rows subtracted from `accs` since they were last computed from the
    /// events themselves.
    evicted: u64,
}

impl Suffix {
    /// Folds one mutation into the rows and accumulators: evictions first,
    /// then insertions (a batch release replaces the old batch; a sliding
    /// window evicts before the arrival is visible). `events` is the pane
    /// after the mutation, whose newest `rows` are this view's once the
    /// mutation is counted.
    ///
    /// Subtract-on-evict leaves rounding residue in `sum`/`sum_sq` on
    /// non-integer samples, and cannot repair an evicted `min`/`max`. Both
    /// are handled by recomputing from the view's own rows, in pane order
    /// (the rescan's summation order): when an evicted value sat at an
    /// extremum, and once the evictions since the last recompute reach the
    /// row count. The second rule costs one extra row visit per eviction,
    /// amortised, and means the accumulators of a `win:length(L)` view only
    /// ever carry the rounding of its last 2L samples.
    fn fold<'e>(
        &mut self,
        fields: &[usize],
        evicted: impl IntoIterator<Item = &'e Event>,
        inserted: impl IntoIterator<Item = &'e Event>,
        events: &VecDeque<Event>,
    ) -> Result<(), CepError> {
        let mut due = false;
        for e in evicted {
            self.rows -= 1;
            if fields.is_empty() {
                continue;
            }
            if self.rows == 0 {
                // Emptied: whatever comes next starts from clean state.
                self.accs.clear();
                self.evicted = 0;
                continue;
            }
            let mut stale_extremum = false;
            for (acc, &f) in self.accs.iter_mut().zip(fields) {
                stale_extremum |= acc.remove(value(e, f)?);
            }
            self.evicted += 1;
            due |= stale_extremum || self.evicted >= self.rows as u64;
        }
        for e in inserted {
            self.rows += 1;
            if fields.is_empty() {
                continue;
            }
            self.accs.resize(fields.len(), Accumulator::new());
            for (acc, &f) in self.accs.iter_mut().zip(fields) {
                acc.add(value(e, f)?);
            }
        }
        // After the insertions: `events` already holds them, so an earlier
        // recompute would count them twice.
        if due && self.evicted > 0 {
            self.recompute(fields, events)?;
        }
        Ok(())
    }

    /// Replaces the accumulators by a fresh pass over the newest `rows` of
    /// `events`.
    fn recompute(&mut self, fields: &[usize], events: &VecDeque<Event>) -> Result<(), CepError> {
        self.accs.clear();
        self.evicted = 0;
        if fields.is_empty() || self.rows == 0 {
            return Ok(());
        }
        self.accs.resize(fields.len(), Accumulator::new());
        for e in events.range(events.len() - self.rows..) {
            for (acc, &f) in self.accs.iter_mut().zip(fields) {
                acc.add(value(e, f)?);
            }
        }
        Ok(())
    }
}

/// A tracked field's value as a sample.
fn value(e: &Event, field: usize) -> Result<f64, CepError> {
    e.value_at(field).expect("validated index").as_f64()
}

/// One group's events, which every view reads a suffix of.
#[derive(Debug, Default)]
struct Pane {
    /// Visible events, oldest first: a length window's ring holds as many
    /// as its longest view reads.
    events: VecDeque<Event>,
    /// For `LengthBatch`/`TimeBatchMs`: events accumulating towards the
    /// next release.
    pending: VecDeque<Event>,
    /// For `TimeBatchMs`: timestamp starting the current batch interval.
    batch_start: Option<u64>,
}

/// The newest `rows` events of a pane, oldest first.
fn newest(events: &VecDeque<Event>, rows: usize) -> vec_deque::Iter<'_, Event> {
    events.range(events.len() - rows..)
}

/// One non-empty pane as a pane-served statement reads it: one lookup
/// answers how many rows, which is newest, and what they add up to.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    /// Retained rows (at least one).
    pub rows: u64,
    /// Most recently retained event.
    pub last: &'a Event,
    /// Running aggregates, parallel to [`WindowView::tracked_fields`].
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
    /// Creates a window with one view, `spec`.
    pub fn new(spec: WindowSpec, group_field: Option<usize>) -> Result<Self, CepError> {
        check(spec)?;
        Ok(SourceWindow {
            views: vec![View { spec, tracked: Vec::new(), suffixes: vec![Suffix::default()] }],
            group_field,
            panes: vec![Pane::default()],
            index: HashMap::new(),
            entered: 0,
            version: 0,
        })
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
        Ok(self.views.len() - 1)
    }

    /// Removes a view of a length window; each ring keeps what the other
    /// views read. Later views move down one position.
    pub fn remove_view(&mut self, view: usize) {
        self.views.remove(view);
        for (at, pane) in self.panes.iter_mut().enumerate() {
            let longest = self.views.iter().map(|v| v.suffixes[at].rows).max().unwrap_or(0);
            pane.events.drain(..pane.events.len() - longest);
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
        self.insert_keyed(event, key.as_ref())
    }

    /// [`Self::insert`] for a caller that already holds the join key of
    /// the event's `groupwin` field (`None` for an ungrouped window): one
    /// arrival enters several windows grouped by the same field. The pane
    /// is found once; every view's running aggregates are folded in the
    /// same visit.
    pub fn insert_keyed(
        &mut self,
        event: &Event,
        key: Option<&JoinKey>,
    ) -> Result<InsertOutcome, CepError> {
        self.version += 1;
        let ts = event.timestamp_ms();
        let SourceWindow { views, panes, index, entered, .. } = self;
        let at = match key {
            None => 0,
            Some(key) => match index.get(key) {
                Some(&at) => at,
                None => {
                    panes.push(Pane::default());
                    for view in views.iter_mut() {
                        view.suffixes.push(Suffix::default());
                    }
                    index.insert(key.clone(), panes.len() - 1);
                    panes.len() - 1
                }
            },
        };
        *entered = at;
        let Pane { events, pending, batch_start } = &mut panes[at];
        let arrival = std::slice::from_ref(event);
        let spec = views[0].spec;
        // Any window but a length window has this one view.
        let View { tracked, suffixes, .. } = &mut views[0];
        let mut evaluate = true;
        match spec {
            WindowSpec::Length(_) => {
                events.push_back(event.clone());
                let last = events.len() - 1;
                let mut longest = 0;
                for view in views.iter_mut() {
                    let WindowSpec::Length(n) = view.spec else { unreachable!("a ring") };
                    let suffix = &mut view.suffixes[at];
                    // Full: the view's oldest row, n back, leaves it.
                    let out = (suffix.rows == n).then(|| &events[last - n]);
                    suffix.fold(&view.tracked, out, arrival, events)?;
                    longest = longest.max(suffix.rows);
                }
                if events.len() > longest {
                    events.pop_front();
                }
            }
            WindowSpec::LengthBatch(n) => {
                pending.push_back(event.clone());
                if pending.len() >= n {
                    let old = std::mem::replace(events, std::mem::take(pending));
                    suffixes[at].fold(tracked, &old, &*events, events)?;
                } else {
                    evaluate = false;
                }
            }
            WindowSpec::TimeMs(w) => {
                events.push_back(event.clone());
                let cutoff = ts.saturating_sub(w);
                let expired = events.iter().take_while(|e| e.timestamp_ms() < cutoff).count();
                suffixes[at].fold(tracked, events.range(..expired), arrival, events)?;
                events.drain(..expired);
            }
            WindowSpec::TimeBatchMs(w) => {
                let start = *batch_start.get_or_insert(ts);
                if ts.saturating_sub(start) >= w {
                    // The arriving event opens a new interval; everything
                    // accumulated in the previous one releases now.
                    let old = std::mem::replace(events, std::mem::take(pending));
                    *batch_start = Some(ts);
                    pending.push_back(event.clone());
                    suffixes[at].fold(tracked, &old, &*events, events)?;
                } else {
                    pending.push_back(event.clone());
                    evaluate = false;
                }
            }
            WindowSpec::KeepAll => {
                events.push_back(event.clone());
                suffixes[at].fold(tracked, None, arrival, events)?;
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
            let expired = pane.events.iter().take_while(|e| e.timestamp_ms() < cutoff).count();
            if expired == 0 {
                continue;
            }
            suffix
                .fold(tracked, pane.events.range(..expired), None, &pane.events)
                // Removal re-reads only values that folded in when they arrived.
                .expect("eviction cannot fail after a successful insert");
            pane.events.drain(..expired);
            self.version += 1;
        }
    }

    /// Iterates *everything* the window holds: the ring (the longest
    /// view's rows) plus the pending accumulation of batch windows, pane
    /// by pane (ungrouped first, then first-seen key order). Within one
    /// pane the visible events precede the pending ones, which is arrival
    /// order — batch windows accumulate strictly after their last release.
    /// This is the migration view: a state handoff ships each event once,
    /// however many views read it, and the events a batch window has
    /// absorbed but not yet released.
    pub fn iter_all(&self) -> impl Iterator<Item = &Event> {
        self.panes.iter().flat_map(|p| p.events.iter().chain(p.pending.iter()))
    }

    /// Removes every event matching `pred` from the window — visible and
    /// batch-pending alike — returning how many were removed. Each view
    /// keeps its own surviving rows (the newest survivors of the ring), and
    /// a view that lost rows recomputes its aggregates. Emptied `groupwin`
    /// panes are dropped entirely. Any removal bumps the version,
    /// invalidating cached indexes over this window. This is the
    /// destructive half of a partition migration; the engine replans its
    /// statements afterwards.
    pub fn remove_matching(&mut self, pred: impl Fn(&Event) -> bool) -> usize {
        let mut removed = 0usize;
        let SourceWindow { views, panes, index, entered, .. } = self;
        for (at, pane) in panes.iter_mut().enumerate() {
            let kept: Vec<usize> = views
                .iter()
                .map(|v| newest(&pane.events, v.suffixes[at].rows).filter(|e| !pred(e)).count())
                .collect();
            let before = pane.events.len() + pane.pending.len();
            pane.events.retain(|e| !pred(e));
            pane.pending.retain(|e| !pred(e));
            removed += before - pane.events.len() - pane.pending.len();
            for (View { tracked, suffixes, .. }, kept) in views.iter_mut().zip(kept) {
                if kept != suffixes[at].rows {
                    suffixes[at].rows = kept;
                    suffixes[at]
                        .recompute(tracked, &pane.events)
                        .expect("the surviving values folded in when they arrived");
                }
            }
        }
        // Keeps the ungrouped pane, and every pane still holding events.
        let keep: Vec<bool> = (panes.iter().enumerate())
            .map(|(at, p)| at == 0 || !p.events.is_empty() || !p.pending.is_empty())
            .collect();
        if keep.contains(&false) {
            retain_by(panes, &keep);
            for view in views.iter_mut() {
                retain_by(&mut view.suffixes, &keep);
            }
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
    /// needs [`Self::recompute_aggregates`] before the next read.
    pub fn track_field(&mut self, view: usize, field: usize) -> (usize, bool) {
        let tracked = &mut self.views[view].tracked;
        match tracked.iter().position(|&f| f == field) {
            Some(pos) => (pos, false),
            None => {
                tracked.push(field);
                (tracked.len() - 1, true)
            }
        }
    }

    /// Stops aggregating in every view: no tracked fields, no accumulators.
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
    pub fn recompute_aggregates(&mut self, view: usize) -> Result<(), CepError> {
        let View { tracked, suffixes, .. } = &mut self.views[view];
        for (suffix, pane) in suffixes.iter_mut().zip(&self.panes) {
            suffix.recompute(tracked, &pane.events)?;
        }
        Ok(())
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

/// Keeps the elements whose `keep` flag is set.
fn retain_by<T>(items: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    items.retain(|_| *flags.next().expect("one flag per item"));
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

    /// The view's rows of the pane at `at`, oldest first.
    fn rows(self, at: usize) -> vec_deque::Iter<'a, Event> {
        newest(&self.window.panes[at].events, self.window.views[self.view].suffixes[at].rows)
    }

    /// Iterates the view's events: the ungrouped pane first, then each
    /// `groupwin` pane in first-seen key order (insertion order within a
    /// pane) — the order a rescan sums in, which is also the order a view
    /// recomputes its aggregates in.
    pub fn iter(self) -> impl Iterator<Item = &'a Event> {
        (0..self.window.panes.len()).flat_map(move |at| self.rows(at))
    }

    /// Fast path: the view's events of one `groupwin` pane. Only valid
    /// when the window is grouped and `key` is the group key.
    pub fn iter_group(self, key: &JoinKey) -> impl Iterator<Item = &'a Event> {
        self.window.index.get(key).into_iter().flat_map(move |&at| self.rows(at))
    }

    /// Number of events the view holds across panes.
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

    /// One pane's occupancy, newest event and running aggregates: the
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
        let last = self.window.panes[at].events.back().filter(|_| *rows > 0)?;
        Some(GroupView { rows: *rows as u64, last, accs })
    }

    /// Number of `groupwin` panes the view holds rows of.
    pub fn group_count(self) -> usize {
        self.window.views[self.view].suffixes[1..].iter().filter(|s| s.rows > 0).count()
    }

    /// The fields the view's panes keep running aggregates over.
    pub fn tracked_fields(self) -> &'a [usize] {
        &self.window.views[self.view].tracked
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
        assert_eq!(w.iter_all().count(), 2, "the ring keeps nothing no view reads");
    }

    #[test]
    fn last_event_delta_swaps_previous() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(1), None).unwrap();
        w.insert(&ev(&t, 0, "R1", 1.0)).unwrap();
        w.insert(&ev(&t, 1, "R1", 2.0)).unwrap();
        assert_eq!(dvals(w.view(0).iter()), vec![2.0]);
        assert_eq!(dvals(w.iter_all()), vec![2.0]);
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
        let is_r1 = |e: &Event| e.value_at(0).unwrap() == &FieldValue::from("R1");
        assert_eq!(w.remove_matching(is_r1), 3);
        assert_eq!(w.view(0).len(), 3, "R2's pane is untouched");
        assert!(w.version() > v0, "removal bumps the version");
        assert!(w.view(0).iter().all(|e| !is_r1(e)));
        // The emptied pane is gone: re-removal finds nothing.
        assert_eq!(w.remove_matching(is_r1), 0);
        let k1 = FieldValue::from("R1").join_key();
        assert!(w.view(0).group(Some(&k1)).is_none());
    }

    #[test]
    fn iter_all_and_remove_matching_cover_batch_pending() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::LengthBatch(3), None).unwrap();
        w.insert(&ev(&t, 0, "R1", 0.0)).unwrap();
        w.insert(&ev(&t, 1, "R2", 1.0)).unwrap();
        assert_eq!(w.view(0).iter().count(), 0, "nothing released yet");
        assert_eq!(w.iter_all().count(), 2, "pending events are migration state");
        let removed =
            w.remove_matching(|e| e.value_at(0).unwrap() == &FieldValue::from("R2"));
        assert_eq!(removed, 1);
        assert_eq!(w.view(0).len(), 0, "pending events never counted in len");
        assert_eq!(w.iter_all().count(), 1);
    }

    #[test]
    fn tracked_aggregates_follow_each_pane_through_evictions() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(3), Some(0)).unwrap();
        w.insert(&ev(&t, 0, "R1", 7.0)).unwrap();
        // Tracking starts over a non-empty window: recompute, then follow.
        assert_eq!(w.track_field(0, 1), (0, true));
        assert_eq!(w.track_field(0, 1), (0, false));
        w.recompute_aggregates(0).unwrap();
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
        assert_eq!(last.value_at(1), Some(&FieldValue::Float(8.0)));
        // A caller-supplied key reaches the same pane.
        w.insert_keyed(&ev(&t, 9, "R2", 1.0), Some(&k2)).unwrap();
        assert_eq!(dvals(w.view(0).iter_group(&k2)), vec![40.0, 80.0, 1.0], "20 slid out");
        assert_eq!(sum(&w, &k2), (3, 121.0));
        // The pane an insert entered is the arrival's group, read unkeyed.
        let entered = w.view(0).entered().unwrap();
        assert!(std::ptr::eq(entered.last, w.view(0).group(Some(&k2)).unwrap().last));
        assert_eq!((entered.rows, entered.last.timestamp_ms()), (3, 9));
        // Removal and untracking leave nothing behind.
        w.remove_matching(|e| e.value_at(1) == Some(&FieldValue::Float(1.0)));
        assert_eq!(sum(&w, &k2), (2, 120.0));
        w.untrack();
        assert!(w.view(0).tracked_fields().is_empty());
        assert!(w.view(0).group(Some(&k2)).unwrap().accs.is_empty());
    }

    #[test]
    fn tracked_aggregates_restart_when_a_time_pane_empties() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::TimeMs(1000), Some(0)).unwrap();
        w.track_field(0, 1);
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
    fn iter_order_is_first_seen_pane_order() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(2), Some(0)).unwrap();
        w.insert(&ev(&t, 0, "B", 1.0)).unwrap();
        w.insert(&ev(&t, 1, "A", 2.0)).unwrap();
        w.insert(&ev(&t, 2, "B", 3.0)).unwrap();
        let order = dvals(w.view(0).iter());
        assert_eq!(order, vec![1.0, 3.0, 2.0], "pane B (seen first) before pane A");
    }

    /// Every view's rows and accumulator bits, per pane.
    fn state(w: &SourceWindow, view: usize, keys: &[JoinKey]) -> Vec<(Vec<f64>, Vec<u64>)> {
        let bits = |g: Option<GroupView<'_>>| {
            g.map_or(Vec::new(), |g| {
                let (n, s, q, lo, hi) = g.accs[0].raw_parts();
                vec![n, s.to_bits(), q.to_bits(), lo.to_bits(), hi.to_bits()]
            })
        };
        let v = w.view(view);
        keys.iter().map(|k| (dvals(v.iter_group(k)), bits(v.group(Some(k))))).collect()
    }

    #[test]
    fn views_of_one_ring_match_private_windows_bit_for_bit() {
        // Lengths 1, 3 and 10 over one ring against one private window
        // each, on non-integer samples with spikes, through a mid-stream
        // partial removal and the removal of the middle view.
        let t = ty();
        let lengths = [1, 3, 10];
        let mut ring = SourceWindow::new(WindowSpec::Length(lengths[0]), Some(0)).unwrap();
        let mut private = Vec::new();
        for (v, &n) in lengths.iter().enumerate() {
            assert_eq!(ring.view_of(WindowSpec::Length(n)).unwrap(), v);
            ring.track_field(v, 1);
            let mut w = SourceWindow::new(WindowSpec::Length(n), Some(0)).unwrap();
            w.track_field(0, 1);
            private.push(w);
        }
        let keys: Vec<JoinKey> = ["R1", "R2"].map(|k| FieldValue::from(k).join_key()).to_vec();
        let check = |ring: &SourceWindow, private: &[SourceWindow], views: &[usize]| {
            for (v, &p) in views.iter().enumerate() {
                assert_eq!(state(ring, v, &keys), state(&private[p], 0, &keys), "view {v}");
            }
            let longest = views.iter().map(|&p| private[p].view(0).len()).max().unwrap();
            assert_eq!(ring.iter_all().count(), longest, "the ring holds the longest view");
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
        // Odd timestamps leave: each view keeps the survivors of its rows.
        let odd = |e: &Event| e.timestamp_ms() % 2 == 1;
        ring.remove_matching(odd);
        for w in &mut private {
            w.remove_matching(odd);
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
