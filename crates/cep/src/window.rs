//! View (window) state for one FROM source.
//!
//! A [`WindowSpec`] is the *data window* at the end of a view chain;
//! `std:groupwin(field)` is modelled as an optional grouping key in front
//! of it, so `bus.std:groupwin(location).win:length(10)` keeps the last 10
//! events **per location** — exactly the Listing 1 semantics.

use crate::agg::Accumulator;
use crate::error::CepError;
use crate::event::{Event, JoinKey};
use std::collections::{HashMap, VecDeque};

/// The data window of a view chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowSpec {
    /// `std:lastevent()` — only the most recent event.
    LastEvent,
    /// `win:length(n)` — sliding window of the last `n` events.
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

/// Outcome of inserting an event into a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Whether statement evaluation should run now. Always true except for
    /// a `length_batch` window still accumulating its batch.
    pub evaluate: bool,
}

/// The change one mutation made to a window's *visible* contents, beyond
/// the arrival itself.
///
/// An arrival into a sliding window (lastevent, length, time, keepall) is
/// the one event that enters: `inserted` stays empty and `evicted` holds
/// whatever it pushed out. A batch release yields the released batch as
/// `inserted` and the outgoing batch as `evicted`; an accumulating batch
/// window yields an empty delta (its visible contents did not change). A
/// pane folds the arrival, or the released batch, into its running
/// aggregates in the same visit. Reused as a scratch buffer — callers
/// `clear()` between mutations.
#[derive(Debug, Clone, Default)]
pub struct WindowDelta {
    /// A batch release's events, in insertion order.
    pub inserted: Vec<Event>,
    /// Events that left the visible window, in eviction order.
    pub evicted: Vec<Event>,
}

impl WindowDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties both sides, keeping capacity.
    pub fn clear(&mut self) {
        self.inserted.clear();
        self.evicted.clear();
    }

    /// Whether the mutation changed nothing visible.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.evicted.is_empty()
    }
}

#[derive(Debug, Default)]
struct Pane {
    events: VecDeque<Event>,
    /// For `LengthBatch`/`TimeBatchMs`: events accumulating towards the
    /// next release.
    pending: VecDeque<Event>,
    /// For `TimeBatchMs`: timestamp starting the current batch interval.
    batch_start: Option<u64>,
    /// Running aggregates over `events`, parallel to the window's tracked
    /// fields; empty while the pane is (an empty pane folds nothing).
    accs: Vec<Accumulator>,
    /// Rows subtracted from `accs` since they were last computed from
    /// `events` themselves.
    evicted: u64,
}

impl Pane {
    /// The pane as a pane-served statement reads it; `None` while empty.
    fn view(&self) -> Option<GroupView<'_>> {
        let last = self.events.back()?;
        Some(GroupView { rows: self.events.len() as u64, last, accs: &self.accs })
    }

    /// Folds one mutation of this pane into its accumulators: evictions
    /// first, then insertions (a batch release replaces the old batch; a
    /// sliding window evicts before the arrival is visible). `rows` is the
    /// pane's occupancy before the mutation.
    ///
    /// Subtract-on-evict leaves rounding residue in `sum`/`sum_sq` on
    /// non-integer samples, and cannot repair an evicted `min`/`max`. Both
    /// are handled by recomputing from the pane, in pane order (the
    /// rescan's summation order): when an evicted value sat at an
    /// extremum, and once the evictions since the last recompute reach the
    /// row count. The second rule costs one extra row visit per eviction,
    /// amortised, and means the accumulators of a `win:length(L)` pane only
    /// ever carry the rounding of its last 2L samples.
    fn fold(
        &mut self,
        fields: &[usize],
        evicted: &[Event],
        inserted: &[Event],
        mut rows: usize,
    ) -> Result<(), CepError> {
        if fields.is_empty() {
            return Ok(());
        }
        let mut due = false;
        for e in evicted {
            rows -= 1;
            if rows == 0 {
                // Emptied: whatever comes next starts from clean state.
                self.accs.clear();
                self.evicted = 0;
                continue;
            }
            let mut stale_extremum = false;
            for (acc, &f) in self.accs.iter_mut().zip(fields) {
                stale_extremum |= acc.remove(e.value_at(f).expect("validated index").as_f64()?);
            }
            self.evicted += 1;
            due |= stale_extremum || self.evicted >= rows as u64;
        }
        if !inserted.is_empty() {
            self.accs.resize(fields.len(), Accumulator::new());
        }
        for e in inserted {
            for (acc, &f) in self.accs.iter_mut().zip(fields) {
                acc.add(e.value_at(f).expect("validated index").as_f64()?);
            }
        }
        // After the insertions: `events` already holds them, so an earlier
        // recompute would count them twice.
        if due && self.evicted > 0 {
            self.recompute(fields)?;
        }
        Ok(())
    }

    /// Replaces the accumulators by a fresh pass over the pane.
    fn recompute(&mut self, fields: &[usize]) -> Result<(), CepError> {
        self.accs.clear();
        self.evicted = 0;
        if fields.is_empty() || self.events.is_empty() {
            return Ok(());
        }
        self.accs.resize(fields.len(), Accumulator::new());
        for e in &self.events {
            for (acc, &f) in self.accs.iter_mut().zip(fields) {
                acc.add(e.value_at(f).expect("validated index").as_f64()?);
            }
        }
        Ok(())
    }
}

/// One non-empty pane as a pane-served statement reads it: one lookup
/// answers how many rows, which is newest, and what they add up to.
#[derive(Debug, Clone, Copy)]
pub struct GroupView<'a> {
    /// Retained rows (at least one).
    pub rows: u64,
    /// Most recently retained event.
    pub last: &'a Event,
    /// Running aggregates, parallel to [`SourceWindow::tracked_fields`].
    pub accs: &'a [Accumulator],
}

/// Window state: ungrouped, or one pane per `groupwin` key.
#[derive(Debug)]
pub struct SourceWindow {
    spec: WindowSpec,
    /// Field index of the `std:groupwin` key within the source's event
    /// type, if grouped.
    group_field: Option<usize>,
    ungrouped: Pane,
    /// `groupwin` panes in first-seen key order, so [`SourceWindow::iter`]
    /// walks them deterministically (a rescan emits the same rows every
    /// run), and their positions by key.
    panes: Vec<(JoinKey, Pane)>,
    index: HashMap<JoinKey, usize>,
    /// Position in `panes` of the pane the latest insert entered.
    entered: Option<usize>,
    /// Fields every pane keeps running aggregates over — the union of
    /// what the statements served from this window aggregate. Append-only
    /// so member positions stay stable when a later install widens it.
    tracked: Vec<usize>,
    len: usize,
    /// Bumped on every mutation; lets the engine cache join indexes over
    /// windows that rarely change (e.g. the threshold `keepall` stream).
    version: u64,
}

impl SourceWindow {
    /// Creates a window.
    pub fn new(spec: WindowSpec, group_field: Option<usize>) -> Result<Self, CepError> {
        match spec {
            WindowSpec::Length(0) | WindowSpec::LengthBatch(0) => {
                return Err(CepError::BadView {
                    view: "win:length".into(),
                    reason: "window length must be at least 1".into(),
                })
            }
            WindowSpec::TimeMs(0) | WindowSpec::TimeBatchMs(0) => {
                return Err(CepError::BadView {
                    view: "win:time".into(),
                    reason: "time window must be positive".into(),
                })
            }
            _ => {}
        }
        Ok(SourceWindow {
            spec,
            group_field,
            ungrouped: Pane::default(),
            panes: Vec::new(),
            index: HashMap::new(),
            entered: None,
            tracked: Vec::new(),
            len: 0,
            version: 0,
        })
    }

    /// The window spec.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Total number of retained events across panes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Monotone change counter; any mutation bumps it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Inserts an event, evicting per the spec.
    pub fn insert(&mut self, event: &Event) -> Result<InsertOutcome, CepError> {
        self.insert_with_delta(event, &mut WindowDelta::new())
    }

    /// Inserts an event, recording the visible-window change in `delta`
    /// (which is cleared first).
    pub fn insert_with_delta(
        &mut self,
        event: &Event,
        delta: &mut WindowDelta,
    ) -> Result<InsertOutcome, CepError> {
        let key = self.group_field.map(|idx| {
            event.value_at(idx).expect("group field index validated at compile time").join_key()
        });
        self.insert_keyed(event, key.as_ref(), delta)
    }

    /// [`Self::insert_with_delta`] for a caller that already holds the
    /// join key of the event's `groupwin` field (`None` for an ungrouped
    /// window): one arrival enters several windows grouped by the same
    /// field. The pane is found once; its running aggregates are folded in
    /// the same visit.
    pub fn insert_keyed(
        &mut self,
        event: &Event,
        key: Option<&JoinKey>,
        delta: &mut WindowDelta,
    ) -> Result<InsertOutcome, CepError> {
        delta.clear();
        self.version += 1;
        let ts = event.timestamp_ms();
        let SourceWindow { spec, ungrouped, panes, index, entered, tracked, len, .. } = self;
        let pane = match key {
            None => ungrouped,
            Some(key) => {
                let at = match index.get(key) {
                    Some(&at) => at,
                    None => {
                        panes.push((key.clone(), Pane::default()));
                        index.insert(key.clone(), panes.len() - 1);
                        panes.len() - 1
                    }
                };
                *entered = Some(at);
                &mut panes[at].1
            }
        };
        let rows = pane.events.len();
        let mut evaluate = true;
        match *spec {
            WindowSpec::LastEvent => {
                delta.evicted.extend(pane.events.drain(..));
                pane.events.push_back(event.clone());
            }
            WindowSpec::Length(n) => {
                pane.events.push_back(event.clone());
                while pane.events.len() > n {
                    delta.evicted.extend(pane.events.pop_front());
                }
            }
            WindowSpec::LengthBatch(n) => {
                pane.pending.push_back(event.clone());
                if pane.pending.len() >= n {
                    let old = std::mem::replace(&mut pane.events, std::mem::take(&mut pane.pending));
                    delta.evicted.extend(old);
                    delta.inserted.extend(pane.events.iter().cloned());
                } else {
                    evaluate = false;
                }
            }
            WindowSpec::TimeMs(w) => {
                pane.events.push_back(event.clone());
                let cutoff = ts.saturating_sub(w);
                while pane.events.front().is_some_and(|e| e.timestamp_ms() < cutoff) {
                    delta.evicted.extend(pane.events.pop_front());
                }
            }
            WindowSpec::TimeBatchMs(w) => {
                let start = *pane.batch_start.get_or_insert(ts);
                if ts.saturating_sub(start) >= w {
                    // The arriving event opens a new interval; everything
                    // accumulated in the previous one releases now.
                    let old = std::mem::replace(&mut pane.events, std::mem::take(&mut pane.pending));
                    pane.batch_start = Some(ts);
                    pane.pending.push_back(event.clone());
                    delta.evicted.extend(old);
                    delta.inserted.extend(pane.events.iter().cloned());
                } else {
                    pane.pending.push_back(event.clone());
                    evaluate = false;
                }
            }
            WindowSpec::KeepAll => pane.events.push_back(event.clone()),
        }
        let came_in = if spec.is_batch() { &delta.inserted[..] } else { std::slice::from_ref(event) };
        *len = *len + came_in.len() - delta.evicted.len();
        pane.fold(tracked, &delta.evicted, came_in, rows)?;
        Ok(InsertOutcome { evaluate })
    }

    /// Advances event time without an arrival, evicting expired events
    /// from time windows. Other specs are unaffected.
    pub fn advance_time(&mut self, now_ms: u64) {
        self.advance_time_with_delta(now_ms, &mut WindowDelta::new());
    }

    /// Advances event time, recording evictions in `delta` (cleared
    /// first). Deterministic: panes are visited in first-seen order.
    pub fn advance_time_with_delta(&mut self, now_ms: u64, delta: &mut WindowDelta) {
        delta.clear();
        let WindowSpec::TimeMs(w) = self.spec else { return };
        let cutoff = now_ms.saturating_sub(w);
        let SourceWindow { ungrouped, panes, tracked, len, .. } = self;
        // Ungrouped pane first, then keyed panes in first-seen order — the
        // same order `iter` exposes, so delta eviction order matches.
        for pane in panes_mut(ungrouped, panes) {
            evict_expired(pane, cutoff, tracked, delta);
        }
        if !delta.evicted.is_empty() {
            *len -= delta.evicted.len();
            self.version += 1;
        }
    }

    /// Iterates all retained events: the ungrouped pane first, then each
    /// `groupwin` pane in first-seen key order (insertion order within a
    /// pane) — the order a rescan sums in, which is also the order a pane
    /// recomputes its aggregates in.
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.all_panes().flat_map(|p| p.events.iter())
    }

    /// The ungrouped pane, then each `groupwin` pane in first-seen order.
    fn all_panes(&self) -> impl Iterator<Item = &Pane> {
        std::iter::once(&self.ungrouped).chain(self.panes.iter().map(|(_, p)| p))
    }

    /// Iterates *everything* the window holds: visible events plus the
    /// pending accumulation of batch windows, pane by pane (ungrouped
    /// first, then first-seen key order). Within one pane the visible
    /// events precede the pending ones, which is arrival order — batch
    /// windows accumulate strictly after their last release. This is the
    /// migration view: a state handoff must ship events a batch window
    /// has absorbed but not yet released.
    pub fn iter_all(&self) -> impl Iterator<Item = &Event> {
        self.all_panes().flat_map(|p| p.events.iter().chain(p.pending.iter()))
    }

    /// Removes every event matching `pred` from the window — visible and
    /// batch-pending alike — returning how many were removed. Emptied
    /// `groupwin` panes are dropped entirely. Any removal bumps the
    /// version, invalidating cached indexes over this window. This is the
    /// destructive half of a partition migration; the engine replans its
    /// statements afterwards.
    pub fn remove_matching(&mut self, pred: impl Fn(&Event) -> bool) -> usize {
        let (mut removed, mut visible) = (0usize, 0usize);
        let SourceWindow { ungrouped, panes, tracked, .. } = self;
        for pane in panes_mut(ungrouped, panes) {
            let before = pane.events.len();
            pane.events.retain(|e| !pred(e));
            visible += before - pane.events.len();
            if pane.events.len() != before {
                pane.recompute(tracked)
                    .expect("the surviving values folded in when they arrived");
            }
            let before = pane.pending.len();
            pane.pending.retain(|e| !pred(e));
            removed += before - pane.pending.len();
        }
        let panes = self.panes.len();
        self.panes.retain(|(_, p)| !p.events.is_empty() || !p.pending.is_empty());
        if self.panes.len() != panes {
            self.index = self.panes.iter().enumerate().map(|(i, (k, _))| (k.clone(), i)).collect();
            self.entered = None;
        }
        self.len -= visible;
        removed += visible;
        if removed > 0 {
            self.version += 1;
        }
        removed
    }

    /// Fast path: retained events of one `groupwin` pane. Only valid when
    /// the window is grouped and `key` is the group key.
    pub fn iter_group(&self, key: &JoinKey) -> impl Iterator<Item = &Event> {
        self.index.get(key).into_iter().flat_map(|&at| self.panes[at].1.events.iter())
    }

    /// One pane's occupancy, newest event and running aggregates: the
    /// `groupwin` pane of `key`, or the ungrouped pane for `None`; `None`
    /// for an unseen or empty pane. O(1) — a pane-served statement reads
    /// this instead of scanning.
    pub fn group(&self, key: Option<&JoinKey>) -> Option<GroupView<'_>> {
        match key {
            Some(key) => self.panes[*self.index.get(key)?].1.view(),
            None => self.ungrouped.view(),
        }
    }

    /// [`Self::group`] of the pane the latest insert entered — the
    /// arrival's own pane, found without hashing its key again.
    pub(crate) fn entered(&self) -> Option<GroupView<'_>> {
        match self.group_field {
            Some(_) => self.panes.get(self.entered?)?.1.view(),
            None => self.ungrouped.view(),
        }
    }

    /// Number of non-empty `groupwin` panes.
    pub fn group_count(&self) -> usize {
        self.panes.iter().filter(|(_, p)| !p.events.is_empty()).count()
    }

    /// The group field index, if this window is grouped.
    pub fn group_field(&self) -> Option<usize> {
        self.group_field
    }

    /// The fields every pane keeps running aggregates over.
    pub fn tracked_fields(&self) -> &[usize] {
        &self.tracked
    }

    /// Ensures panes aggregate `field`, returning its stable position and
    /// whether it is new. A new field over a non-empty window needs
    /// [`Self::recompute_aggregates`] before the next read.
    pub fn track_field(&mut self, field: usize) -> (usize, bool) {
        match self.tracked.iter().position(|&f| f == field) {
            Some(pos) => (pos, false),
            None => {
                self.tracked.push(field);
                (self.tracked.len() - 1, true)
            }
        }
    }

    /// Stops aggregating: no tracked fields, no accumulators.
    pub fn untrack(&mut self) {
        self.tracked.clear();
        for pane in panes_mut(&mut self.ungrouped, &mut self.panes) {
            pane.accs.clear();
            pane.evicted = 0;
        }
    }

    /// Recomputes every pane's aggregates from its events (install-time
    /// widening and replans).
    pub fn recompute_aggregates(&mut self) -> Result<(), CepError> {
        let SourceWindow { ungrouped, panes, tracked, .. } = self;
        for pane in panes_mut(ungrouped, panes) {
            pane.recompute(tracked)?;
        }
        Ok(())
    }
}

/// The ungrouped pane, then each `groupwin` pane in first-seen order; a
/// free function, so a caller can borrow the window's other fields beside.
fn panes_mut<'a>(
    ungrouped: &'a mut Pane,
    panes: &'a mut [(JoinKey, Pane)],
) -> impl Iterator<Item = &'a mut Pane> {
    std::iter::once(ungrouped).chain(panes.iter_mut().map(|(_, p)| p))
}

/// Pops expired events off a pane's front, appending them to
/// `delta.evicted` and folding them out of the pane's aggregates.
fn evict_expired(pane: &mut Pane, cutoff: u64, tracked: &[usize], delta: &mut WindowDelta) {
    let (rows, from) = (pane.events.len(), delta.evicted.len());
    while pane.events.front().is_some_and(|e| e.timestamp_ms() < cutoff) {
        delta.evicted.extend(pane.events.pop_front());
    }
    pane.fold(tracked, &delta.evicted[from..], &[], rows)
        // Removal re-reads only values that folded in when they arrived.
        .expect("delta eviction cannot fail after a successful insert");
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

    fn delays(w: &SourceWindow) -> Vec<f64> {
        let mut v: Vec<f64> = w.iter().map(|e| e.value_at(1).unwrap().as_f64().unwrap()).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    #[test]
    fn last_event_keeps_one() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::LastEvent, None).unwrap();
        for i in 0..5 {
            assert!(w.insert(&ev(&t, i, "R1", i as f64)).unwrap().evaluate);
        }
        assert_eq!(w.len(), 1);
        assert_eq!(delays(&w), vec![4.0]);
    }

    #[test]
    fn length_window_slides() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(3), None).unwrap();
        for i in 0..5 {
            w.insert(&ev(&t, i, "R1", i as f64)).unwrap();
        }
        assert_eq!(w.len(), 3);
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
        assert_eq!(w.len(), 4);
        let k1 = FieldValue::from("R1").join_key();
        let g1: Vec<f64> =
            w.iter_group(&k1).map(|e| e.value_at(1).unwrap().as_f64().unwrap()).collect();
        assert_eq!(g1, vec![2.0, 3.0]);
        let k3 = FieldValue::from("R3").join_key();
        assert_eq!(w.iter_group(&k3).count(), 0);
    }

    #[test]
    fn length_batch_releases_in_batches() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::LengthBatch(3), None).unwrap();
        assert!(!w.insert(&ev(&t, 0, "R1", 0.0)).unwrap().evaluate);
        assert!(!w.insert(&ev(&t, 1, "R1", 1.0)).unwrap().evaluate);
        assert_eq!(w.len(), 0, "nothing released yet");
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
        assert!(w.is_empty());
    }

    #[test]
    fn keepall_never_evicts() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::KeepAll, None).unwrap();
        for i in 0..100 {
            w.insert(&ev(&t, i, "R1", i as f64)).unwrap();
        }
        assert_eq!(w.len(), 100);
    }

    #[test]
    fn zero_sized_windows_rejected() {
        assert!(SourceWindow::new(WindowSpec::Length(0), None).is_err());
        assert!(SourceWindow::new(WindowSpec::LengthBatch(0), None).is_err());
        assert!(SourceWindow::new(WindowSpec::TimeMs(0), None).is_err());
    }

    #[test]
    fn grouped_last_event() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::LastEvent, Some(0)).unwrap();
        w.insert(&ev(&t, 0, "R1", 1.0)).unwrap();
        w.insert(&ev(&t, 1, "R1", 2.0)).unwrap();
        w.insert(&ev(&t, 2, "R2", 3.0)).unwrap();
        assert_eq!(w.len(), 2, "one per group");
        assert_eq!(delays(&w), vec![2.0, 3.0]);
    }

    fn dvals(events: &[Event]) -> Vec<f64> {
        events.iter().map(|e| e.value_at(1).unwrap().as_f64().unwrap()).collect()
    }

    #[test]
    fn length_delta_reports_inserted_and_evicted() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(2), None).unwrap();
        let mut d = WindowDelta::new();
        w.insert_with_delta(&ev(&t, 0, "R1", 0.0), &mut d).unwrap();
        assert!(d.is_empty(), "the arrival is what entered; nothing is copied out");
        w.insert_with_delta(&ev(&t, 1, "R1", 1.0), &mut d).unwrap();
        assert!(d.evicted.is_empty());
        w.insert_with_delta(&ev(&t, 2, "R1", 2.0), &mut d).unwrap();
        assert!(d.inserted.is_empty());
        assert_eq!(dvals(&d.evicted), vec![0.0], "window of 2 pushed out the oldest");
    }

    #[test]
    fn last_event_delta_swaps_previous() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::LastEvent, None).unwrap();
        let mut d = WindowDelta::new();
        w.insert_with_delta(&ev(&t, 0, "R1", 1.0), &mut d).unwrap();
        assert!(d.evicted.is_empty());
        w.insert_with_delta(&ev(&t, 1, "R1", 2.0), &mut d).unwrap();
        assert_eq!(dvals(&d.evicted), vec![1.0]);
        assert!(d.inserted.is_empty());
        assert_eq!(delays(&w), vec![2.0]);
    }

    #[test]
    fn length_batch_delta_is_empty_while_accumulating() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::LengthBatch(3), None).unwrap();
        let mut d = WindowDelta::new();
        assert!(!w.insert_with_delta(&ev(&t, 0, "R1", 0.0), &mut d).unwrap().evaluate);
        assert!(d.is_empty(), "visible window unchanged while accumulating");
        w.insert_with_delta(&ev(&t, 1, "R1", 1.0), &mut d).unwrap();
        assert!(w.insert_with_delta(&ev(&t, 2, "R1", 2.0), &mut d).unwrap().evaluate);
        assert_eq!(dvals(&d.inserted), vec![0.0, 1.0, 2.0], "whole batch enters at once");
        assert!(d.evicted.is_empty());
        // Next release evicts the previous batch.
        for i in 3..5 {
            w.insert_with_delta(&ev(&t, i, "R1", i as f64), &mut d).unwrap();
        }
        w.insert_with_delta(&ev(&t, 5, "R1", 5.0), &mut d).unwrap();
        assert_eq!(dvals(&d.evicted), vec![0.0, 1.0, 2.0]);
        assert_eq!(dvals(&d.inserted), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn time_delta_and_advance_time_delta() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::TimeMs(1000), None).unwrap();
        let mut d = WindowDelta::new();
        w.insert_with_delta(&ev(&t, 0, "R1", 0.0), &mut d).unwrap();
        w.insert_with_delta(&ev(&t, 500, "R1", 1.0), &mut d).unwrap();
        w.insert_with_delta(&ev(&t, 1400, "R1", 2.0), &mut d).unwrap();
        assert_eq!(dvals(&d.evicted), vec![0.0], "expired on arrival");
        w.advance_time_with_delta(3000, &mut d);
        assert_eq!(dvals(&d.evicted), vec![1.0, 2.0]);
        assert!(d.inserted.is_empty());
        assert!(w.is_empty());
        // No further evictions: delta comes back empty.
        w.advance_time_with_delta(4000, &mut d);
        assert!(d.is_empty());
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
        assert_eq!(w.len(), 3, "R2's pane is untouched");
        assert!(w.version() > v0, "removal bumps the version");
        assert!(w.iter().all(|e| !is_r1(e)));
        // The emptied pane is gone: re-removal finds nothing.
        assert_eq!(w.remove_matching(is_r1), 0);
        let k1 = FieldValue::from("R1").join_key();
        assert!(w.group(Some(&k1)).is_none());
    }

    #[test]
    fn iter_all_and_remove_matching_cover_batch_pending() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::LengthBatch(3), None).unwrap();
        w.insert(&ev(&t, 0, "R1", 0.0)).unwrap();
        w.insert(&ev(&t, 1, "R2", 1.0)).unwrap();
        assert_eq!(w.iter().count(), 0, "nothing released yet");
        assert_eq!(w.iter_all().count(), 2, "pending events are migration state");
        let removed =
            w.remove_matching(|e| e.value_at(0).unwrap() == &FieldValue::from("R2"));
        assert_eq!(removed, 1);
        assert_eq!(w.len(), 0, "pending events never counted in len");
        assert_eq!(w.iter_all().count(), 1);
    }

    #[test]
    fn tracked_aggregates_follow_each_pane_through_evictions() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(3), Some(0)).unwrap();
        w.insert(&ev(&t, 0, "R1", 7.0)).unwrap();
        // Tracking starts over a non-empty window: recompute, then follow.
        assert_eq!(w.track_field(1), (0, true));
        assert_eq!(w.track_field(1), (0, false));
        w.recompute_aggregates().unwrap();
        let k1 = FieldValue::from("R1").join_key();
        let k2 = FieldValue::from("R2").join_key();
        let sum = |w: &SourceWindow, k: &JoinKey| {
            let g = w.group(Some(k)).unwrap();
            assert_eq!(g.rows, g.accs[0].count());
            (g.rows, g.accs[0].finish(crate::ast::AggFunc::Sum).unwrap())
        };
        assert_eq!(sum(&w, &k1), (1, 7.0));
        assert!(w.group(Some(&k2)).is_none());
        for (i, d) in [1.0, 2.0, 4.0, 8.0].into_iter().enumerate() {
            w.insert(&ev(&t, 1 + i as u64, "R1", d)).unwrap();
            w.insert(&ev(&t, 1 + i as u64, "R2", 10.0 * d)).unwrap();
        }
        assert_eq!(sum(&w, &k1), (3, 14.0), "7 and 1 slid out of R1's pane");
        assert_eq!(sum(&w, &k2), (3, 140.0));
        assert_eq!(w.group(Some(&k1)).unwrap().last.value_at(1), Some(&FieldValue::Float(8.0)));
        // A caller-supplied key reaches the same pane.
        let mut d = WindowDelta::new();
        w.insert_keyed(&ev(&t, 9, "R2", 1.0), Some(&k2), &mut d).unwrap();
        assert_eq!(dvals(&d.evicted), vec![20.0]);
        assert_eq!(sum(&w, &k2), (3, 121.0));
        // The pane an insert entered is the arrival's group, read unkeyed.
        let entered = w.entered().unwrap();
        assert!(std::ptr::eq(entered.last, w.group(Some(&k2)).unwrap().last));
        assert_eq!((entered.rows, entered.last.timestamp_ms()), (3, 9));
        // Removal and untracking leave nothing behind.
        w.remove_matching(|e| e.value_at(1) == Some(&FieldValue::Float(1.0)));
        assert_eq!(sum(&w, &k2), (2, 120.0));
        w.untrack();
        assert!(w.tracked_fields().is_empty());
        assert!(w.group(Some(&k2)).unwrap().accs.is_empty());
    }

    #[test]
    fn tracked_aggregates_restart_when_a_time_pane_empties() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::TimeMs(1000), Some(0)).unwrap();
        w.track_field(1);
        w.insert(&ev(&t, 0, "R1", 0.1)).unwrap();
        w.insert(&ev(&t, 10, "R1", 0.2)).unwrap();
        let k1 = FieldValue::from("R1").join_key();
        w.advance_time(5000);
        assert!(w.group(Some(&k1)).is_none(), "an emptied pane is no group");
        assert_eq!(w.group_count(), 0);
        // The next arrival sees none of the evicted samples' rounding.
        w.insert(&ev(&t, 6000, "R1", 0.3)).unwrap();
        let g = w.group(Some(&k1)).unwrap();
        assert_eq!(g.accs[0].raw_parts(), (1, 0.3, 0.3 * 0.3, 0.3, 0.3));
    }

    #[test]
    fn iter_order_is_first_seen_pane_order() {
        let t = ty();
        let mut w = SourceWindow::new(WindowSpec::Length(2), Some(0)).unwrap();
        w.insert(&ev(&t, 0, "B", 1.0)).unwrap();
        w.insert(&ev(&t, 1, "A", 2.0)).unwrap();
        w.insert(&ev(&t, 2, "B", 3.0)).unwrap();
        let order: Vec<f64> =
            w.iter().map(|e| e.value_at(1).unwrap().as_f64().unwrap()).collect();
        assert_eq!(order, vec![1.0, 3.0, 2.0], "pane B (seen first) before pane A");
    }
}
