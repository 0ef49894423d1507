//! Event types (schemas) and events.
//!
//! An [`EventType`] names a stream and fixes its fields; an [`Event`] is
//! one tuple of that stream. Field storage is positional (values in schema
//! order, inline in the shared payload for events of up to five fields) and
//! events are cheaply cloneable via `Arc`, because the Splitter bolt fans
//! the same event to several engines and a single engine fans it to
//! several rules.

use crate::error::CepError;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Type of an event field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit float (integers widen into float fields).
    Float,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

/// Value of an event field.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// An integer value.
    Int(i64),
    /// A float value.
    Float(f64),
    /// A string value (shared; events are fanned out widely).
    Str(Arc<str>),
    /// A boolean value.
    Bool(bool),
}

impl FieldValue {
    /// The field type of this value.
    pub fn field_type(&self) -> FieldType {
        match self {
            FieldValue::Int(_) => FieldType::Int,
            FieldValue::Float(_) => FieldType::Float,
            FieldValue::Str(_) => FieldType::Str,
            FieldValue::Bool(_) => FieldType::Bool,
        }
    }

    /// Numeric view; integers widen to floats.
    pub fn as_f64(&self) -> Result<f64, CepError> {
        match self {
            FieldValue::Int(v) => Ok(*v as f64),
            FieldValue::Float(v) => Ok(*v),
            other => Err(CepError::TypeError {
                reason: format!("expected a numeric value, got {other:?}"),
            }),
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Result<bool, CepError> {
        match self {
            FieldValue::Bool(v) => Ok(*v),
            other => Err(CepError::TypeError {
                reason: format!("expected a boolean value, got {other:?}"),
            }),
        }
    }

    /// Equality that widens numerics (1 == 1.0). Strings and bools compare
    /// within their own type only.
    pub fn loose_eq(&self, other: &FieldValue) -> bool {
        match (self, other) {
            (FieldValue::Str(a), FieldValue::Str(b)) => a == b,
            (FieldValue::Bool(a), FieldValue::Bool(b)) => a == b,
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            },
        }
    }

    /// A hashable join key. Floats are keyed by bit pattern — join keys in
    /// the paper's rules are location ids / hours / day types, which are
    /// exact values, so bitwise equality is the right semantics; integers
    /// are normalized through f64 so `Int(1)` and `Float(1.0)` join.
    pub fn join_key(&self) -> JoinKey {
        match self {
            FieldValue::Int(v) => JoinKey::Num((*v as f64).to_bits()),
            FieldValue::Float(v) => JoinKey::Num(v.to_bits()),
            FieldValue::Str(s) => JoinKey::Str(s.clone()),
            FieldValue::Bool(b) => JoinKey::Bool(*b),
        }
    }
}

/// Hashable key form of a [`FieldValue`], used by group-by and hash joins.
/// The derived `Ord` is an arbitrary but *total* order (numeric keys
/// compare by f64 bit pattern) — enough for the engine to emit group rows
/// in a deterministic order on both evaluation paths.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum JoinKey {
    /// A numeric key (f64 bit pattern; ints normalized through f64).
    Num(u64),
    /// A string key.
    Str(Arc<str>),
    /// A boolean key.
    Bool(bool),
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::Int(v) => write!(f, "{v}"),
            FieldValue::Float(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(Arc::from(v))
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Arc::from(v.as_str()))
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

/// Schema of a stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EventType {
    name: Arc<str>,
    fields: Vec<(String, FieldType)>,
    by_name: HashMap<String, usize>,
}

impl EventType {
    /// Builds an event type; field names must be unique.
    pub fn new(
        name: impl Into<String>,
        fields: Vec<(String, FieldType)>,
    ) -> Result<Self, CepError> {
        let name: Arc<str> = Arc::from(name.into().as_str());
        let mut by_name = HashMap::with_capacity(fields.len());
        for (i, (f, _)) in fields.iter().enumerate() {
            if by_name.insert(f.clone(), i).is_some() {
                return Err(CepError::Semantic {
                    reason: format!("duplicate field {f:?} in event type {name}"),
                });
            }
        }
        Ok(EventType { name, fields, by_name })
    }

    /// Convenience constructor from `(&str, FieldType)` pairs.
    pub fn with_fields(name: &str, fields: &[(&str, FieldType)]) -> Result<Self, CepError> {
        Self::new(name, fields.iter().map(|(n, t)| (n.to_string(), *t)).collect())
    }

    /// Stream name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Field declarations in order.
    pub fn fields(&self) -> &[(String, FieldType)] {
        &self.fields
    }

    /// Index of a field.
    pub fn index_of(&self, field: &str) -> Option<usize> {
        self.by_name.get(field).copied()
    }
}

/// Widest event whose values live inline in its shared payload. The rule
/// engine's streams fit (an attribute stream has five fields, a threshold
/// stream four), so each of their events is one allocation; a wider event
/// keeps its values in a vector of their own.
const INLINE_FIELDS: usize = 5;

/// The field values of one event.
enum Fields {
    /// The first `len` slots are the values; the rest hold filler.
    Inline { len: u8, slots: [FieldValue; INLINE_FIELDS] },
    Heap(Vec<FieldValue>),
}

impl Fields {
    /// Inline storage for at most [`INLINE_FIELDS`] values.
    fn inline(values: impl ExactSizeIterator<Item = FieldValue>) -> Fields {
        debug_assert!(values.len() <= INLINE_FIELDS);
        let len = values.len() as u8;
        let mut slots = [const { FieldValue::Bool(false) }; INLINE_FIELDS];
        for (slot, v) in slots.iter_mut().zip(values) {
            *slot = v;
        }
        Fields::Inline { len, slots }
    }

    fn as_slice(&self) -> &[FieldValue] {
        match self {
            Fields::Inline { len, slots } => &slots[..usize::from(*len)],
            Fields::Heap(values) => values,
        }
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Shared payload of an event.
#[derive(Debug)]
struct EventInner {
    event_type: Arc<str>,
    timestamp_ms: u64,
    values: Fields,
}

/// One tuple of a stream. Cloning is an `Arc` bump.
#[derive(Debug, Clone)]
pub struct Event {
    inner: Arc<EventInner>,
}

impl Event {
    /// Creates an event, validating it against the type.
    pub fn new(
        event_type: &EventType,
        timestamp_ms: u64,
        values: Vec<FieldValue>,
    ) -> Result<Self, CepError> {
        check(event_type, &values)?;
        let values = if values.len() > INLINE_FIELDS {
            Fields::Heap(values)
        } else {
            Fields::inline(values.into_iter())
        };
        Ok(Event::wrap(event_type, timestamp_ms, values))
    }

    /// [`Event::new`] from borrowed values: one allocation for an event of
    /// at most five fields, where `new` also frees the caller's vector.
    pub fn from_slice(
        event_type: &EventType,
        timestamp_ms: u64,
        values: &[FieldValue],
    ) -> Result<Self, CepError> {
        check(event_type, values)?;
        let values = if values.len() > INLINE_FIELDS {
            Fields::Heap(values.to_vec())
        } else {
            Fields::inline(values.iter().cloned())
        };
        Ok(Event::wrap(event_type, timestamp_ms, values))
    }

    fn wrap(event_type: &EventType, timestamp_ms: u64, values: Fields) -> Event {
        Event {
            inner: Arc::new(EventInner {
                event_type: event_type.name.clone(),
                timestamp_ms,
                values,
            }),
        }
    }

    /// Builds an event from `(field, value)` pairs in any order.
    pub fn from_pairs(
        event_type: &EventType,
        timestamp_ms: u64,
        pairs: &[(&str, FieldValue)],
    ) -> Result<Self, CepError> {
        let mut values: Vec<Option<FieldValue>> = vec![None; event_type.fields.len()];
        for (name, value) in pairs {
            let idx = event_type.index_of(name).ok_or_else(|| CepError::UnknownField {
                field: name.to_string(),
                context: format!("event type {}", event_type.name),
            })?;
            values[idx] = Some(value.clone());
        }
        let values: Result<Vec<FieldValue>, CepError> = values
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                v.ok_or_else(|| CepError::EventMismatch {
                    event_type: event_type.name.to_string(),
                    reason: format!("missing field {}", event_type.fields[i].0),
                })
            })
            .collect();
        Event::new(event_type, timestamp_ms, values?)
    }

    /// The stream this event belongs to.
    pub fn event_type(&self) -> &str {
        &self.inner.event_type
    }

    /// Event timestamp in milliseconds.
    pub fn timestamp_ms(&self) -> u64 {
        self.inner.timestamp_ms
    }

    /// Positional field access.
    pub fn value_at(&self, idx: usize) -> Option<&FieldValue> {
        self.values().get(idx)
    }

    /// All field values in schema order.
    pub fn values(&self) -> &[FieldValue] {
        self.inner.values.as_slice()
    }

    /// Whether `self` and `other` are clones of the same event instance
    /// (pointer identity of the shared payload). Used by the engine's
    /// "istream" restriction: only output involving the just-arrived
    /// instance is emitted.
    pub fn same_instance(&self, other: &Event) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl AsRef<[FieldValue]> for Event {
    fn as_ref(&self) -> &[FieldValue] {
        self.values()
    }
}

/// Validates an event's values against its type: one value per field,
/// each of the field's type (integers widen into float fields).
pub(crate) fn check(event_type: &EventType, values: &[FieldValue]) -> Result<(), CepError> {
    if values.len() != event_type.fields.len() {
        return Err(CepError::EventMismatch {
            event_type: event_type.name.to_string(),
            reason: format!("expected {} values, got {}", event_type.fields.len(), values.len()),
        });
    }
    for (v, (fname, ftype)) in values.iter().zip(&event_type.fields) {
        let ok = match (v.field_type(), ftype) {
            (a, b) if a == *b => true,
            // Integers widen into float fields.
            (FieldType::Int, FieldType::Float) => true,
            _ => false,
        };
        if !ok {
            return Err(CepError::EventMismatch {
                event_type: event_type.name.to_string(),
                reason: format!("value {v:?} does not fit field {fname} ({ftype:?})"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus_type() -> EventType {
        EventType::with_fields(
            "bus",
            &[
                ("vehicle", FieldType::Int),
                ("delay", FieldType::Float),
                ("location", FieldType::Str),
                ("congestion", FieldType::Bool),
            ],
        )
        .unwrap()
    }

    #[test]
    fn event_type_rejects_duplicate_fields() {
        let err = EventType::with_fields("t", &[("a", FieldType::Int), ("a", FieldType::Int)]);
        assert!(err.is_err());
    }

    #[test]
    fn event_validation() {
        let ty = bus_type();
        let ok = Event::new(
            &ty,
            0,
            vec![1i64.into(), 2.5.into(), "R1".into(), false.into()],
        );
        assert!(ok.is_ok());
        // Int widens into the float field.
        let widened = Event::new(&ty, 0, vec![1i64.into(), 3i64.into(), "R1".into(), false.into()]);
        assert!(widened.is_ok());
        // Arity mismatch.
        assert!(Event::new(&ty, 0, vec![1i64.into()]).is_err());
        // Type mismatch.
        assert!(Event::new(
            &ty,
            0,
            vec!["x".into(), 2.5.into(), "R1".into(), false.into()]
        )
        .is_err());
    }

    #[test]
    fn an_event_from_a_slice_is_the_event_from_its_vector() {
        let ty = bus_type();
        let same = |a: &Event, b: &Event| {
            (a.event_type(), a.timestamp_ms(), a.values())
                == (b.event_type(), b.timestamp_ms(), b.values())
        };
        let values = [1i64.into(), 3i64.into(), "R1".into(), false.into()];
        let from_slice = Event::from_slice(&ty, 9, &values).unwrap();
        assert!(same(&from_slice, &Event::new(&ty, 9, values.to_vec()).unwrap()));
        assert_eq!(from_slice.value_at(4), None, "the unused inline slot is no field");
        // Both validation errors, word for word.
        let short = [1i64.into()];
        assert_eq!(
            Event::from_slice(&ty, 0, &short).unwrap_err(),
            Event::new(&ty, 0, short.to_vec()).unwrap_err()
        );
        let mistyped = ["x".into(), 2.5.into(), "R1".into(), false.into()];
        assert_eq!(
            Event::from_slice(&ty, 0, &mistyped).unwrap_err(),
            Event::new(&ty, 0, mistyped.to_vec()).unwrap_err()
        );
        // Wider than inline storage: the values move to the heap.
        let wide = EventType::new("wide", (0..7).map(|i| (format!("f{i}"), FieldType::Int)).collect())
            .unwrap();
        let values: [FieldValue; 7] = std::array::from_fn(|i| FieldValue::Int(i as i64));
        let from_slice = Event::from_slice(&wide, 1, &values).unwrap();
        assert!(same(&from_slice, &Event::new(&wide, 1, values.to_vec()).unwrap()));
        assert_eq!(from_slice.value_at(6), Some(&FieldValue::Int(6)));
        assert_eq!(from_slice.value_at(7), None);
    }

    #[test]
    fn from_pairs_any_order_and_missing_field() {
        let ty = bus_type();
        let e = Event::from_pairs(
            &ty,
            7,
            &[
                ("location", "R9".into()),
                ("vehicle", 33i64.into()),
                ("congestion", true.into()),
                ("delay", 120.0.into()),
            ],
        )
        .unwrap();
        assert_eq!(e.timestamp_ms(), 7);
        assert_eq!(e.value_at(ty.index_of("location").unwrap()).unwrap(), &"R9".into());
        let missing =
            Event::from_pairs(&ty, 0, &[("vehicle", 1i64.into())]);
        assert!(missing.is_err());
        let unknown = Event::from_pairs(&ty, 0, &[("nope", 1i64.into())]);
        assert!(matches!(unknown, Err(CepError::UnknownField { .. })));
    }

    #[test]
    fn loose_equality_and_join_keys() {
        assert!(FieldValue::Int(1).loose_eq(&FieldValue::Float(1.0)));
        assert!(!FieldValue::Int(1).loose_eq(&FieldValue::Str(Arc::from("1"))));
        assert_eq!(FieldValue::Int(2).join_key(), FieldValue::Float(2.0).join_key());
        assert_ne!(FieldValue::Str(Arc::from("a")).join_key(), FieldValue::Str(Arc::from("b")).join_key());
    }

    #[test]
    fn clone_is_shallow() {
        let ty = bus_type();
        let e = Event::new(&ty, 0, vec![1i64.into(), 0.0.into(), "R1".into(), false.into()])
            .unwrap();
        let c = e.clone();
        assert!(Arc::ptr_eq(&e.inner, &c.inner));
    }
}
