//! Statistics tables and the threshold query (Listing 2 of the paper).
//!
//! The Hadoop job (Section 4.1.3) writes one `statistics_<attribute>`
//! table per monitored attribute, with the mean and standard deviation of
//! that attribute per (location, hour-of-day, day-type). Rules then use
//! `mean + s·stdv` as their threshold, where `s` tunes the sensitivity:
//!
//! ```sql
//! SELECT DISTINCT attr_mean + s*attr_stdv AS thresholdLocation,
//!        currentHour, dateType, areaId1
//! FROM statistics_attribute
//! ```

use crate::error::StorageError;
use crate::remote::RemoteDb;
use crate::store::TableStore;
use crate::table::{Column, RowRef, Schema, Table};
use crate::value::{ColumnType, ValueRef};
use serde::{Deserialize, Serialize};

/// Weekday vs weekend — the paper's `dateType` (traffic differs sharply
/// between the two; Section 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DayType {
    /// Monday through Friday.
    Weekday,
    /// Saturday and Sunday.
    Weekend,
}

impl DayType {
    /// Encodes for storage.
    pub fn as_str(self) -> &'static str {
        match self {
            DayType::Weekday => "weekday",
            DayType::Weekend => "weekend",
        }
    }

    /// Decodes from storage.
    pub fn parse(s: &str) -> Result<Self, StorageError> {
        match s {
            "weekday" => Ok(DayType::Weekday),
            "weekend" => Ok(DayType::Weekend),
            other => {
                Err(StorageError::TypeError { expected: "DayType", got: format!("{other:?}") })
            }
        }
    }

    /// Day-of-week (0 = Monday) to day type.
    pub fn from_weekday_index(idx: u8) -> Self {
        if idx % 7 >= 5 {
            DayType::Weekend
        } else {
            DayType::Weekday
        }
    }
}

/// One statistics record as produced by the batch layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatRecord {
    /// Spatial location id (quadtree region or bus stop), e.g. `"R17"` or
    /// `"S42"`.
    pub area_id: String,
    /// Hour of day, 0..=23.
    pub hour: u8,
    /// Weekday or weekend.
    pub day_type: DayType,
    /// Mean of the attribute in that cell.
    pub mean: f64,
    /// Standard deviation of the attribute in that cell.
    pub stdv: f64,
    /// Number of samples behind the statistics.
    pub count: u64,
}

/// One row produced by the threshold query (Listing 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdRow {
    /// Spatial location id.
    pub area_id: String,
    /// Hour of day, 0..=23.
    pub hour: u8,
    /// Weekday or weekend.
    pub day_type: DayType,
    /// `mean + s·stdv`.
    pub threshold: f64,
}

/// The threshold query parameters: which attribute and how many standard
/// deviations above the mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThresholdQuery {
    /// Attribute name; resolves to table `statistics_<attribute>`.
    pub attribute: String,
    /// Sensitivity multiplier `s` in `mean + s·stdv`.
    pub s: f64,
}

/// Schema of every `statistics_<attribute>` table.
pub fn statistics_schema() -> Schema {
    Schema::new(vec![
        Column::new("areaId", ColumnType::Str),
        Column::new("currentHour", ColumnType::Int),
        Column::new("dateType", ColumnType::Str),
        Column::new("attr_mean", ColumnType::Float),
        Column::new("attr_stdv", ColumnType::Float),
        Column::new("sample_count", ColumnType::Int),
    ])
    .expect("statistics schema is valid")
}

/// Name of the statistics table for an attribute.
pub fn statistics_table_name(attribute: &str) -> String {
    format!("statistics_{attribute}")
}

/// High-level API over the statistics tables.
#[derive(Debug, Clone)]
pub struct ThresholdStore {
    store: TableStore,
}

impl ThresholdStore {
    /// Wraps a table store.
    pub fn new(store: TableStore) -> Self {
        ThresholdStore { store }
    }

    /// The underlying store.
    pub fn store(&self) -> &TableStore {
        &self.store
    }

    /// Publishes a fresh statistics snapshot for an attribute, replacing
    /// any previous snapshot atomically (the batch layer calls this once
    /// per periodic job run).
    pub fn publish(&self, attribute: &str, records: &[StatRecord]) -> Result<(), StorageError> {
        let mut table = Table::new(statistics_table_name(attribute), statistics_schema());
        for r in records {
            table.insert_ref(&[
                ValueRef::Str(&r.area_id),
                ValueRef::Int(i64::from(r.hour)),
                ValueRef::Str(r.day_type.as_str()),
                ValueRef::Float(r.mean),
                ValueRef::Float(r.stdv),
                ValueRef::Int(r.count as i64),
            ])?;
        }
        self.store.replace_table(table);
        Ok(())
    }

    /// Reads back an attribute's raw statistics records, sorted by
    /// `(area, hour, dayType)` so callers observe a deterministic order.
    /// The in-stream statistics stage uses this to seed its accumulators
    /// from the offline bootstrap's snapshot. Returns an empty vec when
    /// the attribute has no table yet (nothing published).
    pub fn statistics(&self, attribute: &str) -> Result<Vec<StatRecord>, StorageError> {
        let name = statistics_table_name(attribute);
        if !self.store.has_table(&name) {
            return Ok(Vec::new());
        }
        self.store.with_table(&name, Self::records)?
    }

    /// Runs the threshold query (Listing 2) against a table store,
    /// returning every `(area, hour, dayType)` threshold.
    pub fn thresholds(&self, query: &ThresholdQuery) -> Result<Vec<ThresholdRow>, StorageError> {
        self.store
            .with_table(&statistics_table_name(&query.attribute), |t| Self::project(t, query.s))?
    }

    /// Runs the *literal SQL* of Listing 2 through the storage medium's
    /// SQL front end and converts the result rows. Produces the same rows
    /// as [`Self::thresholds`] (a test asserts it); kept as the faithful
    /// path for demonstrations.
    pub fn thresholds_sql(&self, query: &ThresholdQuery) -> Result<Vec<ThresholdRow>, StorageError> {
        let table_name = statistics_table_name(&query.attribute);
        let sql = format!(
            "SELECT DISTINCT attr_mean + {s}*attr_stdv as thresholdLocation,              currentHour, dateType, areaId FROM {table_name}",
            s = query.s,
        );
        let result =
            self.store.with_table(&table_name, |t| crate::sql::query(t, &sql))??;
        let mut out = Vec::with_capacity(result.rows.len());
        for row in result.rows {
            out.push(ThresholdRow {
                threshold: row[0].as_float()?,
                hour: row[1].as_int()? as u8,
                day_type: DayType::parse(row[2].as_str()?)?,
                area_id: row[3].as_str()?.to_string(),
            });
        }
        out.sort_by(|a, b| {
            (&a.area_id, a.hour, a.day_type)
                .cmp(&(&b.area_id, b.hour, b.day_type))
                .then(a.threshold.total_cmp(&b.threshold))
        });
        Ok(out)
    }

    /// Point lookup for one `(area, hour, dayType)` — the per-tuple *Join
    /// with Database* path. Returns `None` when no statistics exist for
    /// the key (e.g. a region never visited in the historical data).
    pub fn threshold_for(
        &self,
        query: &ThresholdQuery,
        area_id: &str,
        hour: u8,
        day_type: DayType,
    ) -> Result<Option<f64>, StorageError> {
        self.store.with_table(&statistics_table_name(&query.attribute), |t| {
            Self::lookup_one(t, query.s, area_id, hour, day_type)
        })?
    }

    /// As [`Self::thresholds`] but going through a [`RemoteDb`], paying one
    /// round trip for the whole snapshot (this is what the *new stream*
    /// and *multiple rules* methods do at start-up).
    pub fn thresholds_remote(
        db: &RemoteDb,
        query: &ThresholdQuery,
    ) -> Result<Vec<ThresholdRow>, StorageError> {
        db.query(&statistics_table_name(&query.attribute), |t| Self::project(t, query.s))?
    }

    /// As [`Self::threshold_for`] but through a [`RemoteDb`], paying one
    /// round trip per call — the cost profile of the per-tuple join.
    pub fn threshold_for_remote(
        db: &RemoteDb,
        query: &ThresholdQuery,
        area_id: &str,
        hour: u8,
        day_type: DayType,
    ) -> Result<Option<f64>, StorageError> {
        db.query(&statistics_table_name(&query.attribute), |t| {
            Self::lookup_one(t, query.s, area_id, hour, day_type)
        })?
    }

    /// The threshold query (Listing 2) over records in hand rather than a
    /// table: the rows [`Self::thresholds`] reads once `records` are
    /// published, in the same order and with the same bits.
    pub fn thresholds_of(records: &[StatRecord], s: f64) -> Vec<ThresholdRow> {
        let rows = records.iter().map(|r| ThresholdRow {
            area_id: r.area_id.clone(),
            hour: r.hour,
            day_type: r.day_type,
            threshold: r.mean + s * r.stdv,
        });
        distinct_sorted(rows.collect())
    }

    /// Listing 2 over a statistics table: one `String` per row read, the
    /// row's `area_id`.
    fn project(t: &Table, s: f64) -> Result<Vec<ThresholdRow>, StorageError> {
        let mut out = Vec::with_capacity(t.len());
        for row in t.scan() {
            let c = StatCells::read(row)?;
            out.push(ThresholdRow {
                area_id: c.area_id.to_string(),
                hour: c.hour,
                day_type: c.day_type,
                threshold: c.mean + s * c.stdv,
            });
        }
        Ok(distinct_sorted(out))
    }

    /// A statistics table's rows, sorted by `(area, hour, dayType)`.
    fn records(t: &Table) -> Result<Vec<StatRecord>, StorageError> {
        let mut out = Vec::with_capacity(t.len());
        for row in t.scan() {
            let c = StatCells::read(row)?;
            out.push(StatRecord {
                area_id: c.area_id.to_string(),
                hour: c.hour,
                day_type: c.day_type,
                mean: c.mean,
                stdv: c.stdv,
                count: c.count,
            });
        }
        out.sort_by(|a, b| (&a.area_id, a.hour, a.day_type).cmp(&(&b.area_id, b.hour, b.day_type)));
        Ok(out)
    }

    fn lookup_one(
        t: &Table,
        s: f64,
        area_id: &str,
        hour: u8,
        day_type: DayType,
    ) -> Result<Option<f64>, StorageError> {
        for row in t.scan() {
            if row.get(0).as_str()? == area_id
                && row.get(1).as_int()? == i64::from(hour)
                && row.get(2).as_str()? == day_type.as_str()
            {
                return Ok(Some(row.get(3).as_float()? + s * row.get(4).as_float()?));
            }
        }
        Ok(None)
    }
}

/// One statistics row's cells, its location borrowed from the table.
struct StatCells<'a> {
    area_id: &'a str,
    hour: u8,
    day_type: DayType,
    mean: f64,
    stdv: f64,
    count: u64,
}

impl<'a> StatCells<'a> {
    /// Reads a row laid out by [`statistics_schema`].
    fn read(row: RowRef<'a>) -> Result<Self, StorageError> {
        Ok(StatCells {
            area_id: row.get(0).as_str()?,
            hour: row.get(1).as_int()? as u8,
            day_type: DayType::parse(row.get(2).as_str()?)?,
            mean: row.get(3).as_float()?,
            stdv: row.get(4).as_float()?,
            count: row.get(5).as_int()? as u64,
        })
    }
}

/// DISTINCT of Listing 2, in `(area, hour, dayType, threshold)` order: the
/// snapshot is keyed, but historical re-publishes could duplicate, so
/// duplicates of a full row go.
fn distinct_sorted(mut out: Vec<ThresholdRow>) -> Vec<ThresholdRow> {
    out.sort_by(|a, b| {
        (&a.area_id, a.hour, a.day_type)
            .cmp(&(&b.area_id, b.hour, b.day_type))
            .then(a.threshold.total_cmp(&b.threshold))
    });
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<StatRecord> {
        vec![
            StatRecord {
                area_id: "R1".into(),
                hour: 8,
                day_type: DayType::Weekday,
                mean: 60.0,
                stdv: 20.0,
                count: 100,
            },
            StatRecord {
                area_id: "R1".into(),
                hour: 8,
                day_type: DayType::Weekend,
                mean: 20.0,
                stdv: 10.0,
                count: 40,
            },
            StatRecord {
                area_id: "R2".into(),
                hour: 8,
                day_type: DayType::Weekday,
                mean: 90.0,
                stdv: 30.0,
                count: 80,
            },
        ]
    }

    #[test]
    fn publish_and_query_thresholds() {
        let ts = ThresholdStore::new(TableStore::new());
        ts.publish("delay", &records()).unwrap();
        let rows =
            ts.thresholds(&ThresholdQuery { attribute: "delay".into(), s: 1.0 }).unwrap();
        assert_eq!(rows.len(), 3);
        let r1_weekday = rows
            .iter()
            .find(|r| r.area_id == "R1" && r.day_type == DayType::Weekday)
            .unwrap();
        assert_eq!(r1_weekday.threshold, 80.0); // 60 + 1·20
    }

    #[test]
    fn sensitivity_multiplier_applies() {
        let ts = ThresholdStore::new(TableStore::new());
        ts.publish("delay", &records()).unwrap();
        let t = ts
            .threshold_for(
                &ThresholdQuery { attribute: "delay".into(), s: 2.0 },
                "R2",
                8,
                DayType::Weekday,
            )
            .unwrap();
        assert_eq!(t, Some(150.0)); // 90 + 2·30
    }

    #[test]
    fn missing_key_returns_none() {
        let ts = ThresholdStore::new(TableStore::new());
        ts.publish("delay", &records()).unwrap();
        let q = ThresholdQuery { attribute: "delay".into(), s: 1.0 };
        assert_eq!(ts.threshold_for(&q, "R99", 8, DayType::Weekday).unwrap(), None);
        assert_eq!(ts.threshold_for(&q, "R1", 3, DayType::Weekday).unwrap(), None);
    }

    #[test]
    fn missing_attribute_is_table_not_found() {
        let ts = ThresholdStore::new(TableStore::new());
        let q = ThresholdQuery { attribute: "speed".into(), s: 1.0 };
        assert!(matches!(ts.thresholds(&q), Err(StorageError::TableNotFound(_))));
    }

    #[test]
    fn republish_replaces_snapshot() {
        let ts = ThresholdStore::new(TableStore::new());
        ts.publish("delay", &records()).unwrap();
        ts.publish(
            "delay",
            &[StatRecord {
                area_id: "R9".into(),
                hour: 0,
                day_type: DayType::Weekday,
                mean: 1.0,
                stdv: 0.0,
                count: 1,
            }],
        )
        .unwrap();
        let rows =
            ts.thresholds(&ThresholdQuery { attribute: "delay".into(), s: 1.0 }).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].area_id, "R9");
    }

    #[test]
    fn distinct_removes_duplicate_rows() {
        let ts = ThresholdStore::new(TableStore::new());
        let mut recs = records();
        recs.push(recs[0].clone());
        ts.publish("delay", &recs).unwrap();
        let rows =
            ts.thresholds(&ThresholdQuery { attribute: "delay".into(), s: 1.0 }).unwrap();
        assert_eq!(rows.len(), 3, "duplicates removed by DISTINCT");
    }

    #[test]
    fn remote_paths_charge_round_trips() {
        let ts = ThresholdStore::new(TableStore::new());
        ts.publish("delay", &records()).unwrap();
        let db = RemoteDb::new(ts.store().clone(), std::time::Duration::ZERO);
        let q = ThresholdQuery { attribute: "delay".into(), s: 1.0 };
        ThresholdStore::thresholds_remote(&db, &q).unwrap();
        ThresholdStore::threshold_for_remote(&db, &q, "R1", 8, DayType::Weekday).unwrap();
        assert_eq!(db.query_count(), 2);
    }

    #[test]
    fn records_in_hand_project_like_the_published_table() {
        let ts = ThresholdStore::new(TableStore::new());
        let mut recs = records();
        recs.push(recs[0].clone());
        ts.publish("delay", &recs).unwrap();
        for s in [0.0, 1.0, 2.5] {
            let q = ThresholdQuery { attribute: "delay".into(), s };
            assert_eq!(ThresholdStore::thresholds_of(&recs, s), ts.thresholds(&q).unwrap());
        }
    }

    #[test]
    fn sql_path_matches_typed_path() {
        let ts = ThresholdStore::new(TableStore::new());
        ts.publish("delay", &records()).unwrap();
        for s in [0.0, 1.0, 2.5] {
            let q = ThresholdQuery { attribute: "delay".into(), s };
            assert_eq!(ts.thresholds(&q).unwrap(), ts.thresholds_sql(&q).unwrap());
        }
    }

    #[test]
    fn statistics_round_trips_published_records() {
        let ts = ThresholdStore::new(TableStore::new());
        assert_eq!(ts.statistics("delay").unwrap(), vec![], "missing table reads empty");
        ts.publish("delay", &records()).unwrap();
        let back = ts.statistics("delay").unwrap();
        let mut expected = records();
        expected
            .sort_by(|a, b| (&a.area_id, a.hour, a.day_type).cmp(&(&b.area_id, b.hour, b.day_type)));
        assert_eq!(back, expected);
    }

    #[test]
    fn day_type_round_trip() {
        assert_eq!(DayType::parse("weekday").unwrap(), DayType::Weekday);
        assert_eq!(DayType::parse("weekend").unwrap(), DayType::Weekend);
        assert!(DayType::parse("holiday").is_err());
        assert_eq!(DayType::from_weekday_index(0), DayType::Weekday);
        assert_eq!(DayType::from_weekday_index(5), DayType::Weekend);
        assert_eq!(DayType::from_weekday_index(6), DayType::Weekend);
    }
}
