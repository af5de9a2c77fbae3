//! Logical database snapshots and snapshot diffs.
//!
//! A [`DbSnapshot`] is a deterministic dump of every table's rows, keyed
//! and ordered by primary key, so two databases holding the same logical
//! rows produce equal snapshots. The crash-
//! schedule explorer uses snapshots two ways:
//!
//! - *determinism checks*: two runs of the same seed and crash schedule
//!   must produce byte-identical snapshots;
//! - *divergence forensics*: when a recovered run's application state
//!   differs from the crash-free oracle, [`DbSnapshot::diff`] pinpoints
//!   the rows, and [`SnapshotDiff::split`] separates application tables
//!   from Beldi's own metadata tables (intent/log/shadow tables, which
//!   legitimately differ between a crashed and a crash-free run).

use std::collections::BTreeMap;
use std::fmt;

use beldi_value::Value;

use crate::key::PrimaryKey;

/// A deterministic dump of a database.
///
/// Each table is copied atomically under its lock, but the set of tables
/// is not; take snapshots while the database is quiescent (as
/// verification harnesses do).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DbSnapshot {
    tables: BTreeMap<String, BTreeMap<PrimaryKey, Value>>,
}

impl DbSnapshot {
    pub(crate) fn new(tables: BTreeMap<String, BTreeMap<PrimaryKey, Value>>) -> Self {
        DbSnapshot { tables }
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// The rows of one table, in key order (None when the table is absent).
    pub fn rows(&self, table: &str) -> Option<&BTreeMap<PrimaryKey, Value>> {
        self.tables.get(table)
    }

    /// Total number of rows across all tables.
    pub fn row_count(&self) -> usize {
        self.tables.values().map(BTreeMap::len).sum()
    }

    /// Row-for-row difference between two snapshots (`self` = left,
    /// `other` = right), in (table, key) order.
    pub fn diff(&self, other: &DbSnapshot) -> SnapshotDiff {
        let mut rows = Vec::new();
        let empty = BTreeMap::new();
        let mut tables: Vec<&String> = self.tables.keys().collect();
        for t in other.tables.keys() {
            if !self.tables.contains_key(t) {
                tables.push(t);
            }
        }
        tables.sort();
        for table in tables {
            let left = self.tables.get(table).unwrap_or(&empty);
            let right = other.tables.get(table).unwrap_or(&empty);
            let mut keys: Vec<&PrimaryKey> = left.keys().collect();
            for k in right.keys() {
                if !left.contains_key(k) {
                    keys.push(k);
                }
            }
            keys.sort();
            for key in keys {
                let l = left.get(key);
                let r = right.get(key);
                if l != r {
                    rows.push(RowDiff {
                        table: table.clone(),
                        key: key.clone(),
                        left: l.cloned(),
                        right: r.cloned(),
                    });
                }
            }
        }
        SnapshotDiff { rows }
    }
}

/// One differing row between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct RowDiff {
    /// Table the row belongs to.
    pub table: String,
    /// The row's primary key.
    pub key: PrimaryKey,
    /// The row in the left snapshot (None = absent).
    pub left: Option<Value>,
    /// The row in the right snapshot (None = absent).
    pub right: Option<Value>,
}

impl fmt::Display for RowDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let side = |v: &Option<Value>| match v {
            Some(v) => v.to_string(),
            None => "<absent>".to_owned(),
        };
        write!(
            f,
            "{}/{}: {} != {}",
            self.table,
            self.key,
            side(&self.left),
            side(&self.right)
        )
    }
}

/// The result of [`DbSnapshot::diff`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotDiff {
    /// Differing rows, in (table, key) order.
    pub rows: Vec<RowDiff>,
}

impl SnapshotDiff {
    /// True when the snapshots were identical.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of differing rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Splits the diff into `(application, metadata)` halves using a
    /// table classifier (`is_meta(table)` → true for metadata tables —
    /// Beldi deployments use `beldi::schema::is_meta_table`).
    pub fn split(self, is_meta: impl Fn(&str) -> bool) -> (SnapshotDiff, SnapshotDiff) {
        let (meta, app): (Vec<RowDiff>, Vec<RowDiff>) =
            self.rows.into_iter().partition(|r| is_meta(&r.table));
        (SnapshotDiff { rows: app }, SnapshotDiff { rows: meta })
    }

    /// A short human-readable summary listing at most `max` rows.
    pub fn summarize(&self, max: usize) -> String {
        let mut out = format!("{} differing row(s)", self.rows.len());
        for r in self.rows.iter().take(max) {
            out.push_str("\n  ");
            out.push_str(&r.to_string());
        }
        if self.rows.len() > max {
            out.push_str(&format!("\n  … and {} more", self.rows.len() - max));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Database;
    use beldi_value::vmap;

    fn seeded_db() -> std::sync::Arc<Database> {
        let db = Database::for_tests();
        db.create_table("app.data", crate::TableSchema::hash_only("Key"))
            .unwrap();
        db.create_table("app.intent", crate::TableSchema::hash_only("Id"))
            .unwrap();
        for i in 0..10i64 {
            db.put("app.data", vmap! { "Key" => format!("k{i}"), "V" => i })
                .unwrap();
        }
        db.put("app.intent", vmap! { "Id" => "i1", "Done" => true })
            .unwrap();
        db
    }

    #[test]
    fn identical_snapshots_diff_empty() {
        let db = seeded_db();
        let snapshot = db.snapshot();
        assert_eq!(snapshot.row_count(), 11);
        assert_eq!(snapshot.table_names(), vec!["app.data", "app.intent"]);
        assert_eq!(snapshot, seeded_db().snapshot(), "same rows, same snapshot");
        let diff = snapshot.diff(&db.snapshot());
        assert!(diff.is_empty());
        assert_eq!(diff.len(), 0);
    }

    #[test]
    fn diff_reports_changed_missing_and_extra_rows() {
        let left = seeded_db();
        let right = seeded_db();
        // Changed row.
        right
            .put("app.data", vmap! { "Key" => "k0", "V" => 99i64 })
            .unwrap();
        // Row only on the right.
        right
            .put("app.data", vmap! { "Key" => "extra", "V" => 1i64 })
            .unwrap();
        // Row only on the left.
        right
            .delete(
                "app.data",
                &PrimaryKey::hash("k5"),
                &beldi_value::Cond::True,
            )
            .unwrap();
        let diff = left.snapshot().diff(&right.snapshot());
        assert_eq!(diff.len(), 3);
        let tables: Vec<&str> = diff.rows.iter().map(|r| r.table.as_str()).collect();
        assert_eq!(tables, vec!["app.data", "app.data", "app.data"]);
        let extra = diff
            .rows
            .iter()
            .find(|r| *r.key.hash_value() == "extra".into());
        assert!(extra.unwrap().left.is_none());
        let missing = diff
            .rows
            .iter()
            .find(|r| *r.key.hash_value() == "k5".into());
        assert!(missing.unwrap().right.is_none());
        // Display is stable and readable.
        assert!(diff.summarize(1).contains("3 differing row(s)"));
        assert!(diff.summarize(1).contains("… and 2 more"));
    }

    #[test]
    fn split_separates_metadata_tables() {
        let left = seeded_db();
        let right = seeded_db();
        right
            .put("app.data", vmap! { "Key" => "k1", "V" => -1i64 })
            .unwrap();
        right
            .put("app.intent", vmap! { "Id" => "i2", "Done" => false })
            .unwrap();
        let diff = left.snapshot().diff(&right.snapshot());
        let (app, meta) = diff.split(|t| t.ends_with(".intent"));
        assert_eq!(app.len(), 1);
        assert_eq!(app.rows[0].table, "app.data");
        assert_eq!(meta.len(), 1);
        assert_eq!(meta.rows[0].table, "app.intent");
    }
}
