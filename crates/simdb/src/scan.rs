//! Scan/query requests and projections.

use beldi_value::{Name, Path, Value};

/// A projection: the set of attribute paths to retain in returned items.
///
/// Beldi's DAAL traversal relies on projecting scans down to
/// `[RowId, NextRow]` so that "only 256 bits per row" cross the network
/// (§4.1); the write wrapper additionally projects the single log entry it
/// cares about (`RecentWrites.{logKey}`, Fig. 6).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Projection {
    paths: Vec<Path>,
}

impl Projection {
    /// Creates a projection over the given paths.
    pub fn new(paths: Vec<Path>) -> Self {
        Projection { paths }
    }

    /// Creates a projection from top-level attribute names.
    pub fn attrs<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<Name>,
    {
        Projection {
            paths: names.into_iter().map(Path::attr).collect(),
        }
    }

    /// Adds a path (builder style).
    pub fn with_path(mut self, path: Path) -> Self {
        self.paths.push(path);
        self
    }

    /// Returns the projected paths.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Applies the projection to an item, returning a pruned copy.
    ///
    /// Absent paths are simply omitted; structural errors (e.g. a path
    /// indexing through a scalar) also omit the path, matching DynamoDB's
    /// lenient projection behaviour. The copy is sized by the paths the
    /// item holds, not by every path of the projection.
    pub fn apply(&self, item: &Value) -> Value {
        let held = |p: &&Path| matches!(item.get_path(p), Ok(Some(_)));
        let found = self.paths.iter().filter(held).count();
        let mut out = Value::Map(beldi_value::Map::with_capacity(found));
        for p in &self.paths {
            if let Ok(Some(v)) = item.get_path(p) {
                // set_path only fails on structural mismatch, which cannot
                // happen here because we build `out` from scratch along the
                // same paths.
                let _ = out.set_path(p, v.clone());
            }
        }
        out
    }
}

/// Parameters of a query, scan or index read: the projection applied to
/// each row it returns. Paging is the store's own (`Database::query`).
#[derive(Debug, Clone, Default)]
pub struct ScanRequest {
    /// Attribute projection applied to each returned row.
    pub projection: Option<Projection>,
}

impl ScanRequest {
    /// Creates an unprojected read of every row.
    pub fn all() -> Self {
        ScanRequest::default()
    }

    /// Sets the projection (builder style).
    pub fn with_projection(mut self, projection: Projection) -> Self {
        self.projection = Some(projection);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beldi_value::vmap;

    #[test]
    fn projection_keeps_only_listed_paths() {
        let item = vmap! {
            "RowId" => "HEAD",
            "NextRow" => "r1",
            "Value" => "big-payload",
            "RecentWrites" => vmap! { "a:0" => true, "b:1" => false },
        };
        let p = Projection::attrs(["RowId", "NextRow"]);
        let out = p.apply(&item);
        assert_eq!(out.get_str("RowId"), Some("HEAD"));
        assert_eq!(out.get_str("NextRow"), Some("r1"));
        assert!(out.get_attr("Value").is_none());
        assert!(out.get_attr("RecentWrites").is_none());
    }

    #[test]
    fn projection_supports_nested_paths() {
        let item = vmap! {
            "RecentWrites" => vmap! { "a:0" => true, "b:1" => false },
        };
        let p = Projection::new(vec![Path::attr("RecentWrites").then_attr("a:0")]);
        let out = p.apply(&item);
        let m = out.get_attr("RecentWrites").unwrap().as_map().unwrap();
        assert_eq!(m.len(), 1);
        assert!(m.contains_key("a:0"));
    }

    #[test]
    fn projection_omits_absent_paths() {
        let item = vmap! { "a" => 1i64 };
        let p = Projection::attrs(["a", "zzz"]);
        let out = p.apply(&item);
        assert_eq!(out.get_int("a"), Some(1));
        assert!(out.get_attr("zzz").is_none());
    }

    #[test]
    fn scan_request_builder() {
        assert!(ScanRequest::all().projection.is_none());
        let r = ScanRequest::all().with_projection(Projection::attrs(["Key"]));
        assert_eq!(r.projection, Some(Projection::attrs(["Key"])));
    }
}
