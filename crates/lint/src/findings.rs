//! Findings and report serialization.

use beldi_value::{json, Map, Value};

/// One diagnostic. `line` is 1-indexed; `snippet` is the trimmed source
/// line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: String,
    pub path: String,
    pub line: u32,
    pub message: String,
    pub snippet: String,
}

impl Finding {
    pub fn new(
        rule: &str,
        path: &str,
        line: u32,
        message: impl Into<String>,
        snippet: &str,
    ) -> Finding {
        Finding {
            rule: rule.to_owned(),
            path: path.to_owned(),
            line,
            message: message.into(),
            snippet: snippet.trim().to_owned(),
        }
    }

    pub fn human(&self) -> String {
        format!(
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.snippet
        )
    }

    fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("rule", Value::from(&self.rule));
        m.insert("file", Value::from(&self.path));
        m.insert("line", Value::Int(self.line as i64));
        m.insert("message", Value::from(&self.message));
        m.insert("snippet", Value::from(&self.snippet));
        Value::Map(m)
    }
}

/// The lint run's outcome, split by disposition.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings that fail the build.
    pub active: Vec<Finding>,
    /// Suppressed by an inline waiver (rule, reason recorded).
    pub waived: Vec<(Finding, String)>,
    /// Files scanned.
    pub files: usize,
}

impl Report {
    /// Machine-readable `lint.json` payload.
    pub fn to_json(&self) -> String {
        let mut root = Map::new();
        root.insert("files_scanned", Value::Int(self.files as i64));
        root.insert(
            "active".to_owned(),
            Value::List(self.active.iter().map(Finding::to_value).collect()),
        );
        root.insert(
            "waived".to_owned(),
            Value::List(
                self.waived
                    .iter()
                    .map(|(f, reason)| {
                        let mut v = f.to_value();
                        if let Value::Map(m) = &mut v {
                            m.insert("waive_reason", Value::from(reason.as_str()));
                        }
                        v
                    })
                    .collect(),
            ),
        );
        json::to_json_pretty(&Value::Map(root))
    }
}
