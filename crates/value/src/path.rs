//! Attribute paths for navigating [`crate::Value`] trees.

use std::fmt;
use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

use crate::error::{ValueError, ValueResult};
use crate::name::Name;

/// One step of a [`Path`]: a map attribute or a list index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PathSegment {
    /// A map attribute: a [`Name`], so a constant of the program (a schema
    /// attribute) is borrowed and a computed one (a log key) is the shared
    /// string it already was. The first write of a new attribute makes the
    /// row's key a clone of this name, not a copy of its text.
    Attr(Name),
    /// A list index.
    Index(usize),
}

/// A parsed attribute path such as `RecentWrites.step:3` or `items[2].id`.
///
/// Attribute names may contain any character except `.`, `[`, and `]`;
/// Beldi log keys (`<instance>:<step>`) therefore embed directly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Path {
    repr: Repr,
}

/// Most paths name one top-level attribute; that one segment is held
/// inline, so building the path allocates nothing.
#[derive(Debug, Clone)]
enum Repr {
    One(PathSegment),
    Many(Vec<PathSegment>),
}

impl Path {
    /// Creates a path from pre-built segments.
    pub fn new(segments: Vec<PathSegment>) -> Self {
        let repr = match <[PathSegment; 1]>::try_from(segments) {
            Ok([one]) => Repr::One(one),
            Err(segments) => Repr::Many(segments),
        };
        Path { repr }
    }

    /// Creates a single-attribute path without parsing.
    ///
    /// Unlike [`Path::parse`], the attribute may contain dots or brackets;
    /// use this for dynamic keys such as Beldi log keys. A `&'static str`
    /// is borrowed and an `Arc<str>` shared; neither is copied.
    pub fn attr(name: impl Into<Name>) -> Self {
        Path {
            repr: Repr::One(PathSegment::Attr(name.into())),
        }
    }

    /// Appends an attribute segment (builder style).
    pub fn then_attr(self, name: impl Into<Name>) -> Self {
        self.then(PathSegment::Attr(name.into()))
    }

    /// Appends an index segment (builder style).
    pub fn then_index(self, i: usize) -> Self {
        self.then(PathSegment::Index(i))
    }

    fn then(self, segment: PathSegment) -> Self {
        match self.repr {
            Repr::One(first) => Path::new(vec![first, segment]),
            Repr::Many(mut segments) => {
                segments.push(segment);
                Path::new(segments)
            }
        }
    }

    /// Parses a dotted path with optional `[i]` index suffixes.
    ///
    /// # Examples
    ///
    /// ```
    /// use beldi_value::Path;
    ///
    /// let p = Path::parse("a.b[2].c").unwrap();
    /// assert_eq!(p.segments().len(), 4);
    /// ```
    pub fn parse(s: &str) -> ValueResult<Self> {
        if s.is_empty() {
            return Err(ValueError::BadPath(s.to_owned()));
        }
        let mut segments = Vec::new();
        for part in s.split('.') {
            if part.is_empty() {
                return Err(ValueError::BadPath(s.to_owned()));
            }
            // Split off any `[i]` suffixes.
            let mut rest = part;
            let attr_end = rest.find('[').unwrap_or(rest.len());
            let (attr, mut idx) = rest.split_at(attr_end);
            if !attr.is_empty() {
                segments.push(PathSegment::Attr(attr.to_owned().into()));
            } else if !idx.is_empty() && segments.is_empty() {
                return Err(ValueError::BadPath(s.to_owned()));
            }
            while !idx.is_empty() {
                if !idx.starts_with('[') {
                    return Err(ValueError::BadPath(s.to_owned()));
                }
                let close = idx
                    .find(']')
                    .ok_or_else(|| ValueError::BadPath(s.to_owned()))?;
                let n: usize = idx[1..close]
                    .parse()
                    .map_err(|_| ValueError::BadPath(s.to_owned()))?;
                segments.push(PathSegment::Index(n));
                idx = &idx[close + 1..];
            }
            rest = "";
            let _ = rest;
        }
        Ok(Path::new(segments))
    }

    /// Returns the segments of the path.
    pub fn segments(&self) -> &[PathSegment] {
        match &self.repr {
            Repr::One(segment) => std::slice::from_ref(segment),
            Repr::Many(segments) => segments,
        }
    }

    /// Returns true if the path has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments().is_empty()
    }

    /// Returns the first segment's attribute name, if it is an attribute.
    ///
    /// Projections and filters often only need the top-level attribute.
    pub fn root_attr(&self) -> Option<&str> {
        match self.segments().first() {
            Some(PathSegment::Attr(a)) => Some(a.as_str()),
            _ => None,
        }
    }
}

// Equality and hashing go through `segments()`, so they cannot tell how
// a path is held.
impl PartialEq for Path {
    fn eq(&self, other: &Self) -> bool {
        self.segments() == other.segments()
    }
}

impl Eq for Path {}

impl Hash for Path {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.segments().hash(state);
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, seg) in self.segments().iter().enumerate() {
            match seg {
                PathSegment::Attr(a) => {
                    if i > 0 {
                        write!(f, ".")?;
                    }
                    write!(f, "{a}")?;
                }
                PathSegment::Index(n) => write!(f, "[{n}]")?,
            }
        }
        Ok(())
    }
}

impl From<&'static str> for Path {
    /// Reads a string literal as [`Path::parse`] would, panicking on
    /// malformed paths. A plain attribute name — the usual case, a schema
    /// constant — is borrowed as it stands: no parse, no allocation.
    ///
    /// Use [`Path::parse`] for untrusted or computed input and
    /// [`Path::attr`] for dynamic single attributes.
    fn from(s: &'static str) -> Self {
        if !s.is_empty() && !s.contains(['.', '[']) {
            return Path::attr(s);
        }
        #[expect(
            clippy::expect_used,
            reason = "a literal is program text, so a malformed one is a bug at its \
                      site; computed input goes through the fallible `Path::parse`"
        )]
        Path::parse(s).expect("malformed path literal")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let p = Path::parse("abc").unwrap();
        assert_eq!(p.segments(), &[PathSegment::Attr("abc".into())]);
        assert_eq!(p.root_attr(), Some("abc"));
    }

    #[test]
    fn parse_nested_and_indexed() {
        let p = Path::parse("a.b[0][1].c").unwrap();
        assert_eq!(
            p.segments(),
            &[
                PathSegment::Attr("a".into()),
                PathSegment::Attr("b".into()),
                PathSegment::Index(0),
                PathSegment::Index(1),
                PathSegment::Attr("c".into()),
            ]
        );
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(Path::parse("").is_err());
        assert!(Path::parse("a..b").is_err());
        assert!(Path::parse("a[x]").is_err());
        assert!(Path::parse("a[1").is_err());
    }

    #[test]
    fn attr_allows_special_chars() {
        let p = Path::attr("instance:3.weird[chars]");
        assert_eq!(p.segments().len(), 1);
        assert_eq!(p.root_attr(), Some("instance:3.weird[chars]"));
    }

    #[test]
    fn display_round_trips() {
        for s in ["a", "a.b", "a.b[3].c"] {
            let p = Path::parse(s).unwrap();
            assert_eq!(format!("{p}"), s);
        }
    }

    #[test]
    fn literal_attribute_is_borrowed_not_parsed() {
        const NAME: &str = "RecentWrites";
        let p = Path::from(NAME);
        match p.segments() {
            [PathSegment::Attr(a)] => assert_eq!(a.as_ptr(), NAME.as_ptr()),
            other => panic!("{other:?}"),
        }
        assert_eq!(p, Path::parse("RecentWrites").unwrap());
        // Anything with structure still goes through the parser.
        assert_eq!(Path::from("a.b[1]"), Path::parse("a.b[1]").unwrap());
        assert_eq!(Path::from("a]"), Path::parse("a]").unwrap());
        // A shared name is shared, not copied.
        let name: std::sync::Arc<str> = "inst:3".into();
        match Path::attr("w").then_attr(name.clone()).segments() {
            [_, PathSegment::Attr(a)] => assert_eq!(a.as_ptr(), name.as_ptr()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "malformed path literal")]
    fn empty_literal_is_malformed() {
        let _ = Path::from("");
    }

    #[test]
    fn equality_and_hash_ignore_how_segments_are_held() {
        use std::collections::HashSet;
        let inline = Path::attr("a");
        let spilled = Path::attr("a").then_index(0);
        let rebuilt = Path::new(inline.segments().to_vec());
        assert_eq!(inline, rebuilt);
        assert_ne!(inline, spilled);
        assert_eq!(Path::new(spilled.segments()[..1].to_vec()), inline);
        let set: HashSet<Path> = [inline, rebuilt, spilled].into_iter().collect();
        assert_eq!(set.len(), 2);
        assert!(Path::new(Vec::new()).is_empty());
        assert_eq!(Path::new(Vec::new()).then_attr("a"), Path::attr("a"));
    }

    #[test]
    fn builder_style() {
        let p = Path::attr("a").then_attr("b").then_index(2);
        assert_eq!(format!("{p}"), "a.b[2]");
    }
}
