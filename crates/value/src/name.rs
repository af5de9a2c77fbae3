//! [`Name`]: the key of a [`crate::Map`] and the attribute of a
//! [`crate::PathSegment`].

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An attribute name: a borrowed constant of the program or a shared
/// string.
///
/// Most names are constants (`Key`, `RecentWrites`, …), borrowed as they
/// stand, so naming one allocates nothing. A computed name — a log key, a
/// parsed JSON key — is one [`Arc<str>`], and a copy of it is a
/// reference-count bump. Equality, order, hash, `Debug` and `Display` are
/// those of the `str` it holds, and it [`Borrow`]s as one: a map keyed by
/// names answers `get(&str)` and iterates, hashes and prints as one keyed
/// by `String`s. How a name is held never shows.
#[derive(Clone)]
pub struct Name(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    Shared(Arc<str>),
}

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(s) => s,
        }
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        self
    }
}

impl From<&'static str> for Name {
    fn from(s: &'static str) -> Self {
        Name(Repr::Static(s))
    }
}

impl From<Arc<str>> for Name {
    fn from(s: Arc<str>) -> Self {
        Name(Repr::Shared(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Repr::Shared(s.into()))
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Name {}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_behaves_as_the_str_it_holds() {
        let shared = Name::from(String::from("b"));
        let borrowed = Name::from("b");
        assert_eq!(shared, borrowed);
        assert_eq!(shared.cmp(&Name::from("a")), Ordering::Greater);
        assert_eq!(format!("{shared:?}"), format!("{:?}", "b"));
        assert_eq!(format!("{borrowed}"), "b");
        assert_eq!(
            crate::Fnv1a::digest(&shared),
            crate::Fnv1a::digest(&String::from("b"))
        );
        assert!(shared == "b");
    }
}
