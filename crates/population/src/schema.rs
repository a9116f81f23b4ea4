//! Schema over the properties (attributes) of a population (§3.1).
//!
//! A schema `S = (P1, ..., Pn)` names the attributes and their domains.
//! All attribute values are stored as `i64`; categorical attributes map
//! label strings onto small integers.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Index of an attribute within a [`Schema`].
///
/// Kept small (`u16`) because formulas and stratum constraints reference
/// attributes very frequently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The attribute's position in an individual's value vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AttrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attr#{}", self.0)
    }
}

/// The kind of an attribute: plain numeric, or categorical with labels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrKind {
    /// A numeric attribute; values are meaningful integers.
    Numeric,
    /// A categorical attribute; value `v` is an index into the label list.
    Categorical(Vec<String>),
}

/// Definition of one attribute: a name, a closed integer domain and a kind.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttrDef {
    /// Attribute name as used in queries (e.g. `"nop"`, `"gender"`).
    pub name: String,
    /// Inclusive lower bound of the domain.
    pub min: i64,
    /// Inclusive upper bound of the domain.
    pub max: i64,
    /// Numeric or categorical.
    pub kind: AttrKind,
}

impl AttrDef {
    /// A numeric attribute over the closed range `[min, max]`.
    pub fn numeric(name: impl Into<String>, min: i64, max: i64) -> Self {
        assert!(min <= max, "empty domain for attribute");
        Self {
            name: name.into(),
            min,
            max,
            kind: AttrKind::Numeric,
        }
    }

    /// A categorical attribute with the given labels; the domain is
    /// `[0, labels.len())`.
    pub fn categorical(name: impl Into<String>, labels: &[&str]) -> Self {
        assert!(!labels.is_empty(), "categorical attribute needs labels");
        Self {
            name: name.into(),
            min: 0,
            max: labels.len() as i64 - 1,
            kind: AttrKind::Categorical(labels.iter().map(|s| s.to_string()).collect()),
        }
    }
}

/// An immutable, cheaply cloneable schema.
///
/// Schemas are shared between datasets, queries and MapReduce jobs, so the
/// attribute list lives behind an `Arc`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    attrs: Arc<Vec<AttrDef>>,
}

impl Schema {
    /// Build a schema from attribute definitions.
    ///
    /// # Panics
    /// Panics if two attributes share a name, or if there are more than
    /// `u16::MAX` attributes.
    pub fn new(attrs: Vec<AttrDef>) -> Self {
        assert!(attrs.len() <= u16::MAX as usize, "too many attributes");
        for (i, a) in attrs.iter().enumerate() {
            for b in &attrs[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate attribute name {:?}", a.name);
            }
        }
        Self {
            attrs: Arc::new(attrs),
        }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True when the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The definition of attribute `id`.
    pub fn attr(&self, id: AttrId) -> &AttrDef {
        &self.attrs[id.index()]
    }

    /// Look up an attribute id by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attrs
            .iter()
            .position(|a| a.name == name)
            .map(|i| AttrId(i as u16))
    }

    /// Iterate over `(AttrId, &AttrDef)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttrDef)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, a)| (AttrId(i as u16), a))
    }

    /// Encode a categorical label to its integer value.
    ///
    /// Returns `None` if the attribute is numeric or the label is unknown.
    pub fn encode_label(&self, id: AttrId, label: &str) -> Option<i64> {
        match &self.attr(id).kind {
            AttrKind::Categorical(labels) => {
                labels.iter().position(|l| l == label).map(|i| i as i64)
            }
            AttrKind::Numeric => None,
        }
    }

    /// Decode a categorical value back to its label, if applicable.
    pub fn decode_label(&self, id: AttrId, value: i64) -> Option<&str> {
        match &self.attr(id).kind {
            AttrKind::Categorical(labels) => labels.get(value as usize).map(|s| s.as_str()),
            AttrKind::Numeric => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Schema {
        Schema::new(vec![
            AttrDef::numeric("income", 0, 1_000_000),
            AttrDef::categorical("gender", &["male", "female"]),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = demo();
        assert_eq!(s.attr_id("income"), Some(AttrId(0)));
        assert_eq!(s.attr_id("gender"), Some(AttrId(1)));
        assert_eq!(s.attr_id("missing"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn categorical_round_trip() {
        let s = demo();
        let g = s.attr_id("gender").unwrap();
        let v = s.encode_label(g, "female").unwrap();
        assert_eq!(v, 1);
        assert_eq!(s.decode_label(g, v), Some("female"));
        assert_eq!(s.encode_label(g, "other"), None);
        // numeric attributes have no labels
        let inc = s.attr_id("income").unwrap();
        assert_eq!(s.encode_label(inc, "male"), None);
        assert_eq!(s.decode_label(inc, 3), None);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute name")]
    fn duplicate_names_rejected() {
        Schema::new(vec![
            AttrDef::numeric("x", 0, 1),
            AttrDef::numeric("x", 0, 1),
        ]);
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn empty_domain_rejected() {
        AttrDef::numeric("x", 3, 2);
    }

    #[test]
    fn schema_clone_is_shallow() {
        let s = demo();
        let t = s.clone();
        assert!(Arc::ptr_eq(&s.attrs, &t.attrs));
        assert_eq!(s, t);
    }
}
