//! Individuals: the tuples `(p1, ..., pn)` of a population (§3.1).

use crate::schema::{AttrId, Schema};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One member of the surveyed population.
///
/// Values are stored positionally according to the dataset's [`Schema`].
/// Individuals are shared between the input splits, the answers and the
/// naive sampler's shuffle, so the value vector is reference-counted and
/// clones are cheap.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Individual {
    /// Stable unique identifier (the paper's `id` attribute).
    pub id: u64,
    values: Arc<[i64]>,
    /// Size in bytes of the individual's full record in the backing store.
    ///
    /// The paper's dataset assigns ~100 KB of attribute payload per author;
    /// the sampling algorithms never read that payload, but shipping it
    /// through the shuffle is what the combiner optimization of MR-SQE
    /// avoids, so the cost model needs the size.
    pub payload_bytes: u32,
}

impl Individual {
    /// Create an individual; `values.len()` must match the schema used to
    /// query it (checked at query time via index bounds).
    pub fn new(id: u64, values: Vec<i64>, payload_bytes: u32) -> Self {
        Self {
            id,
            values: values.into(),
            payload_bytes,
        }
    }

    /// Value of attribute `attr`.
    #[inline]
    pub fn get(&self, attr: AttrId) -> i64 {
        self.values[attr.index()]
    }

    /// All attribute values in schema order.
    #[inline]
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// Number of stored attribute values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Synthetic display name (the paper's `name` attribute); derived from
    /// the id rather than stored, to keep individuals compact.
    pub fn name(&self) -> String {
        format!("author-{}", self.id)
    }

    /// Render the individual using a schema (labels for categorical values).
    pub fn display(&self, schema: &Schema) -> String {
        let mut out = format!("#{} {{", self.id);
        for (i, (aid, def)) in schema.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = self.get(aid);
            match schema.decode_label(aid, v) {
                Some(label) => out.push_str(&format!("{}: {}", def.name, label)),
                None => out.push_str(&format!("{}: {}", def.name, v)),
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrDef;

    #[test]
    fn accessors() {
        let t = Individual::new(7, vec![10, 1], 100_000);
        assert_eq!(t.id, 7);
        assert_eq!(t.get(AttrId(0)), 10);
        assert_eq!(t.get(AttrId(1)), 1);
        assert_eq!(t.values(), &[10, 1]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.name(), "author-7");
    }

    #[test]
    fn clone_is_cheap_and_equal() {
        let t = Individual::new(1, vec![5; 8], 0);
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.values, &u.values));
        assert_eq!(t, u);
    }

    #[test]
    fn display_uses_labels() {
        let schema = Schema::new(vec![
            AttrDef::numeric("income", 0, 100),
            AttrDef::categorical("gender", &["male", "female"]),
        ]);
        let t = Individual::new(3, vec![42, 1], 0);
        let s = t.display(&schema);
        assert!(s.contains("income: 42"), "{s}");
        assert!(s.contains("gender: female"), "{s}");
    }
}
