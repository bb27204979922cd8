//! Row representation.
//!
//! A tuple is one immutable, reference-counted slice of [`Value`]s. A stored
//! row version, the data-query tuple a scan emits for it, the copy a join
//! keeps in its hash table and the row of the `ResultSet` a client reads
//! are all the *same* allocation: `clone` bumps a counter. Versions are never
//! changed in place (an update appends a new version), so sharing needs no
//! lock, and a reader that still holds a row keeps its old values alive.
//! The engine moves tuples between operators in *vectors* (batches) following
//! the vectorised execution model referenced in Section 3.2 of the paper; the
//! batch container lives in `shareddb-core`, this module only defines the
//! per-row type.

use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// A single immutable row of values; cloning shares the allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Creates a tuple from a vector of values (one allocation; the values
    /// are moved, not cloned).
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// Creates an empty tuple.
    pub fn empty() -> Self {
        Tuple::default()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the tuple has no values.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values of the tuple.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// True when both tuples are the same allocation — not merely equal:
    /// the row was handed on, never copied.
    pub fn ptr_eq(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// Returns the values as an owned vector. The last holder of the row
    /// moves them out; while the row is still shared (with the table's
    /// version arena, typically) every value is cloned, text included — so
    /// this belongs at the edge of the system, not on a per-tuple path.
    pub fn into_values(mut self) -> Vec<Value> {
        match Arc::get_mut(&mut self.values) {
            Some(values) => values
                .iter_mut()
                .map(|v| std::mem::replace(v, Value::Null))
                .collect(),
            None => self.values.to_vec(),
        }
    }

    /// Returns the value at `idx`, if present.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Concatenates two tuples (the output of a join).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple {
            values: self
                .values
                .iter()
                .chain(other.values.iter())
                .cloned()
                .collect(),
        }
    }

    /// Returns a tuple consisting of the selected column indices.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Approximate heap footprint in bytes (used by memory accounting): the
    /// shared allocation — its two reference counts included — plus the text
    /// the values own.
    pub fn heap_size(&self) -> usize {
        2 * std::mem::size_of::<usize>()
            + std::mem::size_of_val::<[Value]>(&self.values)
            + self.values.iter().map(Value::heap_size).sum::<usize>()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.values[idx]
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    /// One allocation, no intermediate vector (what [`tuple!`](crate::tuple)
    /// expands to, and with it every bulk load).
    fn from(values: [Value; N]) -> Self {
        Tuple {
            values: values.into(),
        }
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Builds a [`Tuple`] from a heterogeneous list of values.
///
/// ```
/// use shareddb_common::{tuple, Value};
/// let t = tuple![1i64, "alice", 2.5f64];
/// assert_eq!(t[1], Value::text("alice"));
/// ```
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::from([$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple![1i64, "bob", 3.5f64];
        assert_eq!(t.len(), 3);
        assert_eq!(t[0], Value::Int(1));
        assert_eq!(t.get(1), Some(&Value::text("bob")));
        assert_eq!(t.get(9), None);
        assert!(!t.is_empty());
        assert!(Tuple::empty().is_empty());
    }

    #[test]
    fn concat_preserves_order() {
        let a = tuple![1i64, "x"];
        let b = tuple![2i64];
        let c = a.concat(&b);
        assert_eq!(
            c.values(),
            &[Value::Int(1), Value::text("x"), Value::Int(2)]
        );
    }

    #[test]
    fn project_reorders() {
        let t = tuple![10i64, 20i64, 30i64];
        let p = t.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Int(30), Value::Int(10)]);
    }

    #[test]
    fn display_roundtrips_visually() {
        let t = tuple![1i64, "a"];
        assert_eq!(t.to_string(), "[1, 'a']");
    }

    #[test]
    fn from_iterator() {
        let t: Tuple = (0..3).map(Value::from).collect();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn clone_shares_and_into_values_moves_when_unique() {
        let t = tuple![1i64, "a"];
        let shared = t.clone();
        assert!(t.ptr_eq(&shared));
        assert!(!t.ptr_eq(&tuple![1i64, "a"]), "equal is not shared");
        // Shared: the values are cloned and the other holder keeps its row.
        assert_eq!(shared.into_values(), vec![Value::Int(1), Value::text("a")]);
        assert_eq!(t[1], Value::text("a"));
        // Unique: the text moves out with its buffer.
        let text = t[1].as_text().unwrap().as_ptr();
        let values = t.into_values();
        assert_eq!(values[1].as_text().unwrap().as_ptr(), text);
    }

    #[test]
    fn ordering_is_lexicographic_over_values() {
        assert!(tuple![1i64, 2i64] < tuple![1i64, 3i64]);
        assert!(tuple![1i64] < tuple![1i64, 0i64]);
    }
}
