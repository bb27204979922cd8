//! Row representation.
//!
//! A tuple is an immutable, reference-counted sequence of [`Value`]s in one of
//! two shapes. A **row** is one shared slice: a stored row version, the
//! data-query tuple a scan emits for it, the entry a join keeps in its hash
//! table and the row of the `ResultSet` a client reads are all the *same*
//! allocation. A **join** is a pair of tuples behind one counter: the output
//! of a join operator names its two inputs instead of copying their values,
//! and a join of a join nests. Either way `clone` bumps a counter, and both
//! shapes read alike — `len`, `get`, indexing, `iter`, `==`, `Hash`, `Ord` and
//! `Display` see the concatenated values and never the shape. Versions are
//! never changed in place (an update appends a new version), so sharing needs
//! no lock, and a reader that still holds a row keeps its old values alive.
//!
//! Values are copied only where a payload is genuinely new: [`Tuple::project`]
//! and computed columns, a group-by's output, and [`Tuple::values`] /
//! [`Tuple::into_values`] on a join at the edge of the system.
//!
//! The engine moves tuples between operators in *vectors* (batches) following
//! the vectorised execution model referenced in Section 3.2 of the paper; the
//! batch container lives in `shareddb-core`, this module only defines the
//! per-row type.

use crate::value::Value;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

/// A single immutable row of values; cloning shares the allocation.
///
/// Two machine words: the version arena stores one per row version.
#[derive(Debug, Clone)]
pub struct Tuple(Repr);

#[derive(Debug, Clone)]
enum Repr {
    Row(Arc<[Value]>),
    Joined(Arc<Pair>),
}

/// The two sides of a join and, so that a read descends without asking the
/// sides, how many values the left one and both hold.
#[derive(Debug)]
struct Pair {
    left: Tuple,
    right: Tuple,
    left_len: usize,
    len: usize,
}

impl Tuple {
    /// Creates a tuple from a vector of values (one allocation; the values
    /// are moved, not cloned).
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(Repr::Row(values.into()))
    }

    /// Creates an empty tuple.
    pub fn empty() -> Self {
        Tuple::default()
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Row(values) => values.len(),
            Repr::Joined(pair) => pair.len,
        }
    }

    /// True when the tuple has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The values as one slice: borrowed from a row, built — every value
    /// cloned, text included — for a join. For the edge of the system; a
    /// per-tuple path reads through [`Tuple::get`], indexing or
    /// [`Tuple::iter`], which copy nothing for either shape.
    pub fn values(&self) -> Cow<'_, [Value]> {
        match &self.0 {
            Repr::Row(values) => Cow::Borrowed(values),
            Repr::Joined(_) => Cow::Owned(self.iter().cloned().collect()),
        }
    }

    /// The values in order, whatever the shape; nothing is copied.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            tuple: self,
            next: 0,
            run: [].iter(),
        }
    }

    /// True when both tuples are the same allocation — not merely equal:
    /// the row, or the join, was handed on, never copied.
    pub fn ptr_eq(&self, other: &Tuple) -> bool {
        match (&self.0, &other.0) {
            (Repr::Row(a), Repr::Row(b)) => Arc::ptr_eq(a, b),
            (Repr::Joined(a), Repr::Joined(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The two inputs of the join this tuple is, `None` for a row.
    pub fn sides(&self) -> Option<(&Tuple, &Tuple)> {
        match &self.0 {
            Repr::Row(_) => None,
            Repr::Joined(pair) => Some((&pair.left, &pair.right)),
        }
    }

    /// Returns the values as an owned vector. The last holder of a row moves
    /// them out; while the row is still shared (with the table's version
    /// arena, typically), and for a join, every value is cloned, text
    /// included — so this belongs at the edge of the system, not on a
    /// per-tuple path.
    pub fn into_values(self) -> Vec<Value> {
        match self.0 {
            Repr::Row(mut values) => match Arc::get_mut(&mut values) {
                Some(values) => values
                    .iter_mut()
                    .map(|v| std::mem::replace(v, Value::Null))
                    .collect(),
                None => values.to_vec(),
            },
            Repr::Joined(_) => self.iter().cloned().collect(),
        }
    }

    /// Returns the value at `idx`, if present.
    #[inline]
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.run_from(idx).first()
    }

    /// The values from `idx` to the end of the row that holds it (nothing
    /// when `idx` is out of range).
    #[inline]
    fn run_from(&self, mut idx: usize) -> &[Value] {
        let mut tuple = self;
        loop {
            match &tuple.0 {
                Repr::Row(values) => return values.get(idx..).unwrap_or_default(),
                Repr::Joined(pair) if idx < pair.left_len => tuple = &pair.left,
                Repr::Joined(pair) => {
                    idx -= pair.left_len;
                    tuple = &pair.right;
                }
            }
        }
    }

    /// Joins two tuples: the result reads as the values of `self` followed
    /// by those of `other` and holds both by reference — one small
    /// allocation, no value is cloned.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let left_len = self.len();
        Tuple(Repr::Joined(Arc::new(Pair {
            left: self.clone(),
            right: other.clone(),
            left_len,
            len: left_len + other.len(),
        })))
    }

    /// Returns a row consisting of the selected column indices (their
    /// values cloned).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        indices.iter().map(|&i| self[i].clone()).collect()
    }

    /// Approximate heap footprint in bytes (used by memory accounting): the
    /// shared allocation — its two reference counts included — plus the text
    /// the values own; for a join the pair and the footprint of both sides,
    /// shared with other holders or not.
    pub fn heap_size(&self) -> usize {
        let counts = 2 * std::mem::size_of::<usize>();
        match &self.0 {
            Repr::Row(values) => {
                counts
                    + std::mem::size_of_val::<[Value]>(values)
                    + values.iter().map(Value::heap_size).sum::<usize>()
            }
            Repr::Joined(pair) => {
                counts
                    + std::mem::size_of::<Pair>()
                    + pair.left.heap_size()
                    + pair.right.heap_size()
            }
        }
    }
}

/// Iterator over the values of a [`Tuple`]: one slice iterator per row the
/// tuple is made of.
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    tuple: &'a Tuple,
    /// Index of the first value after `run`.
    next: usize,
    run: std::slice::Iter<'a, Value>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Value;

    #[inline]
    fn next(&mut self) -> Option<&'a Value> {
        loop {
            if let Some(value) = self.run.next() {
                return Some(value);
            }
            // An empty run means `next` is past the end: a side without
            // values holds no index.
            let run = self.tuple.run_from(self.next);
            if run.is_empty() {
                return None;
            }
            self.next += run.len();
            self.run = run.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.run.len() + self.tuple.len().saturating_sub(self.next);
        (left, Some(left))
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Default for Tuple {
    fn default() -> Self {
        Tuple(Repr::Row(Arc::default()))
    }
}

impl PartialEq for Tuple {
    fn eq(&self, other: &Tuple) -> bool {
        match (&self.0, &other.0) {
            (Repr::Row(a), Repr::Row(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for Tuple {}

impl Hash for Tuple {
    /// The length, then each value: tuples that are equal hash equally
    /// whatever their shapes.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for value in self {
            value.hash(state);
        }
    }
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Tuple) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    /// Lexicographic over the values.
    fn cmp(&self, other: &Tuple) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    #[inline]
    fn index(&self, idx: usize) -> &Value {
        match self.get(idx) {
            Some(value) => value,
            None => panic!(
                "index out of bounds: the tuple holds {} values but the index is {idx}",
                self.len()
            ),
        }
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Tuple::new(values)
    }
}

impl<const N: usize> From<[Value; N]> for Tuple {
    /// One allocation, no intermediate vector (what [`tuple!`](crate::tuple!)
    /// expands to, and with it every bulk load).
    fn from(values: [Value; N]) -> Self {
        Tuple(Repr::Row(values.into()))
    }
}

impl FromIterator<Value> for Tuple {
    /// One allocation when the iterator knows its length.
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(Repr::Row(iter.into_iter().collect()))
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.iter().enumerate() {
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
    fn concat_preserves_order_and_copies_nothing() {
        let a = tuple![1i64, "x"];
        let b = tuple![2i64];
        let c = a.concat(&b);
        assert_eq!(
            &*c.values(),
            &[Value::Int(1), Value::text("x"), Value::Int(2)]
        );
        assert_eq!(
            (c.len(), &c[1], c.get(2), c.get(3)),
            (3, &a[1], b.get(0), None)
        );
        let (left, right) = c.sides().expect("a join");
        assert!(left.ptr_eq(&a) && right.ptr_eq(&b));
        assert!(a.sides().is_none());
        // The text a join shows is the text its side stores.
        assert!(std::ptr::eq(&c[1], &a[1]));
        assert_eq!(c, tuple![1i64, "x", 2i64]);
        assert_eq!(c.to_string(), "[1, 'x', 2]");
    }

    /// A join of joins, with sides that hold nothing, reads as the flat row.
    #[test]
    fn nested_joins_read_through() {
        let (a, b, none) = (tuple![1i64, 2i64], tuple![3i64], Tuple::empty());
        let nested = none.concat(&a).concat(&none.concat(&b.concat(&none)));
        let flat = tuple![1i64, 2i64, 3i64];
        assert_eq!(nested.len(), 3);
        assert!(nested.iter().eq(flat.iter()));
        assert_eq!(nested.iter().len(), 3);
        assert_eq!((nested.get(2), nested.get(3)), (Some(&Value::Int(3)), None));
        assert_eq!(nested.cmp(&flat), Ordering::Equal);
        assert_eq!(nested.project(&[2, 0]), tuple![3i64, 1i64]);
        assert_eq!(nested.clone().into_values(), flat.into_values());
        assert!(none.concat(&none).is_empty());
        assert_eq!(none.concat(&none).iter().next(), None);
    }

    #[test]
    #[should_panic(expected = "the tuple holds 3 values but the index is 3")]
    fn indexing_past_a_join_panics() {
        let _ = &tuple![1i64, 2i64].concat(&tuple![3i64])[3];
    }

    #[test]
    fn project_reorders() {
        let t = tuple![10i64, 20i64, 30i64];
        let p = t.project(&[2, 0]);
        assert_eq!(&*p.values(), &[Value::Int(30), Value::Int(10)]);
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
        // A text too long to lie in the value: it owns a buffer.
        let long = "a title of more than twenty-two bytes";
        let t = tuple![1i64, long];
        let shared = t.clone();
        assert!(t.ptr_eq(&shared));
        assert!(!t.ptr_eq(&tuple![1i64, long]), "equal is not shared");
        // Shared: the values are cloned and the other holder keeps its row.
        assert_eq!(shared.into_values(), vec![Value::Int(1), Value::text(long)]);
        assert_eq!(t[1], Value::text(long));
        // Unique: the text moves out with its buffer.
        let text = t[1].as_text().unwrap().as_ptr();
        let values = t.into_values();
        assert_eq!(values[1].as_text().unwrap().as_ptr(), text);
    }

    #[test]
    fn ordering_is_lexicographic_over_values() {
        assert!(tuple![1i64, 2i64] < tuple![1i64, 3i64]);
        assert!(tuple![1i64] < tuple![1i64, 0i64]);
        assert!(tuple![1i64].concat(&tuple![2i64]) < tuple![1i64, 3i64]);
    }

    /// The arena stores a `Tuple` per version: it stays two words.
    #[test]
    fn a_tuple_is_two_words() {
        assert_eq!(std::mem::size_of::<Tuple>(), 16);
    }
}
