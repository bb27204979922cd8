//! SQL values and data types.
//!
//! SharedDB keeps all data in main memory (Section 4.4: the Crescando storage
//! manager is a main-memory store); values are therefore plain Rust enums and
//! never reference external buffers.

use crate::error::{Error, Result};
use crate::sort::SortOrder;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher, RandomState};
use std::ops::Deref;
use std::sync::OnceLock;

/// The SQL data types supported by the engine.
///
/// The set covers everything the TPC-W schema and the paper's example queries
/// need: integers, floating point numbers, strings, booleans and dates
/// (represented as days since the Unix epoch; timestamps use `Int` seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit IEEE-754 floating point number.
    Float,
    /// UTF-8 string.
    Text,
    /// Boolean.
    Bool,
    /// Calendar date, stored as days since 1970-01-01.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOL",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

/// The most bytes a [`Text`] holds in place.
const INLINE_BYTES: usize = 22;

/// The string of a [`Value::Text`]: up to 22 bytes lie in the value itself,
/// a longer one in an allocation of exactly its length. It is the `str` it
/// derefs to — compared, ordered, hashed and printed as that — and never
/// changes once built.
///
/// The 22-byte rule is what keeps [`Value`] at 24 bytes: a length byte and
/// 22 bytes of text beside the one-byte tag that tells the two layouts apart,
/// whose unused values hold `Value`'s own variants. Most strings of a TPC-W
/// catalog (`"VISA"`, a name, a subject, a phone number) are that short, and
/// each used to own a heap chunk.
#[derive(Clone)]
pub struct Text(Repr);

#[derive(Clone)]
enum Repr {
    /// Invariant: `len <= INLINE_BYTES` and `bytes[..len]` is valid UTF-8.
    /// `From<&str>` is the one place that builds an `Inline` — by copying a
    /// whole `str` — and nothing changes one afterwards; [`Text::as_str`]
    /// relies on it.
    Inline {
        len: u8,
        bytes: [u8; INLINE_BYTES],
    },
    Heap(Box<str>),
}

impl Text {
    /// The string.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                let text = &bytes[..usize::from(*len)];
                // SAFETY: `text` is the bytes of the `str` this value was
                // built from (the invariant on `Repr::Inline`). Checking it
                // again on every read cost a `LIKE` a quarter of its time
                // (CHANGES.md, PR 27).
                unsafe { std::str::from_utf8_unchecked(text) }
            }
            Repr::Heap(text) => text,
        }
    }

    /// Bytes allocated outside the value: none for a text held in place.
    pub fn heap_size(&self) -> usize {
        match &self.0 {
            Repr::Inline { .. } => 0,
            Repr::Heap(text) => text.len(),
        }
    }
}

impl From<&str> for Text {
    fn from(text: &str) -> Self {
        if text.len() > INLINE_BYTES {
            return Text(Repr::Heap(text.into()));
        }
        let mut bytes = [0; INLINE_BYTES];
        bytes[..text.len()].copy_from_slice(text.as_bytes());
        Text(Repr::Inline {
            len: text.len() as u8,
            bytes,
        })
    }
}

impl From<String> for Text {
    fn from(text: String) -> Self {
        if text.len() > INLINE_BYTES {
            Text(Repr::Heap(text.into_boxed_str()))
        } else {
            Text::from(text.as_str())
        }
    }
}

impl Deref for Text {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Text {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A single SQL value.
///
/// `Value` implements a *total* ordering (`Ord`) so that it can be used as a
/// sort key and as a B-tree key: `NULL` sorts before everything, floats use
/// IEEE total ordering, and comparing values of different types falls back to
/// a stable type rank. Use [`Value::sql_cmp`] when SQL three-valued comparison
/// semantics (NULL is incomparable) are required.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Text(Text),
    /// Boolean.
    Bool(bool),
    /// Days since the Unix epoch.
    Date(i64),
}

impl Value {
    /// Returns the data type of the value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    /// True if the value is SQL NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Creates a text value from anything string-like.
    pub fn text(s: impl Into<Text>) -> Self {
        Value::Text(s.into())
    }

    /// Builds a [`Value::Date`] from a `(year, month, day)` triple using a
    /// proleptic Gregorian calendar. Only used by data generators and tests,
    /// so it favours clarity over speed.
    pub fn date_from_ymd(year: i32, month: u32, day: u32) -> Self {
        Value::Date(days_from_civil(year, month, day))
    }

    /// Extracts an `i64`, coercing dates and booleans; errors on other types.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Date(v) => Ok(*v),
            Value::Bool(b) => Ok(*b as i64),
            other => Err(Error::TypeMismatch {
                expected: "Int".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Extracts an `f64`, coercing integers; errors on other types.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            Value::Date(v) => Ok(*v as f64),
            other => Err(Error::TypeMismatch {
                expected: "Float".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Extracts a string slice; errors on non-text values.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            Value::Text(s) => Ok(s),
            other => Err(Error::TypeMismatch {
                expected: "Text".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// Extracts a boolean; errors on other types.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::TypeMismatch {
                expected: "Bool".into(),
                found: format!("{other:?}"),
            }),
        }
    }

    /// SQL comparison: returns `None` when either side is NULL (three-valued
    /// logic), otherwise the ordering. Numeric types are compared after
    /// coercion to `f64` when mixed.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Int(a), Date(b)) | (Date(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(a.total_cmp(b)),
            (Int(a), Float(b)) | (Date(a), Float(b)) => Some((*a as f64).total_cmp(b)),
            (Float(a), Int(b)) | (Float(a), Date(b)) => Some(a.total_cmp(&(*b as f64))),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// True when the two values are equal under SQL semantics (NULL never
    /// equals anything, including NULL).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Some(Ordering::Equal)
    }

    /// Stable rank used to order values of different types in the total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Float(_) => 2, // numeric family shares a rank
            Value::Date(_) => 3,
            Value::Text(_) => 4,
        }
    }

    /// Approximate heap size of the value in bytes; used by memory accounting
    /// and the workload generators.
    pub fn heap_size(&self) -> usize {
        match self {
            Value::Text(s) => s.heap_size(),
            _ => 0,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Total ordering: NULL first, then by type rank, then by value. The
    /// numeric family (Int/Float) is compared numerically so that index keys
    /// behave sensibly when literals are written as `10` or `10.0`.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            _ => self
                .type_rank()
                .cmp(&other.type_rank())
                .then(Ordering::Equal),
        }
    }
}

// ---------------------------------------------------------------------------
// Key words
// ---------------------------------------------------------------------------

/// The seed of this process's hash words: drawn once, so which keys share a
/// bucket cannot be worked out ahead of a run.
fn seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u8))
}

/// Folds one 64-bit word of a key into its hash.
#[inline]
fn fold(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The finaliser of a hash word: every bit of the folded key reaches every
/// bit of the word. Not optional — a bit of a product depends on the bits of
/// its factors at and below it alone, and an integer key is folded as the
/// bits of its `f64`, whose low 32 are zero for every small integer: without
/// this, keys that differ in their high bits only agree in every bit below,
/// and a table that picks a slot by any of those files them in one run.
#[inline]
fn finish(hash: u64) -> u64 {
    let hash = (hash ^ (hash >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let hash = (hash ^ (hash >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    hash ^ (hash >> 31)
}

/// The hash word of a key given as its values: 64 bits, equal for keys whose
/// values are `==` one by one — the `Int`/`Float` family is folded as the
/// `f64` it is compared as —, seeded once per process and not cryptographic
/// (see `docs/ARCHITECTURE.md`, *Key words*). What every operator table and
/// the key map of a table hash with.
#[inline]
pub fn hash_words<'a>(values: impl IntoIterator<Item = &'a Value>) -> u64 {
    finish(values.into_iter().fold(seed(), |hash, value| match value {
        Value::Null => fold(hash, 0x4E55),
        Value::Bool(b) => fold(hash, 0xB001 + u64::from(*b)),
        Value::Int(v) => fold(hash, (*v as f64).to_bits()),
        Value::Float(v) => fold(hash, v.to_bits()),
        Value::Date(d) => fold(hash, 0xDA7E ^ *d as u64),
        Value::Text(text) => {
            let mut chunks = text.as_bytes().chunks_exact(8);
            let whole = chunks.by_ref().fold(hash, |hash, chunk| {
                let chunk = chunk.try_into().expect("chunks_exact(8) yields 8 bytes");
                fold(hash, u64::from_le_bytes(chunk))
            });
            let mut last = [0; 8];
            last[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
            fold(fold(whole, u64::from_le_bytes(last)), text.len() as u64)
        }
    }))
}

/// The bits of `v` as an unsigned integer that orders as `f64::total_cmp`.
#[inline]
fn sortable_bits(v: f64) -> u64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl Value {
    /// [`hash_words`] of the one value.
    #[inline]
    pub fn hash_word(&self) -> u64 {
        hash_words([self])
    }

    /// A 64-bit prefix of the value's place in the total order, *weakly*
    /// monotone under [`Ord`]: `a.order_word(o) < b.order_word(o)` implies
    /// that `a` sorts before `b` under `o`; equal words decide nothing, and
    /// whoever ranks by words falls back to comparing the values. Two bits
    /// say which quarter of the order the value lies in — NULL and the
    /// booleans, the numeric family, dates, text —, 62 where in it: the
    /// `f64` an `Int` or a `Float` is compared as by its sortable bits (an
    /// integer up to 2^51 exactly), a date exactly, a text by its first 62
    /// bits. Descending is the complement of the whole word.
    #[inline]
    pub fn order_word(&self, order: SortOrder) -> u64 {
        const HALF: i64 = 1 << 61;
        let (quarter, place) = match self {
            Value::Null => (0, 0),
            Value::Bool(b) => (0, 1 + u64::from(*b)),
            Value::Int(v) => (1, sortable_bits(*v as f64) >> 2),
            Value::Float(v) => (1, sortable_bits(*v) >> 2),
            Value::Date(d) => (2, ((*d).clamp(-HALF, HALF - 1) + HALF) as u64),
            Value::Text(text) => {
                let bytes = text.as_bytes();
                let mut first = [0; 8];
                let held = bytes.len().min(8);
                first[..held].copy_from_slice(&bytes[..held]);
                (3, u64::from_be_bytes(first) >> 2)
            }
        };
        let word = quarter << 62 | place;
        match order {
            SortOrder::Ascending => word,
            SortOrder::Descending => !word,
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Integers and floats that compare equal must hash equally
            // because they share a type rank in the total order.
            Value::Int(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Date(v) => {
                3u8.hash(state);
                v.hash(state);
            }
            Value::Text(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Date(d) => {
                let (y, m, day) = civil_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::text(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Converts a civil date to days since the Unix epoch.
///
/// Algorithm from Howard Hinnant's `chrono`-compatible date algorithms
/// (public domain), valid for the full `i32` year range.
pub fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year } as i64;
    let m = month as i64;
    let d = day as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let doy = (153 * (m + if m > 2 { -3 } else { 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Converts days since the Unix epoch back to a civil `(year, month, day)`.
pub fn civil_from_days(days: i64) -> (i32, u32, u32) {
    let z = days + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    ((y + (m <= 2) as i64) as i32, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn sql_cmp_with_null_is_none() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert!(!Value::Null.sql_eq(&Value::Null));
    }

    #[test]
    fn total_order_null_first() {
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::text(""));
    }

    #[test]
    fn numeric_family_compares_across_types() {
        assert_eq!(Value::Int(3).cmp(&Value::Float(3.0)), Ordering::Equal);
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.9) < Value::Int(3));
        assert!(Value::Int(3).sql_eq(&Value::Float(3.0)));
    }

    #[test]
    fn equal_numerics_hash_equally() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Float(42.0)));
    }

    #[test]
    fn text_ordering_is_lexicographic() {
        assert!(Value::text("abc") < Value::text("abd"));
        assert!(Value::text("abc") < Value::text("abcd"));
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (2000, 2, 29), (2011, 12, 31), (1969, 7, 20)] {
            let v = Value::date_from_ymd(y, m, d);
            if let Value::Date(days) = v {
                assert_eq!(civil_from_days(days), (y, m, d));
            } else {
                panic!("not a date");
            }
        }
        assert_eq!(Value::date_from_ymd(1970, 1, 1), Value::Date(0));
    }

    #[test]
    fn date_display_is_iso() {
        assert_eq!(Value::date_from_ymd(2011, 3, 5).to_string(), "2011-03-05");
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int(7).as_int().unwrap(), 7);
        assert_eq!(Value::Float(1.5).as_float().unwrap(), 1.5);
        assert_eq!(Value::Int(2).as_float().unwrap(), 2.0);
        assert_eq!(Value::text("x").as_text().unwrap(), "x");
        assert!(Value::text("x").as_int().is_err());
        assert!(Value::Int(1).as_text().is_err());
        assert!(Value::Bool(true).as_bool().unwrap());
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3i32), Value::Int(3));
        assert_eq!(Value::from(2.5f64), Value::Float(2.5));
        assert_eq!(Value::from("hi"), Value::text("hi"));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn data_type_reporting() {
        assert_eq!(Value::Int(1).data_type(), Some(DataType::Int));
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(DataType::Text.to_string(), "TEXT");
    }

    #[test]
    fn float_total_order_handles_nan() {
        let nan = Value::Float(f64::NAN);
        let one = Value::Float(1.0);
        // total_cmp puts NaN above all numbers; we only require a total order.
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_ne!(nan.cmp(&one), Ordering::Equal);
    }
}
