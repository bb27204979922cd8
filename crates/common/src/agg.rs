//! Aggregate functions and accumulators.
//!
//! The shared group-by operator (Section 3.4) runs in two phases: a *shared*
//! grouping phase over the union of all interested tuples, followed by a
//! per-query phase that applies HAVING predicates and aggregation functions.
//! The accumulators in this module implement that second phase.

use crate::error::{Error, Result};
use crate::value::Value;

/// The aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateFunction {
    /// `COUNT(*)` / `COUNT(expr)` — number of (non-null) inputs.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `AVG(expr)`.
    Avg,
}

impl AggregateFunction {
    /// Parses the SQL name of an aggregate function.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggregateFunction::Count),
            "SUM" => Some(AggregateFunction::Sum),
            "MIN" => Some(AggregateFunction::Min),
            "MAX" => Some(AggregateFunction::Max),
            "AVG" => Some(AggregateFunction::Avg),
            _ => None,
        }
    }

    /// Creates a fresh accumulator for the function.
    pub fn accumulator(self) -> Accumulator {
        Accumulator::new(self)
    }

    /// The SQL name of the function.
    pub fn name(self) -> &'static str {
        match self {
            AggregateFunction::Count => "COUNT",
            AggregateFunction::Sum => "SUM",
            AggregateFunction::Min => "MIN",
            AggregateFunction::Max => "MAX",
            AggregateFunction::Avg => "AVG",
        }
    }
}

/// Incremental state of one aggregate over one group (and, in SharedDB, for
/// one query — aggregation is per-query even when grouping is shared).
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    function: AggregateFunction,
    count: u64,
    sum: f64,
    /// True when every summed input so far was an integer (affects the output
    /// type of SUM/AVG).
    int_only: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Accumulator {
    /// Creates an empty accumulator.
    pub fn new(function: AggregateFunction) -> Self {
        Accumulator {
            function,
            count: 0,
            sum: 0.0,
            int_only: true,
            min: None,
            max: None,
        }
    }

    /// The function this accumulator computes.
    pub fn function(&self) -> AggregateFunction {
        self.function
    }

    /// Folds one input value into the accumulator. NULL inputs are ignored,
    /// per SQL semantics (except that `COUNT(*)` is modelled by feeding a
    /// non-null literal).
    pub fn update(&mut self, value: &Value) -> Result<()> {
        if value.is_null() {
            return Ok(());
        }
        self.count += 1;
        match self.function {
            AggregateFunction::Count => {}
            AggregateFunction::Sum | AggregateFunction::Avg => {
                match value {
                    Value::Int(i) => self.sum += *i as f64,
                    Value::Float(f) => {
                        self.sum += *f;
                        self.int_only = false;
                    }
                    Value::Date(d) => self.sum += *d as f64,
                    other => {
                        return Err(Error::TypeMismatch {
                            expected: "numeric".into(),
                            found: format!("{other:?}"),
                        })
                    }
                };
            }
            AggregateFunction::Min => {
                if self.min.as_ref().map(|m| value < m).unwrap_or(true) {
                    self.min = Some(value.clone());
                }
            }
            AggregateFunction::Max => {
                if self.max.as_ref().map(|m| value > m).unwrap_or(true) {
                    self.max = Some(value.clone());
                }
            }
        }
        Ok(())
    }

    /// Merges another accumulator of the same function (used by partitioned /
    /// replicated operators, Section 4.5).
    pub fn merge(&mut self, other: &Accumulator) {
        debug_assert_eq!(self.function, other.function);
        self.count += other.count;
        self.sum += other.sum;
        self.int_only &= other.int_only;
        if let Some(m) = &other.min {
            if self.min.as_ref().map(|cur| m < cur).unwrap_or(true) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self.max.as_ref().map(|cur| m > cur).unwrap_or(true) {
                self.max = Some(m.clone());
            }
        }
    }

    /// Number of non-null inputs folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The partial sum of an AVG accumulator, as a group-by in partial mode
    /// ships it: `Float(sum)` (or `Null` with no inputs), its count beside
    /// it, so whoever recombines partials divides once.
    pub fn partial_sum(&self) -> Value {
        if self.count == 0 {
            Value::Null
        } else {
            Value::Float(self.sum)
        }
    }

    /// Produces the final aggregate value.
    pub fn finish(&self) -> Value {
        match self.function {
            AggregateFunction::Count => Value::Int(self.count as i64),
            AggregateFunction::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.int_only {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggregateFunction::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggregateFunction::Min => self.min.clone().unwrap_or(Value::Null),
            AggregateFunction::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(f: AggregateFunction, values: &[Value]) -> Value {
        let mut acc = f.accumulator();
        for v in values {
            acc.update(v).unwrap();
        }
        acc.finish()
    }

    #[test]
    fn count_ignores_nulls() {
        let v = run(
            AggregateFunction::Count,
            &[Value::Int(1), Value::Null, Value::Int(3)],
        );
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn sum_int_and_float() {
        assert_eq!(
            run(AggregateFunction::Sum, &[Value::Int(1), Value::Int(2)]),
            Value::Int(3)
        );
        assert_eq!(
            run(AggregateFunction::Sum, &[Value::Int(1), Value::Float(2.5)]),
            Value::Float(3.5)
        );
        assert_eq!(run(AggregateFunction::Sum, &[]), Value::Null);
        assert_eq!(run(AggregateFunction::Sum, &[Value::Null]), Value::Null);
    }

    #[test]
    fn avg_minmax() {
        assert_eq!(
            run(AggregateFunction::Avg, &[Value::Int(1), Value::Int(3)]),
            Value::Float(2.0)
        );
        assert_eq!(
            run(
                AggregateFunction::Min,
                &[Value::text("b"), Value::text("a"), Value::Null]
            ),
            Value::text("a")
        );
        assert_eq!(
            run(AggregateFunction::Max, &[Value::Int(4), Value::Int(9)]),
            Value::Int(9)
        );
        assert_eq!(run(AggregateFunction::Min, &[]), Value::Null);
    }

    #[test]
    fn sum_rejects_text() {
        let mut acc = AggregateFunction::Sum.accumulator();
        assert!(acc.update(&Value::text("x")).is_err());
    }

    #[test]
    fn merge_combines_partitions() {
        let mut a = AggregateFunction::Avg.accumulator();
        let mut b = AggregateFunction::Avg.accumulator();
        for v in [1i64, 2, 3] {
            a.update(&Value::Int(v)).unwrap();
        }
        for v in [5i64, 7] {
            b.update(&Value::Int(v)).unwrap();
        }
        a.merge(&b);
        assert_eq!(a.finish(), Value::Float(18.0 / 5.0));

        let mut mn = AggregateFunction::Min.accumulator();
        let mut mn2 = AggregateFunction::Min.accumulator();
        mn.update(&Value::Int(4)).unwrap();
        mn2.update(&Value::Int(2)).unwrap();
        mn.merge(&mn2);
        assert_eq!(mn.finish(), Value::Int(2));
    }

    #[test]
    fn name_roundtrip() {
        for f in [
            AggregateFunction::Count,
            AggregateFunction::Sum,
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Avg,
        ] {
            assert_eq!(AggregateFunction::from_name(f.name()), Some(f));
        }
        assert_eq!(AggregateFunction::from_name("median"), None);
    }
}
