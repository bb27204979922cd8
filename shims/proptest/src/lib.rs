//! Minimal in-repo stand-in for the `proptest` API slice SharedDB's property
//! tests use. The build environment has no network access to crates.io, so
//! the workspace vendors a small randomized-testing runner:
//!
//! * [`Strategy`] — a value generator; implemented for half-open ranges,
//!   tuples of strategies, [`collection::vec`] and [`any`].
//! * [`proptest!`] — expands each `fn name(arg in strategy, ...) { body }`
//!   into a `#[test]` that runs the body for [`ProptestConfig::cases`]
//!   deterministically seeded random cases.
//! * [`prop_assert!`] / [`prop_assert_eq!`] — plain assertion forwarding.
//!
//! Shrinking works on the *draws*, not on the values (the Hypothesis way, so
//! it needs nothing from a strategy): every case records the numbers its
//! strategies drew; when a case fails, [`run_cases`] replays the body with
//! draws deleted, zeroed and halved — shorter vectors, values nearer the
//! start of their range — keeps every variant that still fails, and finally
//! re-runs the smallest one so the test dies with *its* assertion message.
//! Failures are reproducible because the per-test RNG is seeded from the
//! test's name (override the whole run's seed mix with
//! `PROPTEST_SHIM_SEED=<u64>`).

use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Deterministic SplitMix64 generator driving all strategies. It records
/// every draw of the current case, and can replay a recorded (and edited)
/// sequence instead of generating — which is how failing cases are shrunk.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
    /// Draws of the current case: bounded draws as the value drawn, raw draws
    /// as the 64 bits.
    record: Vec<u64>,
    /// When set, draws come from this sequence (0 once it runs out).
    replay: Option<std::vec::IntoIter<u64>>,
}

impl TestRng {
    /// Seeds the generator from a test name (FNV-1a) plus an optional
    /// environment override, so every test has its own reproducible stream.
    pub fn for_test(name: &str) -> TestRng {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in name.bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        let mix = std::env::var("PROPTEST_SHIM_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
        TestRng {
            state: hash ^ mix.rotate_left(17),
            record: Vec::new(),
            replay: None,
        }
    }

    /// A generator that replays `draws` instead of generating.
    fn replaying(draws: Vec<u64>) -> TestRng {
        TestRng {
            state: 0,
            record: Vec::new(),
            replay: Some(draws.into_iter()),
        }
    }

    fn draw(&mut self) -> u64 {
        if let Some(replay) = &mut self.replay {
            return replay.next().unwrap_or(0);
        }
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let bits = self.draw();
        self.record.push(bits);
        bits
    }

    fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            let value = self.draw() % bound;
            self.record.push(value);
            value
        }
    }
}

/// Body runs a failing case may be shrunk with.
const SHRINK_BUDGET: usize = 2000;

/// Runs `case` for `config.cases` random cases; each call draws its inputs
/// from the generator it is handed. A failing case is shrunk (see the module
/// docs) and the smallest failing variant is run once more, unprotected, so
/// the test fails with that variant's own panic message.
pub fn run_cases(name: &str, config: ProptestConfig, mut case: impl FnMut(&mut TestRng)) {
    let mut rng = TestRng::for_test(name);
    for _ in 0..config.cases {
        rng.record.clear();
        let Err(panic) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) else {
            continue;
        };
        let draws = std::mem::take(&mut rng.record);
        let total = draws.len();
        let smallest = shrink(draws, |candidate| {
            let mut replay = TestRng::replaying(candidate.to_vec());
            catch_unwind(AssertUnwindSafe(|| case(&mut replay))).is_err()
        });
        eprintln!(
            "proptest shim: {name} failed; shrunk the case from {total} to {} draws, \
             re-running it:",
            smallest.len()
        );
        case(&mut TestRng::replaying(smallest));
        resume_unwind(panic); // the shrunk case passed this time: a flaky body
    }
}

/// Greedy shrinking of a failing draw sequence, to a fixpoint or until the
/// budget is spent: delete runs of draws (long runs first), then bisect each
/// remaining draw towards zero. A variant is kept only if `fails` says the
/// body still fails with it.
fn shrink(mut draws: Vec<u64>, mut fails: impl FnMut(&[u64]) -> bool) -> Vec<u64> {
    let mut budget = SHRINK_BUDGET;
    let mut attempt = |candidate: &[u64]| {
        budget > 0 && {
            budget -= 1;
            fails(candidate)
        }
    };
    loop {
        let before = draws.clone();
        let mut run = draws.len() / 2;
        while run > 0 {
            let mut at = 0;
            while at + run <= draws.len() {
                let mut candidate = draws.clone();
                candidate.drain(at..at + run);
                if attempt(&candidate) {
                    draws = candidate;
                } else {
                    at += run;
                }
            }
            run /= 2;
        }
        for at in 0..draws.len() {
            // `passes` is a value the body is known (or, for 0, about to be
            // shown) not to fail with; `draws[at]` always fails.
            let mut candidate = draws.clone();
            candidate[at] = 0;
            if draws[at] == 0 || attempt(&candidate) {
                draws[at] = 0;
                continue;
            }
            let mut passes = 0;
            while draws[at] - passes > 1 {
                let middle = passes + (draws[at] - passes) / 2;
                candidate[at] = middle;
                if attempt(&candidate) {
                    draws[at] = middle;
                } else {
                    passes = middle;
                }
            }
        }
        if draws == before {
            return draws;
        }
    }
}

/// Run configuration; only the case count is honoured by the shim.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases executed per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 96 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_range_strategy!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.start + unit * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
}

/// Strategy for any value of a type with a canonical distribution.
pub struct Any<A> {
    _marker: PhantomData<A>,
}

/// Types with a canonical whole-domain distribution.
pub trait Arbitrary: Sized {
    /// Draws one value from the whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(i8, i16, i32, i64, u8, u16, u32, u64, usize, isize);

/// `any::<T>()` — the canonical strategy for `T`.
pub fn any<A: Arbitrary>() -> Any<A> {
    Any {
        _marker: PhantomData,
    }
}

impl<A: Arbitrary> Strategy for Any<A> {
    type Value = A;
    fn generate(&self, rng: &mut TestRng) -> A {
        A::arbitrary(rng)
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy producing `Vec`s of values from an element strategy.
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    /// Vectors with a length drawn from `size` and elements from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start >= self.size.end {
                self.size.start
            } else {
                self.size.generate(rng)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test file usually imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, ProptestConfig,
        Strategy,
    };
}

/// Asserts a condition inside a property (plain `assert!` forwarding).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property (plain `assert_eq!` forwarding).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property (plain `assert_ne!` forwarding).
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_functions {
    (($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run_cases(stringify!($name), $cfg, |proptest_shim_rng| {
                $(let $arg = $crate::Strategy::generate(&($strategy), proptest_shim_rng);)+
                $body
            });
        }
    )*};
}

/// The proptest entry macro: wraps `fn name(arg in strategy, ...) { body }`
/// items into `#[test]`s that run many random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_functions! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_functions! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn ranges_stay_in_bounds(v in 5i64..50, u in 0usize..3) {
            prop_assert!((5..50).contains(&v));
            prop_assert!(u < 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(17))]
        #[test]
        fn vec_strategy_respects_size(items in crate::collection::vec((0u32..10, any::<bool>()), 0..8)) {
            prop_assert!(items.len() < 8);
            for (n, _flag) in items {
                prop_assert!(n < 10);
            }
        }
    }

    /// A failing property is shrunk to a local minimum before it is reported:
    /// "some element is ≥ 50" fails, at its smallest, for the vector `[50]`.
    #[test]
    fn failing_case_is_shrunk() {
        let strategy = crate::collection::vec(0u32..1000, 0..30);
        let mut last = Vec::new();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            crate::run_cases("shrinks", ProptestConfig::with_cases(64), |rng| {
                last = crate::Strategy::generate(&strategy, rng);
                assert!(last.iter().all(|&v| v < 50), "{last:?}");
            })
        }));
        assert!(outcome.is_err(), "the property must fail");
        assert_eq!(last, vec![50]);
    }

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = crate::TestRng::for_test("x");
        let mut b = crate::TestRng::for_test("x");
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
