//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest the workspace's property tests use:
//! the [`proptest!`] macro (with `#![proptest_config(..)]`, `name in
//! strategy` and `name: Type` argument forms), range / tuple / `any` /
//! [`collection::vec`] strategies, `prop_map`, and the `prop_assert*`
//! macros.
//!
//! Differences from real proptest, by design:
//!
//! * **No shrinking.** A failing case reports its inputs and seed but is
//!   not minimized.
//! * **Fully deterministic.** Case `i` of test `t` always draws from a
//!   generator seeded with `fnv1a(module::t) ^ i`, so failures reproduce
//!   across runs and machines without a regressions file
//!   (`proptest-regressions` files are ignored).
//! * Strategies sample uniformly; there is no bias toward edge cases.

use std::fmt::Debug;
use std::ops::Range;

/// Deterministic generator driving all strategies (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds a generator.
    pub fn seed(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next uniformly distributed `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range");
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as usize
    }
}

/// Error type carried out of a failing test case body.
pub type TestCaseError = String;

/// A value generator.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy adapter produced by [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! int_rangefrom_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::RangeFrom<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (<$t>::MAX as i128 - self.start as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (self.start as i128 + off as i128) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                let off = (rng.next_u64() as u128) % span;
                (*self.start() as i128 + off as i128) as $t
            }
        }
    )*};
}

int_rangefrom_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn generate(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (rng.next_f64() as f32) * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($(($($name:ident => $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A => 0, B => 1)
    (A => 0, B => 1, C => 2)
    (A => 0, B => 1, C => 2, D => 3)
}

/// Types with a canonical "anything" strategy (mirrors
/// `proptest::arbitrary::Arbitrary`).
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, sign-symmetric, spanning many magnitudes.
        let m = rng.next_f64() * 2.0 - 1.0;
        let e = (rng.next_u64() % 64) as i32 - 32;
        m * (2f64).powi(e)
    }
}

/// Strategy returned by [`any`].
#[derive(Debug, Clone, Default)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The strategy of all values of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Element-count specification for [`vec()`]: an exact size or a
    /// half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.lo + 1 == self.size.hi {
                self.size.lo
            } else {
                rng.usize_in(self.size.lo, self.size.hi)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per test.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Drives one property test: runs `config.cases` deterministic cases and
/// panics with seed + message on the first failure. Used by the
/// [`proptest!`] macro expansion; not part of the public proptest API.
pub fn run_cases<F>(config: &ProptestConfig, test_name: &str, body: F)
where
    F: Fn(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = fnv1a(test_name);
    for case in 0..config.cases {
        let seed = base ^ u64::from(case);
        let mut rng = TestRng::seed(seed);
        if let Err(msg) = body(&mut rng) {
            panic!(
                "proptest {test_name}: case {case}/{} failed (seed {seed:#x}):\n{msg}",
                config.cases
            );
        }
    }
}

/// Debug-formats a failing assertion operand, used by `prop_assert_eq!`.
pub fn fmt_operand<T: Debug>(v: &T) -> String {
    format!("{v:?}")
}

/// The common imports of a proptest-based test file.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestRng,
    };
}

/// Asserts a condition inside a property test, failing the case (not the
/// whole process) when false.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: {}", ::core::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} == {}`\n  left: {}\n right: {}",
                ::core::stringify!($left),
                ::core::stringify!($right),
                $crate::fmt_operand(l),
                $crate::fmt_operand(r),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: `{} != {}`\n  both: {}",
                ::core::stringify!($left),
                ::core::stringify!($right),
                $crate::fmt_operand(l),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    }};
}

/// Skips the current case when an assumption does not hold. The shim does
/// not re-draw; the case simply passes vacuously.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Ok(());
        }
    };
}

/// The proptest entry macro: declares deterministic property tests.
///
/// Supports the forms the workspace uses:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///
///     /// docs
///     #[test]
///     fn prop(xs in collection::vec(any::<u8>(), 0..100), seed: u64) { ... }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    // Entry with an explicit config header.
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@tests ($cfg) $($rest)*);
    };

    // Recursion terminator.
    (@tests ($cfg:expr)) => {};

    // One test function, then the rest.
    (@tests ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($params:tt)*) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            $crate::run_cases(
                &cfg,
                ::core::concat!(::core::module_path!(), "::", ::core::stringify!($name)),
                |__proptest_rng| -> ::core::result::Result<(), $crate::TestCaseError> {
                    $crate::proptest!(@bind __proptest_rng, $($params)*);
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::proptest!(@tests ($cfg) $($rest)*);
    };

    // Parameter binding: terminator (with optional trailing comma).
    (@bind $rng:ident $(,)?) => {};

    // `name in strategy` (last parameter).
    (@bind $rng:ident, $pat:ident in $strat:expr) => {
        let $pat = $crate::Strategy::generate(&($strat), $rng);
    };

    // `name in strategy, rest...`.
    (@bind $rng:ident, $pat:ident in $strat:expr, $($rest:tt)*) => {
        let $pat = $crate::Strategy::generate(&($strat), $rng);
        $crate::proptest!(@bind $rng, $($rest)*);
    };

    // `name: Type` (last parameter) — shorthand for `any::<Type>()`.
    (@bind $rng:ident, $pat:ident : $ty:ty) => {
        let $pat = $crate::Strategy::generate(&$crate::any::<$ty>(), $rng);
    };

    // `name: Type, rest...`.
    (@bind $rng:ident, $pat:ident : $ty:ty, $($rest:tt)*) => {
        let $pat = $crate::Strategy::generate(&$crate::any::<$ty>(), $rng);
        $crate::proptest!(@bind $rng, $($rest)*);
    };

    // Entry without a config header: default config.
    ($($rest:tt)*) => {
        $crate::proptest!(@tests ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn determinism_same_name_same_draws() {
        let mut a = TestRng::seed(42);
        let mut b = TestRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut rng = TestRng::seed(7);
        for _ in 0..1000 {
            let v = (3usize..9).generate(&mut rng);
            assert!((3..9).contains(&v));
            let f = (-2.0f64..3.5).generate(&mut rng);
            assert!((-2.0..3.5).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = TestRng::seed(9);
        for _ in 0..200 {
            let v = collection::vec(any::<u8>(), 2..5).generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
        let exact = collection::vec(0u64..10, 8).generate(&mut rng);
        assert_eq!(exact.len(), 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself works end to end, both arg forms included.
        #[test]
        fn macro_binds_all_forms(
            xs in collection::vec(any::<u8>(), 0..10),
            k in 1usize..4,
            pair in (0.0f64..1.0, 1u32..5),
            seed: u64,
        ) {
            prop_assert!(xs.len() < 10);
            prop_assert!((1..4).contains(&k));
            prop_assert!(pair.0 >= 0.0 && pair.0 < 1.0, "pair.0 = {}", pair.0);
            prop_assert_ne!(pair.1, 0);
            let _ = seed;
            prop_assert_eq!(k + 1, 1 + k);
        }
    }
}
