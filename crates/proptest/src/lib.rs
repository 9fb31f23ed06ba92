//! Offline, dependency-free stand-in for the [`proptest`] crate.
//!
//! The build environment has no network access and no vendored registry,
//! so the workspace ships this minimal re-implementation of the subset of
//! proptest that the test suite uses: the [`proptest!`] macro with
//! `#![proptest_config(..)]`, `pat in strategy` bindings, `any::<T>()`,
//! integer ranges, `Just`, tuples, `prop::sample::select`,
//! `prop::collection::vec`, `prop::option::of`, `prop_map`/`prop_flat_map`
//! combinators and the `prop_assert*` macros.
//!
//! Unlike real proptest there is no shrinking and no persistence: each test
//! runs `cases` deterministic inputs derived from the test's module path, so
//! failures reproduce exactly across runs and machines.
//!
//! [`proptest`]: https://docs.rs/proptest

#![forbid(unsafe_code)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Range, RangeInclusive};

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

/// SplitMix64 generator seeded from the test name and case index.
#[derive(Clone, Debug)]
pub struct TestRng(u64);

impl TestRng {
    /// Builds the generator for one test case. The seed hashes the fully
    /// qualified test name (FNV-1a) and mixes in the case index, so every
    /// `(test, case)` pair sees the same inputs on every run.
    pub fn for_case(test_name: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng(h ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u128) -> u128 {
        debug_assert!(n > 0);
        (self.next_u64() as u128) % n
    }
}

// ---------------------------------------------------------------------------
// Failure plumbing
// ---------------------------------------------------------------------------

/// Error carried out of a failing property body by the `prop_assert*` macros.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

pub type TestCaseResult = Result<(), TestCaseError>;

/// Runner configuration; only the case count is honoured.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 48 }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// A generator of values of type `Self::Value`.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S2: Strategy,
        F: Fn(Self::Value) -> S2,
    {
        FlatMap { inner: self, f }
    }
}

/// Always yields a clone of the wrapped value.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Result of [`Strategy::prop_map`].
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

/// Result of [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Types with a canonical "uniform over the whole domain" strategy.
pub trait Arbitrary {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<T>);

/// Uniform strategy over all values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! int_impls {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }

        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128) as u128 + 1;
                (*self.start() as i128 + rng.below(span) as i128) as $t
            }
        }
    )+};
}

int_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! tuple_impls {
    ($(($($s:ident . $idx:tt),+))+) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )+};
}

tuple_impls! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
    (A.0, B.1, C.2, D.3, E.4, F.5)
}

pub mod sample {
    //! `prop::sample` — choosing among explicit options.

    use super::{Strategy, TestRng};

    /// Strategy returned by [`select`].
    pub struct Select<T: Clone>(Vec<T>);

    /// Uniformly selects one of the given options.
    pub fn select<T: Clone>(options: &[T]) -> Select<T> {
        assert!(!options.is_empty(), "select requires at least one option");
        Select(options.to_vec())
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0[rng.below(self.0.len() as u128) as usize].clone()
        }
    }
}

pub mod collection {
    //! `prop::collection` — container strategies.

    use super::{Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Inclusive bounds on a generated collection's length.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// A `Vec` whose length is drawn from `size` and whose elements come
    /// from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u128 + 1;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod option {
    //! `prop::option` — optional values.

    use super::{Strategy, TestRng};

    /// Strategy returned by [`of`].
    pub struct OptionStrategy<S>(S);

    /// `Some` three times out of four, `None` otherwise.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy(inner)
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.next_u64().is_multiple_of(4) {
                None
            } else {
                Some(self.0.generate(rng))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Declares property tests: each `pat in strategy` parameter is regenerated
/// for every case and the body runs with `prop_assert*` support.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!(($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($config:expr)) => {};
    (($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            for case in 0..(config.cases as u64) {
                let mut rng = $crate::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $pat = $crate::Strategy::generate(&($strat), &mut rng);)+
                let outcome: $crate::TestCaseResult = (|| {
                    $body
                    ::std::result::Result::Ok(())
                })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!(
                        "property `{}` failed at deterministic case {}: {}",
                        stringify!($name),
                        case,
                        e
                    );
                }
            }
        }
        $crate::__proptest_fns!(($config) $($rest)*);
    };
}

/// Fails the current property case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format_args!($($fmt)+)
            )));
        }
    };
}

/// Fails the current property case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left == right`\n  left: {:?}\n right: {:?}",
                l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left == right`\n  left: {:?}\n right: {:?}\n {}",
                l,
                r,
                format_args!($($fmt)+)
            )));
        }
    }};
}

/// Fails the current property case if the two values compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left != right`\n  both: {:?}",
                l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `left != right`\n  both: {:?}\n {}",
                l,
                format_args!($($fmt)+)
            )));
        }
    }};
}

/// Everything a property test file needs in scope.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError, TestCaseResult, TestRng,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_case("x", 3);
        let mut b = TestRng::for_case("x", 3);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TestRng::for_case("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::for_case("bounds", 0);
        for _ in 0..200 {
            let v = (10u64..20).generate(&mut rng);
            assert!((10..20).contains(&v));
            let w = (5i32..=7).generate(&mut rng);
            assert!((5..=7).contains(&w));
        }
    }

    #[test]
    fn vec_and_select_and_option() {
        let mut rng = TestRng::for_case("combo", 1);
        let s = prop::collection::vec(prop::sample::select(&[1u32, 2, 3]), 2..5);
        for _ in 0..50 {
            let v = s.generate(&mut rng);
            assert!(v.len() >= 2 && v.len() < 5);
            assert!(v.iter().all(|x| [1, 2, 3].contains(x)));
        }
        let o = prop::option::of(0u64..4);
        let mut nones = 0;
        for _ in 0..200 {
            if o.generate(&mut rng).is_none() {
                nones += 1;
            }
        }
        assert!(nones > 0 && nones < 200);
    }

    #[test]
    fn map_flat_map_compose() {
        let mut rng = TestRng::for_case("compose", 2);
        let s = prop::sample::select(&[2u64, 8])
            .prop_flat_map(|q| (Just(q), 0..q))
            .prop_map(|(q, x)| (q, x * 2));
        for _ in 0..64 {
            let (q, x2) = s.generate(&mut rng);
            assert!(x2 < 2 * q);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_binds_patterns((a, b) in (0u64..100, 0u64..100), c in any::<u32>()) {
            prop_assert!(a < 100 && b < 100, "a {} b {}", a, b);
            prop_assert_eq!(c as u64 & 0xFFFF_FFFF, c as u64);
            prop_assert_ne!(a + 1, a);
        }
    }
}
