//! A minimal, std-only stand-in for the [`proptest`] crate.
//!
//! The workspace's property tests were written against the real proptest
//! API, but this repository builds with **no external dependencies** (see
//! DESIGN.md §4). This shim implements the slice of the API those tests
//! use — range/tuple/collection strategies, `prop_map`, the `proptest!`
//! macro with `#![proptest_config(...)]`, and the `prop_assert*` family —
//! over the workspace's own deterministic generator.
//!
//! Deliberate differences from the real crate:
//!
//! * **No shrinking.** A failing case reports its generated inputs verbatim;
//!   since generation is deterministic (seeded from the test name), failures
//!   reproduce exactly on re-run.
//! * **Deterministic by construction.** There is no persistence file and no
//!   environment-driven reseeding; CI and laptops see identical cases.
//!
//! [`proptest`]: https://crates.io/crates/proptest

use std::fmt;

/// The commonly imported surface, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, proptest, ProptestConfig, Strategy,
        TestCaseError, TestCaseResult,
    };
}

/// Per-`proptest!` block configuration.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; 64 keeps offline CI quick while
        // still sweeping a meaningful slice of each input space.
        ProptestConfig { cases: 64 }
    }
}

/// A failed property assertion (returned, not panicked, so the harness can
/// attach the generated inputs before aborting the test).
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// Construct a failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result type of one property-test case body.
pub type TestCaseResult = Result<(), TestCaseError>;

/// The deterministic generator driving all strategies (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from an arbitrary byte string (the test name), FNV-1a hashed.
    pub fn deterministic(name: &str) -> Self {
        let mut h: u64 = 0xcbf29ce484222325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: u128) -> u128 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128) << 64 | self.next_u64() as u128) % bound
    }
}

/// A value generator. The shim's strategies generate directly (no value
/// trees, no shrinking).
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Map generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

macro_rules! impl_uint_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = self.end as u128 - self.start as u128;
                (self.start as u128 + rng.below(span)) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = hi as u128 - lo as u128 + 1;
                (lo as u128 + rng.below(span)) as $t
            }
        }
    )*};
}
impl_uint_range!(u8, u16, u32, u64, usize);

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
impl_int_range!(i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + rng.unit_f64() * (hi - lo)
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+);)*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
}

/// Collection strategies (`proptest::collection::{vec, btree_map, btree_set}`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Range;

    /// A `Vec` of values from `element`, with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// Strategy type of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A `BTreeMap` with up to `size.end - 1` entries (duplicate keys
    /// collapse, as in the real crate).
    pub fn btree_map<K: Strategy, V: Strategy>(
        key: K,
        value: V,
        size: Range<usize>,
    ) -> BTreeMapStrategy<K, V> {
        BTreeMapStrategy { key, value, size }
    }

    /// Strategy type of [`btree_map`].
    pub struct BTreeMapStrategy<K, V> {
        key: K,
        value: V,
        size: Range<usize>,
    }

    impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
    where
        K::Value: Ord,
    {
        type Value = BTreeMap<K::Value, V::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.generate(rng);
            (0..len)
                .map(|_| (self.key.generate(rng), self.value.generate(rng)))
                .collect()
        }
    }

    /// A `BTreeSet` with up to `size.end - 1` elements (duplicates collapse).
    pub fn btree_set<S: Strategy>(element: S, size: Range<usize>) -> BTreeSetStrategy<S> {
        BTreeSetStrategy { element, size }
    }

    /// Strategy type of [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.generate(rng);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Define property tests. Mirrors the real macro's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u32..100, v in proptest::collection::vec(0u8..4, 0..8)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_cases!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_cases!($crate::ProptestConfig::default(); $($rest)*);
    };
}

/// Internal expansion of [`proptest!`] — one test function per item.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_cases {
    ($cfg:expr;) => {};
    ($cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
     $($rest:tt)*) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for case in 0..config.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                // Capture the inputs before the body consumes them, so a
                // failure can report the exact generated case.
                let inputs = format!("{:?}", ($(&$arg,)*));
                let result: $crate::TestCaseResult = (move || {
                    $body
                    Ok(())
                })();
                if let Err(e) = result {
                    panic!(
                        "property {} failed at case {case}/{}: {e}\n  inputs: {inputs}",
                        stringify!($name),
                        config.cases,
                    );
                }
            }
        }
        $crate::__proptest_cases!($cfg; $($rest)*);
    };
}

/// Assert a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

/// Assert inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_per_name() {
        let mut a = TestRng::deterministic("x");
        let mut b = TestRng::deterministic("x");
        let mut c = TestRng::deterministic("y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::deterministic("bounds");
        for _ in 0..1_000 {
            let u = (3u16..17).generate(&mut rng);
            assert!((3..17).contains(&u));
            let i = (-15i32..=240).generate(&mut rng);
            assert!((-15..=240).contains(&i));
            let f = (0.05f64..1.0).generate(&mut rng);
            assert!((0.05..1.0).contains(&f));
        }
    }

    #[test]
    fn full_range_u8_does_not_overflow() {
        let mut rng = TestRng::deterministic("u8");
        let mut seen_hi = false;
        for _ in 0..2_000 {
            let v = (0u8..=255).generate(&mut rng);
            seen_hi |= v > 200;
        }
        assert!(seen_hi, "upper region of 0..=255 never sampled");
    }

    #[test]
    fn collections_generate_within_size() {
        let mut rng = TestRng::deterministic("coll");
        for _ in 0..200 {
            let v = collection::vec((0u16..100, -1.0f64..1.0), 0..10).generate(&mut rng);
            assert!(v.len() < 10);
            let m = collection::btree_map(0u16..50, 0u8..=4, 0..8).generate(&mut rng);
            assert!(m.len() < 8);
            let s = collection::btree_set(0u16..40, 0..10).generate(&mut rng);
            assert!(s.len() < 10);
        }
    }

    #[test]
    fn prop_map_composes() {
        let mut rng = TestRng::deterministic("map");
        let s = (0u32..10).prop_map(|x| x * 2);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!(v % 2 == 0 && v < 20);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_and_asserts(x in 0u64..100, y in 0u64..100) {
            prop_assert!(x < 100);
            prop_assert_eq!(x + y, y + x);
            prop_assert_ne!(x, x + y + 1);
        }
    }

    proptest! {
        #[test]
        fn macro_works_without_config(v in collection::vec(0u8..=255, 0..6)) {
            prop_assert!(v.len() < 6);
        }
    }
}
