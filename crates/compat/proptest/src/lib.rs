//! Offline stand-in for `proptest`.
//!
//! Implements the subset of proptest this workspace uses as a *sampling*
//! property-test harness: strategies generate random values from a
//! deterministic per-test RNG and the body runs for a configured number of
//! cases. There is no shrinking — a failing case reports its inputs via
//! the `prop_assert*` message and the deterministic seed (derived from the
//! test's module path and name) makes reruns reproduce it exactly.
//!
//! Supported surface: `proptest! { ... }` with `#![proptest_config]`,
//! `Strategy` (ranges, tuples, `Vec<S>`, simple `[c1-c2]{m,n}` string
//! regexes), `prop_map`, `prop_flat_map`, `any::<T>()`,
//! `prop::collection::vec`, `prop_assert!`, `prop_assert_eq!`,
//! `prop_assume!`.

#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// Deterministic test RNG (xoshiro256++ seeded by splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Seed deterministically.
    pub fn seed(seed: u64) -> TestRng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        TestRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a hash used to derive per-test seeds from test names.
pub const fn fnv(s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        i += 1;
    }
    hash
}

/// Run configuration for a `proptest!` block.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of sampled cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config with an explicit case count.
    // lint: surface: this shim is a dev-dependency, so tests are the only callers of its whole surface
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: 64 }
    }
}

/// A generator of values for property tests.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Sample one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generate a value, then a dependent strategy from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Output of [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn sample(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.inner.sample(rng)).sample(rng)
    }
}

/// Constant strategy (proptest's `Just`).
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn sample(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + rng.unit_f64() * (hi - lo)
    }
}

/// `&str` strategies: a small regex subset `[c1-c2]{m,n}` / `[c1-c2]{n}` /
/// `[c1-c2]*` / `[c1-c2]+`, matching how the workspace generates names.
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let (lo, hi, min, max) = parse_char_class_regex(self).unwrap_or_else(|| {
            panic!(
                "proptest shim: unsupported string regex {self:?} (expected `[a-z]{{m,n}}` form)"
            )
        });
        let span = (hi as u32 - lo as u32 + 1) as u64;
        let len = min + rng.below((max - min + 1) as u64) as usize;
        (0..len)
            .map(|_| char::from_u32(lo as u32 + rng.below(span) as u32).unwrap())
            .collect()
    }
}

fn parse_char_class_regex(re: &str) -> Option<(char, char, usize, usize)> {
    let rest = re.strip_prefix('[')?;
    let (class, rest) = rest.split_once(']')?;
    let mut chars = class.chars();
    let (lo, hi) = match (chars.next(), chars.next(), chars.next(), chars.next()) {
        (Some(lo), Some('-'), Some(hi), None) => (lo, hi),
        (Some(c), None, None, None) => (c, c),
        _ => return None,
    };
    if rest == "*" {
        return Some((lo, hi, 0, 8));
    }
    if rest == "+" {
        return Some((lo, hi, 1, 8));
    }
    let counts = rest.strip_prefix('{')?.strip_suffix('}')?;
    let (min, max) = match counts.split_once(',') {
        Some((m, n)) => (m.trim().parse().ok()?, n.trim().parse().ok()?),
        None => {
            let n = counts.trim().parse().ok()?;
            (n, n)
        }
    };
    Some((lo, hi, min, max))
}

macro_rules! impl_tuple_strategy {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.sample(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A:0)
    (A:0, B:1)
    (A:0, B:1, C:2)
    (A:0, B:1, C:2, D:3)
    (A:0, B:1, C:2, D:3, E:4)
    (A:0, B:1, C:2, D:3, E:4, F:5)
    (A:0, B:1, C:2, D:3, E:4, F:5, G:6)
    (A:0, B:1, C:2, D:3, E:4, F:5, G:6, H:7)
}

impl<S: Strategy> Strategy for Vec<S> {
    type Value = Vec<S::Value>;
    fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
        self.iter().map(|s| s.sample(rng)).collect()
    }
}

/// Types with a default whole-domain strategy.
pub trait Arbitrary: Sized {
    /// Sample from the full domain of the type.
    fn arbitrary(rng: &mut TestRng) -> Self;
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

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite floats spanning many magnitudes.
        let mag = rng.unit_f64() * 600.0 - 300.0;
        let sign = if rng.next_u64() & 1 == 1 { -1.0 } else { 1.0 };
        sign * 10f64.powf(mag)
    }
}

/// The `any::<T>()` whole-domain strategy.
#[derive(Debug, Clone, Copy)]
pub struct Any<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Strategy over the full domain of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies (`prop::collection`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`].
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max: usize, // inclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { min: n, max: n }
        }
    }

    /// Strategy producing `Vec`s with lengths from the size range.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `prop::collection::vec(element, len_range)`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min + 1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Namespace mirror of proptest's `prop::` re-exports.
pub mod prop {
    pub use crate::collection;
}

/// Everything a test file needs.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Arbitrary,
        Just, ProptestConfig, Strategy,
    };
}

/// Assert inside a proptest body (reports the failing case).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {}", ::std::stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::std::result::Result::Err(::std::format!($($fmt)*));
        }
    };
}

/// Assert equality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                ::std::stringify!($left),
                ::std::stringify!($right),
                __l,
                __r
            ));
        }
    }};
}

/// Assert inequality inside a proptest body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err(::std::format!(
                "assertion failed: {} != {}\n  both: {:?}",
                ::std::stringify!($left),
                ::std::stringify!($right),
                __l
            ));
        }
    }};
}

/// Skip a sampled case that does not meet a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// The `proptest!` block: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` sampled iterations.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident ( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __seed = $crate::fnv(::std::concat!(
                ::std::module_path!(), "::", ::std::stringify!($name)
            ));
            let mut __rng = $crate::TestRng::seed(__seed);
            for __case in 0..__config.cases {
                $(let $pat = $crate::Strategy::sample(&($strategy), &mut __rng);)+
                let __result: ::std::result::Result<(), ::std::string::String> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                if let ::std::result::Result::Err(__msg) = __result {
                    ::std::panic!(
                        "proptest case {}/{} (seed {}) failed:\n{}",
                        __case + 1, __config.cases, __seed, __msg
                    );
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn regex_subset_parses() {
        let mut rng = crate::TestRng::seed(1);
        let s = "[a-z]{0,12}";
        for _ in 0..100 {
            let v = crate::Strategy::sample(&s, &mut rng);
            assert!(v.len() <= 12);
            assert!(v.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn determinism() {
        let strat = (0u64..100, 0.0f64..1.0);
        let mut a = crate::TestRng::seed(9);
        let mut b = crate::TestRng::seed(9);
        for _ in 0..50 {
            assert_eq!(
                crate::Strategy::sample(&strat, &mut a).0,
                crate::Strategy::sample(&strat, &mut b).0
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_generates_cases(x in 0u64..100, v in prop::collection::vec(any::<u8>(), 0..4)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 4);
            prop_assume!(x != 1000); // always true: exercise the macro
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }

        #[test]
        fn flat_map_and_map_compose(n in (1usize..5).prop_flat_map(|n| {
            prop::collection::vec(0u32..10, n..n + 1).prop_map(move |v| (n, v))
        })) {
            prop_assert_eq!(n.0, n.1.len());
        }
    }
}
