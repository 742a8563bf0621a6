//! Offline stand-in for `proptest`.
//!
//! Covers the surface this workspace's property tests use: the
//! [`proptest!`] macro, range / tuple / vec / bool / simple-regex string
//! strategies, [`Strategy::prop_map`], `any::<T>()`, and the panic-based
//! [`prop_assert!`] / [`prop_assert_eq!`] macros.
//!
//! Differences from upstream, by design:
//! - **No shrinking.** A failing case reports the generated input
//!   verbatim (every strategy value is `Debug`) instead of a minimal
//!   counterexample.
//! - **Deterministic seeding.** Each test derives its RNG seed from its
//!   own `module_path::name`, so runs are reproducible without a
//!   `proptest-regressions` persistence file. Regression seeds recorded
//!   by upstream proptest are instead pinned as explicit `#[test]`
//!   reproductions next to the property tests.
//! - `prop_assert!` panics rather than returning `Err`, which is
//!   equivalent under this runner.

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// Deterministic SplitMix64 generator driving all strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed from a test's fully qualified name (FNV-1a over the bytes).
    pub fn from_name(name: &str) -> TestRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        TestRng { state: h }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    pub fn u128_in(&mut self, lo: i128, hi: i128) -> i128 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u128 + 1;
        lo + ((self.next_u64() as u128) % span) as i128
    }
}

/// A generator of test-case values (subset of `proptest::strategy::Strategy`).
///
/// Every strategy value must be `Debug` so the runner can report the
/// failing input when a case panics.
pub trait Strategy {
    type Value: Debug;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { source: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    source: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.source.generate(rng))
    }
}

// ---------------------------------------------------------------------------
// Numeric range strategies
// ---------------------------------------------------------------------------

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                rng.u128_in(self.start as i128, self.end as i128 - 1) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                rng.u128_in(*self.start() as i128, *self.end() as i128) as $t
            }
        }
    )*};
}
int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

impl Strategy for RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty range strategy");
        lo + rng.next_f64() * (hi - lo)
    }
}

// ---------------------------------------------------------------------------
// Tuple strategies
// ---------------------------------------------------------------------------

macro_rules! tuple_strategy {
    ($($s:ident => $idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
tuple_strategy!(A => 0);
tuple_strategy!(A => 0, B => 1);
tuple_strategy!(A => 0, B => 1, C => 2);
tuple_strategy!(A => 0, B => 1, C => 2, D => 3);
tuple_strategy!(A => 0, B => 1, C => 2, D => 3, E => 4);
tuple_strategy!(A => 0, B => 1, C => 2, D => 3, E => 4, F => 5);

// ---------------------------------------------------------------------------
// bool and any::<T>()
// ---------------------------------------------------------------------------

/// Uniform `bool` strategy (also the type behind `any::<bool>()`).
#[derive(Debug, Clone, Copy)]
pub struct BoolStrategy;

impl Strategy for BoolStrategy {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// `proptest::bool` (subset): the [`ANY`](self::bool::ANY) constant.
pub mod bool {
    /// Fair-coin `bool` strategy.
    pub const ANY: super::BoolStrategy = super::BoolStrategy;
    pub use super::BoolStrategy;
}

/// Types with a canonical strategy (subset of `proptest::arbitrary`).
pub trait Arbitrary: Sized + Debug {
    type Strategy: Strategy<Value = Self>;
    fn arbitrary() -> Self::Strategy;
}

impl Arbitrary for bool {
    type Strategy = BoolStrategy;
    fn arbitrary() -> BoolStrategy {
        BoolStrategy
    }
}

macro_rules! arbitrary_full_range {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = RangeInclusive<$t>;
            fn arbitrary() -> RangeInclusive<$t> {
                <$t>::MIN..=<$t>::MAX
            }
        }
    )*};
}
arbitrary_full_range!(u8, u16, u32, u64, i8, i16, i32, i64);

/// The canonical strategy for `A` (subset of `proptest::arbitrary::any`).
pub fn any<A: Arbitrary>() -> A::Strategy {
    A::arbitrary()
}

// ---------------------------------------------------------------------------
// Collection strategies
// ---------------------------------------------------------------------------

/// `proptest::collection` (subset): [`vec`](collection::vec).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::fmt::Debug;
    use std::ops::{Range, RangeInclusive};

    /// Length specification for [`vec()`]: a fixed count or a range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi_inclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange {
                lo: n,
                hi_inclusive: n,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi_inclusive: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> SizeRange {
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange {
                lo: *r.start(),
                hi_inclusive: *r.end(),
            }
        }
    }

    /// Strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.u128_in(self.size.lo as i128, self.size.hi_inclusive as i128) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Generate a `Vec` whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// String strategies from simple regexes
// ---------------------------------------------------------------------------

/// `&str` regex patterns act as `String` strategies, as in upstream
/// proptest. Supported subset: concatenations of literal characters and
/// character classes `[a-z0-9_]`, each optionally repeated `{m}` or
/// `{m,n}`. Anything else panics with a clear message.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let mut out = String::new();
    let chars: Vec<char> = pattern.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        // Parse one atom: a char class or a literal character.
        let alphabet: Vec<char> = if chars[i] == '[' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == ']')
                .unwrap_or_else(|| panic!("unclosed [ in pattern {pattern:?}"))
                + i;
            let mut set = Vec::new();
            let mut j = i + 1;
            while j < close {
                if j + 2 < close && chars[j + 1] == '-' {
                    let (lo, hi) = (chars[j], chars[j + 2]);
                    assert!(lo <= hi, "bad class range in pattern {pattern:?}");
                    for c in lo..=hi {
                        set.push(c);
                    }
                    j += 3;
                } else {
                    set.push(chars[j]);
                    j += 1;
                }
            }
            assert!(!set.is_empty(), "empty class in pattern {pattern:?}");
            i = close + 1;
            set
        } else {
            assert!(
                !"(){}|*+?.\\^$".contains(chars[i]),
                "unsupported regex syntax {:?} in pattern {pattern:?} (shim supports classes and {{m,n}} repeats only)",
                chars[i]
            );
            let c = chars[i];
            i += 1;
            vec![c]
        };

        // Parse an optional {m} / {m,n} repetition.
        let (lo, hi) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .unwrap_or_else(|| panic!("unclosed {{ in pattern {pattern:?}"))
                + i;
            let body: String = chars[i + 1..close].iter().collect();
            let parsed = if let Some((m, n)) = body.split_once(',') {
                (m.trim().parse::<usize>(), n.trim().parse::<usize>())
            } else {
                let m = body.trim().parse::<usize>();
                (m.clone(), m)
            };
            i = close + 1;
            match parsed {
                (Ok(m), Ok(n)) if m <= n => (m, n),
                _ => panic!("bad repetition in pattern {pattern:?}"),
            }
        } else {
            (1, 1)
        };

        let count = rng.u128_in(lo as i128, hi as i128) as usize;
        for _ in 0..count {
            let idx = rng.u128_in(0, alphabet.len() as i128 - 1) as usize;
            out.push(alphabet[idx]);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Runner and config
// ---------------------------------------------------------------------------

/// `proptest::test_runner` (subset): [`ProptestConfig`](test_runner::ProptestConfig)
/// and the case loop.
pub mod test_runner {
    use super::{Strategy, TestRng};
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    /// Runner configuration (subset of `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Run `cases` generated inputs per test.
        pub fn with_cases(cases: u32) -> ProptestConfig {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> ProptestConfig {
            ProptestConfig { cases: 64 }
        }
    }

    /// Drive `body` over `config.cases` inputs drawn from `strategy`,
    /// reporting the generated input if a case panics.
    pub fn run<S: Strategy, F: FnMut(S::Value)>(
        config: &ProptestConfig,
        test_name: &str,
        strategy: S,
        mut body: F,
    ) {
        let mut rng = TestRng::from_name(test_name);
        for case in 0..config.cases {
            let value = strategy.generate(&mut rng);
            let shown = format!("{value:?}");
            let result = catch_unwind(AssertUnwindSafe(|| body(value)));
            if let Err(payload) = result {
                eprintln!(
                    "proptest case failed: {test_name}, case {case}/{}: input = {shown}",
                    config.cases
                );
                resume_unwind(payload);
            }
        }
    }
}

/// Everything the tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, Arbitrary, Strategy};
}

/// Assert a condition inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Assert equality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over generated inputs.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (config = $config:expr;) => {};
    (config = $config:expr;
     $(#[$meta:meta])*
     fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run(
                &$config,
                concat!(module_path!(), "::", stringify!($name)),
                ($($strat,)+),
                |($($arg,)+)| $body,
            );
        }
        $crate::__proptest_items! { config = $config; $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::TestRng;

    #[test]
    fn regex_subset_generates_within_spec() {
        let mut rng = TestRng::from_name("regex");
        for _ in 0..200 {
            let s = crate::generate_from_pattern("[a-z]{3,8}", &mut rng);
            assert!((3..=8).contains(&s.len()), "{s:?}");
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        }
    }

    #[test]
    fn vec_strategy_respects_size_range() {
        let mut rng = TestRng::from_name("vec");
        let strat = crate::collection::vec(0.0..1.0f64, 4..96);
        for _ in 0..100 {
            let v = strat.generate(&mut rng);
            assert!((4..96).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_wires_args_and_strategies(
            x in 0u32..10,
            flip in crate::bool::ANY,
            pair in (0.0..=1.0f64, -5..=5i32),
        ) {
            prop_assert!(x < 10);
            prop_assert!((0.0..=1.0).contains(&pair.0));
            prop_assert!((-5..=5).contains(&pair.1));
            prop_assert_eq!(flip as u8 <= 1, true);
        }

        #[test]
        fn prop_map_applies(len in crate::collection::vec(1u64..3, 5).prop_map(|v| v.len())) {
            prop_assert_eq!(len, 5);
        }
    }
}
