//! The workspace's property-test engine: the slice of the published
//! `proptest` API the suites use (`proptest!`, ranges, tuples, `any`,
//! `Just`, weighted `prop_oneof!`, `prop_map`, `collection::vec`,
//! `prop_assert!`/`prop_assert_eq!`), so the root workspace resolves to
//! path packages only and the property suites run in Tier-1.
//!
//! Cases are random, drawn from [`raft_rng::Rng`] seeded by a hash of the
//! test's path: the same test runs the same cases on every machine and
//! every run. A failing case is printed with `Debug`. There is **no
//! shrinking**: the printed case is the one that failed, not a minimal one.
#![warn(missing_docs)]

use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use raft_rng::Rng;

/// What the suites import: `use proptest::prelude::*`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{Just, ProptestConfig, Strategy, TestCaseError};
}

/// How many cases a `proptest!` block runs per test.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Random cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// `cases` random cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig::with_cases(256)
    }
}

/// A failed `prop_assert!`, carrying its message.
#[derive(Debug)]
pub struct TestCaseError(pub String);

/// A recipe for random values of one type.
pub trait Strategy {
    /// The type of value drawn.
    type Value: Debug;
    /// Draw one value.
    fn sample(&self, rng: &mut Rng) -> Self::Value;

    /// Transform every drawn value with `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map(self, f)
    }
}

impl<T: raft_rng::Uniform + Debug> Strategy for Range<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        rng.range(self.start..self.end)
    }
}

impl<T: raft_rng::Uniform + Debug> Strategy for RangeInclusive<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        rng.range(*self.start()..=*self.end())
    }
}

/// [`Strategy::prop_map`]'s result.
pub struct Map<S, F>(S, F);

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn sample(&self, rng: &mut Rng) -> O {
        (self.1)(self.0.sample(rng))
    }
}

/// Always the same value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _: &mut Rng) -> T {
        self.0.clone()
    }
}

/// Any value of `T`, uniformly: `any::<u64>()`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// [`any`]'s result.
pub struct Any<T>(std::marker::PhantomData<T>);

/// A type [`any`] can draw.
pub trait Arbitrary: Debug {
    /// One uniformly drawn value.
    fn arbitrary(rng: &mut Rng) -> Self;
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! arbitrary_ints {
    ($($t:ty)*) => {$(impl Arbitrary for $t {
        fn arbitrary(rng: &mut Rng) -> $t {
            (rng.next_u64() >> (64 - <$t>::BITS)) as $t
        }
    })*};
}
arbitrary_ints!(u8 u16 u32 u64 usize i8 i16 i32 i64 isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut Rng) -> bool {
        rng.bool(0.5)
    }
}

macro_rules! tuple_strategies {
    ($(($($s:ident $i:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn sample(&self, rng: &mut Rng) -> Self::Value {
                ($(self.$i.sample(rng),)+)
            }
        }
    )*};
}
// Up to six: the widest `proptest!` signature in the suites.
tuple_strategies! {
    (A 0) (A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3) (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// The only string pattern the suites use: `"\\PC*"`, any run of
/// non-control characters. Other patterns panic rather than be misread.
impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, rng: &mut Rng) -> String {
        assert_eq!(*self, "\\PC*", "the in-tree proptest knows one pattern");
        // ASCII, Latin-1, BMP and astral ranges free of control characters.
        const RANGES: [RangeInclusive<u32>; 4] =
            [0x20..=0x7E, 0xA1..=0xFF, 0x4E00..=0x9FFF, 0x1F600..=0x1F64F];
        (0..rng.range(0..32usize))
            .map(|_| {
                let range = RANGES[rng.range(0..RANGES.len())].clone();
                char::from_u32(rng.range(range)).expect("ranges hold scalar values only")
            })
            .collect()
    }
}

/// A weighted choice between strategies of one value type; built by
/// [`prop_oneof!`].
pub struct OneOf<T>(pub Vec<(u32, Box<dyn Strategy<Value = T>>)>);

impl<T> OneOf<T> {
    /// One weighted arm. A function, not a cast, so that the arms' value
    /// types unify (`Just(0usize)` next to `Just(1)`).
    pub fn arm<S>(weight: u32, strategy: S) -> (u32, Box<dyn Strategy<Value = T>>)
    where
        S: Strategy<Value = T> + 'static,
    {
        (weight, Box::new(strategy))
    }
}

impl<T: Debug> Strategy for OneOf<T> {
    type Value = T;
    fn sample(&self, rng: &mut Rng) -> T {
        let total: u32 = self.0.iter().map(|(w, _)| w).sum();
        let mut pick = rng.range(0..total);
        for (weight, arm) in &self.0 {
            if pick < *weight {
                return arm.sample(rng);
            }
            pick -= weight;
        }
        unreachable!("pick < total weight")
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// Vectors of `element` whose length is drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy(element, size)
    }

    /// [`vec`]'s result.
    pub struct VecStrategy<S>(S, Range<usize>);

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut Rng) -> Self::Value {
            let len = rng.range(self.1.clone());
            (0..len).map(|_| self.0.sample(rng)).collect()
        }
    }
}

/// Run `test` on `config.cases` values of `strategy`, seeded by `name`.
/// Panics on the first failing case — an `Err` or a panic inside `test` —
/// after printing that case with `Debug`. `proptest!` expands to this.
pub fn run<S: Strategy>(
    config: &ProptestConfig,
    name: &str,
    strategy: &S,
    test: impl Fn(S::Value) -> Result<(), TestCaseError>,
) {
    let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut rng = Rng::new(seed);
    for case in 0..config.cases {
        let value = strategy.sample(&mut rng);
        let shown = format!("{value:?}");
        match catch_unwind(AssertUnwindSafe(|| test(value))) {
            Ok(Ok(())) => {}
            Ok(Err(TestCaseError(why))) => {
                panic!("property {name} failed at case {case}: {why}\n  input: {shown}")
            }
            Err(panic) => {
                eprintln!("property {name} panicked at case {case}\n  input: {shown}");
                resume_unwind(panic);
            }
        }
    }
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `left == right`; an optional trailing
/// format message is appended to the report.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        $crate::prop_assert_eq!($left, $right, "")
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        // `match`, as in `assert_eq!`: operands' temporaries live through it.
        match (&$left, &$right) {
            (left, right) => $crate::prop_assert!(
                *left == *right,
                "assertion failed: `{} == {}`: {}\n  left: {left:?}\n right: {right:?}",
                stringify!($left),
                stringify!($right),
                format_args!($($fmt)+),
            ),
        }
    };
}

/// `prop_oneof![a, b]` or weighted `prop_oneof![3 => a, 1 => b]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $arm:expr),+ $(,)?) => {
        $crate::OneOf(vec![$($crate::OneOf::arm($weight, $arm)),+])
    };
    ($($arm:expr),+ $(,)?) => {
        $crate::prop_oneof![$(1 => $arm),+]
    };
}

/// Declare property tests: `#[test] fn name(x in strategy, ...) { body }`,
/// optionally preceded by `#![proptest_config(expr)]`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@with ($config) $($rest)*);
    };
    (@with ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strategy:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            $crate::run(
                &$config,
                concat!(module_path!(), "::", stringify!($name)),
                &($($strategy,)+),
                |($($arg,)+)| {
                    $body
                    Ok(())
                },
            );
        }
    )*};
    ($($rest:tt)*) => {
        $crate::proptest!(@with ($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::cell::RefCell;

    fn drawn(name: &str) -> Vec<(u8, Vec<u16>)> {
        let seen = RefCell::new(Vec::new());
        let strategy = (any::<u8>(), prop::collection::vec(0u16..500, 0..6));
        crate::run(&ProptestConfig::with_cases(20), name, &strategy, |case| {
            seen.borrow_mut().push(case);
            Ok(())
        });
        seen.into_inner()
    }

    #[test]
    fn same_test_name_same_cases_other_name_other_cases() {
        assert_eq!(drawn("suite::a"), drawn("suite::a"));
        assert_ne!(drawn("suite::a"), drawn("suite::b"));
        assert_eq!(drawn("suite::a").len(), 20);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        #[should_panic(expected = "input: (7")]
        fn false_property_fails_and_prints_its_case(x in 7u32..8, _y in any::<bool>()) {
            prop_assert!(x != 7, "x was {x}");
        }

        #[test]
        #[should_panic(expected = "left: 3")]
        fn failed_equality_shows_both_sides(x in Just(3u8)) {
            prop_assert_eq!(x, 4);
        }

        #[test]
        fn strategies_respect_their_bounds(
            n in 1usize..=4,
            pair in (0u8..3, -2i64..=2),
            v in prop::collection::vec(prop_oneof![9 => Just(1u8), 1 => 5u8..7], 2..5),
            s in "\\PC*",
            mapped in (0u32..10).prop_map(|x| x * 2),
        ) {
            prop_assert!((1..=4).contains(&n));
            prop_assert!(pair.0 < 3 && (-2..=2).contains(&pair.1));
            prop_assert!((2..5).contains(&v.len()));
            prop_assert!(v.iter().all(|&b| b == 1 || b == 5 || b == 6), "{v:?}");
            prop_assert!(s.chars().all(|c| !c.is_control()) && s.chars().count() < 32);
            prop_assert!(mapped % 2 == 0 && mapped < 20);
        }
    }

    proptest! {
        /// No config line: the default case count.
        #[test]
        fn unweighted_oneof_reaches_every_arm(picks in prop::collection::vec(prop_oneof![Just(0usize), Just(1), Just(2)], 64..65)) {
            for arm in 0..3 {
                prop_assert!(picks.contains(&arm), "arm {arm} never drawn in {picks:?}");
            }
        }
    }
}
