//! A self-contained, offline drop-in for the subset of the `proptest` API
//! this workspace uses.
//!
//! The real `proptest` crate lives on crates.io; this environment builds
//! hermetically with no registry access, so the workspace ships the small
//! slice of the API its property tests actually exercise:
//!
//! * the [`proptest!`] macro (`arg in strategy` parameters),
//! * [`Strategy`] with `prop_map`, numeric range strategies, tuple
//!   strategies, [`collection::vec`], [`any`], and regex-subset string
//!   strategies (`"[a-z ]{0,40}"`-style character classes),
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!` /
//!   `prop_assume!`.
//!
//! Generation is fully deterministic: each test case's RNG is seeded from
//! the test's module path and the case index, so failures reproduce
//! without shrinking machinery. Case count defaults to 64 and can be
//! raised with `PROPTEST_CASES`.

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Why a test case did not pass.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The property was violated.
    Fail(String),
    /// `prop_assume!` rejected the inputs; the case is retried, not failed.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection with the given reason.
    pub fn reject(reason: impl Into<String>) -> Self {
        TestCaseError::Reject(reason.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// The deterministic per-case random source strategies draw from.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    fn splitmix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Seeded from a test name and case index — stable across runs.
    pub fn for_case(name: &str, case: u64) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng {
            state: Self::splitmix(h ^ Self::splitmix(case)),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A value generator. The trimmed-down analogue of proptest's `Strategy`.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Produce one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// The strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.f64_unit() * (self.end - self.start)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as u64).saturating_sub(self.start as u64);
                assert!(span > 0, "empty range strategy");
                self.start + rng.below(span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as u64, *self.end() as u64);
                assert!(hi >= lo, "empty range strategy");
                if lo == 0 && hi == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo + rng.below(hi - lo + 1)) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

/// Regex-subset string strategies: literals, `.`, character classes
/// (`[a-z0-9/]`), and `{m,n}` / `{m}` repetition counts — the dialect the
/// workspace's property tests use.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        generate_from_pattern(self, rng)
    }
}

/// Characters `.` can produce: printable ASCII plus a few multi-byte
/// code points so parsers see non-ASCII input.
const DOT_EXTRAS: [char; 6] = ['é', 'ß', '中', '\u{7f}', '\t', '🚀'];

fn generate_from_pattern(pattern: &str, rng: &mut TestRng) -> String {
    let chars: Vec<char> = pattern.chars().collect();
    let mut out = String::new();
    let mut i = 0;
    while i < chars.len() {
        // One atom: a class, a dot, or a literal.
        let class: Vec<char> = match chars[i] {
            '[' => {
                let mut cls = Vec::new();
                i += 1;
                while i < chars.len() && chars[i] != ']' {
                    if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                        let (lo, hi) = (chars[i] as u32, chars[i + 2] as u32);
                        for c in lo..=hi {
                            cls.push(char::from_u32(c).expect("valid class range"));
                        }
                        i += 3;
                    } else {
                        cls.push(chars[i]);
                        i += 1;
                    }
                }
                i += 1; // closing ]
                cls
            }
            '.' => {
                let mut cls: Vec<char> = (0x20u8..0x7f).map(|b| b as char).collect();
                cls.extend(DOT_EXTRAS);
                i += 1;
                cls
            }
            '\\' if i + 1 < chars.len() => {
                i += 2;
                vec![chars[i - 1]]
            }
            c => {
                i += 1;
                vec![c]
            }
        };
        // Optional {m,n} or {m} repetition.
        let (min, max) = if i < chars.len() && chars[i] == '{' {
            let close = chars[i..]
                .iter()
                .position(|&c| c == '}')
                .expect("unterminated repetition")
                + i;
            let spec: String = chars[i + 1..close].iter().collect();
            i = close + 1;
            match spec.split_once(',') {
                Some((m, n)) => (
                    m.parse::<usize>().expect("repetition min"),
                    n.parse::<usize>().expect("repetition max"),
                ),
                None => {
                    let m = spec.parse::<usize>().expect("repetition count");
                    (m, m)
                }
            }
        } else {
            (1, 1)
        };
        assert!(!class.is_empty(), "empty character class in `{pattern}`");
        let count = min + rng.below((max - min + 1) as u64) as usize;
        for _ in 0..count {
            out.push(class[rng.below(class.len() as u64) as usize]);
        }
    }
    out
}

macro_rules! tuple_strategy {
    ($(($($name:ident),+)),+ $(,)?) => {$(
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    )+};
}

tuple_strategy!(
    (A, B),
    (A, B, C),
    (A, B, C, D),
    (A, B, C, D, E),
    (A, B, C, D, E, F),
);

/// Types with a canonical full-range strategy (the [`any`] function).
pub trait Arbitrary {
    /// Generate an unconstrained value.
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
        rng.next_u64() >> 63 == 1
    }
}

/// The full-range strategy for `T` — `any::<u64>()` and friends.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// The strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// A strategy for `Vec`s of `element` with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The harness the [`proptest!`] macro expands into.
pub mod test_runner {
    use super::{TestCaseError, TestRng};

    /// Cases per property; `PROPTEST_CASES` overrides the default of 64.
    pub fn case_count() -> u64 {
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64)
    }

    /// Run `f` over `case_count()` generated cases, retrying rejections.
    pub fn run<F>(name: &str, mut f: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let cases = case_count();
        let mut executed = 0u64;
        let mut rejected = 0u64;
        let mut case = 0u64;
        while executed < cases {
            let mut rng = TestRng::for_case(name, case);
            match f(&mut rng) {
                Ok(()) => executed += 1,
                Err(TestCaseError::Reject(reason)) => {
                    rejected += 1;
                    assert!(
                        rejected <= cases * 20,
                        "property `{name}` rejected too many cases ({rejected}): {reason}"
                    );
                }
                Err(TestCaseError::Fail(msg)) => {
                    panic!("property `{name}` failed at case {case}:\n{msg}")
                }
            }
            case += 1;
        }
    }
}

/// Define deterministic property tests; mirrors proptest's macro shape.
#[macro_export]
macro_rules! proptest {
    ($($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::test_runner::run(
                    concat!(module_path!(), "::", stringify!($name)),
                    |__proptest_rng| {
                        $(let $arg = $crate::Strategy::generate(&($strat), __proptest_rng);)+
                        let mut __proptest_body =
                            move || -> ::std::result::Result<(), $crate::TestCaseError> {
                                $body
                                #[allow(unreachable_code)]
                                ::std::result::Result::Ok(())
                            };
                        __proptest_body()
                    },
                );
            }
        )+
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left == right,
            "assertion failed: `left == right`\n  left: `{:?}`\n right: `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(left == right, $($fmt)+);
    }};
}

/// Fail the current case if the two expressions are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            left != right,
            "assertion failed: `left != right`\n  both: `{:?}`",
            left
        );
    }};
}

/// Reject the current case (it is retried with fresh inputs) unless
/// `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

/// The glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, Arbitrary, Strategy, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate as prop;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::for_case("ranges", 0);
        for _ in 0..1000 {
            let f = (1.5f64..9.5).generate(&mut rng);
            assert!((1.5..9.5).contains(&f));
            let u = (3u64..10).generate(&mut rng);
            assert!((3..10).contains(&u));
            let b = (1u8..=254).generate(&mut rng);
            assert!((1..=254).contains(&b));
        }
    }

    #[test]
    fn string_patterns_match_their_dialect() {
        let mut rng = TestRng::for_case("strings", 1);
        for _ in 0..200 {
            let s = "[a-z ]{0,40}".generate(&mut rng);
            assert!(s.chars().count() <= 40);
            assert!(s.chars().all(|c| c == ' ' || c.is_ascii_lowercase()));
            let url = "/[a-z0-9/]{0,30}".generate(&mut rng);
            assert!(url.starts_with('/'));
            let free = ".{0,300}".generate(&mut rng);
            assert!(free.chars().count() <= 300);
        }
    }

    #[test]
    fn generation_is_deterministic_per_case() {
        let strat = collection::vec((0u64..100, 0.0f64..1.0), 1..20);
        let a = strat.generate(&mut TestRng::for_case("det", 7));
        let b = strat.generate(&mut TestRng::for_case("det", 7));
        let c = strat.generate(&mut TestRng::for_case("det", 8));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn prop_map_transforms() {
        let strat = (1u64..5).prop_map(|x| x * 10);
        let v = strat.generate(&mut TestRng::for_case("map", 0));
        assert!((10..50).contains(&v) && v % 10 == 0);
    }

    proptest! {
        #[test]
        fn the_macro_itself_works(x in 0u64..100, v in prop::collection::vec(0.0f64..1.0, 1..10)) {
            prop_assert!(x < 100);
            prop_assert_eq!(v.len(), v.len());
            prop_assume!(x != 1000); // never rejects
        }
    }
}
