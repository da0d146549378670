//! Float-to-integer splits without libm.
//!
//! The workspace builds for baseline x86-64 (SSE2 only), where
//! `f64::floor` and `f64::round` are libm calls. The per-step ingest path
//! and the per-job scheduling path use these two helpers instead. Each is
//! bit-identical to the expression it replaces for every input, NaN and
//! infinities included, so swapping one in changes no output.
//!
//! [`carry_run`] is the closed form of a whole run of `floor_split` carry
//! steps: it returns the same bits as the loop, or `None` where it cannot
//! prove that, and the caller steps.

/// 2^63: below it `x as i64` truncates in one instruction.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// `x` split into its floor and the fractional rest: bit-identical to
/// `(x.floor() as u64, x - x.floor())` for every `x`.
///
/// On `(0, 2^63)` this is a truncating conversion and a subtraction.
/// Zero, negatives, NaN and values at or above 2^63 take the `floor`
/// call, which keeps the sign of a zero rest and the saturating casts
/// exactly as they were.
#[inline]
pub fn floor_split(x: f64) -> (u64, f64) {
    if x > 0.0 && x < TWO_POW_63 {
        let n = x as i64;
        (n as u64, x - n as f64)
    } else {
        let whole = x.floor();
        (whole as u64, x - whole)
    }
}

/// `x` rounded half away from zero to a `u64`: bit-identical to
/// `x.round() as u64` for every `x`. Negatives and NaN give 0, and
/// `x >= 2^64` saturates to `u64::MAX` (the add saturates because the
/// truncation already did).
#[inline]
pub fn round_half_up(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

/// Exponent of the lowest set bit of a positive finite `x`: `x` is an
/// odd multiple of `2^e`.
fn lowest_bit_exp(x: f64) -> i32 {
    let bits = x.to_bits();
    let biased = (bits >> 52) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (mantissa, exp) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | 1 << 52, biased - 1075)
    };
    exp + mantissa.trailing_zeros() as i32
}

/// `2^e` for `e` in the normal range.
fn pow2(e: i32) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// A run of carry steps in closed form. Each `(addend, count)` stands
/// for `count` steps of `(n, carry) = floor_split(addend + carry)`; the
/// result is the sum of the `n` and the last carry, bit for bit as the
/// loop gives them in any order of the steps, or `None` when some add in
/// the loop could round. Steps with a zero count take no part.
///
/// Every add is exact when the carry and the addends are multiples of
/// `2^g` (`g` the least exponent of their lowest set bits, capped at 0 so
/// whole numbers are on the grid too) and `⌊max addend⌋ + 2 ≤ 2^(g+53)`:
/// each sum is then a multiple of `2^g` below `⌊addend⌋ + 2`, which fits
/// in 53 bits. The whole parts then telescope to
/// `⌊carry + Σ count·addend⌋` and the last carry is its fraction, which
/// this sums in integer units of `2^g`. A negative, `-0.0` or non-finite
/// operand, or a carry of 1 or more, is refused too.
pub fn carry_run(carry: f64, run: &[(f64, u64)]) -> Option<(u64, f64)> {
    if !(carry.is_sign_positive() && carry < 1.0) {
        return None;
    }
    let mut g = if carry > 0.0 {
        lowest_bit_exp(carry)
    } else {
        0
    };
    let mut max_addend = 0.0f64;
    for &(x, count) in run {
        if count == 0 {
            continue;
        }
        if !(x.is_sign_positive() && x.is_finite()) {
            return None;
        }
        if x > 0.0 {
            g = g.min(lowest_bit_exp(x));
        }
        max_addend = max_addend.max(x);
    }
    // 2^(g+53) ≥ 2 needs g ≥ -52, which also keeps the units below 2^53.
    if g < -52 {
        return None;
    }
    let limit = 1u64 << (g + 53);
    if max_addend >= limit as f64 || max_addend as u64 + 2 > limit {
        return None;
    }
    let (to_units, shift) = (pow2(-g), -g as u32);
    let mut units = (carry * to_units) as u128;
    for &(x, count) in run {
        units = units.checked_add(count as u128 * (x * to_units) as u128)?;
    }
    let whole = u64::try_from(units >> shift).ok()?;
    let fraction = (units & ((1 << shift) - 1)) as u64;
    Some((whole, fraction as f64 * pow2(g)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;
    use proptest::prelude::*;

    /// The libm expressions the helpers replace.
    fn floor_ref(x: f64) -> (u64, f64) {
        let whole = x.floor();
        (whole as u64, x - whole)
    }

    fn round_ref(x: f64) -> u64 {
        x.round() as u64
    }

    fn same_split(a: (u64, f64), b: (u64, f64)) -> bool {
        a.0 == b.0 && a.1.to_bits() == b.1.to_bits()
    }

    fn edges() -> Vec<f64> {
        let two52 = 4_503_599_627_370_496.0f64;
        let two53 = 2.0 * two52;
        let two63 = TWO_POW_63;
        let two64 = 2.0 * two63;
        let mut xs = vec![
            0.0,
            -0.0,
            -0.3,
            -0.5,
            -1.0,
            -1.5,
            -2.5,
            -1e300,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            0.5,
            1.5,
            2.5,
            0.7,
            1.0,
            f64::MAX,
            f64::MIN,
            two52,
            two53,
            two63,
            two64,
        ];
        for x in [0.5, 1.5, 2.5, two52, two53, two63, two64, two52 + 0.5] {
            xs.push(f64::from_bits(x.to_bits() - 1));
            xs.push(f64::from_bits(x.to_bits() + 1));
        }
        let with_negatives: Vec<f64> = xs.iter().map(|x| -x).collect();
        xs.extend(with_negatives);
        xs
    }

    #[test]
    fn floor_split_matches_floor_on_edges() {
        for x in edges() {
            assert!(
                same_split(floor_split(x), floor_ref(x)),
                "x = {x:e} ({:#x}): {:?} vs {:?}",
                x.to_bits(),
                floor_split(x),
                floor_ref(x)
            );
        }
    }

    /// The carry loop [`carry_run`] stands for, one addend per step.
    fn carry_loop(mut carry: f64, steps: &[f64]) -> (u64, f64) {
        let mut whole = 0;
        for &a in steps {
            let (n, rest) = floor_split(a + carry);
            whole += n;
            carry = rest;
        }
        (whole, carry)
    }

    /// Two addends and a carry in one of five shapes: a broker share
    /// (`lo·w` and `(lo+1)·w`), a pair straddling a power of two, random
    /// mantissas on a random grid, one addend within 2 below a power of
    /// two (the generator's forced refusal), or addends below 1 (rates
    /// under 10 rec/s, zero included). The carry is 0, the fraction of
    /// the first addend (its grid), a full-precision fraction, or a
    /// random multiple of `2^-m` for `m` in 1..=60 (grids finer and
    /// coarser than the addends').
    fn carry_case(rng: &mut SimRng) -> (f64, f64, f64) {
        let p = (1u64 << rng.uniform_u64(0, 45)) as f64;
        let below_pow2 = |rng: &mut SimRng| {
            let bits = rng.uniform_u64(0, 53);
            rng.uniform_u64(0, (1 << bits) - 1)
        };
        let (a, b) = match rng.uniform_u64(0, 4) {
            0 => {
                let w = rng.uniform(1e-3, 1.0);
                let lo = below_pow2(rng) >> 13;
                (lo as f64 * w, (lo + 1) as f64 * w)
            }
            1 => (p - rng.uniform(0.0, p.min(2.0)), p + rng.uniform(0.0, 2.0)),
            2 => {
                let grid = -(rng.uniform_u64(0, 52) as i32);
                let a = below_pow2(rng) as f64 * pow2(grid);
                (a, below_pow2(rng) as f64 * pow2(grid))
            }
            3 => {
                let a = p - rng.uniform(0.0, p.min(2.0));
                (a, a)
            }
            _ => {
                let a = if rng.bernoulli(0.2) {
                    0.0
                } else {
                    rng.uniform(0.0, 1.0)
                };
                (a, rng.uniform(0.0, 2.0))
            }
        };
        let carry = match rng.uniform_u64(0, 3) {
            0 => 0.0,
            1 => floor_split(a).1,
            2 => rng.uniform(0.0, 1.0),
            _ => {
                let m = rng.uniform_u64(1, 60);
                (rng.next_u64() >> (64 - m)) as f64 * pow2(-(m as i32))
            }
        };
        (a, b, carry)
    }

    #[test]
    fn carry_run_engages_and_refuses_where_it_must() {
        // A 9,731.7 rec/s step: 973.17 records, carries on its grid.
        let a = 9_731.7 * 0.1;
        let steps = [a; 300];
        assert_eq!(carry_run(0.0, &[(a, 300)]), Some(carry_loop(0.0, &steps)));
        // Zero steps leave the carry as it was; zero rates keep it.
        assert_eq!(carry_run(0.25, &[(a, 0)]), Some((0, 0.25)));
        assert_eq!(carry_run(0.25, &[(0.0, 7)]), Some((0, 0.25)));
        // Just below 2^10 on the finest grid the loop rounds.
        let near = f64::from_bits(1024.0f64.to_bits() - 1);
        let rounded = (near + 0.5) - near;
        assert_ne!(rounded, 0.5, "the add at {near} rounds");
        assert_eq!(carry_run(0.0, &[(near, 2)]), None);
        // Negative, -0.0, non-finite operands and carries of 1 or more.
        for x in [-1.0, -0.0, f64::NAN, f64::INFINITY] {
            assert_eq!(carry_run(x, &[(a, 3)]), None, "carry {x}");
            assert_eq!(carry_run(0.0, &[(x, 3)]), None, "addend {x}");
        }
        assert_eq!(carry_run(1.0, &[(a, 3)]), None);
    }

    #[test]
    fn round_half_up_matches_round_on_edges() {
        for x in edges() {
            assert_eq!(
                round_half_up(x),
                round_ref(x),
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
        assert_eq!(round_half_up(2.0 * TWO_POW_63), u64::MAX);
        assert_eq!(round_half_up(f64::INFINITY), u64::MAX);
        assert_eq!(round_half_up(f64::NAN), 0);
    }

    proptest! {
        #[test]
        fn helpers_match_libm_on_any_bit_pattern(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            prop_assert!(same_split(floor_split(x), floor_ref(x)), "floor_split({x:e})");
            prop_assert_eq!(round_half_up(x), round_ref(x), "round_half_up({x:e})");
        }

        #[test]
        fn carry_run_matches_the_floor_split_loop(seed in any::<u64>()) {
            let mut rng = SimRng::seed_from_u64(seed);
            let (a, b, carry) = carry_case(&mut rng);
            let (mut left_a, mut left_b) = (rng.uniform_u64(0, 64), rng.uniform_u64(0, 64));
            let run = carry_run(carry, &[(a, left_a), (b, left_b)]);
            // A random interleaving of the two addends' steps.
            let mut steps = Vec::new();
            while left_a + left_b > 0 {
                if rng.uniform_u64(1, left_a + left_b) <= left_a {
                    steps.push(a);
                    left_a -= 1;
                } else {
                    steps.push(b);
                    left_b -= 1;
                }
            }
            if let Some((whole, rest)) = run {
                let (n, c) = carry_loop(carry, &steps);
                prop_assert_eq!(whole, n, "{:?} from carry {:e}", (a, b), carry);
                prop_assert_eq!(rest.to_bits(), c.to_bits(), "{:?} from carry {:e}", (a, b), carry);
            }
        }

        #[test]
        fn helpers_match_libm_on_ingest_magnitudes(x in 0.0f64..1e7, k in 0u64..4) {
            // Values near integers and halves, where a wrong split shows.
            let x = match k {
                0 => x,
                1 => x.trunc(),
                2 => x.trunc() + 0.5,
                _ => f64::from_bits(x.to_bits().saturating_sub(1)),
            };
            prop_assert!(same_split(floor_split(x), floor_ref(x)), "floor_split({x:e})");
            prop_assert_eq!(round_half_up(x), round_ref(x), "round_half_up({x:e})");
        }
    }
}
