//! Float-to-integer splits without libm.
//!
//! The workspace builds for baseline x86-64 (SSE2 only), where
//! `f64::floor` and `f64::round` are libm calls. The per-step ingest path
//! and the per-job scheduling path use these two helpers instead. Each is
//! bit-identical to the expression it replaces for every input, NaN and
//! infinities included, so swapping one in changes no output.

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

#[cfg(test)]
mod tests {
    use super::*;
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
