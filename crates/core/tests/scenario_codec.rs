//! Round-trip and damaged-input tests for the scenario codec.
//!
//! Every scenario wire type's codec is generated from its field table in
//! `nostop_core::scenario`. A generator of valid specs covers every
//! `RateSpec` variant (composites nested up to three deep), both skews,
//! every fault (with and without a relaunch) and the optional scenario
//! fields present and absent. On its specs `from_json(to_json(s)) == s`,
//! and the pretty text is a fixed point of parse → serialize. Truncated
//! and corrupted texts, of generated specs and of every corpus file, must
//! decode to `Ok` or `Err` without a panic, and an `Ok` must round-trip.
//!
//! `PROPTEST_CASES` raises the case count (CI runs 2000).

use nostop_core::scenario::{
    ClusterKind, FaultEvent, RateSpec, ScenarioSpec, SkewSpec, KNOWN_METHODS, MAX_HORIZON_S,
};
use nostop_simcore::json::Json;
use nostop_simcore::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;

/// The first integer the wire refuses: `Json` numbers are `f64`, exact
/// only below it.
const EXACT_INT_LIMIT: u64 = 1 << 53;

/// A float in `[lo, hi]`: a whole number, two decimals, or every digit
/// of a draw, so that the writer's integer and shortest-decimal paths
/// both run.
fn float(rng: &mut TestRng, lo: f64, hi: f64) -> f64 {
    let x = lo + rng.f64_unit() * (hi - lo);
    let shaped = match rng.below(3) {
        0 => x.round(),
        1 => (x * 100.0).round() / 100.0,
        _ => x,
    };
    shaped.clamp(lo, hi)
}

/// An integer the wire carries exactly: small, at the 2^53 edge, or any.
fn int(rng: &mut TestRng) -> u64 {
    match rng.below(3) {
        0 => rng.below(100),
        1 => EXACT_INT_LIMIT - 1 - rng.below(2),
        _ => rng.below(EXACT_INT_LIMIT),
    }
}

/// Seconds that round to at least 1 µs (hold, surge, crowd and burst
/// durations).
fn span(rng: &mut TestRng) -> f64 {
    float(rng, 1e-6, 1e4)
}

/// A rate in records per second, small enough that three nested
/// composites stay below `MAX_RATE_PER_S`.
fn rate(rng: &mut TestRng) -> f64 {
    float(rng, 0.0, 1e3)
}

/// A magnitude pair `(min, max)` with `1 <= min <= max <= 4`.
fn magnitudes(rng: &mut TestRng) -> (f64, f64) {
    let min = float(rng, 1.0, 2.0);
    (min, min + float(rng, 0.0, 2.0))
}

/// Any rate variant; with `depth > 0`, half the draws are a composite
/// whose base is drawn at `depth - 1`.
fn rate_spec(rng: &mut TestRng, depth: u32) -> RateSpec {
    let variant = if depth > 0 && rng.below(2) == 0 {
        5 + rng.below(3)
    } else {
        rng.below(if depth > 0 { 8 } else { 5 })
    };
    let base = |rng: &mut TestRng| Box::new(rate_spec(rng, depth - 1));
    match variant {
        0 => RateSpec::Constant { rate: rate(rng) },
        1 => {
            let min_rate = rate(rng);
            RateSpec::UniformRandom {
                min_rate,
                max_rate: min_rate + rate(rng),
                hold_secs: span(rng),
            }
        }
        2 => RateSpec::Sinusoid {
            base: rate(rng),
            amplitude: float(rng, -1e3, 1e3),
            period_secs: span(rng),
        },
        3 => RateSpec::Ramp {
            start_rate: rate(rng),
            end_rate: rate(rng),
            duration_secs: span(rng),
        },
        4 => RateSpec::Surge {
            base_rate: rate(rng),
            magnitude: magnitudes(rng).1,
            surge_secs: span(rng),
            mean_gap_secs: span(rng),
        },
        5 => {
            let (min_magnitude, max_magnitude) = magnitudes(rng);
            RateSpec::FlashCrowd {
                base: base(rng),
                mean_gap_secs: span(rng),
                crowd_secs: span(rng),
                pareto_shape: float(rng, 0.1, 3.0),
                min_magnitude,
                max_magnitude,
            }
        }
        6 => {
            // At least 1 s per burst keeps the burst rate at most 1e5/s.
            let min_burst_records = float(rng, 1.0, 1e4);
            RateSpec::ParetoBurst {
                base: base(rng),
                mean_gap_secs: span(rng),
                burst_secs: float(rng, 1.0, 1e3),
                pareto_shape: float(rng, 0.1, 3.0),
                min_burst_records,
                max_burst_records: min_burst_records + float(rng, 0.0, 9e4),
            }
        }
        _ => RateSpec::CorrelatedSurge {
            base: base(rng),
            trigger_seed: int(rng),
            magnitude: magnitudes(rng).1,
            surge_secs: span(rng),
            mean_gap_secs: span(rng),
        },
    }
}

fn skew_spec(rng: &mut TestRng) -> SkewSpec {
    if rng.below(2) == 0 {
        return SkewSpec::None;
    }
    SkewSpec::HotKey {
        hot_fraction: float(rng, 0.01, 0.99),
        hot_weight: float(rng, 1.01, 1e6),
    }
}

/// An instant on whole seconds or on any microsecond (up to ~116 days).
fn instant(rng: &mut TestRng) -> SimTime {
    if rng.below(2) == 0 {
        SimTime::from_micros(rng.below(10_000_000) * 1_000_000)
    } else {
        SimTime::from_micros(rng.below(10_000_000_000_000))
    }
}

/// A non-empty window `[from, until)`.
fn window(rng: &mut TestRng) -> (SimTime, SimTime) {
    let from = instant(rng);
    let until = SimTime::from_micros(from.as_micros() + 1 + rng.below(10_000_000_000));
    (from, until)
}

fn fault(rng: &mut TestRng) -> FaultEvent {
    let (from, until) = window(rng);
    match rng.below(4) {
        0 => FaultEvent::ExecutorCrash {
            at: instant(rng),
            count: if rng.below(8) == 0 {
                u32::MAX
            } else {
                1 + rng.below(20) as u32
            },
            relaunch_after: (rng.below(2) == 0)
                .then(|| SimDuration::from_micros(1 + rng.below(10_000_000_000))),
        },
        1 => FaultEvent::NodeSlowdown {
            node: if rng.below(8) == 0 {
                int(rng) as usize
            } else {
                rng.below(10) as usize
            },
            from,
            until,
            factor: float(rng, 0.01, 4.0),
        },
        2 => FaultEvent::ReceiverOutage { from, until },
        _ => FaultEvent::TaskFailures {
            from,
            until,
            probability: float(rng, 0.0, 0.99),
        },
    }
}

/// A string of 1 to 20 characters drawn from `alphabet`.
fn word(rng: &mut TestRng, alphabet: &[char]) -> String {
    let len = 1 + rng.below(20) as usize;
    (0..len)
        .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize])
        .collect()
}

/// Valid rate specs: composites nest up to `depth` deep.
struct Rates {
    depth: u32,
}

impl Strategy for Rates {
    type Value = RateSpec;

    fn generate(&self, rng: &mut TestRng) -> RateSpec {
        rate_spec(rng, self.depth)
    }
}

/// Valid scenarios over every wire type and optional field.
struct Scenarios;

impl Strategy for Scenarios {
    type Value = ScenarioSpec;

    fn generate(&self, rng: &mut TestRng) -> ScenarioSpec {
        let name_chars: Vec<char> = ('a'..='z').chain('A'..='Z').chain('0'..='9').collect();
        let name_chars = [name_chars, vec!['-', '_']].concat();
        // Workloads are free text on the wire: quotes, escapes and
        // multi-byte characters exercise the string codec.
        let workload_chars = [
            'w', 'c', '-', ' ', '"', '\\', '\n', '\t', 'é', '日', '\u{1}',
        ];
        ScenarioSpec {
            name: word(rng, &name_chars),
            workload: word(rng, &workload_chars),
            cluster: if rng.below(2) == 0 {
                ClusterKind::Paper
            } else {
                ClusterKind::Testbed
            },
            seed: int(rng),
            rate_seed: (rng.below(2) == 0).then(|| int(rng)),
            horizon_s: if rng.below(8) == 0 {
                MAX_HORIZON_S
            } else {
                float(rng, 1e-3, MAX_HORIZON_S)
            },
            rounds: (rng.below(2) == 0).then(|| 1 + int(rng) % (EXACT_INT_LIMIT - 1)),
            methods: (0..rng.below(4))
                .map(|_| KNOWN_METHODS[rng.below(3) as usize].to_string())
                .collect(),
            rate: rate_spec(rng, 3),
            skew: skew_spec(rng),
            faults: (0..rng.below(5)).map(|_| fault(rng)).collect(),
        }
    }
}

/// How deep the spec's composites nest (0 for a plain process).
fn nesting(spec: &RateSpec) -> u32 {
    match spec {
        RateSpec::FlashCrowd { base, .. }
        | RateSpec::ParetoBurst { base, .. }
        | RateSpec::CorrelatedSurge { base, .. } => 1 + nesting(base),
        _ => 0,
    }
}

/// Every `kind` in the spec's rate tree.
fn rate_kinds(spec: &RateSpec, into: &mut BTreeSet<&'static str>) {
    into.insert(spec.kind());
    if let RateSpec::FlashCrowd { base, .. }
    | RateSpec::ParetoBurst { base, .. }
    | RateSpec::CorrelatedSurge { base, .. } = spec
    {
        rate_kinds(base, into);
    }
}

/// Decoding `text` gives `Ok` or `Err`, never a panic, and an `Ok` spec
/// serializes to text that decodes back to the same spec. Returns
/// whether `text` decoded.
fn decodes_or_refuses(text: &str) -> Result<bool, TestCaseError> {
    let Ok(json) = Json::parse(text) else {
        return Ok(false);
    };
    let Ok(spec) = ScenarioSpec::from_json(&json) else {
        return Ok(false);
    };
    let again = Json::parse(&spec.to_json().to_string_pretty())
        .map_err(|e| TestCaseError::fail(e.to_string()))?;
    let back = ScenarioSpec::from_json(&again);
    prop_assert!(
        back.as_ref() == Ok(&spec),
        "on {text:?}\n  decoded: {spec:?}\n  re-decoded: {back:?}"
    );
    Ok(true)
}

/// Bytes a substitution writes: digits, structural characters, and
/// characters a number, a literal or an escape may contain.
const SUBSTITUTES: &[u8] = b"0159,:\"{}[] -+.eEntx\\";

/// `text` with its byte at `pos` replaced by `b`, if that is still UTF-8.
fn substituted(text: &str, pos: usize, b: u8) -> Option<String> {
    let mut bytes = text.as_bytes().to_vec();
    bytes[pos] = b;
    String::from_utf8(bytes).ok()
}

/// One substitute byte: from `SUBSTITUTES`, or any ASCII byte.
fn substitute(rng: &mut TestRng) -> u8 {
    if rng.below(4) == 0 {
        rng.below(128) as u8
    } else {
        SUBSTITUTES[rng.below(SUBSTITUTES.len() as u64) as usize]
    }
}

proptest! {
    #[test]
    fn rate_specs_round_trip_through_text(spec in Rates { depth: 3 }) {
        prop_assert_eq!(RateSpec::from_json(&spec.to_json()), Ok(spec.clone()));
        let text = spec.to_json().to_string_pretty();
        let json = Json::parse(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(RateSpec::from_json(&json), Ok(spec));
    }

    #[test]
    fn scenarios_round_trip_and_pretty_text_is_a_fixed_point(spec in Scenarios) {
        prop_assert_eq!(spec.validate(), Ok(()), "the generator drew an invalid spec");
        prop_assert_eq!(ScenarioSpec::from_json(&spec.to_json()), Ok(spec.clone()));
        for text in [spec.to_json().to_string(), spec.to_json().to_string_pretty()] {
            let json = Json::parse(&text).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let back = ScenarioSpec::from_json(&json);
            prop_assert_eq!(back.as_ref(), Ok(&spec));
        }
        let text = spec.to_json().to_string_pretty();
        let again = ScenarioSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(again.to_json().to_string_pretty(), text);
    }

    /// Sampled truncations and one-byte substitutions of a generated
    /// spec's text decode to `Ok` or `Err`, and an `Ok` round-trips.
    #[test]
    fn damaged_generated_specs_decode_or_refuse(spec in Scenarios) {
        let text = spec.to_json().to_string_pretty();
        let mut rng = TestRng::for_case(&text, 0);
        for _ in 0..48 {
            let end = rng.below(text.len() as u64) as usize;
            if text.is_char_boundary(end) {
                prop_assert!(!decodes_or_refuses(&text[..end])?, "a truncation decoded");
            }
            let pos = rng.below(text.len() as u64) as usize;
            if let Some(damaged) = substituted(&text, pos, substitute(&mut rng)) {
                decodes_or_refuses(&damaged)?;
            }
        }
    }
}

/// Every truncation, and three sampled substitutions at every byte, of
/// each committed corpus file decode to `Ok` or `Err`, and an `Ok`
/// round-trips. Some substitutions (a digit for a digit) still decode,
/// so the round-trip branch runs on every file.
#[test]
fn damaged_corpus_files_decode_or_refuse() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("the corpus directory reads")
        .map(|e| e.expect("a corpus entry reads").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no corpus files in {}", dir.display());
    for path in files {
        let text = std::fs::read_to_string(&path).expect("a corpus file reads");
        let check = |text: &str| {
            decodes_or_refuses(text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        };
        assert!(check(&text), "{} does not decode", path.display());
        // Every cut that loses part of the object, not just the newline.
        let object = text.trim_end();
        for end in (0..object.len()).filter(|&end| text.is_char_boundary(end)) {
            assert!(
                !check(&text[..end]),
                "a truncation of {} decoded",
                path.display()
            );
        }
        let mut rng = TestRng::for_case(&text, 0);
        let mut decoded = 0;
        for pos in 0..text.len() {
            for _ in 0..3 {
                let b = substitute(&mut rng);
                decoded += substituted(&text, pos, b).is_some_and(|t| check(&t)) as usize;
            }
        }
        assert!(decoded > 0, "no substitution of {} decoded", path.display());
    }
}

/// The generator reaches what the round-trip properties claim to cover:
/// every rate kind, composites nested at least two deep, both skews,
/// every fault kind with and without a relaunch, and each optional
/// scenario field present and absent.
#[test]
fn generator_covers_every_variant_and_optional_field() {
    let mut kinds = BTreeSet::new();
    let (mut deepest, mut skews, mut faults) = (0, BTreeSet::new(), BTreeSet::new());
    let (mut relaunch, mut rate_seed, mut rounds) =
        (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    for case in 0..500 {
        let spec = Scenarios.generate(&mut TestRng::for_case("coverage", case));
        rate_kinds(&spec.rate, &mut kinds);
        deepest = deepest.max(nesting(&spec.rate));
        skews.insert(spec.skew.kind());
        for f in &spec.faults {
            faults.insert(f.kind());
            if let FaultEvent::ExecutorCrash { relaunch_after, .. } = f {
                relaunch.insert(relaunch_after.is_some());
            }
        }
        rate_seed.insert(spec.rate_seed.is_some());
        rounds.insert(spec.rounds.is_some());
    }
    assert_eq!(kinds.len(), 8, "rate kinds drawn: {kinds:?}");
    assert!(deepest >= 2, "composites nest at most {deepest} deep");
    assert_eq!(skews.len(), 2, "{skews:?}");
    assert_eq!(faults.len(), 4, "{faults:?}");
    for seen in [&relaunch, &rate_seed, &rounds] {
        assert_eq!(
            seen.len(),
            2,
            "an optional field was always or never present"
        );
    }
}
