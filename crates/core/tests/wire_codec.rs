//! Differential tests for the status-report wire codec.
//!
//! `StatusReport::write_json` fills a fixed layout and `from_json` scans
//! it back without building a JSON tree. Here both run against plain
//! references — `format!` and the `Json` tree serializer for the bytes,
//! `Json::parse` for decoding — on reports whose fields are drawn by
//! digit-length class, and on every truncation and one-byte substitution
//! of their encodings.
//!
//! `PROPTEST_CASES` raises the case count (CI runs 2000).

use nostop_core::listener::StatusReport;
use nostop_core::BatchObservation;
use nostop_simcore::json::{self, Json};
use proptest::prelude::*;

/// The first integer the general parser refuses: `Json` numbers are
/// `f64`, exact only below it.
const EXACT_INT_LIMIT: u64 = 1 << 53;

/// A field value at a digit-length boundary, or with a random digit count
/// — never above `max`.
struct Value {
    max: u64,
}

impl Strategy for Value {
    type Value = u64;

    fn generate(&self, rng: &mut TestRng) -> u64 {
        let v = match rng.below(8) {
            0 => 0,
            1 => [9, 10, 99, 100][rng.below(4) as usize],
            // 10^k − 1, 10^k and 10^k + 1 for every power that fits.
            2 => 10u64.pow(1 + rng.below(19) as u32) - 1 + rng.below(3),
            3 => u32::MAX as u64 - 1 + rng.below(3),
            4 => EXACT_INT_LIMIT - 2 + rng.below(3),
            5 => u64::MAX - rng.below(2),
            // A random value of 1 to 20 digits.
            _ => {
                let digits = 1 + rng.below(20) as u32;
                let lo = if digits == 1 {
                    0
                } else {
                    10u64.pow(digits - 1)
                };
                let hi = 10u64.checked_pow(digits).map_or(u64::MAX, |p| p - 1);
                lo + rng.below(hi - lo + 1)
            }
        };
        v.min(self.max)
    }
}

/// A report whose `u64` fields stay at or below `max` (the `u32` fields
/// at or below `u32::MAX`).
struct Reports {
    max: u64,
}

impl Strategy for Reports {
    type Value = StatusReport;

    fn generate(&self, rng: &mut TestRng) -> StatusReport {
        let wide = Value { max: self.max };
        let narrow = Value {
            max: u32::MAX as u64,
        };
        StatusReport {
            batch_id: wide.generate(rng),
            submission_time_ms: wide.generate(rng),
            processing_start_time_ms: wide.generate(rng),
            processing_end_time_ms: wide.generate(rng),
            num_records: wide.generate(rng),
            arrived_records: wide.generate(rng),
            batch_interval_ms: wide.generate(rng),
            ingest_window_ms: wide.generate(rng),
            num_executors: narrow.generate(rng) as u32,
            queued_batches: narrow.generate(rng) as u32,
            executor_failures: narrow.generate(rng) as u32,
        }
    }
}

/// The report's fields as (wire key, value), in wire order.
fn fields(r: &StatusReport) -> [(&'static str, u64); 11] {
    [
        ("batchId", r.batch_id),
        ("submissionTimeMs", r.submission_time_ms),
        ("processingStartTimeMs", r.processing_start_time_ms),
        ("processingEndTimeMs", r.processing_end_time_ms),
        ("numRecords", r.num_records),
        ("arrivedRecords", r.arrived_records),
        ("batchIntervalMs", r.batch_interval_ms),
        ("ingestWindowMs", r.ingest_window_ms),
        ("numExecutors", r.num_executors as u64),
        ("queuedBatches", r.queued_batches as u64),
        ("executorFailures", r.executor_failures as u64),
    ]
}

/// The wire format spelled out with `format!`.
fn format_reference(r: &StatusReport) -> String {
    let body: Vec<String> = fields(r)
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// The general decoder alone: `Json::parse` and field extraction, the
/// path `from_json` falls back to.
fn general_decode(text: &str) -> Result<StatusReport, json::Error> {
    let j = Json::parse(text)?;
    let narrow = |key: &str, v: u64| {
        u32::try_from(v).map_err(|_| json::Error {
            at: 0,
            msg: format!("field `{key}` = {v} does not fit in u32"),
        })
    };
    Ok(StatusReport {
        batch_id: j.field_u64("batchId")?,
        submission_time_ms: j.field_u64("submissionTimeMs")?,
        processing_start_time_ms: j.field_u64("processingStartTimeMs")?,
        processing_end_time_ms: j.field_u64("processingEndTimeMs")?,
        num_records: j.field_u64("numRecords")?,
        arrived_records: j.field_u64_or_zero("arrivedRecords")?,
        batch_interval_ms: j.field_u64("batchIntervalMs")?,
        ingest_window_ms: j.field_u64_or_zero("ingestWindowMs")?,
        num_executors: narrow("numExecutors", j.field_u64("numExecutors")?)?,
        queued_batches: narrow("queuedBatches", j.field_u64("queuedBatches")?)?,
        executor_failures: narrow("executorFailures", j.field_u64_or_zero("executorFailures")?)?,
    })
}

/// Every field of an observation as raw bits, so equality is bitwise.
fn bits(o: &BatchObservation) -> [u64; 9] {
    [
        o.completed_at_s.to_bits(),
        o.interval_s.to_bits(),
        o.processing_s.to_bits(),
        o.scheduling_delay_s.to_bits(),
        o.records,
        o.input_rate.to_bits(),
        o.num_executors as u64,
        o.queued_batches as u64,
        o.executor_failures as u64,
    ]
}

/// `from_json` and the general decoder give the same result on `text`.
fn agrees(text: &str) -> Result<(), TestCaseError> {
    let (fast, general) = (StatusReport::from_json(text), general_decode(text));
    prop_assert!(
        fast == general,
        "on {text:?}\n  from_json: {fast:?}\n    general: {general:?}"
    );
    Ok(())
}

/// Bytes a substitution writes: digits, every structural character, and
/// characters a number may contain but the canonical layout never has.
const SUBSTITUTES: &[u8] = b"0159,:\"{}[] -+.eEx\t\n\\";

proptest! {
    #[test]
    fn writer_matches_format_reference(r in Reports { max: u64::MAX }) {
        let reference = format_reference(&r);
        prop_assert_eq!(&r.to_json(), &reference);
        // Appending must not disturb what the buffer already holds.
        let mut out = String::from("prefix");
        r.write_json(&mut out);
        prop_assert_eq!(&out[6..], reference.as_str());
    }

    #[test]
    fn writer_matches_tree_serializer_below_2_pow_53(
        r in Reports { max: EXACT_INT_LIMIT - 1 }
    ) {
        let tree = json::obj(fields(&r).iter().map(|&(k, v)| (k, json::uint(v))).collect());
        prop_assert_eq!(r.to_json(), tree.to_string());
    }

    #[test]
    fn round_trip_is_lossless_and_observations_bitwise_equal(
        r in Reports { max: EXACT_INT_LIMIT - 1 }
    ) {
        let back = StatusReport::from_json(&r.to_json());
        prop_assert_eq!(back.as_ref(), Ok(&r));
        let back = back.unwrap();
        prop_assert_eq!(bits(&back.to_observation()), bits(&r.to_observation()));
    }

    /// From 2^53 up the writer is still exact but both decode paths
    /// refuse the value — on the canonical encoding and with spaces.
    #[test]
    fn values_from_2_pow_53_are_refused_on_both_encodings(r in Reports { max: u64::MAX }) {
        let canonical = r.to_json();
        for text in [canonical.clone(), canonical.replace(',', ", ")] {
            agrees(&text)?;
            let too_big = fields(&r).iter().any(|&(_, v)| v >= EXACT_INT_LIMIT);
            prop_assert!(!too_big || StatusReport::from_json(&text).is_err(), "{}", text);
        }
    }

    /// The hostile half of the boundary: whatever a truncation or a
    /// one-byte substitution makes of a canonical report, `from_json`
    /// answers as the general parser does, and never panics. Reports stay
    /// below 2^53 so the undamaged text takes the fast path; the test
    /// above covers larger values.
    #[test]
    fn damaged_reports_decode_as_the_general_parser_does(
        r in Reports { max: EXACT_INT_LIMIT - 1 },
        extra in 0u8..128,
    ) {
        let canonical = r.to_json();
        for end in 0..canonical.len() {
            agrees(&canonical[..end])?;
        }
        let mut bytes = canonical.clone().into_bytes();
        for pos in 0..bytes.len() {
            let original = bytes[pos];
            for &b in SUBSTITUTES.iter().chain([&extra]) {
                bytes[pos] = b;
                agrees(std::str::from_utf8(&bytes).expect("ASCII"))?;
            }
            bytes[pos] = original;
        }
    }
}
