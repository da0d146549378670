//! The JSON status vector between the streaming listener and NoStop.
//!
//! Fig. 4: "We design Spark Streaming Listener to report real-time system
//! status to NoStop in JSON format." [`StatusReport`] is that wire format.
//! A REST-driven deployment posts these JSON objects; the in-process
//! simulator produces the same struct directly. Either way,
//! [`StatusReport::to_observation`] turns a report into the
//! [`BatchObservation`] the controller consumes — so the controller code
//! path is identical in both deployments.

use crate::system::BatchObservation;
use nostop_simcore::json::{self, Json};

/// A listener status report for one completed batch, in the JSON shape a
/// `StreamingListener.onBatchCompleted` hook would emit.
#[derive(Debug, Clone, PartialEq)]
pub struct StatusReport {
    /// Batch sequence number.
    pub batch_id: u64,
    /// Batch submission time, epoch-relative milliseconds.
    pub submission_time_ms: u64,
    /// Processing start time, milliseconds.
    pub processing_start_time_ms: u64,
    /// Processing end time, milliseconds.
    pub processing_end_time_ms: u64,
    /// Records in the batch.
    pub num_records: u64,
    /// Records that *arrived* at the source during the ingest window
    /// (differs from `numRecords` while draining a backlog). Optional on
    /// the wire; 0 means "same as numRecords".
    pub arrived_records: u64,
    /// The batch interval in force, milliseconds.
    pub batch_interval_ms: u64,
    /// Actual receiver ingest window for this batch, milliseconds (equals
    /// the interval except for the first batch after an interval change).
    /// Optional on the wire; 0 means "use the interval".
    pub ingest_window_ms: u64,
    /// Live executor count.
    pub num_executors: u32,
    /// Batches waiting in the queue at completion time.
    pub queued_batches: u32,
    /// Executors lost to failures since the previous batch completed.
    /// Optional on the wire; 0 means "no failures observed".
    pub executor_failures: u32,
}

impl StatusReport {
    /// Scheduling delay in milliseconds (start − submission).
    pub fn scheduling_delay_ms(&self) -> u64 {
        self.processing_start_time_ms
            .saturating_sub(self.submission_time_ms)
    }

    /// Processing time in milliseconds (end − start).
    pub fn processing_time_ms(&self) -> u64 {
        self.processing_end_time_ms
            .saturating_sub(self.processing_start_time_ms)
    }

    /// Convert to the controller's observation type.
    pub fn to_observation(&self) -> BatchObservation {
        let interval_s = self.batch_interval_ms as f64 / 1e3;
        let window_s = if self.ingest_window_ms > 0 {
            self.ingest_window_ms as f64 / 1e3
        } else {
            interval_s
        };
        let arrived = if self.arrived_records > 0 {
            self.arrived_records
        } else {
            self.num_records
        };
        BatchObservation {
            completed_at_s: self.processing_end_time_ms as f64 / 1e3,
            interval_s,
            processing_s: self.processing_time_ms() as f64 / 1e3,
            scheduling_delay_s: self.scheduling_delay_ms() as f64 / 1e3,
            records: self.num_records,
            input_rate: if window_s > 0.0 {
                arrived as f64 / window_s
            } else {
                0.0
            },
            num_executors: self.num_executors,
            queued_batches: self.queued_batches,
            executor_failures: self.executor_failures,
        }
    }

    /// The canonical key order of the wire format. Every field is a
    /// non-negative integer, which is what makes the direct writer and the
    /// fast-path parser below so simple.
    const KEYS: [&'static str; 11] = [
        "batchId",
        "submissionTimeMs",
        "processingStartTimeMs",
        "processingEndTimeMs",
        "numRecords",
        "arrivedRecords",
        "batchIntervalMs",
        "ingestWindowMs",
        "numExecutors",
        "queuedBatches",
        "executorFailures",
    ];

    fn field_values(&self) -> [u64; 11] {
        [
            self.batch_id,
            self.submission_time_ms,
            self.processing_start_time_ms,
            self.processing_end_time_ms,
            self.num_records,
            self.arrived_records,
            self.batch_interval_ms,
            self.ingest_window_ms,
            self.num_executors as u64,
            self.queued_batches as u64,
            self.executor_failures as u64,
        ]
    }

    /// Serialize to the JSON wire format (camelCase keys, fixed key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    /// Append the JSON wire format to `out` without allocating.
    ///
    /// This is the report's hot path — it runs once per simulated batch —
    /// so it writes the encoding directly instead of building a [`Json`]
    /// tree first. The output is byte-identical to serializing the tree
    /// (a unit test pins that equivalence).
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (key, value)) in Self::KEYS.iter().zip(self.field_values()).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            push_u64(out, value);
        }
        out.push('}');
    }

    /// Strict scanner for the canonical encoding `write_json` emits: the
    /// eleven known keys in order, bare integer values, no whitespace.
    /// Returns `None` on any deviation so the caller can fall back to the
    /// general parser — this is an optimization, not a format change.
    fn parse_canonical(text: &str) -> Option<[u64; 11]> {
        fn eat(b: &[u8], pos: &mut usize, lit: &[u8]) -> bool {
            if b[*pos..].starts_with(lit) {
                *pos += lit.len();
                true
            } else {
                false
            }
        }
        fn digits(b: &[u8], pos: &mut usize) -> Option<u64> {
            let start = *pos;
            let mut v: u64 = 0;
            while let Some(d) = b.get(*pos).filter(|c| c.is_ascii_digit()) {
                v = v.checked_mul(10)?.checked_add((d - b'0') as u64)?;
                *pos += 1;
            }
            (*pos > start).then_some(v)
        }
        let b = text.as_bytes();
        let mut pos = 0;
        let mut values = [0u64; 11];
        if !eat(b, &mut pos, b"{") {
            return None;
        }
        for (i, key) in Self::KEYS.iter().enumerate() {
            if i > 0 && !eat(b, &mut pos, b",") {
                return None;
            }
            if !eat(b, &mut pos, b"\"")
                || !eat(b, &mut pos, key.as_bytes())
                || !eat(b, &mut pos, b"\":")
            {
                return None;
            }
            values[i] = digits(b, &mut pos)?;
        }
        (eat(b, &mut pos, b"}") && pos == b.len()).then_some(values)
    }

    /// Parse from the JSON wire format. `arrivedRecords`,
    /// `ingestWindowMs`, and `executorFailures` are optional on the wire
    /// and default to 0. `numExecutors`, `queuedBatches` and
    /// `executorFailures` must fit in a `u32`; a larger value is an error,
    /// never a silent wrap.
    pub fn from_json(text: &str) -> Result<Self, json::Error> {
        let v = match Self::parse_canonical(text) {
            Some(v) => v,
            None => {
                let j = Json::parse(text)?;
                [
                    j.field_u64("batchId")?,
                    j.field_u64("submissionTimeMs")?,
                    j.field_u64("processingStartTimeMs")?,
                    j.field_u64("processingEndTimeMs")?,
                    j.field_u64("numRecords")?,
                    j.field_u64_or_zero("arrivedRecords")?,
                    j.field_u64("batchIntervalMs")?,
                    j.field_u64_or_zero("ingestWindowMs")?,
                    j.field_u64("numExecutors")?,
                    j.field_u64("queuedBatches")?,
                    j.field_u64_or_zero("executorFailures")?,
                ]
            }
        };
        let narrow = |i: usize| {
            u32::try_from(v[i]).map_err(|_| json::Error {
                at: 0,
                msg: format!("field `{}` = {} does not fit in u32", Self::KEYS[i], v[i]),
            })
        };
        Ok(StatusReport {
            batch_id: v[0],
            submission_time_ms: v[1],
            processing_start_time_ms: v[2],
            processing_end_time_ms: v[3],
            num_records: v[4],
            arrived_records: v[5],
            batch_interval_ms: v[6],
            ingest_window_ms: v[7],
            num_executors: narrow(8)?,
            queued_batches: narrow(9)?,
            executor_failures: narrow(10)?,
        })
    }
}

/// Append a decimal `u64` without going through the `fmt` machinery.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> StatusReport {
        StatusReport {
            batch_id: 7,
            submission_time_ms: 100_000,
            processing_start_time_ms: 101_500,
            processing_end_time_ms: 109_500,
            num_records: 50_000,
            arrived_records: 50_000,
            batch_interval_ms: 10_000,
            ingest_window_ms: 10_000,
            num_executors: 12,
            queued_batches: 1,
            executor_failures: 0,
        }
    }

    #[test]
    fn delay_arithmetic() {
        let r = report();
        assert_eq!(r.scheduling_delay_ms(), 1_500);
        assert_eq!(r.processing_time_ms(), 8_000);
    }

    #[test]
    fn converts_to_observation() {
        let o = report().to_observation();
        assert_eq!(o.interval_s, 10.0);
        assert_eq!(o.processing_s, 8.0);
        assert_eq!(o.scheduling_delay_s, 1.5);
        assert_eq!(o.records, 50_000);
        assert_eq!(o.input_rate, 5_000.0);
        assert_eq!(o.num_executors, 12);
        assert!(o.is_stable());
    }

    #[test]
    fn json_round_trip_uses_camel_case() {
        let r = report();
        let json = r.to_json();
        assert!(json.contains("\"batchId\":7"), "{json}");
        assert!(json.contains("\"batchIntervalMs\":10000"), "{json}");
        let back = StatusReport::from_json(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn parses_external_json() {
        let json = r#"{
            "batchId": 1, "submissionTimeMs": 0, "processingStartTimeMs": 10,
            "processingEndTimeMs": 500, "numRecords": 42,
            "batchIntervalMs": 1000, "numExecutors": 4, "queuedBatches": 0
        }"#;
        let r = StatusReport::from_json(json).unwrap();
        assert_eq!(r.num_records, 42);
        assert_eq!(r.processing_time_ms(), 490);
    }

    /// A hostile report nested past `json::MAX_DEPTH` falls through the
    /// canonical scanner into the general parser, which returns an error
    /// instead of overflowing the stack.
    #[test]
    fn deeply_nested_report_is_an_error() {
        for depth in [json::MAX_DEPTH + 1, 100_000] {
            let text = "{\"batchId\":".repeat(depth) + "1" + &"}".repeat(depth);
            let e = StatusReport::from_json(&text).unwrap_err();
            assert!(e.msg.contains("nesting"), "{e}");
        }
    }

    /// A count beyond `u32::MAX` is rejected on both decode paths — the
    /// canonical scanner and the general parser — instead of wrapping
    /// (4294967297 would otherwise decode as 1). `u32::MAX` itself decodes.
    #[test]
    fn u32_counts_out_of_range_are_errors_on_both_paths() {
        let canonical = report().to_json();
        let spaced = canonical.replace(',', ", ");
        assert!(StatusReport::parse_canonical(&canonical).is_some());
        assert!(StatusReport::parse_canonical(&spaced).is_none());
        for (key, value) in [
            ("numExecutors", 12),
            ("queuedBatches", 1),
            ("executorFailures", 0),
        ] {
            let field = format!("\"{key}\":{value}");
            for text in [&canonical, &spaced] {
                let set = |v: u64| text.replace(&field, &format!("\"{key}\":{v}"));
                let err = StatusReport::from_json(&set(u32::MAX as u64 + 2)).unwrap_err();
                assert!(err.msg.contains(key), "{key}: {err}");
                assert!(
                    StatusReport::from_json(&set(u32::MAX as u64)).is_ok(),
                    "{key}"
                );
            }
        }
    }

    #[test]
    fn clock_skew_saturates_rather_than_underflows() {
        let mut r = report();
        r.processing_start_time_ms = 0; // bogus listener clock
        assert_eq!(r.scheduling_delay_ms(), 0);
    }

    /// The direct writer must emit exactly what serializing a [`Json`]
    /// tree with the same fields would — the wire format is pinned. (Only
    /// up to 2^53: the tree writer routes integers through `f64` and is
    /// lossy beyond that, where the direct writer stays exact.)
    #[test]
    fn direct_writer_matches_tree_serialization() {
        let mut extreme = report();
        extreme.batch_id = 0;
        extreme.num_records = (1u64 << 53) - 1;
        extreme.executor_failures = u32::MAX;
        for r in [report(), extreme] {
            let tree = json::obj(
                StatusReport::KEYS
                    .iter()
                    .zip(r.field_values())
                    .map(|(k, v)| (*k, json::uint(v)))
                    .collect(),
            )
            .to_string();
            assert_eq!(r.to_json(), tree);
        }
    }

    /// The canonical fast-path parser and the general JSON parser must
    /// agree — on canonical text directly, and via fallback on anything
    /// else (whitespace, reordering, missing optional fields).
    #[test]
    fn fast_parse_agrees_with_general_parse() {
        let r = report();
        let canonical = r.to_json();
        assert_eq!(
            StatusReport::parse_canonical(&canonical),
            Some(r.field_values())
        );
        assert_eq!(StatusReport::from_json(&canonical).unwrap(), r);

        let spaced = canonical.replace(':', ": ");
        assert_eq!(StatusReport::parse_canonical(&spaced), None);
        assert_eq!(StatusReport::from_json(&spaced).unwrap(), r);

        // u64::MAX in the tree writer survives the fast path too.
        let mut big = r.clone();
        big.num_records = u64::MAX;
        assert_eq!(StatusReport::from_json(&big.to_json()).unwrap(), big);

        // Digits overflowing u64 must punt to the general parser rather
        // than wrap silently.
        let overflow = canonical.replace("50000", "99999999999999999999999");
        assert_eq!(StatusReport::parse_canonical(&overflow), None);
    }
}
