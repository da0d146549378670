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

    /// Append the JSON wire format to `out`.
    ///
    /// This is the report's hot path — it runs once per simulated batch —
    /// so it fills a stack buffer at fixed layout instead of building a
    /// [`Json`] tree, and `out` grows once. The output is byte-identical
    /// to serializing the tree below 2^53 (a unit test pins that
    /// equivalence) and prints any `u64` exactly.
    pub fn write_json(&self, out: &mut String) {
        let v = self.field_values();
        let mut buf = [0u8; ENCODE_BUF_LEN];
        // One call per field, so each prefix is a constant: a fixed-width
        // copy, not a call into `memcpy`.
        let mut pos = put_field::<0>(&mut buf, 0, v[0]);
        pos = put_field::<1>(&mut buf, pos, v[1]);
        pos = put_field::<2>(&mut buf, pos, v[2]);
        pos = put_field::<3>(&mut buf, pos, v[3]);
        pos = put_field::<4>(&mut buf, pos, v[4]);
        pos = put_field::<5>(&mut buf, pos, v[5]);
        pos = put_field::<6>(&mut buf, pos, v[6]);
        pos = put_field::<7>(&mut buf, pos, v[7]);
        pos = put_field::<8>(&mut buf, pos, v[8]);
        pos = put_field::<9>(&mut buf, pos, v[9]);
        pos = put_field::<10>(&mut buf, pos, v[10]);
        buf[pos] = b'}';
        out.push_str(std::str::from_utf8(&buf[..=pos]).expect("the encoding is ASCII"));
    }

    /// Strict scanner for the canonical encoding `write_json` emits: the
    /// eleven [`PREFIXES`] in order, each followed by 1 to 16 digits,
    /// then `}` and the end of the text. Returns `None` on any deviation —
    /// and for any value of 2^53 or more, which the general parser
    /// refuses — so the caller falls back to the general parser: this is
    /// an optimization, not a format change.
    fn parse_canonical(text: &str) -> Option<[u64; 11]> {
        let b = text.as_bytes();
        let mut pos = 0;
        // One call per field, as in `write_json`: each prefix compare is
        // a fixed-width compare in place.
        let values = [
            scan_field::<0>(b, &mut pos)?,
            scan_field::<1>(b, &mut pos)?,
            scan_field::<2>(b, &mut pos)?,
            scan_field::<3>(b, &mut pos)?,
            scan_field::<4>(b, &mut pos)?,
            scan_field::<5>(b, &mut pos)?,
            scan_field::<6>(b, &mut pos)?,
            scan_field::<7>(b, &mut pos)?,
            scan_field::<8>(b, &mut pos)?,
            scan_field::<9>(b, &mut pos)?,
            scan_field::<10>(b, &mut pos)?,
        ];
        (b.get(pos..) == Some(b"}")).then_some(values)
    }

    /// Parse from the JSON wire format. `arrivedRecords`,
    /// `ingestWindowMs`, and `executorFailures` are optional on the wire
    /// and default to 0. `numExecutors`, `queuedBatches` and
    /// `executorFailures` must fit in a `u32`; a larger value is an error,
    /// never a silent wrap. Every value must be below 2^53 (see
    /// [`Json::as_u64`]).
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
                msg: format!("field `{}` = {} does not fit in u32", key(i), v[i]),
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

/// The wire format's fixed layout: the bytes before each field's value —
/// separator (`{` before the first), quoted camelCase key, colon — in
/// wire order. Every value is a non-negative integer and there is no
/// whitespace.
const PREFIXES: [&str; 11] = [
    "{\"batchId\":",
    ",\"submissionTimeMs\":",
    ",\"processingStartTimeMs\":",
    ",\"processingEndTimeMs\":",
    ",\"numRecords\":",
    ",\"arrivedRecords\":",
    ",\"batchIntervalMs\":",
    ",\"ingestWindowMs\":",
    ",\"numExecutors\":",
    ",\"queuedBatches\":",
    ",\"executorFailures\":",
];

/// Field `i`'s key, without separator, quotes and colon.
fn key(i: usize) -> &'static str {
    &PREFIXES[i][2..PREFIXES[i].len() - 2]
}

/// The first integer the general parser refuses (see [`Json::as_u64`]);
/// the canonical scanner refuses it too, so both paths agree.
const EXACT_INT_LIMIT: u64 = 1 << 53;

/// Room for the longest encoding — every prefix, eleven 20-digit values
/// and `}` — plus the 7 bytes a digit block may store past its value.
const ENCODE_BUF_LEN: usize = {
    let mut len = 11 * 20 + 1 + 7;
    let mut i = 0;
    while i < PREFIXES.len() {
        len += PREFIXES[i].len();
        i += 1;
    }
    len
};

/// Write field `I` — prefix, then value — at `buf[pos..]`; returns the end.
#[inline(always)]
fn put_field<const I: usize>(buf: &mut [u8], pos: usize, value: u64) -> usize {
    let prefix = PREFIXES[I].as_bytes();
    buf[pos..pos + prefix.len()].copy_from_slice(prefix);
    put_decimal(buf, pos + prefix.len(), value)
}

/// Scan field `I` at `b[*pos..]` and move `*pos` past it: the prefix,
/// then a run of digits. The digits are read without an overflow check:
/// a run longer than 16 digits is refused whatever its wrapped value.
#[inline(always)]
fn scan_field<const I: usize>(b: &[u8], pos: &mut usize) -> Option<u64> {
    let prefix = PREFIXES[I].as_bytes();
    if b.get(*pos..*pos + prefix.len()) != Some(prefix) {
        return None;
    }
    let start = *pos + prefix.len();
    let mut end = start;
    let mut v: u64 = 0;
    while let Some(d) = b.get(end).map(|c| c.wrapping_sub(b'0')).filter(|&d| d < 10) {
        v = v.wrapping_mul(10).wrapping_add(d as u64);
        end += 1;
    }
    *pos = end;
    ((1..=16).contains(&(end - start)) && v < EXACT_INT_LIMIT).then_some(v)
}

/// `DIGIT_PAIRS[n]` is `n` as two ASCII digits, `00` to `99`.
const DIGIT_PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0; 2]; 100];
    let mut n = 0;
    while n < 100 {
        pairs[n] = [b'0' + (n / 10) as u8, b'0' + (n % 10) as u8];
        n += 1;
    }
    pairs
};

/// Write `v` in decimal at `buf[pos..]` and return the end. Every digit
/// comes from [`DIGIT_PAIRS`] and goes straight to its final place, in
/// 8-digit blocks (the first one without its leading zeros).
#[inline(always)]
fn put_decimal(buf: &mut [u8], pos: usize, v: u64) -> usize {
    const E8: u64 = 100_000_000;
    if v < E8 {
        return put_leading_block(buf, pos, v);
    }
    let pos = if v < E8 * E8 {
        put_leading_block(buf, pos, v / E8)
    } else {
        let pos = put_leading_block(buf, pos, v / (E8 * E8));
        put_block(buf, pos, v / E8 % E8)
    };
    put_block(buf, pos, v % E8)
}

/// `v` (below 10^8) as eight ASCII digits with leading zeros, first digit
/// in the lowest byte: four pairs from [`DIGIT_PAIRS`], computed side by
/// side and assembled in a register.
fn digit_block(v: u64) -> u64 {
    let v = v as u32;
    let (high, low) = (v / 10_000, v % 10_000);
    let pair = |p: u32| u16::from_le_bytes(DIGIT_PAIRS[p as usize]) as u64;
    pair(high / 100) | pair(high % 100) << 16 | pair(low / 100) << 32 | pair(low % 100) << 48
}

/// Store the eight digits of `v` (below 10^8) at `buf[pos..]`.
fn put_block(buf: &mut [u8], pos: usize, v: u64) -> usize {
    buf[pos..pos + 8].copy_from_slice(&digit_block(v).to_le_bytes());
    pos + 8
}

/// Store the digits of `v` (below 10^8) at `buf[pos..]` without leading
/// zeros (`0` keeps one): the block shifted down past them and stored as
/// one word, whose unused top bytes the next write covers.
fn put_leading_block(buf: &mut [u8], pos: usize, v: u64) -> usize {
    const ZERO_DIGITS: u64 = 0x3030_3030_3030_3030;
    let block = digit_block(v);
    // Digits never borrow, so each byte of the difference is its digit.
    let zeros = (block.wrapping_sub(ZERO_DIGITS).trailing_zeros() / 8).min(7) as usize;
    buf[pos..pos + 8].copy_from_slice(&(block >> (8 * zeros)).to_le_bytes());
    pos + 8 - zeros
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
                r.field_values()
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (key(i), json::uint(v)))
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

        // The writer prints any u64 exactly, but from 2^53 up the general
        // parser refuses the value (it would have rounded), and so does
        // the fast path: both encodings give the same error.
        let mut big = r.clone();
        for n in [1u64 << 53, (1 << 53) + 1, u64::MAX] {
            big.num_records = n;
            let canonical = big.to_json();
            assert!(canonical.contains(&format!("\"numRecords\":{n},")));
            assert_eq!(StatusReport::parse_canonical(&canonical), None);
            for text in [canonical.clone(), canonical.replace(',', ", ")] {
                let err = StatusReport::from_json(&text).unwrap_err();
                assert_eq!(err.msg, "missing or mistyped field `numRecords`", "{n}");
            }
        }
        big.num_records = (1 << 53) - 1;
        assert_eq!(StatusReport::from_json(&big.to_json()).unwrap(), big);

        // Digits overflowing u64 must punt to the general parser rather
        // than wrap silently.
        let overflow = canonical.replace("50000", "99999999999999999999999");
        assert_eq!(StatusReport::parse_canonical(&overflow), None);
    }
}
