//! Baseline lookup for `perf_report --smoke`.
//!
//! The smoke guard compares a re-timed engine matrix and three
//! single-row sections (`gp_fit_256`, `scenario`, `fleet`) against the
//! numbers committed in `BENCH_perf.json`. Two very different failures
//! used to be folded into one counter: "this cell got slower" and "the
//! committed report has no such cell" (stale after a matrix change, or a
//! field typo). The second is not a performance regression — it means the
//! committed report must be regenerated — and deserves its own verdict so
//! CI output says which action to take.

use nostop_simcore::json::Json;

/// Why a committed baseline could not be used for a matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// No row matches `(workload, interval_s, executors)` — the committed
    /// report predates the current matrix and must be regenerated.
    MissingRow,
    /// A row matches but its throughput field is absent or unusable.
    BadField(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::MissingRow => write!(f, "no committed row for this cell"),
            BaselineError::BadField(msg) => write!(f, "committed row unusable: {msg}"),
        }
    }
}

/// Find the committed `sim_batches_per_s` for one engine-matrix cell.
pub fn engine_baseline(
    rows: &[Json],
    workload: &str,
    interval_s: f64,
    executors: u32,
) -> Result<f64, BaselineError> {
    let row = rows
        .iter()
        .find(|r| {
            r.field_str("workload") == Ok(workload)
                && r.field_f64("interval_s") == Ok(interval_s)
                && r.field_u64("executors") == Ok(executors as u64)
        })
        .ok_or(BaselineError::MissingRow)?;
    positive_field(row, "sim_batches_per_s").map_err(BaselineError::BadField)
}

/// Find the committed `field` of a single-row `section` of the report,
/// e.g. `("fleet", "fleet_epochs_per_s")`. The error says whether the
/// section is missing (a stale report) or its field is unusable.
pub fn section_baseline(committed: &Json, section: &str, field: &str) -> Result<f64, String> {
    let row = committed
        .get(section)
        .ok_or_else(|| format!("no committed {section} section"))?;
    positive_field(row, field)
}

/// `row.field` as a positive finite number, or why it is not one.
fn positive_field(row: &Json, field: &str) -> Result<f64, String> {
    match row.field_f64(field) {
        Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
        Ok(v) => Err(format!("{field} = {v} (must be a positive finite number)")),
        Err(e) => Err(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nostop_simcore::json;

    fn row(workload: &str, interval_s: f64, executors: u64, bps: f64) -> Json {
        json::obj(vec![
            ("workload", json::str(workload)),
            ("interval_s", json::num(interval_s)),
            ("executors", json::uint(executors)),
            ("sim_batches_per_s", json::num(bps)),
        ])
    }

    #[test]
    fn finds_the_matching_row() {
        let rows = vec![
            row("WordCount", 2.0, 8, 100.0),
            row("WordCount", 15.0, 8, 250.0),
        ];
        assert_eq!(engine_baseline(&rows, "WordCount", 15.0, 8), Ok(250.0));
        assert_eq!(engine_baseline(&rows, "WordCount", 2.0, 8), Ok(100.0));
    }

    #[test]
    fn missing_row_is_not_a_regression() {
        let rows = vec![row("WordCount", 15.0, 8, 250.0)];
        assert_eq!(
            engine_baseline(&rows, "PageAnalyze", 15.0, 8),
            Err(BaselineError::MissingRow)
        );
        // Same workload, different shape: still missing, not matched loosely.
        assert_eq!(
            engine_baseline(&rows, "WordCount", 40.0, 8),
            Err(BaselineError::MissingRow)
        );
        assert_eq!(
            engine_baseline(&rows, "WordCount", 15.0, 14),
            Err(BaselineError::MissingRow)
        );
    }

    #[test]
    fn unusable_throughput_field_is_its_own_error() {
        let no_field = json::obj(vec![
            ("workload", json::str("WordCount")),
            ("interval_s", json::num(15.0)),
            ("executors", json::uint(8)),
        ]);
        match engine_baseline(&[no_field], "WordCount", 15.0, 8) {
            Err(BaselineError::BadField(_)) => {}
            other => panic!("expected BadField, got {other:?}"),
        }
        let zero = vec![row("WordCount", 15.0, 8, 0.0)];
        match engine_baseline(&zero, "WordCount", 15.0, 8) {
            Err(BaselineError::BadField(msg)) => assert!(msg.contains("positive")),
            other => panic!("expected BadField, got {other:?}"),
        }
    }

    /// A report with one single-row section. `Json::Num` directly, not
    /// `json::num`, so a non-finite value reaches the baseline check.
    fn report(section: &str, field: &str, value: f64) -> Json {
        json::obj(vec![(section, json::obj(vec![(field, Json::Num(value))]))])
    }

    #[test]
    fn finds_the_section_field() {
        let committed = report("fleet", "fleet_epochs_per_s", 812.5);
        assert_eq!(
            section_baseline(&committed, "fleet", "fleet_epochs_per_s"),
            Ok(812.5)
        );
    }

    #[test]
    fn missing_section_names_the_section() {
        let committed = report("fleet", "fleet_epochs_per_s", 812.5);
        assert_eq!(
            section_baseline(&committed, "gp_fit_256", "gp_adds_per_s"),
            Err("no committed gp_fit_256 section".to_string())
        );
    }

    #[test]
    fn missing_section_field_is_an_error() {
        let committed = report("scenario", "batches", 40.0);
        let err = section_baseline(&committed, "scenario", "scenario_batches_per_s")
            .expect_err("field is absent");
        assert!(err.contains("scenario_batches_per_s"), "{err}");
    }

    #[test]
    fn non_positive_or_non_finite_section_field_is_an_error() {
        for bad in [0.0, -3.0, f64::INFINITY, f64::NAN] {
            let committed = report("gp_fit_256", "gp_adds_per_s", bad);
            match section_baseline(&committed, "gp_fit_256", "gp_adds_per_s") {
                Err(msg) => assert!(msg.contains("positive finite"), "{msg}"),
                Ok(v) => panic!("{bad} accepted as {v}"),
            }
        }
    }

    #[test]
    fn empty_report_reports_every_cell_missing() {
        assert_eq!(
            engine_baseline(&[], "WordCount", 15.0, 8),
            Err(BaselineError::MissingRow)
        );
    }
}
