//! The comparator behind `perf_report --smoke`.
//!
//! The smoke guard re-measures the report's gated rows with the full
//! run's own row builders and compares each row's throughput field with
//! the number committed in `BENCH_perf.json`. A row is *ok* at or above
//! [`SMOKE_FLOOR`] × the committed value and *regressed* below it. It is
//! *stale* when the committed report cannot price it: the section or row
//! is missing, or its field is absent, non-positive or non-finite. Stale
//! is not a regression (nothing got slower; the committed report must be
//! regenerated), so CI output says which action to take.

use nostop_simcore::json::Json;

/// Throughput floor: a row below this share of its committed value has
/// regressed.
pub const SMOKE_FLOOR: f64 = 0.75;

/// A gated throughput field of the report.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// The report section: an array of rows, or a single row.
    pub section: &'static str,
    /// The fields that identify a row of an array section.
    pub keys: &'static [&'static str],
    /// The throughput field compared (higher is better).
    pub field: &'static str,
}

/// The verdict on one re-measured row.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// At or above the floor: `(fresh, committed)`.
    Ok(f64, f64),
    /// Below the floor: `(fresh, committed)`.
    Regressed(f64, f64),
    /// The committed report has no usable value for the row, and why.
    Stale(String),
}

/// One re-measured row and its verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The section and the row's key values, e.g. `engine_matrix WordCount 15 8`.
    pub label: String,
    /// The verdict.
    pub verdict: Verdict,
}

impl Gate {
    /// A gate on a single-row section.
    pub const fn single(section: &'static str, field: &'static str) -> Gate {
        Gate {
            section,
            keys: &[],
            field,
        }
    }

    /// Check every row of a freshly measured `section` (one row, or an
    /// array of rows) against the `committed` report.
    pub fn check(&self, committed: &Json, section: &Json) -> Vec<Check> {
        let rows = match section {
            Json::Arr(rows) => rows.as_slice(),
            row => std::slice::from_ref(row),
        };
        rows.iter()
            .map(|row| Check {
                label: self.label(row),
                verdict: self.verdict(committed, row),
            })
            .collect()
    }

    fn label(&self, row: &Json) -> String {
        let mut label = self.section.to_string();
        for value in self.keys.iter().filter_map(|&key| row.get(key)) {
            label.push(' ');
            match value {
                Json::Str(s) => label.push_str(s),
                other => label.push_str(&other.to_string()),
            }
        }
        label
    }

    fn verdict(&self, committed: &Json, row: &Json) -> Verdict {
        let fresh = row
            .field_f64(self.field)
            .expect("a re-measured row carries its gated field");
        match self.baseline(committed, row) {
            Err(why) => Verdict::Stale(why),
            Ok(base) if fresh / base >= SMOKE_FLOOR => Verdict::Ok(fresh, base),
            Ok(base) => Verdict::Regressed(fresh, base),
        }
    }

    /// The committed value for `row`: the section's row whose key fields
    /// equal `row`'s, as a positive finite number, or why there is none.
    fn baseline(&self, committed: &Json, row: &Json) -> Result<f64, String> {
        let section = committed
            .get(self.section)
            .ok_or_else(|| format!("no committed {} section", self.section))?;
        let base = match section {
            Json::Arr(rows) => rows
                .iter()
                .find(|r| self.keys.iter().all(|&key| r.get(key) == row.get(key)))
                .ok_or_else(|| "no committed row for this cell".to_string())?,
            single => single,
        };
        match base.field_f64(self.field) {
            Ok(v) if v > 0.0 && v.is_finite() => Ok(v),
            Ok(v) => Err(format!(
                "{} = {v} (must be a positive finite number)",
                self.field
            )),
            Err(e) => Err(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nostop_simcore::json;

    const ENGINE: Gate = Gate {
        section: "engine_matrix",
        keys: &["workload", "interval_s", "executors"],
        field: "sim_batches_per_s",
    };
    const FLEET: Gate = Gate::single("fleet", "fleet_epochs_per_s");

    /// An engine row. `Json::Num` directly, not `json::num`, so a
    /// non-finite value reaches the baseline check.
    fn row(workload: &str, interval_s: f64, executors: u64, bps: f64) -> Json {
        json::obj(vec![
            ("workload", json::str(workload)),
            ("interval_s", json::num(interval_s)),
            ("executors", json::uint(executors)),
            ("sim_batches_per_s", Json::Num(bps)),
        ])
    }

    fn report(section: &str, value: Json) -> Json {
        json::obj(vec![(section, value)])
    }

    fn matrix(rows: Vec<Json>) -> Json {
        report("engine_matrix", Json::Arr(rows))
    }

    fn fleet(eps: f64) -> Json {
        json::obj(vec![("fleet_epochs_per_s", Json::Num(eps))])
    }

    /// The verdict on one re-measured row.
    fn verdict(gate: Gate, committed: &Json, fresh: Json) -> Verdict {
        let checks = gate.check(committed, &fresh);
        assert_eq!(checks.len(), 1);
        checks[0].verdict.clone()
    }

    fn assert_stale(v: Verdict, needle: &str) {
        assert!(
            matches!(&v, Verdict::Stale(why) if why.contains(needle)),
            "{v:?} is not stale with `{needle}`"
        );
    }

    #[test]
    fn engine_row_matches_only_on_workload_interval_and_executors() {
        let committed = matrix(vec![
            row("WordCount", 2.0, 8, 100.0),
            row("WordCount", 15.0, 8, 250.0),
        ]);
        let fresh = Json::Arr(vec![
            row("WordCount", 15.0, 8, 250.0),
            row("WordCount", 2.0, 8, 100.0),
            row("PageAnalyze", 15.0, 8, 250.0),
            row("WordCount", 40.0, 8, 250.0),
            row("WordCount", 15.0, 14, 250.0),
        ]);
        let checks = ENGINE.check(&committed, &fresh);
        assert_eq!(checks[0].label, "engine_matrix WordCount 15 8");
        assert_eq!(checks[0].verdict, Verdict::Ok(250.0, 250.0));
        assert_eq!(checks[1].verdict, Verdict::Ok(100.0, 100.0));
        // Same workload, different shape: stale, not matched loosely.
        for check in &checks[2..] {
            assert_stale(check.verdict.clone(), "no committed row");
        }
    }

    #[test]
    fn missing_row_or_section_is_stale_not_a_regression() {
        let empty = matrix(vec![]);
        let fresh = || row("WordCount", 15.0, 8, 1.0);
        assert_stale(verdict(ENGINE, &empty, fresh()), "no committed row");
        let fleet_only = report("fleet", fleet(812.5));
        assert_stale(
            verdict(ENGINE, &fleet_only, fresh()),
            "no committed engine_matrix section",
        );
        assert_stale(
            verdict(FLEET, &empty, fleet(1.0)),
            "no committed fleet section",
        );
    }

    #[test]
    fn absent_zero_negative_or_non_finite_committed_field_is_unusable() {
        let no_field = json::obj(vec![
            ("workload", json::str("WordCount")),
            ("interval_s", json::num(15.0)),
            ("executors", json::uint(8)),
        ]);
        let committed = matrix(vec![no_field]);
        let fresh = || row("WordCount", 15.0, 8, 1.0);
        assert_stale(verdict(ENGINE, &committed, fresh()), "sim_batches_per_s");
        assert_stale(
            verdict(FLEET, &report("fleet", json::obj(vec![])), fleet(1.0)),
            "fleet_epochs_per_s",
        );
        for bad in [0.0, -3.0, f64::INFINITY, f64::NAN] {
            let committed = matrix(vec![row("WordCount", 15.0, 8, bad)]);
            assert_stale(verdict(ENGINE, &committed, fresh()), "positive finite");
            let committed = report("fleet", fleet(bad));
            assert_stale(verdict(FLEET, &committed, fleet(1.0)), "positive finite");
        }
    }

    #[test]
    fn a_ratio_below_the_floor_is_a_regression() {
        let committed = report("fleet", fleet(100.0));
        assert_eq!(
            verdict(FLEET, &committed, fleet(74.0)),
            Verdict::Regressed(74.0, 100.0)
        );
        assert!(matches!(
            verdict(FLEET, &committed, fleet(75.0)),
            Verdict::Ok(..)
        ));
    }
}
