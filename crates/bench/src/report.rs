//! Plain-text report rendering: aligned tables and CSV blocks.
//!
//! The figure regenerators print both a human-readable table (what you
//! compare against the paper's plot) and a machine-readable CSV block
//! (what you feed to a plotting tool). No plotting dependencies: the
//! deliverable is the *numbers*. [`grid`] builds the cell list of the
//! per-workload × per-seed sweeps, and the JSON report writers share the
//! wall-time helpers at the bottom.

use nostop_simcore::json::{self, Json};
use std::fmt::Write as _;
use std::time::Instant;

/// A simple column-aligned table builder.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells.to_vec());
        self
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", cell, width = widths[i]);
                if i + 1 < cols {
                    let _ = write!(out, "  ");
                }
            }
            let _ = writeln!(out);
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
}

/// Print a titled section with a table and its CSV block.
pub fn print_section(title: &str, table: &Table) {
    println!("== {title} ==");
    println!();
    println!("{}", table.render());
    println!("--- csv ---");
    println!("{}", table.to_csv());
}

/// Format a float with fixed decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// The sum/len mean of `xs`, NaN when there are none, so an empty
/// sample never reads as a measured 0.
pub fn mean_or_nan(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        f64::NAN
    } else {
        nostop_simcore::stats::mean(xs)
    }
}

/// Format a `mean ± std` cell.
pub fn pm(mean: f64, std: f64, decimals: usize) -> String {
    format!("{mean:.decimals$} ± {std:.decimals$}")
}

/// The full experiment grid for per-workload × per-seed protocols: one
/// cell per `(workload, seed)` pair, workloads outermost.
pub fn grid<K: Copy, S: Copy>(kinds: &[K], seeds: &[S]) -> Vec<(K, S)> {
    let mut cells = Vec::with_capacity(kinds.len() * seeds.len());
    for &k in kinds {
        for &s in seeds {
            cells.push((k, s));
        }
    }
    cells
}

/// Repeat count for wall-time measurement: `NOSTOP_PERF_REPEATS`
/// (clamped ≥ 1), else `default`. Deterministic outputs are asserted
/// identical across repeats and the best (lowest) wall time is kept.
pub fn repeats(default: usize) -> usize {
    std::env::var("NOSTOP_PERF_REPEATS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// Run `run` `repeats` times (at least once) and keep the best (lowest)
/// wall time in milliseconds, returned with the last run's value. The
/// work is deterministic, so every repeat must agree on `key`; a repeat
/// that does not panics with "`what` changed between repeats".
pub fn best_of<T, K>(
    repeats: usize,
    what: &str,
    mut run: impl FnMut() -> T,
    key: impl Fn(&T) -> K,
) -> (T, f64)
where
    K: PartialEq + std::fmt::Debug,
{
    let mut best_wall = f64::INFINITY;
    let mut kept: Option<(T, K)> = None;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        let out = run();
        best_wall = best_wall.min(start.elapsed().as_secs_f64() * 1e3);
        let k = key(&out);
        if let Some((_, prev)) = &kept {
            assert_eq!(prev, &k, "{what} changed between repeats");
        }
        kept = Some((out, k));
    }
    let (out, _) = kept.expect("at least one repeat");
    (out, best_wall)
}

/// The file copy of a report row: the stdout row plus its best wall time,
/// which is host-dependent and so never printed to stdout.
pub fn with_wall(row: &Json, wall_ms: f64) -> Json {
    let mut r = row.clone();
    if let Json::Obj(fields) = &mut r {
        fields.push(("wall_ms".to_string(), json::num(wall_ms)));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer-name".into(), "2.5".into()]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // All data lines have the value column starting at the same offset.
        let off2 = lines[2].find('1').unwrap();
        let off3 = lines[3].find("2.5").unwrap();
        assert_eq!(off2, off3);
    }

    #[test]
    fn csv_is_plain() {
        let mut t = Table::new(&["x", "y"]);
        t.row(&["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.23456, 2), "1.23");
        assert_eq!(pm(10.0, 1.5, 1), "10.0 ± 1.5");
    }

    #[test]
    fn grid_is_workload_major() {
        let g = grid(&['a', 'b'], &[1, 2, 3]);
        assert_eq!(
            g,
            vec![('a', 1), ('a', 2), ('a', 3), ('b', 1), ('b', 2), ('b', 3)]
        );
    }

    #[test]
    fn best_of_keeps_the_lowest_wall_time() {
        let sleeps_ms = [60, 2, 60];
        let mut i = 0;
        let (last, best) = best_of(
            sleeps_ms.len(),
            "sleep",
            || {
                std::thread::sleep(std::time::Duration::from_millis(sleeps_ms[i]));
                i += 1;
                i
            },
            |_| (),
        );
        assert_eq!(last, sleeps_ms.len());
        assert!((2.0..60.0).contains(&best), "best wall {best} ms");
    }

    #[test]
    #[should_panic(expected = "counter changed between repeats")]
    fn best_of_panics_when_repeats_disagree() {
        let mut n = 0u64;
        best_of(
            2,
            "counter",
            || {
                n += 1;
                n
            },
            |&v| v,
        );
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn row_width_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".into()]);
    }
}
