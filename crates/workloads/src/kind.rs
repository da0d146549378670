//! Workload identities and their paper-given parameters.

use std::fmt;

/// The four computing workloads the paper evaluates (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Streaming Logistic Regression — iterative ML; most dynamic batch times.
    LogisticRegression,
    /// Streaming Linear Regression — iterative ML.
    LinearRegression,
    /// WordCount — CPU-bound, fixed two-operation flow; most stable.
    WordCount,
    /// Log/Page Analyze — Nginx log washing + analytics; complex but steady.
    PageAnalyze,
}

impl WorkloadKind {
    /// All four workloads, in the paper's presentation order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::LogisticRegression,
        WorkloadKind::LinearRegression,
        WorkloadKind::WordCount,
        WorkloadKind::PageAnalyze,
    ];

    /// Canonical kebab-case name (the `workload` field of a scenario spec).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::LogisticRegression => "logistic-regression",
            WorkloadKind::LinearRegression => "linear-regression",
            WorkloadKind::WordCount => "wordcount",
            WorkloadKind::PageAnalyze => "page-analyze",
        }
    }

    /// Parse from the canonical name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "logistic-regression" | "lr" => Some(WorkloadKind::LogisticRegression),
            "linear-regression" | "linreg" => Some(WorkloadKind::LinearRegression),
            "wordcount" | "wc" => Some(WorkloadKind::WordCount),
            "page-analyze" | "log-analyze" | "pa" => Some(WorkloadKind::PageAnalyze),
            _ => None,
        }
    }

    /// The input-rate range `[MinRate, MaxRate]` in records/second the paper
    /// drives each workload with (Fig. 5, §6.2.2).
    pub fn paper_rate_range(self) -> (f64, f64) {
        match self {
            WorkloadKind::LogisticRegression => (7_000.0, 13_000.0),
            WorkloadKind::LinearRegression => (80_000.0, 120_000.0),
            WorkloadKind::WordCount => (110_000.0, 190_000.0),
            WorkloadKind::PageAnalyze => (170_000.0, 230_000.0),
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::from_name("unknown"), None);
    }

    #[test]
    fn aliases_parse() {
        assert_eq!(
            WorkloadKind::from_name("lr"),
            Some(WorkloadKind::LogisticRegression)
        );
        assert_eq!(
            WorkloadKind::from_name("log-analyze"),
            Some(WorkloadKind::PageAnalyze)
        );
    }

    #[test]
    fn rate_ranges_match_fig5() {
        assert_eq!(
            WorkloadKind::LogisticRegression.paper_rate_range(),
            (7_000.0, 13_000.0)
        );
        assert_eq!(
            WorkloadKind::LinearRegression.paper_rate_range(),
            (80_000.0, 120_000.0)
        );
        assert_eq!(
            WorkloadKind::WordCount.paper_rate_range(),
            (110_000.0, 190_000.0)
        );
        assert_eq!(
            WorkloadKind::PageAnalyze.paper_rate_range(),
            (170_000.0, 230_000.0)
        );
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(WorkloadKind::WordCount.to_string(), "wordcount");
    }
}
