//! A self-contained, offline drop-in for the subset of the `criterion`
//! benchmarking API this workspace uses.
//!
//! The real `criterion` crate lives on crates.io; this environment builds
//! hermetically with no registry access, so the workspace ships the slice
//! its benches exercise: [`Criterion::benchmark_group`] with
//! [`Throughput`], [`Bencher::iter`], [`Bencher::iter_batched`] with
//! [`BatchSize`], and the [`criterion_group!`] / [`criterion_main!`]
//! macros.
//!
//! Measurement is honest but simple: each benchmark warms up for
//! ~100 ms, then measures wall-clock time for ~400 ms (tunable with
//! `CRITERION_MEASURE_MS`) and reports the mean time per iteration plus
//! derived throughput. There is no statistical machinery — the numbers
//! are for regression *trajectories*, not microsecond-level claims.

use std::time::{Duration, Instant};

/// Prevent the optimizer from deleting a benchmarked computation.
pub use std::hint::black_box;

fn measure_budget() -> Duration {
    let ms = std::env::var("CRITERION_MEASURE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400u64);
    Duration::from_millis(ms)
}

fn warmup_budget() -> Duration {
    measure_budget() / 4
}

/// Units for derived throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The routine processes this many logical elements per iteration.
    Elements(u64),
    /// The routine processes this many bytes per iteration.
    Bytes(u64),
}

/// How batched inputs are grouped. The shim times each routine call
/// individually, so the grouping never changes the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs are cheap to hold; criterion would batch many per allocation.
    SmallInput,
}

/// One benchmark's measured result.
#[derive(Debug, Clone, Copy)]
struct Sample {
    total: Duration,
    iters: u64,
}

impl Sample {
    fn ns_per_iter(&self) -> f64 {
        self.total.as_nanos() as f64 / self.iters.max(1) as f64
    }
}

/// The timing harness handed to each benchmark closure.
pub struct Bencher {
    sample: Option<Sample>,
}

impl Bencher {
    fn new() -> Self {
        Bencher { sample: None }
    }

    /// Time `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let warmup = warmup_budget();
        let start = Instant::now();
        let mut warm_iters = 0u64;
        while start.elapsed() < warmup || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
        }
        // Size inner batches to ~1 ms so Instant overhead stays negligible
        // even for nanosecond-scale routines.
        let per_iter = start.elapsed().as_nanos() as u64 / warm_iters;
        let batch = (1_000_000 / per_iter.max(1)).clamp(1, 1_000_000);
        let budget = measure_budget();
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        while total < budget {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            total += t.elapsed();
            iters += batch;
        }
        self.sample = Some(Sample { total, iters });
    }

    /// Time `routine` over fresh inputs from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let warmup = warmup_budget();
        let start = Instant::now();
        let mut warmed = false;
        while start.elapsed() < warmup || !warmed {
            let input = setup();
            black_box(routine(input));
            warmed = true;
        }
        let budget = measure_budget();
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        while total < budget {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            total += t.elapsed();
            iters += 1;
        }
        self.sample = Some(Sample { total, iters });
    }
}

/// The top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Read the benchmark-name filter from the command line (the first
    /// non-flag argument, as `cargo bench -- <filter>` passes it).
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args()
            .skip(1)
            .find(|a| !a.starts_with('-') && !a.ends_with(".rs"));
        self
    }

    fn matches(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Start a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }
}

fn run_one<R: FnMut(&mut Bencher)>(
    c: &Criterion,
    name: &str,
    throughput: Option<Throughput>,
    mut routine: R,
) {
    if !c.matches(name) {
        return;
    }
    let mut b = Bencher::new();
    routine(&mut b);
    let Some(sample) = b.sample else {
        println!("{name:<50} (no measurement recorded)");
        return;
    };
    let ns = sample.ns_per_iter();
    let time = if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.3} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    };
    let thrpt = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  thrpt: {:>12.1} elem/s", n as f64 * 1e9 / ns)
        }
        Some(Throughput::Bytes(n)) => {
            format!("  thrpt: {:>12.1} B/s", n as f64 * 1e9 / ns)
        }
        None => String::new(),
    };
    println!(
        "{name:<50} time: {time:>12}/iter  ({} iters){thrpt}",
        sample.iters
    );
}

/// A group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the throughput used to derive rates for subsequent benches.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<R>(&mut self, id: impl Into<String>, routine: R) -> &mut Self
    where
        R: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.into());
        run_one(self.criterion, &full, self.throughput, routine);
        self
    }

    /// Finish the group (a no-op; exists for API parity).
    pub fn finish(self) {}
}

/// Bundle benchmark functions into a single runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Generate `main` for a benchmark binary built with `harness = false`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_something() {
        std::env::set_var("CRITERION_MEASURE_MS", "20");
        let mut b = Bencher::new();
        b.iter(|| black_box(41u64) + 1);
        let s = b.sample.expect("sample recorded");
        assert!(s.iters > 0);
        assert!(s.total > Duration::ZERO);
    }

    #[test]
    fn iter_batched_excludes_setup() {
        std::env::set_var("CRITERION_MEASURE_MS", "20");
        let mut b = Bencher::new();
        b.iter_batched(
            || vec![1u64; 64],
            |v| v.iter().sum::<u64>(),
            BatchSize::SmallInput,
        );
        assert!(b.sample.expect("sample").iters > 0);
    }

    #[test]
    fn filter_matches_substrings() {
        let c = Criterion {
            filter: Some("engine".into()),
        };
        assert!(c.matches("engine_batches/word_count"));
        assert!(!c.matches("controller/propose"));
        let open = Criterion { filter: None };
        assert!(open.matches("anything"));
    }
}
