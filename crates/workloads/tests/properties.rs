//! Property-based tests for the workload cost models.

use nostop_simcore::SimRng;
use nostop_workloads::{CostModel, WorkloadKind};
use proptest::prelude::*;

proptest! {
    #[test]
    fn cost_estimate_is_monotone_in_records_and_antitone_in_waves(
        records in 1_000u64..5_000_000,
        executors in 1u32..24,
        tasks in 1u32..200,
    ) {
        let m = CostModel::preset(WorkloadKind::WordCount);
        let base = m.estimate_processing_secs(records, executors, tasks);
        prop_assert!(base.is_finite() && base > 0.0);
        // More records never speed things up.
        let more = m.estimate_processing_secs(records * 2, executors, tasks);
        prop_assert!(more >= base - 1e-9);
        // Doubling executors never *increases* the wave count's
        // contribution beyond the management overhead it adds; the total
        // may go either way, but with overhead subtracted the parallel
        // part must not grow.
        let e2 = (executors * 2).min(200);
        let with_more_exec = m.estimate_processing_secs(records, e2, tasks);
        let mgmt_delta = m.mgmt_per_executor_us * (e2 - executors) as f64 / 1e6;
        prop_assert!(with_more_exec - mgmt_delta <= base + 1e-9);
    }

    #[test]
    fn sampled_stages_always_within_declared_range(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        for kind in WorkloadKind::ALL {
            let m = CostModel::preset(kind);
            for _ in 0..20 {
                let s = m.sample_stages(&mut rng);
                prop_assert!(s >= m.iter_range.0 && s <= m.iter_range.1.max(m.stages_fixed));
                prop_assert!(s >= 1);
            }
        }
    }
}
