//! Ablation — the input-rate reset rule (§5.5).
//!
//! Scenario: streaming linear regression converges under its normal rate,
//! then a 2× surge hits (the e-commerce promotion). With the reset rule,
//! NoStop
//! restarts the optimization with fresh (large) gains and re-converges;
//! without it, the late-k gain sequence is so small that the controller
//! crawls toward the new optimum. The binary reports the delay evolution
//! after the surge under both variants.
//!
//! Each `(variant, seed)` pair is an independent cell on the
//! [`nostop_bench::parallel`] fabric; per-seed outcomes merge in grid
//! order so the table is identical for any `NOSTOP_JOBS`.

use nostop_bench::driver::{make_system, nostop_config, surge_rate};
use nostop_bench::parallel::{grid, map_cells};
use nostop_bench::report::{f, mean_or_nan, print_section, Table};
use nostop_core::controller::NoStop;
use nostop_core::trace::RoundKind;
use nostop_simcore::stats::summarize;
use nostop_workloads::WorkloadKind;

const KIND: WorkloadKind = WorkloadKind::LinearRegression;
const SEEDS: [u64; 3] = [3, 13, 23];
const SURGE_ONSET_S: f64 = 4_000.0;
const SURGE_MAGNITUDE: f64 = 2.0;
const SURGE_SECS: f64 = 100_000.0; // effectively permanent regime change
const ROUNDS: u64 = 130;

struct Outcome {
    resets: usize,
    post_surge_stable_frac: f64,
    post_surge_tail_delay: f64,
    /// Virtual seconds from surge onset to the first clean converged
    /// observation (paused, queue drained) — the recovery time.
    recovery_s: Option<f64>,
}

fn run(with_reset: bool, with_wake: bool, seed: u64) -> Outcome {
    let mut cfg = nostop_config(KIND);
    if !with_reset {
        // Effectively disable the rule (both detectors).
        cfg.reset_threshold_speed = f64::MAX / 4.0;
        cfg.reset_relative = false;
        cfg.reset_level_fraction = None;
    }
    if !with_wake {
        // A paused controller that never wakes — no adaptation mechanism
        // at all once converged (the regime the paper's §5.5 motivation
        // describes).
        cfg.unpause_instability_factor = f64::MAX / 4.0;
    }
    let rate = surge_rate(
        KIND,
        seed ^ 0x5E7,
        SURGE_MAGNITUDE,
        SURGE_ONSET_S,
        SURGE_SECS,
    );
    let mut sys = make_system(KIND, seed, rate);
    let mut ns = NoStop::new(cfg, seed);
    ns.run(&mut sys, ROUNDS);

    let mut stable = 0usize;
    let mut total = 0usize;
    let mut tail = Vec::new();
    let mut recovery_s = None;
    for r in &ns.trace().rounds {
        if r.t_s < SURGE_ONSET_S + 500.0 {
            continue; // pre-surge and immediate transient
        }
        for m in r.measurements() {
            total += 1;
            stable += usize::from(m.is_stable());
        }
        if let RoundKind::Paused { observed } = &r.kind {
            tail.push(observed.end_to_end_s);
            if recovery_s.is_none() && observed.scheduling_delay_s < 0.5 * observed.interval_s {
                recovery_s = Some(r.t_s - SURGE_ONSET_S);
            }
        }
    }
    let last: Vec<f64> = tail.iter().rev().take(8).copied().collect();
    Outcome {
        recovery_s,
        resets: ns.trace().resets(),
        post_surge_stable_frac: if total == 0 {
            0.0
        } else {
            stable as f64 / total as f64
        },
        post_surge_tail_delay: mean_or_nan(&last),
    }
}

fn main() {
    const VARIANTS: [(&str, bool, bool); 4] = [
        ("reset + wake (default)", true, true),
        ("wake only", false, true),
        ("reset only", true, false),
        ("neither (frozen pause)", false, false),
    ];
    let arms: Vec<(bool, bool)> = VARIANTS.iter().map(|&(_, r, w)| (r, w)).collect();
    let cells = grid(&arms, &SEEDS);
    let results = map_cells(&cells, |&((with_reset, with_wake), seed)| {
        run(with_reset, with_wake, seed)
    });

    let mut table = Table::new(&[
        "variant",
        "resets fired",
        "post-surge stable frac",
        "recovery time_s",
        "post-surge converged delay_s",
    ]);
    for (v, &(name, _, _)) in VARIANTS.iter().enumerate() {
        let per_seed = &results[v * SEEDS.len()..(v + 1) * SEEDS.len()];
        let mut resets = 0;
        let mut fracs = Vec::new();
        let mut delays = Vec::new();
        let mut recoveries = Vec::new();
        for o in per_seed {
            resets += o.resets;
            fracs.push(o.post_surge_stable_frac);
            if o.post_surge_tail_delay.is_finite() {
                delays.push(o.post_surge_tail_delay);
            }
            if let Some(rec) = o.recovery_s {
                recoveries.push(rec);
            }
        }
        let fr = summarize(&fracs);
        let dl = summarize(&delays);
        let rc = summarize(&recoveries);
        table.row(&[
            name.to_string(),
            resets.to_string(),
            f(fr.mean, 2),
            if recoveries.is_empty() {
                "never".into()
            } else {
                format!(
                    "{} ({}/{} runs)",
                    f(rc.mean, 0),
                    recoveries.len(),
                    SEEDS.len()
                )
            },
            if delays.is_empty() {
                "never re-converged".into()
            } else {
                f(dl.mean, 1)
            },
        ]);
    }
    print_section(
        "Ablation §5.5: reset rule under a 2x permanent surge \
         (linear regression, 3 seeds, 130 rounds)",
        &table,
    );
    println!(
        "with neither mechanism the controller stays parked at the stale \
         pre-surge optimum forever — the §5.5 catastrophe. Either detector \
         recovers; for this moderate (2x) surge the local wake path is the \
         gentler restart, while the reset rule remains the only trigger \
         when the shift happens mid-optimization or moves the optimum far."
    );
}
