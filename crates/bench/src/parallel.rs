//! The parallel experiment fabric.
//!
//! Every figure regenerator runs a grid of independent experiment cells —
//! `(workload, seed)` pairs, ablation arms, repeat indices — where each
//! cell builds its own simulated system from its own seed and shares no
//! state with any other cell. That independence makes the grid trivially
//! parallel: [`map_cells`] fans the cells out over a worker pool of scoped
//! threads and merges results *by cell index*, so the output is
//! byte-identical to a serial run no matter how many workers raced.
//!
//! The pool size comes from the `NOSTOP_JOBS` environment variable,
//! defaulting to the machine's available parallelism. `NOSTOP_JOBS=1`
//! short-circuits to a plain serial loop (no threads spawned) — the
//! determinism regression tests diff that against `NOSTOP_JOBS=8`.
//!
//! Only `std` is used: `thread::scope` for borrowing the cell slice and
//! the closure without `'static` bounds, an atomic cursor for work
//! stealing, and one mutex per result slot.

use nostop_simcore::jobs_env;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Worker count: `NOSTOP_JOBS` if set (see [`jobs_env`]), else the
/// machine's available parallelism, else 1.
pub fn jobs() -> usize {
    jobs_env().unwrap_or_else(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Apply `f` to every cell and return the results in cell order.
///
/// `f` must be deterministic per cell (build all randomness from the
/// cell's own seeds); under that contract the returned vector — and hence
/// any report printed from it — is identical for every worker count.
/// Panics in `f` propagate once all workers have stopped.
pub fn map_cells<I, O, F>(cells: &[I], f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    // Equal weights keep the pull order at cell order.
    map_cells_weighted(cells, |_| 0.0, f)
}

/// [`map_cells`], but with longest-estimated-first scheduling.
///
/// `weight` estimates each cell's cost (any consistent unit — the drivers
/// use the cost model's `estimate_processing_secs`). Workers pull cells in
/// descending weight order, so the heaviest cell starts first instead of
/// landing on an almost-drained pool and serializing the tail (the classic
/// LPT heuristic). Results are still merged by cell index, so the output
/// is byte-identical to [`map_cells`] and to a serial run; only wall-clock
/// utilization changes. Ties keep cell order, making the pull order fully
/// deterministic.
pub fn map_cells_weighted<I, O, F, W>(cells: &[I], weight: W, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
    W: Fn(&I) -> f64,
{
    let n = cells.len();
    let workers = jobs().min(n);
    if workers <= 1 {
        return cells.iter().map(&f).collect();
    }
    let weights: Vec<f64> = cells.iter().map(&weight).collect();
    let mut order: Vec<usize> = (0..n).collect();
    // `total_cmp` keeps the comparator a true total order even if a weight
    // estimate comes back NaN (such cells sort as "heaviest").
    order.sort_by(|&a, &b| weights[b].total_cmp(&weights[a]).then(a.cmp(&b)));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let rank = cursor.fetch_add(1, Ordering::Relaxed);
                if rank >= n {
                    break;
                }
                let i = order[rank];
                let out = f(&cells[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every cell below the cursor was computed")
        })
        .collect()
}

/// The full experiment grid for per-workload × per-seed protocols: one
/// cell per `(workload, seed)` pair, workloads outermost — the iteration
/// order every figure binary already used serially.
pub fn grid<K: Copy, S: Copy>(kinds: &[K], seeds: &[S]) -> Vec<(K, S)> {
    let mut cells = Vec::with_capacity(kinds.len() * seeds.len());
    for &k in kinds {
        for &s in seeds {
            cells.push((k, s));
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_cell_order() {
        let cells: Vec<usize> = (0..64).collect();
        let out = map_cells(&cells, |&i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        // Simulate work of uneven duration so workers finish out of order.
        let cells: Vec<u64> = (0..40).collect();
        let slow = |&i: &u64| {
            let mut acc = i;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        };
        let serial: Vec<_> = cells.iter().map(slow).collect();
        let parallel = map_cells(&cells, slow);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn weighted_map_matches_serial_output() {
        let cells: Vec<u64> = (0..40).collect();
        let slow = |&i: &u64| {
            let mut acc = i;
            for _ in 0..(i % 7) * 1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (i, acc)
        };
        let serial: Vec<_> = cells.iter().map(slow).collect();
        // Weight deliberately disagrees with the cell order (and has ties)
        // so the pull order differs from the index order.
        let weighted = map_cells_weighted(&cells, |&i| (i % 7) as f64, slow);
        assert_eq!(serial, weighted);
    }

    #[test]
    fn weighted_map_tolerates_nan_weights() {
        let cells: Vec<u64> = (0..8).collect();
        let out = map_cells_weighted(&cells, |&i| if i % 2 == 0 { f64::NAN } else { 1.0 }, |&i| i);
        assert_eq!(out, cells);
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
    fn empty_grid_is_fine() {
        let out: Vec<u8> = map_cells(&Vec::<u8>::new(), |_| unreachable!());
        assert!(out.is_empty());
    }
}
