//! Shared simulation primitives for the NoStop reproduction.
//!
//! This crate provides the foundational machinery that every other crate in
//! the workspace builds on:
//!
//! * [`time`] — a microsecond-resolution virtual clock ([`SimTime`],
//!   [`SimDuration`]) so that hours of streaming execution simulate in
//!   milliseconds, deterministically.
//! * [`rng`] — a seedable random source ([`SimRng`]) with the distributions
//!   the simulator and the SPSA optimizer need (normal via Box–Muller,
//!   log-normal, exponential, symmetric Bernoulli ±1), plus deterministic
//!   stream forking so independent subsystems draw from independent streams.
//! * [`stats`] — sample-set ([`stats::summarize`]) and windowed
//!   statistics used by the NoStop pause/reset policies and the
//!   experiment reports.
//! * [`round`] — [`floor_split`] and [`round_half_up`], the libm-free
//!   float-to-integer splits the ingest and scheduling hot paths use, and
//!   [`carry_run`], the closed form of a run of ingest carry steps.
//! * [`probe_mode`] — the one switch that sends every fast path down its
//!   exact reference path, and [`fnv1a64`], the replay fingerprint.
//!
//! Everything here is `no_std`-agnostic in spirit (no I/O beyond the
//! `NOSTOP_PROBE` read, no wall-clock), which is what
//! makes the experiments reproducible bit-for-bit from a seed.

pub mod arena;
pub mod json;
pub mod rng;
pub mod round;
pub mod stats;
pub mod time;

pub use arena::Arena;
pub use json::Json;
pub use rng::SimRng;
pub use round::{carry_run, floor_split, round_half_up};
pub use stats::{RollingStats, Summary};
pub use time::{SimDuration, SimTime};

/// True iff `NOSTOP_PROBE=1`. Every fast path — the engine's superbatch
/// closed form, sparse fleet stepping and the incremental GP — then keeps
/// running its classifiers, quiet checks and engagement counters but uses
/// the exact reference result. Outputs are bit-identical either way, which
/// is what CI diffs. Per-path selection goes through each path's API
/// toggle (`EngineParams::superbatch`, `FleetSim::set_fastpath`,
/// `GaussianProcess::with_incremental`), never through the environment.
pub fn probe_mode() -> bool {
    std::env::var_os("NOSTOP_PROBE").is_some_and(|v| v == "1")
}

/// FNV-1a, 64-bit — the workspace's replay fingerprint (fleet and
/// scenario-corpus digests). Tiny, dependency-free, stable across
/// platforms.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::fnv1a64;

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"nostop"), fnv1a64(b"nostop"));
        assert_ne!(fnv1a64(b"nostop"), fnv1a64(b"nostop "));
    }
}
