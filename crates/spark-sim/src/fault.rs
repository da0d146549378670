//! Deterministic fault injection: crashes, stragglers, outages, retries.
//!
//! Real Spark clusters lose executors, develop stragglers, and drop
//! receiver connections — exactly the regime where an online tuner must
//! not destabilize. Those events are declared as data: a [`FaultPlan`] is
//! a validated schedule of [`FaultEvent`]s — the one fault type, defined
//! in `nostop_core::scenario` and shared with the scenario format — that
//! the engine replays off its own DES clock, drawing any randomness (crash
//! victims, per-task failure coin flips) from a dedicated fork of the
//! engine seed. The determinism contract is therefore the same as the
//! rest of the simulator: the same `(params, config, rate, seed, plan)`
//! tuple replays bit-for-bit, and an empty plan is byte-identical to a
//! build without the fault layer.
//!
//! How the engine treats each kind:
//!
//! * **point events** — [`FaultEvent::ExecutorCrash`] (with an optional
//!   relaunch timer) interrupts the run loop as a first-class DES event,
//!   processed before job completions and batch cuts at equal times;
//! * **window events** — [`FaultEvent::NodeSlowdown`],
//!   [`FaultEvent::ReceiverOutage`], and [`FaultEvent::TaskFailures`]
//!   declare intervals that the scheduler and ingest path consult lazily,
//!   costing nothing while no window is active; a failing task is re-run
//!   up to [`FaultPlan::max_task_retries`] times, each re-run paying
//!   [`RETRY_OVERHEAD`].

use nostop_core::scenario::FaultEvent;
use nostop_simcore::{SimDuration, SimRng, SimTime};

/// A validated fault schedule plus the task-retry policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Re-runs allowed per failing task before it is forced through
    /// (Spark's `spark.task.maxFailures = 4` allows 3 re-runs; a job
    /// whose task exhausts them aborts in real Spark — here the final
    /// attempt succeeds, a bounded-penalty model that keeps the stream
    /// alive and charges the full retry cost instead).
    pub max_task_retries: u32,
}

/// Scheduling overhead added per task re-run.
pub const RETRY_OVERHEAD: SimDuration = SimDuration::from_millis(100);

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: no faults, byte-identical traces to a fault-free
    /// engine.
    pub fn none() -> Self {
        FaultPlan {
            events: Vec::new(),
            max_task_retries: 3,
        }
    }

    /// A validated plan over `events`. Panics with
    /// [`FaultEvent::validate`]'s message on a malformed event (an empty
    /// window, a zero crash count, a probability outside `[0, 1)`);
    /// scenario files reach the engine already validated.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        for e in &events {
            if let Err(defect) = e.validate() {
                panic!("{defect}");
            }
        }
        FaultPlan {
            events,
            ..FaultPlan::none()
        }
    }

    /// Override the per-task retry bound.
    pub fn with_max_task_retries(mut self, retries: u32) -> Self {
        self.max_task_retries = retries;
        self
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// True when any receiver-outage window is declared (the ingest path
    /// takes a fast path otherwise).
    pub fn has_outages(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, FaultEvent::ReceiverOutage { .. }))
    }
}

/// A pending point event inside [`FaultState`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultTimer {
    /// An [`FaultEvent::ExecutorCrash`] firing.
    Crash {
        /// Executors to kill.
        count: u32,
        /// Relaunch delay carried from the event.
        relaunch_after: Option<SimDuration>,
    },
    /// A deferred relaunch restoring the executor target.
    Relaunch,
}

/// Runtime state of a plan: the pending point-event timeline plus lazy
/// window queries. Owned by the engine; all methods are pure functions of
/// the plan and the timers, so cloning an engine clones its fault future.
#[derive(Debug, Clone)]
pub struct FaultState {
    plan: FaultPlan,
    /// Pending point events, sorted by time ascending; ties keep
    /// insertion order (crashes from the plan before relaunches scheduled
    /// later), so the timeline is deterministic.
    timers: Vec<(SimTime, FaultTimer)>,
    /// Cached "any slowdown window in the plan" flag, so the scheduler's
    /// per-task path can skip [`FaultState::slowdown_factor`] entirely on
    /// plans without one (the call would return exactly 1.0).
    has_slowdowns: bool,
    /// Same for task-failure windows: without one,
    /// [`FaultState::task_failure_probability`] is identically 0.0.
    has_failures: bool,
}

impl FaultState {
    /// Arm the point events of `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let has_slowdowns = plan
            .events()
            .iter()
            .any(|e| matches!(e, FaultEvent::NodeSlowdown { .. }));
        let has_failures = plan
            .events()
            .iter()
            .any(|e| matches!(e, FaultEvent::TaskFailures { .. }));
        let mut state = FaultState {
            timers: Vec::new(),
            plan,
            has_slowdowns,
            has_failures,
        };
        // Borrow dance: collect first, then push (push needs &mut self).
        let crashes: Vec<(SimTime, FaultTimer)> = state
            .plan
            .events()
            .iter()
            .filter_map(|e| {
                let FaultEvent::ExecutorCrash {
                    at,
                    count,
                    relaunch_after,
                } = *e
                else {
                    return None;
                };
                Some((
                    at,
                    FaultTimer::Crash {
                        count,
                        relaunch_after,
                    },
                ))
            })
            .collect();
        for (at, t) in crashes {
            state.push_timer(at, t);
        }
        state
    }

    /// The plan behind this state.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when the plan declares any node-slowdown window; when false,
    /// [`FaultState::slowdown_factor`] is identically 1.0 and callers may
    /// skip it bit-identically.
    pub fn has_slowdowns(&self) -> bool {
        self.has_slowdowns
    }

    /// True when the plan declares any task-failure window; when false,
    /// [`FaultState::task_failure_probability`] is identically 0.0 and
    /// callers may skip it (and its retry draws) bit-identically.
    pub fn has_task_failures(&self) -> bool {
        self.has_failures
    }

    /// When the next point event fires ([`SimTime::MAX`] if none pend).
    pub fn next_timer_at(&self) -> SimTime {
        self.timers
            .first()
            .map(|(at, _)| *at)
            .unwrap_or(SimTime::MAX)
    }

    /// Pop the next pending point event.
    pub fn pop_timer(&mut self) -> Option<(SimTime, FaultTimer)> {
        if self.timers.is_empty() {
            None
        } else {
            Some(self.timers.remove(0))
        }
    }

    /// Schedule a point event (used for relaunch timers). Keeps the
    /// timeline sorted; equal times preserve insertion order.
    pub fn push_timer(&mut self, at: SimTime, timer: FaultTimer) {
        let idx = self.timers.partition_point(|(t, _)| *t <= at);
        self.timers.insert(idx, (at, timer));
    }

    /// Combined slowdown multiplier for `node` at instant `t` (1.0 when
    /// no window is active; overlapping windows multiply).
    pub fn slowdown_factor(&self, node: usize, t: SimTime) -> f64 {
        let mut factor = 1.0;
        for e in self.plan.events() {
            if let FaultEvent::NodeSlowdown {
                node: n,
                from,
                until,
                factor: f,
            } = *e
            {
                if n == node && from <= t && t < until {
                    factor *= f;
                }
            }
        }
        factor
    }

    /// Per-attempt task failure probability at instant `t`: overlapping
    /// windows compose as independent failure sources.
    pub fn task_failure_probability(&self, t: SimTime) -> f64 {
        let mut survive = 1.0;
        for e in self.plan.events() {
            if let FaultEvent::TaskFailures {
                from,
                until,
                probability,
            } = *e
            {
                if from <= t && t < until {
                    survive *= 1.0 - probability;
                }
            }
        }
        1.0 - survive
    }

    /// True when no slowdown or task-failure window touches `[from, until]`
    /// on any node: every per-task `slowdown_factor` query in the range
    /// returns exactly 1.0 and every `task_failure_probability` query
    /// exactly 0.0 (so the retry loop draws nothing). The superbatch fast
    /// path requires this over a job's whole span before skipping the
    /// per-task fault queries. Conservative across nodes by design — a
    /// slowdown on *any* node vetoes the range, which can only cause a
    /// harmless exact-path fallback.
    pub fn tasks_quiet_over(&self, from: SimTime, until: SimTime) -> bool {
        if !self.has_slowdowns && !self.has_failures {
            return true;
        }
        self.plan.events().iter().all(|e| match *e {
            FaultEvent::NodeSlowdown {
                from: s, until: u, ..
            }
            | FaultEvent::TaskFailures {
                from: s, until: u, ..
            } => s > until || u <= from,
            _ => true,
        })
    }

    /// Per-block refinement of [`tasks_quiet_over`](Self::tasks_quiet_over):
    /// true when no slowdown window *on `node`* and no task-failure window
    /// (failures are global) touches `[from, until]`. Every per-task
    /// `slowdown_factor(node, ·)` query in the range then returns exactly
    /// 1.0 and every `task_failure_probability` query exactly 0.0, so the
    /// superbatch fast path may skip the block's per-task fault queries —
    /// while a slowdown pinned to a *different* node correctly only forces
    /// that node's blocks onto the exact path.
    pub fn block_quiet(&self, node: usize, from: SimTime, until: SimTime) -> bool {
        if !self.has_slowdowns && !self.has_failures {
            return true;
        }
        self.plan.events().iter().all(|e| match *e {
            FaultEvent::NodeSlowdown {
                node: n,
                from: s,
                until: u,
                ..
            } => n != node || s > until || u <= from,
            FaultEvent::TaskFailures {
                from: s, until: u, ..
            } => s > until || u <= from,
            _ => true,
        })
    }

    /// True when the fault layer is provably inert over `[from, until]`:
    /// no pending point event (crash or relaunch) fires at or before
    /// `until`, no slowdown or task-failure window touches the range
    /// ([`tasks_quiet_over`](Self::tasks_quiet_over)), and no receiver-
    /// outage window overlaps it. The fleet fast path requires this over a
    /// whole skip horizon before fast-forwarding a tenant — every fault
    /// query a dense run would make in the range is then a constant and
    /// draws nothing from the fault RNG.
    pub fn quiet_over(&self, from: SimTime, until: SimTime) -> bool {
        if self.next_timer_at() <= until {
            return false;
        }
        if !self.tasks_quiet_over(from, until) {
            return false;
        }
        self.plan.events().iter().all(|e| match *e {
            FaultEvent::ReceiverOutage { from: s, until: u } => s > until || u <= from,
            _ => true,
        })
    }

    /// True when `t` falls inside any receiver-outage window.
    pub fn in_outage(&self, t: SimTime) -> bool {
        self.plan.events().iter().any(
            |e| matches!(*e, FaultEvent::ReceiverOutage { from, until } if from <= t && t < until),
        )
    }

    /// The longest prefix of `[from, limit)` with a homogeneous outage
    /// status: returns `(segment_end, dropping)`. The ingest path walks
    /// these segments, routing dropped production into a void sink.
    pub fn outage_segment(&self, from: SimTime, limit: SimTime) -> (SimTime, bool) {
        let dropping = self.in_outage(from);
        let mut end = limit;
        for e in self.plan.events() {
            if let FaultEvent::ReceiverOutage { from: s, until: u } = *e {
                if s <= from && from < u {
                    end = end.min(u);
                } else if s > from {
                    end = end.min(s);
                }
            }
        }
        (end.min(limit), dropping)
    }
}

/// Per-job fault context handed to the scheduler: window queries plus the
/// dedicated RNG stream for retry draws.
pub struct TaskFaultCtx<'a> {
    /// Window queries (slowdowns, failure probability) for this job.
    pub state: &'a FaultState,
    /// Fault RNG stream (engine seed fork 3) — the only randomness the
    /// fault layer consumes, so fault-free plans draw nothing.
    pub rng: &'a mut SimRng,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn empty_plan_is_inert() {
        let s = FaultState::new(FaultPlan::none());
        assert_eq!(s.next_timer_at(), SimTime::MAX);
        assert_eq!(s.slowdown_factor(2, t(100.0)), 1.0);
        assert_eq!(s.task_failure_probability(t(100.0)), 0.0);
        assert!(!s.in_outage(t(100.0)));
        assert_eq!(s.outage_segment(t(0.0), t(50.0)), (t(50.0), false));
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::none().has_outages());
        assert!(!s.has_slowdowns());
        assert!(!s.has_task_failures());
    }

    #[test]
    fn window_flags_reflect_the_plan() {
        let slow = FaultState::new(FaultPlan::new(vec![FaultEvent::NodeSlowdown {
            node: 1,
            from: t(10.0),
            until: t(20.0),
            factor: 0.5,
        }]));
        assert!(slow.has_slowdowns());
        assert!(!slow.has_task_failures());
        let fail = FaultState::new(FaultPlan::new(vec![FaultEvent::TaskFailures {
            from: t(10.0),
            until: t(20.0),
            probability: 0.3,
        }]));
        assert!(!fail.has_slowdowns());
        assert!(fail.has_task_failures());
    }

    #[test]
    fn crash_timers_fire_in_time_order() {
        let mut s = FaultState::new(FaultPlan::new(vec![
            FaultEvent::ExecutorCrash {
                at: t(300.0),
                count: 2,
                relaunch_after: None,
            },
            FaultEvent::ExecutorCrash {
                at: t(100.0),
                count: 1,
                relaunch_after: Some(SimDuration::from_secs(30)),
            },
        ]));
        assert_eq!(s.next_timer_at(), t(100.0));
        let (at, timer) = s.pop_timer().unwrap();
        assert_eq!(at, t(100.0));
        assert!(matches!(timer, FaultTimer::Crash { count: 1, .. }));
        // A relaunch scheduled between the two crashes slots in order.
        s.push_timer(t(130.0), FaultTimer::Relaunch);
        assert_eq!(s.pop_timer().unwrap(), (t(130.0), FaultTimer::Relaunch));
        assert_eq!(s.next_timer_at(), t(300.0));
        assert!(s.pop_timer().is_some());
        assert!(s.pop_timer().is_none());
    }

    #[test]
    fn slowdown_windows_multiply_and_expire() {
        let s = FaultState::new(FaultPlan::new(vec![
            FaultEvent::NodeSlowdown {
                node: 2,
                from: t(100.0),
                until: t(200.0),
                factor: 0.5,
            },
            FaultEvent::NodeSlowdown {
                node: 2,
                from: t(150.0),
                until: t(250.0),
                factor: 0.8,
            },
        ]));
        assert_eq!(s.slowdown_factor(2, t(50.0)), 1.0);
        assert_eq!(s.slowdown_factor(2, t(120.0)), 0.5);
        assert!((s.slowdown_factor(2, t(160.0)) - 0.4).abs() < 1e-12);
        assert_eq!(s.slowdown_factor(2, t(220.0)), 0.8);
        assert_eq!(s.slowdown_factor(2, t(250.0)), 1.0, "end is exclusive");
        assert_eq!(s.slowdown_factor(3, t(120.0)), 1.0, "other nodes clean");
    }

    #[test]
    fn failure_windows_compose_as_independent_sources() {
        let s = FaultState::new(FaultPlan::new(vec![
            FaultEvent::TaskFailures {
                from: t(0.0),
                until: t(100.0),
                probability: 0.5,
            },
            FaultEvent::TaskFailures {
                from: t(50.0),
                until: t(150.0),
                probability: 0.5,
            },
        ]));
        assert_eq!(s.task_failure_probability(t(10.0)), 0.5);
        assert!((s.task_failure_probability(t(60.0)) - 0.75).abs() < 1e-12);
        assert_eq!(s.task_failure_probability(t(200.0)), 0.0);
    }

    #[test]
    fn tasks_quiet_over_sees_slowdown_and_failure_windows() {
        let s = FaultState::new(FaultPlan::new(vec![
            FaultEvent::NodeSlowdown {
                node: 1,
                from: t(100.0),
                until: t(120.0),
                factor: 0.5,
            },
            FaultEvent::TaskFailures {
                from: t(300.0),
                until: t(310.0),
                probability: 0.2,
            },
        ]));
        assert!(s.tasks_quiet_over(t(0.0), t(99.0)));
        assert!(!s.tasks_quiet_over(t(90.0), t(100.0)), "touching the open");
        assert!(!s.tasks_quiet_over(t(110.0), t(115.0)), "inside");
        assert!(s.tasks_quiet_over(t(120.0), t(299.0)), "ends are exclusive");
        assert!(!s.tasks_quiet_over(t(299.0), t(305.0)));
        assert!(s.tasks_quiet_over(t(310.0), t(1e6)));
        // Outage windows do not veto task quiet — they gate ingest only.
        let o = FaultState::new(FaultPlan::new(vec![FaultEvent::ReceiverOutage {
            from: t(10.0),
            until: t(20.0),
        }]));
        assert!(o.tasks_quiet_over(t(0.0), t(100.0)));
    }

    #[test]
    fn outage_segments_partition_the_timeline() {
        let s = FaultState::new(FaultPlan::new(vec![FaultEvent::ReceiverOutage {
            from: t(100.0),
            until: t(160.0),
        }]));
        assert!(s.plan().has_outages());
        // Clean prefix ends where the outage starts.
        assert_eq!(s.outage_segment(t(0.0), t(500.0)), (t(100.0), false));
        // Inside the outage, the segment runs to the window end.
        assert_eq!(s.outage_segment(t(100.0), t(500.0)), (t(160.0), true));
        assert_eq!(s.outage_segment(t(130.0), t(500.0)), (t(160.0), true));
        // After it, clean to the limit.
        assert_eq!(s.outage_segment(t(160.0), t(500.0)), (t(500.0), false));
        // The limit always caps the segment.
        assert_eq!(s.outage_segment(t(120.0), t(140.0)), (t(140.0), true));
    }

    #[test]
    fn quiet_over_covers_every_event_class() {
        assert!(FaultState::new(FaultPlan::none()).quiet_over(t(0.0), t(1e9)));
        let s = FaultState::new(FaultPlan::new(vec![
            FaultEvent::ExecutorCrash {
                at: t(500.0),
                count: 1,
                relaunch_after: Some(SimDuration::from_secs(30)),
            },
            FaultEvent::ReceiverOutage {
                from: t(100.0),
                until: t(120.0),
            },
            FaultEvent::TaskFailures {
                from: t(200.0),
                until: t(210.0),
                probability: 0.1,
            },
        ]));
        assert!(s.quiet_over(t(0.0), t(99.0)));
        assert!(!s.quiet_over(t(90.0), t(110.0)), "outage overlaps");
        assert!(s.quiet_over(t(120.0), t(199.0)), "outage end exclusive");
        assert!(!s.quiet_over(t(150.0), t(205.0)), "failure window");
        assert!(!s.quiet_over(t(210.0), t(500.0)), "crash timer fires");
        assert!(!s.quiet_over(t(210.0), t(501.0)), "crash still pending");
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn empty_window_rejected() {
        let _ = FaultPlan::new(vec![FaultEvent::ReceiverOutage {
            from: t(10.0),
            until: t(10.0),
        }]);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn certain_failure_rejected() {
        // p = 1 would loop every task to the retry bound forever.
        let _ = FaultPlan::new(vec![FaultEvent::TaskFailures {
            from: t(0.0),
            until: t(10.0),
            probability: 1.0,
        }]);
    }
}
