//! Executor lifecycle and placement.
//!
//! Executors are "launched with specific memory size and number of CPU
//! cores at the beginning of a Spark application and run through its whole
//! lifetime" (§3.2) — but NoStop changes their *count* at runtime, which in
//! real Spark means dynamic allocation: a new executor takes a few seconds
//! to launch, and its first task wave pays a one-time initialization
//! ("sending application jar to the newly added executors", §5.4). Both
//! effects are modeled here; the §5.4 skip-first-batch rule exists because
//! of them.

use crate::cluster::{Cluster, DiskClass};
use nostop_simcore::{SimDuration, SimRng, SimTime};

/// One live (or launching) executor.
#[derive(Debug, Clone, PartialEq)]
pub struct Executor {
    /// Unique id (monotonic across the run).
    pub id: u64,
    /// Node the executor is pinned to.
    pub node: usize,
    /// Cached node speed factor.
    pub speed: f64,
    /// Cached node disk class.
    pub disk: DiskClass,
    /// When the executor process is up and can accept tasks.
    pub ready_at: SimTime,
    /// True until the executor has participated in its first job; its
    /// first task wave then pays the jar-shipping initialization.
    pub fresh: bool,
}

/// Places executors on worker nodes and applies target-count changes.
#[derive(Debug, Clone)]
pub struct ExecutorManager {
    cluster: Cluster,
    executors: Vec<Executor>,
    next_id: u64,
    launch_delay: SimDuration,
    /// Bumped on every fleet mutation (launch, retire, crash) — a cheap
    /// fingerprint the fleet's [`crate::engine::QuiescenceShape`] compares
    /// instead of the executor vector itself. Clearing `fresh` flags during
    /// a job does NOT bump it: the quiescence probe refuses while any
    /// executor is fresh, so two equal versions on passing probes already
    /// imply equal flags.
    version: u64,
}

impl ExecutorManager {
    /// A manager over `cluster` where new executors become ready after
    /// `launch_delay`.
    pub fn new(cluster: Cluster, launch_delay: SimDuration) -> Self {
        assert!(cluster.workers().count() > 0, "cluster has no worker nodes");
        ExecutorManager {
            cluster,
            executors: Vec::new(),
            next_id: 0,
            launch_delay,
            version: 0,
        }
    }

    /// Fleet fingerprint: changes whenever the executor set does.
    pub fn fleet_version(&self) -> u64 {
        self.version
    }

    /// Current executor count (including still-launching ones).
    pub fn count(&self) -> u32 {
        self.executors.len() as u32
    }

    /// Executors ready to take tasks at instant `t`.
    pub fn ready_count(&self, t: SimTime) -> u32 {
        self.executors.iter().filter(|e| e.ready_at <= t).count() as u32
    }

    /// All executors (ready and launching).
    pub fn executors(&self) -> &[Executor] {
        &self.executors
    }

    /// Mutable access for the scheduler (to clear `fresh` flags).
    pub fn executors_mut(&mut self) -> &mut Vec<Executor> {
        &mut self.executors
    }

    /// Retarget the executor count at instant `now`.
    ///
    /// * Scale-up: new executors are placed on the worker node with the
    ///   most free cores (ties: fastest node, then lowest id) and become
    ///   ready at `now + launch_delay`, `fresh`.
    /// * Scale-down: the most recently added executors are retired first
    ///   (they release immediately; the running job snapshotted its
    ///   executor set at start, matching Spark's remove-on-idle).
    ///
    /// The target is capped at the cluster's total worker cores.
    pub fn set_target(&mut self, target: u32, now: SimTime) {
        let cap = self.cluster.total_worker_cores();
        let target = target.min(cap).max(1);
        let current = self.executors.len() as u32;
        if target > current {
            for _ in 0..(target - current) {
                self.launch_one(now);
            }
        } else if target < current {
            for _ in 0..(current - target) {
                self.executors.pop();
            }
            self.version += 1;
        }
    }

    /// Kill `count` executors chosen uniformly at random from the live
    /// set (launching ones included — a node loss takes them too), never
    /// dropping below one: the driver survives and keeps its last
    /// container, so the stream degrades instead of dying. Returns how
    /// many actually died. The count is *not* a retarget: a later
    /// [`ExecutorManager::set_target`] at the old target relaunches
    /// replacements, which pay the usual launch delay and jar shipping.
    pub fn crash(&mut self, count: u32, rng: &mut SimRng) -> u32 {
        let mut killed = 0;
        while killed < count && self.executors.len() > 1 {
            let victim = rng.uniform_u64(0, self.executors.len() as u64 - 1) as usize;
            self.executors.remove(victim);
            killed += 1;
        }
        if killed > 0 {
            self.version += 1;
        }
        killed
    }

    /// Launch all initial executors as already-ready (application start).
    pub fn bootstrap(&mut self, count: u32) {
        self.set_target(count, SimTime::ZERO);
        for e in &mut self.executors {
            e.ready_at = SimTime::ZERO;
            e.fresh = false;
        }
    }

    fn launch_one(&mut self, now: SimTime) {
        // Occupancy per node.
        let mut load: Vec<u32> = vec![0; self.cluster.nodes.len()];
        for e in &self.executors {
            load[e.node] += 1;
        }
        // Pick the worker with most free cores; break ties by speed, then id.
        let node = self
            .cluster
            .workers()
            .filter(|n| load[n.id] < n.cores)
            .max_by(|a, b| {
                let free_a = a.cores - load[a.id];
                let free_b = b.cores - load[b.id];
                free_a
                    .cmp(&free_b)
                    .then(
                        a.speed
                            .partial_cmp(&b.speed)
                            .unwrap_or(std::cmp::Ordering::Equal),
                    )
                    .then(b.id.cmp(&a.id))
            })
            .expect("set_target capped at capacity, a free core must exist");
        let id = self.next_id;
        self.next_id += 1;
        self.version += 1;
        self.executors.push(Executor {
            id,
            node: node.id,
            speed: node.speed,
            disk: node.disk,
            ready_at: now + self.launch_delay,
            fresh: true,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager() -> ExecutorManager {
        ExecutorManager::new(Cluster::paper_heterogeneous(), SimDuration::from_secs(2))
    }

    #[test]
    fn bootstrap_makes_ready_unfresh_executors() {
        let mut m = manager();
        m.bootstrap(10);
        assert_eq!(m.count(), 10);
        assert_eq!(m.ready_count(SimTime::ZERO), 10);
        assert!(m.executors().iter().all(|e| !e.fresh));
    }

    #[test]
    fn scale_up_launches_with_delay_and_fresh_flag() {
        let mut m = manager();
        m.bootstrap(4);
        let now = SimTime::from_secs_f64(100.0);
        m.set_target(8, now);
        assert_eq!(m.count(), 8);
        assert_eq!(m.ready_count(now), 4, "new ones still launching");
        let later = now + SimDuration::from_secs(2);
        assert_eq!(m.ready_count(later), 8);
        assert_eq!(m.executors().iter().filter(|e| e.fresh).count(), 4);
    }

    #[test]
    fn scale_down_retires_newest_first() {
        let mut m = manager();
        m.bootstrap(6);
        let ids: Vec<u64> = m.executors().iter().map(|e| e.id).collect();
        m.set_target(4, SimTime::ZERO);
        let kept: Vec<u64> = m.executors().iter().map(|e| e.id).collect();
        assert_eq!(kept, ids[..4].to_vec());
    }

    #[test]
    fn placement_balances_across_workers() {
        let mut m = manager();
        m.bootstrap(8);
        let mut per_node = [0u32; 5];
        for e in m.executors() {
            per_node[e.node] += 1;
        }
        assert_eq!(per_node[0], 0, "master hosts no executors");
        // 8 executors over 4 workers: exactly 2 each.
        for node in 1..5 {
            assert_eq!(per_node[node], 2, "node {node}: {per_node:?}");
        }
    }

    #[test]
    fn target_caps_at_cluster_capacity() {
        let mut m = manager();
        m.bootstrap(10);
        m.set_target(10_000, SimTime::ZERO);
        assert_eq!(
            m.count(),
            Cluster::paper_heterogeneous().total_worker_cores()
        );
        m.set_target(0, SimTime::ZERO);
        assert_eq!(m.count(), 1, "never below one executor");
    }

    #[test]
    fn crash_kills_victims_but_never_the_last_executor() {
        let mut m = manager();
        m.bootstrap(10);
        let mut rng = SimRng::seed_from_u64(7);
        assert_eq!(m.crash(3, &mut rng), 3);
        assert_eq!(m.count(), 7);
        // The floor: asking for more than remain kills all but one.
        assert_eq!(m.crash(100, &mut rng), 6);
        assert_eq!(m.count(), 1);
        assert_eq!(m.crash(1, &mut rng), 0, "last executor survives");
        // A later retarget at the old goal relaunches fresh replacements.
        let now = SimTime::from_secs_f64(500.0);
        m.set_target(10, now);
        assert_eq!(m.count(), 10);
        assert_eq!(m.executors().iter().filter(|e| e.fresh).count(), 9);
        assert_eq!(m.ready_count(now), 1, "replacements pay launch delay");
    }

    #[test]
    fn crash_victim_choice_is_seed_deterministic() {
        let survivors = |seed: u64| {
            let mut m = manager();
            m.bootstrap(12);
            let mut rng = SimRng::seed_from_u64(seed);
            m.crash(4, &mut rng);
            m.executors().iter().map(|e| e.id).collect::<Vec<_>>()
        };
        assert_eq!(survivors(3), survivors(3));
        assert_ne!(survivors(3), survivors(4));
    }

    #[test]
    fn fleet_version_tracks_every_mutation() {
        let mut m = manager();
        let v0 = m.fleet_version();
        m.bootstrap(4);
        let v1 = m.fleet_version();
        assert!(v1 > v0, "bootstrap launches bump the version");
        m.set_target(6, SimTime::ZERO);
        let v2 = m.fleet_version();
        assert!(v2 > v1, "scale-up bumps");
        m.set_target(3, SimTime::ZERO);
        let v3 = m.fleet_version();
        assert!(v3 > v2, "scale-down bumps");
        m.set_target(3, SimTime::ZERO);
        assert_eq!(m.fleet_version(), v3, "no-op retarget does not bump");
        let mut rng = SimRng::seed_from_u64(1);
        m.crash(1, &mut rng);
        assert!(m.fleet_version() > v3, "crash bumps");
    }

    #[test]
    fn heterogeneous_speeds_are_attached() {
        let mut m = manager();
        m.bootstrap(20);
        let speeds: std::collections::HashSet<u64> = m
            .executors()
            .iter()
            .map(|e| (e.speed * 100.0) as u64)
            .collect();
        // All three CPU generations appear at full occupancy.
        assert!(speeds.contains(&100) && speeds.contains(&65) && speeds.contains(&105));
    }
}
