//! A Kafka-like partitioned broker model.
//!
//! The paper deploys a Kafka broker on every node and provisions more
//! partitions than the cluster has cores so Kafka is never the bottleneck
//! (§6.1). What the streaming engine observes from Kafka is *offsets*: how
//! many records are available per partition and how many it has consumed.
//! This model tracks exactly that — per-partition produced/consumed offsets
//! and lag — plus the consumer-side rate limit that Spark's back pressure
//! mechanism manipulates (`spark.streaming.kafka.maxRatePerPartition`).
//!
//! Record payloads are *not* stored: the simulator's cost models operate on
//! counts alone. This keeps simulating a 230k-records/second stream (the
//! paper's Page Analyze rate) allocation-free.
//!
//! The generator hands a run of 100 ms integration steps under one rate
//! sample to `produce_run` in one call, and calls `produce` once per step
//! only where the run's closed form is refused. Either costs O(1) for
//! uniform production and O(weight classes) under hot-key skew (two
//! classes, whatever the partition count).

use nostop_simcore::{carry_run, floor_split};

/// Identifies a partition within the broker.
pub type PartitionId = usize;

/// Broker construction parameters.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// Number of partitions. The paper sets this larger than the cluster's
    /// total core count.
    pub partitions: usize,
    /// Consumer-side rate limit in records/second across all partitions
    /// (`None` = unlimited). This is the back-pressure knob.
    pub max_consume_rate: Option<f64>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            partitions: 32,
            max_consume_rate: None,
        }
    }
}

/// Per-partition offset state.
///
/// Production is uniform by construction — every partition receives the
/// *identical* fractional share with the identical carry evolution — so
/// the produced offset and its carry live once on [`Broker`] instead of
/// per partition, making `produce` O(1). This matters: the generator
/// integrates rates in 100 ms steps, so a single batch cut calls
/// `produce` dozens of times. Only the consumed offset diverges across
/// partitions (the consume side distributes remainders).
#[derive(Debug, Clone, Default)]
struct Partition {
    consumed: u64,
}

/// Production state for skewed (hot-key) traffic, kept once per weight
/// class.
///
/// When the paper's skew-avoidance rule is deliberately broken, every
/// partition gets its own weighted share of every produce call with its
/// own fractional carry. But partitions whose normalized weights have the
/// same bit pattern start from the same state (offset 0, carry 0.0), and
/// only `produce` moves it, with the same arithmetic — so they stay
/// bit-identical forever. The state therefore lives once per class:
/// hot-key skew has two classes, and `produce` costs O(weight classes)
/// rather than O(partitions). Only brokers built via
/// [`Broker::with_skew`] carry this; the uniform path is untouched.
#[derive(Debug, Clone)]
struct SkewState {
    /// Weight class of each partition.
    class: Vec<usize>,
    /// Normalized produce weight of one partition in each class (the
    /// weights of all partitions sum to 1).
    weight: Vec<f64>,
    /// Produced offset of every partition in each class.
    produced: Vec<u64>,
    /// Fractional carry of every partition in each class.
    carry: Vec<f64>,
    /// Number of partitions in each class.
    size: Vec<u64>,
    /// Each class's `(whole, carry)` from the last `produce_run`, applied
    /// only once every class has passed.
    pending: Vec<(u64, f64)>,
}

impl SkewState {
    /// Group partitions by the bit pattern of their normalized weight, in
    /// order of first appearance.
    fn new(normalized: impl ExactSizeIterator<Item = f64>) -> Self {
        let mut s = SkewState {
            class: Vec::with_capacity(normalized.len()),
            weight: Vec::new(),
            produced: Vec::new(),
            carry: Vec::new(),
            size: Vec::new(),
            pending: Vec::new(),
        };
        for w in normalized {
            let c = match s.weight.iter().position(|v| v.to_bits() == w.to_bits()) {
                Some(c) => c,
                None => {
                    s.weight.push(w);
                    s.produced.push(0);
                    s.carry.push(0.0);
                    s.size.push(0);
                    s.pending.push((0, 0.0));
                    s.weight.len() - 1
                }
            };
            s.class.push(c);
            s.size[c] += 1;
        }
        s
    }
}

/// A partitioned broker with offset/lag accounting and a consume-rate limit.
#[derive(Debug, Clone)]
pub struct Broker {
    partitions: Vec<Partition>,
    /// Produced offset, identical for every partition (uniform production).
    /// Unused (stays zero) when `skew` is set.
    produced_per_partition: u64,
    /// Fractional record carry of the uniform production share, identical
    /// for every partition. Unused when `skew` is set.
    produce_carry: f64,
    /// Weighted per-partition production, when the skew-free assumption is
    /// deliberately broken.
    skew: Option<SkewState>,
    max_consume_rate: Option<f64>,
    /// Fractional budget carry for the rate limiter.
    rate_carry: f64,
}

impl Broker {
    /// Create a broker per `config`. Panics when `partitions == 0`.
    pub fn new(config: BrokerConfig) -> Self {
        assert!(
            config.partitions >= 1,
            "broker needs at least one partition"
        );
        Broker {
            partitions: vec![Partition::default(); config.partitions],
            produced_per_partition: 0,
            produce_carry: 0.0,
            skew: None,
            max_consume_rate: config.max_consume_rate,
            rate_carry: 0.0,
        }
    }

    /// Switch production to weighted per-partition shares (hot-key skew).
    ///
    /// `weights` must have one entry per partition; they are normalized
    /// internally, so only ratios matter. Must be applied before any
    /// production. Panics on length mismatch, on non-positive weights, and
    /// when normalization leaves a weight that is not positive and finite
    /// (a sum that overflows).
    pub fn with_skew(mut self, weights: Vec<f64>) -> Self {
        assert_eq!(
            weights.len(),
            self.partitions.len(),
            "need one weight per partition"
        );
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive and finite"
        );
        assert_eq!(
            self.total_produced(),
            0,
            "skew must be set before producing"
        );
        let total: f64 = weights.iter().sum();
        let skew = SkewState::new(weights.into_iter().map(|w| w / total));
        assert!(
            skew.weight.iter().all(|w| w.is_finite() && *w > 0.0),
            "normalized weights must be positive and finite"
        );
        self.skew = Some(skew);
        self
    }

    /// True when production is weighted rather than uniform.
    pub fn is_skewed(&self) -> bool {
        self.skew.is_some()
    }

    fn produced_of(&self, i: usize) -> u64 {
        match &self.skew {
            Some(s) => s.produced[s.class[i]],
            None => self.produced_per_partition,
        }
    }

    fn lag_of(&self, i: usize) -> u64 {
        self.produced_of(i) - self.partitions[i].consumed
    }

    /// Produce `count` records. Uniform production (the paper's
    /// skew-avoidance rule) spreads them identically across partitions in
    /// O(1); a skewed broker gives each partition its weighted share with
    /// a per-partition fractional carry, conserving the long-run total
    /// exactly, in O(weight classes).
    pub fn produce(&mut self, count: u64) {
        if count == 0 {
            return;
        }
        if let Some(skew) = &mut self.skew {
            for c in 0..skew.weight.len() {
                let (whole, carry) = floor_split(count as f64 * skew.weight[c] + skew.carry[c]);
                skew.carry[c] = carry;
                skew.produced[c] += whole;
            }
            return;
        }
        let n = self.partitions.len() as f64;
        let share = count as f64 / n;
        let (whole, carry) = floor_split(share + self.produce_carry);
        self.produce_carry = carry;
        self.produced_per_partition += whole;
    }

    /// Apply `produce(lo)` `steps - high` times and `produce(lo + 1)`
    /// `high` times, in any order, in O(weight classes), and return true.
    /// The result is bit for bit that of the calls (see
    /// [`carry_run`]). Returns false, and changes nothing, when some
    /// class's carry steps could round, so the caller makes the calls.
    pub fn produce_run(&mut self, lo: u64, steps: u64, high: u64) -> bool {
        debug_assert!(high <= steps, "{high} high steps in a run of {steps}");
        // `produce(0)` returns before touching any carry.
        let low = if lo == 0 { 0 } else { steps - high };
        let (lo, hi) = (lo as f64, (lo + 1) as f64);
        if let Some(skew) = &mut self.skew {
            for c in 0..skew.weight.len() {
                let w = skew.weight[c];
                match carry_run(skew.carry[c], &[(lo * w, low), (hi * w, high)]) {
                    Some(result) => skew.pending[c] = result,
                    None => return false,
                }
            }
            for (c, &(whole, carry)) in skew.pending.iter().enumerate() {
                skew.carry[c] = carry;
                skew.produced[c] += whole;
            }
            return true;
        }
        let n = self.partitions.len() as f64;
        let run = [(lo / n, low), (hi / n, high)];
        let Some((whole, carry)) = carry_run(self.produce_carry, &run) else {
            return false;
        };
        self.produce_carry = carry;
        self.produced_per_partition += whole;
        true
    }

    /// Total records ever produced.
    pub fn total_produced(&self) -> u64 {
        match &self.skew {
            Some(s) => s.produced.iter().zip(&s.size).map(|(p, n)| p * n).sum(),
            None => self.produced_per_partition * self.partitions.len() as u64,
        }
    }

    /// Total records ever consumed.
    pub fn total_consumed(&self) -> u64 {
        self.partitions.iter().map(|p| p.consumed).sum()
    }

    /// Records available but not yet consumed, across all partitions.
    pub fn total_lag(&self) -> u64 {
        self.total_produced() - self.total_consumed()
    }

    /// Per-partition lag snapshot.
    pub fn partition_lags(&self) -> Vec<u64> {
        (0..self.partitions.len()).map(|i| self.lag_of(i)).collect()
    }

    /// Set (or clear) the consumer-side rate limit in records/second.
    pub fn set_max_consume_rate(&mut self, rate: Option<f64>) {
        self.max_consume_rate = rate.map(|r| r.max(0.0));
        if self.max_consume_rate.is_none() {
            self.rate_carry = 0.0;
        }
    }

    /// The current consume-rate limit, if any.
    pub fn max_consume_rate(&self) -> Option<f64> {
        self.max_consume_rate
    }

    /// Consume up to the rate-limit budget for an `elapsed_secs` window,
    /// uniformly across partitions. Returns the number of records consumed.
    ///
    /// Without a rate limit, consumes the entire lag (Spark's direct stream
    /// takes every record available at batch-cut time).
    pub fn consume_window(&mut self, elapsed_secs: f64) -> u64 {
        let lag = self.total_lag();
        let budget = match self.max_consume_rate {
            None => lag,
            Some(rate) => {
                let allowed = rate * elapsed_secs.max(0.0) + self.rate_carry;
                let whole = allowed.floor().max(0.0);
                let take = (whole as u64).min(lag);
                // Carry only the fractional budget; unused whole budget does
                // not accumulate (Spark recomputes the cap per batch).
                self.rate_carry = (allowed - whole).clamp(0.0, 1.0);
                take
            }
        };
        self.take_uniform(budget);
        budget
    }

    /// Consume exactly `count` records (or all lag, whichever is smaller),
    /// uniformly across partitions. Returns the number consumed.
    pub fn consume_exact(&mut self, count: u64) -> u64 {
        let take = count.min(self.total_lag());
        self.take_uniform(take);
        take
    }

    /// Produced offset per partition. Only meaningful for uniform
    /// production (the fast paths that call this refuse skewed brokers).
    pub fn produced_per_partition(&self) -> u64 {
        debug_assert!(
            self.skew.is_none(),
            "per-partition offset is not shared under skew"
        );
        self.produced_per_partition
    }

    /// Bit pattern of the fractional production carry — a bitwise
    /// stationarity probe for closed-form fast paths.
    pub fn produce_carry_bits(&self) -> u64 {
        self.produce_carry.to_bits()
    }

    /// Advance every partition by `per_partition` produced-and-consumed
    /// offsets in one step and set the production carry to `carry_bits`.
    /// Only valid at the lag-0 fixed point (every record cut as soon as
    /// it arrives), where production and consumption telescope to the
    /// same per-partition advance, and with the carry the produce calls
    /// would have left.
    pub fn fast_forward(&mut self, per_partition: u64, carry_bits: u64) {
        assert!(
            self.skew.is_none(),
            "fast_forward requires uniform production"
        );
        debug_assert_eq!(self.total_lag(), 0, "fast_forward requires zero lag");
        self.produced_per_partition += per_partition;
        self.produce_carry = f64::from_bits(carry_bits);
        for p in &mut self.partitions {
            p.consumed = self.produced_per_partition;
        }
    }

    fn take_uniform(&mut self, mut remaining: u64) {
        if remaining == 0 {
            return;
        }
        // Round-robin by repeatedly taking proportional shares. Two passes
        // suffice for the uniform broker (lags are near-uniform by
        // construction); a skewed broker converges in a few more rounds
        // because the hot partitions dominate the remaining lag.
        loop {
            let lagging = (0..self.partitions.len())
                .filter(|&i| self.lag_of(i) > 0)
                .count() as u64;
            if lagging == 0 || remaining == 0 {
                break;
            }
            let share = (remaining / lagging).max(1);
            for i in 0..self.partitions.len() {
                if remaining == 0 {
                    break;
                }
                let lag = self.lag_of(i);
                if lag == 0 {
                    continue;
                }
                let take = share.min(lag).min(remaining);
                self.partitions[i].consumed += take;
                remaining -= take;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn broker(parts: usize) -> Broker {
        Broker::new(BrokerConfig {
            partitions: parts,
            max_consume_rate: None,
        })
    }

    #[test]
    fn produce_conserves_count_in_long_run() {
        let mut b = broker(7);
        for _ in 0..1000 {
            b.produce(13);
        }
        let total = b.total_produced();
        // Fractional carries mean at most `partitions` records still in carry.
        assert!((13_000 - 7..=13_000).contains(&total), "total {total}");
    }

    #[test]
    fn produce_is_uniform_across_partitions() {
        let mut b = broker(8);
        b.produce(8_000);
        let lags = b.partition_lags();
        for lag in lags {
            assert!((999..=1001).contains(&lag), "lag {lag}");
        }
    }

    #[test]
    fn unlimited_consume_takes_entire_lag() {
        let mut b = broker(4);
        b.produce(1_000);
        let got = b.consume_window(1.0);
        assert_eq!(got, b.total_consumed());
        assert_eq!(b.total_lag(), 0);
    }

    #[test]
    fn rate_limit_caps_consumption() {
        let mut b = broker(4);
        b.set_max_consume_rate(Some(100.0));
        b.produce(1_000);
        let got = b.consume_window(2.0); // budget = 200
        assert_eq!(got, 200);
        assert_eq!(b.total_lag(), 800);
    }

    #[test]
    fn rate_limit_fractional_budget_carries() {
        let mut b = broker(1);
        b.set_max_consume_rate(Some(0.5));
        b.produce(10);
        assert_eq!(b.consume_window(1.0), 0); // 0.5 budget -> carry
        assert_eq!(b.consume_window(1.0), 1); // 1.0 budget
        assert_eq!(b.total_lag(), 9);
    }

    #[test]
    fn clearing_rate_limit_restores_full_drain() {
        let mut b = broker(2);
        b.set_max_consume_rate(Some(10.0));
        b.produce(100);
        b.consume_window(1.0);
        b.set_max_consume_rate(None);
        b.consume_window(0.0);
        assert_eq!(b.total_lag(), 0);
    }

    #[test]
    fn consume_exact_respects_lag() {
        let mut b = broker(3);
        b.produce(30);
        assert_eq!(b.consume_exact(10), 10);
        assert_eq!(b.total_lag(), 20);
        assert_eq!(b.consume_exact(100), 20);
        assert_eq!(b.total_lag(), 0);
        assert_eq!(b.consume_exact(5), 0);
    }

    #[test]
    fn consume_is_spread_across_partitions() {
        let mut b = broker(4);
        b.produce(400);
        b.consume_exact(200);
        for lag in b.partition_lags() {
            assert!((40..=60).contains(&lag), "lag {lag}");
        }
    }

    #[test]
    fn fast_forward_matches_produce_then_drain() {
        let mut slow = broker(4);
        let mut fast = broker(4);
        // 100.5 records per partition: the carry cycles 0.5, 0, 0.5.
        for _ in 0..3 {
            let before = slow.produced_per_partition();
            slow.produce(402);
            slow.consume_window(1.0);
            fast.fast_forward(
                slow.produced_per_partition() - before,
                slow.produce_carry_bits(),
            );
        }
        assert_eq!(slow.produced_per_partition(), fast.produced_per_partition());
        assert_eq!(slow.produce_carry_bits(), fast.produce_carry_bits());
        assert_eq!(slow.total_consumed(), fast.total_consumed());
        assert_eq!(fast.total_lag(), 0);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn zero_partitions_panics() {
        let _ = Broker::new(BrokerConfig {
            partitions: 0,
            max_consume_rate: None,
        });
    }

    fn skewed(parts: usize, weights: Vec<f64>) -> Broker {
        Broker::new(BrokerConfig {
            partitions: parts,
            max_consume_rate: None,
        })
        .with_skew(weights)
    }

    #[test]
    fn skewed_produce_conserves_and_follows_weights() {
        // One hot partition at 5x the cold weight.
        let mut b = skewed(4, vec![5.0, 1.0, 1.0, 1.0]);
        for _ in 0..1000 {
            b.produce(16);
        }
        let total = b.total_produced();
        // Per-partition carries hold back at most one record each.
        assert!((16_000 - 4..=16_000).contains(&total), "total {total}");
        let lags = b.partition_lags();
        let hot = lags[0] as f64;
        for &cold in &lags[1..] {
            let ratio = hot / cold as f64;
            assert!((4.9..=5.1).contains(&ratio), "hot/cold ratio {ratio}");
        }
    }

    #[test]
    fn skewed_lags_drain_completely() {
        let mut b = skewed(4, vec![10.0, 1.0, 1.0, 1.0]);
        b.produce(13_000);
        let got = b.consume_window(1.0);
        assert_eq!(got, b.total_consumed());
        assert_eq!(b.total_lag(), 0);
        for lag in b.partition_lags() {
            assert_eq!(lag, 0);
        }
    }

    #[test]
    fn skewed_consume_exact_is_bounded_by_lag() {
        let mut b = skewed(3, vec![8.0, 1.0, 1.0]);
        b.produce(100);
        let lag = b.total_lag();
        assert_eq!(b.consume_exact(lag + 50), lag);
        assert_eq!(b.total_lag(), 0);
    }

    #[test]
    fn uniform_weights_behave_like_uniform_broker() {
        let mut a = broker(4);
        let mut b = skewed(4, vec![2.0; 4]);
        for _ in 0..100 {
            a.produce(17);
            b.produce(17);
        }
        assert_eq!(a.total_produced(), b.total_produced());
        assert_eq!(a.partition_lags(), b.partition_lags());
    }

    #[test]
    #[should_panic(expected = "uniform production")]
    fn fast_forward_refuses_skewed_broker() {
        let mut b = skewed(2, vec![3.0, 1.0]);
        b.fast_forward(10, 0);
    }

    #[test]
    #[should_panic(expected = "one weight per partition")]
    fn skew_weight_length_must_match() {
        let _ = skewed(3, vec![1.0, 2.0]);
    }
}
