//! Recovery-time instrumentation (the Fig. 20 breakdown).
//!
//! Four cost buckets, accumulated per thread with relaxed atomics:
//!
//! * **useful work** — executing piece operations / installing images;
//! * **data loading** — reading log files off the devices and
//!   deserializing them into schedules;
//! * **parameter checking** — dynamic analysis: computing piece access
//!   sets and building the conflict-chain DAG;
//! * **scheduling** — waiting on gates/queues and coordinating threads.

use pacman_obs::{Counter, MetricsRegistry};
use std::time::{Duration, Instant};

/// Shared recovery metrics.
///
/// The fields are detached [`pacman_obs::Counter`] handles: each session
/// owns its own counters (parallel tests never cross-talk), and
/// [`RecoveryMetrics::register_into`] binds them into a registry under
/// `recovery.*` names so a registry snapshot sees the live session.
#[derive(Debug, Default)]
pub struct RecoveryMetrics {
    work_ns: Counter,
    load_ns: Counter,
    param_ns: Counter,
    sched_ns: Counter,
    txns: Counter,
    writes: Counter,
    /// Checkpoint shards loaded because a blocked admission wanted them
    /// (lazy reload's on-demand path).
    ondemand_shard_loads: Counter,
    /// Checkpoint shards loaded by the background cheapest-first sweep.
    background_shard_loads: Counter,
    /// Replication: apply batches (seal-delimited) fully applied.
    applied_batches: Counter,
    /// Replication: shipped log bytes applied to the standby.
    applied_log_bytes: Counter,
}

/// A snapshot of the four buckets.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    /// Seconds spent executing operations.
    pub work: f64,
    /// Seconds spent loading + deserializing log data.
    pub load: f64,
    /// Seconds spent in dynamic analysis (access sets, conflict chains).
    pub param: f64,
    /// Seconds spent waiting/coordinating.
    pub sched: f64,
}

impl Breakdown {
    /// Total accounted seconds.
    pub fn total(&self) -> f64 {
        self.work + self.load + self.param + self.sched
    }

    /// Fractions of the total per bucket `(work, load, param, sched)`.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let t = self.total();
        if t <= 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (self.work / t, self.load / t, self.param / t, self.sched / t)
    }
}

impl RecoveryMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add to the useful-work bucket.
    #[inline]
    pub fn add_work(&self, d: Duration) {
        self.work_ns.add(d.as_nanos() as u64);
    }

    /// Add to the data-loading bucket.
    #[inline]
    pub fn add_load(&self, d: Duration) {
        self.load_ns.add(d.as_nanos() as u64);
    }

    /// Add to the parameter-checking bucket.
    #[inline]
    pub fn add_param(&self, d: Duration) {
        self.param_ns.add(d.as_nanos() as u64);
    }

    /// Add to the scheduling bucket.
    #[inline]
    pub fn add_sched(&self, d: Duration) {
        self.sched_ns.add(d.as_nanos() as u64);
    }

    /// Count replayed transactions (once per loaded unit, not per record).
    #[inline]
    pub fn count_txns(&self, n: u64) {
        self.txns.add(n);
    }

    /// Count installed tuple images.
    #[inline]
    pub fn count_writes(&self, n: u64) {
        self.writes.add(n);
    }

    /// Time `f`, attributing the elapsed time via `add`.
    #[inline]
    pub fn timed<T>(&self, add: impl Fn(&Self, Duration), f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        add(self, t0.elapsed());
        out
    }

    /// Count a checkpoint shard loaded on demand (a blocked admission
    /// wanted it) vs. by the background sweep.
    #[inline]
    pub fn count_shard_load(&self, ondemand: bool) {
        if ondemand {
            self.ondemand_shard_loads.inc();
        } else {
            self.background_shard_loads.inc();
        }
    }

    /// Count one seal-delimited replication apply batch (its shipped log
    /// bytes included) as fully applied on a standby.
    #[inline]
    pub fn count_applied_batch(&self, log_bytes: u64) {
        self.applied_batches.inc();
        self.applied_log_bytes.add(log_bytes);
    }

    /// Shipped log bytes applied (standby side).
    pub fn applied_log_bytes(&self) -> u64 {
        self.applied_log_bytes.get()
    }

    /// Checkpoint shards loaded on demand (lazy reload).
    pub fn ondemand_shard_loads(&self) -> u64 {
        self.ondemand_shard_loads.get()
    }

    /// Checkpoint shards loaded by the background sweep (lazy reload).
    pub fn background_shard_loads(&self) -> u64 {
        self.background_shard_loads.get()
    }

    /// Transactions replayed.
    pub fn txns(&self) -> u64 {
        self.txns.get()
    }

    /// Tuple images installed.
    pub fn writes(&self) -> u64 {
        self.writes.get()
    }

    /// Bind this session's counters into `registry` under `recovery.*`
    /// names. Rebinding (a later session) replaces the previous handles,
    /// so the registry always reflects the latest recovery.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        registry.bind_counter("recovery.work_ns", &self.work_ns);
        registry.bind_counter("recovery.load_ns", &self.load_ns);
        registry.bind_counter("recovery.param_ns", &self.param_ns);
        registry.bind_counter("recovery.sched_ns", &self.sched_ns);
        registry.bind_counter("recovery.txns", &self.txns);
        registry.bind_counter("recovery.writes", &self.writes);
        registry.bind_counter("recovery.ondemand_shard_loads", &self.ondemand_shard_loads);
        registry.bind_counter(
            "recovery.background_shard_loads",
            &self.background_shard_loads,
        );
        registry.bind_counter("recovery.applied_batches", &self.applied_batches);
        registry.bind_counter("recovery.applied_log_bytes", &self.applied_log_bytes);
    }

    /// Snapshot the buckets.
    pub fn breakdown(&self) -> Breakdown {
        Breakdown {
            work: self.work_ns.get() as f64 / 1e9,
            load: self.load_ns.get() as f64 / 1e9,
            param: self.param_ns.get() as f64 / 1e9,
            sched: self.sched_ns.get() as f64 / 1e9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate() {
        let m = RecoveryMetrics::new();
        m.add_work(Duration::from_millis(10));
        m.add_work(Duration::from_millis(20));
        m.add_load(Duration::from_millis(5));
        m.count_txns(1);
        m.count_writes(3);
        let b = m.breakdown();
        assert!((b.work - 0.030).abs() < 1e-6);
        assert!((b.load - 0.005).abs() < 1e-6);
        assert_eq!(m.txns(), 1);
        assert_eq!(m.writes(), 3);
    }

    #[test]
    fn fractions_sum_to_one() {
        let m = RecoveryMetrics::new();
        m.add_work(Duration::from_millis(6));
        m.add_sched(Duration::from_millis(2));
        m.add_param(Duration::from_millis(1));
        m.add_load(Duration::from_millis(1));
        let (w, l, p, s) = m.breakdown().fractions();
        assert!((w + l + p + s - 1.0).abs() < 1e-9);
        assert!(w > s && s > 0.0);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = RecoveryMetrics::new().breakdown();
        assert_eq!(b.total(), 0.0);
        assert_eq!(b.fractions(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn shard_load_counters_split_by_origin() {
        let m = RecoveryMetrics::new();
        m.count_shard_load(true);
        m.count_shard_load(false);
        m.count_shard_load(false);
        assert_eq!(m.ondemand_shard_loads(), 1);
        assert_eq!(m.background_shard_loads(), 2);
    }

    #[test]
    fn timed_attributes_elapsed() {
        let m = RecoveryMetrics::new();
        let v = m.timed(RecoveryMetrics::add_param, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(m.breakdown().param >= 0.004);
    }
}
