//! Unified metrics registry: named counters / gauges / histograms.
//!
//! Handles are cheap `Arc`-backed clones; subsystems keep their own handle
//! and bump it lock-free, the registry only holds the name → handle map.
//! `snapshot()` walks the map once and returns a stable-ordered view — one
//! consistent read per metric, so multi-field stats (shipped vs applied
//! bytes, live vs reclaimed space) come from a single pass instead of N
//! independent relaxed loads scattered across accessors.
//!
//! Naming scheme (see `docs/OBSERVABILITY.md`): dot-separated
//! `<subsystem>.<group>.<metric>`, e.g. `wal.ship.bytes`,
//! `recovery.breakdown.work_ns`, `driver.commit_latency_us`.

use crate::json::Json;
use pacman_common::histogram::Histogram;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Monotone counter handle.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A detached counter (not yet in any registry).
    pub fn new() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value gauge handle (u64).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A detached gauge.
    pub fn new() -> Gauge {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise to `v` if larger.
    #[inline]
    pub fn max_with(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Overwrite with `Release` ordering. Pair with [`Gauge::get_acquire`]
    /// when the gauge publishes a happens-before edge — e.g. "everything
    /// this checkpoint round wrote (manifest, retention reclaim) is
    /// visible to whoever observes the new timestamp". Plain [`Gauge::set`]
    /// / [`Gauge::get`] are Relaxed and carry no such guarantee.
    #[inline]
    pub fn set_release(&self, v: u64) {
        self.0.store(v, Ordering::Release);
    }

    /// Read with `Acquire` ordering (see [`Gauge::set_release`]).
    #[inline]
    pub fn get_acquire(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value gauge handle (f64, stored as bits).
#[derive(Clone, Debug, Default)]
pub struct GaugeF(Arc<AtomicU64>);

impl GaugeF {
    /// A detached float gauge.
    pub fn new() -> GaugeF {
        GaugeF(Arc::new(AtomicU64::new(0)))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Histogram handle (log-bucketed, from `pacman_common::histogram`).
#[derive(Clone, Debug, Default)]
pub struct HistoHandle(Arc<Mutex<Histogram>>);

impl HistoHandle {
    /// A detached histogram.
    pub fn new() -> HistoHandle {
        HistoHandle(Arc::new(Mutex::new(Histogram::new())))
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.0.lock().record(v);
    }

    /// Fold a whole histogram in (e.g. a worker-local one at run end).
    pub fn merge(&self, other: &Histogram) {
        self.0.lock().merge(other);
    }

    /// A consistent copy of the current distribution.
    pub fn snapshot(&self) -> Histogram {
        self.0.lock().clone()
    }

    /// Summarize (count / mean / quantiles) in one lock acquisition.
    pub fn summary(&self) -> HistoSummary {
        HistoSummary::of(&self.0.lock())
    }

    /// Summary plus the raw non-empty buckets, in one lock acquisition.
    pub fn snap(&self) -> HistoSnap {
        let h = self.0.lock();
        HistoSnap {
            summary: HistoSummary::of(&h),
            buckets: h.buckets().collect(),
        }
    }
}

/// Point-in-time summary of a histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistoSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample value.
    pub mean: f64,
    /// Smallest sample (bucket lower bound).
    pub min: u64,
    /// Largest sample (bucket representative).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
}

impl HistoSummary {
    /// Summarize `h`.
    pub fn of(h: &Histogram) -> HistoSummary {
        HistoSummary {
            count: h.count(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }
}

/// A histogram as captured in a [`Snapshot`]: the quantile summary plus
/// the raw non-empty `(bucket_low, count)` distribution behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoSnap {
    /// Count / mean / min / max / p50 / p95 / p99.
    pub summary: HistoSummary,
    /// Non-empty buckets, ascending by lower bound.
    pub buckets: Vec<(u64, u64)>,
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    GaugeF(GaugeF),
    Histo(HistoHandle),
}

/// One value in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum SnapValue {
    /// Counter or gauge value.
    Int(u64),
    /// Float gauge value.
    Float(f64),
    /// Histogram summary + raw buckets.
    Histo(HistoSnap),
}

/// Stable-ordered point-in-time view of every registered metric.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// `(name, value)` pairs in lexicographic name order.
    pub entries: Vec<(String, SnapValue)>,
}

impl Snapshot {
    /// Look up one entry by exact name.
    pub fn get(&self, name: &str) -> Option<&SnapValue> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Integer value of `name` (counter/gauge), if present.
    pub fn int(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            SnapValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Render as an aligned text table.
    pub fn to_table(&self) -> String {
        let width = self.entries.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                SnapValue::Int(v) => {
                    let _ = writeln!(out, "  {name:<width$}  {v}");
                }
                SnapValue::Float(v) => {
                    let _ = writeln!(out, "  {name:<width$}  {v:.3}");
                }
                SnapValue::Histo(h) => {
                    let s = &h.summary;
                    let _ = writeln!(
                        out,
                        "  {name:<width$}  n={} mean={:.1} p50={} p95={} p99={} max={}",
                        s.count, s.mean, s.p50, s.p95, s.p99, s.max
                    );
                }
            }
        }
        out
    }

    /// Render as a JSON object keyed by metric name.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.entries
                .iter()
                .map(|(name, value)| {
                    let v = match value {
                        SnapValue::Int(v) => Json::Int(*v),
                        SnapValue::Float(v) => Json::Float(*v),
                        SnapValue::Histo(h) => {
                            let s = &h.summary;
                            Json::Obj(vec![
                                ("count".into(), Json::Int(s.count)),
                                ("mean".into(), Json::Float(s.mean)),
                                ("min".into(), Json::Int(s.min)),
                                ("max".into(), Json::Int(s.max)),
                                ("p50".into(), Json::Int(s.p50)),
                                ("p95".into(), Json::Int(s.p95)),
                                ("p99".into(), Json::Int(s.p99)),
                                (
                                    "buckets".into(),
                                    Json::Arr(
                                        h.buckets
                                            .iter()
                                            .map(|&(low, count)| {
                                                Json::Arr(vec![Json::Int(low), Json::Int(count)])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        }
                    };
                    (name.clone(), v)
                })
                .collect(),
        )
    }
}

/// The name → handle map. Get-or-register: asking for an existing name of
/// the same kind returns the shared handle; `bind_*` rebinds a name to a
/// caller-owned handle (used when a subsystem instance — a new recovery
/// session, a rebooted `Durability` — owns per-instance counters and the
/// registry should expose the *latest* instance).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock();
        if let Some(Metric::Counter(c)) = m.get(name) {
            return c.clone();
        }
        let c = Counter::new();
        m.insert(name.to_string(), Metric::Counter(c.clone()));
        c
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock();
        if let Some(Metric::Gauge(g)) = m.get(name) {
            return g.clone();
        }
        let g = Gauge::new();
        m.insert(name.to_string(), Metric::Gauge(g.clone()));
        g
    }

    /// Get or register the float gauge `name`.
    pub fn gauge_f(&self, name: &str) -> GaugeF {
        let mut m = self.metrics.lock();
        if let Some(Metric::GaugeF(g)) = m.get(name) {
            return g.clone();
        }
        let g = GaugeF::new();
        m.insert(name.to_string(), Metric::GaugeF(g.clone()));
        g
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str) -> HistoHandle {
        let mut m = self.metrics.lock();
        if let Some(Metric::Histo(h)) = m.get(name) {
            return h.clone();
        }
        let h = HistoHandle::new();
        m.insert(name.to_string(), Metric::Histo(h.clone()));
        h
    }

    /// Bind `name` to an existing counter handle (replaces any binding).
    pub fn bind_counter(&self, name: &str, c: &Counter) {
        self.metrics
            .lock()
            .insert(name.to_string(), Metric::Counter(c.clone()));
    }

    /// Bind `name` to an existing gauge handle (replaces any binding).
    pub fn bind_gauge(&self, name: &str, g: &Gauge) {
        self.metrics
            .lock()
            .insert(name.to_string(), Metric::Gauge(g.clone()));
    }

    /// Bind `name` to an existing histogram handle (replaces any binding).
    pub fn bind_histogram(&self, name: &str, h: &HistoHandle) {
        self.metrics
            .lock()
            .insert(name.to_string(), Metric::Histo(h.clone()));
    }

    /// One consistent pass over every metric, in stable (lexicographic)
    /// name order.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock();
        Snapshot {
            entries: m
                .iter()
                .map(|(name, metric)| {
                    let v = match metric {
                        Metric::Counter(c) => SnapValue::Int(c.get()),
                        Metric::Gauge(g) => SnapValue::Int(g.get()),
                        Metric::GaugeF(g) => SnapValue::Float(g.get()),
                        Metric::Histo(h) => SnapValue::Histo(h.snap()),
                    };
                    (name.clone(), v)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_shares_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("x.count");
        let b = r.counter("x.count");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(r.snapshot().int("x.count"), Some(4));
    }

    #[test]
    fn bind_rebinds_to_latest_instance() {
        let r = MetricsRegistry::new();
        let first = Counter::new();
        first.add(10);
        r.bind_counter("session.txns", &first);
        assert_eq!(r.snapshot().int("session.txns"), Some(10));
        let second = Counter::new();
        second.add(2);
        r.bind_counter("session.txns", &second);
        assert_eq!(r.snapshot().int("session.txns"), Some(2));
        // The first handle still works for its owner, just unbound.
        first.inc();
        assert_eq!(first.get(), 11);
    }

    #[test]
    fn snapshot_is_name_ordered_and_stable() {
        let r = MetricsRegistry::new();
        r.counter("z.last");
        r.gauge("a.first").set(7);
        r.gauge_f("m.mid").set(1.5);
        r.histogram("h.hist").record(42);
        let s = r.snapshot();
        let names: Vec<&str> = s.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "h.hist", "m.mid", "z.last"]);
        assert_eq!(s.int("a.first"), Some(7));
        let table = s.to_table();
        assert!(table.contains("a.first"));
        let json = s.to_json().render();
        assert!(json.starts_with('{'));
        assert!(json.contains("\"z.last\":0"));
    }

    #[test]
    fn histogram_summary_single_lock() {
        let h = HistoHandle::new();
        for v in [1u64, 10, 100, 1000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert!(s.max >= 1000);
        assert!(s.p50 >= 10);
    }

    #[test]
    fn histogram_export_carries_summary_and_buckets() {
        let r = MetricsRegistry::new();
        let h = r.histogram("lat.us");
        for v in [5u64, 5, 300] {
            h.record(v);
        }
        let snap = r.snapshot();
        let Some(SnapValue::Histo(hs)) = snap.get("lat.us") else {
            panic!("histogram missing from snapshot");
        };
        assert_eq!(hs.summary.count, 3);
        assert_eq!(hs.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 3);
        // The text table keeps the quantile summary line.
        let table = snap.to_table();
        assert!(table.contains("p50="), "table: {table}");
        assert!(table.contains("p99="), "table: {table}");
        // The JSON export carries both the summary fields and the raw
        // distribution as [low, count] pairs.
        let json = snap.to_json().render();
        assert!(json.contains("\"p99\":"), "json: {json}");
        assert!(json.contains("\"buckets\":[[5,2],["), "json: {json}");
    }
}
