//! Observability layer: flight-recorder tracing + unified metrics registry.
//!
//! Every durability subsystem (logging, checkpointing, retention, shipping,
//! standby apply, recovery gate) reports through two shared facilities:
//!
//! * a [`Tracer`] — lock-free per-thread bounded ring buffers of timestamped
//!   structured [`TraceEvent`]s with a dump-on-failure hook (see
//!   `docs/OBSERVABILITY.md` for the event taxonomy), and
//! * a [`MetricsRegistry`] — named counters / gauges / histograms with cheap
//!   cloneable handles and a stable-ordered [`Snapshot`] export (text table
//!   and JSON).
//!
//! Both are bundled in an [`Obs`] handle. The process-wide default is
//! [`Obs::current()`]; subsystems that take no explicit handle (the recovery
//! manager, the standby, the engine gate) report through it, while
//! `DurabilityConfig` carries an explicit handle so tests can isolate.

mod introspect;
mod json;
mod registry;
mod spans;
mod trace;
mod watchdog;

pub use introspect::{respond as introspect_respond, IntrospectServer};
pub use json::Json;
pub use registry::{
    Counter, Gauge, GaugeF, HistoHandle, HistoSnap, HistoSummary, MetricsRegistry, SnapValue,
    Snapshot,
};
pub use spans::{EpochSpanTable, Stage, SPAN_SLOTS, STAGE_HISTOGRAMS};
pub use trace::{
    DumpSink, GatePlane, HoldKind, RecoveryPhase, StallKind, StderrSink, TraceEvent, TraceRecord,
    Tracer, DUMP_TAIL_EVENTS, RING_CAPACITY,
};
pub use watchdog::{ProbeHealth, ProbeId, ProbeSample, Watchdog, WatchdogConfig};

use std::sync::{Arc, OnceLock};

/// A bundle of the two observability facilities.
///
/// Cheap to clone (two `Arc`s); clones share state. The tracer starts
/// *disabled* — emitting through a disabled tracer is a single relaxed load.
#[derive(Clone)]
pub struct Obs {
    /// Flight-recorder event trace.
    pub tracer: Arc<Tracer>,
    /// Named metrics registry.
    pub registry: Arc<MetricsRegistry>,
}

impl Obs {
    /// A fresh, isolated bundle (tracer disabled, empty registry).
    pub fn new() -> Obs {
        Obs {
            tracer: Arc::new(Tracer::new()),
            registry: Arc::new(MetricsRegistry::new()),
        }
    }

    /// The process-wide default bundle.
    ///
    /// Subsystems without an explicit handle report here; bench binaries
    /// print its snapshot. Initialized lazily on first use.
    pub fn current() -> &'static Obs {
        static GLOBAL: OnceLock<Obs> = OnceLock::new();
        GLOBAL.get_or_init(Obs::new)
    }
}

impl Default for Obs {
    fn default() -> Obs {
        // `Default` hands out the *shared* process-wide bundle, so plain
        // `..Default::default()` config construction joins the global
        // observability plane rather than silently forking a private one.
        Obs::current().clone()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("tracing", &self.tracer.is_enabled())
            .finish()
    }
}

/// The process-wide tracer ([`Obs::current()`]'s).
pub fn tracer() -> &'static Arc<Tracer> {
    &Obs::current().tracer
}

/// The process-wide metrics registry ([`Obs::current()`]'s).
pub fn registry() -> &'static Arc<MetricsRegistry> {
    &Obs::current().registry
}

/// The process-wide epoch span table.
///
/// Global (not per-`Obs`) because the stages of one epoch are stamped from
/// different subsystems — workers, loggers, shipper, standby —
/// that do not share a config handle. On first use its five transition
/// histograms are bound into the global registry under the `wal.epoch.*` /
/// `wal.ship.*` / `standby.*` names in [`STAGE_HISTOGRAMS`].
pub fn spans() -> &'static EpochSpanTable {
    static SPANS: OnceLock<EpochSpanTable> = OnceLock::new();
    SPANS.get_or_init(|| {
        let table = EpochSpanTable::new();
        table.register_into(registry());
        table
    })
}

/// The process-wide stall watchdog.
///
/// Created with the built-in `seal` and `ship` probes (reading the span
/// table's stage frontiers) and its `obs.watchdog.*` counters bound into the
/// global registry. Sampler cadence is owned by whoever drives it — normally
/// the thread `Durability::boot` spawns.
pub fn watchdog() -> &'static Watchdog {
    static WATCHDOG: OnceLock<Watchdog> = OnceLock::new();
    WATCHDOG.get_or_init(|| {
        let w = Watchdog::with_builtin_probes();
        w.register_metrics(registry());
        w
    })
}
