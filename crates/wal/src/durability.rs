//! The durability manager: wires epoch management, loggers (which publish
//! the pepoch frontier) and checkpointing around a running database.

use crate::batch::truncate_log_tail;
use crate::checkpoint::{
    read_manifest, run_checkpoint_full_chained, run_checkpoint_incremental_chained,
};
use crate::classify::{CommitClassifier, LogChoice, WriteCountClassifier};
use crate::logger::{LoggerHandle, QueuedRecord};
use crate::pepoch::{DurableSignal, Frontier, PepochHandle};
use crate::record::PayloadRef;
use crate::retention::{RetentionManager, RetentionPolicy};
use crate::ship::{LogShipper, ShipCounters};
use pacman_common::clock::epoch_of;
use pacman_common::ProcId;
use pacman_engine::epoch::WorkerEpoch;
use pacman_engine::{CommitInfo, Database, EpochManager};
use pacman_obs::{
    Counter, Gauge, HistoHandle, IntrospectServer, Obs, ProbeId, ProbeSample, Stage, StallKind,
    TraceEvent, WatchdogConfig,
};
use pacman_sproc::Params;
use pacman_storage::TraceDumpSink;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which logging scheme the system runs (§2.1). `Off` disables durability
/// entirely (the paper's "OFF" baseline in Fig. 11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogScheme {
    /// No logging, no checkpointing.
    Off,
    /// Physical tuple-level logging (PL).
    Physical,
    /// Logical tuple-level logging (LL).
    Logical,
    /// Transaction-level command logging (CL).
    Command,
    /// Adaptive hybrid logging (ALR): each committing transaction is
    /// classified by a [`CommitClassifier`] and emits either a command
    /// record or a proc-tagged logical record into the same epoch-batched
    /// stream.
    Adaptive,
}

impl LogScheme {
    /// Short label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            LogScheme::Off => "OFF",
            LogScheme::Physical => "PL",
            LogScheme::Logical => "LL",
            LogScheme::Command => "CL",
            LogScheme::Adaptive => "ALR",
        }
    }

    /// Parse a command-line scheme name (`--scheme adaptive` and friends).
    pub fn parse(s: &str) -> Option<LogScheme> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(LogScheme::Off),
            "physical" | "pl" => Some(LogScheme::Physical),
            "logical" | "ll" => Some(LogScheme::Logical),
            "command" | "cl" => Some(LogScheme::Command),
            "adaptive" | "alr" => Some(LogScheme::Adaptive),
            _ => None,
        }
    }
}

/// Configuration of the durability subsystem.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Logging scheme.
    pub scheme: LogScheme,
    /// Logger threads (paper: one per device).
    pub num_loggers: usize,
    /// Group-commit epoch length.
    pub epoch_interval: Duration,
    /// Epochs per log batch file (paper: 100).
    pub batch_epochs: u64,
    /// Checkpoint cadence; `None` disables checkpointing.
    pub checkpoint_interval: Option<Duration>,
    /// Checkpoint writer threads (paper: one per device).
    pub checkpoint_threads: usize,
    /// Write incremental (delta) checkpoint rounds that skip clean shards;
    /// `false` restores the always-full-snapshot behavior.
    pub checkpoint_incremental: bool,
    /// Chain-length bound for incremental rounds: once the manifest chain
    /// reaches this many links, the next round is a full compaction
    /// rewrite. Ignored when `checkpoint_incremental` is off.
    pub checkpoint_max_chain: usize,
    /// Bounded-lag policy for ship-cursor retention holds: a subscriber
    /// whose hold retains more than this many log bytes below checkpoint
    /// coverage is broken (its cursor invalidated, the standby
    /// re-bootstraps) so a lagging standby can never pin unbounded disk.
    /// `None` = never break.
    pub max_subscriber_lag_bytes: Option<u64>,
    /// Whether loggers fsync on epoch seal (Table 3 ablation).
    pub fsync: bool,
    /// Observability handles: the flight-recorder tracer every wal thread
    /// emits through, and the registry the stack's counters are bound
    /// into. Defaults to the process-wide [`Obs::current`] bundle; tests
    /// that need isolation pass a fresh [`Obs::new`].
    pub obs: Obs,
    /// Stall-watchdog sampling policy. `Some` (the default) spawns a
    /// background sampler stepping the process-wide
    /// [`pacman_obs::watchdog`] at `period`; `None` disables the sampler
    /// for this stack (tests step the watchdog manually).
    pub watchdog: Option<WatchdogConfig>,
    /// Bind address of the live introspection endpoint
    /// (`docs/OBSERVABILITY.md`), e.g. `"127.0.0.1:7071"` — port `0` picks
    /// an ephemeral port, readable via [`Durability::introspect_addr`].
    /// `None` (the default) serves nothing.
    pub introspect_addr: Option<String>,
    /// Flight-recorder dump tail length in events (applied to the tracer
    /// at boot via `Tracer::set_dump_tail`).
    pub dump_tail_events: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            scheme: LogScheme::Command,
            num_loggers: 1,
            epoch_interval: Duration::from_millis(5),
            batch_epochs: 10,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            checkpoint_incremental: true,
            checkpoint_max_chain: 8,
            max_subscriber_lag_bytes: None,
            fsync: true,
            obs: Obs::default(),
            watchdog: Some(WatchdogConfig::default()),
            introspect_addr: None,
            dump_tail_events: pacman_obs::DUMP_TAIL_EVENTS,
        }
    }
}

/// Running durability subsystem. Workers interact with it on every commit;
/// recovery consumes what it leaves on the devices.
pub struct Durability {
    config: DurabilityConfig,
    em: Arc<EpochManager>,
    loggers: RwLock<Vec<LoggerHandle>>,
    pepoch_value: Arc<AtomicU64>,
    durable_signal: Arc<DurableSignal>,
    commit_group_size: HistoHandle,
    storage: pacman_storage::StorageSet,
    retention: Arc<RetentionManager>,
    ckpt_stop: Arc<AtomicBool>,
    ckpt_active: Arc<AtomicBool>,
    last_ckpt_ts: Gauge,
    ckpt_bytes_written: Counter,
    ckpt_parts_written: Counter,
    ckpt_shards_skipped: Counter,
    ckpt_rounds: Counter,
    ckpt_full_rounds: Counter,
    ckpt_join: Mutex<Option<JoinHandle<()>>>,
    bytes_logged: Counter,
    classifier: RwLock<Arc<dyn CommitClassifier>>,
    command_records: Counter,
    logical_records: Counter,
    ship_counters: Arc<ShipCounters>,
    obs: Obs,
    /// Key this stack's dump sink is registered under (unique per
    /// instance, so parallel stacks sharing one tracer never replace each
    /// other's sink); unregistered on shutdown/crash.
    sink_key: String,
    wd_stop: Arc<AtomicBool>,
    wd_join: Mutex<Option<JoinHandle<()>>>,
    /// This stack's retention probe in the process-wide watchdog
    /// (removed on shutdown/crash).
    retention_probe: Option<ProbeId>,
    introspect: Mutex<Option<IntrospectServer>>,
}

/// Distinguishes the dump-sink registrations of stacks sharing a tracer.
static DURABILITY_SINK_IDS: AtomicU64 = AtomicU64::new(0);

/// A worker's log staging arena: commit records of the current epoch are
/// encoded back-to-back into one growing buffer and handed to the logger
/// as a single [`QueuedRecord`] when the epoch turns over (or at
/// shutdown). Steady state, the commit path performs zero allocations for
/// logging — the buffer is recycled each epoch by `std::mem::take` +
/// regrowth into the logger's queue entry, so the cost is one buffer
/// allocation per worker *per epoch*, not per transaction.
#[derive(Debug, Default)]
pub struct WorkerLogBuffer {
    epoch: u64,
    buf: Vec<u8>,
    records: u64,
}

impl WorkerLogBuffer {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The epoch the staged records belong to (meaningless when empty).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether anything is staged.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of staged records.
    pub fn staged_records(&self) -> u64 {
        self.records
    }
}

/// What [`Durability::reopen`] found and resumed from.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResumeInfo {
    /// Durability frontier persisted by the previous incarnation.
    pub persisted_pepoch: u64,
    /// Epoch the new incarnation resumes strictly past: the max of the
    /// pepoch frontier, the recovered checkpoint's epoch and the recovered
    /// clock's epoch. The first fresh epoch is `base_epoch + 1`.
    pub base_epoch: u64,
    /// Unacknowledged tail records truncated from the surviving log.
    pub truncated_records: u64,
}

impl Durability {
    /// Start loggers and (optionally) the checkpointer.
    pub fn start(
        db: Arc<Database>,
        storage: pacman_storage::StorageSet,
        config: DurabilityConfig,
    ) -> Arc<Self> {
        Self::boot(db, storage, config, 0)
    }

    /// Reopen an existing log directory after recovery: truncate the
    /// unacknowledged tail past the persisted pepoch, resume epoch
    /// numbering (and therefore batch naming) strictly past the recovered
    /// frontier, and re-arm checkpointing. Crash → recover → reopen →
    /// crash loops are first-class: a second recovery sees one continuous
    /// log stream.
    ///
    /// `db` must be the *recovered* database (its clock advanced past
    /// everything replayed) and `config` must use the same `num_loggers`
    /// and `batch_epochs` as the previous incarnation — batch file naming
    /// is derived from both.
    ///
    /// An online recovery session may still be replaying when this runs;
    /// pair it with `RecoverySession::pin_retention_on` so the session's
    /// retention hold blocks checkpoint rounds (a checkpoint can never
    /// snapshot half-replayed state) and pins its unreplayed log tail
    /// against reclamation until replay completes.
    pub fn reopen(
        db: Arc<Database>,
        storage: pacman_storage::StorageSet,
        config: DurabilityConfig,
    ) -> (Arc<Self>, ResumeInfo) {
        let pepoch = PepochHandle::read_persisted(storage.disk(0));
        let (truncated_records, max_kept) =
            truncate_log_tail(&storage, pepoch, config.batch_epochs);
        let ckpt_epoch = match read_manifest(&storage) {
            Ok(Some(m)) => epoch_of(m.ts),
            _ => 0,
        };
        // Everything recovered (log frontier, checkpoint snapshot, clock)
        // must sort strictly below the first fresh epoch, so resumed
        // commit timestamps extend the recovered history. A legacy
        // `u64::MAX` pepoch ("everything durable" sentinel) resumes from
        // the highest epoch actually present instead.
        let log_floor = if pepoch == u64::MAX { max_kept } else { pepoch };
        let base_epoch = log_floor.max(ckpt_epoch).max(epoch_of(db.clock().peek()));
        let info = ResumeInfo {
            persisted_pepoch: pepoch,
            base_epoch,
            truncated_records,
        };
        (Self::boot(db, storage, config, base_epoch), info)
    }

    /// Shared start/reopen body. `base_epoch = 0` is a fresh directory;
    /// otherwise epochs `<= base_epoch` are the recovered prefix.
    fn boot(
        db: Arc<Database>,
        storage: pacman_storage::StorageSet,
        config: DurabilityConfig,
        base_epoch: u64,
    ) -> Arc<Self> {
        let em = EpochManager::start_at(config.epoch_interval, base_epoch + 1);
        // The crash image carries its own flight-recorder tail: dumps land
        // in `trace/` on these devices. Keyed per instance so concurrent
        // stacks sharing the (usually global) tracer never cross-write
        // dumps into each other's StorageSet; shutdown/crash unregister it.
        let sink_key = format!(
            "durability-{}",
            DURABILITY_SINK_IDS.fetch_add(1, Ordering::Relaxed)
        );
        config
            .obs
            .tracer
            .set_sink(&sink_key, Arc::new(TraceDumpSink::new(storage.clone())));
        config.obs.tracer.set_dump_tail(config.dump_tail_events);
        // Epochs restart small after a reboot (fresh directories) or resume
        // mid-range (reopen); either way the span table's slots and stage
        // frontiers describe the *previous* incarnation. Reset them so the
        // watchdog's built-in probes baseline on this boot. (The transition
        // histograms keep accumulating — they describe latency, not
        // position.)
        pacman_obs::spans().reset();
        let mut loggers = Vec::new();
        let (pepoch_value, durable_signal) = if config.scheme == LogScheme::Off {
            // OFF: everything "durable"
            (Arc::new(AtomicU64::new(u64::MAX)), Arc::default())
        } else {
            let n = config.num_loggers.max(1);
            let frontier = Arc::new(Frontier::new(n, base_epoch, Arc::clone(storage.disk(0))));
            for i in 0..n {
                loggers.push(LoggerHandle::spawn(
                    i,
                    Arc::clone(storage.disk(i)),
                    Arc::clone(&em),
                    config.batch_epochs,
                    config.fsync,
                    Arc::clone(&frontier),
                    Arc::clone(&config.obs.tracer),
                ));
            }
            (Arc::clone(&frontier.value), Arc::clone(&frontier.signal))
        };

        // One reclaim frontier for the whole stack: the manager owns every
        // deletion (log GC + chain pruning) and restores its persisted
        // reclaimed-batch floor across reopens.
        let retention = RetentionManager::new(
            storage.clone(),
            config.num_loggers.max(1),
            config.batch_epochs,
            RetentionPolicy {
                max_subscriber_lag_bytes: config.max_subscriber_lag_bytes,
            },
        );
        let ckpt_stop = Arc::new(AtomicBool::new(false));
        let ckpt_active = Arc::new(AtomicBool::new(false));
        // Per-instance counters (so a parallel stack in the same process
        // never shares them), bound into the registry below — the binding
        // always exposes the *latest* incarnation's values.
        let last_ckpt_ts = Gauge::new();
        let ckpt_bytes_written = Counter::new();
        let ckpt_parts_written = Counter::new();
        let ckpt_shards_skipped = Counter::new();
        let ckpt_rounds = Counter::new();
        let ckpt_full_rounds = Counter::new();
        let ckpt_join = match (config.checkpoint_interval, config.scheme) {
            (Some(interval), scheme) if scheme != LogScheme::Off => {
                let stop = Arc::clone(&ckpt_stop);
                let active = Arc::clone(&ckpt_active);
                let last = last_ckpt_ts.clone();
                let bytes = ckpt_bytes_written.clone();
                let parts = ckpt_parts_written.clone();
                let skipped = ckpt_shards_skipped.clone();
                let rounds = ckpt_rounds.clone();
                let fulls = ckpt_full_rounds.clone();
                let tracer = Arc::clone(&config.obs.tracer);
                let retention2 = Arc::clone(&retention);
                let storage2 = storage.clone();
                let threads = config.checkpoint_threads.max(1);
                let incremental = config.checkpoint_incremental;
                let max_chain = config.checkpoint_max_chain.max(1);
                Some(
                    std::thread::Builder::new()
                        .name("checkpointer".into())
                        .spawn(move || loop {
                            // Sleep in small steps so stop is responsive.
                            let mut slept = Duration::ZERO;
                            while slept < interval {
                                if stop.load(Ordering::Acquire) {
                                    return;
                                }
                                let step = Duration::from_millis(2).min(interval - slept);
                                std::thread::sleep(step);
                                slept += step;
                            }
                            if stop.load(Ordering::Acquire) {
                                return;
                            }
                            if retention2.checkpoints_held() {
                                // A recovery hold is live: a snapshot now
                                // would cover timestamps whose old-epoch
                                // replay installs still race the scan.
                                continue;
                            }
                            active.store(true, Ordering::Release);
                            tracer.emit(TraceEvent::CkptBegin {
                                round: rounds.get() + 1,
                            });
                            let result = if incremental {
                                run_checkpoint_incremental_chained(
                                    &db, &storage2, threads, max_chain,
                                )
                            } else {
                                run_checkpoint_full_chained(&db, &storage2, threads)
                            };
                            if let Ok((st, chain)) = result {
                                bytes.add(st.bytes_written);
                                parts.add(st.parts_written);
                                skipped.add(st.shards_skipped_clean);
                                rounds.inc();
                                if st.full {
                                    fulls.inc();
                                }
                                tracer.emit(TraceEvent::CkptEnd {
                                    round: rounds.get(),
                                    chain_len: chain.len() as u32,
                                    parts: st.parts_written as u32,
                                    bytes: st.bytes_written,
                                });
                                // Every reclamation decision — log batches
                                // below min(coverage, holds), chain links no
                                // live link or hold references, bounded-lag
                                // hold breaking — goes through the manager,
                                // against the chain this round produced.
                                retention2.reclaim(&chain);
                                // Release pairs with `last_checkpoint_ts`'s
                                // Acquire: a reader observing the new ts
                                // also sees the manifest write and the
                                // reclaim round it covers.
                                last.set_release(st.ts);
                            }
                            active.store(false, Ordering::Release);
                        })
                        .expect("spawn checkpointer"),
                )
            }
            _ => None,
        };

        // Retention probe: a hold whose floor stays frozen while the
        // durability frontier keeps advancing is pinning the log (a wedged
        // recovery session or a dead subscriber). Pins are legitimate for a
        // while — a replaying standby holds its floor for the whole catch-up
        // — so the threshold is much laxer than the seal/ship probes'.
        let retention_probe = {
            let pepoch2 = Arc::clone(&pepoch_value);
            let retention2 = Arc::clone(&retention);
            Some(pacman_obs::watchdog().register_with_threshold(
                "wal.retention",
                StallKind::Retention,
                8,
                move || {
                    let floor = retention2.min_hold_floor()?;
                    Some(ProbeSample {
                        work: pepoch2.load(Ordering::Acquire),
                        progress: floor,
                    })
                },
            ))
        };
        let wd_stop = Arc::new(AtomicBool::new(false));
        let wd_join = config.watchdog.map(|wd_cfg| {
            let stop = Arc::clone(&wd_stop);
            std::thread::Builder::new()
                .name("stall-watchdog".into())
                .spawn(move || loop {
                    let mut slept = Duration::ZERO;
                    while slept < wd_cfg.period {
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        let step = Duration::from_millis(2).min(wd_cfg.period - slept);
                        std::thread::sleep(step);
                        slept += step;
                    }
                    pacman_obs::watchdog().sample(&wd_cfg);
                })
                .expect("spawn stall-watchdog")
        });
        let introspect = config.introspect_addr.as_deref().and_then(|addr| {
            match IntrospectServer::spawn(addr) {
                Ok(srv) => Some(srv),
                Err(e) => {
                    // A busy port must not take the database down; the
                    // endpoint is diagnostics, not durability.
                    eprintln!("introspect endpoint disabled: bind {addr}: {e}");
                    None
                }
            }
        });

        let obs = config.obs.clone();
        let dur = Durability {
            config,
            em,
            loggers: RwLock::new(loggers),
            pepoch_value,
            durable_signal,
            commit_group_size: HistoHandle::new(),
            storage,
            retention,
            ckpt_stop,
            ckpt_active,
            last_ckpt_ts,
            ckpt_bytes_written,
            ckpt_parts_written,
            ckpt_shards_skipped,
            ckpt_rounds,
            ckpt_full_rounds,
            ckpt_join: Mutex::new(ckpt_join),
            bytes_logged: Counter::new(),
            classifier: RwLock::new(Arc::new(WriteCountClassifier::default())),
            command_records: Counter::new(),
            logical_records: Counter::new(),
            ship_counters: Arc::default(),
            obs,
            sink_key,
            wd_stop,
            wd_join: Mutex::new(wd_join),
            retention_probe,
            introspect: Mutex::new(introspect),
        };
        dur.register_metrics();
        Arc::new(dur)
    }

    /// Bind this stack's counters into its registry under the `wal.*`
    /// namespace (`docs/OBSERVABILITY.md`). Rebinding on every boot means
    /// the registry always reflects the newest incarnation after a
    /// crash → recover → reopen cycle.
    fn register_metrics(&self) {
        let r = &self.obs.registry;
        r.bind_counter("wal.log.bytes_logged", &self.bytes_logged);
        r.bind_histogram("wal.commit.group_size", &self.commit_group_size);
        r.bind_counter("wal.log.command_records", &self.command_records);
        r.bind_counter("wal.log.logical_records", &self.logical_records);
        r.bind_counter("wal.ckpt.bytes_written", &self.ckpt_bytes_written);
        r.bind_counter("wal.ckpt.parts_written", &self.ckpt_parts_written);
        r.bind_counter("wal.ckpt.shards_skipped", &self.ckpt_shards_skipped);
        r.bind_counter("wal.ckpt.rounds", &self.ckpt_rounds);
        r.bind_counter("wal.ckpt.full_rounds", &self.ckpt_full_rounds);
        r.bind_gauge("wal.ckpt.last_ts", &self.last_ckpt_ts);
        self.ship_counters.register_into(r);
        self.retention.register_into(r);
    }

    /// Refresh the `wal.space.*` gauges from the devices so the next
    /// registry snapshot carries the live-footprint numbers alongside the
    /// reclaim counters — one consistent pass instead of interleaved ad-hoc
    /// reads.
    pub fn publish_space_gauges(&self) {
        let r = &self.obs.registry;
        r.gauge("wal.space.live_log_bytes")
            .set(self.live_log_bytes());
        r.gauge("wal.space.live_ckpt_bytes")
            .set(self.live_ckpt_bytes());
    }

    /// Install the classifier consulted under [`LogScheme::Adaptive`]
    /// (e.g. `pacman_core`'s cost model). Replaces the write-count
    /// fallback installed at start.
    pub fn set_classifier(&self, classifier: Arc<dyn CommitClassifier>) {
        *self.classifier.write() = classifier;
    }

    /// Forward runtime execution feedback (interpreter ops executed,
    /// tuples written) to the installed classifier so its dynamic
    /// estimators adapt mid-run.
    pub fn observe_execution(&self, proc: ProcId, replay_ops: f64, writes: usize) {
        self.classifier.read().observe(proc, replay_ops, writes);
    }

    /// Command records emitted so far (adaptive-mix reporting).
    pub fn command_records(&self) -> u64 {
        self.command_records.get()
    }

    /// Logical (tuple-level) records emitted so far, including ad-hoc ones.
    pub fn logical_records(&self) -> u64 {
        self.logical_records.get()
    }

    /// The epoch manager (workers register with it).
    pub fn epoch_manager(&self) -> &Arc<EpochManager> {
        &self.em
    }

    /// Register a transaction worker.
    pub fn register_worker(&self) -> WorkerEpoch {
        self.em.register_worker()
    }

    /// The configured scheme.
    pub fn scheme(&self) -> LogScheme {
        self.config.scheme
    }

    /// The attached storage.
    pub fn storage(&self) -> &pacman_storage::StorageSet {
        &self.storage
    }

    /// Pick the wire payload for a committing transaction, borrowing the
    /// commit info's write set / parameter list (no clone — the encoder
    /// walks the borrowed payload straight into the output buffer).
    fn commit_payload<'a>(
        &self,
        info: &'a CommitInfo,
        proc: ProcId,
        params: &'a Params,
        adhoc: bool,
    ) -> Option<PayloadRef<'a>> {
        let payload = match (self.config.scheme, adhoc) {
            (LogScheme::Off, _) => return None,
            (LogScheme::Command, false) => PayloadRef::Command {
                proc,
                params: &params[..],
            },
            (LogScheme::Command, true) | (LogScheme::Adaptive, true) => PayloadRef::Writes {
                writes: &info.writes,
                physical: false,
                adhoc: true,
            },
            (LogScheme::Adaptive, false) => {
                let choice = self.classifier.read().classify(proc, info);
                self.obs.tracer.emit(TraceEvent::ClassifierDecision {
                    proc: proc.0,
                    command: choice == LogChoice::Command,
                });
                match choice {
                    LogChoice::Command => PayloadRef::Command {
                        proc,
                        params: &params[..],
                    },
                    LogChoice::Logical => PayloadRef::TaggedWrites {
                        proc,
                        writes: &info.writes,
                    },
                }
            }
            (LogScheme::Logical, _) => PayloadRef::Writes {
                writes: &info.writes,
                physical: false,
                adhoc: false,
            },
            (LogScheme::Physical, _) => PayloadRef::Writes {
                writes: &info.writes,
                physical: true,
                adhoc: false,
            },
        };
        match payload {
            PayloadRef::Command { .. } => self.command_records.inc(),
            PayloadRef::Writes { .. } | PayloadRef::TaggedWrites { .. } => {
                self.logical_records.inc()
            }
        }
        Some(payload)
    }

    /// Encode a committed transaction's record into the worker's epoch
    /// arena — the one way a commit reaches the log. `worker` selects the
    /// logger (sub-group mapping). Returns the record size in bytes (0
    /// when logging is off). The encode appends to the arena's buffer
    /// (amortizing the allocation over the whole epoch), and the logger
    /// receives *one* queue entry per worker per epoch, holding that
    /// epoch's run of records.
    ///
    /// Safety contract (enforced by the drivers): before a worker's
    /// acknowledged epoch advances past `buf.epoch()` — i.e. before every
    /// `WorkerEpoch::enter_at` with a newer epoch, including iterations
    /// that committed nothing — the arena must be handed to the logger via
    /// [`Durability::flush_before_ack`]. The logger seals epoch `e` the
    /// moment every ack exceeds `e`; records still staged in a worker
    /// arena at that point would miss their batch file. Before the worker
    /// retires, [`Durability::flush_worker`] hands over what is left.
    pub fn log_commit_buffered(
        &self,
        buf: &mut WorkerLogBuffer,
        worker: usize,
        info: &CommitInfo,
        proc: ProcId,
        params: &Params,
        adhoc: bool,
    ) -> usize {
        let Some(payload) = self.commit_payload(info, proc, params, adhoc) else {
            return 0;
        };
        let epoch = epoch_of(info.ts);
        if !buf.buf.is_empty() && buf.epoch != epoch {
            self.flush_worker(buf, worker);
        }
        buf.epoch = epoch;
        // First-stamp-wins in the span table: the epoch's Staged mark is the
        // *first* commit staged into it, anywhere in the process.
        pacman_obs::spans().record(epoch, Stage::Staged);
        let start = buf.buf.len();
        payload.encode_record(info.ts, &mut buf.buf);
        let len = buf.buf.len() - start;
        self.bytes_logged.add(len as u64);
        buf.records += 1;
        len
    }

    /// Hand the worker arena's staged records to its logger as a single
    /// queue entry. No-op on an empty arena.
    pub fn flush_worker(&self, buf: &mut WorkerLogBuffer, worker: usize) {
        if buf.buf.is_empty() {
            return;
        }
        buf.records = 0;
        let bytes = std::mem::take(&mut buf.buf);
        let loggers = self.loggers.read();
        if loggers.is_empty() {
            return;
        }
        let idx = worker % loggers.len();
        let _ = loggers[idx].sender.send(QueuedRecord {
            epoch: buf.epoch,
            bytes,
        });
    }

    /// Flush the worker arena iff it holds records of an epoch older than
    /// `epoch`. Call with the epoch the worker is *about to acknowledge*
    /// (sampled via `WorkerEpoch::peek`), strictly before the matching
    /// `WorkerEpoch::enter_at` — this is the ordering that keeps the
    /// logger's seal rule sound with worker-side staging.
    pub fn flush_before_ack(&self, buf: &mut WorkerLogBuffer, worker: usize, epoch: u64) {
        if !buf.buf.is_empty() && buf.epoch < epoch {
            self.flush_worker(buf, worker);
        }
    }

    /// The durability frontier (highest epoch all loggers sealed).
    pub fn pepoch(&self) -> u64 {
        self.pepoch_value.load(Ordering::Acquire)
    }

    /// Shared handle to the frontier (latency measurement in drivers).
    pub fn pepoch_arc(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.pepoch_value)
    }

    /// The group-commit acknowledgement signal: fired once per pepoch
    /// advance, waking every waiter of the sealed batch at once.
    pub fn durable_signal(&self) -> &Arc<DurableSignal> {
        &self.durable_signal
    }

    /// Record how many pending transactions one durability-frontier
    /// advance acknowledged (`wal.commit.group_size`).
    pub fn note_commit_group(&self, acked: u64) {
        self.commit_group_size.record(acked);
    }

    /// Block until `epoch` is durable. Waits on the group-commit signal —
    /// one wakeup per epoch seal — instead of sleep-polling.
    pub fn wait_durable(&self, epoch: u64) {
        self.durable_signal.wait_until(|| self.pepoch() >= epoch);
    }

    /// Whether a checkpoint is currently being written (Fig. 11 shading).
    pub fn checkpoint_active(&self) -> bool {
        self.ckpt_active.load(Ordering::Acquire)
    }

    /// The durable-space lifecycle manager: one reclaim frontier across
    /// log GC, chain pruning and every live [`crate::retention::RetentionHold`].
    /// Recovery sessions and ship cursors pin history through it; the
    /// periodic checkpointer reclaims through it after every round.
    pub fn retention(&self) -> &Arc<RetentionManager> {
        &self.retention
    }

    /// Log bytes the retention manager has reclaimed so far.
    pub fn reclaimed_log_bytes(&self) -> u64 {
        self.retention.reclaimed_log_bytes()
    }

    /// Subscriber holds broken by the bounded-lag policy so far.
    pub fn holds_broken(&self) -> u64 {
        self.retention.holds_broken()
    }

    /// Live log bytes currently on the devices (the bounded footprint).
    pub fn live_log_bytes(&self) -> u64 {
        self.storage.live_bytes("log/")
    }

    /// Live checkpoint bytes currently on the devices (chain + orphans
    /// not yet pruned).
    pub fn live_ckpt_bytes(&self) -> u64 {
        self.storage.live_bytes("ckpt/")
    }

    /// Snapshot timestamp of the last completed checkpoint (0 = none).
    /// Acquire-paired with the checkpointer's Release publish: observing a
    /// ts here also observes that round's manifest write and reclamation.
    pub fn last_checkpoint_ts(&self) -> u64 {
        self.last_ckpt_ts.get_acquire()
    }

    /// Part bytes the periodic checkpointer has written so far (the
    /// incremental-vs-full savings metric of the restart bench).
    pub fn checkpoint_bytes_written(&self) -> u64 {
        self.ckpt_bytes_written.get()
    }

    /// Shards skipped as dirty-clean across all delta rounds so far.
    pub fn checkpoint_shards_skipped(&self) -> u64 {
        self.ckpt_shards_skipped.get()
    }

    /// Completed checkpoint rounds `(total, full)` — the difference is
    /// the number of delta rounds.
    pub fn checkpoint_rounds(&self) -> (u64, u64) {
        (self.ckpt_rounds.get(), self.ckpt_full_rounds.get())
    }

    /// Total bytes handed to loggers.
    pub fn bytes_logged(&self) -> u64 {
        self.bytes_logged.get()
    }

    /// The observability bundle this stack reports through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// A log-shipping endpoint over this stack's devices and layout: the
    /// primary side of hot-standby replication. Each call starts a fresh
    /// (bootstrap) cursor — the cursor itself then survives subscriber
    /// reconnects. Poll it with [`Durability::pepoch`] to ship everything
    /// newly sealed; ship volume is folded into this stack's
    /// [`Durability::shipped_bytes`]/[`Durability::shipped_frames`] stats.
    ///
    /// The shipper registers a **subscriber retention hold** with this
    /// stack's [`Durability::retention`] manager, advanced after every
    /// delivered pass: log GC can no longer outrun the cursor, so a
    /// healthy standby never re-bootstraps. If the subscriber lags past
    /// [`DurabilityConfig::max_subscriber_lag_bytes`] the hold is broken
    /// and the shipper self-heals — it emits [`crate::ship::ShipFrame::Reset`]
    /// and restarts from a fresh (bootstrap) cursor.
    pub fn shipper(&self) -> LogShipper {
        LogShipper::with_retention(
            self.storage.clone(),
            self.config.num_loggers.max(1),
            self.config.batch_epochs,
            Arc::clone(&self.ship_counters),
            Arc::clone(&self.retention),
        )
    }

    /// Payload bytes shipped to standbys so far (all shippers combined).
    pub fn shipped_bytes(&self) -> u64 {
        self.ship_counters.bytes()
    }

    /// Replication frames emitted so far.
    pub fn shipped_frames(&self) -> u64 {
        self.ship_counters.frames()
    }

    /// Log records shipped to standbys so far.
    pub fn shipped_records(&self) -> u64 {
        self.ship_counters.records()
    }

    /// The bound address of the live introspection endpoint (`None` when
    /// `DurabilityConfig::introspect_addr` was unset or the bind failed).
    /// Resolves port `0` to the ephemeral port actually chosen.
    pub fn introspect_addr(&self) -> Option<std::net::SocketAddr> {
        self.introspect.lock().as_ref().map(|s| s.local_addr())
    }

    /// Stop the attribution-plane helpers (watchdog sampler, retention
    /// probe, introspection endpoint). Shared by shutdown and crash — these
    /// are observers; even a simulated crash must not leave them watching a
    /// dead stack.
    fn stop_observers(&self) {
        self.wd_stop.store(true, Ordering::Release);
        if let Some(j) = self.wd_join.lock().take() {
            let _ = j.join();
        }
        if let Some(id) = self.retention_probe {
            pacman_obs::watchdog().remove(id);
        }
        if let Some(mut srv) = self.introspect.lock().take() {
            srv.stop();
        }
    }

    /// Graceful shutdown: seal everything queued, then stop all threads.
    pub fn shutdown(&self) {
        self.stop_observers();
        self.ckpt_stop.store(true, Ordering::Release);
        if let Some(j) = self.ckpt_join.lock().take() {
            let _ = j.join();
        }
        for logger in self.loggers.write().iter_mut() {
            logger.stop(true);
        }
        self.em.stop();
        // Final space accounting for this stack — snapshots taken after a
        // graceful stop see the settled footprint.
        self.publish_space_gauges();
        // This stack is done: stop pinning its StorageSet through the
        // tracer, and never receive another run's dumps.
        self.obs.tracer.remove_sink(&self.sink_key);
    }

    /// Crash: stop everything abruptly. Unsealed epochs are lost; the
    /// devices retain exactly what a real crash would leave behind.
    pub fn crash(&self) {
        self.stop_observers();
        self.ckpt_stop.store(true, Ordering::Release);
        if let Some(j) = self.ckpt_join.lock().take() {
            let _ = j.join();
        }
        for logger in self.loggers.write().iter_mut() {
            logger.stop(false);
        }
        self.em.stop();
        self.obs.tracer.remove_sink(&self.sink_key);
    }
}

use std::sync::Arc as StdArc;
type _AssertSend = StdArc<Durability>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::read_batch;
    use crate::record::{LogPayload, PayloadKind, TxnLogRecord};
    use pacman_common::{Encoder, Row, TableId, Value};
    use pacman_engine::Catalog;
    use pacman_storage::{DiskConfig, StorageSet};

    fn setup(scheme: LogScheme) -> (Arc<Database>, Arc<Durability>) {
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Arc::new(Database::new(c));
        for k in 0..16u64 {
            db.seed_row(TableId::new(0), k, Row::from([Value::Int(0)]))
                .unwrap();
        }
        let storage = StorageSet::identical(2, DiskConfig::unthrottled("d"));
        let config = DurabilityConfig {
            scheme,
            num_loggers: 2,
            epoch_interval: Duration::from_millis(2),
            batch_epochs: 4,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            fsync: true,
            ..Default::default()
        };
        let dur = Durability::start(Arc::clone(&db), storage, config);
        (db, dur)
    }

    /// A test worker with the commit driver's staging discipline: the
    /// arena's older epochs go to the logger before the ack advances, and
    /// what is left goes before the worker retires.
    struct Worker {
        epoch: WorkerEpoch,
        buf: WorkerLogBuffer,
    }

    impl Worker {
        fn new(dur: &Durability) -> Worker {
            Worker {
                epoch: dur.register_worker(),
                buf: WorkerLogBuffer::new(),
            }
        }

        /// Commit `k := v`, stage its record, return the record's epoch.
        fn commit(&mut self, db: &Database, dur: &Durability, k: u64, v: i64, adhoc: bool) -> u64 {
            loop {
                let e = self.epoch.peek();
                dur.flush_before_ack(&mut self.buf, 0, e);
                self.epoch.enter_at(e);
                let mut t = db.begin();
                let r = t.read(TableId::new(0), k).unwrap();
                t.write(TableId::new(0), k, r.with_col(0, Value::Int(v)))
                    .unwrap();
                if let Ok(info) = t.commit_with(|| e) {
                    let params = pacman_sproc::params([Value::Int(k as i64), Value::Int(v)]);
                    dur.log_commit_buffered(
                        &mut self.buf,
                        0,
                        &info,
                        ProcId::new(0),
                        &params,
                        adhoc,
                    );
                    return epoch_of(info.ts);
                }
            }
        }

        fn retire(mut self, dur: &Durability) {
            dur.flush_worker(&mut self.buf, 0);
            self.epoch.retire();
        }
    }

    #[test]
    fn commits_become_durable() {
        let (db, dur) = setup(LogScheme::Command);
        let mut worker = Worker::new(&dur);
        let mut max_epoch = 0;
        for k in 0..16u64 {
            max_epoch = worker.commit(&db, &dur, k, k as i64 + 1, false);
        }
        worker.retire(&dur);
        dur.wait_durable(max_epoch);
        assert!(dur.pepoch() >= max_epoch);
        assert!(dur.bytes_logged() > 0);
        dur.shutdown();
        // Batches exist on the devices.
        let batches = crate::batch::list_batch_indices(dur.storage());
        assert!(!batches.is_empty());
    }

    #[test]
    fn off_scheme_logs_nothing() {
        let (db, dur) = setup(LogScheme::Off);
        Worker::new(&dur).commit(&db, &dur, 1, 5, false);
        assert_eq!(dur.bytes_logged(), 0);
        assert_eq!(dur.pepoch(), u64::MAX);
        dur.shutdown();
        assert!(crate::batch::list_batch_indices(dur.storage()).is_empty());
    }

    #[test]
    fn crash_preserves_only_sealed_epochs() {
        let (db, dur) = setup(LogScheme::Logical);
        let mut worker = Worker::new(&dur);
        for k in 0..8u64 {
            worker.commit(&db, &dur, k, 42, false);
        }
        // Crash immediately: the current epoch cannot have sealed.
        let pepoch_before = dur.pepoch();
        dur.crash();
        let persisted = PepochHandle::read_persisted(dur.storage().disk(0));
        assert!(persisted >= pepoch_before.saturating_sub(1));
        // All batch contents decode cleanly.
        for idx in crate::batch::list_batch_indices(dur.storage()) {
            for r in read_batch(dur.storage(), idx, persisted, 0).iter() {
                assert!(r.epoch() <= persisted);
            }
        }
    }

    #[test]
    fn adaptive_scheme_mixes_record_formats() {
        // Classifier: even keys (params[0]) log as commands, odd ones
        // logically — exercised via a custom classifier reading the info.
        struct ByKeyParity;
        impl crate::classify::CommitClassifier for ByKeyParity {
            fn classify(
                &self,
                _proc: ProcId,
                info: &pacman_engine::CommitInfo,
            ) -> crate::classify::LogChoice {
                if info.writes[0].key.is_multiple_of(2) {
                    crate::classify::LogChoice::Command
                } else {
                    crate::classify::LogChoice::Logical
                }
            }
        }
        let (db, dur) = setup(LogScheme::Adaptive);
        dur.set_classifier(Arc::new(ByKeyParity));
        let mut worker = Worker::new(&dur);
        let mut max_epoch = 0;
        for k in 0..16u64 {
            max_epoch = worker.commit(&db, &dur, k, 7, false);
        }
        worker.retire(&dur);
        dur.wait_durable(max_epoch);
        assert_eq!(dur.command_records(), 8);
        assert_eq!(dur.logical_records(), 8);
        dur.shutdown();
        // Both formats decode from the same stream.
        let mut commands = 0;
        let mut tagged = 0;
        for idx in crate::batch::list_batch_indices(dur.storage()) {
            for r in read_batch(dur.storage(), idx, u64::MAX, 0).iter() {
                match r.kind() {
                    PayloadKind::Command { .. } => commands += 1,
                    PayloadKind::TaggedWrites { proc } => {
                        assert_eq!(proc, ProcId::new(0));
                        assert_eq!(r.writes().unwrap().len(), 1);
                        tagged += 1;
                    }
                    other => panic!("unexpected payload {other:?}"),
                }
            }
        }
        assert_eq!(commands, 8);
        assert_eq!(tagged, 8);
    }

    #[test]
    fn adaptive_adhoc_still_logs_plain_writes() {
        let (db, dur) = setup(LogScheme::Adaptive);
        let mut worker = Worker::new(&dur);
        let epoch = worker.commit(&db, &dur, 1, 9, true);
        worker.retire(&dur);
        dur.wait_durable(epoch);
        dur.shutdown();
        let idx = crate::batch::list_batch_indices(dur.storage());
        let b = read_batch(dur.storage(), idx[0], u64::MAX, 0);
        assert!(matches!(
            b.iter().next().unwrap().kind(),
            PayloadKind::Writes { adhoc: true, .. }
        ));
    }

    #[test]
    fn reopen_resumes_epochs_past_the_frontier() {
        let (db, dur) = setup(LogScheme::Command);
        let mut worker = Worker::new(&dur);
        let mut max_epoch = 0;
        for k in 0..8u64 {
            max_epoch = worker.commit(&db, &dur, k, 1, false);
        }
        worker.retire(&dur);
        dur.wait_durable(max_epoch);
        let storage = dur.storage().clone();
        dur.crash();
        let frontier = PepochHandle::read_persisted(storage.disk(0));
        assert!(frontier >= max_epoch);

        // Reopen against the same directory (db stands in for a recovered
        // instance: its clock is already past everything it committed).
        let config = DurabilityConfig {
            scheme: LogScheme::Command,
            num_loggers: 2,
            epoch_interval: Duration::from_millis(2),
            batch_epochs: 4,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            fsync: true,
            ..Default::default()
        };
        let (dur2, info) = Durability::reopen(Arc::clone(&db), storage.clone(), config);
        assert!(info.base_epoch >= frontier);
        let mut worker = Worker::new(&dur2);
        let mut max2 = 0;
        for k in 0..8u64 {
            max2 = worker.commit(&db, &dur2, k, 2, false);
        }
        assert!(
            max2 > info.base_epoch,
            "fresh commits must use epochs past the resumed base"
        );
        worker.retire(&dur2);
        dur2.wait_durable(max2);
        dur2.shutdown();
        // One continuous stream: all 16 records decode, epochs never exceed
        // the final frontier, and the old records survived untouched.
        let final_pepoch = PepochHandle::read_persisted(storage.disk(0));
        assert!(final_pepoch >= max2);
        let mut n = 0;
        for idx in crate::batch::list_batch_indices(&storage) {
            n += read_batch(&storage, idx, final_pepoch, 0).len();
        }
        assert_eq!(n, 16);
    }

    #[test]
    fn reopen_truncates_unacknowledged_tail() {
        use pacman_common::clock::epoch_floor;
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("d"));
        // Fake a crashed directory: pepoch = 3, but one record at epoch 5
        // was written by a logger that ran ahead.
        let mut buf = Vec::new();
        TxnLogRecord {
            ts: epoch_floor(3) | 1,
            payload: LogPayload::Command {
                proc: ProcId::new(0),
                params: vec![].into(),
            },
        }
        .encode(&mut buf);
        storage
            .disk(0)
            .append(&crate::batch::batch_name(0, 0), &buf);
        // The unacknowledged tail lives in its own batch file (epoch 5,
        // batch_epochs = 4 => batch 1), exactly where a logger that ran
        // ahead would have put it.
        let mut tail = Vec::new();
        TxnLogRecord {
            ts: epoch_floor(5) | 2,
            payload: LogPayload::Command {
                proc: ProcId::new(0),
                params: vec![].into(),
            },
        }
        .encode(&mut tail);
        storage
            .disk(0)
            .append(&crate::batch::batch_name(0, 1), &tail);
        storage
            .disk(0)
            .write_file("pepoch.log", &3u64.to_le_bytes());

        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Arc::new(Database::new(c));
        let (dur, info) = Durability::reopen(
            db,
            storage.clone(),
            DurabilityConfig {
                scheme: LogScheme::Command,
                num_loggers: 1,
                epoch_interval: Duration::from_millis(2),
                batch_epochs: 4,
                checkpoint_interval: None,
                checkpoint_threads: 1,
                fsync: false,
                ..Default::default()
            },
        );
        assert_eq!(info.persisted_pepoch, 3);
        assert_eq!(info.truncated_records, 1);
        assert_eq!(info.base_epoch, 3);
        dur.shutdown();
        let b = read_batch(&storage, 0, u64::MAX, 0);
        assert_eq!(b.len(), 1);
        assert_eq!(b.last_ts(), Some(epoch_floor(3) | 1));
        // The ghost batch file disappeared entirely.
        assert!(storage
            .disk(0)
            .read(&crate::batch::batch_name(0, 1))
            .is_err());
    }

    #[test]
    fn scheme_parsing() {
        assert_eq!(LogScheme::parse("adaptive"), Some(LogScheme::Adaptive));
        assert_eq!(LogScheme::parse("ALR"), Some(LogScheme::Adaptive));
        assert_eq!(LogScheme::parse("command"), Some(LogScheme::Command));
        assert_eq!(LogScheme::parse("LL"), Some(LogScheme::Logical));
        assert_eq!(LogScheme::parse("nope"), None);
    }

    #[test]
    fn checkpointer_runs_and_truncates() {
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Arc::new(Database::new(c));
        for k in 0..64u64 {
            db.seed_row(TableId::new(0), k, Row::from([Value::Int(0)]))
                .unwrap();
        }
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("d"));
        let dur = Durability::start(
            Arc::clone(&db),
            storage,
            DurabilityConfig {
                scheme: LogScheme::Command,
                num_loggers: 1,
                epoch_interval: Duration::from_millis(1),
                batch_epochs: 2,
                checkpoint_interval: Some(Duration::from_millis(25)),
                checkpoint_threads: 1,
                fsync: false,
                ..Default::default()
            },
        );
        let mut worker = Worker::new(&dur);
        let t0 = std::time::Instant::now();
        let mut k = 0u64;
        while t0.elapsed() < Duration::from_millis(120) {
            worker.commit(&db, &dur, k % 64, k as i64, false);
            k += 1;
        }
        worker.retire(&dur);
        std::thread::sleep(Duration::from_millis(40));
        dur.shutdown();
        assert!(dur.last_checkpoint_ts() > 0, "checkpoint never completed");
        assert!(
            crate::checkpoint::read_manifest(dur.storage())
                .unwrap()
                .is_some(),
            "manifest missing"
        );
    }
}
