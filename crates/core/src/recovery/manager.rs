//! End-to-end recovery orchestration (§2.3), in two shapes:
//!
//! * [`recover`] — the classic *offline* call: checkpoint restore + log
//!   replay run to completion before the database is handed back;
//! * [`recover_online`] — *instant restart*: checkpoint restore runs
//!   inline, then a [`RecoverySession`] replays the log on background
//!   workers while the engine serves new transactions, gated per replay
//!   partition through a [`pacman_engine::RecoveryGate`] (see
//!   `docs/RECOVERY.md`, "Online recovery lifecycle").

use crate::metrics::{Breakdown, RecoveryMetrics};
use crate::recovery::checkpoint::{
    recover_checkpoint_chain, run_lazy_loader, CheckpointRecovery, CheckpointTarget,
};
use crate::recovery::gate::{GateMap, GatedAdmission, ShardMap};
use crate::recovery::raw::RawStore;
use crate::recovery::{
    clr, clr_p, llr, llr_p, FollowHandle, LogInventory, LogRecovery, UnitSource,
};
use crate::runtime::ReplayMode;
use crate::static_analysis::GlobalGraph;
use pacman_common::clock::{epoch_floor, epoch_of, EPOCH_SHIFT};
use pacman_common::{Error, Result, Timestamp};
use pacman_engine::{AdmissionControl, Catalog, Database, RecoveryGate};
use pacman_obs::{RecoveryPhase, TraceEvent};
use pacman_sproc::ProcRegistry;
use pacman_storage::{StorageSet, TraceDumpSink};
use pacman_wal::checkpoint::{read_chain, ResolvedPart};
use pacman_wal::pepoch::PepochHandle;
use pacman_wal::{CheckpointChain, Durability, RetentionHold};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Distinguishes concurrent recoveries' dump-sink registrations on the
/// shared (usually global) tracer.
static RECOVERY_SINK_IDS: AtomicU64 = AtomicU64::new(0);

/// Registers a uniquely-keyed [`TraceDumpSink`] over this recovery's own
/// `StorageSet` and unregisters it on drop: concurrent recoveries in one
/// process never cross-write dumps into each other's storage, and a
/// finished recovery stops pinning its `StorageSet` through the tracer.
/// Keep the guard alive through the point where a failure dump can fire
/// (gate poison happens on the session thread, so the session owns it).
struct RecoverySinkGuard {
    key: String,
}

impl RecoverySinkGuard {
    fn register(storage: &StorageSet) -> RecoverySinkGuard {
        let key = format!(
            "recovery-{}",
            RECOVERY_SINK_IDS.fetch_add(1, Ordering::Relaxed)
        );
        pacman_obs::tracer().set_sink(&key, Arc::new(TraceDumpSink::new(storage.clone())));
        RecoverySinkGuard { key }
    }
}

impl Drop for RecoverySinkGuard {
    fn drop(&mut self) {
        pacman_obs::tracer().remove_sink(&self.key);
    }
}

/// Which recovery scheme to run (§6.2's five competitors).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryScheme {
    /// Physical log recovery; `latch = false` is the Fig. 15 ablation.
    Plr {
        /// Acquire per-tuple latches during replay.
        latch: bool,
    },
    /// SiloR-style logical log recovery.
    Llr {
        /// Acquire per-tuple latches during replay.
        latch: bool,
    },
    /// Parallel latch-free logical recovery adapted from PACMAN (§4.5).
    LlrP,
    /// Single-threaded command log recovery.
    Clr,
    /// PACMAN.
    ClrP {
        /// Replay mode (Fig. 19 ablation; `Pipelined` is full PACMAN).
        mode: ReplayMode,
    },
}

impl RecoveryScheme {
    /// Label used in result tables.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryScheme::Plr { latch: true } => "PLR",
            RecoveryScheme::Plr { latch: false } => "PLR-nolatch",
            RecoveryScheme::Llr { latch: true } => "LLR",
            RecoveryScheme::Llr { latch: false } => "LLR-nolatch",
            RecoveryScheme::LlrP => "LLR-P",
            RecoveryScheme::Clr => "CLR",
            RecoveryScheme::ClrP {
                mode: ReplayMode::PureStatic,
            } => "CLR-P/static",
            RecoveryScheme::ClrP {
                mode: ReplayMode::Synchronous,
            } => "CLR-P/sync",
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            } => "CLR-P",
        }
    }
}

/// Recovery configuration.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Scheme to run.
    pub scheme: RecoveryScheme,
    /// Recovery threads (the x-axis of Figs. 13-15).
    pub threads: usize,
}

/// Timing report of one recovery run (the raw material of Figs. 13-17/20).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Scheme label.
    pub scheme: String,
    /// Threads used.
    pub threads: usize,
    /// Checkpoint file reloading (Fig. 13a): seconds until the last part
    /// byte left the device. The restore runs beside the reads, so this
    /// is a point inside `checkpoint_total_secs`, not a phase before it.
    pub checkpoint_reload_secs: f64,
    /// Overall checkpoint recovery (Fig. 13b), seconds.
    pub checkpoint_total_secs: f64,
    /// Pure log file reloading (Fig. 14a), seconds.
    pub log_reload_secs: f64,
    /// Overall log recovery (Fig. 14b), seconds.
    pub log_total_secs: f64,
    /// End-to-end recovery (Fig. 16), seconds.
    pub total_secs: f64,
    /// Time breakdown (Fig. 20).
    pub breakdown: Breakdown,
    /// Transactions replayed.
    pub txns: u64,
    /// Command records re-executed (mixed-log replay accounting).
    pub replayed_commands: u64,
    /// Tuple-level records applied as after-images.
    pub applied_writes: u64,
    /// Writes offline LLR-P decoded and installed (0 for schemes that
    /// install every write).
    pub installed_writes: u64,
    /// Writes offline LLR-P skipped undecoded as already overwritten.
    pub skipped_writes: u64,
    /// Tuples restored from the checkpoint.
    pub checkpoint_tuples: u64,
    /// Manifest-chain links the base image was resolved across (0 = no
    /// checkpoint, 1 = a single full snapshot).
    pub ckpt_chain_len: usize,
    /// Checkpoint shards loaded on demand (a blocked admission wanted
    /// them; lazy online reload only).
    pub ondemand_shard_loads: u64,
    /// Checkpoint shards loaded by the background sweep (lazy online
    /// reload only).
    pub background_shard_loads: u64,
    /// The durability frontier used.
    pub pepoch: u64,
    /// Checkpoint coverage timestamp (0 = no checkpoint found).
    pub ckpt_ts: Timestamp,
}

/// A recovered database plus its report.
pub struct RecoveryOutcome {
    /// The recovered, ready-to-serve database.
    pub db: Arc<Database>,
    /// Timings and counters.
    pub report: RecoveryReport,
}

/// Run full recovery (checkpoint + log) against what the crash left on the
/// devices.
pub fn recover(
    storage: &StorageSet,
    catalog: &Catalog,
    registry: &ProcRegistry,
    config: &RecoveryConfig,
) -> Result<RecoveryOutcome> {
    let t_all = Instant::now();
    let metrics = Arc::new(RecoveryMetrics::new());
    metrics.register_into(pacman_obs::registry());
    let tracer = pacman_obs::tracer();
    let _sink = RecoverySinkGuard::register(storage);
    tracer.emit(TraceEvent::Phase {
        phase: RecoveryPhase::Scan,
    });
    let pepoch = PepochHandle::read_persisted(storage.disk(0));
    let chain = read_chain(storage)?;
    let inventory = LogInventory::scan(storage);
    let db = Arc::new(Database::new(catalog.clone()));
    let threads = config.threads.max(1);

    // Stage 1: checkpoint recovery — every offline scheme restores the
    // manifest chain eagerly through the parallel shard loader. PLR
    // restores records into the raw heap, unindexed, and replays its log
    // there too.
    tracer.emit(TraceEvent::Phase {
        phase: RecoveryPhase::Load,
    });
    let raw = RawStore::new(catalog.len());
    let target = match config.scheme {
        RecoveryScheme::Plr { .. } => CheckpointTarget::Raw(&raw),
        _ => CheckpointTarget::Tables(&db),
    };
    let ckpt: CheckpointRecovery = match &chain {
        None => CheckpointRecovery::default(),
        Some(c) => recover_checkpoint_chain(storage, c, threads, target)?,
    };
    let after_ts = ckpt.ckpt_ts;

    // Stage 2: log recovery.
    tracer.emit(TraceEvent::Phase {
        phase: RecoveryPhase::Replay,
    });
    let log = match config.scheme {
        RecoveryScheme::Plr { latch } | RecoveryScheme::Llr { latch } => {
            let mut log = llr::recover_log(
                storage, &inventory, target, threads, latch, pepoch, after_ts, &metrics,
            )?;
            if let CheckpointTarget::Raw(raw) = target {
                // PLR's lazy index reconstruction is part of its log
                // recovery (§2.3).
                let t = Instant::now();
                raw.build_indexes(&db, threads);
                metrics.add_work(t.elapsed());
                log.total += t.elapsed();
            }
            log
        }
        RecoveryScheme::LlrP => llr_p::recover_log(
            storage, &inventory, &db, threads, pepoch, after_ts, &metrics,
        )?,
        RecoveryScheme::Clr => {
            let source = UnitSource::inventory(storage, &inventory, pepoch, after_ts);
            clr::recover_log(source, &db, registry, &metrics, None)?
        }
        RecoveryScheme::ClrP { mode } => {
            // Static analysis is compile-time work in the paper (§4.1).
            // Here it runs — dependency graph, then one access plan per
            // piece template — inside the timed region, so it *is* billed
            // to `total_secs` (tens of microseconds; the repo benchmark
            // reports it as `core.static_analysis.gdg_ms`).
            let gdg = Arc::new(GlobalGraph::analyze(registry.all())?);
            let source = UnitSource::inventory(storage, &inventory, pepoch, after_ts);
            clr_p::recover_log(source, &db, &gdg, registry, threads, mode, &metrics, None)?
        }
    };

    // Resume the clock past everything replayed.
    db.clock().advance_to(log.max_ts.max(after_ts) + 1);

    let report = report(config, &log, &ckpt, pepoch, t_all, &metrics);
    tracer.emit(TraceEvent::Phase {
        phase: RecoveryPhase::Complete,
    });
    Ok(RecoveryOutcome { db, report })
}

/// Lifecycle state of an online recovery session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// Background workers are still replaying the log (a follow session:
    /// until its source is finished); admission is partition-gated.
    Replaying,
    /// Replay finished; the gate is permanently open.
    Complete,
    /// Recovery hit an error; the gate was *poisoned* — blocked waiters
    /// unblock with `false` and nothing further is admitted, because the
    /// half-recovered state is not trustworthy. [`RecoverySession::wait`]
    /// returns the error.
    Failed,
}

struct SessionInner {
    state: SessionState,
    report: Option<RecoveryReport>,
    error: Option<Error>,
    /// Retention hold pinning the session's unreplayed tail (and blocking
    /// checkpoint rounds) in a reopened durability stack — released at
    /// `Complete`, leaked (held forever) at `Failed`. See
    /// [`RecoverySession::pin_retention_on`].
    hold: Option<RetentionHold>,
}

struct SessionShared {
    inner: Mutex<SessionInner>,
    cv: Condvar,
}

/// Handle to an in-flight online recovery: the database is live and may
/// serve admitted transactions while PACMAN replay proceeds on background
/// workers. One session type serves both starting points: *restart*
/// ([`recover_online`]) replays the log a crash left behind, *follow*
/// ([`RecoverySession::follow`]) replays a log a hot standby receives as
/// it is shipped. Dropping the handle without calling
/// [`RecoverySession::wait`] detaches the replay (it still runs to
/// completion through the shared state, but errors go unobserved), so
/// call `wait` when the outcome matters.
pub struct RecoverySession {
    db: Arc<Database>,
    gate: Arc<RecoveryGate>,
    admission: Arc<GatedAdmission>,
    metrics: Arc<RecoveryMetrics>,
    shared: Arc<SessionShared>,
    join: Option<JoinHandle<()>>,
    /// Log floor of the session's unreplayed tail (epoch of the base
    /// image's coverage; 0 with no checkpoint) — what a retention hold
    /// must keep.
    pin_log_epoch: u64,
    /// Root timestamp of the chain the base image resolves across
    /// (`u64::MAX` with no checkpoint: no chain interest).
    pin_chain_root: Timestamp,
}

impl RecoverySession {
    /// The live (still-recovering) database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The replay-watermark gate (partition-level introspection).
    pub fn gate(&self) -> &Arc<RecoveryGate> {
        &self.gate
    }

    /// Admission control for transaction drivers: blocks a transaction
    /// until its static footprint is fully replayed.
    pub fn admission(&self) -> Arc<dyn AdmissionControl> {
        Arc::clone(&self.admission) as Arc<dyn AdmissionControl>
    }

    /// The typed admission handle (footprint introspection in tests).
    pub fn gated_admission(&self) -> &Arc<GatedAdmission> {
        &self.admission
    }

    /// The session's replay counters and time buckets.
    pub fn metrics(&self) -> &Arc<RecoveryMetrics> {
        &self.metrics
    }

    /// Current lifecycle state.
    pub fn state(&self) -> SessionState {
        self.shared.inner.lock().state
    }

    /// Whether replay has finished (successfully or not).
    pub fn is_settled(&self) -> bool {
        self.state() != SessionState::Replaying
    }

    /// The error a failed session settled with (until `wait` takes it).
    pub fn error(&self) -> Option<Error> {
        self.shared.inner.lock().error.clone()
    }

    /// Pin this session's unreplayed tail in `durability`'s retention
    /// manager: one recovery [`RetentionHold`] keeps the log batches the
    /// replay still reads (epochs at or above the base image's coverage)
    /// and the manifest chain it resolves against, and blocks checkpoint
    /// rounds while live — a checkpoint taken mid-replay would snapshot
    /// at a fresh timestamp while old-timestamp installs still race the
    /// scan, claiming coverage it does not have.
    ///
    /// Call it right after [`Durability::reopen`] over the same devices.
    /// The hold is released when the session completes; a *failed*
    /// session leaks it — the half-recovered state is suspect, so
    /// checkpoints and reclamation stay blocked for good.
    pub fn pin_retention_on(&self, durability: &Arc<Durability>) {
        let mut inner = self.shared.inner.lock();
        match inner.state {
            SessionState::Complete => {} // nothing left to pin
            SessionState::Replaying => {
                inner.hold = Some(
                    durability
                        .retention()
                        .pin_recovery(self.pin_log_epoch, self.pin_chain_root),
                );
            }
            // A checkpoint of the suspect state would replace the last
            // good one (and reclaim the log below it) — pin, never release.
            SessionState::Failed => durability
                .retention()
                .pin_recovery(self.pin_log_epoch, self.pin_chain_root)
                .leak(),
        }
    }

    /// Block until replay completes and return the recovered database plus
    /// the report (the offline-equivalent outcome).
    pub fn wait(mut self) -> Result<RecoveryOutcome> {
        {
            let mut inner = self.shared.inner.lock();
            while inner.state == SessionState::Replaying {
                self.shared.cv.wait(&mut inner);
            }
        }
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        let mut inner = self.shared.inner.lock();
        if let Some(e) = inner.error.take() {
            return Err(e);
        }
        let report = inner
            .report
            .take()
            .ok_or_else(|| Error::Unknown("recovery session finished without a report".into()))?;
        Ok(RecoveryOutcome {
            db: Arc::clone(&self.db),
            report,
        })
    }

    /// Start a *follow-mode* session over an empty database of `catalog`:
    /// online recovery of a log that is still being written. Units arrive
    /// through the returned [`FollowHandle`] — a hot standby's receiver
    /// loads the shipped base image into [`RecoverySession::db`], then
    /// announces one unit per seal — and the gate's total moves with every
    /// announcement, so its watermarks measure replication lag.
    /// [`FollowHandle::finish`] ends the log; the session then settles
    /// exactly as a restart session does.
    ///
    /// The session registers the `standby.gate` stall probe and removes it
    /// when it settles.
    pub fn follow(
        catalog: &Catalog,
        registry: &ProcRegistry,
        config: &RecoveryConfig,
    ) -> Result<(RecoverySession, FollowHandle)> {
        reject_ungated(config.scheme)?;
        let db = Arc::new(Database::new(catalog.clone()));
        let mut plan = Plan::new(db, registry, config, true)?;
        let (source, follow) = UnitSource::follow(Arc::clone(&plan.gate));
        plan.probe = Some(register_gate_probe(&plan.gate));
        Ok((plan.spawn(source, 0)?, follow))
    }
}

/// Register a stall-watchdog probe over a recovery gate: *work* is the
/// units announced (`total_batches`), *progress* the slowest partition's
/// applied watermark. The probe is inactive before the first unit and
/// after the gate finished or failed — a poisoned gate already dumped
/// through its own hook; the watchdog's job is the silent wedge where
/// units keep arriving but the watermark stops.
///
/// Every follow session installs one (named `standby.gate`) and removes it
/// when it settles; exposed for drivers and tests that run a gate
/// directly.
pub fn register_gate_probe(gate: &Arc<RecoveryGate>) -> pacman_obs::ProbeId {
    let gate = Arc::clone(gate);
    pacman_obs::watchdog().register("standby.gate", pacman_obs::StallKind::Gate, move || {
        if gate.is_complete() || gate.is_failed() {
            return None;
        }
        let total = gate.total_batches();
        if total == 0 {
            return None;
        }
        Some(pacman_obs::ProbeSample {
            work: total,
            progress: gate.min_watermark(),
        })
    })
}

/// Start an online recovery session: restore the checkpoint inline, then
/// replay the log on background workers while the returned session's
/// database serves admitted transactions.
///
/// Supported schemes: `Clr`, `ClrP` (per-block gating) and `LlrP`
/// (per-table-shard gating). `Plr`/`Llr` install file by file under
/// per-tuple latches and have no partition watermark to gate on — use
/// [`recover`] for those.
pub fn recover_online(
    storage: &StorageSet,
    catalog: &Catalog,
    registry: &ProcRegistry,
    config: &RecoveryConfig,
) -> Result<RecoverySession> {
    reject_ungated(config.scheme)?;
    let t_all = Instant::now();
    let tracer = pacman_obs::tracer();
    let sink = RecoverySinkGuard::register(storage);
    tracer.emit(TraceEvent::Phase {
        phase: RecoveryPhase::Scan,
    });
    let pepoch = PepochHandle::read_persisted(storage.disk(0));
    let chain = read_chain(storage)?;
    let inventory = LogInventory::scan(storage);
    let db = Arc::new(Database::new(catalog.clone()));

    // Stage 1: base-image restore. Command schemes load the chain eagerly
    // inline (their replay re-executes reads, so the whole base image
    // must be resident before replay starts). The tuple scheme (LLR-P)
    // defers the load *into* the session: shards stream in lazily on
    // background workers, and the gate's residency plane admits a
    // transaction as soon as its own shards are in.
    let lazy = matches!(config.scheme, RecoveryScheme::LlrP);
    tracer.emit(TraceEvent::Phase {
        phase: RecoveryPhase::Load,
    });
    let ckpt: CheckpointRecovery = match &chain {
        None => CheckpointRecovery::default(),
        Some(c) if !lazy => recover_checkpoint_chain(
            storage,
            c,
            config.threads.max(1),
            CheckpointTarget::Tables(&db),
        )?,
        Some(c) => CheckpointRecovery {
            ckpt_ts: c.ts(),
            chain_len: c.len(),
            ..Default::default()
        },
    };
    let after_ts = ckpt.ckpt_ts;

    // New commits must sort strictly after everything the log can still
    // install: push the clock past the durability frontier's epoch (every
    // replayable record has epoch <= pepoch) and the checkpoint snapshot.
    // A legacy `u64::MAX` frontier ("everything durable" sentinel) gives
    // no epoch bound up front; the post-replay advance to `max_ts + 1`
    // covers it once the log has been read.
    let mut clock_floor = after_ts.saturating_add(1);
    if pepoch != u64::MAX {
        let next_epoch = pepoch.saturating_add(1).min(u64::MAX >> EPOCH_SHIFT);
        clock_floor = clock_floor.max(epoch_floor(next_epoch));
    }
    db.clock().advance_to(clock_floor);

    let mut plan = Plan::new(db, registry, config, chain.is_none() || !lazy)?;
    // What a retention hold must keep for this session: log batches that
    // may contain the unreplayed tail (records with ts above the base image
    // can share the coverage epoch's batch), and every link of the chain
    // the base image resolves across (root..tip).
    plan.pin_log_epoch = epoch_of(after_ts);
    if let Some(c) = &chain {
        plan.pin_chain_root = c.manifests.last().expect("chains are non-empty").ts;
    }
    plan.lazy = chain.filter(|_| lazy).map(|c| (storage.clone(), c));
    plan.t_all = t_all;
    plan.ckpt = ckpt;
    plan.pepoch = pepoch;
    plan.sink = Some(sink);
    let source = UnitSource::inventory(storage, &inventory, pepoch, after_ts);
    plan.spawn(source, inventory.batches().len() as u64)
}

/// `Plr`/`Llr` install file by file under tuple latches: no partition
/// watermark to gate a session on.
fn reject_ungated(scheme: RecoveryScheme) -> Result<()> {
    match scheme {
        RecoveryScheme::Plr { .. } | RecoveryScheme::Llr { .. } => {
            Err(Error::InvalidConfig(format!(
                "online recovery is not defined for {}: no partition watermark to gate on",
                scheme.label()
            )))
        }
        _ => Ok(()),
    }
}

/// A session before its thread starts: the database, the gate and its
/// footprint map, sized by the scheme's partition space — built here
/// once, for restart and follow alike — plus what a restart hands over.
struct Plan {
    db: Arc<Database>,
    registry: ProcRegistry,
    config: RecoveryConfig,
    gdg: Arc<GlobalGraph>,
    gate: Arc<RecoveryGate>,
    admission: Arc<GatedAdmission>,
    /// LLR-P: the (table, shard) numbering shared by the gate size, the
    /// footprint map and the replay lanes — one numbering, one truth.
    shards: Option<ShardMap>,
    metrics: Arc<RecoveryMetrics>,
    t_all: Instant,
    /// The base image restored inline; nothing for LLR-P's lazy restore
    /// (filled in when the loader finishes) and for a follow session
    /// (whose standby loads its own).
    ckpt: CheckpointRecovery,
    pepoch: u64,
    /// LLR-P restart: the chain the lazy loader streams in beside replay.
    lazy: Option<(StorageSet, CheckpointChain)>,
    /// Restart: the dump sink over the crash image, held until the
    /// session settles (the failure dump lands on the session thread).
    sink: Option<RecoverySinkGuard>,
    /// Follow: the `standby.gate` probe, removed when the session settles.
    probe: Option<pacman_obs::ProbeId>,
    pin_log_epoch: u64,
    pin_chain_root: Timestamp,
}

impl Plan {
    /// `resident`: the base image needs no residency gating (it is loaded
    /// eagerly, or there is none).
    fn new(
        db: Arc<Database>,
        registry: &ProcRegistry,
        config: &RecoveryConfig,
        resident: bool,
    ) -> Result<Plan> {
        let metrics = Arc::new(RecoveryMetrics::new());
        metrics.register_into(pacman_obs::registry());
        let gdg = Arc::new(GlobalGraph::analyze(registry.all())?);
        let (gate, map, shards) = match config.scheme {
            RecoveryScheme::LlrP => {
                let shards = ShardMap::new(&db);
                // Residency plane over the same (table, shard) numbering
                // as the replay watermarks: one footprint gates both.
                let gate = RecoveryGate::with_residency(shards.total(), shards.total());
                if resident {
                    gate.set_all_resident();
                }
                let map = GateMap::shards(Arc::clone(&db), shards.clone(), registry);
                (gate, map, Some(shards))
            }
            _ => (
                RecoveryGate::new(gdg.num_blocks()),
                GateMap::blocks(&gdg, registry),
                None,
            ),
        };
        Ok(Plan {
            db,
            registry: registry.clone(),
            config: config.clone(),
            gdg,
            admission: GatedAdmission::new(Arc::clone(&gate), map),
            gate,
            shards,
            metrics,
            t_all: Instant::now(),
            ckpt: CheckpointRecovery::default(),
            pepoch: 0,
            lazy: None,
            sink: None,
            probe: None,
            pin_log_epoch: 0,
            pin_chain_root: u64::MAX,
        })
    }

    /// Publish the `total` units known up front and start replaying
    /// `source` on the session thread.
    fn spawn(self, source: UnitSource, total: u64) -> Result<RecoverySession> {
        self.gate.set_total_batches(total);
        let shared = Arc::new(SessionShared {
            inner: Mutex::new(SessionInner {
                state: SessionState::Replaying,
                report: None,
                error: None,
                hold: None,
            }),
            cv: Condvar::new(),
        });
        let session = RecoverySession {
            db: Arc::clone(&self.db),
            gate: Arc::clone(&self.gate),
            admission: Arc::clone(&self.admission),
            metrics: Arc::clone(&self.metrics),
            shared: Arc::clone(&shared),
            join: None,
            pin_log_epoch: self.pin_log_epoch,
            pin_chain_root: self.pin_chain_root,
        };
        let join = std::thread::Builder::new()
            .name("recovery-session".into())
            .spawn(move || self.run(source, &shared))
            .map_err(|e| Error::Unknown(format!("spawn recovery session: {e}")))?;
        Ok(RecoverySession {
            join: Some(join),
            ..session
        })
    }

    /// The session thread: replay, then settle the gate and the state.
    fn run(mut self, source: UnitSource, shared: &SessionShared) {
        let tracer = pacman_obs::tracer();
        tracer.emit(TraceEvent::Phase {
            phase: RecoveryPhase::Replay,
        });
        // A panic anywhere in the replay must still settle the session
        // (gate poisoned, waiters woken) — otherwise every blocked
        // admission and `wait()` caller hangs.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.replay(source)))
            .unwrap_or_else(|_| Err(Error::Unknown("recovery session panicked".into())))
            .map(|log| {
                report(
                    &self.config,
                    &log,
                    &self.ckpt,
                    self.pepoch,
                    self.t_all,
                    &self.metrics,
                )
            });
        // Settle the gate first so waiters never hang: open it on
        // success, *poison* it on failure — a half-recovered state
        // (missing base-image shards, unreplayed partitions) must not
        // serve commits; blocked admissions unblock with `false` and
        // nothing further is admitted.
        match result {
            Ok(report) => {
                tracer.emit(TraceEvent::Phase {
                    phase: RecoveryPhase::Complete,
                });
                self.gate.finish();
                let mut inner = shared.inner.lock();
                inner.state = SessionState::Complete;
                inner.report = Some(report);
                // Release the retention hold: checkpoints (and the
                // reclamation behind them) may resume.
                inner.hold = None;
            }
            Err(e) => {
                // `fail()` poisons the gate and triggers the
                // flight-recorder failure dump.
                tracer.emit(TraceEvent::Phase {
                    phase: RecoveryPhase::Failed,
                });
                self.gate.fail();
                let mut inner = shared.inner.lock();
                inner.state = SessionState::Failed;
                inner.error = Some(e);
                // The hold is leaked, never released: the state is
                // suspect, so checkpoints and reclamation stay blocked
                // for the process lifetime.
                if let Some(h) = inner.hold.take() {
                    h.leak();
                }
            }
        }
        shared.cv.notify_all();
        if let Some(probe) = self.probe {
            pacman_obs::watchdog().remove(probe);
        }
        // The failure dump (inside `gate.fail()`) has landed by now;
        // release this session's sink registration so it stops pinning
        // the StorageSet and can never swallow a later recovery's dumps.
        drop(self.sink.take());
    }

    /// Replay `source` with the scheme's loader (and, for a lazy LLR-P
    /// restart, the base-image loader beside it).
    fn replay(&mut self, source: UnitSource) -> Result<LogRecovery> {
        let (db, gate, metrics) = (&self.db, &self.gate, &self.metrics);
        let threads = self.config.threads.max(1);
        let log = match self.config.scheme {
            RecoveryScheme::Clr => {
                clr::recover_log(source, db, &self.registry, metrics, Some(gate.as_ref()))?
            }
            RecoveryScheme::ClrP { mode } => {
                let gate = Some(Arc::clone(gate));
                clr_p::recover_log(
                    source,
                    db,
                    &self.gdg,
                    &self.registry,
                    threads,
                    mode,
                    metrics,
                    gate,
                )?
            }
            RecoveryScheme::LlrP => {
                let shards = self.shards.as_ref().expect("LlrP built its shard map");
                let replay =
                    move || llr_p::recover_log_online(source, db, gate, shards, threads, metrics);
                match &self.lazy {
                    None => replay()?,
                    // The lazy base-image loader races the replay on
                    // purpose: both sides install timestamped LWW (part
                    // timestamps sort below every replayed record), so
                    // per-shard arrival order is immaterial and the gate —
                    // residency plus final watermark — is the only
                    // admission condition.
                    Some((storage, chain)) => {
                        let (log, loaded) = crossbeam::thread::scope(|scope| {
                            let loader = scope.spawn(|_| {
                                let partition = |p: &ResolvedPart| {
                                    shards.shard_partition(p.table as usize, p.shard as usize)
                                };
                                run_lazy_loader(
                                    storage, chain, db, gate, partition, threads, metrics,
                                )
                            });
                            (replay(), loader.join().expect("lazy loader thread"))
                        })
                        .expect("llr-p online session scope");
                        let loaded = loaded?;
                        self.ckpt.tuples = loaded.tuples;
                        self.ckpt.reload = loaded.reload;
                        self.ckpt.total = loaded.total;
                        log?
                    }
                }
            }
            RecoveryScheme::Plr { .. } | RecoveryScheme::Llr { .. } => unreachable!(),
        };
        db.clock().advance_to(log.max_ts.max(self.ckpt.ckpt_ts) + 1);
        Ok(log)
    }
}

/// The report of one recovery: `log` replayed onto the base image `ckpt`.
fn report(
    config: &RecoveryConfig,
    log: &LogRecovery,
    ckpt: &CheckpointRecovery,
    pepoch: u64,
    t_all: Instant,
    metrics: &RecoveryMetrics,
) -> RecoveryReport {
    RecoveryReport {
        scheme: config.scheme.label().to_string(),
        threads: config.threads.max(1),
        checkpoint_reload_secs: ckpt.reload.as_secs_f64(),
        checkpoint_total_secs: ckpt.total.as_secs_f64(),
        log_reload_secs: log.reload.as_secs_f64(),
        log_total_secs: log.total.as_secs_f64(),
        total_secs: t_all.elapsed().as_secs_f64(),
        breakdown: metrics.breakdown(),
        txns: log.txns,
        replayed_commands: log.replayed_commands,
        applied_writes: log.applied_writes,
        installed_writes: log.installed_writes,
        skipped_writes: log.skipped_writes,
        checkpoint_tuples: ckpt.tuples,
        ckpt_chain_len: ckpt.chain_len,
        ondemand_shard_loads: metrics.ondemand_shard_loads(),
        background_shard_loads: metrics.background_shard_loads(),
        pepoch,
        ckpt_ts: ckpt.ckpt_ts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{Encoder, ProcId, Row, TableId, Value};
    use pacman_sproc::{Expr, ProcBuilder};
    use pacman_wal::{LogPayload, TxnLogRecord};

    const T: TableId = TableId::new(0);

    fn setup() -> (Catalog, ProcRegistry, StorageSet) {
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let mut reg = ProcRegistry::new();
        let mut b = ProcBuilder::new(ProcId::new(0), "Add", 2);
        let v = b.read(T, Expr::param(0), 0);
        b.write(
            T,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        reg.register(b.build().unwrap()).unwrap();
        (c, reg, StorageSet::for_tests())
    }

    /// Build a pre-crash database, checkpoint the seeded state, write a
    /// command log for the updates, and verify CLR and every CLR-P mode
    /// recover the same fingerprint.
    #[test]
    fn command_schemes_agree_end_to_end() {
        let (catalog, reg, storage) = setup();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..8u64 {
            reference
                .seed_row(T, k, Row::from([Value::Int(0)]))
                .unwrap();
        }
        // Checkpoint the seeded state so recovery has a base image.
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        let mut buf = Vec::new();
        for i in 0..30u64 {
            let key = i % 8;
            let params: Vec<Value> = vec![Value::Int(key as i64), Value::Int(1)];
            // Apply to the reference through the engine.
            let mut txn = reference.begin();
            let r = txn.read(T, key).unwrap();
            let v = r.col(0).as_int().unwrap();
            txn.write(T, key, r.with_col(0, Value::Int(v + 1))).unwrap();
            let info = txn.commit_with(|| 1 + i / 10).unwrap();
            TxnLogRecord {
                ts: info.ts,
                payload: LogPayload::Command {
                    proc: ProcId::new(0),
                    params: params.into(),
                },
            }
            .encode(&mut buf);
            if (i + 1) % 10 == 0 {
                storage
                    .disk(0)
                    .append(&format!("log/00/{:010}", i / 10), &buf);
                buf.clear();
            }
        }
        storage
            .disk(0)
            .write_file("pepoch.log", &u64::MAX.to_le_bytes());

        for scheme in [
            RecoveryScheme::Clr,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            RecoveryScheme::ClrP {
                mode: ReplayMode::Synchronous,
            },
            RecoveryScheme::ClrP {
                mode: ReplayMode::PureStatic,
            },
        ] {
            let out = recover(
                &storage,
                &catalog,
                &reg,
                &RecoveryConfig { scheme, threads: 4 },
            )
            .unwrap();
            assert_eq!(out.report.checkpoint_tuples, 8);
            assert_eq!(
                out.db.fingerprint(),
                reference.fingerprint(),
                "{} diverged",
                out.report.scheme
            );
            assert_eq!(out.report.txns, 30);
        }
    }

    /// Online recovery must converge to exactly the offline result, and
    /// its gate must go from closed to permanently open.
    #[test]
    fn online_recovery_matches_offline() {
        let (catalog, reg, storage) = setup();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..8u64 {
            reference
                .seed_row(T, k, Row::from([Value::Int(0)]))
                .unwrap();
        }
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        let mut buf = Vec::new();
        for i in 0..30u64 {
            let key = i % 8;
            let params: Vec<Value> = vec![Value::Int(key as i64), Value::Int(1)];
            let mut txn = reference.begin();
            let r = txn.read(T, key).unwrap();
            let v = r.col(0).as_int().unwrap();
            txn.write(T, key, r.with_col(0, Value::Int(v + 1))).unwrap();
            let info = txn.commit_with(|| 1 + i / 10).unwrap();
            TxnLogRecord {
                ts: info.ts,
                payload: LogPayload::Command {
                    proc: ProcId::new(0),
                    params: params.into(),
                },
            }
            .encode(&mut buf);
            if (i + 1) % 10 == 0 {
                storage
                    .disk(0)
                    .append(&format!("log/00/{:010}", i / 10), &buf);
                buf.clear();
            }
        }
        storage
            .disk(0)
            .write_file("pepoch.log", &u64::MAX.to_le_bytes());

        for scheme in [
            RecoveryScheme::Clr,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
        ] {
            let session = recover_online(
                &storage,
                &catalog,
                &reg,
                &RecoveryConfig { scheme, threads: 4 },
            )
            .unwrap();
            // Admission through the public trait: blocks until the proc's
            // footprint (here: the single block) is replayed, then passes.
            let admission = session.admission();
            let stop = std::sync::atomic::AtomicBool::new(false);
            assert!(admission.admit(
                ProcId::new(0),
                &pacman_sproc::params([Value::Int(3), Value::Int(1)]),
                &stop
            ));
            let out = session.wait().unwrap();
            assert_eq!(out.report.txns, 30, "{}", out.report.scheme);
            assert_eq!(
                out.db.fingerprint(),
                reference.fingerprint(),
                "{} diverged online",
                out.report.scheme
            );
            assert!(admission.is_open());
            // The clock resumed past everything replayed: a fresh commit
            // must take a strictly newer timestamp.
            let mut t = out.db.begin();
            let r = t.read(T, 0).unwrap();
            t.write(T, 0, r.clone()).unwrap();
            assert!(t.commit().is_ok());
        }
    }

    #[test]
    fn online_rejects_latched_schemes() {
        let (catalog, reg, storage) = setup();
        for scheme in [
            RecoveryScheme::Plr { latch: true },
            RecoveryScheme::Llr { latch: false },
        ] {
            assert!(recover_online(
                &storage,
                &catalog,
                &reg,
                &RecoveryConfig { scheme, threads: 2 }
            )
            .is_err());
        }
    }

    #[test]
    fn online_empty_directory_opens_immediately() {
        let (catalog, reg, storage) = setup();
        let session = recover_online(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::ClrP {
                    mode: ReplayMode::Pipelined,
                },
                threads: 2,
            },
        )
        .unwrap();
        let out = session.wait().unwrap();
        assert_eq!(out.report.txns, 0);
        assert_eq!(out.db.total_tuples(), 0);
    }

    /// A lazy LLR-P session whose base image cannot be fully loaded must
    /// settle `Failed` with a *closed* gate: admitting against the
    /// half-loaded image would serve (and durably log) corrupt state. A
    /// part that is missing fails before any loader thread starts; one
    /// that is truncated fails inside the restore pipeline, among more
    /// parts than the pipeline holds — either way a blocked admission
    /// returns instead of waiting forever.
    #[test]
    fn llr_p_lazy_load_failure_poisons_the_gate() {
        for truncate in [false, true] {
            let (_, reg, storage) = setup();
            let mut catalog = Catalog::new();
            catalog.add_table_sharded("t", 1, 6);
            let reference = Arc::new(Database::new(catalog.clone()));
            for k in 0..4000u64 {
                reference
                    .seed_row(T, k, Row::from([Value::Int(k as i64)]))
                    .unwrap();
            }
            pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
            // Corrupt the chain behind recovery's back: one part the tip
            // manifest references.
            let manifest = pacman_wal::checkpoint::read_manifest(&storage)
                .unwrap()
                .unwrap();
            let (table, shard, disk) = manifest.parts[0];
            let name = pacman_wal::checkpoint::part_name(manifest.ts, table, shard as usize);
            let disk = storage.disk(disk as usize);
            if truncate {
                let bytes = disk.read(&name).unwrap();
                disk.write_file(&name, &bytes[..bytes.len() - 1]);
            } else {
                disk.delete(&name);
            }
            storage
                .disk(0)
                .write_file("pepoch.log", &u64::MAX.to_le_bytes());

            let session = recover_online(
                &storage,
                &catalog,
                &reg,
                &RecoveryConfig {
                    scheme: RecoveryScheme::LlrP,
                    threads: 2,
                },
            )
            .unwrap();
            let admission = session.admission();
            let gate = Arc::clone(session.gate());
            // A transaction on a key of the broken shard: blocked until
            // the session settles, then refused.
            let key = (0..4000u64)
                .find(|&k| reference.table(T).unwrap().shard_index(k) == shard as usize)
                .unwrap();
            let params = pacman_sproc::params([Value::Int(key as i64), Value::Int(1)]);
            let (tx, rx) = std::sync::mpsc::channel();
            let waiter = {
                let (admission, params) = (Arc::clone(&admission), params.clone());
                std::thread::spawn(move || {
                    let stop = std::sync::atomic::AtomicBool::new(false);
                    tx.send(admission.admit(ProcId::new(0), &params, &stop))
                })
            };
            let err = session.wait();
            assert!(err.is_err(), "a broken part must fail the session");
            assert!(gate.is_failed());
            assert!(!admission.is_open());
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_secs(20)),
                Ok(false),
                "the blocked admission must return, refused (truncate: {truncate})"
            );
            waiter.join().unwrap().unwrap();
            assert!(
                !admission.try_admit(ProcId::new(0), &params),
                "a poisoned gate must not admit anything"
            );
        }
    }

    /// A tip manifest referencing a shard outside the catalog must fail
    /// the lazy session *cleanly* — settled `Failed`, gate poisoned — not
    /// panic the session thread and leave waiters hanging.
    #[test]
    fn llr_p_corrupt_manifest_fails_cleanly() {
        let (catalog, reg, storage) = setup();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..16u64 {
            reference
                .seed_row(T, k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        let mut manifest = pacman_wal::checkpoint::read_manifest(&storage)
            .unwrap()
            .unwrap();
        manifest.parts.push((0, 999, 0)); // shard outside the catalog
        storage
            .disk(0)
            .write_file(pacman_wal::checkpoint::MANIFEST_FILE, &manifest.to_bytes());
        storage
            .disk(0)
            .write_file("pepoch.log", &u64::MAX.to_le_bytes());

        let session = recover_online(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::LlrP,
                threads: 2,
            },
        )
        .unwrap();
        let gate = Arc::clone(session.gate());
        assert!(session.wait().is_err(), "corrupt manifest must fail");
        assert!(gate.is_failed(), "gate must be poisoned, not left hanging");
    }

    /// Retention pinning: a settled-complete session pins nothing; a
    /// failed session leaks a permanent hold — the suspect state must
    /// never be checkpointed over (or have its log reclaimed).
    #[test]
    fn pin_retention_complete_vs_failed() {
        use pacman_wal::{Durability, DurabilityConfig, LogScheme};
        let (catalog, reg, storage) = setup();
        let dur_config = DurabilityConfig {
            scheme: LogScheme::Command,
            num_loggers: 1,
            epoch_interval: std::time::Duration::from_millis(2),
            batch_epochs: 4,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            fsync: false,
            ..Default::default()
        };

        // Complete: once the session settles cleanly, pinning takes no
        // hold — checkpoints (and reclamation) run unimpeded.
        let session = recover_online(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::Clr,
                threads: 1,
            },
        )
        .unwrap();
        let t0 = std::time::Instant::now();
        while !session.is_settled() {
            assert!(t0.elapsed() < std::time::Duration::from_secs(5));
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let (dur, _info) = Durability::reopen(
            Arc::clone(session.db()),
            storage.clone(),
            dur_config.clone(),
        );
        session.pin_retention_on(&dur);
        assert!(
            !dur.retention().checkpoints_held(),
            "a settled-complete session must not pin"
        );
        session.wait().unwrap();
        dur.shutdown();

        // Failed: a corrupt base image fails the session; pinning then
        // leaks a permanent recovery hold on the durability stack.
        let (catalog, reg, storage) = setup();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..64u64 {
            reference
                .seed_row(T, k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        let manifest = pacman_wal::checkpoint::read_manifest(&storage)
            .unwrap()
            .unwrap();
        let (table, shard, disk) = manifest.parts[0];
        storage
            .disk(disk as usize)
            .delete(&pacman_wal::checkpoint::part_name(
                manifest.ts,
                table,
                shard as usize,
            ));
        storage
            .disk(0)
            .write_file("pepoch.log", &u64::MAX.to_le_bytes());
        let session = recover_online(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::LlrP,
                threads: 2,
            },
        )
        .unwrap();
        // Settle first (deterministic), then pin: the Failed arm leaks.
        let fresh = Arc::new(Database::new(catalog.clone()));
        let (dur, _info) = Durability::reopen(fresh, storage.clone(), dur_config);
        let err = {
            let t0 = std::time::Instant::now();
            while !session.is_settled() {
                assert!(t0.elapsed() < std::time::Duration::from_secs(5));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            session.pin_retention_on(&dur);
            session.wait()
        };
        assert!(err.is_err(), "missing part must fail the session");
        assert!(
            dur.retention().checkpoints_held(),
            "a failed session must leave a permanent recovery hold"
        );
        dur.shutdown();
    }

    #[test]
    fn missing_everything_recovers_empty() {
        let (catalog, reg, storage) = setup();
        let out = recover(
            &storage,
            &catalog,
            &reg,
            &RecoveryConfig {
                scheme: RecoveryScheme::Clr,
                threads: 2,
            },
        )
        .unwrap();
        assert_eq!(out.db.total_tuples(), 0);
        assert_eq!(out.report.txns, 0);
    }
}
