//! The standby engine: a hot standby is a follow-mode recovery session.
//!
//! [`start_standby`] opens a [`RecoverySession::follow`] over an empty
//! database, plus a receiver thread that feeds it. The session owns what
//! the apply needs — the gate and its footprint map, the scheme's replay
//! loader (serial CLR, the PACMAN runtime for CLR-P, the shard
//! lanes for LLR-P) and the settle path — exactly as it does for instant
//! restart. What stays here is what only replication has:
//!
//! * frame decode, and offset dedup plus persist of shipped record runs,
//!   so the standby's directory is always a valid crash image;
//! * the checkpoint blob, chain-tip and pepoch writes, the eager load of
//!   the first (bootstrap) chain tip, and the re-bootstrap after a
//!   `Reset`;
//! * one announced unit per `Seal`: the record runs persisted since the
//!   previous seal;
//! * lag statistics and gated read-only transactions.
//!
//! Each announcement moves the gate's total first, so "partition final"
//! continuously means "caught up with everything shipped": the watermarks
//! measure replication lag, and the same [`GatedAdmission`] that gates
//! admission during instant restart gates standby reads on footprint
//! freshness. OCC read validation protects a read racing the installs.
//! [`Standby::promote`] is instant restart's tail: drain the receiver,
//! finish the source, wait for the session, resume the clock, reopen.
//!
//! [`GatedAdmission`]: crate::recovery::GatedAdmission

use crate::metrics::RecoveryMetrics;
use crate::recovery::checkpoint::{
    recover_checkpoint_chain, resync_checkpoint_chain, CheckpointTarget,
};
use crate::recovery::{FollowHandle, RecoveryConfig, RecoverySession, SessionState};
use bytes::Bytes;
use pacman_common::clock::epoch_floor;
use pacman_common::codec::Cursor;
use pacman_common::{Decoder, Error, ProcId, Result};
use pacman_engine::{run_procedure, AdmissionControl, Catalog, Database, RecoveryGate};
use pacman_obs::{Counter as ObsCounter, TraceEvent};
use pacman_sproc::{Params, ProcRegistry};
use pacman_storage::StorageSet;
use pacman_wal::checkpoint::MANIFEST_FILE;
use pacman_wal::pepoch::PEPOCH_FILE;
use pacman_wal::{read_chain, Durability, DurabilityConfig, ResumeInfo, ShipFrame};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Standby configuration: a follow session's recovery configuration. The
/// scheme must match the primary's log format — `ClrP`/`Clr` for command
/// logs (ad-hoc write sets included), `LlrP` for logical logs;
/// `Plr`/`Llr` have no partition watermark and are rejected, exactly as in
/// `recover_online`.
pub type StandbyConfig = RecoveryConfig;

/// Live replication counters (the lag metrics of `fig_failover`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicationStats {
    /// Seal-delimited units announced to the apply session.
    pub shipped_batches: u64,
    /// Units fully applied (slowest partition's watermark).
    pub applied_batches: u64,
    /// `shipped - applied`: the replication lag in units.
    pub lag_batches: u64,
    /// Log bytes received off the wire.
    pub received_log_bytes: u64,
    /// Log bytes whose unit is fully applied.
    pub applied_log_bytes: u64,
    /// Transactions the apply session has loaded (`recovery.txns`).
    pub txns: u64,
    /// The standby's durable frontier (highest shipped seal).
    pub pepoch: u64,
    /// Completed re-bootstraps: the primary broke this subscriber's
    /// cursor (bounded-lag retention) and the standby resynced its base
    /// image onto a freshly shipped chain tip.
    pub rebootstraps: u64,
}

/// What the apply session did by promote time.
#[derive(Clone, Copy, Debug, Default)]
pub struct StandbyReport {
    /// Units applied.
    pub batches: u64,
    /// Transactions applied.
    pub txns: u64,
    /// Command records re-executed.
    pub replayed_commands: u64,
    /// Tuple-level records installed as after-images.
    pub applied_writes: u64,
    /// Log bytes received off the wire.
    pub received_log_bytes: u64,
    /// Tuples restored from the bootstrap chain.
    pub checkpoint_tuples: u64,
    /// Wall seconds the promote drain took (tail drain + session finish).
    pub promote_secs: f64,
}

/// A promoted standby: a full read-write primary over the standby's own
/// (shipped) log directory.
pub struct PromotedPrimary {
    /// The live database.
    pub db: Arc<Database>,
    /// Resumed durability stack (the PR 2 `reopen` path over the shipped
    /// log: epoch numbering continues strictly past the applied frontier).
    pub durability: Arc<Durability>,
    /// What `reopen` found and resumed from.
    pub resume: ResumeInfo,
    /// Apply-session totals.
    pub report: StandbyReport,
}

/// What the receiver publishes to the [`Standby`] handle.
#[derive(Default)]
struct Shared {
    /// Drain-and-exit signal for the receiver.
    promote: AtomicBool,
    /// True until the stream head is processed (bootstrap chain loaded,
    /// or the first seal handled): reads must not be admitted against an
    /// empty or half-loaded base image just because the gate total is
    /// still 0.
    bootstrap_pending: AtomicBool,
    /// A [`ShipFrame::Reset`] arrived: the next shipped chain tip is a
    /// re-bootstrap base image to resync onto, not bookkeeping.
    resync_pending: AtomicBool,
    /// Detached [`pacman_obs::Counter`] handles, bound into the global
    /// registry as `standby.*` at session start.
    rebootstraps: ObsCounter,
    received_log_bytes: ObsCounter,
    pepoch: AtomicU64,
    /// Bootstrap chain coverage: shipped records at `ts <=` this are
    /// already in the base image and are filtered out of every unit.
    after_ts: AtomicU64,
    ckpt_tuples: AtomicU64,
    /// Per announced-but-not-yet-applied unit: `(received log bytes,
    /// its seal's epoch)`. Drained into the metrics' applied counters (and
    /// the span table's `Applied` stage) as the apply frontier advances.
    batch_bytes: Mutex<BTreeMap<u64, (u64, u64)>>,
}

/// A hot standby consuming a primary's ship stream.
pub struct Standby {
    /// The apply session; taken by `promote`.
    session: Option<RecoverySession>,
    storage: StorageSet,
    registry: ProcRegistry,
    shared: Arc<Shared>,
    /// Hands the follow handle back when the receiver drains out cleanly;
    /// `None` when it failed the session through it.
    recv_join: Option<JoinHandle<Option<FollowHandle>>>,
}

/// Start a standby over its own (fresh or previously-shipped) `storage`,
/// consuming encoded [`ShipFrame`]s from `rx`. The first shipped chain
/// tip bootstraps the base image; a primary should therefore checkpoint
/// at least once (covering its initial load) before a standby attaches —
/// timestamp-0 seed rows are never logged, so the log alone cannot
/// reproduce them.
pub fn start_standby(
    storage: StorageSet,
    catalog: &Catalog,
    registry: &ProcRegistry,
    config: &StandbyConfig,
    rx: crossbeam::channel::Receiver<Vec<u8>>,
) -> Result<Standby> {
    let (session, follow) = RecoverySession::follow(catalog, registry, config)?;
    let shared = Arc::new(Shared {
        bootstrap_pending: AtomicBool::new(true),
        ..Shared::default()
    });
    // Rebinding on a later standby replaces the handles, so a snapshot
    // always reflects the latest session.
    let r = pacman_obs::registry();
    r.bind_counter("standby.rebootstraps", &shared.rebootstraps);
    r.bind_counter("standby.received_log_bytes", &shared.received_log_bytes);

    let mut receiver = Receiver {
        db: Arc::clone(session.db()),
        gate: Arc::clone(session.gate()),
        metrics: Arc::clone(session.metrics()),
        storage: storage.clone(),
        shared: Arc::clone(&shared),
        follow,
        runs: Vec::new(),
        run_bytes: 0,
        threads: config.threads.max(1),
    };
    let recv_join = std::thread::Builder::new()
        .name("standby-recv".into())
        .spawn(move || {
            let result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| receiver.run(&rx)))
                    .unwrap_or_else(|_| Err(Error::Unknown("standby receiver panicked".into())));
            match result {
                Ok(()) => Some(receiver.follow),
                Err(e) => {
                    receiver.follow.fail(e);
                    None
                }
            }
        })
        .map_err(|e| Error::Unknown(format!("spawn standby receiver: {e}")))?;
    Ok(Standby {
        session: Some(session),
        storage,
        registry: registry.clone(),
        shared,
        recv_join: Some(recv_join),
    })
}

/// The receiver thread: decodes frames, persists them into the standby's
/// own directory, and announces one unit per seal.
struct Receiver {
    db: Arc<Database>,
    gate: Arc<RecoveryGate>,
    metrics: Arc<RecoveryMetrics>,
    storage: StorageSet,
    shared: Arc<Shared>,
    follow: FollowHandle,
    /// Record runs persisted since the last announced unit.
    runs: Vec<Bytes>,
    run_bytes: u64,
    threads: usize,
}

impl Receiver {
    fn run(&mut self, rx: &crossbeam::channel::Receiver<Vec<u8>>) -> Result<()> {
        let mut disconnected = false;
        loop {
            if self.shared.promote.load(Ordering::Acquire) {
                // Drain the shipped tail already on the link. Runs after
                // the last seal stay unannounced: they are not sealed, and
                // `Durability::reopen` truncates them.
                while let Ok(bytes) = rx.try_recv() {
                    self.handle(&bytes)?;
                }
                if self.shared.resync_pending.load(Ordering::Acquire) {
                    // Reset received but the re-bootstrap base image never
                    // arrived: the primary reclaimed history this standby
                    // is missing, so its state cannot be completed.
                    return Err(Error::Unknown(
                        "standby reset without a re-bootstrap chain; promote is unsafe".into(),
                    ));
                }
                return Ok(());
            }
            if disconnected {
                // Keep folding apply progress while holding for a promote
                // decision — units announced before the link died are
                // still being applied behind the gate.
                self.observe_applied();
                std::thread::sleep(Duration::from_micros(500));
                continue;
            }
            match rx.recv_timeout(Duration::from_millis(1)) {
                Ok(bytes) => self.handle(&bytes)?,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => self.observe_applied(),
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    // Link severed (primary gone): hold state and wait for
                    // a promote decision.
                    disconnected = true;
                }
            }
        }
    }

    /// Fold newly-applied units into the metrics counters (the applied
    /// side of the shipped/applied byte accounting).
    fn observe_applied(&self) {
        let applied = self.gate.min_watermark().min(self.follow.announced());
        let mut bb = self.shared.batch_bytes.lock();
        let pending = bb.split_off(&(applied + 1));
        for (bytes, epoch) in std::mem::replace(&mut *bb, pending).into_values() {
            self.metrics.count_applied_batch(bytes);
            // Span attribution: the unit's seal epoch is now queryable on
            // the standby (standby.apply_lag's right edge).
            pacman_obs::spans().record(epoch, pacman_obs::Stage::Applied);
        }
    }

    /// Block until the session has applied every announced unit (every
    /// watermark at the announced count). Used on a Reset, before the
    /// resync: replacing shard state while command re-execution is still
    /// in flight would let it read half-replaced rows. No unit is
    /// announced meanwhile — this thread is the only one that announces.
    fn quiesce(&self) -> Result<()> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while self.gate.min_watermark() < self.follow.announced() {
            if self.gate.is_failed() {
                return Err(Error::Unknown("standby failed before resync".into()));
            }
            if Instant::now() >= deadline {
                return Err(Error::Unknown(
                    "standby session never quiesced for resync".into(),
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        self.observe_applied();
        Ok(())
    }

    fn handle(&mut self, bytes: &[u8]) -> Result<()> {
        let frame = ShipFrame::decode(&mut Cursor::new(bytes))?;
        match frame {
            ShipFrame::Hello { .. } => {
                // Wire version was validated by the decoder; the layout
                // fields are informational (file names arrive explicit).
            }
            ShipFrame::Records {
                file,
                offset,
                bytes,
            } => {
                let logger = file
                    .strip_prefix("log/")
                    .and_then(|s| s.split('/').next())
                    .and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| Error::Corrupt(format!("bad shipped log file {file}")))?;
                // Exactly-once against redelivery: the shipper only
                // commits its cursor after a fully-delivered stream, so a
                // severed link can resend a run we already hold. Our own
                // copy's length is the byte position the next new run must
                // start at; an overlap is skipped (its records were
                // already announced), a gap is corruption.
                let have = self.storage.disk(logger).len(&file).unwrap_or(0) as u64;
                if offset > have {
                    return Err(Error::Corrupt(format!(
                        "ship gap in {file}: run starts at {offset}, have {have}"
                    )));
                }
                let skip = (have - offset) as usize;
                if skip >= bytes.len() {
                    return Ok(()); // pure redelivery, nothing new
                }
                let fresh = bytes.slice(skip..);
                // Persist first — the standby's directory must always be a
                // valid crash image — then hold the run for the next seal.
                self.storage.disk(logger).append(&file, &fresh);
                self.run_bytes += fresh.len() as u64;
                self.shared.received_log_bytes.add(fresh.len() as u64);
                self.runs.push(fresh);
            }
            ShipFrame::Blob { name, disk, bytes } => {
                if !name.starts_with("ckpt/") {
                    return Err(Error::Corrupt(format!("unexpected shipped blob {name}")));
                }
                // Manifests resolve parts by device index: honor the
                // shipped placement (wrapping onto fewer devices is fine —
                // recovery's reads wrap identically).
                self.storage.disk(disk as usize).write_file(&name, &bytes);
            }
            ShipFrame::ChainTip { bytes } => {
                self.storage.disk(0).write_file(MANIFEST_FILE, &bytes);
                self.storage.disk(0).fsync();
                // The first tip is the bootstrap base image, loaded eagerly
                // before anything is applied. A tip after a Reset is the
                // re-bootstrap image: the primary reclaimed log this
                // standby never received and the tip covers the gap, so
                // every shard is replaced with the chain's state (updates
                // install LWW, vanished keys tombstone). Other tips (the
                // primary checkpointed mid-stream) are bookkeeping only —
                // the standby's state is already newer than the snapshot.
                let resync = self.shared.resync_pending.load(Ordering::Acquire);
                let after_ts = self.shared.after_ts.load(Ordering::Acquire);
                if resync || (after_ts == 0 && self.follow.announced() == 0) {
                    let chain = read_chain(&self.storage)?
                        .ok_or_else(|| Error::Corrupt("shipped chain tip unreadable".into()))?;
                    if !resync || chain.ts() > after_ts {
                        let ckpt = if resync {
                            resync_checkpoint_chain(&self.storage, &chain, &self.db, self.threads)?
                        } else {
                            let base = CheckpointTarget::Tables(&self.db);
                            recover_checkpoint_chain(&self.storage, &chain, self.threads, base)?
                        };
                        self.shared
                            .ckpt_tuples
                            .fetch_add(ckpt.tuples, Ordering::Release);
                        // Units announced from here on drop what it covers.
                        self.shared.after_ts.store(chain.ts(), Ordering::Release);
                        self.db.clock().advance_to(chain.ts() + 1);
                    }
                }
                if resync {
                    self.shared.resync_pending.store(false, Ordering::Release);
                    self.shared.rebootstraps.inc();
                    pacman_obs::tracer().emit(TraceEvent::StandbyRebootstrap {
                        chain_ts: self.shared.after_ts.load(Ordering::Acquire),
                    });
                }
                // Base image resident (or already newer): reads may pass.
                self.shared
                    .bootstrap_pending
                    .store(false, Ordering::Release);
            }
            ShipFrame::Reset => {
                // The primary broke this subscriber's cursor (bounded-lag
                // retention) and a fresh bootstrap stream follows. Quiesce
                // the session first: command re-execution racing the
                // coming resync would read half-replaced state. Held
                // (persisted, unannounced) runs are kept — the fresh
                // cursor skips what we already hold, so nothing redelivers
                // them — and the resync filters out those its base covers.
                self.quiesce()?;
                self.shared.resync_pending.store(true, Ordering::Release);
                // Reads hold off until the resync lands.
                self.shared.bootstrap_pending.store(true, Ordering::Release);
            }
            ShipFrame::Seal { pepoch } => {
                // The shipped prefix is complete up to `pepoch`: persist
                // the frontier (the standby's own pepoch) and announce the
                // delimited unit. The in-memory frontier publishes only
                // after the announcement, so an observer seeing `pepoch >=
                // p` knows every seal at or below `p` has already moved
                // the gate's total.
                self.storage
                    .disk(0)
                    .write_file(PEPOCH_FILE, &pepoch.to_le_bytes());
                self.storage.disk(0).fsync();
                self.announce(pepoch)?;
                self.shared.pepoch.fetch_max(pepoch, Ordering::AcqRel);
                // A seal implies the stream head (incl. any bootstrap
                // chain, which ships ahead of records) was processed —
                // unless a resync is still owed its chain tip, in which
                // case reads keep holding off.
                if !self.shared.resync_pending.load(Ordering::Acquire) {
                    self.shared
                        .bootstrap_pending
                        .store(false, Ordering::Release);
                }
            }
        }
        Ok(())
    }

    /// Announce the runs held since the previous seal as one unit (no-op
    /// when there are none).
    fn announce(&mut self, pepoch: u64) -> Result<()> {
        if self.shared.resync_pending.load(Ordering::Acquire) || self.runs.is_empty() {
            // Nothing held, or a Reset whose chain tip has not arrived yet:
            // the runs may hold records the coming base image covers (a
            // racing reclaim made the shipper retry the chain). Keep
            // holding them — the resync moves `after_ts` past its tip, and
            // the next seal announces the rest.
            return Ok(());
        }
        let seq = self.follow.announced() + 1;
        let bytes = std::mem::take(&mut self.run_bytes);
        pacman_obs::tracer().emit(TraceEvent::StandbyApply { batch: seq, bytes });
        self.shared.batch_bytes.lock().insert(seq, (bytes, pepoch));
        let after_ts = self.shared.after_ts.load(Ordering::Acquire);
        self.follow
            .announce(std::mem::take(&mut self.runs), pepoch, after_ts)?;
        self.observe_applied();
        Ok(())
    }
}

impl Standby {
    fn session(&self) -> &RecoverySession {
        self.session
            .as_ref()
            .expect("a standby owns its session until promote")
    }

    /// The live (read-only) database.
    pub fn db(&self) -> &Arc<Database> {
        self.session().db()
    }

    /// The lag gate (partition-level introspection).
    pub fn gate(&self) -> &Arc<RecoveryGate> {
        self.session().gate()
    }

    /// Lifecycle state of the apply session.
    pub fn state(&self) -> SessionState {
        self.session().state()
    }

    /// The session error, if the standby failed.
    pub fn error(&self) -> Option<String> {
        self.session().error().map(|e| e.to_string())
    }

    /// Live replication counters.
    pub fn stats(&self) -> ReplicationStats {
        // Read the frontier *before* the gate totals: the receiver
        // publishes `pepoch` only after its seal's announcement moved the
        // total, so a snapshot whose pepoch covers seal P is guaranteed to
        // see P's total too — otherwise a waiter could observe the new
        // frontier with a stale total and report lag 0 while the final
        // unit is still applying.
        let pepoch = self.shared.pepoch.load(Ordering::Acquire);
        let shipped = self.gate().total_batches();
        let applied = self.gate().min_watermark().min(shipped);
        // The receiver moves an applied unit's bytes out of `batch_bytes`
        // into the metrics' applied counter while holding the lock, on its
        // 1 ms cadence: one locked read of both never dips, and adds the
        // units applied since the last fold.
        let metrics = self.session().metrics();
        let applied_log_bytes = {
            let bb = self.shared.batch_bytes.lock();
            metrics.applied_log_bytes() + bb.range(..=applied).map(|(_, &(b, _))| b).sum::<u64>()
        };
        ReplicationStats {
            shipped_batches: shipped,
            applied_batches: applied,
            lag_batches: shipped.saturating_sub(applied),
            received_log_bytes: self.shared.received_log_bytes.get(),
            applied_log_bytes,
            txns: metrics.txns(),
            pepoch,
            rebootstraps: self.shared.rebootstraps.get(),
        }
    }

    /// Block until the standby has received seals through `min_pepoch`
    /// *and* applied everything shipped (lag 0), and the receiver has
    /// folded every applied unit (so each one's `Applied` span stamp, and
    /// its `standby.apply_lag` sample, is recorded). Returns `false` if
    /// the standby failed or `timeout` elapsed first. Pass the primary's
    /// (persisted) pepoch to wait for a full catch-up.
    pub fn wait_caught_up(&self, min_pepoch: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.gate().is_failed() {
                return false;
            }
            let s = self.stats();
            let bb = self.shared.batch_bytes.lock();
            let folded = bb.range(..=s.applied_batches).next().is_none();
            drop(bb);
            if s.pepoch >= min_pepoch
                && s.lag_batches == 0
                && !self.shared.resync_pending.load(Ordering::Acquire)
                && folded
            {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Execute a read-only procedure against the standby, gated on its
    /// footprint being caught up. Returns `Ok(None)` when the footprint is
    /// still behind (the caller may retry — the request was flagged, so
    /// the apply workers prioritize it). Procedures with write ops are
    /// rejected: a standby must not mutate replicated state.
    pub fn execute_read_only(
        &self,
        proc: ProcId,
        params: &Params,
    ) -> Result<Option<pacman_engine::CommitInfo>> {
        let def = self.registry.get(proc)?;
        if def.ops.iter().any(|op| op.is_write()) {
            return Err(Error::InvalidConfig(format!(
                "procedure {} writes; a standby serves read-only transactions",
                def.name
            )));
        }
        if self.gate().is_failed() {
            return Err(Error::Unknown("standby failed".into()));
        }
        // Before the stream head lands (bootstrap base image / first
        // seal) the gate's total is still 0 and would admit everything
        // against an empty or half-loaded database — refuse instead.
        if self.shared.bootstrap_pending.load(Ordering::Acquire) {
            return Ok(None);
        }
        let admission = self.session().gated_admission();
        if !admission.try_admit(proc, params) {
            admission.request(proc, params);
            return Ok(None);
        }
        // OCC validation protects the read from racing installs: on
        // conflict, retry — the apply frontier only moves forward.
        let mut tries = 0;
        loop {
            match run_procedure(self.db(), def, params) {
                Ok(info) => return Ok(Some(info)),
                Err(Error::TxnAborted(_)) if tries < 100 => tries += 1,
                Err(e) => return Err(e),
            }
        }
    }

    /// Promote to a full primary — instant restart's tail: drain the
    /// shipped tail already on the link, finish the follow source, wait
    /// for the session to apply every announced unit (its gate then opens
    /// for good), resume the clock, and reopen the standby's own (shipped)
    /// log directory for resumed logging. `config` must mirror the
    /// primary's durability layout (`num_loggers`, `batch_epochs`) — batch
    /// naming derives from both.
    pub fn promote(mut self, config: DurabilityConfig) -> Result<PromotedPrimary> {
        let t0 = Instant::now();
        if let Some(follow) = self.stop_receiver() {
            follow.finish();
        }
        let session = self.session.take().expect("promote owns the session");
        let db = Arc::clone(session.db());
        let batches = session.gate().total_batches();
        let outcome = session.wait()?;

        // The session resumed the clock past everything it replayed; move
        // it past the chain tip and the shipped frontier too, then reopen
        // the shipped log for writing: epoch numbering continues strictly
        // past max(pepoch, chain tip, clock) — the PR 2 lifecycle.
        let after_ts = self.shared.after_ts.load(Ordering::Acquire);
        let pepoch = self.shared.pepoch.load(Ordering::Acquire);
        let floor = after_ts.max(if pepoch > 0 {
            epoch_floor(pepoch + 1)
        } else {
            0
        });
        db.clock().advance_to(floor.saturating_add(1));

        let report = StandbyReport {
            batches,
            txns: outcome.report.txns,
            replayed_commands: outcome.report.replayed_commands,
            applied_writes: outcome.report.applied_writes,
            received_log_bytes: self.shared.received_log_bytes.get(),
            checkpoint_tuples: self.shared.ckpt_tuples.load(Ordering::Relaxed),
            promote_secs: t0.elapsed().as_secs_f64(),
        };
        let (durability, resume) =
            Durability::reopen(Arc::clone(&db), self.storage.clone(), config);
        Ok(PromotedPrimary {
            db,
            durability,
            resume,
            report,
        })
    }

    /// Stop the receiver once it drained the link, and take back its
    /// follow handle (`None` if the receiver failed the session).
    fn stop_receiver(&mut self) -> Option<FollowHandle> {
        self.shared.promote.store(true, Ordering::Release);
        self.recv_join.take()?.join().ok().flatten()
    }
}

impl Drop for Standby {
    /// A discarded standby stops receiving and lets its session apply what
    /// was announced, so no thread outlives the handle.
    fn drop(&mut self) {
        if let Some(follow) = self.stop_receiver() {
            follow.finish();
        }
        if let Some(session) = self.session.take() {
            let _ = session.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::{recover, RecoveryOutcome, RecoveryScheme};
    use crate::replication::{pump, wire};
    use crate::runtime::ReplayMode;
    use pacman_common::clock::epoch_of;
    use pacman_common::{Row, TableId, Value};
    use pacman_engine::run_procedure_with_epoch;
    use pacman_sproc::{Expr, ProcBuilder};
    use pacman_storage::{DiskConfig, StorageSet};
    use pacman_wal::{LogPayload, LogScheme, LogShipper, TxnLogRecord, WorkerLogBuffer};

    const T: TableId = TableId::new(0);
    const ADD: ProcId = ProcId::new(0);
    const GET: ProcId = ProcId::new(1);

    fn setup() -> (Catalog, ProcRegistry) {
        let mut c = Catalog::new();
        c.add_table_sharded("t", 1, 2);
        let mut reg = ProcRegistry::new();
        let mut b = ProcBuilder::new(ADD, "Add", 2);
        let v = b.read(T, Expr::param(0), 0);
        b.write(
            T,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        reg.register(b.build().unwrap()).unwrap();
        let mut b = ProcBuilder::new(GET, "Get", 1);
        let _ = b.read(T, Expr::param(0), 0);
        reg.register(b.build().unwrap()).unwrap();
        (c, reg)
    }

    fn durability_config(scheme: LogScheme) -> DurabilityConfig {
        DurabilityConfig {
            scheme,
            num_loggers: 1,
            epoch_interval: Duration::from_millis(2),
            batch_epochs: 4,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            fsync: true,
            ..Default::default()
        }
    }

    /// The log a test primary writes.
    #[derive(Clone, Copy, Debug)]
    enum Log {
        /// Command records only.
        Command,
        /// A command log where every second transaction is ad-hoc and
        /// logs its write set (§4.5).
        Mixed,
        /// Logical records only.
        Logical,
    }

    /// Build a primary image: seeded + checkpointed base, then `n`
    /// committed transactions logged as `log`. Returns the primary
    /// storage, the reference database and the persisted pepoch.
    fn primary_image(
        catalog: &Catalog,
        registry: &ProcRegistry,
        log: Log,
        n: u64,
    ) -> (StorageSet, Arc<Database>, u64) {
        use pacman_common::Encoder;
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("prim"));
        let db = Arc::new(Database::new(catalog.clone()));
        for k in 0..8u64 {
            db.seed_row(T, k, Row::from([Value::Int(100)])).unwrap();
        }
        pacman_wal::run_checkpoint(&db, &storage, 1).unwrap();
        let mut buf = Vec::new();
        let mut batch = 0u64;
        let mut max_epoch = 0;
        for i in 0..n {
            let params: Params = vec![Value::Int((i % 8) as i64), Value::Int(1)].into();
            let proc = registry.get(ADD).unwrap();
            let epoch = 1 + i / 5;
            let info = run_procedure_with_epoch(&db, proc, &params, || epoch).unwrap();
            max_epoch = max_epoch.max(epoch_of(info.ts));
            let payload = match log {
                Log::Logical => LogPayload::Writes {
                    writes: info.writes.clone(),
                    physical: false,
                    adhoc: false,
                },
                Log::Mixed if i % 2 == 0 => LogPayload::Writes {
                    writes: info.writes.clone(),
                    physical: false,
                    adhoc: true,
                },
                _ => LogPayload::Command { proc: ADD, params },
            };
            TxnLogRecord {
                ts: info.ts,
                payload,
            }
            .encode(&mut buf);
            // batch_epochs = 4: split files at epoch-derived batch bounds.
            if (i + 1) % 20 == 0 {
                storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
                buf.clear();
                batch += 1;
            }
        }
        if !buf.is_empty() {
            storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
        }
        storage
            .disk(0)
            .write_file(PEPOCH_FILE, &max_epoch.to_le_bytes());
        (storage, db, max_epoch)
    }

    fn standby_config(scheme: RecoveryScheme) -> StandbyConfig {
        StandbyConfig { scheme, threads: 2 }
    }

    /// Run `f` on its own thread and give it 20 s: a session that never
    /// settles (say, a promote that skipped `finish()`) fails the test
    /// instead of hanging the suite.
    fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(20))
            .unwrap_or_else(|_| panic!("{what} never settled"))
    }

    fn promote(standby: Standby, config: DurabilityConfig) -> Result<PromotedPrimary> {
        within("promote", move || standby.promote(config))
    }

    fn settle(session: RecoverySession) -> Result<RecoveryOutcome> {
        within("follow session", move || session.wait())
    }

    /// The gated schemes, each with the log format it replays.
    fn gated_schemes() -> [(Log, RecoveryScheme); 4] {
        let mode = ReplayMode::Pipelined;
        [
            (Log::Command, RecoveryScheme::Clr),
            (Log::Command, RecoveryScheme::ClrP { mode }),
            (Log::Mixed, RecoveryScheme::ClrP { mode }),
            (Log::Logical, RecoveryScheme::LlrP),
        ]
    }

    /// A follow session fed the primary's log one unit per seal, exactly
    /// as the receiver feeds it, ends where offline `recover` does on the
    /// same image — same state, same counts — under every gated scheme.
    #[test]
    fn follow_session_matches_offline_recovery() {
        let (catalog, reg) = setup();
        for (log, scheme) in gated_schemes() {
            let (primary, _, pepoch) = primary_image(&catalog, &reg, log, 40);
            let config = RecoveryConfig { scheme, threads: 2 };
            let offline = recover(&primary, &catalog, &reg, &config).unwrap();

            let (session, mut follow) = RecoverySession::follow(&catalog, &reg, &config).unwrap();
            let metrics = Arc::clone(session.metrics());
            let chain = read_chain(&primary).unwrap().unwrap();
            let base = CheckpointTarget::Tables(session.db());
            recover_checkpoint_chain(&primary, &chain, 1, base).unwrap();
            let shipper = LogShipper::new(primary.clone(), 1, 4);
            let mut runs = Vec::new();
            for p in 1..=pepoch {
                for frame in shipper.poll(p).unwrap() {
                    match frame {
                        ShipFrame::Records { bytes, .. } => runs.push(bytes),
                        ShipFrame::Seal { pepoch } => {
                            let runs = std::mem::take(&mut runs);
                            follow.announce(runs, pepoch, chain.ts()).unwrap();
                        }
                        _ => {}
                    }
                }
            }
            assert_eq!(follow.announced(), pepoch, "one unit per seal");
            follow.finish();
            let online = settle(session).unwrap();

            let label = scheme.label();
            assert_eq!(online.db.fingerprint(), offline.db.fingerprint(), "{label}");
            let counts = |r: &crate::recovery::RecoveryReport| {
                (r.txns, r.replayed_commands, r.applied_writes)
            };
            assert_eq!(counts(&online.report), counts(&offline.report), "{label}");
            assert_eq!(online.report.txns, 40, "{label}");
            // Every Add writes one tuple: one image per transaction.
            assert_eq!((metrics.txns(), metrics.writes()), (40, 40), "{label}");
        }
    }

    /// `recovery.txns` and `recovery.writes` read what the loaders did:
    /// the report's transactions and the images installed, offline and
    /// online, for every gated scheme.
    #[test]
    fn replay_counters_match_the_report() {
        use crate::recovery::{clr, clr_p, llr_p, recover_online, LogInventory, UnitSource};
        use crate::static_analysis::GlobalGraph;
        let (catalog, reg) = setup();
        for (log, scheme) in gated_schemes() {
            let label = scheme.label();
            let (primary, _, _) = primary_image(&catalog, &reg, log, 40);

            // Offline: the loaders `recover` runs, over the restored base.
            let db = Arc::new(Database::new(catalog.clone()));
            let chain = read_chain(&primary).unwrap().unwrap();
            recover_checkpoint_chain(&primary, &chain, 1, CheckpointTarget::Tables(&db)).unwrap();
            let inventory = LogInventory::scan(&primary);
            let source = UnitSource::inventory(&primary, &inventory, u64::MAX, chain.ts());
            let m = Arc::new(RecoveryMetrics::new());
            let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
            let r = match scheme {
                RecoveryScheme::Clr => clr::recover_log(source, &db, &reg, &m, None),
                RecoveryScheme::ClrP { mode } => {
                    clr_p::recover_log(source, &db, &gdg, &reg, 2, mode, &m, None)
                }
                _ => llr_p::recover_log(&primary, &inventory, &db, 2, u64::MAX, chain.ts(), &m),
            }
            .unwrap();
            // Newest-first LLR-P installs each key's last image only.
            let images = if r.installed_writes > 0 {
                r.installed_writes
            } else {
                40
            };
            assert_eq!((m.txns(), m.writes()), (r.txns, images), "{label} offline");

            // Online: an instant-restart session over the same image.
            let config = RecoveryConfig { scheme, threads: 2 };
            let session = recover_online(&primary, &catalog, &reg, &config).unwrap();
            let m = Arc::clone(session.metrics());
            let out = settle(session).unwrap();
            assert_eq!(
                (m.txns(), m.writes()),
                (out.report.txns, 40),
                "{label} online"
            );
        }
    }

    #[test]
    fn finished_follow_session_without_units_completes_open() {
        let (catalog, reg) = setup();
        let config = RecoveryConfig {
            scheme: RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            threads: 2,
        };
        let (session, follow) = RecoverySession::follow(&catalog, &reg, &config).unwrap();
        let gate = Arc::clone(session.gate());
        follow.finish();
        let out = settle(session).unwrap();
        assert_eq!(out.report.txns, 0);
        assert!(gate.is_complete() && !gate.is_failed());
    }

    #[test]
    fn unparseable_unit_fails_the_follow_session() {
        let (catalog, reg) = setup();
        for (_, scheme) in gated_schemes() {
            let config = RecoveryConfig { scheme, threads: 2 };
            let (session, mut follow) = RecoverySession::follow(&catalog, &reg, &config).unwrap();
            let gate = Arc::clone(session.gate());
            let garbage = Bytes::copy_from_slice(&[99, 1, 2]);
            follow.announce(vec![garbage], 1, 0).unwrap();
            let err = settle(session);
            assert!(
                err.is_err(),
                "{}: an unparseable unit must fail",
                scheme.label()
            );
            assert!(
                gate.is_failed(),
                "{}: the gate must be poisoned",
                scheme.label()
            );
            // The session is gone: a later announcement reports it.
            assert!(follow.announce(Vec::new(), 2, 0).is_err());
        }
    }

    /// A unit that schedules but fails on a worker: an ad-hoc write to a
    /// table outside the catalog. The session must settle `Failed` with
    /// its gate poisoned while its follow handle is still open — not wait
    /// for `finish()`.
    #[test]
    fn failed_worker_fails_the_open_follow_session() {
        use pacman_common::clock::epoch_floor;
        use pacman_common::Encoder;
        use pacman_engine::{WriteKind, WriteRecord};
        let (catalog, reg) = setup();
        let mut unit = Vec::new();
        TxnLogRecord {
            ts: epoch_floor(1) | 1,
            payload: LogPayload::Writes {
                writes: vec![WriteRecord {
                    table: TableId::new(9),
                    key: 0,
                    kind: WriteKind::Update,
                    after: Some(Row::from([Value::Int(1)])),
                    prev_ts: 0,
                }],
                physical: false,
                adhoc: true,
            },
        }
        .encode(&mut unit);
        for (_, scheme) in gated_schemes() {
            let config = RecoveryConfig { scheme, threads: 2 };
            let (session, mut follow) = RecoverySession::follow(&catalog, &reg, &config).unwrap();
            let gate = Arc::clone(session.gate());
            follow.announce(vec![unit.clone().into()], 1, 0).unwrap();
            let label = scheme.label();
            assert!(settle(session).is_err(), "{label}: the unit must fail");
            assert!(gate.is_failed(), "{label}: the gate must be poisoned");
            drop(follow);
        }
    }

    #[test]
    fn command_standby_applies_and_promotes() {
        let (catalog, reg) = setup();
        let (primary, reference, pepoch) = primary_image(&catalog, &reg, Log::Command, 40);
        let shipper = LogShipper::new(primary.clone(), 1, 4);
        let (tx, rx) = wire();
        let standby_storage = StorageSet::identical(1, DiskConfig::unthrottled("stb"));
        let standby = start_standby(
            standby_storage.clone(),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            rx,
        )
        .unwrap();
        pump(&shipper, pepoch, &tx).unwrap();
        assert!(standby.wait_caught_up(pepoch, Duration::from_secs(5)));
        let s = standby.stats();
        assert_eq!(s.lag_batches, 0);
        assert_eq!(s.txns, 40);
        assert!(s.received_log_bytes > 0);
        assert_eq!(s.pepoch, pepoch);

        let promoted = promote(standby, durability_config(LogScheme::Command)).unwrap();
        assert_eq!(promoted.db.fingerprint(), reference.fingerprint());
        assert_eq!(promoted.report.txns, 40);
        assert_eq!(promoted.report.replayed_commands, 40);
        assert_eq!(promoted.report.checkpoint_tuples, 8);
        assert!(promoted.resume.base_epoch >= pepoch);

        // The promoted primary serves writes with strictly newer epochs.
        let dur = &promoted.durability;
        let worker = dur.register_worker();
        let mut wb = WorkerLogBuffer::new();
        let e = worker.peek();
        dur.flush_before_ack(&mut wb, 0, e);
        worker.enter_at(e);
        let proc = reg.get(ADD).unwrap();
        let params: Params = vec![Value::Int(0), Value::Int(1)].into();
        let info = run_procedure_with_epoch(&promoted.db, proc, &params, || e).unwrap();
        assert!(epoch_of(info.ts) > promoted.resume.base_epoch);
        dur.log_commit_buffered(&mut wb, 0, &info, ADD, &params, false);
        dur.flush_worker(&mut wb, 0);
        worker.retire();
        dur.wait_durable(epoch_of(info.ts));
        promoted.durability.shutdown();
    }

    #[test]
    fn llr_p_standby_applies_logical_stream() {
        let (catalog, reg) = setup();
        let (primary, reference, pepoch) = primary_image(&catalog, &reg, Log::Logical, 30);
        let shipper = LogShipper::new(primary.clone(), 1, 4);
        let (tx, rx) = wire();
        let standby = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::LlrP),
            rx,
        )
        .unwrap();
        // Ship in two pumps to exercise incremental seals.
        pump(&shipper, pepoch / 2, &tx).unwrap();
        pump(&shipper, pepoch, &tx).unwrap();
        assert!(standby.wait_caught_up(pepoch, Duration::from_secs(5)));

        // A caught-up read admits immediately and sees replicated state.
        let params: Params = vec![Value::Int(3)].into();
        let info = standby
            .execute_read_only(GET, &params)
            .unwrap()
            .expect("caught-up footprint admits");
        assert!(info.writes.is_empty());

        // Write procedures are rejected outright.
        assert!(standby
            .execute_read_only(ADD, &vec![Value::Int(0), Value::Int(1)].into())
            .is_err());

        let promoted = promote(standby, durability_config(LogScheme::Logical)).unwrap();
        assert_eq!(promoted.db.fingerprint(), reference.fingerprint());
        assert_eq!(promoted.report.applied_writes, 30);
        promoted.durability.shutdown();
    }

    #[test]
    fn standby_applies_mixed_command_and_adhoc_stream() {
        let (catalog, reg) = setup();
        let (primary, reference, pepoch) = primary_image(&catalog, &reg, Log::Mixed, 30);
        let shipper = LogShipper::new(primary.clone(), 1, 4);
        let (tx, rx) = wire();
        let standby = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            rx,
        )
        .unwrap();
        for p in 1..=pepoch {
            pump(&shipper, p, &tx).unwrap();
        }
        assert!(standby.wait_caught_up(pepoch, Duration::from_secs(5)));
        // Caught up means folded too: no applied unit still waits for the
        // receiver to record it.
        assert!(standby.shared.batch_bytes.lock().is_empty());
        assert_eq!(standby.stats().applied_batches, pepoch);
        let promoted = promote(standby, durability_config(LogScheme::Command)).unwrap();
        assert_eq!(promoted.db.fingerprint(), reference.fingerprint());
        assert_eq!(
            promoted.report.replayed_commands + promoted.report.applied_writes,
            30
        );
        assert!(promoted.report.replayed_commands > 0);
        assert!(promoted.report.applied_writes > 0);
        promoted.durability.shutdown();
    }

    #[test]
    fn corrupt_frame_fails_the_standby_and_poisons_the_gate() {
        let (catalog, reg) = setup();
        // Raw wire: deliver undecodable bytes straight to the receiver.
        let (gtx, grx) = crossbeam::channel::unbounded::<Vec<u8>>();
        let bad = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb2")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            grx,
        )
        .unwrap();
        gtx.send(vec![99u8, 0, 0]).unwrap();
        let t0 = Instant::now();
        while bad.state() != SessionState::Failed {
            assert!(t0.elapsed() < Duration::from_secs(2), "never failed");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(bad.gate().is_failed());
        assert!(bad.error().is_some());
        assert!(promote(bad, durability_config(LogScheme::Command)).is_err());
    }

    #[test]
    fn reads_gate_on_the_moving_frontier() {
        // Drive the gate by hand to pin the semantics: total moves with
        // each shipped batch, so "admitted" means caught up, not done.
        let (catalog, reg) = setup();
        // Bootstrap only (checkpointed base image, no log): the standby's
        // database holds the seeded rows and no seal has shipped.
        let (primary, _reference, _pepoch) = primary_image(&catalog, &reg, Log::Command, 0);
        let shipper = LogShipper::new(primary, 1, 4);
        let (tx, rx) = wire();
        let standby = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            rx,
        )
        .unwrap();
        pump(&shipper, 0, &tx).unwrap();
        // Wait for the bootstrap to *finish*, not for its tuples: the
        // restore installs them before it lets reads pass.
        let t0 = Instant::now();
        let get = |standby: &Standby| standby.execute_read_only(GET, &vec![Value::Int(1)].into());
        while get(&standby).unwrap().is_none() {
            assert!(
                t0.elapsed() < Duration::from_secs(2),
                "bootstrap never landed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let gate = Arc::clone(standby.gate());
        // Nothing shipped: everything is "caught up".
        assert!(standby
            .execute_read_only(GET, &vec![Value::Int(1)].into())
            .unwrap()
            .is_some());
        // A shipped-but-unapplied batch closes the gate...
        gate.set_total_batches(1);
        assert!(standby
            .execute_read_only(GET, &vec![Value::Int(1)].into())
            .unwrap()
            .is_none());
        assert_eq!(standby.stats().lag_batches, 1);
        // ...and applying it reopens admission at the new frontier.
        for p in 0..gate.num_partitions() {
            gate.publish(p, 1);
        }
        assert!(standby
            .execute_read_only(GET, &vec![Value::Int(1)].into())
            .unwrap()
            .is_some());
        assert_eq!(standby.stats().lag_batches, 0);
    }

    /// The full bounded-lag lifecycle at unit scale: a standby ships a
    /// prefix, lags through a checkpoint+reclaim that breaks its cursor,
    /// and the next pump re-bootstraps it (Reset → resync onto the new
    /// chain tip → tail apply) to the exact primary state.
    #[test]
    fn broken_cursor_rebootstraps_the_standby() {
        use pacman_common::Encoder;
        use pacman_wal::batch_index_of_epoch;
        use pacman_wal::{RetentionManager, RetentionPolicy};
        let (catalog, reg) = setup();
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("prim"));
        let db = Arc::new(Database::new(catalog.clone()));
        for k in 0..8u64 {
            db.seed_row(T, k, Row::from([Value::Int(100)])).unwrap();
        }
        pacman_wal::run_checkpoint(&db, &storage, 1).unwrap();

        let retention = RetentionManager::new(
            storage.clone(),
            1,
            4,
            RetentionPolicy {
                max_subscriber_lag_bytes: Some(64),
            },
        );
        let shipper = LogShipper::with_retention(
            storage.clone(),
            1,
            4,
            Arc::default(),
            Arc::clone(&retention),
        );
        let (tx, rx) = wire();
        let standby = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            rx,
        )
        .unwrap();

        // Commit `n` transactions at `epoch`, appending to the epoch's
        // batch file exactly as a logger would.
        let commit_at = |epoch: u64, n: u64| {
            let proc = reg.get(ADD).unwrap();
            for i in 0..n {
                let params: Params =
                    vec![Value::Int(((epoch + i) % 8) as i64), Value::Int(1)].into();
                let info = run_procedure_with_epoch(&db, proc, &params, || epoch).unwrap();
                let mut buf = Vec::new();
                TxnLogRecord {
                    ts: info.ts,
                    payload: LogPayload::Command { proc: ADD, params },
                }
                .encode(&mut buf);
                let batch = batch_index_of_epoch(epoch, 4);
                storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
            }
        };

        // Phase 1: a healthy prefix ships (epochs 1..=4).
        for e in 1..=4u64 {
            commit_at(e, 2);
        }
        pump(&shipper, 4, &tx).unwrap();
        assert!(standby.wait_caught_up(4, Duration::from_secs(5)));

        // Phase 2 (the gap): the subscriber stops pumping while the
        // primary churns on and checkpoints — coverage passes the cursor,
        // the reclaim round breaks its hold and frees the log.
        for e in 5..=12u64 {
            commit_at(e, 2);
        }
        pacman_wal::run_checkpoint(&db, &storage, 1).unwrap();
        let chain = pacman_wal::read_chain(&storage).unwrap().unwrap();
        let st = retention.reclaim(&chain);
        assert_eq!(st.holds_broken, 1, "lagging cursor must break");
        assert!(
            storage.disk(0).read("log/00/0000000001").is_err(),
            "gap batches reclaimed"
        );

        // Phase 3: the tail continues past coverage; the next pump
        // self-heals — Reset, fresh chain tip, surviving records.
        for e in 13..=16u64 {
            commit_at(e, 2);
        }
        pump(&shipper, 16, &tx).unwrap();
        assert!(
            standby.wait_caught_up(16, Duration::from_secs(5)),
            "rebootstrapped standby never caught up: {:?} / {:?}",
            standby.stats(),
            standby.error()
        );
        assert_eq!(standby.stats().rebootstraps, 1);
        assert_eq!(shipper.rebootstraps(), 1);

        let promoted = promote(
            standby,
            DurabilityConfig {
                scheme: LogScheme::Command,
                num_loggers: 1,
                epoch_interval: Duration::from_millis(2),
                batch_epochs: 4,
                checkpoint_interval: None,
                checkpoint_threads: 1,
                fsync: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            promoted.db.fingerprint(),
            db.fingerprint(),
            "re-bootstrapped standby must equal the never-lagged primary"
        );
        promoted.durability.shutdown();
    }

    #[test]
    fn redelivered_record_runs_are_applied_exactly_once() {
        let (catalog, reg) = setup();
        let (primary, reference, pepoch) = primary_image(&catalog, &reg, Log::Command, 20);
        let (tx, rx) = wire();
        let standby_storage = StorageSet::identical(1, DiskConfig::unthrottled("stb"));
        let standby = start_standby(
            standby_storage.clone(),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            rx,
        )
        .unwrap();
        // Deliver the stream, then (a severed-link retry) deliver the
        // *same* record runs and seal again: the standby must dedup by
        // offset — commands re-executed twice would double-apply.
        let shipper = LogShipper::new(primary.clone(), 1, 4);
        let frames = shipper.poll(pepoch).unwrap();
        for f in &frames {
            tx.send(f).unwrap();
        }
        for f in &frames {
            if matches!(f, ShipFrame::Records { .. } | ShipFrame::Seal { .. }) {
                tx.send(f).unwrap();
            }
        }
        assert!(standby.wait_caught_up(pepoch, Duration::from_secs(5)));
        let promoted = promote(standby, durability_config(LogScheme::Command)).unwrap();
        assert_eq!(promoted.report.txns, 20, "duplicates must not be fed");
        assert_eq!(promoted.db.fingerprint(), reference.fingerprint());
        // The standby's own log copy holds each shipped byte exactly once.
        for f in &frames {
            if let ShipFrame::Records {
                file,
                offset,
                bytes,
            } = f
            {
                assert_eq!(
                    standby_storage.disk(0).len(file).unwrap(),
                    *offset as usize + bytes.len(),
                    "{file}: duplicate bytes were appended"
                );
            }
        }
        promoted.durability.shutdown();
    }

    #[test]
    fn gapped_record_run_fails_the_standby() {
        let (catalog, reg) = setup();
        let (gtx, grx) = crossbeam::channel::unbounded::<Vec<u8>>();
        let standby = start_standby(
            StorageSet::identical(1, DiskConfig::unthrottled("stb")),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            }),
            grx,
        )
        .unwrap();
        use pacman_common::Encoder;
        // A run claiming to start past what the standby holds = a hole.
        gtx.send(
            ShipFrame::Records {
                file: "log/00/0000000000".into(),
                offset: 999,
                bytes: vec![1, 2, 3].into(),
            }
            .to_bytes(),
        )
        .unwrap();
        let t0 = Instant::now();
        while standby.state() != SessionState::Failed {
            assert!(t0.elapsed() < Duration::from_secs(2), "gap never detected");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(standby.gate().is_failed());
    }

    #[test]
    fn standby_rejects_latched_schemes() {
        let (catalog, reg) = setup();
        let (_tx, rx) = wire();
        assert!(start_standby(
            StorageSet::for_tests(),
            &catalog,
            &reg,
            &standby_config(RecoveryScheme::Plr { latch: true }),
            rx,
        )
        .is_err());
    }
}
