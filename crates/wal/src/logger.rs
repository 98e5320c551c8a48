//! Logger threads with epoch group commit.
//!
//! Each logger owns one device and a queue fed by its assigned workers
//! (Appendix A: "worker threads are divided into multiple sub-groups, each
//! of which is mapped to a single logger thread"). A logger seals epoch `e`
//! once every worker's acknowledged epoch is `> e` — at that point no
//! record with epoch `≤ e` can still arrive — then appends the epoch's
//! records to the current batch file and fsyncs (group commit: one fsync
//! per epoch, not per transaction).

use crate::batch::{batch_index_of_epoch, batch_name};
use pacman_engine::EpochManager;
use pacman_obs::{TraceEvent, Tracer};
use pacman_storage::SimDisk;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// What a worker hands a logger: one worker arena's run of records of a
/// single epoch, already serialized back to back. Workers serialize their
/// own records (the serialization overhead the paper attributes to
/// tuple-level schemes is paid on the worker, §6.1.1).
pub struct QueuedRecord {
    /// Epoch every record of the run belongs to.
    pub epoch: u64,
    /// Encoded [`crate::record::TxnLogRecord`]s, in staging order.
    pub bytes: Vec<u8>,
}

/// Handle to one logger thread.
pub struct LoggerHandle {
    /// Queue the assigned workers push to.
    pub sender: crossbeam::channel::Sender<QueuedRecord>,
    sealed: Arc<AtomicU64>,
    real_sealed: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl LoggerHandle {
    /// Spawn a logger writing to `disk`, sealing epochs according to `em`.
    /// `fsync` disabled models the Table 3 "w/o fsync" configuration.
    pub fn spawn(
        id: usize,
        disk: Arc<SimDisk>,
        em: Arc<EpochManager>,
        batch_epochs: u64,
        fsync: bool,
    ) -> Self {
        Self::spawn_resuming(
            id,
            disk,
            em,
            batch_epochs,
            fsync,
            0,
            Arc::clone(pacman_obs::tracer()),
        )
    }

    /// [`LoggerHandle::spawn`] resuming a surviving log directory: epochs
    /// `<= resume_from` are treated as already sealed (they belong to the
    /// recovered prefix), so the logger never rewrites recovered batches
    /// and the pepoch watcher's min starts at the resumed frontier.
    /// Seal/persist events are emitted through `tracer`.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_resuming(
        id: usize,
        disk: Arc<SimDisk>,
        em: Arc<EpochManager>,
        batch_epochs: u64,
        fsync: bool,
        resume_from: u64,
        tracer: Arc<Tracer>,
    ) -> Self {
        let (sender, receiver) = crossbeam::channel::unbounded::<QueuedRecord>();
        let sealed = Arc::new(AtomicU64::new(resume_from));
        let real_sealed = Arc::new(AtomicU64::new(resume_from));
        let stop = Arc::new(AtomicBool::new(false));
        let sealed2 = Arc::clone(&sealed);
        let real2 = Arc::clone(&real_sealed);
        let stop2 = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name(format!("logger-{id}"))
            .spawn(move || {
                logger_loop(
                    id,
                    disk,
                    em,
                    batch_epochs,
                    fsync,
                    receiver,
                    sealed2,
                    real2,
                    stop2,
                    tracer,
                );
            })
            .expect("spawn logger");
        LoggerHandle {
            sender,
            sealed,
            real_sealed,
            stop,
            join: Some(join),
        }
    }

    /// Highest epoch durably sealed by this logger. Reports `u64::MAX`
    /// after a graceful drain ("stream complete").
    pub fn sealed_epoch(&self) -> u64 {
        self.sealed.load(Ordering::Acquire)
    }

    /// Shared counter of the sealed epoch (wired into the pepoch watcher).
    pub fn sealed_arc(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.sealed)
    }

    /// Shared counter of the *numeric* sealed epoch: tracks `sealed` but
    /// never becomes the `u64::MAX` stream-complete sentinel, so the
    /// pepoch file persists a real epoch the next incarnation can resume
    /// numbering from.
    pub fn real_sealed_arc(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.real_sealed)
    }

    /// Stop the logger. With `graceful = true` it first drains and seals
    /// everything the epoch manager allows; with `false` it stops abruptly
    /// (crash simulation).
    pub fn stop(&mut self, graceful: bool) {
        if !graceful {
            self.stop.store(true, Ordering::Release);
        }
        // Closing the channel lets the loop finish its drain and exit.
        let (s, _) = crossbeam::channel::unbounded();
        let old = std::mem::replace(&mut self.sender, s);
        drop(old);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for LoggerHandle {
    fn drop(&mut self) {
        self.stop(false);
    }
}

#[allow(clippy::too_many_arguments)]
fn logger_loop(
    id: usize,
    disk: Arc<SimDisk>,
    em: Arc<EpochManager>,
    batch_epochs: u64,
    fsync: bool,
    receiver: crossbeam::channel::Receiver<QueuedRecord>,
    sealed: Arc<AtomicU64>,
    real_sealed: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    tracer: Arc<Tracer>,
) {
    let mut pending: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut disconnected = false;
    loop {
        if stop.load(Ordering::Acquire) {
            return; // crash: whatever was not sealed is lost
        }
        // The sealing frontier: min over worker acks and the global epoch.
        let frontier = em.min_ack().min(em.current());
        // Drain the queue *after* reading the frontier (see epoch.rs: every
        // record with epoch < frontier was pushed before the acks moved).
        loop {
            match receiver.try_recv() {
                Ok(rec) => pending.entry(rec.epoch).or_default().extend(rec.bytes),
                Err(crossbeam::channel::TryRecvError::Empty) => break,
                Err(crossbeam::channel::TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        let seal_to = if disconnected {
            // Graceful shutdown: everything queued is final.
            pending.keys().next_back().copied().unwrap_or(0)
        } else {
            frontier.saturating_sub(1)
        };
        let mut wrote = false;
        let already = sealed.load(Ordering::Acquire);
        let mut cursor = already;
        while cursor < seal_to {
            cursor += 1;
            if let Some(bytes) = pending.remove(&cursor) {
                let batch = batch_index_of_epoch(cursor, batch_epochs);
                disk.append(&batch_name(id, batch), &bytes);
                tracer.emit(TraceEvent::BatchPersist {
                    logger: id as u32,
                    batch,
                    bytes: bytes.len() as u64,
                    fsync,
                });
                wrote = true;
            }
        }
        if cursor > already {
            if wrote && fsync {
                disk.fsync();
            }
            sealed.store(cursor, Ordering::Release);
            real_sealed.store(cursor, Ordering::Release);
            tracer.emit(TraceEvent::EpochSeal {
                logger: id as u32,
                epoch: cursor,
            });
            // Span attribution: every epoch this pass sealed (capped to the
            // table's window — a logger catching up over thousands of idle
            // epochs must not spin here).
            let spans = pacman_obs::spans();
            for e in already.max(cursor.saturating_sub(pacman_obs::SPAN_SLOTS as u64)) + 1..=cursor
            {
                spans.record(e, pacman_obs::Stage::Sealed);
            }
        }
        if disconnected {
            // Graceful drain: everything this logger will ever receive is
            // on the device. Report the stream complete rather than the
            // highest epoch that happened to be queued here — otherwise a
            // logger whose queue ended one epoch early would pin the
            // pepoch below records its peers durably wrote. `real_sealed`
            // keeps the numeric cursor: the pepoch watcher persists a real
            // epoch, never the sentinel.
            sealed.store(u64::MAX, Ordering::Release);
            return;
        }
        // Wait for more work without burning a core.
        match receiver.recv_timeout(std::time::Duration::from_micros(200)) {
            Ok(rec) => pending.entry(rec.epoch).or_default().extend(rec.bytes),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                disconnected = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{LogPayload, TxnLogRecord};
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, ProcId};
    use pacman_storage::DiskConfig;

    fn record_bytes(epoch: u64, seq: u64) -> Vec<u8> {
        TxnLogRecord {
            ts: epoch_floor(epoch) | seq,
            payload: LogPayload::Command {
                proc: ProcId::new(0),
                params: vec![].into(),
            },
        }
        .to_bytes()
    }

    #[test]
    fn seals_only_acknowledged_epochs() {
        let em = EpochManager::new_manual();
        let worker = em.register_worker();
        worker.enter(); // ack = 1
        let disk = Arc::new(SimDisk::new(DiskConfig::unthrottled("t")));
        let mut logger = LoggerHandle::spawn(0, Arc::clone(&disk), Arc::clone(&em), 100, true);

        logger
            .sender
            .send(QueuedRecord {
                epoch: 1,
                bytes: record_bytes(1, 1),
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            logger.sealed_epoch(),
            0,
            "epoch 1 not yet acknowledged past"
        );

        em.advance(); // epoch 2
        worker.enter(); // ack = 2
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(logger.sealed_epoch(), 1);
        assert!(disk.len(&batch_name(0, 0)).unwrap() > 0);
        logger.stop(true);
    }

    #[test]
    fn graceful_stop_flushes_everything() {
        let em = EpochManager::new_manual();
        let disk = Arc::new(SimDisk::new(DiskConfig::unthrottled("t")));
        let mut logger = LoggerHandle::spawn(0, Arc::clone(&disk), Arc::clone(&em), 10, true);
        for e in 1..=25u64 {
            logger
                .sender
                .send(QueuedRecord {
                    epoch: e,
                    bytes: record_bytes(e, e),
                })
                .unwrap();
        }
        logger.stop(true);
        // A graceful drain reports the stream complete (nothing further
        // can arrive), so the pepoch never pins below a peer's records.
        assert_eq!(logger.sealed_epoch(), u64::MAX);
        // Batch files 0,1,2 exist (epochs 1-9, 10-19, 20-25).
        assert!(disk.len(&batch_name(0, 0)).unwrap() > 0);
        assert!(disk.len(&batch_name(0, 1)).unwrap() > 0);
        assert!(disk.len(&batch_name(0, 2)).unwrap() > 0);
    }

    #[test]
    fn crash_stop_loses_unsealed_epochs() {
        let em = EpochManager::new_manual();
        let worker = em.register_worker();
        worker.enter();
        let disk = Arc::new(SimDisk::new(DiskConfig::unthrottled("t")));
        let mut logger = LoggerHandle::spawn(0, Arc::clone(&disk), Arc::clone(&em), 10, true);
        logger
            .sender
            .send(QueuedRecord {
                epoch: 1,
                bytes: record_bytes(1, 1),
            })
            .unwrap();
        // Worker never re-enters: epoch 1 cannot seal. Crash.
        std::thread::sleep(std::time::Duration::from_millis(10));
        logger.stop(false);
        assert_eq!(logger.sealed_epoch(), 0);
        assert!(disk.is_empty(), "nothing should have hit the disk");
    }
}
