//! Logger threads with epoch group commit.
//!
//! Each logger owns one device and a queue fed by the workers. Appendix A
//! maps each worker to one logger for good ("worker threads are divided
//! into multiple sub-groups, each of which is mapped to a single logger
//! thread"); here a worker's run of epoch `e` goes to logger
//! `(worker + e) % loggers` instead, so fewer workers than loggers still
//! use every device (see `Durability::flush_worker` for why any
//! assignment is sound, and why it rotates per epoch, not per batch).
//! A logger seals epoch `e` once every worker's acknowledged epoch is
//! `> e` — at that point no record with epoch `≤ e` can still arrive,
//! whichever logger it was sent to — then appends the epoch's records to
//! the current batch file and fsyncs (group commit: one fsync per epoch,
//! not per transaction), then publishes the seal through the stack's
//! [`Frontier`].

use crate::batch::{batch_index_of_epoch, batch_name};
use crate::pepoch::Frontier;
use pacman_engine::EpochManager;
use pacman_obs::{Stage, TraceEvent, Tracer};
use pacman_storage::SimDisk;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
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
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl LoggerHandle {
    /// Spawn logger `id` writing to `disk`, sealing epochs according to
    /// `em` and publishing its seals through `frontier` (whose counters
    /// start at the recovered prefix of a reopened log, so the logger never
    /// rewrites recovered batches). `fsync` disabled models the Table 3
    /// "w/o fsync" configuration. Seal/persist events are emitted through
    /// `tracer`.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn(
        id: usize,
        disk: Arc<SimDisk>,
        em: Arc<EpochManager>,
        batch_epochs: u64,
        fsync: bool,
        frontier: Arc<Frontier>,
        tracer: Arc<Tracer>,
    ) -> Self {
        let (sender, receiver) = crossbeam::channel::unbounded::<QueuedRecord>();
        let stop = Arc::new(AtomicBool::new(false));
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
                    frontier,
                    stop2,
                    tracer,
                );
            })
            .expect("spawn logger");
        LoggerHandle {
            sender,
            stop,
            join: Some(join),
        }
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
    frontier: Arc<Frontier>,
    stop: Arc<AtomicBool>,
    tracer: Arc<Tracer>,
) {
    let mut pending: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut disconnected = false;
    let mut sealed = frontier.sealed_epoch(id);
    loop {
        if stop.load(Ordering::Acquire) {
            return; // crash: whatever was not sealed is lost
        }
        // The sealing bound: min over worker acks and the global epoch.
        let bound = em.min_ack().min(em.current());
        // Drain the queue *after* reading the bound (see epoch.rs: every
        // record with epoch < bound was pushed before the acks moved).
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
            bound.saturating_sub(1)
        };
        if seal_to > sealed {
            // Span attribution: the pass has decided which epochs' records
            // it seals (idle epochs have nothing to seal or persist).
            let spans = pacman_obs::spans();
            for (&e, _) in pending.range(sealed + 1..=seal_to) {
                spans.record(e, Stage::Sealed);
            }
        }
        let mut wrote = false;
        let mut cursor = sealed;
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
        if cursor > sealed {
            if wrote && fsync {
                disk.fsync();
            }
            sealed = cursor;
            tracer.emit(TraceEvent::EpochSeal {
                logger: id as u32,
                epoch: sealed,
            });
            frontier.seal(id, sealed);
        }
        if disconnected {
            // Graceful drain: everything this logger will ever receive is
            // on the device. Report the stream complete rather than the
            // highest epoch that happened to be queued here — otherwise a
            // logger whose queue ended one epoch early would pin the
            // pepoch below records its peers durably wrote.
            frontier.seal(id, u64::MAX);
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

    /// One logger over `disk`, with the frontier it publishes through.
    fn spawn(
        disk: &Arc<SimDisk>,
        em: &Arc<EpochManager>,
        batch: u64,
    ) -> (LoggerHandle, Arc<Frontier>) {
        let frontier = Arc::new(Frontier::new(1, 0, Arc::clone(disk)));
        let logger = LoggerHandle::spawn(
            0,
            Arc::clone(disk),
            Arc::clone(em),
            batch,
            true,
            Arc::clone(&frontier),
            Arc::clone(pacman_obs::tracer()),
        );
        (logger, frontier)
    }

    #[test]
    fn seals_only_acknowledged_epochs() {
        let em = EpochManager::new_manual();
        let worker = em.register_worker();
        worker.enter(); // ack = 1
        let disk = Arc::new(SimDisk::new(DiskConfig::unthrottled("t")));
        let (mut logger, frontier) = spawn(&disk, &em, 100);

        logger
            .sender
            .send(QueuedRecord {
                epoch: 1,
                bytes: record_bytes(1, 1),
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(
            frontier.sealed_epoch(0),
            0,
            "epoch 1 not yet acknowledged past"
        );

        em.advance(); // epoch 2
        worker.enter(); // ack = 2
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert_eq!(frontier.sealed_epoch(0), 1);
        assert!(disk.len(&batch_name(0, 0)).unwrap() > 0);
        logger.stop(true);
    }

    #[test]
    fn graceful_stop_flushes_everything() {
        let em = EpochManager::new_manual();
        let disk = Arc::new(SimDisk::new(DiskConfig::unthrottled("t")));
        let (mut logger, frontier) = spawn(&disk, &em, 10);
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
        assert_eq!(frontier.sealed_epoch(0), u64::MAX);
        // ... and publishes the highest epoch it wrote, never the sentinel.
        assert_eq!(Frontier::read_persisted(&disk), 25);
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
        let (mut logger, frontier) = spawn(&disk, &em, 10);
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
        assert_eq!(frontier.sealed_epoch(0), 0);
        assert!(disk.is_empty(), "nothing should have hit the disk");
    }
}
