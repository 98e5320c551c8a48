//! PLR: physical log recovery (§6.2).
//!
//! The classic disk-based design: reload and replay log files with multiple
//! threads applying the last-writer-wins rule under per-tuple latches, then
//! rebuild all indexes in parallel at the end. Restored state is
//! multi-versioned.

use crate::metrics::RecoveryMetrics;
use crate::recovery::raw::RawStore;
use crate::recovery::{decode_records, LogInventory};
use bytes::Bytes;
use pacman_common::{Error, Result, Timestamp};
use pacman_engine::Database;
use pacman_storage::StorageSet;
use pacman_wal::LogPayload;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Timing result of a log-recovery stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogRecovery {
    /// Pure log file reloading (Fig. 14a).
    pub reload: Duration,
    /// Whole log-recovery stage (Fig. 14b).
    pub total: Duration,
    /// Largest replayed timestamp (clock resume point).
    pub max_ts: Timestamp,
    /// Records replayed.
    pub txns: u64,
    /// Command records re-executed through the interpreter (ALR-P/CLR).
    pub replayed_commands: u64,
    /// Tuple-level records applied as after-images (ALR-P and every
    /// tuple-level scheme).
    pub applied_writes: u64,
    /// Writes offline LLR-P decoded and installed (the other schemes
    /// install every write and leave both counts 0).
    pub installed_writes: u64,
    /// Writes offline LLR-P skipped undecoded because a newer version of
    /// the key was already installed; `installed + skipped` is every write
    /// in the replayed records.
    pub skipped_writes: u64,
}

/// Phase A shared by the tuple-level schemes: read every log file into
/// memory in parallel (bandwidth-bound).
pub fn reload_files(
    storage: &StorageSet,
    inventory: &LogInventory,
    threads: usize,
) -> Result<Vec<Bytes>> {
    let n = inventory.files.len();
    let slots: Vec<parking_lot::Mutex<Option<Bytes>>> =
        (0..n).map(|_| parking_lot::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let err = parking_lot::Mutex::new(None::<Error>);
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let f = &inventory.files[i];
                match storage.disk(f.disk).read(&f.name) {
                    Ok(b) => *slots[i].lock() = Some(b),
                    Err(e) => {
                        let mut s = err.lock();
                        if s.is_none() {
                            *s = Some(e);
                        }
                    }
                }
            });
        }
    })
    .expect("reload scope");
    if let Some(e) = err.into_inner() {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|s| s.into_inner().expect("loaded"))
        .collect())
}

/// PLR log recovery into the raw store, followed by parallel index
/// reconstruction into `db`.
#[allow(clippy::too_many_arguments)]
pub fn recover_log(
    storage: &StorageSet,
    inventory: &LogInventory,
    raw: &RawStore,
    db: &Database,
    threads: usize,
    latch: bool,
    pepoch: u64,
    after_ts: Timestamp,
    metrics: &RecoveryMetrics,
) -> Result<LogRecovery> {
    let t0 = Instant::now();
    let files = metrics.timed(RecoveryMetrics::add_load, || {
        reload_files(storage, inventory, threads)
    })?;
    let reload = t0.elapsed();

    let max_ts = AtomicU64::new(0);
    let txns = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    let err = parking_lot::Mutex::new(None::<Error>);
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= files.len() {
                    return;
                }
                let records = match decode_records(&files[i], pepoch, after_ts) {
                    Ok(r) => r,
                    Err(e) => {
                        let mut s = err.lock();
                        if s.is_none() {
                            *s = Some(e);
                        }
                        return;
                    }
                };
                let t0 = Instant::now();
                for rec in records {
                    let LogPayload::Writes {
                        writes,
                        physical: true,
                        ..
                    } = &rec.payload
                    else {
                        let mut s = err.lock();
                        if s.is_none() {
                            *s = Some(Error::Corrupt("PLR requires physical log records".into()));
                        }
                        return;
                    };
                    for w in writes {
                        let chain = raw.table(w.table).get_or_create(w.key);
                        if latch {
                            chain.latch.lock();
                        }
                        chain.install_mv(rec.ts, w.after.clone());
                        if latch {
                            chain.latch.unlock();
                        }
                    }
                    max_ts.fetch_max(rec.ts, Ordering::Relaxed);
                    txns.fetch_add(1, Ordering::Relaxed);
                }
                metrics.add_work(t0.elapsed());
            });
        }
    })
    .expect("plr replay scope");
    if let Some(e) = err.into_inner() {
        return Err(e);
    }

    // Lazy index reconstruction (part of log recovery for PLR, §2.3).
    metrics.timed(RecoveryMetrics::add_work, || {
        raw.build_indexes(db, threads);
    });

    Ok(LogRecovery {
        reload,
        total: t0.elapsed(),
        max_ts: max_ts.load(Ordering::Relaxed),
        txns: txns.load(Ordering::Relaxed),
        applied_writes: txns.load(Ordering::Relaxed),
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{Encoder, Row, TableId, Value};
    use pacman_engine::{Catalog, WriteKind, WriteRecord};
    use pacman_wal::TxnLogRecord;

    fn phys(ts: u64, key: u64, val: i64) -> TxnLogRecord {
        TxnLogRecord {
            ts,
            payload: LogPayload::Writes {
                writes: vec![WriteRecord {
                    table: TableId::new(0),
                    key,
                    kind: WriteKind::Update,
                    after: Some(Row::from([Value::Int(val)])),
                    prev_ts: 0,
                }],
                physical: true,
                adhoc: false,
            },
        }
    }

    #[test]
    fn plr_replays_with_last_writer_wins() {
        let storage = StorageSet::for_tests();
        let mut buf = Vec::new();
        // Out-of-order timestamps in separate "files" — LWW must hold.
        phys(pacman_common::clock::epoch_floor(1) | 2, 7, 20).encode(&mut buf);
        storage.disk(0).append("log/00/0000000000", &buf);
        let mut buf2 = Vec::new();
        phys(pacman_common::clock::epoch_floor(1) | 1, 7, 10).encode(&mut buf2);
        storage.disk(0).append("log/01/0000000000", &buf2);

        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        let raw = RawStore::new(1);
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        let r = recover_log(&storage, &inv, &raw, &db, 2, true, 10, 0, &m).unwrap();
        assert_eq!(r.txns, 2);
        let chain = db.table(TableId::new(0)).unwrap().get(7).unwrap();
        let (ts, row) = chain.newest();
        assert_eq!(ts, pacman_common::clock::epoch_floor(1) | 2);
        assert_eq!(row.unwrap().col(0), Value::Int(20));
        // Multi-version: both restored versions retained.
        assert_eq!(chain.num_versions(), 2);
    }

    #[test]
    fn plr_rejects_command_logs() {
        let storage = StorageSet::for_tests();
        let rec = TxnLogRecord {
            ts: pacman_common::clock::epoch_floor(1) | 1,
            payload: LogPayload::Command {
                proc: pacman_common::ProcId::new(0),
                params: vec![].into(),
            },
        };
        storage.disk(0).append("log/00/0000000000", &rec.to_bytes());
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        let raw = RawStore::new(1);
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        assert!(recover_log(&storage, &inv, &raw, &db, 1, true, 10, 0, &m).is_err());
    }
}
