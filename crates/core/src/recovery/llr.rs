//! LLR: SiloR-style logical log recovery (§6.2).
//!
//! Records and indexes are reconstructed simultaneously: every restored
//! write goes through the table's index (`get_or_create`) and appends a
//! version to the tuple's chain under its latch. Multi-versioning lets two
//! threads restore different versions of the same tuple concurrently — but
//! the latch remains the scalability ceiling (Figs. 14/15).

use crate::metrics::RecoveryMetrics;
use crate::recovery::plr::{reload_files, LogRecovery};
use crate::recovery::{decode_records, LogInventory};
use pacman_common::{Error, Result, Timestamp};
use pacman_engine::Database;
use pacman_storage::StorageSet;
use pacman_wal::LogPayload;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// LLR log recovery directly into the indexed tables.
#[allow(clippy::too_many_arguments)]
pub fn recover_log(
    storage: &StorageSet,
    inventory: &LogInventory,
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
                    // Plain logical records and adaptive proc-tagged ones
                    // are both tuple-level; LLR accepts either (matching
                    // LLR-P on the same bytes).
                    let (LogPayload::Writes {
                        writes,
                        physical: false,
                        ..
                    }
                    | LogPayload::TaggedWrites { writes, .. }) = &rec.payload
                    else {
                        let mut s = err.lock();
                        if s.is_none() {
                            *s = Some(Error::Corrupt("LLR requires logical log records".into()));
                        }
                        return;
                    };
                    for w in writes {
                        let table = match db.table(w.table) {
                            Ok(t) => t,
                            Err(e) => {
                                let mut s = err.lock();
                                if s.is_none() {
                                    *s = Some(e);
                                }
                                return;
                            }
                        };
                        table.mark_dirty(w.key, rec.ts);
                        let chain = table.get_or_create(w.key);
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
    .expect("llr replay scope");
    if let Some(e) = err.into_inner() {
        return Err(e);
    }

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
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, Row, TableId, Value};
    use pacman_engine::{Catalog, WriteKind, WriteRecord};
    use pacman_wal::TxnLogRecord;

    fn logical(ts: u64, key: u64, val: Option<i64>) -> TxnLogRecord {
        TxnLogRecord {
            ts,
            payload: LogPayload::Writes {
                writes: vec![WriteRecord {
                    table: TableId::new(0),
                    key,
                    kind: if val.is_some() {
                        WriteKind::Update
                    } else {
                        WriteKind::Delete
                    },
                    after: val.map(|v| Row::from([Value::Int(v)])),
                    prev_ts: 0,
                }],
                physical: false,
                adhoc: false,
            },
        }
    }

    #[test]
    fn llr_restores_versions_and_indexes_together() {
        let storage = StorageSet::for_tests();
        let mut buf = Vec::new();
        logical(epoch_floor(1) | 1, 3, Some(10)).encode(&mut buf);
        logical(epoch_floor(1) | 2, 3, Some(20)).encode(&mut buf);
        logical(epoch_floor(1) | 3, 4, None).encode(&mut buf);
        storage.disk(0).append("log/00/0000000000", &buf);

        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        db.seed_row(TableId::new(0), 4, Row::from([Value::Int(9)]))
            .unwrap();
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        let r = recover_log(&storage, &inv, &db, 2, true, 5, 0, &m).unwrap();
        assert_eq!(r.txns, 3);
        let chain = db.table(TableId::new(0)).unwrap().get(3).unwrap();
        assert_eq!(chain.num_versions(), 2, "multi-versioned restore");
        assert_eq!(chain.newest().1.unwrap().col(0), Value::Int(20));
        // Key 4 deleted.
        assert!(db
            .table(TableId::new(0))
            .unwrap()
            .get(4)
            .unwrap()
            .newest()
            .1
            .is_none());
    }

    #[test]
    fn pepoch_frontier_is_respected() {
        let storage = StorageSet::for_tests();
        let mut buf = Vec::new();
        logical(epoch_floor(1) | 1, 3, Some(10)).encode(&mut buf);
        logical(epoch_floor(9) | 2, 3, Some(99)).encode(&mut buf); // not durable
        storage.disk(0).append("log/00/0000000000", &buf);
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        let r = recover_log(&storage, &inv, &db, 1, false, 1, 0, &m).unwrap();
        assert_eq!(r.txns, 1);
        let chain = db.table(TableId::new(0)).unwrap().get(3).unwrap();
        assert_eq!(chain.newest().1.unwrap().col(0), Value::Int(10));
    }
}
