//! LLR and PLR: tuple-level log recovery, one log file at a time (§6.2).
//!
//! Both stream the log through the recovery read pipeline
//! ([`crate::recovery::pipeline`]): a reader per device, and `threads`
//! replayers that each take whole files off the channel and install
//! every record's after-images under per-tuple latches. Installs are
//! last-writer-wins by timestamp, so two threads may restore writes to the
//! same tuple in any order, and files may arrive in any order, and the
//! newest survives — but the latch remains the scalability ceiling
//! (Figs. 14/15). The two schemes differ only in where the images go, the
//! [`CheckpointTarget`] their checkpoint restore filled:
//!
//! * **LLR** (SiloR-style, logical records) — the indexed tables: every
//!   restored write goes through the table's index (`get_or_create`), so
//!   records and indexes are reconstructed together;
//! * **PLR** (physical records) — the raw heap, the classic disk-based
//!   design: the indexes are rebuilt in parallel once the log is replayed
//!   ([`crate::recovery::raw::RawStore::build_indexes`]).

use crate::metrics::RecoveryMetrics;
use crate::recovery::checkpoint::CheckpointTarget;
use crate::recovery::pipeline::{self, FirstError};
use crate::recovery::{LogInventory, LogRecovery};
use pacman_common::codec::Cursor;
use pacman_common::{Error, Result, Timestamp};
use pacman_storage::StorageSet;
use pacman_wal::{PayloadKind, RecordView};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// LLR (`target` = tables) or PLR (`target` = raw heap) log recovery of
/// the records with `epoch <= pepoch` and `ts > after_ts`. With `latch`
/// off, installs skip the per-tuple latch (the Fig. 15 ablation).
///
/// Metrics: `reload` is the longest of the per-device readers' summed
/// device reads; the `load` bucket is every read, summed over readers, and
/// `work` the replayers' walks.
#[allow(clippy::too_many_arguments)]
pub fn recover_log(
    storage: &StorageSet,
    inventory: &LogInventory,
    target: CheckpointTarget<'_>,
    threads: usize,
    latch: bool,
    pepoch: u64,
    after_ts: Timestamp,
    metrics: &RecoveryMetrics,
) -> Result<LogRecovery> {
    let t0 = Instant::now();
    let (max_ts, txns) = (AtomicU64::new(0), AtomicU64::new(0));
    let files = inventory
        .files
        .iter()
        .map(|f| (f.disk, f.name.clone()))
        .collect();
    let reload = pipeline::read_all(
        storage,
        files,
        threads,
        &FirstError::default(),
        |_| false,
        |file| {
            metrics.add_load(file.read);
            // The whole walk is work: parsing the records, decoding the
            // images and installing them.
            let (records, newest) = metrics.timed(RecoveryMetrics::add_work, || {
                replay_file(&file.bytes, target, latch, pepoch, after_ts)
            })?;
            txns.fetch_add(records, Ordering::Relaxed);
            max_ts.fetch_max(newest, Ordering::Relaxed);
            Ok(())
        },
    )?;

    let txns = txns.into_inner();
    Ok(LogRecovery {
        reload: reload.longest_reader,
        total: t0.elapsed(),
        max_ts: max_ts.into_inner(),
        txns,
        applied_writes: txns,
        ..Default::default()
    })
}

/// Replay one reloaded file into `target`. Returns the records replayed
/// and the newest timestamp among them.
///
/// The file is decoded whole before anything is installed: decoding each
/// write between the installs measured a quarter slower (serial LLR over
/// a TPC-C log).
fn replay_file(
    bytes: &[u8],
    target: CheckpointTarget<'_>,
    latch: bool,
    pepoch: u64,
    after_ts: Timestamp,
) -> Result<(u64, Timestamp)> {
    let (mut records, mut newest) = (0, 0);
    let mut writes = Vec::new();
    let mut cur = Cursor::new(bytes);
    while !cur.is_empty() {
        let rec = RecordView::parse(&mut cur)?;
        if rec.epoch() > pepoch || rec.ts() <= after_ts {
            continue;
        }
        // LLR takes logical records, PLR physical ones.
        match (target, rec.kind()) {
            (
                CheckpointTarget::Tables(_),
                PayloadKind::Writes {
                    physical: false, ..
                },
            ) => {}
            (CheckpointTarget::Raw(_), PayloadKind::Writes { physical: true, .. }) => {}
            (CheckpointTarget::Tables(_), _) => {
                return Err(Error::Corrupt("LLR requires logical log records".into()))
            }
            (CheckpointTarget::Raw(_), _) => {
                return Err(Error::Corrupt("PLR requires physical log records".into()))
            }
        }
        let ts = rec.ts();
        let decoded = rec.writes().expect("tuple-level records carry writes");
        writes.extend(decoded.map(|w| (ts, w)));
        records += 1;
        newest = newest.max(ts);
    }
    for (ts, w) in writes {
        let chain = match target {
            CheckpointTarget::Tables(db) => {
                let table = db.table(w.table)?;
                table.mark_dirty(w.key, ts);
                table.get_or_create(w.key)
            }
            CheckpointTarget::Raw(raw) => raw.table(w.table).get_or_create(w.key),
        };
        if latch {
            chain.latch.lock();
        }
        chain.install_lww(ts, w.after);
        if latch {
            chain.latch.unlock();
        }
    }
    Ok((records, newest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::raw::RawStore;
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, ProcId, Row, TableId, Value};
    use pacman_engine::{Catalog, Database, WriteKind, WriteRecord};
    use pacman_wal::{LogPayload, TxnLogRecord};

    fn record(ts: u64, key: u64, val: Option<i64>, physical: bool) -> TxnLogRecord {
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
                physical,
                adhoc: false,
            },
        }
    }

    fn logical(ts: u64, key: u64, val: Option<i64>) -> TxnLogRecord {
        record(ts, key, val, false)
    }

    fn phys(ts: u64, key: u64, val: i64) -> TxnLogRecord {
        record(ts, key, Some(val), true)
    }

    fn one_table() -> Database {
        let mut c = Catalog::new();
        c.add_table("t", 1);
        Database::new(c)
    }

    #[test]
    fn llr_restores_images_and_indexes_together() {
        let storage = StorageSet::for_tests();
        let mut buf = Vec::new();
        logical(epoch_floor(1) | 1, 3, Some(10)).encode(&mut buf);
        logical(epoch_floor(1) | 2, 3, Some(20)).encode(&mut buf);
        logical(epoch_floor(1) | 3, 4, None).encode(&mut buf);
        storage.disk(0).append("log/00/0000000000", &buf);

        let db = one_table();
        db.seed_row(TableId::new(0), 4, Row::from([Value::Int(9)]))
            .unwrap();
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        let target = CheckpointTarget::Tables(&db);
        let r = recover_log(&storage, &inv, target, 2, true, 5, 0, &m).unwrap();
        assert_eq!((r.txns, r.max_ts), (3, epoch_floor(1) | 3));
        let chain = db.table(TableId::new(0)).unwrap().get(3).unwrap();
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
    fn pepoch_frontier_and_watermark_are_respected() {
        let storage = StorageSet::for_tests();
        let mut buf = Vec::new();
        logical(epoch_floor(1) | 1, 3, Some(10)).encode(&mut buf); // checkpointed
        logical(epoch_floor(1) | 2, 3, Some(20)).encode(&mut buf);
        logical(epoch_floor(9) | 3, 3, Some(99)).encode(&mut buf); // not durable
        storage.disk(0).append("log/00/0000000000", &buf);
        let db = one_table();
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        let target = CheckpointTarget::Tables(&db);
        let r = recover_log(&storage, &inv, target, 1, false, 1, epoch_floor(1) | 1, &m).unwrap();
        assert_eq!(r.txns, 1);
        let chain = db.table(TableId::new(0)).unwrap().get(3).unwrap();
        assert_eq!(chain.newest().1.unwrap().col(0), Value::Int(20));
    }

    #[test]
    fn plr_replays_with_last_writer_wins() {
        let storage = StorageSet::for_tests();
        let mut buf = Vec::new();
        // Out-of-order timestamps in separate "files" — LWW must hold.
        phys(epoch_floor(1) | 2, 7, 20).encode(&mut buf);
        storage.disk(0).append("log/00/0000000000", &buf);
        let mut buf2 = Vec::new();
        phys(epoch_floor(1) | 1, 7, 10).encode(&mut buf2);
        storage.disk(0).append("log/01/0000000000", &buf2);

        let db = one_table();
        let raw = RawStore::new(1);
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        let target = CheckpointTarget::Raw(&raw);
        let r = recover_log(&storage, &inv, target, 2, true, 10, 0, &m).unwrap();
        assert_eq!(r.txns, 2);
        raw.build_indexes(&db, 2);
        let chain = db.table(TableId::new(0)).unwrap().get(7).unwrap();
        let (ts, row) = chain.newest();
        assert_eq!(ts, epoch_floor(1) | 2);
        assert_eq!(row.unwrap().col(0), Value::Int(20));
    }

    #[test]
    fn llr_and_plr_stop_reading_at_the_first_error() {
        use crate::recovery::pipeline::{within_bounded_wait, QUEUE};
        // 40 batches on each of two devices; the second file of each is cut
        // inside its record (a replayer fails) or, with `vanish`, deleted
        // after the scan (its reader fails). At most three good files reach
        // the channel ahead of the first bad one; once the error is latched,
        // only what the pipeline holds may still be read: the channel, one
        // file per reader, one per replayer.
        for vanish in [false, true] {
            for (physical, threads) in [(false, 1), (false, 4), (true, 1), (true, 4)] {
                let storage =
                    StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("t"));
                for (batch, disk) in (0..40u64).flat_map(|b| [(b, 0), (b, 1)]) {
                    let mut bytes =
                        record(epoch_floor(batch + 1) | 1, batch, Some(1), physical).to_bytes();
                    bytes.truncate(bytes.len() - usize::from(batch == 1 && !vanish));
                    storage
                        .disk(disk)
                        .append(&format!("log/{disk:02}/{batch:010}"), &bytes);
                }
                let file_len = storage.disk(0).len("log/00/0000000000").unwrap() as u64;
                let probe = storage.clone();
                let r = within_bounded_wait(move || {
                    let (db, raw) = (one_table(), RawStore::new(1));
                    let target = match physical {
                        true => CheckpointTarget::Raw(&raw),
                        false => CheckpointTarget::Tables(&db),
                    };
                    let (inv, m) = (LogInventory::scan(&probe), RecoveryMetrics::new());
                    if vanish {
                        inv.files[2..4]
                            .iter()
                            .for_each(|f| probe.disk(f.disk).delete(&f.name));
                    }
                    recover_log(&probe, &inv, target, threads, true, u64::MAX, 0, &m)
                        .map(|r| r.txns)
                });
                let label = format!("physical {physical}, {threads} threads, vanish {vanish}");
                match vanish {
                    true => assert!(matches!(r, Err(Error::FileNotFound(_))), "{label}: {r:?}"),
                    false => assert!(matches!(r, Err(Error::Corrupt(_))), "{label}: {r:?}"),
                }
                let files_read = storage.total_stats().bytes_read / file_len;
                let bound = 4 + QUEUE as u64 + 2 + threads as u64;
                assert!(
                    files_read <= bound,
                    "{label}: read {files_read} of 80 files"
                );
            }
        }
    }

    #[test]
    fn each_scheme_rejects_the_other_record_formats() {
        let command = TxnLogRecord {
            ts: epoch_floor(1) | 1,
            payload: LogPayload::Command {
                proc: ProcId::new(0),
                params: vec![].into(),
            },
        };
        let db = one_table();
        let raw = RawStore::new(1);
        for (target, rejected) in [
            (CheckpointTarget::Raw(&raw), command.clone()),
            (
                CheckpointTarget::Raw(&raw),
                logical(epoch_floor(1) | 1, 1, Some(1)),
            ),
            (CheckpointTarget::Tables(&db), command),
            (
                CheckpointTarget::Tables(&db),
                phys(epoch_floor(1) | 1, 1, 1),
            ),
        ] {
            let storage = StorageSet::for_tests();
            storage
                .disk(0)
                .append("log/00/0000000000", &rejected.to_bytes());
            let inv = LogInventory::scan(&storage);
            let m = RecoveryMetrics::new();
            assert!(recover_log(&storage, &inv, target, 1, true, 10, 0, &m).is_err());
        }
    }
}
