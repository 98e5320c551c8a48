//! LLR-P: the parallel logical log recovery adapted from PACMAN (§4.5,
//! §6.2).
//!
//! Every log entry is treated as a write-only transaction: writes are
//! shuffled by (table, primary key) onto the recovery threads and
//! reinstalled latch-free with last-writer-wins. A key is owned by exactly
//! one thread, so no synchronization is needed — the property that lets
//! LLR-P outperform latched LLR (Fig. 16).
//!
//! Two replay orders live here, on purpose:
//!
//! * offline ([`recover_log`]) has the whole log on the devices and wants
//!   only the final state, so it walks the log **newest first** and skips
//!   every write a newer one already covers — before decoding it;
//! * online ([`recover_log_online`], restart and hot standby alike)
//!   serves a live stream: the gate's watermark counts units applied *in
//!   order* (an admitted transaction must see every unit up to the
//!   watermark), and a standby never has "the newest unit" to start from.
//!   It stays ascending and installs every write.

use crate::metrics::RecoveryMetrics;
use crate::recovery::gate::ShardMap;
use crate::recovery::pipeline::{self, FirstError};
use crate::recovery::{LogInventory, LogRecovery, UnitSource};
use bytes::Bytes;
use pacman_common::clock::epoch_of;
use pacman_common::codec::Cursor;
use pacman_common::{Error, KeyMap, KeySet, Result, TableId, Timestamp};
use pacman_engine::{Database, RecoveryGate, WriteRecord};
use pacman_storage::StorageSet;
use pacman_wal::{decode_after_image, MergedBatchView, PayloadKind, RecordView};
use parking_lot::Mutex;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Where one write's after-image sits in a log file: what the indexer
/// hands a lane instead of a decoded row (32 bytes).
struct WriteLoc {
    ts: Timestamp,
    key: u64,
    table: TableId,
    /// Offset of the encoded row within the file.
    at: u32,
    /// Its length; 0 marks a tombstone (an encoded row is never empty).
    len: u32,
}

/// The lane that owns `(table, key)`.
#[inline]
fn lane_of(table: TableId, key: u64, lanes: usize) -> usize {
    let h = (key ^ ((table.0 as u64) << 32)).wrapping_mul(0x9E3779B97F4A7C15) >> 32;
    h as usize % lanes
}

/// LLR-P log recovery (offline): the recovery read pipeline with one
/// indexer per log device as its consumers, then the shared key-hash
/// lanes; newest first.
///
/// 1. Each device's **reader** walks that device's files from the newest
///    to the oldest and does nothing but the paced device read, so the
///    devices read in parallel and device wait overlaps the CPU stages
///    ([`crate::recovery::pipeline`]).
/// 2. An **indexer** (one per log device) takes any device's next file,
///    validates it with one [`RecordView::parse_with`] per record, applies
///    the `pepoch` / `after_ts` filters, and in the same walk emits one
///    [`WriteLoc`] per write into the owning key's lane — no row is
///    decoded, nothing is sorted.
/// 3. Each **lane** walks its references newest first and asks whether the
///    key's newest timestamp is `>= ts`: a stale write is skipped without
///    its bytes being touched, a winning one is decoded by the lane and
///    installed last-writer-wins. The lane reads a key's chain once and
///    then keeps its newest timestamp in a lane-private map, so the skip
///    check of an overwritten write costs no index probe. Every indexer
///    feeds every lane.
///
/// Metrics: `reload` is the reload stage's wall time, the longest of the
/// readers' summed device reads; the `load` bucket is the readers' read
/// time and `param` the indexers' time, each summed over threads; `work`
/// is the lanes' thread-seconds.
///
/// Why the result equals ascending replay:
///
/// * a key belongs to exactly one lane, so its check-then-install cannot
///   race another thread, and the lane's map of newest timestamps stays
///   equal to the chains';
/// * `install_lww` keeps the version with the highest timestamp, so the
///   final chain is the same for any arrival order — order only decides
///   how many writes are skipped, which is why the per-logger files of a
///   batch need no merge;
/// * for the same reason the devices need no order between them: a
///   lane's writes may arrive from several indexers interleaved, and each
///   key still ends at its newest write;
/// * a delete installs a tombstone *carrying its timestamp*, so an older
///   insert met later loses to it and cannot resurrect the key;
/// * chains restored from the checkpoint carry `ts <= after_ts`, below
///   every replayed record, so the base image never shadows the log;
/// * equal timestamps (one record writing a key twice; the commit path
///   never produces it) resolve as ascending replay does, later in the
///   record wins: references are walked in reverse and skipped on `>=`.
pub fn recover_log(
    storage: &StorageSet,
    inventory: &LogInventory,
    db: &Database,
    threads: usize,
    pepoch: u64,
    after_ts: Timestamp,
    metrics: &RecoveryMetrics,
) -> Result<LogRecovery> {
    let threads = threads.max(1);
    let t0 = Instant::now();
    // Every stage stops at the first latched error, whoever latched it.
    let errors = FirstError::default();
    let log_disks: KeySet<usize> = inventory.files.iter().map(|f| f.disk).collect();
    let files = inventory
        .files
        .iter()
        .rev()
        .map(|f| (f.disk, f.name.clone()))
        .collect();
    let (max_ts, txns) = (AtomicU64::new(0), AtomicU64::new(0));

    let (reload, installed, skipped) = crossbeam::thread::scope(|scope| {
        let errors = &errors;
        let (lane_txs, lanes): (Vec<_>, Vec<_>) = (0..threads)
            .map(|_| {
                let (tx, rx) = crossbeam::channel::bounded::<(Bytes, Vec<WriteLoc>)>(2);
                let lane = scope.spawn(move |_| {
                    let (mut installed, mut skipped) = (0u64, 0u64);
                    // The newest timestamp of every key this lane has
                    // looked up. The lane is the key's only writer, so
                    // this equals the chain's `newest_ts()`, and a write
                    // it covers is skipped without an index probe.
                    let mut newest: KeyMap<(TableId, u64), Timestamp> = KeyMap::default();
                    for (file, locs) in rx.iter() {
                        if errors.is_set() {
                            break;
                        }
                        let t = Instant::now();
                        let before = installed;
                        for w in locs.iter().rev() {
                            let seen = newest.entry((w.table, w.key));
                            if let Entry::Occupied(ts) = &seen {
                                if *ts.get() >= w.ts {
                                    skipped += 1;
                                    continue;
                                }
                            }
                            let table = match db.table(w.table) {
                                Ok(t) => t,
                                Err(e) => {
                                    errors.set(e);
                                    return (installed, skipped);
                                }
                            };
                            let chain = table.get_or_create(w.key);
                            let chain_ts = chain.newest_ts();
                            if chain_ts >= w.ts {
                                seen.insert_entry(chain_ts);
                                skipped += 1;
                                continue;
                            }
                            let (at, len) = (w.at as usize, w.len as usize);
                            let after = (len != 0).then(|| decode_after_image(&file[at..at + len]));
                            table.mark_dirty(w.key, w.ts);
                            chain.install_lww(w.ts, after);
                            seen.insert_entry(w.ts);
                            installed += 1;
                        }
                        metrics.add_work(t.elapsed());
                        metrics.count_writes(installed - before);
                    }
                    (installed, skipped)
                });
                (tx, lane)
            })
            .unzip();

        let reload = pipeline::read_all(
            storage,
            files,
            log_disks.len(),
            errors,
            |_| false,
            |file| {
                metrics.add_load(file.read);
                let t = Instant::now();
                let mut parts: Vec<Vec<WriteLoc>> = (0..threads).map(|_| Vec::new()).collect();
                let (file_max_ts, records) = index_file(&file.bytes, pepoch, after_ts, &mut parts)?;
                max_ts.fetch_max(file_max_ts, Ordering::Relaxed);
                txns.fetch_add(records, Ordering::Relaxed);
                metrics.count_txns(records);
                metrics.add_param(t.elapsed());
                for (tx, locs) in lane_txs.iter().zip(parts) {
                    // A lane that stopped has latched its error and dropped
                    // its receiver; the pipeline stops on the latch.
                    if !locs.is_empty() && tx.send((file.bytes.clone(), locs)).is_err() {
                        break;
                    }
                }
                Ok(())
            },
        );
        // The lanes drain until the indexers' senders are gone.
        drop(lane_txs);
        let (mut installed, mut skipped) = (0u64, 0u64);
        for lane in lanes {
            let (i, s) = lane.join().expect("llr-p lane");
            installed += i;
            skipped += s;
        }
        (reload, installed, skipped)
    })
    .expect("llr-p scope");
    // A lane may fail after the reads are done.
    errors.check()?;
    let txns = txns.into_inner();
    Ok(LogRecovery {
        reload: reload?.longest_reader,
        total: t0.elapsed(),
        max_ts: max_ts.into_inner(),
        txns,
        applied_writes: txns,
        installed_writes: installed,
        skipped_writes: skipped,
        ..Default::default()
    })
}

/// Validate one log file record by record and, in the same walk, append a
/// [`WriteLoc`] for every write of every surviving record to its lane in
/// `parts`. Returns the surviving records' highest timestamp and their
/// count.
fn index_file(
    file: &Bytes,
    pepoch: u64,
    after_ts: Timestamp,
    parts: &mut [Vec<WriteLoc>],
) -> Result<(Timestamp, u64)> {
    if u32::try_from(file.len()).is_err() {
        return Err(Error::Corrupt(format!(
            "log file of {} bytes exceeds the 4 GiB reference range",
            file.len()
        )));
    }
    let survives = |ts: Timestamp| epoch_of(ts) <= pepoch && ts > after_ts;
    let lanes = parts.len();
    let (mut max_ts, mut records) = (0, 0);
    let mut cur = Cursor::new(file);
    while !cur.is_empty() {
        // The cursor spans the whole file, so image positions are file
        // offsets, which fit in u32 (checked above).
        let rec = RecordView::parse_with(&mut cur, |w| {
            if survives(w.ts) {
                let (at, len) = w.after.map_or((0, 0), |a| (a.start, a.len()));
                parts[lane_of(w.table, w.key, lanes)].push(WriteLoc {
                    ts: w.ts,
                    key: w.key,
                    table: w.table,
                    at: at as u32,
                    len: len as u32,
                });
            }
        })?;
        if !survives(rec.ts()) {
            continue;
        }
        if let PayloadKind::Command { .. } = rec.kind() {
            return Err(Error::Corrupt(
                "LLR-P requires tuple-level log records".into(),
            ));
        }
        max_ts = max_ts.max(rec.ts());
        records += 1;
    }
    Ok((max_ts, records))
}

/// Online LLR-P: per-(table, shard) replay of `source`'s units with
/// admission watermarks.
///
/// The offline path partitions writes by key hash onto thread-private
/// lanes; the online path partitions by *index shard* instead — the unit
/// the [`RecoveryGate`] tracks — so a waiting transaction's cold shards
/// can be redone on demand:
///
/// * the calling thread loads units in order and appends each unit's
///   writes to per-shard lanes, bumping the loaded-unit frontier;
/// * `threads` workers drain whole lanes (shards with blocked admissions
///   first), install latch-free, and publish the shard's watermark;
/// * a shard's stream is applied by one worker at a time (the queue lock
///   is held across the install), preserving per-key commitment order.
pub fn recover_log_online(
    source: UnitSource,
    db: &Database,
    gate: &RecoveryGate,
    map: &ShardMap,
    threads: usize,
    metrics: &RecoveryMetrics,
) -> Result<LogRecovery> {
    let t0 = Instant::now();
    let lanes = ShardLanes {
        lanes: (0..map.total()).map(|_| Lane::default()).collect(),
        loaded: AtomicU64::new(0),
        done: AtomicBool::new(false),
        err: FirstError::default(),
    };
    let log = crossbeam::thread::scope(|scope| {
        for worker in 0..threads.max(1) {
            let lanes = &lanes;
            scope.spawn(move |_| lanes.apply(db, gate, metrics, worker));
        }
        let log = lanes.load(source, db, gate, map, metrics);
        lanes.done.store(true, Ordering::Release);
        log
    })
    .expect("llr-p online scope");
    lanes.err.check()?;
    Ok(LogRecovery {
        total: t0.elapsed(),
        applied_writes: log.txns,
        ..log
    })
}

/// Online LLR-P's shared state: one lane per (table, shard), the frontier
/// the lanes drain to, and the first error.
struct ShardLanes {
    lanes: Vec<Lane>,
    /// Units fully enqueued. Everything enqueued to a lane happens before
    /// the frontier covering it is published.
    loaded: AtomicU64,
    /// The source ended: no further units will be enqueued.
    done: AtomicBool,
    err: FirstError,
}

/// One shard's pending writes plus its applied-unit watermark.
#[derive(Default)]
struct Lane {
    queue: Mutex<Vec<(Timestamp, WriteRecord)>>,
    applied: AtomicU64,
}

impl ShardLanes {
    /// Latch the first error and poison the gate, so a follow source
    /// waiting for its next unit stops too.
    fn fail(&self, gate: &RecoveryGate, e: Error) {
        self.err.set(e);
        gate.fail();
    }

    /// The loader: partition each unit's writes onto the lanes, counting
    /// the unit's records once.
    fn load(
        &self,
        source: UnitSource,
        db: &Database,
        gate: &RecoveryGate,
        map: &ShardMap,
        metrics: &RecoveryMetrics,
    ) -> LogRecovery {
        let mut log = LogRecovery::default();
        let mut groups: Vec<Vec<(Timestamp, WriteRecord)>> =
            (0..self.lanes.len()).map(|_| Vec::new()).collect();
        for (unit, seq) in source.zip(1..) {
            if self.err.is_set() {
                break;
            }
            let grouped = unit.and_then(|(view, started)| {
                log.reload += started.elapsed();
                metrics.add_load(started.elapsed());
                group(&view, db, map, &mut groups, &mut log)?;
                metrics.count_txns(view.len() as u64);
                Ok(())
            });
            if let Err(e) = grouped {
                self.fail(gate, e);
                break;
            }
            for (lane, g) in self.lanes.iter().zip(&mut groups) {
                if !g.is_empty() {
                    lane.queue.lock().append(g);
                }
            }
            self.loaded.store(seq, Ordering::Release);
        }
        log
    }

    /// One worker. Runs until the source ended *and* every lane caught up
    /// with the frontier, or until an error is latched (here or by a peer).
    fn apply(&self, db: &Database, gate: &RecoveryGate, metrics: &RecoveryMetrics, worker: usize) {
        let n = self.lanes.len();
        let mut rot = worker;
        while !self.err.is_set() {
            let frontier = self.loaded.load(Ordering::Acquire);
            let done = self.done.load(Ordering::Acquire);
            // Shards with blocked admissions first, then every shard.
            let prioritize = gate.any_wanted();
            let order = (0..n).map(move |k| (rot + k) % n);
            let wanted = order.clone().filter(|&p| prioritize && gate.is_wanted(p));
            let mut progressed = false;
            for p in wanted.chain(order) {
                let lane = &self.lanes[p];
                if lane.applied.load(Ordering::Acquire) >= frontier {
                    continue;
                }
                let Some(mut q) = lane.queue.try_lock() else {
                    continue; // another worker owns this shard
                };
                if lane.applied.load(Ordering::Acquire) >= frontier {
                    continue;
                }
                let drained = std::mem::take(&mut *q);
                let images = drained.len() as u64;
                let t0 = Instant::now();
                for (ts, w) in drained {
                    match db.table(w.table) {
                        // The drained queue is owned: the after-image
                        // moves into the version chain, no copy.
                        Ok(t) => t.install_lww(w.key, ts, w.after),
                        Err(e) => return self.fail(gate, e),
                    }
                }
                metrics.add_work(t0.elapsed());
                metrics.count_writes(images);
                // The queue lock was held across the install: everything
                // enqueued before `frontier` was published is applied.
                lane.applied.fetch_max(frontier, Ordering::AcqRel);
                drop(q);
                gate.publish(p, frontier);
                rot = rot.wrapping_add(1);
                progressed = true;
                break;
            }
            if progressed {
                continue;
            }
            let frontier = self.loaded.load(Ordering::Acquire);
            let caught_up = |l: &Lane| l.applied.load(Ordering::Acquire) >= frontier;
            if done && self.lanes.iter().all(caught_up) {
                return;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Partition one unit's writes by shard into `groups`.
fn group(
    view: &MergedBatchView,
    db: &Database,
    map: &ShardMap,
    groups: &mut [Vec<(Timestamp, WriteRecord)>],
    log: &mut LogRecovery,
) -> Result<()> {
    for rec in view.iter() {
        let Some(writes) = rec.writes() else {
            return Err(Error::Corrupt(
                "LLR-P requires tuple-level log records".into(),
            ));
        };
        log.max_ts = log.max_ts.max(rec.ts());
        log.txns += 1;
        for w in writes {
            groups[map.partition(db, w.table, w.key)?].push((rec.ts(), w));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, Row, TableId, Value};
    use pacman_engine::{Catalog, WriteKind};
    use pacman_wal::{LogPayload, TxnLogRecord};

    fn logical(ts: u64, key: u64, val: i64) -> TxnLogRecord {
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
                physical: false,
                adhoc: false,
            },
        }
    }

    #[test]
    fn llr_p_applies_in_commit_order_per_key() {
        let storage = StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("t"));
        // Two loggers' files for one batch, one per device, interleaved
        // timestamps on the same key: whichever device's indexer reaches a
        // lane first, the newest write must win.
        let mut a = Vec::new();
        logical(epoch_floor(1) | 1, 7, 10).encode(&mut a);
        logical(epoch_floor(1) | 3, 7, 30).encode(&mut a);
        storage.disk(0).append("log/00/0000000000", &a);
        let mut b = Vec::new();
        logical(epoch_floor(1) | 2, 7, 20).encode(&mut b);
        logical(epoch_floor(1) | 4, 8, 40).encode(&mut b);
        storage.disk(1).append("log/01/0000000000", &b);

        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        let r = recover_log(&storage, &inv, &db, 4, 5, 0, &m).unwrap();
        assert_eq!(r.txns, 4);
        let t = db.table(TableId::new(0)).unwrap();
        assert_eq!(t.get(7).unwrap().newest().1.unwrap().col(0), Value::Int(30));
        assert_eq!(t.get(8).unwrap().newest().1.unwrap().col(0), Value::Int(40));
    }

    #[test]
    fn llr_p_skips_overwritten_writes_before_decoding() {
        // N = 12 updates of key 7 spread over 3 batches, plus M = 5 keys
        // written once: newest-first installs each key's last image only.
        let storage = StorageSet::for_tests();
        let (n, m) = (12u64, 5u64);
        for batch in 0..3u64 {
            let mut buf = Vec::new();
            for i in 0..n / 3 {
                let seq = batch * 10 + i + 1;
                logical(epoch_floor(batch + 1) | seq, 7, seq as i64).encode(&mut buf);
            }
            storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
        }
        let mut buf = Vec::new();
        for k in 0..m {
            logical(epoch_floor(1) | (50 + k), 100 + k, k as i64).encode(&mut buf);
        }
        storage.disk(0).append("log/01/0000000000", &buf);

        for threads in [1, 2, 3] {
            let mut c = Catalog::new();
            c.add_table("t", 1);
            let db = Database::new(c);
            let inv = LogInventory::scan(&storage);
            let m_ = RecoveryMetrics::new();
            let r = recover_log(&storage, &inv, &db, threads, u64::MAX, 0, &m_).unwrap();
            assert_eq!((r.txns, r.applied_writes), (n + m, n + m));
            assert_eq!(r.installed_writes, m + 1, "{threads} threads");
            assert_eq!(r.skipped_writes, n - 1, "{threads} threads");
            let chain = db.table(TableId::new(0)).unwrap().get(7).unwrap();
            assert_eq!(chain.newest().1.unwrap().col(0), Value::Int(24));
        }
    }

    #[test]
    fn llr_p_stops_reading_at_the_first_error() {
        // 40 batches; the newest — the first one the pipeline reaches —
        // writes a table the catalog does not have. The lane that meets it
        // latches the error and every stage stops: at most the files already
        // in flight (one per stage plus the bounded channels) are read.
        let storage = StorageSet::for_tests();
        let batches = 40u64;
        for batch in 0..batches {
            let mut rec = logical(epoch_floor(batch + 1) | 1, batch, 1);
            if batch == batches - 1 {
                let LogPayload::Writes { writes, .. } = &mut rec.payload else {
                    unreachable!()
                };
                writes[0].table = TableId::new(9);
            }
            storage
                .disk(0)
                .append(&format!("log/00/{batch:010}"), &rec.to_bytes());
        }
        let file_len = storage.disk(0).len("log/00/0000000000").unwrap() as u64;
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        let before = storage.total_stats().bytes_read;
        let e = recover_log(&storage, &inv, &db, 1, u64::MAX, 0, &m).unwrap_err();
        assert!(matches!(e, Error::Unknown(_)), "unexpected error: {e}");
        let files_read = (storage.total_stats().bytes_read - before) / file_len;
        assert!(
            (1..=8).contains(&files_read),
            "read {files_read} of {batches} files after the error"
        );
    }

    #[test]
    fn llr_p_online_applies_and_publishes_watermarks() {
        let storage = StorageSet::for_tests();
        let mut a = Vec::new();
        logical(epoch_floor(1) | 1, 7, 10).encode(&mut a);
        logical(epoch_floor(1) | 3, 7, 30).encode(&mut a);
        storage.disk(0).append("log/00/0000000000", &a);
        let mut b = Vec::new();
        logical(epoch_floor(2) | 5, 8, 40).encode(&mut b);
        storage.disk(0).append("log/00/0000000001", &b);

        let mut c = Catalog::new();
        c.add_table_sharded("t", 1, 2);
        let db = std::sync::Arc::new(Database::new(c));
        let map = crate::recovery::gate::ShardMap::new(&db);
        let gate = pacman_engine::RecoveryGate::new(map.total());
        gate.set_total_batches(2);
        let source = UnitSource::inventory(&storage, &LogInventory::scan(&storage), u64::MAX, 0);
        let m = RecoveryMetrics::new();
        let r = recover_log_online(source, &db, &gate, &map, 3, &m).unwrap();
        assert_eq!(r.txns, 3);
        assert_eq!((m.txns(), m.writes()), (3, 3));
        let t = db.table(TableId::new(0)).unwrap();
        assert_eq!(t.get(7).unwrap().newest().1.unwrap().col(0), Value::Int(30));
        assert_eq!(t.get(8).unwrap().newest().1.unwrap().col(0), Value::Int(40));
        // Every shard partition reached the final watermark.
        for p in 0..gate.num_partitions() {
            assert!(gate.is_ready(p), "partition {p} never completed");
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        assert!(gate.admit(&[0, gate.num_partitions() - 1], &stop));
    }

    #[test]
    fn llr_p_online_rejects_command_records() {
        let storage = StorageSet::for_tests();
        let rec = TxnLogRecord {
            ts: epoch_floor(1) | 1,
            payload: LogPayload::Command {
                proc: pacman_common::ProcId::new(0),
                params: vec![].into(),
            },
        };
        storage.disk(0).append("log/00/0000000000", &rec.to_bytes());
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = std::sync::Arc::new(Database::new(c));
        let map = crate::recovery::gate::ShardMap::new(&db);
        let gate = pacman_engine::RecoveryGate::new(map.total());
        gate.set_total_batches(1);
        let source = UnitSource::inventory(&storage, &LogInventory::scan(&storage), u64::MAX, 0);
        let m = RecoveryMetrics::new();
        assert!(recover_log_online(source, &db, &gate, &map, 2, &m).is_err());
        assert!(gate.is_failed(), "a failed lane loader poisons the gate");
    }

    #[test]
    fn llr_p_rejects_command_records() {
        let storage = StorageSet::for_tests();
        let rec = TxnLogRecord {
            ts: epoch_floor(1) | 1,
            payload: LogPayload::Command {
                proc: pacman_common::ProcId::new(0),
                params: vec![].into(),
            },
        };
        storage.disk(0).append("log/00/0000000000", &rec.to_bytes());
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        assert!(recover_log(&storage, &inv, &db, 2, 5, 0, &m).is_err());
    }
}
