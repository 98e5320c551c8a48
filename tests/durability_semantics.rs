//! Group-commit / durability invariants (paper Appendix A).

mod common;

use common::LoggingWorker;
use pacman_common::clock::epoch_of;
use pacman_common::{ProcId, Row, TableId, Value};
use pacman_core::recovery::{read_merged_batch_view, LogInventory};
use pacman_engine::{Catalog, Database};
use pacman_sproc::params;
use pacman_storage::{DiskConfig, StorageSet};
use pacman_wal::pepoch::PepochHandle;
use pacman_wal::{Durability, DurabilityConfig, LogScheme, MergedBatchView};
use std::sync::Arc;
use std::time::Duration;

const T: TableId = TableId::new(0);

fn setup(scheme: LogScheme, disks: usize, batch_epochs: u64) -> (Arc<Database>, Arc<Durability>) {
    let mut c = Catalog::new();
    c.add_table("t", 1);
    let db = Arc::new(Database::new(c));
    for k in 0..64u64 {
        db.seed_row(T, k, Row::from([Value::Int(0)])).unwrap();
    }
    let storage = StorageSet::identical(disks, DiskConfig::unthrottled("d"));
    let dur = Durability::start(
        Arc::clone(&db),
        storage,
        DurabilityConfig {
            scheme,
            num_loggers: disks,
            epoch_interval: Duration::from_millis(1),
            batch_epochs,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            fsync: true,
            ..Default::default()
        },
    );
    (db, dur)
}

/// `n` increments from two workers taking turns, one per logger (with a
/// single logger both feed it), so a two-logger stack writes both devices.
fn commit_burst(db: &Database, dur: &Durability, n: u64) -> u64 {
    let mut workers = [LoggingWorker::new(dur, 0), LoggingWorker::new(dur, 1)];
    let em = Arc::clone(dur.epoch_manager());
    for i in 0..n {
        let worker = &mut workers[i as usize % 2];
        worker.enter();
        let mut t = db.begin();
        let k = i % 64;
        let r = t.read(T, k).unwrap();
        let v = r.col(0).as_int().unwrap();
        t.write(T, k, r.with_col(0, Value::Int(v + 1))).unwrap();
        let info = t.commit_with(|| em.current()).unwrap();
        worker.log(
            &info,
            ProcId::new(0),
            &params([Value::Int(k as i64), Value::Int(1)]),
        );
        if i % 40 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let [a, b] = workers;
    a.retire().max(b.retire())
}

/// Every batch left on the devices, merged across loggers, keeping records
/// with `epoch <= pepoch`.
fn batches(storage: &StorageSet, pepoch: u64) -> Vec<MergedBatchView> {
    let inventory = LogInventory::scan(storage);
    inventory
        .batches()
        .into_iter()
        .map(|b| read_merged_batch_view(storage, &inventory, b, pepoch, 0).unwrap())
        .collect()
}

/// A transaction acknowledged durable (epoch ≤ pepoch) is actually on a
/// device: its record decodes from the batch files even after a crash.
#[test]
fn acknowledged_commits_survive_crash() {
    let (db, dur) = setup(LogScheme::Command, 2, 4);
    let max_epoch = commit_burst(&db, &dur, 300);
    dur.wait_durable(max_epoch);
    let durable_frontier = dur.pepoch();
    assert!(durable_frontier >= max_epoch);
    dur.crash();

    let storage = dur.storage();
    let persisted = PepochHandle::read_persisted(storage.disk(0));
    assert!(persisted >= max_epoch, "pepoch file lost the frontier");
    let mut recovered = 0;
    for batch in batches(storage, persisted) {
        recovered += batch.len();
        // Commit order within a batch is non-decreasing.
        let ts: Vec<u64> = batch.iter().map(|r| r.ts()).collect();
        assert!(ts.is_sorted(), "batch out of order");
    }
    assert_eq!(recovered, 300, "every acknowledged record must be on disk");
}

/// Batches are aligned to epoch boundaries: record epochs fall inside
/// `[index * batch_epochs, (index+1) * batch_epochs)`.
#[test]
fn batches_align_to_epoch_boundaries() {
    let batch_epochs = 4;
    let (db, dur) = setup(LogScheme::Logical, 1, batch_epochs);
    let max_epoch = commit_burst(&db, &dur, 200);
    dur.wait_durable(max_epoch);
    dur.shutdown();
    let storage = dur.storage();
    for batch in batches(storage, u64::MAX) {
        let idx = batch.index;
        for rec in batch.iter() {
            let e = rec.epoch();
            assert!(
                e >= idx * batch_epochs && e < (idx + 1) * batch_epochs,
                "epoch {e} landed in batch {idx} (width {batch_epochs})"
            );
        }
    }
}

/// The pepoch is the *minimum* across loggers: with two loggers, nothing
/// past the slower one's sealed epoch is ever acknowledged.
#[test]
fn pepoch_is_conservative_across_loggers() {
    let (db, dur) = setup(LogScheme::Command, 2, 8);
    let max_epoch = commit_burst(&db, &dur, 150);
    dur.wait_durable(max_epoch);
    // Frontier can never exceed what both devices have sealed; re-reading
    // everything below it must succeed on both devices.
    let frontier = dur.pepoch();
    dur.crash();
    let storage = dur.storage();
    let total: usize = batches(storage, frontier).iter().map(|b| b.len()).sum();
    assert_eq!(total, 150);
}

/// Read-only transactions produce no log records under any scheme.
#[test]
fn read_only_txns_are_never_logged() {
    for scheme in [LogScheme::Physical, LogScheme::Logical, LogScheme::Command] {
        let (db, dur) = setup(scheme, 1, 4);
        let worker = dur.register_worker();
        let em = Arc::clone(dur.epoch_manager());
        for k in 0..32u64 {
            worker.enter();
            let mut t = db.begin();
            let _ = t.read(T, k).unwrap();
            let info = t.commit_with(|| em.current()).unwrap();
            assert!(info.writes.is_empty());
            // Driver convention: empty write set → no log_commit_buffered call.
        }
        worker.retire();
        dur.shutdown();
        assert_eq!(dur.bytes_logged(), 0, "{scheme:?} logged a read-only txn");
    }
}

/// Epoch-composed timestamps: a later epoch's transaction always carries a
/// larger timestamp, even across workers (the batch-ordering invariant).
#[test]
fn timestamps_respect_epoch_order() {
    let (db, dur) = setup(LogScheme::Command, 1, 4);
    let em = Arc::clone(dur.epoch_manager());
    let worker = dur.register_worker();
    worker.enter();
    let mut t = db.begin();
    let r = t.read(T, 0).unwrap();
    t.write(T, 0, r.with_col(0, Value::Int(1))).unwrap();
    let early = t.commit_with(|| em.current()).unwrap();
    // Force several epoch advances.
    std::thread::sleep(Duration::from_millis(10));
    worker.enter();
    let mut t = db.begin();
    let r = t.read(T, 1).unwrap();
    t.write(T, 1, r.with_col(0, Value::Int(1))).unwrap();
    let late = t.commit_with(|| em.current()).unwrap();
    assert!(epoch_of(late.ts) > epoch_of(early.ts));
    assert!(late.ts > early.ts);
    worker.retire();
    dur.shutdown();
}
