//! CLR-P: PACMAN — parallel command log recovery (§4, §6.2).
//!
//! A loader thread streams batches off the devices, merges them into
//! commitment order, instantiates execution schedules from the global
//! dependency graph and feeds them to the block worker groups of the
//! [`crate::runtime`]. The workload distribution is estimated from the
//! first batch at reload time (§4.4); replay runs in one of the three
//! modes of Fig. 19 (pure-static / synchronous / pipelined).

use crate::metrics::RecoveryMetrics;
use crate::recovery::plr::LogRecovery;
use crate::recovery::{read_merged_batch, LogInventory};
use crate::runtime::{run_replay_gated, ReplayMode};
use crate::schedule::ExecutionSchedule;
use crate::static_analysis::GlobalGraph;
use pacman_common::{Error, Result, Timestamp};
use pacman_engine::{Database, RecoveryGate};
use pacman_sproc::ProcRegistry;
use pacman_storage::StorageSet;
use pacman_wal::{LogBatch, LogPayload};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Count one reloaded batch's format mix: (command records, tuple-level
/// records). Under CL the second component counts ad-hoc records; under
/// ALR it additionally counts the cost model's logical choices.
fn mix_of(batch: &LogBatch) -> (u64, u64) {
    let mut commands = 0;
    let mut logical = 0;
    for r in &batch.records {
        match &r.payload {
            LogPayload::Command { .. } => commands += 1,
            LogPayload::Writes { .. } | LogPayload::TaggedWrites { .. } => logical += 1,
        }
    }
    (commands, logical)
}

/// CLR-P (PACMAN) log recovery.
#[allow(clippy::too_many_arguments)]
pub fn recover_log(
    storage: &StorageSet,
    inventory: &LogInventory,
    db: &Arc<Database>,
    gdg: &Arc<GlobalGraph>,
    registry: &ProcRegistry,
    threads: usize,
    mode: ReplayMode,
    pepoch: u64,
    after_ts: Timestamp,
    metrics: &Arc<RecoveryMetrics>,
) -> Result<LogRecovery> {
    recover_log_online(
        storage, inventory, db, gdg, registry, threads, mode, pepoch, after_ts, metrics, None,
    )
}

/// [`recover_log`] publishing per-block batch watermarks to an
/// online-recovery gate and prioritizing blocks with waiting admissions.
#[allow(clippy::too_many_arguments)]
pub fn recover_log_online(
    storage: &StorageSet,
    inventory: &LogInventory,
    db: &Arc<Database>,
    gdg: &Arc<GlobalGraph>,
    registry: &ProcRegistry,
    threads: usize,
    mode: ReplayMode,
    pepoch: u64,
    after_ts: Timestamp,
    metrics: &Arc<RecoveryMetrics>,
    gate: Option<Arc<RecoveryGate>>,
) -> Result<LogRecovery> {
    let t0 = Instant::now();
    let batches = inventory.batches();
    if batches.is_empty() {
        return Ok(LogRecovery::default());
    }

    // Load the first batch synchronously: it provides the workload
    // distribution estimate for core assignment (§4.4).
    let tload = Instant::now();
    let first_batch = read_merged_batch(storage, inventory, batches[0], pepoch, after_ts)?;
    let (c0, l0) = mix_of(&first_batch);
    let first = ExecutionSchedule::build(gdg, registry, &first_batch)?;
    let first_load = tload.elapsed();
    metrics.add_load(first_load);
    let estimate = {
        let counts = first.piece_counts();
        // An all-empty first batch still needs a sane assignment.
        if counts.iter().sum::<usize>() == 0 {
            vec![1; counts.len()]
        } else {
            counts
        }
    };

    let max_ts = Arc::new(AtomicU64::new(
        first_batch.records.last().map(|r| r.ts).unwrap_or(0),
    ));
    let txn_count = Arc::new(AtomicU64::new(first_batch.records.len() as u64));
    let commands = Arc::new(AtomicU64::new(c0));
    let logicals = Arc::new(AtomicU64::new(l0));
    let reload_ns = Arc::new(AtomicU64::new(first_load.as_nanos() as u64));

    let (tx, rx) = crossbeam::channel::bounded::<ExecutionSchedule>(4);
    let result: Result<()> = crossbeam::thread::scope(|scope| {
        // Loader: stream the remaining batches in order.
        let loader_err: Arc<parking_lot::Mutex<Option<Error>>> =
            Arc::new(parking_lot::Mutex::new(None));
        {
            let loader_err = Arc::clone(&loader_err);
            let max_ts = Arc::clone(&max_ts);
            let txn_count = Arc::clone(&txn_count);
            let commands = Arc::clone(&commands);
            let logicals = Arc::clone(&logicals);
            let reload_ns = Arc::clone(&reload_ns);
            let metrics = Arc::clone(metrics);
            // Scoped thread: borrow the batch list, no clone.
            let batches = &batches;
            scope.spawn(move |_| {
                let _ = tx.send(first);
                for &b in &batches[1..] {
                    let t0 = Instant::now();
                    let merged = match read_merged_batch(storage, inventory, b, pepoch, after_ts) {
                        Ok(m) => m,
                        Err(e) => {
                            *loader_err.lock() = Some(e);
                            return; // dropping tx ends the replay
                        }
                    };
                    if let Some(last) = merged.records.last() {
                        max_ts.fetch_max(last.ts, Ordering::Relaxed);
                    }
                    txn_count.fetch_add(merged.records.len() as u64, Ordering::Relaxed);
                    let (c, l) = mix_of(&merged);
                    commands.fetch_add(c, Ordering::Relaxed);
                    logicals.fetch_add(l, Ordering::Relaxed);
                    let schedule = match ExecutionSchedule::build(gdg, registry, &merged) {
                        Ok(s) => s,
                        Err(e) => {
                            *loader_err.lock() = Some(e);
                            return;
                        }
                    };
                    let dt = t0.elapsed();
                    reload_ns.fetch_add(dt.as_nanos() as u64, Ordering::Relaxed);
                    metrics.add_load(dt);
                    if tx.send(schedule).is_err() {
                        return; // replay aborted
                    }
                }
            });
        }
        run_replay_gated(db, gdg, mode, threads, &estimate, metrics, rx, gate)?;
        if let Some(e) = loader_err.lock().take() {
            return Err(e);
        }
        Ok(())
    })
    .expect("clr-p scope");
    result?;

    Ok(LogRecovery {
        reload: std::time::Duration::from_nanos(reload_ns.load(Ordering::Relaxed)),
        total: t0.elapsed(),
        max_ts: max_ts.load(Ordering::Relaxed),
        txns: txn_count.load(Ordering::Relaxed),
        replayed_commands: commands.load(Ordering::Relaxed),
        applied_writes: logicals.load(Ordering::Relaxed),
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, ProcId, Row, TableId, Value};
    use pacman_engine::Catalog;
    use pacman_sproc::{Expr, ProcBuilder};
    use pacman_wal::{LogPayload, TxnLogRecord};

    const FAMILY: TableId = TableId::new(0);
    const CURRENT: TableId = TableId::new(1);
    const SAVING: TableId = TableId::new(2);

    fn registry() -> ProcRegistry {
        let mut reg = ProcRegistry::new();
        let mut b = ProcBuilder::new(ProcId::new(0), "Transfer", 2);
        let dst = b.read(FAMILY, Expr::param(0), 0);
        b.guarded(Expr::not_null(Expr::var(dst)), |b| {
            let src_val = b.read(CURRENT, Expr::param(0), 0);
            b.write(
                CURRENT,
                Expr::param(0),
                0,
                Expr::sub(Expr::var(src_val), Expr::param(1)),
            );
            let dst_val = b.read(CURRENT, Expr::var(dst), 0);
            b.write(
                CURRENT,
                Expr::var(dst),
                0,
                Expr::add(Expr::var(dst_val), Expr::param(1)),
            );
            let bonus = b.read(SAVING, Expr::param(0), 0);
            b.write(
                SAVING,
                Expr::param(0),
                0,
                Expr::add(Expr::var(bonus), Expr::int(1)),
            );
        });
        reg.register(b.build().unwrap()).unwrap();
        reg
    }

    fn bank_db() -> Arc<Database> {
        let mut c = Catalog::new();
        c.add_table("family", 1);
        c.add_table("current", 1);
        c.add_table("saving", 1);
        let db = Arc::new(Database::new(c));
        for k in 0..10u64 {
            let spouse = if k % 2 == 0 { (k + 1) as i64 } else { -1 };
            let spouse_val = if spouse >= 0 {
                Value::Int(spouse)
            } else {
                Value::str("NULL")
            };
            db.seed_row(FAMILY, k, Row::from([spouse_val])).unwrap();
            db.seed_row(CURRENT, k, Row::from([Value::Int(1000)]))
                .unwrap();
            db.seed_row(SAVING, k, Row::from([Value::Int(0)])).unwrap();
        }
        db
    }

    fn write_logs(storage: &StorageSet, n: u64, per_batch: u64) {
        let mut buf = Vec::new();
        let mut batch = 0;
        for i in 0..n {
            let src = (i * 2) % 10; // even accounts have spouses
            TxnLogRecord {
                ts: epoch_floor(1 + i / 4) | (i + 1),
                payload: LogPayload::Command {
                    proc: ProcId::new(0),
                    params: vec![Value::Int(src as i64), Value::Int(1)].into(),
                },
            }
            .encode(&mut buf);
            if (i + 1) % per_batch == 0 {
                storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
                buf.clear();
                batch += 1;
            }
        }
        if !buf.is_empty() {
            storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
        }
    }

    fn run(mode: ReplayMode, threads: usize) -> (Arc<Database>, LogRecovery) {
        let reg = registry();
        let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
        let storage = StorageSet::for_tests();
        write_logs(&storage, 40, 8);
        let db = bank_db();
        let inv = LogInventory::scan(&storage);
        let m = Arc::new(RecoveryMetrics::new());
        let r = recover_log(
            &storage,
            &inv,
            &db,
            &gdg,
            &reg,
            threads,
            mode,
            u64::MAX,
            0,
            &m,
        )
        .unwrap();
        (db, r)
    }

    #[test]
    fn all_modes_recover_identical_state() {
        let (db_ps, r_ps) = run(ReplayMode::PureStatic, 4);
        let (db_sync, r_sync) = run(ReplayMode::Synchronous, 4);
        let (db_pipe, r_pipe) = run(ReplayMode::Pipelined, 4);
        assert_eq!(r_ps.txns, 40);
        assert_eq!(r_sync.txns, 40);
        assert_eq!(r_pipe.txns, 40);
        let f = db_ps.fingerprint();
        assert_eq!(f, db_sync.fingerprint());
        assert_eq!(f, db_pipe.fingerprint());
    }

    #[test]
    fn recovered_values_are_exact() {
        let (db, _) = run(ReplayMode::Pipelined, 8);
        // 40 transfers of 1, sources cycle over even accounts 0,2,4,6,8
        // (8 times each); each even account loses 8, its spouse gains 8,
        // and its saving gains 8 bonuses.
        let mut t = db.begin();
        assert_eq!(t.read(CURRENT, 0).unwrap().col(0), &Value::Int(992));
        assert_eq!(t.read(CURRENT, 1).unwrap().col(0), &Value::Int(1008));
        assert_eq!(t.read(SAVING, 0).unwrap().col(0), &Value::Int(8));
        assert_eq!(t.read(SAVING, 1).unwrap().col(0), &Value::Int(0));
    }

    #[test]
    fn single_thread_still_works() {
        let (db, r) = run(ReplayMode::Pipelined, 1);
        assert_eq!(r.txns, 40);
        let mut t = db.begin();
        assert_eq!(t.read(CURRENT, 0).unwrap().col(0), &Value::Int(992));
    }

    #[test]
    fn empty_log_is_trivial() {
        let reg = registry();
        let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
        let storage = StorageSet::for_tests();
        let db = bank_db();
        let inv = LogInventory::scan(&storage);
        let m = Arc::new(RecoveryMetrics::new());
        let r = recover_log(
            &storage,
            &inv,
            &db,
            &gdg,
            &reg,
            4,
            ReplayMode::Pipelined,
            u64::MAX,
            0,
            &m,
        )
        .unwrap();
        assert_eq!(r.txns, 0);
    }
}
