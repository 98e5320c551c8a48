//! CLR-P: PACMAN — parallel command log recovery (§4, §6.2).
//!
//! The calling thread is the loader: it takes units from the source in
//! commitment order, instantiates execution schedules from the global
//! dependency graph and hands them straight to the block worker groups of
//! the [`crate::runtime`]. The workload distribution is estimated from the
//! first unit at reload time (§4.4); replay runs in one of the three modes
//! of Fig. 19 (pure-static / synchronous / pipelined). Under command
//! logging the log is mixed: ad-hoc transactions leave their write sets
//! (§4.5), which the schedule installs as write-only pieces beside the
//! re-executed commands.

use crate::metrics::RecoveryMetrics;
use crate::recovery::{LogRecovery, UnitSource};
use crate::runtime::{run_replay_gated, ReplayMode};
use crate::schedule::ExecutionSchedule;
use crate::static_analysis::GlobalGraph;
use pacman_common::Result;
use pacman_engine::{Database, RecoveryGate};
use pacman_sproc::ProcRegistry;
use pacman_wal::MergedBatchView;
use std::sync::Arc;
use std::time::Instant;

/// CLR-P (PACMAN) log recovery over `source`'s units. With an
/// online-recovery `gate`, per-block watermarks are published as
/// piece-sets complete and blocks with waiting admissions run first.
#[allow(clippy::too_many_arguments)]
pub fn recover_log(
    mut source: UnitSource,
    db: &Arc<Database>,
    gdg: &Arc<GlobalGraph>,
    registry: &ProcRegistry,
    threads: usize,
    mode: ReplayMode,
    metrics: &Arc<RecoveryMetrics>,
    gate: Option<Arc<RecoveryGate>>,
) -> Result<LogRecovery> {
    let t0 = Instant::now();
    let mut log = LogRecovery::default();
    // Load the first unit synchronously: it provides the workload
    // distribution estimate for core assignment (§4.4).
    let Some(first) = source.next() else {
        return Ok(log);
    };
    let first = load(first, &mut log, gdg, registry, metrics)?;
    let estimate = {
        let counts = first.piece_counts();
        // An all-empty first unit still needs a sane assignment.
        if counts.iter().sum::<usize>() == 0 {
            vec![1; counts.len()]
        } else {
            counts
        }
    };

    // The remaining units, scheduled on this thread; a failed one ends them.
    let mut loaded = Ok(());
    let schedules = std::iter::once(first).chain(source.map_while(|unit| {
        load(unit, &mut log, gdg, registry, metrics)
            .map_err(|e| loaded = Err(e))
            .ok()
    }));
    run_replay_gated(db, gdg, mode, threads, &estimate, metrics, schedules, gate)?;
    loaded?;
    Ok(LogRecovery {
        total: t0.elapsed(),
        ..log
    })
}

/// Schedule one unit straight from its record views, billing it from the
/// moment its read began to the load bucket.
fn load(
    unit: Result<(MergedBatchView, Instant)>,
    log: &mut LogRecovery,
    gdg: &GlobalGraph,
    registry: &ProcRegistry,
    metrics: &RecoveryMetrics,
) -> Result<ExecutionSchedule> {
    let (view, started) = unit?;
    log.count_unit(&view, metrics);
    let schedule = ExecutionSchedule::build(gdg, registry, &view)?;
    log.reload += started.elapsed();
    metrics.add_load(started.elapsed());
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::LogInventory;
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, ProcId, Row, TableId, Value};
    use pacman_engine::{Catalog, WriteKind, WriteRecord};
    use pacman_sproc::{Expr, ProcBuilder};
    use pacman_storage::StorageSet;
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

    /// `n` transfers; with `adhoc`, every third is instead an ad-hoc
    /// transaction (§4.5) logged as its write set: five more on an odd
    /// account's saving, which no transfer writes.
    fn write_logs(storage: &StorageSet, n: u64, per_batch: u64, adhoc: bool) {
        let mut buf = Vec::new();
        let mut batch = 0;
        let mut savings = [0i64; 10];
        for i in 0..n {
            let payload = if adhoc && i % 3 == 0 {
                let k = (i % 5) * 2 + 1;
                savings[k as usize] += 5;
                LogPayload::Writes {
                    writes: vec![WriteRecord {
                        table: SAVING,
                        key: k,
                        kind: WriteKind::Update,
                        after: Some(Row::from([Value::Int(savings[k as usize])])),
                        prev_ts: 0,
                    }],
                    physical: false,
                    adhoc: true,
                }
            } else {
                let src = (i * 2) % 10; // even accounts have spouses
                LogPayload::Command {
                    proc: ProcId::new(0),
                    params: vec![Value::Int(src as i64), Value::Int(1)].into(),
                }
            };
            TxnLogRecord {
                ts: epoch_floor(1 + i / 4) | (i + 1),
                payload,
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

    fn replay(
        storage: &StorageSet,
        db: &Arc<Database>,
        mode: ReplayMode,
        threads: usize,
    ) -> LogRecovery {
        let reg = registry();
        let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
        let source = UnitSource::inventory(storage, &LogInventory::scan(storage), u64::MAX, 0);
        let m = Arc::new(RecoveryMetrics::new());
        recover_log(source, db, &gdg, &reg, threads, mode, &m, None).unwrap()
    }

    fn run(mode: ReplayMode, threads: usize) -> (Arc<Database>, LogRecovery) {
        run_log(mode, threads, 40, false)
    }

    fn run_log(
        mode: ReplayMode,
        threads: usize,
        n: u64,
        adhoc: bool,
    ) -> (Arc<Database>, LogRecovery) {
        let storage = StorageSet::for_tests();
        write_logs(&storage, n, 8, adhoc);
        let db = bank_db();
        let r = replay(&storage, &db, mode, threads);
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
        assert_eq!(t.read(CURRENT, 0).unwrap().col(0), Value::Int(992));
        assert_eq!(t.read(CURRENT, 1).unwrap().col(0), Value::Int(1008));
        assert_eq!(t.read(SAVING, 0).unwrap().col(0), Value::Int(8));
        assert_eq!(t.read(SAVING, 1).unwrap().col(0), Value::Int(0));
    }

    #[test]
    fn single_thread_still_works() {
        let (db, r) = run(ReplayMode::Pipelined, 1);
        assert_eq!(r.txns, 40);
        let mut t = db.begin();
        assert_eq!(t.read(CURRENT, 0).unwrap().col(0), Value::Int(992));
    }

    #[test]
    fn mixed_batches_replay_and_count_formats() {
        let (db, r) = run_log(ReplayMode::Pipelined, 4, 48, true);
        assert_eq!(r.txns, 48);
        assert_eq!(r.replayed_commands, 32);
        assert_eq!(r.applied_writes, 16);
        let mut t = db.begin();
        let col = |t: &mut pacman_engine::Txn, table, k| match t.read(table, k).unwrap().col(0) {
            Value::Int(v) => v,
            v => panic!("{v:?}"),
        };
        // Commands re-executed: transfers conserve money, and each paid
        // one bonus into an even account's saving.
        let current: i64 = (0..10).map(|k| col(&mut t, CURRENT, k)).sum();
        assert_eq!(current, 10_000);
        let bonuses: i64 = (0..10).step_by(2).map(|k| col(&mut t, SAVING, k)).sum();
        assert_eq!(bonuses, 32);
        // Ad-hoc records short-circuited: after-images installed as-is
        // (account 1 took the ad-hoc writes at i = 0, 15, 30, 45).
        assert_eq!(col(&mut t, SAVING, 1), 20);
    }

    #[test]
    fn all_modes_agree_on_mixed_logs() {
        let (db_ps, _) = run_log(ReplayMode::PureStatic, 4, 48, true);
        let (db_sync, _) = run_log(ReplayMode::Synchronous, 4, 48, true);
        let (db_pipe, _) = run_log(ReplayMode::Pipelined, 8, 48, true);
        let f = db_ps.fingerprint();
        assert_eq!(f, db_sync.fingerprint());
        assert_eq!(f, db_pipe.fingerprint());
    }

    #[test]
    fn empty_log_is_trivial() {
        let r = replay(
            &StorageSet::for_tests(),
            &bank_db(),
            ReplayMode::Pipelined,
            4,
        );
        assert_eq!(r.txns, 0);
    }
}
