//! ALR-P: PACMAN-parallel recovery of adaptive hybrid logs.
//!
//! The adaptive logging scheme (`pacman_wal`'s `LogScheme::Adaptive`)
//! leaves a *mixed-format* log behind: command records for transactions
//! the cost model judged cheap to re-execute, proc-tagged logical records
//! for the expensive ones. ALR-P replays that mix with the same
//! partitioned dependency-graph schedule as CLR-P (§4): command records
//! instantiate procedure slices that re-execute through the sproc
//! interpreter, while logical records short-circuit re-execution and
//! install their after-images as write-only pieces dispatched to the
//! blocks owning the written tables (§4.5's ad-hoc unification). The
//! result combines command logging's small log with logical logging's
//! cheap replay exactly where each wins.
//!
//! [`crate::schedule::ExecutionSchedule`] already dispatches every payload
//! kind — command records into interpreter slices, logical and
//! proc-tagged records into write-only pieces — so ALR-P *is* CLR-P's
//! loader/replay pipeline ([`crate::recovery::clr_p::recover_log`]), one
//! implementation and one place to fix; the pipeline reports the
//! command/logical mix either way. This module holds the mixed-log tests.

#[cfg(test)]
mod tests {
    use crate::metrics::RecoveryMetrics;
    use crate::recovery::clr_p::recover_log;
    use crate::recovery::{LogInventory, LogRecovery, UnitSource};
    use crate::runtime::ReplayMode;
    use crate::static_analysis::GlobalGraph;
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, ProcId, Row, TableId, Value};
    use pacman_engine::{Catalog, Database, WriteKind, WriteRecord};
    use pacman_sproc::{Expr, ProcBuilder, ProcRegistry};
    use pacman_storage::StorageSet;
    use pacman_wal::{LogPayload, TxnLogRecord};
    use std::sync::Arc;

    const ACCT: TableId = TableId::new(0);
    const AUDIT: TableId = TableId::new(1);

    /// Two procedures: a cheap RMW on ACCT and a "heavy" audit updating
    /// AUDIT. The mixed log interleaves command records (cheap proc) with
    /// proc-tagged logical records (heavy proc).
    fn registry() -> ProcRegistry {
        let mut reg = ProcRegistry::new();
        let mut b = ProcBuilder::new(ProcId::new(0), "Inc", 2);
        let v = b.read(ACCT, Expr::param(0), 0);
        b.write(
            ACCT,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        reg.register(b.build().unwrap()).unwrap();
        let mut b = ProcBuilder::new(ProcId::new(1), "Audit", 2);
        let v = b.read(AUDIT, Expr::param(0), 0);
        b.write(
            AUDIT,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        reg.register(b.build().unwrap()).unwrap();
        reg
    }

    fn db() -> Arc<Database> {
        let mut c = Catalog::new();
        c.add_table("acct", 1);
        c.add_table("audit", 1);
        let db = Arc::new(Database::new(c));
        for k in 0..8u64 {
            db.seed_row(ACCT, k, Row::from([Value::Int(100)])).unwrap();
            db.seed_row(AUDIT, k, Row::from([Value::Int(0)])).unwrap();
        }
        db
    }

    fn mixed_log(storage: &StorageSet, n: u64, per_batch: u64) -> (u64, u64) {
        let mut buf = Vec::new();
        let mut batch = 0;
        let mut audit_totals = [0i64; 8];
        let (mut commands, mut logicals) = (0, 0);
        for i in 0..n {
            let ts = epoch_floor(1 + i / 4) | (i + 1);
            let k = i % 8;
            if i % 3 == 0 {
                // "Heavy" transaction: log the after-image directly.
                audit_totals[k as usize] += 5;
                TxnLogRecord {
                    ts,
                    payload: LogPayload::TaggedWrites {
                        proc: ProcId::new(1),
                        writes: vec![WriteRecord {
                            table: AUDIT,
                            key: k,
                            kind: WriteKind::Update,
                            after: Some(Row::from([Value::Int(audit_totals[k as usize])])),
                            prev_ts: 0,
                        }],
                    },
                }
                .encode(&mut buf);
                logicals += 1;
            } else {
                TxnLogRecord {
                    ts,
                    payload: LogPayload::Command {
                        proc: ProcId::new(0),
                        params: vec![Value::Int(k as i64), Value::Int(1)].into(),
                    },
                }
                .encode(&mut buf);
                commands += 1;
            }
            if (i + 1) % per_batch == 0 {
                storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
                buf.clear();
                batch += 1;
            }
        }
        if !buf.is_empty() {
            storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
        }
        (commands, logicals)
    }

    fn replay(
        storage: &StorageSet,
        mode: ReplayMode,
        threads: usize,
    ) -> (Arc<Database>, LogRecovery) {
        let reg = registry();
        let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
        let db = db();
        let source = UnitSource::inventory(storage, &LogInventory::scan(storage), u64::MAX, 0);
        let m = Arc::new(RecoveryMetrics::new());
        let r = recover_log(source, &db, &gdg, &reg, threads, mode, &m, None).unwrap();
        (db, r)
    }

    fn run(mode: ReplayMode, threads: usize) -> (Arc<Database>, LogRecovery) {
        let storage = StorageSet::for_tests();
        mixed_log(&storage, 48, 8);
        replay(&storage, mode, threads)
    }

    #[test]
    fn mixed_batches_replay_and_count_formats() {
        let (db, r) = run(ReplayMode::Pipelined, 4);
        assert_eq!(r.txns, 48);
        assert_eq!(r.replayed_commands, 32);
        assert_eq!(r.applied_writes, 16);
        // Commands re-executed: every key saw 4 increments of 1.
        let mut t = db.begin();
        assert_eq!(t.read(ACCT, 0).unwrap().col(0), Value::Int(104));
        // Logical records short-circuited: after-images installed as-is.
        assert_eq!(t.read(AUDIT, 0).unwrap().col(0), Value::Int(10));
    }

    #[test]
    fn all_modes_agree_on_mixed_logs() {
        let (db_ps, _) = run(ReplayMode::PureStatic, 4);
        let (db_sync, _) = run(ReplayMode::Synchronous, 4);
        let (db_pipe, _) = run(ReplayMode::Pipelined, 8);
        let f = db_ps.fingerprint();
        assert_eq!(f, db_sync.fingerprint());
        assert_eq!(f, db_pipe.fingerprint());
    }

    #[test]
    fn empty_inventory_is_trivial() {
        let (_, r) = replay(&StorageSet::for_tests(), ReplayMode::Pipelined, 2);
        assert_eq!(r.txns, 0);
    }
}
