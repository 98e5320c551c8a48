//! CLR: conventional command log recovery (§6.2).
//!
//! Log files are reloaded into memory in parallel, but the lost committed
//! transactions are then re-executed *in sequence by a single thread* —
//! the paper's motivating bottleneck ("CLR took over 4,200 seconds … to
//! complete the log recovery", §6.2.2).

use crate::metrics::RecoveryMetrics;
use crate::recovery::plr::LogRecovery;
use crate::recovery::{read_merged_batch, LogInventory};
use crate::runtime::exec::Replayer;
use pacman_common::{Result, Timestamp};
use pacman_engine::Database;
use pacman_sproc::ProcRegistry;
use pacman_storage::StorageSet;
use std::time::Instant;

/// CLR log recovery.
#[allow(clippy::too_many_arguments)]
pub fn recover_log(
    storage: &StorageSet,
    inventory: &LogInventory,
    db: &Database,
    registry: &ProcRegistry,
    pepoch: u64,
    after_ts: Timestamp,
    metrics: &RecoveryMetrics,
) -> Result<LogRecovery> {
    recover_log_online(
        storage, inventory, db, registry, pepoch, after_ts, metrics, None,
    )
}

/// [`recover_log`] publishing batch watermarks to an online-recovery
/// gate. CLR replays strictly serially, so every block advances together:
/// after batch `k`, every partition's watermark is `k + 1` (on-demand
/// priority has nothing to reorder on a single thread).
#[allow(clippy::too_many_arguments)]
pub fn recover_log_online(
    storage: &StorageSet,
    inventory: &LogInventory,
    db: &Database,
    registry: &ProcRegistry,
    pepoch: u64,
    after_ts: Timestamp,
    metrics: &RecoveryMetrics,
    gate: Option<&pacman_engine::RecoveryGate>,
) -> Result<LogRecovery> {
    let t0 = Instant::now();
    let mut reload = std::time::Duration::ZERO;
    let mut max_ts = 0u64;
    let mut txns = 0u64;
    let mut replayer = Replayer::new(db);
    for (bi, batch) in inventory.batches().into_iter().enumerate() {
        let tr = Instant::now();
        let merged = read_merged_batch(storage, inventory, batch, pepoch, after_ts)?;
        reload += tr.elapsed();
        metrics.add_load(tr.elapsed());
        let tw = Instant::now();
        for rec in &merged.records {
            replayer.replay_record(registry, rec)?;
            max_ts = max_ts.max(rec.ts);
            txns += 1;
            metrics.count_txn();
        }
        metrics.add_work(tw.elapsed());
        if let Some(g) = gate {
            for p in 0..g.num_partitions() {
                g.publish(p, bi as u64 + 1);
            }
        }
    }
    Ok(LogRecovery {
        reload,
        total: t0.elapsed(),
        max_ts,
        txns,
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

    const T: TableId = TableId::new(0);

    #[test]
    fn clr_reexecutes_in_commit_order() {
        let mut reg = ProcRegistry::new();
        let mut b = ProcBuilder::new(ProcId::new(0), "SetAdd", 2);
        let v = b.read(T, Expr::param(0), 0);
        b.write(
            T,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        reg.register(b.build().unwrap()).unwrap();

        let storage = StorageSet::for_tests();
        let mut buf = Vec::new();
        for (i, amt) in [(1u64, 5i64), (2, 7), (3, -2)] {
            TxnLogRecord {
                ts: epoch_floor(1) | i,
                payload: LogPayload::Command {
                    proc: ProcId::new(0),
                    params: vec![Value::Int(1), Value::Int(amt)].into(),
                },
            }
            .encode(&mut buf);
        }
        storage.disk(0).append("log/00/0000000000", &buf);

        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        db.seed_row(T, 1, Row::from([Value::Int(100)])).unwrap();
        let inv = LogInventory::scan(&storage);
        let m = RecoveryMetrics::new();
        let r = recover_log(&storage, &inv, &db, &reg, 5, 0, &m).unwrap();
        assert_eq!(r.txns, 3);
        let chain = db.table(T).unwrap().get(1).unwrap();
        assert_eq!(chain.newest().1.unwrap().col(0), &Value::Int(110));
        assert_eq!(m.txns(), 3);
    }
}
