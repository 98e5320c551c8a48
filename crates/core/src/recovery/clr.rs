//! CLR: conventional command log recovery (§6.2).
//!
//! Log files are reloaded into memory in parallel, but the lost committed
//! transactions are then re-executed *in sequence by a single thread* —
//! the paper's motivating bottleneck ("CLR took over 4,200 seconds … to
//! complete the log recovery", §6.2.2).

use crate::metrics::RecoveryMetrics;
use crate::recovery::{LogRecovery, UnitSource};
use crate::runtime::exec::Replayer;
use pacman_common::Result;
use pacman_engine::{Database, RecoveryGate};
use pacman_sproc::ProcRegistry;
use std::time::Instant;

/// CLR log recovery over `source`'s units. With an online-recovery
/// `gate`, every partition's watermark advances together after each unit:
/// CLR replays strictly serially, so on-demand priority has nothing to
/// reorder.
pub fn recover_log(
    source: UnitSource,
    db: &Database,
    registry: &ProcRegistry,
    metrics: &RecoveryMetrics,
    gate: Option<&RecoveryGate>,
) -> Result<LogRecovery> {
    let t0 = Instant::now();
    let mut log = LogRecovery::default();
    let mut replayer = Replayer::new(db);
    for (unit, seq) in source.zip(1..) {
        let (view, started) = unit?;
        log.reload += started.elapsed();
        metrics.add_load(started.elapsed());
        log.count_unit(&view, metrics);
        let tw = Instant::now();
        let mut images = 0;
        for rec in view.iter() {
            images += replayer.replay_record(registry, &rec)?;
        }
        metrics.add_work(tw.elapsed());
        metrics.count_writes(images);
        if let Some(g) = gate {
            for p in 0..g.num_partitions() {
                g.publish(p, seq);
            }
        }
    }
    log.total = t0.elapsed();
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::LogInventory;
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, ProcId, Row, TableId, Value};
    use pacman_engine::Catalog;
    use pacman_sproc::{Expr, ProcBuilder};
    use pacman_storage::StorageSet;
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
        let source = UnitSource::inventory(&storage, &inv, 5, 0);
        let r = recover_log(source, &db, &reg, &m, None).unwrap();
        assert_eq!((r.txns, r.replayed_commands), (3, 3));
        let chain = db.table(T).unwrap().get(1).unwrap();
        assert_eq!(chain.newest().1.unwrap().col(0), Value::Int(110));
        assert_eq!((m.txns(), m.writes()), (3, 3));
    }
}
