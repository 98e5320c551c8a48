//! Criterion: recovery replay throughput — serial CLR-style re-execution
//! vs PACMAN piece execution, per transaction.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pacman_common::{Row, TableId, Value};
use pacman_core::runtime::exec::Replayer;
use pacman_engine::Database;
use pacman_sproc::ProcRegistry;
use pacman_wal::{LogPayload, TxnLogRecord};
use pacman_workloads::bank::{Bank, TRANSFER};
use pacman_workloads::Workload;

fn setup() -> (Database, ProcRegistry) {
    let bank = Bank {
        accounts: 4096,
        ..Bank::default()
    };
    let db = Database::new(bank.catalog());
    bank.load(&db);
    (db, bank.registry())
}

fn bench_replay(c: &mut Criterion) {
    let (db, reg) = setup();
    let mut g = c.benchmark_group("replay");
    g.throughput(Throughput::Elements(1));
    let mut ts = 1u64;
    g.bench_function("clr_reexecute_transfer", |b| {
        let mut replayer = Replayer::new(&db);
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 2) % 4096;
            ts += 1;
            let rec = TxnLogRecord {
                ts,
                payload: LogPayload::Command {
                    proc: TRANSFER,
                    params: vec![Value::Int(k as i64), Value::Int(1)].into(),
                },
            };
            replayer.replay_record(&reg, black_box(&rec)).unwrap()
        })
    });
    g.bench_function("llrp_install_write", |b| {
        let t = TableId::new(1);
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 1) % 4096;
            ts += 1;
            db.table(t)
                .unwrap()
                .get_or_create(k)
                .install_lww(ts, Some(std::sync::Arc::new(Row::from([Value::Int(7)]))));
            black_box(k)
        })
    });
    g.finish();
}

fn short_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20)
}

criterion_group! {
    name = benches;
    config = short_config();
    targets = bench_replay
}
criterion_main!(benches);
