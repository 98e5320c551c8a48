//! Criterion: recovery replay throughput — serial CLR-style re-execution
//! vs PACMAN piece execution, per transaction.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pacman_common::clock::epoch_floor;
use pacman_common::codec::Cursor;
use pacman_common::{Encoder, Row, TableId, Value};
use pacman_core::metrics::RecoveryMetrics;
use pacman_core::recovery::{llr_p, LogInventory};
use pacman_core::runtime::exec::Replayer;
use pacman_engine::{Database, WriteKind, WriteRecord};
use pacman_sproc::ProcRegistry;
use pacman_storage::StorageSet;
use pacman_wal::{LogPayload, RecordView, TxnLogRecord};
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
        let mut log = Vec::new();
        b.iter(|| {
            k = (k + 2) % 4096;
            ts += 1;
            log.clear();
            TxnLogRecord {
                ts,
                payload: LogPayload::Command {
                    proc: TRANSFER,
                    params: vec![Value::Int(k as i64), Value::Int(1)].into(),
                },
            }
            .encode(&mut log);
            let rec = RecordView::parse(&mut Cursor::new(&log)).unwrap();
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
                .install_lww(ts, Some(Row::from([Value::Int(7)])));
            black_box(k)
        })
    });
    g.finish();
}

/// The offline LLR-P pipeline end to end (read, validate + index,
/// skip-check + decode + install) over a fixed in-memory log: 16 batch
/// files of 256 two-write records over 512 keys, so 7 680 of the 8 192
/// writes (93.75%) are overwritten later in the log.
fn bench_llrp_pipeline(c: &mut Criterion) {
    const BATCHES: u64 = 16;
    const RECORDS: u64 = 256;
    const KEYS: u64 = 512;
    let storage = StorageSet::for_tests();
    let write = |key: u64, val: u64| WriteRecord {
        table: TableId::new(0),
        key,
        kind: WriteKind::Update,
        after: Some(Row::from([
            Value::Int(val as i64),
            Value::str("0123456789abcdef0123456789abcdef"),
        ])),
        prev_ts: 0,
    };
    for batch in 0..BATCHES {
        let mut buf = Vec::new();
        for i in 0..RECORDS {
            let seq = batch * RECORDS + i;
            TxnLogRecord {
                ts: epoch_floor(batch + 1) | (seq + 1),
                payload: LogPayload::Writes {
                    writes: vec![write(seq * 2 % KEYS, seq), write((seq * 2 + 1) % KEYS, seq)],
                    physical: false,
                    adhoc: false,
                },
            }
            .encode(&mut buf);
        }
        storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
    }
    let inventory = LogInventory::scan(&storage);
    let mut catalog = pacman_engine::Catalog::new();
    catalog.add_table("t", 2);

    let mut g = c.benchmark_group("llrp_recover_log");
    g.throughput(Throughput::Elements(BATCHES * RECORDS * 2));
    for threads in [1, pacman_bench::num_threads()] {
        g.bench_function(format!("{threads}_threads"), |b| {
            b.iter(|| {
                let db = Database::new(catalog.clone());
                let metrics = RecoveryMetrics::new();
                let r =
                    llr_p::recover_log(&storage, &inventory, &db, threads, u64::MAX, 0, &metrics)
                        .unwrap();
                assert_eq!(r.installed_writes, KEYS);
                black_box(r.skipped_writes)
            })
        });
    }
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
    targets = bench_replay, bench_llrp_pipeline
}
criterion_main!(benches);
