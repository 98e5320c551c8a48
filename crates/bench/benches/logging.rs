//! Criterion: per-commit serialization cost of the three logging schemes
//! (the worker-side overhead §6.1.1 attributes tuple-level logging's
//! throughput gap to).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pacman_common::{Encoder, ProcId, Row, TableId, Value};
use pacman_engine::{WriteKind, WriteRecord};
use pacman_wal::{LogPayload, TxnLogRecord};

fn write_set(n: usize, payload: usize) -> Vec<WriteRecord> {
    let pad = "x".repeat(payload);
    (0..n)
        .map(|i| WriteRecord {
            table: TableId::new(1),
            key: i as u64,
            kind: WriteKind::Update,
            after: Some(Row::from([
                Value::Float(9.5),
                Value::Int(3),
                Value::str(&pad),
            ])),
            prev_ts: 42,
        })
        .collect()
}

fn bench_logging(c: &mut Criterion) {
    let writes = write_set(12, 200); // a NewOrder-sized write set
    let params: pacman_sproc::Params = (0..34).map(Value::Int).collect::<Vec<_>>().into();
    let mut g = c.benchmark_group("logging_serialize");
    let cases: Vec<(&str, TxnLogRecord)> = vec![
        (
            "CL",
            TxnLogRecord {
                ts: 1,
                payload: LogPayload::Command {
                    proc: ProcId::new(0),
                    params,
                },
            },
        ),
        (
            "LL",
            TxnLogRecord {
                ts: 1,
                payload: LogPayload::Writes {
                    writes: writes.clone(),
                    physical: false,
                    adhoc: false,
                },
            },
        ),
        (
            "PL",
            TxnLogRecord {
                ts: 1,
                payload: LogPayload::Writes {
                    writes,
                    physical: true,
                    adhoc: false,
                },
            },
        ),
    ];
    for (name, rec) in cases {
        let size = rec.to_bytes().len();
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(format!("{name}_{size}B"), |b| {
            let mut buf = Vec::with_capacity(size);
            b.iter(|| {
                buf.clear();
                black_box(&rec).encode(&mut buf);
                black_box(buf.len())
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
    targets = bench_logging
}
criterion_main!(benches);
