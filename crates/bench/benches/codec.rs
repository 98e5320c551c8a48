//! Criterion: log-record encode/decode throughput (the deserialization
//! cost inside "data loading", Fig. 20).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pacman_common::codec::Cursor;
use pacman_common::{Decoder, Encoder, ProcId, Row, TableId, Value};
use pacman_engine::{WriteKind, WriteRecord};
use pacman_wal::{LogPayload, TxnLogRecord};

fn command_record() -> TxnLogRecord {
    TxnLogRecord {
        ts: (7u64 << 40) | 12345,
        payload: LogPayload::Command {
            proc: ProcId::new(2),
            params: (0..12).map(Value::Int).collect::<Vec<_>>().into(),
        },
    }
}

fn logical_record(writes: usize) -> TxnLogRecord {
    TxnLogRecord {
        ts: (7u64 << 40) | 12345,
        payload: LogPayload::Writes {
            writes: (0..writes)
                .map(|i| WriteRecord {
                    table: TableId::new(2),
                    key: i as u64,
                    kind: WriteKind::Update,
                    after: Some(Row::from([
                        Value::Float(1.5),
                        Value::Int(i as i64),
                        Value::str("payload-payload-payload-payload"),
                    ])),
                    prev_ts: 7,
                })
                .collect(),
            physical: false,
            adhoc: false,
        },
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("codec");
    for (name, rec) in [
        ("command", command_record()),
        ("logical_4w", logical_record(4)),
        ("logical_20w", logical_record(20)),
    ] {
        let bytes = rec.to_bytes();
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        g.bench_function(format!("encode/{name}"), |b| {
            let mut buf = Vec::with_capacity(bytes.len());
            b.iter(|| {
                buf.clear();
                black_box(&rec).encode(&mut buf);
                black_box(buf.len())
            })
        });
        g.bench_function(format!("decode/{name}"), |b| {
            b.iter(|| {
                let mut cur = Cursor::new(black_box(&bytes));
                black_box(TxnLogRecord::decode(&mut cur).unwrap())
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
    targets = bench_codec
}
criterion_main!(benches);
