//! Criterion: execution-schedule construction and dynamic analysis
//! (conflict-chain DAG) cost per batch — the "parameter checking" of
//! Fig. 20.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pacman_common::{Encoder, Value};
use pacman_core::dynamic::{build_piece_dag, DagScratch};
use pacman_core::schedule::ExecutionSchedule;
use pacman_core::static_analysis::GlobalGraph;
use pacman_wal::{merged_view_from_buffers, LogPayload, MergedBatchView, TxnLogRecord};
use pacman_workloads::bank::{Bank, TRANSFER};
use pacman_workloads::Workload;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::Arc;

fn batch(n: usize, accounts: u64) -> MergedBatchView {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut log = Vec::new();
    for i in 0..n {
        TxnLogRecord {
            ts: (1u64 << 40) | (i as u64 + 1),
            payload: LogPayload::Command {
                proc: TRANSFER,
                params: vec![
                    Value::Int(rng.gen_range(0..accounts) as i64 & !1),
                    Value::Int(5),
                ]
                .into(),
            },
        }
        .encode(&mut log);
    }
    merged_view_from_buffers(0, vec![log.into()], u64::MAX, 0).unwrap()
}

fn bench_schedule(c: &mut Criterion) {
    let bank = Bank::default();
    let reg = bank.registry();
    let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
    let mut g = c.benchmark_group("schedule");
    for n in [64usize, 512] {
        let b = batch(n, 1024);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("build/{n}txn"), |bench| {
            bench.iter(|| black_box(ExecutionSchedule::build(&gdg, &reg, &b).unwrap()))
        });
        let schedule = ExecutionSchedule::build(&gdg, &reg, &b).unwrap();
        // Bind the Bα outputs so Bβ's key resolution succeeds, as it would
        // after the upstream piece-set ran.
        for (i, ctx) in schedule.txns.iter().enumerate() {
            ctx.vars
                .set(pacman_common::VarId::new(0), Value::Int((i % 7) as i64));
        }
        // One scratch per worker in the runtime: reused across piece-sets.
        let mut scratch = DagScratch::default();
        g.bench_function(format!("dynamic_dag/{n}txn"), |bench| {
            bench.iter(|| {
                black_box(build_piece_dag(
                    &schedule.piece_sets[1],
                    &schedule.txns,
                    &mut scratch,
                ))
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
    targets = bench_schedule
}
criterion_main!(benches);
