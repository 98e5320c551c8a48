//! Execute the exact scenario of the paper's running example: a batch of
//! Transfer/Deposit transactions is logged, the system crashes, and the
//! recovery schedule (Fig. 6) replays it piece-set by piece-set.
//!
//! ```sh
//! cargo run --release --example bank_recovery
//! ```

use pacman_common::Value;
use pacman_core::dynamic::{build_piece_dag, DagScratch};
use pacman_core::recovery::{recover, RecoveryConfig, RecoveryScheme};
use pacman_core::runtime::ReplayMode;
use pacman_core::schedule::ExecutionSchedule;
use pacman_core::static_analysis::GlobalGraph;
use pacman_repro::harness::System;
use pacman_wal::{DurabilityConfig, LogScheme, WorkerLogBuffer};
use pacman_workloads::bank::{Bank, DEPOSIT, TRANSFER};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let bank = Bank {
        accounts: 16,
        ..Bank::default()
    };
    let sys = System::boot_for_tests(
        &bank,
        DurabilityConfig {
            scheme: LogScheme::Command,
            num_loggers: 1,
            epoch_interval: Duration::from_millis(1),
            batch_epochs: 4,
            ..DurabilityConfig::default()
        },
    );
    pacman_wal::run_checkpoint(&sys.db, &sys.storage, 1).unwrap();

    // The Fig. 6 batch: Txn1 = Transfer, Txn2 = Deposit, Txn3 = Transfer.
    // Each commit stages its record in the worker's epoch arena; the arena
    // goes to the logger before the worker acknowledges a newer epoch, and
    // before it retires.
    let dur = &sys.durability;
    let worker = dur.register_worker();
    let mut arena = WorkerLogBuffer::new();
    let em = Arc::clone(dur.epoch_manager());
    let txns: Vec<(pacman_common::ProcId, pacman_sproc::Params)> = vec![
        (TRANSFER, vec![Value::Int(0), Value::Int(25)].into()),
        (
            DEPOSIT,
            vec![Value::Int(2), Value::Int(9_999), Value::Int(1)].into(),
        ),
        (TRANSFER, vec![Value::Int(2), Value::Int(10)].into()),
    ];
    let mut last_epoch = 0;
    for (pid, params) in &txns {
        let e = worker.peek();
        dur.flush_before_ack(&mut arena, 0, e);
        worker.enter_at(e);
        let proc = sys.registry.get(*pid).unwrap();
        let info = pacman_engine::run_procedure_with_epoch(&sys.db, proc, params, || em.current())
            .expect("commit");
        dur.log_commit_buffered(&mut arena, 0, &info, *pid, params, false);
        last_epoch = pacman_common::clock::epoch_of(info.ts);
        println!("committed {} at ts {:#x}", proc.name, info.ts);
    }
    dur.flush_worker(&mut arena, 0);
    worker.retire();
    dur.wait_durable(last_epoch);

    let before = sys.db.fingerprint();
    let (storage, registry, catalog) = sys.crash();

    // Show the execution schedule PACMAN builds for the batch.
    let gdg = GlobalGraph::analyze(registry.all()).unwrap();
    let inventory = pacman_core::recovery::LogInventory::scan(&storage);
    for batch_idx in inventory.batches() {
        let batch = pacman_core::recovery::read_merged_batch_view(
            &storage,
            &inventory,
            batch_idx,
            u64::MAX,
            1,
        )
        .unwrap();
        if batch.is_empty() {
            continue;
        }
        let schedule = ExecutionSchedule::build(&gdg, &registry, &batch).unwrap();
        println!(
            "\nbatch {batch_idx}: {} txns -> piece-sets {:?} (Fig. 6 shape)",
            batch.len(),
            schedule.piece_counts()
        );
        let mut scratch = DagScratch::default();
        for set in &schedule.piece_sets {
            if set.pieces.is_empty() {
                continue;
            }
            let dag = build_piece_dag(set, &schedule.txns, &mut scratch);
            println!(
                "  PS{} ({} pieces, {} immediately runnable after dynamic analysis)",
                set.block.0,
                set.pieces.len(),
                dag.initial_ready.len()
            );
        }
    }

    // And actually recover.
    let out = recover(
        &storage,
        &catalog,
        &registry,
        &RecoveryConfig {
            scheme: RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            threads: 4,
        },
    )
    .unwrap();
    println!("\nreplayed {} txns", out.report.txns);
    println!("pre-crash fingerprint  {before}");
    println!("recovered fingerprint  {}", out.db.fingerprint());
    assert_eq!(before, out.db.fingerprint(), "recovery must be exact");
    println!("fingerprints match");
}
