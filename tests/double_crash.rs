//! Double-crash equivalence: run → crash → recover → *resume logging* →
//! crash → recover must land on exactly the state of a never-crashed run.
//!
//! This is the end-to-end contract of `Durability::reopen`: the second
//! incarnation continues epoch numbering and batch naming strictly past
//! the recovered frontier, so the second recovery sees one continuous log
//! stream — no ghost records, no reused epochs, no lost tail.
//!
//! Determinism: a single worker applies a seeded transaction sequence
//! sequentially (no conflicts, no aborts), so the reference database (the
//! same sequence applied with no crash) is byte-for-byte comparable by
//! fingerprint.

mod common;

use common::{Log, LoggingWorker};
use pacman_core::recovery::{recover, RecoveryConfig, RecoveryScheme};
use pacman_core::runtime::ReplayMode;
use pacman_engine::{run_procedure_with_epoch, Database};
use pacman_wal::{Durability, DurabilityConfig};
use pacman_workloads::bank::Bank;
use pacman_workloads::smallbank::Smallbank;
use pacman_workloads::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const PHASE_TXNS: usize = 400;

fn durability_config(log: Log) -> DurabilityConfig {
    DurabilityConfig {
        scheme: log.scheme(),
        num_loggers: 2,
        epoch_interval: Duration::from_millis(2),
        batch_epochs: 8,
        checkpoint_interval: None,
        checkpoint_threads: 1,
        fsync: true,
        ..Default::default()
    }
}

/// The deterministic transaction stream of one phase.
fn phase_txns(
    workload: &dyn Workload,
    phase: u64,
) -> Vec<(pacman_common::ProcId, pacman_sproc::Params)> {
    let mut rng = SmallRng::seed_from_u64(0xD0B1E ^ phase);
    (0..PHASE_TXNS)
        .map(|_| workload.next_txn(&mut rng))
        .collect()
}

/// Apply one phase through a live durability stack, sequentially, and
/// wait until everything is durable.
fn apply_phase(
    db: &Arc<Database>,
    workload: &dyn Workload,
    dur: &Arc<Durability>,
    phase: u64,
    log: Log,
) {
    let registry = workload.registry();
    let mut worker = LoggingWorker::writing(dur, 0, log);
    for (pid, params) in phase_txns(workload, phase) {
        worker.run(db, &registry, pid, &params);
    }
    dur.wait_durable(worker.retire());
}

/// The never-crashed reference: both phases applied back to back.
fn reference_fingerprint(workload: &dyn Workload) -> pacman_common::Fingerprint {
    let db = Arc::new(Database::new(workload.catalog()));
    workload.load(&db);
    let registry = workload.registry();
    for phase in [1, 2] {
        for (pid, params) in phase_txns(workload, phase) {
            let proc = registry.get(pid).expect("registered");
            run_procedure_with_epoch(&db, proc, &params, || phase)
                .expect("sequential txns never abort");
        }
    }
    db.fingerprint()
}

fn double_crash_roundtrip(workload: &dyn Workload, log: Log, recovery: RecoveryScheme) {
    let reference = reference_fingerprint(workload);
    let registry = workload.registry();
    let storage =
        pacman_storage::StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("dc"));

    // Incarnation 1: load, run phase 1, crash.
    let db1 = Arc::new(Database::new(workload.catalog()));
    workload.load(&db1);
    pacman_wal::run_checkpoint(&db1, &storage, 2).expect("initial checkpoint");
    let dur1 = Durability::start(Arc::clone(&db1), storage.clone(), durability_config(log));
    apply_phase(&db1, workload, &dur1, 1, log);
    dur1.crash();
    drop(db1);

    // Recovery 1 + reopen: the surviving log directory becomes live again.
    let out1 = recover(
        &storage,
        &workload.catalog(),
        &registry,
        &RecoveryConfig {
            scheme: recovery,
            threads: 4,
        },
    )
    .unwrap_or_else(|e| panic!("{} first recovery failed: {e}", recovery.label()));
    let db2 = out1.db;
    let (dur2, resume) =
        Durability::reopen(Arc::clone(&db2), storage.clone(), durability_config(log));
    assert!(
        resume.persisted_pepoch < u64::MAX,
        "pepoch file must hold a real epoch, not the sentinel"
    );
    assert_eq!(
        resume.truncated_records, 0,
        "clean crash leaves no ghost tail"
    );

    // Incarnation 2: run phase 2 against the recovered state, crash again.
    apply_phase(&db2, workload, &dur2, 2, log);
    let live = db2.fingerprint();
    assert_eq!(
        live,
        reference,
        "{}: live state after resume diverged before the second crash",
        recovery.label()
    );
    dur2.crash();
    drop(db2);

    // Recovery 2 must reproduce the never-crashed run.
    let out2 = recover(
        &storage,
        &workload.catalog(),
        &registry,
        &RecoveryConfig {
            scheme: recovery,
            threads: 4,
        },
    )
    .unwrap_or_else(|e| panic!("{} second recovery failed: {e}", recovery.label()));
    assert_eq!(
        out2.db.fingerprint(),
        reference,
        "{}: double-crash recovery diverged from the never-crashed run \
         (replayed {} txns)",
        recovery.label(),
        out2.report.txns
    );
}

fn schemes() -> [(Log, RecoveryScheme); 3] {
    let clr_p = RecoveryScheme::ClrP {
        mode: ReplayMode::Pipelined,
    };
    [
        (Log::Command, clr_p),
        (Log::Logical, RecoveryScheme::LlrP),
        (Log::Mixed, clr_p),
    ]
}

#[test]
fn bank_double_crash_equivalence_all_schemes() {
    let bank = Bank {
        accounts: 256,
        ..Bank::default()
    };
    for (log, rec) in schemes() {
        double_crash_roundtrip(&bank, log, rec);
    }
}

#[test]
fn smallbank_double_crash_equivalence_all_schemes() {
    let sb = Smallbank {
        accounts: 512,
        ..Smallbank::default()
    };
    for (log, rec) in schemes() {
        double_crash_roundtrip(&sb, log, rec);
    }
}

/// Double crash across a *chained* checkpoint history: each incarnation
/// interleaves transaction phases with incremental rounds, so the first
/// crash image carries ≥ 2 chained deltas and the second extends the
/// same chain. Both recoveries must fingerprint-match the never-crashed
/// run — the chain (not just the log) now carries part of the state.
#[test]
fn chained_delta_double_crash_equivalence() {
    let bank = Bank {
        accounts: 256,
        ..Bank::default()
    };
    for (log, rec) in [
        (Log::Logical, RecoveryScheme::LlrP),
        (
            Log::Mixed,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
        ),
    ] {
        // Never-crashed reference over phases 1..=5.
        let reference = {
            let db = Arc::new(Database::new(bank.catalog()));
            bank.load(&db);
            let registry = bank.registry();
            for phase in 1..=5u64 {
                for (pid, params) in phase_txns(&bank, phase) {
                    let proc = registry.get(pid).expect("registered");
                    run_procedure_with_epoch(&db, proc, &params, || phase)
                        .expect("sequential txns never abort");
                }
            }
            db.fingerprint()
        };
        let registry = bank.registry();
        let storage =
            pacman_storage::StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("dc"));

        // Incarnation 1: full, then phases interleaved with delta rounds —
        // the crash image carries a chain of one full + two deltas.
        let db1 = Arc::new(Database::new(bank.catalog()));
        bank.load(&db1);
        pacman_wal::run_checkpoint_incremental(&db1, &storage, 2, 8).unwrap();
        let dur1 = Durability::start(Arc::clone(&db1), storage.clone(), durability_config(log));
        apply_phase(&db1, &bank, &dur1, 1, log);
        let d1 = pacman_wal::run_checkpoint_incremental(&db1, &storage, 2, 8).unwrap();
        assert!(!d1.full);
        apply_phase(&db1, &bank, &dur1, 2, log);
        let d2 = pacman_wal::run_checkpoint_incremental(&db1, &storage, 2, 8).unwrap();
        assert!(!d2.full);
        apply_phase(&db1, &bank, &dur1, 3, log);
        dur1.crash();
        drop(db1);
        let chain = pacman_wal::read_chain(&storage).unwrap().unwrap();
        assert!(chain.len() >= 3, "expected ≥ 2 chained deltas");

        // Recovery 1 must see chain + log tail; resume extends the chain.
        let out1 = recover(
            &storage,
            &bank.catalog(),
            &registry,
            &RecoveryConfig {
                scheme: rec,
                threads: 4,
            },
        )
        .unwrap_or_else(|e| panic!("{} chained first recovery failed: {e}", rec.label()));
        assert!(out1.report.ckpt_chain_len >= 3);
        let db2 = out1.db;
        let (dur2, _resume) =
            Durability::reopen(Arc::clone(&db2), storage.clone(), durability_config(log));
        apply_phase(&db2, &bank, &dur2, 4, log);
        // A post-recovery delta chains onto the pre-crash history: the
        // dirty marks left by replay make exactly the replayed and fresh
        // shards re-scan.
        let d3 = pacman_wal::run_checkpoint_incremental(&db2, &storage, 2, 8).unwrap();
        assert!(!d3.full, "post-recovery round must extend the chain");
        apply_phase(&db2, &bank, &dur2, 5, log);
        let live = db2.fingerprint();
        assert_eq!(live, reference, "{}: live state diverged", rec.label());
        dur2.crash();
        drop(db2);

        let out2 = recover(
            &storage,
            &bank.catalog(),
            &registry,
            &RecoveryConfig {
                scheme: rec,
                threads: 4,
            },
        )
        .unwrap_or_else(|e| panic!("{} chained second recovery failed: {e}", rec.label()));
        assert_eq!(
            out2.db.fingerprint(),
            reference,
            "{}: chained-delta double crash diverged from the never-crashed run",
            rec.label()
        );
    }
}

/// The second incarnation may also start from an *online* recovery
/// session (instant restart): session → reopen → resume → crash →
/// recover must still match the reference.
#[test]
fn bank_double_crash_with_online_first_recovery() {
    let bank = Bank {
        accounts: 256,
        ..Bank::default()
    };
    let reference = reference_fingerprint(&bank);
    let registry = bank.registry();
    let storage =
        pacman_storage::StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("dc"));
    let scheme = RecoveryScheme::ClrP {
        mode: ReplayMode::Pipelined,
    };

    let db1 = Arc::new(Database::new(bank.catalog()));
    bank.load(&db1);
    pacman_wal::run_checkpoint(&db1, &storage, 2).unwrap();
    let dur1 = Durability::start(
        Arc::clone(&db1),
        storage.clone(),
        durability_config(Log::Command),
    );
    apply_phase(&db1, &bank, &dur1, 1, Log::Command);
    dur1.crash();
    drop(db1);

    let session = pacman_core::recovery::recover_online(
        &storage,
        &bank.catalog(),
        &registry,
        &RecoveryConfig { scheme, threads: 2 },
    )
    .unwrap();
    let db2 = Arc::clone(session.db());
    let (dur2, _resume) = Durability::reopen(
        Arc::clone(&db2),
        storage.clone(),
        durability_config(Log::Command),
    );
    session.pin_retention_on(&dur2);
    // Resume writing while (possibly) still replaying: admission gates
    // each transaction on its replayed footprint.
    let admission = session.admission();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut worker = LoggingWorker::new(&dur2, 0);
    for (pid, params) in phase_txns(&bank, 2) {
        assert!(admission.admit(pid, &params, &stop));
        worker.run(&db2, &registry, pid, &params);
    }
    dur2.wait_durable(worker.retire());
    session.wait().unwrap();
    assert_eq!(db2.fingerprint(), reference);
    dur2.crash();
    drop(db2);

    let out = recover(
        &storage,
        &bank.catalog(),
        &registry,
        &RecoveryConfig { scheme, threads: 4 },
    )
    .unwrap();
    assert_eq!(
        out.db.fingerprint(),
        reference,
        "online-first double crash diverged"
    );
}
