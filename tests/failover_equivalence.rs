//! Failover equivalence: run → ship → kill primary → promote standby →
//! resume load must land on exactly the state of a never-failed
//! single-node run.
//!
//! This is the end-to-end contract of the replication subsystem: the ship
//! stream carries every group-commit-durable effect (sealed epochs behind
//! the pepoch frontier plus the bootstrap checkpoint chain), the standby's
//! continuous PACMAN apply reproduces the primary's commitment order, and
//! `Standby::promote` reopens the shipped log so the promoted node's own
//! commits extend one continuous history — which a later crash+recovery
//! must also reproduce.
//!
//! Determinism mirrors `double_crash.rs`: a single worker applies a
//! seeded transaction sequence sequentially and waits for durability
//! before the kill, so nothing acknowledged is lost and the reference
//! fingerprint is exact.

mod common;

use common::{Log, LoggingWorker};
use pacman_core::recovery::{recover, RecoveryConfig, RecoveryScheme};
use pacman_core::replication::{pump, start_standby, wire, StandbyConfig};
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

fn phase_txns(
    workload: &dyn Workload,
    phase: u64,
) -> Vec<(pacman_common::ProcId, pacman_sproc::Params)> {
    let mut rng = SmallRng::seed_from_u64(0xFA110 ^ phase);
    (0..PHASE_TXNS)
        .map(|_| workload.next_txn(&mut rng))
        .collect()
}

/// Apply one phase sequentially through a live durability stack and wait
/// until everything is durable (so the kill loses nothing acknowledged).
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

/// The never-failed reference: both phases applied back to back.
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

fn failover_roundtrip(workload: &dyn Workload, log: Log, apply_scheme: RecoveryScheme) {
    let reference = reference_fingerprint(workload);
    let registry = workload.registry();
    let primary_storage =
        pacman_storage::StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("prim"));

    // Primary: load, checkpoint the load (the standby's bootstrap image),
    // start durability, attach a standby over the wire.
    let db1 = Arc::new(Database::new(workload.catalog()));
    workload.load(&db1);
    pacman_wal::run_checkpoint(&db1, &primary_storage, 2).expect("initial checkpoint");
    let dur1 = Durability::start(
        Arc::clone(&db1),
        primary_storage.clone(),
        durability_config(log),
    );
    let shipper = dur1.shipper();
    let (tx, rx) = wire();
    let standby_storage =
        pacman_storage::StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("stby"));
    let standby = start_standby(
        standby_storage.clone(),
        &workload.catalog(),
        &registry,
        &StandbyConfig {
            scheme: apply_scheme,
            threads: 2,
        },
        rx,
    )
    .unwrap_or_else(|e| panic!("{}: standby start failed: {e}", apply_scheme.label()));

    // Phase 1 under live shipping: pump mid-phase and after durability.
    apply_phase(&db1, workload, &dur1, 1, log);
    pump(&shipper, dur1.pepoch(), &tx).expect("pump");
    assert!(
        dur1.shipped_bytes() > 0 && dur1.shipped_frames() > 0,
        "ship counters must move"
    );

    // Kill the primary. The devices survive; drain the sealed tail the
    // loggers persisted (failover's "epoch drain").
    dur1.crash();
    let final_pepoch = pacman_wal::pepoch::PepochHandle::read_persisted(primary_storage.disk(0));
    pump(&shipper, final_pepoch, &tx).expect("tail drain");
    drop(tx);
    drop(db1);

    assert!(
        standby.wait_caught_up(final_pepoch, Duration::from_secs(10)),
        "{}: standby never caught up (stats: {:?}, err: {:?})",
        apply_scheme.label(),
        standby.stats(),
        standby.error(),
    );
    let lag = standby.stats();
    assert_eq!(lag.lag_batches, 0);

    // Promote: the standby becomes the primary over its own shipped log.
    let promoted = standby
        .promote(durability_config(log))
        .unwrap_or_else(|e| panic!("{}: promote failed: {e}", apply_scheme.label()));
    assert_eq!(
        promoted.db.fingerprint(),
        {
            // Everything acknowledged pre-kill must be present.
            let db = Arc::new(Database::new(workload.catalog()));
            workload.load(&db);
            let reg = workload.registry();
            for (pid, params) in phase_txns(workload, 1) {
                let proc = reg.get(pid).unwrap();
                run_procedure_with_epoch(&db, proc, &params, || 1).unwrap();
            }
            db.fingerprint()
        },
        "{}: promoted state diverged from the pre-kill history",
        apply_scheme.label()
    );

    // Resume the load on the promoted primary: phase 2 extends the
    // shipped log through the reopened durability stack.
    apply_phase(&promoted.db, workload, &promoted.durability, 2, log);
    assert_eq!(
        promoted.db.fingerprint(),
        reference,
        "{}: post-failover state diverged from the never-failed run",
        apply_scheme.label()
    );

    // And the combined history is recoverable: crash the promoted node,
    // recover its storage offline, fingerprint must still match.
    promoted.durability.crash();
    let out = recover(
        &standby_storage,
        &workload.catalog(),
        &registry,
        &RecoveryConfig {
            scheme: apply_scheme,
            threads: 4,
        },
    )
    .unwrap_or_else(|e| {
        panic!(
            "{}: post-failover recovery failed: {e}",
            apply_scheme.label()
        )
    });
    assert_eq!(
        out.db.fingerprint(),
        reference,
        "{}: recovery of the promoted node's log diverged",
        apply_scheme.label()
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
fn bank_failover_equivalence_all_schemes() {
    let bank = Bank {
        accounts: 256,
        ..Bank::default()
    };
    for (log, rec) in schemes() {
        failover_roundtrip(&bank, log, rec);
    }
}

#[test]
fn smallbank_failover_equivalence_all_schemes() {
    let sb = Smallbank {
        accounts: 512,
        ..Smallbank::default()
    };
    for (log, rec) in schemes() {
        failover_roundtrip(&sb, log, rec);
    }
}
