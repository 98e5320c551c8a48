//! Ad-hoc transaction unification (§4.5) and checkpoint + log interplay.

use pacman_core::recovery::{RecoveryConfig, RecoveryScheme};
use pacman_core::runtime::ReplayMode;
use pacman_repro::harness::{recover_crashed, System};
use pacman_wal::{DurabilityConfig, LogScheme};
use pacman_workloads::bank::Bank;
use pacman_workloads::smallbank::Smallbank;
use pacman_workloads::{DriverConfig, Workload};
use std::time::Duration;

fn durability(scheme: LogScheme, checkpoints: bool) -> DurabilityConfig {
    DurabilityConfig {
        scheme,
        num_loggers: 2,
        epoch_interval: Duration::from_millis(2),
        batch_epochs: 8,
        checkpoint_interval: checkpoints.then(|| Duration::from_millis(80)),
        checkpoint_threads: 2,
        fsync: true,
        ..Default::default()
    }
}

fn driver(adhoc: f64) -> DriverConfig {
    DriverConfig {
        workers: 4,
        duration: Duration::from_millis(350),
        adhoc_fraction: adhoc,
        seed: 77,
        max_retries: 10,
    }
}

/// Command logging with a mixed ad-hoc fraction, driven end to end: CLR
/// and every CLR-P mode, at one thread and at four, must unify the replay
/// of command records and tuple-level records in one schedule.
#[test]
fn adhoc_mixture_recovers_exactly() {
    let bank = Bank {
        accounts: 512,
        ..Bank::default()
    };
    let smallbank = Smallbank {
        accounts: 1024,
        ..Smallbank::default()
    };
    let mut configs = vec![RecoveryConfig {
        scheme: RecoveryScheme::Clr,
        threads: 1,
    }];
    for mode in [
        ReplayMode::PureStatic,
        ReplayMode::Synchronous,
        ReplayMode::Pipelined,
    ] {
        for threads in [1, 4] {
            let scheme = RecoveryScheme::ClrP { mode };
            configs.push(RecoveryConfig { scheme, threads });
        }
    }
    for workload in [&bank as &dyn Workload, &smallbank] {
        for fraction in [0.25, 0.5, 1.0] {
            let sys = System::boot_for_tests(workload, durability(LogScheme::Command, false));
            pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).unwrap();
            let result = sys.run(workload, &driver(fraction));
            assert!(result.committed > 50);
            let (storage, registry, catalog, reference) = sys.shutdown();
            let want = reference.fingerprint();
            for config in &configs {
                let out = recover_crashed(&storage, &catalog, &registry, config).unwrap();
                assert_eq!(
                    out.db.fingerprint(),
                    want,
                    "{} x{} diverged on {} at ad-hoc fraction {fraction}",
                    config.scheme.label(),
                    config.threads,
                    workload.name()
                );
            }
        }
    }
}

/// With 100% ad-hoc transactions the command log degenerates to a pure
/// logical log — and LLR-P can recover it too (§4.5 "in this case, PACMAN
/// works essentially the same as a pure logical log recovery scheme").
#[test]
fn all_adhoc_is_replayable_by_llr_p() {
    let bank = Bank {
        accounts: 256,
        ..Bank::default()
    };
    let sys = System::boot_for_tests(&bank, durability(LogScheme::Command, false));
    pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).unwrap();
    sys.run(&bank, &driver(1.0));
    let (storage, registry, catalog, reference) = sys.shutdown();
    let out = recover_crashed(
        &storage,
        &catalog,
        &registry,
        &RecoveryConfig {
            scheme: RecoveryScheme::LlrP,
            threads: 4,
        },
    )
    .unwrap();
    assert_eq!(out.db.fingerprint(), reference.fingerprint());
}

/// Periodic checkpointing truncates logs; recovery = last checkpoint + the
/// log suffix. State must still match exactly.
#[test]
fn mid_run_checkpoints_bound_recovery() {
    let sb = Smallbank {
        accounts: 1024,
        ..Smallbank::default()
    };
    let sys = System::boot_for_tests(&sb, durability(LogScheme::Command, true));
    pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).unwrap();
    let result = sys.run(
        &sb,
        &DriverConfig {
            duration: Duration::from_millis(500),
            ..driver(0.0)
        },
    );
    assert!(result.committed > 100);
    let (storage, registry, catalog, reference) = sys.shutdown();
    let out = recover_crashed(
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
    assert!(
        out.report.ckpt_ts > 0,
        "a mid-run checkpoint should have completed"
    );
    assert!(
        out.report.txns < result.committed,
        "checkpoint should have absorbed part of the log: replayed {} of {}",
        out.report.txns,
        result.committed
    );
    assert_eq!(out.db.fingerprint(), reference.fingerprint());
}

/// Tuple-level logging with mid-run checkpoints.
#[test]
fn checkpoints_with_logical_logging() {
    let bank = Bank {
        accounts: 512,
        ..Bank::default()
    };
    let sys = System::boot_for_tests(&bank, durability(LogScheme::Logical, true));
    pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).unwrap();
    sys.run(
        &bank,
        &DriverConfig {
            duration: Duration::from_millis(450),
            ..driver(0.0)
        },
    );
    let (storage, registry, catalog, reference) = sys.shutdown();
    for scheme in [RecoveryScheme::Llr { latch: true }, RecoveryScheme::LlrP] {
        let out = recover_crashed(
            &storage,
            &catalog,
            &registry,
            &RecoveryConfig { scheme, threads: 4 },
        )
        .unwrap();
        assert_eq!(
            out.db.fingerprint(),
            reference.fingerprint(),
            "{} diverged",
            scheme.label()
        );
    }
}

/// The report's stage timings are plausible: reload ≤ total per stage and
/// stages sum to ≤ end-to-end time.
#[test]
fn report_timings_are_consistent() {
    let bank = Bank::default();
    let sys = System::boot_for_tests(&bank, durability(LogScheme::Command, false));
    pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).unwrap();
    sys.run(&bank, &driver(0.0));
    let (storage, registry, catalog, _) = sys.shutdown();
    let out = recover_crashed(
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
    let r = &out.report;
    assert!(r.checkpoint_reload_secs <= r.checkpoint_total_secs + 1e-9);
    assert!(r.log_total_secs <= r.total_secs + 1e-9);
    assert!(r.checkpoint_total_secs + r.log_total_secs <= r.total_secs + 0.05);
    assert!(r.breakdown.total() > 0.0, "breakdown recorded nothing");
}
