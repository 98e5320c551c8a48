//! End-to-end crash-recovery equivalence.
//!
//! For every logging scheme and matching recovery scheme: boot a workload,
//! checkpoint the initial load, run concurrent transactions through group
//! commit, stop, recover — and require the recovered database fingerprint
//! to equal the pre-crash one (graceful stop) or to agree across schemes
//! (hard crash, where only the durable prefix is recoverable).

use pacman_core::recovery::{RecoveryConfig, RecoveryScheme};
use pacman_core::runtime::ReplayMode;
use pacman_repro::harness::{recover_crashed, System};
use pacman_wal::{DurabilityConfig, LogScheme};
use pacman_workloads::bank::Bank;
use pacman_workloads::smallbank::Smallbank;
use pacman_workloads::tpcc::{Tpcc, TpccConfig};
use pacman_workloads::{DriverConfig, Workload};
use std::time::Duration;

fn durability(scheme: LogScheme) -> DurabilityConfig {
    DurabilityConfig {
        scheme,
        num_loggers: 2,
        epoch_interval: Duration::from_millis(2),
        batch_epochs: 8,
        checkpoint_interval: None,
        checkpoint_threads: 2,
        fsync: true,
        ..Default::default()
    }
}

fn driver() -> DriverConfig {
    DriverConfig {
        workers: 4,
        duration: Duration::from_millis(350),
        adhoc_fraction: 0.0,
        seed: 2024,
        max_retries: 10,
    }
}

/// Run a workload to a graceful shutdown and verify that every recovery
/// scheme compatible with `log_scheme` reproduces the pre-crash state.
fn graceful_roundtrip(
    workload: &dyn Workload,
    log_scheme: LogScheme,
    recovery_schemes: &[RecoveryScheme],
) {
    let sys = System::boot_for_tests(workload, durability(log_scheme));
    pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).expect("initial checkpoint");
    let result = sys.run(workload, &driver());
    assert!(
        result.committed > 50,
        "too few commits: {}",
        result.committed
    );
    let (storage, registry, catalog, reference) = sys.shutdown();
    let want = reference.fingerprint();

    for &scheme in recovery_schemes {
        for threads in [1usize, 4] {
            let out = recover_crashed(
                &storage,
                &catalog,
                &registry,
                &RecoveryConfig { scheme, threads },
            )
            .unwrap_or_else(|e| panic!("{} recovery failed: {e}", scheme.label()));
            assert_eq!(
                out.db.fingerprint(),
                want,
                "{} with {} threads diverged from the pre-crash state \
                 (replayed {} txns)",
                scheme.label(),
                threads,
                out.report.txns
            );
        }
    }
}

#[test]
fn bank_command_logging_all_recovery_modes() {
    graceful_roundtrip(
        &Bank {
            accounts: 512,
            ..Bank::default()
        },
        LogScheme::Command,
        &[
            RecoveryScheme::Clr,
            RecoveryScheme::ClrP {
                mode: ReplayMode::PureStatic,
            },
            RecoveryScheme::ClrP {
                mode: ReplayMode::Synchronous,
            },
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
        ],
    );
}

#[test]
fn bank_logical_logging_llr_and_llr_p() {
    graceful_roundtrip(
        &Bank {
            accounts: 512,
            ..Bank::default()
        },
        LogScheme::Logical,
        &[
            RecoveryScheme::Llr { latch: true },
            RecoveryScheme::Llr { latch: false },
            RecoveryScheme::LlrP,
        ],
    );
}

#[test]
fn bank_physical_logging_plr() {
    graceful_roundtrip(
        &Bank {
            accounts: 512,
            ..Bank::default()
        },
        LogScheme::Physical,
        &[
            RecoveryScheme::Plr { latch: true },
            RecoveryScheme::Plr { latch: false },
        ],
    );
}

#[test]
fn smallbank_command_logging() {
    graceful_roundtrip(
        &Smallbank {
            accounts: 1024,
            ..Smallbank::default()
        },
        LogScheme::Command,
        &[
            RecoveryScheme::Clr,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
        ],
    );
}

#[test]
fn smallbank_logical_logging() {
    graceful_roundtrip(
        &Smallbank {
            accounts: 1024,
            ..Smallbank::default()
        },
        LogScheme::Logical,
        &[RecoveryScheme::Llr { latch: true }, RecoveryScheme::LlrP],
    );
}

#[test]
fn tpcc_command_logging() {
    graceful_roundtrip(
        &Tpcc::new(TpccConfig::small()),
        LogScheme::Command,
        &[
            RecoveryScheme::Clr,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            RecoveryScheme::ClrP {
                mode: ReplayMode::Synchronous,
            },
        ],
    );
}

#[test]
fn tpcc_physical_and_logical() {
    graceful_roundtrip(
        &Tpcc::new(TpccConfig::small()),
        LogScheme::Physical,
        &[RecoveryScheme::Plr { latch: true }],
    );
    graceful_roundtrip(
        &Tpcc::new(TpccConfig::small()),
        LogScheme::Logical,
        &[RecoveryScheme::Llr { latch: true }, RecoveryScheme::LlrP],
    );
}

/// From the *same* crash point — one serial history, logged three ways
/// (command / logical / command with ad-hoc write sets), truncated at the
/// same durability frontier — CLR-P on both command logs and LLR-P recover
/// byte-identical table states.
#[test]
fn clr_p_llr_p_byte_identical_from_same_crash_point() {
    use pacman_common::{Encoder, Fingerprint};
    use pacman_engine::Database;
    use pacman_sproc::Params;
    use pacman_wal::{LogPayload, TxnLogRecord};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    let scenarios: Vec<Box<dyn Workload>> = vec![
        Box::new(Bank {
            accounts: 64,
            ..Bank::default()
        }),
        Box::new(Smallbank {
            accounts: 128,
            ..Smallbank::default()
        }),
    ];
    for workload in scenarios {
        let registry = workload.registry();
        let catalog = workload.catalog();
        let db = Database::new(catalog.clone());
        workload.load(&db);

        // One deterministic serial history. Epochs advance every 8
        // commits; the crash point is the durability frontier `pepoch`,
        // which truncates the log mid-history for every scheme alike.
        const TXNS: u64 = 96;
        const PER_EPOCH: u64 = 8;
        const PEPOCH: u64 = 1 + (TXNS / PER_EPOCH) / 2; // half the history
        let mut rng = SmallRng::seed_from_u64(0xADA97);
        let mut cl_log = Vec::new();
        let mut ll_log = Vec::new();
        let mut mixed_log = Vec::new();
        let mut reference: Option<Fingerprint> = None;
        let mut i = 0u64;
        while i < TXNS {
            let (pid, params): (pacman_common::ProcId, Params) = workload.next_txn(&mut rng);
            let proc = registry.get(pid).unwrap();
            let epoch = 1 + i / PER_EPOCH;
            let info = match pacman_engine::run_procedure_with_epoch(&db, proc, &params, || epoch) {
                Ok(info) => info,
                Err(pacman_common::Error::TxnAborted(_)) => continue,
                Err(e) => panic!("history execution failed: {e}"),
            };
            if info.writes.is_empty() {
                continue; // read-only: not logged under any scheme
            }
            i += 1;
            TxnLogRecord {
                ts: info.ts,
                payload: LogPayload::Command {
                    proc: pid,
                    params: params.clone(),
                },
            }
            .encode(&mut cl_log);
            TxnLogRecord {
                ts: info.ts,
                payload: LogPayload::Writes {
                    writes: info.writes.clone(),
                    physical: false,
                    adhoc: false,
                },
            }
            .encode(&mut ll_log);
            // Mixed command log: every third transaction is ad-hoc and
            // carries its write set (§4.5); the rest stay commands.
            let payload = if i.is_multiple_of(3) {
                LogPayload::Writes {
                    writes: info.writes.clone(),
                    physical: false,
                    adhoc: true,
                }
            } else {
                LogPayload::Command {
                    proc: pid,
                    params: params.clone(),
                }
            };
            TxnLogRecord {
                ts: info.ts,
                payload,
            }
            .encode(&mut mixed_log);

            if epoch == PEPOCH && i.is_multiple_of(PER_EPOCH) {
                // State at the crash point: everything with epoch <= PEPOCH.
                reference = Some(db.fingerprint());
            }
        }
        let want = reference.expect("crash point inside the history");

        // Each scheme recovers from the same checkpointed base + its log,
        // truncated at the same pepoch.
        let run = |bytes: &[u8], scheme: RecoveryScheme| -> Fingerprint {
            let storage = pacman_storage::StorageSet::for_tests();
            let base = std::sync::Arc::new(Database::new(catalog.clone()));
            workload.load(&base);
            pacman_wal::run_checkpoint(&base, &storage, 1).unwrap();
            storage.disk(0).append("log/00/0000000000", bytes);
            storage
                .disk(0)
                .write_file("pepoch.log", &PEPOCH.to_le_bytes());
            let out = recover_crashed(
                &storage,
                &catalog,
                &registry,
                &RecoveryConfig { scheme, threads: 4 },
            )
            .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()));
            out.db.fingerprint()
        };

        let clr_p = run(
            &cl_log,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
        );
        let llr_p = run(&ll_log, RecoveryScheme::LlrP);
        let mixed = run(
            &mixed_log,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
        );
        assert_eq!(clr_p, want, "CLR-P diverged on {}", workload.name());
        assert_eq!(llr_p, want, "LLR-P diverged on {}", workload.name());
        assert_eq!(
            mixed,
            want,
            "CLR-P (ad-hoc mix) diverged on {}",
            workload.name()
        );
    }
}

/// After a *hard crash*, only the durable prefix is recoverable; CLR and
/// CLR-P must still agree exactly with each other.
#[test]
fn hard_crash_schemes_agree() {
    let bank = Bank {
        accounts: 512,
        ..Bank::default()
    };
    let sys = System::boot_for_tests(&bank, durability(LogScheme::Command));
    pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).unwrap();
    let result = sys.run(&bank, &driver());
    assert!(result.committed > 50);
    let (storage, registry, catalog) = sys.crash();

    let a = recover_crashed(
        &storage,
        &catalog,
        &registry,
        &RecoveryConfig {
            scheme: RecoveryScheme::Clr,
            threads: 1,
        },
    )
    .unwrap();
    let b = recover_crashed(
        &storage,
        &catalog,
        &registry,
        &RecoveryConfig {
            scheme: RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            threads: 6,
        },
    )
    .unwrap();
    assert_eq!(a.report.txns, b.report.txns);
    assert_eq!(a.db.fingerprint(), b.db.fingerprint());
    // The durable prefix is real: something was replayed.
    assert!(a.report.txns > 0, "no durable transactions after crash");
}

/// Recovered databases accept new transactions (the clock resumed past the
/// replayed timestamps).
#[test]
fn recovered_database_is_writable() {
    let bank = Bank {
        accounts: 128,
        ..Bank::default()
    };
    let sys = System::boot_for_tests(&bank, durability(LogScheme::Command));
    pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).unwrap();
    sys.run(&bank, &driver());
    let (storage, registry, catalog, _pre) = sys.shutdown();
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
    let proc = registry.get(pacman_workloads::bank::TRANSFER).unwrap();
    let info = pacman_engine::run_procedure(
        &out.db,
        proc,
        &pacman_sproc::params([pacman_common::Value::Int(0), pacman_common::Value::Int(5)]),
    )
    .expect("post-recovery transaction");
    assert!(
        info.ts > out.report.ckpt_ts,
        "fresh commit must land after everything recovered"
    );
}
