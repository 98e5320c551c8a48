//! Crash in the middle of a checkpoint: partially written part files plus
//! a manifest that still names the *previous* complete checkpoint must
//! recover the previous checkpoint + log tail — never the torn snapshot.
//!
//! The checkpointer's protocol makes this work: part files are written
//! first, the manifest is atomically replaced last. A crash at any point
//! in between leaves (a) the old manifest in effect and (b) orphan part
//! files under a newer timestamp directory that nothing references.

mod common;

use common::LoggingWorker;
use pacman_common::Encoder;
use pacman_core::recovery::{recover, RecoveryConfig, RecoveryScheme};
use pacman_core::runtime::ReplayMode;
use pacman_engine::Database;
use pacman_wal::checkpoint::{manifest_name, part_name, read_chain, CheckpointManifest};
use pacman_wal::{run_checkpoint_incremental, Durability, DurabilityConfig, LogScheme};
use pacman_workloads::bank::Bank;
use pacman_workloads::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn run_txns(db: &Arc<Database>, bank: &Bank, dur: &Arc<Durability>, seed: u64, n: usize) {
    let registry = bank.registry();
    let mut worker = LoggingWorker::new(dur, 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..n {
        let (pid, params) = bank.next_txn(&mut rng);
        worker.run(db, &registry, pid, &params);
    }
    dur.wait_durable(worker.retire());
}

/// Build a crashed image where a second checkpoint was torn mid-write:
/// some part files exist under a newer snapshot timestamp, but the
/// manifest still names checkpoint 1.
fn torn_checkpoint_image() -> (
    Bank,
    pacman_storage::StorageSet,
    pacman_common::Fingerprint,
    usize,
) {
    let bank = Bank {
        accounts: 256,
        ..Bank::default()
    };
    let storage =
        pacman_storage::StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("mc"));
    let db = Arc::new(Database::new(bank.catalog()));
    bank.load(&db);
    let seed_tuples = db.total_tuples();
    // Checkpoint 1 completes normally.
    pacman_wal::run_checkpoint(&db, &storage, 2).unwrap();
    let dur = Durability::start(
        Arc::clone(&db),
        storage.clone(),
        DurabilityConfig {
            scheme: LogScheme::Command,
            num_loggers: 2,
            epoch_interval: Duration::from_millis(2),
            batch_epochs: 8,
            checkpoint_interval: None, // checkpoint 2 is hand-torn below
            checkpoint_threads: 1,
            fsync: true,
            ..Default::default()
        },
    );
    run_txns(&db, &bank, &dur, 99, 500);

    // Checkpoint 2 "starts": a couple of part files land under the
    // current snapshot timestamp — then the crash hits before the
    // manifest is replaced. Write garbage and half-valid content; nothing
    // may reference or decode it.
    let ts2 = db.clock().peek();
    storage
        .disk(0)
        .append(&part_name(ts2, 0, 0), &[0xDE, 0xAD, 0xBE, 0xEF]);
    storage.disk(1).append(&part_name(ts2, 1, 0), &[0x01]);

    dur.crash();
    let reference = db.fingerprint();
    (bank, storage, reference, seed_tuples)
}

#[test]
fn torn_second_checkpoint_recovers_the_first() {
    let (bank, storage, reference, seed_tuples) = torn_checkpoint_image();
    for scheme in [
        RecoveryScheme::Clr,
        RecoveryScheme::ClrP {
            mode: ReplayMode::Pipelined,
        },
    ] {
        let out = recover(
            &storage,
            &bank.catalog(),
            &bank.registry(),
            &RecoveryConfig { scheme, threads: 4 },
        )
        .unwrap_or_else(|e| panic!("{} failed on torn checkpoint: {e}", scheme.label()));
        assert_eq!(
            out.db.fingerprint(),
            reference,
            "{}: torn checkpoint corrupted recovery",
            scheme.label()
        );
        // The base image really was checkpoint 1 (the seed load), so the
        // run's transactions were replayed from the log, not the torn
        // snapshot.
        assert!(out.report.txns > 0, "log tail was not replayed");
        assert_eq!(out.report.checkpoint_tuples as usize, seed_tuples);
    }
}

#[test]
fn torn_first_checkpoint_recovers_from_log_alone() {
    // No checkpoint ever completed: part files exist but no manifest.
    let bank = Bank {
        accounts: 128,
        ..Bank::default()
    };
    let storage =
        pacman_storage::StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("mc"));
    let db = Arc::new(Database::new(bank.catalog()));
    bank.load(&db);
    let dur = Durability::start(
        Arc::clone(&db),
        storage.clone(),
        DurabilityConfig {
            scheme: LogScheme::Logical, // after-images: replay needs no base
            num_loggers: 2,
            epoch_interval: Duration::from_millis(2),
            batch_epochs: 8,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            fsync: true,
            ..Default::default()
        },
    );
    run_txns(&db, &bank, &dur, 7, 300);
    let ts = db.clock().peek();
    storage.disk(0).append(&part_name(ts, 0, 0), &[0xFF; 16]);
    dur.crash();

    let out = recover(
        &storage,
        &bank.catalog(),
        &bank.registry(),
        &RecoveryConfig {
            scheme: RecoveryScheme::LlrP,
            threads: 4,
        },
    )
    .unwrap();
    assert_eq!(
        out.report.checkpoint_tuples, 0,
        "no manifest, no base image"
    );
    assert!(out.report.txns > 0);
    // Every logged after-image landed; untouched accounts are absent
    // (logical replay without a checkpoint restores only logged tuples),
    // so compare per-key against the live pre-crash state.
    for table in out.db.tables() {
        table.for_each_newest(|key, _ts, row| {
            let live = db
                .table(table.meta().id)
                .unwrap()
                .get(key)
                .expect("recovered key exists live");
            let (_, live_row) = live.newest();
            assert_eq!(&live_row.unwrap(), row, "key {key} diverged");
        });
    }
}

/// Crash in the middle of an *incremental* round: the torn delta's parts
/// (and even its per-timestamp manifest) exist on disk, but the tip was
/// never cut over — the previous chain (full + one completed delta) must
/// win, and both tuple-level and command recovery stay exact.
#[test]
fn torn_incremental_delta_recovers_the_previous_chain() {
    let bank = Bank {
        accounts: 256,
        ..Bank::default()
    };
    let storage =
        pacman_storage::StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("mc"));
    for (log, schemes) in [
        (LogScheme::Logical, vec![RecoveryScheme::LlrP]),
        (
            LogScheme::Command,
            vec![
                RecoveryScheme::Clr,
                RecoveryScheme::ClrP {
                    mode: ReplayMode::Pipelined,
                },
            ],
        ),
    ] {
        let storage = storage.clone();
        // Fresh directory per log scheme.
        for disk in storage.disks() {
            for name in disk.list("") {
                disk.delete(&name);
            }
        }
        let db = Arc::new(Database::new(bank.catalog()));
        bank.load(&db);
        // Chain root.
        run_checkpoint_incremental(&db, &storage, 2, 8).unwrap();
        let dur = Durability::start(
            Arc::clone(&db),
            storage.clone(),
            DurabilityConfig {
                scheme: log,
                num_loggers: 2,
                epoch_interval: Duration::from_millis(2),
                batch_epochs: 8,
                checkpoint_interval: None, // rounds are hand-run below
                checkpoint_threads: 1,
                fsync: true,
                ..Default::default()
            },
        );
        run_txns(&db, &bank, &dur, 11, 250);
        // One *completed* delta extends the chain.
        let d1 = run_checkpoint_incremental(&db, &storage, 2, 8).unwrap();
        assert!(!d1.full, "second round must be a delta");
        run_txns(&db, &bank, &dur, 22, 250);
        // A second delta tears: parts + per-ts manifest land, tip does not.
        let torn_ts = db.clock().peek();
        storage
            .disk(0)
            .append(&part_name(torn_ts, 0, 0), &[0xDE, 0xAD, 0xBE, 0xEF]);
        storage.disk(0).write_file(
            &manifest_name(torn_ts),
            &CheckpointManifest {
                ts: torn_ts,
                base_ts: d1.ts,
                parts: vec![(0, 0, 0)],
            }
            .to_bytes(),
        );
        dur.crash();
        let reference = db.fingerprint();

        let chain = read_chain(&storage).unwrap().unwrap();
        assert_eq!(chain.ts(), d1.ts, "torn delta must not become the tip");
        assert_eq!(chain.len(), 2, "chain = full + completed delta");

        for scheme in &schemes {
            let out = recover(
                &storage,
                &bank.catalog(),
                &bank.registry(),
                &RecoveryConfig {
                    scheme: *scheme,
                    threads: 4,
                },
            )
            .unwrap_or_else(|e| panic!("{} failed on torn delta: {e}", scheme.label()));
            assert_eq!(
                out.db.fingerprint(),
                reference,
                "{}: torn delta corrupted recovery",
                scheme.label()
            );
            assert_eq!(out.report.ckpt_chain_len, 2);
            assert_eq!(out.report.ckpt_ts, d1.ts);
            assert!(
                out.report.txns > 0,
                "the post-delta log tail must have replayed"
            );
        }
    }
}

/// A torn checkpoint must also not confuse a *resumed* (reopened) log:
/// the orphan parts are ignored, logging resumes, and a later recovery is
/// exact.
#[test]
fn torn_checkpoint_then_reopen_then_crash() {
    let (bank, storage, reference_p1, _seed) = torn_checkpoint_image();
    let out = recover(
        &storage,
        &bank.catalog(),
        &bank.registry(),
        &RecoveryConfig {
            scheme: RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            threads: 4,
        },
    )
    .unwrap();
    assert_eq!(out.db.fingerprint(), reference_p1);
    let db = out.db;
    let (dur, _info) = Durability::reopen(
        Arc::clone(&db),
        storage.clone(),
        DurabilityConfig {
            scheme: LogScheme::Command,
            num_loggers: 2,
            epoch_interval: Duration::from_millis(2),
            batch_epochs: 8,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            fsync: true,
            ..Default::default()
        },
    );
    run_txns(&db, &bank, &dur, 1234, 200);
    let live = db.fingerprint();
    dur.crash();
    let out2 = recover(
        &storage,
        &bank.catalog(),
        &bank.registry(),
        &RecoveryConfig {
            scheme: RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            threads: 4,
        },
    )
    .unwrap();
    assert_eq!(out2.db.fingerprint(), live, "post-reopen crash diverged");
}
