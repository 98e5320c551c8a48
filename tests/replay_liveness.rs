//! What replay-liveness pruning must not break.
//!
//! Command-log replay executes only the replay-live operations of a
//! procedure, so the dependency graph no longer has a block for every
//! table a transaction may touch. Two things depend on blocks for other
//! reasons and are checked here end to end:
//!
//! * tuple-level records (ad-hoc write sets and plain logical records)
//!   are dispatched to blocks — also when no procedure writes anything and
//!   the graph has no block of its own;
//! * online recovery admits a transaction once the blocks of its
//!   *footprint* are replayed — and the footprint of a read-only procedure
//!   is everything it reads, although replay runs none of it.

use pacman_common::{Encoder, ProcId, Row, TableId, Value};
use pacman_core::recovery::{recover, recover_online, GateMap, RecoveryConfig, RecoveryScheme};
use pacman_core::runtime::ReplayMode;
use pacman_core::static_analysis::GlobalGraph;
use pacman_engine::{run_procedure_with_epoch, Catalog, Database};
use pacman_sproc::{params, Expr, ProcBuilder, ProcRegistry};
use pacman_storage::{DiskConfig, StorageSet};
use pacman_wal::{LogPayload, TxnLogRecord};
use pacman_workloads::smallbank::{
    Smallbank, ACCOUNTS, BALANCE, CHECKING, DEPOSIT_CHECKING, SAVINGS, TRANSACT_SAVINGS,
};
use pacman_workloads::Workload;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

const PIPELINED: ReplayMode = ReplayMode::Pipelined;

/// Mark everything in the log durable.
fn seal(storage: &StorageSet) {
    storage
        .disk(0)
        .write_file("pepoch.log", &u64::MAX.to_le_bytes());
}

/// Ad-hoc and plain logical write records against registries whose graph
/// has no block of its own — no procedure at all, and procedures that only
/// read — recover to the pre-crash state under CLR and CLR-P.
#[test]
fn tuple_level_records_replay_without_any_writing_procedure() {
    const T: TableId = TableId::new(0);
    const U: TableId = TableId::new(1);
    let mut catalog = Catalog::new();
    catalog.add_table("t", 1);
    catalog.add_table("u", 1);

    let mut read_only = ProcRegistry::new();
    let mut b = ProcBuilder::new(ProcId::new(0), "Peek", 1);
    let _ = b.read(T, Expr::param(0), 0);
    let _ = b.read(U, Expr::param(0), 0);
    read_only.register(b.build().unwrap()).unwrap();

    for (what, registry) in [("empty", ProcRegistry::new()), ("read-only", read_only)] {
        let gdg = GlobalGraph::analyze(registry.all()).unwrap();
        assert_eq!(
            gdg.num_blocks(),
            1,
            "{what}: only the block that always exists"
        );
        assert!(gdg.blocks[0].slices.is_empty());

        let storage = StorageSet::for_tests();
        let reference = Arc::new(Database::new(catalog.clone()));
        for k in 0..8u64 {
            for t in [T, U] {
                reference
                    .seed_row(t, k, Row::from([Value::Int(0)]))
                    .unwrap();
            }
        }
        pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
        let mut buf = Vec::new();
        for i in 0..40u64 {
            // Update a T row and a U row; every fifth transaction deletes
            // the U row instead, the next one re-inserts it.
            let key = i % 8;
            let mut txn = reference.begin();
            let row = txn.read(T, key).unwrap();
            let v = row.col(0).as_int().unwrap();
            txn.write(T, key, row.with_col(0, Value::Int(v + 1)))
                .unwrap();
            match i % 5 {
                3 => txn.delete(U, key).unwrap(),
                4 => txn
                    .insert(U, (key + 7) % 8, Row::from([Value::Int(i as i64)]))
                    .unwrap(),
                _ => {}
            }
            let info = txn.commit_with(|| 1 + i / 10).unwrap();
            TxnLogRecord {
                ts: info.ts,
                payload: LogPayload::Writes {
                    writes: info.writes,
                    physical: false,
                    adhoc: i % 2 == 0,
                },
            }
            .encode(&mut buf);
            if (i + 1) % 10 == 0 {
                storage
                    .disk(0)
                    .append(&format!("log/00/{:010}", i / 10), &buf);
                buf.clear();
            }
        }
        seal(&storage);

        for scheme in [
            RecoveryScheme::Clr,
            RecoveryScheme::ClrP { mode: PIPELINED },
        ] {
            let out = recover(
                &storage,
                &catalog,
                &registry,
                &RecoveryConfig { scheme, threads: 2 },
            )
            .unwrap();
            assert_eq!(out.report.txns, 40, "{what}, {}", out.report.scheme);
            assert_eq!(out.report.applied_writes, 40);
            assert_eq!(
                out.db.fingerprint(),
                reference.fingerprint(),
                "{what}: {} dropped tuple-level records",
                out.report.scheme
            );
        }
    }
}

/// `Balance` replays nothing, yet must wait for everything it reads.
#[test]
fn balance_footprint_is_what_it_reads_not_what_replay_runs() {
    let registry = Smallbank::default().registry();
    let gdg = GlobalGraph::analyze(registry.all()).unwrap();
    assert!(gdg.templates_for(BALANCE).is_empty());
    let map = GateMap::blocks(&gdg, &registry);
    let footprint = map.footprint(BALANCE, &params([Value::Int(1)]));
    for table in [SAVINGS, CHECKING] {
        let owner = gdg.block_for_write(table).expect("written table").index();
        assert!(
            footprint.contains(&owner),
            "Balance admitted without block {owner} ({table}): {footprint:?}"
        );
    }
    // A table nobody writes is rebuilt where tuple-level writes to it land.
    assert!(footprint.contains(&gdg.install_block(ACCOUNTS).index()));
    // A writer's footprint still covers its replay blocks and their
    // ancestors — here everything TransactSavings replays is Savings.
    let ts = map.footprint(
        TRANSACT_SAVINGS,
        &params([Value::Int(1), Value::Float(1.0)]),
    );
    assert!(ts.contains(&gdg.block_for_write(SAVINGS).unwrap().index()));
}

/// An online CLR-P session that admits `Balance` while the log is still
/// being replayed: once admitted, the balances are the recovered ones.
#[test]
fn online_session_admits_balance_only_after_its_tables_are_replayed() {
    const CUSTOMER: i64 = 3;
    const BATCHES: u64 = 12;
    let bank = Smallbank {
        accounts: 16,
        ..Smallbank::default()
    };
    let registry = bank.registry();
    // A slow device: every batch takes a few milliseconds to load, so the
    // admission below really is requested mid-replay.
    let storage = StorageSet::identical(
        1,
        DiskConfig {
            read_bw: 2.0e6,
            ..DiskConfig::unthrottled("slow")
        },
    );
    let reference = Arc::new(Database::new(bank.catalog()));
    bank.load(&reference);
    pacman_wal::run_checkpoint(&reference, &storage, 1).unwrap();
    let mut buf = Vec::new();
    for batch in 0..BATCHES {
        for i in 0..200u64 {
            // Both of the customer's balances move in every batch, the
            // last one included.
            let proc = if i % 2 == 0 {
                TRANSACT_SAVINGS
            } else {
                DEPOSIT_CHECKING
            };
            let args = params([Value::Int(CUSTOMER), Value::Float(1.0)]);
            let def = registry.get(proc).unwrap();
            let info = run_procedure_with_epoch(&reference, def, &args, || 1 + batch).unwrap();
            TxnLogRecord {
                ts: info.ts,
                payload: LogPayload::Command { proc, params: args },
            }
            .encode(&mut buf);
        }
        storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
        buf.clear();
    }
    seal(&storage);
    let expected = |table| {
        let mut t = reference.begin();
        t.read(table, CUSTOMER as u64).unwrap().col(0).clone()
    };

    let session = recover_online(
        &storage,
        &bank.catalog(),
        &registry,
        &RecoveryConfig {
            scheme: RecoveryScheme::ClrP { mode: PIPELINED },
            threads: 2,
        },
    )
    .unwrap();
    let gate = Arc::clone(session.gate());
    assert!(
        gate.min_watermark() < BATCHES,
        "replay finished before the admission was requested; slow the disk further"
    );
    let args = params([Value::Int(CUSTOMER)]);
    assert!(session
        .admission()
        .admit(BALANCE, &args, &AtomicBool::new(false)));
    let gdg = GlobalGraph::analyze(registry.all()).unwrap();
    for table in [SAVINGS, CHECKING] {
        let block = gdg.block_for_write(table).unwrap().index();
        assert_eq!(gate.watermark(block), BATCHES, "admitted ahead of {table}");
        let mut t = session.db().begin();
        let got = t.read(table, CUSTOMER as u64).unwrap().col(0).clone();
        assert_eq!(got, expected(table), "{table} read ahead of its replay");
    }
    let out = session.wait().unwrap();
    assert_eq!(out.report.txns, BATCHES * 200);
    assert_eq!(out.db.fingerprint(), reference.fingerprint());
}
