//! Differential test of tuple-at-a-time replay.
//!
//! Random single-piece procedures — a handful of ops over four keys, so
//! that tuples interleave and repeat — run through the plan interpreter
//! (compiled register code) over the [`ReplayAccess`] tuple cursor, with
//! and without keys taken from parameter checking, and through a naive
//! **op-at-a-time** reference kept here: every op walks its own guard and
//! key expression trees, looks its tuple up, and installs its own full-row
//! image at once. Both must agree on the executed-op count or the error,
//! on what a downstream plan can observe of the variables, and (when the
//! piece succeeds) on the table fingerprint.
//!
//! Each procedure is also cut at a random op into two plans that run one
//! after the other over one variable store, the way two pieces of a
//! transaction do: the first publishes exactly the variables the second
//! uses, the second imports them, and the pair must agree with the
//! reference run over the same two op sets.
//!
//! A failed piece is the one place the two legitimately differ: the
//! reference has installed the failing tuple's earlier writes, the cursor
//! drops them. Recovery fails as a whole there, so nobody sees either.
//!
//! The same generator drives a second differential test: replaying only a
//! procedure's **replay-live** operations — serially, through CLR, and
//! through CLR-P at one to three threads — must leave the database the
//! full procedure leaves.

mod common;

use common::{
    all_newest, build, naive_execute, op_strategy, piece_params, seeded_db, OpGen, OpSpec, MISSING,
    T, TOMBSTONE, U,
};
use pacman_common::clock::epoch_floor;
use pacman_common::Encoder;
use pacman_common::{Error, Key, Result, Row, TableId, Timestamp, Value, VarId};
use pacman_core::metrics::RecoveryMetrics;
use pacman_core::recovery::{clr, clr_p, LogInventory, UnitSource};
use pacman_core::runtime::ReplayMode;
use pacman_core::static_analysis::GlobalGraph;
use pacman_engine::{execute_plan, DataAccess, Database, ExecFrame, ReplayAccess};
use pacman_sproc::{resolve_accesses, Params, ProcedureDef, VarStore};
use pacman_sproc::{PiecePlan, ProcRegistry};
use pacman_storage::StorageSet;
use pacman_wal::{LogPayload, TxnLogRecord};
use proptest::prelude::*;
use std::sync::Arc;

const TS: Timestamp = 77;

// ---------------------------------------------------------------------
// The op-at-a-time reference.
// ---------------------------------------------------------------------

/// Replay access that finishes every operation on its own: one index
/// lookup, one `newest()`, one full-row copy and one install per op.
struct NaiveAccess<'a> {
    db: &'a Database,
    ts: Timestamp,
}

impl NaiveAccess<'_> {
    fn live_row(&self, table: TableId, key: Key) -> Result<Row> {
        let missing = Error::KeyNotFound {
            table: table.0,
            key,
        };
        let chain = self.db.table(table)?.get(key).ok_or(missing.clone())?;
        chain.newest().1.ok_or(missing)
    }
}

impl DataAccess for NaiveAccess<'_> {
    fn read(&mut self, table: TableId, key: Key, col: usize) -> Result<Value> {
        let row = self.live_row(table, key)?;
        row.get(col)
            .ok_or_else(|| Error::Unknown(format!("column {col} of {table}:{key}")))
    }

    fn write_col(&mut self, table: TableId, key: Key, col: usize, value: Value) -> Result<()> {
        let row = self.live_row(table, key)?;
        if col >= row.arity() {
            return Err(Error::Unknown(format!("column {col} of {table}:{key}")));
        }
        self.db
            .table(table)?
            .install_lww(key, self.ts, Some(row.with_col(col, value)));
        Ok(())
    }

    fn insert(&mut self, table: TableId, key: Key, row: Row) -> Result<()> {
        self.db.table(table)?.install_lww(key, self.ts, Some(row));
        Ok(())
    }

    fn delete(&mut self, table: TableId, key: Key) -> Result<()> {
        let t = self.db.table(table)?;
        if t.get(key).is_none() {
            return Err(Error::KeyNotFound {
                table: table.0,
                key,
            });
        }
        t.install_lww(key, self.ts, None);
        Ok(())
    }
}

/// What a plan made of ops `from..` can observe of the variables defined
/// before `from`: the store's bindings, loop iterations included, of those
/// it uses.
fn observable(
    proc: &ProcedureDef,
    from: usize,
    vars: &VarStore,
) -> Vec<(VarId, Option<Value>, [Option<Value>; 2])> {
    let mut used: Vec<VarId> = proc.ops[from..]
        .iter()
        .flat_map(|op| op.used_vars())
        .filter(|v| proc.defining_op(*v) < from)
        .collect();
    used.sort();
    used.dedup();
    used.into_iter()
        .map(|v| {
            (
                v,
                vars.get(v),
                [vars.get_indexed(v, 0), vars.get_indexed(v, 1)],
            )
        })
        .collect()
}

/// Run `proc` through the plan interpreter over the tuple cursor, as the
/// plans of ops `..cut` and `cut..` one after the other over one store
/// (`cut` = 0: the whole procedure's plan alone).
fn cursor_execute(
    proc: &ProcedureDef,
    cut: usize,
    params: &Params,
    use_resolved: bool,
) -> (Result<u64>, Database, VarStore) {
    let db = seeded_db();
    let vars = VarStore::new(proc.num_vars);
    let mut frame = ExecFrame::default();
    let mut check_frame = ExecFrame::default();
    let mut access = ReplayAccess::new(&db, TS);
    let mut result = Ok(0);
    for part in [0..cut, cut..proc.ops.len()] {
        if part.is_empty() {
            continue;
        }
        let plan = PiecePlan::compile(&proc.ops, &part.collect::<Vec<_>>());
        let slots = use_resolved.then(|| {
            let mut slots = Vec::new();
            resolve_accesses(
                proc,
                &plan,
                params,
                Some(&vars),
                &mut check_frame,
                &mut slots,
            )
            .expect("keys depend on parameters and the loop index only");
            slots
        });
        let r = execute_plan(
            proc,
            &plan,
            params,
            &vars,
            slots.as_deref(),
            &mut frame,
            &mut access,
        );
        result = result.and_then(|n| Ok(n + r?));
        if result.is_err() {
            break;
        }
        access.finish();
    }
    drop(access);
    (result, db, vars)
}

/// Run `ops` both ways, cut at `cut`, and compare; `Err` describes the
/// first difference.
fn compare(ops: &[OpGen], looped: bool, cut: usize) -> std::result::Result<(), String> {
    fn same<V: PartialEq + std::fmt::Debug>(
        what: &str,
        got: V,
        expected: V,
    ) -> std::result::Result<(), String> {
        if got == expected {
            Ok(())
        } else {
            Err(format!("{what}: cursor {got:?}, op-at-a-time {expected:?}"))
        }
    }
    let proc = build(ops, looped);
    let cut = cut % proc.ops.len();
    let params = piece_params();
    let naive_db = seeded_db();
    let naive_vars = VarStore::new(proc.num_vars);
    let mut naive_access = NaiveAccess {
        db: &naive_db,
        ts: TS,
    };
    let mut expected = Ok(0);
    for part in [0..cut, cut..proc.ops.len()] {
        expected = expected.and_then(|n| {
            Ok(n + naive_execute(&proc, part, &params, &naive_vars, &mut naive_access)?)
        });
    }
    for use_resolved in [false, true] {
        let (got, db, vars) = cursor_execute(&proc, cut, &params, use_resolved);
        let what = |w: &str| format!("{w} (cut at {cut}, resolved keys: {use_resolved})");
        same(&what("outcome"), &got, &expected)?;
        same(
            &what("published variables"),
            observable(&proc, cut, &vars),
            observable(&proc, cut, &naive_vars),
        )?;
        // Nothing is handed over that nobody is waiting for: the whole
        // procedure's plan leaves the store untouched.
        let unobserved = observable(&proc, proc.ops.len(), &vars);
        if cut == 0
            && unobserved
                .iter()
                .any(|(_, v, it)| (v, it) != (&None, &[None, None]))
        {
            return Err(format!("whole plan published {unobserved:?}"));
        }
        if expected.is_err() {
            continue;
        }
        same(
            &what("fingerprint"),
            db.fingerprint(),
            naive_db.fingerprint(),
        )?;
        // Beyond the fingerprint (live rows only): the same keys are
        // tombstoned, at the same timestamps.
        for table in [T, U] {
            for k in 0..=TOMBSTONE + 1 {
                let newest = |db: &Database| db.table(table).unwrap().get(k).map(|c| c.newest());
                same(
                    &what(&format!("{table}:{k}")),
                    newest(&db),
                    newest(&naive_db),
                )?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn cursor_replay_equals_op_at_a_time_replay(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        looped in any::<bool>(),
    ) {
        compare(&ops, looped, 0).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn two_plans_over_one_store_equal_op_at_a_time_replay(
        ops in proptest::collection::vec(op_strategy(), 2..12),
        looped in any::<bool>(),
        cut in 1usize..12,
    ) {
        compare(&ops, looped, cut).map_err(TestCaseError::fail)?;
    }
}

// ---------------------------------------------------------------------
// Replay-live plans against the full plan.
// ---------------------------------------------------------------------

/// Commit timestamps of the logged transactions: the procedure runs four
/// times, two records per log batch.
fn logged_ts() -> [Timestamp; 4] {
    [1, 2, 3, 4].map(|i| epoch_floor(1) | i)
}

/// Run `plan` of `proc` once per logged timestamp, the way serial replay
/// does. `None` if any run fails.
fn replay_serially(proc: &ProcedureDef, plan: &PiecePlan, params: &Params) -> Option<Database> {
    let db = seeded_db();
    let mut access = ReplayAccess::new(&db, 0);
    let mut frame = ExecFrame::default();
    for ts in logged_ts() {
        let vars = VarStore::new(proc.num_vars);
        access.retarget(ts);
        execute_plan(proc, plan, params, &vars, None, &mut frame, &mut access).ok()?;
        access.finish();
    }
    drop(access);
    Some(db)
}

/// Replaying the replay-live operations must be indistinguishable from
/// replaying everything, whenever replaying everything succeeds (as it
/// does for any transaction that committed).
fn compare_live_to_full(ops: &[OpGen], looped: bool) -> std::result::Result<(), String> {
    let proc = build(ops, looped);
    let params = piece_params();
    // The reference compiles its own full plan; product replay has none.
    let everything: Vec<usize> = (0..proc.ops.len()).collect();
    let full_plan = PiecePlan::compile(&proc.ops, &everything);
    let Some(full) = replay_serially(&proc, &full_plan, &params) else {
        return Ok(()); // would have aborted before commit: never logged
    };
    let same = |what: &str, db: &Database| {
        if db.fingerprint() != full.fingerprint() || all_newest(db) != all_newest(&full) {
            return Err(format!(
                "{what} diverged from full replay\nlive ops {:?} of\n{}",
                proc.replay_plan().op_indices().collect::<Vec<_>>(),
                proc.pretty()
            ));
        }
        Ok(())
    };
    let live = replay_serially(&proc, proc.replay_plan(), &params)
        .ok_or("a dead read hid an error: the replay plan failed where the full plan ran")?;
    same("serial replay plan", &live)?;

    // The same four transactions as a command log, through recovery.
    let mut registry = ProcRegistry::new();
    registry.register(proc.clone()).unwrap();
    let storage = StorageSet::for_tests();
    for (batch, pair) in logged_ts().chunks(2).enumerate() {
        let mut buf = Vec::new();
        for &ts in pair {
            TxnLogRecord {
                ts,
                payload: LogPayload::Command {
                    proc: proc.id,
                    params: Arc::clone(&params),
                },
            }
            .encode(&mut buf);
        }
        storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
    }
    let inventory = LogInventory::scan(&storage);
    let metrics = Arc::new(RecoveryMetrics::new());
    let db = seeded_db();
    let source = || UnitSource::inventory(&storage, &inventory, u64::MAX, 0);
    clr::recover_log(source(), &db, &registry, &metrics, None)
        .map_err(|e| format!("CLR failed: {e}"))?;
    same("CLR", &db)?;
    let gdg = Arc::new(GlobalGraph::analyze(registry.all()).map_err(|e| e.to_string())?);
    for threads in 1..=3 {
        let db = Arc::new(seeded_db());
        let mode = ReplayMode::Pipelined;
        clr_p::recover_log(
            source(),
            &db,
            &gdg,
            &registry,
            threads,
            mode,
            &metrics,
            None,
        )
        .map_err(|e| format!("CLR-P at {threads} threads failed: {e}"))?;
        same(&format!("CLR-P at {threads} threads"), &db)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn replay_live_plan_equals_full_replay(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        looped in any::<bool>(),
    ) {
        compare_live_to_full(&ops, looped).map_err(TestCaseError::fail)?;
    }
}

/// The cases the issue names, pinned so that a generator change cannot
/// silently stop covering them.
#[test]
fn named_sequences_agree() {
    use OpSpec::*;
    let op = |spec, key, key_form| OpGen {
        spec,
        other_table: false,
        key,
        key_form,
        guard: 0,
    };
    let cases: Vec<(&str, Vec<OpGen>)> = vec![
        (
            "interleaved tuples",
            vec![
                op(
                    Write {
                        col: 0,
                        from_last_read: false,
                    },
                    0,
                    0,
                ),
                op(
                    Write {
                        col: 0,
                        from_last_read: false,
                    },
                    1,
                    0,
                ),
                op(
                    Write {
                        col: 1,
                        from_last_read: false,
                    },
                    0,
                    1,
                ),
                op(Read { col: 0 }, 1, 2),
                op(Read { col: 1 }, 0, 0),
            ],
        ),
        (
            "read after write of the same column",
            vec![
                op(
                    Write {
                        col: 0,
                        from_last_read: false,
                    },
                    2,
                    0,
                ),
                op(Read { col: 0 }, 2, 0),
                op(
                    Write {
                        col: 1,
                        from_last_read: true,
                    },
                    2,
                    0,
                ),
            ],
        ),
        (
            "two writes to one column",
            vec![
                op(
                    Write {
                        col: 0,
                        from_last_read: false,
                    },
                    3,
                    0,
                ),
                op(
                    Write {
                        col: 0,
                        from_last_read: false,
                    },
                    3,
                    1,
                ),
            ],
        ),
        (
            "insert then write",
            vec![
                op(Insert, MISSING, 0),
                op(
                    Write {
                        col: 1,
                        from_last_read: false,
                    },
                    MISSING,
                    0,
                ),
            ],
        ),
        (
            "write then delete",
            vec![
                op(
                    Write {
                        col: 0,
                        from_last_read: false,
                    },
                    1,
                    0,
                ),
                op(Delete, 1, 0),
            ],
        ),
        (
            "delete then insert",
            vec![
                op(Delete, 1, 0),
                op(Insert, 1, 0),
                op(Read { col: 0 }, 1, 0),
            ],
        ),
        (
            "read then add to the same column (one fused instruction, two ops)",
            vec![
                op(Read { col: 0 }, 2, 0),
                op(
                    Write {
                        col: 0,
                        from_last_read: true,
                    },
                    2,
                    0,
                ),
                op(Read { col: 0 }, 2, 0),
            ],
        ),
        ("missing key", vec![op(Read { col: 0 }, MISSING, 0)]),
        ("missing key delete", vec![op(Delete, MISSING, 0)]),
        (
            "tombstone write",
            vec![op(
                Write {
                    col: 0,
                    from_last_read: false,
                },
                TOMBSTONE,
                0,
            )],
        ),
        ("out-of-range read", vec![op(Read { col: 2 }, 0, 0)]),
        (
            "out-of-range write",
            vec![
                op(
                    Write {
                        col: 0,
                        from_last_read: false,
                    },
                    0,
                    0,
                ),
                op(
                    Write {
                        col: 2,
                        from_last_read: false,
                    },
                    0,
                    0,
                ),
            ],
        ),
    ];
    for (name, ops) in cases {
        for looped in [false, true] {
            for cut in 0..ops.len() {
                compare(&ops, looped, cut)
                    .unwrap_or_else(|e| panic!("{name} (looped: {looped}): {e}"));
            }
        }
    }
}
