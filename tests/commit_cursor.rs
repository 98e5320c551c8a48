//! Differential test of the commit path's tuple cursor.
//!
//! The random procedures of `replay_cursor` run as OCC transactions two
//! ways. The product: [`run_procedure`] — the compiled plan over
//! [`TxnAccess`], which keeps the tuple it was last asked for open and
//! stages one image when it leaves. The reference, kept here: the op list
//! walked op by op over raw [`Txn::read`] / [`Txn::write`] / `insert` /
//! `delete`, one whole-row write staged per write operation. Everything an
//! observer of the transaction can see must agree: the `CommitInfo` (commit
//! timestamp, the write records in order with kind, image and `prev_ts`,
//! the executed-op count), the size of the read and write sets at commit,
//! the database afterwards — tombstones and their timestamps included —
//! and, when the transaction fails, the class of the error and a database
//! left as it was.

mod common;

use common::{
    all_newest, build, naive_execute, op_strategy, piece_params, seeded_db, OpGen, OpSpec, MISSING,
    TOMBSTONE,
};
use pacman_common::{Error, Key, Result, Row, TableId, Value};
use pacman_engine::{
    execute_plan, run_procedure, CommitInfo, DataAccess, Database, ExecFrame, Txn, TxnAccess,
};
use pacman_sproc::{Params, ProcedureDef, VarStore};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The op-at-a-time reference.
// ---------------------------------------------------------------------

/// Transactional access that finishes every operation on its own: a column
/// write reads the row, copies it with the column replaced, and stages the
/// copy.
struct NaiveTxnAccess<'a, 'db> {
    txn: &'a mut Txn<'db>,
}

fn column(row: &Row, table: TableId, key: Key, col: usize) -> Result<Value> {
    row.get(col)
        .ok_or_else(|| Error::Unknown(format!("column {col} of {table}:{key}")))
}

impl DataAccess for NaiveTxnAccess<'_, '_> {
    fn read(&mut self, table: TableId, key: Key, col: usize) -> Result<Value> {
        let row = self.txn.read(table, key)?;
        column(&row, table, key, col)
    }

    fn write_col(&mut self, table: TableId, key: Key, col: usize, value: Value) -> Result<()> {
        let row = self.txn.read(table, key)?;
        column(&row, table, key, col)?;
        self.txn.write(table, key, row.with_col(col, value))
    }

    fn insert(&mut self, table: TableId, key: Key, row: Row) -> Result<()> {
        self.txn.insert(table, key, row)
    }

    fn delete(&mut self, table: TableId, key: Key) -> Result<()> {
        self.txn.delete(table, key)
    }
}

/// What a transaction's observers can tell apart.
#[derive(Debug, PartialEq)]
struct Observed {
    /// The commit, or the failure: an abort of any cause is one class,
    /// anything else must be the same error.
    outcome: std::result::Result<CommitInfo, Error>,
    /// `(reads, writes)` held when the body had run, if it ran through.
    sets: Option<(usize, usize)>,
}

fn class(e: Error) -> Error {
    match e {
        // What `run_procedure` turns a missing key into.
        Error::KeyNotFound { .. } | Error::TxnAborted(_) => Error::TxnAborted(String::new()),
        other => other,
    }
}

/// Run `body` in a fresh transaction and commit it.
fn run_in<'db>(db: &'db Database, body: impl FnOnce(&mut Txn<'db>) -> Result<u64>) -> Observed {
    let mut txn = db.begin();
    let ops = match body(&mut txn) {
        Ok(ops) => ops,
        Err(e) => {
            return Observed {
                outcome: Err(class(e)),
                sets: None,
            }
        }
    };
    let sets = Some((txn.reads_len(), txn.writes_len()));
    let outcome = txn
        .commit()
        .map(|info| CommitInfo { ops, ..info })
        .map_err(class);
    Observed { outcome, sets }
}

fn reference(db: &Database, proc: &ProcedureDef, params: &Params) -> Observed {
    run_in(db, |txn| {
        let vars = VarStore::new(proc.num_vars);
        let mut access = NaiveTxnAccess { txn };
        naive_execute(proc, 0..proc.ops.len(), params, &vars, &mut access)
    })
}

/// The interpreter's path, step by step, to look at the sets before commit.
fn cursor_by_hand(db: &Database, proc: &ProcedureDef, params: &Params) -> Observed {
    run_in(db, |txn| {
        let mut access = TxnAccess::new(txn);
        let ops = execute_plan(
            proc,
            proc.plan(),
            params,
            VarStore::shared_empty(),
            None,
            &mut ExecFrame::default(),
            &mut access,
        )?;
        access.finish();
        Ok(ops)
    })
}

/// Run `ops` both ways and compare; `Err` describes the first difference.
fn compare(ops: &[OpGen], looped: bool) -> std::result::Result<(), String> {
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
    let params = piece_params();
    let naive_db = seeded_db();
    let expected = reference(&naive_db, &proc, &params);

    let hand_db = seeded_db();
    same(
        "outcome and sets",
        &cursor_by_hand(&hand_db, &proc, &params),
        &expected,
    )?;
    let db = seeded_db();
    same(
        "run_procedure",
        &run_procedure(&db, &proc, &params).map_err(class),
        &expected.outcome,
    )?;
    // A failed transaction leaves the seeded state; a committed one the
    // reference's, tombstones and timestamps included.
    for (what, db) in [("by hand", &hand_db), ("run_procedure", &db)] {
        same(
            &format!("fingerprint ({what})"),
            db.fingerprint(),
            naive_db.fingerprint(),
        )?;
        same(
            &format!("tuples ({what})"),
            all_newest(db),
            all_newest(&naive_db),
        )?;
    }
    Ok(())
}

/// An insert of a live key aborts at commit, whatever else the transaction
/// did; most generated inserts are moved onto the two keys that are not
/// live, so that procedures with inserts commit too.
fn mostly_insertable(mut ops: Vec<OpGen>) -> Vec<OpGen> {
    for op in &mut ops {
        if matches!(op.spec, OpSpec::Insert) && op.key < 3 {
            op.key = MISSING + op.key % 2;
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1200))]

    #[test]
    fn cursor_commit_equals_op_at_a_time_commit(
        ops in proptest::collection::vec(op_strategy(), 1..12),
        looped in any::<bool>(),
    ) {
        compare(&mostly_insertable(ops), looped).map_err(TestCaseError::fail)?;
    }
}

/// The cases the issue names, pinned so that a generator change cannot
/// silently stop covering them. Each must commit (or fail, where it says
/// so) — a case that aborted on both sides would compare nothing.
#[test]
fn named_sequences_agree() {
    use OpSpec::*;
    let op = |spec, key, guard| OpGen {
        spec,
        other_table: false,
        key,
        key_form: 0,
        guard,
    };
    let write = |col, key| {
        op(
            Write {
                col,
                from_last_read: false,
            },
            key,
            0,
        )
    };
    let bump = |col, key| {
        op(
            Write {
                col,
                from_last_read: true,
            },
            key,
            0,
        )
    };
    // (name, ops, write records expected from a commit; None = must fail)
    let cases: Vec<(&str, Vec<OpGen>, Option<usize>)> = vec![
        (
            "write A, touch B, write A again",
            vec![
                write(0, 0),
                op(Read { col: 0 }, 1, 0),
                write(1, 0),
                write(0, 1),
                write(0, 0),
            ],
            Some(2),
        ),
        (
            "insert then update of one key",
            vec![write(0, 2), op(Insert, MISSING, 0), write(1, MISSING)],
            Some(2),
        ),
        (
            "update then delete of one key",
            vec![write(0, 1), op(Delete, 1, 0), write(0, 2)],
            Some(2),
        ),
        (
            "update, then insert of another key, then the first again",
            vec![write(0, 1), op(Insert, TOMBSTONE, 0), write(1, 1)],
            Some(2),
        ),
        (
            "a guard skips the middle write of three",
            vec![
                write(0, 3),
                op(
                    Write {
                        col: 1,
                        from_last_read: false,
                    },
                    3,
                    2,
                ),
                write(0, 3),
            ],
            Some(1),
        ),
        (
            "reads of the open tuple see its edits",
            vec![
                write(0, 2),
                op(Read { col: 0 }, 2, 0),
                bump(1, 2),
                op(Read { col: 1 }, 2, 0),
                bump(0, 2),
            ],
            Some(1),
        ),
        (
            "read then add to the same column (one fused instruction)",
            vec![op(Read { col: 0 }, 2, 0), bump(0, 2), bump(0, 2)],
            Some(1),
        ),
        (
            "the last write is the only one",
            vec![op(Read { col: 0 }, 0, 0), write(1, 1)],
            Some(1),
        ),
        (
            "insert then delete leaves nothing",
            vec![write(0, 0), op(Insert, MISSING, 0), op(Delete, MISSING, 0)],
            Some(1),
        ),
        (
            "an error after the first edit",
            vec![write(0, 0), write(1, 0), write(2, 0)],
            None,
        ),
        (
            "a missing key after an edit elsewhere",
            vec![write(0, 0), op(Read { col: 0 }, MISSING, 0)],
            None,
        ),
        (
            "a write under a pending delete",
            vec![op(Delete, 1, 0), write(0, 1)],
            None,
        ),
        ("insert of a live key", vec![op(Insert, 3, 0)], None),
    ];
    for (name, ops, commits) in cases {
        compare(&ops, false).unwrap_or_else(|e| panic!("{name}: {e}"));
        let committed = run_procedure(&seeded_db(), &build(&ops, false), &piece_params());
        assert_eq!(
            committed.as_ref().ok().map(|info| info.writes.len()),
            commits,
            "{name}: {committed:?}"
        );
        // Looped, iteration 1 shifts every key by one: other tuples, the
        // same interleaving.
        compare(&ops, true).unwrap_or_else(|e| panic!("{name} (looped): {e}"));
    }
}
