//! Pooled-scratch equivalence: recycling transaction scratch through the
//! thread-local pool must be observationally identical to building every
//! transaction on fresh allocations.
//!
//! The write path hands each committed or aborted transaction's scratch
//! (read map, write map, lock set, record vec, interpreter register file)
//! back to a thread-local pool, and `Database::begin` draws from it. The
//! poison/clear contract says a recycled scratch carries nothing over —
//! these tests enforce that end to end:
//!
//! * property tests drive random interleaved commit/abort histories of
//!   the bank (Fig. 2) and Smallbank procedures twice — once through the
//!   pooled `begin()` path with deliberately dirtied, aborted
//!   transactions wedged between every step to maximally pollute the
//!   pool, once through `begin_with(TxnScratch::new())` fresh scratch —
//!   and require identical per-transaction outcomes (commit timestamp,
//!   ops executed, write records) and a bit-identical final fingerprint;
//! * a unit test aborts a transaction mid-flight with staged writes and
//!   bound variables, then asserts the recycled scratch exposes none of
//!   it to the next transaction.

use pacman_common::{Error, ProcId, TableId, Value};
use pacman_engine::{
    run_procedure_in, run_procedure_with_epoch, CommitInfo, DataAccess, Database, TxnAccess,
    TxnScratch,
};
use pacman_sproc::{params, Expr, Params, ProcBuilder, ProcRegistry};
use pacman_workloads::{bank::Bank, smallbank::Smallbank, Workload};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Outcome of one transaction, in the shape both runs must agree on.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Committed(CommitInfo),
    Aborted,
}

fn run_one(db: &Database, reg: &ProcRegistry, proc: ProcId, params: &Params, i: usize) -> Outcome {
    let def = reg.get(proc).expect("registered procedure");
    let epoch = 1 + (i as u64) / 7;
    match run_procedure_with_epoch(db, def, params, || epoch) {
        Ok(info) => Outcome::Committed(info),
        Err(Error::TxnAborted(_)) => Outcome::Aborted,
        Err(e) => panic!("unexpected engine error: {e}"),
    }
}

fn run_one_fresh(
    db: &Database,
    reg: &ProcRegistry,
    proc: ProcId,
    params: &Params,
    i: usize,
) -> Outcome {
    let def = reg.get(proc).expect("registered procedure");
    let epoch = 1 + (i as u64) / 7;
    match run_procedure_in(db.begin_with(TxnScratch::new()), def, params, || epoch) {
        Ok(info) => Outcome::Committed(info),
        Err(Error::TxnAborted(_)) => Outcome::Aborted,
        Err(e) => panic!("unexpected engine error: {e}"),
    }
}

/// Dirty a pooled transaction as hard as possible, then abort it: reads,
/// a staged copy-on-write update, an unstaged edit, and a raw write all
/// land in the scratch that goes straight back into the pool.
fn pollute_pool(db: &Database, table: TableId, key: u64) {
    let mut txn = db.begin();
    let _ = txn.read(table, key);
    let mut access = TxnAccess::new(&mut txn);
    if access
        .write_col(table, key, 0, Value::Int(-987_654_321))
        .is_ok()
    {
        access.finish();
    }
    // A second edit left unstaged: the scratch row buffer is dirty when
    // the transaction drops.
    let _ = access.write_col(table, key, 0, Value::str("poison"));
    // Dropped without commit: everything above must vanish.
    drop(txn);
}

/// A history both runs replay: `(proc, params)` drawn from the workload's
/// own generator, with every `abort_every`-th transaction's key rewritten
/// out of range so it deterministically aborts (missing key).
fn history<W: Workload>(w: &W, seed: u64, len: usize, abort_every: usize) -> Vec<(ProcId, Params)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|i| {
            let (proc, params) = w.next_txn(&mut rng);
            if i % abort_every == abort_every - 1 {
                let mut vals: Vec<Value> = params.iter().cloned().collect();
                vals[0] = Value::Int(i64::MAX / 2);
                (proc, vals.into())
            } else {
                (proc, params)
            }
        })
        .collect()
}

fn assert_equivalent<W: Workload>(w: &W, hist: &[(ProcId, Params)], pollute: TableId) {
    let reg = w.registry();
    let pooled_db = Database::new(w.catalog());
    let fresh_db = Database::new(w.catalog());
    w.load(&pooled_db);
    w.load(&fresh_db);

    for (i, (proc, params)) in hist.iter().enumerate() {
        // Wedge a dirtied, aborted transaction in front of every real one
        // so the pooled run always begins on a recycled, once-poisoned
        // scratch. The fresh run never sees the pool at all.
        pollute_pool(&pooled_db, pollute, (i as u64) % 8);
        let got = run_one(&pooled_db, &reg, *proc, params, i);
        let want = run_one_fresh(&fresh_db, &reg, *proc, params, i);
        assert_eq!(got, want, "txn {i} diverged on pooled scratch");
    }
    assert_eq!(
        pooled_db.fingerprint(),
        fresh_db.fingerprint(),
        "final state diverged after {} txns",
        hist.len()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bank (Transfer/Deposit, Fig. 2): pooled reuse ≡ fresh scratch.
    #[test]
    fn bank_pooled_reuse_matches_fresh_txns(
        seed in any::<u64>(),
        len in 20usize..60,
        abort_every in 3usize..8,
    ) {
        let w = Bank { accounts: 32, nations: 4, rich_threshold: 6_000 };
        let hist = history(&w, seed, len, abort_every);
        assert_equivalent(&w, &hist, TableId::new(1)); // current
    }

    /// Smallbank (all six procedures): pooled reuse ≡ fresh scratch.
    #[test]
    fn smallbank_pooled_reuse_matches_fresh_txns(
        seed in any::<u64>(),
        len in 20usize..60,
        abort_every in 3usize..8,
    ) {
        let w = Smallbank { accounts: 32, hot_fraction: 0.5, hot_accounts: 8 };
        let hist = history(&w, seed, len, abort_every);
        assert_equivalent(&w, &hist, TableId::new(2)); // checking
    }
}

/// Abort-then-reuse: a transaction that read, staged writes and bound
/// interpreter variables is dropped; the next pooled transaction must
/// observe empty read/write sets, unbound variables and an untouched
/// database.
#[test]
fn aborted_scratch_does_not_bleed_into_the_next_txn() {
    let w = Bank {
        accounts: 8,
        nations: 2,
        rich_threshold: 6_000,
    };
    let db = Database::new(w.catalog());
    w.load(&db);
    let current = TableId::new(1);

    let before = db.fingerprint();
    // Binds v0 in the pooled register file, then aborts on a missing key.
    let mut b = ProcBuilder::new(ProcId::new(90), "BindThenAbort", 1);
    let _ = b.read(current, Expr::param(0), 0);
    let _ = b.read(current, Expr::int(999_999), 0);
    let binds = b.build().unwrap();
    let r = run_procedure_with_epoch(&db, &binds, &params([Value::Int(3)]), || 1);
    assert!(matches!(r, Err(Error::TxnAborted(_))), "{r:?}");
    // The same register in the next pooled transaction: its read is guarded
    // out, so the write must find v0 unbound, not the aborted value.
    let mut b = ProcBuilder::new(ProcId::new(91), "UseUnbound", 1);
    let never = Expr::gt(Expr::param(0), Expr::int(100));
    let mut v0 = None;
    b.guarded(never, |b| v0 = Some(b.read(current, Expr::param(0), 0)));
    b.write(current, Expr::param(0), 0, Expr::var(v0.unwrap()));
    let uses = b.build().unwrap();
    let r = run_procedure_with_epoch(&db, &uses, &params([Value::Int(3)]), || 1);
    assert!(
        matches!(&r, Err(Error::Unknown(why)) if why.contains("unbound variable v0")),
        "registers bled through the pool: {r:?}"
    );
    {
        let mut txn = db.begin();
        let mut access = TxnAccess::new(&mut txn);
        access.write_col(current, 3, 0, Value::Int(-1)).unwrap();
        access.finish();
        txn.write(current, 5, pacman_common::Row::from([Value::Int(-2)]))
            .unwrap();
        assert!(txn.writes_len() > 0 && txn.reads_len() > 0);
        // Abort by drop: scratch goes back to the pool dirty-then-reset.
    }
    assert_eq!(before, db.fingerprint(), "aborted txn mutated state");

    let mut txn = db.begin();
    assert_eq!(txn.reads_len(), 0, "read set bled through the pool");
    assert_eq!(txn.writes_len(), 0, "write set bled through the pool");
    // The recycled transaction still works end to end.
    let row = txn.read(current, 3).unwrap();
    assert_eq!(row.col(0).as_int(), Some(5_000));
    txn.commit().unwrap();
}
