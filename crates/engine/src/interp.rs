//! The operation interpreter.
//!
//! Executes a compiled plan — the whole procedure during normal
//! processing; its replay-live operations during CLR replay; a single
//! slice of those during CLR-P replay — against any [`DataAccess`]
//! back-end: a `pc` loop over each group's flat register code
//! (`pacman_sproc::code`). Expressions are the evaluator's
//! ([`pacman_sproc::Machine`]); the loop here adds the instructions that
//! touch storage. A read's value lives in its variable's register; it
//! goes to the transaction's shared [`VarStore`] as well only when the plan
//! says a piece outside it is waiting for it (Fig. 7: slice `T2` receives
//! `dst` produced by slice `T1`).

use crate::access::{DataAccess, TxnAccess};
use crate::database::Database;
use crate::txn::{CommitInfo, Txn};
use pacman_common::{Error, Result, Row};
use pacman_sproc::{Access, AccessKind, Instr, Params, PiecePlan, ProcedureDef, VarStore};

pub use pacman_sproc::ExecFrame;

/// Execute `plan` — a compiled set of ops of `proc`: the whole procedure
/// during normal processing, its replay plan during serial replay, one
/// piece during CLR-P. Returns the number of operations actually executed
/// (loops unrolled, guard-skipped ops excluded, a fused read–write pair
/// counted as the two it is), which the commit reports as
/// [`crate::CommitInfo::ops`].
///
/// Every access site's key is determined at most once per iteration: taken
/// from `resolved` — the piece's slots as `pacman_sproc::resolve_accesses`
/// laid them out at parameter-checking time — when given, and otherwise
/// (or for a slot that check left empty) computed by the site's key code
/// when the first operation of the site executes.
///
/// `frame` holds the register file and the site keys; a warm one makes the
/// run allocation-free. `vars` is looked at only for variables another
/// plan of the transaction hands over, and written only for those this
/// plan hands over ([`PiecePlan::hands_off`]).
pub fn execute_plan(
    proc: &ProcedureDef,
    plan: &PiecePlan,
    params: &Params,
    vars: &VarStore,
    resolved: Option<&[Option<Access>]>,
    frame: &mut ExecFrame,
    access: &mut dyn DataAccess,
) -> Result<u64> {
    let mut m = plan.machine(params, vars, frame);
    let mut executed = 0u64;
    // Start of the current iteration's slots in `resolved`.
    let mut slot_base = 0usize;
    for group in plan.groups() {
        let iterations = group.iterations(&proc.name, &mut m)?;
        let num_sites = group.sites.len();
        let code = group.code();
        for i in 0..iterations {
            group.begin_iteration(i, &mut m);
            let slots = resolved.and_then(|r| r.get(slot_base..slot_base + num_sites));
            m.reset_site_keys(num_sites, slots);
            slot_base += num_sites;
            let mut pc = group.body();
            while let Some(ins) = code.get(pc) {
                let Instr::Access { site, kind, .. } = *ins else {
                    pc = m.step(ins, pc)?;
                    continue;
                };
                let table = group.sites[site as usize].table;
                let key = m.site_key(site);
                match kind {
                    AccessKind::Read { col, dst, publish } => {
                        let val = access.read(table, key, col as usize)?;
                        m.bind(dst, val, publish);
                        executed += 1;
                    }
                    AccessKind::Write { col, value } => {
                        let val = m.peek(value)?.clone();
                        access.write_col(table, key, col as usize, val)?;
                        executed += 1;
                    }
                    AccessKind::AddCol { col, delta, negate } => {
                        let delta = match m.peek(delta) {
                            Ok(delta) => delta,
                            // The read came first, and so does its error.
                            Err(e) => {
                                access.read(table, key, col as usize)?;
                                return Err(e);
                            }
                        };
                        access.add_col(table, key, col as usize, delta, negate)?;
                        executed += 2;
                    }
                    AccessKind::Insert { start, len } => {
                        let cols = group
                            .row(start, len)
                            .iter()
                            .map(|&o| m.peek(o).cloned())
                            .collect::<Result<Vec<_>>>()?;
                        access.insert(table, key, Row::new(cols))?;
                        executed += 1;
                    }
                    AccessKind::Delete => {
                        access.delete(table, key)?;
                        executed += 1;
                    }
                }
                pc += 1;
            }
        }
    }
    Ok(executed)
}

/// Run a whole procedure as one OCC transaction. Returns the commit info
/// (timestamp + write records) for logging; aborts surface as
/// [`Error::TxnAborted`].
pub fn run_procedure(db: &Database, proc: &ProcedureDef, params: &Params) -> Result<CommitInfo> {
    run_procedure_with_epoch(db, proc, params, || 1)
}

/// [`run_procedure`] with an explicit group-commit epoch source, invoked
/// under the commit latches (see [`crate::txn::Txn::commit_with`]).
pub fn run_procedure_with_epoch(
    db: &Database,
    proc: &ProcedureDef,
    params: &Params,
    epoch_fn: impl FnOnce() -> u64,
) -> Result<CommitInfo> {
    run_procedure_in(db.begin(), proc, params, epoch_fn)
}

/// Run a whole procedure inside a caller-supplied transaction. The normal
/// path goes through [`run_procedure_with_epoch`] (pooled scratch via
/// [`Database::begin`]); this entry point exists so callers — equivalence
/// tests in particular — can drive the identical interpreter path over a
/// transaction built on fresh scratch via [`Database::begin_with`].
pub fn run_procedure_in(
    mut txn: Txn<'_>,
    proc: &ProcedureDef,
    params: &Params,
    epoch_fn: impl FnOnce() -> u64,
) -> Result<CommitInfo> {
    // The interpreter scratch comes from the transaction's pooled scratch
    // and goes back before any `?` below, so abort paths keep it in the
    // cycle. The plan is the whole procedure: every variable stays in its
    // register, nothing is handed over.
    let mut frame = txn.take_exec_frame();
    let result = {
        let mut access = TxnAccess::new(&mut txn);
        let result = execute_plan(
            proc,
            proc.plan(),
            params,
            VarStore::shared_empty(),
            None,
            &mut frame,
            &mut access,
        );
        // The last tuple written is still open; a failed body drops it
        // unstaged and aborts below.
        if result.is_ok() {
            access.finish();
        }
        result
    };
    txn.put_exec_frame(frame);
    let executed = result.map_err(|e| match e {
        // A read of a missing key inside a transaction aborts it.
        Error::KeyNotFound { table, key } => {
            Error::TxnAborted(format!("missing key t{table}:{key}"))
        }
        other => other,
    })?;
    let mut info = txn.commit_with(epoch_fn)?;
    info.ops = executed;
    Ok(info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::ReplayAccess;
    use crate::catalog::Catalog;
    use pacman_common::{ProcId, TableId, Value, VarId};
    use pacman_sproc::{params, Expr, ProcBuilder};

    const FAMILY: TableId = TableId::new(0);
    const CURRENT: TableId = TableId::new(1);
    const SAVING: TableId = TableId::new(2);

    /// The paper's Fig. 2a Transfer procedure.
    fn transfer() -> ProcedureDef {
        let mut b = ProcBuilder::new(ProcId::new(0), "Transfer", 2);
        let dst = b.read(FAMILY, Expr::param(0), 0);
        b.guarded(Expr::not_null(Expr::var(dst)), |b| {
            let src_val = b.read(CURRENT, Expr::param(0), 0);
            b.write(
                CURRENT,
                Expr::param(0),
                0,
                Expr::sub(Expr::var(src_val), Expr::param(1)),
            );
            let dst_val = b.read(CURRENT, Expr::var(dst), 0);
            b.write(
                CURRENT,
                Expr::var(dst),
                0,
                Expr::add(Expr::var(dst_val), Expr::param(1)),
            );
            let bonus = b.read(SAVING, Expr::param(0), 0);
            b.write(
                SAVING,
                Expr::param(0),
                0,
                Expr::add(Expr::var(bonus), Expr::int(1)),
            );
        });
        b.build().unwrap()
    }

    fn bank_db() -> Database {
        let mut c = Catalog::new();
        c.add_table("family", 1);
        c.add_table("current", 1);
        c.add_table("saving", 1);
        let db = Database::new(c);
        // Account 1's spouse is account 2; account 3 has no spouse.
        db.seed_row(FAMILY, 1, Row::from([Value::Int(2)])).unwrap();
        db.seed_row(FAMILY, 3, Row::from([Value::str("NULL")]))
            .unwrap();
        for k in [1, 2, 3] {
            db.seed_row(CURRENT, k, Row::from([Value::Int(100)]))
                .unwrap();
            db.seed_row(SAVING, k, Row::from([Value::Int(0)])).unwrap();
        }
        db
    }

    #[test]
    fn transfer_moves_money_and_adds_bonus() {
        let db = bank_db();
        let p = transfer();
        run_procedure(&db, &p, &params([Value::Int(1), Value::Int(30)])).unwrap();
        let mut t = db.begin();
        assert_eq!(t.read(CURRENT, 1).unwrap().col(0), Value::Int(70));
        assert_eq!(t.read(CURRENT, 2).unwrap().col(0), Value::Int(130));
        assert_eq!(t.read(SAVING, 1).unwrap().col(0), Value::Int(1));
    }

    #[test]
    fn null_spouse_guard_skips_everything() {
        let db = bank_db();
        let p = transfer();
        let before = db.fingerprint();
        run_procedure(&db, &p, &params([Value::Int(3), Value::Int(30)])).unwrap();
        assert_eq!(db.fingerprint(), before, "guard must skip all writes");
    }

    #[test]
    fn missing_key_aborts_cleanly() {
        let db = bank_db();
        let p = transfer();
        let r = run_procedure(&db, &p, &params([Value::Int(999), Value::Int(1)]));
        assert!(matches!(r, Err(Error::TxnAborted(_))));
    }

    #[test]
    fn loops_bind_locals_per_iteration() {
        // Decrement stock of each listed item: params [n, item0, item1, …].
        let mut c = Catalog::new();
        c.add_table("stock", 1);
        let db = Database::new(c);
        let stock = TableId::new(0);
        for k in 0..5 {
            db.seed_row(stock, k, Row::from([Value::Int(10)])).unwrap();
        }
        let mut b = ProcBuilder::new(ProcId::new(0), "Dec", 1);
        b.repeat(Expr::param(0), |b| {
            let q = b.read(stock, Expr::ParamOffset { base: 1, stride: 1 }, 0);
            b.write(
                stock,
                Expr::ParamOffset { base: 1, stride: 1 },
                0,
                Expr::sub(Expr::var(q), Expr::int(1)),
            );
        });
        let p = b.build().unwrap();
        run_procedure(
            &db,
            &p,
            &params([Value::Int(3), Value::Int(0), Value::Int(2), Value::Int(4)]),
        )
        .unwrap();
        let mut t = db.begin();
        assert_eq!(t.read(stock, 0).unwrap().col(0), Value::Int(9));
        assert_eq!(t.read(stock, 1).unwrap().col(0), Value::Int(10));
        assert_eq!(t.read(stock, 2).unwrap().col(0), Value::Int(9));
        assert_eq!(t.read(stock, 4).unwrap().col(0), Value::Int(9));
    }

    #[test]
    fn slice_execution_hands_vars_downstream() {
        // Execute the Transfer ops as two pieces sharing a VarStore, the way
        // CLR-P does: piece 1 = op 0 (produces dst), piece 2 = ops 1-4.
        let db = bank_db();
        let p = transfer();
        let args = params([Value::Int(1), Value::Int(25)]);
        let vars = VarStore::new(p.num_vars);

        let mut frame = ExecFrame::default();
        let mut access = ReplayAccess::new(&db, 10);
        let head = PiecePlan::compile(&p.ops, &[0]);
        execute_plan(&p, &head, &args, &vars, None, &mut frame, &mut access).unwrap();
        access.finish();
        assert_eq!(vars.get(VarId::new(0)), Some(Value::Int(2)), "dst bound");

        let tail = PiecePlan::compile(&p.ops, &[1, 2, 3, 4, 5, 6]);
        let n = execute_plan(&p, &tail, &args, &vars, None, &mut frame, &mut access).unwrap();
        assert_eq!(n, 6);
        // The piece's last tuple is installed at the end of the piece, not
        // by its last write.
        let saving = db.table(SAVING).unwrap().get(1).unwrap();
        assert_eq!(saving.newest().1.unwrap().col(0), Value::Int(0));
        access.finish();
        assert_eq!(saving.newest().1.unwrap().col(0), Value::Int(1));
        let mut t = db.begin();
        assert_eq!(t.read(CURRENT, 1).unwrap().col(0), Value::Int(75));
        assert_eq!(t.read(CURRENT, 2).unwrap().col(0), Value::Int(125));
        assert_eq!(t.read(SAVING, 1).unwrap().col(0), Value::Int(1));
    }
}
