//! What several integration tests share:
//!
//! * the interpreter oracles (`replay_cursor`, `commit_cursor`): a
//!   two-table database with live, missing and tombstoned keys, random
//!   procedures over it, and an interpreter that walks the op list itself;
//! * the lifecycle and durability tests: [`LoggingWorker`], a worker that
//!   commits through a durability stack the way the commit driver does,
//!   writing one of the logs [`Log`] names.

#![allow(dead_code)]

use pacman_common::clock::epoch_of;
use pacman_common::{Error, ProcId, Result, Row, TableId, Timestamp, Value, VarId};
use pacman_engine::epoch::WorkerEpoch;
use pacman_engine::{run_procedure_with_epoch, Catalog, CommitInfo, DataAccess, Database};
use pacman_sproc::{
    EvalCtx, Expr, OpKind, Params, ProcBuilder, ProcRegistry, ProcedureDef, VarStore,
};
use pacman_wal::{Durability, LogScheme, WorkerLogBuffer};
use proptest::prelude::*;

/// The log a lifecycle test writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Log {
    /// Command records only.
    Command,
    /// Command logging where every third transaction is ad-hoc and logs
    /// its write set (§4.5): the mixed log CLR and CLR-P replay.
    Mixed,
    /// Logical records only.
    Logical,
}

impl Log {
    /// The durability scheme that writes this log.
    pub fn scheme(self) -> LogScheme {
        match self {
            Log::Command | Log::Mixed => LogScheme::Command,
            Log::Logical => LogScheme::Logical,
        }
    }
}

/// A worker committing through a durability stack with the commit
/// driver's staging discipline: records stage into the worker's epoch
/// arena; before the worker acknowledges a newer epoch, the arena hands
/// its older records to the logger; before it retires, the rest. The
/// logger seals an epoch as soon as every acknowledgement is past it, so a
/// record still in an arena at that point would miss its batch file.
pub struct LoggingWorker<'a> {
    dur: &'a Durability,
    epoch: WorkerEpoch,
    buf: WorkerLogBuffer,
    logger: usize,
    max_epoch: u64,
    /// Every `adhoc_every`-th staged transaction is ad-hoc (0 = none).
    adhoc_every: u64,
    staged: u64,
}

impl<'a> LoggingWorker<'a> {
    /// A registered worker whose records go to logger `logger`.
    pub fn new(dur: &'a Durability, logger: usize) -> Self {
        LoggingWorker {
            dur,
            epoch: dur.register_worker(),
            buf: WorkerLogBuffer::new(),
            logger,
            max_epoch: 0,
            adhoc_every: 0,
            staged: 0,
        }
    }

    /// [`LoggingWorker::new`], writing `log` (the durability stack must
    /// run `log.scheme()`).
    pub fn writing(dur: &'a Durability, logger: usize, log: Log) -> Self {
        let mut worker = LoggingWorker::new(dur, logger);
        if log == Log::Mixed {
            worker.adhoc_every = 3;
        }
        worker
    }

    /// Acknowledge the current epoch, first handing the logger what the
    /// arena holds of older ones. Call before each transaction.
    pub fn enter(&mut self) -> u64 {
        let e = self.epoch.peek();
        self.dur.flush_before_ack(&mut self.buf, self.logger, e);
        self.epoch.enter_at(e);
        e
    }

    /// Stage a committed transaction's record; a read-only one logs
    /// nothing.
    pub fn log(&mut self, info: &CommitInfo, proc: ProcId, params: &Params) {
        if info.writes.is_empty() {
            return;
        }
        self.max_epoch = self.max_epoch.max(epoch_of(info.ts));
        self.staged += 1;
        let adhoc = self.adhoc_every > 0 && self.staged.is_multiple_of(self.adhoc_every);
        self.dur
            .log_commit_buffered(&mut self.buf, self.logger, info, proc, params, adhoc);
    }

    /// One sequential transaction: enter, run `proc` at the current epoch,
    /// log it.
    pub fn run(&mut self, db: &Database, registry: &ProcRegistry, proc: ProcId, params: &Params) {
        self.enter();
        let def = registry.get(proc).expect("registered procedure");
        let em = self.dur.epoch_manager();
        let info = run_procedure_with_epoch(db, def, params, || em.current())
            .expect("sequential txns never abort");
        self.log(&info, proc, params);
    }

    /// Hand the arena to the logger and retire. Returns the highest epoch
    /// staged: the one to wait for.
    pub fn retire(mut self) -> u64 {
        self.dur.flush_worker(&mut self.buf, self.logger);
        self.epoch.retire();
        self.max_epoch
    }
}

pub const T: TableId = TableId::new(0);
pub const U: TableId = TableId::new(1);
pub const ARITY: usize = 2;

/// Keys 0..3 are live, 4 never existed, 5 is a tombstone.
pub const MISSING: u64 = 4;
pub const TOMBSTONE: u64 = 5;

pub fn seeded_db() -> Database {
    let mut c = Catalog::new();
    c.add_table("t", ARITY);
    c.add_table("u", ARITY);
    let db = Database::new(c);
    for table in [T, U] {
        for k in 0..MISSING {
            let base = (table.0 as i64 + 1) * 100 + k as i64 * 10;
            db.seed_row(
                table,
                k,
                Row::from([Value::Int(base), Value::Int(base + 1)]),
            )
            .unwrap();
        }
        db.table(table).unwrap().install_lww(TOMBSTONE, 0, None);
    }
    db
}

/// Interpret ops `only` (ascending) of the procedure straight off its op
/// list: no plan, no sites, no registers — every op walks its own guard
/// and key trees, and every read is published to `vars`.
pub fn naive_execute(
    proc: &ProcedureDef,
    only: std::ops::Range<usize>,
    params: &Params,
    vars: &VarStore,
    access: &mut dyn DataAccess,
) -> Result<u64> {
    let mut executed = 0;
    let mut locals: Vec<(VarId, Value)> = Vec::new();
    let mut start = only.start;
    while start < only.end {
        // A loop body, or one un-looped op.
        let loop_id = proc.ops[start].loop_id;
        let mut end = start + 1;
        while loop_id.is_some() && end < only.end && proc.ops[end].loop_id == loop_id {
            end += 1;
        }
        let iterations = match &proc.ops[start].loop_count {
            None => 1,
            Some(count) => match count.eval(&EvalCtx::of_params(params))? {
                Value::Int(n) if n >= 0 => n as u64,
                v => return Err(Error::InvalidProcedure(format!("loop count {v}"))),
            },
        };
        for i in 0..iterations {
            locals.clear();
            for op in &proc.ops[start..end] {
                let ctx = EvalCtx {
                    params,
                    vars: Some(vars),
                    locals: &locals,
                    loop_index: loop_id.map(|_| i),
                };
                if let Some(g) = &op.guard {
                    if !g.eval(&ctx)?.truthy() {
                        continue;
                    }
                }
                executed += 1;
                let key = op.key.eval_key(&ctx)?;
                match &op.kind {
                    OpKind::Read { col, out } => {
                        let val = access.read(op.table, key, *col)?;
                        if proc.is_loop_local(*out) {
                            vars.set_indexed(*out, i, val.clone());
                            locals.push((*out, val));
                        } else {
                            vars.set(*out, val);
                        }
                    }
                    OpKind::Write { col, value } => {
                        let val = value.eval(&ctx)?;
                        access.write_col(op.table, key, *col, val)?;
                    }
                    OpKind::Insert { row } => {
                        let cols = row.iter().map(|e| e.eval(&ctx)).collect::<Result<_>>()?;
                        access.insert(op.table, key, Row::new(cols))?;
                    }
                    OpKind::Delete => access.delete(op.table, key)?,
                }
            }
        }
        start = end;
    }
    Ok(executed)
}

// ---------------------------------------------------------------------
// Random pieces.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
pub enum OpSpec {
    Read {
        col: usize,
    },
    /// Write a constant, or the most recent read's value plus one.
    Write {
        col: usize,
        from_last_read: bool,
    },
    Insert,
    Delete,
}

#[derive(Clone, Debug)]
pub struct OpGen {
    pub spec: OpSpec,
    pub other_table: bool,
    pub key: u64,
    /// Which of several spellings of the same key to use — different
    /// spellings are different access sites naming one tuple.
    pub key_form: u8,
    /// 0 = unguarded, 1 = parameter guard that holds, 2 = parameter guard
    /// that fails, 3 = guard on the most recent read (decided in-piece).
    pub guard: u8,
}

pub fn op_strategy() -> impl Strategy<Value = OpGen> {
    // Column 2 is out of range and keys 4 and 5 are missing / tombstoned;
    // both are drawn rarely, so that most pieces run to completion.
    let col = || (0usize..24).prop_map(|c| if c == 0 { ARITY } else { c % ARITY });
    let spec = prop_oneof![
        col().prop_map(|col| OpSpec::Read { col }),
        col().prop_map(|col| OpSpec::Read { col }),
        (col(), any::<bool>()).prop_map(|(col, from_last_read)| OpSpec::Write {
            col,
            from_last_read
        }),
        (col(), any::<bool>()).prop_map(|(col, from_last_read)| OpSpec::Write {
            col,
            from_last_read
        }),
        Just(OpSpec::Insert),
        Just(OpSpec::Delete),
    ];
    let key = (0u64..48).prop_map(|k| if k < 6 { k } else { k % 4 });
    (spec, any::<bool>(), key, 0u8..3, 0u8..6).prop_map(|(spec, other, key, key_form, guard)| {
        OpGen {
            spec,
            // Mostly one table, so that tuples repeat.
            other_table: other && key_form == 0,
            key,
            key_form,
            guard: guard.min(3),
        }
    })
}

/// `params[0] = 0`, `params[1] = 1`, `params[2 + k] = k`.
pub fn piece_params() -> Params {
    let mut p = vec![Value::Int(0), Value::Int(1)];
    p.extend((0..6).map(Value::Int));
    p.into()
}

/// Build the procedure: `ops` straight-line, or as the body of a
/// two-iteration loop whose keys shift by the loop index.
pub fn build(ops: &[OpGen], looped: bool) -> ProcedureDef {
    let mut b = ProcBuilder::new(ProcId::new(0), "Piece", 8);
    let body = |b: &mut ProcBuilder| {
        let mut last_read: Option<VarId> = None;
        for (n, op) in ops.iter().enumerate() {
            let table = if op.other_table { U } else { T };
            let k = op.key as i64;
            let mut key = match op.key_form {
                0 => Expr::int(k),
                1 => Expr::param(2 + op.key as usize),
                _ => Expr::add(Expr::param(0), Expr::int(k)),
            };
            if looped {
                // Iteration 1 shifts every key by one (mod the live keys
                // for those that were live).
                key = Expr::add(key, Expr::LoopIndex);
            }
            let guard = match (op.guard, last_read) {
                (1, _) => Some(Expr::gt(Expr::param(1), Expr::int(0))),
                (2, _) => Some(Expr::gt(Expr::param(0), Expr::int(0))),
                (3, Some(v)) => Some(Expr::gt(Expr::var(v), Expr::int(150))),
                _ => None,
            };
            let emit = |b: &mut ProcBuilder, last_read: &mut Option<VarId>| match &op.spec {
                OpSpec::Read { col } => {
                    let v = b.read(table, key.clone(), *col);
                    // A read behind the failing guard never binds; later
                    // ops do not lean on it.
                    if op.guard != 2 {
                        *last_read = Some(v);
                    }
                }
                OpSpec::Write {
                    col,
                    from_last_read,
                } => {
                    let value = match (from_last_read, *last_read) {
                        (true, Some(v)) => Expr::add(Expr::var(v), Expr::int(1)),
                        _ => Expr::int(1000 + n as i64),
                    };
                    b.write(table, key.clone(), *col, value);
                }
                OpSpec::Insert => b.insert(
                    table,
                    key.clone(),
                    vec![Expr::int(2000 + n as i64), Expr::param(1)],
                ),
                OpSpec::Delete => b.delete(table, key.clone()),
            };
            match guard {
                Some(g) => b.guarded(g, |b| emit(b, &mut last_read)),
                None => emit(b, &mut last_read),
            }
        }
    };
    if looped {
        b.repeat(Expr::int(2), body);
    } else {
        body(&mut b);
    }
    b.build().expect("generated procedure is valid")
}

/// Every tuple of both tables, tombstones and their timestamps included.
pub fn all_newest(db: &Database) -> Vec<Option<(Timestamp, Option<Row>)>> {
    [T, U]
        .into_iter()
        .flat_map(|table| {
            (0..=TOMBSTONE + 1).map(move |k| db.table(table).unwrap().get(k).map(|c| c.newest()))
        })
        .collect()
}
