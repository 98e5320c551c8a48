//! Piece and record execution against the recovering database.
//!
//! All installs are latch-free (§6.2: "CLR-P does not require latching
//! during recovery"): the schedule already serializes every conflicting
//! pair, so a plain last-writer-wins install at the original commit
//! timestamp is safe and produces the single-version recovered state.

use crate::schedule::{Piece, PieceOps, TxnCtx};
use pacman_common::{Result, Timestamp};
use pacman_engine::{execute_plan, Database, ExecFrame, ReplayAccess, WriteKind, WriteRecord};
use pacman_sproc::{Access, ProcRegistry, VarStore};
use pacman_wal::{PayloadKind, RecordView};

/// Install a tuple-level write set at timestamp `ts`. Returns the number of
/// images installed.
pub fn apply_writes(
    db: &Database,
    ts: Timestamp,
    writes: impl IntoIterator<Item = WriteRecord>,
) -> Result<u64> {
    let mut installed = 0;
    for w in writes {
        let after = match w.kind {
            WriteKind::Delete => None,
            WriteKind::Update | WriteKind::Insert => w.after,
        };
        db.table(w.table)?.install_lww(w.key, ts, after);
        installed += 1;
    }
    Ok(installed)
}

/// One replay thread's executor: the tuple cursor and the interpreter
/// scratch, reused from piece to piece and record to record.
pub struct Replayer<'a> {
    db: &'a Database,
    access: ReplayAccess<'a>,
    frame: ExecFrame,
}

impl<'a> Replayer<'a> {
    /// An executor against the recovering database.
    pub fn new(db: &'a Database) -> Self {
        Replayer {
            db,
            access: ReplayAccess::new(db, 0),
            frame: ExecFrame::default(),
        }
    }

    /// Execute one piece of the schedule (a procedure slice or an ad-hoc
    /// write group). `resolved` are the piece's access slots from parameter
    /// checking, if it ran ([`crate::dynamic::PieceDag::resolved`]).
    /// Returns the number of tuple images the piece installed, for metrics.
    ///
    /// Every image the piece produced is installed when this returns `Ok`.
    /// Callers rely on it: the runtime releases the piece's DAG dependents,
    /// completes its piece-set and publishes the block watermark only after
    /// this call, and that order is what makes the cursor's deferred
    /// installs invisible (see [`ReplayAccess`]). On an error the image
    /// still pending is dropped; recovery fails as a whole.
    pub fn execute_piece(
        &mut self,
        piece: &Piece,
        txns: &[TxnCtx],
        resolved: Option<&[Option<Access>]>,
    ) -> Result<u64> {
        match &piece.ops {
            PieceOps::Slice(plan) => {
                let ctx = &txns[piece.txn];
                let proc = ctx.proc.as_ref().expect("slice piece has a procedure");
                self.access.retarget(piece.ts);
                execute_plan(
                    proc,
                    plan,
                    &ctx.params,
                    &ctx.vars,
                    resolved,
                    &mut self.frame,
                    &mut self.access,
                )?;
                self.access.finish();
                Ok(self.access.take_installed())
            }
            PieceOps::Writes(writes) => apply_writes(self.db, piece.ts, writes.iter().cloned()),
        }
    }

    /// Re-execute one log record in commitment order (the CLR path: one
    /// thread), through the procedure's replay plan — the same replay-live
    /// operations CLR-P spreads over its pieces, so the two differ in
    /// scheduling only. Returns the number of tuple images installed.
    pub fn replay_record(&mut self, registry: &ProcRegistry, record: &RecordView) -> Result<u64> {
        match record.kind() {
            PayloadKind::Command { proc } => {
                let def = registry.get(proc)?;
                let params = record.params().expect("command records carry params");
                self.access.retarget(record.ts());
                // One plan holds every operation replay runs: no variable
                // leaves its register.
                execute_plan(
                    def,
                    def.replay_plan(),
                    &params,
                    VarStore::shared_empty(),
                    None,
                    &mut self.frame,
                    &mut self.access,
                )?;
                self.access.finish();
                Ok(self.access.take_installed())
            }
            PayloadKind::Writes { .. } => apply_writes(
                self.db,
                record.ts(),
                record.writes().expect("tuple-level records carry writes"),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::codec::Cursor;
    use pacman_common::{Encoder, ProcId, Row, TableId, Value};
    use pacman_engine::Catalog;
    use pacman_sproc::{Expr, ProcBuilder};
    use pacman_wal::{LogPayload, TxnLogRecord};
    use std::sync::Arc;

    const T: TableId = TableId::new(0);

    fn db() -> Database {
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        for k in 0..4 {
            db.seed_row(T, k, Row::from([Value::Int(100)])).unwrap();
        }
        db
    }

    #[test]
    fn apply_writes_installs_and_deletes() {
        let db = db();
        let installed = apply_writes(
            &db,
            9,
            [
                WriteRecord {
                    table: T,
                    key: 0,
                    kind: WriteKind::Update,
                    after: Some(Row::from([Value::Int(55)])),
                    prev_ts: 0,
                },
                WriteRecord {
                    table: T,
                    key: 1,
                    kind: WriteKind::Delete,
                    after: None,
                    prev_ts: 0,
                },
            ],
        )
        .unwrap();
        assert_eq!(installed, 2);
        let chain = db.table(T).unwrap().get(0).unwrap();
        assert_eq!(chain.newest().1.unwrap().col(0), Value::Int(55));
        assert!(db.table(T).unwrap().get(1).unwrap().newest().1.is_none());
    }

    #[test]
    fn serial_replay_of_command_record() {
        let db = db();
        let mut reg = ProcRegistry::new();
        let mut b = ProcBuilder::new(ProcId::new(0), "Inc", 2);
        let v = b.read(T, Expr::param(0), 0);
        b.write(
            T,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        reg.register(b.build().unwrap()).unwrap();
        let bytes = TxnLogRecord {
            ts: 7,
            payload: LogPayload::Command {
                proc: ProcId::new(0),
                params: Arc::from(vec![Value::Int(2), Value::Int(5)]),
            },
        }
        .to_bytes();
        let rec = RecordView::parse(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(Replayer::new(&db).replay_record(&reg, &rec).unwrap(), 1);
        let chain = db.table(T).unwrap().get(2).unwrap();
        let (ts, row) = chain.newest();
        assert_eq!(ts, 7);
        assert_eq!(row.unwrap().col(0), Value::Int(105));
    }
}
