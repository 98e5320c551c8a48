//! Execution schedules (§4.2, Fig. 6).
//!
//! A reloaded log batch turns into an execution schedule: every command
//! record is instantiated into one *piece* per piece template of its
//! procedure, every ad-hoc record into one write-only piece per block that
//! owns the written tables (§4.5). Pieces belonging to the same block form
//! a *piece-set*, ordered by the transactions' commitment order.

use crate::static_analysis::GlobalGraph;
use pacman_common::{BlockId, Result, Timestamp};
use pacman_engine::WriteRecord;
use pacman_sproc::{Params, PiecePlan, ProcRegistry, ProcedureDef, VarStore};
use pacman_wal::{MergedBatchView, PayloadKind};
use std::sync::Arc;

/// Per-transaction context shared by all of its pieces.
#[derive(Debug)]
pub struct TxnCtx {
    /// Commit timestamp (replay order).
    pub ts: Timestamp,
    /// The procedure, for command records.
    pub proc: Option<Arc<ProcedureDef>>,
    /// Invocation parameters (empty for ad-hoc records).
    pub params: Params,
    /// Cross-piece variable store (Fig. 7's `dst` hand-off); the batch's
    /// shared empty one when no piece of the procedure hands a variable
    /// over.
    pub vars: Arc<VarStore>,
}

/// What a piece executes.
#[derive(Clone, Debug)]
pub enum PieceOps {
    /// A slice of the transaction's procedure, as the plan the global
    /// dependency graph compiled for its piece template.
    Slice(Arc<PiecePlan>),
    /// Write images to install (ad-hoc transactions, §4.5).
    Writes(Arc<Vec<WriteRecord>>),
}

/// One transaction piece (`P_b^t` in the paper's notation).
#[derive(Clone, Debug)]
pub struct Piece {
    /// Index into [`ExecutionSchedule::txns`].
    pub txn: usize,
    /// The transaction's commit timestamp.
    pub ts: Timestamp,
    /// The work.
    pub ops: PieceOps,
}

/// All pieces of one block, in commitment order.
#[derive(Debug)]
pub struct PieceSet {
    /// The block these pieces instantiate.
    pub block: BlockId,
    /// Pieces ordered by `ts`.
    pub pieces: Vec<Piece>,
}

/// The execution schedule of one log batch.
#[derive(Debug)]
pub struct ExecutionSchedule {
    /// Batch sequence number.
    pub batch_index: u64,
    /// Transactions in commitment order.
    pub txns: Vec<TxnCtx>,
    /// One piece-set per GDG block (some possibly empty).
    pub piece_sets: Vec<PieceSet>,
}

impl ExecutionSchedule {
    /// Instantiate the schedule for `batch` using the global dependency
    /// graph (Fig. 6's construction). Records are read in place: a command
    /// decodes its parameter list once, into its [`TxnCtx`], and a
    /// tuple-level record decodes each write once, into its piece.
    pub fn build(
        gdg: &GlobalGraph,
        registry: &ProcRegistry,
        batch: &MergedBatchView,
    ) -> Result<Self> {
        let mut piece_sets: Vec<PieceSet> = (0..gdg.num_blocks())
            .map(|b| PieceSet {
                block: BlockId::new(b as u32),
                pieces: Vec::new(),
            })
            .collect();
        let mut txns = Vec::with_capacity(batch.len());
        // Scratch arena reused across the whole batch: the outer grouping
        // vector keeps its capacity from record to record (the per-group
        // vectors move into their pieces' `Arc`s), and transactions with
        // nothing to hand over — write-only ones, and procedures none of
        // whose pieces publishes or imports a variable — share one empty
        // param/var context instead of allocating fresh ones per record.
        let mut by_block: Vec<(BlockId, Vec<WriteRecord>)> = Vec::new();
        let empty_params: Params = Arc::from(Vec::new());
        let empty_vars = Arc::new(VarStore::new(0));

        for record in batch.iter() {
            let txn_idx = txns.len();
            let ts = record.ts();
            match record.kind() {
                PayloadKind::Command { proc } => {
                    let def = Arc::clone(registry.get(proc)?);
                    let plans = gdg.plans_for(proc);
                    let vars = if plans.iter().any(|p| p.hands_off()) {
                        Arc::new(VarStore::new(def.num_vars))
                    } else {
                        Arc::clone(&empty_vars)
                    };
                    for (tmpl, plan) in gdg.templates_for(proc).iter().zip(plans) {
                        piece_sets[tmpl.block.index()].pieces.push(Piece {
                            txn: txn_idx,
                            ts,
                            ops: PieceOps::Slice(Arc::clone(plan)),
                        });
                    }
                    txns.push(TxnCtx {
                        ts,
                        proc: Some(def),
                        params: record.params().expect("command records carry params"),
                        vars,
                    });
                }
                // Tuple-level records — ad-hoc transactions (§4.5) —
                // short-circuit re-execution: their write sets install
                // directly, dispatched per block.
                PayloadKind::Writes { .. } => {
                    // Group the write set by owning block (§4.5): each write
                    // operation is dispatched to the piece-subset of the
                    // block that owns its table.
                    by_block.clear();
                    for w in record.writes().expect("tuple-level records carry writes") {
                        let block = gdg.install_block(w.table);
                        match by_block.iter_mut().find(|(b, _)| *b == block) {
                            Some((_, v)) => v.push(w),
                            None => by_block.push((block, vec![w])),
                        }
                    }
                    for (block, group) in by_block.drain(..) {
                        piece_sets[block.index()].pieces.push(Piece {
                            txn: txn_idx,
                            ts,
                            ops: PieceOps::Writes(Arc::new(group)),
                        });
                    }
                    txns.push(TxnCtx {
                        ts,
                        proc: None,
                        params: Arc::clone(&empty_params),
                        vars: Arc::clone(&empty_vars),
                    });
                }
            }
        }
        Ok(ExecutionSchedule {
            batch_index: batch.index,
            txns,
            piece_sets,
        })
    }

    /// Piece counts per block — the workload-distribution estimate used for
    /// core assignment (§4.4, Fig. 10).
    pub fn piece_counts(&self) -> Vec<usize> {
        self.piece_sets.iter().map(|s| s.pieces.len()).collect()
    }

    /// Total number of pieces.
    pub fn total_pieces(&self) -> usize {
        self.piece_sets.iter().map(|s| s.pieces.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::Encoder;
    use pacman_common::{ProcId, TableId, Value};
    use pacman_engine::WriteKind;
    use pacman_sproc::{Expr, ProcBuilder};
    use pacman_wal::{merged_view_from_buffers, LogPayload, TxnLogRecord};

    const FAMILY: TableId = TableId::new(0);
    const CURRENT: TableId = TableId::new(1);
    const SAVING: TableId = TableId::new(2);
    const STATS: TableId = TableId::new(3);

    fn registry() -> ProcRegistry {
        let mut reg = ProcRegistry::new();
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
        reg.register(b.build().unwrap()).unwrap();
        let mut b = ProcBuilder::new(ProcId::new(1), "Deposit", 3);
        let tmp = b.read(CURRENT, Expr::param(0), 0);
        b.write(
            CURRENT,
            Expr::param(0),
            0,
            Expr::add(Expr::var(tmp), Expr::param(1)),
        );
        let rich = Expr::gt(Expr::add(Expr::var(tmp), Expr::param(1)), Expr::int(10000));
        b.guarded(rich.clone(), |b| {
            let bonus = b.read(SAVING, Expr::param(0), 0);
            b.write(
                SAVING,
                Expr::param(0),
                0,
                Expr::add(Expr::var(bonus), Expr::int(2)),
            );
        });
        b.guarded(rich, |b| {
            let count = b.read(STATS, Expr::param(2), 0);
            b.write(
                STATS,
                Expr::param(2),
                0,
                Expr::add(Expr::var(count), Expr::int(1)),
            );
        });
        reg.register(b.build().unwrap()).unwrap();
        reg
    }

    /// `records` encoded into one file and read back as batch `index`.
    fn batch(index: u64, records: &[TxnLogRecord]) -> MergedBatchView {
        let mut buf = Vec::new();
        for r in records {
            r.encode(&mut buf);
        }
        merged_view_from_buffers(index, vec![buf.into()], u64::MAX, 0).unwrap()
    }

    fn cmd(ts: u64, proc: u32, params: Vec<Value>) -> TxnLogRecord {
        TxnLogRecord {
            ts,
            payload: LogPayload::Command {
                proc: ProcId::new(proc),
                params: params.into(),
            },
        }
    }

    /// The Fig. 6 batch: Txn1 = Transfer, Txn2 = Deposit, Txn3 = Transfer.
    #[test]
    fn fig6_schedule_shape() {
        let reg = registry();
        let gdg = GlobalGraph::analyze(reg.all()).unwrap();
        let batch = batch(
            0,
            &[
                cmd(10, 0, vec![Value::Int(1), Value::Int(5)]),
                cmd(11, 1, vec![Value::Int(2), Value::Int(7), Value::Int(0)]),
                cmd(12, 0, vec![Value::Int(3), Value::Int(9)]),
            ],
        );
        let s = ExecutionSchedule::build(&gdg, &reg, &batch).unwrap();
        assert_eq!(s.txns.len(), 3);
        assert_eq!(s.piece_sets.len(), 4);
        // PSα: txn1, txn3 (Transfer's T1). PSβ: all three. PSγ: all three.
        // PSδ: txn2 only.
        let counts = s.piece_counts();
        assert_eq!(counts, vec![2, 3, 3, 1]);
        // Pieces are in commitment order.
        let beta = &s.piece_sets[1];
        assert_eq!(
            beta.pieces.iter().map(|p| p.ts).collect::<Vec<_>>(),
            vec![10, 11, 12]
        );
        assert_eq!(s.total_pieces(), 9);
        assert_eq!(
            &s.txns[1].params[..],
            &[Value::Int(2), Value::Int(7), Value::Int(0)]
        );
    }

    #[test]
    fn adhoc_records_dispatch_writes_by_block() {
        let reg = registry();
        let gdg = GlobalGraph::analyze(reg.all()).unwrap();
        let writes = vec![
            WriteRecord {
                table: CURRENT,
                key: 1,
                kind: WriteKind::Update,
                after: Some(pacman_common::Row::from([Value::Int(5)])),
                prev_ts: 0,
            },
            WriteRecord {
                table: SAVING,
                key: 1,
                kind: WriteKind::Update,
                after: Some(pacman_common::Row::from([Value::Int(6)])),
                prev_ts: 0,
            },
        ];
        let batch = batch(
            3,
            &[TxnLogRecord {
                ts: 20,
                payload: LogPayload::Writes {
                    writes,
                    physical: false,
                    adhoc: true,
                },
            }],
        );
        let s = ExecutionSchedule::build(&gdg, &reg, &batch).unwrap();
        assert_eq!(s.batch_index, 3);
        // Current is owned by Bβ (index 1), Saving by Bγ (index 2).
        assert_eq!(s.piece_counts(), vec![0, 1, 1, 0]);
        match &s.piece_sets[1].pieces[0].ops {
            PieceOps::Writes(w) => assert_eq!(w.len(), 1),
            other => panic!("expected writes piece, got {other:?}"),
        }
    }

    #[test]
    fn empty_batch_gives_empty_schedule() {
        let reg = registry();
        let gdg = GlobalGraph::analyze(reg.all()).unwrap();
        let s = ExecutionSchedule::build(&gdg, &reg, &MergedBatchView::default()).unwrap();
        assert_eq!(s.total_pieces(), 0);
        assert!(s.txns.is_empty());
    }
}
