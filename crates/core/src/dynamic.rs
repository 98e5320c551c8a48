//! Dynamic analysis: fine-grained intra-batch parallelism (§4.3.1).
//!
//! At replay time the parameter values of every piece are known — from the
//! log records and from upstream pieces that already ran — so each piece's
//! exact read/write set can be computed (Fig. 8). Pieces of one piece-set
//! that touch disjoint key spaces execute in parallel; conflicting pieces
//! are chained in commitment order. The result is a per-piece-set DAG with
//! per-key last-writer/reader chains:
//!
//! * a write depends on the previous writer *and* all readers since;
//! * a read depends on the previous writer only;
//! * read-read pairs never conflict.
//!
//! The resolved accesses are kept: they land in one flat arena per
//! piece-set (a range of slots per piece, laid out by
//! [`pacman_sproc::resolve_accesses`]) that travels with the DAG, and the
//! executor takes its keys from there instead of evaluating them again.
//! The arena lives exactly as long as the piece-set is active.

use crate::schedule::{PieceOps, PieceSet, TxnCtx};
use pacman_common::{Key, KeyMap, TableId};
use pacman_sproc::{resolve_accesses, Access, ExecFrame};
use std::sync::atomic::AtomicU32;

/// Dependency DAG over the pieces of one piece-set, plus the accesses
/// parameter checking resolved for them.
#[derive(Debug)]
pub struct PieceDag {
    /// Remaining unmet dependencies per piece (consumed during execution).
    pub indeg: Vec<AtomicU32>,
    /// Pieces with no dependencies (execution seeds).
    pub initial_ready: Vec<u32>,
    /// Number of pieces.
    pub n: usize,
    /// Forward adjacency in CSR form: the pieces unblocked by piece `i`
    /// are `dependents[dependents_off[i]..dependents_off[i + 1]]`.
    dependents_off: Vec<u32>,
    dependents: Vec<u32>,
    /// Resolved-access arena: piece `i` owns
    /// `slots[slots_off[i]..slots_off[i + 1]]` (empty for write-set pieces
    /// and for pieces whose access set could not be computed).
    slots_off: Vec<u32>,
    slots: Vec<Option<Access>>,
}

impl PieceDag {
    /// Pieces unblocked by piece `i`, in ascending order.
    pub fn dependents(&self, i: usize) -> &[u32] {
        &self.dependents[self.dependents_off[i] as usize..self.dependents_off[i + 1] as usize]
    }

    /// The access slots resolved for piece `i`, for the executor to take
    /// its keys from; `None` when there are none (see `slots_off`).
    pub fn resolved(&self, i: usize) -> Option<&[Option<Access>]> {
        let slots = &self.slots[self.slots_off[i] as usize..self.slots_off[i + 1] as usize];
        (!slots.is_empty()).then_some(slots)
    }
}

const NONE: u32 = u32::MAX;

/// Last-writer/readers chain of one key. Reader lists are singly linked
/// through [`DagScratch::readers`], so clearing one is a store.
struct KeyState {
    last_writer: u32,
    readers_head: u32,
}

/// Working memory of [`build_piece_dag`], reused from one piece-set to the
/// next by the worker that owns it.
#[derive(Default)]
pub struct DagScratch {
    keys: KeyMap<(TableId, Key), KeyState>,
    /// `(reader piece, next node)` nodes of every key's reader list.
    readers: Vec<(u32, u32)>,
    /// Backward adjacency in CSR form while the set is scanned.
    deps_off: Vec<u32>,
    deps: Vec<u32>,
    since_opaque: Vec<u32>,
    /// Per-piece write position while the adjacency is transposed.
    fill: Vec<u32>,
    /// Registers the pieces' guard and key code runs over.
    frame: ExecFrame,
}

/// Append the dependencies the access `(table, key, write)` of `piece`
/// creates to `deps`, and enter the access into the key's chain.
fn chain_access(
    keys: &mut KeyMap<(TableId, Key), KeyState>,
    readers: &mut Vec<(u32, u32)>,
    deps: &mut Vec<u32>,
    piece: u32,
    (table, key, write): (TableId, Key, bool),
) {
    let st = keys.entry((table, key)).or_insert(KeyState {
        last_writer: NONE,
        readers_head: NONE,
    });
    if st.last_writer != NONE {
        deps.push(st.last_writer);
    }
    if write {
        let mut node = st.readers_head;
        while node != NONE {
            let (reader, next) = readers[node as usize];
            deps.push(reader);
            node = next;
        }
        st.last_writer = piece;
        st.readers_head = NONE;
    } else {
        readers.push((piece, st.readers_head));
        st.readers_head = (readers.len() - 1) as u32;
    }
}

/// Build the conflict DAG for `set`. This is the "parameter checking" cost
/// of Fig. 20.
pub fn build_piece_dag(set: &PieceSet, txns: &[TxnCtx], scratch: &mut DagScratch) -> PieceDag {
    let n = set.pieces.len();
    let DagScratch {
        keys,
        readers,
        deps_off,
        deps,
        since_opaque,
        fill,
        frame,
    } = scratch;
    keys.clear();
    readers.clear();
    deps_off.clear();
    deps.clear();
    since_opaque.clear();
    deps_off.push(0);
    let mut slots: Vec<Option<Access>> = Vec::new();
    let mut slots_off: Vec<u32> = Vec::with_capacity(n + 1);
    slots_off.push(0);
    // Pieces whose access set could not be computed serialize against
    // everything around them.
    let mut last_opaque: Option<u32> = None;

    for (i, piece) in set.pieces.iter().enumerate() {
        let i = i as u32;
        let deps_start = deps.len();
        let slots_start = slots.len();
        let opaque = match &piece.ops {
            PieceOps::Slice(plan) => {
                let ctx = &txns[piece.txn];
                let proc = ctx.proc.as_ref().expect("slice piece has a procedure");
                let vars = Some(&*ctx.vars);
                let r = resolve_accesses(proc, plan, &ctx.params, vars, frame, &mut slots);
                if r.is_err() {
                    slots.truncate(slots_start);
                }
                r.is_err()
            }
            PieceOps::Writes(_) => false,
        };
        if opaque {
            // Depends on everything since (and including) the last opaque.
            deps.extend(since_opaque.iter().copied());
            deps.extend(last_opaque);
            last_opaque = Some(i);
            since_opaque.clear();
            // Conservative: future key accesses must also wait for this
            // piece; model by clearing chains so everyone re-chains through
            // the opaque barrier.
            keys.clear();
            readers.clear();
        } else {
            deps.extend(last_opaque);
            match &piece.ops {
                PieceOps::Slice(_) => {
                    for a in slots[slots_start..].iter().flatten() {
                        chain_access(keys, readers, deps, i, (a.table, a.key, a.write));
                    }
                }
                PieceOps::Writes(writes) => {
                    for w in writes.iter() {
                        chain_access(keys, readers, deps, i, (w.table, w.key, true));
                    }
                }
            }
            since_opaque.push(i);
        }
        // Sort, drop duplicates and the piece itself (a piece may name one
        // tuple through several sites).
        deps[deps_start..].sort_unstable();
        let mut kept = deps_start;
        for k in deps_start..deps.len() {
            let d = deps[k];
            if d != i && (kept == deps_start || deps[kept - 1] != d) {
                deps[kept] = d;
                kept += 1;
            }
        }
        deps.truncate(kept);
        deps_off.push(deps.len() as u32);
        slots_off.push(slots.len() as u32);
    }

    // Transpose the backward adjacency into the forward one the runtime
    // walks: count, prefix-sum, fill in ascending piece order.
    let mut dependents_off = vec![0u32; n + 1];
    for &p in deps.iter() {
        dependents_off[p as usize + 1] += 1;
    }
    for p in 0..n {
        dependents_off[p + 1] += dependents_off[p];
    }
    let mut dependents = vec![0u32; deps.len()];
    let mut indeg = Vec::with_capacity(n);
    let mut initial_ready = Vec::new();
    fill.clear();
    fill.extend_from_slice(&dependents_off[..n]);
    for i in 0..n {
        let mine = &deps[deps_off[i] as usize..deps_off[i + 1] as usize];
        indeg.push(AtomicU32::new(mine.len() as u32));
        if mine.is_empty() {
            initial_ready.push(i as u32);
        }
        for &p in mine {
            dependents[fill[p as usize] as usize] = i as u32;
            fill[p as usize] += 1;
        }
    }
    PieceDag {
        indeg,
        initial_ready,
        n,
        dependents_off,
        dependents,
        slots_off,
        slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Piece;
    use pacman_common::{BlockId, ProcId, Row, Value};
    use pacman_engine::{WriteKind, WriteRecord};
    use pacman_sproc::{Expr, Params, PiecePlan, ProcBuilder, ProcedureDef, VarStore};
    use std::sync::Arc;

    const T: TableId = TableId::new(0);

    /// A single-slice RMW procedure on table T with key = param 0.
    fn rmw_proc() -> Arc<ProcedureDef> {
        let mut b = ProcBuilder::new(ProcId::new(0), "RMW", 2);
        let v = b.read(T, Expr::param(0), 0);
        b.write(
            T,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        Arc::new(b.build().unwrap())
    }

    fn txn_ctx(proc: &Arc<ProcedureDef>, ts: u64, key: i64) -> TxnCtx {
        TxnCtx {
            ts,
            proc: Some(Arc::clone(proc)),
            params: Params::from(vec![Value::Int(key), Value::Int(1)]),
            vars: Arc::new(VarStore::new(proc.num_vars)),
        }
    }

    /// Ops `ops` of `proc` as a piece's work.
    fn slice(proc: &ProcedureDef, ops: &[usize]) -> PieceOps {
        PieceOps::Slice(Arc::new(PiecePlan::compile(&proc.ops, ops)))
    }

    fn slice_piece(txn: usize, ts: u64) -> Piece {
        Piece {
            txn,
            ts,
            ops: slice(&rmw_proc(), &[0, 1]),
        }
    }

    /// Fig. 8: pieces on distinct keys run in parallel; same-key pieces
    /// chain in order.
    #[test]
    fn disjoint_keys_parallel_conflicting_chain() {
        let proc = rmw_proc();
        // Keys: Amy(1), Bob(2), Amy(1)  →  piece 2 depends on piece 0 only.
        let txns = vec![
            txn_ctx(&proc, 10, 1),
            txn_ctx(&proc, 11, 2),
            txn_ctx(&proc, 12, 1),
        ];
        let set = PieceSet {
            block: BlockId::new(0),
            pieces: (0..3).map(|i| slice_piece(i, 10 + i as u64)).collect(),
        };
        let dag = build_piece_dag(&set, &txns, &mut DagScratch::default());
        assert_eq!(dag.initial_ready, vec![0, 1]);
        assert_eq!(dag.dependents(0), vec![2]);
        assert!(dag.dependents(1).is_empty());
        assert_eq!(dag.indeg[2].load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn writes_pieces_conflict_via_keys() {
        let w = |key: u64| -> Piece {
            Piece {
                txn: 0,
                ts: 1,
                ops: PieceOps::Writes(Arc::new(vec![WriteRecord {
                    table: T,
                    key,
                    kind: WriteKind::Update,
                    after: Some(Row::from([Value::Int(0)])),
                    prev_ts: 0,
                }])),
            }
        };
        let txns = vec![TxnCtx {
            ts: 1,
            proc: None,
            params: Params::from(vec![]),
            vars: Arc::new(VarStore::new(0)),
        }];
        let set = PieceSet {
            block: BlockId::new(0),
            pieces: vec![w(5), w(5), w(6)],
        };
        let dag = build_piece_dag(&set, &txns, &mut DagScratch::default());
        assert_eq!(dag.initial_ready, vec![0, 2]);
        assert_eq!(dag.dependents(0), vec![1]);
    }

    /// Readers between writers: the second writer waits for both the first
    /// writer and the reader; the reader waits for the first writer only.
    #[test]
    fn write_read_write_chains() {
        // Build with raw Writes/Slice mix: writer(key 9), reader(key 9),
        // writer(key 9). Use a read-only slice for the middle piece.
        let mut b = ProcBuilder::new(ProcId::new(0), "R", 1);
        let _v = b.read(T, Expr::param(0), 0);
        let read_proc = Arc::new(b.build().unwrap());
        let writer = |ts| Piece {
            txn: 0,
            ts,
            ops: PieceOps::Writes(Arc::new(vec![WriteRecord {
                table: T,
                key: 9,
                kind: WriteKind::Update,
                after: Some(Row::from([Value::Int(1)])),
                prev_ts: 0,
            }])),
        };
        let txns = vec![
            TxnCtx {
                ts: 1,
                proc: None,
                params: Params::from(vec![]),
                vars: Arc::new(VarStore::new(0)),
            },
            TxnCtx {
                ts: 2,
                proc: Some(Arc::clone(&read_proc)),
                params: Params::from(vec![Value::Int(9)]),
                vars: Arc::new(VarStore::new(1)),
            },
        ];
        let set = PieceSet {
            block: BlockId::new(0),
            pieces: vec![
                writer(1),
                Piece {
                    txn: 1,
                    ts: 2,
                    ops: slice(&read_proc, &[0]),
                },
                writer(3),
            ],
        };
        let dag = build_piece_dag(&set, &txns, &mut DagScratch::default());
        assert_eq!(dag.initial_ready, vec![0]);
        assert_eq!(dag.dependents(0), vec![1, 2]);
        assert_eq!(dag.dependents(1), vec![2]);
        assert_eq!(dag.indeg[2].load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn read_read_does_not_conflict() {
        let mut b = ProcBuilder::new(ProcId::new(0), "R", 1);
        let _v = b.read(T, Expr::param(0), 0);
        let read_proc = Arc::new(b.build().unwrap());
        let txns: Vec<TxnCtx> = (0..2)
            .map(|i| TxnCtx {
                ts: i,
                proc: Some(Arc::clone(&read_proc)),
                params: Params::from(vec![Value::Int(4)]),
                vars: Arc::new(VarStore::new(1)),
            })
            .collect();
        let set = PieceSet {
            block: BlockId::new(0),
            pieces: vec![
                Piece {
                    txn: 0,
                    ts: 0,
                    ops: slice(&read_proc, &[0]),
                },
                Piece {
                    txn: 1,
                    ts: 1,
                    ops: slice(&read_proc, &[0]),
                },
            ],
        };
        let dag = build_piece_dag(&set, &txns, &mut DagScratch::default());
        assert_eq!(dag.initial_ready, vec![0, 1], "read-read parallel");
    }

    /// Keys flowing from upstream pieces (bank's `dst`): once the var store
    /// holds the value, the DAG uses the resolved key.
    #[test]
    fn upstream_vars_feed_key_resolution() {
        let mut b = ProcBuilder::new(ProcId::new(0), "X", 1);
        let dst = b.read(TableId::new(1), Expr::param(0), 0);
        b.write(T, Expr::var(dst), 0, Expr::int(1));
        let proc = Arc::new(b.build().unwrap());
        let mk = |key_val: i64| -> TxnCtx {
            let ctx = TxnCtx {
                ts: 1,
                proc: Some(Arc::clone(&proc)),
                params: Params::from(vec![Value::Int(0)]),
                vars: Arc::new(VarStore::new(1)),
            };
            ctx.vars.set(dst, Value::Int(key_val)); // upstream piece ran
            ctx
        };
        let txns = vec![mk(7), mk(8), mk(7)];
        let set = PieceSet {
            block: BlockId::new(0),
            pieces: (0..3)
                .map(|i| Piece {
                    txn: i,
                    ts: i as u64,
                    ops: slice(&proc, &[1]),
                })
                .collect(),
        };
        let dag = build_piece_dag(&set, &txns, &mut DagScratch::default());
        assert_eq!(dag.initial_ready, vec![0, 1]);
        assert_eq!(dag.dependents(0), vec![2], "same dst chains");
    }

    /// Unresolvable access sets serialize through the opaque barrier.
    #[test]
    fn opaque_pieces_serialize() {
        let mut b = ProcBuilder::new(ProcId::new(0), "X", 1);
        let dst = b.read(TableId::new(1), Expr::param(0), 0);
        b.write(T, Expr::var(dst), 0, Expr::int(1));
        let proc = Arc::new(b.build().unwrap());
        // No vars set: the key is unresolvable → opaque.
        let txns: Vec<TxnCtx> = (0..3)
            .map(|_| TxnCtx {
                ts: 1,
                proc: Some(Arc::clone(&proc)),
                params: Params::from(vec![Value::Int(0)]),
                vars: Arc::new(VarStore::new(1)),
            })
            .collect();
        let set = PieceSet {
            block: BlockId::new(0),
            pieces: (0..3)
                .map(|i| Piece {
                    txn: i,
                    ts: i as u64,
                    ops: slice(&proc, &[1]),
                })
                .collect(),
        };
        let dag = build_piece_dag(&set, &txns, &mut DagScratch::default());
        assert_eq!(dag.initial_ready, vec![0], "fully serialized");
        assert_eq!(dag.dependents(0), vec![1]);
        assert_eq!(dag.dependents(1), vec![2]);
    }
}
