//! Oracle test of dynamic analysis.
//!
//! [`build_piece_dag`] derives a piece-set's conflict DAG from compiled
//! plans: one key evaluation per access site per iteration, a flat slot
//! arena, per-key chains, CSR adjacency. The oracle here shares none of
//! that. It expands every piece **op by op** (each op evaluates its own
//! guard and key, straight off the procedure's op list) and decides every
//! *pair* of pieces on its own, O(n²):
//!
//! > `i → j` (`i < j`) iff they share a tuple that at least one of them
//! > writes and no piece strictly between them writes it.
//!
//! A piece whose access set cannot be computed (an unresolvable key) acts
//! as a writer of every tuple. The builder's edge set must equal the
//! oracle's on TPC-C and Smallbank schedules, and on the hand-built
//! opaque-piece and unevaluable-guard cases of `core::dynamic`'s tests.

use pacman_common::Encoder;
use pacman_common::{BlockId, Key, ProcId, TableId, Value};
use pacman_core::dynamic::{build_piece_dag, DagScratch};
use pacman_core::runtime::exec::Replayer;
use pacman_core::schedule::{ExecutionSchedule, Piece, PieceOps, PieceSet, TxnCtx};
use pacman_core::static_analysis::GlobalGraph;
use pacman_engine::Database;
use pacman_sproc::{EvalCtx, Expr, Params, PiecePlan, ProcBuilder, ProcedureDef, VarStore};
use pacman_wal::{merged_view_from_buffers, LogPayload, TxnLogRecord};
use pacman_workloads::smallbank::Smallbank;
use pacman_workloads::tpcc::{Tpcc, TpccConfig};
use pacman_workloads::Workload;
use rand::{rngs::SmallRng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A piece's fully expanded access set (`true` = written), or `None` when
/// a key cannot be computed from the piece's inputs.
type AccessSet = Option<BTreeMap<(TableId, Key), bool>>;

/// Expand `ops` of `proc` one op at a time.
fn expand_ops(proc: &ProcedureDef, ops: &[usize], ctx: &TxnCtx) -> AccessSet {
    let mut out = BTreeMap::new();
    for &idx in ops {
        let op = &proc.ops[idx];
        let iterations = match &op.loop_count {
            None => 1,
            Some(count) => {
                let ectx = EvalCtx {
                    params: &ctx.params,
                    vars: Some(&ctx.vars),
                    locals: &[],
                    loop_index: None,
                };
                match count.eval(&ectx) {
                    Ok(Value::Int(n)) if n >= 0 => n as u64,
                    _ => return None,
                }
            }
        };
        for i in 0..iterations {
            let ectx = EvalCtx {
                params: &ctx.params,
                vars: Some(&ctx.vars),
                locals: &[],
                loop_index: op.loop_id.map(|_| i),
            };
            if let Some(guard) = &op.guard {
                // Evaluable and false: the op will not run. Unevaluable
                // (reads a value this piece itself produces): keep it.
                if guard.eval(&ectx).is_ok_and(|v| !v.truthy()) {
                    continue;
                }
            }
            let Ok(key) = op.key.eval_key(&ectx) else {
                return None;
            };
            *out.entry((op.table, key)).or_insert(false) |= op.is_write();
        }
    }
    Some(out)
}

fn expand(piece: &Piece, txns: &[TxnCtx]) -> AccessSet {
    match &piece.ops {
        PieceOps::Slice(plan) => {
            let ctx = &txns[piece.txn];
            let proc = ctx.proc.as_ref().expect("slice piece has a procedure");
            let ops: Vec<usize> = plan.op_indices().collect();
            expand_ops(proc, &ops, ctx)
        }
        PieceOps::Writes(writes) => Some(writes.iter().map(|w| ((w.table, w.key), true)).collect()),
    }
}

/// The pairwise oracle over expanded access sets.
fn oracle_edges(sets: &[AccessSet]) -> BTreeSet<(u32, u32)> {
    let writes = |m: usize, k: &(TableId, Key)| match &sets[m] {
        None => true,
        Some(acc) => acc.get(k) == Some(&true),
    };
    let mut edges = BTreeSet::new();
    for j in 0..sets.len() {
        for i in 0..j {
            let between_writes = |k: &(TableId, Key)| (i + 1..j).any(|m| writes(m, k));
            let conflict = match (&sets[i], &sets[j]) {
                // An opaque piece conflicts with everything back to the
                // previous opaque piece, which is the writer between.
                (None, _) | (_, None) => !(i + 1..j).any(|m| sets[m].is_none()),
                (Some(a), Some(b)) => a
                    .iter()
                    .any(|(k, &wa)| b.get(k).is_some_and(|&wb| (wa || wb) && !between_writes(k))),
            };
            if conflict {
                edges.insert((i as u32, j as u32));
            }
        }
    }
    edges
}

/// Check one piece-set: builder edges, in-degrees and seeds against the
/// oracle. Returns the number of edges and of pieces with resolved slots.
fn check_set(set: &PieceSet, txns: &[TxnCtx], scratch: &mut DagScratch) -> (usize, usize) {
    let sets: Vec<AccessSet> = set.pieces.iter().map(|p| expand(p, txns)).collect();
    let expected = oracle_edges(&sets);
    let dag = build_piece_dag(set, txns, scratch);
    assert_eq!(dag.n, set.pieces.len());
    let mut got = BTreeSet::new();
    for i in 0..dag.n {
        let deps = dag.dependents(i);
        assert!(
            deps.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        got.extend(deps.iter().map(|&d| (i as u32, d)));
    }
    assert_eq!(got, expected, "block {}", set.block.0);
    let mut resolved = 0;
    for (j, set_j) in sets.iter().enumerate() {
        let indeg = expected.iter().filter(|e| e.1 == j as u32).count() as u32;
        assert_eq!(
            dag.indeg[j].load(std::sync::atomic::Ordering::Relaxed),
            indeg
        );
        assert_eq!(dag.initial_ready.contains(&(j as u32)), indeg == 0);
        // The slots the executor will take its keys from name exactly the
        // expanded tuples, with the same write flags.
        if let (Some(slots), Some(acc)) = (dag.resolved(j), set_j) {
            let mut from_slots = BTreeMap::new();
            for a in slots.iter().flatten() {
                *from_slots.entry((a.table, a.key)).or_insert(false) |= a.write;
            }
            assert_eq!(&from_slots, acc);
            resolved += 1;
        }
    }
    (expected.len(), resolved)
}

/// Drive `n` generated transactions of `workload` through schedule
/// construction, checking every piece-set before executing it (so that
/// downstream piece-sets see the variables upstream pieces bound).
fn check_workload(workload: &dyn Workload, n: usize, seed: u64) {
    let db = Database::new(workload.catalog());
    workload.load(&db);
    let registry = workload.registry();
    let gdg = GlobalGraph::analyze(registry.all()).unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut log = Vec::new();
    for i in 0..n {
        let (proc, params) = workload.next_txn(&mut rng);
        TxnLogRecord {
            ts: (1u64 << 40) | (i as u64 + 1),
            payload: LogPayload::Command { proc, params },
        }
        .encode(&mut log);
    }
    let batch = merged_view_from_buffers(0, vec![log.into()], u64::MAX, 0).unwrap();
    let schedule = ExecutionSchedule::build(&gdg, &registry, &batch).unwrap();

    let mut scratch = DagScratch::default();
    let mut replayer = Replayer::new(&db);
    let mut done = vec![false; gdg.num_blocks()];
    let (mut edges, mut resolved, mut pieces) = (0, 0, 0);
    while let Some(b) = (0..done.len()).find(|&b| {
        !done[b]
            && gdg
                .preds(BlockId::new(b as u32))
                .iter()
                .all(|p| done[p.index()])
    }) {
        let set = &schedule.piece_sets[b];
        let (e, r) = check_set(set, &schedule.txns, &mut scratch);
        edges += e;
        resolved += r;
        pieces += set.pieces.len();
        // Commitment order respects every edge.
        for piece in &set.pieces {
            replayer.execute_piece(piece, &schedule.txns, None).unwrap();
        }
        done[b] = true;
    }
    assert!(done.iter().all(|&d| d), "block order is acyclic");
    assert!(edges > 0, "{}: the schedule has conflicts", workload.name());
    assert_eq!(resolved, pieces, "{}: no opaque pieces", workload.name());
}

#[test]
fn tpcc_schedules_match_the_pairwise_oracle() {
    for seed in [42, 7] {
        check_workload(&Tpcc::new(TpccConfig::small()), 400, seed);
    }
}

#[test]
fn smallbank_schedules_match_the_pairwise_oracle() {
    // Few accounts: long conflict chains, readers between writers.
    let sb = Smallbank {
        accounts: 48,
        ..Smallbank::default()
    };
    for seed in [42, 7] {
        check_workload(&sb, 600, seed);
    }
}

// ---------------------------------------------------------------------
// The special cases of `core::dynamic`'s unit tests.
// ---------------------------------------------------------------------

const T: TableId = TableId::new(0);
const SRC: TableId = TableId::new(1);

fn ctx(proc: &Arc<ProcedureDef>, ts: u64, params: Vec<Value>) -> TxnCtx {
    TxnCtx {
        ts,
        proc: Some(Arc::clone(proc)),
        params: Params::from(params),
        vars: Arc::new(VarStore::new(proc.num_vars)),
    }
}

fn slice_set(proc: &ProcedureDef, ops: &[usize], n: usize) -> PieceSet {
    let plan = Arc::new(PiecePlan::compile(&proc.ops, ops));
    PieceSet {
        block: BlockId::new(0),
        pieces: (0..n)
            .map(|i| Piece {
                txn: i,
                ts: i as u64 + 1,
                ops: PieceOps::Slice(Arc::clone(&plan)),
            })
            .collect(),
    }
}

/// Keys that flow from an upstream piece: pieces whose upstream bound the
/// key resolve it; the others are opaque and serialize their surroundings.
#[test]
fn opaque_pieces_match_the_oracle() {
    let mut b = ProcBuilder::new(ProcId::new(0), "X", 1);
    let dst = b.read(SRC, Expr::param(0), 0);
    b.write(T, Expr::var(dst), 0, Expr::int(1));
    let proc = Arc::new(b.build().unwrap());
    // Bound keys 7, 8, 7, 9, 8 with opaque pieces at positions 2 and 5.
    let bound = [
        Some(7),
        Some(8),
        None,
        Some(7),
        Some(9),
        None,
        Some(8),
        Some(7),
    ];
    let txns: Vec<TxnCtx> = bound
        .iter()
        .enumerate()
        .map(|(i, key)| {
            let c = ctx(&proc, i as u64 + 1, vec![Value::Int(0)]);
            if let Some(k) = key {
                c.vars.set(dst, Value::Int(*k));
            }
            c
        })
        .collect();
    let set = slice_set(&proc, &[1], txns.len());
    let (edges, resolved) = check_set(&set, &txns, &mut DagScratch::default());
    assert_eq!(resolved, 6);
    // 0,1 → 2; 2 → 3,4; 2,3,4 → 5; 5 → 6,7.
    assert_eq!(edges, 2 + 2 + 3 + 2);
}

/// A guard that reads a value the piece itself produces keeps its write
/// conservatively; a guard decided by the parameters drops it.
#[test]
fn guarded_accesses_match_the_oracle() {
    let mut b = ProcBuilder::new(ProcId::new(0), "G", 2);
    let v = b.read(T, Expr::param(0), 0);
    b.guarded(Expr::gt(Expr::var(v), Expr::int(0)), |b| {
        b.write(T, Expr::param(0), 0, Expr::int(9));
    });
    b.guarded(Expr::gt(Expr::param(1), Expr::int(0)), |b| {
        b.write(
            T,
            Expr::add(Expr::param(0), Expr::int(100)),
            0,
            Expr::int(9),
        );
    });
    let proc = Arc::new(b.build().unwrap());
    let params = [(1, 0), (1, 1), (2, 1), (1, 0), (2, 0), (1, 1)];
    let txns: Vec<TxnCtx> = params
        .iter()
        .enumerate()
        .map(|(i, &(k, on))| ctx(&proc, i as u64 + 1, vec![Value::Int(k), Value::Int(on)]))
        .collect();
    let set = slice_set(&proc, &[0, 1, 2], txns.len());
    let (edges, resolved) = check_set(&set, &txns, &mut DagScratch::default());
    assert_eq!(resolved, txns.len());
    // Key 1: 0 → 1 → 3 → 5; key 2: 2 → 4; key 101 (written by pieces 1
    // and 5 only, whose parameter guard holds): 1 → 5.
    assert_eq!(edges, 3 + 1 + 1);
}

/// Tuple-level pieces and read-only slices interleaved on one key.
#[test]
fn write_sets_and_readers_match_the_oracle() {
    use pacman_common::Row;
    use pacman_engine::{WriteKind, WriteRecord};
    let mut b = ProcBuilder::new(ProcId::new(0), "R", 1);
    let _ = b.read(T, Expr::param(0), 0);
    let proc = Arc::new(b.build().unwrap());
    let reader_plan = Arc::new(PiecePlan::compile(&proc.ops, &[0]));
    let writer = |key| {
        PieceOps::Writes(Arc::new(vec![WriteRecord {
            table: T,
            key,
            kind: WriteKind::Update,
            after: Some(Row::from([Value::Int(1)])),
            prev_ts: 0,
        }]))
    };
    let reader = || PieceOps::Slice(Arc::clone(&reader_plan));
    // W9 R9 R9 W9 R9 W5 W9 — every txn reads key 9 when it is a reader.
    let ops = vec![
        writer(9),
        reader(),
        reader(),
        writer(9),
        reader(),
        writer(5),
        writer(9),
    ];
    let txns: Vec<TxnCtx> = (0..ops.len())
        .map(|i| ctx(&proc, i as u64 + 1, vec![Value::Int(9)]))
        .collect();
    let set = PieceSet {
        block: BlockId::new(0),
        pieces: ops
            .into_iter()
            .enumerate()
            .map(|(i, ops)| Piece {
                txn: i,
                ts: i as u64 + 1,
                ops,
            })
            .collect(),
    };
    let (edges, _) = check_set(&set, &txns, &mut DagScratch::default());
    // 0→1, 0→2, 0→3, 1→3, 2→3, 3→4, 3→6, 4→6.
    assert_eq!(edges, 8);
}
