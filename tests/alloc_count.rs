//! Allocation-count guard for the zero-copy hot paths.
//!
//! This integration test binary owns its own global allocator: a
//! pass-through wrapper around the system allocator that counts, per
//! thread, how many allocations happen. The counts bound the hot paths
//! this repo optimizes:
//!
//! * **commit** — `Durability::log_commit_buffered` encodes into a
//!   per-worker epoch arena; steady state must stay at or under
//!   2 allocations per command-logged transaction (in practice ~0: the
//!   arena amortizes growth over a whole epoch, and the only residual
//!   allocations are the occasional buffer regrow and the per-epoch
//!   flush handoff);
//! * **replay** — `ExecutionSchedule::build` reads a `MergedBatchView` in
//!   place: a command record costs its parameter list, a one-write
//!   tuple-level record its image plus the piece that carries it, each
//!   under a fixed per-record budget.
//! * **read** — a read-only OCC transaction over shared `Row` images
//!   and the latch-free newest slot must stay at or under 1 allocation
//!   per transaction (the read-set map itself; the reads and the
//!   lock-free validating commit allocate nothing — with the pooled
//!   scratch it measures ~0 in steady state).
//! * **write** — a transaction through the tuple cursor and the
//!   pooled-scratch write path must stay at or under 1 allocation per
//!   *written tuple*, however many of its columns were written: the new
//!   image, one byte buffer (string columns read out of the old image
//!   are views of it, not copies). Everything else (read/write maps, lock
//!   set, record vec, column buffer, image scratch, interpreter frame) is
//!   recycled capacity, and the staged image is the same allocation the
//!   chain installs and the log record carries (no clones).
//! * **interpret** — running a compiled plan through `execute_plan` on a
//!   warm `ExecFrame` allocates nothing of its own: the register file and
//!   the site keys reuse the frame's capacity, operands are read in place,
//!   and no variable store is touched.

use pacman_common::clock::epoch_floor;
use pacman_common::{Key, ProcId, Row, TableId, Value};
use pacman_engine::{
    execute_plan, Catalog, CommitInfo, DataAccess, Database, ExecFrame, TxnAccess, WriteKind,
    WriteRecord,
};
use pacman_sproc::VarStore;
use pacman_storage::{DiskConfig, StorageSet};
use pacman_wal::{
    merged_view_from_buffers, Durability, DurabilityConfig, LogPayload, LogScheme, TxnLogRecord,
    WorkerLogBuffer,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Pass-through allocator that counts the calling thread's allocations.
struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the counters are
// thread-local and touched outside the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOCS.with(|c| c.get())
}

fn boot_command() -> Arc<Durability> {
    let mut c = Catalog::new();
    c.add_table("t", 1);
    let db = Arc::new(Database::new(c));
    let storage = StorageSet::identical(1, DiskConfig::unthrottled("alloc"));
    Durability::start(
        db,
        storage,
        DurabilityConfig {
            scheme: LogScheme::Command,
            num_loggers: 1,
            epoch_interval: Duration::from_millis(2),
            batch_epochs: 8,
            checkpoint_interval: None,
            checkpoint_threads: 1,
            fsync: false,
            ..Default::default()
        },
    )
}

fn one_write() -> WriteRecord {
    WriteRecord {
        table: TableId::new(0),
        key: 7,
        kind: WriteKind::Update,
        after: Some(Row::from([Value::Int(42)])),
        prev_ts: 0,
    }
}

/// Steady-state command-logged commits through the epoch arena stay at
/// or under 2 allocations per transaction — the `fig_alloc` budget.
#[test]
fn buffered_command_commit_stays_within_alloc_budget() {
    let dur = boot_command();
    let we = dur.register_worker();
    let mut wb = WorkerLogBuffer::new();
    let params = pacman_sproc::params([Value::Int(7), Value::Int(42)]);
    let writes = vec![one_write()];

    const WARMUP: u64 = 200;
    const MEASURED: u64 = 2_000;
    let mut measured_allocs = 0u64;
    for i in 0..WARMUP + MEASURED {
        // The driver protocol: flush staged older epochs before the ack
        // advances, commit, stage the record.
        let e = we.peek();
        let a0 = allocs_now();
        dur.flush_before_ack(&mut wb, 0, e);
        let flush_cost = allocs_now() - a0;
        we.enter_at(e);
        let info = CommitInfo {
            ts: epoch_floor(e) | (i + 1),
            writes: writes.clone(),
            ops: 4,
        };
        let a1 = allocs_now();
        dur.log_commit_buffered(&mut wb, 0, &info, ProcId::new(0), &params, false);
        if i >= WARMUP {
            measured_allocs += flush_cost + (allocs_now() - a1);
        }
    }
    dur.flush_worker(&mut wb, 0);
    let per_txn = measured_allocs as f64 / MEASURED as f64;
    println!("buffered commit: {per_txn:.3} allocs/txn over {MEASURED} txns");
    assert!(
        per_txn <= 2.0,
        "command-logged commit exceeded the allocation budget: {per_txn:.3} allocs/txn (budget 2.0)"
    );
    dur.shutdown();
}

/// The arena path allocates strictly less than any per-record staging
/// could: handing each record to the logger in a buffer of its own costs
/// at least one allocation per record, `N` over the run.
#[test]
fn buffered_commit_allocates_less_than_per_record_path() {
    let dur = boot_command();
    let we = dur.register_worker();
    let params = pacman_sproc::params([Value::Int(7), Value::Int(42)]);
    let writes = vec![one_write()];
    const N: u64 = 1_000;

    let mut wb = WorkerLogBuffer::new();
    let mut buffered = 0u64;
    for i in 0..N {
        let e = we.peek();
        let a0 = allocs_now();
        dur.flush_before_ack(&mut wb, 0, e);
        let flush_cost = allocs_now() - a0;
        we.enter_at(e);
        let info = CommitInfo {
            ts: epoch_floor(e) | (i + 1),
            writes: writes.clone(),
            ops: 4,
        };
        let a1 = allocs_now();
        dur.log_commit_buffered(&mut wb, 0, &info, ProcId::new(0), &params, false);
        buffered += flush_cost + (allocs_now() - a1);
    }
    dur.flush_worker(&mut wb, 0);
    println!("arena path: {buffered} allocs / {N} txns");
    assert!(
        buffered < N,
        "arena path must allocate less than once per record: {buffered} >= {N}"
    );
    dur.shutdown();
}

/// A read-only bank-mix transaction (audit a few accounts, commit) pays
/// at most 1 allocation: the read-set map's first insert. Reads hand out
/// refcount bumps on shared row images, validation is latch-free loads of
/// the newest-slot timestamps, and the read-only commit path builds no
/// lock set and ticks no clock.
#[test]
fn read_only_txn_stays_within_alloc_budget() {
    let mut c = Catalog::new();
    c.add_table("acct", 1);
    let db = Database::new(c);
    const ACCTS: u64 = 16;
    for k in 0..ACCTS {
        db.seed_row(TableId::new(0), k, Row::from([Value::Int(100)]))
            .unwrap();
    }
    let t = TableId::new(0);

    const WARMUP: u64 = 100;
    const MEASURED: u64 = 2_000;
    let mut measured_allocs = 0u64;
    for i in 0..WARMUP + MEASURED {
        let a0 = allocs_now();
        let mut txn = db.begin();
        let mut sum = 0i64;
        for j in 0..3 {
            let row = txn.read(t, (i + j) % ACCTS).unwrap();
            sum += row.col(0).as_int().unwrap();
        }
        txn.commit().unwrap();
        assert_eq!(sum, 300);
        if i >= WARMUP {
            measured_allocs += allocs_now() - a0;
        }
    }
    let per_txn = measured_allocs as f64 / MEASURED as f64;
    println!("read-only txn: {per_txn:.3} allocs/txn over {MEASURED} txns");
    assert!(
        per_txn <= 1.0,
        "read-only txn exceeded the allocation budget: {per_txn:.3} allocs/txn (budget 1.0)"
    );
}

/// A steady-state single-row update transaction pays at most 1
/// allocation: the freshly encoded image. The scratch (read/write maps,
/// lock set, record vec) comes warm from the thread-local pool, `commit`
/// shares the image between the chain install and the `CommitInfo`
/// record, and `recycle_commit_info` hands the record buffer back to the
/// pool.
#[test]
fn update_txn_stays_within_alloc_budget() {
    let mut c = Catalog::new();
    c.add_table("acct", 1);
    let db = Database::new(c);
    const ACCTS: u64 = 16;
    for k in 0..ACCTS {
        db.seed_row(TableId::new(0), k, Row::from([Value::Int(100)]))
            .unwrap();
    }
    let t = TableId::new(0);

    const WARMUP: u64 = 100;
    const MEASURED: u64 = 2_000;
    let mut measured_allocs = 0u64;
    for i in 0..WARMUP + MEASURED {
        let a0 = allocs_now();
        let mut txn = db.begin();
        let mut access = TxnAccess::new(&mut txn);
        access
            .add_col(t, i % ACCTS, 0, &Value::Int(1), false)
            .unwrap();
        access.finish();
        let info = txn.commit().unwrap();
        if i >= WARMUP {
            measured_allocs += allocs_now() - a0;
        }

        // Zero-clone install: the log record and the chain's newest
        // version hold the *same* image, not copies.
        let staged = info.writes[0].after.as_ref().unwrap();
        let chain = db.table(t).unwrap().get(i % ACCTS).unwrap();
        let (_, newest) = chain.newest();
        assert!(
            Row::ptr_eq(staged, &newest.unwrap()),
            "install path cloned the row image"
        );
        pacman_engine::recycle_commit_info(info);
    }
    let per_txn = measured_allocs as f64 / MEASURED as f64;
    println!("update txn: {per_txn:.3} allocs/txn over {MEASURED} txns");
    assert!(
        per_txn <= 1.0,
        "update txn exceeded the allocation budget: {per_txn:.3} allocs/txn (budget 1.0)"
    );
}

/// A warm ten-line TPC-C NewOrder through `run_procedure` writes eleven
/// tuples — the district's order counter and three columns of each of ten
/// stock rows — and pays for eleven images, one block each: the tuple
/// cursor encodes an image when it leaves a tuple, not per column write
/// (which would be 31 images here), and the stock rows' string columns
/// travel as views of the image they were read from.
#[test]
fn new_order_allocates_one_block_per_written_tuple() {
    use pacman_workloads::tpcc::{procs::new_order, Tpcc, TpccConfig};
    use pacman_workloads::Workload;
    let tpcc = Tpcc::new(TpccConfig::small());
    let db = Database::new(tpcc.catalog());
    tpcc.load(&db);
    let new_order = new_order();
    let mut args = vec![Value::Int(1), Value::Int(2), Value::Int(10)];
    for line in 0..10 {
        args.extend([Value::Int(10 + line), Value::Int(1), Value::Int(5)]);
    }
    let params: pacman_sproc::Params = args.into();

    const WARMUP: u64 = 100;
    const MEASURED: u64 = 500;
    let mut measured_allocs = 0u64;
    for i in 0..WARMUP + MEASURED {
        let a0 = allocs_now();
        let info = pacman_engine::run_procedure(&db, &new_order, &params).unwrap();
        assert_eq!(info.writes.len(), 11);
        pacman_engine::recycle_commit_info(info);
        if i >= WARMUP {
            measured_allocs += allocs_now() - a0;
        }
    }
    let per_tuple = measured_allocs as f64 / (MEASURED * 11) as f64;
    println!("NewOrder: {per_tuple:.3} allocs/written tuple over {MEASURED} txns");
    assert!(
        per_tuple <= 1.0,
        "NewOrder exceeded the allocation budget: {per_tuple:.3} allocs/written tuple (budget 1.0)"
    );
}

/// Allocations `ExecutionSchedule::build` may make per record of a view,
/// by record shape. Measured over the 2 000-record batches of
/// `schedule_build_over_a_view_stays_within_budget`: 3.017 per Deposit
/// command record (the parameter list, the variable store's `Arc` and its
/// slots; growing the piece-set vectors is the 0.017) and 3.007 per
/// one-write tuple-level record (the image, the write group, the piece's
/// `Arc`). One more allocation per record breaks either budget.
const COMMAND_RECORD_BUDGET: f64 = 3.1;
const WRITE_RECORD_BUDGET: f64 = 3.1;

/// Building a schedule reads the batch's records in place. A command
/// record pays for its parameter list (and, for a procedure whose pieces
/// hand a variable over, its variable store); a one-write tuple-level
/// record pays for its decoded image, the write group and the piece's
/// `Arc`. Nothing is decoded into an intermediate owned record.
#[test]
fn schedule_build_over_a_view_stays_within_budget() {
    use pacman_core::schedule::ExecutionSchedule;
    use pacman_core::static_analysis::GlobalGraph;
    use pacman_workloads::bank::{Bank, CURRENT, DEPOSIT};
    use pacman_workloads::Workload;
    let registry = Bank::default().registry();
    let gdg = GlobalGraph::analyze(registry.all()).unwrap();
    const RECORDS: u64 = 2_000;
    let batch = |payload: &dyn Fn(u64) -> LogPayload| {
        let mut buf = Vec::new();
        for i in 0..RECORDS {
            let ts = epoch_floor(1) | (i + 1);
            pacman_common::Encoder::encode(
                &TxnLogRecord {
                    ts,
                    payload: payload(i),
                },
                &mut buf,
            );
        }
        merged_view_from_buffers(0, vec![buf.into()], u64::MAX, 0).unwrap()
    };
    let commands = batch(&|i| LogPayload::Command {
        proc: DEPOSIT,
        params: vec![Value::Int(i as i64), Value::Int(5), Value::Int(0)].into(),
    });
    let writes = batch(&|i| LogPayload::Writes {
        writes: vec![WriteRecord {
            table: CURRENT,
            key: i,
            kind: WriteKind::Update,
            after: Some(Row::from([Value::Int(i as i64)])),
            prev_ts: 0,
        }],
        physical: false,
        adhoc: true,
    });
    for (shape, batch, budget) in [
        ("command", &commands, COMMAND_RECORD_BUDGET),
        ("one-write tuple-level", &writes, WRITE_RECORD_BUDGET),
    ] {
        let a0 = allocs_now();
        let schedule = ExecutionSchedule::build(&gdg, &registry, batch).unwrap();
        let per_record = (allocs_now() - a0) as f64 / RECORDS as f64;
        assert_eq!(schedule.txns.len() as u64, RECORDS);
        println!("schedule build, {shape} records: {per_record:.3} allocs/record");
        assert!(
            per_record <= budget,
            "schedule build over {shape} records exceeded the budget: \
             {per_record:.3} allocs/record (budget {budget})"
        );
    }
}

/// Storage that owns no memory: every read is `Int(7)`, every write is
/// dropped. What `execute_plan` allocates over it is the interpreter's own.
struct NoStorage;

impl DataAccess for NoStorage {
    fn read(&mut self, _: TableId, _: Key, _: usize) -> pacman_common::Result<Value> {
        Ok(Value::Int(7))
    }
    fn write_col(&mut self, _: TableId, _: Key, _: usize, _: Value) -> pacman_common::Result<()> {
        Ok(())
    }
    fn insert(&mut self, _: TableId, _: Key, _: Row) -> pacman_common::Result<()> {
        Ok(())
    }
    fn delete(&mut self, _: TableId, _: Key) -> pacman_common::Result<()> {
        Ok(())
    }
}

/// A warm `ExecFrame` runs TPC-C NewOrder (a ten-line order: loop, guards,
/// fused and unfused writes) and Payment through `execute_plan` without a
/// single allocation — whole-procedure plan and replay plan alike.
#[test]
fn warm_exec_frame_interprets_without_allocating() {
    use pacman_workloads::tpcc::procs::{new_order, payment};
    let new_order = new_order();
    let payment = payment();
    let mut args = vec![Value::Int(1), Value::Int(2), Value::Int(10)];
    for line in 0..10 {
        args.extend([Value::Int(100 + line), Value::Int(1), Value::Int(5)]);
    }
    let order_params: pacman_sproc::Params = args.into();
    let payment_params = pacman_sproc::params([
        Value::Int(1),
        Value::Int(2),
        Value::Int(1),
        Value::Int(2),
        Value::Int(33),
        Value::Float(12.5),
    ]);
    let mut frame = ExecFrame::default();
    let mut run = |measured: bool| {
        let mut ops = 0;
        for (proc, params) in [(&new_order, &order_params), (&payment, &payment_params)] {
            for plan in [proc.plan(), proc.replay_plan()] {
                let a0 = allocs_now();
                ops += execute_plan(
                    proc,
                    plan,
                    params,
                    VarStore::shared_empty(),
                    None,
                    &mut frame,
                    &mut NoStorage,
                )
                .unwrap();
                let allocated = allocs_now() - a0;
                assert!(
                    !measured || allocated == 0,
                    "{}: a warm frame allocated {allocated} times",
                    proc.name
                );
            }
        }
        ops
    };
    let warmup = run(false);
    assert_eq!(run(true), warmup);
    // NewOrder runs 3 + 10 x 7 operations (one of a line's two guarded
    // writes executes), its replay plan 1 + 10 fewer reads; Payment 10 both
    // ways. A fused pair counts as the two operations it is.
    assert_eq!(warmup, 73 + 62 + 10 + 10);
}
