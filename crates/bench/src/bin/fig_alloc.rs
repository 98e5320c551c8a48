//! Allocation-count figure: what the zero-copy hot paths cost in
//! allocator traffic.
//!
//! Reports, next to the throughput figures:
//!
//! * **allocs/txn (commit)** — allocator calls per command-logged
//!   transaction through the per-worker epoch arena
//!   (`log_commit_buffered`). Budget: ≤ 2;
//! * **bytes/record (replay)** — bytes requested from the allocator per
//!   log record when scanning a batch through `MergedBatchView` and
//!   decoding each write (the replay hot path);
//! * **allocs/txn (read)** — allocator calls per read-only OCC
//!   transaction on the latch-free read path (shared `Row` images +
//!   newest-slot validation). Budget: ≤ 1, the read-set map itself.
//! * **allocs/txn (write)** — allocator calls per single-row
//!   read-modify-write transaction on the pooled-scratch write path
//!   (tuple cursor + one staged `Row` image shared with the log).
//!   Budget: ≤ 1, the one allocation that is the new image.
//!
//! This bin owns a counting global allocator (a pass-through wrapper
//! over the system allocator), which is why the measurement lives here
//! and not inside the library crates.

use pacman_bench::{banner, print_row, BenchOpts};
use pacman_common::clock::epoch_floor;
use pacman_common::{ProcId, Row, TableId, Value};
use pacman_engine::{Catalog, CommitInfo, DataAccess, Database, TxnAccess, WriteKind, WriteRecord};
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
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the counters are
// thread-local and touched outside the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
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

fn bytes_now() -> u64 {
    BYTES.with(|c| c.get())
}

fn boot_command() -> Arc<Durability> {
    let mut c = Catalog::new();
    c.add_table("t", 1);
    let db = Arc::new(Database::new(c));
    let storage = StorageSet::identical(1, DiskConfig::unthrottled("fig_alloc"));
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

fn one_write(key: u64) -> WriteRecord {
    WriteRecord {
        table: TableId::new(0),
        key,
        kind: WriteKind::Update,
        after: Some(Row::from([Value::Int(key as i64)])),
        prev_ts: 0,
    }
}

/// Allocs/txn through the worker's epoch arena.
fn measure_commit(txns: u64) -> f64 {
    let dur = boot_command();
    let we = dur.register_worker();
    let params = pacman_sproc::params([Value::Int(7), Value::Int(42)]);
    let writes = vec![one_write(7)];

    let mut wb = WorkerLogBuffer::new();
    let mut buffered = 0u64;
    for i in 0..txns {
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
    dur.shutdown();
    buffered as f64 / txns as f64
}

/// Bytes/record scanning a one-write-per-record batch through its view.
fn measure_replay(records: u64) -> f64 {
    let mut buf = Vec::new();
    for i in 0..records {
        let rec = TxnLogRecord {
            ts: epoch_floor(1) | (i + 1),
            payload: LogPayload::Writes {
                writes: vec![one_write(i)],
                physical: false,
                adhoc: false,
            },
        };
        pacman_common::Encoder::encode(&rec, &mut buf);
    }

    let b0 = bytes_now();
    let view = merged_view_from_buffers(0, vec![buf.into()], u64::MAX, 0).unwrap();
    let mut n = 0u64;
    for rec in view.iter() {
        for w in rec.writes().expect("tuple-level records") {
            std::hint::black_box(&w);
            n += 1;
        }
    }
    let view_bytes = bytes_now() - b0;
    assert_eq!(n, records);
    view_bytes as f64 / records as f64
}

/// (allocs/txn, bytes/txn) for a read-only bank-audit transaction: three
/// reads plus a latch-free validating commit.
fn measure_read(txns: u64) -> (f64, f64) {
    let mut c = Catalog::new();
    c.add_table("acct", 1);
    let db = Database::new(c);
    const ACCTS: u64 = 64;
    for k in 0..ACCTS {
        db.seed_row(TableId::new(0), k, Row::from([Value::Int(100)]))
            .unwrap();
    }
    let t = TableId::new(0);

    let warmup = txns / 10;
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    for i in 0..warmup + txns {
        let a0 = allocs_now();
        let b0 = bytes_now();
        let mut txn = db.begin();
        let mut sum = 0i64;
        for j in 0..3 {
            sum += txn
                .read(t, (i + j) % ACCTS)
                .unwrap()
                .col(0)
                .as_int()
                .unwrap();
        }
        txn.commit().unwrap();
        std::hint::black_box(sum);
        if i >= warmup {
            allocs += allocs_now() - a0;
            bytes += bytes_now() - b0;
        }
    }
    (allocs as f64 / txns as f64, bytes as f64 / txns as f64)
}

/// (allocs/txn, bytes/txn) for a single-row read-modify-write
/// transaction through the pooled-scratch write path.
fn measure_write(txns: u64) -> (f64, f64) {
    let mut c = Catalog::new();
    c.add_table("acct", 1);
    let db = Database::new(c);
    const ACCTS: u64 = 64;
    for k in 0..ACCTS {
        db.seed_row(TableId::new(0), k, Row::from([Value::Int(100)]))
            .unwrap();
    }
    let t = TableId::new(0);

    // Warm several installs per account, not just the txn scratch: the
    // first installs on a chain are one-time costs, not per-txn traffic.
    let warmup = (txns / 10).max(ACCTS * 8);
    let mut allocs = 0u64;
    let mut bytes = 0u64;
    for i in 0..warmup + txns {
        let a0 = allocs_now();
        let b0 = bytes_now();
        let mut txn = db.begin();
        let mut access = TxnAccess::new(&mut txn);
        access
            .add_col(t, i % ACCTS, 0, &Value::Int(1), false)
            .unwrap();
        access.finish();
        let info = txn.commit().unwrap();
        pacman_engine::recycle_commit_info(info);
        if i >= warmup {
            allocs += allocs_now() - a0;
            bytes += bytes_now() - b0;
        }
    }
    (allocs as f64 / txns as f64, bytes as f64 / txns as f64)
}

fn main() {
    let opts = BenchOpts::from_args();
    banner(
        "fig_alloc: allocator traffic on the zero-copy hot paths",
        "epoch arenas amortize commit allocations; views replay without decode-to-owned",
    );
    let txns: u64 = if opts.quick { 2_000 } else { 20_000 };
    let records: u64 = if opts.quick { 1_000 } else { 10_000 };

    let arena_per_txn = measure_commit(txns);
    let view_per_rec = measure_replay(records);
    let (read_allocs, read_bytes) = measure_read(txns);
    let (write_allocs, write_bytes) = measure_write(txns);

    let widths = [26, 14];
    print_row(&["path".into(), "value".into()], &widths);
    for (path, value) in [
        ("commit allocs/txn", format!("{arena_per_txn:.3}")),
        ("replay bytes/record", format!("{view_per_rec:.0}")),
        ("read allocs/txn", format!("{read_allocs:.3}")),
        ("read bytes/txn", format!("{read_bytes:.0}")),
        ("write allocs/txn", format!("{write_allocs:.3}")),
        ("write bytes/txn", format!("{write_bytes:.0}")),
    ] {
        print_row(&[path.into(), value], &widths);
    }

    assert!(
        arena_per_txn <= 2.0,
        "commit arena exceeded the allocation budget: {arena_per_txn:.3} allocs/txn"
    );
    assert!(
        read_allocs <= 1.0,
        "read-only txn exceeded the allocation budget: {read_allocs:.3} allocs/txn"
    );
    assert!(
        write_allocs <= 1.0,
        "update txn exceeded the allocation budget: {write_allocs:.3} allocs/txn"
    );

    let reg = pacman_obs::registry();
    reg.gauge_f("bench.fig_alloc.commit_allocs_per_txn_arena")
        .set(arena_per_txn);
    reg.gauge_f("bench.fig_alloc.replay_bytes_per_record_view")
        .set(view_per_rec);
    reg.gauge_f("bench.fig_alloc.read_allocs_per_txn")
        .set(read_allocs);
    reg.gauge_f("bench.fig_alloc.read_bytes_per_txn")
        .set(read_bytes);
    reg.gauge_f("bench.fig_alloc.write_allocs_per_txn")
        .set(write_allocs);
    reg.gauge_f("bench.fig_alloc.write_bytes_per_txn")
        .set(write_bytes);

    pacman_bench::finish_bin("fig_alloc");
}
