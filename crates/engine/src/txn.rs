//! Silo-style OCC transactions.
//!
//! Reads observe the newest committed version and are validated for
//! stability at commit; writes are buffered and installed under per-tuple
//! latches after drawing the commit timestamp. Only the write set is
//! latched: a key that is only read is validated without its latch (see
//! [`Txn::commit_with`]). The timestamp *is* the serialization order, which
//! is exactly the commitment order the log records — the property recovery
//! relies on (§3).
//!
//! # Memory discipline
//!
//! A steady-state write transaction allocates nothing but its row images:
//!
//! * the read map, the write index and its pending writes, the lock order,
//!   the write-record vector and the interpreter's register file live in a
//!   [`TxnScratch`] recycled through a thread-local pool (the same arena
//!   pattern as the WAL's `WorkerLogBuffer`) — `clear()` keeps their
//!   capacity warm;
//! * each written row image is encoded exactly once, as one [`Row`]
//!   allocation, and shared by the pending write, the version chain, the
//!   newest slot and the [`CommitInfo`] after-image the log copies from;
//! * column writes reach the transaction through the tuple cursor
//!   ([`crate::access::TxnAccess`]), which edits the open tuple's columns in
//!   a reusable scratch buffer and stages one image per written tuple
//!   instead of clone-modify-reinsert per operation.
//!
//! The poison/clear contract: a transaction that ends — commit, abort or
//! plain drop — runs [`TxnScratch::reset`] before its scratch re-enters
//! the pool, so no read set, pending write, latch handle or variable
//! binding can leak into a later transaction. The budget is enforced by
//! `tests/alloc_count.rs`.

use crate::access::TupleStore;
use crate::chain::TupleChain;
use crate::database::Database;
use crate::interp::ExecFrame;
use crate::table::Table;
use pacman_common::{Error, Key, KeyMap, Result, Row, TableId, Timestamp, Value};
use pacman_obs::Counter;
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::sync::{Arc, OnceLock};

/// Registry-backed OCC conflict counters. Lazily bound into the global
/// [`pacman_obs::registry`] so the hot path pays one `OnceLock` load plus
/// one relaxed atomic add — no registry lock.
fn occ_aborts() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| pacman_obs::registry().counter("engine.occ.aborts"))
}

fn occ_commits() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| pacman_obs::registry().counter("engine.occ.commits"))
}

/// Transactions that began on recycled scratch (vs. a cold allocation).
/// Under steady load this tracks `engine.occ.commits + engine.occ.aborts`;
/// a gap means the pool is being bypassed.
fn scratch_reuse() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| pacman_obs::registry().counter("engine.txn.scratch_reuse"))
}

/// Full-row images materialized through the general [`Txn::write`] path
/// (clone-modify-reinsert) rather than the tuple cursor. Near zero under
/// TPC-C confirms the cursor is actually taken.
fn row_copies() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| pacman_obs::registry().counter("engine.txn.row_copies"))
}

/// The kind of a buffered write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteKind {
    /// Update an existing row.
    Update,
    /// Create a new row (aborts if the key is live).
    Insert,
    /// Remove the row (installs a tombstone).
    Delete,
}

/// One installed write, as handed to the logging subsystem.
#[derive(Clone, Debug, PartialEq)]
pub struct WriteRecord {
    /// Table written.
    pub table: TableId,
    /// Key written.
    pub key: Key,
    /// Update / insert / delete.
    pub kind: WriteKind,
    /// The after-image (`None` for deletes). Shared with the version chain
    /// the write installed into — the log encoder copies its bytes out, it
    /// never owns a private image.
    pub after: Option<Row>,
    /// Timestamp of the version this write superseded (physical logging
    /// records old/new locations; this is our stand-in, §6.1.1).
    pub prev_ts: Timestamp,
}

/// Result of a successful commit.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitInfo {
    /// Commit timestamp = position in the global commitment order.
    pub ts: Timestamp,
    /// Installed writes in buffer order.
    pub writes: Vec<WriteRecord>,
    /// Operations the interpreter executed to produce this transaction
    /// (guards skipped, loops unrolled); 0 for raw `Txn` use. A measure of
    /// interpretation work per transaction.
    pub ops: u64,
}

/// One buffered write. The table and the chain are resolved once, when the
/// key is first staged, and carried to the install.
struct PendingWrite<'db> {
    table: &'db Table,
    key: (TableId, Key),
    chain: Arc<TupleChain>,
    kind: WriteKind,
    row: Option<Row>,
    /// The timestamp the transaction read the key at, if it read it first:
    /// a key both read and written is validated under its own latch.
    observed: Option<Timestamp>,
}

struct ReadEntry {
    chain: Arc<TupleChain>,
    observed_ts: Timestamp,
    /// The image observed on first read — repeated reads and
    /// read-modify-write staging reuse it (and the chain handle above)
    /// instead of going back through the shard map.
    row: Row,
    /// The key is also in the write set, so it is validated with the
    /// writes, under its latch, not with the read-only keys.
    written: bool,
}

/// Reusable per-transaction working memory: the read set, the write set
/// (an index over pending writes kept in first-write order), the commit
/// lock order and write-record buffers, the read-modify-write column
/// scratch, and the interpreter's register file.
///
/// [`Database::begin`] draws scratch from a thread-local pool and the
/// ending transaction returns it (after [`TxnScratch::reset`] — the
/// poison/clear contract), so a warm worker's transactions allocate none
/// of their bookkeeping. [`Database::begin_with`] accepts caller-built
/// scratch for tests that want guaranteed-fresh state.
#[derive(Default)]
pub struct TxnScratch<'db> {
    reads: KeyMap<(TableId, Key), ReadEntry>,
    /// Position in `pending` of each written key.
    writes: KeyMap<(TableId, Key), u32>,
    /// The write set in first-write order — the order of
    /// [`CommitInfo::writes`], and so of the log record.
    pending: Vec<PendingWrite<'db>>,
    /// Positions in `pending`, sorted by key: the order latches are taken.
    lock_set: Vec<u32>,
    records: Vec<WriteRecord>,
    row_buf: Vec<Value>,
    frame: ExecFrame,
}

/// Scratch blocks (and recycled `CommitInfo` write vectors) retained per
/// thread. Small: a worker thread runs one transaction at a time, so > 1
/// entry only buys resilience against nested begins.
const POOL_CAP: usize = 8;

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<TxnScratch<'static>>> = const { RefCell::new(Vec::new()) };
    static RECORD_POOL: RefCell<Vec<Vec<WriteRecord>>> = const { RefCell::new(Vec::new()) };
}

impl TxnScratch<'_> {
    /// Fresh, empty scratch (cold start; the pool refills from these).
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear every set, buffer and variable binding while keeping their
    /// capacity. Runs on *every* transaction exit — commit, abort, drop —
    /// so pooled reuse is observationally identical to fresh scratch.
    pub fn reset(&mut self) {
        self.reads.clear();
        self.writes.clear();
        self.pending.clear();
        self.lock_set.clear();
        self.records.clear();
        self.row_buf.clear();
        self.frame.clear();
    }

    /// Reset, and return to the pool. The pending-write vector is the one
    /// buffer whose elements borrow the database; emptied, it is re-typed
    /// for the pool by an in-place collect, which keeps its allocation.
    fn release(mut self) {
        self.reset();
        let TxnScratch {
            reads,
            writes,
            pending,
            lock_set,
            records,
            row_buf,
            frame,
        } = self;
        let pooled = TxnScratch {
            reads,
            writes,
            pending: pending.into_iter().map(|_| unreachable!()).collect(),
            lock_set,
            records,
            row_buf,
            frame,
        };
        SCRATCH_POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.len() < POOL_CAP {
                p.push(pooled);
            }
        });
    }
}

impl TxnScratch<'static> {
    /// Draw scratch from the thread-local pool, or build it cold. Either
    /// way a write-record buffer recycled via [`recycle_commit_info`] is
    /// re-attached if the scratch has none.
    pub fn acquire() -> Self {
        let mut s = match SCRATCH_POOL.with(|p| p.borrow_mut().pop()) {
            Some(s) => {
                scratch_reuse().inc();
                s
            }
            None => Self::new(),
        };
        if s.records.capacity() == 0 {
            if let Some(v) = RECORD_POOL.with(|p| p.borrow_mut().pop()) {
                s.records = v;
            }
        }
        s
    }
}

/// Return a consumed [`CommitInfo`]'s write-record buffer to the
/// thread-local pool. Drivers call this once the commit has been handed to
/// the log; the next [`TxnScratch::acquire`] on this thread re-attaches
/// the capacity, closing the last per-transaction allocation cycle.
pub fn recycle_commit_info(info: CommitInfo) {
    let mut writes = info.writes;
    if writes.capacity() == 0 {
        return;
    }
    writes.clear();
    RECORD_POOL.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < POOL_CAP {
            p.push(writes);
        }
    });
}

/// Unlocks every pending write's latch on drop, so each of `commit_with`'s
/// early abort returns — and the success path — releases exactly once and
/// a future early return cannot leak a held latch.
struct Latched<'a, 'db> {
    set: &'a [PendingWrite<'db>],
}

impl Drop for Latched<'_, '_> {
    fn drop(&mut self) {
        for w in self.set {
            w.chain.latch.unlock();
        }
    }
}

fn abort_err(msg: String) -> Error {
    occ_aborts().inc();
    Error::TxnAborted(msg)
}

fn invalidated((t, k): (TableId, Key), observed: Timestamp, now: Timestamp) -> Error {
    abort_err(format!(
        "read of {t}:{k} invalidated (observed ts {observed}, now {now})"
    ))
}

/// An in-flight transaction.
pub struct Txn<'db> {
    db: &'db Database,
    scratch: TxnScratch<'db>,
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        std::mem::take(&mut self.scratch).release();
    }
}

impl<'db> Txn<'db> {
    pub(crate) fn new(db: &'db Database, scratch: TxnScratch<'db>) -> Self {
        debug_assert!(
            scratch.reads.is_empty() && scratch.pending.is_empty(),
            "scratch handed to a transaction must be reset"
        );
        Txn { db, scratch }
    }

    /// The transaction's view of `key`'s current image, with its table: its
    /// own pending write first (a pending delete holds none), else the image
    /// observed first — repeatable read: the one commit validation will
    /// check, served without re-touching the shard map or the chain — else
    /// the index, and then the key joins the read set. `None`: missing or
    /// deleted.
    fn image(&mut self, table: TableId, key: Key) -> Result<(&'db Table, Option<Row>)> {
        let t = self.db.table(table)?;
        let TxnScratch {
            reads,
            writes,
            pending,
            ..
        } = &mut self.scratch;
        if let Some(&i) = writes.get(&(table, key)) {
            return Ok((t, pending[i as usize].row.clone()));
        }
        let vacant = match reads.entry((table, key)) {
            Entry::Occupied(r) => return Ok((t, Some(r.get().row.clone()))),
            Entry::Vacant(v) => v,
        };
        let Some(chain) = t.get(key) else {
            return Ok((t, None));
        };
        let (ts, row) = chain.newest();
        if let Some(row) = &row {
            vacant.insert(ReadEntry {
                chain,
                observed_ts: ts,
                row: row.clone(),
                written: false,
            });
        }
        Ok((t, row))
    }

    /// Read the current row for `key`, observing own pending writes first.
    pub fn read(&mut self, table: TableId, key: Key) -> Result<Row> {
        match self.image(table, key)?.1 {
            Some(row) => Ok(row),
            None => Err(Error::KeyNotFound {
                table: table.0,
                key,
            }),
        }
    }

    fn stage(&mut self, t: &'db Table, id: (TableId, Key), kind: WriteKind, row: Option<Row>) {
        let TxnScratch {
            reads,
            writes,
            pending,
            ..
        } = &mut self.scratch;
        let vacant = match writes.entry(id) {
            Entry::Occupied(existing) => {
                let i = *existing.get() as usize;
                let w = &mut pending[i];
                match (w.kind, kind) {
                    // insert then update: still an insert with the newer image
                    (WriteKind::Insert, WriteKind::Update) => w.row = row,
                    // insert then delete: net nothing; drop the pending write
                    (WriteKind::Insert, WriteKind::Delete) => {
                        existing.remove();
                        pending.remove(i);
                        for j in writes.values_mut() {
                            if *j as usize > i {
                                *j -= 1;
                            }
                        }
                        if let Some(r) = reads.get_mut(&id) {
                            r.written = false;
                        }
                    }
                    _ => {
                        w.kind = kind;
                        w.row = row;
                    }
                }
                return;
            }
            Entry::Vacant(v) => v,
        };
        // A prior read of the key already resolved the chain; reuse the
        // handle so read-modify-write does one shard-map lookup per key.
        let (chain, observed) = match reads.get_mut(&id) {
            Some(r) => {
                r.written = true;
                (Arc::clone(&r.chain), Some(r.observed_ts))
            }
            None => {
                let key = id.1;
                let chain = match kind {
                    WriteKind::Insert => t.get_or_create(key),
                    // Blind update/delete of a missing key: stage against a
                    // fresh chain; commit-time validation will abort.
                    _ => t.get(key).unwrap_or_else(|| t.get_or_create(key)),
                };
                (chain, None)
            }
        };
        vacant.insert(pending.len() as u32);
        pending.push(PendingWrite {
            table: t,
            key: id,
            chain,
            kind,
            row,
            observed,
        });
    }

    /// Buffer a full-row update (the general clone-modify-reinsert path;
    /// column writes on hot shapes go through [`crate::access::TxnAccess`] —
    /// this one bumps the `engine.txn.row_copies` counter).
    pub fn write(&mut self, table: TableId, key: Key, row: Row) -> Result<()> {
        let t = self.db.table(table)?;
        row_copies().inc();
        self.stage(t, (table, key), WriteKind::Update, Some(row));
        Ok(())
    }

    /// Buffer an insert.
    pub fn insert(&mut self, table: TableId, key: Key, row: Row) -> Result<()> {
        let t = self.db.table(table)?;
        self.stage(t, (table, key), WriteKind::Insert, Some(row));
        Ok(())
    }

    /// Buffer a delete.
    pub fn delete(&mut self, table: TableId, key: Key) -> Result<()> {
        let t = self.db.table(table)?;
        self.stage(t, (table, key), WriteKind::Delete, None);
        Ok(())
    }

    /// Take the pooled interpreter scratch (register file and site keys).
    /// The interpreter returns it via [`Txn::put_exec_frame`] when the
    /// procedure body finishes (success or error), keeping its capacity in
    /// the scratch cycle.
    pub fn take_exec_frame(&mut self) -> ExecFrame {
        std::mem::take(&mut self.scratch.frame)
    }

    /// Return the interpreter scratch taken with [`Txn::take_exec_frame`].
    pub fn put_exec_frame(&mut self, frame: ExecFrame) {
        self.scratch.frame = frame;
    }

    /// Distinct keys in the read set (diagnostic/test use).
    pub fn reads_len(&self) -> usize {
        self.scratch.reads.len()
    }

    /// Pending writes buffered so far (diagnostic/test use).
    pub fn writes_len(&self) -> usize {
        self.scratch.pending.len()
    }

    /// Validate, claim a commit timestamp and install all writes, reading
    /// the group-commit epoch as 1 (tests and epoch-less callers).
    pub fn commit(self) -> Result<CommitInfo> {
        self.commit_with(|| 1)
    }

    /// Validate, claim a commit timestamp and install all writes.
    ///
    /// Only the write set is latched (optimistic validation, Larson et al.):
    ///
    /// 1. latch the written keys in key order (a global order: no deadlock);
    /// 2. check the write preconditions, and validate the keys that were
    ///    read and then written — both under their latches;
    /// 3. call `epoch_fn` and draw `ts`, still under the write latches;
    /// 4. validate each read-only key: its latch is free
    ///    ([`SpinLatch::is_locked`](pacman_common::SpinLatch::is_locked), an
    ///    Acquire load) and `newest_ts()` is what the read observed;
    /// 5. install, then unlock.
    ///
    /// `epoch_fn` runs while the write latches are held (the Silo rule):
    /// conflicting writers obtain epochs consistent with their
    /// serialization order, and the composed timestamp
    /// `(epoch << EPOCH_SHIFT) | seq` makes log-batch order a refinement of
    /// conflict order.
    ///
    /// # Why timestamp order is still a serial order
    ///
    /// Keys this transaction (V) writes are held from before `ts_V` is
    /// drawn until they are installed, exactly as when every key was
    /// latched. What needs an argument is a key X that V only reads, and a
    /// writer W of X:
    ///
    /// * `ts_W < ts_V`. Both timestamps come from SeqCst read-modify-writes
    ///   of one clock (`LogicalClock::tick_at_least`), so W's tick precedes
    ///   V's in the clock's modification order and synchronizes with it. W
    ///   latched X before its tick and V checks X's latch after its own, so
    ///   W's acquire happens-before V's load: V sees X latched, or a later
    ///   release of the latch — W's unlock, after which the Acquire load
    ///   also shows W's install, so `newest_ts()` has moved (or V read W's
    ///   version in the first place, and serializes after W correctly).
    ///   Either way a stale read aborts V.
    /// * `ts_W > ts_V`. If W latched X after V's check, W serializes after
    ///   V, and V read the version before W's — correct for that order. If
    ///   W held the latch earlier, V saw it and aborted (conservatively).
    ///
    /// So every committed transaction read, for each key, the version
    /// installed by the latest writer below its own timestamp: timestamp
    /// order is a serial order, which is what command-log replay relies on.
    ///
    /// On conflict the transaction aborts with [`Error::TxnAborted`]; the
    /// caller may retry with a fresh transaction.
    pub fn commit_with(mut self, epoch_fn: impl FnOnce() -> u64) -> Result<CommitInfo> {
        if self.scratch.pending.is_empty() {
            return self.commit_read_only();
        }
        let db = self.db;
        // Install section: held from before the commit timestamp is drawn
        // until every write is installed, so a checkpointer's barrier can
        // wait out commits its snapshot must cover (see
        // `Database::install_barrier`).
        let _install = db.install_guard();
        let TxnScratch {
            reads,
            pending,
            lock_set,
            records,
            ..
        } = &mut self.scratch;
        // 1. The write set, globally ordered to avoid deadlock.
        lock_set.extend(0..pending.len() as u32);
        lock_set.sort_unstable_by_key(|&i| pending[i as usize].key);
        for &i in lock_set.iter() {
            pending[i as usize].chain.latch.lock();
        }
        // Every return below — abort or success — unlocks via this guard.
        let latched = Latched { set: pending };

        // 2. Write preconditions, and the keys read before being written.
        for w in pending.iter() {
            let live = match w.observed {
                // Observed live at `ts`; latched, so stable from here.
                Some(ts) => {
                    let now = w.chain.newest_ts();
                    if now != ts {
                        return Err(invalidated(w.key, ts, now));
                    }
                    true
                }
                None => w.chain.newest().1.is_some(),
            };
            let (t, k) = w.key;
            match w.kind {
                WriteKind::Insert if live => {
                    return Err(abort_err(format!("insert of live key {t}:{k}")));
                }
                WriteKind::Update | WriteKind::Delete if !live => {
                    return Err(abort_err(format!("update/delete of missing key {t}:{k}")));
                }
                _ => {}
            }
        }

        // 3. The commit timestamp, under the write latches.
        let epoch = epoch_fn();
        let ts = db
            .clock()
            .tick_at_least(pacman_common::clock::epoch_floor(epoch));

        // 4. Read-only keys: free of any committer's latch, and unchanged.
        for (&key, r) in reads.iter() {
            if r.written {
                continue;
            }
            let (t, k) = key;
            if r.chain.latch.is_locked() {
                return Err(abort_err(format!(
                    "read of {t}:{k} invalidated (latched by a concurrent commit)"
                )));
            }
            let now = r.chain.newest_ts();
            if now != r.observed_ts {
                return Err(invalidated(key, r.observed_ts, now));
            }
        }

        // 5. Install. The hold is loaded once, after `ts` was drawn (see
        // `Database::snapshot_hold` for why that sees every hold below it).
        let hold = db.live_hold();
        records.reserve(pending.len());
        for w in pending.iter() {
            let prev_ts = w.chain.newest_ts();
            // Dirty mark before the install becomes visible (incremental
            // checkpointing reads the marks to skip clean shards).
            w.table.mark_dirty(w.key.1, ts);
            // The chain shares the pending image — no copy on install.
            w.chain.install_committed(ts, w.row.clone(), hold);
            records.push(WriteRecord {
                table: w.key.0,
                key: w.key.1,
                kind: w.kind,
                after: w.row.clone(),
                prev_ts,
            });
        }
        drop(latched);
        occ_commits().inc();
        Ok(CommitInfo {
            ts,
            writes: std::mem::take(records),
            ops: 0,
        })
    }

    /// Commit a transaction that installed nothing: validate read
    /// stability without latching, allocating, or ticking the clock.
    ///
    /// Serializability without latches: each `newest_ts()` load re-checks
    /// one read for stability over `[read_i, check_i]`. All reads happened
    /// before the first check, so if every check passes, every read was
    /// simultaneously valid at the moment of the first check — the
    /// transaction logically executed against that consistent snapshot. A
    /// concurrent writer that invalidates a read after its check would
    /// have serialized after us anyway. Nothing is installed, so the
    /// install fence and the commit clock are not involved; the reported
    /// timestamp is the current clock reading.
    ///
    /// A transaction that also writes cannot argue this way — it must take
    /// a place in timestamp order; [`Txn::commit_with`] carries its
    /// argument.
    fn commit_read_only(self) -> Result<CommitInfo> {
        for (&key, r) in &self.scratch.reads {
            let now = r.chain.newest_ts();
            if now != r.observed_ts {
                return Err(invalidated(key, r.observed_ts, now));
            }
        }
        occ_commits().inc();
        Ok(CommitInfo {
            ts: self.db.clock().peek(),
            writes: Vec::new(),
            ops: 0,
        })
    }

    /// Discard the transaction (buffers are cleared and the scratch
    /// returns to the pool; nothing was installed).
    pub fn abort(self) {}
}

/// The transaction as the tuple cursor's store: a tuple opens on the
/// transaction's view of it, joining the read set exactly as [`Txn::read`]
/// places it there, and the image the cursor built is staged as a pending
/// update against the table resolved at open.
impl<'db> TupleStore for Txn<'db> {
    type Slot = &'db Table;

    fn open(&mut self, table: TableId, key: Key) -> Result<(&'db Table, Option<Row>)> {
        self.image(table, key)
    }

    fn put(&mut self, table: TableId, key: Key, t: &'db Table, image: Option<Row>) {
        self.stage(t, (table, key), WriteKind::Update, image);
    }

    fn buf(&mut self) -> &mut Vec<Value> {
        &mut self.scratch.row_buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use pacman_common::Value;

    fn db() -> Database {
        let mut c = Catalog::new();
        c.add_table("acct", 1);
        let db = Database::new(c);
        for k in 0..10 {
            db.seed_row(TableId::new(0), k, Row::from([Value::Int(100)]))
                .unwrap();
        }
        db
    }

    const T: TableId = TableId::new(0);

    #[test]
    fn read_modify_write_commits() {
        let db = db();
        let mut t = db.begin();
        let r = t.read(T, 1).unwrap();
        let v = r.col(0).as_int().unwrap();
        t.write(T, 1, r.with_col(0, Value::Int(v - 30))).unwrap();
        let info = t.commit().unwrap();
        assert_eq!(info.writes.len(), 1);
        assert_eq!(info.writes[0].kind, WriteKind::Update);
        let mut t2 = db.begin();
        assert_eq!(t2.read(T, 1).unwrap().col(0), Value::Int(70));
    }

    #[test]
    fn scratch_reuse_does_not_bleed_state() {
        let db = db();
        // Dirty a transaction's read and write sets, then abort it.
        let mut t1 = db.begin();
        t1.read(T, 1).unwrap();
        t1.write(T, 2, Row::from([Value::Int(-1)])).unwrap();
        t1.abort();
        // The next transaction on this thread reuses the scratch: it must
        // observe none of t1's state.
        let mut t2 = db.begin();
        assert_eq!(t2.reads_len(), 0);
        assert_eq!(t2.writes_len(), 0);
        assert_eq!(t2.read(T, 2).unwrap().col(0), Value::Int(100));
        let info = t2.commit().unwrap();
        assert!(info.writes.is_empty(), "t1's aborted write leaked");
    }

    #[test]
    fn own_writes_are_visible() {
        let db = db();
        let mut t = db.begin();
        t.write(T, 2, Row::from([Value::Int(5)])).unwrap();
        assert_eq!(t.read(T, 2).unwrap().col(0), Value::Int(5));
        t.abort();
        let mut t2 = db.begin();
        assert_eq!(t2.read(T, 2).unwrap().col(0), Value::Int(100));
    }

    #[test]
    fn stale_read_aborts() {
        let db = db();
        let mut t1 = db.begin();
        t1.read(T, 3).unwrap();

        // Concurrent writer commits first.
        let mut t2 = db.begin();
        let r = t2.read(T, 3).unwrap();
        t2.write(T, 3, r.with_col(0, Value::Int(0))).unwrap();
        t2.commit().unwrap();

        // t1's read is now stale; committing any write must abort.
        t1.write(T, 4, Row::from([Value::Int(1)])).unwrap();
        assert!(matches!(t1.commit(), Err(Error::TxnAborted(_))));
    }

    #[test]
    fn insert_of_live_key_aborts() {
        let db = db();
        let mut t = db.begin();
        t.insert(T, 5, Row::from([Value::Int(1)])).unwrap();
        assert!(t.commit().is_err());
    }

    #[test]
    fn insert_then_delete_is_a_noop() {
        let db = db();
        let mut t = db.begin();
        t.insert(T, 77, Row::from([Value::Int(1)])).unwrap();
        t.delete(T, 77).unwrap();
        let info = t.commit().unwrap();
        assert!(info.writes.is_empty());
        let mut t2 = db.begin();
        assert!(t2.read(T, 77).is_err());
    }

    #[test]
    fn delete_then_reinsert() {
        let db = db();
        let mut t = db.begin();
        t.delete(T, 6).unwrap();
        t.commit().unwrap();
        let mut t2 = db.begin();
        assert!(t2.read(T, 6).is_err());
        let mut t3 = db.begin();
        t3.insert(T, 6, Row::from([Value::Int(9)])).unwrap();
        t3.commit().unwrap();
        let mut t4 = db.begin();
        assert_eq!(t4.read(T, 6).unwrap().col(0), Value::Int(9));
    }

    #[test]
    fn update_of_missing_key_aborts() {
        let db = db();
        let mut t = db.begin();
        t.write(T, 999, Row::from([Value::Int(1)])).unwrap();
        assert!(matches!(t.commit(), Err(Error::TxnAborted(_))));
    }

    #[test]
    fn concurrent_transfers_conserve_total() {
        let db = std::sync::Arc::new(db());
        let total_before: i64 = {
            let mut s = 0;
            db.table(T).unwrap().for_each_newest(|_, _, r| {
                s += r.col(0).as_int().unwrap();
            });
            s
        };
        let mut handles = Vec::new();
        for w in 0..4 {
            let db = std::sync::Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                let mut rng: u64 = 0x9E37 + w;
                let mut committed = 0;
                for _ in 0..500 {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let a = rng % 10;
                    let b = (rng >> 8) % 10;
                    if a == b {
                        continue;
                    }
                    let mut t = db.begin();
                    let go = || -> Result<CommitInfo> {
                        let ra = t.read(T, a)?;
                        let rb = t.read(T, b)?;
                        let va = ra.col(0).as_int().unwrap();
                        let vb = rb.col(0).as_int().unwrap();
                        t.write(T, a, ra.with_col(0, Value::Int(va - 1)))?;
                        t.write(T, b, rb.with_col(0, Value::Int(vb + 1)))?;
                        t.commit()
                    };
                    if go().is_ok() {
                        committed += 1;
                    }
                }
                committed
            }));
        }
        let committed: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(committed > 0);
        let mut total_after = 0i64;
        db.table(T).unwrap().for_each_newest(|_, _, r| {
            total_after += r.col(0).as_int().unwrap();
        });
        assert_eq!(total_before, total_after, "money was created or destroyed");
    }
}
