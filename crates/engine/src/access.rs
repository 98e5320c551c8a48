//! Data-access back-ends for the operation interpreter.
//!
//! The same procedure body executes in two worlds:
//!
//! * [`TxnAccess`] — normal processing: buffered OCC reads/writes inside a
//!   [`Txn`];
//! * [`ReplayAccess`] — recovery re-execution (CLR, CLR-P, and LLR-P's
//!   write-only installs): reads see the current recovered state, writes
//!   install single-version images stamped with the original commit
//!   timestamp, *without latching* — the replay schedule has already
//!   serialized all conflicting accesses.
//!
//! Both are one **tuple cursor** (`TupleCursor`) over two stores: the
//! tuple last asked for stays open, column writes edit a buffer of
//! [`Value`]s after one decode of its image, and one image is encoded when
//! the cursor leaves the tuple.

use crate::chain::TupleChain;
use crate::database::Database;
use crate::table::Table;
use crate::txn::Txn;
use pacman_common::{Error, Key, Result, Row, TableId, Timestamp, Value};
use std::sync::Arc;

/// The interpreter's view of storage.
pub trait DataAccess {
    /// Read one column of the current row.
    fn read(&mut self, table: TableId, key: Key, col: usize) -> Result<Value>;
    /// Read-modify-write one column.
    fn write_col(&mut self, table: TableId, key: Key, col: usize, value: Value) -> Result<()>;
    /// `col ← col + delta` (`- delta` if `negate`): [`DataAccess::read`]
    /// followed by [`DataAccess::write_col`] of the sum, with the errors of
    /// either, on one tuple lookup where the back-end can.
    fn add_col(
        &mut self,
        table: TableId,
        key: Key,
        col: usize,
        delta: &Value,
        negate: bool,
    ) -> Result<()> {
        let old = self.read(table, key, col)?;
        self.write_col(table, key, col, plus(&old, delta, negate))
    }
    /// Insert a full row.
    fn insert(&mut self, table: TableId, key: Key, row: Row) -> Result<()>;
    /// Delete the row.
    fn delete(&mut self, table: TableId, key: Key) -> Result<()>;
}

fn plus(old: &Value, delta: &Value, negate: bool) -> Value {
    if negate {
        old.sub(delta)
    } else {
        old.add(delta)
    }
}

/// Where a [`TupleCursor`] gets a tuple's current image and leaves the
/// image it built: the transaction ([`Txn`]) during normal processing, the
/// recovering table ([`ReplayStore`]) during replay.
pub(crate) trait TupleStore {
    /// What `open` found that `put` wants back.
    type Slot;
    /// The current image of `(table, key)`: `None` if the key is missing or
    /// deleted.
    fn open(&mut self, table: TableId, key: Key) -> Result<(Self::Slot, Option<Row>)>;
    /// Take the image the cursor built for the tuple it is leaving.
    fn put(&mut self, table: TableId, key: Key, slot: Self::Slot, image: Option<Row>);
    /// The buffer the open tuple's columns are edited in; it keeps its
    /// capacity from tuple to tuple.
    fn buf(&mut self) -> &mut Vec<Value>;
}

/// The tuple a [`TupleCursor`] has open.
struct OpenTuple<H> {
    table: TableId,
    key: Key,
    slot: H,
    /// The tuple's image unless `edited`: as the store gave it, or as a
    /// whole-row write left it.
    image: Option<Row>,
    /// Column writes are pending; the image lives in [`TupleStore::buf`].
    edited: bool,
    /// Anything is pending — the store is owed an image when the cursor moves.
    dirty: bool,
}

impl<H> OpenTuple<H> {
    /// Replace the whole image (`None` deletes the tuple).
    fn set(&mut self, image: Option<Row>) {
        self.image = image;
        self.edited = false;
        self.dirty = true;
    }
}

/// The **tuple cursor** both back-ends execute through.
///
/// Consecutive operations of a procedure mostly revisit one tuple (a TPC-C
/// NewOrder line reads and writes three columns of one STOCK row), so the
/// cursor keeps the tuple it was last asked for open: one [`TupleStore::open`]
/// when it moves onto a tuple, reads of the open tuple answered from its
/// image, column writes made in place in the store's buffer after one copy on
/// the first of them, and exactly one image built and [`TupleStore::put`]
/// when the cursor moves on or is [`flush`](TupleCursor::flush)ed. A cursor
/// dropped without `flush` leaves the store as it was.
struct TupleCursor<S: TupleStore> {
    open: Option<OpenTuple<S::Slot>>,
}

impl<S: TupleStore> TupleCursor<S> {
    fn new() -> Self {
        TupleCursor { open: None }
    }

    /// Hand the open tuple's pending image, if any, to the store, and close
    /// the cursor.
    fn flush(&mut self, store: &mut S) {
        let Some(cur) = self.open.take() else {
            return;
        };
        if !cur.dirty {
            return;
        }
        let image = if cur.edited {
            // The edited columns are encoded into the image, once; the
            // buffer keeps its capacity for the next tuple.
            let buf = store.buf();
            let image = Row::from_values(buf);
            buf.clear();
            Some(image)
        } else {
            cur.image
        };
        store.put(cur.table, cur.key, cur.slot, image);
    }

    /// Move the cursor onto `(table, key)`, flushing the tuple it leaves.
    fn seek(&mut self, store: &mut S, table: TableId, key: Key) -> Result<&mut OpenTuple<S::Slot>> {
        let open = self
            .open
            .as_ref()
            .is_some_and(|c| c.key == key && c.table == table);
        if !open {
            self.flush(store);
            let (slot, image) = store.open(table, key)?;
            self.open = Some(OpenTuple {
                table,
                key,
                slot,
                image,
                edited: false,
                dirty: false,
            });
        }
        Ok(self.open.as_mut().expect("cursor opened above"))
    }

    fn read(&mut self, store: &mut S, table: TableId, key: Key, col: usize) -> Result<Value> {
        let cur = self.seek(store, table, key)?;
        let value = match (&cur.image, cur.edited) {
            (_, true) => store.buf().get(col).cloned(),
            (Some(row), false) => row.get(col),
            (None, false) => return Err(key_not_found(table, key)),
        };
        value.ok_or_else(|| no_such_column(table, key, col))
    }

    /// Open column `col` of `(table, key)` for writing: the tuple's image
    /// is decoded into the edit buffer on the first write (string columns
    /// as views of the image), and a `put` is due.
    fn edit<'s>(
        &mut self,
        store: &'s mut S,
        table: TableId,
        key: Key,
        col: usize,
    ) -> Result<&'s mut Value> {
        let cur = self.seek(store, table, key)?;
        let buf = store.buf();
        if !cur.edited {
            let row = cur
                .image
                .as_ref()
                .ok_or_else(|| key_not_found(table, key))?;
            if col >= row.arity() {
                return Err(no_such_column(table, key, col));
            }
            buf.clear();
            buf.extend(row.iter());
            cur.image = None;
            cur.edited = true;
        }
        let slot = buf
            .get_mut(col)
            .ok_or_else(|| no_such_column(table, key, col))?;
        cur.dirty = true;
        Ok(slot)
    }
}

fn key_not_found(table: TableId, key: Key) -> Error {
    Error::KeyNotFound {
        table: table.0,
        key,
    }
}

fn no_such_column(table: TableId, key: Key, col: usize) -> Error {
    Error::Unknown(format!("column {col} of {table}:{key}"))
}

/// OCC-transactional access: the tuple cursor over a [`Txn`].
///
/// A tuple opens on the transaction's own pending write, else on the image
/// its read set holds, else on the index — joining the read set exactly as
/// [`Txn::read`] does. Column writes edit the transaction's pooled buffer,
/// and the tuple is staged as one pending update when the cursor leaves it:
/// for another tuple, before an `insert` or `delete` (which go to the
/// transaction directly), or at [`TxnAccess::finish`]. Staging happens in
/// the order tuples were first written, so the write set — keys, kinds,
/// final images — is what staging every column write would have produced.
///
/// An access dropped without `finish` leaves the open tuple's edits
/// unstaged: a procedure that failed aborts its transaction anyway.
pub struct TxnAccess<'a, 'db> {
    txn: &'a mut Txn<'db>,
    cursor: TupleCursor<Txn<'db>>,
}

impl<'a, 'db> TxnAccess<'a, 'db> {
    /// Wrap a transaction.
    pub fn new(txn: &'a mut Txn<'db>) -> Self {
        TxnAccess {
            txn,
            cursor: TupleCursor::new(),
        }
    }

    /// Stage the open tuple's pending image, if any, and close the cursor.
    /// Must run before the transaction commits.
    pub fn finish(&mut self) {
        self.cursor.flush(self.txn);
    }
}

impl DataAccess for TxnAccess<'_, '_> {
    fn read(&mut self, table: TableId, key: Key, col: usize) -> Result<Value> {
        self.cursor.read(self.txn, table, key, col)
    }

    fn write_col(&mut self, table: TableId, key: Key, col: usize, value: Value) -> Result<()> {
        *self.cursor.edit(self.txn, table, key, col)? = value;
        Ok(())
    }

    fn add_col(
        &mut self,
        table: TableId,
        key: Key,
        col: usize,
        delta: &Value,
        negate: bool,
    ) -> Result<()> {
        let slot = self.cursor.edit(self.txn, table, key, col)?;
        *slot = plus(slot, delta, negate);
        Ok(())
    }

    fn insert(&mut self, table: TableId, key: Key, row: Row) -> Result<()> {
        self.finish();
        self.txn.insert(table, key, row)
    }

    fn delete(&mut self, table: TableId, key: Key) -> Result<()> {
        self.finish();
        self.txn.delete(table, key)
    }
}

/// Latch-free single-version replay access (recovery): the tuple cursor
/// over the recovering tables. A tuple opens with one index lookup and one
/// `newest()`; leaving it costs exactly one `mark_dirty` + `install_lww`,
/// stamped with the original commit timestamp, whole-row inserts and
/// deletes included.
///
/// # Why deferring the install is safe
///
/// Between the first write to a tuple and its install, the table still
/// shows the previous image. Nobody may look during that window, and
/// nobody does: the replay schedule runs a piece that conflicts with this
/// one (same tuple, at least one writer) only after this piece's
/// execution has returned — the runtime releases DAG dependents, completes
/// the piece-set, and publishes the block watermark that admits online
/// transactions strictly *after* the executor returns — and the executor
/// calls [`ReplayAccess::finish`] before it returns. Within the piece,
/// reads go through the cursor and see the pending image. Intermediate
/// per-operation images were never observable under op-at-a-time replay
/// either; only their timing relative to the end of the piece changed.
///
/// An access that is dropped or [`retarget`](ReplayAccess::retarget)ed
/// without `finish` discards the pending image: a failed piece fails the
/// whole recovery, and a half-executed image must not outlive it.
pub struct ReplayAccess<'a> {
    store: ReplayStore<'a>,
    cursor: TupleCursor<ReplayStore<'a>>,
}

/// The recovering database as a [`TupleStore`].
struct ReplayStore<'a> {
    db: &'a Database,
    ts: Timestamp,
    buf: Vec<Value>,
    /// Images installed since [`ReplayAccess::take_installed`].
    installed: u64,
}

impl<'a> TupleStore for ReplayStore<'a> {
    /// The table, and the key's index entry if it has one (a tombstoned
    /// key does).
    type Slot = (&'a Table, Option<Arc<TupleChain>>);

    fn open(&mut self, table: TableId, key: Key) -> Result<(Self::Slot, Option<Row>)> {
        let table = self.db.table(table)?;
        let chain = table.get(key);
        let image = chain.as_ref().and_then(|c| c.newest().1);
        Ok(((table, chain), image))
    }

    fn put(&mut self, _: TableId, key: Key, (table, chain): Self::Slot, image: Option<Row>) {
        self.installed += 1;
        // Mark before the version becomes visible (`Table::mark_dirty`).
        table.mark_dirty(key, self.ts);
        chain
            .unwrap_or_else(|| table.get_or_create(key))
            .install_lww(self.ts, image);
    }

    fn buf(&mut self) -> &mut Vec<Value> {
        &mut self.buf
    }
}

impl<'a> ReplayAccess<'a> {
    /// Replay on behalf of the transaction originally committed at `ts`.
    pub fn new(db: &'a Database, ts: Timestamp) -> Self {
        ReplayAccess {
            store: ReplayStore {
                db,
                ts,
                buf: Vec::new(),
                installed: 0,
            },
            cursor: TupleCursor::new(),
        }
    }

    /// How many tuple images this access has installed since the last
    /// call (what recovery reports as applied write images).
    pub fn take_installed(&mut self) -> u64 {
        std::mem::take(&mut self.store.installed)
    }

    /// The timestamp being replayed.
    pub fn ts(&self) -> Timestamp {
        self.store.ts
    }

    /// Reuse this access (and its image buffer) for another transaction.
    /// Whatever the previous piece left pending is discarded.
    pub fn retarget(&mut self, ts: Timestamp) {
        self.cursor.open = None;
        self.store.ts = ts;
    }

    /// Install the open tuple's pending image, if any, and close the
    /// cursor. Must run before the piece is reported executed — see the
    /// type-level safety argument.
    pub fn finish(&mut self) {
        self.cursor.flush(&mut self.store);
    }
}

impl DataAccess for ReplayAccess<'_> {
    fn read(&mut self, table: TableId, key: Key, col: usize) -> Result<Value> {
        self.cursor.read(&mut self.store, table, key, col)
    }

    fn write_col(&mut self, table: TableId, key: Key, col: usize, value: Value) -> Result<()> {
        *self.cursor.edit(&mut self.store, table, key, col)? = value;
        Ok(())
    }

    fn add_col(
        &mut self,
        table: TableId,
        key: Key,
        col: usize,
        delta: &Value,
        negate: bool,
    ) -> Result<()> {
        let slot = self.cursor.edit(&mut self.store, table, key, col)?;
        *slot = plus(slot, delta, negate);
        Ok(())
    }

    fn insert(&mut self, table: TableId, key: Key, row: Row) -> Result<()> {
        self.cursor
            .seek(&mut self.store, table, key)?
            .set(Some(row));
        Ok(())
    }

    fn delete(&mut self, table: TableId, key: Key) -> Result<()> {
        let cur = self.cursor.seek(&mut self.store, table, key)?;
        // A key that never had an index entry (and has no pending insert)
        // cannot be deleted; a tombstoned one can.
        if cur.slot.1.is_none() && !cur.dirty {
            return Err(key_not_found(table, key));
        }
        cur.set(None);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::txn::WriteKind;

    fn db() -> Database {
        let mut c = Catalog::new();
        c.add_table("t", 2);
        let db = Database::new(c);
        db.seed_row(
            TableId::new(0),
            1,
            Row::from([Value::Int(10), Value::str("x")]),
        )
        .unwrap();
        db
    }

    const T: TableId = TableId::new(0);

    #[test]
    fn txn_access_rmw() {
        let db = db();
        let mut txn = db.begin();
        {
            let mut a = TxnAccess::new(&mut txn);
            let v = a.read(T, 1, 0).unwrap().as_int().unwrap();
            a.write_col(T, 1, 0, Value::Int(v + 5)).unwrap();
            assert_eq!(a.read(T, 1, 0).unwrap(), Value::Int(15));
            // Untouched column preserved by the RMW.
            assert_eq!(a.read(T, 1, 1).unwrap(), Value::str("x"));
            a.finish();
        }
        let info = txn.commit().unwrap();
        assert_eq!(info.writes.len(), 1);
        assert_eq!(info.writes[0].kind, WriteKind::Update);
        // The chain and the log record share the one image that was built.
        let after = info.writes[0].after.as_ref().unwrap();
        assert_eq!(after, &Row::from([Value::Int(15), Value::str("x")]));
        assert!(Row::ptr_eq(after, &newest(&db, 1).1.unwrap()));
    }

    #[test]
    fn one_image_is_staged_when_the_cursor_leaves_the_tuple() {
        let db = db();
        db.seed_row(T, 2, Row::from([Value::Int(20), Value::str("z")]))
            .unwrap();
        let mut txn = db.begin();
        let mut a = TxnAccess::new(&mut txn);
        a.write_col(T, 1, 0, Value::Int(11)).unwrap();
        a.write_col(T, 1, 1, Value::str("y")).unwrap();
        assert_eq!(a.txn.writes_len(), 0, "tuple 1 is still open");
        a.write_col(T, 2, 0, Value::Int(21)).unwrap();
        assert_eq!(a.txn.writes_len(), 1, "tuple 1 staged on the move");
        // Coming back re-opens the staged image.
        assert_eq!(a.read(T, 1, 1).unwrap(), Value::str("y"));
        a.write_col(T, 1, 0, Value::Int(12)).unwrap();
        a.finish();
        let info = txn.commit().unwrap();
        let keys: Vec<_> = info.writes.iter().map(|w| w.key).collect();
        assert_eq!(keys, [1, 2], "first-write order");
        let image = info.writes[0].after.as_ref().unwrap();
        assert_eq!(image, &Row::from([Value::Int(12), Value::str("y")]));
    }

    #[test]
    fn cursor_sees_and_keeps_the_kind_of_own_pending_writes() {
        let db = db();
        let mut txn = db.begin();
        let mut a = TxnAccess::new(&mut txn);
        a.write_col(T, 1, 0, Value::Int(11)).unwrap();
        // Whole-row writes stage what is pending first, then go straight
        // to the transaction.
        a.insert(T, 55, Row::from([Value::Int(5), Value::str("n")]))
            .unwrap();
        a.write_col(T, 55, 0, Value::Int(6)).unwrap();
        a.delete(T, 1).unwrap();
        assert!(a.read(T, 1, 0).is_err(), "pending delete hides the row");
        assert!(a.write_col(T, 1, 0, Value::Int(0)).is_err());
        a.finish();
        assert_eq!(txn.reads_len(), 1, "the inserted key was never read");
        let info = txn.commit().unwrap();
        let staged: Vec<_> = info.writes.iter().map(|w| (w.key, w.kind)).collect();
        // Updating a pending insert must still install as an insert.
        assert_eq!(staged, [(1, WriteKind::Delete), (55, WriteKind::Insert)]);
        assert_eq!(newest(&db, 55).1.unwrap().col(0), Value::Int(6));
    }

    #[test]
    fn unfinished_txn_access_leaves_the_txn_read_only() {
        let db = db();
        let mut txn = db.begin();
        let mut a = TxnAccess::new(&mut txn);
        a.write_col(T, 1, 0, Value::Int(0)).unwrap();
        // Never finished: the failed-procedure path.
        let info = txn.commit().unwrap();
        assert!(info.writes.is_empty());
        assert_eq!(newest(&db, 1).1.unwrap().col(0), Value::Int(10));
    }

    fn newest(db: &Database, key: Key) -> (Timestamp, Option<Row>) {
        db.table(T).unwrap().get(key).unwrap().newest()
    }

    #[test]
    fn replay_access_installs_at_fixed_ts() {
        let db = db();
        let mut a = ReplayAccess::new(&db, 42);
        a.write_col(T, 1, 0, Value::Int(77)).unwrap();
        a.finish();
        let (ts, row) = newest(&db, 1);
        assert_eq!(ts, 42);
        let row = row.unwrap();
        assert_eq!(row.col(0), Value::Int(77));
        assert_eq!(row.col(1), Value::str("x"), "other columns carried over");
    }

    #[test]
    fn pending_image_is_private_until_finish() {
        let db = db();
        let table = db.table(T).unwrap();
        let dirty_before = table.shard_dirty_ts(table.shard_index(1));
        let mut a = ReplayAccess::new(&db, 42);
        a.write_col(T, 1, 0, Value::Int(77)).unwrap();
        a.write_col(T, 1, 1, Value::str("y")).unwrap();
        // The piece sees its own writes ...
        assert_eq!(a.read(T, 1, 0).unwrap(), Value::Int(77));
        // ... the table does not, yet.
        let (ts, row) = newest(&db, 1);
        assert_eq!((ts, row.unwrap().col(0)), (0, Value::Int(10)));
        assert_eq!(table.shard_dirty_ts(table.shard_index(1)), dirty_before);
        a.finish();
        let (ts, row) = newest(&db, 1);
        let row = row.unwrap();
        assert_eq!(ts, 42);
        assert_eq!(row, Row::from([Value::Int(77), Value::str("y")]));
        assert_eq!(table.shard_dirty_ts(table.shard_index(1)), 42);
    }

    #[test]
    fn moving_the_cursor_installs_the_tuple_left_behind() {
        let db = db();
        db.seed_row(T, 2, Row::from([Value::Int(20), Value::str("z")]))
            .unwrap();
        let mut a = ReplayAccess::new(&db, 9);
        a.write_col(T, 1, 0, Value::Int(11)).unwrap();
        a.write_col(T, 2, 0, Value::Int(21)).unwrap();
        assert_eq!(newest(&db, 1).0, 9, "tuple 1 installed on the move");
        assert_eq!(newest(&db, 2).0, 0, "tuple 2 still pending");
        // Coming back re-opens the installed image.
        assert_eq!(a.read(T, 1, 0).unwrap(), Value::Int(11));
        assert_eq!(newest(&db, 2).0, 9);
    }

    #[test]
    fn unfinished_image_is_discarded() {
        let db = db();
        let mut a = ReplayAccess::new(&db, 42);
        a.write_col(T, 1, 0, Value::Int(77)).unwrap();
        a.retarget(43);
        a.finish();
        drop(a);
        let (ts, row) = newest(&db, 1);
        assert_eq!((ts, row.unwrap().col(0)), (0, Value::Int(10)));
    }

    #[test]
    fn replay_insert_and_delete() {
        let db = db();
        let mut a = ReplayAccess::new(&db, 7);
        assert!(a.delete(T, 99).is_err(), "never-inserted key");
        a.insert(T, 99, Row::from([Value::Int(1), Value::str("n")]))
            .unwrap();
        assert_eq!(a.read(T, 99, 0).unwrap(), Value::Int(1));
        a.write_col(T, 99, 0, Value::Int(2)).unwrap();
        a.finish();
        assert_eq!(newest(&db, 99).1.unwrap().col(0), Value::Int(2));
        let mut a2 = ReplayAccess::new(&db, 8);
        a2.delete(T, 99).unwrap();
        assert!(a2.read(T, 99, 0).is_err());
        assert!(a2.write_col(T, 99, 0, Value::Int(3)).is_err());
        a2.finish();
        assert_eq!(newest(&db, 99), (8, None));
        // A tombstoned key still has its index entry: deleting again is
        // not an error (it never was).
        let mut a3 = ReplayAccess::new(&db, 9);
        a3.delete(T, 99).unwrap();
    }

    #[test]
    fn replay_bad_column_is_an_error_not_a_panic() {
        let db = db();
        let mut a = ReplayAccess::new(&db, 7);
        assert!(a.read(T, 1, 9).is_err());
        assert!(a.write_col(T, 1, 9, Value::Int(0)).is_err());
        a.write_col(T, 1, 0, Value::Int(1)).unwrap();
        assert!(a.write_col(T, 1, 9, Value::Int(0)).is_err());
    }

    /// `add_col` is a read and a write of the sum — to the state, to the
    /// read set, and in what it reports for a missing tuple or column.
    #[test]
    fn add_col_is_read_then_write() {
        let db = db();
        let mut txn = db.begin();
        let mut a = TxnAccess::new(&mut txn);
        a.add_col(T, 1, 0, &Value::Int(5), false).unwrap();
        a.add_col(T, 1, 0, &Value::Int(2), true).unwrap();
        assert_eq!(a.read(T, 1, 0).unwrap(), Value::Int(13));
        assert_eq!(
            a.add_col(T, 9, 0, &Value::Int(1), false),
            a.read(T, 9, 0).map(drop)
        );
        assert_eq!(
            a.add_col(T, 1, 9, &Value::Int(1), false),
            a.read(T, 1, 9).map(drop)
        );
        a.finish();
        assert_eq!((txn.reads_len(), txn.writes_len()), (1, 1));
        txn.commit().unwrap();

        let mut a = ReplayAccess::new(&db, newest(&db, 1).0 + 1);
        a.add_col(T, 1, 0, &Value::Float(0.5), false).unwrap();
        assert_eq!(a.read(T, 1, 0).unwrap(), Value::Float(13.5));
        assert_eq!(
            a.add_col(T, 9, 0, &Value::Int(1), false),
            a.read(T, 9, 0).map(drop)
        );
        assert_eq!(
            a.add_col(T, 1, 9, &Value::Int(1), false),
            a.read(T, 1, 9).map(drop)
        );
        a.finish();
        let row = newest(&db, 1).1.unwrap();
        assert_eq!(row, Row::from([Value::Float(13.5), Value::str("x")]));
    }

    #[test]
    fn bad_column_is_an_error() {
        let db = db();
        let mut txn = db.begin();
        let mut a = TxnAccess::new(&mut txn);
        assert!(a.read(T, 1, 9).is_err());
    }
}
