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

/// OCC-transactional access.
pub struct TxnAccess<'a, 'db> {
    txn: &'a mut Txn<'db>,
}

impl<'a, 'db> TxnAccess<'a, 'db> {
    /// Wrap a transaction.
    pub fn new(txn: &'a mut Txn<'db>) -> Self {
        TxnAccess { txn }
    }
}

impl DataAccess for TxnAccess<'_, '_> {
    fn read(&mut self, table: TableId, key: Key, col: usize) -> Result<Value> {
        let row = self.txn.read(table, key)?;
        row.cols()
            .get(col)
            .cloned()
            .ok_or_else(|| no_such_column(table, key, col))
    }

    fn write_col(&mut self, table: TableId, key: Key, col: usize, value: Value) -> Result<()> {
        // The dominant update shape: edit the cached image in place and
        // materialize the new row exactly once at stage time.
        let mut row = self.txn.read_for_update(table, key)?;
        if col >= row.arity() {
            return Err(no_such_column(table, key, col));
        }
        row.set_col(col, value);
        row.stage();
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
        // Opening for update observes the tuple exactly as a read does.
        let mut row = self.txn.read_for_update(table, key)?;
        if col >= row.arity() {
            return Err(no_such_column(table, key, col));
        }
        let sum = plus(row.col(col), delta, negate);
        row.set_col(col, sum);
        row.stage();
        Ok(())
    }

    fn insert(&mut self, table: TableId, key: Key, row: Row) -> Result<()> {
        self.txn.insert(table, key, row)
    }

    fn delete(&mut self, table: TableId, key: Key) -> Result<()> {
        self.txn.delete(table, key)
    }
}

/// Latch-free single-version replay access (recovery): a **tuple cursor**.
///
/// Consecutive operations of a piece mostly revisit one tuple (a TPC-C
/// NewOrder line reads and writes three columns of one STOCK row), so the
/// access keeps the tuple it was last asked for open: one index lookup and
/// one `newest()` when the cursor moves onto a tuple, column writes edit a
/// private image (copied on the first write into a buffer that is reused
/// from tuple to tuple), and exactly one `mark_dirty` + `install_lww`
/// when the cursor moves on or [`ReplayAccess::finish`] is called.
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
    db: &'a Database,
    ts: Timestamp,
    cursor: Option<Cursor<'a>>,
    /// The open tuple's edited columns while `Cursor::edited` is set.
    buf: Vec<Value>,
    /// Images installed since [`ReplayAccess::take_installed`].
    installed: u64,
}

/// The tuple a [`ReplayAccess`] currently has open.
struct Cursor<'a> {
    table_id: TableId,
    key: Key,
    table: &'a Table,
    /// The key's index entry, if it has one (a tombstoned key does).
    chain: Option<Arc<TupleChain>>,
    /// The tuple's image unless `edited`: as found in the table, or as a
    /// pending insert (`Some`) or delete (`None`) left it.
    image: Option<Arc<Row>>,
    /// Column writes are pending; the image lives in `ReplayAccess::buf`.
    edited: bool,
    /// Anything is pending — an install is due when the cursor moves.
    dirty: bool,
}

impl<'a> ReplayAccess<'a> {
    /// Replay on behalf of the transaction originally committed at `ts`.
    pub fn new(db: &'a Database, ts: Timestamp) -> Self {
        ReplayAccess {
            db,
            ts,
            cursor: None,
            buf: Vec::new(),
            installed: 0,
        }
    }

    /// How many tuple images this access has installed since the last
    /// call (what recovery reports as applied write images).
    pub fn take_installed(&mut self) -> u64 {
        std::mem::take(&mut self.installed)
    }

    /// The timestamp being replayed.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// Reuse this access (and its image buffer) for another transaction.
    /// Whatever the previous piece left pending is discarded.
    pub fn retarget(&mut self, ts: Timestamp) {
        self.cursor = None;
        self.ts = ts;
    }

    /// Install the open tuple's pending image, if any, and close the
    /// cursor. Must run before the piece is reported executed — see the
    /// type-level safety argument.
    pub fn finish(&mut self) {
        let Some(cur) = self.cursor.take() else {
            return;
        };
        if !cur.dirty {
            return;
        }
        let image = if cur.edited {
            // The edited columns move into the image; the buffer keeps its
            // capacity for the next tuple.
            Some(Arc::new(self.buf.drain(..).collect::<Row>()))
        } else {
            cur.image
        };
        self.installed += 1;
        // Mark before the version becomes visible (`Table::mark_dirty`).
        cur.table.mark_dirty(cur.key, self.ts);
        cur.chain
            .unwrap_or_else(|| cur.table.get_or_create(cur.key))
            .install_lww(self.ts, image);
    }

    /// Move the cursor onto `(table, key)`, installing what the previous
    /// tuple had pending. Returns the open tuple and the edit buffer.
    fn seek(&mut self, table_id: TableId, key: Key) -> Result<(&mut Cursor<'a>, &mut Vec<Value>)> {
        let open = self
            .cursor
            .as_ref()
            .is_some_and(|c| c.key == key && c.table_id == table_id);
        if !open {
            self.finish();
            let table = self.db.table(table_id)?;
            let chain = table.get(key);
            let image = chain.as_ref().and_then(|c| c.newest().1);
            self.cursor = Some(Cursor {
                table_id,
                key,
                table,
                chain,
                image,
                edited: false,
                dirty: false,
            });
        }
        let cur = self.cursor.as_mut().expect("cursor opened above");
        Ok((cur, &mut self.buf))
    }

    /// Open column `col` of `(table, key)` for writing: the tuple's image
    /// moves to the edit buffer on the first write, and an install is due.
    fn edit(&mut self, table: TableId, key: Key, col: usize) -> Result<&mut Value> {
        let (cur, buf) = self.seek(table, key)?;
        if !cur.edited {
            let row = cur
                .image
                .as_ref()
                .ok_or_else(|| key_not_found(table, key))?;
            if col >= row.arity() {
                return Err(no_such_column(table, key, col));
            }
            buf.clear();
            buf.extend_from_slice(row.cols());
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

impl DataAccess for ReplayAccess<'_> {
    fn read(&mut self, table: TableId, key: Key, col: usize) -> Result<Value> {
        let (cur, buf) = self.seek(table, key)?;
        let cols = match (&cur.image, cur.edited) {
            (_, true) => &buf[..],
            (Some(row), false) => row.cols(),
            (None, false) => return Err(key_not_found(table, key)),
        };
        cols.get(col)
            .cloned()
            .ok_or_else(|| no_such_column(table, key, col))
    }

    fn write_col(&mut self, table: TableId, key: Key, col: usize, value: Value) -> Result<()> {
        *self.edit(table, key, col)? = value;
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
        let slot = self.edit(table, key, col)?;
        *slot = plus(slot, delta, negate);
        Ok(())
    }

    fn insert(&mut self, table: TableId, key: Key, row: Row) -> Result<()> {
        let (cur, _) = self.seek(table, key)?;
        cur.image = Some(Arc::new(row));
        cur.edited = false;
        cur.dirty = true;
        Ok(())
    }

    fn delete(&mut self, table: TableId, key: Key) -> Result<()> {
        let (cur, _) = self.seek(table, key)?;
        // A key that never had an index entry (and has no pending insert)
        // cannot be deleted; a tombstoned one can.
        if cur.chain.is_none() && !cur.dirty {
            return Err(key_not_found(table, key));
        }
        cur.image = None;
        cur.edited = false;
        cur.dirty = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;

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
        }
        txn.commit().unwrap();
    }

    fn newest(db: &Database, key: Key) -> (Timestamp, Option<Arc<Row>>) {
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
        assert_eq!(row.col(0), &Value::Int(77));
        assert_eq!(row.col(1), &Value::str("x"), "other columns carried over");
        let chain = db.table(T).unwrap().get(1).unwrap();
        assert_eq!(chain.num_versions(), 1, "single-version recovered state");
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
        assert_eq!((ts, row.unwrap().col(0)), (0, &Value::Int(10)));
        assert_eq!(table.shard_dirty_ts(table.shard_index(1)), dirty_before);
        a.finish();
        let (ts, row) = newest(&db, 1);
        let row = row.unwrap();
        assert_eq!(ts, 42);
        assert_eq!(row.cols(), &[Value::Int(77), Value::str("y")]);
        assert_eq!(table.shard_dirty_ts(table.shard_index(1)), 42);
        assert_eq!(table.get(1).unwrap().num_versions(), 1, "one install");
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
        assert_eq!((ts, row.unwrap().col(0)), (0, &Value::Int(10)));
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
        assert_eq!(newest(&db, 99).1.unwrap().col(0), &Value::Int(2));
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
        assert_eq!(row.cols(), &[Value::Float(13.5), Value::str("x")]);
    }

    #[test]
    fn bad_column_is_an_error() {
        let db = db();
        let mut txn = db.begin();
        let mut a = TxnAccess::new(&mut txn);
        assert!(a.read(T, 1, 9).is_err());
    }
}
