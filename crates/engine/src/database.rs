//! The database: catalog + tables + clock + snapshot holds.

use crate::catalog::Catalog;
use crate::table::{ShardLoad, Table};
use crate::txn::{Txn, TxnScratch};
use pacman_common::fingerprint::Fingerprint;
use pacman_common::{Error, Key, LogicalClock, Result, Row, TableId, Timestamp};
use parking_lot::{Condvar, Mutex, RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// [`Database::hold_ts`] when no snapshot hold is live.
const NO_HOLD: Timestamp = Timestamp::MAX;

/// A main-memory database instance.
#[derive(Debug)]
pub struct Database {
    catalog: Catalog,
    tables: Vec<Table>,
    clock: LogicalClock,
    /// The live snapshot hold's timestamp, or [`NO_HOLD`]. Written only
    /// under `hold_gate`.
    hold_ts: AtomicU64,
    /// Serializes snapshot holds: taken to wait for, publish and clear one.
    hold_gate: Mutex<()>,
    /// Signalled when a hold drops.
    hold_dropped: Condvar,
    /// Install fence between committers and the checkpointer. Commits hold
    /// the read side from before the commit timestamp is drawn until every
    /// write is installed; [`Database::install_barrier`] acquires the write
    /// side once, so after the barrier every commit with a timestamp at or
    /// below the snapshot has fully installed (and marked its shards dirty).
    install_lock: RwLock<()>,
}

impl Database {
    /// Create an empty database for `catalog`.
    pub fn new(catalog: Catalog) -> Self {
        let tables = catalog
            .tables()
            .iter()
            .map(|m| Table::new(m.clone()))
            .collect();
        Database {
            catalog,
            tables,
            clock: LogicalClock::new(),
            hold_ts: AtomicU64::new(NO_HOLD),
            hold_gate: Mutex::new(()),
            hold_dropped: Condvar::new(),
            install_lock: RwLock::new(()),
        }
    }

    /// Enter an install section (commit path): held from before the commit
    /// timestamp is drawn until every write of the transaction is visible.
    pub fn install_guard(&self) -> RwLockReadGuard<'_, ()> {
        self.install_lock.read()
    }

    /// Wait out every in-flight install section. A checkpointer calls this
    /// after fixing its snapshot timestamp (and bumping the clock past it):
    /// once the barrier returns, every commit that drew a timestamp at or
    /// below the snapshot has fully installed, so the scan — and the
    /// per-shard dirty marks its skip decisions read — observe them.
    pub fn install_barrier(&self) {
        drop(self.install_lock.write());
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The commit clock.
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// Table accessor.
    pub fn table(&self, id: TableId) -> Result<&Table> {
        self.tables
            .get(id.index())
            .ok_or_else(|| Error::Unknown(format!("table {id}")))
    }

    /// All tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Seed a row during initial load (timestamp 0, not logged).
    pub fn seed_row(&self, table: TableId, key: Key, row: Row) -> Result<()> {
        self.table(table)?.install_lww(key, 0, Some(row));
        Ok(())
    }

    /// Seed many rows of one table during initial load (timestamp 0, not
    /// logged). Each row goes straight into its shard's run; each run is
    /// sorted only if it is not already ascending, then built in one piece
    /// by [`Table::load_shard`] — the path checkpoint restore takes. A
    /// shard that already holds chains falls back to per-key installs, so
    /// the state is that of [`Database::seed_row`] per row either way.
    /// Returns what the load did with each non-empty shard.
    pub fn seed_rows(
        &self,
        table: TableId,
        rows: impl IntoIterator<Item = (Key, Row)>,
    ) -> Result<Vec<ShardLoad>> {
        let t = self.table(table)?;
        let mut runs: Vec<Vec<(Key, Row)>> = (0..t.num_shards()).map(|_| Vec::new()).collect();
        for (key, row) in rows {
            runs[t.shard_index(key)].push((key, row));
        }
        Ok(runs
            .into_iter()
            .enumerate()
            .filter(|(_, run)| !run.is_empty())
            .map(|(shard, mut run)| {
                if !run.is_sorted_by_key(|&(k, _)| k) {
                    // Stable: a key seeded twice keeps its last row.
                    run.sort_by_key(|&(k, _)| k);
                }
                t.load_shard(shard, 0, run)
            })
            .collect())
    }

    /// Begin an OCC transaction on pooled per-thread scratch (the steady
    /// state: no allocation once the pool is warm).
    pub fn begin(&self) -> Txn<'_> {
        Txn::new(self, TxnScratch::acquire())
    }

    /// Begin an OCC transaction on caller-supplied scratch. The equivalence
    /// tests use this with [`TxnScratch::new`] to compare pooled reuse
    /// against guaranteed-fresh state; the scratch still returns to the
    /// thread-local pool when the transaction ends.
    pub fn begin_with<'db>(&'db self, scratch: TxnScratch<'db>) -> Txn<'db> {
        Txn::new(self, scratch)
    }

    /// Take a consistent snapshot for a scan (the checkpointer): reserve
    /// the next commit timestamp `ts` as the hold, so later commits sort
    /// strictly after it, then wait out the in-flight commits at or below
    /// it ([`Database::install_barrier`]). While the hold lives, a commit
    /// that displaces the version visible at `ts` keeps it as the chain's
    /// held pre-image, and every effect with a timestamp `<= ts` is
    /// installed.
    ///
    /// One hold is live at a time: a second call waits until the first
    /// drops.
    ///
    /// # Ordering
    ///
    /// The hold is published before the clock moves past `ts`, and a
    /// commit loads it once, after drawing its timestamp (both SeqCst). The
    /// move is a swap from exactly `ts` ([`LogicalClock::reserve`]), so a
    /// commit that draws a timestamp above `ts` draws it after the move,
    /// and its load then sees the hold. (A plain bump would not do: a
    /// commit could draw `ts` between the clock read and the publish, and
    /// the next one `ts + 1` before the publish.) When the swap fails, the
    /// hold is republished at the new next timestamp; a commit that saw
    /// the earlier value kept at most a pre-image the final hold does not
    /// need, and the crossing install for the final hold replaces it.
    pub fn snapshot_hold(self: &Arc<Self>) -> SnapshotHold {
        let ts = {
            let mut gate = self.hold_gate.lock();
            while self.live_hold().is_some() {
                self.hold_dropped.wait(&mut gate);
            }
            self.clock
                .reserve(|ts| self.hold_ts.store(ts, Ordering::SeqCst))
        };
        self.install_barrier();
        SnapshotHold {
            db: Arc::clone(self),
            ts,
        }
    }

    /// The live snapshot hold's timestamp, if one is live. The commit path
    /// loads it once, after drawing its timestamp (see
    /// [`Database::snapshot_hold`]).
    #[inline]
    pub(crate) fn live_hold(&self) -> Option<Timestamp> {
        let ts = self.hold_ts.load(Ordering::SeqCst);
        (ts != NO_HOLD).then_some(ts)
    }

    /// Total live tuples across tables.
    pub fn total_tuples(&self) -> usize {
        let mut n = 0;
        for t in &self.tables {
            t.for_each_newest(|_, _, _| n += 1);
        }
        n
    }

    /// Order-insensitive digest of every table's newest live rows — the
    /// equality notion of the recovery-equivalence tests.
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        for t in &self.tables {
            fp.merge(t.fingerprint());
        }
        fp
    }
}

/// RAII snapshot hold (see [`Database::snapshot_hold`]).
pub struct SnapshotHold {
    db: Arc<Database>,
    ts: Timestamp,
}

impl SnapshotHold {
    /// The held snapshot timestamp.
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// Visit every row of one shard of `table` visible at the snapshot:
    /// `f(key, row)` in ascending key order, the row borrowed in place.
    ///
    /// This is the checkpoint writer's scan, and it writes no shared cache
    /// line: it walks the shard under the shard's read lock (no chain
    /// `Arc` is cloned) and reads each chain's newest slot through the
    /// seqlock alone — no presence announcement, no refcount on the image
    /// — falling back to the chain's `Mutex` and its held pre-image only
    /// where the newest version is newer than the snapshot.
    ///
    /// # Why borrowing the slot's image is sound
    ///
    /// The slot's presence counter exists so that an image displaced from
    /// the slot is not freed under a reader. Here the image is kept alive
    /// by the chain state instead, for as long as this hold lives:
    ///
    /// * *Every commit at or below the snapshot has installed.*
    ///   [`Database::snapshot_hold`] ran the install barrier after moving
    ///   the clock past `ts`, so a slot showing a version at `ts' <= ts`
    ///   shows the version visible at `ts`, and no install can later slip
    ///   a version between `ts'` and `ts`: it stays the visible one.
    /// * *The commit that displaces it keeps it as `held`.* That commit
    ///   draws a timestamp above `ts`, so it sees this hold (the ordering
    ///   argument on [`Database::snapshot_hold`]), and
    ///   `TupleChain::install_committed` makes a displaced version at or
    ///   below the hold the chain's held pre-image. Installs on a chain run
    ///   in timestamp order, so every later one draws a timestamp above
    ///   `ts` too: it sees the hold, displaces a version above `ts` and
    ///   leaves `held` alone. So the version visible at `ts` — and the
    ///   state's reference to its image — survives while this hold lives.
    /// * *No install replaces a version outright during a round.* Only
    ///   recovery's `install_lww` does, and it does not run beside a
    ///   checkpoint round: a recovery session's retention hold blocks
    ///   rounds until replay is done, and a standby runs no checkpointer.
    ///
    /// Chains themselves leave a shard only under its write lock (restore,
    /// resync), which the held read lock excludes.
    pub fn for_each_visible_in_shard(
        &self,
        table: TableId,
        shard: usize,
        mut f: impl FnMut(Key, &Row),
    ) -> Result<()> {
        let map = self.db.table(table)?.read_shard(shard);
        for (&key, chain) in map.iter() {
            // SAFETY: the three conditions above hold for `self.ts` while
            // `self` is alive, which it is for the whole call.
            unsafe {
                chain.visit_held(self.ts, |row| {
                    if let Some(row) = row {
                        f(key, row);
                    }
                })
            };
        }
        Ok(())
    }
}

impl Drop for SnapshotHold {
    fn drop(&mut self) {
        let _gate = self.db.hold_gate.lock();
        self.db.hold_ts.store(NO_HOLD, Ordering::SeqCst);
        self.db.hold_dropped.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::Value;

    fn db() -> Arc<Database> {
        let mut c = Catalog::new();
        c.add_table("a", 1);
        c.add_table("b", 2);
        Arc::new(Database::new(c))
    }

    #[test]
    fn seed_and_fingerprint() {
        let d1 = db();
        let d2 = db();
        for k in 0..50 {
            d1.seed_row(TableId::new(0), k, Row::from([Value::Int(k as i64)]))
                .unwrap();
            d2.seed_row(TableId::new(0), k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        assert_eq!(d1.fingerprint(), d2.fingerprint());
        assert_eq!(d1.total_tuples(), 50);
        d2.seed_row(
            TableId::new(1),
            1,
            Row::from([Value::Int(0), Value::Int(0)]),
        )
        .unwrap();
        assert_ne!(d1.fingerprint(), d2.fingerprint());
    }

    #[test]
    fn seed_rows_bulk_builds_and_matches_seed_row() {
        let t = TableId::new(1);
        let rows = |keys: &[Key]| -> Vec<(Key, Row)> {
            let row = |k: Key| Row::from([Value::Int(k as i64), Value::str("r")]);
            keys.iter().map(|&k| (k, row(k))).collect()
        };
        // Descending input: every run is sorted before the build.
        let keys: Vec<Key> = (0..300).rev().collect();
        let (bulk, per_row) = (db(), db());
        let loads = bulk.seed_rows(t, rows(&keys)).unwrap();
        for (k, r) in rows(&keys) {
            per_row.seed_row(t, k, r).unwrap();
        }
        assert_eq!(bulk.fingerprint(), per_row.fingerprint());
        assert_eq!(loads.iter().map(|l| l.tuples).sum::<u64>(), 300);
        assert!(loads.iter().all(|l| l.bulk), "{loads:?}");
        // Into populated shards (and with a key seeded twice): per key,
        // the last row of a key wins, same state again.
        let mut again = rows(&[5, 400, 5]);
        again[2].1 = Row::from([Value::Int(-5), Value::str("last")]);
        let loads = bulk.seed_rows(t, again.clone()).unwrap();
        assert!(loads.iter().all(|l| !l.bulk), "{loads:?}");
        for (k, r) in again {
            per_row.seed_row(t, k, r).unwrap();
        }
        assert_eq!(bulk.fingerprint(), per_row.fingerprint());
        assert!(bulk.seed_rows(TableId::new(9), rows(&[1])).is_err());
    }

    #[test]
    fn a_second_hold_waits_for_the_first_to_drop() {
        let d = db();
        d.clock().advance_to(40);
        assert_eq!(d.live_hold(), None);
        let h1 = d.snapshot_hold();
        assert_eq!((h1.ts(), d.live_hold()), (40, Some(40)));
        assert_eq!(d.clock().peek(), 41, "later commits sort after the hold");
        let (tx, rx) = std::sync::mpsc::channel();
        let second = {
            let d = Arc::clone(&d);
            std::thread::spawn(move || tx.send(d.snapshot_hold().ts()).unwrap())
        };
        let wait = std::time::Duration::from_millis(200);
        assert!(rx.recv_timeout(wait).is_err(), "second hold taken early");
        assert_eq!(d.live_hold(), Some(40));
        drop(h1);
        let ts = rx.recv_timeout(wait * 50).expect("second hold never taken");
        assert_eq!(ts, 41);
        second.join().unwrap();
        assert_eq!(d.live_hold(), None, "dropped with its thread");
    }

    #[test]
    fn held_scan_sees_the_snapshot_not_later_commits() {
        let d = db();
        let t = TableId::new(1);
        for k in [9u64, 3, 7] {
            d.seed_row(t, k, Row::from([Value::Int(k as i64), Value::str("v")]))
                .unwrap();
        }
        // Key 3 is written twice after the hold: only its held pre-image
        // keeps the snapshot version.
        let hold = d.snapshot_hold();
        for later in ["later", "later still"] {
            let mut txn = d.begin();
            txn.write(t, 3, Row::from([Value::Int(-3), Value::str(later)]))
                .unwrap();
            txn.commit().unwrap();
        }
        let table = d.table(t).unwrap();
        let mut seen = Vec::new();
        for shard in 0..table.num_shards() {
            hold.for_each_visible_in_shard(t, shard, |k, r| seen.push((k, r.col(0))))
                .unwrap();
        }
        seen.sort_by_key(|&(k, _)| k);
        let want: Vec<_> = [3, 7, 9].map(|k| (k, Value::Int(k as i64))).into();
        assert_eq!(seen, want);
        assert!(hold
            .for_each_visible_in_shard(TableId::new(5), 0, |_, _| {})
            .is_err());
    }

    #[test]
    fn unknown_table_errors() {
        let d = db();
        assert!(d.table(TableId::new(7)).is_err());
    }
}
