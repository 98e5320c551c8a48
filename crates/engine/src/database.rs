//! The database: catalog + tables + clock + snapshot holds.

use crate::catalog::Catalog;
use crate::chain::DEFAULT_VERSION_PRUNE_THRESHOLD;
use crate::table::{ShardLoad, Table};
use crate::txn::{Txn, TxnScratch};
use pacman_common::fingerprint::Fingerprint;
use pacman_common::{Error, Key, LogicalClock, Result, Row, TableId, Timestamp};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A main-memory database instance.
#[derive(Debug)]
pub struct Database {
    catalog: Catalog,
    tables: Vec<Table>,
    clock: LogicalClock,
    /// Active snapshot holds (checkpointers): timestamps whose versions must
    /// not be pruned, with reference counts.
    holds: Mutex<BTreeMap<Timestamp, usize>>,
    /// Install fence between committers and the checkpointer. Commits hold
    /// the read side from before the commit timestamp is drawn until every
    /// write is installed; [`Database::install_barrier`] acquires the write
    /// side once, so after the barrier every commit with a timestamp at or
    /// below the snapshot has fully installed (and marked its shards dirty).
    install_lock: RwLock<()>,
    /// Versions a chain may retain before commit-path installs prune below
    /// the snapshot floor (see `DurabilityConfig::version_prune_threshold`).
    prune_threshold: AtomicUsize,
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
            holds: Mutex::new(BTreeMap::new()),
            install_lock: RwLock::new(()),
            prune_threshold: AtomicUsize::new(DEFAULT_VERSION_PRUNE_THRESHOLD),
        }
    }

    /// Versions a chain may retain before a commit prunes it (memory/GC
    /// knob; higher keeps longer history for snapshot readers).
    pub fn version_prune_threshold(&self) -> usize {
        self.prune_threshold.load(Ordering::Relaxed)
    }

    /// Set the per-chain retained-version threshold. Clamped to ≥ 1: the
    /// newest version must always survive.
    pub fn set_version_prune_threshold(&self, n: usize) {
        self.prune_threshold.store(n.max(1), Ordering::Relaxed);
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

    /// Take a consistent snapshot for a scan (the checkpointer): register
    /// a hold at the next commit timestamp `ts`, bump the clock past it so
    /// later commits sort strictly after it, then wait out the in-flight
    /// commits at or below it ([`Database::install_barrier`]). While the
    /// hold lives, every commit-path prune keeps the version visible at
    /// `ts`, and every effect with a timestamp `<= ts` is installed.
    ///
    /// The hold is registered under the holds lock together with the clock
    /// read, so a committer that drew its timestamp earlier and reads the
    /// prune floor ([`Database::version_floor`]) before the hold exists
    /// gets a floor at or below `ts` either way.
    pub fn snapshot_hold(self: &Arc<Self>) -> SnapshotHold {
        let ts = {
            let mut holds = self.holds.lock();
            let ts = self.clock.peek();
            *holds.entry(ts).or_insert(0) += 1;
            ts
        };
        self.clock.advance_to(ts + 1);
        self.install_barrier();
        SnapshotHold {
            db: Arc::clone(self),
            ts,
        }
    }

    /// The prune floor: the oldest held snapshot, or "now" when nothing is
    /// held (then only the newest version of each tuple must survive).
    pub fn version_floor(&self) -> Timestamp {
        let holds = self.holds.lock();
        match holds.keys().next() {
            Some(&ts) => ts,
            None => self.clock.peek(),
        }
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
    /// — falling back to the version `Mutex` only where the newest version
    /// is newer than the snapshot.
    ///
    /// # Why borrowing the slot's image is sound
    ///
    /// The slot's presence counter exists so that an image displaced from
    /// the slot is not freed under a reader. Here the image is kept alive
    /// by the version list instead, for as long as this hold lives:
    ///
    /// * *Every commit at or below the snapshot has installed.*
    ///   [`Database::snapshot_hold`] ran the install barrier after bumping
    ///   the clock past `ts`, so a slot showing a version at `ts' <= ts`
    ///   shows the version visible at `ts`, and no install can later slip
    ///   a version between `ts'` and `ts`: it stays the visible one.
    /// * *Commit-path installs prune at `min(holds) <= ts`.*
    ///   `TupleChain::install_committed` keeps every version at or above
    ///   its floor plus the newest one below it, so the version visible at
    ///   `ts` — and its list entry's reference to the image — survives any
    ///   prune while this hold is registered.
    /// * *No install replaces a version outright during a round.* Only
    ///   recovery's `install_lww` / `install_mv` do, and neither runs
    ///   beside a checkpoint round: a recovery session's retention hold
    ///   blocks rounds until replay is done, and a standby runs no
    ///   checkpointer.
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
        let mut holds = self.db.holds.lock();
        if let Some(n) = holds.get_mut(&self.ts) {
            *n -= 1;
            if *n == 0 {
                holds.remove(&self.ts);
            }
        }
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
    fn version_floor_tracks_holds() {
        let d = db();
        d.clock().advance_to(40);
        assert_eq!(d.version_floor(), 40);
        let h1 = d.snapshot_hold();
        assert_eq!(h1.ts(), 40);
        assert_eq!(d.clock().peek(), 41, "later commits sort after the hold");
        d.clock().advance_to(60);
        let h2 = d.snapshot_hold();
        assert_eq!(h2.ts(), 60);
        assert_eq!(d.version_floor(), 40);
        drop(h1);
        assert_eq!(d.version_floor(), 60);
        drop(h2);
        assert_eq!(d.version_floor(), 61);
    }

    #[test]
    fn held_scan_sees_the_snapshot_not_later_commits() {
        let d = db();
        let t = TableId::new(1);
        for k in [9u64, 3, 7] {
            d.seed_row(t, k, Row::from([Value::Int(k as i64), Value::str("v")]))
                .unwrap();
        }
        // Every install prunes, and key 3 is written twice after the hold:
        // only the hold's floor keeps its snapshot version.
        d.set_version_prune_threshold(1);
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
