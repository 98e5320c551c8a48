//! The raw tuple store used by physical-log recovery.
//!
//! PLR restores *records*, not indexes: checkpoint tuples land in a flat
//! per-table heap addressed through a hash-based "physical address table"
//! (our stand-in for page/slot ids), and the B-tree indexes are rebuilt
//! lazily at the end of log recovery (§2.3, §6.2.1).

use pacman_common::{Key, KeyMap, TableId};
use pacman_engine::{Database, TupleChain};
use parking_lot::Mutex;
use std::sync::Arc;

const SHARDS: usize = 64;

/// Per-table hash store of tuple chains (no ordering).
#[derive(Debug)]
pub struct RawTable {
    shards: Vec<Mutex<KeyMap<Key, Arc<TupleChain>>>>,
}

impl RawTable {
    fn new() -> Self {
        RawTable {
            shards: (0..SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    #[inline]
    fn shard_of(&self, key: Key) -> usize {
        (key.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize & (SHARDS - 1)
    }

    /// Fetch or create the chain for `key`.
    pub fn get_or_create(&self, key: Key) -> Arc<TupleChain> {
        let mut shard = self.shards[self.shard_of(key)].lock();
        Arc::clone(
            shard
                .entry(key)
                .or_insert_with(|| Arc::new(TupleChain::new())),
        )
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drain the shard contents (index rebuild).
    pub fn drain_shard(&self, shard: usize) -> Vec<(Key, Arc<TupleChain>)> {
        self.shards[shard].lock().drain().collect()
    }

    /// Number of internal shards (parallel rebuild units).
    pub fn num_shards(&self) -> usize {
        SHARDS
    }
}

/// All tables of the recovering database, unindexed.
#[derive(Debug)]
pub struct RawStore {
    tables: Vec<RawTable>,
}

impl RawStore {
    /// One raw table per catalog table.
    pub fn new(num_tables: usize) -> Self {
        RawStore {
            tables: (0..num_tables).map(|_| RawTable::new()).collect(),
        }
    }

    /// Raw table accessor.
    pub fn table(&self, id: TableId) -> &RawTable {
        &self.tables[id.index()]
    }

    /// Number of tables (manifest validation).
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Total tuples across tables.
    pub fn total(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Rebuild the database indexes from the raw heaps — the "lazy index
    /// reconstruction" PLR performs at the end of log recovery. Parallel
    /// over (table, shard) units with `threads` workers.
    pub fn build_indexes(&self, db: &Database, threads: usize) {
        let mut units: Vec<(usize, usize)> = Vec::new();
        for (ti, t) in self.tables.iter().enumerate() {
            for s in 0..t.num_shards() {
                units.push((ti, s));
            }
        }
        let next = std::sync::atomic::AtomicUsize::new(0);
        crossbeam::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|_| loop {
                    let u = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if u >= units.len() {
                        return;
                    }
                    let (ti, s) = units[u];
                    let table = db
                        .table(TableId::new(ti as u32))
                        .expect("catalog tables match raw store");
                    for (key, chain) in self.tables[ti].drain_shard(s) {
                        table.put_chain(key, chain);
                    }
                });
            }
        })
        .expect("index rebuild scope");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{Row, Value};
    use pacman_engine::Catalog;

    #[test]
    fn raw_store_roundtrip_through_index_build() {
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        let raw = RawStore::new(1);
        for k in 0..500u64 {
            raw.table(TableId::new(0))
                .get_or_create(k)
                .install_lww(1, Some(Row::from([Value::Int(k as i64)])));
        }
        assert_eq!(raw.total(), 500);
        raw.build_indexes(&db, 4);
        assert_eq!(db.table(TableId::new(0)).unwrap().num_keys(), 500);
        let chain = db.table(TableId::new(0)).unwrap().get(123).unwrap();
        assert_eq!(chain.newest().1.unwrap().col(0), Value::Int(123));
        assert_eq!(raw.total(), 0, "drained into the index");
    }

    #[test]
    fn get_or_create_shares_chains() {
        let raw = RawStore::new(1);
        let a = raw.table(TableId::new(0)).get_or_create(9);
        let b = raw.table(TableId::new(0)).get_or_create(9);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
