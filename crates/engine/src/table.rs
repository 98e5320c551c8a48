//! Sharded ordered index over tuple chains.
//!
//! Plays the role of Peloton's B-tree primary index: an ordered map from
//! key to version chain, sharded to keep concurrent access scalable (the
//! paper's log-replay experiments are partly bounded by "the performance of
//! the concurrent database indexes", §6.2.2).

use crate::catalog::TableMeta;
use crate::chain::TupleChain;
use pacman_common::fingerprint::{Fingerprint, Fnv};
use pacman_common::{Key, Row, Timestamp};
use parking_lot::{RwLock, RwLockReadGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One ordered shard: keys to their version chains.
type Shard = RwLock<BTreeMap<Key, Arc<TupleChain>>>;

/// What [`Table::load_shard`] did with a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardLoad {
    /// Tuples in the run.
    pub tuples: u64,
    /// Whether the shard was built in one piece (`false`: per-key
    /// last-writer-wins).
    pub bulk: bool,
}

/// One table: `2^shard_bits` ordered shards of tuple chains.
#[derive(Debug)]
pub struct Table {
    meta: TableMeta,
    shards: Box<[Shard]>,
    /// Per-shard highest mutation timestamp — the dirty tracking behind
    /// incremental checkpointing: a checkpoint round whose base snapshot
    /// is `ts0` skips every shard with `dirty_ts(shard) <= ts0`.
    dirty: Box<[AtomicU64]>,
    mask: u64,
}

#[inline]
fn spread(key: Key) -> u64 {
    // Fibonacci hashing: decorrelates dense key ranges from shard choice.
    key.wrapping_mul(0x9E3779B97F4A7C15) >> 32
}

impl Table {
    /// Create an empty table.
    pub fn new(meta: TableMeta) -> Self {
        let n = 1usize << meta.shard_bits;
        Table {
            shards: (0..n).map(|_| RwLock::new(BTreeMap::new())).collect(),
            dirty: (0..n).map(|_| AtomicU64::new(0)).collect(),
            mask: (n - 1) as u64,
            meta,
        }
    }

    /// Table metadata.
    pub fn meta(&self) -> &TableMeta {
        &self.meta
    }

    #[inline]
    fn shard_of(&self, key: Key) -> usize {
        (spread(key) & self.mask) as usize
    }

    /// The shard that owns `key` — the partition unit tuple-level online
    /// recovery tracks replay watermarks at.
    #[inline]
    pub fn shard_index(&self, key: Key) -> usize {
        self.shard_of(key)
    }

    /// Look up a chain.
    pub fn get(&self, key: Key) -> Option<Arc<TupleChain>> {
        self.shards[self.shard_of(key)].read().get(&key).cloned()
    }

    /// Look up or create a chain (used by inserts and recovery installs).
    pub fn get_or_create(&self, key: Key) -> Arc<TupleChain> {
        let shard = &self.shards[self.shard_of(key)];
        if let Some(c) = shard.read().get(&key) {
            return Arc::clone(c);
        }
        let mut w = shard.write();
        Arc::clone(w.entry(key).or_insert_with(|| Arc::new(TupleChain::new())))
    }

    /// Record a mutation of `key` at commit timestamp `ts`. Every install
    /// path must mark *before* the version becomes visible: a checkpoint
    /// scan that observes the install then also observes the mark, so its
    /// clean-shard skip decision can never lose the mutation.
    #[inline]
    pub fn mark_dirty(&self, key: Key, ts: Timestamp) {
        self.mark_shard_dirty(self.shard_of(key), ts);
    }

    /// [`Table::mark_dirty`] by shard index.
    #[inline]
    pub fn mark_shard_dirty(&self, shard: usize, ts: Timestamp) {
        self.dirty[shard % self.dirty.len()].fetch_max(ts, Ordering::Release);
    }

    /// Highest mutation timestamp recorded for `shard` (0 = never touched).
    #[inline]
    pub fn shard_dirty_ts(&self, shard: usize) -> Timestamp {
        self.dirty[shard % self.dirty.len()].load(Ordering::Acquire)
    }

    /// Latch-free last-writer-wins install that maintains the shard dirty
    /// tracking — the install path of tuple-level recovery and seeding.
    pub fn install_lww(&self, key: Key, ts: Timestamp, row: Option<Row>) {
        self.mark_dirty(key, ts);
        self.get_or_create(key).install_lww(ts, row);
    }

    /// Install `run`, the tuples of a snapshot of `shard` taken at `ts` (a
    /// checkpoint part), every version at `ts`.
    ///
    /// A run that *is* the shard — keys strictly ascending, all owned by
    /// `shard`, and the shard still empty — becomes the shard's map in one
    /// build under one write lock, with one dirty mark. Anything else (a
    /// shard a racing replay or an earlier state already populated, a part
    /// out of order or holding another shard's keys) installs per key,
    /// timestamped last-writer-wins, which reaches the same state in any
    /// order and never replaces a newer version.
    pub fn load_shard(&self, shard: usize, ts: Timestamp, run: Vec<(Key, Row)>) -> ShardLoad {
        let tuples = run.len() as u64;
        let is_shard = shard < self.shards.len()
            && run.iter().all(|&(k, _)| self.shard_of(k) == shard)
            && run.windows(2).all(|w| w[0].0 < w[1].0);
        if is_shard {
            // Marked before the versions become visible, as every install.
            self.mark_shard_dirty(shard, ts);
            let mut map = self.shards[shard].write();
            if map.is_empty() {
                *map = run
                    .into_iter()
                    .map(|(k, row)| (k, Arc::new(TupleChain::with_version(ts, Some(row)))))
                    .collect();
                return ShardLoad { tuples, bulk: true };
            }
        }
        for (key, row) in run {
            self.install_lww(key, ts, Some(row));
        }
        ShardLoad {
            tuples,
            bulk: false,
        }
    }

    /// Insert a seeded chain (index rebuild from a raw heap). Replaces any
    /// existing chain for the key.
    pub fn put_chain(&self, key: Key, chain: Arc<TupleChain>) {
        self.mark_dirty(key, chain.newest_ts());
        self.shards[self.shard_of(key)].write().insert(key, chain);
    }

    /// Number of keys present (including tombstoned chains).
    pub fn num_keys(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Visit the newest live row of every tuple: `f(key, ts, row)`.
    pub fn for_each_newest(&self, mut f: impl FnMut(Key, Timestamp, &Row)) {
        for shard in self.shards.iter() {
            // Clone the chain pointers out of the lock, then read them
            // unlocked — keeps the read lock short.
            let entries: Vec<(Key, Arc<TupleChain>)> = shard
                .read()
                .iter()
                .map(|(k, c)| (*k, Arc::clone(c)))
                .collect();
            for (k, c) in entries {
                let (ts, row) = c.newest();
                if let Some(row) = row {
                    f(k, ts, &row);
                }
            }
        }
    }

    /// One shard's map, read-locked: chains stay in it (and alive) until
    /// the guard drops. The held checkpoint scan walks it in place.
    pub(crate) fn read_shard(
        &self,
        shard: usize,
    ) -> RwLockReadGuard<'_, BTreeMap<Key, Arc<TupleChain>>> {
        self.shards[shard % self.shards.len()].read()
    }

    /// Keys of one shard whose newest version is live, ascending.
    pub fn live_keys_in_shard(&self, shard: usize) -> Vec<Key> {
        self.read_shard(shard)
            .iter()
            .filter(|(_, c)| c.newest().1.is_some())
            .map(|(k, _)| *k)
            .collect()
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Fingerprint of the newest live rows (order-insensitive).
    pub fn fingerprint(&self) -> Fingerprint {
        let mut fp = Fingerprint::new();
        self.for_each_newest(|k, _ts, row| {
            let mut h = Fnv::new();
            h.write_u64(self.meta.id.0 as u64);
            h.write_u64(k);
            row.hash_into(&mut h);
            fp.add(h.finish());
        });
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{TableId, Value};

    fn table() -> Table {
        Table::new(TableMeta {
            id: TableId::new(0),
            name: "t".into(),
            arity: 1,
            shard_bits: 3,
        })
    }

    fn row(i: i64) -> Option<Row> {
        Some(Row::from([Value::Int(i)]))
    }

    #[test]
    fn get_or_create_is_idempotent() {
        let t = table();
        let a = t.get_or_create(42);
        let b = t.get_or_create(42);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(t.num_keys(), 1);
        assert!(t.get(43).is_none());
    }

    #[test]
    fn for_each_newest_skips_tombstones() {
        let t = table();
        t.get_or_create(1).install_committed(1, row(10), None);
        t.get_or_create(2).install_committed(1, row(20), None);
        t.get_or_create(2).install_committed(2, None, None); // delete
        let mut seen = Vec::new();
        t.for_each_newest(|k, _, r| seen.push((k, r.col(0))));
        assert_eq!(seen, vec![(1, Value::Int(10))]);
        assert_eq!(t.live_keys_in_shard(t.shard_index(2)), Vec::<Key>::new());
    }

    #[test]
    fn fingerprint_detects_value_change() {
        let t1 = table();
        let t2 = table();
        for k in 0..100 {
            t1.get_or_create(k)
                .install_committed(1, row(k as i64), None);
            t2.get_or_create(k)
                .install_committed(1, row(k as i64), None);
        }
        assert_eq!(t1.fingerprint(), t2.fingerprint());
        t2.get_or_create(50).install_committed(2, row(-1), None);
        assert_ne!(t1.fingerprint(), t2.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_history() {
        // States that reached the same newest rows by different histories
        // (and one still holding a pre-image for a hold) must match.
        let t1 = table();
        let t2 = table();
        t1.get_or_create(7).install_committed(3, row(30), None);
        t2.get_or_create(7).install_committed(1, row(10), None);
        t2.get_or_create(7).install_committed(3, row(30), Some(2));
        assert_eq!(t1.fingerprint(), t2.fingerprint());
    }

    #[test]
    fn dirty_tracking_follows_installs() {
        let t = table();
        for s in 0..t.num_shards() {
            assert_eq!(t.shard_dirty_ts(s), 0, "fresh table is clean");
        }
        t.install_lww(42, 7, row(1));
        let s = t.shard_index(42);
        assert_eq!(t.shard_dirty_ts(s), 7);
        // Monotone: an older install never regresses the mark.
        t.mark_dirty(42, 3);
        assert_eq!(t.shard_dirty_ts(s), 7);
        t.install_lww(42, 9, None);
        assert_eq!(t.shard_dirty_ts(s), 9);
        // put_chain marks with the chain's newest timestamp.
        let c = Arc::new(TupleChain::with_version(12, row(5)));
        t.put_chain(42, c);
        assert_eq!(t.shard_dirty_ts(s), 12);
    }

    #[test]
    fn load_shard_builds_whole_shards_and_falls_back_per_key() {
        let t = table();
        let shard = t.shard_index(42);
        let keys: Vec<Key> = (0..400).filter(|&k| t.shard_index(k) == shard).collect();
        let run = |keys: &[Key]| -> Vec<(Key, Row)> {
            keys.iter().map(|&k| (k, row(k as i64).unwrap())).collect()
        };
        let n = keys.len() as u64;

        // The sorted, complete shard into the empty shard: one build.
        let load = t.load_shard(shard, 7, run(&keys));
        assert_eq!(
            load,
            ShardLoad {
                tuples: n,
                bulk: true
            }
        );
        assert_eq!(t.live_keys_in_shard(shard), keys);
        assert_eq!(t.shard_dirty_ts(shard), 7);
        assert_eq!(t.get(42).unwrap().newest().0, 7);

        // Again, older: the shard is no longer empty, every key loses.
        let load = t.load_shard(shard, 5, run(&keys));
        assert_eq!(
            load,
            ShardLoad {
                tuples: n,
                bulk: false
            }
        );
        assert_eq!(t.get(42).unwrap().newest().0, 7);

        // Out of order, or holding another shard's key, or naming a shard
        // the table does not have: per key, same state.
        for spoil in 0..3 {
            let u = table();
            let (mut keys, mut target) = (keys.clone(), shard);
            match spoil {
                0 => keys.swap(0, 1),
                1 => keys.push((0..400).find(|&k| u.shard_index(k) != shard).unwrap()),
                _ => target = u.num_shards() + shard,
            }
            let load = u.load_shard(target, 7, run(&keys));
            assert!(!load.bulk, "spoil {spoil}");
            assert_eq!(u.num_keys(), keys.len(), "spoil {spoil}");
            for &k in &keys {
                assert_eq!(u.get(k).unwrap().newest().0, 7, "spoil {spoil}");
            }
        }
    }
}
