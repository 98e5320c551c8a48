//! The checkpoint writer's held scan against a shadow model.
//!
//! `SnapshotHold::for_each_visible_in_shard` copies each tuple's image out
//! of its chain's newest slot with neither a presence announcement nor a
//! refcount. That is sound only while the image cannot be freed: every
//! commit at or below the hold has installed, and the commit that displaces
//! the version visible at the hold keeps it as the chain's held pre-image.
//! A chain keeps nothing else, so every later install above the hold would
//! free the image if `held` did not. This test runs one committer thread of
//! random updates, deletes and re-inserts beside checkpoint rounds. Half the writes go to a few hot keys, the
//! largest ones, which a scan reaches last in their shards: by then the
//! committer has usually written them again, more than once. Each round is
//! restored into a fresh database and compared, key by key and byte by
//! byte, with a shadow model of the state at the round's timestamp.
//!
//! A commit that kept no pre-image, or replaced it on every install above
//! the hold, drops the version a round is copying: the round then loses the
//! tuple, or copies freed bytes, and the comparison fails. Images differ in arity and
//! string lengths from one update to the next, so a copy of the wrong image,
//! or of the right one with the wrong length, fails it too.

use pacman_common::{Row, TableId, Timestamp, Value};
use pacman_core::recovery::checkpoint::{recover_checkpoint_chain, CheckpointTarget};
use pacman_engine::{Catalog, Database};
use pacman_storage::StorageSet;
use pacman_wal::run_checkpoint_full_chained;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const T: TableId = TableId(0);
const KEYS: u64 = 1024;
/// The hot keys: the `HOT` largest.
const HOT: u64 = 8;
const ROUNDS: usize = 40;
/// Commits between the starts of two rounds, at least, so that every round
/// snapshots a state of its own.
const COMMITS_PER_ROUND: u64 = 16;

/// The `n`-th image written for `key`: its arity and string lengths follow
/// from `n`.
fn image(key: u64, n: u64) -> Row {
    let mut cols = vec![Value::Int(key as i64), Value::Int(n as i64)];
    for i in 0..n % 4 {
        cols.push(Value::str(&"s".repeat(((n * 7 + key + i) % 29) as usize)));
    }
    cols.push(Value::Float(n as f64 / 8.0));
    Row::new(cols)
}

/// One committed write: its timestamp, key and after-image (`None` = delete).
type Committed = (Timestamp, u64, Option<Row>);

#[test]
fn every_round_restores_the_state_at_its_timestamp() {
    let mut c = Catalog::new();
    c.add_table_sharded("t", 3, 2);
    let db = Arc::new(Database::new(c.clone()));
    for key in 0..KEYS {
        db.seed_row(T, key, image(key, 0)).unwrap();
    }
    let log: Arc<Mutex<Vec<Committed>>> = Arc::default();
    let commits = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let committer = {
        let (db, log) = (Arc::clone(&db), Arc::clone(&log));
        let (commits, stop) = (Arc::clone(&commits), Arc::clone(&stop));
        std::thread::spawn(move || {
            let mut live = vec![true; KEYS as usize];
            let mut rng = 0x2545_F491_4F6C_DD1Du64;
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let key = if rng & 1 == 0 {
                    KEYS - 1 - (rng >> 1) % HOT
                } else {
                    (rng >> 1) % KEYS
                };
                n += 1;
                let mut txn = db.begin();
                let after = match (live[key as usize], rng >> 60) {
                    (true, 0) => {
                        txn.delete(T, key).unwrap();
                        None
                    }
                    (true, _) => {
                        txn.write(T, key, image(key, n)).unwrap();
                        Some(image(key, n))
                    }
                    (false, _) => {
                        txn.insert(T, key, image(key, n)).unwrap();
                        Some(image(key, n))
                    }
                };
                let ts = txn.commit().expect("one committer never conflicts").ts;
                live[key as usize] = after.is_some();
                log.lock().unwrap().push((ts, key, after));
                commits.fetch_add(1, Ordering::Release);
            }
        })
    };

    let storage = StorageSet::for_tests();
    let mut rounds = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let due = commits.load(Ordering::Acquire) + COMMITS_PER_ROUND;
        while commits.load(Ordering::Acquire) < due {
            assert!(!committer.is_finished(), "the committer stopped");
            std::thread::yield_now();
        }
        rounds.push(run_checkpoint_full_chained(&db, &storage, 1).unwrap());
    }
    stop.store(true, Ordering::Relaxed);
    committer.join().unwrap();

    let log = log.lock().unwrap();
    for (stats, chain) in &rounds {
        let mut want: BTreeMap<u64, Row> = (0..KEYS).map(|k| (k, image(k, 0))).collect();
        for (_, key, after) in log.iter().take_while(|(ts, ..)| *ts <= stats.ts) {
            match after {
                Some(row) => want.insert(*key, row.clone()),
                None => want.remove(key),
            };
        }
        let fresh = Database::new(c.clone());
        let r =
            recover_checkpoint_chain(&storage, chain, 1, CheckpointTarget::Tables(&fresh)).unwrap();
        assert_eq!(r.tuples, want.len() as u64, "round at {}", stats.ts);
        let table = fresh.table(T).unwrap();
        for key in 0..KEYS {
            let got = table.get(key).and_then(|chain| chain.newest().1);
            assert_eq!(
                got.as_ref(),
                want.get(&key),
                "round at {}: key {key}",
                stats.ts
            );
        }
    }
}
