//! Checkpoint restore: the borrowed part walk against the writer's
//! encoding, and the bulk shard build against the per-key install it
//! replaced.

use pacman_common::codec::put_u64;
use pacman_common::{Encoder, Key, Row, TableId, Timestamp, Value};
use pacman_core::recovery::checkpoint::{
    recover_checkpoint_chain, CheckpointRecovery, CheckpointTarget,
};
use pacman_engine::{Catalog, Database};
use pacman_storage::StorageSet;
use pacman_wal::checkpoint::{part_name, read_chain, CheckpointChain, PartView, ResolvedPart};
use pacman_wal::run_checkpoint_incremental;
use proptest::prelude::*;
use std::sync::Arc;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("nan != nan", |f| !f.is_nan())
            .prop_map(Value::Float),
        ".{0,12}".prop_map(|s| Value::str(&s)),
    ]
}

/// A part as `checkpoint_round` writes it, and the offset at which each
/// tuple ends.
fn encode_part(tuples: &[(Key, Row)]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = Vec::new();
    let mut ends = Vec::new();
    for (key, row) in tuples {
        put_u64(&mut bytes, *key);
        row.encode(&mut bytes);
        ends.push(bytes.len());
    }
    (bytes, ends)
}

proptest! {
    /// Random rows round-trip; a prefix that ends on a tuple boundary
    /// yields exactly the tuples before it; one that ends inside a tuple
    /// yields them and then an error — never a panic, never a tuple made
    /// of bytes beyond the cut.
    #[test]
    fn part_view_matches_the_writers_encoding(
        tuples in proptest::collection::vec(
            (any::<u64>(), proptest::collection::vec(value_strategy(), 0..6)),
            0..8,
        ),
    ) {
        let tuples: Vec<(Key, Row)> = tuples.into_iter().map(|(k, cols)| (k, Row::new(cols))).collect();
        let (bytes, ends) = encode_part(&tuples);
        for cut in 0..=bytes.len() {
            let whole = ends.iter().take_while(|&&end| end <= cut).count();
            let on_boundary = cut == 0 || ends.contains(&cut);
            let mut view = PartView::new(&bytes[..cut]);
            for expected in &tuples[..whole] {
                let got = view.next().expect("a whole tuple").expect("decodes");
                prop_assert_eq!(&got, expected);
            }
            if !on_boundary {
                prop_assert!(matches!(view.next(), Some(Err(_))), "cut {} inside a tuple", cut);
            }
            prop_assert!(view.next().is_none(), "cut {}: the walk must end", cut);
        }
    }
}

const A: TableId = TableId(0);
const KEYS: u64 = 600;

/// A source database checkpointed as a two-link chain (parts at two
/// timestamps; table `b` and its shards never covered), then updated once
/// past the chain.
struct Source {
    db: Arc<Database>,
    storage: StorageSet,
    chain: CheckpointChain,
    parts: Vec<ResolvedPart>,
    /// The key written after the last checkpoint round, with the
    /// timestamp and image of that write.
    late: (Key, Timestamp, Row),
}

fn source() -> Source {
    let mut c = Catalog::new();
    c.add_table_sharded("a", 2, 3);
    c.add_table_sharded("b", 1, 1);
    let db = Arc::new(Database::new(c));
    for k in 0..KEYS {
        db.seed_row(A, k, Row::from([Value::Int(k as i64), Value::str("seed")]))
            .unwrap();
    }
    let update = |key: Key, val: i64| {
        let mut t = db.begin();
        let r = t.read(A, key).unwrap();
        t.write(A, key, r.with_col(0, Value::Int(val))).unwrap();
        t.commit().unwrap().ts
    };
    let storage = StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("t"));
    run_checkpoint_incremental(&db, &storage, 2, 8).unwrap();
    update(17, -17);
    run_checkpoint_incremental(&db, &storage, 2, 8).unwrap();
    let chain = read_chain(&storage).unwrap().unwrap();
    assert_eq!(chain.len(), 2);
    let parts = chain.resolve_parts();
    let late_ts = update(101, -101);
    let late_row = db.table(A).unwrap().get(101).unwrap().newest().1.unwrap();
    Source {
        db,
        storage,
        chain,
        parts,
        late: (101, late_ts, late_row),
    }
}

fn read_part(storage: &StorageSet, p: &ResolvedPart) -> Vec<(Key, Row)> {
    let bytes = storage
        .disk(p.disk as usize)
        .read(&part_name(p.ts, p.table, p.shard as usize))
        .unwrap();
    PartView::new(&bytes).map(|t| t.unwrap()).collect()
}

fn write_part(storage: &StorageSet, p: &ResolvedPart, tuples: &[(Key, Row)]) {
    storage.disk(p.disk as usize).write_file(
        &part_name(p.ts, p.table, p.shard as usize),
        &encode_part(tuples).0,
    );
}

/// The restore this PR replaced: every tuple of every part installed per
/// key, timestamped last-writer-wins.
fn restore_per_key(s: &Source, into: &Database) {
    for p in &s.parts {
        let t = into.table(TableId::new(p.table)).unwrap();
        for (key, row) in read_part(&s.storage, p) {
            t.install_lww(key, p.ts, Some(row));
        }
    }
}

/// Keys in every table of `db`, tombstoned chains included.
fn keys(db: &Database) -> u64 {
    db.tables().iter().map(|t| t.num_keys() as u64).sum()
}

/// Restore `s`'s chain into `into`; returns the report and how many keys
/// the restore added.
fn restore(s: &Source, into: &Database, threads: usize) -> (CheckpointRecovery, u64) {
    let before = keys(into);
    let r = recover_checkpoint_chain(
        &s.storage,
        &s.chain,
        threads,
        CheckpointTarget::Tables(into),
    )
    .unwrap();
    (r, keys(into) - before)
}

/// Every key reachable through the index at the same `(ts, row)`, the
/// same fingerprint, the same per-shard dirty marks.
fn assert_same_state(got: &Database, want: &Database, what: &str) {
    assert_eq!(got.fingerprint(), want.fingerprint(), "{what}: fingerprint");
    for (g, w) in got.tables().iter().zip(want.tables()) {
        assert_eq!(g.num_keys(), w.num_keys(), "{what}: key count");
        w.for_each_newest(|key, ts, row| {
            let chain = g
                .get(key)
                .unwrap_or_else(|| panic!("{what}: key {key} unreachable"));
            let (gts, grow) = chain.newest();
            assert_eq!((gts, grow.as_ref()), (ts, Some(row)), "{what}: key {key}");
        });
        for shard in 0..w.num_shards() {
            assert_eq!(
                g.shard_dirty_ts(shard),
                w.shard_dirty_ts(shard),
                "{what}: dirty mark of shard {shard}"
            );
        }
    }
}

/// The next incremental round must see exactly the restored shards as
/// written at their part's timestamp and every other shard as clean.
fn assert_dirty_marks_are_part_timestamps(s: &Source, db: &Database, what: &str) {
    for t in db.tables() {
        for shard in 0..t.num_shards() {
            let want = s
                .parts
                .iter()
                .find(|p| (p.table, p.shard as usize) == (t.meta().id.0, shard))
                .map_or(0, |p| p.ts);
            assert_eq!(t.shard_dirty_ts(shard), want, "{what}: shard {shard}");
        }
    }
}

#[test]
fn bulk_and_fallback_restores_agree() {
    for threads in [1, 3] {
        // (i) Into an empty database: every part is one shard build.
        let s = source();
        let parts = s.parts.len() as u64;
        assert!(parts >= 8, "every shard of table a holds keys");
        let per_key = Database::new(s.db.catalog().clone());
        restore_per_key(&s, &per_key);
        let snapshot = Database::new(s.db.catalog().clone());
        let (r, rose) = restore(&s, &snapshot, threads);
        assert_eq!((r.tuples, r.bulk_parts, rose), (KEYS, parts, KEYS));
        assert_same_state(&snapshot, &per_key, "(i) empty target");
        assert_dirty_marks_are_part_timestamps(&s, &snapshot, "(i) empty target");

        // (ii) Replay got to a shard first and left a version newer than
        // the chain: that part installs per key and the newer version
        // stays, so the result is the source as it is now.
        let (late_key, late_ts, late_row) = s.late.clone();
        assert!(late_ts > s.chain.ts());
        let raced = Database::new(s.db.catalog().clone());
        raced
            .table(A)
            .unwrap()
            .install_lww(late_key, late_ts, Some(late_row.clone()));
        let (r, rose) = restore(&s, &raced, threads);
        assert_eq!((r.tuples, r.bulk_parts, rose), (KEYS, parts - 1, KEYS - 1));
        assert_eq!(
            raced.fingerprint(),
            s.db.fingerprint(),
            "(ii) newer version"
        );
        let (ts, row) = raced.table(A).unwrap().get(late_key).unwrap().newest();
        assert_eq!((ts, row), (late_ts, Some(late_row)));

        // (iii) A part with two neighbouring tuples swapped.
        let s = source();
        let p = s.parts[0];
        let mut tuples = read_part(&s.storage, &p);
        tuples.swap(3, 4);
        write_part(&s.storage, &p, &tuples);
        let swapped = Database::new(s.db.catalog().clone());
        let (r, rose) = restore(&s, &swapped, threads);
        assert_eq!((r.tuples, r.bulk_parts, rose), (KEYS, parts - 1, KEYS));
        assert_same_state(&swapped, &snapshot, "(iii) swapped keys");
        assert_dirty_marks_are_part_timestamps(&s, &swapped, "(iii) swapped keys");

        // (iv) A tuple filed under another shard's part, in key order there.
        // Its own shard is built whole or — if the stray got there first —
        // per key.
        let s = source();
        let (from, to) = (s.parts[0], s.parts[1]);
        let mut giving = read_part(&s.storage, &from);
        let mut taking = read_part(&s.storage, &to);
        let stray = giving.remove(2);
        taking.insert(taking.partition_point(|t| t.0 < stray.0), stray);
        write_part(&s.storage, &from, &giving);
        write_part(&s.storage, &to, &taking);
        let strayed = Database::new(s.db.catalog().clone());
        let (r, rose) = restore(&s, &strayed, threads);
        assert_eq!((r.tuples, rose), (KEYS, KEYS));
        assert!((parts - 2..parts).contains(&r.bulk_parts), "(iv) {r:?}");
        assert_eq!(strayed.fingerprint(), snapshot.fingerprint());
        // The stray carries its carrier's timestamp, so only that and the
        // two shards' marks may differ from (i).
        let a = strayed.table(A).unwrap();
        snapshot.table(A).unwrap().for_each_newest(|key, _, row| {
            let got = a
                .get(key)
                .unwrap_or_else(|| panic!("(iv) key {key} unreachable"));
            assert_eq!(got.newest().1.as_ref(), Some(row), "(iv) key {key}");
        });
    }
}
