//! Model-based engine testing: the MVCC engine, driven single-threaded,
//! must agree with a trivial `BTreeMap` model; driven concurrently, it
//! must preserve the serializability witnesses the recovery pipeline
//! relies on (commit-timestamp order == per-key install order).

use pacman_common::{Error, Key, Row, TableId, Value};
use pacman_engine::{Catalog, Database, WriteKind};
use proptest::prelude::*;
use std::collections::BTreeMap;

const T: TableId = TableId::new(0);

#[derive(Clone, Debug)]
enum Op {
    Read(Key),
    Write(Key, i64),
    Insert(Key, i64),
    Delete(Key),
    Commit,
    Abort,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..16).prop_map(Op::Read),
        ((0u64..16), any::<i64>()).prop_map(|(k, v)| Op::Write(k, v)),
        ((0u64..16), any::<i64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (0u64..16).prop_map(Op::Delete),
        Just(Op::Commit),
        Just(Op::Abort),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-threaded: engine ≡ BTreeMap model under random txn streams.
    #[test]
    fn engine_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = Database::new(c);
        for k in 0..8u64 {
            db.seed_row(T, k, Row::from([Value::Int(k as i64)])).unwrap();
        }
        // The model mirrors the engine's pending-write buffer semantics:
        // own writes are visible to reads, insert-then-delete annihilates,
        // and validity is only checked at commit time.
        #[derive(Clone, Copy, PartialEq)]
        enum Stage { Upd(i64), Ins(i64), Del }
        let mut model: BTreeMap<Key, i64> = (0..8u64).map(|k| (k, k as i64)).collect();
        let mut staged: BTreeMap<Key, Stage> = BTreeMap::new();
        let mut txn = db.begin();

        for op in ops {
            match op {
                Op::Read(k) => {
                    let engine = txn.read(T, k).map(|r| r.col(0).as_int().unwrap());
                    let expect = match staged.get(&k) {
                        Some(Stage::Upd(v)) | Some(Stage::Ins(v)) => Some(*v),
                        Some(Stage::Del) => None,
                        None => model.get(&k).copied(),
                    };
                    match (engine, expect) {
                        (Ok(v), Some(m)) => prop_assert_eq!(v, m),
                        (Err(Error::KeyNotFound { .. }), None) => {}
                        (e, m) => prop_assert!(false, "read {k}: engine {e:?} vs model {m:?}"),
                    }
                }
                Op::Write(k, v) => {
                    txn.write(T, k, Row::from([Value::Int(v)])).unwrap();
                    match staged.get(&k) {
                        Some(Stage::Ins(_)) => { staged.insert(k, Stage::Ins(v)); }
                        _ => { staged.insert(k, Stage::Upd(v)); }
                    }
                }
                Op::Insert(k, v) => {
                    txn.insert(T, k, Row::from([Value::Int(v)])).unwrap();
                    staged.insert(k, Stage::Ins(v));
                }
                Op::Delete(k) => {
                    txn.delete(T, k).unwrap();
                    match staged.get(&k) {
                        Some(Stage::Ins(_)) => { staged.remove(&k); } // annihilates
                        _ => { staged.insert(k, Stage::Del); }
                    }
                }
                Op::Commit => {
                    let valid = staged.iter().all(|(k, st)| match st {
                        Stage::Ins(_) => !model.contains_key(k),
                        Stage::Upd(_) | Stage::Del => model.contains_key(k),
                    });
                    let result = txn.commit();
                    if valid {
                        prop_assert!(result.is_ok(), "unexpected abort: {result:?}");
                        for (k, st) in &staged {
                            match st {
                                Stage::Upd(v) | Stage::Ins(v) => { model.insert(*k, *v); }
                                Stage::Del => { model.remove(k); }
                            }
                        }
                    } else {
                        prop_assert!(result.is_err(), "commit should have aborted");
                    }
                    staged.clear();
                    txn = db.begin();
                }
                Op::Abort => {
                    txn.abort();
                    staged.clear();
                    txn = db.begin();
                }
            }
        }
        drop(txn);
        // Committed state must equal the model.
        let mut engine_state: BTreeMap<Key, i64> = BTreeMap::new();
        db.table(T).unwrap().for_each_newest(|k, _, row| {
            engine_state.insert(k, row.col(0).as_int().unwrap());
        });
        prop_assert_eq!(engine_state, model);
    }
}

/// Concurrent commits on overlapping keys: per-key version history must be
/// in strictly increasing timestamp order, and each write record's prev_ts
/// must equal the timestamp it superseded (the physical-logging witness).
#[test]
fn concurrent_commit_order_witnesses() {
    let mut c = Catalog::new();
    c.add_table("t", 1);
    let db = std::sync::Arc::new(Database::new(c));
    for k in 0..8u64 {
        db.seed_row(T, k, Row::from([Value::Int(0)])).unwrap();
    }
    let log = std::sync::Mutex::new(Vec::<(Key, u64, u64)>::new()); // (key, prev_ts, ts)
    crossbeam::thread::scope(|scope| {
        for w in 0..6 {
            let db = &db;
            let log = &log;
            scope.spawn(move |_| {
                let mut rng = w as u64;
                for _ in 0..400 {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let k = rng % 8;
                    let mut t = db.begin();
                    let Ok(r) = t.read(T, k) else { continue };
                    let v = r.col(0).as_int().unwrap();
                    t.write(T, k, r.with_col(0, Value::Int(v + 1))).unwrap();
                    if let Ok(info) = t.commit() {
                        let wr = &info.writes[0];
                        assert_eq!(wr.kind, WriteKind::Update);
                        log.lock().unwrap().push((k, wr.prev_ts, info.ts));
                    }
                }
            });
        }
    })
    .unwrap();
    let mut log = log.into_inner().unwrap();
    let commits = log.len();
    assert!(commits > 100, "too few commits: {commits}");
    // Per key: sort by ts; each prev_ts must equal the previous ts.
    log.sort_by_key(|&(k, _, ts)| (k, ts));
    for pair in log.windows(2) {
        let (k1, _, ts1) = pair[0];
        let (k2, prev2, _) = pair[1];
        if k1 == k2 {
            assert_eq!(
                prev2, ts1,
                "key {k1}: version chain has a gap — serialization order broken"
            );
        }
    }
    // Final value = number of commits per key.
    let mut per_key: BTreeMap<Key, i64> = BTreeMap::new();
    for &(k, _, _) in &log {
        *per_key.entry(k).or_default() += 1;
    }
    for (k, expect) in per_key {
        let row = db.table(T).unwrap().get(k).unwrap().newest().1.unwrap();
        assert_eq!(row.col(0).as_int().unwrap(), expect, "key {k} lost updates");
    }
}

/// The written value of [`timestamp_order_is_a_serial_order`]: depends on
/// both inputs and on their order, so replaying against any other version
/// of `a` or `b` changes it.
fn mix(a: i64, b: i64) -> i64 {
    b.wrapping_mul(31).wrapping_add(a).wrapping_add(7)
}

/// Serializability oracle for write-set-only latching: concurrent
/// transactions read a key `a` they do not write and write `b := mix(a, b)`.
/// Replaying the committed ones serially in timestamp order — what
/// command-log recovery does — must reproduce every written value, so a
/// read-only key validated against the wrong version fails it.
#[test]
fn timestamp_order_is_a_serial_order() {
    const KEYS: u64 = 8;
    let mut c = Catalog::new();
    c.add_table("t", 1);
    let db = Database::new(c);
    for k in 0..KEYS {
        db.seed_row(T, k, Row::from([Value::Int(k as i64)]))
            .unwrap();
    }
    // (ts, a, b, a observed, b observed, b written)
    let log = std::sync::Mutex::new(Vec::<(u64, Key, Key, i64, i64, i64)>::new());
    crossbeam::thread::scope(|scope| {
        for w in 0..6u64 {
            let (db, log) = (&db, &log);
            scope.spawn(move |_| {
                let mut rng = w.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                for _ in 0..1500 {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let (a, b) = ((rng >> 33) % KEYS, (rng >> 45) % KEYS);
                    if a == b {
                        continue;
                    }
                    let mut t = db.begin();
                    let va = t.read(T, a).unwrap().col(0).as_int().unwrap();
                    let vb = t.read(T, b).unwrap().col(0).as_int().unwrap();
                    let out = mix(va, vb);
                    t.write(T, b, Row::from([Value::Int(out)])).unwrap();
                    // A slow epoch read now and then: the commit is
                    // descheduled while it holds its write latch.
                    let slow = (rng >> 20) % 8 == 0;
                    let committed = t.commit_with(|| {
                        if slow {
                            std::thread::yield_now();
                        }
                        1
                    });
                    if let Ok(info) = committed {
                        log.lock().unwrap().push((info.ts, a, b, va, vb, out));
                    }
                }
            });
        }
    })
    .unwrap();
    let mut log = log.into_inner().unwrap();
    assert!(log.len() > 500, "too few commits: {}", log.len());
    log.sort_unstable_by_key(|e| e.0);
    let mut model: Vec<i64> = (0..KEYS as i64).collect();
    for &(ts, a, b, va, vb, out) in &log {
        let (ma, mb) = (model[a as usize], model[b as usize]);
        assert_eq!(
            (va, vb),
            (ma, mb),
            "commit at ts {ts} (read {a}, wrote {b}) did not read the state \
             its timestamp places it after"
        );
        assert_eq!(out, mix(ma, mb));
        model[b as usize] = out;
    }
    for k in 0..KEYS {
        let row = db.table(T).unwrap().get(k).unwrap().newest().1.unwrap();
        assert_eq!(row.col(0).as_int().unwrap(), model[k as usize], "key {k}");
    }
}
