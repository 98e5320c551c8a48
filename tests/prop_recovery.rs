//! Property-based recovery testing: random committed histories must be
//! recovered bit-exactly by every command-log scheme, the GDG
//! properties of §4.1.2 must hold for arbitrary procedure sets, and the
//! durable-space reclaim frontier must never pass a live retention hold
//! under arbitrary acquire/advance/release/break interleavings.

use pacman_common::codec::Cursor;
use pacman_common::{Decoder, Encoder, ProcId, Row, TableId, Value};
use pacman_core::recovery::{RecoveryConfig, RecoveryScheme};
use pacman_core::runtime::ReplayMode;
use pacman_core::static_analysis::{GlobalGraph, LocalGraph};
use pacman_engine::{Database, WriteKind, WriteRecord};
use pacman_sproc::{Expr, ProcBuilder, ProcRegistry};
use pacman_storage::StorageSet;
use pacman_wal::{
    decode_after_image, LogPayload, PayloadKind, RecordView, ShipFrame, TxnLogRecord,
    SHIP_WIRE_VERSION,
};
use proptest::prelude::*;

const T_A: TableId = TableId::new(0);
const T_B: TableId = TableId::new(1);
const T_C: TableId = TableId::new(2);

/// A three-procedure registry with cross-table flow:
///  - MoveAB: read A[k], write B[k2] using the read value,
///  - IncA:   RMW A[k],
///  - IncBC:  RMW B[k] and RMW C[k].
fn registry() -> ProcRegistry {
    let mut reg = ProcRegistry::new();

    let mut b = ProcBuilder::new(ProcId::new(0), "MoveAB", 2);
    let v = b.read(T_A, Expr::param(0), 0);
    let b_key = Expr::param(1);
    let old = b.read(T_B, b_key.clone(), 0);
    b.write(T_B, b_key, 0, Expr::add(Expr::var(old), Expr::var(v)));
    reg.register(b.build().unwrap()).unwrap();

    let mut b = ProcBuilder::new(ProcId::new(1), "IncA", 2);
    let v = b.read(T_A, Expr::param(0), 0);
    b.write(
        T_A,
        Expr::param(0),
        0,
        Expr::add(Expr::var(v), Expr::param(1)),
    );
    reg.register(b.build().unwrap()).unwrap();

    let mut b = ProcBuilder::new(ProcId::new(2), "IncBC", 2);
    let v = b.read(T_B, Expr::param(0), 0);
    b.write(
        T_B,
        Expr::param(0),
        0,
        Expr::add(Expr::var(v), Expr::param(1)),
    );
    let w = b.read(T_C, Expr::param(0), 0);
    b.write(
        T_C,
        Expr::param(0),
        0,
        Expr::mul(Expr::var(w), Expr::int(3)),
    );
    reg.register(b.build().unwrap()).unwrap();

    reg
}

fn catalog() -> pacman_engine::Catalog {
    let mut c = pacman_engine::Catalog::new();
    c.add_table("a", 1);
    c.add_table("b", 1);
    c.add_table("c", 1);
    c
}

const KEYS: u64 = 12;

fn seeded_db() -> Database {
    let db = Database::new(catalog());
    for k in 0..KEYS {
        db.seed_row(T_A, k, Row::from([Value::Int(100 + k as i64)]))
            .unwrap();
        db.seed_row(T_B, k, Row::from([Value::Int(10)])).unwrap();
        db.seed_row(T_C, k, Row::from([Value::Int(2)])).unwrap();
    }
    db
}

/// One random transaction: (proc, key1, key2/amount).
#[derive(Clone, Debug)]
struct RandTxn {
    proc: u32,
    k1: u64,
    k2: u64,
    amt: i64,
}

fn txn_strategy() -> impl Strategy<Value = RandTxn> {
    (0u32..3, 0..KEYS, 0..KEYS, -50i64..50).prop_map(|(proc, k1, k2, amt)| RandTxn {
        proc,
        k1,
        k2,
        amt,
    })
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>()
            .prop_filter("nan != nan", |f| !f.is_nan())
            .prop_map(Value::Float),
        ".{0,16}".prop_map(|s| Value::str(&s)),
    ]
}

fn write_strategy() -> impl Strategy<Value = WriteRecord> {
    (
        0u32..4,
        any::<u64>(),
        0u32..3,
        proptest::collection::vec(value_strategy(), 1..4),
        any::<u64>(),
    )
        .prop_map(|(table, key, kind, cols, prev_ts)| {
            let kind = match kind {
                0 => WriteKind::Update,
                1 => WriteKind::Insert,
                _ => WriteKind::Delete,
            };
            WriteRecord {
                table: TableId::new(table),
                key,
                kind,
                after: if kind == WriteKind::Delete {
                    None
                } else {
                    Some(Row::new(cols))
                },
                prev_ts,
            }
        })
}

/// Every [`LogPayload`] variant: commands, logical and physical write
/// sets, and ad-hoc write sets.
fn payload_strategy() -> impl Strategy<Value = LogPayload> {
    let writes = || proptest::collection::vec(write_strategy(), 0..6);
    prop_oneof![
        (0u32..8, proptest::collection::vec(value_strategy(), 0..6)).prop_map(|(p, params)| {
            LogPayload::Command {
                proc: ProcId::new(p),
                params: params.into(),
            }
        }),
        (writes(), any::<bool>()).prop_map(|(w, physical)| LogPayload::Writes {
            writes: w,
            physical,
            adhoc: false,
        }),
        writes().prop_map(|w| LogPayload::Writes {
            writes: w,
            physical: false,
            adhoc: true,
        }),
    ]
}

/// Arbitrary ship-stream frames: record batches, checkpoint blobs, chain
/// tips and seals in any interleaving (what a replication link carries).
fn ship_frame_strategy() -> impl Strategy<Value = ShipFrame> {
    let record_bytes = || {
        proptest::collection::vec((1u64..1 << 48, payload_strategy()), 0..4).prop_map(|recs| {
            let mut buf = Vec::new();
            for (ts, payload) in recs {
                TxnLogRecord { ts, payload }.encode(&mut buf);
            }
            buf
        })
    };
    prop_oneof![
        (0u32..4, 1u64..100).prop_map(|(num_loggers, batch_epochs)| ShipFrame::Hello {
            wire_version: SHIP_WIRE_VERSION,
            num_loggers,
            batch_epochs,
        }),
        ("log/[0-9]{2}/[0-9]{10}", any::<u32>(), record_bytes()).prop_map(
            |(file, offset, bytes)| ShipFrame::Records {
                file,
                offset: offset as u64,
                bytes: bytes.into(),
            }
        ),
        (
            "ckpt/[0-9]{20}/t[0-9]{3}\\.s[0-9]{4}",
            0u32..4,
            proptest::collection::vec(any::<u8>(), 0..64),
        )
            .prop_map(|(name, disk, bytes)| ShipFrame::Blob {
                name,
                disk,
                bytes: bytes.into(),
            }),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(|bytes| ShipFrame::ChainTip {
            bytes: bytes.into()
        }),
        (1u64..1 << 24).prop_map(|pepoch| ShipFrame::Seal { pepoch }),
        Just(ShipFrame::Reset),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Ship-stream framing totality: arbitrary batch/manifest/seal
    /// interleavings round-trip byte-exactly through the wire codec,
    /// alone and concatenated into one stream.
    #[test]
    fn ship_frames_roundtrip(frames in proptest::collection::vec(ship_frame_strategy(), 1..10)) {
        let mut stream = Vec::new();
        for f in &frames {
            let bytes = f.to_bytes();
            let mut cur = Cursor::new(&bytes);
            let back = ShipFrame::decode(&mut cur)
                .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
            prop_assert!(cur.is_empty(), "trailing bytes");
            prop_assert_eq!(&back, f);
            f.encode(&mut stream);
        }
        let mut cur = Cursor::new(&stream);
        for f in &frames {
            let back = ShipFrame::decode(&mut cur)
                .map_err(|e| TestCaseError::fail(format!("stream decode: {e}")))?;
            prop_assert_eq!(&back, f);
        }
        prop_assert!(cur.is_empty());
    }

    /// A truncated frame is rejected cleanly — an error, never a panic —
    /// at every cut point (a severed replication link mid-frame).
    #[test]
    fn truncated_ship_frames_error_cleanly(frame in ship_frame_strategy()) {
        let bytes = frame.to_bytes();
        for cut in 0..bytes.len() {
            let mut cur = Cursor::new(&bytes[..cut]);
            prop_assert!(
                ShipFrame::decode(&mut cur).is_err(),
                "cut at {}/{} decoded",
                cut,
                bytes.len()
            );
        }
    }

    /// Codec totality: any record of any payload variant round-trips
    /// byte-exactly, alone and concatenated into a mixed stream.
    #[test]
    fn any_payload_roundtrips(
        records in proptest::collection::vec((1u64..1 << 48, payload_strategy()), 1..12),
    ) {
        let records: Vec<TxnLogRecord> = records
            .into_iter()
            .map(|(ts, payload)| TxnLogRecord { ts, payload })
            .collect();
        let mut stream = Vec::new();
        for r in &records {
            // Individual roundtrip.
            let bytes = r.to_bytes();
            let mut cur = Cursor::new(&bytes);
            let back = TxnLogRecord::decode(&mut cur)
                .map_err(|e| TestCaseError::fail(format!("decode: {e}")))?;
            prop_assert!(cur.is_empty(), "trailing bytes");
            prop_assert!(r.structurally_equal(&back), "{r:?} != {back:?}");
            r.encode(&mut stream);
        }
        // Mixed-stream roundtrip (what a log batch file holds).
        let mut cur = Cursor::new(&stream);
        for r in &records {
            let back = TxnLogRecord::decode(&mut cur)
                .map_err(|e| TestCaseError::fail(format!("stream decode: {e}")))?;
            prop_assert!(r.structurally_equal(&back));
        }
        prop_assert!(cur.is_empty());
    }

    /// Truncating a record anywhere must error, never panic (corrupt-tail
    /// handling during reload).
    #[test]
    fn truncated_records_error_cleanly(ts in 1u64..1 << 48, payload in payload_strategy()) {
        let bytes = TxnLogRecord { ts, payload }.to_bytes();
        for cut in 0..bytes.len() {
            let mut cur = Cursor::new(&bytes[..cut]);
            prop_assert!(TxnLogRecord::decode(&mut cur).is_err(), "cut at {cut} decoded");
        }
    }

    /// The zero-copy scan path is interchangeable with the owned decoder:
    /// on any record stream, [`RecordView::parse`] consumes exactly the
    /// same bytes and reports the same timestamp and payload shape; a
    /// command view's parameter list is the owned payload's, and a
    /// tuple-level view's write iterator yields the owned write set.
    #[test]
    fn record_view_agrees_with_owned_decode(
        records in proptest::collection::vec((1u64..1 << 48, payload_strategy()), 1..12),
    ) {
        let mut stream = Vec::new();
        for (ts, payload) in &records {
            TxnLogRecord { ts: *ts, payload: payload.clone() }.encode(&mut stream);
        }
        let mut owned_cur = Cursor::new(&stream);
        let mut view_cur = Cursor::new(&stream);
        for _ in &records {
            let owned = TxnLogRecord::decode(&mut owned_cur)
                .map_err(|e| TestCaseError::fail(format!("owned decode: {e}")))?;
            let mut spans = Vec::new();
            let view = RecordView::parse_with(&mut view_cur, |w| spans.push(w))
                .map_err(|e| TestCaseError::fail(format!("view parse: {e}")))?;
            prop_assert_eq!(owned_cur.position(), view_cur.position(), "span divergence");
            prop_assert_eq!(view.ts(), owned.ts);
            prop_assert_eq!(view.epoch(), owned.epoch());
            let shape = match &owned.payload {
                LogPayload::Command { proc, .. } => PayloadKind::Command { proc: *proc },
                LogPayload::Writes { physical, adhoc, .. } => PayloadKind::Writes {
                    physical: *physical,
                    adhoc: *adhoc,
                },
            };
            prop_assert_eq!(view.kind(), shape);
            match &owned.payload {
                LogPayload::Command { params, .. } => {
                    prop_assert_eq!(view.params(), Some(params.clone()));
                }
                _ => prop_assert!(view.params().is_none()),
            }
            match (&owned.payload, view.writes()) {
                (LogPayload::Writes { writes, .. }, Some(it)) => {
                    let from_view: Vec<WriteRecord> = it.collect();
                    prop_assert_eq!(&from_view, writes);
                    // The parse sink sees the same writes and delimits
                    // exactly the after-image the owned decode
                    // materializes.
                    prop_assert_eq!(spans.len(), writes.len());
                    for (s, w) in spans.iter().zip(writes) {
                        prop_assert_eq!((s.ts, s.table, s.key), (owned.ts, w.table, w.key));
                        let image = s.after.clone().map(|r| &stream[r]);
                        prop_assert_eq!(image, w.after.as_ref().map(Row::body));
                        prop_assert_eq!(&image.map(decode_after_image), &w.after);
                    }
                }
                (LogPayload::Command { .. }, None) => {
                    prop_assert!(spans.is_empty());
                }
                (p, v) => {
                    return Err(TestCaseError::fail(format!(
                        "writes()/payload mismatch: {p:?} vs Some={}",
                        v.is_some()
                    )));
                }
            }
        }
        prop_assert!(view_cur.is_empty());
    }

    /// Truncated and torn tails error identically through both paths —
    /// a cut that the owned decoder rejects is rejected by the borrowed
    /// view at the same place, so batch scans and replay can never
    /// disagree about where a file's valid prefix ends.
    #[test]
    fn record_view_truncation_matches_owned(ts in 1u64..1 << 48, payload in payload_strategy()) {
        let bytes = TxnLogRecord { ts, payload }.to_bytes();
        for cut in 0..bytes.len() {
            let owned = TxnLogRecord::decode(&mut Cursor::new(&bytes[..cut]));
            let view = RecordView::parse(&mut Cursor::new(&bytes[..cut]));
            match (owned, view) {
                (Err(oe), Err(ve)) => {
                    prop_assert_eq!(
                        oe.to_string(),
                        ve.to_string(),
                        "divergent error at cut {}",
                        cut
                    );
                }
                (o, v) => {
                    return Err(TestCaseError::fail(format!(
                        "cut {cut}: owned={:?} view_ok={}",
                        o.map(|r| r.ts),
                        v.is_ok()
                    )));
                }
            }
        }
    }

    /// Newest-first LLR-P equals ascending replay: on random logical logs
    /// over a handful of hot keys — updates, inserts, deletes, re-inserts,
    /// records writing their key twice, several logger files per batch, a
    /// durability-frontier cut and a checkpoint cut — every thread count
    /// leaves each key at the `(ts, row)` an in-order oracle leaves it at,
    /// single-versioned.
    #[test]
    fn llr_p_newest_first_matches_ascending_oracle(
        ops in proptest::collection::vec((0u32..2, 0u64..8, 0u32..4, any::<i64>(), 0u32..4), 1..48),
        files in 1usize..4,
        batches in 1u64..6,
        pepoch_cut in 0u64..3,
        after_cut in 0usize..3,
    ) {
        use pacman_common::clock::epoch_floor;
        use pacman_core::metrics::RecoveryMetrics;
        use pacman_core::recovery::{llr_p, LogInventory};
        use std::collections::BTreeMap;

        // One record per op, timestamps ascending, batch b = epoch b + 1.
        let n = ops.len() as u64;
        let write = |table: u32, key: u64, kind: u32, val: i64| WriteRecord {
            table: TableId::new(table),
            key,
            kind: [WriteKind::Update, WriteKind::Insert, WriteKind::Delete][kind.min(2) as usize],
            after: (kind != 2).then(|| Row::from([Value::Int(val)])),
            prev_ts: 0,
        };
        let storage = StorageSet::for_tests();
        let mut bufs: BTreeMap<(usize, u64), Vec<u8>> = BTreeMap::new();
        let mut records = Vec::new();
        for (i, &(table, key, kind, val, twice)) in ops.iter().enumerate() {
            let batch = i as u64 * batches / n;
            let ts = epoch_floor(batch + 1) | (i as u64 + 1);
            // kind 3 = delete then re-insert within one record; `twice == 0`
            // makes any other record write its key a second time.
            let writes = match (kind, twice) {
                (3, _) => vec![write(table, key, 2, 0), write(table, key, 1, val)],
                (k, 0) => vec![write(table, key, k, val), write(table, key, 0, val ^ 1)],
                (k, _) => vec![write(table, key, k, val)],
            };
            let rec = TxnLogRecord {
                ts,
                payload: LogPayload::Writes { writes, physical: false, adhoc: false },
            };
            rec.encode(bufs.entry((val.unsigned_abs() as usize % files, batch)).or_default());
            records.push(rec);
        }
        for ((logger, batch), buf) in &bufs {
            storage.disk(0).append(&format!("log/{logger:02}/{batch:010}"), buf);
        }
        // Cuts: the frontier drops the newest epochs, the checkpoint covers
        // the oldest records.
        let pepoch = batches.saturating_sub(pepoch_cut).max(1);
        let after_ts = match after_cut {
            0 => 0,
            c => records[(records.len() - 1) * (c - 1) / 2].ts,
        };

        // Ascending oracle; writes at or below `after_ts` are the base image.
        let build = |upto: Option<u64>| {
            let db = Database::new(catalog());
            for rec in &records {
                let LogPayload::Writes { writes, .. } = &rec.payload else { unreachable!() };
                let replayed = rec.epoch() <= pepoch && rec.ts > after_ts;
                if rec.ts <= upto.unwrap_or(u64::MAX) && (replayed || rec.ts <= after_ts) {
                    for w in writes {
                        db.table(w.table).unwrap().install_lww(w.key, rec.ts, w.after.clone());
                    }
                }
            }
            db
        };
        let oracle = build(None);
        let inv = LogInventory::scan(&storage);
        let mut counts = None;
        for threads in [1usize, 2, 3, 8] {
            let db = build(Some(after_ts));
            let m = RecoveryMetrics::new();
            let r = llr_p::recover_log(&storage, &inv, &db, threads, pepoch, after_ts, &m)
                .map_err(|e| TestCaseError::fail(format!("llr-p x{threads}: {e}")))?;
            prop_assert_eq!(db.fingerprint(), oracle.fingerprint(), "{} threads", threads);
            for table in 0..2 {
                for key in 0..8 {
                    let want = oracle.table(TableId::new(table)).unwrap().get(key);
                    let got = db.table(TableId::new(table)).unwrap().get(key);
                    prop_assert_eq!(
                        got.as_ref().map(|c| c.newest()),
                        want.as_ref().map(|c| c.newest()),
                        "t{} key {} at {} threads", table, key, threads
                    );
                }
            }
            // Skipping is decided per key, so the counts do not depend on
            // how keys are spread over lanes.
            let c = (r.txns, r.installed_writes, r.skipped_writes);
            prop_assert_eq!(*counts.get_or_insert(c), c, "{} threads", threads);
        }
    }

    /// Serially commit a random history under command logging, each
    /// transaction randomly a stored-procedure call (command record) or
    /// ad-hoc (its write set, §4.5): CLR and CLR-P in every replay mode
    /// must recover the exact state.
    #[test]
    fn random_mixed_histories_recover_exactly(
        txns in proptest::collection::vec((txn_strategy(), any::<bool>()), 1..60),
    ) {
        let reg = registry();
        let reference = seeded_db();
        let storage = StorageSet::for_tests();
        pacman_wal::run_checkpoint(&std::sync::Arc::new(seeded_db()), &storage, 1).unwrap();

        let mut buf = Vec::new();
        let mut batch = 0u64;
        let mut count = 0u64;
        for (i, (t, adhoc)) in txns.iter().enumerate() {
            let params: pacman_sproc::Params = vec![
                Value::Int(t.k1 as i64),
                if t.proc == 0 { Value::Int(t.k2 as i64) } else { Value::Int(t.amt) },
            ].into();
            let proc = reg.get(ProcId::new(t.proc)).unwrap();
            let epoch = 1 + (i as u64) / 7;
            match pacman_engine::run_procedure_with_epoch(&reference, proc, &params, || epoch) {
                Ok(info) => {
                    let payload = if *adhoc {
                        LogPayload::Writes { writes: info.writes.clone(), physical: false, adhoc: true }
                    } else {
                        LogPayload::Command { proc: proc.id, params }
                    };
                    TxnLogRecord { ts: info.ts, payload }.encode(&mut buf);
                    count += 1;
                }
                Err(e) => return Err(TestCaseError::fail(format!("serial commit failed: {e}"))),
            }
            if (i + 1) % 10 == 0 {
                storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
                buf.clear();
                batch += 1;
            }
        }
        if !buf.is_empty() {
            storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
        }
        storage.disk(0).write_file("pepoch.log", &u64::MAX.to_le_bytes());

        let want = reference.fingerprint();
        for scheme in [
            RecoveryScheme::ClrP { mode: ReplayMode::PureStatic },
            RecoveryScheme::ClrP { mode: ReplayMode::Synchronous },
            RecoveryScheme::ClrP { mode: ReplayMode::Pipelined },
            RecoveryScheme::Clr,
        ] {
            let out = pacman_core::recovery::recover(
                &storage,
                &catalog(),
                &reg,
                &RecoveryConfig { scheme, threads: 4 },
            ).map_err(|e| TestCaseError::fail(format!("{}: {e}", scheme.label())))?;
            prop_assert_eq!(out.report.txns, count);
            prop_assert_eq!(
                out.db.fingerprint(), want,
                "{} diverged on {} txns", scheme.label(), txns.len()
            );
        }
    }

    /// Serially commit a random history under command logging, then recover
    /// with CLR and all three CLR-P modes: fingerprints must match.
    #[test]
    fn random_histories_recover_exactly(txns in proptest::collection::vec(txn_strategy(), 1..60)) {
        let reg = registry();
        let reference = seeded_db();
        let storage = StorageSet::for_tests();
        pacman_wal::run_checkpoint(&std::sync::Arc::new(seeded_db()), &storage, 1).unwrap();

        let mut buf = Vec::new();
        let mut batch = 0u64;
        let mut count = 0u64;
        for (i, t) in txns.iter().enumerate() {
            let params: pacman_sproc::Params = vec![
                Value::Int(t.k1 as i64),
                if t.proc == 0 { Value::Int(t.k2 as i64) } else { Value::Int(t.amt) },
            ].into();
            let proc = reg.get(ProcId::new(t.proc)).unwrap();
            let epoch = 1 + (i as u64) / 7;
            match pacman_engine::run_procedure_with_epoch(&reference, proc, &params, || epoch) {
                Ok(info) => {
                    TxnLogRecord {
                        ts: info.ts,
                        payload: LogPayload::Command { proc: proc.id, params },
                    }.encode(&mut buf);
                    count += 1;
                }
                Err(e) => return Err(TestCaseError::fail(format!("serial commit failed: {e}"))),
            }
            if (i + 1) % 10 == 0 {
                storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
                buf.clear();
                batch += 1;
            }
        }
        if !buf.is_empty() {
            storage.disk(0).append(&format!("log/00/{batch:010}"), &buf);
        }
        storage.disk(0).write_file("pepoch.log", &u64::MAX.to_le_bytes());

        let want = reference.fingerprint();
        for scheme in [
            RecoveryScheme::Clr,
            RecoveryScheme::ClrP { mode: ReplayMode::PureStatic },
            RecoveryScheme::ClrP { mode: ReplayMode::Synchronous },
            RecoveryScheme::ClrP { mode: ReplayMode::Pipelined },
        ] {
            let out = pacman_core::recovery::recover(
                &storage,
                &catalog(),
                &reg,
                &RecoveryConfig { scheme, threads: 4 },
            ).map_err(|e| TestCaseError::fail(format!("{}: {e}", scheme.label())))?;
            prop_assert_eq!(out.report.txns, count);
            prop_assert_eq!(
                out.db.fingerprint(), want,
                "{} diverged on {} txns", scheme.label(), txns.len()
            );
        }
    }

    /// The durable-space lifecycle invariant: under arbitrary
    /// interleavings of hold acquire (subscriber and recovery), release,
    /// advance and break, the log reclaim frontier never exceeds
    /// checkpoint coverage nor the floor of any *live, unbroken* hold —
    /// nothing a holder still needs can ever be deleted.
    #[test]
    fn retention_frontier_never_exceeds_live_holds(
        ops in proptest::collection::vec((0u8..5, 0u64..1000), 1..60),
        coverage in 0u64..1000,
    ) {
        use pacman_wal::{batch_index_of_epoch, RetentionHold, RetentionManager, RetentionPolicy};
        const E: u64 = 8; // epochs per batch
        let mgr = RetentionManager::new(
            StorageSet::for_tests(),
            1,
            E,
            RetentionPolicy::default(),
        );
        let mut holds: Vec<RetentionHold> = Vec::new();
        for (op, arg) in ops {
            match op {
                0 => holds.push(mgr.pin_subscriber()),
                1 => holds.push(mgr.pin_recovery(arg, u64::MAX)),
                2 => {
                    if !holds.is_empty() {
                        let i = (arg as usize) % holds.len();
                        holds.remove(i); // release
                    }
                }
                3 => {
                    if !holds.is_empty() {
                        let i = (arg as usize) % holds.len();
                        holds[i].force_break();
                    }
                }
                _ => {
                    if !holds.is_empty() {
                        let i = (arg as usize) % holds.len();
                        holds[i].advance_log(arg);
                    }
                }
            }
            let frontier = mgr.log_frontier_batch(coverage);
            prop_assert!(
                frontier <= batch_index_of_epoch(coverage, E),
                "frontier {} exceeds coverage batch {}",
                frontier,
                batch_index_of_epoch(coverage, E)
            );
            for h in &holds {
                if !h.is_broken() {
                    prop_assert!(
                        frontier <= batch_index_of_epoch(h.log_floor_epoch(), E),
                        "frontier {} passed a live hold's floor epoch {}",
                        frontier,
                        h.log_floor_epoch()
                    );
                }
            }
        }
        drop(holds);
        // Every hold released: only coverage caps the frontier.
        prop_assert_eq!(
            mgr.log_frontier_batch(coverage),
            batch_index_of_epoch(coverage, E)
        );
    }

    /// GDG structural properties (§4.1.2) hold for arbitrary small
    /// procedure sets: every slice is in exactly one block; data-dependent
    /// slices share a block; the condensed graph is acyclic.
    #[test]
    fn gdg_properties_hold(spec in proptest::collection::vec(
        proptest::collection::vec((0u32..4, any::<bool>()), 1..5), 1..5))
    {
        // Build procedures from the spec: each op targets table t and is a
        // write or read with a fresh variable.
        let mut reg = ProcRegistry::new();
        for (pi, ops) in spec.iter().enumerate() {
            let mut b = ProcBuilder::new(ProcId::new(pi as u32), &format!("P{pi}"), 1);
            for &(t, is_write) in ops {
                let table = TableId::new(t);
                if is_write {
                    b.write(table, Expr::param(0), 0, Expr::int(1));
                } else {
                    let _ = b.read(table, Expr::param(0), 0);
                }
            }
            reg.register(b.build().unwrap()).unwrap();
        }
        let gdg = GlobalGraph::analyze(reg.all()).unwrap();

        // Property 1: every slice appears in exactly one block.
        let mut seen = std::collections::HashSet::new();
        for block in &gdg.blocks {
            for member in &block.slices {
                prop_assert!(seen.insert(*member), "slice {member:?} in two blocks");
            }
        }
        let total: usize = reg.all().iter().map(|p| LocalGraph::analyze(p).len()).sum();
        prop_assert_eq!(seen.len(), total);

        // Property 3: no two distinct blocks are mutually reachable.
        for a in &gdg.blocks {
            for b in &gdg.blocks {
                if a.id != b.id {
                    prop_assert!(
                        !(gdg.is_ancestor(a.id, b.id) && gdg.is_ancestor(b.id, a.id)),
                        "blocks {} and {} are mutually reachable", a.id, b.id
                    );
                }
            }
        }

        // Each written table is owned by exactly one block.
        for t in 0..4u32 {
            let table = TableId::new(t);
            let mut owners = std::collections::HashSet::new();
            for (pi, p) in reg.all().iter().enumerate() {
                let lg = LocalGraph::analyze(p);
                for (oi, op) in p.ops.iter().enumerate() {
                    if op.is_write() && op.table == table {
                        let slice = lg.slice_of(oi);
                        if let Some(b) = gdg
                            .blocks
                            .iter()
                            .find(|b| b.slices.contains(&(ProcId::new(pi as u32), slice)))
                        {
                            owners.insert(b.id);
                        }
                    }
                }
            }
            prop_assert!(owners.len() <= 1, "table {table} owned by {owners:?}");
        }
    }
}

/// Every after-image of a seeded TPC-C logical log, walked by the lanes'
/// trusting decode, equals the validating decode: same bytes, same
/// columns.
#[test]
fn validated_images_of_a_tpcc_log_equal_their_decode() {
    use pacman_wal::PayloadRef;
    use pacman_workloads::tpcc::{Tpcc, TpccConfig};
    use pacman_workloads::Workload;
    use rand::{rngs::SmallRng, SeedableRng};

    let tpcc = Tpcc::new(TpccConfig::small());
    let db = Database::new(tpcc.catalog());
    tpcc.load(&db);
    let registry = tpcc.registry();
    let mut rng = SmallRng::seed_from_u64(42);
    let mut log = Vec::new();
    for _ in 0..400 {
        let (proc, params) = tpcc.next_txn(&mut rng);
        let def = registry.get(proc).unwrap();
        if let Ok(info) = pacman_engine::run_procedure(&db, def, &params) {
            let payload = PayloadRef::Writes {
                writes: &info.writes,
                physical: false,
                adhoc: false,
            };
            payload.encode_record(info.ts, &mut log);
        }
    }
    let mut cur = Cursor::new(&log);
    let mut images = Vec::new();
    while !cur.is_empty() {
        RecordView::parse_with(&mut cur, |w| images.extend(w.after)).unwrap();
    }
    assert!(images.len() > 1_000, "{} images", images.len());
    for span in images {
        let bytes = &log[span];
        let trusted = decode_after_image(bytes);
        let checked = Row::decode(&mut Cursor::new(bytes)).unwrap();
        assert_eq!(trusted, checked);
        assert_eq!(
            trusted.iter().collect::<Vec<_>>(),
            checked.iter().collect::<Vec<_>>()
        );
    }
}
