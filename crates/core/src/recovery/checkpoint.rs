//! Checkpoint recovery (§2.3, Fig. 13), chain-aware since the incremental
//! checkpointing rework.
//!
//! The durable base image is a *manifest chain* (full checkpoint + delta
//! links, see `pacman_wal::checkpoint`); the [`ShardLoader`] resolves
//! every `(table, shard)` to its newest part along the chain. All three
//! consumers restore through the recovery read pipeline: a reader per
//! device does nothing but the paced read and hands each part over a
//! bounded channel to `threads` installers, so part *k+1* is on the
//! device while part *k* is decoded and installed, and only the parts in
//! flight are resident. An installer walks the part once
//! ([`PartView`]) and installs it with [`pacman_engine::Table::load_shard`]
//! — the whole shard in one build when the part is the sorted, complete
//! shard the checkpointer writes and the shard is still empty, per-key
//! timestamped last-writer-wins otherwise.
//!
//! * [`recover_checkpoint_chain`] — **eager**: load everything before
//!   returning (all offline schemes, and the inline stage of command-
//!   scheme online sessions, whose replay re-executes reads and therefore
//!   needs the whole base image resident);
//! * [`run_lazy_loader`] — **lazy**: stream shards in *during* an online
//!   session, publishing per-shard residency to the
//!   [`pacman_engine::RecoveryGate`]. Readers pull *wanted* shards (a
//!   blocked admission's footprint) first, then sweep the rest cheapest-
//!   first — smallest part next, mirroring the replay runtime's SJF
//!   drain. A shard the tuple-level replay reached first is no longer
//!   empty and installs last-writer-wins, so loader and replay converge
//!   to the same state regardless of order (part timestamps sort below
//!   every replayed record);
//! * [`resync_checkpoint_chain`] — a standby's re-bootstrap onto a newer
//!   chain: the same walk plus the tombstone rule.

use crate::metrics::RecoveryMetrics;
use crate::recovery::pipeline::{self, FirstError, Read};
use crate::recovery::raw::RawStore;
use pacman_common::{Error, Key, KeySet, Result, Row, TableId, Timestamp};
use pacman_engine::{Database, RecoveryGate, ShardLoad};
use pacman_storage::StorageSet;
use pacman_wal::checkpoint::{part_name, CheckpointChain, PartView, ResolvedPart};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where restored tuples go — from the checkpoint, and for the per-file
/// tuple-level schemes from the log too (`llr::recover_log`).
#[derive(Clone, Copy)]
pub enum CheckpointTarget<'a> {
    /// Insert into the database tables (index built online).
    Tables(&'a Database),
    /// Fill the raw heap only (PLR).
    Raw(&'a RawStore),
}

/// Timing result of checkpoint recovery.
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointRecovery {
    /// Wall time until the last part byte left the device (Fig. 13a). The
    /// installers run beside the readers, so this is a point inside
    /// `total`, not a phase that precedes the restore.
    pub reload: Duration,
    /// Wall time of reload + restore (Fig. 13b).
    pub total: Duration,
    /// Coverage timestamp of the recovered chain (0 = none found).
    pub ckpt_ts: Timestamp,
    /// Tuples restored.
    pub tuples: u64,
    /// Chain links the base image was resolved across (1 = full only).
    pub chain_len: usize,
    /// Parts installed as one sorted shard build (the rest went per key).
    pub bulk_parts: u64,
}

/// One `(table, shard)` load unit resolved to its newest part.
#[derive(Clone, Debug)]
pub struct LoadUnit {
    /// The resolved part.
    pub part: ResolvedPart,
    /// Part size in bytes (SJF ordering; metadata lookup, no I/O cost).
    pub bytes: usize,
}

/// Tuples and bulk-built parts counted across installers.
#[derive(Default)]
struct Tally {
    tuples: AtomicU64,
    bulk_parts: AtomicU64,
}

impl Tally {
    fn add(&self, load: ShardLoad) {
        self.tuples.fetch_add(load.tuples, Ordering::Relaxed);
        self.bulk_parts
            .fetch_add(load.bulk as u64, Ordering::Relaxed);
    }
}

/// Resolves a manifest chain into per-shard load units.
pub struct ShardLoader {
    units: Vec<LoadUnit>,
    ckpt_ts: Timestamp,
    chain_len: usize,
}

impl ShardLoader {
    /// Resolve `chain` against `storage`. Units are sorted by ascending
    /// part size (cheapest first). A part the chain names and its device
    /// does not hold is corruption, reported before any thread starts.
    pub fn new(storage: &StorageSet, chain: &CheckpointChain) -> Result<ShardLoader> {
        let mut units = Vec::new();
        for part in chain.resolve_parts() {
            let name = part_name(part.ts, part.table, part.shard as usize);
            let bytes = storage.disk(part.disk as usize).len(&name).map_err(|_| {
                Error::Corrupt(format!(
                    "checkpoint chain names part {name} missing from device {}",
                    part.disk
                ))
            })?;
            units.push(LoadUnit { part, bytes });
        }
        units.sort_by_key(|u| (u.bytes, u.part.table, u.part.shard));
        Ok(ShardLoader {
            units,
            ckpt_ts: chain.ts(),
            chain_len: chain.len(),
        })
    }

    /// The resolved load units (ascending size).
    pub fn units(&self) -> &[LoadUnit] {
        &self.units
    }

    /// Coverage timestamp of the chain.
    pub fn ckpt_ts(&self) -> Timestamp {
        self.ckpt_ts
    }

    /// Read every unit and hand it to one of `threads` installers through
    /// the recovery read pipeline: a device's reader claims the first of
    /// its units for which `wanted` holds, else the cheapest left. Returns
    /// the time at which the last part byte left its device. The first
    /// error stops the run; parts already installed stay installed.
    fn stream(
        &self,
        storage: &StorageSet,
        threads: usize,
        wanted: impl Fn(usize) -> bool + Sync,
        install: impl Fn(Read) -> Result<()> + Sync,
    ) -> Result<Duration> {
        let files = self
            .units
            .iter()
            .map(|u| {
                let p = &u.part;
                (p.disk as usize, part_name(p.ts, p.table, p.shard as usize))
            })
            .collect();
        let errors = FirstError::default();
        Ok(pipeline::read_all(storage, files, threads, &errors, wanted, install)?.last_byte)
    }

    fn report(&self, t0: Instant, reload: Duration, tally: Tally) -> CheckpointRecovery {
        CheckpointRecovery {
            reload,
            total: t0.elapsed(),
            ckpt_ts: self.ckpt_ts,
            tuples: tally.tuples.into_inner(),
            chain_len: self.chain_len,
            bulk_parts: tally.bulk_parts.into_inner(),
        }
    }
}

/// Decode a part into the run [`pacman_engine::Table::load_shard`] takes:
/// whole, or the part's first decode error. One allocation per tuple, its
/// image.
fn decode_run(bytes: &[u8]) -> Result<Vec<(Key, Row)>> {
    PartView::new(bytes).collect()
}

/// Decode one part and install it into its table.
fn install_part(db: &Database, p: &ResolvedPart, bytes: &[u8], tally: &Tally) -> Result<()> {
    let table = db.table(TableId::new(p.table))?;
    tally.add(table.load_shard(p.shard as usize, p.ts, decode_run(bytes)?));
    Ok(())
}

/// Validate every resolved part against the live catalog: a corrupt
/// manifest must surface as a clean error (the session then poisons its
/// gate), never as an out-of-bounds panic that leaves waiters hanging.
fn validate_units_against_catalog(units: &[LoadUnit], db: &Database, what: &str) -> Result<()> {
    for u in units {
        let p = &u.part;
        let valid = db
            .tables()
            .get(p.table as usize)
            .is_some_and(|t| (p.shard as usize) < t.num_shards());
        if !valid {
            return Err(Error::Corrupt(format!(
                "{what} part (table {}, shard {}) outside the catalog",
                p.table, p.shard
            )));
        }
    }
    Ok(())
}

/// Restore the whole chain eagerly with `threads` installers (offline
/// recovery and the inline stage of command-scheme online sessions).
pub fn recover_checkpoint_chain(
    storage: &StorageSet,
    chain: &CheckpointChain,
    threads: usize,
    target: CheckpointTarget<'_>,
) -> Result<CheckpointRecovery> {
    let t0 = Instant::now();
    let loader = ShardLoader::new(storage, chain)?;
    // A corrupt manifest naming a table outside the catalog must surface
    // as a clean error. A shard index outside the table is tolerated here
    // (a part written under another sharding): it installs per key.
    let num_tables = match &target {
        CheckpointTarget::Tables(db) => db.tables().len(),
        CheckpointTarget::Raw(raw) => raw.num_tables(),
    };
    if let Some(u) = loader
        .units
        .iter()
        .find(|u| u.part.table as usize >= num_tables)
    {
        return Err(Error::Corrupt(format!(
            "checkpoint part names table {} outside the catalog",
            u.part.table
        )));
    }

    let tally = Tally::default();
    let reload = loader.stream(
        storage,
        threads,
        |_| false,
        |part| {
            let p = &loader.units[part.unit].part;
            match &target {
                CheckpointTarget::Tables(db) => install_part(db, p, &part.bytes, &tally),
                CheckpointTarget::Raw(raw) => {
                    let heap = raw.table(TableId::new(p.table));
                    let mut tuples = 0;
                    for tuple in PartView::new(&part.bytes) {
                        let (key, row) = tuple?;
                        heap.get_or_create(key).install_lww(p.ts, Some(row));
                        tuples += 1;
                    }
                    tally.tuples.fetch_add(tuples, Ordering::Relaxed);
                    Ok(())
                }
            }
        },
    )?;
    Ok(loader.report(t0, reload, tally))
}

/// Re-synchronize an *already-populated* database onto a newer manifest
/// chain: the standby's re-bootstrap path after its ship cursor was
/// broken by the bounded-lag retention policy. The log records between
/// the standby's applied frontier and the chain's coverage are gone
/// (reclaimed on the primary), so the chain is installed as
/// **replace-shard** state:
///
/// * every part tuple installs at its link's snapshot timestamp — last-
///   writer-wins over whatever the shard holds (all of the standby's
///   existing versions sort below it: a shard resolved to link `L` had no
///   primary writes in `(L, tip]`, and everything the standby ever applied
///   was sealed below the coverage that broke the cursor);
/// * keys live in the standby but absent from the shard's part are
///   **tombstoned** at the part timestamp (they were deleted on the
///   primary inside the reclaimed gap);
/// * shards with no part in the chain were empty at the tip — their
///   surviving keys are tombstoned at the tip timestamp.
///
/// The caller must have quiesced the apply engines first: command
/// re-execution racing a resync would read half-replaced state.
pub fn resync_checkpoint_chain(
    storage: &StorageSet,
    chain: &CheckpointChain,
    db: &Arc<Database>,
    threads: usize,
) -> Result<CheckpointRecovery> {
    let t0 = Instant::now();
    let loader = ShardLoader::new(storage, chain)?;
    let units = loader.units();
    validate_units_against_catalog(units, db, "resync")?;

    let tally = Tally::default();
    let reload = loader.stream(
        storage,
        threads,
        |_| false,
        |part| {
            let p = &units[part.unit].part;
            let t = db.table(TableId::new(p.table))?;
            let run = decode_run(&part.bytes)?;
            // The apply engines are quiesced, so what is live now and
            // absent from the part is what the gap deleted.
            let mut stale = t.live_keys_in_shard(p.shard as usize);
            if !stale.is_empty() {
                let kept: KeySet<Key> = run.iter().map(|&(key, _)| key).collect();
                stale.retain(|key| !kept.contains(key));
            }
            tally.add(t.load_shard(p.shard as usize, p.ts, run));
            for key in stale {
                t.install_lww(key, p.ts, None);
            }
            Ok(())
        },
    )?;

    // Shards the chain does not cover were empty at the tip: clear any
    // survivors the reclaimed gap deleted on the primary.
    let covered: KeySet<(u32, u32)> = units.iter().map(|u| (u.part.table, u.part.shard)).collect();
    let tip = chain.ts();
    for t in db.tables() {
        for shard in 0..t.num_shards() {
            if !covered.contains(&(t.meta().id.0, shard as u32)) {
                for key in t.live_keys_in_shard(shard) {
                    t.install_lww(key, tip, None);
                }
            }
        }
    }
    Ok(loader.report(t0, reload, tally))
}

/// Stream the chain in lazily with `threads` installers, publishing per-
/// shard residency to `gate` as each `(table, shard)` lands. `partition`
/// maps a resolved part to its gate shard index. Shards without any part
/// in the chain are published resident immediately (they were empty at
/// the checkpoint). Readers prefer *wanted* shards (smallest first), then
/// sweep the remainder cheapest-first.
pub fn run_lazy_loader(
    storage: &StorageSet,
    chain: &CheckpointChain,
    db: &Arc<Database>,
    gate: &Arc<RecoveryGate>,
    partition: impl Fn(&ResolvedPart) -> usize + Sync,
    threads: usize,
    metrics: &RecoveryMetrics,
) -> Result<CheckpointRecovery> {
    let t0 = Instant::now();
    let loader = ShardLoader::new(storage, chain)?;
    let units = loader.units();
    // Validate the manifest against the catalog *before* mapping into the
    // gate's residency plane.
    validate_units_against_catalog(units, db, "checkpoint")?;
    let parts: Vec<usize> = units.iter().map(|u| partition(&u.part)).collect();
    if let Some(&bad) = parts.iter().find(|&&s| s >= gate.num_shards()) {
        return Err(Error::Corrupt(format!(
            "checkpoint shard maps to partition {bad} outside the gate's {} shards",
            gate.num_shards()
        )));
    }

    // Everything the chain does not cover is resident by definition.
    let covered: KeySet<usize> = parts.iter().copied().collect();
    for s in (0..gate.num_shards()).filter(|s| !covered.contains(s)) {
        gate.publish_resident(s);
    }

    let tally = Tally::default();
    let reload = loader.stream(
        storage,
        threads,
        |unit| gate.is_shard_wanted(parts[unit]),
        |part| {
            let t = Instant::now();
            install_part(db, &units[part.unit].part, &part.bytes, &tally)?;
            metrics.add_load(part.read + t.elapsed());
            metrics.count_shard_load(part.preferred);
            gate.publish_resident(parts[part.unit]);
            Ok(())
        },
    )?;
    Ok(loader.report(t0, reload, tally))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery::pipeline::within_bounded_wait;
    use pacman_common::Value;
    use pacman_engine::Catalog;
    use pacman_storage::DiskConfig;
    use pacman_wal::checkpoint::read_chain;
    use pacman_wal::{run_checkpoint, run_checkpoint_incremental};

    fn seeded() -> (Arc<Database>, StorageSet, CheckpointChain) {
        let mut c = Catalog::new();
        c.add_table_sharded("a", 1, 2);
        let db = Arc::new(Database::new(c));
        for k in 0..200u64 {
            db.seed_row(TableId::new(0), k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        let storage = StorageSet::for_tests();
        run_checkpoint(&db, &storage, 2).unwrap();
        let chain = read_chain(&storage).unwrap().unwrap();
        (db, storage, chain)
    }

    #[test]
    fn tables_target_restores_equivalent_state() {
        let (db, storage, chain) = seeded();
        let fresh = Arc::new(Database::new(db.catalog().clone()));
        let r = recover_checkpoint_chain(&storage, &chain, 4, CheckpointTarget::Tables(&fresh))
            .unwrap();
        assert_eq!(r.tuples, 200);
        assert_eq!(r.chain_len, 1);
        assert_eq!(fresh.fingerprint(), db.fingerprint());
        assert!(r.total >= r.reload);
    }

    #[test]
    fn raw_target_restores_without_indexes() {
        let (db, storage, chain) = seeded();
        let raw = RawStore::new(1);
        let fresh = Arc::new(Database::new(db.catalog().clone()));
        recover_checkpoint_chain(&storage, &chain, 2, CheckpointTarget::Raw(&raw)).unwrap();
        assert_eq!(raw.total(), 200);
        assert_eq!(fresh.total_tuples(), 0, "no index entries yet");
        raw.build_indexes(&fresh, 2);
        assert_eq!(fresh.fingerprint(), db.fingerprint());
    }

    #[test]
    fn missing_part_is_corruption_named_before_any_read() {
        let (db, storage, mut chain) = seeded();
        chain.manifests[0].parts.push((0, 999, 0));
        let fresh = Arc::new(Database::new(db.catalog().clone()));
        let before = storage.total_stats().bytes_read;
        let e = recover_checkpoint_chain(&storage, &chain, 2, CheckpointTarget::Tables(&fresh))
            .unwrap_err();
        let name = part_name(chain.ts(), 0, 999);
        assert!(
            matches!(&e, Error::Corrupt(m) if m.contains(&name)),
            "unexpected error: {e}"
        );
        assert_eq!(storage.total_stats().bytes_read, before);
        assert_eq!(fresh.total_tuples(), 0);
    }

    /// 64 parts over two devices — more than the channel, both readers
    /// and four installers hold between them.
    fn many_parts() -> (Arc<Database>, StorageSet, CheckpointChain) {
        let mut c = Catalog::new();
        c.add_table_sharded("a", 1, 6);
        let db = Arc::new(Database::new(c));
        for k in 0..4000u64 {
            db.seed_row(TableId::new(0), k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        let storage = StorageSet::identical(2, DiskConfig::unthrottled("t"));
        run_checkpoint(&db, &storage, 2).unwrap();
        let chain = read_chain(&storage).unwrap().unwrap();
        assert!(chain.resolve_parts().len() > 4 * (pipeline::QUEUE + 2 + 4));
        (db, storage, chain)
    }

    /// Cut the last byte off a part early in the walk, so that it ends
    /// inside its last tuple — not the very first part: by the seventh the
    /// readers have had time to fill the channel behind the installers.
    fn truncate_early_part(storage: &StorageSet, chain: &CheckpointChain) {
        let loader = ShardLoader::new(storage, chain).unwrap();
        let p = loader.units()[2 * pipeline::QUEUE].part;
        let name = part_name(p.ts, p.table, p.shard as usize);
        let disk = storage.disk(p.disk as usize);
        let bytes = disk.read(&name).unwrap();
        disk.write_file(&name, &bytes[..bytes.len() - 1]);
    }

    #[test]
    fn eager_restore_errors_without_hanging() {
        for threads in [1, 4] {
            // (a) a truncated part early in the walk.
            let (db, storage, chain) = many_parts();
            truncate_early_part(&storage, &chain);
            let catalog = db.catalog().clone();
            let r = within_bounded_wait(move || {
                let fresh = Database::new(catalog);
                recover_checkpoint_chain(
                    &storage,
                    &chain,
                    threads,
                    CheckpointTarget::Tables(&fresh),
                )
            });
            assert!(
                matches!(r, Err(Error::Corrupt(_))),
                "{threads} threads: {r:?}"
            );

            // (b) a manifest naming a missing part.
            let (db, storage, mut chain) = many_parts();
            chain.manifests[0].parts.push((0, 999, 1));
            let catalog = db.catalog().clone();
            let r = within_bounded_wait(move || {
                let fresh = Database::new(catalog);
                recover_checkpoint_chain(
                    &storage,
                    &chain,
                    threads,
                    CheckpointTarget::Tables(&fresh),
                )
            });
            assert!(
                matches!(r, Err(Error::Corrupt(_))),
                "{threads} threads: {r:?}"
            );
        }
    }

    #[test]
    fn lazy_loader_errors_without_hanging() {
        for threads in [1, 4] {
            for missing in [false, true] {
                let (db, storage, chain) = many_parts();
                if missing {
                    let gone = part_name(chain.ts(), 0, 63);
                    storage.disks().iter().for_each(|d| d.delete(&gone));
                } else {
                    truncate_early_part(&storage, &chain);
                }
                let fresh = Arc::new(Database::new(db.catalog().clone()));
                let shards = fresh.table(TableId::new(0)).unwrap().num_shards();
                let gate = RecoveryGate::with_residency(shards, shards);
                let gate2 = Arc::clone(&gate);
                let r = within_bounded_wait(move || {
                    run_lazy_loader(
                        &storage,
                        &chain,
                        &fresh,
                        &gate2,
                        |p| p.shard as usize,
                        threads,
                        &RecoveryMetrics::new(),
                    )
                });
                assert!(
                    matches!(r, Err(Error::Corrupt(_))),
                    "{threads} threads, missing {missing}: {r:?}"
                );
                assert!(!gate.all_resident(), "the failed shard must stay cold");
            }
        }
    }

    #[test]
    fn chained_deltas_restore_equivalent_state() {
        let mut c = Catalog::new();
        c.add_table_sharded("a", 1, 3);
        let db = Arc::new(Database::new(c));
        for k in 0..200u64 {
            db.seed_row(TableId::new(0), k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        let storage = StorageSet::for_tests();
        run_checkpoint_incremental(&db, &storage, 2, 8).unwrap();
        // Two delta rounds touching disjoint keys, plus a delete.
        for (round, key) in [(1i64, 3u64), (2, 77)] {
            let mut t = db.begin();
            let r = t.read(TableId::new(0), key).unwrap();
            t.write(TableId::new(0), key, r.with_col(0, Value::Int(-round)))
                .unwrap();
            t.commit().unwrap();
            run_checkpoint_incremental(&db, &storage, 2, 8).unwrap();
        }
        let mut t = db.begin();
        t.delete(TableId::new(0), 42).unwrap();
        t.commit().unwrap();
        run_checkpoint_incremental(&db, &storage, 2, 8).unwrap();

        let chain = read_chain(&storage).unwrap().unwrap();
        assert_eq!(chain.len(), 4);
        let fresh = Arc::new(Database::new(db.catalog().clone()));
        let r = recover_checkpoint_chain(&storage, &chain, 4, CheckpointTarget::Tables(&fresh))
            .unwrap();
        assert_eq!(r.chain_len, 4);
        assert_eq!(fresh.fingerprint(), db.fingerprint());
        assert!(
            fresh.table(TableId::new(0)).unwrap().get(42).is_none(),
            "deleted key must not resurrect from the base"
        );
    }

    #[test]
    fn resync_replaces_shards_including_gap_deletes() {
        use pacman_common::TableId;
        // Primary: seed, let a "standby" copy apply a prefix, then mutate
        // past it (update + delete + insert) and checkpoint — the gap the
        // standby missed. Resync must converge the standby bit-exactly.
        let mut c = Catalog::new();
        c.add_table_sharded("a", 1, 2);
        let primary = Arc::new(Database::new(c.clone()));
        for k in 0..50u64 {
            primary
                .seed_row(TableId::new(0), k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        // The standby applied everything up to here.
        let standby = Arc::new(Database::new(c));
        for k in 0..50u64 {
            standby
                .seed_row(TableId::new(0), k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        // The gap (never shipped): update 7, delete 13, insert 99.
        let mut t = primary.begin();
        let r = t.read(TableId::new(0), 7).unwrap();
        t.write(TableId::new(0), 7, r.with_col(0, Value::Int(-7)))
            .unwrap();
        t.delete(TableId::new(0), 13).unwrap();
        t.insert(TableId::new(0), 99, Row::from([Value::Int(99)]))
            .unwrap();
        t.commit().unwrap();
        let storage = StorageSet::for_tests();
        run_checkpoint(&primary, &storage, 2).unwrap();
        let chain = read_chain(&storage).unwrap().unwrap();

        let r = resync_checkpoint_chain(&storage, &chain, &standby, 2).unwrap();
        assert_eq!(r.ckpt_ts, chain.ts());
        assert_eq!(standby.fingerprint(), primary.fingerprint());
        assert!(
            standby.table(TableId::new(0)).unwrap().get(13).is_some(),
            "gap-deleted key keeps a tombstoned chain"
        );
    }

    #[test]
    fn resync_clears_shards_emptied_in_the_gap() {
        use pacman_common::TableId;
        // Table b is emptied on the primary before the checkpoint: the
        // full chain carries no part for it, and resync must still clear
        // the standby's survivors.
        let mut c = Catalog::new();
        c.add_table("a", 1);
        c.add_table("b", 1);
        let primary = Arc::new(Database::new(c.clone()));
        primary
            .seed_row(TableId::new(0), 1, Row::from([Value::Int(1)]))
            .unwrap();
        let standby = Arc::new(Database::new(c));
        standby
            .seed_row(TableId::new(0), 1, Row::from([Value::Int(1)]))
            .unwrap();
        standby
            .seed_row(TableId::new(1), 5, Row::from([Value::Int(5)]))
            .unwrap();
        // (the primary deleted b[5] in the gap; here it simply never has it)
        let storage = StorageSet::for_tests();
        run_checkpoint(&primary, &storage, 1).unwrap();
        let chain = read_chain(&storage).unwrap().unwrap();
        resync_checkpoint_chain(&storage, &chain, &standby, 1).unwrap();
        assert_eq!(standby.fingerprint(), primary.fingerprint());
    }

    #[test]
    fn lazy_loader_publishes_residency_and_matches_eager() {
        let (db, storage, chain) = seeded();
        let fresh = Arc::new(Database::new(db.catalog().clone()));
        let shards = fresh.table(TableId::new(0)).unwrap().num_shards();
        let gate = RecoveryGate::with_residency(shards, shards);
        let metrics = RecoveryMetrics::new();
        let r = run_lazy_loader(
            &storage,
            &chain,
            &fresh,
            &gate,
            |p| p.shard as usize,
            2,
            &metrics,
        )
        .unwrap();
        assert_eq!(r.tuples, 200);
        assert!(gate.all_resident());
        assert_eq!(fresh.fingerprint(), db.fingerprint());
        assert_eq!(
            metrics.ondemand_shard_loads() + metrics.background_shard_loads(),
            chain.resolve_parts().len() as u64
        );
    }

    #[test]
    fn lazy_loader_lww_never_clobbers_newer_replayed_state() {
        let (db, storage, chain) = seeded();
        let fresh = Arc::new(Database::new(db.catalog().clone()));
        // Simulate a replayed record newer than the checkpoint landing
        // *before* the loader touches its shard.
        let newer_ts = chain.ts() + 100;
        fresh.table(TableId::new(0)).unwrap().install_lww(
            5,
            newer_ts,
            Some(Row::from([Value::Int(-555)])),
        );
        let shards = fresh.table(TableId::new(0)).unwrap().num_shards();
        let gate = RecoveryGate::with_residency(shards, shards);
        let metrics = RecoveryMetrics::new();
        run_lazy_loader(
            &storage,
            &chain,
            &fresh,
            &gate,
            |p| p.shard as usize,
            2,
            &metrics,
        )
        .unwrap();
        let chain5 = fresh.table(TableId::new(0)).unwrap().get(5).unwrap();
        assert_eq!(
            chain5.newest().1.unwrap().col(0),
            Value::Int(-555),
            "checkpoint install must lose to the newer replayed version"
        );
    }
}
