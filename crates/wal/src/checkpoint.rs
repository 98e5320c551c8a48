//! Transactionally-consistent checkpointing (§2.2), incremental since the
//! chained-manifest rework.
//!
//! A snapshot hold makes consistent checkpoints cheap: the checkpointer
//! reads every table at a fixed snapshot timestamp while transactions keep
//! committing newer versions, each chain keeping the one version visible at
//! the snapshot as a held pre-image once a newer commit displaces it. One checkpoint thread runs per device; each
//! thread persists its share of the (table, shard) partitions.
//!
//! **Manifest chain.** A checkpoint is either *full* (`base_ts == 0`:
//! every non-empty shard is written) or a *delta* (`base_ts` names the
//! previous checkpoint; only shards whose engine-level dirty timestamp
//! exceeds `base_ts` are re-scanned — a dirty shard's part fully replaces
//! its older parts, so deltas never need per-tuple merge). Every
//! checkpoint writes an immutable per-timestamp manifest
//! (`ckpt/<ts>/MANIFEST`) *before* atomically replacing the tip manifest
//! (`ckpt/MANIFEST`). A crash anywhere in between leaves the previous tip
//! — and therefore the previous complete chain — in effect; torn parts
//! under the new timestamp are unreferenced orphans. Recovery resolves
//! each `(table, shard)` to its newest part along the chain.
//!
//! **Consistency.** A round scans under a
//! [`pacman_engine::SnapshotHold`]: the snapshot timestamp is fixed with
//! the clock bumped past it, then the install barrier waits out every
//! in-flight commit install. After that, all effects with
//! `ts <= snapshot` — and the per-shard dirty marks the delta's skip
//! decisions read — are visible to the scan, while later commits draw
//! strictly newer timestamps. The chain therefore covers *all* state up
//! to its tip timestamp, which is what lets recovery (and log GC) filter
//! log records at `ts <= tip`.
//!
//! **Cost.** The scan writes no shared cache line: it walks each shard
//! under its read lock and borrows the visible image in place (see
//! [`pacman_engine::SnapshotHold::for_each_visible_in_shard`]), and a row
//! image already *is* its encoding, so each tuple costs one copy into the
//! part buffer.

use pacman_common::codec::{put_u32, put_u64, put_varint, Cursor};
use pacman_common::{Decoder, Encoder, Error, Key, Result, Row, Timestamp};
use pacman_engine::Database;
use pacman_storage::StorageSet;
use std::collections::{BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Name of the tip manifest file (device 0). Overwritten atomically after
/// every completed checkpoint; names the newest chain link.
pub const MANIFEST_FILE: &str = "ckpt/MANIFEST";

/// One checkpoint part: the tuples of one (table, shard) partition.
pub fn part_name(ts: Timestamp, table: u32, shard: usize) -> String {
    format!("ckpt/{ts:020}/t{table:03}.s{shard:04}")
}

/// Immutable per-checkpoint manifest copy (chain resolution walks these).
pub fn manifest_name(ts: Timestamp) -> String {
    format!("ckpt/{ts:020}/MANIFEST")
}

/// The manifest of one chain link: the parts written *at this timestamp*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Snapshot timestamp of the checkpoint.
    pub ts: Timestamp,
    /// Snapshot timestamp of the checkpoint this delta extends
    /// (`0` = full checkpoint, the chain root).
    pub base_ts: Timestamp,
    /// `(table, shard, disk)` for each part persisted at `ts`.
    pub parts: Vec<(u32, u32, u32)>,
}

impl CheckpointManifest {
    /// Whether this is a full (chain-root) checkpoint.
    pub fn is_full(&self) -> bool {
        self.base_ts == 0
    }
}

impl Encoder for CheckpointManifest {
    fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.ts);
        put_u64(buf, self.base_ts);
        put_varint(buf, self.parts.len() as u64);
        for (t, s, d) in &self.parts {
            put_u32(buf, *t);
            put_u32(buf, *s);
            put_u32(buf, *d);
        }
    }
}

impl Decoder for CheckpointManifest {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        let ts = cur.read_u64()?;
        let base_ts = cur.read_u64()?;
        let n = cur.read_varint()? as usize;
        if n > 1 << 24 {
            return Err(Error::Corrupt(format!("implausible part count {n}")));
        }
        let mut parts = Vec::with_capacity(n);
        for _ in 0..n {
            parts.push((cur.read_u32()?, cur.read_u32()?, cur.read_u32()?));
        }
        Ok(CheckpointManifest { ts, base_ts, parts })
    }
}

/// The resolved manifest chain: tip first, root (full checkpoint) last.
#[derive(Clone, Debug)]
pub struct CheckpointChain {
    /// Manifests newest-first.
    pub manifests: Vec<CheckpointManifest>,
}

/// One `(table, shard)` resolved to its newest part along a chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedPart {
    /// Table id.
    pub table: u32,
    /// Shard index within the table.
    pub shard: u32,
    /// Device holding the part.
    pub disk: u32,
    /// Snapshot timestamp of the chain link that wrote the part.
    pub ts: Timestamp,
}

impl CheckpointChain {
    /// Snapshot timestamp of the tip — the chain's coverage watermark:
    /// every effect with `ts <=` this is captured by the chain.
    pub fn ts(&self) -> Timestamp {
        self.manifests[0].ts
    }

    /// Number of links (1 = a single full checkpoint).
    pub fn len(&self) -> usize {
        self.manifests.len()
    }

    /// Whether the chain is empty (never constructed so; for clippy).
    pub fn is_empty(&self) -> bool {
        self.manifests.is_empty()
    }

    /// Every chain-link timestamp (the live set retention must keep).
    pub fn referenced_ts(&self) -> BTreeSet<Timestamp> {
        self.manifests.iter().map(|m| m.ts).collect()
    }

    /// Resolve every `(table, shard)` to its newest part: walk tip →
    /// root, first writer wins.
    pub fn resolve_parts(&self) -> Vec<ResolvedPart> {
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        let mut out = Vec::new();
        for m in &self.manifests {
            for &(table, shard, disk) in &m.parts {
                if seen.insert((table, shard)) {
                    out.push(ResolvedPart {
                        table,
                        shard,
                        disk,
                        ts: m.ts,
                    });
                }
            }
        }
        out
    }
}

/// What one checkpoint round did (metrics / bench reporting).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointStats {
    /// Snapshot timestamp of the round.
    pub ts: Timestamp,
    /// Whether the round wrote a full (chain-root) checkpoint.
    pub full: bool,
    /// Parts written this round.
    pub parts_written: u64,
    /// Dirty-clean shards skipped (delta rounds; 0 on full rounds).
    pub shards_skipped_clean: u64,
    /// Part bytes written this round (manifests excluded).
    pub bytes_written: u64,
    /// Chain length after the round (1 = full just written).
    pub chain_len: usize,
}

/// Run one **full** checkpoint with `threads` concurrent writers and
/// return the snapshot timestamp (compatibility wrapper around
/// [`run_checkpoint_full`]).
pub fn run_checkpoint(
    db: &Arc<Database>,
    storage: &StorageSet,
    threads: usize,
) -> Result<Timestamp> {
    run_checkpoint_full(db, storage, threads).map(|s| s.ts)
}

/// Run one full (chain-root) checkpoint.
pub fn run_checkpoint_full(
    db: &Arc<Database>,
    storage: &StorageSet,
    threads: usize,
) -> Result<CheckpointStats> {
    checkpoint_round(db, storage, threads, None).map(|(st, _)| st)
}

/// [`run_checkpoint_full`] returning the resulting chain alongside the
/// stats, so the caller (the periodic checkpointer handing coverage to
/// the [`crate::retention::RetentionManager`]) can reclaim against the
/// chain the round just produced instead of re-reading it off the device.
pub fn run_checkpoint_full_chained(
    db: &Arc<Database>,
    storage: &StorageSet,
    threads: usize,
) -> Result<(CheckpointStats, CheckpointChain)> {
    checkpoint_round(db, storage, threads, None)
}

/// Run one **incremental** checkpoint round: a delta over the current
/// chain tip that skips clean shards, or a full compaction rewrite when
/// there is no chain yet or the chain has reached `max_chain` links
/// (bounded chains keep recovery's resolution walk and the retained part
/// set small). A round that finds *no* dirty shard at all is a no-op —
/// the existing tip already covers everything, so an idle database never
/// grows its chain (or re-compacts it) interval after interval.
pub fn run_checkpoint_incremental(
    db: &Arc<Database>,
    storage: &StorageSet,
    threads: usize,
    max_chain: usize,
) -> Result<CheckpointStats> {
    run_checkpoint_incremental_chained(db, storage, threads, max_chain).map(|(st, _)| st)
}

/// [`run_checkpoint_incremental`] returning the resulting chain (a no-op
/// round returns the existing one), so the periodic checkpointer can hand
/// the round's coverage straight to the
/// [`crate::retention::RetentionManager`] without a second chain walk.
pub fn run_checkpoint_incremental_chained(
    db: &Arc<Database>,
    storage: &StorageSet,
    threads: usize,
    max_chain: usize,
) -> Result<(CheckpointStats, CheckpointChain)> {
    // An unreadable chain falls back to a fresh full (which repairs it).
    let chain = read_chain(storage).unwrap_or_default();
    if let Some(chain) = chain {
        let tip = chain.ts();
        // Reading the marks without the barrier is safe here: every mark
        // for `ts <= tip` was made visible by the round that wrote the
        // tip, so a mark this scan can miss belongs to a commit above the
        // tip still in flight — the next round sees it.
        let total_shards: u64 = db.tables().iter().map(|t| t.num_shards() as u64).sum();
        let any_dirty = db
            .tables()
            .iter()
            .any(|t| (0..t.num_shards()).any(|s| t.shard_dirty_ts(s) > tip));
        if !any_dirty {
            // Nothing changed: no new link, nothing new to reclaim against.
            let stats = CheckpointStats {
                ts: tip,
                full: false,
                parts_written: 0,
                shards_skipped_clean: total_shards,
                bytes_written: 0,
                chain_len: chain.len(),
            };
            return Ok((stats, chain));
        }
        if chain.len() < max_chain.max(1) {
            return checkpoint_round(db, storage, threads, Some(chain));
        }
    }
    checkpoint_round(db, storage, threads, None)
}

/// Shared body of full and delta rounds. `base = None` writes a full
/// checkpoint; `base = Some(chain)` writes a delta over the chain tip.
/// Returns the round's stats plus the resulting chain (new link first).
///
/// **Part-file invariant.** A part holds the tuples of exactly one
/// `(table, shard)` visible at the round's timestamp, in ascending key
/// order, each key once: the order
/// [`pacman_engine::SnapshotHold::for_each_visible_in_shard`] promises, and
/// the test `every_part_holds_its_shards_keys_ascending` checks. Restore
/// relies on it to build a shard in one piece
/// ([`pacman_engine::Table::load_shard`]), and checks it per part: a file
/// that breaks it still restores, per key.
fn checkpoint_round(
    db: &Arc<Database>,
    storage: &StorageSet,
    threads: usize,
    base: Option<CheckpointChain>,
) -> Result<(CheckpointStats, CheckpointChain)> {
    // After this, every effect (and dirty mark) with `ts' <= ts` is
    // visible, and later commits sort strictly after `ts`.
    let hold = db.snapshot_hold();
    let ts = hold.ts();
    let threads = threads.max(1);
    let base_ts = base.as_ref().map(|c| c.ts()).unwrap_or(0);

    // Partition work: the dirty (delta) or non-empty (full) shards of
    // every table, round-robin over threads; thread i writes to disk
    // i (mod #disks). A delta writes a dirty shard even when its scan
    // comes up empty — the empty part *replaces* the shard's older parts
    // (all its tuples were deleted since the base).
    let mut units: Vec<(u32, u32)> = Vec::new();
    let mut skipped_clean = 0u64;
    for table in db.tables() {
        for shard in 0..table.num_shards() {
            if base.is_some() && table.shard_dirty_ts(shard) <= base_ts {
                skipped_clean += 1;
                continue;
            }
            units.push((table.meta().id.0, shard as u32));
        }
    }
    let parts = parking_lot::Mutex::new(Vec::<(u32, u32, u32)>::new());
    let bytes_written = AtomicU64::new(0);
    crossbeam::thread::scope(|scope| {
        for ti in 0..threads {
            let units = &units;
            let parts = &parts;
            let bytes_written = &bytes_written;
            // Scoped threads share the borrow — no per-thread StorageSet
            // clone (each clone re-allocated the disk handle vector).
            let storage = &*storage;
            let hold = &hold;
            let delta = base.is_some();
            scope.spawn(move |_| {
                let disk_idx = ti % storage.num_disks();
                let disk = storage.disk(ti);
                let mut buf = Vec::with_capacity(64 * 1024);
                for (ui, &(table, shard)) in units.iter().enumerate() {
                    if ui % threads != ti {
                        continue;
                    }
                    buf.clear();
                    let mut count = 0u64;
                    hold.for_each_visible_in_shard(
                        pacman_common::TableId::new(table),
                        shard as usize,
                        |key, row| {
                            put_u64(&mut buf, key);
                            row.encode(&mut buf);
                            count += 1;
                        },
                    )
                    .expect("units name the database's own tables");
                    if count == 0 && !delta {
                        continue; // full: an absent shard means empty
                    }
                    let name = part_name(ts, table, shard as usize);
                    // Truncating write, never append: a torn round may have
                    // left orphan bytes under this very timestamp (a crashed
                    // checkpoint whose ts a post-recovery clock can reissue),
                    // and parts are always produced whole.
                    disk.write_file(&name, &buf);
                    bytes_written.fetch_add(buf.len() as u64, Ordering::Relaxed);
                    parts.lock().push((table, shard, disk_idx as u32));
                }
                disk.fsync();
            });
        }
    })
    .expect("checkpoint scope");

    let manifest = CheckpointManifest {
        ts,
        base_ts,
        parts: parts.into_inner(),
    };
    // Durable per-timestamp copy first, tip cutover last: a crash in
    // between leaves the previous chain fully intact.
    let bytes = manifest.to_bytes();
    storage.disk(0).write_file(&manifest_name(ts), &bytes);
    storage.disk(0).fsync();
    storage.disk(0).write_file(MANIFEST_FILE, &bytes);
    storage.disk(0).fsync();
    let stats = CheckpointStats {
        ts,
        full: base.is_none(),
        parts_written: manifest.parts.len() as u64,
        shards_skipped_clean: skipped_clean,
        bytes_written: bytes_written.load(Ordering::Relaxed),
        chain_len: base.as_ref().map(|c| c.len()).unwrap_or(0) + 1,
    };
    let mut manifests = vec![manifest];
    if let Some(b) = base {
        manifests.extend(b.manifests);
    }
    Ok((stats, CheckpointChain { manifests }))
}

/// Read the tip manifest, if any.
pub fn read_manifest(storage: &StorageSet) -> Result<Option<CheckpointManifest>> {
    match storage.disk(0).read(MANIFEST_FILE) {
        Ok(bytes) => {
            let mut cur = Cursor::new(&bytes);
            Ok(Some(CheckpointManifest::decode(&mut cur)?))
        }
        Err(Error::FileNotFound(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Resolve the full manifest chain from the tip down to its full-
/// checkpoint root. A missing or cyclic ancestor is corruption: the tip
/// cutover is ordered after its ancestors are durable, so a valid tip
/// implies a complete chain.
pub fn read_chain(storage: &StorageSet) -> Result<Option<CheckpointChain>> {
    let Some(tip) = read_manifest(storage)? else {
        return Ok(None);
    };
    let mut manifests = vec![tip];
    loop {
        let last = manifests.last().expect("non-empty");
        if last.is_full() {
            break;
        }
        let base_ts = last.base_ts;
        if base_ts >= last.ts {
            return Err(Error::Corrupt(format!(
                "checkpoint chain does not descend: {} -> {base_ts}",
                last.ts
            )));
        }
        let bytes = storage
            .disk(0)
            .read(&manifest_name(base_ts))
            .map_err(|_| Error::Corrupt(format!("checkpoint chain ancestor {base_ts} missing")))?;
        let mut cur = Cursor::new(&bytes);
        let m = CheckpointManifest::decode(&mut cur)?;
        if m.ts != base_ts {
            return Err(Error::Corrupt(format!(
                "ancestor manifest {base_ts} reports ts {}",
                m.ts
            )));
        }
        manifests.push(m);
    }
    Ok(Some(CheckpointChain { manifests }))
}

/// A borrowed walk over one checkpoint part (the bytes stay in the read
/// buffer): `put_u64(key)` + `Row::encode` per tuple, back to back, as
/// [`checkpoint_round`] wrote them.
///
/// Each step delimits and validates one tuple and decodes its row at that
/// point, so a part is walked once and nothing is collected here. Restore
/// installs every tuple of a part, which is why the view does not delimit
/// first and decode later as `RecordView` does for writes replay may skip:
/// that would walk every row twice. A tuple that does not decode yields
/// its error and ends the walk — bytes after it cannot be delimited.
pub struct PartView<'a> {
    cur: Cursor<'a>,
}

impl<'a> PartView<'a> {
    /// Walk `bytes`, the whole content of a part file.
    pub fn new(bytes: &'a [u8]) -> Self {
        PartView {
            cur: Cursor::new(bytes),
        }
    }
}

impl Iterator for PartView<'_> {
    type Item = Result<(Key, Row)>;

    fn next(&mut self) -> Option<Result<(Key, Row)>> {
        if self.cur.is_empty() {
            return None;
        }
        let cur = &mut self.cur;
        let tuple = cur.read_u64().and_then(|key| Ok((key, Row::decode(cur)?)));
        if tuple.is_err() {
            self.cur = Cursor::new(&[]);
        }
        Some(tuple)
    }
}

/// Chain-aware retention: delete checkpoint files older than the live
/// chain's tip that belong to *no* link of the chain — a base or ancestor
/// delta still referenced by the tip is never dropped, no matter how old.
/// (Invoked after a newer checkpoint completes.)
pub fn prune_old_checkpoints(storage: &StorageSet, chain: &CheckpointChain) {
    prune_old_checkpoints_respecting(storage, chain, u64::MAX);
}

/// [`prune_old_checkpoints`] additionally honoring retention holds: files
/// with `ts >= keep_ts_at_or_above` survive even when no live chain link
/// references them — an online recovery session may still be resolving
/// its base image across a chain a compaction has since superseded.
/// `u64::MAX` = no hold (prune everything unreferenced).
pub fn prune_old_checkpoints_respecting(
    storage: &StorageSet,
    chain: &CheckpointChain,
    keep_ts_at_or_above: Timestamp,
) {
    let live = chain.referenced_ts();
    let tip = chain.ts();
    for disk in storage.disks() {
        for name in disk.list("ckpt/") {
            if name == MANIFEST_FILE {
                continue;
            }
            // Format: ckpt/<ts>/...
            if let Some(ts_str) = name.split('/').nth(1) {
                if let Ok(ts) = ts_str.parse::<u64>() {
                    if ts < tip && !live.contains(&ts) && ts < keep_ts_at_or_above {
                        disk.delete(&name);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{TableId, Value};
    use pacman_engine::Catalog;

    fn setup() -> (Arc<Database>, StorageSet) {
        let mut c = Catalog::new();
        c.add_table_sharded("a", 1, 2);
        c.add_table_sharded("b", 2, 2);
        let db = Arc::new(Database::new(c));
        for k in 0..100u64 {
            db.seed_row(TableId::new(0), k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        for k in 0..40u64 {
            db.seed_row(
                TableId::new(1),
                k,
                Row::from([Value::Int(k as i64), Value::str("z")]),
            )
            .unwrap();
        }
        (
            db,
            StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("t")),
        )
    }

    fn commit_key(db: &Arc<Database>, table: u32, key: u64, val: i64) {
        let mut t = db.begin();
        let r = t.read(TableId::new(table), key).unwrap();
        t.write(TableId::new(table), key, r.with_col(0, Value::Int(val)))
            .unwrap();
        t.commit().unwrap();
    }

    #[test]
    fn checkpoint_roundtrips_every_tuple() {
        let (db, storage) = setup();
        let ts = run_checkpoint(&db, &storage, 2).unwrap();
        let manifest = read_manifest(&storage).unwrap().unwrap();
        assert_eq!(manifest.ts, ts);
        assert!(manifest.is_full());
        let mut total = 0;
        for (table, shard, disk) in &manifest.parts {
            let bytes = storage
                .disk(*disk as usize)
                .read(&part_name(ts, *table, *shard as usize))
                .unwrap();
            total += PartView::new(&bytes).count();
        }
        assert_eq!(total, 140);
    }

    #[test]
    fn checkpoint_is_snapshot_consistent() {
        let (db, storage) = setup();
        // Commit a change after the snapshot is taken but read parts later:
        // simulate by taking checkpoint, then writing, then decoding.
        let ts = run_checkpoint(&db, &storage, 1).unwrap();
        commit_key(&db, 0, 5, -999);
        let manifest = read_manifest(&storage).unwrap().unwrap();
        let mut found = None;
        for (table, shard, disk) in &manifest.parts {
            if *table != 0 {
                continue;
            }
            let bytes = storage
                .disk(*disk as usize)
                .read(&part_name(ts, *table, *shard as usize))
                .unwrap();
            for (k, row) in PartView::new(&bytes).map(|t| t.unwrap()) {
                if k == 5 {
                    found = Some(row);
                }
            }
        }
        assert_eq!(
            found.unwrap().col(0),
            Value::Int(5),
            "checkpoint must hold the pre-update value"
        );
    }

    /// The part-file invariant `Table::load_shard`'s bulk path relies on:
    /// in full and delta parts alike, keys strictly ascend and all belong
    /// to the part's shard, whatever order they were inserted in.
    #[test]
    fn every_part_holds_its_shards_keys_ascending() {
        let (db, storage) = setup();
        let insert = |keys: &[u64]| {
            for &k in keys {
                let mut t = db.begin();
                t.insert(TableId::new(0), k, Row::from([Value::Int(k as i64)]))
                    .unwrap();
                t.commit().unwrap();
            }
        };
        insert(&[977, 130, 555, 101, 4242, 150]);
        assert!(
            run_checkpoint_incremental(&db, &storage, 2, 8)
                .unwrap()
                .full
        );
        insert(&[9001, 200, 199, 3000]);
        assert!(
            !run_checkpoint_incremental(&db, &storage, 2, 8)
                .unwrap()
                .full
        );
        let chain = read_chain(&storage).unwrap().unwrap();
        let mut tuples = 0;
        for m in &chain.manifests {
            for &(table, shard, disk) in &m.parts {
                let bytes = storage
                    .disk(disk as usize)
                    .read(&part_name(m.ts, table, shard as usize))
                    .unwrap();
                let keys: Vec<Key> = PartView::new(&bytes).map(|t| t.unwrap().0).collect();
                assert!(
                    keys.windows(2).all(|w| w[0] < w[1]),
                    "part {table}/{shard} at {}: {keys:?}",
                    m.ts
                );
                let t = db.table(TableId::new(table)).unwrap();
                assert!(keys.iter().all(|&k| t.shard_index(k) == shard as usize));
                tuples += keys.len();
            }
        }
        // The full round's 146 tuples, and the delta's dirty shards again.
        assert!(tuples > 146 + 4, "{tuples} tuples");
    }

    #[test]
    fn no_manifest_means_none() {
        let storage = StorageSet::for_tests();
        assert!(read_manifest(&storage).unwrap().is_none());
        assert!(read_chain(&storage).unwrap().is_none());
    }

    #[test]
    fn incremental_skips_clean_shards_and_chains() {
        let (db, storage) = setup();
        let full = run_checkpoint_incremental(&db, &storage, 2, 8).unwrap();
        assert!(full.full, "first round compacts to a full checkpoint");
        assert_eq!(full.shards_skipped_clean, 0);

        let total_shards: u64 = db.tables().iter().map(|t| t.num_shards() as u64).sum();

        // Touch exactly one key: the delta re-scans only its shard.
        commit_key(&db, 0, 7, -7);
        let delta = run_checkpoint_incremental(&db, &storage, 2, 8).unwrap();
        assert!(!delta.full);
        assert_eq!(delta.parts_written, 1, "one dirty shard");
        assert_eq!(
            delta.shards_skipped_clean,
            total_shards - 1,
            "every other shard is clean"
        );
        assert!(delta.bytes_written < full.bytes_written);
        assert_eq!(delta.chain_len, 2);

        // The chain resolves the dirty shard to the delta's part and the
        // clean shards to the full's parts.
        let chain = read_chain(&storage).unwrap().unwrap();
        assert_eq!(chain.len(), 2);
        assert_eq!(chain.ts(), delta.ts);
        let resolved = chain.resolve_parts();
        assert_eq!(resolved.len(), full.parts_written as usize);
        let dirty_shard = db.table(TableId::new(0)).unwrap().shard_index(7) as u32;
        for p in &resolved {
            if p.table == 0 && p.shard == dirty_shard {
                assert_eq!(p.ts, delta.ts);
            } else {
                assert_eq!(p.ts, full.ts);
            }
        }
        // The delta part holds the updated value.
        let p = resolved
            .iter()
            .find(|p| p.table == 0 && p.shard == dirty_shard)
            .unwrap();
        let bytes = storage
            .disk(p.disk as usize)
            .read(&part_name(p.ts, p.table, p.shard as usize))
            .unwrap();
        let rows: Vec<(Key, Row)> = PartView::new(&bytes).map(|t| t.unwrap()).collect();
        assert!(rows
            .iter()
            .any(|(k, r)| *k == 7 && r.col(0) == Value::Int(-7)));
    }

    #[test]
    fn untouched_database_rounds_are_noops() {
        let (db, storage) = setup();
        let full = run_checkpoint_incremental(&db, &storage, 1, 2).unwrap();
        let total_shards: u64 = db.tables().iter().map(|t| t.num_shards() as u64).sum();
        // Idle rounds never extend the chain — even past max_chain, where
        // a non-no-op round would trigger a pointless full compaction.
        for _ in 0..4 {
            let round = run_checkpoint_incremental(&db, &storage, 1, 2).unwrap();
            assert!(!round.full);
            assert_eq!(round.ts, full.ts, "tip unchanged");
            assert_eq!(round.parts_written, 0);
            assert_eq!(round.bytes_written, 0);
            assert_eq!(round.shards_skipped_clean, total_shards);
            assert_eq!(round.chain_len, 1);
        }
        let chain = read_chain(&storage).unwrap().unwrap();
        assert_eq!(chain.len(), 1, "idle rounds must not grow the chain");
    }

    #[test]
    fn chain_compacts_at_max_length() {
        let (db, storage) = setup();
        for i in 0..5 {
            commit_key(&db, 0, i, i as i64 + 100);
            let st = run_checkpoint_incremental(&db, &storage, 1, 3).unwrap();
            // Rounds: full, delta, delta, full (chain hit 3), delta.
            match i {
                0 | 3 => assert!(st.full, "round {i} should compact"),
                _ => assert!(!st.full, "round {i} should be a delta"),
            }
        }
        let chain = read_chain(&storage).unwrap().unwrap();
        assert_eq!(chain.len(), 2);
    }

    #[test]
    fn delta_records_emptied_shards() {
        let mut c = Catalog::new();
        c.add_table_sharded("a", 1, 0); // one shard: easy to empty
        let db = Arc::new(Database::new(c));
        db.seed_row(TableId::new(0), 1, Row::from([Value::Int(1)]))
            .unwrap();
        let storage = StorageSet::for_tests();
        run_checkpoint_incremental(&db, &storage, 1, 8).unwrap();
        // Delete the only tuple; the delta must write an *empty* part that
        // shadows the full's part.
        let mut t = db.begin();
        t.delete(TableId::new(0), 1).unwrap();
        t.commit().unwrap();
        let delta = run_checkpoint_incremental(&db, &storage, 1, 8).unwrap();
        assert_eq!(delta.parts_written, 1);
        let chain = read_chain(&storage).unwrap().unwrap();
        let resolved = chain.resolve_parts();
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].ts, delta.ts);
        let bytes = storage
            .disk(resolved[0].disk as usize)
            .read(&part_name(delta.ts, 0, 0))
            .unwrap();
        assert!(PartView::new(&bytes).next().is_none());
    }

    #[test]
    fn prune_keeps_every_referenced_chain_link() {
        let (db, storage) = setup();
        let full = run_checkpoint_incremental(&db, &storage, 1, 8).unwrap();
        commit_key(&db, 0, 1, 11);
        let d1 = run_checkpoint_incremental(&db, &storage, 1, 8).unwrap();
        commit_key(&db, 1, 1, 22);
        let d2 = run_checkpoint_incremental(&db, &storage, 1, 8).unwrap();
        let chain = read_chain(&storage).unwrap().unwrap();
        assert_eq!(chain.len(), 3);
        prune_old_checkpoints(&storage, &chain);
        // Every link's files survive: the base and mid delta are still
        // referenced even though both are older than the tip.
        for ts in [full.ts, d1.ts, d2.ts] {
            assert!(
                storage.disk(0).read(&manifest_name(ts)).is_ok(),
                "manifest {ts} pruned from a live chain"
            );
        }
        let remaining: Vec<String> = storage
            .disks()
            .iter()
            .flat_map(|d| d.list("ckpt/"))
            .collect();
        for ts in [full.ts, d1.ts, d2.ts] {
            assert!(
                remaining.iter().any(|n| n.contains(&format!("{ts:020}"))),
                "parts of live link {ts} pruned"
            );
        }
    }

    #[test]
    fn prune_removes_links_dropped_by_compaction() {
        let (db, storage) = setup();
        let full1 = run_checkpoint_incremental(&db, &storage, 1, 2).unwrap();
        commit_key(&db, 0, 1, 11);
        let d1 = run_checkpoint_incremental(&db, &storage, 1, 2).unwrap();
        commit_key(&db, 0, 2, 22);
        // Chain is at max length (2): this round compacts to a new full.
        let full2 = run_checkpoint_incremental(&db, &storage, 1, 2).unwrap();
        assert!(full2.full);
        let chain = read_chain(&storage).unwrap().unwrap();
        assert_eq!(chain.len(), 1);
        prune_old_checkpoints(&storage, &chain);
        let remaining: Vec<String> = storage
            .disks()
            .iter()
            .flat_map(|d| d.list("ckpt/"))
            .filter(|n| n != MANIFEST_FILE)
            .collect();
        assert!(!remaining.is_empty());
        assert!(
            remaining
                .iter()
                .all(|n| n.contains(&format!("{:020}", full2.ts))),
            "dropped links {} / {} must be pruned: {remaining:?}",
            full1.ts,
            d1.ts
        );
    }

    #[test]
    fn torn_delta_leaves_previous_chain_in_effect() {
        let (db, storage) = setup();
        run_checkpoint_incremental(&db, &storage, 1, 8).unwrap();
        let tip_before = read_manifest(&storage).unwrap().unwrap();
        // A torn delta: orphan parts (and even a per-ts manifest) land
        // under a newer timestamp, but the tip was never cut over.
        commit_key(&db, 0, 3, 33);
        let torn_ts = db.clock().peek();
        storage
            .disk(0)
            .append(&part_name(torn_ts, 0, 0), &[0xDE, 0xAD]);
        storage.disk(0).write_file(
            &manifest_name(torn_ts),
            &CheckpointManifest {
                ts: torn_ts,
                base_ts: tip_before.ts,
                parts: vec![(0, 0, 0)],
            }
            .to_bytes(),
        );
        let chain = read_chain(&storage).unwrap().unwrap();
        assert_eq!(chain.ts(), tip_before.ts, "torn delta must not be visible");
        assert_eq!(chain.len(), 1);
    }
}
