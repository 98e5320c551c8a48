//! Footprint mapping for online recovery admission.
//!
//! The engine-level [`RecoveryGate`] tracks replay watermarks over opaque
//! *partition* indices. This module owns the semantics of those indices
//! and the mapping from a transaction invocation to the partitions it can
//! touch — its **static footprint**:
//!
//! * **command schemes** (CLR / CLR-P) replay by re-executing
//!   procedure pieces block by block, so a partition is one global
//!   dependency-graph block. A procedure's footprint is, for *every* one
//!   of its operations, the block in which replay installs writes to the
//!   operation's table, plus the blocks of its piece templates, plus their
//!   ancestors (a block only reaches its final state once every upstream
//!   block has, so flagging ancestors lets the replay workers pull the
//!   whole chain forward). The footprint is **not** the replay plan: the
//!   dependency graph only holds replay-live operations, and a transaction
//!   that merely reads `SAVINGS` (Smallbank `Balance`, whose replay plan is
//!   empty) must still wait for the block that rebuilds `SAVINGS`;
//! * **tuple schemes** (LLR-P) replay by reinstalling after-images, so a
//!   partition is one (table, index-shard) pair. A procedure's footprint
//!   resolves each op's key against the invocation parameters where the
//!   key is parameter-computable; ops whose keys depend on upstream reads
//!   or loop indices fall back to every shard of the op's table.
//!
//! [`GatedAdmission`] packages a gate plus a map behind the engine's
//! [`AdmissionControl`] trait, which is what transaction drivers consume.

use crate::static_analysis::GlobalGraph;
use pacman_common::{BlockId, Key, ProcId, Result, TableId};
use pacman_engine::{AdmissionControl, Database, RecoveryGate};
use pacman_sproc::{EvalCtx, ExecFrame, ExprCode, Params, ProcRegistry};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Dense numbering of every (table, shard) pair of a database — the
/// partition space tuple-level online replay publishes watermarks over.
#[derive(Clone, Debug)]
pub struct ShardMap {
    /// Partition index of table `t`'s shard 0.
    offsets: Vec<usize>,
    total: usize,
}

impl ShardMap {
    /// Build the map for `db`'s catalog.
    pub fn new(db: &Database) -> ShardMap {
        let mut offsets = Vec::with_capacity(db.tables().len());
        let mut total = 0;
        for t in db.tables() {
            offsets.push(total);
            total += t.num_shards();
        }
        ShardMap { offsets, total }
    }

    /// Total number of partitions.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Partition of `(table, key)`.
    pub fn partition(&self, db: &Database, table: TableId, key: Key) -> Result<usize> {
        let t = db.table(table)?;
        Ok(self.offsets[table.index()] + t.shard_index(key))
    }

    /// Partition of `(table, shard-index)` — how checkpoint parts (which
    /// name shards directly) map into the same numbering.
    pub fn shard_partition(&self, table_index: usize, shard: usize) -> usize {
        self.offsets[table_index] + shard
    }

    /// All partitions of one table.
    pub fn table_partitions(
        &self,
        db: &Database,
        table: TableId,
    ) -> Result<std::ops::Range<usize>> {
        let t = db.table(table)?;
        let base = self.offsets[table.index()];
        Ok(base..base + t.num_shards())
    }
}

/// One op's contribution to a tuple-scheme static footprint.
#[derive(Clone, Debug)]
enum ShardFp {
    /// Key computable from the parameters alone: its compiled expression.
    Exact { table: TableId, key: ExprCode },
    /// Key depends on runtime state: every shard of the table.
    Whole(TableId),
}

/// Invocation-to-partition mapping for one recovery scheme.
pub struct GateMap {
    kind: MapKind,
}

enum MapKind {
    /// Command schemes: per-procedure block sets (ancestors included).
    Blocks {
        /// Footprints indexed by `ProcId::index()`.
        footprints: Vec<Vec<usize>>,
    },
    /// Tuple schemes: per-procedure shard resolvers.
    Shards {
        /// The database whose sharding defines the partitions.
        db: Arc<Database>,
        /// The partition numbering.
        map: ShardMap,
        /// Static per-op resolvers indexed by `ProcId::index()` (empty for
        /// an id gap).
        footprints: Vec<Vec<ShardFp>>,
    },
}

impl GateMap {
    /// Build the command-scheme (per-block) map.
    pub fn blocks(gdg: &GlobalGraph, registry: &ProcRegistry) -> GateMap {
        let max_id = registry
            .all()
            .iter()
            .map(|p| p.id.index() + 1)
            .max()
            .unwrap_or(0);
        let mut footprints = vec![Vec::new(); max_id];
        for def in registry.all() {
            // Everything the running transaction may touch, from the full
            // operation list — replay-dead reads included: they are not
            // replayed, but what they read is.
            let mut blocks: Vec<usize> = def
                .ops
                .iter()
                .map(|op| gdg.install_block(op.table))
                .chain(gdg.templates_for(def.id).iter().map(|t| t.block))
                .map(|b| b.index())
                .collect();
            // Ancestor closure: a block is only final once its upstream
            // blocks are, and prioritizing the ancestors is what makes
            // on-demand redo actually pull the chain forward.
            for b in 0..gdg.num_blocks() {
                if blocks.contains(&b) {
                    continue;
                }
                let bid = BlockId::new(b as u32);
                if blocks
                    .iter()
                    .any(|&t| gdg.is_ancestor(bid, BlockId::new(t as u32)))
                {
                    blocks.push(b);
                }
            }
            blocks.sort_unstable();
            blocks.dedup();
            footprints[def.id.index()] = blocks;
        }
        GateMap {
            kind: MapKind::Blocks { footprints },
        }
    }

    /// Build the tuple-scheme (per-table-shard) map over an existing
    /// partition numbering (the same `ShardMap` the replay publishes
    /// watermarks through — one numbering, one source of truth).
    pub fn shards(db: Arc<Database>, map: ShardMap, registry: &ProcRegistry) -> GateMap {
        let max_id = registry
            .all()
            .iter()
            .map(|p| p.id.index() + 1)
            .max()
            .unwrap_or(0);
        let mut footprints = vec![Vec::new(); max_id];
        for def in registry.all() {
            let mut fp = Vec::with_capacity(def.ops.len());
            for op in &def.ops {
                let mut vars = Vec::new();
                op.key.collect_vars(&mut vars);
                if vars.is_empty() && !op.key.uses_loop() {
                    fp.push(ShardFp::Exact {
                        table: op.table,
                        key: ExprCode::compile(&op.key, &|_| false),
                    });
                } else {
                    fp.push(ShardFp::Whole(op.table));
                }
            }
            footprints[def.id.index()] = fp;
        }
        GateMap {
            kind: MapKind::Shards {
                db,
                map,
                footprints,
            },
        }
    }

    /// Whether this map's partitions double as checkpoint shards — true
    /// for the tuple scheme, where lazy checkpoint reload publishes
    /// residency over the same `(table, shard)` numbering, so admission
    /// must check the gate's residency plane with the same footprint.
    pub fn tracks_shard_residency(&self) -> bool {
        matches!(self.kind, MapKind::Shards { .. })
    }

    /// The static footprint of `proc(params)`, as partition indices.
    pub fn footprint(&self, proc: ProcId, params: &Params) -> Vec<usize> {
        match &self.kind {
            MapKind::Blocks { footprints } => {
                footprints.get(proc.index()).cloned().unwrap_or_default()
            }
            MapKind::Shards {
                db,
                map,
                footprints,
            } => {
                let Some(fp) = footprints.get(proc.index()) else {
                    return Vec::new();
                };
                let ctx = EvalCtx::of_params(params);
                let mut frame = ExecFrame::default();
                let mut out = Vec::new();
                for entry in fp {
                    match entry {
                        ShardFp::Exact { table, key } => {
                            match key.eval_key(&ctx, &mut frame) {
                                Ok(key) => {
                                    if let Ok(p) = map.partition(db, *table, key) {
                                        out.push(p);
                                    }
                                }
                                Err(_) => {
                                    // Parameter shape surprised us (e.g. a
                                    // list param): degrade to the table.
                                    if let Ok(r) = map.table_partitions(db, *table) {
                                        out.extend(r);
                                    }
                                }
                            }
                        }
                        ShardFp::Whole(table) => {
                            if let Ok(r) = map.table_partitions(db, *table) {
                                out.extend(r);
                            }
                        }
                    }
                }
                out.sort_unstable();
                out.dedup();
                out
            }
        }
    }
}

/// A [`RecoveryGate`] plus the scheme's [`GateMap`], implementing the
/// engine's [`AdmissionControl`]: what a transaction driver holds while an
/// online recovery session replays in the background.
pub struct GatedAdmission {
    gate: Arc<RecoveryGate>,
    map: GateMap,
}

impl GatedAdmission {
    /// Package a gate and its map.
    pub fn new(gate: Arc<RecoveryGate>, map: GateMap) -> Arc<Self> {
        Arc::new(GatedAdmission { gate, map })
    }

    /// The underlying gate.
    pub fn gate(&self) -> &Arc<RecoveryGate> {
        &self.gate
    }

    /// Resolve a footprint without waiting (introspection / tests).
    pub fn footprint(&self, proc: ProcId, params: &Params) -> Vec<usize> {
        self.map.footprint(proc, params)
    }
}

impl GatedAdmission {
    /// The footprint's checkpoint-shard view: identical to the replay
    /// footprint for the tuple scheme (one numbering for both planes),
    /// empty for command schemes (their base image loads eagerly before
    /// the session goes live).
    fn shard_view<'a>(&self, fp: &'a [usize]) -> &'a [usize] {
        if self.map.tracks_shard_residency() {
            fp
        } else {
            &[]
        }
    }
}

impl AdmissionControl for GatedAdmission {
    fn admit(&self, proc: ProcId, params: &Params, give_up: &AtomicBool) -> bool {
        if self.gate.is_complete() {
            return true;
        }
        let fp = self.map.footprint(proc, params);
        self.gate.admit_with(&fp, self.shard_view(&fp), give_up)
    }

    fn try_admit(&self, proc: ProcId, params: &Params) -> bool {
        if self.gate.is_complete() {
            return true;
        }
        let fp = self.map.footprint(proc, params);
        self.gate.try_admit_with(&fp, self.shard_view(&fp))
    }

    fn request(&self, proc: ProcId, params: &Params) {
        if !self.gate.is_complete() {
            let fp = self.map.footprint(proc, params);
            self.gate.request_with(&fp, self.shard_view(&fp));
        }
    }

    fn is_open(&self) -> bool {
        self.gate.is_complete()
    }
}
