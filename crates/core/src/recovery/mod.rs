//! Failure recovery: checkpoint restore + log replay for the five
//! evaluated schemes of §6.2.
//!
//! | Scheme | Log type | Parallelism | Latches |
//! |--------|----------|-------------|---------|
//! | PLR    | physical | per-file      | yes  |
//! | LLR    | logical  | per-file      | yes  |
//! | LLR-P  | logical  | key-partitioned (from PACMAN, §4.5) | no |
//! | CLR    | command  | single thread | no   |
//! | CLR-P  | command  | **PACMAN**    | no   |
//!
//! Every scheme recovers the same state: one version per tuple, the one
//! with the highest timestamp (tuple-level installs are last-writer-wins).
//!
//! A command log is mixed: ad-hoc transactions log their write sets
//! (§4.5). CLR and CLR-P re-execute the command records through the
//! interpreter and install the ad-hoc ones as write-only pieces (see
//! `docs/RECOVERY.md` for when each scheme wins).

pub mod checkpoint;
pub mod clr;
pub mod clr_p;
pub mod gate;
pub mod llr;
pub mod llr_p;
pub mod manager;
mod pipeline;
pub mod raw;
mod source;

pub use gate::{GateMap, GatedAdmission, ShardMap};
pub use manager::{
    recover, recover_online, register_gate_probe, RecoveryConfig, RecoveryOutcome, RecoveryReport,
    RecoveryScheme, RecoverySession, SessionState,
};
pub use source::{FollowHandle, UnitSource};

use crate::metrics::RecoveryMetrics;
use pacman_common::{Result, Timestamp};
use pacman_storage::StorageSet;
use pacman_wal::{MergedBatchView, PayloadKind};
use std::time::Duration;

/// Timing result of a log-recovery stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct LogRecovery {
    /// Pure log file reloading (Fig. 14a).
    pub reload: Duration,
    /// Whole log-recovery stage (Fig. 14b).
    pub total: Duration,
    /// Largest replayed timestamp (clock resume point).
    pub max_ts: Timestamp,
    /// Records replayed.
    pub txns: u64,
    /// Command records re-executed through the interpreter (CLR/CLR-P).
    pub replayed_commands: u64,
    /// Tuple-level records applied as after-images (ad-hoc records under
    /// CLR/CLR-P, and every record of a tuple-level scheme).
    pub applied_writes: u64,
    /// Writes offline LLR-P decoded and installed (the other schemes
    /// install every write and leave both counts 0).
    pub installed_writes: u64,
    /// Writes offline LLR-P skipped undecoded because a newer version of
    /// the key was already installed; `installed + skipped` is every write
    /// in the replayed records.
    pub skipped_writes: u64,
}

impl LogRecovery {
    /// Count one loaded unit: its records, their format mix and newest
    /// timestamp, and — once per unit — the session's `recovery.txns`.
    pub(crate) fn count_unit(&mut self, batch: &MergedBatchView, metrics: &RecoveryMetrics) {
        let n = batch.len() as u64;
        let commands = batch
            .iter()
            .filter(|r| matches!(r.kind(), PayloadKind::Command { .. }))
            .count() as u64;
        self.replayed_commands += commands;
        self.applied_writes += n - commands;
        if let Some(last) = batch.last_ts() {
            self.max_ts = self.max_ts.max(last);
        }
        self.txns += n;
        metrics.count_txns(n);
    }
}

/// One log file found on a device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogFile {
    /// Device index holding the file.
    pub disk: usize,
    /// File name (`log/<logger>/<batch>`).
    pub name: String,
    /// Batch index parsed from the name.
    pub batch: u64,
}

/// Inventory of all log files left on the devices by the crash.
#[derive(Clone, Debug, Default)]
pub struct LogInventory {
    /// Files sorted by (batch, disk, name).
    pub files: Vec<LogFile>,
}

impl LogInventory {
    /// Scan every device for log batch files.
    pub fn scan(storage: &StorageSet) -> LogInventory {
        let mut files = Vec::new();
        for (di, disk) in storage.disks().iter().enumerate() {
            for name in disk.list("log/") {
                if let Some(batch) = name.rsplit('/').next().and_then(|s| s.parse().ok()) {
                    files.push(LogFile {
                        disk: di,
                        name,
                        batch,
                    });
                }
            }
        }
        files.sort_by(|a, b| (a.batch, a.disk, &a.name).cmp(&(b.batch, b.disk, &b.name)));
        LogInventory { files }
    }

    /// Distinct batch indices, ascending.
    pub fn batches(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.files.iter().map(|f| f.batch).collect();
        v.dedup();
        v
    }

    /// Files belonging to one batch.
    pub fn files_for(&self, batch: u64) -> impl Iterator<Item = &LogFile> {
        self.files.iter().filter(move |f| f.batch == batch)
    }

    /// Total log bytes on the devices (metadata only, no I/O cost).
    pub fn total_bytes(&self, storage: &StorageSet) -> u64 {
        self.files
            .iter()
            .map(|f| storage.disk(f.disk).len(&f.name).unwrap_or(0) as u64)
            .sum()
    }
}

/// Read one batch merged across loggers in commitment order. The per-file
/// read buffers back borrowed [`pacman_wal::RecordView`]s, so replay
/// copies only what it keeps: a command's parameter list, or a write's
/// after-image at version-chain installation.
pub fn read_merged_batch_view(
    storage: &StorageSet,
    inventory: &LogInventory,
    batch: u64,
    pepoch: u64,
    after_ts: Timestamp,
) -> Result<pacman_wal::MergedBatchView> {
    let mut buffers = Vec::new();
    for f in inventory.files_for(batch) {
        match storage.disk(f.disk).read(&f.name) {
            Ok(b) => buffers.push(b),
            // An online session scans its inventory before logging resumes;
            // `Durability::reopen`'s ghost-tail truncation then deletes a
            // batch file only when *every* record in it sits past the pepoch
            // frontier — records this view filters out regardless. A file
            // that vanished in that window contributes nothing to replay.
            Err(pacman_common::Error::FileNotFound(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    pacman_wal::merged_view_from_buffers(batch, buffers, pepoch, after_ts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{Encoder, ProcId, Value};
    use pacman_storage::DiskConfig;
    use pacman_wal::{LogPayload, TxnLogRecord};

    fn cmd(ts: u64) -> TxnLogRecord {
        TxnLogRecord {
            ts,
            payload: LogPayload::Command {
                proc: ProcId::new(0),
                params: vec![Value::Int(ts as i64)].into(),
            },
        }
    }

    #[test]
    fn inventory_scans_all_disks() {
        let storage = StorageSet::identical(2, DiskConfig::unthrottled("t"));
        storage.disk(0).append("log/00/0000000001", b"x");
        storage.disk(1).append("log/01/0000000001", b"y");
        storage.disk(0).append("log/00/0000000003", b"z");
        storage.disk(0).append("pepoch.log", b"!");
        let inv = LogInventory::scan(&storage);
        assert_eq!(inv.files.len(), 3);
        assert_eq!(inv.batches(), vec![1, 3]);
        assert_eq!(inv.files_for(1).count(), 2);
        assert_eq!(inv.total_bytes(&storage), 3);
    }

    #[test]
    fn inventory_order_is_deterministic_regardless_of_listing_order() {
        // Replay schedules are derived from the inventory, so its order
        // must be a pure function of the file set: stable-sorted by
        // (batch, disk, name) no matter how the files landed on disk.
        let names: [(usize, &str); 6] = [
            (1, "log/01/0000000002"),
            (0, "log/00/0000000002"),
            (1, "log/01/0000000000"),
            (0, "log/00/0000000010"),
            (0, "log/01/0000000002"), // second logger stream on disk 0
            (1, "log/00/0000000000"),
        ];
        // Two storage sets populated in opposite orders.
        let a = StorageSet::identical(2, DiskConfig::unthrottled("a"));
        for (d, n) in names {
            a.disk(d).append(n, b"x");
        }
        let b = StorageSet::identical(2, DiskConfig::unthrottled("b"));
        for (d, n) in names.iter().rev() {
            b.disk(*d).append(n, b"x");
        }
        let ia = LogInventory::scan(&a);
        let ib = LogInventory::scan(&b);
        assert_eq!(ia.files, ib.files, "scan order depends on insertion order");
        let key = |f: &LogFile| (f.batch, f.disk, f.name.clone());
        let mut sorted = ia.files.clone();
        sorted.sort_by_key(key);
        assert_eq!(ia.files, sorted, "not sorted by (batch, disk, name)");
        assert_eq!(ia.batches(), vec![0, 2, 10]);
    }

    #[test]
    fn merged_batch_view_tolerates_file_deleted_after_scan() {
        // An online session's inventory races `Durability::reopen`: the
        // ghost-tail truncation may delete a batch file (only when every
        // record in it is past the pepoch frontier) between the scan and
        // the replay thread's read. The vanished file must read as empty,
        // not fail the session.
        use pacman_common::clock::epoch_floor;
        let storage = StorageSet::identical(2, DiskConfig::unthrottled("t"));
        let mut buf = Vec::new();
        cmd(epoch_floor(1) | 5).encode(&mut buf);
        storage.disk(0).append("log/00/0000000000", &buf);
        storage.disk(1).append("log/01/0000000000", b"");
        let inv = LogInventory::scan(&storage);
        assert_eq!(inv.files_for(0).count(), 2);
        storage.disk(1).delete("log/01/0000000000");
        let batch = read_merged_batch_view(&storage, &inv, 0, u64::MAX, 0).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.last_ts(), Some(epoch_floor(1) | 5));
    }
}
