//! Log batches.
//!
//! §3: "the DBMS stores log entries into a sequence of files referred to as
//! log batches … entries in each log batch are strictly ordered according
//! to the transaction commitment order." Each logger truncates its stream
//! at fixed epoch boundaries, so batch `b` holds epochs
//! `[b·E, (b+1)·E)` across *all* loggers; recovery merges the per-logger
//! files of a batch and sorts by commit timestamp, yielding exactly the
//! paper's batch abstraction.

use crate::record::{PayloadKind, RecordView};
use bytes::Bytes;
use pacman_common::codec::Cursor;
use pacman_common::Result;
use pacman_storage::StorageSet;
use std::collections::BTreeSet;

/// The batch an epoch belongs to.
#[inline]
pub fn batch_index_of_epoch(epoch: u64, batch_epochs: u64) -> u64 {
    epoch / batch_epochs.max(1)
}

/// File name of logger `logger`'s part of batch `index`.
pub fn batch_name(logger: usize, index: u64) -> String {
    format!("log/{logger:02}/{index:010}")
}

/// All batch indices present on any device, ascending.
pub fn list_batch_indices(storage: &StorageSet) -> Vec<u64> {
    let mut set = BTreeSet::new();
    for disk in storage.disks() {
        for name in disk.list("log/") {
            if let Some(idx) = name.rsplit('/').next().and_then(|s| s.parse::<u64>().ok()) {
                set.insert(idx);
            }
        }
    }
    set.into_iter().collect()
}

/// Truncate every log file down to the records with `epoch <= pepoch`,
/// deleting files left empty. Returns `(records dropped, highest epoch
/// surviving in the files that were scanned)` — the latter is the resume
/// floor when the persisted pepoch is the legacy `u64::MAX` "everything
/// durable" sentinel (that sentinel disables the skip-fast path below, so
/// every file is scanned and the maximum is exact).
///
/// A crash can leave a logger ahead of the pepoch frontier: it sealed (and
/// wrote) epochs a slower peer never confirmed, so those records were never
/// acknowledged and recovery skips them. Before *resuming* logging into the
/// same directory that stale tail must physically go — otherwise fresh
/// records reusing epochs past the frontier would interleave with ghost
/// records from the previous incarnation and a second recovery would
/// replay transactions that were never acknowledged. Undecodable bytes
/// (a torn trailing write) are dropped with the tail.
///
/// `batch_epochs` (the file-naming granularity) bounds the scan: batch
/// file `b` can only hold epochs `[b·E, (b+1)·E)`, so files wholly below
/// the frontier are skipped by name — reopening after a clean shutdown
/// touches only the tail batch instead of re-reading the whole log.
pub fn truncate_log_tail(storage: &StorageSet, pepoch: u64, batch_epochs: u64) -> (u64, u64) {
    let epochs = batch_epochs.max(1);
    let mut dropped = 0u64;
    let mut max_kept = 0u64;
    for disk in storage.disks() {
        for name in disk.list("log/") {
            if pepoch != u64::MAX {
                if let Some(b) = name.rsplit('/').next().and_then(|s| s.parse::<u64>().ok()) {
                    let highest_possible = (b + 1).saturating_mul(epochs).saturating_sub(1);
                    if highest_possible <= pepoch {
                        continue; // no record in this file can exceed the frontier
                    }
                }
            }
            let Ok(bytes) = disk.read(&name) else {
                continue;
            };
            // Scan with borrowed views: a kept record's span is appended
            // verbatim (no decode-to-owned, no re-encode), and `keep_len`
            // only materializes a rewrite buffer if something is lost.
            let mut cur = Cursor::new(&bytes);
            let mut keep_len = 0usize;
            let mut kept = 0u64;
            let mut lost = 0u64;
            let mut prefix = true; // kept records form the file prefix
            while !cur.is_empty() {
                match RecordView::parse(&mut cur) {
                    Ok(view) if view.epoch() <= pepoch => {
                        max_kept = max_kept.max(view.epoch());
                        if lost > 0 {
                            prefix = false;
                        }
                        keep_len = cur.position();
                        kept += 1;
                    }
                    Ok(_) => lost += 1,
                    Err(_) => {
                        lost += 1; // torn tail: count it and stop
                        break;
                    }
                }
            }
            if lost == 0 {
                continue;
            }
            dropped += lost;
            if kept == 0 {
                disk.delete(&name);
            } else if prefix {
                // The surviving records are exactly the file prefix (the
                // common case: epochs are appended in seal order), so the
                // rewrite is a byte-level truncation — no decode, no
                // re-encode.
                disk.write_file(&name, &bytes[..keep_len]);
            } else {
                // A record past the frontier interleaved before surviving
                // ones; splice the kept spans verbatim.
                let mut keep = Vec::with_capacity(keep_len);
                let mut cur = Cursor::new(&bytes);
                while !cur.is_empty() {
                    match RecordView::parse(&mut cur) {
                        Ok(view) if view.epoch() <= pepoch => {
                            keep.extend_from_slice(view.as_bytes());
                        }
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
                disk.write_file(&name, &keep);
            }
        }
        disk.fsync();
    }
    (dropped, max_kept)
}

/// One validated record's location inside a [`MergedBatchView`], with the
/// header fields `RecordView::parse` extracted, so iteration rebuilds the
/// view without walking the record again.
#[derive(Clone, Copy, Debug)]
struct Span {
    ts: u64,
    buf: u32,
    start: u32,
    len: u32,
    kind: PayloadKind,
    body_at: u8,
}

/// A commit-ordered view over one batch's per-logger files.
///
/// The file payloads stay in their (ref-counted) read buffers; the merge
/// sorts lightweight spans instead of owned records. Consumers iterate
/// [`RecordView`]s and copy only what they install.
#[derive(Clone, Debug, Default)]
pub struct MergedBatchView {
    /// Batch sequence number.
    pub index: u64,
    buffers: Vec<Bytes>,
    spans: Vec<Span>,
}

impl MergedBatchView {
    /// Number of records in the merged, filtered batch.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the batch has no surviving records.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Highest commit timestamp in the batch.
    pub fn last_ts(&self) -> Option<u64> {
        self.spans.last().map(|s| s.ts)
    }

    /// Total bytes of the surviving record spans.
    pub fn span_bytes(&self) -> u64 {
        self.spans.iter().map(|s| s.len as u64).sum()
    }

    /// Iterate records in commit order as borrowed views.
    pub fn iter(&self) -> impl Iterator<Item = RecordView<'_>> + '_ {
        self.spans.iter().map(move |s| {
            let slice = &self.buffers[s.buf as usize][s.start as usize..(s.start + s.len) as usize];
            RecordView::from_validated(s.ts, s.kind, slice, s.body_at as usize)
        })
    }
}

/// Merge raw per-file buffers into one commit-ordered view, keeping only
/// records with `epoch <= pepoch` (the durability frontier) and
/// `ts > after_ts` (not covered by the checkpoint). Every record is
/// validated once, here; iteration revisits the spans without parsing.
pub fn merged_view_from_buffers(
    index: u64,
    buffers: Vec<Bytes>,
    pepoch: u64,
    after_ts: u64,
) -> Result<MergedBatchView> {
    let mut spans = Vec::new();
    for (buf, bytes) in buffers.iter().enumerate() {
        let mut cur = Cursor::new(bytes);
        while !cur.is_empty() {
            let start = cur.position();
            let view = RecordView::parse(&mut cur)?;
            if view.epoch() <= pepoch && view.ts() > after_ts {
                spans.push(Span {
                    ts: view.ts(),
                    buf: buf as u32,
                    start: start as u32,
                    len: (cur.position() - start) as u32,
                    kind: view.kind(),
                    body_at: view.body_at() as u8,
                });
            }
        }
    }
    spans.sort_by_key(|s| s.ts);
    Ok(MergedBatchView {
        index,
        buffers,
        spans,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::{LogPayload, TxnLogRecord};
    use pacman_common::clock::epoch_floor;
    use pacman_common::{Encoder, ProcId, Value};

    /// Batch `index` as the loggers left it: logger `l` writes
    /// `batch_name(l, index)` on disk `l`; a missing file contributes
    /// nothing.
    pub(crate) fn read_batch(
        storage: &StorageSet,
        index: u64,
        pepoch: u64,
        after_ts: u64,
    ) -> MergedBatchView {
        let buffers = storage
            .disks()
            .iter()
            .enumerate()
            .filter_map(|(logger, disk)| disk.read(&batch_name(logger, index)).ok())
            .collect();
        merged_view_from_buffers(index, buffers, pepoch, after_ts).unwrap()
    }

    fn ts_of(batch: &MergedBatchView) -> Vec<u64> {
        batch.iter().map(|r| r.ts()).collect()
    }

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
    fn batch_index_math() {
        assert_eq!(batch_index_of_epoch(0, 10), 0);
        assert_eq!(batch_index_of_epoch(9, 10), 0);
        assert_eq!(batch_index_of_epoch(10, 10), 1);
        assert_eq!(batch_index_of_epoch(5, 0), 5, "zero guard clamps to 1");
    }

    #[test]
    fn merge_sorts_across_loggers_and_filters() {
        let storage = StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("t"));
        // Logger 0 writes ts {e1|5, e2|1}; logger 1 writes {e1|3, e3|2}.
        let mut buf0 = Vec::new();
        cmd(epoch_floor(1) | 5).encode(&mut buf0);
        cmd(epoch_floor(2) | 1).encode(&mut buf0);
        storage.disk(0).append(&batch_name(0, 0), &buf0);
        let mut buf1 = Vec::new();
        cmd(epoch_floor(1) | 3).encode(&mut buf1);
        cmd(epoch_floor(3) | 2).encode(&mut buf1);
        storage.disk(1).append(&batch_name(1, 0), &buf1);

        // pepoch = 2: the epoch-3 record is not yet durable.
        let batch = read_batch(&storage, 0, 2, 0);
        assert_eq!(
            ts_of(&batch),
            vec![epoch_floor(1) | 3, epoch_floor(1) | 5, epoch_floor(2) | 1]
        );
        assert_eq!(batch.last_ts(), Some(epoch_floor(2) | 1));

        // after_ts filters checkpoint-covered records.
        let batch = read_batch(&storage, 0, 2, epoch_floor(1) | 4);
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn truncate_drops_only_the_unacknowledged_tail() {
        let storage = StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("t"));
        // Logger 0 ran ahead: epochs 1-3 written, but the frontier stopped
        // at 2 because logger 1 only sealed epoch 2.
        let mut buf0 = Vec::new();
        cmd(epoch_floor(1) | 1).encode(&mut buf0);
        cmd(epoch_floor(2) | 2).encode(&mut buf0);
        cmd(epoch_floor(3) | 3).encode(&mut buf0);
        storage.disk(0).append(&batch_name(0, 0), &buf0);
        let mut buf1 = Vec::new();
        cmd(epoch_floor(2) | 4).encode(&mut buf1);
        storage.disk(1).append(&batch_name(1, 0), &buf1);
        // A batch entirely past the frontier disappears.
        let mut buf2 = Vec::new();
        cmd(epoch_floor(30) | 5).encode(&mut buf2);
        storage.disk(0).append(&batch_name(0, 3), &buf2);

        let (dropped, max_kept) = truncate_log_tail(&storage, 2, 10);
        assert_eq!(dropped, 2);
        assert_eq!(max_kept, 2);
        assert_eq!(
            ts_of(&read_batch(&storage, 0, u64::MAX, 0)),
            vec![epoch_floor(1) | 1, epoch_floor(2) | 2, epoch_floor(2) | 4]
        );
        assert!(storage.disk(0).read(&batch_name(0, 3)).is_err());
        // Idempotent: a second pass drops nothing.
        assert_eq!(truncate_log_tail(&storage, 2, 10).0, 0);
    }

    #[test]
    fn truncate_drops_torn_trailing_bytes() {
        let storage = StorageSet::identical(1, pacman_storage::DiskConfig::unthrottled("t"));
        let mut buf = Vec::new();
        cmd(epoch_floor(1) | 1).encode(&mut buf);
        buf.extend_from_slice(&[0xFF; 3]); // torn write
        storage.disk(0).append(&batch_name(0, 0), &buf);
        assert_eq!(truncate_log_tail(&storage, 5, 10), (1, 1));
        assert_eq!(read_batch(&storage, 0, u64::MAX, 0).len(), 1);
    }

    #[test]
    fn missing_logger_files_are_skipped() {
        let storage = StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("t"));
        let mut buf = Vec::new();
        cmd(epoch_floor(1) | 1).encode(&mut buf);
        storage.disk(0).append(&batch_name(0, 3), &buf);
        assert_eq!(read_batch(&storage, 3, 10, 0).len(), 1);
        assert_eq!(list_batch_indices(&storage), vec![3]);
    }
}
