//! Work on a crash image (the `StorageSet` a crash leaves): the standalone
//! reload and decode layers of the traced run, and the copies the negative
//! test corrupts.

use crate::trace::{Name, Trace};
use pacman_common::Result;
use pacman_core::recovery::LogInventory;
use pacman_storage::{SimDisk, StorageSet};
use pacman_wal::pepoch::PepochHandle;
use std::sync::Arc;

/// What reading and decoding the whole log, outside recovery, cost.
pub struct LogScan {
    /// Seconds in `SimDisk::read` over every inventory file (paced by the
    /// device model).
    pub reload_s: f64,
    /// Seconds building the merged views and visiting every record.
    pub decode_s: f64,
    pub records: u64,
}

/// Read every log file of the image, then decode every record at or below
/// the persisted pepoch as a borrowed view — the reload and decode work of
/// recovery with no schedule, execution or install behind it. Each batch
/// leaves one `Reload` and one `Decode` span under `parent`.
pub fn scan_log(storage: &StorageSet, trace: &mut Trace, parent: u32) -> Result<LogScan> {
    let pepoch = PepochHandle::read_persisted(storage.disk(0));
    let inventory = LogInventory::scan(storage);
    let mut scan = LogScan {
        reload_s: 0.0,
        decode_s: 0.0,
        records: 0,
    };
    for batch in inventory.batches() {
        let t0 = trace.now();
        let mut buffers = Vec::new();
        for f in inventory.files_for(batch) {
            buffers.push(storage.disk(f.disk).read(&f.name)?);
        }
        let t1 = trace.now();
        let view = pacman_wal::merged_view_from_buffers(batch, buffers, pepoch, 0)?;
        for record in view.iter() {
            scan.records += 1;
            // Tuple-level payloads are decoded write by write at install
            // time; visit them the same way.
            if let Some(writes) = record.writes() {
                for w in writes {
                    std::hint::black_box(&w);
                }
            }
            std::hint::black_box(record.ts());
        }
        let t2 = trace.now();
        trace.push(Name::Reload, parent, batch as u32, t0, t1);
        trace.push(Name::Decode, parent, batch as u32, t1, t2);
        scan.reload_s += (t1 - t0) as f64 / 1e9;
        scan.decode_s += (t2 - t1) as f64 / 1e9;
    }
    Ok(scan)
}

/// A deep copy of an image onto fresh devices of the same model.
pub fn copy(storage: &StorageSet) -> StorageSet {
    let disks = storage
        .disks()
        .iter()
        .map(|d| {
            let copy = SimDisk::new(d.config().clone());
            for name in d.list("") {
                copy.write_file(&name, &d.read(&name).expect("listed file"));
            }
            Arc::new(copy)
        })
        .collect();
    StorageSet::new(disks)
}

/// The largest log batch file of the image: `(disk, name)`.
fn largest_log_file(storage: &StorageSet) -> (usize, String) {
    let mut best = (0, String::new(), 0);
    for (di, disk) in storage.disks().iter().enumerate() {
        for name in disk.list("log/") {
            let len = disk.len(&name).unwrap_or(0);
            if len > best.2 {
                best = (di, name, len);
            }
        }
    }
    assert!(best.2 > 0, "image holds no log");
    (best.0, best.1)
}

/// Flip every bit of the tag byte of the middle record of the largest log
/// batch file, which no decoder can accept. (Log records carry no
/// checksum: a flipped byte inside a parameter that the procedure never
/// reads, or inside filler text, changes nothing recovery could notice —
/// two of six seeds, flipping the file's middle byte. The negative test
/// therefore corrupts structure, and the deleted file covers lost content.)
/// Returns what was done, for the report.
pub fn flip_log_byte(storage: &StorageSet) -> String {
    let (di, name) = largest_log_file(storage);
    let disk = storage.disk(di);
    let file = disk.read(&name).expect("listed file");
    // One generator thread writes a file in commit order, so the merged
    // view walks it front to back.
    let view = pacman_wal::merged_view_from_buffers(0, vec![file.clone()], u64::MAX, 0)
        .expect("the image decoded before it was copied");
    let at: usize = view
        .iter()
        .take(view.len() / 2)
        .map(|record| record.as_bytes().len())
        .sum();
    let mut bytes = file.to_vec();
    bytes[at] ^= 0xFF;
    disk.write_file(&name, &bytes);
    format!(
        "flipped byte {at} (a record tag) of {name} ({} B)",
        bytes.len()
    )
}

/// Delete the largest log batch file.
pub fn delete_log_file(storage: &StorageSet) -> String {
    let (di, name) = largest_log_file(storage);
    let len = storage.disk(di).len(&name).unwrap_or(0);
    storage.disk(di).delete(&name);
    format!("deleted {name} ({len} B)")
}
