//! The simulated SSD.

use crate::pacer::Pacer;
use bytes::Bytes;
use pacman_common::{Error, Result};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Performance model of one device.
#[derive(Clone, Debug)]
pub struct DiskConfig {
    /// Human-readable device name (shows up in stats tables).
    pub name: String,
    /// Sustained sequential read bandwidth, bytes/second.
    pub read_bw: f64,
    /// Sustained sequential write bandwidth, bytes/second.
    pub write_bw: f64,
    /// Fixed cost of an `fsync` (queue flush + FTL barrier).
    pub fsync_latency: Duration,
}

impl DiskConfig {
    /// The paper's SSD with bandwidth scaled by `scale` (1.0 = the
    /// evaluation device's 550/520 MB/s).
    ///
    /// The fsync barrier is a fixed 700 µs regardless of `scale`: the
    /// paper's Table 3 reports ~14 ms *commit latency* under command
    /// logging, but that figure bundles the group-commit epoch wait
    /// (5 ms epochs) and queueing on top of the device barrier — it is
    /// not the raw fsync cost. Modeling 14 ms per fsync here would let a
    /// single seal swallow several whole epochs and serialize the
    /// loggers; 700 µs matches a datacenter-SSD FTL flush and leaves the
    /// epoch wait (which the driver measures separately) as the dominant
    /// latency term, as in the paper.
    pub fn scaled_ssd(name: &str, scale: f64) -> Self {
        DiskConfig {
            name: name.to_string(),
            read_bw: 550.0e6 * scale,
            write_bw: 520.0e6 * scale,
            fsync_latency: Duration::from_micros(700),
        }
    }

    /// An infinitely fast device for unit tests.
    pub fn unthrottled(name: &str) -> Self {
        DiskConfig {
            name: name.to_string(),
            read_bw: f64::INFINITY,
            write_bw: f64::INFINITY,
            fsync_latency: Duration::ZERO,
        }
    }
}

/// Cumulative device counters, used by the Table 2 harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiskStats {
    /// Total bytes written since construction (or last reset).
    pub bytes_written: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Number of fsync operations.
    pub fsyncs: u64,
    /// Wall-clock seconds since construction (or last reset).
    pub elapsed_secs: f64,
}

impl DiskStats {
    /// Average write bandwidth in MB/s over the measured window.
    pub fn write_mb_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.bytes_written as f64 / 1.0e6 / self.elapsed_secs
        }
    }

    /// Average read bandwidth in MB/s over the measured window.
    pub fn read_mb_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.bytes_read as f64 / 1.0e6 / self.elapsed_secs
        }
    }
}

/// An in-memory file store behind a bandwidth/fsync cost model.
///
/// Files are append-only byte vectors addressed by name; `read` returns a
/// zero-copy [`Bytes`] snapshot. All timing costs are paid by the *calling*
/// thread, like a synchronous I/O syscall would be.
#[derive(Debug)]
pub struct SimDisk {
    config: DiskConfig,
    files: Mutex<BTreeMap<String, Vec<u8>>>,
    read_pacer: Pacer,
    write_pacer: Pacer,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
    fsyncs: AtomicU64,
    epoch: Mutex<Instant>,
}

impl SimDisk {
    /// Create an empty device.
    pub fn new(config: DiskConfig) -> Self {
        SimDisk {
            read_pacer: Pacer::new(config.read_bw),
            write_pacer: Pacer::new(config.write_bw),
            config,
            files: Mutex::new(BTreeMap::new()),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            epoch: Mutex::new(Instant::now()),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DiskConfig {
        &self.config
    }

    /// Append bytes to a file (creating it if necessary), paying write
    /// bandwidth. Does **not** imply durability — call [`SimDisk::fsync`].
    pub fn append(&self, name: &str, data: &[u8]) {
        {
            let mut files = self.files.lock();
            files
                .entry(name.to_string())
                .or_default()
                .extend_from_slice(data);
        }
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.write_pacer.transfer(data.len());
    }

    /// Replace a file's contents entirely (used by manifests).
    pub fn write_file(&self, name: &str, data: &[u8]) {
        {
            let mut files = self.files.lock();
            files.insert(name.to_string(), data.to_vec());
        }
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.write_pacer.transfer(data.len());
    }

    /// Flush: drain pending write debt and pay the fsync barrier.
    pub fn fsync(&self) {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.write_pacer.drain();
        if self.config.fsync_latency > Duration::ZERO {
            std::thread::sleep(self.config.fsync_latency);
        }
    }

    /// Read a whole file, paying read bandwidth.
    pub fn read(&self, name: &str) -> Result<Bytes> {
        self.read_from(name, 0)
    }

    /// Read a file from byte `offset` to its end (empty past the end),
    /// paying read bandwidth for those bytes only.
    pub fn read_from(&self, name: &str, offset: usize) -> Result<Bytes> {
        let data = {
            let files = self.files.lock();
            match files.get(name) {
                Some(f) => Bytes::copy_from_slice(&f[offset.min(f.len())..]),
                None => return Err(Error::FileNotFound(name.to_string())),
            }
        };
        self.bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.read_pacer.transfer(data.len());
        Ok(data)
    }

    /// File size without paying any I/O cost (metadata access).
    pub fn len(&self, name: &str) -> Result<usize> {
        self.files
            .lock()
            .get(name)
            .map(|f| f.len())
            .ok_or_else(|| Error::FileNotFound(name.to_string()))
    }

    /// Whether the device holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.lock().is_empty()
    }

    /// Names of all files with the given prefix, in lexicographic order.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .lock()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Delete a file (no-op if absent). Deletion is metadata-only.
    pub fn delete(&self, name: &str) {
        self.files.lock().remove(name);
    }

    /// Snapshot cumulative counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            elapsed_secs: self.epoch.lock().elapsed().as_secs_f64(),
        }
    }

    /// Reset counters and the measurement window (used between benchmark
    /// phases).
    pub fn reset_stats(&self) {
        self.bytes_written.store(0, Ordering::Relaxed);
        self.bytes_read.store(0, Ordering::Relaxed);
        self.fsyncs.store(0, Ordering::Relaxed);
        *self.epoch.lock() = Instant::now();
    }

    /// Total bytes across all files (the "log size" of Table 1).
    pub fn total_bytes(&self) -> u64 {
        self.files.lock().values().map(|f| f.len() as u64).sum()
    }

    /// Live bytes under one namespace prefix (e.g. `"log/"`, `"ckpt/"`) —
    /// the per-namespace footprint the durable-space lifecycle bounds.
    /// Metadata-only, like [`SimDisk::len`]: no simulated I/O cost.
    pub fn bytes_under(&self, prefix: &str) -> u64 {
        self.files
            .lock()
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, f)| f.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk() -> SimDisk {
        SimDisk::new(DiskConfig::unthrottled("test"))
    }

    #[test]
    fn append_then_read_roundtrips() {
        let d = disk();
        d.append("log/0001", b"hello ");
        d.append("log/0001", b"world");
        assert_eq!(&d.read("log/0001").unwrap()[..], b"hello world");
        assert_eq!(d.len("log/0001").unwrap(), 11);
    }

    #[test]
    fn missing_file_is_an_error() {
        let d = disk();
        assert!(matches!(d.read("nope"), Err(Error::FileNotFound(_))));
        assert!(d.len("nope").is_err());
    }

    #[test]
    fn list_respects_prefix_and_order() {
        let d = disk();
        d.append("log/0002", b"b");
        d.append("log/0001", b"a");
        d.append("ckpt/0001", b"c");
        assert_eq!(d.list("log/"), vec!["log/0001", "log/0002"]);
        assert_eq!(d.list("ckpt/"), vec!["ckpt/0001"]);
        assert!(d.list("zzz").is_empty());
    }

    #[test]
    fn stats_count_bytes_and_fsyncs() {
        let d = disk();
        d.append("f", &[0u8; 100]);
        d.read("f").unwrap();
        d.fsync();
        let s = d.stats();
        assert_eq!(s.bytes_written, 100);
        assert_eq!(s.bytes_read, 100);
        assert_eq!(s.fsyncs, 1);
        d.reset_stats();
        assert_eq!(d.stats().bytes_written, 0);
    }

    #[test]
    fn write_file_replaces_contents() {
        let d = disk();
        d.append("m", b"old");
        d.write_file("m", b"new!");
        assert_eq!(&d.read("m").unwrap()[..], b"new!");
    }

    #[test]
    fn bytes_under_tracks_namespaces() {
        let d = disk();
        d.append("log/00/0000000001", &[1u8; 10]);
        d.append("log/01/0000000002", &[1u8; 5]);
        d.append("ckpt/00000000000000000003/t000.s0000", &[2u8; 7]);
        d.append("pepoch.log", &[0u8; 8]);
        assert_eq!(d.bytes_under("log/"), 15);
        assert_eq!(d.bytes_under("ckpt/"), 7);
        assert_eq!(d.bytes_under("nope/"), 0);
        d.delete("log/00/0000000001");
        assert_eq!(d.bytes_under("log/"), 5);
    }

    #[test]
    fn delete_removes_and_total_bytes_tracks() {
        let d = disk();
        d.append("a", &[1u8; 10]);
        d.append("b", &[2u8; 20]);
        assert_eq!(d.total_bytes(), 30);
        d.delete("a");
        assert_eq!(d.total_bytes(), 20);
        assert!(d.read("a").is_err());
    }

    #[test]
    fn throttled_write_takes_time() {
        let d = SimDisk::new(DiskConfig {
            name: "slow".into(),
            read_bw: f64::INFINITY,
            write_bw: 1.0e6, // 1 MB/s
            fsync_latency: Duration::ZERO,
        });
        let t0 = Instant::now();
        d.append("f", &vec![0u8; 200_000]); // 0.2 s at 1 MB/s
        d.fsync();
        assert!(t0.elapsed() >= Duration::from_millis(150));
    }

    #[test]
    fn fsync_latency_is_charged() {
        let d = SimDisk::new(DiskConfig {
            name: "lat".into(),
            read_bw: f64::INFINITY,
            write_bw: f64::INFINITY,
            fsync_latency: Duration::from_millis(20),
        });
        let t0 = Instant::now();
        d.fsync();
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }
}
