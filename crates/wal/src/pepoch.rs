//! The persistent epoch (pepoch): the durability frontier.
//!
//! Appendix A: "a new thread, called pepoch thread, … continuously detects
//! the slowest progress of these logger threads. If all the loggers have
//! finished persisting epoch `i`, the pepoch thread writes the number `i`
//! into a file named pepoch.log and notifies the workers that query results
//! generated for any transaction before epoch `i+1` can be returned."
//!
//! Departure: there is no pepoch thread. A logger learns the frontier at
//! the moment it seals, so the logger whose seal raises the minimum over
//! all loggers' sealed epochs does the pepoch thread's job itself (see
//! [`Frontier::publish`]). Acknowledgement then waits for the two fsyncs
//! and nothing else — no poll interval, and no extra always-running
//! thread per logging stack.

use pacman_obs::Stage;
use pacman_storage::SimDisk;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Name of the persisted epoch file (on device 0).
pub const PEPOCH_FILE: &str = "pepoch.log";

/// Group-commit acknowledgement signal: the publishing logger fires one
/// `notify_all` per durability-frontier advance, waking *every*
/// transaction waiting in the sealed batch at once — acknowledgement cost
/// is paid per epoch, not per transaction. Waits use a timeout fallback so
/// a signal raced with shutdown can never strand a waiter.
#[derive(Default)]
pub struct DurableSignal {
    lock: std::sync::Mutex<()>,
    cond: std::sync::Condvar,
}

impl DurableSignal {
    /// Wake every waiter (one call covers the whole sealed batch).
    pub fn notify(&self) {
        let _g = self.lock.lock().unwrap();
        self.cond.notify_all();
    }

    /// Block until `ready()` reports true, waking on each notify (with a
    /// bounded fallback poll so missed notifies degrade, not deadlock).
    pub fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        if ready() {
            return;
        }
        let mut g = self.lock.lock().unwrap();
        while !ready() {
            let (g2, _timeout) = self.cond.wait_timeout(g, Duration::from_millis(2)).unwrap();
            g = g2;
        }
    }

    /// Wait for one notify or `max` elapsing, whichever is first.
    pub fn wait_for(&self, max: Duration) {
        let g = self.lock.lock().unwrap();
        let _ = self.cond.wait_timeout(g, max).unwrap();
    }
}

/// The durability frontier shared by one stack's loggers: each logger's
/// sealed epoch, the published frontier and the signal its waiters block
/// on.
pub struct Frontier {
    /// Per logger: highest epoch written and fsynced, or `u64::MAX` once
    /// a graceful drain completed its stream.
    sealed: Vec<AtomicU64>,
    /// Highest epoch any logger sealed — never the sentinel, so
    /// `pepoch.log` always holds a real epoch the next incarnation can
    /// resume numbering from.
    highest: AtomicU64,
    /// Device 0, which holds [`PEPOCH_FILE`].
    disk: Arc<SimDisk>,
    /// Keeps two loggers from writing the file out of order.
    publish_lock: Mutex<()>,
    /// The published frontier: every epoch `<=` it is durable, and so is
    /// the file that says so.
    pub(crate) value: Arc<AtomicU64>,
    /// Woken once per frontier advance.
    pub(crate) signal: Arc<DurableSignal>,
}

/// Kept so `PepochHandle::read_persisted`, the path recovery and the
/// benchmark read the persisted frontier through, stays callable.
pub type PepochHandle = Frontier;

impl Frontier {
    /// A frontier over `loggers` loggers whose epochs `<= resume_from`
    /// belong to a recovered prefix (0 for a fresh directory). Publishes
    /// `pepoch.log` on `disk`.
    pub fn new(loggers: usize, resume_from: u64, disk: Arc<SimDisk>) -> Self {
        Frontier {
            sealed: (0..loggers).map(|_| AtomicU64::new(resume_from)).collect(),
            highest: AtomicU64::new(resume_from),
            disk,
            publish_lock: Mutex::new(()),
            value: Arc::new(AtomicU64::new(0)),
            signal: Arc::default(),
        }
    }

    /// Logger `id`'s sealed epoch (`u64::MAX` after a graceful drain).
    pub fn sealed_epoch(&self, id: usize) -> u64 {
        self.sealed[id].load(Ordering::SeqCst)
    }

    /// Logger `id` wrote and fsynced every epoch `<= epoch` — or, with
    /// `epoch == u64::MAX`, drained gracefully, so nothing further can
    /// reach it and it stops pinning the frontier. Records it and publishes.
    pub fn seal(&self, id: usize, epoch: u64) {
        if epoch != u64::MAX {
            self.highest.fetch_max(epoch, Ordering::SeqCst);
        }
        self.sealed[id].store(epoch, Ordering::SeqCst);
        self.publish();
    }

    /// The frontier the loggers' counters allow: the slowest logger's
    /// sealed epoch, or — once every stream is complete — the highest epoch
    /// any logger actually wrote (a real epoch, never the sentinel).
    fn reached(&self) -> u64 {
        let min = self
            .sealed
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .min()
            .unwrap_or(0);
        if min != u64::MAX {
            return min;
        }
        self.highest.load(Ordering::SeqCst)
    }

    /// Advance the frontier to what the counters allow: write and fsync
    /// `pepoch.log`, then store the value and wake the waiters. Returns
    /// without taking the lock when the frontier did not move.
    ///
    /// Every store to a counter is followed by a `publish` from the same
    /// thread with no stop check in between ([`Frontier::seal`]). The
    /// counters are `SeqCst`, so of two loggers storing at once at least
    /// one sees both stores, and the last seal's publisher always reaches
    /// the true minimum. A crash therefore needs no final pass: each seal
    /// is published by the thread that made it, and nothing is published
    /// once the loggers have stopped. The value is stored only after the
    /// file is durable, so a waiter released by it never runs ahead of
    /// what recovery will read back.
    pub fn publish(&self) {
        if self.reached() <= self.value.load(Ordering::Acquire) {
            return;
        }
        let _g = self.publish_lock.lock();
        let prev = self.value.load(Ordering::Acquire);
        let frontier = self.reached();
        if frontier <= prev {
            return;
        }
        stamp_epochs(prev, frontier, Stage::Persisted);
        self.disk.write_file(PEPOCH_FILE, &frontier.to_le_bytes());
        self.disk.fsync();
        self.value.store(frontier, Ordering::Release);
        // One wakeup acknowledges the whole sealed batch.
        self.signal.notify();
        stamp_epochs(prev, frontier, Stage::Acked);
    }

    /// Read the persisted pepoch from a device (recovery entry point).
    pub fn read_persisted(disk: &SimDisk) -> u64 {
        match disk.read(PEPOCH_FILE) {
            Ok(bytes) if bytes.len() >= 8 => u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            _ => 0,
        }
    }
}

/// Stamp `stage` for the epochs in `(after, upto]`, capped to the span
/// table's window so a catch-up over thousands of idle epochs never spins.
pub(crate) fn stamp_epochs(after: u64, upto: u64, stage: Stage) {
    let spans = pacman_obs::spans();
    let lo = after.max(upto.saturating_sub(pacman_obs::SPAN_SLOTS as u64));
    for e in lo + 1..=upto {
        spans.record(e, stage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_storage::DiskConfig;

    /// Seal, then check that a repeat publish is free and that the file
    /// holds the published value.
    fn seal(f: &Frontier, id: usize, epoch: u64) -> u64 {
        f.seal(id, epoch);
        let fsyncs = f.disk.stats().fsyncs;
        f.publish();
        assert_eq!(f.disk.stats().fsyncs, fsyncs, "no move, no write");
        let value = f.value.load(Ordering::Acquire);
        assert_eq!(Frontier::read_persisted(&f.disk), value);
        value
    }

    #[test]
    fn publish_tracks_the_slowest_logger() {
        let f = Frontier::new(2, 0, Arc::new(SimDisk::new(DiskConfig::unthrottled("t"))));
        assert_eq!(seal(&f, 0, 5), 0, "slowest logger pins pepoch");
        assert_eq!(seal(&f, 1, 3), 3);
        assert_eq!(seal(&f, 1, 7), 5);
        // A drained logger stops pinning the frontier.
        assert_eq!(seal(&f, 0, u64::MAX), 7);
        // Every stream complete: the highest real epoch, never the sentinel.
        assert_eq!(seal(&f, 1, u64::MAX), 7);
        // A lower view never moves it backwards.
        assert_eq!(seal(&f, 1, 2), 7);
    }

    #[test]
    fn missing_pepoch_file_reads_zero() {
        let disk = SimDisk::new(DiskConfig::unthrottled("t"));
        assert_eq!(PepochHandle::read_persisted(&disk), 0);
    }
}
