//! The per-tuple chain: a version list, the tuple latch, and a latch-free
//! "newest" slot.
//!
//! The [`SpinLatch`] is the synchronization point the paper's evaluation
//! revolves around: normal OCC commits take it briefly; PLR/LLR recovery
//! threads take it on every restored tuple (the Fig. 15 bottleneck);
//! PACMAN's recovery never takes it ("CLR-P does not require latching",
//! §6.2.2) because the schedule already serializes conflicting pieces.
//!
//! # The newest slot
//!
//! The dominant read shapes — `read_at(ts)` where the newest version is
//! visible, and `newest_ts()` during OCC validation — never touch the
//! version `Mutex`. Installers publish the newest version's
//! `(ts, pointer, length)` — the timestamp and the two halves of the
//! [`Row`] image's raw fat pointer ([`Row::into_raw`]) — into a
//! seqlock-guarded slot (the same writer-parity recipe as the
//! flight-recorder ring in `pacman_obs::trace`): bump the sequence odd,
//! store the triple, bump it even. Readers snapshot the triple and retry if
//! the sequence moved, so they never pair one image's pointer with another
//! image's length.
//!
//! A plain seqlock cannot hand out an owned [`Row`], though: the reader
//! bumps the image's refcount after validating, and by then the writer
//! could have dropped the slot's reference and freed the image. The slot
//! therefore pairs the seqlock with a reader-presence counter: readers
//! announce themselves (`slot_readers`, SeqCst) before touching the
//! pointer, and writers move displaced images onto a retired list that is
//! only reclaimed when, *after* swapping the slot (SeqCst), they observe
//! zero present readers. By SC total order, any reader that shows up later
//! also loads the pointer later and thus sees the new slot value — never a
//! retired image. Readers fall back to the `Mutex` after a bounded number
//! of torn snapshots, so the fast path never spins unboundedly against a
//! storm of writers.
//!
//! # The held read
//!
//! The checkpoint scan ([`TupleChain::visit_held`]) reads the same slot
//! with neither the presence counter nor a refcount — it writes no shared
//! cache line. It borrows the image in place, which is sound only while
//! the version it names cannot be freed; the argument is on
//! [`crate::SnapshotHold::for_each_visible_in_shard`], the one caller.

use crate::version::{VersionEntry, VersionList};
use pacman_common::{Row, SpinLatch, Timestamp};
use pacman_obs::{Counter, Gauge};
use parking_lot::Mutex;
use std::fmt;
use std::mem::ManuallyDrop;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Default number of versions a chain may retain before a commit-path
/// install prunes below the snapshot floor. Overridable per database via
/// [`crate::Database::set_version_prune_threshold`] (plumbed from
/// `DurabilityConfig::version_prune_threshold`).
pub const DEFAULT_VERSION_PRUNE_THRESHOLD: usize = 4;

/// Torn-snapshot retries before a slot reader falls back to the `Mutex`.
const SLOT_SPIN_LIMIT: u32 = 64;

/// Registry-backed version-memory telemetry, bound lazily like the OCC
/// counters in `txn.rs` so installs pay one `OnceLock` load + relaxed add.
pub(crate) fn versions_retained() -> &'static Gauge {
    static G: OnceLock<Gauge> = OnceLock::new();
    G.get_or_init(|| pacman_obs::registry().gauge("engine.versions.retained"))
}

fn versions_pruned() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| pacman_obs::registry().counter("engine.versions.pruned"))
}

/// An image reference displaced from the newest slot, held until the
/// displacing writer proves no reader can still dereference it.
struct RetiredRow(*const [u8]);

// SAFETY: the pointer is a reference produced by `Row::into_raw`; `Row`
// itself is Send + Sync, we only move the obligation to drop.
unsafe impl Send for RetiredRow {}

impl Drop for RetiredRow {
    fn drop(&mut self) {
        // SAFETY: a retired pointer came from `Row::into_raw` and is taken
        // back exactly once, here. It is dropped only when no slot reader
        // can reach it (see `publish_newest`) or the chain itself is gone.
        drop(unsafe { Row::from_raw(self.0) });
    }
}

/// Mutex-protected chain state: the version list plus retired slot
/// pointers awaiting quiescence.
#[derive(Default)]
struct ChainState {
    list: VersionList,
    retired: Vec<RetiredRow>,
}

/// One tuple: latch + versions + latch-free newest slot.
pub struct TupleChain {
    /// The tuple latch (commit path and latched recovery schemes).
    pub latch: SpinLatch,
    state: Mutex<ChainState>,
    /// Seqlock sequence for the slot: even = stable, odd = publish in
    /// progress. Only mutated while holding `state`'s lock.
    slot_seq: AtomicU64,
    /// Newest version's timestamp. Monotonic under normal processing, so
    /// it is safe to read on its own (no pairing with the row needed).
    slot_ts: AtomicU64,
    /// Newest version's image: the pointer half of one reference from
    /// [`Row::into_raw`] (null = no version yet or tombstone; `slot_ts`
    /// disambiguates — an empty chain has ts 0).
    slot_ptr: AtomicPtr<u8>,
    /// The length half of the same raw image pointer.
    slot_len: AtomicUsize,
    /// Readers currently inside the slot protocol.
    slot_readers: AtomicU64,
}

/// The slot's raw image pointer from its two halves.
#[inline]
fn raw_image(ptr: *mut u8, len: usize) -> *const [u8] {
    std::ptr::slice_from_raw_parts(ptr, len)
}

/// One validated snapshot of the slot: `(ts, pointer, length)`.
type SlotTriple = (Timestamp, *mut u8, usize);

impl Default for TupleChain {
    fn default() -> Self {
        TupleChain {
            latch: SpinLatch::default(),
            state: Mutex::new(ChainState::default()),
            slot_seq: AtomicU64::new(0),
            slot_ts: AtomicU64::new(0),
            slot_ptr: AtomicPtr::new(std::ptr::null_mut()),
            slot_len: AtomicUsize::new(0),
            slot_readers: AtomicU64::new(0),
        }
    }
}

impl fmt::Debug for TupleChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TupleChain")
            .field("newest_ts", &self.slot_ts.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Drop for TupleChain {
    fn drop(&mut self) {
        let st = self.state.get_mut();
        let retained = st.list.len();
        let p = *self.slot_ptr.get_mut();
        if !p.is_null() {
            // Exclusive access: nobody can read the slot any more, and it
            // owns one reference.
            drop(RetiredRow(raw_image(p, *self.slot_len.get_mut())));
        }
        if retained > 0 {
            versions_retained().sub(retained as u64);
        }
    }
}

impl TupleChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// A chain seeded with one version (initial load / checkpoint load).
    pub fn with_version(ts: Timestamp, row: Option<Row>) -> Self {
        versions_retained().inc();
        Self::seeded(ts, row)
    }

    /// [`TupleChain::with_version`] without the gauge: the caller adds the
    /// version to `engine.versions.retained` (a bulk load adds a shard's
    /// count at once). Nobody shares the chain yet, so the list and the
    /// slot are written directly — no lock, no seqlock round.
    pub(crate) fn seeded(ts: Timestamp, row: Option<Row>) -> Self {
        let slot = row
            .clone()
            .map_or(raw_image(std::ptr::null_mut(), 0), Row::into_raw);
        TupleChain {
            latch: SpinLatch::default(),
            state: Mutex::new(ChainState {
                list: VersionList::seeded(ts, row),
                retired: Vec::new(),
            }),
            slot_seq: AtomicU64::new(0),
            slot_ts: AtomicU64::new(ts),
            slot_ptr: AtomicPtr::new(slot as *mut u8),
            slot_len: AtomicUsize::new(slot.len()),
            slot_readers: AtomicU64::new(0),
        }
    }

    /// Publish the version list's newest entry into the slot. Callers hold
    /// `state`'s lock, which serializes writers; the seqlock + presence
    /// counter make the slot safe against lock-free readers.
    fn publish_newest(&self, st: &mut ChainState) {
        let (ts, row) = match st.list.newest() {
            Some(VersionEntry { ts, row }) => (*ts, row.as_ref()),
            None => (0, None),
        };
        let expect = row.map_or(std::ptr::null(), Row::as_ptr);
        // Slot already current (e.g. an MV install below the newest, or a
        // prune): skip the publish and the pointer churn.
        if self.slot_ptr.load(Ordering::Relaxed).cast_const() == expect
            && self.slot_ts.load(Ordering::Relaxed) == ts
        {
            return;
        }
        let new = row
            .cloned()
            .map_or(raw_image(std::ptr::null_mut(), 0), Row::into_raw);
        let old_len = self.slot_len.load(Ordering::Relaxed);
        let seq = self.slot_seq.load(Ordering::Relaxed);
        // Writer parity: odd while the triple is torn (same recipe as the
        // flight-recorder ring slots).
        self.slot_seq.swap(seq.wrapping_add(1), Ordering::Acquire);
        self.slot_ts.store(ts, Ordering::Relaxed);
        self.slot_len.store(new.len(), Ordering::Relaxed);
        let old = self.slot_ptr.swap(new as *mut u8, Ordering::SeqCst);
        self.slot_seq.store(seq.wrapping_add(2), Ordering::Release);
        if !old.is_null() {
            st.retired.push(RetiredRow(raw_image(old, old_len)));
        }
        // Reclamation: safe exactly when no reader is present *after* the
        // SeqCst swap above — any reader announcing itself later also
        // loads the pointer later (SC total order) and sees the new slot,
        // so nothing on the retired list is reachable anymore.
        if !st.retired.is_empty() && self.slot_readers.load(Ordering::SeqCst) == 0 {
            st.retired.clear();
        }
    }

    /// One seqlock snapshot of the slot: `None` after bounded torn
    /// retries (a writer storm). Touches no shared cache line.
    #[inline]
    fn slot_snapshot(&self) -> Option<SlotTriple> {
        for _ in 0..SLOT_SPIN_LIMIT {
            let before = self.slot_seq.load(Ordering::Acquire);
            if before & 1 == 0 {
                let ts = self.slot_ts.load(Ordering::Relaxed);
                let ptr = self.slot_ptr.load(Ordering::SeqCst);
                let len = self.slot_len.load(Ordering::Relaxed);
                fence(Ordering::Acquire);
                if self.slot_seq.load(Ordering::Relaxed) == before {
                    return Some((ts, ptr, len));
                }
            }
            std::hint::spin_loop();
        }
        None
    }

    /// Lock-free snapshot of the slot as `(ts, image)`. `None` after
    /// bounded torn retries; callers fall back to the `Mutex`.
    fn slot_read(&self) -> Option<(Timestamp, Option<Row>)> {
        self.slot_readers.fetch_add(1, Ordering::SeqCst);
        let out = self.slot_snapshot().map(|(ts, ptr, len)| {
            let row = (!ptr.is_null()).then(|| {
                // SAFETY: `(ptr, len)` is one validated snapshot of the
                // slot, so it is exactly a pointer `Row::into_raw` returned
                // (the seqlock never lets one image's pointer pair with
                // another's length). That reference is still alive: the
                // slot holds it, or a retired list does, and retired
                // images are not reclaimed while we are announced present.
                // Cloning the borrowed image takes our own reference; the
                // borrowed one is never dropped.
                let slot = ManuallyDrop::new(unsafe { Row::from_raw(raw_image(ptr, len)) });
                Row::clone(&slot)
            });
            (ts, row)
        });
        self.slot_readers.fetch_sub(1, Ordering::Release);
        out
    }

    /// The newest version's `(ts, row)` — `row == None` covers both "no
    /// version" and tombstone. Lock-free in the common case.
    pub fn newest(&self) -> (Timestamp, Option<Row>) {
        if let Some(pair) = self.slot_read() {
            return pair;
        }
        let st = self.state.lock();
        match st.list.newest() {
            Some(VersionEntry { ts, row }) => (*ts, row.clone()),
            None => (0, None),
        }
    }

    /// Call `f` with the image visible at `at` (`None`: absent or deleted),
    /// borrowed in place: no presence announcement, no refcount. Falls back
    /// to the version `Mutex` when the newest version is too new.
    ///
    /// # Safety
    /// The image the slot names when it is visible at `at` must stay alive
    /// until `f` returns: every commit at or below `at` has installed, no
    /// prune may drop the version visible at `at`, and no install may
    /// replace a version outright. [`crate::SnapshotHold`] establishes the
    /// first two; the third is a property of when checkpoint rounds run.
    pub(crate) unsafe fn visit_held<R>(
        &self,
        at: Timestamp,
        f: impl FnOnce(Option<&Row>) -> R,
    ) -> R {
        if let Some((ts, ptr, len)) = self.slot_snapshot() {
            if ts <= at {
                if ptr.is_null() {
                    return f(None);
                }
                // SAFETY: `(ptr, len)` is one validated snapshot of the
                // slot, a pointer `Row::into_raw` returned for the newest
                // version, at `ts <= at`. By the caller's contract that
                // version is, and stays, the one visible at `at`, and it
                // stays on the version list — which holds its own
                // reference — until `f` returns. The borrowed image is
                // never dropped, so no count moves.
                let row = ManuallyDrop::new(unsafe { Row::from_raw(raw_image(ptr, len)) });
                return f(Some(&row));
            }
        }
        let st = self.state.lock();
        f(st.list.visible_at(at).and_then(|e| e.row.as_ref()))
    }

    /// Timestamp of the newest version (0 if none). Never takes a lock:
    /// `slot_ts` is a single monotonic atomic, so no pairing is needed.
    pub fn newest_ts(&self) -> Timestamp {
        self.slot_ts.load(Ordering::Acquire)
    }

    /// Latest row visible at `ts` (None if absent or deleted). Lock-free
    /// when the newest version answers (the dominant case: reading current
    /// data); older-snapshot reads walk the list under the `Mutex`.
    pub fn read_at(&self, ts: Timestamp) -> Option<Row> {
        if let Some((slot_ts, row)) = self.slot_read() {
            if slot_ts <= ts {
                // The newest version overall is visible at `ts`, so it is
                // the latest visible one. Covers the empty chain too
                // (slot = (0, null) — nothing to see).
                return row;
            }
        }
        self.state
            .lock()
            .list
            .visible_at(ts)
            .and_then(|e| e.row.clone())
    }

    /// Commit-path install (callers hold the latch; monotonic timestamps).
    /// Prunes versions older than `floor` once the chain holds more than
    /// `max_versions` entries, all inside the critical section.
    ///
    /// Takes the image as a shared [`Row`]: the committing transaction's
    /// pending write, the version list, the newest slot, and the log
    /// after-image all hold the same allocation — installs never copy.
    pub fn install_committed(
        &self,
        ts: Timestamp,
        row: Option<Row>,
        floor: Timestamp,
        max_versions: usize,
    ) {
        let mut st = self.state.lock();
        st.list.install_committed(ts, row);
        versions_retained().inc();
        if st.list.len() > max_versions {
            let dropped = st.list.prune(floor);
            if dropped > 0 {
                versions_pruned().add(dropped as u64);
                versions_retained().sub(dropped as u64);
            }
        }
        self.publish_newest(&mut st);
    }

    /// Multi-version recovery install (PLR/LLR), tolerant of out-of-order
    /// timestamps and idempotent on duplicates.
    pub fn install_mv(&self, ts: Timestamp, row: Option<Row>) {
        let mut st = self.state.lock();
        let before = st.list.len();
        st.list.install_mv(ts, row);
        let grew = st.list.len() - before; // 0 on duplicate-ts overwrite
        if grew > 0 {
            versions_retained().add(grew as u64);
        }
        self.publish_newest(&mut st);
    }

    /// Single-version last-writer-wins install (LLR-P, CLR, CLR-P).
    pub fn install_lww(&self, ts: Timestamp, row: Option<Row>) {
        let mut st = self.state.lock();
        let before = st.list.len();
        st.list.install_lww(ts, row);
        let after = st.list.len();
        if after > before {
            versions_retained().add((after - before) as u64);
        } else if before > after {
            versions_retained().sub((before - after) as u64);
        }
        self.publish_newest(&mut st);
    }

    /// Number of retained versions (test/diagnostic use).
    pub fn num_versions(&self) -> usize {
        self.state.lock().list.len()
    }

    /// Hold the internal version `Mutex` for the duration of `f`.
    /// Test-only hook: lets the stress suite prove that `newest()` /
    /// `newest_ts()` / latest-visible `read_at` complete while the lock is
    /// held by someone else (i.e. the fast path really is lock-free).
    #[doc(hidden)]
    pub fn with_versions_locked<R>(&self, f: impl FnOnce() -> R) -> R {
        let _st = self.state.lock();
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::Value;
    use std::sync::Arc;

    fn row(i: i64) -> Option<Row> {
        Some(Row::from([Value::Int(i)]))
    }

    #[test]
    fn commit_install_and_read() {
        let c = TupleChain::with_version(1, row(10));
        c.install_committed(5, row(50), 0, DEFAULT_VERSION_PRUNE_THRESHOLD);
        assert_eq!(c.newest().0, 5);
        assert_eq!(c.read_at(1).unwrap().col(0), Value::Int(10));
        assert_eq!(c.read_at(9).unwrap().col(0), Value::Int(50));
        assert!(c.read_at(0).is_none());
    }

    #[test]
    fn install_prunes_under_floor() {
        let c = TupleChain::new();
        for ts in 1..=10 {
            c.install_committed(ts, row(ts as i64), 9, DEFAULT_VERSION_PRUNE_THRESHOLD);
        }
        assert!(c.num_versions() <= 4, "chain grew to {}", c.num_versions());
        // The newest version is intact.
        assert_eq!(c.newest().0, 10);
    }

    #[test]
    fn prune_threshold_is_configurable() {
        let eager = TupleChain::new();
        for ts in 1..=10 {
            eager.install_committed(ts, row(ts as i64), ts, 1);
        }
        assert_eq!(eager.num_versions(), 1, "threshold 1 keeps only newest");

        let lazy = TupleChain::new();
        for ts in 1..=10 {
            lazy.install_committed(ts, row(ts as i64), ts, 64);
        }
        assert_eq!(lazy.num_versions(), 10, "threshold 64 never pruned here");
    }

    #[test]
    fn newest_slot_tracks_every_install_kind() {
        let c = TupleChain::new();
        assert_eq!(c.newest(), (0, None));
        assert_eq!(c.newest_ts(), 0);

        c.install_committed(3, row(30), 0, DEFAULT_VERSION_PRUNE_THRESHOLD);
        assert_eq!(c.newest_ts(), 3);
        assert_eq!(c.newest().1.unwrap().col(0), Value::Int(30));

        // MV install below the newest must not disturb the slot.
        c.install_mv(2, row(20));
        assert_eq!(c.newest_ts(), 3);
        assert_eq!(c.read_at(u64::MAX).unwrap().col(0), Value::Int(30));
        assert_eq!(c.read_at(2).unwrap().col(0), Value::Int(20));

        // MV install above it must advance the slot.
        c.install_mv(7, row(70));
        assert_eq!(c.newest_ts(), 7);
        assert_eq!(c.newest().1.unwrap().col(0), Value::Int(70));

        // LWW replaces everything.
        c.install_lww(9, None);
        assert_eq!(c.newest_ts(), 9);
        assert!(c.newest().1.is_none(), "tombstone publishes a null row");
        assert!(c.read_at(u64::MAX).is_none());
    }

    #[test]
    fn fast_path_does_not_need_the_version_mutex() {
        let c = Arc::new(TupleChain::with_version(4, row(40)));
        let c2 = Arc::clone(&c);
        // If newest()/newest_ts()/latest-visible read_at touched the
        // Mutex, this would deadlock (we hold it for the whole closure).
        c.with_versions_locked(move || {
            assert_eq!(c2.newest_ts(), 4);
            assert_eq!(c2.newest().0, 4);
            assert_eq!(c2.read_at(u64::MAX).unwrap().col(0), Value::Int(40));
        });
    }

    #[test]
    fn reads_share_the_row_image() {
        let c = TupleChain::with_version(1, row(10));
        let a = c.read_at(5).unwrap();
        let b = c.read_at(5).unwrap();
        assert!(Row::ptr_eq(&a, &b), "reads must share one image");
        let (_, n) = c.newest();
        assert!(Row::ptr_eq(&a, &n.unwrap()));
    }

    #[test]
    fn concurrent_latched_installs_stay_consistent() {
        let c = Arc::new(TupleChain::new());
        let clock = Arc::new(pacman_common::LogicalClock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                let clock = Arc::clone(&clock);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let _g = c.latch.guard();
                        let ts = clock.tick();
                        c.install_committed(
                            ts,
                            row(ts as i64),
                            ts.saturating_sub(2),
                            DEFAULT_VERSION_PRUNE_THRESHOLD,
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (ts, r) = c.newest();
        assert_eq!(ts, 4000);
        assert_eq!(r.unwrap().col(0), Value::Int(4000));
    }
}
