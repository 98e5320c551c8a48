//! The per-tuple chain: the newest version, one held pre-image, the tuple
//! latch, and a latch-free "newest" slot.
//!
//! The [`SpinLatch`] is the synchronization point the paper's evaluation
//! revolves around: normal OCC commits take it briefly; PLR/LLR recovery
//! threads take it on every restored tuple (the Fig. 15 bottleneck);
//! PACMAN's recovery never takes it ("CLR-P does not require latching",
//! §6.2.2) because the schedule already serializes conflicting pieces.
//!
//! # One version, plus one for a checkpoint
//!
//! A chain keeps its newest version and nothing else, with one exception:
//! while a snapshot hold is live ([`crate::Database::snapshot_hold`]), the
//! commit that displaces the version visible at the hold keeps it as the
//! chain's `held` pre-image, for the checkpoint scan. Recovery needs no
//! history at all: every scheme installs last-writer-wins by timestamp.
//!
//! # The newest slot
//!
//! The dominant read shapes — `newest()` and `newest_ts()` during OCC
//! validation — never touch the state `Mutex`. Installers publish the
//! newest version's `(ts, pointer, length)` — the timestamp and the two
//! halves of the [`Row`] image's raw fat pointer ([`Row::into_raw`]) — into
//! a seqlock-guarded slot (the same writer-parity recipe as the
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

use pacman_common::{Row, SpinLatch, Timestamp};
use parking_lot::Mutex;
use std::fmt;
use std::mem::ManuallyDrop;
use std::sync::atomic::{fence, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Torn-snapshot retries before a slot reader falls back to the `Mutex`.
const SLOT_SPIN_LIMIT: u32 = 64;

/// One tuple version: its commit timestamp and image (`None`: absent or
/// deleted).
type Version = (Timestamp, Option<Row>);

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

/// Mutex-protected chain state.
#[derive(Default)]
struct ChainState {
    /// The newest version; `(0, None)` for a chain nothing was installed
    /// into.
    newest: Version,
    /// The version visible at the live snapshot hold, once a newer one
    /// displaced it (see [`TupleChain::install_committed`]).
    held: Option<Version>,
    /// Slot pointers awaiting quiescence.
    retired: Vec<RetiredRow>,
}

impl ChainState {
    /// The image visible at `at`, for a snapshot hold at `at`: the newest
    /// version if it is old enough, the held pre-image otherwise.
    fn visible_at(&self, at: Timestamp) -> Option<&Row> {
        let (_, row) = if self.newest.0 <= at {
            &self.newest
        } else {
            self.held.as_ref()?
        };
        row.as_ref()
    }
}

/// One tuple: latch + newest version (+ held pre-image) + latch-free
/// newest slot.
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
        Self::with_version(0, None)
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
        let p = *self.slot_ptr.get_mut();
        if !p.is_null() {
            // Exclusive access: nobody can read the slot any more, and it
            // owns one reference.
            drop(RetiredRow(raw_image(p, *self.slot_len.get_mut())));
        }
    }
}

impl TupleChain {
    /// An empty chain.
    pub fn new() -> Self {
        Self::default()
    }

    /// A chain seeded with one version (initial load / checkpoint load).
    /// Nobody shares the chain yet, so the state and the slot are written
    /// directly — no lock, no seqlock round.
    pub fn with_version(ts: Timestamp, row: Option<Row>) -> Self {
        let slot = row
            .clone()
            .map_or(raw_image(std::ptr::null_mut(), 0), Row::into_raw);
        TupleChain {
            latch: SpinLatch::default(),
            state: Mutex::new(ChainState {
                newest: (ts, row),
                ..ChainState::default()
            }),
            slot_seq: AtomicU64::new(0),
            slot_ts: AtomicU64::new(ts),
            slot_ptr: AtomicPtr::new(slot as *mut u8),
            slot_len: AtomicUsize::new(slot.len()),
            slot_readers: AtomicU64::new(0),
        }
    }

    /// Publish the state's newest version into the slot. Callers hold
    /// `state`'s lock, which serializes writers; the seqlock + presence
    /// counter make the slot safe against lock-free readers.
    fn publish_newest(&self, st: &mut ChainState) {
        let (ts, row) = (st.newest.0, st.newest.1.as_ref());
        let expect = row.map_or(std::ptr::null(), Row::as_ptr);
        // Slot already current (a stale last-writer-wins install lost):
        // skip the publish and the pointer churn.
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
    fn slot_read(&self) -> Option<Version> {
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
    pub fn newest(&self) -> Version {
        if let Some(pair) = self.slot_read() {
            return pair;
        }
        self.state.lock().newest.clone()
    }

    /// Call `f` with the image visible at `at` (`None`: absent or deleted),
    /// borrowed in place: no presence announcement, no refcount. Falls back
    /// to the state `Mutex` — and the held pre-image — when the newest
    /// version is too new.
    ///
    /// # Safety
    /// The image the slot names when it is visible at `at` must stay alive
    /// until `f` returns: every commit at or below `at` has installed, a
    /// commit that displaces the version visible at `at` keeps it as the
    /// held pre-image, and no install replaces a version outright.
    /// [`crate::SnapshotHold`] establishes the first two; the third is a
    /// property of when checkpoint rounds run.
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
                // stays in the state — as the newest version, or as the
                // held pre-image once a commit displaces it, either of
                // which holds its own reference — until `f` returns. The
                // borrowed image is never dropped, so no count moves.
                let row = ManuallyDrop::new(unsafe { Row::from_raw(raw_image(ptr, len)) });
                return f(Some(&row));
            }
        }
        f(self.state.lock().visible_at(at))
    }

    /// Timestamp of the newest version (0 if none). Never takes a lock:
    /// `slot_ts` is a single monotonic atomic, so no pairing is needed.
    pub fn newest_ts(&self) -> Timestamp {
        self.slot_ts.load(Ordering::Acquire)
    }

    /// Commit-path install (callers hold the latch; monotonic timestamps).
    /// `hold` is the live snapshot hold's timestamp, loaded after `ts` was
    /// drawn (see [`crate::Database::snapshot_hold`]).
    ///
    /// A displaced version at or below the hold is the one visible at it:
    /// every commit after the hold draws a timestamp above it. So it
    /// becomes the held pre-image, and later installs — which displace
    /// versions above the hold — leave that alone. The first install
    /// after the hold is gone drops it.
    ///
    /// Takes the image as a shared [`Row`]: the committing transaction's
    /// pending write, the chain state, the newest slot, and the log
    /// after-image all hold the same allocation — installs never copy.
    pub fn install_committed(&self, ts: Timestamp, row: Option<Row>, hold: Option<Timestamp>) {
        let mut st = self.state.lock();
        debug_assert!(
            st.newest.0 < ts,
            "non-monotonic commit install: {} then {ts}",
            st.newest.0
        );
        let displaced = std::mem::replace(&mut st.newest, (ts, row));
        match hold {
            Some(hold) if displaced.0 <= hold => st.held = Some(displaced),
            Some(_) => {}
            None => st.held = None,
        }
        self.publish_newest(&mut st);
    }

    /// Last-writer-wins install (every recovery scheme, and seeding): the
    /// chain takes `(ts, row)` unless its newest version is newer. Equal
    /// timestamps resolve to the later install.
    pub fn install_lww(&self, ts: Timestamp, row: Option<Row>) {
        let mut st = self.state.lock();
        if st.newest.0 <= ts {
            st.newest = (ts, row);
        }
        self.publish_newest(&mut st);
    }

    /// Hold the internal state `Mutex` for the duration of `f`.
    /// Test-only hook: lets the stress suite prove that `newest()` /
    /// `newest_ts()` complete while the lock is held by someone else (i.e.
    /// the fast path really is lock-free).
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

    /// The image visible at a hold at `at`, as the scan's locked fallback
    /// reads it.
    fn visible(c: &TupleChain, at: Timestamp) -> Option<Value> {
        c.state.lock().visible_at(at).map(|r| r.col(0))
    }

    #[test]
    fn commit_install_and_read() {
        let c = TupleChain::with_version(1, row(10));
        c.install_committed(5, row(50), None);
        assert_eq!(c.newest().0, 5);
        assert_eq!(c.newest().1.unwrap().col(0), Value::Int(50));
        assert!(c.state.lock().held.is_none(), "no hold, no pre-image");
    }

    #[test]
    fn held_pre_image_lifecycle() {
        let hold = 5;
        // Two installs above the hold: the version visible at it stays.
        let c = TupleChain::with_version(1, row(10));
        c.install_committed(6, row(60), Some(hold));
        c.install_committed(7, row(70), Some(hold));
        assert_eq!(visible(&c, hold), Some(Value::Int(10)));
        assert_eq!(c.newest().1.unwrap().col(0), Value::Int(70));
        // A key created after the hold reads absent at it.
        let fresh = TupleChain::new();
        fresh.install_committed(8, row(80), Some(hold));
        assert_eq!(visible(&fresh, hold), None);
        assert_eq!(visible(&fresh, 8), Some(Value::Int(80)));
        // The first install after the hold drops clears the pre-image.
        c.install_committed(9, row(90), None);
        assert!(c.state.lock().held.is_none());
        assert_eq!(visible(&c, hold), None);
    }

    #[test]
    fn newest_slot_tracks_every_install_kind() {
        let c = TupleChain::new();
        assert_eq!(c.newest(), (0, None));
        assert_eq!(c.newest_ts(), 0);

        c.install_committed(3, row(30), None);
        assert_eq!(c.newest_ts(), 3);
        assert_eq!(c.newest().1.unwrap().col(0), Value::Int(30));

        // A stale LWW install loses and must not disturb the slot.
        c.install_lww(2, row(20));
        assert_eq!(c.newest_ts(), 3);
        assert_eq!(c.newest().1.unwrap().col(0), Value::Int(30));

        // A newer one advances it; an equal one wins too.
        c.install_lww(7, row(70));
        assert_eq!(c.newest_ts(), 7);
        assert_eq!(c.newest().1.unwrap().col(0), Value::Int(70));
        c.install_lww(7, row(71));
        assert_eq!(c.newest().1.unwrap().col(0), Value::Int(71));

        c.install_lww(9, None);
        assert_eq!(c.newest_ts(), 9);
        assert!(c.newest().1.is_none(), "tombstone publishes a null row");
    }

    #[test]
    fn fast_path_does_not_need_the_version_mutex() {
        let c = Arc::new(TupleChain::with_version(4, row(40)));
        let c2 = Arc::clone(&c);
        // If newest()/newest_ts() touched the Mutex, this would deadlock
        // (we hold it for the whole closure).
        c.with_versions_locked(move || {
            assert_eq!(c2.newest_ts(), 4);
            assert_eq!(c2.newest().1.unwrap().col(0), Value::Int(40));
        });
    }

    #[test]
    fn reads_share_the_row_image() {
        let c = TupleChain::with_version(1, row(10));
        let a = c.newest().1.unwrap();
        let b = c.newest().1.unwrap();
        assert!(Row::ptr_eq(&a, &b), "reads must share one image");
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
                        c.install_committed(ts, row(ts as i64), Some(2000));
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
        assert_eq!(visible(&c, 2000), Some(Value::Int(2000)));
    }
}
