//! The global logical clock issuing commit timestamps.
//!
//! Commit timestamps double as the total commitment order that recovery must
//! reproduce (§3: "entries in each log batch are strictly ordered according
//! to the transaction commitment order").

use std::sync::atomic::{AtomicU64, Ordering};

/// A commit timestamp / sequence number. `0` is reserved for "initial load".
pub type Timestamp = u64;

/// Commit timestamps embed the group-commit epoch in their upper bits
/// (Silo-style TIDs): `ts = (epoch << EPOCH_SHIFT) | seq`. Because the epoch
/// is read *while the write latches are held*, conflicting transactions can
/// never commit with timestamps whose epoch order contradicts their
/// serialization order — which is what lets recovery replay log batches
/// (groups of epochs) strictly in batch order.
pub const EPOCH_SHIFT: u32 = 40;

/// The epoch a timestamp belongs to.
#[inline]
pub const fn epoch_of(ts: Timestamp) -> u64 {
    ts >> EPOCH_SHIFT
}

/// The smallest timestamp belonging to `epoch`.
#[inline]
pub const fn epoch_floor(epoch: u64) -> Timestamp {
    epoch << EPOCH_SHIFT
}

/// Monotonic logical clock. One per database instance.
#[derive(Debug)]
pub struct LogicalClock {
    now: AtomicU64,
}

impl LogicalClock {
    /// A clock starting at 1 (0 = initial-load version).
    pub fn new() -> Self {
        LogicalClock {
            now: AtomicU64::new(1),
        }
    }

    /// A clock resuming from `at` (used when recovery re-installs state).
    pub fn starting_at(at: Timestamp) -> Self {
        LogicalClock {
            now: AtomicU64::new(at.max(1)),
        }
    }

    /// Claim the next timestamp (unique, strictly increasing).
    #[inline]
    pub fn tick(&self) -> Timestamp {
        self.now.fetch_add(1, Ordering::SeqCst)
    }

    /// Claim the next timestamp, guaranteed to be strictly greater than
    /// both every previously issued timestamp and `floor`. Used by the
    /// commit path to fold the current epoch into the timestamp
    /// (`floor = epoch << EPOCH_SHIFT`).
    #[inline]
    pub fn tick_at_least(&self, floor: Timestamp) -> Timestamp {
        let prev = self
            .now
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                Some(cur.max(floor) + 1)
            })
            .expect("fetch_update closure always returns Some");
        prev.max(floor)
    }

    /// Latest issued timestamp + 1 (i.e. the next value `tick` would return).
    #[inline]
    pub fn peek(&self) -> Timestamp {
        self.now.load(Ordering::SeqCst)
    }

    /// Advance the clock to at least `to` (recovery replays fixed
    /// timestamps, then normal processing resumes past them).
    pub fn advance_to(&self, to: Timestamp) {
        self.now.fetch_max(to, Ordering::SeqCst);
    }

    /// Take the next timestamp `ts` for a snapshot rather than a commit:
    /// no commit is ever issued it. `publish(ts)` runs before the clock
    /// moves past `ts`, and the move is a swap from exactly `ts`, so every
    /// timestamp above `ts` is drawn after it. If a commit drew `ts`
    /// meanwhile, `publish` runs again with the new next timestamp.
    pub fn reserve(&self, mut publish: impl FnMut(Timestamp)) -> Timestamp {
        let mut ts = self.peek();
        loop {
            publish(ts);
            match self
                .now
                .compare_exchange(ts, ts + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return ts,
                Err(now) => ts = now,
            }
        }
    }
}

impl Default for LogicalClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn ticks_are_unique_and_increasing() {
        let c = LogicalClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
        assert_eq!(c.peek(), b + 1);
    }

    #[test]
    fn tick_at_least_respects_floor_and_uniqueness() {
        let c = LogicalClock::new();
        let a = c.tick(); // 1
        let b = c.tick_at_least(100);
        assert!(b >= 100 && b > a);
        let d = c.tick_at_least(50); // floor below current: still unique
        assert!(d > b);
        let e = c.tick();
        assert!(e > d);
    }

    #[test]
    fn epoch_composition_orders_across_epochs() {
        let t1 = epoch_floor(5) | 1000;
        let t2 = epoch_floor(6) | 1;
        assert!(t2 > t1);
        assert_eq!(epoch_of(t1), 5);
        assert_eq!(epoch_of(t2), 6);
    }

    #[test]
    fn advance_never_goes_backwards() {
        let c = LogicalClock::new();
        c.advance_to(100);
        assert_eq!(c.peek(), 100);
        c.advance_to(50);
        assert_eq!(c.peek(), 100);
    }

    #[test]
    fn reserved_timestamps_are_published_first_and_never_issued() {
        let c = LogicalClock::new();
        assert_eq!(c.tick(), 1);
        let mut published = Vec::new();
        assert_eq!(c.reserve(|ts| published.push((ts, c.peek()))), 2);
        assert_eq!(published, vec![(2, 2)], "published before the move");
        assert_eq!(c.tick(), 3);
    }

    #[test]
    fn concurrent_ticks_are_unique() {
        let c = Arc::new(LogicalClock::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.tick()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8000, "duplicate timestamps issued");
    }
}
