//! Per-tuple spin latches.
//!
//! The paper's tuple-level recovery schemes (PLR, LLR) must latch each tuple
//! they restore; Figs. 14/15 show that latch becoming the scalability
//! bottleneck past ~20 threads. The latch is a plain test-and-test-and-set
//! spinlock so its contention behaviour is faithful to what a C++ engine
//! would exhibit.

use std::sync::atomic::{AtomicBool, Ordering};

/// A test-and-test-and-set spin latch.
#[derive(Debug, Default)]
pub struct SpinLatch {
    locked: AtomicBool,
}

impl SpinLatch {
    /// A new, unlocked latch.
    pub const fn new() -> Self {
        SpinLatch {
            locked: AtomicBool::new(false),
        }
    }

    /// Spin until the latch is acquired.
    #[inline]
    pub fn lock(&self) {
        loop {
            if !self.locked.swap(true, Ordering::Acquire) {
                return;
            }
            while self.locked.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
    }

    /// Try to acquire without spinning.
    #[inline]
    pub fn try_lock(&self) -> bool {
        !self.locked.swap(true, Ordering::Acquire)
    }

    /// Whether someone holds the latch right now. An Acquire load: seeing
    /// it free after a holder's [`SpinLatch::unlock`] also shows everything
    /// the holder wrote before unlocking (optimistic read validation).
    #[inline]
    pub fn is_locked(&self) -> bool {
        self.locked.load(Ordering::Acquire)
    }

    /// Release the latch. Callers must hold it.
    #[inline]
    pub fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
    }

    /// RAII acquisition.
    #[inline]
    pub fn guard(&self) -> SpinGuard<'_> {
        self.lock();
        SpinGuard { latch: self }
    }
}

/// RAII guard for [`SpinLatch`].
pub struct SpinGuard<'a> {
    latch: &'a SpinLatch,
}

impl Drop for SpinGuard<'_> {
    fn drop(&mut self) {
        self.latch.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_lock_fails_when_held() {
        let l = SpinLatch::new();
        assert!(l.try_lock());
        assert!(l.is_locked());
        assert!(!l.try_lock());
        l.unlock();
        assert!(!l.is_locked());
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn guard_releases_on_drop() {
        let l = SpinLatch::new();
        {
            let _g = l.guard();
            assert!(!l.try_lock());
        }
        assert!(l.try_lock());
        l.unlock();
    }

    #[test]
    fn latch_provides_mutual_exclusion() {
        let latch = Arc::new(SpinLatch::new());
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut unsynced = 0u64;
        let ptr = &mut unsynced as *mut u64 as usize;
        let mut handles = Vec::new();
        for _ in 0..4 {
            let latch = Arc::clone(&latch);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    let _g = latch.guard();
                    // Non-atomic RMW protected only by the latch.
                    unsafe {
                        let p = ptr as *mut u64;
                        *p += 1;
                    }
                    counter.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(unsynced, 40_000);
        assert_eq!(counter.load(Ordering::Relaxed), 40_000);
    }
}
