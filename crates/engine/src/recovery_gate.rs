//! Admission gating for online ("instant") recovery.
//!
//! During an online recovery session the engine serves new transactions
//! *while* log replay is still running on background workers. The
//! [`RecoveryGate`] is the synchronization point between the two sides:
//!
//! * the replay runtime **publishes** a monotonically increasing
//!   watermark per *partition* — the number of log batches fully applied
//!   to that partition. A partition is one global-dependency-graph block
//!   for command-log schemes, or one (table, shard) pair for tuple-level
//!   schemes; the gate itself is agnostic and only sees dense indices;
//! * the transaction layer **admits** a new transaction once every
//!   partition in its static footprint has been replayed through the
//!   final batch, i.e. the tuples it can touch are in their final
//!   recovered state;
//! * a blocked admission marks its cold partitions as *wanted*, and the
//!   replay workers prioritize wanted partitions — the on-demand redo of
//!   instant-recovery designs (Sauer & Härder): the backlog a waiting
//!   transaction needs jumps the queue.
//!
//! Once [`RecoveryGate::finish`] is called (replay complete), the gate is
//! permanently open and admission is a single atomic load.
//!
//! The gate optionally tracks a second, **checkpoint-residency** plane
//! ([`RecoveryGate::with_residency`]): with lazy checkpoint reload the
//! base image streams in shard by shard *during* the session, so "shard
//! resident" is a watermark dimension alongside replayed batches.
//! Admission then requires every replay partition of the footprint to be
//! final **and** every checkpoint shard of the footprint to be resident;
//! a blocked admission flags its cold shards as wanted so the shard
//! loader pulls exactly those in first (on-demand reload).

use pacman_common::ProcId;
use pacman_obs::{GatePlane, TraceEvent};
use pacman_sproc::Params;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sentinel meaning "total batch count not yet published".
const TOTAL_UNKNOWN: u64 = u64::MAX;

/// Replay-progress gate shared between the recovery runtime (publisher)
/// and the transaction layer (admission). See the module docs.
pub struct RecoveryGate {
    /// Batches each partition must apply before it is final.
    total: AtomicU64,
    /// Per-partition applied-batch watermarks.
    watermarks: Vec<AtomicU64>,
    /// Per-partition "a waiting transaction needs this" flags.
    wanted: Vec<AtomicBool>,
    /// Checkpoint-residency plane (empty: no residency dimension — the
    /// base image was loaded eagerly before the session went live).
    resident: Vec<AtomicBool>,
    /// Per-shard "a waiting transaction needs this resident" flags.
    resident_wanted: Vec<AtomicBool>,
    /// Shards not yet resident.
    resident_pending: AtomicU64,
    /// Set by [`RecoveryGate::finish`]: replay fully done, gate open.
    complete: AtomicBool,
    /// Set by [`RecoveryGate::fail`]: recovery errored, gate permanently
    /// closed — the half-recovered state must not serve commits.
    failed: AtomicBool,
    wake_mutex: Mutex<()>,
    wake_cv: Condvar,
}

impl RecoveryGate {
    /// A gate over `partitions` replay partitions, initially fully cold,
    /// with no checkpoint-residency plane.
    pub fn new(partitions: usize) -> Arc<Self> {
        Self::with_residency(partitions, 0)
    }

    /// A gate over `partitions` replay partitions plus a residency plane
    /// of `shards` checkpoint shards, all initially non-resident.
    pub fn with_residency(partitions: usize, shards: usize) -> Arc<Self> {
        Arc::new(RecoveryGate {
            total: AtomicU64::new(TOTAL_UNKNOWN),
            watermarks: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            wanted: (0..partitions).map(|_| AtomicBool::new(false)).collect(),
            resident: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            resident_wanted: (0..shards).map(|_| AtomicBool::new(false)).collect(),
            resident_pending: AtomicU64::new(shards as u64),
            complete: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            wake_mutex: Mutex::new(()),
            wake_cv: Condvar::new(),
        })
    }

    /// Number of partitions tracked.
    pub fn num_partitions(&self) -> usize {
        self.watermarks.len()
    }

    /// Number of checkpoint shards in the residency plane (0 = no plane).
    pub fn num_shards(&self) -> usize {
        self.resident.len()
    }

    /// Publish how many batches every partition must apply (known once the
    /// log inventory is scanned). Admission cannot succeed before this —
    /// except through [`RecoveryGate::finish`].
    ///
    /// Replication reuses the gate with a *moving* total: a hot standby
    /// bumps it on every shipped apply batch, so "final" continuously
    /// means "caught up with everything shipped" and the per-partition
    /// watermarks measure replication lag instead of one-shot replay
    /// progress.
    pub fn set_total_batches(&self, total: u64) {
        self.total.store(total, Ordering::Release);
        self.notify();
    }

    /// The slowest partition's applied-batch watermark — with a moving
    /// total this is the applied frontier, and `total - min_watermark()`
    /// is the replication lag in apply batches.
    pub fn min_watermark(&self) -> u64 {
        self.watermarks
            .iter()
            .map(|w| w.load(Ordering::Acquire))
            .min()
            .unwrap_or(0)
    }

    /// The published total (0 if not yet published).
    pub fn total_batches(&self) -> u64 {
        let t = self.total.load(Ordering::Acquire);
        if t == TOTAL_UNKNOWN {
            0
        } else {
            t
        }
    }

    /// Publish partition `p`'s applied-batch watermark (monotonic).
    pub fn publish(&self, p: usize, applied_batches: u64) {
        let w = &self.watermarks[p];
        let prev = w.fetch_max(applied_batches, Ordering::AcqRel);
        if applied_batches > prev {
            // A finished partition no longer needs priority.
            let total = self.total.load(Ordering::Acquire);
            if total != TOTAL_UNKNOWN && applied_batches >= total {
                self.wanted[p].store(false, Ordering::Release);
            }
            self.notify();
        }
    }

    /// Applied-batch watermark of partition `p`.
    pub fn watermark(&self, p: usize) -> u64 {
        self.watermarks[p].load(Ordering::Acquire)
    }

    /// Mark the whole replay complete; the gate is permanently open.
    pub fn finish(&self) {
        self.complete.store(true, Ordering::Release);
        self.notify();
    }

    /// Mark the recovery failed; the gate is permanently *closed*. A
    /// half-recovered state (missing base-image shards, unreplayed
    /// partitions) must never serve commits, so blocked admissions
    /// unblock with `false` and nothing further is admitted. Idempotent:
    /// only the first call traces and dumps.
    pub fn fail(&self) {
        if self.failed.swap(true, Ordering::AcqRel) {
            return;
        }
        self.notify();
        let tracer = pacman_obs::tracer();
        tracer.emit(TraceEvent::GatePoison {});
        tracer.dump_on_failure("recovery gate poisoned");
    }

    /// Whether replay has fully completed.
    pub fn is_complete(&self) -> bool {
        self.complete.load(Ordering::Acquire)
    }

    /// Whether the recovery behind this gate failed (gate closed for
    /// good).
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Whether partition `p` has reached its final state.
    pub fn is_ready(&self, p: usize) -> bool {
        if self.is_complete() {
            return true;
        }
        let total = self.total.load(Ordering::Acquire);
        total != TOTAL_UNKNOWN && self.watermarks[p].load(Ordering::Acquire) >= total
    }

    /// Publish that checkpoint shard `s` is resident (its newest part is
    /// installed). Monotone and idempotent.
    pub fn publish_resident(&self, s: usize) {
        if !self.resident[s].swap(true, Ordering::AcqRel) {
            self.resident_wanted[s].store(false, Ordering::Release);
            self.resident_pending.fetch_sub(1, Ordering::AcqRel);
            self.notify();
        }
    }

    /// Mark every shard resident at once (no checkpoint found).
    pub fn set_all_resident(&self) {
        for s in 0..self.resident.len() {
            self.publish_resident(s);
        }
    }

    /// Whether checkpoint shard `s` is resident. Always true without a
    /// residency plane or after [`RecoveryGate::finish`].
    pub fn is_resident(&self, s: usize) -> bool {
        self.resident.is_empty()
            || self.is_complete()
            || self
                .resident
                .get(s)
                .is_none_or(|r| r.load(Ordering::Acquire))
    }

    /// Whether every shard of the residency plane is resident.
    pub fn all_resident(&self) -> bool {
        self.resident_pending.load(Ordering::Acquire) == 0
    }

    /// Whether a blocked admission is waiting on shard `s`'s residency —
    /// the shard loader consults this to prioritize on-demand reload.
    pub fn is_shard_wanted(&self, s: usize) -> bool {
        self.resident_wanted[s].load(Ordering::Acquire)
    }

    /// Whether a blocked admission is waiting on partition `p` — replay
    /// workers consult this to prioritize on-demand redo.
    pub fn is_wanted(&self, p: usize) -> bool {
        self.wanted[p].load(Ordering::Acquire)
    }

    /// Whether any partition is currently wanted (cheap pre-check for the
    /// replay workers' priority scan).
    pub fn any_wanted(&self) -> bool {
        !self.is_complete() && self.wanted.iter().any(|w| w.load(Ordering::Acquire))
    }

    /// Non-blocking admission check for `footprint` (partition indices).
    pub fn try_admit(&self, footprint: &[usize]) -> bool {
        self.try_admit_with(footprint, &[])
    }

    /// Non-blocking admission check over both planes: every replay
    /// partition in `footprint` final *and* every checkpoint shard in
    /// `shards` resident. A failed gate admits nothing.
    pub fn try_admit_with(&self, footprint: &[usize], shards: &[usize]) -> bool {
        if self.is_failed() {
            return false;
        }
        self.is_complete()
            || (footprint.iter().all(|&p| self.is_ready(p))
                && shards.iter().all(|&s| self.is_resident(s)))
    }

    /// Flag `footprint`'s cold partitions as wanted *without* waiting —
    /// an open-loop driver parks the transaction and keeps serving, while
    /// replay starts pulling the parked footprint forward.
    pub fn request(&self, footprint: &[usize]) {
        self.request_with(footprint, &[]);
    }

    /// [`RecoveryGate::request`] over both planes: additionally flags the
    /// non-resident shards of `shards` for on-demand reload.
    pub fn request_with(&self, footprint: &[usize], shards: &[usize]) {
        if self.is_complete() || self.is_failed() {
            return;
        }
        for &p in footprint {
            if !self.is_ready(p) {
                self.wanted[p].store(true, Ordering::Release);
            }
        }
        for &s in shards {
            if !self.is_resident(s) {
                self.resident_wanted[s].store(true, Ordering::Release);
            }
        }
    }

    /// Block until every partition in `footprint` is final, flagging cold
    /// partitions as wanted so replay prioritizes them. Returns `false` if
    /// `give_up` became true before admission succeeded.
    pub fn admit(&self, footprint: &[usize], give_up: &AtomicBool) -> bool {
        self.admit_with(footprint, &[], give_up)
    }

    /// [`RecoveryGate::admit`] over both planes: additionally waits for
    /// every checkpoint shard in `shards` to be resident, flagging cold
    /// ones so the shard loader prioritizes them.
    pub fn admit_with(&self, footprint: &[usize], shards: &[usize], give_up: &AtomicBool) -> bool {
        let tracer = pacman_obs::tracer();
        let mut blocked_at: Option<Instant> = None;
        let admitted = |blocked_at: Option<Instant>| {
            if let Some(t0) = blocked_at {
                tracer.emit(TraceEvent::GateUnblock {
                    waited_ns: t0.elapsed().as_nanos() as u64,
                });
            }
            tracer.emit(TraceEvent::GateAdmit {
                footprint: footprint.len() as u32,
            });
            true
        };
        loop {
            if self.try_admit_with(footprint, shards) {
                return admitted(blocked_at);
            }
            if give_up.load(Ordering::Acquire) || self.is_failed() {
                return false;
            }
            // Mark what we're missing *before* re-checking, so a publish
            // racing with the flag store is never lost.
            self.request_with(footprint, shards);
            if self.try_admit_with(footprint, shards) {
                return admitted(blocked_at);
            }
            if blocked_at.is_none() {
                blocked_at = Some(Instant::now());
                let plane = if footprint.iter().all(|&p| self.is_ready(p)) {
                    GatePlane::Residency
                } else {
                    GatePlane::Replay
                };
                tracer.emit(TraceEvent::GateBlock { plane });
            }
            let mut g = self.wake_mutex.lock();
            self.wake_cv.wait_for(&mut g, Duration::from_micros(500));
        }
    }

    fn notify(&self) {
        let _g = self.wake_mutex.lock();
        self.wake_cv.notify_all();
    }
}

/// Transaction-level admission control: maps an invocation to its replay
/// footprint and waits on the [`RecoveryGate`]. Implemented by the
/// recovery layer (which owns the proc-to-partition mapping); consumed by
/// drivers serving transactions during an online recovery session.
pub trait AdmissionControl: Send + Sync {
    /// Block until `proc(params)`'s static footprint is fully replayed.
    /// Returns `false` if `give_up` became true while waiting.
    fn admit(&self, proc: ProcId, params: &Params, give_up: &AtomicBool) -> bool;

    /// Non-blocking check: is `proc(params)`'s footprint fully replayed?
    fn try_admit(&self, proc: ProcId, params: &Params) -> bool;

    /// Flag the footprint for on-demand redo without waiting (the caller
    /// parks the transaction and retries via `try_admit`).
    fn request(&self, proc: ProcId, params: &Params);

    /// Whether the gate is permanently open (replay complete).
    fn is_open(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn admission_opens_per_partition() {
        let gate = RecoveryGate::new(3);
        gate.set_total_batches(2);
        let stop = AtomicBool::new(false);
        assert!(!gate.try_admit(&[0]));
        gate.publish(0, 1);
        assert!(!gate.try_admit(&[0]));
        gate.publish(0, 2);
        assert!(gate.try_admit(&[0]));
        assert!(!gate.try_admit(&[0, 2]));
        gate.publish(2, 2);
        assert!(gate.admit(&[0, 2], &stop));
        assert!(!gate.is_ready(1));
    }

    #[test]
    fn finish_opens_everything() {
        let gate = RecoveryGate::new(2);
        // Total never published: only finish() can open the gate.
        assert!(!gate.try_admit(&[0]));
        gate.finish();
        assert!(gate.try_admit(&[0, 1]));
        let stop = AtomicBool::new(false);
        assert!(gate.admit(&[1], &stop));
    }

    #[test]
    fn blocked_admission_flags_wanted_partitions() {
        let gate = RecoveryGate::new(4);
        gate.set_total_batches(1);
        gate.publish(1, 1);
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            let stop = AtomicBool::new(false);
            g2.admit(&[1, 3], &stop)
        });
        let t0 = Instant::now();
        while !gate.is_wanted(3) {
            assert!(t0.elapsed() < Duration::from_secs(2), "flag never raised");
            std::thread::yield_now();
        }
        assert!(!gate.is_wanted(0), "ready/untouched partitions not wanted");
        assert!(gate.any_wanted());
        gate.publish(3, 1);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn give_up_unblocks_waiters() {
        let gate = RecoveryGate::new(1);
        gate.set_total_batches(5);
        let stop = Arc::new(AtomicBool::new(false));
        let g2 = Arc::clone(&gate);
        let s2 = Arc::clone(&stop);
        let waiter = std::thread::spawn(move || g2.admit(&[0], &s2));
        std::thread::sleep(Duration::from_millis(5));
        stop.store(true, Ordering::Release);
        assert!(!waiter.join().unwrap(), "admit must report the give-up");
    }

    #[test]
    fn residency_plane_gates_admission() {
        let gate = RecoveryGate::with_residency(2, 3);
        gate.set_total_batches(1);
        gate.publish(0, 1);
        // Replay final but shard 2 not resident: admission blocked.
        assert!(gate.try_admit(&[0]), "replay plane alone is final");
        assert!(!gate.try_admit_with(&[0], &[2]));
        gate.request_with(&[0], &[2]);
        assert!(gate.is_shard_wanted(2));
        assert!(!gate.is_shard_wanted(0), "unrequested shard not wanted");
        gate.publish_resident(2);
        assert!(!gate.is_shard_wanted(2), "residency clears the want flag");
        assert!(gate.try_admit_with(&[0], &[2]));
        assert!(!gate.all_resident());
        gate.publish_resident(0);
        gate.publish_resident(0); // idempotent
        gate.publish_resident(1);
        assert!(gate.all_resident());
    }

    #[test]
    fn finish_opens_the_residency_plane() {
        let gate = RecoveryGate::with_residency(1, 2);
        assert!(!gate.is_resident(0));
        gate.finish();
        assert!(gate.is_resident(0));
        let stop = AtomicBool::new(false);
        assert!(gate.admit_with(&[0], &[0, 1], &stop));
    }

    #[test]
    fn fail_closes_the_gate_and_unblocks_waiters() {
        let gate = RecoveryGate::with_residency(2, 2);
        gate.set_total_batches(1);
        gate.publish(0, 1);
        gate.publish_resident(0);
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || {
            let stop = AtomicBool::new(false);
            g2.admit_with(&[1], &[1], &stop)
        });
        std::thread::sleep(Duration::from_millis(5));
        gate.fail();
        assert!(
            !waiter.join().unwrap(),
            "failed gate must unblock with false"
        );
        // Nothing is admitted any more — not even a previously-final
        // footprint: the session's state is suspect as a whole.
        assert!(!gate.try_admit_with(&[0], &[0]));
        assert!(!gate.try_admit(&[]));
        assert!(gate.is_failed());
        assert!(!gate.is_complete());
    }

    #[test]
    fn no_residency_plane_is_always_resident() {
        let gate = RecoveryGate::new(1);
        assert_eq!(gate.num_shards(), 0);
        assert!(gate.is_resident(0));
        assert!(gate.all_resident());
    }

    #[test]
    fn empty_footprint_admits_immediately() {
        let gate = RecoveryGate::new(2);
        gate.set_total_batches(10);
        let stop = AtomicBool::new(false);
        assert!(gate.admit(&[], &stop), "read-only/footprint-free txns pass");
    }
}
