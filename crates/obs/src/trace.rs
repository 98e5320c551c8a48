//! Flight-recorder tracing.
//!
//! Each emitting thread owns a bounded ring buffer of the last
//! [`RING_CAPACITY`] events it produced; emission is wait-free and touches no
//! shared cache line (single-writer seqlock slots). When tracing is disabled
//! the emit path is one relaxed load and a branch.
//!
//! On failure (gate poison, failed recovery session, apply error) the tracer
//! merges the per-thread tails into one time-ordered dump and writes it to
//! stderr plus every registered [`DumpSink`] — for SimDisk runs that is a
//! `trace/` namespace on the run's own `StorageSet`, so post-mortems are
//! self-contained.

use parking_lot::Mutex;
use std::cell::{RefCell, UnsafeCell};
use std::fmt::Write as _;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Events per thread retained by the flight recorder (power of two).
pub const RING_CAPACITY: usize = 1024;

/// Events included in a merged failure dump.
pub const DUMP_TAIL_EVENTS: usize = 256;

/// What kind of retention hold an event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HoldKind {
    /// Breakable subscriber (ship-cursor) hold.
    Subscriber,
    /// Unbreakable recovery-session hold.
    Recovery,
}

/// Which admission plane a gate event refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GatePlane {
    /// Replay watermarks (per block / per shard).
    Replay,
    /// Checkpoint-residency plane (lazy reload).
    Residency,
}

/// Which lifecycle stage the stall watchdog saw frozen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// Commits are staging but the seal frontier is frozen.
    Seal,
    /// Epochs are persisting but the ship cursor is frozen.
    Ship,
    /// Batches are being fed but the gate watermark is frozen.
    Gate,
    /// The durable frontier advances but a retention hold floor is pinned.
    Retention,
}

/// Coarse phases of a recovery lifecycle, for trace timelines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// Scanning log inventory + checkpoint chain.
    Scan,
    /// Loading the checkpoint base image (eager schemes).
    Load,
    /// Replaying the log (offline or online session).
    Replay,
    /// Online session finished successfully; gate open.
    Complete,
    /// Session failed; gate poisoned.
    Failed,
}

/// A structured trace event. `Copy` by construction — fixed-size scalar
/// payloads only, so ring slots never allocate and readers can snapshot a
/// slot with a single volatile copy.
#[derive(Clone, Copy, Debug)]
pub enum TraceEvent {
    /// A logger sealed epochs up to `epoch` durably.
    EpochSeal {
        /// Logger index.
        logger: u32,
        /// Highest sealed epoch.
        epoch: u64,
    },
    /// A logger appended `bytes` to a batch file (and fsynced if `fsync`).
    BatchPersist {
        /// Logger index.
        logger: u32,
        /// Batch index the bytes went to.
        batch: u64,
        /// Bytes appended this flush.
        bytes: u64,
        /// Whether this flush ended in an fsync.
        fsync: bool,
    },
    /// A checkpoint round started (full/delta is decided inside the round).
    CkptBegin {
        /// Round ordinal (1-based).
        round: u64,
    },
    /// A checkpoint round committed its tip manifest.
    CkptEnd {
        /// Round ordinal (matches the `CkptBegin`).
        round: u64,
        /// Chain length after the round.
        chain_len: u32,
        /// Part files written this round.
        parts: u32,
        /// Bytes written this round.
        bytes: u64,
    },
    /// A retention hold was acquired.
    HoldAcquire {
        /// Hold id (unique per manager).
        hold: u64,
        /// Hold kind.
        kind: HoldKind,
        /// Initial log-epoch floor.
        epoch: u64,
    },
    /// A retention hold advanced its log floor.
    HoldAdvance {
        /// Hold id.
        hold: u64,
        /// New log-epoch floor.
        epoch: u64,
    },
    /// A subscriber hold was broken by the bounded-lag policy.
    HoldBreak {
        /// Hold id.
        hold: u64,
        /// Bytes of lag at break time.
        lag_bytes: u64,
    },
    /// A reclaim round completed.
    ReclaimRound {
        /// Batch frontier after the round (batches below it are gone).
        frontier: u64,
        /// Log bytes reclaimed this round.
        log_bytes: u64,
        /// Subscriber holds broken by the bounded-lag policy this round.
        holds_broken: u64,
    },
    /// A ship pass delivered frames and committed its cursor.
    ShipPass {
        /// Frames delivered this pass.
        frames: u64,
        /// Bytes delivered this pass.
        bytes: u64,
    },
    /// The shipper found its hold broken and sent a Reset.
    ShipReset {
        /// Total resets so far on this shipper.
        resets: u64,
    },
    /// The standby applied one seal-delimited batch.
    StandbyApply {
        /// Batch sequence number.
        batch: u64,
        /// Log bytes in the batch.
        bytes: u64,
    },
    /// The standby re-bootstrapped from a fresh checkpoint chain.
    StandbyRebootstrap {
        /// Timestamp of the chain tip it reloaded.
        chain_ts: u64,
    },
    /// The recovery gate admitted a transaction (fast or slow path).
    GateAdmit {
        /// Number of footprint units the admission checked.
        footprint: u32,
    },
    /// An admission blocked waiting for replay/residency.
    GateBlock {
        /// Which plane was not final.
        plane: GatePlane,
    },
    /// A previously blocked admission was released.
    GateUnblock {
        /// Nanoseconds spent blocked.
        waited_ns: u64,
    },
    /// The gate was poisoned (failed session / apply error).
    GatePoison {},
    /// A recovery lifecycle moved between phases.
    Phase {
        /// The phase being entered.
        phase: RecoveryPhase,
    },
    /// The stall watchdog saw a stage's progress frozen while its
    /// upstream work kept growing for the configured number of sampling
    /// intervals.
    StallDetected {
        /// Which lifecycle stage froze.
        kind: StallKind,
        /// The upstream work counter at detection time.
        work: u64,
        /// The frozen progress counter.
        progress: u64,
    },
    /// A previously detected stall resumed making progress.
    StallCleared {
        /// Which lifecycle stage recovered.
        kind: StallKind,
    },
    /// Free-form marker (bench phases, test fences).
    Marker {
        /// Caller-defined code.
        code: u64,
    },
}

/// A timestamped event as stored in (and collected from) a ring.
#[derive(Clone, Copy, Debug)]
pub struct TraceRecord {
    /// Nanoseconds since the tracer was created.
    pub ts_ns: u64,
    /// Emitting thread's ring index.
    pub thread: u32,
    /// Per-thread emission sequence number (0-based, monotone).
    pub seq: u64,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// One dump line: `[      123456ns t00 #42] EpochSeal { .. }`.
    pub fn render(&self) -> String {
        format!(
            "[{:>12}ns t{:02} #{}] {:?}",
            self.ts_ns, self.thread, self.seq, self.event
        )
    }
}

/// One seqlock slot. `seq` is `0` (never written), `2g+1` (write of
/// generation `g` in progress) or `2g+2` (generation `g` stable).
struct Slot {
    seq: AtomicU64,
    data: UnsafeCell<MaybeUninit<TraceRecord>>,
}

/// A single-writer ring buffer of the owner thread's last
/// [`RING_CAPACITY`] records. Any thread may [`Ring::collect`] a consistent
/// snapshot without stopping the writer.
struct Ring {
    slots: Box<[Slot]>,
    /// Next record index; owner-thread writes, readers only load.
    head: AtomicU64,
    thread: u32,
}

// Readers only copy slot data between validated `seq` reads, so sharing the
// raw cells across threads is sound.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(thread: u32) -> Ring {
        let slots = (0..RING_CAPACITY)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            slots,
            head: AtomicU64::new(0),
            thread,
        }
    }

    /// Append a record. MUST only be called from the owning thread.
    fn push(&self, ts_ns: u64, event: TraceEvent) {
        let h = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(h as usize) & (RING_CAPACITY - 1)];
        let gen = h / RING_CAPACITY as u64;
        let rec = TraceRecord {
            ts_ns,
            thread: self.thread,
            seq: h,
            event,
        };
        // Odd transition as an acquire RMW (crossbeam's seqlock recipe): a
        // plain Release store would let the data write below be hoisted
        // above it on weakly-ordered hardware, so a reader could see even
        // seq values around a torn copy. The acquire half of the RMW
        // forbids that reordering.
        slot.seq.swap(2 * gen + 1, Ordering::Acquire);
        unsafe { (*slot.data.get()).write(rec) };
        // Release: the data write cannot sink below the even seq.
        slot.seq.store(2 * gen + 2, Ordering::Release);
        self.head.store(h + 1, Ordering::Release);
    }

    /// Snapshot every stable slot. Torn slots (overwritten mid-copy) are
    /// dropped rather than returned corrupt.
    fn collect(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue; // never written, or write in progress
            }
            // Volatile copy of the *possibly torn* bytes. The copy stays
            // MaybeUninit until the seq recheck validates it: asserting a
            // TraceRecord (enum discriminants!) out of torn bytes would be
            // UB even if the value were discarded afterwards.
            let raw: MaybeUninit<TraceRecord> = unsafe { std::ptr::read_volatile(slot.data.get()) };
            // Acquire fence: orders the copy above before the validating
            // re-read (an Acquire *load* alone only constrains what comes
            // after it, so the copy could drift past the re-read).
            std::sync::atomic::fence(Ordering::Acquire);
            let after = slot.seq.load(Ordering::Relaxed);
            if before == after {
                // Validated: the writer never touched this slot during the
                // copy, so the bytes are a fully initialized record.
                out.push(unsafe { raw.assume_init() });
            }
        }
        out.sort_by_key(|r| r.seq);
        out
    }
}

/// Destination for flight-recorder dumps (beyond stderr).
pub trait DumpSink: Send + Sync {
    /// Persist one dump under `name` (e.g. `dump-0000.txt`).
    fn write_dump(&self, name: &str, contents: &str);
}

/// A [`DumpSink`] that re-prints to stderr (useful in tests).
pub struct StderrSink;

impl DumpSink for StderrSink {
    fn write_dump(&self, name: &str, contents: &str) {
        eprintln!("[flight-recorder sink {name}]\n{contents}");
    }
}

static TRACER_IDS: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's rings, one per *live* tracer it has emitted through.
    /// Weak so a dropped tracer's rings are freed; dead entries are pruned
    /// whenever a new tracer registers, so long-lived worker threads in
    /// processes that create many tracers don't accumulate rings (or
    /// degrade lookup) unboundedly.
    static LOCAL_RINGS: RefCell<Vec<(u64, Weak<Ring>)>> = const { RefCell::new(Vec::new()) };
}

/// The flight recorder. Cheap to share (`Arc`); emission is per-thread
/// wait-free; `enable`/`disable` flips a single flag.
pub struct Tracer {
    id: u64,
    enabled: AtomicBool,
    t0: Instant,
    rings: Mutex<Vec<Arc<Ring>>>,
    /// Keyed sinks: setting a key again replaces the previous sink, so a
    /// sequence of runs against fresh storage doesn't accumulate sinks.
    sinks: Mutex<Vec<(String, Arc<dyn DumpSink>)>>,
    dumps: AtomicU64,
}

impl Tracer {
    /// A fresh, disabled tracer.
    pub fn new() -> Tracer {
        Tracer {
            id: TRACER_IDS.fetch_add(1, Ordering::Relaxed),
            enabled: AtomicBool::new(false),
            t0: Instant::now(),
            rings: Mutex::new(Vec::new()),
            sinks: Mutex::new(Vec::new()),
            dumps: AtomicU64::new(0),
        }
    }

    /// Turn event recording on.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Turn event recording off (emit becomes a single relaxed load).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record an event. When disabled this is one relaxed load + branch.
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.emit_slow(event);
    }

    #[cold]
    fn emit_slow(&self, event: TraceEvent) {
        let ts_ns = self.t0.elapsed().as_nanos() as u64;
        LOCAL_RINGS.with(|local| {
            let mut local = local.borrow_mut();
            if let Some((_, weak)) = local.iter().find(|(id, _)| *id == self.id) {
                // `self` keeps a strong ref in `self.rings`, so an entry
                // under a live tracer's id always upgrades (ids are never
                // reused — TRACER_IDS is monotone).
                let ring = weak.upgrade().expect("live tracer owns its rings");
                ring.push(ts_ns, event);
                return;
            }
            // First emission through this tracer from this thread: drop
            // entries whose tracer is gone, then register a fresh ring.
            local.retain(|(_, w)| w.strong_count() > 0);
            let ring = {
                let mut rings = self.rings.lock();
                let ring = Arc::new(Ring::new(rings.len() as u32));
                rings.push(ring.clone());
                ring
            };
            ring.push(ts_ns, event);
            local.push((self.id, Arc::downgrade(&ring)));
        });
    }

    /// Register (or replace) the dump sink under `key`.
    pub fn set_sink(&self, key: &str, sink: Arc<dyn DumpSink>) {
        let mut sinks = self.sinks.lock();
        if let Some(entry) = sinks.iter_mut().find(|(k, _)| k == key) {
            entry.1 = sink;
        } else {
            sinks.push((key.to_string(), sink));
        }
    }

    /// Unregister the dump sink under `key` (no-op if absent). Call on
    /// shutdown so a finished stack's sink stops pinning its storage and
    /// can never swallow a later run's dumps.
    pub fn remove_sink(&self, key: &str) {
        self.sinks.lock().retain(|(k, _)| k != key);
    }

    /// The last `n` events across all threads, time-ordered (ties broken by
    /// thread then per-thread sequence).
    pub fn merged_tail(&self, n: usize) -> Vec<TraceRecord> {
        let rings: Vec<Arc<Ring>> = self.rings.lock().clone();
        let mut all: Vec<TraceRecord> = rings.iter().flat_map(|r| r.collect()).collect();
        all.sort_by_key(|r| (r.ts_ns, r.thread, r.seq));
        if all.len() > n {
            all.drain(..all.len() - n);
        }
        all
    }

    /// Number of dumps produced so far.
    pub fn dump_count(&self) -> u64 {
        self.dumps.load(Ordering::SeqCst)
    }

    /// Render the merged tail as dump text (also the sink payload format).
    pub fn render_tail(&self, reason: &str, n: usize) -> String {
        let tail = self.merged_tail(n);
        let mut out = String::new();
        let _ = writeln!(out, "=== flight-recorder dump: {reason} ===");
        let _ = writeln!(out, "{} events, most recent last", tail.len());
        for rec in &tail {
            let _ = writeln!(out, "{}", rec.render());
        }
        out
    }

    /// Dump the merged tail ([`DUMP_TAIL_EVENTS`] events) to stderr and
    /// every registered sink.
    /// No-op (returns `None`) while tracing is disabled, so failure paths
    /// exercised by ordinary tests stay silent.
    pub fn dump_on_failure(&self, reason: &str) -> Option<String> {
        if !self.enabled.load(Ordering::Relaxed) {
            return None;
        }
        let text = self.render_tail(reason, DUMP_TAIL_EVENTS);
        eprintln!("{text}");
        let n = self.dumps.fetch_add(1, Ordering::SeqCst);
        let name = format!("dump-{n:04}.txt");
        for (_, sink) in self.sinks.lock().iter() {
            sink.write_dump(&name, &text);
        }
        Some(name)
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("id", &self.id)
            .field("enabled", &self.is_enabled())
            .field("threads", &self.rings.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.emit(TraceEvent::Marker { code: 1 });
        assert!(t.merged_tail(16).is_empty());
        assert!(t.dump_on_failure("x").is_none());
        assert_eq!(t.dump_count(), 0);
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let t = Tracer::new();
        t.enable();
        let total = RING_CAPACITY as u64 + 100;
        for code in 0..total {
            t.emit(TraceEvent::Marker { code });
        }
        let tail = t.merged_tail(usize::MAX);
        assert_eq!(tail.len(), RING_CAPACITY);
        // Oldest surviving record is exactly `total - capacity`.
        match tail[0].event {
            TraceEvent::Marker { code } => assert_eq!(code, 100),
            other => panic!("unexpected {other:?}"),
        }
        match tail.last().unwrap().event {
            TraceEvent::Marker { code } => assert_eq!(code, total - 1),
            other => panic!("unexpected {other:?}"),
        }
        // Per-thread seq strictly increasing.
        for w in tail.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn merged_tail_is_time_ordered_across_threads() {
        let t = Arc::new(Tracer::new());
        t.enable();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let t = t.clone();
                std::thread::spawn(move || {
                    for code in 0..300u64 {
                        t.emit(TraceEvent::Marker {
                            code: i * 1000 + code,
                        });
                    }
                })
            })
            .collect();
        for h in threads {
            h.join().unwrap();
        }
        let tail = t.merged_tail(usize::MAX);
        assert_eq!(tail.len(), 4 * 300);
        // Global time order, and per-thread seq order preserved within it.
        let mut last_seq = std::collections::HashMap::new();
        for w in tail.windows(2) {
            assert!((w[0].ts_ns, w[0].thread, w[0].seq) <= (w[1].ts_ns, w[1].thread, w[1].seq));
        }
        for rec in &tail {
            let prev = last_seq.insert(rec.thread, rec.seq);
            if let Some(prev) = prev {
                assert!(rec.seq > prev, "thread {} reordered", rec.thread);
            }
        }
    }

    #[test]
    fn collect_survives_concurrent_writer() {
        let t = Arc::new(Tracer::new());
        t.enable();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let t = t.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut code = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    t.emit(TraceEvent::Marker { code });
                    code += 1;
                }
            })
        };
        for _ in 0..50 {
            let tail = t.merged_tail(usize::MAX);
            // Whatever we got must be internally consistent: seq strictly
            // increasing and codes matching their seq.
            for w in tail.windows(2) {
                assert!(w[0].seq < w[1].seq);
            }
            for rec in &tail {
                match rec.event {
                    TraceEvent::Marker { code } => assert_eq!(code, rec.seq),
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }

    /// Entries this thread holds in [`LOCAL_RINGS`] (test observability).
    fn local_ring_entries() -> usize {
        LOCAL_RINGS.with(|l| l.borrow().len())
    }

    #[test]
    fn dropped_tracers_are_pruned_from_thread_locals() {
        let base = local_ring_entries();
        for code in 0..10 {
            let t = Tracer::new();
            t.enable();
            t.emit(TraceEvent::Marker { code });
        }
        // Registering through a fresh tracer prunes the ten dead entries.
        let t = Tracer::new();
        t.enable();
        t.emit(TraceEvent::Marker { code: 99 });
        assert!(
            local_ring_entries() <= base + 1,
            "dead tracer entries not pruned: {} live",
            local_ring_entries()
        );
        assert_eq!(t.merged_tail(usize::MAX).len(), 1);
    }

    #[test]
    fn dump_reaches_sinks_and_is_ordered() {
        struct CaptureSink(StdMutex<Vec<(String, String)>>);
        impl DumpSink for CaptureSink {
            fn write_dump(&self, name: &str, contents: &str) {
                self.0.lock().unwrap().push((name.into(), contents.into()));
            }
        }
        let t = Tracer::new();
        t.enable();
        for code in 0..10 {
            t.emit(TraceEvent::Marker { code });
        }
        let sink = Arc::new(CaptureSink(StdMutex::new(Vec::new())));
        t.set_sink("test", sink.clone());
        // Replacing by key keeps a single sink.
        t.set_sink("test", sink.clone());
        let name = t.dump_on_failure("unit test").expect("enabled");
        assert_eq!(name, "dump-0000.txt");
        {
            let captured = sink.0.lock().unwrap();
            assert_eq!(captured.len(), 1);
            assert!(captured[0].1.contains("unit test"));
            assert!(captured[0].1.contains("Marker { code: 9 }"));
        }
        // An unregistered sink receives nothing further.
        t.remove_sink("test");
        t.dump_on_failure("after removal").expect("enabled");
        assert_eq!(sink.0.lock().unwrap().len(), 1);
    }

    #[test]
    fn dump_tail_length_is_tunable() {
        let t = Tracer::new();
        t.enable();
        for code in 0..100u64 {
            t.emit(TraceEvent::Marker { code });
        }
        let text = t.render_tail("tunable", 4);
        assert!(text.contains("4 events"), "tail not truncated: {text}");
        assert!(text.contains("Marker { code: 99 }"), "newest kept: {text}");
        assert!(!text.contains("Marker { code: 95 }"), "oldest cut: {text}");
    }
}
