//! Epoch lifecycle span table: causal latency attribution for the
//! durability pipeline.
//!
//! Every committed epoch moves through a fixed stage sequence — first
//! commit staged → sealed → persisted (log fsynced on every device) → ack
//! signaled → shipped → standby applied — and the paper's headline latency claims
//! (Table 3's group-commit latency, replication lag) are statements about
//! how long epochs spend *between* those stages. The [`EpochSpanTable`]
//! records one nanosecond timestamp per (epoch, stage) in a fixed-size
//! lock-free slot array and feeds the per-stage transition durations into
//! five registry histograms:
//!
//! | histogram | duration |
//! |---|---|
//! | `wal.epoch.seal_wait` | first commit staged → a logger decides to seal it (epoch close + logger poll) |
//! | `wal.epoch.persist` | sealed → every logger's seal fsynced (log write + fsync) |
//! | `wal.epoch.ack_delay` | persisted → durable ack signaled (`pepoch.log` fsync + wake) |
//! | `wal.ship.lag` | ack (or persist) → shipped to a subscriber |
//! | `standby.apply_lag` | shipped → applied on the standby |
//!
//! **Sizing and overflow.** The table has [`SPAN_SLOTS`] slots indexed by
//! `epoch & (SPAN_SLOTS - 1)`; an epoch's slot is reused once the pipeline
//! has moved `SPAN_SLOTS` epochs past it. A stamp arriving for an epoch
//! older than its slot's current owner is *dropped* (counted in
//! [`EpochSpanTable::dropped`]) — attribution is best-effort observability
//! and must never block or allocate on the hot path. With millisecond
//! epochs, 1024 slots cover seconds of pipeline depth; a stage lagging
//! further than that is precisely what the stall watchdog reports.
//!
//! **Recording model.** Stamps are first-write-wins (the *first* commit of
//! an epoch defines `Staged`; redundant seal/persist notifications do not
//! move a stamp). The record path is a handful of atomics plus one
//! uncontended histogram lock on stage transitions — guarded < 100 ns by
//! the `obs_overhead` bench. Per-stage *frontier* atomics (the highest
//! epoch stamped per stage) give the stall watchdog a free work/progress
//! signal without touching the slots.

use crate::registry::{HistoHandle, HistoSummary, MetricsRegistry};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Slots in the span table (power of two). Epochs are attributed modulo
/// this: the pipeline may be at most `SPAN_SLOTS` epochs deep before old
/// epochs' late stamps are dropped.
pub const SPAN_SLOTS: usize = 1024;

/// Number of lifecycle stages ([`Stage`] variants).
pub const NUM_STAGES: usize = 6;

/// One stage of an epoch's durability lifecycle, in causal order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// First commit of the epoch handed to the durability layer.
    Staged = 0,
    /// A logger's seal pass decided to seal the epoch's records (before
    /// the append; an epoch with no records is never stamped).
    Sealed = 1,
    /// Every logger's fsynced seal reached the epoch (the publishing
    /// logger found the frontier past it).
    Persisted = 2,
    /// `pepoch.log` was fsynced past the epoch and the waiters woken.
    Acked = 3,
    /// A ship pass announced the epoch to a subscriber.
    Shipped = 4,
    /// A standby finished applying the epoch.
    Applied = 5,
}

impl Stage {
    /// All stages in causal order.
    pub const ALL: [Stage; NUM_STAGES] = [
        Stage::Staged,
        Stage::Sealed,
        Stage::Persisted,
        Stage::Acked,
        Stage::Shipped,
        Stage::Applied,
    ];

    /// Short stable label (dump/introspection rendering).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Staged => "staged",
            Stage::Sealed => "sealed",
            Stage::Persisted => "persisted",
            Stage::Acked => "acked",
            Stage::Shipped => "shipped",
            Stage::Applied => "applied",
        }
    }
}

/// Registry names of the five stage-transition histograms, in stage order
/// (the histogram at index `i` times the transition *into*
/// `Stage::ALL[i + 1]`).
pub const STAGE_HISTOGRAMS: [&str; NUM_STAGES - 1] = [
    "wal.epoch.seal_wait",
    "wal.epoch.persist",
    "wal.epoch.ack_delay",
    "wal.ship.lag",
    "standby.apply_lag",
];

/// One slot: the epoch currently owning it plus its six stage stamps
/// (nanoseconds since the table's `t0`; 0 = unset).
struct SpanSlot {
    epoch: AtomicU64,
    stamps: [AtomicU64; NUM_STAGES],
}

/// Fixed-size lock-free per-epoch stage-timestamp table. See the module
/// docs for the stage taxonomy, sizing, and overflow policy.
pub struct EpochSpanTable {
    t0: Instant,
    slots: Box<[SpanSlot]>,
    /// Highest epoch stamped per stage — the watchdog's work/progress
    /// signals, and the `spans` introspection header.
    frontiers: [AtomicU64; NUM_STAGES],
    /// Late stamps dropped because the slot had been reclaimed by a newer
    /// epoch (overflow policy accounting).
    dropped: AtomicU64,
    /// Stage-transition histograms, `STAGE_HISTOGRAMS` order (µs).
    hist: [HistoHandle; NUM_STAGES - 1],
}

impl EpochSpanTable {
    /// A fresh, detached table (histograms not yet in any registry).
    pub fn new() -> EpochSpanTable {
        EpochSpanTable {
            t0: Instant::now(),
            slots: (0..SPAN_SLOTS)
                .map(|_| SpanSlot {
                    epoch: AtomicU64::new(0),
                    stamps: Default::default(),
                })
                .collect(),
            frontiers: Default::default(),
            dropped: AtomicU64::new(0),
            hist: Default::default(),
        }
    }

    /// Bind the five stage histograms into `registry` under their
    /// [`STAGE_HISTOGRAMS`] names.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        for (name, h) in STAGE_HISTOGRAMS.iter().zip(&self.hist) {
            registry.bind_histogram(name, h);
        }
    }

    /// Stamp `stage` for `epoch` (first write wins) and, when the
    /// preceding stage is stamped, feed the transition duration into the
    /// stage histogram. Epoch 0 and the drain sentinel are ignored. The
    /// hot path of the whole module: lock-free except the uncontended
    /// histogram mutex on an actual transition.
    #[inline]
    pub fn record(&self, epoch: u64, stage: Stage) {
        if epoch == 0 || epoch == u64::MAX {
            return;
        }
        // `| 1` keeps the stamp nonzero even in the (theoretical) same-ns
        // case — 0 means "unset".
        let now = (self.t0.elapsed().as_nanos() as u64) | 1;
        let slot = &self.slots[(epoch as usize) & (SPAN_SLOTS - 1)];
        let owner = slot.epoch.load(Ordering::Acquire);
        if owner != epoch {
            if owner > epoch {
                // The slot moved on to a newer epoch: this stamp is late
                // past the table depth. Drop it (overflow policy).
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // Claim the slot for this epoch and clear the previous
            // occupant's stamps. A concurrent claim for a *different*
            // epoch can race us; losing the CAS to a newer epoch means
            // our stamp is late (drop), losing to the same epoch means a
            // peer claimed it for us.
            match slot
                .epoch
                .compare_exchange(owner, epoch, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    for s in &slot.stamps {
                        s.store(0, Ordering::Relaxed);
                    }
                }
                Err(actual) if actual != epoch => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(_) => {}
            }
        }
        if slot.stamps[stage as usize]
            .compare_exchange(0, now, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            return; // first stamp wins
        }
        self.frontiers[stage as usize].fetch_max(epoch, Ordering::Relaxed);
        let hist_idx = match stage {
            Stage::Staged => return, // no inbound transition
            s => s as usize - 1,
        };
        // Transition duration against the preceding stage's stamp. The
        // ship stage tolerates a missing ack stamp (a post-mortem shipper
        // draining a dead primary's devices) by falling back to persist.
        let mut prev = slot.stamps[stage as usize - 1].load(Ordering::Relaxed);
        if prev == 0 && stage == Stage::Shipped {
            prev = slot.stamps[Stage::Persisted as usize].load(Ordering::Relaxed);
        }
        if prev != 0 && now >= prev {
            self.hist[hist_idx].record((now - prev) / 1_000);
        }
    }

    /// The highest epoch stamped for `stage` since the last reset.
    pub fn frontier(&self, stage: Stage) -> u64 {
        self.frontiers[stage as usize].load(Ordering::Relaxed)
    }

    /// Late stamps dropped by the overflow policy.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Per-transition summaries, `STAGE_HISTOGRAMS` order.
    pub fn summaries(&self) -> [(&'static str, HistoSummary); NUM_STAGES - 1] {
        std::array::from_fn(|i| (STAGE_HISTOGRAMS[i], self.hist[i].summary()))
    }

    /// Clear slots and frontiers for a fresh boot. Sequential stacks in
    /// one process restart epoch numbering near zero, and the slot-claim
    /// CAS assumes epochs are monotone — `Durability::boot` resets so a
    /// rebooted stack's small epochs are not mistaken for late stamps.
    /// Histograms keep accumulating across boots (they describe the
    /// process, not one stack).
    pub fn reset(&self) {
        for slot in self.slots.iter() {
            slot.epoch.store(0, Ordering::Relaxed);
            for s in &slot.stamps {
                s.store(0, Ordering::Relaxed);
            }
        }
        for f in &self.frontiers {
            f.store(0, Ordering::Relaxed);
        }
    }

    /// Human-readable breakdown (introspection `spans` command, bench
    /// prints): stage frontiers, drop count, and one summary line per
    /// transition histogram.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "frontiers:");
        for stage in Stage::ALL {
            let _ = write!(out, " {}={}", stage.label(), self.frontier(stage));
        }
        let _ = writeln!(out, " dropped={}", self.dropped());
        for (name, s) in self.summaries() {
            let _ = writeln!(
                out,
                "  {name:<22} n={} mean={:.1}us p50={} p95={} p99={} max={}",
                s.count, s.mean, s.p50, s.p95, s.p99, s.max
            );
        }
        out
    }
}

impl Default for EpochSpanTable {
    fn default() -> EpochSpanTable {
        EpochSpanTable::new()
    }
}

impl std::fmt::Debug for EpochSpanTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochSpanTable")
            .field("staged", &self.frontier(Stage::Staged))
            .field("sealed", &self.frontier(Stage::Sealed))
            .field("persisted", &self.frontier(Stage::Persisted))
            .field("acked", &self.frontier(Stage::Acked))
            .field("shipped", &self.frontier(Stage::Shipped))
            .field("applied", &self.frontier(Stage::Applied))
            .field("dropped", &self.dropped())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_feed_transition_histograms() {
        let t = EpochSpanTable::new();
        for e in 1..=8u64 {
            t.record(e, Stage::Staged);
            t.record(e, Stage::Sealed);
            t.record(e, Stage::Persisted);
            t.record(e, Stage::Acked);
        }
        let s = t.summaries();
        assert_eq!(s[0].0, "wal.epoch.seal_wait");
        assert_eq!(s[0].1.count, 8);
        assert_eq!(s[1].1.count, 8);
        assert_eq!(s[2].1.count, 8);
        assert_eq!(s[3].1.count, 0, "nothing shipped");
        assert_eq!(t.frontier(Stage::Acked), 8);
        assert_eq!(t.frontier(Stage::Shipped), 0);
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn first_stamp_wins_and_missing_predecessor_is_skipped() {
        let t = EpochSpanTable::new();
        t.record(3, Stage::Staged);
        t.record(3, Stage::Staged); // later duplicate must not move t0
        t.record(3, Stage::Sealed);
        assert_eq!(t.summaries()[0].1.count, 1);
        // Sealed with no staged stamp: frontier moves, no histogram sample.
        t.record(4, Stage::Sealed);
        assert_eq!(t.frontier(Stage::Sealed), 4);
        assert_eq!(t.summaries()[0].1.count, 1);
    }

    #[test]
    fn late_stamps_for_evicted_epochs_are_dropped() {
        let t = EpochSpanTable::new();
        let old = 5u64;
        t.record(old, Stage::Staged);
        // The pipeline moves SPAN_SLOTS epochs on: the slot is reclaimed.
        let newer = old + SPAN_SLOTS as u64;
        t.record(newer, Stage::Staged);
        t.record(old, Stage::Sealed); // late stamp for the evicted epoch
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.summaries()[0].1.count, 0);
        // The newer epoch's lifecycle is unaffected.
        t.record(newer, Stage::Sealed);
        assert_eq!(t.summaries()[0].1.count, 1);
    }

    #[test]
    fn ship_falls_back_to_persist_when_never_acked() {
        let t = EpochSpanTable::new();
        t.record(7, Stage::Sealed);
        t.record(7, Stage::Persisted);
        t.record(7, Stage::Shipped); // post-mortem drain: no ack stamp
        assert_eq!(t.summaries()[3].1.count, 1);
    }

    #[test]
    fn reset_clears_slots_but_keeps_histograms() {
        let t = EpochSpanTable::new();
        t.record(100, Stage::Staged);
        t.record(100, Stage::Sealed);
        t.reset();
        assert_eq!(t.frontier(Stage::Sealed), 0);
        // Small post-reboot epochs are accepted again, not dropped.
        t.record(2, Stage::Staged);
        t.record(2, Stage::Sealed);
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.summaries()[0].1.count, 2, "histograms accumulate");
        assert_eq!(t.frontier(Stage::Sealed), 2);
    }

    #[test]
    fn render_names_every_stage() {
        let t = EpochSpanTable::new();
        t.record(1, Stage::Staged);
        let text = t.render();
        for stage in Stage::ALL {
            assert!(text.contains(stage.label()), "{text}");
        }
        for name in STAGE_HISTOGRAMS {
            assert!(text.contains(name), "{text}");
        }
    }
}
