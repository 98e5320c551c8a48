//! Where replay loaders take their units from.
//!
//! A *unit* is one commit-ordered [`MergedBatchView`]. The gate's
//! watermarks count units, and every gated loader (CLR, CLR-P,
//! online LLR-P) consumes them in order from one [`UnitSource`]. The
//! source has one constructor per way a session learns about its log:
//!
//! * [`UnitSource::inventory`] — *restart*: the log a crash left behind,
//!   scanned once. The unit count is known up front, and each unit is read
//!   off the devices when the loader asks for it.
//! * [`UnitSource::follow`] — *follow*: a hot standby's receiver announces
//!   units through the paired [`FollowHandle`], one per seal. The count
//!   grows with every announcement, and the source ends at
//!   [`FollowHandle::finish`].

use crate::recovery::{read_merged_batch_view, LogInventory};
use bytes::Bytes;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use pacman_common::{Error, Result, Timestamp};
use pacman_engine::RecoveryGate;
use pacman_storage::StorageSet;
use pacman_wal::{merged_view_from_buffers, MergedBatchView};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The units of one replay, in order. See the module docs.
pub struct UnitSource {
    kind: Kind,
}

enum Kind {
    Inventory {
        storage: StorageSet,
        inventory: LogInventory,
        batches: std::vec::IntoIter<u64>,
        pepoch: u64,
        after_ts: Timestamp,
    },
    Follow {
        rx: Receiver<Announced>,
        end: Arc<FollowEnd>,
        gate: Arc<RecoveryGate>,
    },
}

/// One announced unit: the record runs persisted since the previous one.
struct Announced {
    seq: u64,
    runs: Vec<Bytes>,
    pepoch: u64,
    after_ts: Timestamp,
}

/// How a follow source ended (`Ok`: finished), shared with its handle.
type FollowEnd = Mutex<Option<Result<()>>>;

impl UnitSource {
    /// The restart source: one unit per batch of `inventory`, read and
    /// merged across loggers when the loader asks for it, keeping records
    /// with `epoch <= pepoch` and `ts > after_ts`.
    pub fn inventory(
        storage: &StorageSet,
        inventory: &LogInventory,
        pepoch: u64,
        after_ts: Timestamp,
    ) -> UnitSource {
        UnitSource {
            kind: Kind::Inventory {
                storage: storage.clone(),
                inventory: inventory.clone(),
                batches: inventory.batches().into_iter(),
                pepoch,
                after_ts,
            },
        }
    }

    /// The follow source, and the handle that announces its units. Each
    /// announcement moves `gate`'s total first.
    pub(crate) fn follow(gate: Arc<RecoveryGate>) -> (UnitSource, FollowHandle) {
        let (tx, rx) = crossbeam::channel::unbounded();
        let end = Arc::new(FollowEnd::default());
        let source = UnitSource {
            kind: Kind::Follow {
                rx,
                end: Arc::clone(&end),
                gate: Arc::clone(&gate),
            },
        };
        let handle = FollowHandle {
            tx,
            end,
            gate,
            announced: 0,
        };
        (source, handle)
    }
}

impl Iterator for UnitSource {
    /// A unit and the instant its loading began. Loaders bill load time
    /// from there, so a follow source's wait for the next announcement is
    /// not billed as loading.
    type Item = Result<(MergedBatchView, Instant)>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.kind {
            Kind::Inventory {
                storage,
                inventory,
                batches,
                pepoch,
                after_ts,
            } => {
                let batch = batches.next()?;
                let started = Instant::now();
                let view = read_merged_batch_view(storage, inventory, batch, *pepoch, *after_ts);
                Some(view.map(|v| (v, started)))
            }
            Kind::Follow { rx, end, gate } => loop {
                let next = rx.recv_timeout(Duration::from_millis(1));
                // A poisoned gate stops the source at once, ahead of any
                // units still queued: the handle failed the session, or an
                // apply engine did and is waiting for its loader to stop.
                if gate.is_failed() {
                    let e = end.lock().take().and_then(Result::err);
                    return Some(Err(
                        e.unwrap_or_else(|| Error::Unknown("recovery gate poisoned".into()))
                    ));
                }
                match next {
                    Ok(unit) => {
                        debug_assert!(
                            gate.total_batches() >= unit.seq,
                            "unit {} handed over before the gate total moved",
                            unit.seq
                        );
                        let started = Instant::now();
                        let view = merged_view_from_buffers(
                            unit.seq,
                            unit.runs,
                            unit.pepoch,
                            unit.after_ts,
                        );
                        return Some(view.map(|v| (v, started)));
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => {
                        return match end.lock().take() {
                            Some(Ok(())) => None,
                            Some(Err(e)) => Some(Err(e)),
                            None => Some(Err(Error::Unknown(
                                "follow source dropped before finish()".into(),
                            ))),
                        };
                    }
                }
            },
        }
    }
}

/// The announcing half of a follow source, held by a standby's receiver.
/// Dropping it without [`FollowHandle::finish`] fails the session.
pub struct FollowHandle {
    tx: Sender<Announced>,
    end: Arc<FollowEnd>,
    gate: Arc<RecoveryGate>,
    announced: u64,
}

impl FollowHandle {
    /// Units announced so far: the gate's moving total.
    pub fn announced(&self) -> u64 {
        self.announced
    }

    /// Hand the session one unit: the record runs persisted since the
    /// previous announcement, merged in commit order and filtered to
    /// `epoch <= pepoch` and `ts > after_ts` when the session loads it.
    ///
    /// The gate total moves *before* the unit is handed over: a read
    /// admitted after this point waits for the unit, and one admitted just
    /// before reads the previous consistent prefix.
    pub fn announce(&mut self, runs: Vec<Bytes>, pepoch: u64, after_ts: Timestamp) -> Result<()> {
        self.announced += 1;
        self.gate.set_total_batches(self.announced);
        let unit = Announced {
            seq: self.announced,
            runs,
            pepoch,
            after_ts,
        };
        self.tx
            .send(unit)
            .map_err(|_| Error::Unknown("recovery session exited".into()))
    }

    /// End the source. The session replays every announced unit, then
    /// settles `Complete` (or `Failed`) exactly as a restart session does.
    pub fn finish(self) {
        *self.end.lock() = Some(Ok(()));
    }

    /// Fail the session with `e`: the gate is poisoned now, and the
    /// session settles `Failed` without replaying the units still queued.
    pub fn fail(self, e: Error) {
        *self.end.lock() = Some(Err(e));
        self.gate.fail();
    }
}
