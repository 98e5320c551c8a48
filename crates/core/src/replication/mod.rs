//! Hot-standby replication: continuous log shipping into a follow-mode
//! recovery session, and instant failover.
//!
//! Online recovery after a crash (PR 2) replays a log that has stopped
//! growing; a hot standby replays one that keeps growing. Both are the
//! same single-pass REDO over commit-ordered units (Sauer & Härder), so
//! this module adds no apply engine of its own — failure recovery
//! degenerates to a catch-up, and the same logs double as multi-node
//! durability (Yao et al.):
//!
//! * the primary's [`pacman_wal::Durability`] exposes a framed,
//!   versioned ship stream ([`pacman_wal::ship`]) of sealed epochs and
//!   checkpoint-chain manifests;
//! * a [`Standby`] persists that stream into its own directory and
//!   announces one unit per seal into a
//!   [`crate::recovery::RecoverySession::follow`] session: the restart
//!   session's loaders, gate and settle path, with a *moving* total, so
//!   per-block (CLR / CLR-P) or per-(table, shard) (LLR-P)
//!   watermarks measure **replication lag**;
//! * the standby serves gated read-only transactions while applying: a
//!   read is admitted once its static footprint is caught up with
//!   everything shipped, and OCC validation protects it from races with
//!   concurrent installs;
//! * [`Standby::promote`] drains the shipped tail, finishes the session's
//!   source, waits for it, and reopens the standby's own (shipped) log
//!   directory for resumed logging — the PR 2 `reopen` path — flipping it
//!   into a full read-write primary. Failover is instant restart's tail.
//!
//! See `docs/REPLICATION.md` for the ship protocol, the lag-watermark
//! semantics, promote, and double-failure behavior.

pub mod standby;

pub use standby::{
    start_standby, PromotedPrimary, ReplicationStats, Standby, StandbyConfig, StandbyReport,
};

use pacman_common::{Encoder, Error, Result};
use pacman_wal::{LogShipper, ShipFrame};

/// The wire: an in-process framed byte channel. Every message is exactly
/// one encoded [`ShipFrame`]; the standby decodes (and rejects corrupt
/// frames) on its side, so the link carries bytes, not structs.
pub fn wire() -> (FrameSender, crossbeam::channel::Receiver<Vec<u8>>) {
    let (tx, rx) = crossbeam::channel::unbounded();
    (FrameSender { tx }, rx)
}

/// Sending half of a replication link.
#[derive(Clone)]
pub struct FrameSender {
    tx: crossbeam::channel::Sender<Vec<u8>>,
}

impl FrameSender {
    /// Encode and send one frame. Returns its wire size.
    pub fn send(&self, frame: &ShipFrame) -> Result<usize> {
        let bytes = frame.to_bytes();
        let len = bytes.len();
        self.tx
            .send(bytes)
            .map_err(|_| Error::Unknown("replication link closed".into()))?;
        Ok(len)
    }
}

/// Pump one shipper pass over a link: ship everything sealed up to
/// `pepoch`. Returns the number of frames sent. The primary side of a
/// replication heartbeat — call it periodically, and once more (with the
/// persisted pepoch) after the primary dies to drain the tail.
///
/// Delivery is transactional: the ship cursor only advances if every
/// frame reached the link, so a send failure loses nothing — the next
/// pump re-produces the stream from the same point, and the standby
/// dedups any redelivered record runs by file offset.
pub fn pump(shipper: &LogShipper, pepoch: u64, link: &FrameSender) -> Result<usize> {
    shipper.ship(pepoch, |f| link.send(f).map(|_| ()))
}
