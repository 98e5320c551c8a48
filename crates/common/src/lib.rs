//! Core types shared by every crate in the PACMAN reproduction.
//!
//! This crate deliberately has no knowledge of databases, logging or
//! recovery; it provides the vocabulary the rest of the workspace is written
//! in:
//!
//! * [`Value`] / [`Row`] — the dynamically-typed tuple representation,
//! * [`Key`] — 64-bit primary keys plus bit-packing helpers for composite
//!   keys,
//! * strongly-typed identifiers ([`TableId`], [`ProcId`], …),
//! * a fast hand-rolled binary [`codec`] used for log records and
//!   checkpoints,
//! * a global [`LogicalClock`] issuing commit timestamps,
//! * a [`SpinLatch`] mirroring the per-tuple latches of the paper's
//!   tuple-level recovery schemes,
//! * one fixed [`KeyHasher`] (with [`KeyMap`] / [`KeySet`]) for every map
//!   keyed by a tuple,
//! * a log-bucketed [`Histogram`] for latency percentiles, and
//! * [`fingerprint`] utilities used by the recovery-equivalence tests.

pub mod clock;
pub mod codec;
pub mod error;
pub mod fingerprint;
pub mod hash;
pub mod histogram;
pub mod ids;
pub mod key;
pub mod latch;
pub mod row;
pub mod value;

pub use clock::{LogicalClock, Timestamp};
pub use codec::{Decoder, Encoder};
pub use error::{Error, Result};
pub use fingerprint::Fingerprint;
pub use hash::{KeyHasher, KeyMap, KeySet};
pub use histogram::Histogram;
pub use ids::{BlockId, OpId, ProcId, SliceId, TableId, VarId};
pub use key::Key;
pub use latch::SpinLatch;
pub use row::Row;
pub use value::Value;
