//! PACMAN: parallel failure recovery for command logging (SIGMOD 2017).
//!
//! This crate is the paper's primary contribution:
//!
//! * [`static_analysis`] — compile-time decomposition of stored procedures
//!   into *slices* (local dependency graphs, Algorithm 1) and their
//!   integration into a *global dependency graph* of *blocks*
//!   (Algorithm 2), plus the transaction-chopping baseline of Fig. 18;
//! * [`schedule`] — turning a reloaded log batch into an execution schedule
//!   of *pieces* grouped into *piece-sets* (§4.2, Fig. 6);
//! * [`dynamic`] — recovery-time analysis: per-piece read/write sets from
//!   runtime parameters and the conflict-chain DAG that exposes
//!   fine-grained intra-batch parallelism (§4.3.1, Figs. 7-8);
//! * [`runtime`] — the recovery runtime: per-block worker groups sized by
//!   the estimated workload distribution, synchronous and pipelined batch
//!   execution (§4.3.2-4.4, Figs. 9-10);
//! * [`recovery`] — the five evaluated recovery schemes: PLR, LLR, LLR-P,
//!   CLR and CLR-P (= PACMAN), plus checkpoint recovery (§6.2);
//! * [`replication`] — hot-standby replication: continuous log shipping
//!   into a follow-mode recovery session and instant failover (promote =
//!   instant restart's tail);
//! * [`metrics`] — the time-breakdown instrumentation behind Fig. 20.

pub mod dynamic;
pub mod metrics;
pub mod recovery;
pub mod replication;
pub mod runtime;
pub mod schedule;
pub mod static_analysis;

pub use dynamic::PieceDag;
pub use metrics::{Breakdown, RecoveryMetrics};
pub use recovery::{RecoveryConfig, RecoveryOutcome, RecoveryReport, RecoveryScheme};
pub use replication::{PromotedPrimary, ReplicationStats, Standby, StandbyConfig};
pub use runtime::ReplayMode;
pub use schedule::{ExecutionSchedule, Piece, PieceSet};
pub use static_analysis::{ChoppingGraph, GlobalGraph, LocalGraph};
