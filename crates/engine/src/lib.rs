//! A main-memory storage engine.
//!
//! Stands in for Peloton, the DBMS the paper implements PACMAN in (§6). The
//! engine supplies everything the evaluation relies on while staying
//! orthogonal to PACMAN itself (the paper stresses PACMAN works with any
//! data layout / concurrency control):
//!
//! * tuples ([`chain::TupleChain`]) holding their newest version, plus the
//!   one pre-image a live checkpoint hold can see, with per-tuple spin
//!   latches — the latches that make tuple-level recovery scale poorly
//!   (Figs. 14/15);
//! * sharded ordered indexes ([`table::Table`]) playing the role of
//!   Peloton's B-tree indexes;
//! * Silo-style OCC transactions ([`txn::Txn`]) whose commit order is the
//!   timestamp order recovery must reproduce;
//! * a transactionally-consistent snapshot facility for checkpointing
//!   (§2.2: the checkpoint reads the versions visible at its snapshot and
//!   never blocks transactions);
//! * the operation interpreter ([`interp`]) shared by normal execution and
//!   command-log replay;
//! * the epoch manager ([`epoch`]) underpinning SiloR-style group commit
//!   (Appendix A).

pub mod access;
pub mod catalog;
pub mod chain;
pub mod database;
pub mod epoch;
pub mod interp;
pub mod recovery_gate;
pub mod table;
pub mod txn;

pub use access::{DataAccess, ReplayAccess, TxnAccess};
pub use catalog::{Catalog, TableMeta};
pub use chain::TupleChain;
pub use database::{Database, SnapshotHold};
pub use epoch::EpochManager;
pub use interp::{
    execute_plan, run_procedure, run_procedure_in, run_procedure_with_epoch, ExecFrame,
};
pub use recovery_gate::{AdmissionControl, RecoveryGate};
pub use table::{ShardLoad, Table};
pub use txn::{recycle_commit_info, CommitInfo, Txn, TxnScratch, WriteKind, WriteRecord};
