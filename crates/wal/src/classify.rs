//! Per-transaction log-format classification for adaptive logging (ALR).
//!
//! Following Yao et al., *Adaptive Logging for Distributed In-memory
//! Databases*: command logging minimizes runtime log volume but pays
//! re-execution cost at recovery, while logical logging recovers by simply
//! reinstalling after-images. Under [`crate::LogScheme::Adaptive`] the
//! durability manager asks a pluggable [`CommitClassifier`] to choose the
//! format *per committing transaction*: cheap-to-replay transactions emit
//! tiny command records, expensive ones emit logical
//! [`crate::LogPayload::TaggedWrites`] records.
//!
//! The full cost model (static analysis + runtime EWMA) lives in
//! `pacman_core::static_analysis::cost`; this module only defines the
//! interface so the WAL layer stays independent of the analysis layer, plus
//! a small write-count fallback used when no model is installed.

use pacman_common::ProcId;
use pacman_engine::CommitInfo;

/// The log format chosen for one committing transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogChoice {
    /// Emit a command record (procedure id + parameters).
    Command,
    /// Emit a logical record (proc-tagged after-images).
    Logical,
}

/// Chooses the log format for each committing transaction and receives
/// runtime feedback so the choice can adapt mid-run.
pub trait CommitClassifier: Send + Sync {
    /// Choose the format for one committed transaction.
    fn classify(&self, proc: ProcId, info: &CommitInfo) -> LogChoice;

    /// Runtime feedback from the execution path: one committed
    /// transaction of `proc` executed `replay_ops` interpreter operations
    /// (guards resolved, loops unrolled — i.e. what re-execution would
    /// cost) and wrote `writes` tuples (what a logical record would
    /// reinstall). Default: ignore (static classifiers need no feedback).
    fn observe(&self, proc: ProcId, replay_ops: f64, writes: usize) {
        let _ = (proc, replay_ops, writes);
    }
}

/// Fallback classifier installed when [`crate::LogScheme::Adaptive`] runs
/// without a cost model: transactions with small write sets are assumed
/// cheap to re-execute and log as commands; wide transactions log
/// logically. This mirrors the intuition that re-execution cost grows with
/// the operation count, which the write set lower-bounds.
#[derive(Clone, Copy, Debug)]
pub struct WriteCountClassifier {
    /// Write-set size (exclusive) above which a transaction logs logically.
    pub max_command_writes: usize,
}

impl Default for WriteCountClassifier {
    fn default() -> Self {
        WriteCountClassifier {
            max_command_writes: 8,
        }
    }
}

impl CommitClassifier for WriteCountClassifier {
    fn classify(&self, _proc: ProcId, info: &CommitInfo) -> LogChoice {
        if info.writes.len() > self.max_command_writes {
            LogChoice::Logical
        } else {
            LogChoice::Command
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{Row, TableId, Value};
    use pacman_engine::{WriteKind, WriteRecord};

    fn info(writes: usize) -> CommitInfo {
        CommitInfo {
            ts: 1,
            ops: writes as u64,
            writes: (0..writes)
                .map(|i| WriteRecord {
                    table: TableId::new(0),
                    key: i as u64,
                    kind: WriteKind::Update,
                    after: Some(Row::from([Value::Int(0)])),
                    prev_ts: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn write_count_fallback_splits_on_threshold() {
        let c = WriteCountClassifier {
            max_command_writes: 4,
        };
        assert_eq!(c.classify(ProcId::new(0), &info(2)), LogChoice::Command);
        assert_eq!(c.classify(ProcId::new(0), &info(4)), LogChoice::Command);
        assert_eq!(c.classify(ProcId::new(0), &info(5)), LogChoice::Logical);
    }
}
