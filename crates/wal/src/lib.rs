//! Durability: logging and checkpointing (paper §2, Appendix A).
//!
//! The implementation follows the SiloR-style design the paper describes:
//! worker threads serialize their own commit records and hand them to
//! logger threads (one per device); loggers group-commit in units of
//! epochs, truncating their output into fixed-size *log batches* (files);
//! the logger whose seal raises the slowest logger's progress publishes it
//! as the *pepoch*, the durability frontier transactions are acknowledged
//! at; checkpointer
//! threads (one per device) periodically persist a transactionally
//! consistent snapshot (a snapshot hold, under which each tuple keeps the
//! version visible at it) without blocking transactions.
//!
//! Three logging schemes are implemented (§2.1):
//!
//! * **Physical** (`PL`) — after-images plus old/new version locations;
//! * **Logical** (`LL`) — after-images only;
//! * **Command** (`CL`) — procedure id + parameters (+ logical records for
//!   ad-hoc transactions, §4.5).

pub mod batch;
pub mod checkpoint;
pub mod durability;
pub mod logger;
pub mod pepoch;
pub mod record;
pub mod retention;
pub mod ship;

pub use batch::{
    batch_index_of_epoch, batch_name, list_batch_indices, merged_view_from_buffers,
    truncate_log_tail, MergedBatchView,
};
pub use checkpoint::{
    read_chain, run_checkpoint, run_checkpoint_full, run_checkpoint_full_chained,
    run_checkpoint_incremental, run_checkpoint_incremental_chained, CheckpointChain,
    CheckpointManifest, CheckpointStats, PartView, ResolvedPart,
};
pub use durability::{Durability, DurabilityConfig, LogScheme, ResumeInfo, WorkerLogBuffer};
pub use pepoch::DurableSignal;
pub use record::{
    decode_after_image, LogPayload, PayloadKind, PayloadRef, RecordView, TxnLogRecord, WriteSpan,
    WritesIter,
};
pub use retention::{
    HoldKind, ReclaimStats, RetentionHold, RetentionManager, RetentionPolicy, RETENTION_FILE,
};
pub use ship::{LogShipper, ShipCounters, ShipCursor, ShipFrame, SHIP_WIRE_VERSION};
