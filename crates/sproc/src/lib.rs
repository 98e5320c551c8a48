//! Stored procedures as data.
//!
//! PACMAN (§3) models a stored procedure as "a parameterized transaction
//! template … that consists of a structured flow of database operations"
//! with reads `var ← read(tbl, key)` and writes `write(tbl, key, val)`
//! (inserts and deletes being special writes). Because the recovery
//! mechanism must *analyze* procedures at compile time and *re-execute* them
//! at recovery time, procedures here are first-class values:
//!
//! * [`Expr`] — a small expression language over procedure parameters,
//!   variables produced by earlier reads, and loop indices;
//! * [`OpDef`] / [`OpKind`] — one database operation with an optional
//!   control guard and an optional counted loop;
//! * [`ProcedureDef`] — an ordered list of operations plus derived flow
//!   dependencies (define-use and control relations, §4.1.1);
//! * [`ProcBuilder`] — the DSL used by the workloads to define procedures;
//! * [`ProcRegistry`] — the dispatch table command logging refers to;
//! * [`PiecePlan`] — a set of operations compiled into loop groups,
//!   deduplicated access sites and flat register code ([`code`]), the form
//!   both parameter checking and the interpreter run;
//! * [`access`] — runtime read/write-set computation ("the read and write
//!   sets of each transaction piece could be identified from the piece's
//!   input arguments at replay time", §4.3.1).

pub mod access;
pub mod builder;
pub mod code;
pub mod expr;
pub mod op;
pub mod plan;
pub mod procedure;
pub mod registry;
pub mod vars;

pub use access::{resolve_accesses, Access};
pub use builder::ProcBuilder;
pub use code::{AccessKind, BinOp, ExecFrame, ExprCode, Instr, Machine, Operand, Prog};
pub use expr::{EvalCtx, Expr};
pub use op::{OpDef, OpKind};
pub use plan::{AccessSite, PiecePlan, PlanGroup, PlanOp};
pub use procedure::ProcedureDef;
pub use registry::ProcRegistry;
pub use vars::VarStore;

use pacman_common::Value;
use std::sync::Arc;

/// Runtime arguments of one procedure invocation. Shared between the
/// transaction, the command log record and the recovery schedule.
pub type Params = Arc<[Value]>;

/// Convenience constructor for [`Params`].
pub fn params<const N: usize>(vals: [Value; N]) -> Params {
    Arc::from(vals.to_vec())
}
