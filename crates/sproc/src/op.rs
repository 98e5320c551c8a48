//! Database operations inside a stored procedure.

use crate::expr::Expr;
use pacman_common::{OpId, TableId, VarId};
use std::fmt;

/// What an operation does once its key is resolved.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// `out ← read(table, key).col` — reads one column into a variable.
    Read {
        /// Column index read.
        col: usize,
        /// Variable the value is bound to.
        out: VarId,
    },
    /// `write(table, key, col ← value)` — read-modify-write of one column.
    Write {
        /// Column index written.
        col: usize,
        /// New value.
        value: Expr,
    },
    /// Insert a full row (a "special write", §3).
    Insert {
        /// Column expressions of the new row.
        row: Vec<Expr>,
    },
    /// Delete the row (a "special write", §3).
    Delete,
}

impl OpKind {
    /// Whether this operation modifies the table (write/insert/delete).
    pub fn is_write(&self) -> bool {
        !matches!(self, OpKind::Read { .. })
    }
}

/// One operation of a stored procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct OpDef {
    /// Position-ordered id within the procedure.
    pub id: OpId,
    /// Table accessed.
    pub table: TableId,
    /// Primary-key expression.
    pub key: Expr,
    /// Read/write/insert/delete payload.
    pub kind: OpKind,
    /// Control guard: the op executes only if the guard is truthy
    /// (conjunctions of nested `if`s). `None` = unconditional.
    pub guard: Option<Expr>,
    /// Groups consecutive ops into one counted loop body: ops sharing a
    /// `loop_id` execute together once per iteration.
    pub loop_id: Option<u32>,
    /// The iteration count of the enclosing loop (duplicated on every op of
    /// the group). `None` = exactly once.
    pub loop_count: Option<Expr>,
}

impl OpDef {
    /// Variables referenced by this op (key, value/row, guard, loop count).
    pub fn used_vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.exprs().for_each(|e| e.collect_vars(&mut out));
        out.sort();
        out.dedup();
        out
    }

    /// Every expression of the operation: key, written value or inserted
    /// columns, guard, loop count.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let payload: &[Expr] = match &self.kind {
            OpKind::Write { value, .. } => std::slice::from_ref(value),
            OpKind::Insert { row } => row,
            OpKind::Read { .. } | OpKind::Delete => &[],
        };
        std::iter::once(&self.key)
            .chain(payload)
            .chain(&self.guard)
            .chain(&self.loop_count)
    }

    /// Variables referenced by the expressions that determine *whether and
    /// where* the op executes (key, guard, loop count) — these must be
    /// resolvable before execution for dynamic analysis to precompute the
    /// access set (§4.3.1, §5).
    pub fn scheduling_vars(&self) -> Vec<VarId> {
        let mut out = Vec::new();
        self.key.collect_vars(&mut out);
        if let Some(g) = &self.guard {
            g.collect_vars(&mut out);
        }
        if let Some(c) = &self.loop_count {
            c.collect_vars(&mut out);
        }
        out.sort();
        out.dedup();
        out
    }

    /// The variable this op defines, if it is a read.
    pub fn defined_var(&self) -> Option<VarId> {
        match &self.kind {
            OpKind::Read { out, .. } => Some(*out),
            _ => None,
        }
    }

    /// Whether this op modifies its table.
    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }
}

impl fmt::Display for OpDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = &self.loop_count {
            write!(f, "for i in 0..{c}: ")?;
        }
        if let Some(g) = &self.guard {
            write!(f, "if {g}: ")?;
        }
        match &self.kind {
            OpKind::Read { col, out } => {
                write!(f, "{out} <- read({}, {}, col{col})", self.table, self.key)
            }
            OpKind::Write { col, value } => {
                write!(f, "write({}, {}, col{col} = {value})", self.table, self.key)
            }
            OpKind::Insert { row } => {
                write!(f, "insert({}, {}, [", self.table, self.key)?;
                for (i, e) in row.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "])")
            }
            OpKind::Delete => write!(f, "delete({}, {})", self.table, self.key),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: OpKind) -> OpDef {
        OpDef {
            id: OpId::new(0),
            table: TableId::new(0),
            key: Expr::param(0),
            kind,
            guard: None,
            loop_id: None,
            loop_count: None,
        }
    }

    #[test]
    fn write_kinds_are_writes() {
        assert!(!op(OpKind::Read {
            col: 0,
            out: VarId::new(0)
        })
        .is_write());
        assert!(op(OpKind::Write {
            col: 0,
            value: Expr::int(1)
        })
        .is_write());
        assert!(op(OpKind::Insert { row: vec![] }).is_write());
        assert!(op(OpKind::Delete).is_write());
    }

    #[test]
    fn used_vars_cover_all_expression_positions() {
        let mut o = op(OpKind::Write {
            col: 1,
            value: Expr::var(VarId::new(2)),
        });
        o.key = Expr::var(VarId::new(1));
        o.guard = Some(Expr::not_null(Expr::var(VarId::new(0))));
        o.loop_count = Some(Expr::var(VarId::new(3)));
        assert_eq!(
            o.used_vars(),
            vec![VarId::new(0), VarId::new(1), VarId::new(2), VarId::new(3)]
        );
        // scheduling vars exclude the written value
        assert_eq!(
            o.scheduling_vars(),
            vec![VarId::new(0), VarId::new(1), VarId::new(3)]
        );
    }

    #[test]
    fn defined_var_only_for_reads() {
        let r = op(OpKind::Read {
            col: 0,
            out: VarId::new(5),
        });
        assert_eq!(r.defined_var(), Some(VarId::new(5)));
        assert_eq!(op(OpKind::Delete).defined_var(), None);
    }

    #[test]
    fn display_read() {
        let r = op(OpKind::Read {
            col: 2,
            out: VarId::new(1),
        });
        assert_eq!(format!("{r}"), "v1 <- read(t0, $0, col2)");
    }
}
