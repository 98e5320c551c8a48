//! Builder DSL for stored procedures.
//!
//! The workloads define procedures in a style that reads close to the
//! paper's pseudocode (Fig. 2a):
//!
//! ```
//! use pacman_sproc::{ProcBuilder, Expr};
//! use pacman_common::{ProcId, TableId};
//!
//! const FAMILY: TableId = TableId::new(0);
//! const CURRENT: TableId = TableId::new(1);
//!
//! let mut b = ProcBuilder::new(ProcId::new(0), "Transfer", 2);
//! let dst = b.read(FAMILY, Expr::param(0), 0);           // dst <- read(Family, src)
//! b.guarded(Expr::not_null(Expr::var(dst)), |b| {
//!     let src_val = b.read(CURRENT, Expr::param(0), 0);
//!     b.write(CURRENT, Expr::param(0), 0,
//!             Expr::sub(Expr::var(src_val), Expr::param(1)));
//! });
//! let proc = b.build().unwrap();
//! assert_eq!(proc.ops.len(), 3);
//! ```

use crate::expr::Expr;
use crate::op::{OpDef, OpKind};
use crate::procedure::ProcedureDef;
use pacman_common::{OpId, ProcId, Result, TableId, VarId};

/// Incremental procedure builder.
pub struct ProcBuilder {
    id: ProcId,
    name: String,
    num_params: usize,
    ops: Vec<OpDef>,
    num_vars: usize,
    guard_stack: Vec<Expr>,
    current_loop: Option<(u32, Expr)>,
    next_loop_id: u32,
}

impl ProcBuilder {
    /// Start a procedure with `num_params` scalar parameters.
    pub fn new(id: ProcId, name: &str, num_params: usize) -> Self {
        ProcBuilder {
            id,
            name: name.to_string(),
            num_params,
            ops: Vec::new(),
            num_vars: 0,
            guard_stack: Vec::new(),
            current_loop: None,
            next_loop_id: 0,
        }
    }

    fn combined_guard(&self) -> Option<Expr> {
        let mut it = self.guard_stack.iter().cloned();
        let first = it.next()?;
        Some(it.fold(first, Expr::and))
    }

    fn push_op(&mut self, table: TableId, key: Expr, kind: OpKind) {
        let (loop_id, loop_count) = match &self.current_loop {
            Some((id, count)) => (Some(*id), Some(count.clone())),
            None => (None, None),
        };
        self.ops.push(OpDef {
            id: OpId::new(self.ops.len() as u32),
            table,
            key,
            kind,
            guard: self.combined_guard(),
            loop_id,
            loop_count,
        });
    }

    /// `var ← read(table, key).col` — returns the fresh variable.
    pub fn read(&mut self, table: TableId, key: Expr, col: usize) -> VarId {
        let out = VarId::new(self.num_vars as u32);
        self.num_vars += 1;
        self.push_op(table, key, OpKind::Read { col, out });
        out
    }

    /// `write(table, key, col ← value)`.
    pub fn write(&mut self, table: TableId, key: Expr, col: usize, value: Expr) {
        self.push_op(table, key, OpKind::Write { col, value });
    }

    /// `insert(table, key, row)`.
    pub fn insert(&mut self, table: TableId, key: Expr, row: Vec<Expr>) {
        self.push_op(table, key, OpKind::Insert { row });
    }

    /// `delete(table, key)`.
    pub fn delete(&mut self, table: TableId, key: Expr) {
        self.push_op(table, key, OpKind::Delete);
    }

    /// Ops added inside `body` execute only when `cond` is truthy. Nested
    /// guards conjoin.
    pub fn guarded(&mut self, cond: Expr, body: impl FnOnce(&mut Self)) {
        self.guard_stack.push(cond);
        body(self);
        self.guard_stack.pop();
    }

    /// Ops added inside `body` form one counted loop executing `count`
    /// times with `Expr::LoopIndex` bound. Loops cannot nest.
    ///
    /// # Panics
    ///
    /// Panics if called inside another `repeat`.
    pub fn repeat(&mut self, count: Expr, body: impl FnOnce(&mut Self)) {
        assert!(
            self.current_loop.is_none(),
            "nested loops are not supported"
        );
        let id = self.next_loop_id;
        self.next_loop_id += 1;
        self.current_loop = Some((id, count));
        body(self);
        self.current_loop = None;
    }

    /// Validate and produce the procedure.
    pub fn build(self) -> Result<ProcedureDef> {
        ProcedureDef::new(self.id, self.name, self.num_params, self.ops, self.num_vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::Error;

    const T0: TableId = TableId::new(0);
    const T1: TableId = TableId::new(1);

    #[test]
    fn bank_transfer_shape_matches_fig2() {
        // Fig. 2a: Transfer(src, amount)
        let mut b = ProcBuilder::new(ProcId::new(0), "Transfer", 2);
        let dst = b.read(T0, Expr::param(0), 0); // line 2
        b.guarded(Expr::not_null(Expr::var(dst)), |b| {
            let src_val = b.read(T1, Expr::param(0), 0); // line 4
            b.write(
                T1,
                Expr::param(0),
                0,
                Expr::sub(Expr::var(src_val), Expr::param(1)),
            ); // line 5
            let dst_val = b.read(T1, Expr::var(dst), 0); // line 6
            b.write(
                T1,
                Expr::var(dst),
                0,
                Expr::add(Expr::var(dst_val), Expr::param(1)),
            ); // line 7
        });
        let p = b.build().unwrap();
        assert_eq!(p.ops.len(), 5);
        // Line 5 flow-depends on line 4 (define-use) and line 2 (control).
        assert_eq!(p.flow_deps_of(2), &[OpId::new(0), OpId::new(1)]);
        // Line 4 flow-depends on line 2 through the guard alone.
        assert_eq!(p.flow_deps_of(1), &[OpId::new(0)]);
    }

    #[test]
    fn nested_guards_conjoin() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let v = b.read(T0, Expr::param(0), 0);
        b.guarded(Expr::gt(Expr::var(v), Expr::int(0)), |b| {
            b.guarded(Expr::gt(Expr::var(v), Expr::int(10)), |b| {
                b.write(T1, Expr::param(0), 0, Expr::int(1));
            });
        });
        let p = b.build().unwrap();
        let g = p.ops[1].guard.as_ref().unwrap();
        let printed = format!("{g}");
        assert!(printed.contains("&&"), "guards should conjoin: {printed}");
    }

    #[test]
    fn repeat_groups_ops() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 2);
        b.repeat(Expr::param(1), |b| {
            let q = b.read(T0, Expr::ParamOffset { base: 2, stride: 1 }, 0);
            b.write(
                T0,
                Expr::ParamOffset { base: 2, stride: 1 },
                0,
                Expr::sub(Expr::var(q), Expr::int(1)),
            );
        });
        b.write(T1, Expr::param(0), 0, Expr::int(1));
        let p = b.build().unwrap();
        assert_eq!(p.ops[0].loop_id, Some(0));
        assert_eq!(p.ops[1].loop_id, Some(0));
        assert_eq!(p.ops[2].loop_id, None);
        let groups = p.plan().groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].sites.len(), 1, "read and write share a site");
    }

    #[test]
    #[should_panic(expected = "nested loops")]
    fn nested_repeat_panics() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        b.repeat(Expr::int(2), |b| {
            b.repeat(Expr::int(2), |b| {
                b.write(T0, Expr::int(0), 0, Expr::int(0));
            });
        });
    }

    #[test]
    fn invalid_procedures_surface_build_errors() {
        // Loop-local variable escaping its loop.
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let mut leaked = VarId::new(0);
        b.repeat(Expr::int(2), |b| {
            leaked = b.read(T0, Expr::LoopIndex, 0);
        });
        b.write(T1, Expr::param(0), 0, Expr::var(leaked));
        assert!(matches!(b.build(), Err(Error::InvalidProcedure(_))));
    }
}
