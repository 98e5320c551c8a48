//! Compiled access plans: what static analysis hands to replay.
//!
//! A procedure slice is a list of operations; most of them revisit a tuple
//! an earlier operation already named (a TPC-C NewOrder line touches one
//! STOCK row with seven operations, all spelling out the same key
//! expression). [`PiecePlan::compile`] does the bookkeeping once, at
//! analysis time:
//!
//! * operations are grouped into loop bodies and straight-line runs — the
//!   unit of iteration of both parameter checking and execution;
//! * within a group, every distinct `(table, key-expression)` pair becomes
//!   one [`AccessSite`] (structural equality of [`Expr`]), and each
//!   operation records the index of its site. A site's key is evaluated at
//!   most once per iteration, whoever needs it first;
//! * each guard is classified: one that is certain to read a variable
//!   defined *inside* the plan cannot be decided before the piece runs, so
//!   parameter checking keeps its operation conservatively without trying.
//!
//! The whole-procedure plan and the plan of the replay-live operations are
//! cached on [`ProcedureDef`]; the global dependency graph compiles one plan
//! per piece template.

use crate::expr::{EvalCtx, Expr};
use crate::op::OpDef;
use crate::vars::VarStore;
use pacman_common::{Error, Result, TableId, Value, VarId};

/// One distinct `(table, key-expression)` pair of a group.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessSite {
    /// Table accessed.
    pub table: TableId,
    /// Primary-key expression shared by every operation of the site.
    pub key: Expr,
    /// Whether any operation of the site modifies the tuple.
    pub write: bool,
}

/// One operation of a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOp {
    /// Index into [`crate::ProcedureDef::ops`].
    pub op: usize,
    /// Index into the owning group's [`PlanGroup::sites`].
    pub site: usize,
    /// The guard is certain to read a variable one of the plan's own reads
    /// defines, so it has no value until the plan executes.
    pub guard_deferred: bool,
}

/// A loop body, or a maximal run of consecutive un-looped operations
/// (which executes exactly once).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanGroup {
    /// Whether the group is a loop body (binds the loop index).
    pub looped: bool,
    /// Iteration count of the loop; `None` = exactly once.
    pub loop_count: Option<Expr>,
    /// Member operations in program order.
    pub ops: Vec<PlanOp>,
    /// Distinct tuples one iteration names.
    pub sites: Vec<AccessSite>,
}

impl PlanGroup {
    /// Evaluate the iteration count. Loop counts never depend on the loop
    /// index or on loop-local variables (checked when the procedure is
    /// built), so one evaluation covers the whole group.
    pub fn iterations(
        &self,
        proc_name: &str,
        params: &[Value],
        vars: Option<&VarStore>,
    ) -> Result<u64> {
        let Some(count) = &self.loop_count else {
            return Ok(1);
        };
        let ctx = EvalCtx {
            params,
            vars,
            locals: None,
            loop_index: None,
        };
        match count.eval(&ctx)? {
            Value::Int(n) if n >= 0 => Ok(n as u64),
            v => Err(Error::InvalidProcedure(format!(
                "{proc_name}: loop count evaluated to {v}"
            ))),
        }
    }
}

/// The compiled form of a set of operations of one procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct PiecePlan {
    groups: Vec<PlanGroup>,
}

impl PiecePlan {
    /// Compile the operations `op_indices` (ascending program order) of a
    /// procedure whose full operation list is `ops`.
    pub fn compile(ops: &[OpDef], op_indices: &[usize]) -> PiecePlan {
        let defined_here = |v: VarId| op_indices.iter().any(|&i| ops[i].defined_var() == Some(v));
        let mut groups: Vec<PlanGroup> = Vec::new();
        let mut prev_loop: Option<Option<u32>> = None;
        for &idx in op_indices {
            let op = &ops[idx];
            if prev_loop != Some(op.loop_id) {
                groups.push(PlanGroup {
                    looped: op.loop_id.is_some(),
                    loop_count: op.loop_count.clone(),
                    ops: Vec::new(),
                    sites: Vec::new(),
                });
                prev_loop = Some(op.loop_id);
            }
            let group = groups.last_mut().expect("group pushed above");
            let site = match group
                .sites
                .iter()
                .position(|s| s.table == op.table && s.key == op.key)
            {
                Some(s) => s,
                None => {
                    group.sites.push(AccessSite {
                        table: op.table,
                        key: op.key.clone(),
                        write: false,
                    });
                    group.sites.len() - 1
                }
            };
            group.sites[site].write |= op.is_write();
            group.ops.push(PlanOp {
                op: idx,
                site,
                guard_deferred: op
                    .guard
                    .as_ref()
                    .is_some_and(|g| g.must_read(&defined_here)),
            });
        }
        PiecePlan { groups }
    }

    /// Groups in program order.
    pub fn groups(&self) -> &[PlanGroup] {
        &self.groups
    }

    /// Op indices in program order.
    pub fn op_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.groups.iter().flat_map(|g| g.ops.iter().map(|o| o.op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use pacman_common::ProcId;

    const T0: TableId = TableId::new(0);
    const T1: TableId = TableId::new(1);

    #[test]
    fn loop_body_and_straight_line_runs_form_groups() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let v = b.read(T0, Expr::param(0), 0);
        b.write(T0, Expr::param(0), 0, Expr::var(v));
        b.repeat(Expr::param(0), |b| {
            b.write(T1, Expr::LoopIndex, 0, Expr::int(1));
        });
        b.write(T1, Expr::int(7), 0, Expr::int(2));
        let p = b.build().unwrap();
        let plan = p.plan();
        let g = plan.groups();
        assert_eq!(g.len(), 3);
        assert!(!g[0].looped && g[0].loop_count.is_none());
        assert_eq!(g[0].ops.len(), 2, "consecutive un-looped ops share a group");
        assert!(g[1].looped && g[1].loop_count == Some(Expr::param(0)));
        assert!(!g[2].looped);
        assert_eq!(plan.op_indices().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn sites_deduplicate_structurally_equal_keys() {
        // Three ops on T0[$0 + 1] spelled with separately built trees, one
        // on T0[$0], one on T1[$0 + 1].
        let key = || Expr::add(Expr::param(0), Expr::int(1));
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let v = b.read(T0, key(), 0);
        b.write(T0, key(), 0, Expr::var(v));
        let _ = b.read(T0, Expr::param(0), 0);
        let _ = b.read(T1, key(), 0);
        let _ = b.read(T0, key(), 1);
        let p = b.build().unwrap();
        let g = &p.plan().groups()[0];
        assert_eq!(g.sites.len(), 3);
        assert_eq!(
            g.ops.iter().map(|o| o.site).collect::<Vec<_>>(),
            vec![0, 0, 1, 2, 0]
        );
        assert!(g.sites[0].write, "any write marks the site");
        assert!(!g.sites[1].write && !g.sites[2].write);
    }

    #[test]
    fn sub_slice_plans_only_see_their_own_ops() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let v = b.read(T0, Expr::param(0), 0);
        b.guarded(Expr::gt(Expr::var(v), Expr::int(0)), |b| {
            b.write(T1, Expr::param(0), 0, Expr::int(1));
        });
        let p = b.build().unwrap();
        // Whole procedure: the guard reads `v`, which op 0 defines.
        assert!(p.plan().groups()[0].ops[1].guard_deferred);
        // The write alone: `v` comes from another piece, so the guard can
        // be decided at parameter-checking time.
        let tail = PiecePlan::compile(&p.ops, &[1]);
        assert!(!tail.groups()[0].ops[0].guard_deferred);
        assert_eq!(tail.op_indices().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn short_circuit_guards_are_not_deferred() {
        // `$0 > 100 && v > 0`: a falsy left side decides the guard without
        // ever reading `v`.
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let v = b.read(T0, Expr::param(0), 0);
        let g = Expr::and(
            Expr::gt(Expr::param(0), Expr::int(100)),
            Expr::gt(Expr::var(v), Expr::int(0)),
        );
        b.guarded(g, |b| b.write(T0, Expr::param(0), 0, Expr::int(1)));
        let p = b.build().unwrap();
        assert!(!p.plan().groups()[0].ops[1].guard_deferred);
    }

    #[test]
    fn iteration_count_validation() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        b.repeat(Expr::param(0), |b| {
            b.write(T0, Expr::LoopIndex, 0, Expr::int(0));
        });
        let p = b.build().unwrap();
        let g = &p.plan().groups()[0];
        assert_eq!(g.iterations("P", &[Value::Int(3)], None).unwrap(), 3);
        assert!(g.iterations("P", &[Value::Int(-1)], None).is_err());
        assert!(g.iterations("P", &[Value::str("x")], None).is_err());
    }
}
