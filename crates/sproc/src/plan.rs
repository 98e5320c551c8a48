//! Compiled plans: what static analysis hands to execution.
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
//!   parameter checking keeps its operation conservatively without trying;
//! * every expression is lowered to the flat register code of
//!   [`crate::code`]: per group one instruction list — the loop count, then
//!   per operation its guard, its site's key (skipped when known) and the
//!   access itself — which the interpreter runs as a `pc` loop and of which
//!   parameter checking runs the guard and key programs;
//! * each read learns whether an operation *outside* the plan uses its
//!   variable (then it publishes it to the transaction's
//!   [`crate::VarStore`]; otherwise the value never leaves its register),
//!   and a read whose only use is the `v ± e` of the write that follows it
//!   to the same site and column is fused with it into one add-to-column.
//!
//! The whole-procedure plan and the plan of the replay-live operations are
//! cached on [`crate::ProcedureDef`]; the global dependency graph compiles
//! one plan per piece template.

use crate::code::{write_code, AccessKind, Instr, Lower, Machine, Operand, Prog};
use crate::expr::Expr;
use crate::op::{OpDef, OpKind};
use crate::vars::VarStore;
use crate::ExecFrame;
use pacman_common::{Error, Result, TableId, Value, VarId};
use std::fmt;

/// One distinct `(table, key-expression)` pair of a group.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessSite {
    /// Table accessed.
    pub table: TableId,
    /// Primary-key expression shared by every operation of the site.
    pub key: Expr,
    /// Whether any operation of the site modifies the tuple.
    pub write: bool,
    /// `key`, compiled: a program of the group's code.
    pub key_prog: Prog,
}

/// One operation of a plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanOp {
    /// Index into [`crate::ProcedureDef::ops`].
    pub op: usize,
    /// Index into the owning group's [`PlanGroup::sites`].
    pub site: usize,
    /// Whether the operation modifies its tuple.
    pub write: bool,
    /// The guard is certain to read a variable one of the plan's own reads
    /// defines, so it has no value until the plan executes.
    pub guard_deferred: bool,
    /// The guard, compiled: a program of the group's code.
    pub guard: Option<Prog>,
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
    /// The group's instructions: the loop count's, then the body's.
    code: Vec<Instr>,
    /// `loop_count`, compiled.
    count: Option<Prog>,
    /// Where one iteration of the body starts in `code`.
    body: usize,
    /// Registers of the loop's own variables — unbound at the start of
    /// every iteration.
    loop_regs: Vec<u32>,
    /// Column operands of the body's inserts.
    rows: Vec<Operand>,
}

impl PlanGroup {
    /// The group's instructions.
    pub fn code(&self) -> &[Instr] {
        &self.code
    }

    /// Where one iteration of the body starts in [`PlanGroup::code`].
    pub fn body(&self) -> usize {
        self.body
    }

    /// The column operands of an [`AccessKind::Insert`].
    pub fn row(&self, start: u32, len: u32) -> &[Operand] {
        &self.rows[start as usize..(start + len) as usize]
    }

    /// Evaluate the iteration count. Loop counts never depend on the loop
    /// index or on loop-local variables (checked when the procedure is
    /// built), so one evaluation covers the whole group.
    pub fn iterations(&self, proc_name: &str, m: &mut Machine<'_>) -> Result<u64> {
        let Some(count) = &self.count else {
            return Ok(1);
        };
        m.begin_iteration(None, &[]);
        match m.eval(&self.code, count)? {
            Value::Int(n) if *n >= 0 => Ok(*n as u64),
            v => Err(Error::InvalidProcedure(format!(
                "{proc_name}: loop count evaluated to {v}"
            ))),
        }
    }

    /// Enter iteration `i` of the group on `m`.
    #[inline]
    pub fn begin_iteration(&self, i: u64, m: &mut Machine<'_>) {
        m.begin_iteration(self.looped.then_some(i), &self.loop_regs);
    }
}

/// The compiled form of a set of operations of one procedure.
#[derive(Clone, Debug, PartialEq)]
pub struct PiecePlan {
    groups: Vec<PlanGroup>,
    consts: Vec<Value>,
    num_regs: u32,
    /// The registers of the variables the code can look at — defined by a
    /// read of the plan, or imported.
    var_regs: Vec<u32>,
    hands_off: bool,
}

/// What compiling a plan needs to know about the procedure's variables.
struct VarFacts {
    /// How often the variable occurs in any expression of the procedure.
    uses: Vec<u32>,
    /// A read of the plan defines it: it lives in its register, there is
    /// no hand-off to import.
    local: Vec<bool>,
    /// An operation outside the plan, and one that runs, uses it.
    wanted_outside: Vec<bool>,
    /// The loop whose body defines it.
    local_to: Vec<Option<u32>>,
}

impl VarFacts {
    fn of(ops: &[OpDef], op_indices: &[usize], runs: &dyn Fn(usize) -> bool) -> VarFacts {
        let mut occurrences: Vec<VarId> = Vec::new();
        ops.iter()
            .flat_map(OpDef::exprs)
            .for_each(|e| e.collect_vars(&mut occurrences));
        let num_vars = ops
            .iter()
            .filter_map(OpDef::defined_var)
            .chain(occurrences.iter().copied())
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        let mut facts = VarFacts {
            uses: vec![0; num_vars],
            local: vec![false; num_vars],
            wanted_outside: vec![false; num_vars],
            local_to: vec![None; num_vars],
        };
        for v in &occurrences {
            facts.uses[v.index()] += 1;
        }
        for (i, op) in ops.iter().enumerate() {
            let in_plan = op_indices.contains(&i);
            if let Some(v) = op.defined_var() {
                facts.local[v.index()] |= in_plan;
                facts.local_to[v.index()] = op.loop_id;
            }
            if !in_plan && runs(i) {
                for v in op.used_vars() {
                    facts.wanted_outside[v.index()] = true;
                }
            }
        }
        facts
    }
}

/// The registers of the variables `ops` define or use.
fn var_regs<'a>(ops: impl Iterator<Item = &'a OpDef>) -> Vec<u32> {
    let mut regs: Vec<u32> = ops
        .flat_map(|op| op.used_vars().into_iter().chain(op.defined_var()))
        .map(|v| v.0)
        .collect();
    regs.sort_unstable();
    regs.dedup();
    regs
}

/// If `read` and the operation after it, `next`, are a read–modify–write
/// that one add-to-column instruction can stand for: the amount and
/// whether it is subtracted. `next` must be the `v ± e` write to the same
/// column under the same guard (the caller checks the site), `v` the
/// read's variable and used nowhere else, and `e` a leaf that is looked at
/// when the write would have looked at it — so not a variable to import.
fn fused<'a>(read: &OpDef, next: &'a OpDef, vars: &VarFacts) -> Option<(&'a Expr, bool)> {
    let (OpKind::Read { col, out }, OpKind::Write { col: wcol, value }) = (&read.kind, &next.kind)
    else {
        return None;
    };
    if wcol != col || next.guard != read.guard || vars.uses[out.index()] != 1 {
        return None;
    }
    let (delta, negate) = match value {
        Expr::Add(v, e) if **v == Expr::Var(*out) => (&**e, false),
        Expr::Sub(v, e) if **v == Expr::Var(*out) => (&**e, true),
        _ => return None,
    };
    let leaf = match delta {
        Expr::Var(x) => vars.local[x.index()],
        Expr::Const(_) | Expr::Param(_) | Expr::ParamOffset { .. } | Expr::LoopIndex => true,
        _ => false,
    };
    leaf.then_some((delta, negate))
}

/// Placeholder until a site's first operation is lowered (a real key
/// program starts behind its `KeyKnown`, never at 0).
const NO_PROG: Prog = Prog {
    start: 0,
    end: 0,
    out: Operand::Const(0),
};

impl PlanGroup {
    /// Lower the group's expressions and operations to `self.code`.
    /// Returns whether a read publishes its variable.
    fn lower(&mut self, ops: &[OpDef], vars: &VarFacts, lower: &mut Lower<'_>) -> bool {
        let loop_id = ops[self.ops[0].op].loop_id;
        if loop_id.is_some() {
            self.loop_regs = var_regs(self.ops.iter().map(|p| &ops[p.op]));
            self.loop_regs
                .retain(|&r| vars.local_to[r as usize] == loop_id);
        }
        lower.release_temps();
        self.count = self.loop_count.as_ref().map(|c| lower.prog(c));
        self.body = lower.code.len();

        let mut publishes = false;
        // A site whose key an unguarded operation has set stays keyed for
        // the rest of the iteration.
        let mut keyed = vec![false; self.sites.len()];
        let mut k = 0;
        while k < self.ops.len() {
            let PlanOp { op: idx, site, .. } = self.ops[k];
            let op = &ops[idx];
            lower.release_temps();
            let guard = op.guard.as_ref().map(|g| lower.prog(g));
            let skip = guard.map(|g| {
                lower.emit(Instr::JumpIfFalsy {
                    cond: g.out,
                    target: 0,
                })
            });
            lower.release_temps();
            if !keyed[site] {
                let known = lower.emit(Instr::KeyKnown {
                    site: site as u32,
                    target: 0,
                });
                let key = lower.prog(&op.key);
                lower.emit(Instr::SetSiteKey {
                    site: site as u32,
                    key: key.out,
                });
                lower.land(known);
                if self.sites[site].key_prog == NO_PROG {
                    self.sites[site].key_prog = key;
                }
                keyed[site] = op.guard.is_none();
            }
            let pair = match self.ops.get(k + 1) {
                Some(next) if next.site == site => fused(op, &ops[next.op], vars),
                _ => None,
            };
            let kind = match (&op.kind, pair) {
                (OpKind::Read { col, .. }, Some((delta, negate))) => AccessKind::AddCol {
                    col: *col as u32,
                    delta: lower.expr(delta),
                    negate,
                },
                (OpKind::Read { col, out }, None) => {
                    let publish = vars.wanted_outside[out.index()];
                    publishes |= publish;
                    AccessKind::Read {
                        col: *col as u32,
                        dst: out.0,
                        publish,
                    }
                }
                (OpKind::Write { col, value }, _) => AccessKind::Write {
                    col: *col as u32,
                    value: lower.expr(value),
                },
                (OpKind::Insert { row }, _) => {
                    let start = self.rows.len() as u32;
                    self.rows.extend(lower.sequence(row));
                    AccessKind::Insert {
                        start,
                        len: row.len() as u32,
                    }
                }
                (OpKind::Delete, _) => AccessKind::Delete,
            };
            lower.emit(Instr::Access {
                op: idx as u32,
                site: site as u32,
                kind,
            });
            if let Some(skip) = skip {
                lower.land(skip);
            }
            // A fused pair shares the one guard evaluation.
            let covered = 1 + pair.is_some() as usize;
            for pop in &mut self.ops[k..k + covered] {
                pop.guard = guard;
            }
            k += covered;
        }
        self.code = std::mem::take(&mut lower.code);
        publishes
    }
}

impl PiecePlan {
    /// Compile the operations `op_indices` (ascending program order) of a
    /// procedure whose full operation list is `ops`, taking every other
    /// operation of the procedure to run in some other plan of the same
    /// transaction.
    pub fn compile(ops: &[OpDef], op_indices: &[usize]) -> PiecePlan {
        Self::compile_among(ops, op_indices, &|_| true)
    }

    /// [`PiecePlan::compile`] where only the operations for which `runs`
    /// holds execute at all (command-log replay runs the replay-live ones):
    /// a variable is handed over through the store only if one of those,
    /// outside this plan, uses it.
    pub fn compile_among(
        ops: &[OpDef],
        op_indices: &[usize],
        runs: &dyn Fn(usize) -> bool,
    ) -> PiecePlan {
        let vars = VarFacts::of(ops, op_indices, runs);
        let local = |v: VarId| vars.local[v.index()];

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
                    code: Vec::new(),
                    count: None,
                    body: 0,
                    loop_regs: Vec::new(),
                    rows: Vec::new(),
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
                        key_prog: NO_PROG,
                    });
                    group.sites.len() - 1
                }
            };
            group.sites[site].write |= op.is_write();
            group.ops.push(PlanOp {
                op: idx,
                site,
                write: op.is_write(),
                guard_deferred: op.guard.as_ref().is_some_and(|g| g.must_read(&local)),
                guard: None,
            });
        }

        let mut lower = Lower::new(vars.uses.len() as u32, &local);
        let mut publishes = false;
        for group in &mut groups {
            publishes |= group.lower(ops, &vars, &mut lower);
        }
        PiecePlan {
            groups,
            var_regs: var_regs(op_indices.iter().map(|&i| &ops[i])),
            hands_off: publishes || lower.imports,
            num_regs: lower.num_regs,
            consts: lower.consts,
        }
    }

    /// Groups in program order.
    pub fn groups(&self) -> &[PlanGroup] {
        &self.groups
    }

    /// Op indices in program order.
    pub fn op_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.groups.iter().flat_map(|g| g.ops.iter().map(|o| o.op))
    }

    /// Whether the plan publishes a variable to, or imports one from, the
    /// transaction's [`VarStore`]. A transaction none of whose plans does
    /// needs no store of its own ([`VarStore::shared_empty`]).
    pub fn hands_off(&self) -> bool {
        self.hands_off
    }

    /// An evaluator for this plan's code over `frame`, every register
    /// unbound.
    pub fn machine<'a>(
        &'a self,
        params: &'a [Value],
        store: &'a VarStore,
        frame: &'a mut ExecFrame,
    ) -> Machine<'a> {
        Machine::new(
            &self.consts,
            self.num_regs,
            &self.var_regs,
            params,
            store,
            frame,
        )
    }
}

/// The compiled code, group by group, one instruction a line.
impl fmt::Display for PiecePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for group in &self.groups {
            match &group.loop_count {
                Some(count) => writeln!(f, "  loop {count} times:")?,
                None => writeln!(f, "  once:")?,
            }
            for (n, site) in group.sites.iter().enumerate() {
                writeln!(f, "    site{n} = {}[{}]", site.table, site.key)?;
            }
            write_code(f, "    ", &group.code, &self.consts, &group.rows)?;
        }
        Ok(())
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

    fn accesses(plan: &PiecePlan) -> Vec<AccessKind> {
        plan.groups()
            .iter()
            .flat_map(|g| g.code())
            .filter_map(|ins| match ins {
                Instr::Access { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_read_whose_only_use_is_the_next_write_of_its_column_is_fused() {
        let rmw = |col, value: fn(VarId) -> Expr, reuse: bool| {
            let mut b = ProcBuilder::new(ProcId::new(0), "P", 2);
            let v = b.read(T0, Expr::param(0), 0);
            b.write(T0, Expr::param(0), col, value(v));
            if reuse {
                b.write(T1, Expr::param(0), 0, Expr::var(v));
            }
            accesses(b.build().unwrap().plan())
        };
        let add = |v| Expr::add(Expr::var(v), Expr::param(1));
        assert_eq!(
            rmw(0, add, false),
            [AccessKind::AddCol {
                col: 0,
                delta: Operand::Param(1),
                negate: false
            }]
        );
        let sub = |v| Expr::sub(Expr::var(v), Expr::int(1));
        assert!(matches!(
            rmw(0, sub, false)[..],
            [AccessKind::AddCol { negate: true, .. }]
        ));
        // Another column, another user, an amount that needs code of its
        // own or the variable on the right: a read and a write.
        assert_eq!(rmw(1, add, false).len(), 2);
        assert_eq!(rmw(0, add, true).len(), 3);
        let deep = |v| Expr::add(Expr::var(v), Expr::mul(Expr::param(1), Expr::int(2)));
        assert_eq!(rmw(0, deep, false).len(), 2);
        let flipped = |v| Expr::sub(Expr::param(1), Expr::var(v));
        assert_eq!(rmw(0, flipped, false).len(), 2);
    }

    #[test]
    fn reads_publish_only_to_users_that_run_outside_the_plan() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let v = b.read(T0, Expr::param(0), 0);
        let _dead = b.read(T1, Expr::var(v), 0);
        b.write(T1, Expr::param(0), 0, Expr::var(v));
        let p = b.build().unwrap();
        let publishes = |plan: &PiecePlan| {
            accesses(plan)
                .iter()
                .any(|k| matches!(k, AccessKind::Read { publish: true, .. }))
        };
        // Every user inside: the variable never leaves its register.
        assert!(!p.plan().hands_off() && !p.replay_plan().hands_off());
        // The write in another plan: handed over, and imported there.
        let head = PiecePlan::compile(&p.ops, &[0]);
        assert!(publishes(&head) && head.hands_off());
        let tail = PiecePlan::compile(&p.ops, &[2]);
        assert!(!publishes(&tail) && tail.hands_off());
        // Only the dead read outside, and replay does not run it.
        let live = [0, 2];
        assert!(publishes(&PiecePlan::compile(&p.ops, &live)));
        assert!(!p.replay_piece(&live).hands_off());
    }

    #[test]
    fn iteration_count_validation() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        b.repeat(Expr::param(0), |b| {
            b.write(T0, Expr::LoopIndex, 0, Expr::int(0));
        });
        let p = b.build().unwrap();
        let g = &p.plan().groups()[0];
        let iterations = |params: &[Value]| {
            let mut frame = ExecFrame::default();
            let mut m = p
                .plan()
                .machine(params, VarStore::shared_empty(), &mut frame);
            g.iterations("P", &mut m)
        };
        assert_eq!(iterations(&[Value::Int(3)]).unwrap(), 3);
        assert!(iterations(&[Value::Int(-1)]).is_err());
        assert!(iterations(&[Value::str("x")]).is_err());
    }
}
