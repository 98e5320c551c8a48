//! Procedure definitions and flow-dependency extraction.
//!
//! §4.1.1: flow dependencies capture (1) define-use relations (a value
//! returned by a read feeds a later operation) and (2) control relations (a
//! read's output decides whether a later operation executes). Both appear
//! here as variable references: control conditions are guard expressions
//! over variables, so a single "uses variable defined by op X" rule extracts
//! exactly the dependencies of Fig. 2(b).

use crate::op::{OpDef, OpKind};
use crate::plan::PiecePlan;
use pacman_common::{Error, OpId, ProcId, Result, VarId};

/// A fully-validated stored procedure.
#[derive(Clone, Debug)]
pub struct ProcedureDef {
    /// Registry id.
    pub id: ProcId,
    /// Human-readable name (e.g. `"Transfer"`).
    pub name: String,
    /// Number of *scalar* parameters (list parameters extend past this and
    /// are validated per invocation).
    pub num_params: usize,
    /// Operations in program order.
    pub ops: Vec<OpDef>,
    /// Number of variables (reads) in the procedure.
    pub num_vars: usize,
    /// Per-variable: index of the defining op.
    var_def: Vec<usize>,
    /// Per-variable: whether it is defined inside a loop (loop-local).
    var_loop_local: Vec<bool>,
    /// Per-op: the ops it directly flow-depends on.
    flow_deps: Vec<Vec<OpId>>,
    /// The whole procedure compiled into an access plan — what normal
    /// processing executes.
    plan: PiecePlan,
    /// Per-op: whether command-log replay must execute it (see
    /// [`replay_liveness`]).
    replay_live: Vec<bool>,
    /// The replay-live ops compiled into an access plan — what serial
    /// command-log replay executes.
    replay_plan: PiecePlan,
}

/// Which ops command-log replay has to execute: every write, insert and
/// delete, and every read whose variable a replay-live op uses — as key,
/// written value, insert column, guard or loop count ([`OpDef::used_vars`]
/// names all five). The rest are reads whose value reaches no write.
///
/// Recovery owes the committed *state*, not the reads a client once asked
/// for, so a replay-dead read is simply not run. That drops no error:
/// replay only sees transactions that committed, and each of their reads
/// found its tuple then — a read cannot fail at replay if it did not fail
/// before commit, so skipping it hides nothing recovery would have raised.
///
/// Uses follow definitions in program order (checked by
/// [`ProcedureDef::new`]), so one backward pass reaches the fixpoint.
fn replay_liveness(ops: &[OpDef], num_vars: usize) -> Vec<bool> {
    let mut needed = vec![false; num_vars];
    let mut live = vec![false; ops.len()];
    for (i, op) in ops.iter().enumerate().rev() {
        live[i] = op.defined_var().is_none_or(|v| needed[v.index()]);
        if live[i] {
            for v in op.used_vars() {
                needed[v.index()] = true;
            }
        }
    }
    live
}

impl ProcedureDef {
    /// Validate and finish a procedure (used by the builder).
    pub fn new(
        id: ProcId,
        name: String,
        num_params: usize,
        ops: Vec<OpDef>,
        num_vars: usize,
    ) -> Result<Self> {
        // Locate variable definitions and detect double definitions.
        let mut var_def = vec![usize::MAX; num_vars];
        let mut var_loop_local = vec![false; num_vars];
        for (i, op) in ops.iter().enumerate() {
            if let Some(v) = op.defined_var() {
                if var_def[v.index()] != usize::MAX {
                    return Err(Error::InvalidProcedure(format!(
                        "{name}: variable {v} defined twice"
                    )));
                }
                var_def[v.index()] = i;
                var_loop_local[v.index()] = op.loop_id.is_some();
            }
        }
        for (v, &d) in var_def.iter().enumerate() {
            if d == usize::MAX {
                return Err(Error::InvalidProcedure(format!(
                    "{name}: variable v{v} never defined"
                )));
            }
        }

        // Check use-after-def, loop locality, and loop-expression scoping;
        // derive flow dependencies.
        let mut flow_deps: Vec<Vec<OpId>> = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            if op.loop_id.is_none() {
                let loopy = op.key.uses_loop()
                    || op.guard.as_ref().is_some_and(|g| g.uses_loop())
                    || match &op.kind {
                        OpKind::Write { value, .. } => value.uses_loop(),
                        OpKind::Insert { row } => row.iter().any(|e| e.uses_loop()),
                        _ => false,
                    };
                if loopy {
                    return Err(Error::InvalidProcedure(format!(
                        "{name}: op {} uses loop index outside a loop",
                        op.id
                    )));
                }
            }
            if let Some(c) = &op.loop_count {
                let mut cv = Vec::new();
                c.collect_vars(&mut cv);
                if c.uses_loop() {
                    return Err(Error::InvalidProcedure(format!(
                        "{name}: loop count of op {} may not use the loop index",
                        op.id
                    )));
                }
                for v in cv {
                    if var_loop_local[v.index()] {
                        return Err(Error::InvalidProcedure(format!(
                            "{name}: loop count of op {} uses loop-local {v}",
                            op.id
                        )));
                    }
                }
            }
            let mut deps = Vec::new();
            for v in op.used_vars() {
                let def = var_def[v.index()];
                if def >= i {
                    return Err(Error::InvalidProcedure(format!(
                        "{name}: op {} uses {v} before its definition",
                        op.id
                    )));
                }
                // Loop-local variables may only be used within the same loop.
                if var_loop_local[v.index()] && ops[def].loop_id != op.loop_id {
                    return Err(Error::InvalidProcedure(format!(
                        "{name}: loop-local {v} used outside its loop by op {}",
                        op.id
                    )));
                }
                deps.push(ops[def].id);
            }
            deps.sort();
            deps.dedup();
            flow_deps.push(deps);
        }

        // Loop groups must be contiguous.
        let mut seen: Vec<u32> = Vec::new();
        let mut prev: Option<u32> = None;
        for op in &ops {
            match (prev, op.loop_id) {
                (Some(p), Some(l)) if p == l => {}
                (_, Some(l)) => {
                    if seen.contains(&l) {
                        return Err(Error::InvalidProcedure(format!(
                            "{name}: loop {l} is not contiguous"
                        )));
                    }
                    seen.push(l);
                }
                _ => {}
            }
            prev = op.loop_id;
        }

        let all_ops: Vec<usize> = (0..ops.len()).collect();
        let plan = PiecePlan::compile(&ops, &all_ops);
        let replay_live = replay_liveness(&ops, num_vars);
        let live_ops: Vec<usize> = all_ops.into_iter().filter(|&i| replay_live[i]).collect();
        let replay_plan = PiecePlan::compile_among(&ops, &live_ops, &|i| replay_live[i]);
        Ok(ProcedureDef {
            id,
            name,
            num_params,
            ops,
            num_vars,
            var_def,
            var_loop_local,
            flow_deps,
            plan,
            replay_live,
            replay_plan,
        })
    }

    /// The access plan of the whole procedure, compiled at build time so
    /// per-transaction execution borrows it. The commit path runs this one:
    /// clients see every read and OCC validates it.
    pub fn plan(&self) -> &PiecePlan {
        &self.plan
    }

    /// The access plan of the replay-live ops only — empty for a procedure
    /// that writes nothing.
    pub fn replay_plan(&self) -> &PiecePlan {
        &self.replay_plan
    }

    /// Whether command-log replay executes op `i`.
    pub fn is_replay_live(&self, i: usize) -> bool {
        self.replay_live[i]
    }

    /// Direct flow dependencies of op `i` (ops whose outputs it consumes,
    /// including through control guards).
    pub fn flow_deps_of(&self, i: usize) -> &[OpId] {
        &self.flow_deps[i]
    }

    /// The index of the op defining variable `v`.
    pub fn defining_op(&self, v: VarId) -> usize {
        self.var_def[v.index()]
    }

    /// Whether variable `v` is loop-local (never escapes its loop body).
    pub fn is_loop_local(&self, v: VarId) -> bool {
        self.var_loop_local[v.index()]
    }

    /// Compile the replay-live operations `op_indices` as one piece of
    /// command-log replay: a variable is handed to another piece through
    /// the [`crate::VarStore`] only if a replay-live operation outside
    /// `op_indices` uses it — a dead user never runs.
    pub fn replay_piece(&self, op_indices: &[usize]) -> PiecePlan {
        PiecePlan::compile_among(&self.ops, op_indices, &|i| self.replay_live[i])
    }

    /// Pretty-print the whole procedure (used by the examples).
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "PROCEDURE {}({} params) {{", self.name, self.num_params);
        for op in &self.ops {
            let _ = writeln!(s, "  {op}");
        }
        s.push('}');
        s
    }

    /// [`ProcedureDef::pretty`] followed by the register code the whole
    /// procedure compiles to — what the commit path runs.
    pub fn pretty_code(&self) -> String {
        format!("{}\nCODE {{\n{}}}", self.pretty(), self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use pacman_common::TableId;

    fn read(id: u32, table: u32, out: u32) -> OpDef {
        OpDef {
            id: OpId::new(id),
            table: TableId::new(table),
            key: Expr::param(0),
            kind: OpKind::Read {
                col: 0,
                out: VarId::new(out),
            },
            guard: None,
            loop_id: None,
            loop_count: None,
        }
    }

    fn write_using(id: u32, table: u32, var: u32) -> OpDef {
        OpDef {
            id: OpId::new(id),
            table: TableId::new(table),
            key: Expr::param(0),
            kind: OpKind::Write {
                col: 0,
                value: Expr::var(VarId::new(var)),
            },
            guard: None,
            loop_id: None,
            loop_count: None,
        }
    }

    use crate::builder::ProcBuilder;

    const T0: TableId = TableId::new(0);
    const T1: TableId = TableId::new(1);

    fn live(p: &ProcedureDef) -> Vec<bool> {
        (0..p.ops.len()).map(|i| p.is_replay_live(i)).collect()
    }

    #[test]
    fn liveness_follows_transitive_chains() {
        // a feeds the key of b, b feeds the written value: both live. c is
        // read and dropped; d feeds only the dead e.
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let a = b.read(T0, Expr::param(0), 0);
        let v = b.read(T0, Expr::var(a), 0);
        let _c = b.read(T0, Expr::param(0), 1);
        let d = b.read(T0, Expr::param(0), 2);
        let _e = b.read(T0, Expr::var(d), 0);
        b.write(T1, Expr::param(0), 0, Expr::var(v));
        let p = b.build().unwrap();
        assert_eq!(live(&p), [true, true, false, false, false, true]);
        assert_eq!(p.replay_plan().op_indices().collect::<Vec<_>>(), [0, 1, 5]);
        assert_eq!(
            p.plan().op_indices().count(),
            6,
            "the commit path runs everything"
        );
    }

    /// One procedure per place an expression can sit in: the read `v` is
    /// used there and nowhere else. `with_use` false builds the same
    /// procedure with a constant in that place.
    fn single_use(site: &str, with_use: bool) -> ProcedureDef {
        let mut b = ProcBuilder::new(ProcId::new(0), site, 1);
        let v = b.read(T0, Expr::param(0), 0);
        let e = if with_use { Expr::var(v) } else { Expr::int(1) };
        match site {
            "key" => b.write(T1, e, 0, Expr::int(0)),
            "value" => b.write(T1, Expr::param(0), 0, e),
            "insert column" => b.insert(T1, Expr::param(0), vec![Expr::int(0), e]),
            "delete key" => b.delete(T1, e),
            "guard" => b.guarded(Expr::gt(e, Expr::int(0)), |b| {
                b.write(T1, Expr::param(0), 0, Expr::int(0));
            }),
            "loop count" => b.repeat(e, |b| {
                b.write(T1, Expr::LoopIndex, 0, Expr::int(0));
            }),
            other => panic!("unknown site {other}"),
        }
        b.build().unwrap()
    }

    /// A use in any one place keeps the read alive, and it is that use
    /// alone that does: a liveness pass that forgot the place would see
    /// the second procedure of each pair, where the read is dead.
    #[test]
    fn every_use_site_alone_keeps_a_read_live() {
        for site in [
            "key",
            "value",
            "insert column",
            "delete key",
            "guard",
            "loop count",
        ] {
            let p = single_use(site, true);
            assert!(p.is_replay_live(0), "{site}: read dropped, {}", p.pretty());
            assert_eq!(p.replay_plan().op_indices().count(), 2, "{site}");
            let mutant = single_use(site, false);
            assert_eq!(live(&mutant), [false, true], "{site}");
        }
    }

    #[test]
    fn escaping_loop_locals_stay_live() {
        // Per iteration: `fk` read from T0 names the T1 row to write — a
        // loop-local consumed by another table's op, i.e. by another piece.
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        b.repeat(Expr::param(0), |b| {
            let fk = b.read(T0, Expr::LoopIndex, 0);
            let _unused = b.read(T0, Expr::LoopIndex, 1);
            b.write(T1, Expr::var(fk), 0, Expr::int(1));
        });
        let p = b.build().unwrap();
        assert_eq!(live(&p), [true, false, true]);
        let groups = p.replay_plan().groups();
        assert_eq!(groups.len(), 1);
        assert!(groups[0].looped && groups[0].ops.len() == 2);
    }

    #[test]
    fn procedures_that_write_nothing_have_an_empty_replay_plan() {
        let mut b = ProcBuilder::new(ProcId::new(0), "ReadOnly", 1);
        let n = b.read(T0, Expr::param(0), 0);
        b.repeat(Expr::var(n), |b| {
            let _ = b.read(T1, Expr::LoopIndex, 0);
        });
        let p = b.build().unwrap();
        assert_eq!(live(&p), [false, false]);
        assert!(p.replay_plan().groups().is_empty());
        assert_eq!(p.plan().groups().len(), 2);
    }

    #[test]
    fn flow_deps_follow_define_use() {
        let p = ProcedureDef::new(
            ProcId::new(0),
            "P".into(),
            1,
            vec![read(0, 0, 0), write_using(1, 0, 0)],
            1,
        )
        .unwrap();
        assert_eq!(p.flow_deps_of(0), &[] as &[OpId]);
        assert_eq!(p.flow_deps_of(1), &[OpId::new(0)]);
        assert_eq!(p.defining_op(VarId::new(0)), 0);
    }

    #[test]
    fn control_guards_create_flow_deps() {
        let mut w = write_using(1, 1, 0);
        w.kind = OpKind::Write {
            col: 0,
            value: Expr::int(1),
        };
        w.guard = Some(Expr::not_null(Expr::var(VarId::new(0))));
        let p =
            ProcedureDef::new(ProcId::new(0), "P".into(), 1, vec![read(0, 0, 0), w], 1).unwrap();
        assert_eq!(p.flow_deps_of(1), &[OpId::new(0)]);
    }

    #[test]
    fn use_before_def_rejected() {
        let r = ProcedureDef::new(
            ProcId::new(0),
            "P".into(),
            1,
            vec![write_using(0, 0, 0), read(1, 0, 0)],
            1,
        );
        assert!(matches!(r, Err(Error::InvalidProcedure(_))));
    }

    #[test]
    fn double_definition_rejected() {
        let r = ProcedureDef::new(
            ProcId::new(0),
            "P".into(),
            1,
            vec![read(0, 0, 0), read(1, 0, 0)],
            1,
        );
        assert!(matches!(r, Err(Error::InvalidProcedure(_))));
    }

    #[test]
    fn loop_local_escape_rejected() {
        let mut r0 = read(0, 0, 0);
        r0.loop_id = Some(0);
        r0.loop_count = Some(Expr::int(3));
        let w = write_using(1, 0, 0); // uses v0 outside the loop
        let r = ProcedureDef::new(ProcId::new(0), "P".into(), 1, vec![r0, w], 1);
        assert!(matches!(r, Err(Error::InvalidProcedure(_))));
    }

    #[test]
    fn loop_index_outside_loop_rejected() {
        let mut w = write_using(0, 0, 0);
        w.kind = OpKind::Write {
            col: 0,
            value: Expr::int(0),
        };
        w.key = Expr::add(Expr::param(0), Expr::LoopIndex);
        let r = ProcedureDef::new(ProcId::new(0), "P".into(), 1, vec![w], 0);
        assert!(matches!(r, Err(Error::InvalidProcedure(_))));
    }

    #[test]
    fn non_contiguous_loop_rejected() {
        let mut a = read(0, 0, 0);
        a.loop_id = Some(0);
        a.loop_count = Some(Expr::int(2));
        let b = {
            let mut b = write_using(1, 1, 0);
            b.kind = OpKind::Write {
                col: 0,
                value: Expr::int(5),
            };
            b
        };
        let mut c = write_using(2, 0, 0);
        c.kind = OpKind::Write {
            col: 0,
            value: Expr::int(9),
        };
        c.loop_id = Some(0);
        c.loop_count = Some(Expr::int(2));
        let r = ProcedureDef::new(ProcId::new(0), "P".into(), 1, vec![a, b, c], 1);
        assert!(matches!(r, Err(Error::InvalidProcedure(_))));
    }
}
