//! Runtime read/write-set computation ("parameter checking", Fig. 20).
//!
//! §4.3.1: "the read and write sets of each transaction piece could be
//! identified from the piece's input arguments at replay time". Given a
//! procedure, the compiled plan of one of its pieces, the invocation
//! parameters and the variables already produced by upstream pieces,
//! [`resolve_accesses`] expands loops and evaluates guards and site keys to
//! the exact tuple set the piece will touch — each distinct tuple of an
//! iteration once, however many operations name it:
//!
//! * a guard that cannot be evaluated yet (it reads a variable defined
//!   *inside* this very piece) degrades gracefully: the access is included
//!   conservatively, which can only over-serialize, never mis-order;
//! * a **key** that cannot be evaluated is a hard error — static analysis
//!   (the key-computability check, §5) rejects such procedures up front.

use crate::code::ExecFrame;
use crate::plan::PiecePlan;
use crate::procedure::ProcedureDef;
use crate::vars::VarStore;
use pacman_common::{Error, Key, Result, TableId, Value};

/// One resolved tuple access of a piece.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Access {
    /// Table accessed.
    pub table: TableId,
    /// Resolved primary key.
    pub key: Key,
    /// Whether the access modifies the tuple.
    pub write: bool,
}

/// Resolve the access sites of `plan` (a piece of `proc` invoked with
/// `params`, `vars` holding upstream pieces' outputs) and append them to
/// `out`. `frame` is evaluator scratch the caller reuses from piece to
/// piece.
///
/// Exactly one slot is appended per `(group, iteration, site)`, in that
/// order — the layout the interpreter walks when it takes its keys from
/// here instead of evaluating them. A slot is `None` when every
/// operation of the site is guarded out for that iteration (its key is
/// then never evaluated), and otherwise carries the key and whether any
/// operation that may execute writes.
///
/// The guard and key programs run here are the ones the interpreter runs,
/// over a register file in which none of the plan's own variables is bound
/// yet and upstream variables are imported from `vars`. The result is an
/// over-approximation: operations whose guard is evaluable and false are
/// excluded, unevaluable guards keep theirs. On an error `out` holds a
/// partial piece; the caller truncates it.
pub fn resolve_accesses(
    proc: &ProcedureDef,
    plan: &PiecePlan,
    params: &[Value],
    vars: Option<&VarStore>,
    frame: &mut ExecFrame,
    out: &mut Vec<Option<Access>>,
) -> Result<()> {
    let mut m = plan.machine(params, vars.unwrap_or(VarStore::shared_empty()), frame);
    for group in plan.groups() {
        let iterations = group.iterations(&proc.name, &mut m)?;
        for i in 0..iterations {
            group.begin_iteration(i, &mut m);
            let base = out.len();
            out.resize(base + group.sites.len(), None);
            for pop in &group.ops {
                if let (Some(guard), false) = (&pop.guard, pop.guard_deferred) {
                    // An error here means the guard reads an upstream
                    // variable nobody bound (its read was skipped): keep
                    // the access conservatively, as for a deferred guard.
                    if m.eval(group.code(), guard).is_ok_and(|v| !v.truthy()) {
                        continue; // statically skipped
                    }
                }
                match &mut out[base + pop.site] {
                    Some(access) => access.write |= pop.write,
                    slot => {
                        let site = &group.sites[pop.site];
                        let key = m.eval_key(group.code(), &site.key_prog).map_err(|e| {
                            Error::InvalidProcedure(format!(
                                "{}: key of op {} not computable from piece inputs: {e}",
                                proc.name, proc.ops[pop.op].id
                            ))
                        })?;
                        *slot = Some(Access {
                            table: site.table,
                            key,
                            write: pop.write,
                        });
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProcBuilder;
    use crate::expr::Expr;
    use pacman_common::{ProcId, TableId};

    const T0: TableId = TableId::new(0);
    const T1: TableId = TableId::new(1);

    /// Resolve ops `op_indices` of `p`; the live accesses in slot order.
    fn resolve(
        p: &ProcedureDef,
        op_indices: &[usize],
        params: &[Value],
        vars: Option<&VarStore>,
    ) -> Result<Vec<Access>> {
        let plan = PiecePlan::compile(&p.ops, op_indices);
        let mut out = Vec::new();
        resolve_accesses(p, &plan, params, vars, &mut ExecFrame::default(), &mut out)?;
        Ok(out.into_iter().flatten().collect())
    }

    #[test]
    fn simple_rmw_access_set() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 2);
        let v = b.read(T0, Expr::param(0), 0);
        b.write(
            T0,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        let p = b.build().unwrap();
        let acc = resolve(&p, &[0, 1], &[Value::Int(42), Value::Int(5)], None).unwrap();
        // The read and the write name one tuple: one site, write wins.
        assert_eq!(
            acc,
            vec![Access {
                table: T0,
                key: 42,
                write: true
            }]
        );
    }

    #[test]
    fn loops_expand_per_iteration_keys() {
        // params: [n, k0, k1, ...]; writes keys k0..k(n-1)
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        b.repeat(Expr::param(0), |b| {
            b.write(
                T0,
                Expr::ParamOffset { base: 1, stride: 1 },
                0,
                Expr::LoopIndex,
            );
        });
        let p = b.build().unwrap();
        let acc = resolve(
            &p,
            &[0],
            &[
                Value::Int(3),
                Value::Int(10),
                Value::Int(20),
                Value::Int(30),
            ],
            None,
        )
        .unwrap();
        assert_eq!(
            acc.iter().map(|a| a.key).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        assert!(acc.iter().all(|a| a.write));
    }

    #[test]
    fn evaluable_false_guard_excludes_access() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        b.guarded(Expr::gt(Expr::param(0), Expr::int(100)), |b| {
            b.write(T0, Expr::int(1), 0, Expr::int(0));
        });
        let p = b.build().unwrap();
        let acc = resolve(&p, &[0], &[Value::Int(5)], None).unwrap();
        assert!(acc.is_empty());
        let acc = resolve(&p, &[0], &[Value::Int(500)], None).unwrap();
        assert_eq!(acc.len(), 1);
    }

    #[test]
    fn unevaluable_guard_is_conservative() {
        // Guard depends on a read in the same piece: keep the access.
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let v = b.read(T0, Expr::param(0), 0);
        b.guarded(Expr::gt(Expr::var(v), Expr::int(0)), |b| {
            b.write(T0, Expr::param(0), 0, Expr::int(9));
        });
        let p = b.build().unwrap();
        let acc = resolve(&p, &[0, 1], &[Value::Int(7)], None).unwrap();
        assert_eq!(acc.len(), 1);
        assert!(acc[0].write, "write kept despite unknown guard");
    }

    #[test]
    fn key_from_upstream_var_resolves_through_varstore() {
        // Piece 2 of the bank example: key is `dst`, delivered by piece 1.
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let dst = b.read(T0, Expr::param(0), 0);
        b.write(T1, Expr::var(dst), 0, Expr::int(1));
        let p = b.build().unwrap();

        let vars = VarStore::new(1);
        vars.set(dst, Value::Int(77));
        // Access set of the *second* slice only.
        let acc = resolve(&p, &[1], &[Value::Int(5)], Some(&vars)).unwrap();
        assert_eq!(
            acc,
            vec![Access {
                table: T1,
                key: 77,
                write: true
            }]
        );
    }

    #[test]
    fn uncomputable_key_is_a_hard_error() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let dst = b.read(T0, Expr::param(0), 0);
        b.write(T1, Expr::var(dst), 0, Expr::int(1));
        let p = b.build().unwrap();
        // No var store: the key of op 1 cannot be evaluated.
        let r = resolve(&p, &[1], &[Value::Int(5)], None);
        assert!(matches!(r, Err(Error::InvalidProcedure(_))));
    }

    #[test]
    fn negative_loop_count_rejected() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        b.repeat(Expr::param(0), |b| {
            b.write(T0, Expr::LoopIndex, 0, Expr::int(0));
        });
        let p = b.build().unwrap();
        assert!(resolve(&p, &[0], &[Value::Int(-1)], None).is_err());
    }

    #[test]
    fn guarded_out_sites_leave_an_empty_slot_and_skip_the_key() {
        // The guarded write's key is a string unless the guard holds; the
        // slot layout still has one entry per (iteration, site).
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 2);
        b.repeat(Expr::int(2), |b| {
            let _ = b.read(T0, Expr::LoopIndex, 0);
            b.guarded(Expr::gt(Expr::param(0), Expr::int(100)), |b| {
                b.write(T1, Expr::param(1), 0, Expr::int(0));
            });
        });
        let p = b.build().unwrap();
        let plan = PiecePlan::compile(&p.ops, &[0, 1]);
        let mut out = Vec::new();
        resolve_accesses(
            &p,
            &plan,
            &[Value::Int(5), Value::str("NULL")],
            None,
            &mut ExecFrame::default(),
            &mut out,
        )
        .unwrap();
        let read = |key| {
            Some(Access {
                table: T0,
                key,
                write: false,
            })
        };
        assert_eq!(out, vec![read(0), None, read(1), None]);
    }

    #[test]
    fn write_flag_ignores_guarded_out_writers() {
        let mut b = ProcBuilder::new(ProcId::new(0), "P", 1);
        let _ = b.read(T0, Expr::int(1), 0);
        b.guarded(Expr::gt(Expr::param(0), Expr::int(100)), |b| {
            b.write(T0, Expr::int(1), 0, Expr::int(0));
        });
        let p = b.build().unwrap();
        assert!(!resolve(&p, &[0, 1], &[Value::Int(5)], None).unwrap()[0].write);
        assert!(resolve(&p, &[0, 1], &[Value::Int(500)], None).unwrap()[0].write);
    }
}
