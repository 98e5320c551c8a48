//! The expression language of procedure bodies.
//!
//! Expressions appear in operation keys, written values, inserted rows,
//! control guards and loop counts. They may reference procedure parameters,
//! variables defined by earlier read operations, and the index of the
//! enclosing loop. Evaluation is total except for references to variables
//! that have not been bound yet — that case is surfaced as an error so the
//! dynamic analysis can fall back to conservative scheduling (§4.3.1).
//!
//! The tree is what static analysis reads. Nothing executes it: plans are
//! lowered to the flat code of [`crate::code`], and [`Expr::eval`] remains
//! as the definition that code is tested against.

use crate::code::BinOp;
use crate::vars::VarStore;
use pacman_common::{Error, Key, Result, Value, VarId};
use std::fmt;

/// An expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal.
    Const(Value),
    /// Positional procedure parameter.
    Param(usize),
    /// `params[base + stride * loop_index]` — per-iteration parameters for
    /// list-shaped arguments (e.g. the item list of TPC-C NewOrder).
    ParamOffset {
        /// First parameter index of the list.
        base: usize,
        /// Distance between consecutive iterations' parameters.
        stride: usize,
    },
    /// A variable produced by an earlier read operation.
    Var(VarId),
    /// The current iteration index of the enclosing loop (0-based).
    LoopIndex,
    /// Addition (numeric coercion rules of [`Value::add`]).
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Numeric greater-than; yields `Int(1)` or `Int(0)`.
    Gt(Box<Expr>, Box<Expr>),
    /// Equality over values.
    Eq(Box<Expr>, Box<Expr>),
    /// Inequality over values.
    Ne(Box<Expr>, Box<Expr>),
    /// Logical conjunction of truthiness.
    And(Box<Expr>, Box<Expr>),
    /// Logical negation of truthiness.
    Not(Box<Expr>),
}

/// Shorthand constructors, used heavily by workload definitions.
// The DSL constructors (`Expr::add(a, b)`) are associated functions, not
// operator methods on `self`; the names mirror the paper's expression
// grammar, so the trait-name collision lint does not apply usefully here.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Integer literal.
    pub fn int(i: i64) -> Expr {
        Expr::Const(Value::Int(i))
    }

    /// String literal.
    pub fn str(s: &str) -> Expr {
        Expr::Const(Value::str(s))
    }

    /// Parameter reference.
    pub fn param(i: usize) -> Expr {
        Expr::Param(i)
    }

    /// Variable reference.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// `a > b`.
    pub fn gt(a: Expr, b: Expr) -> Expr {
        Expr::Gt(Box::new(a), Box::new(b))
    }

    /// `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::Eq(Box::new(a), Box::new(b))
    }

    /// `a != b`.
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::Ne(Box::new(a), Box::new(b))
    }

    /// `a && b` over truthiness.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// `!a` over truthiness.
    pub fn not(a: Expr) -> Expr {
        Expr::Not(Box::new(a))
    }

    /// The paper's `x != "NULL"` convention for optional references.
    pub fn not_null(a: Expr) -> Expr {
        Expr::ne(a, Expr::str("NULL"))
    }

    /// Collect every variable this expression references.
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Const(_) | Expr::Param(_) | Expr::ParamOffset { .. } | Expr::LoopIndex => {}
            Expr::Var(v) => out.push(*v),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Gt(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::And(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Not(a) => a.collect_vars(out),
        }
    }

    /// Whether the expression references the enclosing loop's index or
    /// per-iteration parameters (such expressions only make sense inside a
    /// loop).
    pub fn uses_loop(&self) -> bool {
        match self {
            Expr::LoopIndex | Expr::ParamOffset { .. } => true,
            Expr::Const(_) | Expr::Param(_) | Expr::Var(_) => false,
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Gt(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b)
            | Expr::And(a, b) => a.uses_loop() || b.uses_loop(),
            Expr::Not(a) => a.uses_loop(),
        }
    }

    /// Whether *every* evaluation of this expression reads a variable for
    /// which `is_target` holds — mirrors [`Expr::eval`]'s order, where the
    /// right side of an `And` is skipped when the left side is falsy and
    /// every other operator evaluates all of its operands. While such a
    /// variable is unbound, evaluation is certain to fail.
    pub fn must_read(&self, is_target: &dyn Fn(VarId) -> bool) -> bool {
        match self {
            Expr::Const(_) | Expr::Param(_) | Expr::ParamOffset { .. } | Expr::LoopIndex => false,
            Expr::Var(v) => is_target(*v),
            Expr::And(a, _) | Expr::Not(a) => a.must_read(is_target),
            Expr::Add(a, b)
            | Expr::Sub(a, b)
            | Expr::Mul(a, b)
            | Expr::Gt(a, b)
            | Expr::Eq(a, b)
            | Expr::Ne(a, b) => a.must_read(is_target) || b.must_read(is_target),
        }
    }

    /// Evaluate under a context. Fails only on unbound variables or
    /// out-of-range parameters.
    pub fn eval(&self, ctx: &EvalCtx<'_>) -> Result<Value> {
        match self {
            Expr::Const(v) => Ok(v.clone()),
            Expr::Param(i) => ctx.param(*i),
            Expr::ParamOffset { base, stride } => {
                let idx = ctx
                    .loop_index
                    .ok_or_else(|| Error::Unknown("ParamOffset outside of a loop".to_string()))?;
                ctx.param(base + stride * idx as usize)
            }
            Expr::Var(v) => ctx.var(*v),
            Expr::LoopIndex => ctx
                .loop_index
                .map(|i| Value::Int(i as i64))
                .ok_or_else(|| Error::Unknown("LoopIndex outside of a loop".to_string())),
            Expr::Add(a, b) => Ok(BinOp::Add.apply(&a.eval(ctx)?, &b.eval(ctx)?)),
            Expr::Sub(a, b) => Ok(BinOp::Sub.apply(&a.eval(ctx)?, &b.eval(ctx)?)),
            Expr::Mul(a, b) => Ok(BinOp::Mul.apply(&a.eval(ctx)?, &b.eval(ctx)?)),
            Expr::Gt(a, b) => Ok(BinOp::Gt.apply(&a.eval(ctx)?, &b.eval(ctx)?)),
            Expr::Eq(a, b) => Ok(BinOp::Eq.apply(&a.eval(ctx)?, &b.eval(ctx)?)),
            Expr::Ne(a, b) => Ok(BinOp::Ne.apply(&a.eval(ctx)?, &b.eval(ctx)?)),
            Expr::And(a, b) => Ok(Value::Int(
                (a.eval(ctx)?.truthy() && b.eval(ctx)?.truthy()) as i64,
            )),
            Expr::Not(a) => Ok(Value::Int(!a.eval(ctx)?.truthy() as i64)),
        }
    }

    /// Evaluate as a primary key. Keys must be integer-valued.
    pub fn eval_key(&self, ctx: &EvalCtx<'_>) -> Result<Key> {
        crate::code::as_key(&self.eval(ctx)?)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Param(i) => write!(f, "${i}"),
            Expr::ParamOffset { base, stride } => write!(f, "${{{base}+{stride}*i}}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::LoopIndex => write!(f, "i"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Gt(a, b) => write!(f, "({a} > {b})"),
            Expr::Eq(a, b) => write!(f, "({a} == {b})"),
            Expr::Ne(a, b) => write!(f, "({a} != {b})"),
            Expr::And(a, b) => write!(f, "({a} && {b})"),
            Expr::Not(a) => write!(f, "!({a})"),
        }
    }
}

/// Evaluation context: parameters, the variables bound so far and an
/// optional loop index.
pub struct EvalCtx<'a> {
    /// Procedure arguments.
    pub params: &'a [Value],
    /// Cross-slice variables (written once by the defining piece).
    pub vars: Option<&'a VarStore>,
    /// Variables bound by the code being run itself; looked at before
    /// `vars`, the first entry of a variable wins.
    pub locals: &'a [(VarId, Value)],
    /// Current loop iteration, if inside a loop.
    pub loop_index: Option<u64>,
}

impl<'a> EvalCtx<'a> {
    /// A context with parameters only.
    pub fn of_params(params: &'a [Value]) -> Self {
        EvalCtx {
            params,
            vars: None,
            locals: &[],
            loop_index: None,
        }
    }

    fn param(&self, i: usize) -> Result<Value> {
        self.params
            .get(i)
            .cloned()
            .ok_or_else(|| Error::Unknown(format!("parameter ${i} out of range")))
    }

    fn var(&self, v: VarId) -> Result<Value> {
        if let Some((_, val)) = self.locals.iter().find(|(l, _)| *l == v) {
            return Ok(val.clone());
        }
        if let Some(vars) = self.vars {
            // Loop-local variables produced by an upstream piece of the
            // same loop iteration (cross-slice foreign-key pattern).
            if let Some(i) = self.loop_index {
                if let Some(val) = vars.get_indexed(v, i) {
                    return Ok(val);
                }
            }
            if let Some(val) = vars.get(v) {
                return Ok(val);
            }
        }
        Err(Error::Unknown(format!("unbound variable {v}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_and_comparisons() {
        let params = [Value::Int(10), Value::Int(3)];
        let ctx = EvalCtx::of_params(&params);
        let e = Expr::sub(Expr::param(0), Expr::param(1));
        assert_eq!(e.eval(&ctx).unwrap(), Value::Int(7));
        let g = Expr::gt(Expr::param(0), Expr::int(5));
        assert_eq!(g.eval(&ctx).unwrap(), Value::Int(1));
        let ne = Expr::not_null(Expr::str("NULL"));
        assert_eq!(ne.eval(&ctx).unwrap(), Value::Int(0));
    }

    #[test]
    fn loop_indexed_parameters() {
        let params: Vec<Value> = (0..6).map(Value::Int).collect();
        let mut ctx = EvalCtx::of_params(&params);
        ctx.loop_index = Some(2);
        let e = Expr::ParamOffset { base: 1, stride: 2 }; // params[1 + 2*2] = 5
        assert_eq!(e.eval(&ctx).unwrap(), Value::Int(5));
        assert_eq!(Expr::LoopIndex.eval(&ctx).unwrap(), Value::Int(2));
    }

    #[test]
    fn loop_exprs_fail_outside_loops() {
        let ctx = EvalCtx::of_params(&[]);
        assert!(Expr::LoopIndex.eval(&ctx).is_err());
        assert!(Expr::ParamOffset { base: 0, stride: 1 }.eval(&ctx).is_err());
    }

    #[test]
    fn unbound_variable_is_an_error_not_a_panic() {
        let ctx = EvalCtx::of_params(&[]);
        assert!(Expr::var(VarId::new(3)).eval(&ctx).is_err());
    }

    #[test]
    fn collect_vars_walks_the_tree() {
        let e = Expr::and(
            Expr::gt(Expr::var(VarId::new(1)), Expr::int(0)),
            Expr::ne(Expr::var(VarId::new(2)), Expr::var(VarId::new(1))),
        );
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        vars.sort();
        vars.dedup();
        assert_eq!(vars, vec![VarId::new(1), VarId::new(2)]);
    }

    #[test]
    fn must_read_follows_evaluation_order() {
        let v1 = |v: VarId| v == VarId::new(1);
        let reads_v1 = Expr::gt(Expr::var(VarId::new(1)), Expr::int(0));
        assert!(reads_v1.must_read(&v1));
        assert!(Expr::not(reads_v1.clone()).must_read(&v1));
        assert!(!Expr::var(VarId::new(2)).must_read(&v1));
        // `And` skips its right side when the left is falsy.
        assert!(!Expr::and(Expr::param(0), reads_v1.clone()).must_read(&v1));
        assert!(Expr::and(reads_v1.clone(), Expr::param(0)).must_read(&v1));
        // Every other operator evaluates both sides.
        assert!(Expr::eq(Expr::param(0), reads_v1).must_read(&v1));
    }

    #[test]
    fn uses_loop_detection() {
        assert!(Expr::add(Expr::int(1), Expr::LoopIndex).uses_loop());
        assert!(!Expr::add(Expr::int(1), Expr::param(0)).uses_loop());
    }

    #[test]
    fn non_integer_keys_are_rejected() {
        let ctx = EvalCtx::of_params(&[]);
        assert!(Expr::str("abc").eval_key(&ctx).is_err());
        assert_eq!(Expr::int(-1).eval_key(&ctx).unwrap(), u64::MAX);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::sub(Expr::var(VarId::new(0)), Expr::param(1));
        assert_eq!(format!("{e}"), "(v0 - $1)");
    }
}
