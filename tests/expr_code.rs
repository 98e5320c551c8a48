//! The compiled register code against the tree.
//!
//! `Expr::eval` walks the tree and is what an expression *means*;
//! `ExprCode` is the flat code everything executes. Random expressions —
//! every operator, every leaf, parameters in and out of range, loop
//! expressions inside and outside loops, integers, floats and strings
//! mixed — are evaluated both ways under random contexts (each variable
//! unbound, bound in the frame, handed over through the store, handed over
//! for this or another loop iteration) and must agree on the value or on
//! the error, message included; as a key likewise. The frame is reused
//! from case to case, so a binding that outlives its evaluation shows up.

use pacman_common::{Value, VarId};
use pacman_sproc::{EvalCtx, ExecFrame, Expr, ExprCode, VarStore};
use proptest::prelude::*;
use std::cell::RefCell;

const VARS: u32 = 4;

/// A stream of random choices (wraps around).
struct Genes<'a> {
    genes: &'a [u64],
    at: usize,
}

impl Genes<'_> {
    fn below(&mut self, bound: u64) -> u64 {
        let g = self.genes[self.at % self.genes.len()];
        // Decorrelate reuse after wrapping around.
        self.at += 1;
        (g ^ (self.at as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % bound
    }
}

fn value(g: &mut Genes<'_>) -> Value {
    match g.below(6) {
        0 => Value::Float(g.below(9) as f64 * 0.5 - 1.0),
        1 => Value::str(["NULL", "abc", ""][g.below(3) as usize]),
        _ => Value::Int(g.below(12) as i64 - 2),
    }
}

fn expr(g: &mut Genes<'_>, depth: u32) -> Expr {
    if depth == 0 || g.below(4) == 0 {
        return match g.below(7) {
            0 => Expr::Const(value(g)),
            // Five parameters at most exist; 5 and 6 never do.
            1 | 2 => Expr::param(g.below(7) as usize),
            3 => Expr::ParamOffset {
                base: g.below(4) as usize,
                stride: g.below(3) as usize,
            },
            4 | 5 => Expr::var(VarId::new(g.below(VARS as u64) as u32)),
            _ => Expr::LoopIndex,
        };
    }
    let sub = |g: &mut Genes<'_>| expr(g, depth - 1);
    match g.below(9) {
        0 => Expr::add(sub(g), sub(g)),
        1 => Expr::sub(sub(g), sub(g)),
        2 => Expr::mul(sub(g), sub(g)),
        3 => Expr::gt(sub(g), sub(g)),
        4 => Expr::eq(sub(g), sub(g)),
        5 => Expr::ne(sub(g), sub(g)),
        6 | 7 => Expr::and(sub(g), sub(g)),
        _ => Expr::not(sub(g)),
    }
}

thread_local! {
    /// One frame for the whole run: whatever the previous case left in it
    /// must not leak into the next.
    static FRAME: RefCell<ExecFrame> = RefCell::new(ExecFrame::default());
}

fn check(genes: &[u64]) -> Result<(), String> {
    let g = &mut Genes { genes, at: 0 };
    let e = expr(g, 4);
    let params: Vec<Value> = (0..g.below(6)).map(|_| value(g)).collect();
    let loop_index = (g.below(3) > 0).then(|| g.below(3));
    // Variables the code binds itself never come from the store.
    let local: Vec<bool> = (0..VARS).map(|_| g.below(2) == 0).collect();
    let store = VarStore::new(VARS as usize);
    let mut locals = Vec::new();
    for v in 0..VARS {
        let var = VarId::new(v);
        let state = g.below(6);
        let val = value(g);
        match if local[v as usize] { state % 2 } else { state } {
            0 => {}
            1 => locals.push((var, val)),
            2 => store.set(var, val),
            3 => store.set_indexed(var, loop_index.unwrap_or(0), val),
            4 => store.set_indexed(var, loop_index.unwrap_or(0) + 1, val),
            _ => {
                store.set(var, Value::str("shadowed"));
                locals.push((var, val));
            }
        }
    }
    let ctx = EvalCtx {
        params: &params,
        vars: Some(&store),
        locals: &locals,
        loop_index,
    };
    let code = ExprCode::compile(&e, &|v| local[v.index()]);
    FRAME.with(|frame| {
        let frame = &mut *frame.borrow_mut();
        let (got, expected) = (code.eval(&ctx, frame), e.eval(&ctx));
        if got != expected {
            return Err(format!(
                "{e} under {params:?}, loop {loop_index:?}, locals {locals:?}: \
                 code {got:?}, tree {expected:?}"
            ));
        }
        let (got, expected) = (code.eval_key(&ctx, frame), e.eval_key(&ctx));
        if got != expected {
            return Err(format!("{e} as key: code {got:?}, tree {expected:?}"));
        }
        Ok(())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn compiled_code_equals_tree_walking_eval(
        genes in proptest::collection::vec(any::<u64>(), 8..64),
    ) {
        check(&genes).map_err(TestCaseError::fail)?;
    }
}

/// The cases the issue names, pinned so that a generator change cannot
/// silently stop covering them.
#[test]
fn named_expressions_agree() {
    let v = |i| Expr::var(VarId::new(i));
    let bad_param = || Expr::param(9);
    let cases: Vec<(&str, Expr)> = vec![
        (
            "erroring right side behind a falsy left",
            Expr::and(Expr::param(0), Expr::add(bad_param(), v(3))),
        ),
        (
            "erroring right side behind a truthy left",
            Expr::and(Expr::param(1), Expr::add(bad_param(), v(3))),
        ),
        (
            "nested conjunctions",
            Expr::and(
                Expr::and(Expr::param(1), Expr::not(Expr::param(0))),
                Expr::gt(v(0), Expr::int(3)),
            ),
        ),
        ("loop index", Expr::add(Expr::LoopIndex, Expr::int(1))),
        (
            "per-iteration parameter",
            Expr::mul(Expr::ParamOffset { base: 1, stride: 1 }, Expr::int(2)),
        ),
        (
            "per-iteration parameter out of range",
            Expr::ParamOffset { base: 3, stride: 2 },
        ),
        ("out-of-range parameter", bad_param()),
        (
            "unbound variable left of a failing operator",
            Expr::sub(v(3), Expr::add(bad_param(), Expr::int(1))),
        ),
        (
            "failing leaf left of an unbound hand-off",
            Expr::eq(bad_param(), v(3)),
        ),
        ("string key", Expr::str("abc")),
        ("float key", Expr::add(Expr::param(2), Expr::int(1))),
        (
            "string, float and integer mixed",
            Expr::gt(
                Expr::add(Expr::param(3), Expr::param(2)),
                Expr::mul(Expr::param(1), Expr::param(3)),
            ),
        ),
        ("null convention", Expr::not_null(Expr::param(3))),
        ("bound and handed-over variables", Expr::add(v(0), v(1))),
        ("this iteration's hand-off", Expr::add(v(2), Expr::int(0))),
    ];
    let params = [
        Value::Int(0),
        Value::Int(7),
        Value::Float(2.5),
        Value::str("NULL"),
    ];
    let store = VarStore::new(VARS as usize);
    store.set(VarId::new(1), Value::Int(40));
    store.set_indexed(VarId::new(2), 1, Value::Int(50));
    let locals = [(VarId::new(0), Value::Int(2))];
    let frame = &mut ExecFrame::default();
    for (name, e) in &cases {
        for loop_index in [None, Some(0), Some(1)] {
            let ctx = EvalCtx {
                params: &params,
                vars: Some(&store),
                locals: &locals,
                loop_index,
            };
            // v0 is the code's own variable, the others are hand-offs.
            let code = ExprCode::compile(e, &|v| v.index() == 0);
            assert_eq!(
                code.eval(&ctx, frame),
                e.eval(&ctx),
                "{name}, loop {loop_index:?}"
            );
            assert_eq!(
                code.eval_key(&ctx, frame),
                e.eval_key(&ctx),
                "{name} as key, loop {loop_index:?}"
            );
        }
    }
}
