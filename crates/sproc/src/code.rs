//! Flat register code: what procedure expressions are lowered to.
//!
//! PACMAN analyses procedures at compile time so that recovery only has to
//! *run* them (§4.1–4.3). [`Expr`] is the form analysis reads; this module
//! is the form execution runs: a list of [`Instr`]s over a register file,
//! whose [`Operand`]s are **read in place** — a parameter, a constant, a
//! register or the loop index is looked at through a reference, never
//! cloned to be looked at — with forward jumps for guards and for the
//! short-circuit of `And`.
//!
//! One evaluator, [`Machine`], runs that code wherever an expression has to
//! be evaluated: the interpreter's `pc` loop (commit and replay alike),
//! parameter checking ([`crate::resolve_accesses`]), loop counts, and the
//! standalone [`ExprCode`]. The tree-walking [`Expr::eval`] is the oracle
//! the tests hold it to, first error and message included.
//!
//! # Registers
//!
//! Register `r` below a plan's variable count *is* variable `v<r>`; the
//! registers above are temporaries. A variable register is bound by the
//! read that defines the variable when that read belongs to the running
//! plan; otherwise [`Instr::Import`] fetches the upstream piece's hand-off
//! from the transaction's [`VarStore`], once. Reading an unbound register
//! is the tree's "unbound variable" error.
//!
//! # Error order
//!
//! A leaf operand cannot fail before the instruction that consumes it
//! looks at it, while the code of an operator runs where the tree would
//! evaluate it. Where a fallible leaf precedes, in the tree's evaluation
//! order, something that emits code, the compiler puts an [`Instr::Check`]
//! of the leaf first, so the first error is always the tree's.

use crate::access::Access;
use crate::expr::{EvalCtx, Expr};
use crate::vars::VarStore;
use pacman_common::{Error, Key, Result, Value, VarId};
use std::fmt;

/// Where an instruction finds a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// Positional procedure parameter.
    Param(u32),
    /// `params[base + stride * loop_index]`.
    ParamOffset {
        /// First parameter index of the list.
        base: u32,
        /// Distance between consecutive iterations' parameters.
        stride: u32,
    },
    /// Entry of the plan's constant pool.
    Const(u32),
    /// A register: a variable or a temporary.
    Reg(u32),
    /// The current iteration of the enclosing loop.
    LoopIndex,
}

/// The binary operators of [`Expr`] (`And` is control flow, not one of them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// [`Value::add`].
    Add,
    /// [`Value::sub`].
    Sub,
    /// [`Value::mul`].
    Mul,
    /// Numeric greater-than; `Int(1)` or `Int(0)`.
    Gt,
    /// Equality over values.
    Eq,
    /// Inequality over values.
    Ne,
}

impl BinOp {
    /// Apply the operator.
    #[inline]
    pub fn apply(self, x: &Value, y: &Value) -> Value {
        match self {
            BinOp::Add => x.add(y),
            BinOp::Sub => x.sub(y),
            BinOp::Mul => x.mul(y),
            BinOp::Gt => {
                let gt = match (x, y) {
                    (Value::Int(p), Value::Int(q)) => p > q,
                    _ => x.as_float().unwrap_or(f64::NAN) > y.as_float().unwrap_or(f64::NAN),
                };
                Value::Int(gt as i64)
            }
            BinOp::Eq => Value::Int((x == y) as i64),
            BinOp::Ne => Value::Int((x != y) as i64),
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Gt => ">",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
        }
    }
}

/// What an [`Instr::Access`] does to its site's tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Read column `col` into variable register `dst`; `publish` when an
    /// operation outside the plan uses the variable.
    Read {
        /// Column read.
        col: u32,
        /// The defined variable's register.
        dst: u32,
        /// Also hand the value over through the [`VarStore`].
        publish: bool,
    },
    /// Write `value` to column `col`.
    Write {
        /// Column written.
        col: u32,
        /// The new value.
        value: Operand,
    },
    /// `col ← col ± delta`: a read and the write that was its only use,
    /// fused. Counts as the two operations it replaces.
    AddCol {
        /// Column read and written.
        col: u32,
        /// The amount.
        delta: Operand,
        /// Subtract instead of add.
        negate: bool,
    },
    /// Insert the row whose columns are `len` operands of the group's row
    /// pool from `start`.
    Insert {
        /// First operand in the pool.
        start: u32,
        /// Number of columns.
        len: u32,
    },
    /// Delete the tuple.
    Delete,
}

/// One instruction. Jump targets are absolute positions in the same code
/// list and always point forward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Instr {
    /// `dst ← a op b`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Result register.
        dst: u32,
        /// Left operand.
        a: Operand,
        /// Right operand.
        b: Operand,
    },
    /// `dst ← Int(!truthy(a))`.
    Not {
        /// Result register.
        dst: u32,
        /// Operand.
        a: Operand,
    },
    /// `dst ← Int(truthy(a))`.
    Truthy {
        /// Result register.
        dst: u32,
        /// Operand.
        a: Operand,
    },
    /// Continue at `target` unless `cond` is truthy.
    JumpIfFalsy {
        /// Value tested.
        cond: Operand,
        /// Where to continue.
        target: u32,
    },
    /// Fail now if the operand cannot be read (see the module's *Error
    /// order*).
    Check(Operand),
    /// Bind variable register `reg` from the [`VarStore`] unless it is
    /// bound already; fail with "unbound variable" if nobody handed it over.
    Import {
        /// The variable's register.
        reg: u32,
    },
    /// Continue at `target` if the site's key is known for this iteration.
    KeyKnown {
        /// Site index within the group.
        site: u32,
        /// Where to continue.
        target: u32,
    },
    /// Set the site's key for this iteration; it must be an integer.
    SetSiteKey {
        /// Site index within the group.
        site: u32,
        /// The key value.
        key: Operand,
    },
    /// A database operation on the site's tuple — the executor's to run.
    Access {
        /// Index into the procedure's operation list (of the read, for a
        /// fused pair).
        op: u32,
        /// Site index within the group.
        site: u32,
        /// What to do.
        kind: AccessKind,
    },
}

/// A stretch of pure code (no [`Instr::Access`]) and where its value is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prog {
    /// First instruction.
    pub start: u32,
    /// One past the last instruction.
    pub end: u32,
    /// Where the value is once `start..end` has run.
    pub out: Operand,
}

/// Reusable evaluator memory: the register file and the site keys of the
/// iteration in flight. Callers keep one per thread (replay workers, the
/// DAG builder) or per pooled transaction scratch (normal processing), so
/// a warm evaluator allocates nothing of its own.
#[derive(Debug, Default)]
pub struct ExecFrame {
    regs: Vec<Option<Value>>,
    site_keys: Vec<Option<Key>>,
}

impl ExecFrame {
    /// Drop every binding, keeping capacity (pooled-scratch reset).
    pub fn clear(&mut self) {
        self.regs.clear();
        self.site_keys.clear();
    }
}

fn unbound(reg: u32) -> Error {
    Error::Unknown(format!("unbound variable {}", VarId::new(reg)))
}

/// The evaluator: code runs against parameters, a frame's registers and —
/// for hand-offs only — the transaction's [`VarStore`].
pub struct Machine<'a> {
    consts: &'a [Value],
    params: &'a [Value],
    store: &'a VarStore,
    regs: &'a mut Vec<Option<Value>>,
    site_keys: &'a mut Vec<Option<Key>>,
    /// Current loop iteration, and the same as a value operands can borrow.
    iter: Option<u64>,
    loop_value: Value,
}

impl<'a> Machine<'a> {
    /// An evaluator over `frame` with `num_regs` registers, of which the
    /// variable registers `vars` — every one the code can look at — start
    /// unbound. (Temporaries are written before they are read.)
    pub fn new(
        consts: &'a [Value],
        num_regs: u32,
        vars: &[u32],
        params: &'a [Value],
        store: &'a VarStore,
        frame: &'a mut ExecFrame,
    ) -> Self {
        if frame.regs.len() < num_regs as usize {
            frame.regs.resize(num_regs as usize, None);
        }
        for &r in vars {
            frame.regs[r as usize] = None;
        }
        Machine {
            consts,
            params,
            store,
            regs: &mut frame.regs,
            site_keys: &mut frame.site_keys,
            iter: None,
            loop_value: Value::Int(0),
        }
    }

    /// Enter iteration `iter` of a loop (`None`: straight-line code): the
    /// registers in `unbind` (the loop's own variables) lose their binding.
    #[inline]
    pub fn begin_iteration(&mut self, iter: Option<u64>, unbind: &[u32]) {
        self.iter = iter;
        self.loop_value = Value::Int(iter.unwrap_or(0) as i64);
        for &r in unbind {
            self.regs[r as usize] = None;
        }
    }

    /// Start the iteration's `num_sites` site keys from parameter
    /// checking's slots if there are any — an empty slot leaves its key to
    /// the code — and all unknown otherwise.
    #[inline]
    pub fn reset_site_keys(&mut self, num_sites: usize, slots: Option<&[Option<Access>]>) {
        self.site_keys.clear();
        match slots {
            Some(slots) => self
                .site_keys
                .extend(slots.iter().map(|slot| slot.map(|a| a.key))),
            None => self.site_keys.resize(num_sites, None),
        }
    }

    /// The key [`Instr::SetSiteKey`] or [`Machine::reset_site_keys`] set.
    #[inline]
    pub fn site_key(&self, site: u32) -> Key {
        self.site_keys[site as usize].expect("compiled code keys a site before accessing it")
    }

    fn param(&self, i: usize) -> Result<&Value> {
        self.params
            .get(i)
            .ok_or_else(|| Error::Unknown(format!("parameter ${i} out of range")))
    }

    /// Look at an operand's value.
    #[inline]
    pub fn peek(&self, o: Operand) -> Result<&Value> {
        match o {
            Operand::Reg(r) => self.regs[r as usize].as_ref().ok_or_else(|| unbound(r)),
            Operand::Param(i) => self.param(i as usize),
            Operand::Const(i) => Ok(&self.consts[i as usize]),
            Operand::ParamOffset { base, stride } => {
                let idx = self
                    .iter
                    .ok_or_else(|| Error::Unknown("ParamOffset outside of a loop".to_string()))?;
                self.param(base as usize + stride as usize * idx as usize)
            }
            Operand::LoopIndex => match self.iter {
                Some(_) => Ok(&self.loop_value),
                None => Err(Error::Unknown("LoopIndex outside of a loop".to_string())),
            },
        }
    }

    /// Bind a variable register to the value its read produced, handing it
    /// over through the store as well when `publish` says someone outside
    /// the plan is waiting for it (per iteration inside a loop).
    #[inline]
    pub fn bind(&mut self, reg: u32, val: Value, publish: bool) {
        if publish {
            match self.iter {
                Some(i) => self.store.set_indexed(VarId::new(reg), i, val.clone()),
                None => self.store.set(VarId::new(reg), val.clone()),
            }
        }
        self.regs[reg as usize] = Some(val);
    }

    /// Execute one pure instruction at `pc`; returns the next `pc`.
    #[inline]
    pub fn step(&mut self, ins: &Instr, pc: usize) -> Result<usize> {
        match *ins {
            Instr::Bin { op, dst, a, b } => {
                let v = op.apply(self.peek(a)?, self.peek(b)?);
                self.regs[dst as usize] = Some(v);
            }
            Instr::Not { dst, a } => {
                let v = Value::Int(!self.peek(a)?.truthy() as i64);
                self.regs[dst as usize] = Some(v);
            }
            Instr::Truthy { dst, a } => {
                let v = Value::Int(self.peek(a)?.truthy() as i64);
                self.regs[dst as usize] = Some(v);
            }
            Instr::JumpIfFalsy { cond, target } => {
                if !self.peek(cond)?.truthy() {
                    return Ok(target as usize);
                }
            }
            Instr::Check(o) => {
                self.peek(o)?;
            }
            Instr::Import { reg } => {
                if self.regs[reg as usize].is_none() {
                    // The tree's lookup order: this iteration's hand-off
                    // of a loop-local variable, then the plain slot.
                    let v = VarId::new(reg);
                    let val = self
                        .iter
                        .and_then(|i| self.store.get_indexed(v, i))
                        .or_else(|| self.store.get(v))
                        .ok_or_else(|| unbound(reg))?;
                    self.regs[reg as usize] = Some(val);
                }
            }
            Instr::KeyKnown { site, target } => {
                if self.site_keys[site as usize].is_some() {
                    return Ok(target as usize);
                }
            }
            Instr::SetSiteKey { site, key } => {
                let key = as_key(self.peek(key)?)?;
                self.site_keys[site as usize] = Some(key);
            }
            Instr::Access { .. } => {
                return Err(Error::Unknown(
                    "access instruction outside the executor".to_string(),
                ))
            }
        }
        Ok(pc + 1)
    }

    /// Run the pure program `prog` of `code` and look at its value.
    pub fn eval(&mut self, code: &[Instr], prog: &Prog) -> Result<&Value> {
        let mut pc = prog.start as usize;
        while pc < prog.end as usize {
            pc = self.step(&code[pc], pc)?;
        }
        self.peek(prog.out)
    }

    /// [`Machine::eval`] as a primary key. Keys must be integer-valued.
    pub fn eval_key(&mut self, code: &[Instr], prog: &Prog) -> Result<Key> {
        as_key(self.eval(code, prog)?)
    }
}

pub(crate) fn as_key(v: &Value) -> Result<Key> {
    match v {
        Value::Int(i) => Ok(*i as Key),
        v => Err(Error::Unknown(format!("non-integer key: {v}"))),
    }
}

/// Lowers [`Expr`]s to code. One per plan: constants are pooled across the
/// plan, code is taken group by group.
pub(crate) struct Lower<'a> {
    pub code: Vec<Instr>,
    pub consts: Vec<Value>,
    /// Variables only the running code binds (reads of the plan itself):
    /// no hand-off to import.
    local: &'a dyn Fn(VarId) -> bool,
    first_temp: u32,
    next_temp: u32,
    /// Registers needed so far.
    pub num_regs: u32,
    /// Whether any [`Instr::Import`] was emitted.
    pub imports: bool,
}

impl<'a> Lower<'a> {
    /// A compiler for code with `num_vars` variable registers.
    pub fn new(num_vars: u32, local: &'a dyn Fn(VarId) -> bool) -> Self {
        Lower {
            code: Vec::new(),
            consts: Vec::new(),
            local,
            first_temp: num_vars,
            next_temp: num_vars,
            num_regs: num_vars,
            imports: false,
        }
    }

    /// Give every temporary back (nothing lives across operations).
    pub fn release_temps(&mut self) {
        self.next_temp = self.first_temp;
    }

    fn temp(&mut self) -> u32 {
        let t = self.next_temp;
        self.next_temp += 1;
        self.num_regs = self.num_regs.max(self.next_temp);
        t
    }

    /// Append an instruction; returns its position.
    pub fn emit(&mut self, ins: Instr) -> usize {
        self.code.push(ins);
        self.code.len() - 1
    }

    /// Point the jump at `at` to the next instruction to be emitted.
    pub fn land(&mut self, at: usize) {
        let here = self.code.len() as u32;
        match &mut self.code[at] {
            Instr::JumpIfFalsy { target, .. } | Instr::KeyKnown { target, .. } => *target = here,
            other => unreachable!("{other:?} is not a jump"),
        }
    }

    fn constant(&mut self, v: &Value) -> u32 {
        let at = self.consts.iter().position(|c| c == v).unwrap_or_else(|| {
            self.consts.push(v.clone());
            self.consts.len() - 1
        });
        at as u32
    }

    /// Whether lowering `e` emits instructions (an operator, or a variable
    /// that has to be imported) rather than naming a leaf operand.
    fn emits(&self, e: &Expr) -> bool {
        match e {
            Expr::Const(_) | Expr::Param(_) | Expr::ParamOffset { .. } | Expr::LoopIndex => false,
            Expr::Var(v) => !(self.local)(*v),
            _ => true,
        }
    }

    /// Lower `exprs`, which the tree evaluates in this order, so that the
    /// first error is the tree's: a fallible leaf is checked before any
    /// later code runs. What is still unchecked at the end, the consuming
    /// instruction looks at in the same order.
    pub fn sequence<'e>(&mut self, exprs: impl IntoIterator<Item = &'e Expr>) -> Vec<Operand> {
        let mut out = Vec::new();
        let mut unchecked = 0;
        for e in exprs {
            if self.emits(e) {
                for &o in &out[unchecked..] {
                    if !matches!(o, Operand::Const(_)) {
                        self.emit(Instr::Check(o));
                    }
                }
                out.push(self.expr(e));
                unchecked = out.len();
            } else {
                out.push(self.expr(e));
            }
        }
        out
    }

    /// Lower `e`; returns where its value will be.
    pub fn expr(&mut self, e: &Expr) -> Operand {
        let as_u32 = |i: usize| u32::try_from(i).unwrap_or(u32::MAX);
        let (op, a, b) = match e {
            Expr::Const(v) => return Operand::Const(self.constant(v)),
            Expr::Param(i) => return Operand::Param(as_u32(*i)),
            Expr::ParamOffset { base, stride } => {
                return Operand::ParamOffset {
                    base: as_u32(*base),
                    stride: as_u32(*stride),
                }
            }
            Expr::LoopIndex => return Operand::LoopIndex,
            Expr::Var(v) => {
                if !(self.local)(*v) {
                    self.imports = true;
                    self.emit(Instr::Import { reg: v.0 });
                }
                return Operand::Reg(v.0);
            }
            Expr::Not(a) => {
                let mark = self.next_temp;
                let a = self.expr(a);
                self.next_temp = mark;
                let dst = self.temp();
                self.emit(Instr::Not { dst, a });
                return Operand::Reg(dst);
            }
            Expr::And(a, b) => {
                // dst ← truthy(a); only if that holds, dst ← truthy(b).
                let mark = self.next_temp;
                let a = self.expr(a);
                self.next_temp = mark;
                let dst = self.temp();
                self.emit(Instr::Truthy { dst, a });
                let skip = self.emit(Instr::JumpIfFalsy {
                    cond: Operand::Reg(dst),
                    target: 0,
                });
                let b = self.expr(b);
                self.emit(Instr::Truthy { dst, a: b });
                self.land(skip);
                self.next_temp = mark + 1;
                return Operand::Reg(dst);
            }
            Expr::Add(a, b) => (BinOp::Add, a, b),
            Expr::Sub(a, b) => (BinOp::Sub, a, b),
            Expr::Mul(a, b) => (BinOp::Mul, a, b),
            Expr::Gt(a, b) => (BinOp::Gt, a, b),
            Expr::Eq(a, b) => (BinOp::Eq, a, b),
            Expr::Ne(a, b) => (BinOp::Ne, a, b),
        };
        let mark = self.next_temp;
        let operands = self.sequence([&**a, &**b]);
        // The result may take an operand's temporary: both are read before
        // it is written.
        self.next_temp = mark;
        let dst = self.temp();
        self.emit(Instr::Bin {
            op,
            dst,
            a: operands[0],
            b: operands[1],
        });
        Operand::Reg(dst)
    }

    /// Lower `e` as a program of its own.
    pub fn prog(&mut self, e: &Expr) -> Prog {
        let start = self.code.len() as u32;
        let out = self.expr(e);
        Prog {
            start,
            end: self.code.len() as u32,
            out,
        }
    }
}

/// One expression compiled on its own — for callers that evaluate a single
/// key outside any plan, and for holding the compiler to the tree.
#[derive(Clone, Debug, PartialEq)]
pub struct ExprCode {
    code: Vec<Instr>,
    consts: Vec<Value>,
    prog: Prog,
    num_regs: u32,
    /// The variables' registers.
    vars: Vec<u32>,
}

impl ExprCode {
    /// Compile `expr`. A variable for which `local` holds is only ever
    /// bound in the frame ([`EvalCtx::locals`]); the others fall back to
    /// the context's [`VarStore`].
    pub fn compile(expr: &Expr, local: &dyn Fn(VarId) -> bool) -> ExprCode {
        let mut vars = Vec::new();
        expr.collect_vars(&mut vars);
        let mut vars: Vec<u32> = vars.iter().map(|v| v.0).collect();
        vars.sort_unstable();
        vars.dedup();
        let num_vars = vars.last().map_or(0, |v| v + 1);
        let mut lower = Lower::new(num_vars, local);
        let prog = lower.prog(expr);
        ExprCode {
            code: lower.code,
            consts: lower.consts,
            prog,
            num_regs: lower.num_regs,
            vars,
        }
    }

    fn machine<'a>(&'a self, ctx: &EvalCtx<'a>, frame: &'a mut ExecFrame) -> Machine<'a> {
        let store = ctx.vars.unwrap_or(VarStore::shared_empty());
        let mut m = Machine::new(
            &self.consts,
            self.num_regs,
            &self.vars,
            ctx.params,
            store,
            frame,
        );
        m.begin_iteration(ctx.loop_index, &[]);
        // The first binding of a variable wins, as in the tree's scan.
        for (v, val) in ctx.locals.iter().rev() {
            if let Some(reg) = m.regs.get_mut(v.index()) {
                *reg = Some(val.clone());
            }
        }
        m
    }

    /// Evaluate under `ctx` — what [`Expr::eval`] returns, error included.
    pub fn eval(&self, ctx: &EvalCtx<'_>, frame: &mut ExecFrame) -> Result<Value> {
        self.machine(ctx, frame)
            .eval(&self.code, &self.prog)
            .cloned()
    }

    /// Evaluate as a primary key — what [`Expr::eval_key`] returns.
    pub fn eval_key(&self, ctx: &EvalCtx<'_>, frame: &mut ExecFrame) -> Result<Key> {
        self.machine(ctx, frame).eval_key(&self.code, &self.prog)
    }
}

/// An operand with the constant pool it may point into, for display.
struct Shown<'a>(Operand, &'a [Value]);

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Operand::Param(i) => write!(f, "${i}"),
            Operand::ParamOffset { base, stride } => write!(f, "${{{base}+{stride}*i}}"),
            Operand::Const(i) => write!(f, "{}", self.1[i as usize]),
            Operand::Reg(r) => write!(f, "r{r}"),
            Operand::LoopIndex => write!(f, "i"),
        }
    }
}

/// Write `code` one instruction a line, each prefixed by `indent` and its
/// position; `rows` is the pool [`AccessKind::Insert`] points into.
pub(crate) fn write_code(
    f: &mut dyn fmt::Write,
    indent: &str,
    code: &[Instr],
    consts: &[Value],
    rows: &[Operand],
) -> fmt::Result {
    let s = |o: Operand| Shown(o, consts);
    for (pc, ins) in code.iter().enumerate() {
        write!(f, "{indent}{pc:>3}  ")?;
        match *ins {
            Instr::Bin { op, dst, a, b } => {
                writeln!(f, "r{dst} <- {} {} {}", s(a), op.symbol(), s(b))
            }
            Instr::Not { dst, a } => writeln!(f, "r{dst} <- !{}", s(a)),
            Instr::Truthy { dst, a } => writeln!(f, "r{dst} <- truthy {}", s(a)),
            Instr::JumpIfFalsy { cond, target } => {
                writeln!(f, "unless {} goto {target}", s(cond))
            }
            Instr::Check(o) => writeln!(f, "check {}", s(o)),
            Instr::Import { reg } => writeln!(f, "import r{reg}"),
            Instr::KeyKnown { site, target } => writeln!(f, "if key(site{site}) goto {target}"),
            Instr::SetSiteKey { site, key } => writeln!(f, "key(site{site}) <- {}", s(key)),
            Instr::Access { op, site, kind } => {
                match kind {
                    AccessKind::Read { col, dst, publish } => {
                        let publish = if publish { ", publish" } else { "" };
                        write!(f, "r{dst} <- read site{site}.col{col}{publish}")?
                    }
                    AccessKind::Write { col, value } => {
                        write!(f, "write site{site}.col{col} <- {}", s(value))?
                    }
                    AccessKind::AddCol { col, delta, negate } => {
                        let sign = if negate { '-' } else { '+' };
                        write!(f, "site{site}.col{col} {sign}= {}", s(delta))?
                    }
                    AccessKind::Insert { start, len } => {
                        write!(f, "insert site{site} [")?;
                        for (n, &o) in rows[start as usize..(start + len) as usize]
                            .iter()
                            .enumerate()
                        {
                            let sep = if n > 0 { ", " } else { "" };
                            write!(f, "{sep}{}", s(o))?;
                        }
                        write!(f, "]")?
                    }
                    AccessKind::Delete => write!(f, "delete site{site}")?,
                }
                let ops = if matches!(kind, AccessKind::AddCol { .. }) {
                    format!("op{op}+op{}", op + 1)
                } else {
                    format!("op{op}")
                };
                writeln!(f, "    ; {ops}")
            }
        }?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(e: &Expr, ctx: &EvalCtx<'_>) -> Result<Value> {
        ExprCode::compile(e, &|_| false).eval(ctx, &mut ExecFrame::default())
    }

    #[test]
    fn arithmetic_matches_the_tree() {
        let params = [Value::Int(10), Value::Int(3)];
        let ctx = EvalCtx::of_params(&params);
        let e = Expr::mul(
            Expr::sub(Expr::param(0), Expr::param(1)),
            Expr::add(Expr::param(1), Expr::int(1)),
        );
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Int(28));
        assert_eq!(e.eval(&ctx).unwrap(), Value::Int(28));
    }

    #[test]
    fn and_skips_its_right_side_behind_a_falsy_left() {
        let params = [Value::Int(0)];
        let ctx = EvalCtx::of_params(&params);
        // The right side reads a parameter that does not exist.
        let e = Expr::and(Expr::param(0), Expr::param(7));
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Int(0));
        let e = Expr::and(Expr::int(1), Expr::param(7));
        assert_eq!(eval(&e, &ctx), e.eval(&ctx));
        assert!(eval(&e, &ctx).is_err());
    }

    #[test]
    fn a_failing_leaf_on_the_left_is_reported_before_code_on_the_right() {
        // Tree order: the unbound variable first, then the bad parameter.
        let e = Expr::add(
            Expr::var(VarId::new(0)),
            Expr::add(Expr::param(9), Expr::int(1)),
        );
        let ctx = EvalCtx::of_params(&[]);
        for local in [false, true] {
            let got = ExprCode::compile(&e, &|_| local).eval(&ctx, &mut ExecFrame::default());
            assert_eq!(got, e.eval(&ctx), "local: {local}");
            assert!(format!("{got:?}").contains("unbound variable v0"));
        }
    }

    #[test]
    fn hand_offs_are_imported_once_and_locals_win() {
        let v = VarId::new(1);
        let store = VarStore::new(2);
        store.set(v, Value::Int(5));
        let e = Expr::add(Expr::var(v), Expr::var(v));
        let mut ctx = EvalCtx::of_params(&[]);
        ctx.vars = Some(&store);
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Int(10));
        let locals = [(v, Value::Int(7))];
        ctx.locals = &locals;
        assert_eq!(eval(&e, &ctx).unwrap(), Value::Int(14));
        // A variable the code itself is to bind never looks at the store.
        ctx.locals = &[];
        let local = ExprCode::compile(&e, &|_| true);
        assert!(local.eval(&ctx, &mut ExecFrame::default()).is_err());
    }

    #[test]
    fn keys_must_be_integers() {
        let ctx = EvalCtx::of_params(&[]);
        let frame = &mut ExecFrame::default();
        let code = ExprCode::compile(&Expr::str("abc"), &|_| false);
        assert_eq!(code.eval_key(&ctx, frame), Expr::str("abc").eval_key(&ctx));
        let code = ExprCode::compile(&Expr::int(-1), &|_| false);
        assert_eq!(code.eval_key(&ctx, frame).unwrap(), u64::MAX);
    }
}
