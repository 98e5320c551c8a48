//! Replay-cost model for adaptive hybrid logging (ALR).
//!
//! Command logging re-executes every logged transaction at recovery;
//! logical logging reinstalls after-images. Following Yao et al.,
//! *Adaptive Logging for Distributed In-memory Databases*, the best format
//! is a **per-transaction** choice: command-log the transactions that are
//! cheap to replay, value-log the expensive ones. The [`CostModel`] makes
//! that choice from two estimators, both expressed in *interpreter-op
//! units* so they compose:
//!
//! * **static** — a per-procedure replay-cost estimate derived from the
//!   procedure's definition and local dependency graph (§4.1): every
//!   operation is charged as if it re-executed at replay, loops multiply
//!   by an assumed iteration count, guarded ops replay only when taken.
//!   Replay in fact skips reads that feed no write, so this — like the
//!   observed op count below — is an upper bound on the replay cost;
//! * **dynamic** — an EWMA of the *observed* per-procedure op counts
//!   (loops resolved against real parameters, guards as actually taken),
//!   fed mid-run through [`CostModel::observe`] — wired from the
//!   transaction driver via `Durability::observe_execution` — which
//!   corrects the static estimate once real invocations exist.
//!
//! A transaction logs as a **command** iff its estimated replay cost does
//! not exceed `inflation_threshold ×` the cost of reinstalling its write
//! set (`writes × apply_write_cost`). Measured on the bundled workloads,
//! plain single-tuple read-modify-write procedures bottom out at ~3 ops
//! per written tuple (every write pairs with a read plus key/guard
//! evaluation; column-level ops merge into one tuple image), while
//! multi-read, loop- and guard-heavy procedures (TPC-C NewOrder,
//! Smallbank WriteCheck/Amalgamate) run ~3.8-4+. The default threshold of
//! 3.5 splits those two populations, sending exactly the
//! replay-expensive tail to logical records. Everything is lock-free:
//! per-procedure EWMAs live in `AtomicU64`-encoded `f64`s, so the hot
//! commit path never blocks.

use crate::static_analysis::LocalGraph;
use pacman_common::ProcId;
use pacman_engine::CommitInfo;
use pacman_sproc::ProcedureDef;
use pacman_wal::{CommitClassifier, LogChoice};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs of the [`CostModel`].
#[derive(Clone, Debug)]
pub struct CostModelConfig {
    /// Cost of re-executing one interpreter operation at replay, in
    /// op-units (the model's base unit; only ratios matter).
    pub replay_op_cost: f64,
    /// Cost of reinstalling one after-image at replay, in op-units.
    pub apply_write_cost: f64,
    /// Assumed iteration count for loops whose bound is a runtime
    /// parameter (static analysis cannot resolve it).
    pub assumed_loop_iters: usize,
    /// A transaction logs logically when its estimated replay cost
    /// exceeds this multiple of its write-set apply cost.
    pub inflation_threshold: f64,
    /// EWMA smoothing factor for dynamic observations (0 disables the
    /// dynamic estimator entirely).
    pub ewma_alpha: f64,
    /// Observations per procedure before the EWMA overrides the static
    /// estimate.
    pub min_samples: u64,
}

impl Default for CostModelConfig {
    fn default() -> Self {
        CostModelConfig {
            replay_op_cost: 1.0,
            apply_write_cost: 1.0,
            assumed_loop_iters: 8,
            inflation_threshold: 3.5,
            ewma_alpha: 0.2,
            min_samples: 32,
        }
    }
}

/// Per-procedure state of the model.
#[derive(Debug)]
struct ProcCost {
    /// Static estimate: replay op-cost for one invocation.
    static_cost: f64,
    /// EWMA of observed interpreter ops per invocation (f64 bits).
    ewma_ops: AtomicU64,
    samples: AtomicU64,
}

/// The adaptive-logging cost model: static per-procedure estimates plus a
/// runtime EWMA, implementing the WAL layer's [`CommitClassifier`].
#[derive(Debug)]
pub struct CostModel {
    config: CostModelConfig,
    procs: Vec<ProcCost>,
}

/// Static replay-cost estimate for one procedure, in op-units (exposed
/// for tests and the walkthrough example). The local dependency graph is
/// consulted for structure: a procedure that decomposes into many
/// independent slices replays with PACMAN's intra-transaction
/// parallelism, which shaves a little off its effective critical path.
pub fn static_replay_cost(proc: &ProcedureDef, config: &CostModelConfig) -> f64 {
    let lg = LocalGraph::analyze(proc);
    let mut weighted_ops = 0.0;
    for op in &proc.ops {
        let mut w = 1.0;
        if op.loop_id.is_some() {
            w *= config.assumed_loop_iters as f64;
        }
        if op.guard.is_some() {
            // A guarded op replays only when its predicate holds; charge
            // half on average.
            w *= 0.5;
        }
        weighted_ops += w;
    }
    // Mild parallelism discount: k independent slices overlap their
    // execution under the PACMAN schedule.
    let parallelism = (lg.len().max(1) as f64).sqrt();
    weighted_ops * config.replay_op_cost / parallelism
}

impl CostModel {
    /// Build the model for a procedure set (dense proc ids, as registered).
    pub fn new(procs: &[Arc<ProcedureDef>], config: CostModelConfig) -> CostModel {
        let max_id = procs
            .iter()
            .map(|p| p.id.index())
            .max()
            .map_or(0, |m| m + 1);
        let mut table: Vec<ProcCost> = (0..max_id)
            .map(|_| ProcCost {
                static_cost: 1.0,
                ewma_ops: AtomicU64::new(1f64.to_bits()),
                samples: AtomicU64::new(0),
            })
            .collect();
        for p in procs {
            let entry = &mut table[p.id.index()];
            entry.static_cost = static_replay_cost(p, &config);
            // Seed the EWMA with the static prior (in raw op units) so
            // the first observations blend against it instead of racing
            // to define the initial value.
            let prior = entry.static_cost / config.replay_op_cost.max(1e-9);
            entry.ewma_ops = AtomicU64::new(prior.to_bits());
        }
        CostModel {
            config,
            procs: table,
        }
    }

    /// Build with default knobs.
    pub fn for_procs(procs: &[Arc<ProcedureDef>]) -> CostModel {
        CostModel::new(procs, CostModelConfig::default())
    }

    /// The current replay-cost estimate for `proc` in op-units: the
    /// static estimate until `min_samples` observations exist, then the
    /// runtime EWMA of observed op counts.
    pub fn replay_cost(&self, proc: ProcId) -> f64 {
        let Some(entry) = self.procs.get(proc.index()) else {
            return 1.0;
        };
        if entry.samples.load(Ordering::Relaxed) >= self.config.min_samples
            && self.config.ewma_alpha > 0.0
        {
            f64::from_bits(entry.ewma_ops.load(Ordering::Relaxed)) * self.config.replay_op_cost
        } else {
            entry.static_cost
        }
    }

    fn update_ewma(&self, entry: &ProcCost, observed: f64) {
        let alpha = self.config.ewma_alpha;
        // Lock-free EWMA: CAS the f64 bits; contention is rare and a lost
        // update only drops one sample.
        let mut cur = entry.ewma_ops.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = alpha * observed + (1.0 - alpha) * old;
            match entry.ewma_ops.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        entry.samples.fetch_add(1, Ordering::Relaxed);
    }
}

impl CommitClassifier for CostModel {
    fn classify(&self, proc: ProcId, info: &CommitInfo) -> LogChoice {
        let replay = self.replay_cost(proc);
        let apply = info.writes.len().max(1) as f64 * self.config.apply_write_cost;
        if replay > self.config.inflation_threshold * apply {
            LogChoice::Logical
        } else {
            LogChoice::Command
        }
    }

    fn observe(&self, proc: ProcId, replay_ops: f64, _writes: usize) {
        if self.config.ewma_alpha <= 0.0 {
            return;
        }
        if let Some(entry) = self.procs.get(proc.index()) {
            self.update_ewma(entry, replay_ops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::{Row, TableId, Value};
    use pacman_engine::{WriteKind, WriteRecord};
    use pacman_sproc::{Expr, ProcBuilder};

    const T: TableId = TableId::new(0);
    const U: TableId = TableId::new(1);

    fn light() -> Arc<ProcedureDef> {
        let mut b = ProcBuilder::new(ProcId::new(0), "Light", 2);
        let v = b.read(T, Expr::param(0), 0);
        b.write(
            T,
            Expr::param(0),
            0,
            Expr::add(Expr::var(v), Expr::param(1)),
        );
        Arc::new(b.build().unwrap())
    }

    /// A loop of read-heavy iterations that funnels into one written
    /// tuple: expensive to re-execute, cheap to reinstall.
    fn heavy() -> Arc<ProcedureDef> {
        let mut b = ProcBuilder::new(ProcId::new(1), "Heavy", 2);
        b.repeat(Expr::param(1), |b| {
            let v = b.read(U, Expr::param(0), 0);
            b.write(U, Expr::param(0), 0, Expr::add(Expr::var(v), Expr::int(1)));
        });
        Arc::new(b.build().unwrap())
    }

    fn info(ops: u64, writes: usize) -> CommitInfo {
        CommitInfo {
            ts: 1,
            ops,
            writes: (0..writes)
                .map(|i| WriteRecord {
                    table: T,
                    key: i as u64,
                    kind: WriteKind::Update,
                    after: Some(Row::from([Value::Int(0)])),
                    prev_ts: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn static_estimate_orders_light_below_heavy() {
        let cfg = CostModelConfig::default();
        assert!(
            static_replay_cost(&light(), &cfg) < static_replay_cost(&heavy(), &cfg),
            "loop-heavy procedure must look more expensive"
        );
    }

    #[test]
    fn classifies_heavy_procs_logical_and_light_command() {
        let model = CostModel::for_procs(&[light(), heavy()]);
        // Light: 2 ops, 1 write → inflation 2 ≤ 3.5 → command.
        assert_eq!(
            model.classify(ProcId::new(0), &info(2, 1)),
            LogChoice::Command
        );
        // Heavy statically: 16 weighted ops funneling into 1 written
        // tuple → inflation 16 → logical.
        assert_eq!(
            model.classify(ProcId::new(1), &info(16, 1)),
            LogChoice::Logical
        );
    }

    #[test]
    fn ewma_feedback_flips_a_misjudged_procedure() {
        // Static view of `light`: 2 ops / 1 write → command. Feed runtime
        // evidence that invocations actually execute far more ops (say the
        // loop bound turned out huge): after min_samples the model must
        // switch to logical.
        let model = CostModel::new(
            &[light()],
            CostModelConfig {
                min_samples: 4,
                ..CostModelConfig::default()
            },
        );
        let p = ProcId::new(0);
        assert_eq!(model.classify(p, &info(2, 1)), LogChoice::Command);
        for _ in 0..8 {
            model.observe(p, 50.0, 1);
        }
        assert!(model.replay_cost(p) > 10.0, "EWMA should dominate");
        assert_eq!(model.classify(p, &info(2, 1)), LogChoice::Logical);
    }

    #[test]
    fn ewma_converges_toward_observations() {
        let model = CostModel::new(
            &[light()],
            CostModelConfig {
                min_samples: 1,
                ewma_alpha: 0.5,
                ..CostModelConfig::default()
            },
        );
        for _ in 0..32 {
            model.observe(ProcId::new(0), 10.0, 1);
        }
        let got = model.replay_cost(ProcId::new(0));
        assert!((got - 10.0).abs() < 0.5, "replay_cost = {got}");
    }

    #[test]
    fn wide_write_sets_stay_commands() {
        // Inflation is per written tuple: a transaction whose op count
        // tracks its write count (bulk update) re-executes as cheaply as
        // it reinstalls, so it stays a command record.
        let model = CostModel::for_procs(&[light()]);
        assert_eq!(
            model.classify(ProcId::new(0), &info(40, 20)),
            LogChoice::Command
        );
    }

    #[test]
    fn unknown_proc_ids_fall_back_gracefully() {
        let model = CostModel::for_procs(&[light()]);
        let choice = model.classify(ProcId::new(7), &info(1, 1));
        assert_eq!(choice, LogChoice::Command);
        model.observe(ProcId::new(7), 1.0, 1);
    }
}
