//! The PACMAN recovery runtime (§4.2.1, §4.3.2, §4.4).
//!
//! Piece-sets become *active* when their gate opens:
//!
//! * **pure static** — all piece-sets of the previous batch finished
//!   (batch barrier) and upstream blocks of the same batch finished; the
//!   piece-set then executes *serially* on one thread (§4.2.1, the
//!   Fig. 18 baseline);
//! * **synchronous** — same gates, but the piece-set executes with
//!   fine-grained parallelism over the dynamic-analysis DAG (Fig. 9a);
//! * **pipelined** — no batch barrier: a piece-set starts once its own
//!   block finished the previous batch and its upstream blocks finished
//!   the same batch (Fig. 9b).
//!
//! A pool of exactly `threads` workers drains the active sets; the thread
//! that calls [`run_replay_gated`] is the loader, which hands each batch's
//! schedule to the pool and activates what it opens. The paper
//! statically pins cores to blocks in proportion to the estimated piece
//! distribution (Fig. 10); we let idle workers help other blocks instead —
//! a work-sharing refinement of that assignment that the paper's own
//! Fig. 20 analysis (scheduling = 30% of time) motivates — and use the
//! distribution only to order on-demand redo.

pub mod exec;

use crate::dynamic::{build_piece_dag, DagScratch, PieceDag};
use crate::metrics::RecoveryMetrics;
use crate::schedule::ExecutionSchedule;
use crate::static_analysis::GlobalGraph;
use pacman_common::{Error, Result};
use pacman_engine::{Database, RecoveryGate};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// How batches are replayed (the Fig. 18/19 ablation axis).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// Static analysis only: serial piece-sets, batch barrier.
    PureStatic,
    /// Static + intra-batch dynamic analysis, batch barrier (Fig. 9a).
    Synchronous,
    /// Static + intra- and inter-batch parallelism (Fig. 9b).
    Pipelined,
}

impl ReplayMode {
    /// Display label used by the benches.
    pub fn label(&self) -> &'static str {
        match self {
            ReplayMode::PureStatic => "pure-static",
            ReplayMode::Synchronous => "synchronous",
            ReplayMode::Pipelined => "pipelined",
        }
    }
}

/// Execution state of one *activated* piece-set.
struct ActiveSet {
    block: usize,
    entry: Arc<BatchEntry>,
    /// Dynamic-analysis DAG, built *lazily* by the first worker that picks
    /// the set (not at activation): parameter checking is a large share of
    /// replay time, and deferring it lets online recovery's priority order
    /// govern where that time goes. Never built in pure-static mode.
    dag: std::sync::OnceLock<PieceDag>,
    /// Claimed by the worker building the DAG.
    dag_claim: AtomicBool,
    ready: Mutex<VecDeque<u32>>,
    remaining: AtomicUsize,
    /// Pure-static: the whole set is claimed and executed by one worker.
    serial_claim: AtomicBool,
    done_flag: AtomicBool,
}

/// One batch, as received from the loader.
struct BatchEntry {
    schedule: ExecutionSchedule,
    /// Per block: whether the piece-set has been activated yet.
    activated: Vec<AtomicBool>,
}

/// The batches received from the loader that some block has yet to
/// finish, addressed by batch index. A standby feeds one replay call for
/// the lifetime of its session, so a batch's schedule must go once the
/// last block is through with it, not when the call returns.
#[derive(Default)]
struct BatchWindow {
    /// Batch index of `live[0]`: every earlier batch has been completed by
    /// every block and released.
    base: u64,
    live: VecDeque<Arc<BatchEntry>>,
}

impl BatchWindow {
    fn get(&self, batch: u64) -> Option<&Arc<BatchEntry>> {
        self.live.get(batch.checked_sub(self.base)? as usize)
    }

    /// Number of batches received so far (released ones included).
    fn received(&self) -> u64 {
        self.base + self.live.len() as u64
    }

    /// Take out every batch below `batch`; the caller drops them outside
    /// the lock.
    fn release_below(&mut self, batch: u64) -> Vec<Arc<BatchEntry>> {
        let n = (batch.saturating_sub(self.base) as usize).min(self.live.len());
        self.base += n as u64;
        self.live.drain(..n).collect()
    }
}

struct Shared {
    entries: Mutex<BatchWindow>,
    loading_done: AtomicBool,
    /// Per block: number of completed batches (== next batch to activate).
    done: Vec<AtomicU64>,
    active: Mutex<Vec<Arc<ActiveSet>>>,
    wake_mutex: Mutex<()>,
    wake_cv: Condvar,
    error: Mutex<Option<Error>>,
    aborted: AtomicBool,
    mode: ReplayMode,
    /// Online recovery: per-block batch watermarks are published here and
    /// blocks a waiting transaction needs are executed first.
    gate: Option<Arc<RecoveryGate>>,
    /// Blocks in ascending estimated-work order (from the §4.4 piece
    /// distribution). Among *wanted* blocks the runtime drains the
    /// cheapest first — shortest-job-first on-demand redo: when many
    /// admissions wait, the partition that can unblock someone soonest is
    /// finished first.
    sjf_order: Vec<usize>,
}

impl Shared {
    fn notify(&self) {
        let _g = self.wake_mutex.lock();
        self.wake_cv.notify_all();
    }

    fn new(
        blocks: usize,
        mode: ReplayMode,
        gate: Option<Arc<RecoveryGate>>,
        piece_estimate: &[usize],
    ) -> Shared {
        let mut sjf_order: Vec<usize> = (0..blocks).collect();
        sjf_order.sort_by_key(|&b| piece_estimate.get(b).copied().unwrap_or(0));
        Shared {
            entries: Mutex::new(BatchWindow::default()),
            loading_done: AtomicBool::new(false),
            done: (0..blocks).map(|_| AtomicU64::new(0)).collect(),
            active: Mutex::new(Vec::new()),
            wake_mutex: Mutex::new(()),
            wake_cv: Condvar::new(),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
            mode,
            gate,
            sjf_order,
        }
    }

    /// Take in the next batch from the loader.
    fn receive(&self, schedule: ExecutionSchedule) {
        let activated = (0..schedule.piece_sets.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        self.entries.lock().live.push_back(Arc::new(BatchEntry {
            schedule,
            activated,
        }));
    }

    /// Record one completed batch for `block`, publishing the watermark to
    /// the online-recovery gate if one is attached, and release the batches
    /// every block is now through with.
    fn complete_batch(&self, block: usize) {
        let done = self.done[block].fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(gate) = &self.gate {
            gate.publish(block, done);
        }
        let released = {
            let mut entries = self.entries.lock();
            // Read under the lock: of two blocks finishing a batch at the
            // same moment, the second one in here sees both counters.
            let floor = self
                .done
                .iter()
                .map(|d| d.load(Ordering::Acquire))
                .min()
                .expect("at least one block");
            entries.release_below(floor)
        };
        // The schedules are freed here, after the lock is.
        drop(released);
    }

    /// Latch the first error, abort, and poison an attached gate.
    fn fail(&self, e: Error) {
        self.error.lock().get_or_insert(e);
        self.aborted.store(true, Ordering::Release);
        if let Some(gate) = &self.gate {
            gate.fail();
        }
        self.notify();
    }

    /// Gate check for block `b`'s next piece-set (batch `done[b]`).
    fn gate_open(&self, gdg: &GlobalGraph, block: usize, batch: u64) -> bool {
        let preds_ok = gdg
            .preds(pacman_common::BlockId::new(block as u32))
            .iter()
            .all(|a| self.done[a.index()].load(Ordering::Acquire) > batch);
        match self.mode {
            ReplayMode::Pipelined => preds_ok,
            ReplayMode::Synchronous | ReplayMode::PureStatic => {
                preds_ok && self.done.iter().all(|d| d.load(Ordering::Acquire) >= batch)
            }
        }
    }

    /// Whether every block has finished every loaded batch.
    fn finished(&self) -> bool {
        if !self.loading_done.load(Ordering::Acquire) {
            return false;
        }
        let total = self.entries.lock().received();
        self.done.iter().all(|d| d.load(Ordering::Acquire) >= total)
    }
}

/// Activate every piece-set whose gate is open. Returns true if anything
/// new became active. DAG construction (parameter checking) happens here,
/// on the activating thread.
///
/// When an online-recovery gate reports blocked admissions, a first sweep
/// activates only the *wanted* blocks; cold blocks are activated (and
/// their parameter-checking cost paid) only once no wanted block could be
/// advanced — on-demand redo extends to dynamic analysis, not just
/// execution order.
fn try_activate(shared: &Shared, gdg: &GlobalGraph) -> bool {
    if shared.gate.as_ref().is_some_and(|g| g.any_wanted()) {
        let wanted = activation_sweep(shared, gdg, true);
        if wanted {
            return true;
        }
    }
    activation_sweep(shared, gdg, false)
}

/// One activation sweep; `wanted_only` restricts it to blocks with
/// blocked admissions.
fn activation_sweep(shared: &Shared, gdg: &GlobalGraph, wanted_only: bool) -> bool {
    let mut activated_any = false;
    loop {
        let mut progressed = false;
        for &block in &shared.sjf_order {
            if wanted_only && !shared.gate.as_ref().is_some_and(|g| g.is_wanted(block)) {
                continue;
            }
            let batch = shared.done[block].load(Ordering::Acquire);
            let entry = {
                let entries = shared.entries.lock();
                match entries.get(batch) {
                    Some(e) => Arc::clone(e),
                    None => continue,
                }
            };
            if entry.activated[block].swap(true, Ordering::AcqRel) {
                continue; // someone else is on it
            }
            if !shared.gate_open(gdg, block, batch) {
                entry.activated[block].store(false, Ordering::Release);
                continue;
            }
            let pieces = &entry.schedule.piece_sets[block];
            if pieces.pieces.is_empty() {
                // Nothing to do: complete immediately and keep sweeping.
                shared.complete_batch(block);
                progressed = true;
                continue;
            }
            // Pure static mode never consults a DAG (no dynamic analysis —
            // that is the Fig. 18/19 baseline); otherwise it is built
            // lazily by the first worker to pick the set.
            let set = Arc::new(ActiveSet {
                block,
                entry: Arc::clone(&entry),
                dag: std::sync::OnceLock::new(),
                dag_claim: AtomicBool::new(false),
                ready: Mutex::new(VecDeque::new()),
                remaining: AtomicUsize::new(pieces.pieces.len()),
                serial_claim: AtomicBool::new(false),
                done_flag: AtomicBool::new(false),
            });
            shared.active.lock().push(set);
            activated_any = true;
            progressed = true;
        }
        if !progressed {
            break;
        }
    }
    if activated_any {
        shared.notify();
    }
    activated_any
}

fn complete_set(shared: &Shared, gdg: &GlobalGraph, set: &ActiveSet) {
    set.done_flag.store(true, Ordering::Release);
    shared.complete_batch(set.block);
    shared
        .active
        .lock()
        .retain(|s| !s.done_flag.load(Ordering::Acquire));
    try_activate(shared, gdg);
    shared.notify();
}

/// Run the replay: take schedules from `schedules` (the loader, in batch
/// order) and execute every piece-set with exactly `threads` workers.
/// `piece_estimate` is the §4.4 distribution; the pool shares idle
/// capacity across blocks instead of pinning cores by it (the paper's
/// policy, Fig. 10) and uses it to order on-demand redo
/// (`Shared::sjf_order`).
///
/// The calling thread is the loader: it stops pulling once the replay
/// aborts, and a failure poisons an attached `gate` at once, so a follow
/// source waiting for its next unit stops too.
///
/// With an online-recovery `gate`, per-block batch watermarks are
/// published as piece-sets complete, and piece-sets of blocks a waiting
/// transaction needs (`gate.is_wanted`) are picked first — the runtime
/// half of on-demand redo.
#[allow(clippy::too_many_arguments)]
pub fn run_replay_gated(
    db: &Arc<Database>,
    gdg: &Arc<GlobalGraph>,
    mode: ReplayMode,
    threads: usize,
    piece_estimate: &[usize],
    metrics: &Arc<RecoveryMetrics>,
    mut schedules: impl Iterator<Item = ExecutionSchedule>,
    gate: Option<Arc<RecoveryGate>>,
) -> Result<()> {
    let shared = Shared::new(gdg.num_blocks(), mode, gate, piece_estimate);

    crossbeam::thread::scope(|scope| {
        for worker in 0..threads.max(1) {
            let shared = &shared;
            scope.spawn(move |_| worker_loop(db, gdg, shared, worker, metrics));
        }
        while !shared.aborted.load(Ordering::Acquire) {
            let Some(schedule) = schedules.next() else {
                break;
            };
            shared.receive(schedule);
            try_activate(&shared, gdg);
            shared.notify();
        }
        shared.loading_done.store(true, Ordering::Release);
        shared.notify();
    })
    .expect("replay scope");
    shared.error.into_inner().map_or(Ok(()), Err)
}

/// How many pieces a worker grabs per shared-queue access. Amortizes lock
/// traffic for the common tiny-piece case.
const CHUNK: usize = 16;

/// What a scan of one active set found.
enum Pick {
    /// Nothing to take from this set right now.
    Nothing,
    /// Pieces to execute (empty = the whole set, pure-static mode).
    Chunk(Vec<u32>),
    /// This worker claimed the set's DAG construction.
    BuildDag,
}

/// Try to take work from one active set.
fn pick_from(shared: &Shared, set: &ActiveSet) -> Pick {
    if set.done_flag.load(Ordering::Acquire) {
        return Pick::Nothing;
    }
    if shared.mode == ReplayMode::PureStatic {
        return if set.serial_claim.swap(true, Ordering::AcqRel) {
            Pick::Nothing
        } else {
            Pick::Chunk(Vec::new())
        };
    }
    if set.dag.get().is_none() {
        return if set.dag_claim.swap(true, Ordering::AcqRel) {
            Pick::Nothing // another worker is building this set's DAG
        } else {
            Pick::BuildDag
        };
    }
    let mut ready = set.ready.lock();
    if ready.is_empty() {
        return Pick::Nothing;
    }
    let take = ready.len().min(CHUNK);
    Pick::Chunk(ready.drain(..take).collect())
}

/// Pick a chunk of runnable pieces from the active sets. `rot` staggers
/// the scan start per worker to avoid convoying on one set. When an
/// online-recovery gate reports blocked admissions, sets of the wanted
/// blocks are scanned first, cheapest block first (on-demand redo
/// priority, see `Shared::sjf_order`). The picking worker builds a set's
/// dynamic-analysis DAG on first contact.
fn pick_work(
    shared: &Shared,
    rot: usize,
    metrics: &RecoveryMetrics,
    scratch: &mut DagScratch,
) -> Option<(Arc<ActiveSet>, Vec<u32>)> {
    let set = {
        let active = shared.active.lock();
        let n = active.len();
        let wanted_first = shared
            .gate
            .as_ref()
            .filter(|g| g.any_wanted())
            .into_iter()
            .flat_map(|g| {
                shared
                    .sjf_order
                    .iter()
                    .filter(|&&b| g.is_wanted(b))
                    .flat_map(|&b| active.iter().filter(move |s| s.block == b))
            });
        let rotating = (0..n).map(|k| &active[(rot + k) % n]);
        let mut to_build = None;
        for set in wanted_first.chain(rotating) {
            match pick_from(shared, set) {
                Pick::Nothing => {}
                Pick::Chunk(chunk) => return Some((Arc::clone(set), chunk)),
                Pick::BuildDag => {
                    to_build = Some(Arc::clone(set));
                    break;
                }
            }
        }
        to_build?
    };
    // Claimed: build outside the active-sets lock, so parameter checking
    // never serializes the other workers.
    let t0 = Instant::now();
    let pieces = &set.entry.schedule.piece_sets[set.block];
    let dag = build_piece_dag(pieces, &set.entry.schedule.txns, scratch);
    metrics.add_param(t0.elapsed());
    let chunk: Vec<u32> = {
        let mut ready = set.ready.lock();
        ready.extend(dag.initial_ready.iter().copied());
        let take = ready.len().min(CHUNK);
        ready.drain(..take).collect()
    };
    let _ = set.dag.set(dag);
    shared.notify();
    if chunk.is_empty() {
        return None;
    }
    Some((set, chunk))
}

fn worker_loop(
    db: &Arc<Database>,
    gdg: &Arc<GlobalGraph>,
    shared: &Shared,
    worker: usize,
    metrics: &RecoveryMetrics,
) {
    let mut rot = worker;
    let mut replayer = exec::Replayer::new(db);
    let mut scratch = DagScratch::default();
    loop {
        if shared.aborted.load(Ordering::Acquire) {
            return;
        }
        let Some((set, chunk)) = pick_work(shared, rot, metrics, &mut scratch) else {
            if shared.finished() {
                shared.notify();
                return;
            }
            // Heal any activation missed by the benign CAS race in
            // try_activate, then block briefly.
            let t0 = Instant::now();
            if !try_activate(shared, gdg) {
                let mut g = shared.wake_mutex.lock();
                shared
                    .wake_cv
                    .wait_for(&mut g, std::time::Duration::from_micros(200));
            }
            metrics.add_sched(t0.elapsed());
            continue;
        };
        rot = rot.wrapping_add(1);
        let pieces = &set.entry.schedule.piece_sets[set.block];
        let txns = &set.entry.schedule.txns;

        if shared.mode == ReplayMode::PureStatic {
            // Pure static: execute the whole set serially (§4.2.1).
            let t0 = Instant::now();
            let mut images = 0u64;
            for p in &pieces.pieces {
                match replayer.execute_piece(p, txns, None) {
                    Ok(w) => images += w,
                    Err(e) => {
                        shared.fail(e);
                        return;
                    }
                }
            }
            metrics.add_work(t0.elapsed());
            metrics.count_writes(images);
            complete_set(shared, gdg, &set);
            continue;
        }

        // Work-following: execute the chunk, preferring locally-unblocked
        // pieces; spill surplus back to the shared queue.
        let dag = set.dag.get().expect("chunk implies a built DAG");
        let mut local: Vec<u32> = chunk;
        let mut finished = 0usize;
        let mut images = 0u64;
        let t0 = Instant::now();
        while let Some(pi) = local.pop() {
            let pi = pi as usize;
            // `execute_piece` has installed everything the piece wrote
            // before it returns — only then may its dependents be
            // released (below) and the set be completed.
            match replayer.execute_piece(&pieces.pieces[pi], txns, dag.resolved(pi)) {
                Ok(w) => images += w,
                Err(e) => {
                    shared.fail(e);
                    return;
                }
            }
            finished += 1;
            for &d in dag.dependents(pi) {
                if dag.indeg[d as usize].fetch_sub(1, Ordering::AcqRel) == 1 {
                    local.push(d);
                }
            }
            if local.len() > 2 * CHUNK {
                let spill: Vec<u32> = local.drain(..CHUNK).collect();
                set.ready.lock().extend(spill);
                shared.notify();
            }
        }
        metrics.add_work(t0.elapsed());
        metrics.count_writes(images);
        if set.remaining.fetch_sub(finished, Ordering::AcqRel) == finished {
            complete_set(shared, gdg, &set);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pacman_common::Encoder;
    use pacman_common::{ProcId, Row, TableId, Value};
    use pacman_engine::Catalog;
    use pacman_sproc::{Expr, ProcBuilder, ProcRegistry};
    use pacman_wal::{merged_view_from_buffers, LogPayload, MergedBatchView, TxnLogRecord};
    use std::sync::Weak;
    use std::time::Duration;

    /// Two increment procedures on two tables: two independent blocks.
    fn two_blocks() -> (ProcRegistry, Arc<GlobalGraph>) {
        let mut reg = ProcRegistry::new();
        for (id, name) in [(0, "IncA"), (1, "IncB")] {
            let t = TableId::new(id);
            let mut b = ProcBuilder::new(ProcId::new(id), name, 1);
            let v = b.read(t, Expr::param(0), 0);
            b.write(t, Expr::param(0), 0, Expr::add(Expr::var(v), Expr::int(1)));
            reg.register(b.build().unwrap()).unwrap();
        }
        let gdg = Arc::new(GlobalGraph::analyze(reg.all()).unwrap());
        assert_eq!(gdg.num_blocks(), 2);
        (reg, gdg)
    }

    /// Batch `index`: one IncA and one IncB on key `index % 4`.
    fn batch(index: u64) -> MergedBatchView {
        let mut buf = Vec::new();
        for p in 0..2u32 {
            TxnLogRecord {
                ts: 10 + 2 * index + p as u64,
                payload: LogPayload::Command {
                    proc: ProcId::new(p),
                    params: vec![Value::Int((index % 4) as i64)].into(),
                },
            }
            .encode(&mut buf);
        }
        merged_view_from_buffers(index, vec![buf.into()], u64::MAX, 0).unwrap()
    }

    fn alive(canaries: &[Weak<BatchEntry>]) -> usize {
        canaries.iter().filter(|w| w.strong_count() > 0).count()
    }

    /// A batch is released when the slowest block is through with it — not
    /// earlier, and not when the replay call returns.
    #[test]
    fn batches_are_released_as_the_slowest_block_passes_them() {
        const N: u64 = 6;
        let (reg, gdg) = two_blocks();
        let shared = Shared::new(2, ReplayMode::Pipelined, None, &[1, 1]);
        let mut canaries = Vec::new();
        for i in 0..N {
            shared.receive(ExecutionSchedule::build(&gdg, &reg, &batch(i)).unwrap());
            canaries.push(Arc::downgrade(shared.entries.lock().get(i).unwrap()));
        }
        // Block 0 runs ahead through every batch; block 1 has not started.
        for _ in 0..N {
            shared.complete_batch(0);
        }
        assert_eq!(alive(&canaries), N as usize);
        for k in 1..=N {
            shared.complete_batch(1);
            assert_eq!(alive(&canaries), (N - k) as usize, "after {k} batches");
            let entries = shared.entries.lock();
            assert!(entries.get(k - 1).is_none());
            assert_eq!(entries.get(k).is_some(), k < N);
            assert_eq!(entries.received(), N);
        }
        assert!(!shared.finished(), "the loader may still send");
        shared.loading_done.store(true, Ordering::Release);
        assert!(shared.finished());
    }

    /// The standby's shape: one replay call fed over an unbounded channel
    /// that stays open. Schedules must not pile up behind the workers.
    #[test]
    fn a_long_lived_feed_does_not_retain_finished_batches() {
        const N: u64 = 24;
        let (reg, gdg) = two_blocks();
        let mut c = Catalog::new();
        c.add_table("a", 1);
        c.add_table("b", 1);
        let db = Arc::new(Database::new(c));
        for t in 0..2 {
            for k in 0..4 {
                db.seed_row(TableId::new(t), k, Row::from([Value::Int(0)]))
                    .unwrap();
            }
        }
        let gate = RecoveryGate::new(2);
        let metrics = Arc::new(RecoveryMetrics::new());
        let (tx, rx) = crossbeam::channel::unbounded();
        let replay = {
            let (db, gdg, gate, metrics) = (
                Arc::clone(&db),
                Arc::clone(&gdg),
                Arc::clone(&gate),
                Arc::clone(&metrics),
            );
            std::thread::spawn(move || {
                run_replay_gated(
                    &db,
                    &gdg,
                    ReplayMode::Pipelined,
                    2,
                    &[1, 1],
                    &metrics,
                    rx.into_iter(),
                    Some(gate),
                )
            })
        };
        // The parameter vector of each batch's first transaction lives
        // exactly as long as the batch's schedule.
        let mut canaries = Vec::new();
        for i in 0..N {
            let schedule = ExecutionSchedule::build(&gdg, &reg, &batch(i)).unwrap();
            canaries.push(Arc::downgrade(&schedule.txns[0].params));
            tx.send(schedule).unwrap();
        }
        let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
            let t0 = Instant::now();
            while !cond() {
                assert!(t0.elapsed() < Duration::from_secs(30), "timed out: {what}");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        wait_for("every batch applied", &|| gate.min_watermark() == N);
        // The channel is still open and the call has not returned.
        wait_for("finished batches released", &|| {
            canaries.iter().all(|w| w.strong_count() == 0)
        });
        assert!(!replay.is_finished());
        drop(tx);
        replay.join().unwrap().unwrap();
        assert_eq!(metrics.writes(), 2 * N, "one image per transaction");
        let a = db.table(TableId::new(0)).unwrap().get(0).unwrap();
        assert_eq!(a.newest().1.unwrap().col(0), Value::Int((N / 4) as i64));
    }
}
