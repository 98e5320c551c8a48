//! The commit window: a fixed, seeded count of transactions through the
//! commit path with one generator thread.
//!
//! Closed loop with asynchronous group commit, exactly as
//! `pacman_workloads::driver` does it: the generator submits the next
//! transaction as soon as the previous one has committed in memory, and a
//! transaction is *acknowledged* once its epoch is at or below the pepoch
//! frontier (read-only transactions log nothing and are acknowledged at
//! commit). Unlike the wall-clock driver the count is fixed and every
//! acknowledgement is drained, so the log the crash leaves is a function of
//! the seed alone.

use crate::trace::{Name, Trace};
use pacman_common::clock::epoch_of;
use pacman_common::Error;
use pacman_engine::{recycle_commit_info, run_procedure_with_epoch, Database};
use pacman_sproc::ProcRegistry;
use pacman_wal::{Durability, WorkerLogBuffer};
use pacman_workloads::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retries before an aborting transaction is given up (the driver's value).
const MAX_RETRIES: u32 = 10;
/// How long the drain waits for the last acknowledgements.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// What one commit window measured.
#[derive(Default)]
pub struct CommitResult {
    /// First submit → last acknowledgement, nanoseconds.
    pub wall_ns: u64,
    /// Submit → acknowledged, one sample per committed transaction.
    pub latency_ns: Vec<u64>,
    /// Commit → acknowledged for logged transactions (traced runs only).
    pub ack_wait_ns: Vec<u64>,
    /// Per transaction, traced runs only: when generation started, when the
    /// transaction was submitted, when it had committed in memory and when
    /// its record was staged and the epoch entered (nanoseconds since the
    /// window opened).
    pub stamps: Vec<[u64; 4]>,
    /// Transactions that produced a log record.
    pub logged: u64,
    /// Read-only commits (no log record).
    pub read_only: u64,
    /// Transactions given up after [`MAX_RETRIES`] aborts.
    pub gave_up: u64,
    /// Logged transactions still unacknowledged at the drain deadline.
    pub unacked: u64,
    /// Aborted attempts.
    pub aborts: u64,
    /// Sum of `CommitInfo.ops` over commits.
    pub ops: u64,
    /// Sum of the record sizes `log_commit_buffered` returned.
    pub staged_bytes: u64,
    /// Commit timestamp of the last logged transaction.
    pub last_ts: u64,
}

struct Pending {
    epoch: u64,
    submit_ns: u64,
    commit_ns: u64,
}

/// Acknowledge every pending transaction at or below the durable frontier.
#[inline]
fn acknowledge<const TRACE: bool>(
    pending: &mut VecDeque<Pending>,
    frontier: u64,
    now_ns: impl FnOnce() -> u64,
    out: &mut CommitResult,
) {
    if pending.front().is_none_or(|p| p.epoch > frontier) {
        return;
    }
    // One frontier advance acknowledges the whole sealed group: one clock
    // read covers it.
    let now = now_ns();
    while let Some(p) = pending.front() {
        if p.epoch > frontier {
            break;
        }
        out.latency_ns.push(now - p.submit_ns);
        if TRACE {
            out.ack_wait_ns.push(now - p.commit_ns);
        }
        pending.pop_front();
    }
}

/// Run `n` transactions drawn from `seed` and drain their acknowledgements.
/// With `TRACE`, the boundaries of every call into a layer are stamped
/// (four clock reads and 32 bytes per transaction; [`spans`] turns them
/// into spans once the window is over).
pub fn run<const TRACE: bool>(
    db: &Database,
    workload: &dyn Workload,
    registry: &ProcRegistry,
    durability: &Durability,
    seed: u64,
    n: u64,
) -> CommitResult {
    let traced = if TRACE { n as usize } else { 0 };
    let mut out = CommitResult {
        latency_ns: Vec::with_capacity(n as usize),
        ack_wait_ns: Vec::with_capacity(traced),
        stamps: Vec::with_capacity(traced),
        ..CommitResult::default()
    };
    let we = durability.register_worker();
    let em = Arc::clone(durability.epoch_manager());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut wb = WorkerLogBuffer::new();
    let base = Instant::now();
    let now_ns = || base.elapsed().as_nanos() as u64;

    // Seal-rule ordering (see the driver): staged records of older epochs
    // go to the logger *before* the worker's acknowledged epoch advances.
    let enter = |wb: &mut WorkerLogBuffer| {
        let e = we.peek();
        durability.flush_before_ack(wb, 0, e);
        we.enter_at(e);
    };
    enter(&mut wb);

    for _ in 0..n {
        acknowledge::<TRACE>(&mut pending, durability.pepoch(), now_ns, &mut out);

        let t_gen = if TRACE { now_ns() } else { 0 };
        let (pid, params) = workload.next_txn(&mut rng);
        let proc = registry.get(pid).expect("registered procedure");
        let submit = now_ns();
        let mut tries = 0;
        let mut committed = None;
        loop {
            match run_procedure_with_epoch(db, proc, &params, || em.current()) {
                Ok(info) => {
                    committed = Some(info);
                    break;
                }
                Err(Error::TxnAborted(_)) => {
                    out.aborts += 1;
                    tries += 1;
                    if tries > MAX_RETRIES {
                        out.gave_up += 1;
                        break;
                    }
                }
                Err(e) => panic!("workload execution error: {e}"),
            }
        }
        let t_commit = if TRACE { now_ns() } else { 0 };
        if let Some(info) = committed {
            out.ops += info.ops;
            if info.writes.is_empty() {
                out.read_only += 1;
                let done = if TRACE { t_commit } else { now_ns() };
                out.latency_ns.push(done - submit);
            } else {
                out.logged += 1;
                out.last_ts = info.ts;
                out.staged_bytes +=
                    durability.log_commit_buffered(&mut wb, 0, &info, pid, &params, false) as u64;
                pending.push_back(Pending {
                    epoch: epoch_of(info.ts),
                    submit_ns: submit,
                    commit_ns: t_commit,
                });
            }
            recycle_commit_info(info);
        }
        enter(&mut wb);
        if TRACE {
            out.stamps.push([t_gen, submit, t_commit, now_ns()]);
        }
    }

    // Drain: hand the last staged records over, then keep acknowledging
    // epochs (so the loggers may seal them) until nothing is pending.
    durability.flush_worker(&mut wb, 0);
    let deadline = Instant::now() + DRAIN_DEADLINE;
    loop {
        enter(&mut wb);
        acknowledge::<TRACE>(&mut pending, durability.pepoch(), now_ns, &mut out);
        if pending.is_empty() || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    out.wall_ns = now_ns();
    out.unacked = pending.len() as u64;
    we.retire();
    out
}

/// Record a traced window's stamps as child spans of `window`, which opened
/// at `opened_ns` on the trace's clock: per transaction one span for
/// `next_txn`, one for `run_procedure_with_epoch` (all attempts) and one
/// for `log_commit_buffered` + `flush_before_ack` + epoch entry.
pub fn spans(result: &CommitResult, trace: &mut Trace, window: u32, opened_ns: u64) {
    for (i, [gen, submit, commit, staged]) in result.stamps.iter().enumerate() {
        let at = |ns: &u64| opened_ns + ns;
        trace.push(Name::Gen, window, i as u32, at(gen), at(submit));
        trace.push(Name::Exec, window, i as u32, at(submit), at(commit));
        trace.push(Name::Stage, window, i as u32, at(commit), at(staged));
    }
}
