//! The multi-threaded transaction driver.
//!
//! Reproduces the measurement methodology of §6.1: worker threads execute
//! the workload mix against the engine, log committed transactions through
//! the durability subsystem, and measure
//!
//! * throughput per wall-clock second (the Fig. 11 timelines, with
//!   checkpoint intervals flagged),
//! * commit latency under group commit — a transaction's result may only
//!   be acknowledged once its epoch reaches the pepoch frontier
//!   (Appendix A), so latency = submit → durable,
//! * log volume (Table 1 / Table 2).
//!
//! Read-only transactions produce no log records and are acknowledged
//! immediately. A configurable fraction of transactions is tagged *ad hoc*
//! and logged tuple-level even under command logging (§4.5, Fig. 12).

use crate::Workload;
use pacman_common::clock::epoch_of;
use pacman_common::{Error, Histogram};
use pacman_engine::{run_procedure_with_epoch, AdmissionControl, Database};
use pacman_sproc::ProcRegistry;
use pacman_wal::{Durability, WorkerLogBuffer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Worker threads executing transactions.
    pub workers: usize,
    /// Wall-clock run length.
    pub duration: Duration,
    /// Fraction of transactions tagged ad hoc (Figs. 12/17).
    pub adhoc_fraction: f64,
    /// RNG seed (workers derive per-thread seeds).
    pub seed: u64,
    /// Retries before giving up on an aborting transaction.
    pub max_retries: u32,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            workers: 4,
            duration: Duration::from_millis(500),
            adhoc_fraction: 0.0,
            seed: 0xFACADE,
            max_retries: 10,
        }
    }
}

/// One second of the throughput timeline.
#[derive(Clone, Copy, Debug)]
pub struct SecondSample {
    /// Second index since the run started.
    pub second: u64,
    /// Transactions committed during that second.
    pub commits: u64,
    /// Whether a checkpoint was running (the gray bands of Fig. 11).
    pub checkpoint_active: bool,
}

/// Aggregated driver output.
#[derive(Clone, Debug)]
pub struct DriverResult {
    /// Committed transactions.
    pub committed: u64,
    /// Aborts observed (each retry attempt counts once).
    pub aborted: u64,
    /// Wall time of the measured window, seconds.
    pub wall_secs: f64,
    /// Committed / wall seconds.
    pub throughput: f64,
    /// Commit latency in microseconds (submit → durable).
    pub latency_us: Histogram,
    /// Per-second throughput samples.
    pub timeline: Vec<SecondSample>,
    /// Bytes handed to the loggers during the window.
    pub bytes_logged: u64,
}

/// Run `workload` for the configured duration.
pub fn run_workload(
    db: &Arc<Database>,
    workload: &dyn Workload,
    registry: &ProcRegistry,
    durability: &Arc<Durability>,
    config: &DriverConfig,
) -> DriverResult {
    let stop = AtomicBool::new(false);
    let seconds = config.duration.as_secs() as usize + 3;
    let buckets: Vec<AtomicU64> = (0..seconds).map(|_| AtomicU64::new(0)).collect();
    let ckpt_flags: Vec<AtomicBool> = (0..seconds).map(|_| AtomicBool::new(false)).collect();
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let hist = parking_lot::Mutex::new(Histogram::new());
    let bytes_before = durability.bytes_logged();
    let start = Instant::now();

    crossbeam::thread::scope(|scope| {
        // Checkpoint-activity sampler.
        scope.spawn(|_| {
            while !stop.load(Ordering::Acquire) {
                let sec = start.elapsed().as_secs() as usize;
                if sec < ckpt_flags.len() && durability.checkpoint_active() {
                    ckpt_flags[sec].store(true, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });

        for worker in 0..config.workers.max(1) {
            let stop = &stop;
            let buckets = &buckets;
            let committed = &committed;
            let aborted = &aborted;
            let hist = &hist;
            let durability = Arc::clone(durability);
            let db = Arc::clone(db);
            scope.spawn(move |_| {
                let we = durability.register_worker();
                let pepoch = durability.pepoch_arc();
                let em = Arc::clone(durability.epoch_manager());
                let mut rng = SmallRng::seed_from_u64(config.seed ^ (worker as u64) << 32);
                let mut pending: VecDeque<(u64, Instant)> = VecDeque::new();
                let mut local_hist = Histogram::new();
                let mut local_retries = Histogram::new();
                let mut wb = WorkerLogBuffer::new();

                while !stop.load(Ordering::Acquire) {
                    // Seal-rule ordering: hand staged records of older
                    // epochs to the logger *before* the acknowledgement
                    // advances — the logger may seal epoch `e` the moment
                    // every ack exceeds `e`.
                    let e = we.peek();
                    durability.flush_before_ack(&mut wb, worker, e);
                    we.enter_at(e);
                    // Acknowledge durable transactions (one frontier
                    // advance acknowledges the whole sealed batch).
                    let frontier = pepoch.load(Ordering::Acquire);
                    let mut acked = 0u64;
                    while let Some(&(epoch, t0)) = pending.front() {
                        if epoch > frontier {
                            break;
                        }
                        local_hist.record(t0.elapsed().as_micros() as u64);
                        pending.pop_front();
                        acked += 1;
                    }
                    if acked > 0 {
                        durability.note_commit_group(acked);
                    }

                    let (pid, params) = workload.next_txn(&mut rng);
                    let proc = registry.get(pid).expect("registered procedure");
                    let adhoc = config.adhoc_fraction > 0.0 && rng.gen_bool(config.adhoc_fraction);
                    let submit = Instant::now();
                    let mut tries = 0;
                    loop {
                        match run_procedure_with_epoch(&db, proc, &params, || em.current()) {
                            Ok(info) => {
                                let sec = start.elapsed().as_secs() as usize;
                                if sec < buckets.len() {
                                    buckets[sec].fetch_add(1, Ordering::Relaxed);
                                }
                                committed.fetch_add(1, Ordering::Relaxed);
                                if info.writes.is_empty() {
                                    // Read-only: acknowledged immediately.
                                    local_hist.record(submit.elapsed().as_micros() as u64);
                                } else {
                                    durability.log_commit_buffered(
                                        &mut wb, worker, &info, pid, &params, adhoc,
                                    );
                                    pending.push_back((epoch_of(info.ts), submit));
                                }
                                // The log has copied the after-image bytes
                                // into the worker arena; hand the record
                                // buffer back to the transaction pool.
                                pacman_engine::recycle_commit_info(info);
                                local_retries.record(tries as u64);
                                break;
                            }
                            Err(Error::TxnAborted(_)) => {
                                aborted.fetch_add(1, Ordering::Relaxed);
                                tries += 1;
                                if tries > config.max_retries || stop.load(Ordering::Acquire) {
                                    break;
                                }
                            }
                            Err(e) => panic!("workload execution error: {e}"),
                        }
                    }
                }

                // Hand any still-staged records to the logger, then drain
                // outstanding acknowledgements (bounded wait on the
                // group-commit signal, one wakeup per epoch seal).
                durability.flush_worker(&mut wb, worker);
                let deadline = Instant::now() + Duration::from_millis(500);
                while !pending.is_empty() && Instant::now() < deadline {
                    let frontier = pepoch.load(Ordering::Acquire);
                    let mut acked = 0u64;
                    while let Some(&(epoch, t0)) = pending.front() {
                        if epoch > frontier {
                            break;
                        }
                        local_hist.record(t0.elapsed().as_micros() as u64);
                        pending.pop_front();
                        acked += 1;
                    }
                    if acked > 0 {
                        durability.note_commit_group(acked);
                    }
                    durability
                        .durable_signal()
                        .wait_for(Duration::from_millis(2));
                }
                we.retire();
                hist.lock().merge(&local_hist);
                // Fold this worker's latency/retry distributions into the
                // shared registry histograms (bench snapshots read these).
                let reg = pacman_obs::registry();
                reg.histogram("driver.commit_latency_us").merge(&local_hist);
                reg.histogram("driver.retries_per_txn")
                    .merge(&local_retries);
            });
        }

        // Timer.
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Release);
    })
    .expect("driver scope");

    let wall = start.elapsed().as_secs_f64();
    let committed = committed.load(Ordering::Relaxed);
    let timeline = buckets
        .iter()
        .enumerate()
        .map(|(i, b)| SecondSample {
            second: i as u64,
            commits: b.load(Ordering::Relaxed),
            checkpoint_active: ckpt_flags[i].load(Ordering::Relaxed),
        })
        .take(config.duration.as_secs().max(1) as usize)
        .collect();

    let reg = pacman_obs::registry();
    reg.counter("driver.committed").add(committed);
    reg.counter("driver.aborted")
        .add(aborted.load(Ordering::Relaxed));

    DriverResult {
        committed,
        aborted: aborted.load(Ordering::Relaxed),
        wall_secs: wall,
        throughput: committed as f64 / wall,
        latency_us: hist.into_inner(),
        timeline,
        bytes_logged: durability.bytes_logged() - bytes_before,
    }
}

/// Configuration of the restart availability-ramp driver.
#[derive(Clone, Debug)]
pub struct RampConfig {
    /// Worker threads executing transactions.
    pub workers: usize,
    /// Wall-clock run length, measured from the moment the (possibly
    /// still-recovering) database starts accepting submissions.
    pub duration: Duration,
    /// RNG seed (workers derive per-thread seeds).
    pub seed: u64,
    /// Retries before giving up on an aborting transaction.
    pub max_retries: u32,
    /// Throughput-timeline bucket width.
    pub bucket: Duration,
}

impl Default for RampConfig {
    fn default() -> Self {
        RampConfig {
            workers: 4,
            duration: Duration::from_secs(2),
            seed: 0xFACADE,
            max_retries: 10,
            bucket: Duration::from_millis(50),
        }
    }
}

/// The availability ramp measured after a restart (instant or offline):
/// when did the first new transaction commit, and when did throughput
/// reach steady state again?
#[derive(Clone, Debug)]
pub struct RampResult {
    /// Acknowledged transactions during the window: a write commit counts
    /// only once its epoch reached the durability frontier (group-commit
    /// acknowledgment, as in [`run_workload`]); read-only commits count
    /// immediately.
    pub committed: u64,
    /// Aborts observed.
    pub aborted: u64,
    /// Seconds from driver start to the first *acknowledged* commit
    /// (`None`: nothing acknowledged — e.g. the gate never opened within
    /// the window).
    pub first_commit_secs: Option<f64>,
    /// Seconds from driver start until per-bucket throughput first reached
    /// 90% of the steady rate and stayed relevant (`None`: never ramped).
    pub t90_secs: Option<f64>,
    /// Steady-state rate estimate: median commits/s over the last quarter
    /// of the window.
    pub steady_tps: f64,
    /// Bucket width in seconds.
    pub bucket_secs: f64,
    /// Commits per bucket.
    pub timeline: Vec<u64>,
    /// Admissions that found the recovery gate still cold (had to wait).
    pub gated_admissions: u64,
}

/// Time-to-90%: the start of the first bucket that reaches 90% of the
/// steady-state bucket rate *and* from which the remainder of the window
/// sustains that rate on average. `None` if no bucket ever does.
fn compute_t90(timeline: &[u64], bucket_secs: f64, steady_per_bucket: f64) -> Option<f64> {
    if steady_per_bucket <= 0.0 {
        return None;
    }
    let threshold = 0.9 * steady_per_bucket;
    // "Reached and stayed": the bucket itself clears the threshold AND the
    // rest of the window sustains it on average — a lone pre-stall burst
    // does not count as having ramped.
    (0..timeline.len())
        .find(|&i| {
            let tail = &timeline[i..];
            let tail_mean = tail.iter().sum::<u64>() as f64 / tail.len() as f64;
            timeline[i] as f64 >= threshold && tail_mean >= threshold
        })
        .map(|i| i as f64 * bucket_secs)
}

/// How many not-yet-admittable transactions a ramp worker parks before it
/// stops generating new ones and blocks on the oldest (bounds memory and
/// models a finite request queue).
const RAMP_BACKLOG: usize = 64;

/// Run `workload` against a database that may still be replaying its log.
///
/// The driver is *open-loop*: each worker draws transactions as requests
/// arriving at a restarting system. A request whose static footprint is
/// already replayed (`try_admit`) executes immediately; a cold one is
/// *parked* — its footprint flagged for on-demand redo (`request`) — and
/// the worker keeps serving admittable requests, retrying the backlog as
/// watermarks advance. Only a full backlog blocks (on the oldest parked
/// request). With `admission = None` this measures the
/// post-offline-recovery baseline ramp.
///
/// Commits are logged through `durability` (normally a
/// `Durability::reopen`ed stack), so the run extends the surviving log
/// and the system can crash again mid- or post-ramp.
pub fn run_ramp(
    db: &Arc<Database>,
    workload: &dyn Workload,
    registry: &ProcRegistry,
    durability: &Arc<Durability>,
    admission: Option<&Arc<dyn AdmissionControl>>,
    config: &RampConfig,
) -> RampResult {
    let stop = AtomicBool::new(false);
    let bucket_secs = config.bucket.as_secs_f64().max(0.001);
    let nbuckets = (config.duration.as_secs_f64() / bucket_secs).ceil() as usize + 2;
    let buckets: Vec<AtomicU64> = (0..nbuckets).map(|_| AtomicU64::new(0)).collect();
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let gated = AtomicU64::new(0);
    let first_commit_ns = AtomicU64::new(u64::MAX);
    let start = Instant::now();

    crossbeam::thread::scope(|scope| {
        for worker in 0..config.workers.max(1) {
            let stop = &stop;
            let buckets = &buckets;
            let committed = &committed;
            let aborted = &aborted;
            let gated = &gated;
            let first_commit_ns = &first_commit_ns;
            let durability = Arc::clone(durability);
            let db = Arc::clone(db);
            let admission = admission.map(Arc::clone);
            scope.spawn(move |_| {
                let we = durability.register_worker();
                let em = Arc::clone(durability.epoch_manager());
                let pepoch = durability.pepoch_arc();
                let mut rng = SmallRng::seed_from_u64(config.seed ^ (worker as u64) << 32);
                let mut parked: VecDeque<(pacman_common::ProcId, pacman_sproc::Params)> =
                    VecDeque::new();
                // Write txns awaiting group-commit acknowledgment: a
                // commit only counts (buckets, first-commit) once its
                // epoch reaches the pepoch frontier — the same
                // submit→durable notion `run_workload` measures.
                let mut unacked: VecDeque<u64> = VecDeque::new();
                let mut wb = WorkerLogBuffer::new();
                let ack = |unacked: &mut VecDeque<u64>| -> u64 {
                    let frontier = pepoch.load(Ordering::Acquire);
                    let mut acked = 0u64;
                    while let Some(&epoch) = unacked.front() {
                        if epoch > frontier {
                            break;
                        }
                        unacked.pop_front();
                        let now = start.elapsed();
                        first_commit_ns.fetch_min(now.as_nanos() as u64, Ordering::Relaxed);
                        let b = (now.as_secs_f64() / bucket_secs) as usize;
                        if b < buckets.len() {
                            buckets[b].fetch_add(1, Ordering::Relaxed);
                        }
                        committed.fetch_add(1, Ordering::Relaxed);
                        acked += 1;
                    }
                    acked
                };
                'serve: while !stop.load(Ordering::Acquire) {
                    // Same seal-rule ordering as `run_workload`: staged
                    // records flush before the acknowledgement advances.
                    let e = we.peek();
                    durability.flush_before_ack(&mut wb, worker, e);
                    we.enter_at(e);
                    let acked = ack(&mut unacked);
                    if acked > 0 {
                        durability.note_commit_group(acked);
                    }
                    // Retry parked requests first (oldest first) — their
                    // footprints were flagged, replay is pulling them in.
                    let mut next = None;
                    if let Some(gate) = &admission {
                        if let Some(i) = parked.iter().position(|(p, a)| gate.try_admit(*p, a)) {
                            next = parked.remove(i);
                        }
                    }
                    let (pid, params) = match next {
                        Some(t) => t,
                        None => {
                            let (pid, params) = workload.next_txn(&mut rng);
                            match &admission {
                                Some(gate) if !gate.try_admit(pid, &params) => {
                                    gated.fetch_add(1, Ordering::Relaxed);
                                    gate.request(pid, &params);
                                    if parked.len() < RAMP_BACKLOG {
                                        parked.push_back((pid, params));
                                    }
                                    // Nothing admittable right now (the
                                    // parked scan above came up empty too):
                                    // yield the core to replay instead of
                                    // spinning; a full backlog sheds the
                                    // newest request.
                                    std::thread::sleep(Duration::from_micros(300));
                                    continue 'serve;
                                }
                                _ => (pid, params),
                            }
                        }
                    };
                    let proc = registry.get(pid).expect("registered procedure");
                    let mut tries = 0;
                    loop {
                        match run_procedure_with_epoch(&db, proc, &params, || em.current()) {
                            Ok(info) => {
                                if info.writes.is_empty() {
                                    // Read-only: acknowledged immediately.
                                    let now = start.elapsed();
                                    first_commit_ns
                                        .fetch_min(now.as_nanos() as u64, Ordering::Relaxed);
                                    let b = (now.as_secs_f64() / bucket_secs) as usize;
                                    if b < buckets.len() {
                                        buckets[b].fetch_add(1, Ordering::Relaxed);
                                    }
                                    committed.fetch_add(1, Ordering::Relaxed);
                                } else {
                                    durability.log_commit_buffered(
                                        &mut wb, worker, &info, pid, &params, false,
                                    );
                                    unacked.push_back(epoch_of(info.ts));
                                }
                                pacman_engine::recycle_commit_info(info);
                                break;
                            }
                            Err(Error::TxnAborted(_)) => {
                                aborted.fetch_add(1, Ordering::Relaxed);
                                tries += 1;
                                if tries > config.max_retries || stop.load(Ordering::Acquire) {
                                    break;
                                }
                            }
                            Err(e) => panic!("ramp execution error: {e}"),
                        }
                    }
                }
                // Flush staged records, then drain outstanding
                // acknowledgments (bounded wait on the group signal).
                durability.flush_worker(&mut wb, worker);
                let deadline = Instant::now() + Duration::from_millis(500);
                while !unacked.is_empty() && Instant::now() < deadline {
                    let acked = ack(&mut unacked);
                    if acked > 0 {
                        durability.note_commit_group(acked);
                    }
                    durability
                        .durable_signal()
                        .wait_for(Duration::from_millis(2));
                }
                we.retire();
            });
        }
        std::thread::sleep(config.duration);
        stop.store(true, Ordering::Release);
    })
    .expect("ramp scope");

    let timeline: Vec<u64> = buckets
        .iter()
        .take((config.duration.as_secs_f64() / bucket_secs).ceil() as usize)
        .map(|b| b.load(Ordering::Relaxed))
        .collect();
    // Steady state: median of the last quarter of the window.
    let tail_start = timeline.len().saturating_sub((timeline.len() / 4).max(1));
    let mut tail: Vec<u64> = timeline[tail_start..].to_vec();
    tail.sort_unstable();
    let steady_per_bucket = tail.get(tail.len() / 2).copied().unwrap_or(0) as f64;
    let first = first_commit_ns.load(Ordering::Relaxed);

    RampResult {
        committed: committed.load(Ordering::Relaxed),
        aborted: aborted.load(Ordering::Relaxed),
        first_commit_secs: (first != u64::MAX).then(|| first as f64 / 1e9),
        t90_secs: compute_t90(&timeline, bucket_secs, steady_per_bucket),
        steady_tps: steady_per_bucket / bucket_secs,
        bucket_secs,
        timeline,
        gated_admissions: gated.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::Bank;
    use pacman_storage::{DiskConfig, StorageSet};
    use pacman_wal::{DurabilityConfig, LogScheme};

    fn run(scheme: LogScheme, adhoc: f64) -> (Arc<Database>, Arc<Durability>, DriverResult) {
        let bank = Bank {
            accounts: 256,
            ..Bank::default()
        };
        let db = Arc::new(Database::new(bank.catalog()));
        bank.load(&db);
        let registry = bank.registry();
        let storage = StorageSet::identical(2, DiskConfig::unthrottled("d"));
        let durability = Durability::start(
            Arc::clone(&db),
            storage,
            DurabilityConfig {
                scheme,
                num_loggers: 2,
                epoch_interval: Duration::from_millis(2),
                batch_epochs: 8,
                checkpoint_interval: None,
                checkpoint_threads: 1,
                fsync: true,
                ..Default::default()
            },
        );
        let result = run_workload(
            &db,
            &bank,
            &registry,
            &durability,
            &DriverConfig {
                workers: 4,
                duration: Duration::from_millis(300),
                adhoc_fraction: adhoc,
                ..DriverConfig::default()
            },
        );
        durability.shutdown();
        (db, durability, result)
    }

    #[test]
    fn driver_commits_and_logs() {
        let (_db, dur, result) = run(LogScheme::Command, 0.0);
        assert!(result.committed > 100, "committed = {}", result.committed);
        assert!(result.throughput > 100.0);
        assert!(result.bytes_logged > 0);
        assert!(result.latency_us.count() > 0);
        // Everything durable after shutdown: batches exist.
        assert!(!pacman_wal::list_batch_indices(dur.storage()).is_empty());
    }

    #[test]
    fn adhoc_fraction_grows_log_volume_under_cl() {
        let (_d1, _u1, none) = run(LogScheme::Command, 0.0);
        let (_d2, _u2, all) = run(LogScheme::Command, 1.0);
        let per_txn_none = none.bytes_logged as f64 / none.committed.max(1) as f64;
        let per_txn_all = all.bytes_logged as f64 / all.committed.max(1) as f64;
        assert!(
            per_txn_all > per_txn_none * 1.3,
            "ad hoc logging should inflate record size: {per_txn_none:.1} vs {per_txn_all:.1}"
        );
    }

    #[test]
    fn logging_off_logs_nothing() {
        let (_db, _dur, result) = run(LogScheme::Off, 0.0);
        assert!(result.committed > 0);
        assert_eq!(result.bytes_logged, 0);
    }

    #[test]
    fn ramp_measures_first_commit_and_steady_state() {
        let bank = Bank {
            accounts: 256,
            ..Bank::default()
        };
        let db = Arc::new(Database::new(bank.catalog()));
        bank.load(&db);
        let registry = bank.registry();
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("d"));
        let durability = Durability::start(
            Arc::clone(&db),
            storage,
            DurabilityConfig {
                scheme: LogScheme::Command,
                num_loggers: 1,
                epoch_interval: Duration::from_millis(2),
                batch_epochs: 8,
                checkpoint_interval: None,
                checkpoint_threads: 1,
                fsync: true,
                ..Default::default()
            },
        );
        let r = run_ramp(
            &db,
            &bank,
            &registry,
            &durability,
            None,
            &RampConfig {
                workers: 2,
                duration: Duration::from_millis(300),
                ..RampConfig::default()
            },
        );
        durability.shutdown();
        assert!(r.committed > 50, "committed = {}", r.committed);
        let first = r.first_commit_secs.expect("something must commit");
        assert!(first < 0.25, "ungated first commit should be instant");
        assert!(r.steady_tps > 0.0);
        assert_eq!(r.gated_admissions, 0, "no gate attached");
        // Stragglers may land past the truncated window; the timeline
        // never over-counts.
        let total: u64 = r.timeline.iter().sum();
        assert!(total <= r.committed && total > 0);
    }

    #[test]
    fn t90_finds_the_ramp_knee() {
        // Cold half, then steady 100/bucket: t90 at the knee.
        let tl = [0, 0, 0, 0, 95, 100, 100, 100];
        assert_eq!(compute_t90(&tl, 0.5, 100.0), Some(2.0));
        assert_eq!(compute_t90(&[0, 0], 0.5, 100.0), None);
        assert_eq!(compute_t90(&[5, 5], 0.5, 0.0), None);
        // A lone pre-stall burst is not a ramp: the sustained knee wins.
        let burst = [95, 0, 0, 0, 100, 100];
        assert_eq!(compute_t90(&burst, 0.5, 100.0), Some(2.0));
    }

    #[test]
    fn timeline_covers_run() {
        let (_db, _dur, result) = run(LogScheme::Logical, 0.0);
        assert!(!result.timeline.is_empty());
        let total: u64 = result.timeline.iter().map(|s| s.commits).sum();
        assert!(total > 0);
    }
}
