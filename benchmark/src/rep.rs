//! One repetition: set-up, commit window, crash, timed and verified
//! recoveries — each on a fresh `Database` and `StorageSet`.

use crate::commit::{self, CommitResult};
use crate::image;
use crate::trace::{Name, Trace};
use crate::{Spec, DISKS};
use pacman_common::Fingerprint;
use pacman_core::recovery::{recover, RecoveryConfig, RecoveryReport, RecoveryScheme};
use pacman_core::static_analysis::GlobalGraph;
use pacman_engine::{Catalog, Database};
use pacman_sproc::ProcRegistry;
use pacman_storage::{DiskConfig, DiskStats, StorageSet};
use pacman_wal::{Durability, DurabilityConfig};
use pacman_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a checkpointed workload waits for a round to cover the window.
const COVERAGE_DEADLINE: Duration = Duration::from_secs(20);

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The paper's evaluation device, unscaled: on the 1/10 `bench_disk` LL
/// recovery is 80% pacer sleep and no decode or install change can show.
pub fn disk_model() -> DiskConfig {
    DiskConfig::scaled_ssd("ssd", 1.0)
}

pub fn durability_config(spec: &Spec) -> DurabilityConfig {
    DurabilityConfig {
        scheme: spec.log,
        num_loggers: DISKS,
        epoch_interval: Duration::from_millis(3),
        batch_epochs: 16,
        checkpoint_interval: spec.checkpoint_interval,
        checkpoint_threads: DISKS,
        checkpoint_incremental: true,
        fsync: true,
        ..Default::default()
    }
}

/// A loaded, logging system after set-up.
pub struct Live {
    pub db: Arc<Database>,
    pub storage: StorageSet,
    pub durability: Arc<Durability>,
    pub registry: ProcRegistry,
    pub setup_s: f64,
    pub initial_ckpt_s: f64,
}

/// Set-up: load + `Durability::start` + one initial checkpoint.
pub fn set_up(
    spec: &Spec,
    workload: &dyn Workload,
    trace: &mut Trace,
    rep: u32,
    root: u32,
) -> Live {
    let span = trace.open(Name::Setup, root, rep);
    let t0 = Instant::now();
    let db = Arc::new(Database::new(workload.catalog()));
    workload.load(&db);
    let registry = workload.registry();
    let storage = StorageSet::identical(DISKS, disk_model());
    let durability = Durability::start(Arc::clone(&db), storage.clone(), durability_config(spec));
    let t_ckpt = Instant::now();
    trace.scoped(Name::InitialCheckpoint, span, rep, || {
        pacman_wal::run_checkpoint(&db, &storage, DISKS).expect("initial checkpoint")
    });
    let initial_ckpt_s = t_ckpt.elapsed().as_secs_f64();
    let setup_s = t0.elapsed().as_secs_f64();
    trace.close(span);
    Live {
        db,
        storage,
        durability,
        registry,
        setup_s,
        initial_ckpt_s,
    }
}

/// What a crash left, plus what recovery must reproduce.
pub struct CrashImage {
    pub storage: StorageSet,
    pub catalog: Catalog,
    pub registry: ProcRegistry,
    pub reference: Fingerprint,
}

/// `recover` on the image, the recovered state checked against the
/// reference outside the timed region. `Err` is a failed check (decode
/// error, fingerprint mismatch or a panic inside recovery): there is no
/// recovery time to report then.
pub fn checked_recover(
    image: &CrashImage,
    scheme: RecoveryScheme,
    threads: usize,
) -> Result<RecoveryReport, String> {
    let config = RecoveryConfig { scheme, threads };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        recover(&image.storage, &image.catalog, &image.registry, &config)
    }))
    .map_err(|_| format!("{} x{threads}: recovery panicked", scheme.label()))?
    .map_err(|e| format!("{} x{threads}: {e}", scheme.label()))?;
    if outcome.db.fingerprint() != image.reference {
        return Err(format!(
            "{} x{threads}: recovered fingerprint differs from the pre-crash one",
            scheme.label()
        ));
    }
    Ok(outcome.report)
}

/// Commit-side layer times of one traced repetition, nanoseconds.
pub struct Layers {
    pub gen_ns: u64,
    pub exec_ns: u64,
    pub stage_ns: u64,
    /// Self time of the commit window: acknowledgement scans, the drain
    /// tail, loop and timer overhead.
    pub other_ns: u64,
}

/// Standalone layer measurements taken once, on the last image of a traced
/// run.
pub struct Extras {
    pub serial_s: f64,
    pub reload_s: f64,
    pub decode_ns_per_record: f64,
    pub gdg_ms: f64,
}

/// Everything one repetition measured.
pub struct Rep {
    pub setup_s: f64,
    pub initial_ckpt_s: f64,
    /// The measured window of `n` transactions.
    pub commit: CommitResult,
    /// Checkpointed workloads only: the fixed log tail run, unmeasured,
    /// after a checkpoint round has covered the window.
    pub tail: Option<CommitResult>,
    /// `Some` on a traced repetition.
    pub layers: Option<Layers>,
    /// Device counters from the start of the window to the crash.
    pub window: DiskStats,
    /// Log bytes that reached the devices (live + reclaimed by retention).
    pub log_bytes: u64,
    pub ckpt_rounds: u64,
    pub ckpt_bytes: u64,
    pub fingerprint_s: f64,
    pub bytes_read_recover: u64,
    pub rec_n: RecoveryReport,
    pub rec_1: RecoveryReport,
}

impl Rep {
    pub fn traced(&self) -> bool {
        self.layers.is_some()
    }

    /// Transactions that left a log record, window and tail.
    pub fn logged(&self) -> u64 {
        self.commit.logged + self.tail.as_ref().map_or(0, |t| t.logged)
    }

    pub fn staged_bytes(&self) -> u64 {
        self.commit.staged_bytes + self.tail.as_ref().map_or(0, |t| t.staged_bytes)
    }

    /// Transactions that failed: given up after retries, or logged and
    /// never acknowledged.
    pub fn failed(&self) -> u64 {
        let of = |c: &CommitResult| c.gave_up + c.unacked;
        of(&self.commit) + self.tail.as_ref().map_or(0, of)
    }
}

pub fn delta(after: DiskStats, before: DiskStats) -> DiskStats {
    DiskStats {
        bytes_written: after.bytes_written - before.bytes_written,
        bytes_read: after.bytes_read - before.bytes_read,
        fsyncs: after.fsyncs - before.fsyncs,
        elapsed_secs: after.elapsed_secs - before.elapsed_secs,
    }
}

/// Block until a checkpoint round that *started* after `ts` has completed,
/// so the log tail recovery must replay is empty.
fn wait_for_coverage(ts: u64) -> Result<(), String> {
    let covered = pacman_obs::registry().gauge("wal.ckpt.last_ts");
    let deadline = Instant::now() + COVERAGE_DEADLINE;
    while covered.get_acquire() < ts {
        if Instant::now() >= deadline {
            return Err(format!(
                "no checkpoint covered the window within {COVERAGE_DEADLINE:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

/// Set up, run the commit window and crash. Returns the window's results
/// and the image the crash left.
///
/// With a live checkpointer the length of the log tail behind the last
/// round would be a matter of timing, and recovery time with it. So a
/// checkpointed workload, after its window, idles until a round covers the
/// window and then runs a fixed tail of `n / 10` further transactions,
/// short enough to finish inside the checkpointer's sleep: the crash image
/// is the checkpoint chain plus exactly that tail.
#[allow(clippy::too_many_arguments)]
pub fn commit_and_crash(
    spec: &Spec,
    workload: &dyn Workload,
    seed: u64,
    n: u64,
    traced: bool,
    trace: &mut Trace,
    rep: u32,
    root: u32,
) -> Result<(Rep, CrashImage), String> {
    let live = set_up(spec, workload, trace, rep, root);
    let before = live.storage.total_stats();
    let run = if traced {
        commit::run::<true>
    } else {
        commit::run::<false>
    };
    let opened_ns = trace.now();
    let mut commit = run(
        &live.db,
        workload,
        &live.registry,
        &live.durability,
        seed,
        n,
    );
    let window = trace.push(
        Name::CommitWindow,
        root,
        rep,
        opened_ns,
        opened_ns + commit.wall_ns,
    );
    commit::spans(&commit, trace, window, opened_ns);
    let layers = traced.then(|| Layers {
        gen_ns: trace.children_ns(window, Name::Gen),
        exec_ns: trace.children_ns(window, Name::Exec),
        stage_ns: trace.children_ns(window, Name::Stage),
        other_ns: trace.self_ns(window),
    });
    commit.latency_ns.sort_unstable();
    commit.ack_wait_ns.sort_unstable();

    // The stack's counters are bound into the registry at boot, so the
    // registry reads this repetition's instance.
    let reg = pacman_obs::registry();
    let ckpt_rounds = reg.counter("wal.ckpt.rounds").get();
    let ckpt_bytes = reg.counter("wal.ckpt.bytes_written").get();
    let tail = match spec.checkpoint_interval {
        None => None,
        Some(_) => {
            wait_for_coverage(commit.last_ts)?;
            Some(commit::run::<false>(
                &live.db,
                workload,
                &live.registry,
                &live.durability,
                !seed,
                (n / 10).max(1),
            ))
        }
    };
    trace.scoped(Name::Crash, root, rep, || live.durability.crash());

    let log_bytes =
        live.storage.live_bytes("log/") + reg.counter("wal.retention.reclaimed_log_bytes").get();
    let t_fp = Instant::now();
    let reference = trace.scoped(Name::Fingerprint, root, rep, || live.db.fingerprint());
    let fingerprint_s = t_fp.elapsed().as_secs_f64();
    let image = CrashImage {
        storage: live.storage.clone(),
        catalog: live.db.catalog().clone(),
        registry: live.registry,
        reference,
    };
    let rep = Rep {
        setup_s: live.setup_s,
        initial_ckpt_s: live.initial_ckpt_s,
        commit,
        tail,
        layers,
        window: delta(live.storage.total_stats(), before),
        log_bytes,
        ckpt_rounds,
        ckpt_bytes,
        fingerprint_s,
        bytes_read_recover: 0,
        rec_n: RecoveryReport::default(),
        rec_1: RecoveryReport::default(),
    };
    // The pre-crash database goes before recovery builds its own, so the
    // peak holds one database, not two.
    drop(live.durability);
    drop(live.db);
    Ok((rep, image))
}

/// The standalone layers of a traced run, on one image.
pub fn measure_extras(
    spec: &Spec,
    image: &CrashImage,
    trace: &mut Trace,
    root: u32,
) -> Result<Extras, String> {
    let serial = trace.scoped(Name::Recover, root, 0, || {
        checked_recover(image, spec.serial, 1)
    })?;
    let scan =
        image::scan_log(&image.storage, trace, root).map_err(|e| format!("log scan: {e}"))?;
    let t0 = Instant::now();
    trace
        .scoped(Name::StaticAnalysis, root, 0, || {
            GlobalGraph::analyze(image.registry.all()).map(|_| ())
        })
        .map_err(|e| format!("static analysis: {e}"))?;
    Ok(Extras {
        serial_s: serial.total_secs,
        reload_s: scan.reload_s,
        decode_ns_per_record: scan.decode_s * 1e9 / scan.records.max(1) as f64,
        gdg_ms: t0.elapsed().as_secs_f64() * 1e3,
    })
}
