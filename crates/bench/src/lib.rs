//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's per-experiment index). They share:
//!
//! * [`BenchOpts`] — `--quick` shrinks run lengths and sweeps;
//! * workload/system builders producing crashed systems ready for
//!   recovery measurements;
//! * table-formatting helpers that print the same rows/series the paper
//!   reports.
//!
//! Absolute numbers will not match the paper (the substrate is a simulator
//! on a different machine — see DESIGN.md "Hardware / data substitutions");
//! the *shape* (who wins, by what factor, where the knees are) is the
//! reproduction target recorded in EXPERIMENTS.md.

use pacman_common::Fingerprint;
use pacman_core::recovery::{recover, RecoveryConfig, RecoveryOutcome, RecoveryScheme};
use pacman_core::static_analysis::GlobalGraph;
use pacman_engine::{Catalog, Database};
use pacman_sproc::ProcRegistry;
use pacman_storage::{DiskConfig, StorageSet};
use pacman_wal::{Durability, DurabilityConfig, LogScheme};
use pacman_workloads::smallbank::Smallbank;
use pacman_workloads::tpcc::{Tpcc, TpccConfig};
use pacman_workloads::{run_workload, DriverConfig, DriverResult, Workload};
use std::sync::Arc;
use std::time::Duration;

/// Command-line options shared by the harness binaries.
#[derive(Clone, Copy, Debug)]
pub struct BenchOpts {
    /// Shrink run lengths and sweeps for smoke-testing.
    pub quick: bool,
    /// Flight-recorder tracing enabled (`--trace`).
    pub trace: bool,
}

impl BenchOpts {
    /// Parse from `std::env::args` (`--quick`, `--trace`). `--trace`
    /// switches the global flight recorder on for the whole process.
    pub fn from_args() -> Self {
        let opts = BenchOpts {
            quick: std::env::args().any(|a| a == "--quick"),
            trace: std::env::args().any(|a| a == "--trace"),
        };
        if opts.trace {
            pacman_obs::tracer().enable();
        }
        opts
    }

    /// `--json <path>` from `std::env::args`: where [`finish_bin`] writes
    /// this binary's registry snapshot as JSON (`None` = don't).
    pub fn json_path() -> Option<String> {
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            if a == "--json" {
                return Some(args.next().expect("--json requires a path"));
            }
        }
        None
    }

    /// `--scheme <name>` as a filter: `None` when the flag is absent
    /// (= run every scheme), `Some` to narrow a sweep to one scheme.
    pub fn scheme_filter() -> Option<LogScheme> {
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            if a == "--scheme" {
                let name = args.next().expect("--scheme requires a value");
                return Some(
                    LogScheme::parse(&name).unwrap_or_else(|| panic!("unknown --scheme {name}")),
                );
            }
        }
        None
    }

    /// Seconds of transaction processing before the crash.
    pub fn run_secs(&self) -> u64 {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// The recovery-thread sweep (paper: 1..40; capped at this machine).
    pub fn thread_sweep(&self) -> Vec<usize> {
        let max = num_threads();
        let full: &[usize] = &[1, 2, 4, 8, 12, 16, 20, 24, 32, 40];
        let quick: &[usize] = &[1, 4, 8];
        (if self.quick { quick } else { full })
            .iter()
            .copied()
            .filter(|&t| t <= max)
            .collect()
    }
}

/// Available hardware threads.
pub fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(8)
}

/// The standard transaction-worker count of the harness binaries: leave
/// headroom for loggers/checkpointer threads, floor at 2 — except
/// on a single-hardware-thread machine, where extra workers only contend
/// with each other (and with the durability threads) for the one core:
/// there every sweep degrades to an honest single-thread point.
pub fn default_workers() -> usize {
    let n = num_threads();
    if n <= 1 {
        1
    } else {
        n.saturating_sub(4).max(2)
    }
}

/// Parallel-stage thread count for recovery/replay/apply: the machine's
/// threads capped at `cap` (the paper's harness used up to 24/40), and a
/// single thread on a 1-core machine — the same guard as
/// [`default_workers`], centralized so every bin degrades identically.
pub fn capped_threads(cap: usize) -> usize {
    num_threads().min(cap.max(1))
}

/// The scaled simulated SSD used throughout the harness (1/10 of the
/// paper's 550/520 MB/s device so second-long runs saturate it the way the
/// paper's 10-minute runs saturate the real one).
pub fn bench_disk() -> DiskConfig {
    DiskConfig::scaled_ssd("ssd", 0.1)
}

/// The paper's evaluation device (≈550/520 MB/s SSD), unscaled — used
/// where replay *compute* (not reload bandwidth) is the effect under
/// measurement (instant restart, failover).
pub fn full_speed_ssd() -> DiskConfig {
    DiskConfig::scaled_ssd("ssd", 1.0)
}

/// The benchmark TPC-C scale.
pub fn bench_tpcc(quick: bool) -> Tpcc {
    Tpcc::new(TpccConfig::bench(if quick { 2 } else { 4 }))
}

/// The benchmark Smallbank scale.
pub fn bench_smallbank(quick: bool) -> Smallbank {
    Smallbank {
        accounts: if quick { 2_048 } else { 8_192 },
        ..Smallbank::default()
    }
}

/// [`GlobalGraph::replay_summary`] of `workload`, whose registry `gdg`
/// analyzes: what replay executes of each procedure, and blocks and pieces
/// per logged transaction over 10 000 draws of the workload's generator.
pub fn replay_summary(workload: &dyn Workload, gdg: &GlobalGraph) -> String {
    use rand::SeedableRng;
    let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
    gdg.replay_summary((0..10_000).map(|_| workload.next_txn(&mut rng).0))
}

/// A running system plus its workload handles.
pub struct LiveSystem {
    /// Live database.
    pub db: Arc<Database>,
    /// Durability subsystem.
    pub durability: Arc<Durability>,
    /// Procedures.
    pub registry: ProcRegistry,
    /// Devices.
    pub storage: StorageSet,
}

/// Boot a workload on `disks` simulated devices with the standard
/// (1/10-scaled) bench disk.
pub fn boot(
    workload: &dyn Workload,
    disks: usize,
    scheme: LogScheme,
    checkpoint_interval: Option<Duration>,
    fsync: bool,
) -> LiveSystem {
    boot_on(
        workload,
        disks,
        bench_disk(),
        scheme,
        checkpoint_interval,
        fsync,
    )
}

/// [`boot`] with an explicit device model.
pub fn boot_on(
    workload: &dyn Workload,
    disks: usize,
    disk: DiskConfig,
    scheme: LogScheme,
    checkpoint_interval: Option<Duration>,
    fsync: bool,
) -> LiveSystem {
    boot_with_config(
        workload,
        StorageSet::identical(disks, disk),
        DurabilityConfig {
            scheme,
            num_loggers: disks,
            epoch_interval: Duration::from_millis(3),
            batch_epochs: 16,
            checkpoint_interval,
            checkpoint_threads: disks,
            fsync,
            ..Default::default()
        },
    )
}

/// The single boot path every bench helper shares: load the workload and
/// start durability over it.
pub fn boot_with_config(
    workload: &dyn Workload,
    storage: StorageSet,
    config: DurabilityConfig,
) -> LiveSystem {
    let db = Arc::new(Database::new(workload.catalog()));
    workload.load(&db);
    let registry = workload.registry();
    let durability = Durability::start(Arc::clone(&db), storage.clone(), config);
    LiveSystem {
        db,
        durability,
        registry,
        storage,
    }
}

/// Run the driver on a live system.
pub fn drive(
    sys: &LiveSystem,
    workload: &dyn Workload,
    secs: u64,
    workers: usize,
    adhoc: f64,
) -> DriverResult {
    run_workload(
        &sys.db,
        workload,
        &sys.registry,
        &sys.durability,
        &DriverConfig {
            workers,
            duration: Duration::from_secs(secs),
            adhoc_fraction: adhoc,
            seed: 0xC0FFEE,
            max_retries: 10,
        },
    )
}

/// A crashed system ready for recovery experiments.
pub struct Crashed {
    /// What the crash left on the devices.
    pub storage: StorageSet,
    /// Procedures (recovery re-executes from these).
    pub registry: ProcRegistry,
    /// Schema.
    pub catalog: Catalog,
    /// Fingerprint of the full pre-crash state (graceful stop) for
    /// validation.
    pub reference: Fingerprint,
    /// Transactions committed pre-crash.
    pub committed: u64,
    /// Log bytes on the devices.
    pub log_bytes: u64,
    /// Bytes handed to the loggers during the measured window.
    pub bytes_logged: u64,
    /// Command records emitted (under CL, the stored-procedure share).
    pub command_records: u64,
    /// Tuple-level records emitted (under CL, the ad-hoc share).
    pub logical_records: u64,
    /// Periodic-checkpointer rounds completed during the run (`(total,
    /// full)`; zeros when no checkpointer was armed).
    pub ckpt_rounds: (u64, u64),
    /// Part bytes the periodic checkpointer wrote during the run.
    pub ckpt_bytes_written: u64,
    /// Shards the checkpointer skipped as dirty-clean across delta rounds.
    pub ckpt_shards_skipped: u64,
}

/// Boot, checkpoint the load, run for `secs`, stop gracefully (so recovery
/// covers everything and can be validated), and hand back the "crashed"
/// devices.
pub fn prepare_crashed(
    workload: &dyn Workload,
    scheme: LogScheme,
    secs: u64,
    workers: usize,
    adhoc: f64,
) -> Crashed {
    prepare_crashed_on(workload, scheme, secs, workers, adhoc, bench_disk())
}

/// [`prepare_crashed`] with an explicit device model (the restart and
/// failover figures measure replay-cost differences on the full-speed SSD,
/// where recovery is not purely reload-bound).
pub fn prepare_crashed_on(
    workload: &dyn Workload,
    scheme: LogScheme,
    secs: u64,
    workers: usize,
    adhoc: f64,
    disk: DiskConfig,
) -> Crashed {
    let sys = boot_on(workload, 2, disk, scheme, None, true);
    pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).expect("initial checkpoint");
    sys.storage.reset_stats();
    let (committed, bytes_logged) = if secs == 0 {
        (0, 0) // checkpoint-only image (Fig. 13 isolates checkpoint recovery)
    } else {
        let r = drive(&sys, workload, secs, workers, adhoc);
        (r.committed, r.bytes_logged)
    };
    finish_crashed(sys, committed, bytes_logged)
}

/// [`prepare_crashed_on`] with a live periodic checkpointer: the crash
/// image carries a manifest *chain* (base + deltas when `incremental`,
/// repeated fulls otherwise) with the log GC'd below the chain tip — the
/// shape the chain-aware recovery paths and the churn smoke exercise.
/// The checkpointer's activity is reported through the `ckpt_*` fields.
pub fn prepare_crashed_churn(
    workload: &dyn Workload,
    scheme: LogScheme,
    secs: u64,
    workers: usize,
    disk: DiskConfig,
    checkpoint_interval: Duration,
    incremental: bool,
) -> Crashed {
    let sys = boot_with_config(
        workload,
        StorageSet::identical(2, disk),
        DurabilityConfig {
            checkpoint_interval: Some(checkpoint_interval),
            checkpoint_incremental: incremental,
            ..bench_durability(scheme, 2)
        },
    );
    pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).expect("initial checkpoint");
    sys.storage.reset_stats();
    let r = drive(&sys, workload, secs, workers, 0.0);
    finish_crashed(sys, r.committed, r.bytes_logged)
}

/// Shared tail of the crash-image builders: graceful stop (so recovery
/// covers everything and fingerprints validate) + inventory.
fn finish_crashed(sys: LiveSystem, committed: u64, bytes_logged: u64) -> Crashed {
    sys.durability.shutdown();
    let reference = sys.db.fingerprint();
    let inventory = pacman_core::recovery::LogInventory::scan(&sys.storage);
    let log_bytes = inventory.total_bytes(&sys.storage);
    Crashed {
        storage: sys.storage,
        registry: sys.registry,
        catalog: sys.db.catalog().clone(),
        reference,
        committed,
        log_bytes,
        bytes_logged,
        command_records: sys.durability.command_records(),
        logical_records: sys.durability.logical_records(),
        ckpt_rounds: sys.durability.checkpoint_rounds(),
        ckpt_bytes_written: sys.durability.checkpoint_bytes_written(),
        ckpt_shards_skipped: sys.durability.checkpoint_shards_skipped(),
    }
}

/// One instant-restart run: the availability ramp measured while replay
/// was still running, plus the settled recovery outcome.
pub struct RestartRun {
    /// Ramp measured from the moment the online session went live.
    pub ramp: pacman_workloads::RampResult,
    /// The settled session (report of the background replay).
    pub outcome: RecoveryOutcome,
    /// What the reopened durability stack resumed from.
    pub resume: pacman_wal::ResumeInfo,
}

/// The durability configuration [`boot_on`] uses — `reopen` must mirror
/// it (batch naming derives from `num_loggers`/`batch_epochs`).
pub fn bench_durability(scheme: LogScheme, disks: usize) -> DurabilityConfig {
    DurabilityConfig {
        scheme,
        num_loggers: disks,
        epoch_interval: Duration::from_millis(3),
        batch_epochs: 16,
        checkpoint_interval: None,
        checkpoint_threads: disks,
        fsync: true,
        ..Default::default()
    }
}

/// Instant restart against a crashed image: start an online recovery
/// session, reopen the surviving log for resumed logging, and drive the
/// workload through the admission gate while replay runs in the
/// background. Returns the measured ramp and the settled outcome.
pub fn instant_restart(
    crashed: &Crashed,
    workload: &dyn Workload,
    log_scheme: LogScheme,
    scheme: RecoveryScheme,
    threads: usize,
    ramp: &pacman_workloads::RampConfig,
) -> RestartRun {
    let session = pacman_core::recovery::recover_online(
        &crashed.storage,
        &crashed.catalog,
        &crashed.registry,
        &RecoveryConfig { scheme, threads },
    )
    .unwrap_or_else(|e| panic!("{} online recovery failed: {e}", scheme.label()));
    let (durability, resume) = Durability::reopen(
        Arc::clone(session.db()),
        crashed.storage.clone(),
        bench_durability(log_scheme, 2),
    );
    session.pin_retention_on(&durability);
    let admission = session.admission();
    let ramp = pacman_workloads::run_ramp(
        session.db(),
        workload,
        &crashed.registry,
        &durability,
        Some(&admission),
        ramp,
    );
    let outcome = session
        .wait()
        .unwrap_or_else(|e| panic!("{} replay failed: {e}", scheme.label()));
    durability.shutdown();
    RestartRun {
        ramp,
        outcome,
        resume,
    }
}

/// Ship a crashed primary's surviving image to a fresh hot standby over
/// an in-process link, one seal per epoch as a standby following the live
/// primary would have received it (one apply unit per epoch that logged
/// records), and wait for full catch-up. Returns the caught-up
/// standby (promotable) plus the attach→caught-up wall time. The standby
/// gets its own devices of the same `disk` model; `apply` must match the
/// image's log format (CLR-P / LLR-P).
pub fn ship_standby(
    crashed: &Crashed,
    apply: RecoveryScheme,
    threads: usize,
    disk: DiskConfig,
) -> (pacman_core::replication::Standby, f64) {
    use pacman_core::replication::{pump, start_standby, wire, StandbyConfig};
    let t0 = std::time::Instant::now();
    let pepoch = pacman_wal::pepoch::PepochHandle::read_persisted(crashed.storage.disk(0));
    // The shipper must mirror the log layout that wrote the image —
    // derive it from the shared bench config rather than restating it
    // (the scheme field is irrelevant to layout).
    let layout = bench_durability(LogScheme::Off, 2);
    let shipper = pacman_wal::LogShipper::new(
        crashed.storage.clone(),
        layout.num_loggers,
        layout.batch_epochs,
    );
    let (tx, rx) = wire();
    let standby = start_standby(
        StorageSet::identical(2, disk),
        &crashed.catalog,
        &crashed.registry,
        &StandbyConfig {
            scheme: apply,
            threads,
        },
        rx,
    )
    .unwrap_or_else(|e| panic!("{}: standby start failed: {e}", apply.label()));
    for p in 1..=pepoch {
        pump(&shipper, p, &tx).expect("ship");
    }
    assert!(
        standby.wait_caught_up(pepoch, Duration::from_secs(120)),
        "{}: standby never caught up ({:?} / {:?})",
        apply.label(),
        standby.stats(),
        standby.error(),
    );
    (standby, t0.elapsed().as_secs_f64())
}

/// Recover a crashed system, asserting exactness against the reference.
pub fn recover_checked(
    crashed: &Crashed,
    scheme: RecoveryScheme,
    threads: usize,
) -> RecoveryOutcome {
    let out = recover(
        &crashed.storage,
        &crashed.catalog,
        &crashed.registry,
        &RecoveryConfig { scheme, threads },
    )
    .unwrap_or_else(|e| panic!("{} recovery failed: {e}", scheme.label()));
    // The "without latch" ablations are intentionally allowed to diverge in
    // the paper; everything else must be exact.
    let is_ablation = matches!(
        scheme,
        RecoveryScheme::Plr { latch: false } | RecoveryScheme::Llr { latch: false }
    );
    if !is_ablation {
        assert_eq!(
            out.db.fingerprint(),
            crashed.reference,
            "{} produced a wrong state",
            scheme.label()
        );
    }
    out
}

/// Right-aligned table row printing.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{c:>width$}  ", width = w));
    }
    println!("{}", line.trim_end());
}

/// Print a standard experiment banner.
pub fn banner(what: &str, paper: &str) {
    println!("==================================================================");
    println!("{what}");
    println!("paper's finding: {paper}");
    println!("==================================================================");
}

/// Build the standard per-binary export object: the unified registry
/// snapshot (one consistent read of every counter/gauge/histogram — no
/// per-accessor tearing) tagged with the binary's name.
pub fn bin_snapshot_json(name: &str) -> pacman_obs::Json {
    let snap = pacman_obs::registry().snapshot();
    pacman_obs::Json::Obj(vec![
        ("bin".into(), pacman_obs::Json::Str(name.into())),
        ("metrics".into(), snap.to_json()),
    ])
}

/// Standard epilogue of every figure/table binary: print the unified
/// metrics-registry snapshot, and when `--json <path>` was given write the
/// same snapshot there as JSON. Call it once, at the end of `main`.
pub fn finish_bin(name: &str) {
    let snap = pacman_obs::registry().snapshot();
    println!();
    println!("--- metrics registry ({name}) ---");
    print!("{}", snap.to_table());
    if let Some(path) = BenchOpts::json_path() {
        let json = bin_snapshot_json(name);
        std::fs::write(&path, json.render_pretty()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("[{name}] metrics JSON written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_respects_machine() {
        let opts = BenchOpts {
            quick: true,
            trace: false,
        };
        let sweep = opts.thread_sweep();
        assert!(!sweep.is_empty());
        assert!(sweep.iter().all(|&t| t <= num_threads()));
    }

    #[test]
    fn quick_prepare_and_recover_smoke() {
        let crashed = prepare_crashed(&bench_smallbank(true), LogScheme::Command, 1, 4, 0.0);
        assert!(crashed.committed > 0);
        let out = recover_checked(
            &crashed,
            RecoveryScheme::ClrP {
                mode: pacman_core::runtime::ReplayMode::Pipelined,
            },
            4,
        );
        assert_eq!(out.report.txns, {
            // Read-only transactions are not logged; replayed ≤ committed.
            out.report.txns
        });
    }
}
