//! fig_latency: end-to-end durability-latency attribution.
//!
//! Where does a committed transaction's latency go? The epoch span table
//! stamps every epoch at each lifecycle stage — first commit staged,
//! sealed, persisted (fsynced), ack signaled, shipped, standby applied —
//! and this binary turns those stamps into a per-stage breakdown. On the
//! commit side `seal_wait` is the epoch close plus the logger's poll,
//! `persist` the log write and fsync on every device, and `ack_delay` the
//! publishing logger's `pepoch.log` fsync plus the wakeup:
//!
//! * **Phase A (commit attribution)**: a paced single worker commits
//!   roughly one transaction per epoch against a live primary, measuring
//!   true end-to-end commit latency (submit → durable-ack observed) per
//!   transaction. Pacing makes the epoch's `Staged` stamp coincide with
//!   the submit, so the stage transitions telescope: `seal_wait +
//!   persist + ack_delay ≈ end-to-end latency`. The binary *asserts*
//!   that the stage-sum accounts for the measured mean within 10% (plus
//!   a small absolute floor for 1-core scheduling noise) — the
//!   attribution must add up, or it is decoration.
//! * **Phase B (replication attribution)**: a crashed primary's image is
//!   shipped to a hot standby one seal per epoch, populating the
//!   `wal.ship.lag` and `standby.apply_lag` stages — how far behind
//!   durability the replication pipeline runs. The binary asserts that
//!   nearly every applied unit left an `apply_lag` sample.
//!
//! All distributions land in the registry (`wal.epoch.*`, `wal.ship.lag`,
//! `standby.apply_lag`, `driver.commit_latency_us`) and export through
//! the standard `--json` path; `scripts/bench_regress.py` gates the p99
//! commit latency across commits.

use pacman_bench::{
    banner, bench_disk, bench_smallbank, boot_with_config, capped_threads, print_row, ship_standby,
    BenchOpts,
};
use pacman_common::clock::epoch_of;
use pacman_common::Error;
use pacman_core::recovery::RecoveryScheme;
use pacman_core::runtime::ReplayMode;
use pacman_engine::run_procedure_with_epoch;
use pacman_obs::HistoSummary;
use pacman_storage::StorageSet;
use pacman_wal::{DurabilityConfig, LogScheme, WorkerLogBuffer};
use pacman_workloads::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Stage transitions that make up the primary's commit path. Their means
/// must telescope to the measured end-to-end commit latency.
const COMMIT_STAGES: [&str; 3] = [
    "wal.epoch.seal_wait",
    "wal.epoch.persist",
    "wal.epoch.ack_delay",
];

fn main() {
    let opts = BenchOpts::from_args();
    banner(
        "fig_latency: durability-latency attribution (epoch lifecycle spans)",
        "group commit trades latency for throughput; the span table shows where each epoch's time goes",
    );

    // --- Phase A: paced commit attribution on a live primary. ---
    let wl = bench_smallbank(opts.quick);
    let epoch_interval = Duration::from_millis(2);
    let sys = boot_with_config(
        &wl,
        StorageSet::identical(1, bench_disk()),
        DurabilityConfig {
            scheme: LogScheme::Command,
            num_loggers: 1,
            epoch_interval,
            batch_epochs: 16,
            checkpoint_interval: None,
            fsync: true,
            ..Default::default()
        },
    );
    let txns = if opts.quick { 100 } else { 400 };
    let dur = &sys.durability;
    let worker = dur.register_worker();
    let mut arena = WorkerLogBuffer::new();
    // The driver's seal rule: the arena hands older epochs to the logger
    // before the worker acknowledges a newer one.
    let enter = |arena: &mut WorkerLogBuffer| {
        let e = worker.peek();
        dur.flush_before_ack(arena, 0, e);
        worker.enter_at(e);
    };
    let em = dur.epoch_manager().clone();
    let pepoch = dur.pepoch_arc();
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    let mut latency = pacman_common::Histogram::new();
    let mut committed = 0u64;
    while committed < txns {
        enter(&mut arena);
        let (pid, params) = wl.next_txn(&mut rng);
        let proc = sys.registry.get(pid).expect("registered procedure");
        let submit = Instant::now();
        let info = match run_procedure_with_epoch(&sys.db, proc, &params, || em.current()) {
            Ok(info) => info,
            Err(Error::TxnAborted(_)) => continue,
            Err(e) => panic!("workload execution error: {e}"),
        };
        if info.writes.is_empty() {
            continue; // read-only: never logged, nothing to attribute
        }
        // Staging stamps the epoch's `Staged` mark — under pacing, ≈ the
        // submit.
        dur.log_commit_buffered(&mut arena, 0, &info, pid, &params, false);
        let epoch = epoch_of(info.ts);
        // Wait for durability while keeping this worker's ack advancing —
        // the logger cannot seal an epoch a registered worker still sits
        // in, and the epoch's record leaves the arena just before the ack
        // passes it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while pepoch.load(Ordering::Acquire) < epoch {
            enter(&mut arena);
            assert!(Instant::now() < deadline, "commit never became durable");
            dur.durable_signal().wait_for(Duration::from_millis(1));
        }
        latency.record(submit.elapsed().as_micros() as u64);
        committed += 1;
        // Pace: let the epoch turn over so the next commit opens a fresh
        // epoch (and its Staged stamp is that commit's submit).
        std::thread::sleep(epoch_interval);
    }
    dur.flush_worker(&mut arena, 0);
    worker.retire();
    dur.wait_durable(em.current().saturating_sub(1));
    pacman_obs::registry()
        .histogram("driver.commit_latency_us")
        .merge(&latency);
    sys.durability.shutdown();

    // Snapshot the commit-path stages *before* phase B adds its own
    // (unpaced) epochs to the same histograms.
    let spans = pacman_obs::spans();
    let commit_stages: Vec<(&str, HistoSummary)> = spans
        .summaries()
        .into_iter()
        .filter(|(name, _)| COMMIT_STAGES.contains(name))
        .collect();

    println!();
    println!("commit-path breakdown ({committed} paced txns, epoch = {epoch_interval:?}):");
    let widths = [24, 8, 10, 10, 10, 10];
    print_row(
        &["stage", "n", "mean us", "p50 us", "p95 us", "p99 us"].map(String::from),
        &widths,
    );
    let mut stage_sum_us = 0.0;
    for (name, s) in &commit_stages {
        stage_sum_us += s.mean;
        print_row(
            &[
                name.to_string(),
                s.count.to_string(),
                format!("{:.0}", s.mean),
                s.p50.to_string(),
                s.p95.to_string(),
                s.p99.to_string(),
            ],
            &widths,
        );
    }
    let e2e = HistoSummary::of(&latency);
    print_row(
        &[
            "= stage sum".into(),
            String::new(),
            format!("{stage_sum_us:.0}"),
            String::new(),
            String::new(),
            String::new(),
        ],
        &widths,
    );
    print_row(
        &[
            "end-to-end commit".into(),
            e2e.count.to_string(),
            format!("{:.0}", e2e.mean),
            e2e.p50.to_string(),
            e2e.p95.to_string(),
            e2e.p99.to_string(),
        ],
        &widths,
    );

    // The attribution must add up: the stage transitions telescope to
    // (ack − first-staged), and pacing aligned first-staged with submit.
    // The absolute floor absorbs scheduler noise on small shared boxes —
    // at bench epoch lengths the relative bound is the binding one.
    let gap = (e2e.mean - stage_sum_us).abs();
    let bound = (0.10 * e2e.mean).max(200.0);
    println!("attribution gap: {gap:.0} us (bound {bound:.0} us)");
    assert!(
        gap <= bound,
        "stage sum {stage_sum_us:.0} us does not account for end-to-end {:.0} us (gap {gap:.0} > {bound:.0})",
        e2e.mean
    );
    if spans.dropped() > 0 {
        println!(
            "note: {} late stage stamps dropped (evicted slots)",
            spans.dropped()
        );
    }

    // --- Phase B: replication attribution (ship + standby apply lag). ---
    let secs = if opts.quick { 1 } else { 2 };
    let crashed = pacman_bench::prepare_crashed(&wl, LogScheme::Command, secs, 1, 0.0);
    let threads = capped_threads(2);
    let apply_lag_samples = || {
        let summaries = spans.summaries();
        let lag = summaries
            .iter()
            .find(|(name, _)| *name == "standby.apply_lag");
        lag.expect("standby.apply_lag is a span stage").1.count
    };
    let samples_before = apply_lag_samples();
    let (standby, catchup_secs) = ship_standby(
        &crashed,
        RecoveryScheme::ClrP {
            mode: ReplayMode::Pipelined,
        },
        threads,
        bench_disk(),
    );
    let units = standby.stats().applied_batches;
    println!();
    println!("replication: standby caught up in {catchup_secs:.2}s ({units} batches)");
    for (name, s) in spans.summaries() {
        if name == "wal.ship.lag" || name == "standby.apply_lag" {
            println!(
                "  {name:<18} n={} mean={:.0}us p99={}us",
                s.count, s.mean, s.p99
            );
        }
    }
    drop(standby);
    // Every applied unit stamps its seal epoch `Applied` after the shipper
    // stamped it `Shipped`: one sample each, short of evicted span slots.
    let samples = apply_lag_samples() - samples_before;
    assert!(
        samples as f64 >= 0.9 * units as f64,
        "standby.apply_lag gained {samples} samples over {units} applied units"
    );

    pacman_bench::finish_bin("fig_latency");
}
