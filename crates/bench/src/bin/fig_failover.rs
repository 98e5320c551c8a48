//! Hot-standby failover: promote-to-first-commit vs. cold online
//! recovery on the same crash point, plus apply-lag vs. offered load.
//!
//! Cold restart (fig_restart's best case) must re-read and replay the
//! whole surviving log before the last partition is final; even with
//! on-demand redo the first commit waits for its footprint's backlog. A
//! hot standby has already applied that backlog *continuously* while the
//! primary was alive, so failover is an epoch drain: ship the sealed
//! tail, finish the in-flight apply batches, reopen the shipped log for
//! writing. The measurement is time from "declare failover" to the first
//! acknowledged commit on the promoted node, against the cold
//! `recover_online` first-commit wall on the identical image.
//!
//! The second table runs a *live* primary at varying offered load with a
//! standby attached over the wire, sampling the standby's replication
//! lag (apply batches + bytes behind) — the cost of staying seconds from
//! promotable. On this container's single hardware thread the worker
//! sweep degrades to one honest point (see `default_workers`).
//!
//! `--quick` shrinks the run; `--scheme <name>` narrows to one scheme.

use pacman_bench::{
    banner, bench_smallbank, bench_tpcc, boot_with_config, capped_threads, default_workers, drive,
    full_speed_ssd, instant_restart, prepare_crashed_on, ship_standby, BenchOpts,
};
use pacman_core::recovery::RecoveryScheme;
use pacman_core::replication::{pump, start_standby, wire, StandbyConfig};
use pacman_core::runtime::ReplayMode;
use pacman_storage::StorageSet;
use pacman_wal::LogScheme;
use pacman_workloads::{run_ramp, RampConfig, Workload};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_args();
    let only = BenchOpts::scheme_filter();
    banner(
        "Hot-standby failover — promote-to-first-commit vs. cold online recovery",
        "a continuously-applying standby promotes in an epoch drain: its first \
         post-failover commit lands in a small fraction of even the gated \
         online-recovery wall on the same crash point",
    );
    let threads = capped_threads(24);
    let workers = default_workers();
    let secs = opts.run_secs();
    let tpcc = pacman_workloads::tpcc::Tpcc::new(bench_tpcc(opts.quick).cfg.skewed_restart());

    let configs: [(LogScheme, RecoveryScheme, &'static str); 2] = [
        (
            LogScheme::Command,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            "CLR-P",
        ),
        (LogScheme::Logical, RecoveryScheme::LlrP, "LLR-P"),
    ];

    println!(
        "\n{:>8} {:>10} {:>12} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "scheme",
        "txns",
        "cold (s)",
        "promote (s)",
        "first (s)",
        "ratio",
        "shipped KB",
        "applied KB"
    );
    for (log, rec, label) in configs {
        if let Some(o) = only {
            if o != log {
                continue;
            }
        }
        let crashed = prepare_crashed_on(&tpcc, log, secs, workers, 0.0, full_speed_ssd());

        // Hot path first (the shipper only reads the crashed image): a
        // standby attaches, catches up, and the primary "dies" — promote.
        let (standby, _catchup) = ship_standby(&crashed, rec, threads, full_speed_ssd());
        let stats = standby.stats();
        assert_eq!(stats.lag_batches, 0, "{label}: promote from lag 0");
        let promoted = standby
            .promote(pacman_bench::bench_durability(log, 2))
            .unwrap_or_else(|e| panic!("{label}: promote failed: {e}"));
        // The acceptance bar: a promoted standby is byte-exact with the
        // never-failed (graceful-stop) run on both schemes.
        assert_eq!(
            promoted.db.fingerprint(),
            crashed.reference,
            "{label}: promoted standby diverged from the never-failed run"
        );
        let ramp_hot = run_ramp(
            &promoted.db,
            &tpcc,
            &crashed.registry,
            &promoted.durability,
            None,
            &RampConfig {
                workers,
                duration: Duration::from_millis(500),
                ..RampConfig::default()
            },
        );
        promoted.durability.shutdown();
        let hot_first =
            promoted.report.promote_secs + ramp_hot.first_commit_secs.unwrap_or(f64::NAN);

        // Cold baseline on the same image: online recovery with
        // on-demand replay (the PR 2/3 path — already far better than
        // offline). This mutates the image (resumed logging), hence last.
        let cold = instant_restart(
            &crashed,
            &tpcc,
            log,
            rec,
            threads,
            &RampConfig {
                workers,
                duration: Duration::from_secs(2),
                ..RampConfig::default()
            },
        );
        let cold_first = cold.ramp.first_commit_secs.unwrap_or(f64::NAN);
        let ratio = hot_first / cold_first;

        println!(
            "{:>8} {:>10} {:>12.3} {:>12.4} {:>12.4} {:>7.0}% {:>12.1} {:>12.1}",
            label,
            promoted.report.txns,
            cold_first,
            promoted.report.promote_secs,
            hot_first,
            ratio * 100.0,
            promoted.report.received_log_bytes as f64 / 1e3,
            stats.applied_log_bytes as f64 / 1e3,
        );
        assert!(
            hot_first < 0.5 * cold_first,
            "{label}: promote-to-first-commit {hot_first:.4}s did not beat half the cold \
             online first-commit wall {cold_first:.3}s"
        );
    }

    // Apply-lag vs offered load: a live primary ships continuously while
    // a standby applies; the sampled lag is the distance-from-promotable.
    println!("\napply lag vs offered load (live primary, LLR-P standby, Smallbank):");
    println!(
        "{:>8} {:>12} {:>12} {:>10} {:>10} {:>12} {:>12}",
        "workers", "offered tps", "shipped KB", "max lag", "mean lag", "lag KB max", "drain (s)"
    );
    let sweep: Vec<usize> = [1usize, 2, 4]
        .into_iter()
        .filter(|&w| w <= default_workers())
        .collect();
    for load_workers in sweep {
        let sb = bench_smallbank(opts.quick);
        let sys = boot_with_config(
            &sb,
            StorageSet::identical(2, full_speed_ssd()),
            pacman_bench::bench_durability(LogScheme::Logical, 2),
        );
        pacman_wal::run_checkpoint(&sys.db, &sys.storage, 2).expect("initial checkpoint");
        let shipper = sys.durability.shipper();
        let (tx, rx) = wire();
        let standby = start_standby(
            StorageSet::identical(2, full_speed_ssd()),
            &sb.catalog(),
            &sys.registry,
            &StandbyConfig {
                scheme: RecoveryScheme::LlrP,
                threads,
            },
            rx,
        )
        .expect("standby start");

        let stop = AtomicBool::new(false);
        let (result, max_lag, mean_lag, max_lag_bytes) = crossbeam::thread::scope(|scope| {
            // Pump + lag sampler thread (heartbeat cadence: 2 ms).
            let sampler = {
                let durability = std::sync::Arc::clone(&sys.durability);
                let shipper = &shipper;
                let link = &tx;
                let standby = &standby;
                let stop = &stop;
                scope.spawn(move |_| {
                    let mut max_lag = 0u64;
                    let mut lag_sum = 0u64;
                    let mut samples = 0u64;
                    let mut max_lag_bytes = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        pump(shipper, durability.pepoch(), link).expect("pump");
                        let s = standby.stats();
                        max_lag = max_lag.max(s.lag_batches);
                        max_lag_bytes = max_lag_bytes
                            .max(s.received_log_bytes.saturating_sub(s.applied_log_bytes));
                        lag_sum += s.lag_batches;
                        samples += 1;
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    (
                        max_lag,
                        lag_sum as f64 / samples.max(1) as f64,
                        max_lag_bytes,
                    )
                })
            };
            let result = drive(&sys, &sb, secs, load_workers, 0.0);
            stop.store(true, Ordering::Release);
            let (max_lag, mean_lag, max_lag_bytes) = sampler.join().expect("sampler");
            (result, max_lag, mean_lag, max_lag_bytes)
        })
        .expect("lag scope");

        // Primary stops; drain the sealed tail through the same cursor
        // and measure how long the standby takes to settle at lag 0.
        sys.durability.shutdown();
        let t0 = std::time::Instant::now();
        let final_pepoch = pacman_wal::pepoch::PepochHandle::read_persisted(sys.storage.disk(0));
        pump(&shipper, final_pepoch, &tx).expect("tail drain");
        let caught = standby.wait_caught_up(final_pepoch, Duration::from_secs(30));
        assert!(
            caught,
            "standby failed to settle ({:?} / {:?})",
            standby.stats(),
            standby.error()
        );
        let drain = t0.elapsed().as_secs_f64();

        println!(
            "{:>8} {:>12.0} {:>12.1} {:>10} {:>10.2} {:>12.1} {:>12.3}",
            load_workers,
            result.throughput,
            sys.durability.shipped_bytes() as f64 / 1e3,
            max_lag,
            mean_lag,
            max_lag_bytes as f64 / 1e3,
            drain,
        );
        drop(standby);
    }

    println!(
        "\n(cold = first acknowledged commit of a cold `recover_online` session on the same \
         image — itself gated + on-demand, i.e. the strongest single-node baseline; promote = \
         tail drain + apply finish + log reopen; first = promote + first acknowledged commit; \
         shipped/applied KB = the Durability ship counters vs the standby's applied counters; \
         lag = apply batches behind the shipped frontier while the primary serves load)"
    );

    pacman_bench::finish_bin("fig_failover");
}
