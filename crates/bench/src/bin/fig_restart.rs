//! Instant restart: offline recovery vs. online recovery with on-demand
//! replay, across CLR-P / LLR-P on the block-skewed TPC-C.
//!
//! Offline recovery acknowledges its first post-crash transaction only
//! after the *entire* log has replayed, so its time-to-first-commit is the
//! recovery wall time. Instant restart serves a transaction as soon as
//! the transaction's own static footprint (dependency-graph blocks for
//! command schemes, table shards for LLR-P) reaches its final state, with
//! waiting transactions prioritizing the replay of exactly those
//! partitions (Sauer & Härder's on-demand redo). For LLR-P the base image
//! itself streams in lazily: checkpoint shards load on background workers
//! during the session, wanted shards first, so admission gates on *shard
//! residency + replay watermark* rather than a blocking whole-snapshot
//! reload. The availability ramp — time-to-first-commit and
//! time-to-90%-throughput — is the measurement, plus a checkpoint-volume
//! table comparing incremental (chained) vs full checkpoint rounds.
//!
//! Full-speed device + loop-heavy mix: replay compute dominates reload,
//! which is the regime where serving during replay pays.
//!
//! `--quick` shrinks the run; `--scheme <name>` narrows to one scheme.

use pacman_bench::{
    banner, bench_tpcc, capped_threads, default_workers, full_speed_ssd, instant_restart,
    prepare_crashed_churn, prepare_crashed_on, recover_checked, BenchOpts,
};
use pacman_core::recovery::RecoveryScheme;
use pacman_core::runtime::ReplayMode;
use pacman_wal::LogScheme;
use pacman_workloads::RampConfig;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_args();
    let only = BenchOpts::scheme_filter();
    banner(
        "Instant restart — offline recovery vs. online recovery + on-demand replay",
        "first new commit is acknowledged in a small fraction of the offline \
         recovery wall time; throughput ramps to steady state while replay \
         is still draining cold partitions",
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
        "\n{:>8} {:>10} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "scheme",
        "txns",
        "offline (s)",
        "first (s)",
        "t90 (s)",
        "ratio",
        "gated",
        "od/bg ld",
        "steady tps"
    );
    for (log, rec, label) in configs {
        if let Some(o) = only {
            if o != log {
                continue;
            }
        }
        let crashed = prepare_crashed_on(&tpcc, log, secs, workers, 0.0, full_speed_ssd());
        // Offline baseline: the database is unavailable for the whole
        // recovery — time-to-first-commit = recovery wall time.
        let offline = recover_checked(&crashed, rec, threads);
        let offline_secs = offline.report.total_secs;

        // Instant restart on the same image: serve through the gate while
        // background workers replay, then extend the log (resumed epochs).
        let ramp_len = Duration::from_secs_f64((2.0 * offline_secs).clamp(1.0, 30.0));
        let run = instant_restart(
            &crashed,
            &tpcc,
            log,
            rec,
            threads,
            &RampConfig {
                workers,
                duration: ramp_len,
                ..RampConfig::default()
            },
        );
        let first = run.ramp.first_commit_secs.unwrap_or(f64::NAN);
        let ratio = first / offline_secs;
        println!(
            "{:>8} {:>10} {:>12.3} {:>12.3} {:>12} {:>9.0}% {:>10} {:>10} {:>10.0}",
            label,
            run.outcome.report.txns,
            offline_secs,
            first,
            run.ramp
                .t90_secs
                .map(|t| format!("{t:.3}"))
                .unwrap_or_else(|| "-".into()),
            ratio * 100.0,
            run.ramp.gated_admissions,
            format!(
                "{}/{}",
                run.outcome.report.ondemand_shard_loads, run.outcome.report.background_shard_loads
            ),
            run.ramp.steady_tps,
        );
        assert_eq!(
            run.outcome.report.txns, offline.report.txns,
            "{label}: online replayed a different transaction count"
        );
    }
    // Checkpoint volume: incremental (chained deltas) vs full snapshots
    // per round, same skewed write workload, aggressive interval. This is
    // the other half of the reload-bound story: the lazy reload shrinks
    // time-to-first-commit, the deltas shrink what each interval writes.
    let interval = Duration::from_millis(if opts.quick { 200 } else { 400 });
    println!("\ncheckpoint volume (periodic checkpointer, {interval:?} interval):");
    println!(
        "{:>8} {:>8} {:>8} {:>14} {:>14} {:>8} {:>14}",
        "scheme", "rounds", "fulls", "Δ KB/round", "full KB/round", "Δ/full", "skipped/round"
    );
    for (log, label) in [(LogScheme::Logical, "LLR-P"), (LogScheme::Command, "CLR-P")] {
        if let Some(o) = only {
            if o != log {
                continue;
            }
        }
        let inc =
            prepare_crashed_churn(&tpcc, log, secs, workers, full_speed_ssd(), interval, true);
        let full =
            prepare_crashed_churn(&tpcc, log, secs, workers, full_speed_ssd(), interval, false);
        let (inc_rounds, inc_fulls) = inc.ckpt_rounds;
        let (full_rounds, _) = full.ckpt_rounds;
        let inc_per = inc.ckpt_bytes_written as f64 / inc_rounds.max(1) as f64;
        let full_per = full.ckpt_bytes_written as f64 / full_rounds.max(1) as f64;
        println!(
            "{:>8} {:>8} {:>8} {:>14.1} {:>14.1} {:>7.0}% {:>14.1}",
            label,
            inc_rounds,
            inc_fulls,
            inc_per / 1e3,
            full_per / 1e3,
            inc_per / full_per.max(1.0) * 100.0,
            inc.ckpt_shards_skipped as f64 / inc_rounds.max(1) as f64,
        );
        // The skewed mix leaves most shards clean per interval: a delta
        // round must write measurably less than a full snapshot.
        if inc_rounds > inc_fulls && full_rounds > 0 {
            assert!(
                inc_per < full_per,
                "{label}: incremental rounds wrote {inc_per:.0} B/round vs full {full_per:.0}"
            );
        }
        // The chained image recovers to exactly the pre-crash state.
        let rec = match log {
            LogScheme::Logical => RecoveryScheme::LlrP,
            _ => RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
        };
        recover_checked(&inc, rec, threads);
    }

    println!(
        "\n(first = time-to-first-commit of the online session; ratio = first / offline wall; \
         gated = admissions that found their footprint still cold; od/bg ld = checkpoint \
         shards loaded on demand vs by the background sweep — nonzero only for LLR-P's \
         lazy reload)"
    );
    println!(
        "(CLR-P is the instant-restart story: command replay dominates its recovery, so \
         on-demand redo of a waiting footprint lands far ahead of the full wall. LLR-P now \
         streams its base image lazily — checkpoint shards load *during* the session, \
         wanted shards first — so a first commit no longer waits for full residency; its \
         floor is the log-read share, which on a single hardware thread still time-slices \
         against the serving workers and can push the ratio past 100%.)"
    );

    pacman_bench::finish_bin("fig_restart");
}
