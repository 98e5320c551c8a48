//! Fig. 13: checkpoint recovery — file reloading (a: when the last part
//! byte left the device; the restore runs beside the reads) and overall
//! duration (b) per scheme across thread counts. PLR restores records
//! only (indexes deferred), so its overall time is the lowest.

use pacman_bench::{banner, bench_tpcc, prepare_crashed, recover_checked, BenchOpts};
use pacman_core::recovery::RecoveryScheme;
use pacman_core::runtime::ReplayMode;
use pacman_wal::LogScheme;

fn main() {
    let opts = BenchOpts::from_args();
    banner(
        "Fig. 13 — checkpoint recovery (TPC-C)",
        "(a) all schemes reload at device bandwidth; (b) PLR finishes the \
         checkpoint stage fastest because index construction is deferred \
         to log recovery",
    );
    // A checkpoint with (almost) no log tail isolates the checkpoint stage.
    let crashed = prepare_crashed(
        &bench_tpcc(opts.quick),
        LogScheme::Command,
        0, // no transactions: the initial checkpoint is the whole state
        2,
        0.0,
    );
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>12}",
        "threads", "scheme", "reload (s)", "overall (s)", "tuples"
    );
    for threads in opts.thread_sweep() {
        for scheme in [
            RecoveryScheme::Plr { latch: true },
            RecoveryScheme::Llr { latch: true },
            RecoveryScheme::LlrP,
            RecoveryScheme::Clr,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
        ] {
            let out = recover_checked(&crashed, scheme, threads);
            println!(
                "{:>8} {:>12} {:>14.4} {:>14.4} {:>12}",
                threads,
                out.report.scheme,
                out.report.checkpoint_reload_secs,
                out.report.checkpoint_total_secs,
                out.report.checkpoint_tuples
            );
        }
    }
    println!("\n(PLR's 'overall' excludes its deferred index build, which Fig. 14 charges to log recovery)");

    pacman_bench::finish_bin("fig13");
}
