//! Fig. 14: log recovery — pure log reloading (a) and overall duration (b)
//! for the five schemes across thread counts.

use pacman_bench::{
    banner, bench_tpcc, default_workers, prepare_crashed, recover_checked, BenchOpts,
};
use pacman_core::recovery::RecoveryScheme;
use pacman_core::runtime::ReplayMode;
use pacman_wal::LogScheme;

fn main() {
    let opts = BenchOpts::from_args();
    banner(
        "Fig. 14 — log recovery (TPC-C)",
        "CLR is single-threaded and slowest (paper: 70 min, 18× slower than \
         CLR-P); PLR/LLR improve up to ~20 threads then regress under latch \
         contention; CLR-P scales with threads",
    );
    let secs = opts.run_secs();
    let workers = default_workers();
    // One crashed image per log type.
    let cl = prepare_crashed(
        &bench_tpcc(opts.quick),
        LogScheme::Command,
        secs,
        workers,
        0.0,
    );
    let ll = prepare_crashed(
        &bench_tpcc(opts.quick),
        LogScheme::Logical,
        secs,
        workers,
        0.0,
    );
    let pl = prepare_crashed(
        &bench_tpcc(opts.quick),
        LogScheme::Physical,
        secs,
        workers,
        0.0,
    );
    println!(
        "log volumes: CL {:.1} MB ({} txns), LL {:.1} MB, PL {:.1} MB",
        cl.log_bytes as f64 / 1e6,
        cl.committed,
        ll.log_bytes as f64 / 1e6,
        pl.log_bytes as f64 / 1e6
    );
    println!(
        "\n{:>8} {:>12} {:>14} {:>14} {:>10}",
        "threads", "scheme", "reload (s)", "overall (s)", "txns"
    );
    // LLR-P's overall time at 1 thread (every sweep starts there): each
    // LLR-P row prints its speed-up over it.
    let mut llrp_base = None;
    for threads in opts.thread_sweep() {
        for (crashed, scheme) in [
            (&pl, RecoveryScheme::Plr { latch: true }),
            (&ll, RecoveryScheme::Llr { latch: true }),
            (&ll, RecoveryScheme::LlrP),
            (&cl, RecoveryScheme::Clr),
            (
                &cl,
                RecoveryScheme::ClrP {
                    mode: ReplayMode::Pipelined,
                },
            ),
        ] {
            if scheme == RecoveryScheme::Clr && threads != 1 {
                continue; // CLR cannot use extra threads (that is the point)
            }
            let out = recover_checked(crashed, scheme, threads);
            print!(
                "{:>8} {:>12} {:>14.4} {:>14.4} {:>10}",
                threads,
                out.report.scheme,
                out.report.log_reload_secs,
                out.report.log_total_secs,
                out.report.txns
            );
            if scheme == RecoveryScheme::LlrP {
                let r = &out.report;
                let base = *llrp_base.get_or_insert(r.log_total_secs);
                print!(
                    "   installed {} + skipped {} writes, {:.2}x its 1-thread row",
                    r.installed_writes,
                    r.skipped_writes,
                    base / r.log_total_secs,
                );
            }
            println!();
        }
    }

    pacman_bench::finish_bin("fig14");
}
