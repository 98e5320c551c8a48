//! Fig. 20: log recovery time breakdown — useful work / data loading /
//! parameter checking / scheduling fractions across thread counts.
//!
//! The four buckets are replay-time work. What static analysis prepares
//! ahead of it — the dependency graph and one access plan per piece
//! template — is printed on its own line; in the repo benchmark that is
//! `core.static_analysis.gdg_ms`, the place work moved to compile time
//! shows up.

use pacman_bench::{
    banner, bench_tpcc, default_workers, prepare_crashed, recover_checked, BenchOpts,
};
use pacman_core::recovery::RecoveryScheme;
use pacman_core::runtime::ReplayMode;
use pacman_core::static_analysis::GlobalGraph;
use pacman_wal::LogScheme;
use std::time::Instant;

fn main() {
    let opts = BenchOpts::from_args();
    banner(
        "Fig. 20 — CLR-P recovery time breakdown (TPC-C)",
        "at 40 threads scheduling grows to ~30% of recovery time; data \
         loading and parameter checking stay lightweight",
    );
    let secs = opts.run_secs();
    let workers = default_workers();
    let tpcc = bench_tpcc(opts.quick);
    let crashed = prepare_crashed(&tpcc, LogScheme::Command, secs, workers, 0.0);
    let t0 = Instant::now();
    let gdg = GlobalGraph::analyze(crashed.registry.all()).expect("TPC-C analyzes");
    println!(
        "static analysis (GDG of {} blocks + piece plans): {:.3} ms, once per recovery",
        gdg.num_blocks(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    print!("{}", pacman_bench::replay_summary(&tpcc, &gdg));
    println!(
        "{:>8} {:>12} {:>14} {:>18} {:>14}",
        "threads", "work %", "loading %", "param check %", "scheduling %"
    );
    for threads in opts.thread_sweep() {
        let out = recover_checked(
            &crashed,
            RecoveryScheme::ClrP {
                mode: ReplayMode::Pipelined,
            },
            threads,
        );
        let (w, l, p, s) = out.report.breakdown.fractions();
        println!(
            "{:>8} {:>12.1} {:>14.1} {:>18.1} {:>14.1}",
            threads,
            w * 100.0,
            l * 100.0,
            p * 100.0,
            s * 100.0
        );
    }

    pacman_bench::finish_bin("fig20");
}
