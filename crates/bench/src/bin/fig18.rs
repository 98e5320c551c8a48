//! Fig. 18: effectiveness of static analysis — PACMAN's slice
//! decomposition vs the transaction-chopping baseline, dynamic analysis
//! disabled (pure-static replay), 1-8 threads.

use pacman_bench::{banner, bench_tpcc, default_workers, prepare_crashed, BenchOpts};
use pacman_core::metrics::RecoveryMetrics;
use pacman_core::recovery::{clr_p, LogInventory, UnitSource};
use pacman_core::runtime::ReplayMode;
use pacman_core::static_analysis::{ChoppingGraph, GlobalGraph};
use pacman_engine::Database;
use pacman_wal::LogScheme;
use std::sync::Arc;

fn main() {
    let opts = BenchOpts::from_args();
    banner(
        "Fig. 18 — static analysis vs transaction chopping (dynamic analysis off)",
        "PACMAN's finer slices beat chopping at every thread count; both \
         plateau after ~3 threads because only coarse block parallelism is \
         available without dynamic analysis",
    );
    let secs = opts.run_secs();
    let workers = default_workers();
    let crashed = prepare_crashed(
        &bench_tpcc(opts.quick),
        LogScheme::Command,
        secs,
        workers,
        0.0,
    );
    let procs = crashed.registry.all();
    let pacman_gdg = Arc::new(GlobalGraph::analyze(procs).unwrap());
    let chop = ChoppingGraph::analyze(procs);
    let chop_gdg = Arc::new(GlobalGraph::analyze_decomposition(procs, &chop.pieces).unwrap());
    println!(
        "decomposition: PACMAN {} blocks / {} slices; chopping {} blocks / {} pieces",
        pacman_gdg.num_blocks(),
        procs
            .iter()
            .map(|p| pacman_core::static_analysis::LocalGraph::analyze(p).len())
            .sum::<usize>(),
        chop_gdg.num_blocks(),
        chop.total_pieces()
    );
    println!(
        "\n{:>8} {:>18} {:>22}",
        "threads", "PACMAN static (s)", "txn chopping (s)"
    );
    let sweep: Vec<usize> = opts
        .thread_sweep()
        .into_iter()
        .filter(|&t| t <= 8)
        .collect();
    let inventory = LogInventory::scan(&crashed.storage);
    for threads in sweep {
        let mut times = Vec::new();
        for gdg in [&pacman_gdg, &chop_gdg] {
            let db = Arc::new(Database::new(crashed.catalog.clone()));
            // Restore the checkpoint first (not timed here; Fig. 18 is
            // about log replay).
            let chain = pacman_wal::read_chain(&crashed.storage).unwrap().unwrap();
            let ckpt_ts = chain.ts();
            pacman_core::recovery::checkpoint::recover_checkpoint_chain(
                &crashed.storage,
                &chain,
                threads,
                pacman_core::recovery::checkpoint::CheckpointTarget::Tables(&db),
            )
            .unwrap();
            let metrics = Arc::new(RecoveryMetrics::new());
            let source = UnitSource::inventory(&crashed.storage, &inventory, u64::MAX, ckpt_ts);
            let mode = ReplayMode::PureStatic;
            let r = clr_p::recover_log(
                source,
                &db,
                gdg,
                &crashed.registry,
                threads,
                mode,
                &metrics,
                None,
            )
            .unwrap();
            assert_eq!(db.fingerprint(), crashed.reference, "wrong state");
            times.push(r.total.as_secs_f64());
        }
        println!("{:>8} {:>18.4} {:>22.4}", threads, times[0], times[1]);
    }

    pacman_bench::finish_bin("fig18");
}
