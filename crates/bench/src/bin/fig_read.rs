//! Read-path figure: TPC-C under a read-heavy mix (80% OrderStatus +
//! StockLevel), the regime where the engine's latch-free read path does
//! the work — shared `Row` images, newest-slot OCC validation, and
//! lock-free read-only commits that take no tuple latch and tick no
//! clock.
//!
//! Reported next to fig11 (the standard write-heavy mix) and gated by
//! `scripts/bench_regress.py` on `driver.committed` across the committed
//! `BENCH_*.json` trajectory.

use pacman_bench::{banner, boot, default_workers, drive, BenchOpts};
use pacman_wal::LogScheme;
use pacman_workloads::tpcc::{Tpcc, TpccConfig};

fn main() {
    let opts = BenchOpts::from_args();
    banner(
        "fig_read — read-heavy TPC-C mix (80% read-only) on the latch-free read path",
        "read-only transactions validate against the newest slot without \
         latching or allocating; the thin update stream keeps OCC honest",
    );
    let secs = opts.run_secs() + 1;
    let workers = default_workers();
    let cfg = TpccConfig::bench(if opts.quick { 2 } else { 4 }).read_heavy();

    println!(
        "\n--- mix [NO,P,D,OS,SL] = {:?}, {workers} workers, {secs}s ---",
        cfg.mix
    );
    println!(
        "{:<5} {:>10} {:>12} {:>12} {:>12}",
        "mode", "K tps", "mean lat us", "p99 lat us", "aborts"
    );
    for scheme in [LogScheme::Command, LogScheme::Off] {
        let tpcc = Tpcc::new(cfg.clone());
        let sys = boot(&tpcc, 1, scheme, None, true);
        let r = drive(&sys, &tpcc, secs, workers, 0.0);
        println!(
            "{:<5} {:>10.1} {:>12.0} {:>12} {:>12}",
            scheme.label(),
            r.throughput / 1e3,
            r.latency_us.mean(),
            r.latency_us.quantile(0.99),
            r.aborted,
        );
        sys.durability.shutdown();
    }

    pacman_bench::finish_bin("fig_read");
}
