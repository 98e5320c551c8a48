//! Observability overhead guard.
//!
//! Measures what the flight recorder costs the hot path, two ways:
//!
//! * a tight-loop microbenchmark of the disabled `Tracer::emit` — the
//!   path every production call site pays when tracing is off (one
//!   relaxed load + branch). This is the hard guard: it must stay in the
//!   low tens of nanoseconds even on the slowest machine.
//! * an end-to-end A/B: a command-logged Smallbank drive with 10% ad-hoc
//!   transactions (so both record kinds hit the log) with tracing
//!   disabled twice (run-to-run noise baseline) and enabled once. The ratio is recorded, not asserted —
//!   on a loaded 1-core box the noise between two *disabled* runs can
//!   exceed the tracing cost, so a hard threshold would only flake.
//!
//! Results land in the registry under `bench.obs_overhead.*` and are
//! exported through the standard `--json` path.

use pacman_bench::{banner, bench_smallbank, boot, default_workers, drive, BenchOpts};
use pacman_obs::TraceEvent;
use pacman_wal::LogScheme;
use std::time::Instant;

fn command_drive(quick: bool) -> f64 {
    let wl = bench_smallbank(quick);
    let sys = boot(&wl, 2, LogScheme::Command, None, true);
    let secs = if quick { 1 } else { 2 };
    let r = drive(&sys, &wl, secs, default_workers(), 0.1);
    sys.durability.shutdown();
    r.throughput
}

fn main() {
    let opts = BenchOpts::from_args();
    banner(
        "obs_overhead: flight-recorder cost (disabled emit + enabled A/B)",
        "tracing must be effectively free when off and cheap when on",
    );

    // Hard guard: the disabled emit path.
    let tracer = pacman_obs::tracer();
    tracer.disable();
    const N: u64 = 2_000_000;
    let t0 = Instant::now();
    for i in 0..N {
        tracer.emit(TraceEvent::Marker { code: i });
    }
    let ns_per_emit = t0.elapsed().as_nanos() as f64 / N as f64;
    println!("disabled emit: {ns_per_emit:.2} ns/op ({N} iterations)");
    assert!(
        ns_per_emit < 200.0,
        "disabled trace emit costs {ns_per_emit:.1} ns/op — the off path must stay near-zero"
    );

    // Hard guard: the span-table record path — the per-epoch-stage stamp
    // the loggers and the shipper pay. A fresh table keeps the
    // microbench loop out of the global `wal.epoch.*` histograms; each
    // iteration claims a slot (the slow path) and feeds one transition
    // histogram, so this bounds the *worst* stamp, not the amortized one.
    let spans = pacman_obs::EpochSpanTable::new();
    const M: u64 = 500_000;
    let t0 = Instant::now();
    for e in 1..=M {
        spans.record(e, pacman_obs::Stage::Staged);
        spans.record(e, pacman_obs::Stage::Sealed);
    }
    let ns_per_record = t0.elapsed().as_nanos() as f64 / (2 * M) as f64;
    println!("span record:   {ns_per_record:.2} ns/op ({} stamps)", 2 * M);
    assert!(
        ns_per_record < 100.0,
        "span-table record costs {ns_per_record:.1} ns/op — the stamp must stay under 100 ns"
    );

    // End-to-end A/B on the command-logged drive. Two disabled runs bracket the
    // machine's run-to-run noise; the enabled run is read against them.
    let disabled_a = command_drive(opts.quick);
    let disabled_b = command_drive(opts.quick);
    tracer.enable();
    let enabled = command_drive(opts.quick);
    tracer.disable();

    let base = disabled_a.max(disabled_b);
    let ratio = if base > 0.0 { enabled / base } else { 1.0 };
    let noise = if base > 0.0 {
        (disabled_a - disabled_b).abs() / base
    } else {
        0.0
    };
    println!("disabled run A: {disabled_a:>10.0} txn/s");
    println!(
        "disabled run B: {disabled_b:>10.0} txn/s  (noise {:.1}%)",
        noise * 100.0
    );
    println!("enabled run:    {enabled:>10.0} txn/s  (ratio {ratio:.3} of best disabled)");

    let reg = pacman_obs::registry();
    reg.gauge_f("bench.obs_overhead.disabled_emit_ns")
        .set(ns_per_emit);
    reg.gauge_f("bench.obs_overhead.span_record_ns")
        .set(ns_per_record);
    reg.gauge_f("bench.obs_overhead.disabled_tput_a")
        .set(disabled_a);
    reg.gauge_f("bench.obs_overhead.disabled_tput_b")
        .set(disabled_b);
    reg.gauge_f("bench.obs_overhead.enabled_tput").set(enabled);
    reg.gauge_f("bench.obs_overhead.enabled_ratio").set(ratio);

    pacman_bench::finish_bin("obs_overhead");
}
