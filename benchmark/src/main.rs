//! The repo benchmark: what logging costs the commit path and how long
//! recovery takes, per log scheme, from the same log.
//!
//! One process runs one workload: a number of repetitions, each on a fresh
//! `Database` and `StorageSet`, of set-up → a fixed, seeded count of
//! transactions through the commit path → drain → `crash()` → timed
//! `recover` at `nproc` threads and at one, each checked by fingerprint
//! against the pre-crash state. See `README.md` for the workloads, the
//! metrics and the frozen call surface.

mod commit;
mod image;
mod metrics;
mod rep;
mod retain;
mod trace;

use metrics::Metrics;
use pacman_core::recovery::{RecoveryReport, RecoveryScheme};
use pacman_core::runtime::ReplayMode;
use pacman_obs::Json;
use pacman_storage::StorageSet;
use pacman_wal::LogScheme;
use pacman_workloads::smallbank::Smallbank;
use pacman_workloads::tpcc::{Tpcc, TpccConfig};
use pacman_workloads::Workload;
use rep::{checked_recover, commit_and_crash, nproc, CrashImage, Extras, Rep};
use std::path::PathBuf;
use std::time::Duration;
use trace::{Name, Trace, NO_PARENT};

#[global_allocator]
static ALLOCATOR: retain::Retain = retain::Retain;

/// Simulated devices, loggers and checkpoint threads.
const DISKS: usize = 2;
/// Both telescoping gaps must stay within this share.
const TELESCOPE_LIMIT_PCT: f64 = 10.0;
/// `--smoke` divides every transaction count by this.
const SMOKE_DIVISOR: u64 = 50;
/// A short set-up is sampled again, standalone, until this much time has
/// gone into set-up or `SETUP_SAMPLES_MAX` samples exist: a handful of
/// samples of a 15 ms set-up are mostly scheduler noise.
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_SAMPLES_MAX: usize = 32;

/// One workload: inputs, log scheme, recovery scheme and size.
pub struct Spec {
    name: &'static str,
    workload: fn() -> Box<dyn Workload>,
    log: LogScheme,
    recovery: RecoveryScheme,
    /// The serial scheme for the same log, the baseline the parallel
    /// scheme's scheduling is charged against.
    serial: RecoveryScheme,
    checkpoint_interval: Option<Duration>,
    /// In-process repetitions R.
    reps: usize,
    /// Transactions per repetition for each second of `--seconds`: sized on
    /// the 2-core reference box so that the timed phases (commit window and
    /// both recoveries) of all repetitions take about `--seconds`.
    txns_per_second: u64,
}

const PACMAN: RecoveryScheme = RecoveryScheme::ClrP {
    mode: ReplayMode::Pipelined,
};

fn tpcc() -> Box<dyn Workload> {
    Box::new(Tpcc::new(TpccConfig::bench(4)))
}

fn tpcc_large() -> Box<dyn Workload> {
    Box::new(Tpcc::new(TpccConfig {
        customers_per_district: 3000,
        items: 100_000,
        ..TpccConfig::bench(4)
    }))
}

fn smallbank() -> Box<dyn Workload> {
    Box::new(Smallbank {
        accounts: 8192,
        ..Smallbank::default()
    })
}

static SPECS: [Spec; 4] = [
    Spec {
        name: "tpcc_cl",
        workload: tpcc,
        log: LogScheme::Command,
        recovery: PACMAN,
        serial: RecoveryScheme::Clr,
        checkpoint_interval: None,
        reps: 7,
        txns_per_second: 3_000,
    },
    Spec {
        name: "tpcc_ll",
        workload: tpcc,
        log: LogScheme::Logical,
        recovery: RecoveryScheme::LlrP,
        serial: RecoveryScheme::Llr { latch: true },
        checkpoint_interval: None,
        reps: 7,
        txns_per_second: 4_500,
    },
    Spec {
        name: "smallbank_cl",
        workload: smallbank,
        log: LogScheme::Command,
        recovery: PACMAN,
        serial: RecoveryScheme::Clr,
        checkpoint_interval: None,
        reps: 9,
        txns_per_second: 20_000,
    },
    Spec {
        name: "tpcc_cl_ckpt",
        workload: tpcc_large,
        log: LogScheme::Command,
        recovery: PACMAN,
        serial: RecoveryScheme::Clr,
        checkpoint_interval: Some(Duration::from_millis(250)),
        reps: 5,
        txns_per_second: 3_000,
    },
];

struct Opts {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    selftest: bool,
    out: PathBuf,
    git_rev: String,
    rustc: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: pacman_benchmark --workload <{}> [--seed S] [--seconds T] [--trace 0|1] \
         [--smoke] [--selftest] [--out DIR] [--git-rev REV] [--rustc VERSION]",
        SPECS.iter().map(|s| s.name).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Opts {
    let mut o = Opts {
        workload: String::new(),
        seed: 42,
        seconds: 20,
        trace: false,
        smoke: false,
        selftest: false,
        out: PathBuf::from("benchmark/out"),
        git_rev: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => o.workload = value(),
            "--seed" => o.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => o.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                o.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--smoke" => o.smoke = true,
            "--selftest" => o.selftest = true,
            "--out" => o.out = PathBuf::from(value()),
            "--git-rev" => o.git_rev = value(),
            "--rustc" => o.rustc = value(),
            _ => usage(),
        }
    }
    if o.seconds == 0 {
        usage();
    }
    // The negative test needs an image, not a measurement.
    o.smoke |= o.selftest;
    o
}

/// Counts that one generator thread makes exact: equal across the
/// repetitions of a run and across runs with the same seed.
fn exact_counts(spec: &Spec, rep: &Rep) -> Vec<(&'static str, u64)> {
    let mut counts = vec![
        ("logged_txns", rep.logged()),
        ("log_bytes", rep.log_bytes),
        ("ops", rep.commit.ops),
    ];
    // With a live checkpointer a round can start inside the fixed tail and
    // cover part of it, so the replayed count is only nearly always equal.
    if spec.checkpoint_interval.is_none() {
        counts.push(("replayed_txns", rep.rec_n.txns));
    }
    counts
}

fn header(spec: &Spec, opts: &Opts, n: u64) -> Vec<(String, Json)> {
    let disk = rep::disk_model();
    let cfg = rep::durability_config(spec);
    let s = |v: &str| Json::Str(v.to_string());
    vec![
        ("workload".into(), s(spec.name)),
        ("seed".into(), Json::Int(opts.seed)),
        ("seconds".into(), Json::Int(opts.seconds)),
        ("n_per_rep".into(), Json::Int(n)),
        ("reps".into(), Json::Int(spec.reps as u64)),
        ("smoke".into(), Json::Bool(opts.smoke)),
        ("traced".into(), Json::Bool(opts.trace)),
        ("nproc".into(), Json::Int(nproc() as u64)),
        ("git_rev".into(), s(&opts.git_rev)),
        ("rustc".into(), s(&opts.rustc)),
        (
            "disk".into(),
            s(&format!(
                "{DISKS} x simulated SSD, read {:.0} MB/s, write {:.0} MB/s, fsync {} us",
                disk.read_bw / 1e6,
                disk.write_bw / 1e6,
                disk.fsync_latency.as_micros()
            )),
        ),
        (
            "flush_policy".into(),
            s(&format!(
                "group commit: fsync per sealed epoch, epoch {} ms, {} epochs per batch file",
                cfg.epoch_interval.as_millis(),
                cfg.batch_epochs
            )),
        ),
        (
            "durability".into(),
            s(&format!(
                "{} logging, {} loggers, {} checkpoint threads, checkpoint interval {}, \
                 incremental, one initial checkpoint in set-up",
                spec.log.label(),
                cfg.num_loggers,
                cfg.checkpoint_threads,
                spec.checkpoint_interval
                    .map_or("none".to_string(), |d| format!("{} ms", d.as_millis()))
            )),
        ),
        (
            "threads".into(),
            s(&format!(
                "1 generator (closed loop, asynchronous group-commit acknowledgement); \
                 recovery {} at {} and 1",
                spec.recovery.label(),
                nproc()
            )),
        ),
        (
            "allocator".into(),
            s("benchmark/src/retain.rs (size classes, per-thread caches, nothing returned)"),
        ),
        (
            "statistic".into(),
            s(
                "end-to-end: least disturbed repetition (lowest time, highest rate); \
               per-layer: median",
            ),
        ),
    ]
}

/// The negative test of the correctness check: a clean copy of a crash
/// image must recover and verify, a copy with one flipped log byte and a
/// copy with one deleted log batch file must both be rejected.
fn selftest(spec: &Spec, opts: &Opts, n: u64) -> bool {
    let workload = (spec.workload)();
    let mut trace = Trace::new();
    let (rep, image) = match commit_and_crash(
        spec,
        workload.as_ref(),
        opts.seed,
        n,
        false,
        &mut trace,
        0,
        NO_PARENT,
    ) {
        Ok(done) => done,
        Err(e) => {
            println!("selftest {}: no image: {e}", spec.name);
            return false;
        }
    };
    println!(
        "selftest {}: image of {} logged txns, {} log bytes, {} unacknowledged",
        spec.name,
        rep.logged(),
        rep.log_bytes,
        rep.failed()
    );
    let with_storage = |storage: StorageSet| CrashImage {
        storage,
        catalog: image.catalog.clone(),
        registry: image.registry.clone(),
        reference: image.reference,
    };
    let mut ok = rep.failed() == 0;
    let clean = with_storage(image::copy(&image.storage));
    match checked_recover(&clean, spec.recovery, nproc()) {
        Ok(r) => println!("  clean copy: accepted, {} txns replayed", r.txns),
        Err(e) => {
            println!("  clean copy: REJECTED ({e}) — the check has a false positive");
            ok = false;
        }
    }
    type Corrupt = fn(&StorageSet) -> String;
    let corruptions: [(&str, Corrupt); 2] = [
        ("flipped byte", image::flip_log_byte),
        ("deleted file", image::delete_log_file),
    ];
    for (what, corrupt) in corruptions {
        let copy = image::copy(&image.storage);
        let done = corrupt(&copy);
        match checked_recover(&with_storage(copy), spec.recovery, nproc()) {
            Err(e) => println!("  {what}: {done}: rejected ({e})"),
            Ok(r) => {
                println!(
                    "  {what}: {done}: ACCEPTED with a recovery time of {:.3} s — \
                     the check missed it",
                    r.total_secs
                );
                ok = false;
            }
        }
    }
    println!(
        "selftest {}: {}",
        spec.name,
        if ok { "pass" } else { "FAIL" }
    );
    ok
}

/// Run every repetition. Failed checks go to `problems`; the second value
/// counts recoveries that were rejected, the third holds the standalone
/// layers a traced run measures on its last image.
fn run_reps(
    spec: &Spec,
    workload: &dyn Workload,
    opts: &Opts,
    n: u64,
    trace: &mut Trace,
    problems: &mut Vec<String>,
) -> (Vec<Rep>, u64, Option<Extras>) {
    let mut reps: Vec<Rep> = Vec::new();
    let mut rejected = 0u64;
    let mut extras = None;
    for r in 0..spec.reps {
        // A traced run alternates, ending on a traced repetition (whose
        // spans are written out); the untraced ones are the baseline its
        // overhead and the telescoping check are measured against.
        let traced = opts.trace && (spec.reps - 1 - r).is_multiple_of(2);
        trace.reset(if traced { 3 * n as usize + 64 } else { 64 });
        let root = trace.open(Name::Rep, NO_PARENT, r as u32);
        let (mut rep, image) =
            match commit_and_crash(spec, workload, opts.seed, n, traced, trace, r as u32, root) {
                Ok(done) => done,
                Err(e) => {
                    problems.push(format!("rep {r}: {e}"));
                    break;
                }
            };
        let before = image.storage.total_stats();
        let mut timed_recover = |threads: usize| {
            trace
                .scoped(Name::Recover, root, threads as u32, || {
                    checked_recover(&image, spec.recovery, threads)
                })
                .unwrap_or_else(|e| {
                    rejected += 1;
                    problems.push(format!("rep {r}: {e}"));
                    RecoveryReport::default()
                })
        };
        rep.rec_n = timed_recover(nproc());
        rep.bytes_read_recover = rep::delta(image.storage.total_stats(), before).bytes_read;
        rep.rec_1 = timed_recover(1);
        if opts.trace && r == spec.reps - 1 {
            match rep::measure_extras(spec, &image, trace, root) {
                Ok(measured) => extras = Some(measured),
                Err(e) => problems.push(format!("rep {r}: {e}")),
            }
        }
        trace.close(root);
        if rep.failed() > 0 {
            problems.push(format!(
                "rep {r}: of {} logged transactions {} were given up after retries or \
                 still unacknowledged at the drain deadline",
                rep.logged(),
                rep.failed()
            ));
        }
        if rep.log_bytes != rep.staged_bytes() {
            problems.push(format!(
                "rep {r}: {} log bytes reached the devices, {} were staged",
                rep.log_bytes,
                rep.staged_bytes()
            ));
        }
        println!(
            "# rep {r}{}: setup {:.3} s, {} txn in {:.3} s, {} logged, {} B log, \
             recover {:.3} s / {:.3} s (1t), {} replayed",
            if traced { " (traced)" } else { "" },
            rep.setup_s,
            n,
            rep.commit.wall_ns as f64 / 1e9,
            rep.logged(),
            rep.log_bytes,
            rep.rec_n.total_secs,
            rep.rec_1.total_secs,
            rep.rec_n.txns,
        );
        reps.push(rep);
    }
    (reps, rejected, extras)
}

/// Set-up times: the repetitions' own plus standalone samples (see
/// `SETUP_BUDGET_S`).
fn setup_samples(spec: &Spec, workload: &dyn Workload, reps: &[Rep]) -> Vec<f64> {
    let mut samples: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut trace = Trace::new();
    while samples.iter().sum::<f64>() < SETUP_BUDGET_S && samples.len() < SETUP_SAMPLES_MAX {
        let live = rep::set_up(spec, workload, &mut trace, 0, NO_PARENT);
        live.durability.crash();
        samples.push(live.setup_s);
    }
    samples
}

fn main() {
    let opts = parse_args();
    let Some(spec) = SPECS.iter().find(|s| s.name == opts.workload) else {
        usage()
    };
    let mut n = (spec.txns_per_second * opts.seconds).max(1);
    if opts.smoke {
        n = (n / SMOKE_DIVISOR).max(1);
    }
    if opts.selftest {
        std::process::exit(if selftest(spec, &opts, n) { 0 } else { 1 });
    }

    let head = header(spec, &opts, n);
    println!("# pacman benchmark");
    for (k, v) in &head {
        println!("# {k}: {}", v.render());
    }

    let workload = (spec.workload)();
    let mut trace = Trace::new();
    let mut problems: Vec<String> = Vec::new();
    let (reps, rejected, extras) =
        run_reps(spec, workload.as_ref(), &opts, n, &mut trace, &mut problems);

    // Determinism guard.
    let exact = reps
        .first()
        .map(|rep| exact_counts(spec, rep))
        .unwrap_or_default();
    for (r, rep) in reps.iter().enumerate().skip(1) {
        if exact_counts(spec, rep) != exact {
            problems.push(format!(
                "rep {r}: exact counts {:?} differ from rep 0's {exact:?}",
                exact_counts(spec, rep)
            ));
        }
    }

    let metrics = if !problems.is_empty() {
        Metrics(Vec::new())
    } else if let Some(extras) = &extras {
        metrics::per_layer(&reps, extras, n)
    } else {
        metrics::end_to_end(&reps, setup_samples(spec, workload.as_ref(), &reps), n)
    };
    for m in &metrics.0 {
        if !m.value().is_finite() {
            problems.push(format!("metric {} is missing", m.name));
        }
        // A full-size run must telescope; a smoke run is all fixed costs.
        if m.name.ends_with("telescope_gap_pct") && !opts.smoke && m.value() > TELESCOPE_LIMIT_PCT {
            problems.push(format!(
                "{} = {:.2}% exceeds {TELESCOPE_LIMIT_PCT}%",
                m.name,
                m.value()
            ));
        }
    }

    let attempted = n * spec.reps as u64;
    let failed = (reps.iter().map(Rep::failed).sum::<u64>() + rejected * n).min(attempted);
    let correct = problems.is_empty();

    if let Some(rep) = reps.first() {
        println!(
            "# latency samples per repetition: {}",
            rep.commit.latency_ns.len()
        );
    }
    for m in &metrics.0 {
        println!("{:<40} {:>16.4} {}", m.name, m.value(), m.unit);
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }

    let result = |with_reps: bool| {
        let metrics = metrics
            .0
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Float(m.value())),
                    ("unit".to_string(), Json::Str(m.unit.to_string())),
                ];
                if with_reps {
                    let reps = m.reps.iter().map(|v| Json::Float(*v)).collect();
                    fields.push(("reps".to_string(), Json::Arr(reps)));
                }
                (m.name.to_string(), Json::Obj(fields))
            })
            .collect();
        vec![
            ("correct".to_string(), Json::Bool(correct)),
            ("attempted".to_string(), Json::Int(attempted)),
            ("failed".to_string(), Json::Int(failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ]
    };

    // The result file: header, exact counts, problems and per-repetition
    // values on top of what the last stdout line carries.
    std::fs::create_dir_all(&opts.out).expect("create the output directory");
    let stem = if opts.trace {
        format!("trace-{}", spec.name)
    } else {
        spec.name.to_string()
    };
    let exact_json = exact
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Int(*v)))
        .collect();
    let mut file = vec![
        ("header".to_string(), Json::Obj(head)),
        ("exact".to_string(), Json::Obj(exact_json)),
        (
            "problems".to_string(),
            Json::Arr(problems.iter().map(|p| Json::Str(p.clone())).collect()),
        ),
    ];
    if opts.trace {
        let names = Name::ALL
            .iter()
            .map(|(_, label)| Json::Str(label.to_string()))
            .collect();
        file.push(("span_names".to_string(), Json::Arr(names)));
        file.push(("spans".to_string(), Json::Int(trace.len() as u64)));
        trace
            .write_to(&opts.out.join(format!("{stem}.spans")))
            .expect("write the spans");
    }
    file.extend(result(true));
    std::fs::write(
        opts.out.join(format!("{stem}.json")),
        Json::Obj(file).render_pretty(),
    )
    .expect("write the result file");

    if !correct {
        // No result line: a failed check must not leave a number behind.
        std::process::exit(1);
    }
    println!("{}", Json::Obj(result(false)).render());
}
