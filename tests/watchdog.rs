//! Stall-watchdog integration: a frozen ship cursor under live commits
//! and a wedged standby gate must each be detected within
//! `stall_intervals` samples and produce exactly one rate-limited
//! proactive flight-recorder dump — and a clean resume must clear the
//! verdict and re-arm the rule.
//!
//! The watchdog, tracer, and span table are process-wide singletons, so
//! the two tests serialize on a mutex and assert *deltas* of the stall /
//! dump counters, never absolutes.

mod common;

use common::LoggingWorker;
use pacman_common::{ProcId, Row, TableId, Value};
use pacman_core::recovery::register_gate_probe;
use pacman_engine::{Catalog, Database, RecoveryGate};
use pacman_obs::{StallKind, WatchdogConfig};
use pacman_sproc::params;
use pacman_storage::{DiskConfig, StorageSet, TraceDumpSink, TRACE_NAMESPACE};
use pacman_wal::{Durability, DurabilityConfig, LogScheme};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

const T: TableId = TableId::new(0);

/// Serializes the two tests: they step the process-wide watchdog.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Manual-stepping config: tests call `watchdog().sample` directly.
fn cfg() -> WatchdogConfig {
    WatchdogConfig {
        period: Duration::from_millis(1),
        stall_intervals: 2,
        dump_cooldown: Duration::ZERO,
    }
}

fn commit_burst(db: &Database, dur: &Durability, n: u64) -> u64 {
    let mut worker = LoggingWorker::new(dur, 0);
    let em = Arc::clone(dur.epoch_manager());
    for i in 0..n {
        worker.enter();
        let mut t = db.begin();
        let k = i % 64;
        let r = t.read(T, k).unwrap();
        let v = r.col(0).as_int().unwrap();
        t.write(T, k, r.with_col(0, Value::Int(v + 1))).unwrap();
        let info = t.commit_with(|| em.current()).unwrap();
        worker.log(
            &info,
            ProcId::new(0),
            &params([Value::Int(k as i64), Value::Int(1)]),
        );
    }
    worker.retire()
}

/// A live primary keeps committing while its shipper stops pumping: the
/// ship probe (persisted frontier grows, shipped frontier frozen) must
/// declare a stall within `stall_intervals` samples, dump exactly once
/// into the primary's `trace/` namespace, stay quiet while the episode
/// persists, and clear when shipping resumes.
#[test]
fn frozen_ship_cursor_under_commits_stalls_and_dumps_once() {
    let _g = guard();
    let mut c = Catalog::new();
    c.add_table("t", 1);
    let db = Arc::new(Database::new(c));
    for k in 0..64u64 {
        db.seed_row(T, k, Row::from([Value::Int(0)])).unwrap();
    }
    let storage = StorageSet::identical(1, DiskConfig::unthrottled("wd"));
    // The shipper bootstraps from the chain tip, so cover the seed load
    // with a checkpoint before the log starts.
    pacman_wal::run_checkpoint(&db, &storage, 1).unwrap();
    let dur = Durability::start(
        Arc::clone(&db),
        storage.clone(),
        DurabilityConfig {
            scheme: LogScheme::Command,
            num_loggers: 1,
            epoch_interval: Duration::from_millis(1),
            batch_epochs: 4,
            checkpoint_interval: None,
            fsync: true,
            // No sampler thread: this test steps the watchdog itself.
            watchdog: None,
            ..Default::default()
        },
    );

    // Ship once so the ship probe activates (progress frontier > 0) —
    // a shipper-less primary must never read as stalled.
    let e = commit_burst(&db, &dur, 60);
    dur.wait_durable(e);
    let shipper = dur.shipper();
    let frames = shipper.poll(dur.pepoch()).expect("bootstrap ship pass");
    assert!(!frames.is_empty(), "bootstrap pass must ship something");

    let wd = pacman_obs::watchdog();
    let tracer = pacman_obs::tracer();
    tracer.enable();
    let stalls_before = wd.stalls();
    let dumps_before = tracer.dump_count();
    let wd_dumps_before = wd.dump_count();
    let trace_files_before = storage.disk(0).list(TRACE_NAMESPACE).len();

    // Baseline sample, then freeze the cursor while commits keep flowing.
    assert!(
        wd.sample(&cfg()).is_empty(),
        "clean pipeline read as stalled at baseline"
    );
    let mut detected_after = None;
    for round in 1..=3u32 {
        let e = commit_burst(&db, &dur, 20);
        dur.wait_durable(e); // persisted/acked grow; shipped frozen
        let kinds = wd.sample(&cfg());
        if kinds.contains(&StallKind::Ship) {
            detected_after = Some(round);
            break;
        }
        assert!(
            kinds.is_empty(),
            "unexpected verdicts before the ship stall: {kinds:?}"
        );
    }
    // ISSUE acceptance: detection within `stall_intervals` = 2 samples of
    // work growing over a frozen cursor.
    assert_eq!(
        detected_after,
        Some(2),
        "ship stall not declared on the {}nd work-growing sample",
        cfg().stall_intervals
    );
    assert_eq!(wd.stalls(), stalls_before + 1);
    assert_eq!(
        tracer.dump_count(),
        dumps_before + 1,
        "exactly one proactive dump per episode"
    );
    assert_eq!(wd.dump_count(), wd_dumps_before + 1);

    // The dump landed in the primary's trace/ namespace (the boot-time
    // sink) and names its trigger.
    let files = storage.disk(0).list(TRACE_NAMESPACE);
    assert_eq!(
        files.len(),
        trace_files_before + 1,
        "proactive dump missing from trace/: {files:?}"
    );
    let body = storage.disk(0).read(files.last().unwrap()).unwrap();
    let text = String::from_utf8(body.to_vec()).unwrap();
    assert!(text.contains("watchdog"), "dump: {text}");
    assert!(text.contains("Ship"), "dump: {text}");
    assert!(text.contains("StallDetected"), "dump: {text}");

    // Episode persists: more work, still frozen — no re-declaration, no
    // second dump (edge-triggered per episode).
    for _ in 0..2 {
        let e = commit_burst(&db, &dur, 20);
        dur.wait_durable(e);
        assert!(wd.sample(&cfg()).is_empty(), "stall re-declared in-episode");
    }
    assert_eq!(wd.stalls(), stalls_before + 1);
    assert_eq!(
        tracer.dump_count(),
        dumps_before + 1,
        "dump re-fired in-episode"
    );

    // Shipping resumes: the very next sample clears the verdict.
    shipper.poll(dur.pepoch()).expect("resume ship pass");
    wd.sample(&cfg());
    let ship = wd
        .health()
        .into_iter()
        .find(|p| p.name == "ship")
        .expect("ship probe registered");
    assert!(!ship.stalled, "resumed cursor still reads as stalled");

    tracer.disable();
    dur.shutdown();
}

/// A standby gate whose batch feed grows while no partition publishes
/// progress must stall; publishing clears it, and removing the probe
/// (the `Standby` drop path) takes it out of the health report.
#[test]
fn wedged_gate_watermark_stalls_then_clears_and_unregisters() {
    let _g = guard();
    let storage = StorageSet::for_tests();
    let tracer = pacman_obs::tracer();
    tracer.set_sink(
        "watchdog-test",
        Arc::new(TraceDumpSink::new(storage.clone())),
    );
    tracer.enable();

    let gate = RecoveryGate::new(1);
    let id = register_gate_probe(&gate);
    let wd = pacman_obs::watchdog();
    assert!(
        wd.health().iter().any(|p| p.name == "standby.gate"),
        "gate probe missing from health report"
    );

    let stalls_before = wd.stalls();
    let dumps_before = tracer.dump_count();

    // Inactive while the batch total is unknown: no verdict ever forms.
    assert!(wd.sample(&cfg()).is_empty());

    // Wedge: batches keep arriving, the watermark never moves.
    gate.set_total_batches(4);
    assert!(wd.sample(&cfg()).is_empty(), "baseline sample");
    gate.set_total_batches(5);
    assert!(wd.sample(&cfg()).is_empty(), "first stalled interval");
    gate.set_total_batches(6);
    assert_eq!(
        wd.sample(&cfg()),
        vec![StallKind::Gate],
        "wedged gate not declared on the 2nd work-growing sample"
    );
    assert_eq!(wd.stalls(), stalls_before + 1);
    assert_eq!(tracer.dump_count(), dumps_before + 1);
    let files = storage.disk(0).list(TRACE_NAMESPACE);
    assert!(!files.is_empty(), "gate stall produced no dump");
    let text = String::from_utf8(
        storage
            .disk(0)
            .read(files.last().unwrap())
            .unwrap()
            .to_vec(),
    )
    .unwrap();
    assert!(text.contains("Gate"), "dump: {text}");

    // The replayer publishes progress: verdict clears on the next sample.
    gate.publish(0, 3);
    wd.sample(&cfg());
    let probe = wd
        .health()
        .into_iter()
        .find(|p| p.name == "standby.gate")
        .expect("gate probe registered");
    assert!(!probe.stalled, "published watermark still reads as stalled");

    // Drop path: the probe disappears from the health report.
    wd.remove(id);
    assert!(
        wd.health().iter().all(|p| p.name != "standby.gate"),
        "removed gate probe still reporting"
    );

    tracer.remove_sink("watchdog-test");
    tracer.disable();
}
