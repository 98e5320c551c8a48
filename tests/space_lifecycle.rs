//! Durable-space lifecycle, end to end: live log+checkpoint bytes stay
//! bounded under continuous churn while a lagging standby first *pins*
//! the log through its subscriber retention hold and is then
//! *force-broken* by the bounded-lag policy — after which the broken
//! standby re-bootstraps (Reset → resync onto the fresh chain tip) and
//! converges to a fingerprint equal to the never-lagged run.
//!
//! Determinism mirrors `failover_equivalence.rs`: a single worker applies
//! seeded transaction phases sequentially and waits for durability
//! between phases, so the reference (the same phases applied with no
//! replication and no crash) is byte-for-byte comparable by fingerprint.
//! The only timing-dependent waits are on the live checkpointer's
//! reclaim rounds, with generous timeouts.

mod common;

use common::LoggingWorker;
use pacman_core::recovery::RecoveryScheme;
use pacman_core::replication::{pump, start_standby, wire, StandbyConfig};
use pacman_engine::{run_procedure_with_epoch, Database};
use pacman_wal::{Durability, DurabilityConfig, LogScheme};
use pacman_workloads::smallbank::Smallbank;
use pacman_workloads::Workload;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PHASE_TXNS: usize = 400;
const LAG_BOUND: u64 = 6 * 1024;

fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        scheme: LogScheme::Logical,
        num_loggers: 2,
        epoch_interval: Duration::from_millis(2),
        batch_epochs: 8,
        checkpoint_interval: Some(Duration::from_millis(25)),
        checkpoint_threads: 2,
        checkpoint_incremental: true,
        checkpoint_max_chain: 4,
        max_subscriber_lag_bytes: Some(LAG_BOUND),
        fsync: true,
        ..Default::default()
    }
}

fn phase_txns(
    workload: &dyn Workload,
    phase: u64,
) -> Vec<(pacman_common::ProcId, pacman_sproc::Params)> {
    let mut rng = SmallRng::seed_from_u64(0x5BACE ^ phase);
    (0..PHASE_TXNS)
        .map(|_| workload.next_txn(&mut rng))
        .collect()
}

/// Apply one phase in small chunks. With `pump_into` set (a healthy
/// subscriber) every chunk boundary pumps the shipper, so the cursor's
/// retention hold tracks the frontier and a concurrent reclaim round
/// never sees it lagging. Without it (the lagging phase) chunks are
/// spaced out so the phase's records spread across several batch files —
/// the post-break live tail is then a fraction of the phase, not all of
/// it.
fn apply_phase(
    db: &Arc<Database>,
    workload: &dyn Workload,
    dur: &Arc<Durability>,
    phase: u64,
    pump_into: Option<(
        &pacman_wal::LogShipper,
        &pacman_core::replication::FrameSender,
    )>,
) {
    let registry = workload.registry();
    let mut worker = LoggingWorker::new(dur, 0);
    for (i, (pid, params)) in phase_txns(workload, phase).into_iter().enumerate() {
        worker.run(db, &registry, pid, &params);
        if (i + 1) % 25 == 0 {
            if let Some((shipper, tx)) = pump_into {
                let _ = pump(shipper, dur.pepoch(), tx);
            }
            std::thread::sleep(Duration::from_millis(3));
        }
    }
    dur.wait_durable(worker.retire());
    if let Some((shipper, tx)) = pump_into {
        let _ = pump(shipper, dur.pepoch(), tx);
    }
}

/// The never-lagged reference: all three phases applied back to back.
fn reference_fingerprint(workload: &dyn Workload) -> pacman_common::Fingerprint {
    let db = Arc::new(Database::new(workload.catalog()));
    workload.load(&db);
    let registry = workload.registry();
    for phase in [1, 2, 3] {
        for (pid, params) in phase_txns(workload, phase) {
            let proc = registry.get(pid).expect("registered");
            run_procedure_with_epoch(&db, proc, &params, || phase)
                .expect("sequential txns never abort");
        }
    }
    db.fingerprint()
}

/// Pump with retries: a bootstrap pass on a live primary can transiently
/// race the checkpointer's compaction+prune and asks to be retried.
fn pump_retrying(
    shipper: &pacman_wal::LogShipper,
    pepoch: u64,
    tx: &pacman_core::replication::FrameSender,
) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match pump(shipper, pepoch, tx) {
            Ok(_) => return,
            Err(e) if Instant::now() < deadline => {
                eprintln!("pump retry: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("pump never succeeded: {e}"),
        }
    }
}

/// Wait until `cond` holds, polling, with a hard timeout.
fn wait_for(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let t0 = Instant::now();
    while !cond() {
        assert!(t0.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn lagging_standby_is_broken_then_rebootstraps_bounded() {
    let sb = Smallbank {
        accounts: 512,
        ..Smallbank::default()
    };
    let reference = reference_fingerprint(&sb);
    let registry = sb.registry();
    let storage =
        pacman_storage::StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("prim"));

    let db = Arc::new(Database::new(sb.catalog()));
    sb.load(&db);
    pacman_wal::run_checkpoint(&db, &storage, 2).expect("initial checkpoint");
    // One full snapshot's footprint: the yardstick the chain-bounded
    // checkpoint namespace is measured against below.
    let full_ckpt_bytes = storage.live_bytes("ckpt/");
    let dur = Durability::start(Arc::clone(&db), storage.clone(), durability_config());
    let shipper = dur.shipper();
    let (tx, rx) = wire();
    let standby = start_standby(
        pacman_storage::StorageSet::identical(2, pacman_storage::DiskConfig::unthrottled("stby")),
        &sb.catalog(),
        &registry,
        &StandbyConfig {
            scheme: RecoveryScheme::LlrP,
            threads: 2,
        },
        rx,
    )
    .expect("standby start");

    // Phase 1 — healthy: ship and catch up. The subscriber hold tracks
    // the shipped frontier, so reclaim rounds can follow the cursor.
    apply_phase(&db, &sb, &dur, 1, Some((&shipper, &tx)));
    // Capture the frontier before the final pump: the live epoch manager
    // keeps sealing (empty) epochs, so `pepoch` never stops moving.
    let shipped = dur.pepoch();
    pump_retrying(&shipper, shipped, &tx);
    assert!(
        standby.wait_caught_up(shipped, Duration::from_secs(10)),
        "healthy standby never caught up: {:?} / {:?}",
        standby.stats(),
        standby.error()
    );
    assert_eq!(dur.holds_broken(), 0, "a healthy cursor must never break");

    // Phase 2 — the subscriber goes silent while churn continues. Its
    // hold first pins the log (nothing below the cursor is reclaimed),
    // then the retained bytes pass the bound and a reclaim round breaks
    // it: space comes back even though the subscriber never returned.
    apply_phase(&db, &sb, &dur, 2, None);
    wait_for("the lagging hold to break", Duration::from_secs(20), || {
        dur.holds_broken() >= 1
    });
    // Bounded footprint: with the hold broken and the checkpointer
    // covering the idle tail, the live log returns under the bound.
    wait_for(
        "the live log to shrink under the lag bound",
        Duration::from_secs(20),
        || dur.live_log_bytes() <= LAG_BOUND,
    );
    assert!(dur.reclaimed_log_bytes() > 0, "reclaim never freed bytes");
    assert!(
        dur.live_log_bytes() < dur.bytes_logged(),
        "live log not bounded below the total volume logged"
    );
    // The checkpoint namespace is chain-bounded, not run-length-bounded:
    // at most `max_chain` links (each no bigger than a full snapshot of
    // this fixed-size database) plus a compaction's not-yet-pruned
    // predecessors and manifest overhead.
    assert!(
        dur.live_ckpt_bytes() <= 8 * full_ckpt_bytes.max(1),
        "live checkpoint bytes {} not chain-bounded (full snapshot = {})",
        dur.live_ckpt_bytes(),
        full_ckpt_bytes
    );

    // Phase 3 — the subscriber returns: the shipper self-heals with a
    // Reset + fresh bootstrap cursor and the standby re-bootstraps onto
    // the freshly shipped chain tip instead of erroring.
    pump_retrying(&shipper, dur.pepoch(), &tx);
    wait_for(
        "the standby to re-bootstrap",
        Duration::from_secs(20),
        || standby.stats().rebootstraps >= 1,
    );
    apply_phase(&db, &sb, &dur, 3, Some((&shipper, &tx)));
    let shipped = dur.pepoch();
    pump_retrying(&shipper, shipped, &tx);
    assert!(
        standby.wait_caught_up(shipped, Duration::from_secs(10)),
        "re-bootstrapped standby never caught up: {:?} / {:?}",
        standby.stats(),
        standby.error()
    );
    assert_eq!(shipper.rebootstraps(), standby.stats().rebootstraps);

    // Graceful stop; drain the sealed tail; the re-bootstrapped standby
    // promotes to exactly the never-lagged run's fingerprint.
    dur.shutdown();
    let final_pepoch = pacman_wal::pepoch::PepochHandle::read_persisted(storage.disk(0));
    pump_retrying(&shipper, final_pepoch, &tx);
    assert!(
        standby.wait_caught_up(final_pepoch, Duration::from_secs(10)),
        "standby never settled after the drain"
    );
    let promoted = standby
        .promote(durability_config())
        .expect("promote after re-bootstrap");
    assert_eq!(
        promoted.db.fingerprint(),
        reference,
        "re-bootstrapped standby diverged from the never-lagged run"
    );
    assert_eq!(db.fingerprint(), reference, "primary itself diverged");
    promoted.durability.shutdown();
}
