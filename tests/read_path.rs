//! Concurrency stress for the latch-free engine read path.
//!
//! The newest slot on `TupleChain` is a seqlock-published
//! `(ts, image pointer, image length)` triple with a reader-presence
//! counter guarding image reclamation. These tests race lock-free readers
//! against latched installers (and an unlatched installer of stale
//! last-writer-wins writes) and assert, in the style of the `obs` ring tests, that a torn observation
//! is impossible:
//!
//! * every row read is internally consistent and is, byte for byte and
//!   length for length, the image installed under the timestamp its first
//!   column names — images differ in arity and string lengths from one
//!   timestamp to the next, so a read that paired one image's pointer with
//!   another image's length would not be;
//! * `newest()` pairs the row with exactly the timestamp it was installed
//!   under (no mixing of one install's ts with another's row);
//! * `newest_ts()` is monotone from any single observer;
//! * the fast path completes while another thread holds the chain's
//!   `Mutex` — i.e. it really is lock-free.

use pacman_common::{LogicalClock, Row, Value};
use pacman_engine::TupleChain;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

/// A self-checking image: `col(0) = ts`, `col(1) = !ts`, then `ts % 5`
/// strings whose lengths also follow from `ts`, so consecutive installs
/// differ in arity and byte length. Any torn mix of two installs breaks one
/// of the equalities below.
fn tagged_row(ts: u64) -> Row {
    let mut cols = vec![Value::Int(ts as i64), Value::Int(!(ts as i64))];
    for i in 0..ts % 5 {
        cols.push(Value::str(&"x".repeat(((ts + 7 * i) % 41) as usize)));
    }
    Row::new(cols)
}

fn assert_tagged(row: &Row, expect_ts: Option<u64>, what: &str) {
    let a = row.col(0).as_int().unwrap();
    let b = row.col(1).as_int().unwrap();
    assert_eq!(b, !a, "{what}: torn row image (cols {a} / {b})");
    let want = tagged_row(a as u64);
    assert_eq!(
        row.byte_size(),
        want.byte_size(),
        "{what}: image length from another install"
    );
    assert_eq!(row, &want, "{what}: image bytes from another install");
    if let Some(ts) = expect_ts {
        assert_eq!(a, ts as i64, "{what}: row from a different install");
    }
}

const WRITERS: usize = 3;
const INSTALLS_PER_WRITER: u64 = 2_000;
const READERS: usize = 3;
/// Each reader performs at least this many check iterations even if the
/// writers finish first (release-mode installs can outrun thread spawn
/// on a small box; the checks must still run).
const MIN_READS: u64 = 1_000;
/// Writers' clock starts above the stale installer's fixed range, so its
/// installs always lose.
const CLOCK_BASE: u64 = 1_000;
const STALE_RANGE: u64 = 50;

#[test]
fn slot_readers_never_observe_torn_state() {
    let chain = Arc::new(TupleChain::new());
    let clock = Arc::new(LogicalClock::new());
    // `tick()` hands out the pre-increment value, so start one past the
    // seeded version's timestamp.
    clock.advance_to(CLOCK_BASE + 1);
    chain.install_lww(CLOCK_BASE, Some(tagged_row(CLOCK_BASE)));
    let done = Arc::new(AtomicBool::new(false));
    // Line everyone up before the first install so the readers actually
    // race the writers instead of starting after they finish.
    let start = Arc::new(Barrier::new(WRITERS + 1 + READERS));

    let mut handles = Vec::new();
    // Latched installers: the normal commit shape.
    for _ in 0..WRITERS {
        let chain = Arc::clone(&chain);
        let clock = Arc::clone(&clock);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            start.wait();
            for _ in 0..INSTALLS_PER_WRITER {
                let _g = chain.latch.guard();
                let ts = clock.tick();
                chain.install_committed(ts, Some(tagged_row(ts)), None);
            }
        }));
    }
    // Unlatched stale installer: recovery-shaped last-writer-wins writes
    // below the newest version, exercising the stale-loses path under the
    // Mutex and the slot's no-op publish.
    {
        let chain = Arc::clone(&chain);
        let done = Arc::clone(&done);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            start.wait();
            let mut ts = 1u64;
            while !done.load(Ordering::Relaxed) {
                chain.install_lww(ts, Some(tagged_row(ts)));
                ts = ts % STALE_RANGE + 1;
            }
        }));
    }

    let mut readers = Vec::new();
    for _ in 0..READERS {
        let chain = Arc::clone(&chain);
        let done = Arc::clone(&done);
        let start = Arc::clone(&start);
        readers.push(std::thread::spawn(move || {
            start.wait();
            let mut last_ts = 0u64;
            let mut observed = 0u64;
            while observed < MIN_READS || !done.load(Ordering::Relaxed) {
                // Pair consistency: the ts and row of one install, never a mix.
                let (ts, row) = chain.newest();
                if let Some(row) = &row {
                    assert_tagged(row, Some(ts), "newest()");
                }
                assert!(ts >= last_ts, "newest() ts went backwards");
                assert!(ts >= CLOCK_BASE, "a stale install won: {ts}");
                last_ts = ts;

                // Monotonicity of the bare ts load.
                let t2 = chain.newest_ts();
                assert!(t2 >= last_ts, "newest_ts() went backwards");
                last_ts = t2;
                observed += 1;
            }
            observed
        }));
    }

    for h in handles.drain(..WRITERS) {
        h.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let total_reads: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(
        total_reads >= READERS as u64 * MIN_READS,
        "readers never ran"
    );

    // Final state: the last install is exactly what the slot serves.
    let final_ts = CLOCK_BASE + WRITERS as u64 * INSTALLS_PER_WRITER;
    let (ts, row) = chain.newest();
    assert_eq!(ts, final_ts);
    assert_tagged(&row.unwrap(), Some(final_ts), "final newest()");
}

/// The fast path must complete while another thread holds the chain's
/// `Mutex` — if `newest()` or `newest_ts()` ever took that lock, this test
/// would deadlock instead of finishing.
#[test]
fn fast_path_reads_complete_while_version_mutex_is_held() {
    let chain = Arc::new(TupleChain::with_version(7, Some(tagged_row(7))));
    let c2 = Arc::clone(&chain);
    chain.with_versions_locked(move || {
        let reader = std::thread::spawn(move || {
            for _ in 0..1_000 {
                let (ts, row) = c2.newest();
                assert_eq!(ts, 7);
                assert_tagged(&row.unwrap(), Some(7), "newest() under held lock");
                assert_eq!(c2.newest_ts(), 7);
            }
        });
        reader.join().unwrap();
    });
}

/// Reads share one image per version: no per-read materialization.
#[test]
fn concurrent_reads_share_row_images() {
    let chain = Arc::new(TupleChain::with_version(3, Some(tagged_row(3))));
    let images: Vec<_> = (0..4)
        .map(|_| {
            let c = Arc::clone(&chain);
            std::thread::spawn(move || c.newest().1.unwrap())
        })
        .map(|h| h.join().unwrap())
        .collect();
    for w in images.windows(2) {
        assert!(
            Row::ptr_eq(&w[0], &w[1]),
            "readers materialized separate images"
        );
    }
}
