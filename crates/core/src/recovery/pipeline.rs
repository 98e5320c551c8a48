//! The one read pipeline behind every bulk recovery read: checkpoint
//! parts, offline LLR-P's log files, and LLR's and PLR's
//! (`docs/RECOVERY.md`, "The read pipeline").
//!
//! A reader per device does nothing but the paced read; the readers feed
//! one bounded channel, and N consumers take files off it. The first
//! error, whoever meets it, is latched in a [`FirstError`] the caller may
//! share with stages downstream of the consumers: readers stop claiming
//! and consumers leave. The receiver is owned by the consumers alone and
//! goes with the last of them (on an error or a panic alike), which fails
//! the `send` of any reader still blocked on the full channel, so nobody
//! is left waiting.

use bytes::Bytes;
use pacman_common::{Error, Result};
use pacman_storage::StorageSet;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Files the readers may queue ahead of the consumers. At most 3: offline
/// LLR-P holds reader + queue + indexer + a lane's channel (2) + the lane
/// in flight, and `llr_p_stops_reading_at_the_first_error` allows 8 files.
pub(crate) const QUEUE: usize = 3;

/// The first error met by any stage of a read. Every stage stops once it
/// is set; later errors are dropped.
#[derive(Default)]
pub(crate) struct FirstError(Mutex<Option<Error>>);

impl FirstError {
    /// Latch `e` unless an error is latched already.
    pub(crate) fn set(&self, e: Error) {
        self.0.lock().get_or_insert(e);
    }

    /// Whether an error is latched.
    pub(crate) fn is_set(&self) -> bool {
        self.0.lock().is_some()
    }

    /// `Err` with the latched error, `Ok` if there is none.
    pub(crate) fn check(&self) -> Result<()> {
        self.0.lock().clone().map_or(Ok(()), Err)
    }
}

/// One file off its device, on its way to a consumer.
pub(crate) struct Read {
    /// Index of the file in the list given to [`read_all`].
    pub unit: usize,
    /// Whether `prefer` held for the file when its reader claimed it.
    pub preferred: bool,
    /// Time its reader spent in the device read.
    pub read: Duration,
    /// The file's contents.
    pub bytes: Bytes,
}

/// What the readers took.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Reload {
    /// When the last byte left its device, measured from the call.
    pub last_byte: Duration,
    /// The longest of the readers' summed device reads.
    pub longest_reader: Duration,
}

/// Read `files` — `(device, name)`, each device's in list order, device
/// indices wrapping as [`StorageSet::disk`]'s do — and hand
/// each to one of `consumers` threads running `consume`. A reader claims
/// the first file of its device for which `prefer` holds, else the next
/// one. Returns once every reader and consumer is gone, with the first
/// error latched in `errors` by then.
pub(crate) fn read_all(
    storage: &StorageSet,
    files: Vec<(usize, String)>,
    consumers: usize,
    errors: &FirstError,
    prefer: impl Fn(usize) -> bool + Sync,
    consume: impl Fn(Read) -> Result<()> + Sync,
) -> Result<Reload> {
    let t0 = Instant::now();
    let disks = storage.num_disks();
    let mut queues: Vec<VecDeque<(usize, String)>> = vec![VecDeque::new(); disks];
    for (unit, (disk, name)) in files.into_iter().enumerate() {
        queues[disk % disks].push_back((unit, name));
    }
    let (tx, rx) = crossbeam::channel::bounded::<Read>(QUEUE);
    let rx = Arc::new(Mutex::new(rx));

    let reload = crossbeam::thread::scope(|scope| {
        let readers: Vec<_> = queues
            .into_iter()
            .enumerate()
            .filter(|(_, queue)| !queue.is_empty())
            .map(|(disk, mut queue)| {
                let tx = tx.clone();
                let prefer = &prefer;
                scope.spawn(move |_| {
                    let mut reload = Reload::default();
                    while !queue.is_empty() && !errors.is_set() {
                        let hit = queue.iter().position(|&(unit, _)| prefer(unit));
                        let (unit, name) = queue
                            .remove(hit.unwrap_or(0))
                            .expect("claimed from a non-empty queue");
                        let t = Instant::now();
                        let read = storage.disk(disk).read(&name);
                        let took = t.elapsed();
                        reload.longest_reader += took;
                        reload.last_byte = t0.elapsed();
                        let file = match read {
                            Ok(bytes) => Read {
                                unit,
                                preferred: hit.is_some(),
                                read: took,
                                bytes,
                            },
                            Err(e) => {
                                errors.set(e);
                                break;
                            }
                        };
                        if tx.send(file).is_err() {
                            break;
                        }
                    }
                    reload
                })
            })
            .collect();
        // A receive ends when the last reader is gone, a send when the last
        // consumer is.
        drop(tx);
        for _ in 0..consumers.max(1) {
            let rx = Arc::clone(&rx);
            let consume = &consume;
            scope.spawn(move |_| loop {
                // One consumer waits in `recv`, the others on the lock.
                let next = rx.lock().recv();
                match next {
                    Ok(file) if !errors.is_set() => {
                        if let Err(e) = consume(file) {
                            return errors.set(e);
                        }
                    }
                    _ => return,
                }
            });
        }
        drop(rx);
        readers
            .into_iter()
            .map(|r| r.join().expect("recovery reader"))
            .fold(Reload::default(), |a, b| Reload {
                last_byte: a.last_byte.max(b.last_byte),
                longest_reader: a.longest_reader.max(b.longest_reader),
            })
    })
    .expect("recovery read scope");
    errors.check().map(|()| reload)
}

/// `f` on its own thread; a read that has not returned after 20 s is hung
/// (an unthrottled one takes milliseconds).
#[cfg(test)]
pub(crate) fn within_bounded_wait<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(Duration::from_secs(20))
        .expect("recovery read hung on its error path")
}
