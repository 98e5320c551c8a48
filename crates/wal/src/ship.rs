//! Log shipping: the primary side of hot-standby replication.
//!
//! The durability subsystem already leaves a complete, self-describing
//! history on the devices — sealed log batches plus the checkpoint
//! manifest chain. Replication is therefore a *read-side* concern: a
//! [`LogShipper`] walks that history behind the pepoch frontier and frames
//! it into a versioned wire stream a standby can apply continuously
//! (Yao et al.'s observation that recovery logs extend naturally to
//! multi-node durability).
//!
//! Stream invariants the standby relies on:
//!
//! * **Only sealed state ships.** Record bytes are shipped exactly up to
//!   the durability frontier passed to [`LogShipper::poll`], so every
//!   shipped record is group-commit durable on the primary and the
//!   standby's copy of the log is always a valid crash image.
//! * **Seal frames delimit apply batches.** After shipping the records of
//!   a frontier advance, the shipper emits [`ShipFrame::Seal`]. Epoch
//!   timestamps give clean separation: every record in a later seal sorts
//!   strictly after every record in an earlier one, which is what lets the
//!   standby apply seal-by-seal with last-writer-wins installs.
//! * **Chain updates ship behind the records they cover.** A checkpoint
//!   manifest is only shipped once `epoch(chain tip ts) <= shipped
//!   pepoch` (the covered records are already on the wire), except for the
//!   bootstrap chain a fresh cursor ships first — the standby loads that
//!   one as its base image and filters shipped records at `ts <= tip`.
//! * **The cursor is resumable, delivery is transactional.**
//!   [`ShipCursor`] tracks per-file byte offsets and the shipped frontier
//!   on the *primary*; [`LogShipper::ship`] commits it only after every
//!   frame of a pass reached the sink, so a link that dies mid-stream
//!   loses nothing — the next pass re-produces the same frames and the
//!   standby dedups redelivered record runs by their file offset. A
//!   brand-new cursor over the same directory replays the full history
//!   instead — that is how a fresh standby bootstraps.
//! * **The cursor is pinned — and bounded.** A shipper attached to a
//!   live [`crate::Durability`] registers a *subscriber*
//!   [`crate::retention::RetentionHold`] and advances it after every
//!   delivered pass, so log GC can never outrun a healthy cursor. A
//!   cursor lagging past the stack's bounded-lag policy is *broken* by
//!   the retention manager instead of pinning unbounded disk; the
//!   shipper then self-heals: the next pass emits [`ShipFrame::Reset`]
//!   and restarts from a fresh bootstrap cursor, which the standby
//!   answers by resyncing onto the newly shipped chain tip.

use crate::batch::batch_name;
use crate::checkpoint::{manifest_name, part_name, read_chain, read_manifest};
use crate::pepoch::stamp_epochs;
use crate::record::RecordView;
use crate::retention::{RetentionHold, RetentionManager};
use bytes::Bytes;
use pacman_common::clock::epoch_of;
use pacman_common::codec::{put_bytes, put_u32, put_u64, Cursor};
use pacman_common::{Decoder, Encoder, Error, Result, Timestamp};
use pacman_storage::StorageSet;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Version of the ship-stream framing. A standby rejects streams whose
/// [`ShipFrame::Hello`] announces a different major version. Version 2
/// added [`ShipFrame::Reset`] (broken-cursor re-bootstrap).
pub const SHIP_WIRE_VERSION: u32 = 2;

/// One frame of the replication stream.
#[derive(Clone, Debug, PartialEq)]
pub enum ShipFrame {
    /// Stream header: wire version plus the log layout the record frames
    /// assume (batch naming derives from both fields).
    Hello {
        /// Framing version ([`SHIP_WIRE_VERSION`]).
        wire_version: u32,
        /// Logger streams of the primary.
        num_loggers: u32,
        /// Epochs per batch file.
        batch_epochs: u64,
    },
    /// Whole log records appended to log file `file` on the standby.
    /// The payload is a run of encoded [`crate::record::TxnLogRecord`]s —
    /// never a partial record. `offset` is the byte position in `file`
    /// where the run starts: the standby checks it against its own copy's
    /// length, which makes redelivery after a failed send (the shipper
    /// only commits its cursor on delivered streams) exactly-once.
    Records {
        /// Log file the bytes extend (`log/<logger>/<batch>`).
        file: String,
        /// Byte offset in `file` where this run starts.
        offset: u64,
        /// Encoded records, sealed on the primary — a zero-copy slice of
        /// the sealed batch file's read buffer on the producing side.
        bytes: Bytes,
    },
    /// A checkpoint blob: one part file or one per-timestamp manifest,
    /// written truncating under `name` on the standby's device `disk`
    /// (manifests resolve parts by device index, so placement ships with
    /// the bytes; a standby with fewer devices wraps the index).
    Blob {
        /// File name (`ckpt/<ts>/...`).
        name: String,
        /// Device index the chain expects the file on.
        disk: u32,
        /// Raw file contents (shared with the read buffer when produced).
        bytes: Bytes,
    },
    /// The tip manifest cutover: written *after* every blob it references
    /// (same crash-ordering as the checkpointer itself).
    ChainTip {
        /// Encoded [`crate::checkpoint::CheckpointManifest`].
        bytes: Bytes,
    },
    /// Everything with `epoch <= pepoch` has been shipped: the standby
    /// persists the frontier and applies the delimited batch.
    Seal {
        /// The shipped durability frontier.
        pepoch: u64,
    },
    /// The subscriber's cursor was invalidated (its retention hold broke
    /// past the bounded-lag policy) and a fresh bootstrap stream follows:
    /// the standby drains its in-flight applies and resyncs its base
    /// image onto the next shipped chain tip instead of erroring out.
    Reset,
}

impl Encoder for ShipFrame {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ShipFrame::Hello {
                wire_version,
                num_loggers,
                batch_epochs,
            } => {
                buf.push(1);
                put_u32(buf, *wire_version);
                put_u32(buf, *num_loggers);
                put_u64(buf, *batch_epochs);
            }
            ShipFrame::Records {
                file,
                offset,
                bytes,
            } => {
                buf.push(2);
                put_bytes(buf, file.as_bytes());
                put_u64(buf, *offset);
                put_bytes(buf, bytes);
            }
            ShipFrame::Blob { name, disk, bytes } => {
                buf.push(3);
                put_bytes(buf, name.as_bytes());
                put_u32(buf, *disk);
                put_bytes(buf, bytes);
            }
            ShipFrame::ChainTip { bytes } => {
                buf.push(4);
                put_bytes(buf, bytes);
            }
            ShipFrame::Seal { pepoch } => {
                buf.push(5);
                put_u64(buf, *pepoch);
            }
            ShipFrame::Reset => {
                buf.push(6);
            }
        }
    }
}

impl Decoder for ShipFrame {
    fn decode(cur: &mut Cursor<'_>) -> Result<Self> {
        match cur.read_u8()? {
            1 => {
                let wire_version = cur.read_u32()?;
                if wire_version != SHIP_WIRE_VERSION {
                    return Err(Error::Corrupt(format!(
                        "unsupported ship wire version {wire_version} (speak {SHIP_WIRE_VERSION})"
                    )));
                }
                Ok(ShipFrame::Hello {
                    wire_version,
                    num_loggers: cur.read_u32()?,
                    batch_epochs: cur.read_u64()?,
                })
            }
            2 => Ok(ShipFrame::Records {
                file: cur.read_str()?.to_string(),
                offset: cur.read_u64()?,
                bytes: Bytes::copy_from_slice(cur.read_bytes()?),
            }),
            3 => Ok(ShipFrame::Blob {
                name: cur.read_str()?.to_string(),
                disk: cur.read_u32()?,
                bytes: Bytes::copy_from_slice(cur.read_bytes()?),
            }),
            4 => Ok(ShipFrame::ChainTip {
                bytes: Bytes::copy_from_slice(cur.read_bytes()?),
            }),
            5 => Ok(ShipFrame::Seal {
                pepoch: cur.read_u64()?,
            }),
            6 => Ok(ShipFrame::Reset),
            t => Err(Error::Corrupt(format!("bad ship frame tag {t}"))),
        }
    }
}

/// Where one subscriber's stream stands. Lives on the primary (it survives
/// the subscriber disconnecting and reattaching); a fresh cursor re-ships
/// the full surviving history, which is exactly the standby bootstrap.
#[derive(Clone, Debug, Default)]
pub struct ShipCursor {
    /// Bytes already shipped per log file.
    offsets: BTreeMap<String, usize>,
    /// Highest pepoch a [`ShipFrame::Seal`] announced.
    shipped_pepoch: u64,
    /// Chain tip timestamp already shipped (0 = none yet).
    shipped_chain_tip: Timestamp,
    /// Checkpoint blobs already on the wire.
    shipped_blobs: BTreeSet<String>,
    /// Whether the Hello frame went out.
    hello_sent: bool,
}

impl ShipCursor {
    /// A fresh cursor: the next poll ships the full history (bootstrap).
    pub fn new() -> ShipCursor {
        ShipCursor::default()
    }

    /// The highest frontier announced so far.
    pub fn shipped_pepoch(&self) -> u64 {
        self.shipped_pepoch
    }

    /// The chain tip timestamp already shipped.
    pub fn shipped_chain_tip(&self) -> Timestamp {
        self.shipped_chain_tip
    }
}

/// Shared ship-volume counters, surfaced through `Durability` stats and
/// bound into the metrics registry as `wal.ship.*`.
#[derive(Debug, Default)]
pub struct ShipCounters {
    bytes: pacman_obs::Counter,
    frames: pacman_obs::Counter,
    records: pacman_obs::Counter,
    resets: pacman_obs::Counter,
}

impl ShipCounters {
    /// Payload bytes shipped (records + blobs).
    pub fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// Frames emitted.
    pub fn frames(&self) -> u64 {
        self.frames.get()
    }

    /// Log records shipped.
    pub fn records(&self) -> u64 {
        self.records.get()
    }

    /// Cursor resets delivered (broken hold → fresh bootstrap cursor).
    pub fn resets(&self) -> u64 {
        self.resets.get()
    }

    /// Bind these counters into `registry` under `wal.ship.*`.
    pub fn register_into(&self, registry: &pacman_obs::MetricsRegistry) {
        registry.bind_counter("wal.ship.bytes", &self.bytes);
        registry.bind_counter("wal.ship.frames", &self.frames);
        registry.bind_counter("wal.ship.records", &self.records);
        registry.bind_counter("wal.ship.resets", &self.resets);
    }
}

/// The primary-side shipping endpoint: reads sealed history off the
/// primary's devices and frames it. Stateless across polls except for the
/// embedded [`ShipCursor`]; safe to keep polling after the primary's
/// durability stack crashed (the devices survive), which is how a failover
/// drains the shipped tail.
pub struct LogShipper {
    storage: StorageSet,
    num_loggers: usize,
    batch_epochs: u64,
    cursor: Mutex<ShipCursor>,
    counters: Arc<ShipCounters>,
    /// Retention manager of the live stack, when attached to one: the
    /// cursor's unshipped tail is pinned there as a subscriber hold.
    retention: Option<Arc<RetentionManager>>,
    hold: Mutex<Option<RetentionHold>>,
}

impl LogShipper {
    /// A shipper over `storage` with a fresh (bootstrap) cursor and no
    /// retention pin — the post-mortem shape (draining a dead primary's
    /// devices, where nothing reclaims concurrently).
    /// `num_loggers`/`batch_epochs` must match the durability config that
    /// wrote the directory.
    pub fn new(storage: StorageSet, num_loggers: usize, batch_epochs: u64) -> LogShipper {
        Self::with_counters(storage, num_loggers, batch_epochs, Arc::default())
    }

    /// [`LogShipper::new`] wiring ship-volume counters (shared with the
    /// primary's `Durability` stats).
    pub fn with_counters(
        storage: StorageSet,
        num_loggers: usize,
        batch_epochs: u64,
        counters: Arc<ShipCounters>,
    ) -> LogShipper {
        LogShipper {
            storage,
            num_loggers: num_loggers.max(1),
            batch_epochs: batch_epochs.max(1),
            cursor: Mutex::new(ShipCursor::new()),
            counters,
            retention: None,
            hold: Mutex::new(None),
        }
    }

    /// [`LogShipper::with_counters`] additionally pinning the cursor's
    /// unshipped tail as a subscriber hold in `retention` (the live-stack
    /// shape, built by `Durability::shipper`). The hold advances after
    /// every delivered pass; if the bounded-lag policy breaks it, the
    /// next pass self-heals with [`ShipFrame::Reset`] + a fresh cursor.
    pub fn with_retention(
        storage: StorageSet,
        num_loggers: usize,
        batch_epochs: u64,
        counters: Arc<ShipCounters>,
        retention: Arc<RetentionManager>,
    ) -> LogShipper {
        let hold = retention.pin_subscriber();
        LogShipper {
            storage,
            num_loggers: num_loggers.max(1),
            batch_epochs: batch_epochs.max(1),
            cursor: Mutex::new(ShipCursor::new()),
            counters,
            retention: Some(retention),
            hold: Mutex::new(Some(hold)),
        }
    }

    /// Snapshot of the cursor (reconnect diagnostics / tests).
    pub fn cursor(&self) -> ShipCursor {
        self.cursor.lock().clone()
    }

    /// Payload bytes shipped so far.
    pub fn shipped_bytes(&self) -> u64 {
        self.counters.bytes()
    }

    /// Frames emitted so far.
    pub fn shipped_frames(&self) -> u64 {
        self.counters.frames()
    }

    /// Log records shipped so far.
    pub fn shipped_records(&self) -> u64 {
        self.counters.records()
    }

    /// Cursor resets delivered so far (broken hold → re-bootstrap).
    pub fn rebootstraps(&self) -> u64 {
        self.counters.resets()
    }

    /// Produce every frame the stream owes given durability frontier
    /// `pepoch` and advance the cursor. Prefer [`LogShipper::ship`] when
    /// delivering over a fallible link: `poll` commits the cursor
    /// unconditionally, so frames it returns must not be dropped.
    pub fn poll(&self, pepoch: u64) -> Result<Vec<ShipFrame>> {
        let mut cur = self.cursor.lock();
        let mut scratch = cur.clone();
        let mut p = self.produce(&mut scratch, pepoch)?;
        *cur = scratch;
        self.commit_pass(&cur, &mut p);
        for f in &p.frames {
            stamp_seal(p.prev_shipped, f);
        }
        Ok(p.frames)
    }

    /// Produce the owed frames and deliver each through `sink`,
    /// committing the cursor **only if every delivery succeeded** — a
    /// link that dies mid-stream leaves the cursor untouched, so the next
    /// `ship` re-produces the same frames (the standby dedups redelivered
    /// record runs by file offset). Returns the number of frames sent.
    ///
    /// A `Seal`'s epochs are stamped `Shipped` in the span table as soon as
    /// the sink accepts that frame, before the pass commits, so a standby
    /// that applies the unit at once still finds the stamp its
    /// `standby.apply_lag` sample is measured from. A pass that fails
    /// after a seal keeps those stamps: the span table keeps the first
    /// stamp, and the retry re-ships the same epochs.
    pub fn ship(
        &self,
        pepoch: u64,
        mut sink: impl FnMut(&ShipFrame) -> Result<()>,
    ) -> Result<usize> {
        let mut cur = self.cursor.lock();
        let mut scratch = cur.clone();
        let mut p = self.produce(&mut scratch, pepoch)?;
        for f in &p.frames {
            sink(f)?;
            stamp_seal(p.prev_shipped, f);
        }
        *cur = scratch;
        self.commit_pass(&cur, &mut p);
        Ok(p.frames.len())
    }

    /// Commit the side effects of a delivered pass: fold the counters,
    /// install the fresh subscriber hold a delivered reset carried, and
    /// advance the hold past everything the cursor no longer owes — the
    /// shipped frontier, plus anything the shipped chain tip covers.
    fn commit_pass(&self, cur: &ShipCursor, p: &mut Produced) {
        self.commit_counters(p);
        if !p.frames.is_empty() {
            pacman_obs::tracer().emit(pacman_obs::TraceEvent::ShipPass {
                frames: p.frames.len() as u64,
                bytes: p.bytes,
            });
        }
        if self.retention.is_some() {
            let mut hold = self.hold.lock();
            if let Some(fresh) = p.new_hold.take() {
                self.counters.resets.inc();
                pacman_obs::tracer().emit(pacman_obs::TraceEvent::ShipReset {
                    resets: self.counters.resets(),
                });
                *hold = Some(fresh); // the broken predecessor releases here
            }
            if let Some(h) = hold.as_ref() {
                let mut floor = epoch_of(cur.shipped_chain_tip);
                if cur.shipped_pepoch > 0 {
                    floor = floor.max(cur.shipped_pepoch + 1);
                }
                h.advance_log(floor);
            }
        }
    }

    /// The frame-production body: Hello (first poll), checkpoint-chain
    /// updates whose covered records are already shipped, new sealed
    /// record runs, and a closing Seal when the frontier advanced. An
    /// idle primary yields an empty vec. Mutates only `cur` (the caller's
    /// scratch cursor); counters are committed separately.
    fn produce(&self, cur: &mut ShipCursor, pepoch: u64) -> Result<Produced> {
        let mut out = Produced {
            prev_shipped: cur.shipped_pepoch,
            ..Produced::default()
        };

        // Broken hold: the bounded-lag policy invalidated this cursor —
        // the history it pointed into may be reclaimed. Self-heal: tell
        // the standby a re-bootstrap follows, then restart from a fresh
        // cursor over the surviving history (current chain + live log).
        // The replacement hold is pinned *before* anything is read, so a
        // reclaim racing this pass cannot delete what the fresh cursor is
        // about to ship; it only takes effect at commit — if delivery
        // fails, the guard drops, the broken hold stays in place, and the
        // next pass re-detects it, so the reset is never lost.
        let broken = self
            .hold
            .lock()
            .as_ref()
            .map(|h| h.is_broken())
            .unwrap_or(false);
        if broken {
            out.frames.push(ShipFrame::Reset);
            out.new_hold = self.retention.as_ref().map(|r| r.pin_subscriber());
            *cur = ShipCursor {
                hello_sent: cur.hello_sent,
                ..ShipCursor::default()
            };
        }

        if !cur.hello_sent {
            out.frames.push(ShipFrame::Hello {
                wire_version: SHIP_WIRE_VERSION,
                num_loggers: self.num_loggers as u32,
                batch_epochs: self.batch_epochs,
            });
            cur.hello_sent = true;
        }

        // Bootstrap: a fresh cursor ships the current chain *before* any
        // records — the standby loads it as its base image and filters
        // shipped records at `ts <= tip`.
        let bootstrap = cur.shipped_pepoch == 0 && cur.offsets.is_empty();
        if bootstrap {
            self.ship_chain(cur, &mut out, true)?;
        }

        // New sealed record runs. Loggers append epochs in seal order, so
        // the sealed region of every file is a byte prefix; decode from
        // the shipped offset and stop at the first record past the
        // frontier (or a torn tail a crashed logger left behind).
        let mut shipped_records = false;
        for disk in self.storage.disks() {
            for name in disk.list("log/") {
                // A batch whose first epoch is past the frontier holds no
                // sealed record yet: skip it unread, or a drain that steps
                // the frontier epoch by epoch re-reads every later batch
                // on every pass.
                let index = name.rsplit('/').next().and_then(|s| s.parse::<u64>().ok());
                if index.is_some_and(|b| b.saturating_mul(self.batch_epochs) > pepoch) {
                    continue;
                }
                let start = cur.offsets.get(&name).copied().unwrap_or(0);
                // Length is a metadata lookup (no simulated I/O cost):
                // skip fully-shipped files without paying read bandwidth.
                if disk.len(&name).unwrap_or(0) <= start {
                    continue;
                }
                // Only the unshipped tail is read off the device.
                let Ok(tail) = disk.read_from(&name, start) else {
                    continue;
                };
                // Borrowed-view scan: validate and measure the sealed run
                // without decoding records to owned values.
                let mut rc = Cursor::new(&tail);
                let mut end = 0usize;
                let mut n = 0u64;
                loop {
                    match RecordView::parse(&mut rc) {
                        Ok(view) if view.epoch() <= pepoch => {
                            end = rc.position();
                            n += 1;
                        }
                        // Past the frontier, or a torn tail: stop here and
                        // re-scan from this point on a later poll.
                        Ok(_) | Err(_) => break,
                    }
                    if rc.is_empty() {
                        break;
                    }
                }
                if end > 0 {
                    // Zero-copy: the frame references the sealed batch
                    // file's read buffer.
                    let run = tail.slice(..end);
                    out.bytes += run.len() as u64;
                    out.records += n;
                    out.frames.push(ShipFrame::Records {
                        file: name.clone(),
                        offset: start as u64,
                        bytes: run,
                    });
                    cur.offsets.insert(name, start + end);
                    shipped_records = true;
                }
            }
        }

        if shipped_records || pepoch > cur.shipped_pepoch {
            // Seal even a record-free advance: the standby's durable
            // frontier (and read freshness bound) still moves.
            if pepoch > 0 && pepoch != u64::MAX {
                out.frames.push(ShipFrame::Seal { pepoch });
                cur.shipped_pepoch = cur.shipped_pepoch.max(pepoch);
            } else if shipped_records {
                // Legacy `u64::MAX` "everything durable" sentinel: seal at
                // the highest epoch actually shipped.
                let mut max_epoch = 0;
                for f in &out.frames {
                    if let ShipFrame::Records { bytes, .. } = f {
                        let mut rc = Cursor::new(bytes);
                        while let Ok(view) = RecordView::parse(&mut rc) {
                            max_epoch = max_epoch.max(view.epoch());
                        }
                    }
                }
                if max_epoch > cur.shipped_pepoch {
                    out.frames.push(ShipFrame::Seal { pepoch: max_epoch });
                    cur.shipped_pepoch = max_epoch;
                }
            }
        }

        // Later chain tips ship strictly *behind* the records they cover
        // (the seal above just advanced the shipped frontier), so the
        // standby never sees a manifest filtering records still in flight.
        if !bootstrap {
            self.ship_chain(cur, &mut out, false)?;
        }

        // Re-check the pass's active hold (the reset pass's fresh guard,
        // else the cursor's own): a reclaim round that broke it *mid-pass*
        // may have deleted batches this walk silently skipped — the file
        // just vanishes from `list("log/")` — and the Seal above would
        // then claim completeness over records the standby can never
        // receive. Fail the pass instead (nothing commits); the next pass
        // opens with a Reset. A break cannot slip past this check: reclaim
        // marks the hold broken *before* it deletes anything.
        let active_broken = match &out.new_hold {
            Some(guard) => guard.is_broken(),
            None => {
                self.retention.is_some()
                    && self
                        .hold
                        .lock()
                        .as_ref()
                        .map(|h| h.is_broken())
                        .unwrap_or(false)
            }
        };
        if active_broken {
            return Err(Error::Unknown(
                "ship cursor hold broke mid-pass; retry the pump".into(),
            ));
        }

        Ok(out)
    }

    fn commit_counters(&self, p: &Produced) {
        self.counters.bytes.add(p.bytes);
        self.counters.records.add(p.records);
        self.counters.frames.add(p.frames.len() as u64);
    }

    /// Ship the manifest chain if its tip is new and (unless
    /// bootstrapping) already covered by the shipped frontier: resolved
    /// parts first, then per-ts manifests root→tip, then the tip cutover —
    /// the same crash ordering the checkpointer itself uses, so a standby
    /// crash mid-stream leaves a consistent chain.
    fn ship_chain(&self, cur: &mut ShipCursor, out: &mut Produced, bootstrap: bool) -> Result<()> {
        // Cheap early-out on the tip alone before resolving the whole
        // chain: a heartbeat-cadence poll must not pay a full chain walk
        // (up to `checkpoint_max_chain` manifest reads) on the primary's
        // device when the tip hasn't moved.
        let tip = match read_manifest(&self.storage)? {
            Some(m) => m.ts,
            None => return Ok(()),
        };
        if tip <= cur.shipped_chain_tip || (!bootstrap && epoch_of(tip) > cur.shipped_pepoch) {
            return Ok(());
        }
        // On a live stack the checkpointer's reclaim can race this walk:
        // a compaction may supersede the tip we just read and prune its
        // files before we finish reading them. That is transient. On an
        // ordinary pass, skip the chain (no tip cutover, so the standby
        // never sees a half-shipped chain) — the next pass ships the new
        // tip. On a *bootstrap* pass the chain is the standby's base
        // image and must not be skipped: error out without committing
        // the cursor, and the caller's next pump retries the whole pass.
        // On a post-mortem directory nothing reclaims, so a missing file
        // is real corruption and must surface either way.
        let live_races = self.retention.is_some();
        let transient = |what: &str| {
            Error::Unknown(format!(
                "bootstrap chain read raced a reclaim ({what}); retry the pump"
            ))
        };
        let chain = match read_chain(&self.storage) {
            Ok(Some(c)) => c,
            Ok(None) => return Ok(()),
            Err(_) if live_races && !bootstrap => return Ok(()),
            Err(e) if live_races => return Err(transient(&e.to_string())),
            Err(e) => return Err(e),
        };
        for part in chain.resolve_parts() {
            let name = part_name(part.ts, part.table, part.shard as usize);
            if cur.shipped_blobs.contains(&name) {
                continue;
            }
            let bytes = match self.storage.disk(part.disk as usize).read(&name) {
                Ok(b) => b,
                Err(_) if live_races && !bootstrap => return Ok(()),
                Err(e) if live_races => return Err(transient(&e.to_string())),
                Err(e) => return Err(e),
            };
            out.bytes += bytes.len() as u64;
            out.frames.push(ShipFrame::Blob {
                name: name.clone(),
                disk: part.disk,
                bytes,
            });
            cur.shipped_blobs.insert(name);
        }
        for m in chain.manifests.iter().rev() {
            let name = manifest_name(m.ts);
            if cur.shipped_blobs.contains(&name) {
                continue;
            }
            let bytes = Bytes::from(m.to_bytes());
            out.bytes += bytes.len() as u64;
            out.frames.push(ShipFrame::Blob {
                name: name.clone(),
                disk: 0, // manifests always live on device 0
                bytes,
            });
            cur.shipped_blobs.insert(name);
        }
        let tip_bytes = Bytes::from(chain.manifests[0].to_bytes());
        out.bytes += tip_bytes.len() as u64;
        out.frames.push(ShipFrame::ChainTip { bytes: tip_bytes });
        cur.shipped_chain_tip = tip;
        Ok(())
    }

    /// Expected batch file name (layout introspection for subscribers).
    pub fn batch_file(&self, logger: usize, batch: u64) -> String {
        batch_name(logger, batch)
    }
}

/// Stamp `Shipped` for the epochs a delivered `Seal` closes past the
/// frontier its pass started from (capped to the span table's window — a
/// bootstrap pass covers the whole history). Other frames stamp nothing.
fn stamp_seal(prev_shipped: u64, frame: &ShipFrame) {
    if let ShipFrame::Seal { pepoch } = frame {
        stamp_epochs(prev_shipped, *pepoch, pacman_obs::Stage::Shipped);
    }
}

/// One production pass's output: frames plus the counter deltas to commit
/// after (successful) delivery.
#[derive(Default)]
struct Produced {
    frames: Vec<ShipFrame>,
    records: u64,
    bytes: u64,
    /// The fresh subscriber hold a reset pass pinned before reading —
    /// installed in place of the broken one only when the pass commits;
    /// dropped (released) if delivery fails.
    new_hold: Option<RetentionHold>,
    /// The shipped frontier when the pass started — the epochs in
    /// `(prev_shipped, seal]` get their `Shipped` span stamp when the
    /// pass's seal is delivered.
    prev_shipped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::MANIFEST_FILE;
    use crate::record::{LogPayload, TxnLogRecord};
    use pacman_common::clock::epoch_floor;
    use pacman_common::{ProcId, Value};
    use pacman_storage::DiskConfig;

    fn cmd(ts: u64) -> TxnLogRecord {
        TxnLogRecord {
            ts,
            payload: LogPayload::Command {
                proc: ProcId::new(0),
                params: vec![Value::Int(ts as i64)].into(),
            },
        }
    }

    fn frame_roundtrip(f: &ShipFrame) {
        let bytes = f.to_bytes();
        let mut cur = Cursor::new(&bytes);
        let back = ShipFrame::decode(&mut cur).expect("decode");
        assert!(cur.is_empty());
        assert_eq!(&back, f);
    }

    #[test]
    fn frames_roundtrip() {
        frame_roundtrip(&ShipFrame::Hello {
            wire_version: SHIP_WIRE_VERSION,
            num_loggers: 2,
            batch_epochs: 16,
        });
        frame_roundtrip(&ShipFrame::Records {
            file: "log/00/0000000000".into(),
            offset: 7,
            bytes: vec![1, 2, 3].into(),
        });
        frame_roundtrip(&ShipFrame::Blob {
            name: "ckpt/00000000000000000001/t000.s0000".into(),
            disk: 1,
            bytes: vec![9; 40].into(),
        });
        frame_roundtrip(&ShipFrame::ChainTip {
            bytes: vec![7; 8].into(),
        });
        frame_roundtrip(&ShipFrame::Seal { pepoch: 42 });
        frame_roundtrip(&ShipFrame::Reset);
    }

    #[test]
    fn wrong_wire_version_is_rejected() {
        let mut bytes = Vec::new();
        bytes.push(1u8);
        put_u32(&mut bytes, SHIP_WIRE_VERSION + 1);
        put_u32(&mut bytes, 1);
        put_u64(&mut bytes, 16);
        assert!(ShipFrame::decode(&mut Cursor::new(&bytes)).is_err());
    }

    #[test]
    fn bad_tag_and_truncation_error_cleanly() {
        assert!(ShipFrame::decode(&mut Cursor::new(&[99u8])).is_err());
        let bytes = ShipFrame::Records {
            file: "log/00/0000000000".into(),
            offset: 0,
            bytes: vec![5; 20].into(),
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                ShipFrame::decode(&mut Cursor::new(&bytes[..cut])).is_err(),
                "cut at {cut} decoded"
            );
        }
    }

    #[test]
    fn shipper_ships_only_sealed_records_and_resumes() {
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("s"));
        let mut buf = Vec::new();
        cmd(epoch_floor(1) | 1).encode(&mut buf);
        cmd(epoch_floor(2) | 2).encode(&mut buf);
        cmd(epoch_floor(3) | 3).encode(&mut buf);
        storage.disk(0).append(&batch_name(0, 0), &buf);

        let shipper = LogShipper::new(storage.clone(), 1, 16);
        // Frontier at 2: the epoch-3 record stays behind.
        let frames = shipper.poll(2).unwrap();
        assert!(matches!(frames[0], ShipFrame::Hello { .. }));
        let ShipFrame::Records { bytes, .. } = &frames[1] else {
            panic!("expected records, got {frames:?}");
        };
        let mut rc = Cursor::new(bytes);
        assert_eq!(TxnLogRecord::decode(&mut rc).unwrap().epoch(), 1);
        assert_eq!(TxnLogRecord::decode(&mut rc).unwrap().epoch(), 2);
        assert!(rc.is_empty());
        assert_eq!(frames[2], ShipFrame::Seal { pepoch: 2 });
        assert_eq!(shipper.shipped_records(), 2);

        // Idle poll at the same frontier: nothing.
        assert!(shipper.poll(2).unwrap().is_empty());

        // Frontier advances: exactly the epoch-3 record follows, no
        // re-shipping (the cursor survived the "reconnect").
        let frames = shipper.poll(3).unwrap();
        assert_eq!(frames.len(), 2);
        let ShipFrame::Records { bytes, .. } = &frames[0] else {
            panic!("expected records");
        };
        let mut rc = Cursor::new(bytes);
        assert_eq!(TxnLogRecord::decode(&mut rc).unwrap().epoch(), 3);
        assert!(rc.is_empty());
        assert_eq!(frames[1], ShipFrame::Seal { pepoch: 3 });
        assert_eq!(shipper.shipped_records(), 3);
    }

    #[test]
    fn batches_past_the_frontier_are_not_read() {
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("s"));
        let (mut early, mut late) = (Vec::new(), Vec::new());
        cmd(epoch_floor(1) | 1).encode(&mut early);
        cmd(epoch_floor(16) | 2).encode(&mut late);
        storage.disk(0).append(&batch_name(0, 0), &early);
        storage.disk(0).append(&batch_name(0, 1), &late);
        let shipper = LogShipper::new(storage.clone(), 1, 16);
        assert_eq!(shipper.poll(15).unwrap().len(), 3, "hello, records, seal");
        assert_eq!(storage.disk(0).stats().bytes_read, early.len() as u64);
        assert_eq!(shipper.poll(16).unwrap().len(), 2, "records, seal");
        assert_eq!(shipper.shipped_records(), 2);
    }

    #[test]
    fn per_epoch_polls_read_each_byte_once() {
        // A live primary: each epoch's seal appends to the batch file, and
        // the shipper polls once per epoch. Only the unshipped tail is read.
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("s"));
        let shipper = LogShipper::new(storage.clone(), 1, 8);
        let mut len = 0;
        for epoch in 1..=8 {
            let sealed = cmd(epoch_floor(epoch) | epoch).to_bytes();
            storage.disk(0).append(&batch_name(0, 0), &sealed);
            len += sealed.len() as u64;
            shipper.poll(epoch).unwrap();
        }
        assert_eq!(shipper.shipped_records(), 8);
        assert_eq!(storage.disk(0).stats().bytes_read, len);
    }

    #[test]
    fn failed_delivery_leaves_the_cursor_untouched() {
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("s"));
        let mut buf = Vec::new();
        cmd(epoch_floor(1) | 1).encode(&mut buf);
        cmd(epoch_floor(2) | 2).encode(&mut buf);
        storage.disk(0).append(&batch_name(0, 0), &buf);
        let shipper = LogShipper::new(storage, 1, 16);

        // The link dies after the first frame: ship must error and keep
        // the cursor where it was (no frame is ever lost).
        let mut delivered = 0;
        let err = shipper.ship(2, |_f| {
            delivered += 1;
            if delivered >= 2 {
                Err(Error::Unknown("link died".into()))
            } else {
                Ok(())
            }
        });
        assert!(err.is_err());
        assert_eq!(shipper.cursor().shipped_pepoch(), 0, "cursor rolled back");
        assert_eq!(shipper.shipped_records(), 0, "no counters on failure");

        // A retry over the same cursor re-produces the full stream.
        let mut frames = Vec::new();
        shipper
            .ship(2, |f| {
                frames.push(f.clone());
                Ok(())
            })
            .unwrap();
        assert!(matches!(frames[0], ShipFrame::Hello { .. }));
        assert!(
            matches!(&frames[1], ShipFrame::Records { offset, .. } if *offset == 0),
            "records redelivered from offset 0: {frames:?}"
        );
        assert_eq!(frames[2], ShipFrame::Seal { pepoch: 2 });
        assert_eq!(shipper.cursor().shipped_pepoch(), 2);
        assert_eq!(shipper.shipped_records(), 2);
    }

    #[test]
    fn attached_shipper_pins_and_advances_its_hold() {
        use crate::retention::{RetentionManager, RetentionPolicy};
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("s"));
        let mut buf = Vec::new();
        cmd(epoch_floor(1) | 1).encode(&mut buf);
        cmd(epoch_floor(2) | 2).encode(&mut buf);
        storage.disk(0).append(&batch_name(0, 0), &buf);
        let retention = RetentionManager::new(storage.clone(), 1, 16, RetentionPolicy::default());
        let shipper =
            LogShipper::with_retention(storage, 1, 16, Arc::default(), Arc::clone(&retention));
        // The fresh cursor pins everything; a delivered pass advances the
        // hold past the shipped frontier so GC can follow the cursor.
        assert_eq!(retention.log_frontier_batch(u64::MAX >> 1), 0);
        shipper.poll(2).unwrap();
        assert_eq!(
            retention.log_frontier_batch(u64::MAX >> 1),
            0,
            "epoch 3 still owed"
        );
        shipper.poll(40).unwrap();
        // Frontier 40 shipped: the hold floor is 41 → batch 2.
        assert_eq!(retention.log_frontier_batch(u64::MAX >> 1), 2);
    }

    #[test]
    fn broken_hold_resets_and_rebootstraps() {
        use crate::retention::{RetentionManager, RetentionPolicy};
        use pacman_common::{Row, TableId};
        use pacman_engine::Catalog;
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("s"));
        // A never-polling subscriber attaches while log + coverage grow.
        let retention = RetentionManager::new(
            storage.clone(),
            1,
            4,
            RetentionPolicy {
                max_subscriber_lag_bytes: Some(16),
            },
        );
        let shipper = LogShipper::with_retention(
            storage.clone(),
            1,
            4,
            Arc::default(),
            Arc::clone(&retention),
        );
        let mut buf = Vec::new();
        for e in 1..=8u64 {
            cmd(epoch_floor(e) | 1).encode(&mut buf);
        }
        // batch_epochs = 4: epochs 1..8 span batches 0 and 1.
        storage
            .disk(0)
            .append(&batch_name(0, 0), &buf[..buf.len() / 2]);
        storage
            .disk(0)
            .append(&batch_name(0, 1), &buf[buf.len() / 2..]);
        // A checkpoint whose tip covers both batches.
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = std::sync::Arc::new(pacman_engine::Database::new(c));
        db.seed_row(TableId::new(0), 0, Row::from([Value::Int(0)]))
            .unwrap();
        db.clock().advance_to(epoch_floor(9));
        crate::checkpoint::run_checkpoint(&db, &storage, 1).unwrap();
        let chain = read_chain(&storage).unwrap().unwrap();

        // The reclaim round breaks the lagging cursor and frees the log.
        let st = retention.reclaim(&chain);
        assert_eq!(st.holds_broken, 1);
        assert!(storage.disk(0).read(&batch_name(0, 0)).is_err());

        // The next pass self-heals: Reset, then a full bootstrap stream
        // over the surviving history (chain tip before any records).
        let frames = shipper.poll(9).unwrap();
        assert_eq!(frames[0], ShipFrame::Reset);
        assert!(matches!(frames[1], ShipFrame::Hello { .. }));
        assert!(frames
            .iter()
            .any(|f| matches!(f, ShipFrame::ChainTip { .. })));
        assert_eq!(shipper.rebootstraps(), 1);
        // The fresh hold is live, unbroken, and advanced past coverage.
        assert_eq!(retention.live_holds(), 1);
        assert!(retention.log_frontier_batch(u64::MAX >> 1) >= 2);
        // Subsequent passes are ordinary (no second reset).
        assert!(shipper.poll(9).unwrap().is_empty());
        assert_eq!(shipper.rebootstraps(), 1);
    }

    #[test]
    fn shipper_stops_at_torn_tail() {
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("s"));
        let mut buf = Vec::new();
        cmd(epoch_floor(1) | 1).encode(&mut buf);
        buf.extend_from_slice(&[0xFF; 5]); // torn write past the frontier
        storage.disk(0).append(&batch_name(0, 0), &buf);
        let shipper = LogShipper::new(storage, 1, 16);
        let frames = shipper.poll(5).unwrap();
        let ShipFrame::Records { bytes, .. } = &frames[1] else {
            panic!("expected records");
        };
        let mut rc = Cursor::new(bytes);
        assert!(TxnLogRecord::decode(&mut rc).is_ok());
        assert!(rc.is_empty(), "torn bytes must not ship");
    }

    #[test]
    fn bootstrap_ships_chain_before_records() {
        use pacman_common::{Row, TableId};
        use pacman_engine::Catalog;
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("s"));
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = std::sync::Arc::new(pacman_engine::Database::new(c));
        for k in 0..4u64 {
            db.seed_row(TableId::new(0), k, Row::from([Value::Int(k as i64)]))
                .unwrap();
        }
        crate::checkpoint::run_checkpoint(&db, &storage, 1).unwrap();
        let mut buf = Vec::new();
        cmd(epoch_floor(1) | 1).encode(&mut buf);
        storage.disk(0).append(&batch_name(0, 0), &buf);

        let shipper = LogShipper::new(storage.clone(), 1, 16);
        let frames = shipper.poll(1).unwrap();
        // Hello, part blob, per-ts manifest blob, tip, records, seal.
        assert!(matches!(frames[0], ShipFrame::Hello { .. }));
        let tip_pos = frames
            .iter()
            .position(|f| matches!(f, ShipFrame::ChainTip { .. }))
            .expect("chain tip shipped");
        let rec_pos = frames
            .iter()
            .position(|f| matches!(f, ShipFrame::Records { .. }))
            .expect("records shipped");
        assert!(tip_pos < rec_pos, "bootstrap chain precedes records");
        assert!(frames
            .iter()
            .any(|f| matches!(f, ShipFrame::Blob { name, .. } if name.starts_with("ckpt/"))));
        assert!(matches!(frames.last(), Some(ShipFrame::Seal { pepoch: 1 })));
        // Applying the blobs to a standby directory yields a readable
        // chain with the same tip.
        let standby = StorageSet::identical(1, DiskConfig::unthrottled("r"));
        for f in &frames {
            match f {
                ShipFrame::Blob { name, disk, bytes } => {
                    standby.disk(*disk as usize).write_file(name, bytes)
                }
                ShipFrame::ChainTip { bytes } => standby.disk(0).write_file(MANIFEST_FILE, bytes),
                _ => {}
            }
        }
        let chain = read_chain(&standby).unwrap().unwrap();
        assert_eq!(chain.ts(), read_chain(&storage).unwrap().unwrap().ts());
    }

    #[test]
    fn later_chain_tips_wait_for_covered_records() {
        use pacman_common::{Row, TableId};
        use pacman_engine::Catalog;
        let storage = StorageSet::identical(1, DiskConfig::unthrottled("s"));
        let mut c = Catalog::new();
        c.add_table("t", 1);
        let db = std::sync::Arc::new(pacman_engine::Database::new(c));
        db.seed_row(TableId::new(0), 0, Row::from([Value::Int(0)]))
            .unwrap();
        let shipper = LogShipper::new(storage.clone(), 1, 16);
        // First poll: no chain yet, one sealed record at epoch 1.
        let mut buf = Vec::new();
        cmd(epoch_floor(1) | 1).encode(&mut buf);
        storage.disk(0).append(&batch_name(0, 0), &buf);
        let _ = shipper.poll(1).unwrap();
        // A checkpoint lands at a timestamp past the shipped frontier:
        // the tip must hold until the frontier catches up.
        db.clock().advance_to(epoch_floor(9));
        crate::checkpoint::run_checkpoint(&db, &storage, 1).unwrap();
        let frames = shipper.poll(1).unwrap();
        assert!(
            !frames
                .iter()
                .any(|f| matches!(f, ShipFrame::ChainTip { .. })),
            "tip shipped before its covered records: {frames:?}"
        );
        // Frontier reaches the tip's epoch: now it ships.
        let tip_epoch = epoch_of(read_chain(&storage).unwrap().unwrap().ts());
        let frames = shipper.poll(tip_epoch).unwrap();
        assert!(frames
            .iter()
            .any(|f| matches!(f, ShipFrame::ChainTip { .. })));
    }
}
